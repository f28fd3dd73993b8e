//! Property-based coverage of the two exploration-layer guarantees the
//! gathering proofs consume: `EXPLO(N)` universality (the certified
//! sequence visits every node of *any* graph in its size class, §2) and
//! `TZ(L)` schedule separation (distinct parameters yield schedules that
//! differ within the prefix-free-code horizon, §2).

use std::sync::Arc;

use proptest::prelude::*;

use nochatter::explore::{Explo, Uxs};
use nochatter::graph::{generators, Label, NodeId};
use nochatter::rendezvous::ActivitySchedule;
use nochatter::sim::proc::Procedure;
use nochatter::sim::{Declaration, Engine, WakeSchedule};

/// The size class the exhaustive sequence is certified for. Kept small:
/// the certification corpus is *every* connected port-labeled graph of
/// size `2..=N`, which grows very quickly.
const N: u32 = 4;

fn exhaustive_uxs() -> &'static Arc<Uxs> {
    use std::sync::OnceLock;
    static UXS: OnceLock<Arc<Uxs>> = OnceLock::new();
    UXS.get_or_init(|| Arc::new(Uxs::exhaustive_universal(N, 7)))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// EXPLO(N) universality: the exhaustively certified sequence covers
    /// every node of random connected graphs with `n <= N` — graphs drawn
    /// independently of the certification corpus — from every start node.
    #[test]
    fn explo_universal_on_random_graphs(
        n in 2u32..=N,
        extra in 0u32..4,
        seed in any::<u64>(),
        shuffle in any::<bool>(),
    ) {
        let mut g = generators::random_connected(n, extra, seed);
        if shuffle {
            // Port re-numbering must not defeat universality: the class is
            // closed under it.
            g = generators::with_shuffled_ports(&g, seed ^ 0x5A5A);
        }
        let uxs = exhaustive_uxs();
        for start in g.nodes() {
            prop_assert!(
                uxs.covers(&g, start),
                "EXPLO({N}) missed a node of an n={} graph from start {start}",
                g.node_count()
            );
        }
    }

    /// The engine-level contract: an agent executing `EXPLO` visits every
    /// node and is back at its start node after exactly `T(EXPLO)` rounds.
    #[test]
    fn explo_returns_to_start(n in 2u32..=N, extra in 0u32..3, seed in any::<u64>()) {
        let g = generators::random_connected(n, extra, seed);
        let uxs = exhaustive_uxs();
        let start = NodeId::new((seed % u64::from(g.node_count() as u32)) as u32);
        let walk = uxs.walk(&g, start);
        prop_assert_eq!(walk[0], start);
        // Engine check: run to completion, confirm duration.
        let mut engine = Engine::new(&g);
        engine.add_agent(
            Label::new(1).unwrap(),
            start,
            Box::new(Explo::new(Arc::clone(uxs)).map(|_| Declaration::bare())),
        );
        engine.set_wake_schedule(WakeSchedule::Simultaneous);
        let outcome = engine.run(Explo::duration(uxs.as_ref()) + 2).expect("engine runs");
        prop_assert!(outcome.all_declared(), "EXPLO must terminate in T(EXPLO) rounds");
        let record = outcome.declarations[0].1.expect("agent declared");
        prop_assert_eq!(
            record.node,
            start,
            "the backtrack half must return the agent to its start node, not {}",
            record.node
        );
    }

    /// TZ(L) separation: schedules of distinct parameters differ in some
    /// block within the smaller parameter's encoded prefix (`2ℓ+2` blocks)
    /// — the property Algorithm 3's meeting argument rests on.
    #[test]
    fn tz_schedules_differ_for_distinct_labels(a in 1u64..4096, b in 1u64..4096) {
        prop_assume!(a != b);
        let sa = ActivitySchedule::for_param(a);
        let sb = ActivitySchedule::for_param(b);
        let diff = sa.first_difference(&sb);
        prop_assert!(diff.is_some(), "schedules of {a} and {b} must differ");
        let min_bits = (64 - a.leading_zeros()).min(64 - b.leading_zeros()) as usize;
        prop_assert!(
            diff.unwrap() < 2 * min_bits + 2,
            "params {a},{b}: difference at block {} outside the 2ℓ+2 horizon {}",
            diff.unwrap(),
            2 * min_bits + 2
        );
    }

    /// Equal parameters produce identical schedules — symmetric groups must
    /// stay lock-stepped until the algorithm breaks symmetry elsewhere.
    #[test]
    fn tz_schedules_agree_for_equal_labels(a in 0u64..4096, horizon in 1usize..64) {
        let sa = ActivitySchedule::for_param(a);
        let sb = ActivitySchedule::for_param(a);
        prop_assert_eq!(sa.first_difference(&sb), None);
        for block in 0..horizon {
            prop_assert_eq!(sa.is_active(block), sb.is_active(block));
        }
    }
}
