//! Property-based coverage of the two exploration-layer guarantees the
//! gathering proofs consume: `EXPLO(N)` universality (the certified
//! sequence visits every node of *any* graph in its size class, §2) and
//! `TZ(L)` schedule separation (distinct parameters yield schedules that
//! differ within the prefix-free-code horizon, §2) — and the engine's held
//! walk against the walk rule, on static and failing edges.

use std::sync::Arc;

use proptest::prelude::*;

use nochatter::explore::{Explo, Uxs};
use nochatter::graph::dynamic::{SeededEdgeFailure, Topology, TopologyView};
use nochatter::graph::generators::{self, Family};
use nochatter::graph::{Graph, Label, NodeId, Port};
use nochatter::rendezvous::ActivitySchedule;
use nochatter::sim::proc::{Procedure, WaitRounds};
use nochatter::sim::{Declaration, Engine, TraceEvent, WakeSchedule};

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
            Box::new(Explo::new(uxs).map(|_| Declaration::bare())),
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

    /// The engine-held walk on the graphs of the digest proptest
    /// (`crates/core/tests/digest.rs`): its forward moves visit exactly
    /// `Uxs::walk`'s nodes, its backtrack retraces them to the start, and
    /// under seeded edge failures every move is attempted round after
    /// round until its edge is present (the rewind rule), each failed
    /// attempt a `Blocked` event. An inert second agent's body sits on the
    /// way; the walk's smallest `CurCard` is the walker's own 1.
    #[test]
    fn held_walks_follow_the_walk_rule(
        family in 0usize..5,
        n in 4u32..7,
        seed in any::<u64>(),
        failing in any::<bool>(),
    ) {
        let g = [Family::Ring, Family::Path, Family::Star, Family::Grid, Family::RandomTree]
            [family]
            .instantiate(n, seed);
        let uxs = Uxs::covering(std::slice::from_ref(&g), seed).unwrap();
        let start = NodeId::new((seed % u64::from(g.node_count() as u32)) as u32);
        let other = NodeId::new((start.index() as u32 + 1) % g.node_count() as u32);
        let failure = SeededEdgeFailure { p: if failing { 0.2 } else { 0.0 }, seed };
        let walker = Label::new(1).unwrap();
        let mut engine = Engine::with_topology(&g, &failure);
        engine.add_agent(
            walker,
            start,
            Box::new(Explo::new(&uxs).map(|out| Declaration {
                leader: None,
                size: Some(out.min_card),
            })),
        );
        engine.add_agent(
            Label::new(2).unwrap(),
            other,
            Box::new(WaitRounds::new(0).map(|()| Declaration::bare())),
        );
        engine.record_trace(1 << 16);
        let outcome = engine.run(1 << 20).expect("the walk runs");
        let events: Vec<TraceEvent> = outcome
            .trace
            .as_ref()
            .unwrap()
            .events()
            .iter()
            .filter(|e| matches!(e,
                TraceEvent::Move { agent, .. } | TraceEvent::Blocked { agent, .. }
                    | TraceEvent::Declare { agent, .. } if *agent == walker))
            .cloned()
            .collect();
        let moves = walk_moves(&g, &uxs, start);
        let forward: Vec<NodeId> = std::iter::once(start)
            .chain(moves[..uxs.len()].iter().map(|m| m.2))
            .collect();
        prop_assert_eq!(&forward, &uxs.walk(&g, start));
        prop_assert_eq!(moves.last().unwrap().2, start);
        let expected = rewind_rule(&g, &failure, walker, &moves);
        prop_assert_eq!(&events[..events.len() - 1], &expected[..]);
        let declared = outcome.declarations[0].1.expect("the walker declares");
        prop_assert_eq!(declared.node, start);
        prop_assert_eq!(declared.round, expected.len() as u64);
        prop_assert_eq!(declared.declaration.size, Some(1));
        if !failing {
            prop_assert_eq!(declared.round, Explo::duration(&uxs));
        }
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

/// The walk's moves on `g` from `start`, as `(from, port, to)`: the
/// effective part by the sequence (enter by `p`, leave by
/// `(p + x_i) mod d`, the start entered by 0), then the backtrack by the
/// recorded entry ports in reverse.
fn walk_moves(g: &Graph, uxs: &Uxs, start: NodeId) -> Vec<(NodeId, Port, NodeId)> {
    let (mut at, mut entry) = (start, 0);
    let mut forward = Vec::new();
    for i in 0..uxs.len() {
        let port = Port::new((entry + uxs.step(i)) % g.degree(at));
        let (to, back) = g.neighbor(at, port).unwrap();
        forward.push((at, port, to, back));
        (at, entry) = (to, back.number());
    }
    let back = forward
        .iter()
        .rev()
        .map(|&(from, _, to, back)| (to, back, from));
    let out = forward.iter().map(|&(from, port, to, _)| (from, port, to));
    out.chain(back).collect()
}

/// The events of a lone walker making `moves` from round 0 under
/// `failure`: each move attempted every round, blocked while its edge is
/// absent, until it goes through.
fn rewind_rule(
    g: &Graph,
    failure: &SeededEdgeFailure,
    agent: Label,
    moves: &[(NodeId, Port, NodeId)],
) -> Vec<TraceEvent> {
    let mut view = failure.view(g);
    let mut events = Vec::new();
    let mut round = 0;
    for &(from, port, to) in moves {
        loop {
            view.begin_round(round);
            let present = view.edge_present(from, port);
            events.push(if present {
                TraceEvent::Move {
                    agent,
                    round,
                    from,
                    to,
                    port,
                }
            } else {
                TraceEvent::Blocked {
                    agent,
                    round,
                    node: from,
                    port,
                }
            });
            round += 1;
            if present {
                break;
            }
        }
    }
    events
}
