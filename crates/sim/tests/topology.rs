//! The topology generalization's two contracts, property-tested:
//!
//! 1. **Static is free.** Running through the dynamic machinery with
//!    [`TopologySpec::Static`] is bitwise identical to [`Engine::new`]'s
//!    default static path — across graph families, sensing modes and wake
//!    schedules, through a deliberately dirty shared scratch. Together
//!    with the golden smoke campaign (byte-identical to the pre-refactor
//!    recording), this pins the refactor as a pure generalization.
//!
//! 2. **Dynamics are faithful.** Every `Move` in a dynamic run's trace
//!    crossed an edge that an independently-built view confirms present in
//!    that round, and every `Blocked` event names an edge absent in that
//!    round — the engine never teleports through an outage and never
//!    blocks a live edge.

use std::cell::RefCell;

use proptest::prelude::*;

use nochatter_graph::dynamic::{DynamicRing, PeriodicEdges, SeededEdgeFailure};
use nochatter_graph::generators::Family;
use nochatter_graph::rng::Rng;
use nochatter_graph::{Graph, Label, NodeId, Port};
use nochatter_sim::proc::Procedure;
use nochatter_sim::{
    Action, Declaration, Engine, EngineScratch, Obs, Poll, Sensing, Topology, TopologySpec,
    TopologyView, TraceEvent, WakeSchedule,
};

/// A seeded random walker (same shape as the determinism suite's): waits
/// or takes a random port for a seed-determined number of rounds, then
/// declares its move count.
struct SeededWalker {
    rng: Rng,
    steps: u32,
    moves: u32,
}

impl SeededWalker {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let steps = rng.range(40) as u32;
        SeededWalker {
            rng,
            steps,
            moves: 0,
        }
    }
}

impl Procedure for SeededWalker {
    type Output = u32;
    fn poll(&mut self, obs: &Obs) -> Poll<u32> {
        if self.steps == 0 {
            return Poll::Complete(self.moves);
        }
        self.steps -= 1;
        if self.rng.bool() {
            Poll::Yield(Action::Wait)
        } else {
            self.moves += 1;
            Poll::Yield(Action::TakePort(Port::new(
                self.rng.range(u64::from(obs.degree)) as u32,
            )))
        }
    }
}

fn add_walkers<V: TopologyView>(
    engine: &mut Engine<'_, V>,
    starts: &[u32],
    seed: u64,
    schedule: &WakeSchedule,
    sensing: Sensing,
) {
    engine.record_trace(1 << 14);
    engine.set_sensing(sensing);
    for (i, &start) in starts.iter().enumerate() {
        let agent_seed = nochatter_graph::rng::derive_seed(seed, &[i as u64]);
        engine.add_agent(
            Label::new(i as u64 + 1).unwrap(),
            NodeId::new(start),
            Box::new(SeededWalker::new(agent_seed).map(|m| Declaration {
                leader: None,
                size: Some(m),
            })),
        );
    }
    engine.set_wake_schedule(schedule.clone());
}

fn scenario_strategy() -> impl Strategy<Value = (Graph, Vec<u32>, u64, WakeSchedule, Sensing)> {
    (0usize..4, 4u32..9, any::<u64>(), 0u64..3, any::<bool>()).prop_map(
        |(family, n, seed, sched, traditional)| {
            let family = [
                Family::Ring,
                Family::Grid,
                Family::RandomTree,
                Family::RandomConnected,
            ][family];
            let graph = family.instantiate(n, seed);
            let n_actual = graph.node_count() as u32;
            let starts = vec![0, n_actual / 3 + 1, 2 * n_actual / 3 + 1];
            let schedule = match sched {
                0 => WakeSchedule::Simultaneous,
                1 => WakeSchedule::FirstOnly,
                _ => WakeSchedule::Staggered { gap: seed % 7 + 1 },
            };
            let sensing = if traditional {
                Sensing::Traditional
            } else {
                Sensing::Weak
            };
            (graph, starts, seed, schedule, sensing)
        },
    )
}

proptest! {
    /// The static-oracle property: the default engine (the pre-refactor
    /// code path, monomorphized over the zero-cost `Static` view) and the
    /// dynamic machinery running `TopologySpec::Static` produce bitwise
    /// identical outcomes — across families, sensing modes and wake
    /// schedules, with the spec-view run sharing one dirty scratch.
    #[test]
    fn static_spec_view_is_bitwise_identical_to_the_static_engine(
        (graph, starts, seed, schedule, sensing) in scenario_strategy()
    ) {
        thread_local! {
            static SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::new());
        }
        prop_assume!(starts[0] != starts[1] && starts[1] != starts[2] && starts[0] != starts[2]);
        let mut oracle = Engine::new(&graph);
        add_walkers(&mut oracle, &starts, seed, &schedule, sensing);
        let a = oracle.run(500).unwrap();
        let b = SCRATCH.with(|scratch| {
            let mut engine = Engine::with_topology(&graph, &TopologySpec::Static);
            add_walkers(&mut engine, &starts, seed, &schedule, sensing);
            engine.run_with_scratch(500, &mut scratch.borrow_mut()).unwrap()
        });
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        prop_assert_eq!(ta.events(), tb.events());
        prop_assert_eq!(a.blocked_moves, 0);
        prop_assert_eq!(b.blocked_moves, 0);
    }

    /// Replay every dynamic trace against an independently built view:
    /// moves only over present edges, blocks only on absent ones, and the
    /// blocked-move counter matches the trace.
    #[test]
    fn dynamic_traces_respect_edge_presence(
        (graph, starts, seed, schedule, sensing) in scenario_strategy(),
        which in 0usize..3,
    ) {
        prop_assume!(starts[0] != starts[1] && starts[1] != starts[2] && starts[0] != starts[2]);
        let spec = match which {
            0 => TopologySpec::Periodic(PeriodicEdges { period: 3, offset: seed % 3 }),
            1 => TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.3, seed }),
            _ => TopologySpec::Ring(DynamicRing { seed }),
        };
        prop_assume!(spec.compatible_with(&graph));
        let mut engine = Engine::with_topology(&graph, &spec);
        add_walkers(&mut engine, &starts, seed, &schedule, sensing);
        let outcome = engine.run(500).unwrap();
        let mut replay = spec.view(&graph);
        let mut blocked_seen = 0u64;
        for event in outcome.trace.as_ref().unwrap().events() {
            match *event {
                TraceEvent::Move { round, from, port, .. } => {
                    replay.begin_round(round);
                    prop_assert!(
                        replay.edge_present(from, port),
                        "moved through an absent edge in round {round}"
                    );
                }
                TraceEvent::Blocked { round, node, port, .. } => {
                    replay.begin_round(round);
                    prop_assert!(
                        !replay.edge_present(node, port),
                        "blocked on a present edge in round {round}"
                    );
                    blocked_seen += 1;
                }
                _ => {}
            }
        }
        prop_assert_eq!(outcome.trace.as_ref().unwrap().dropped(), 0);
        prop_assert_eq!(outcome.blocked_moves, blocked_seen);
    }

    /// Dynamic runs are themselves deterministic: same spec, same inputs,
    /// same bits.
    #[test]
    fn dynamic_runs_are_deterministic(
        (graph, starts, seed, schedule, sensing) in scenario_strategy()
    ) {
        prop_assume!(starts[0] != starts[1] && starts[1] != starts[2] && starts[0] != starts[2]);
        let spec = TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.25, seed });
        let run = || {
            let mut engine = Engine::with_topology(&graph, &spec);
            add_walkers(&mut engine, &starts, seed, &schedule, sensing);
            engine.run(500).unwrap()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

/// A dense-outage run actually exercises blocking (the proptests above
/// would hold vacuously if no edge were ever absent).
#[test]
fn heavy_failure_rate_produces_blocked_moves() {
    let graph = Family::Ring.instantiate(6, 1);
    let spec = TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.9, seed: 5 });
    let mut engine = Engine::with_topology(&graph, &spec);
    add_walkers(
        &mut engine,
        &[0, 2, 4],
        7,
        &WakeSchedule::Simultaneous,
        Sensing::Weak,
    );
    let outcome = engine.run(500).unwrap();
    assert!(
        outcome.blocked_moves > 0,
        "a 90% failure rate must block some of the walkers' moves"
    );
}
