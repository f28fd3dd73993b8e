//! The engine's reproducibility contract, property-tested: two runs built
//! from identical inputs (graph, agents, wake schedule, behavior seeds)
//! produce bitwise-identical traces and outcomes.
//!
//! This is the foundation the `nochatter-lab` campaign runner stands on —
//! sharding scenarios across worker threads can only be deterministic if
//! each individual run is. The trace kind is not an input either: a
//! digest-only trace hashes a run exactly as a stored one does, through
//! the lone-agent path and the catch-up of lagging waiters.

use std::cell::RefCell;

use proptest::prelude::*;

use nochatter_graph::generators::Family;
use nochatter_graph::rng::Rng;
use nochatter_graph::{Graph, Label, NodeId, Port};
use nochatter_sim::proc::{ProcBehavior, Procedure, UntilCardExceeds, WaitRounds};
use nochatter_sim::{
    Action, AgentBehavior, Declaration, Engine, EngineScratch, Obs, Poll, Sensing, Trace,
    WakeSchedule,
};

/// A seeded random walker: each round it either waits or takes a random
/// port, for a seed-determined number of rounds, then declares how many
/// moves it made. Exercises moves, waits, co-location and wake-on-visit in
/// one behavior while staying a pure function of its seed.
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

fn build_engine<'g>(
    graph: &'g Graph,
    starts: &[u32],
    seed: u64,
    schedule: &WakeSchedule,
) -> Engine<'g> {
    let mut engine = Engine::new(graph);
    engine.record_trace(1 << 14);
    for (i, &start) in starts.iter().enumerate() {
        let agent_seed = nochatter_graph::rng::derive_seed(seed, &[i as u64]);
        engine.add_agent(
            Label::new(i as u64 + 1).unwrap(),
            NodeId::new(start),
            Box::new(ProcBehavior::mapping(SeededWalker::new(agent_seed), |m| {
                Declaration {
                    leader: None,
                    size: Some(m),
                }
            })),
        );
    }
    engine.set_wake_schedule(schedule.clone());
    engine
}

fn scenario_strategy() -> impl Strategy<Value = (Graph, Vec<u32>, u64, WakeSchedule)> {
    (0usize..4, 4u32..9, any::<u64>(), 0u64..3).prop_map(|(family, n, seed, sched)| {
        let family = [
            Family::Ring,
            Family::Grid,
            Family::RandomTree,
            Family::RandomConnected,
        ][family];
        let graph = family.instantiate(n, seed);
        let n_actual = graph.node_count() as u32;
        // Three agents spread over the graph (distinct nodes).
        let starts = vec![0, n_actual / 3 + 1, 2 * n_actual / 3 + 1];
        let schedule = match sched {
            0 => WakeSchedule::Simultaneous,
            1 => WakeSchedule::FirstOnly,
            _ => WakeSchedule::Staggered { gap: seed % 7 + 1 },
        };
        (graph, starts, seed, schedule)
    })
}

proptest! {
    #[test]
    fn identical_inputs_give_bitwise_identical_runs(
        (graph, starts, seed, schedule) in scenario_strategy()
    ) {
        // Starts must be distinct for a valid engine setup.
        prop_assume!(starts[0] != starts[1] && starts[1] != starts[2] && starts[0] != starts[2]);
        let a = build_engine(&graph, &starts, seed, &schedule).run(500).unwrap();
        let b = build_engine(&graph, &starts, seed, &schedule).run(500).unwrap();
        // Debug formatting covers every field of the outcome, declarations
        // included — and the traces, event for event.
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        prop_assert_eq!(ta.events(), tb.events());
        prop_assert_eq!(ta.dropped(), tb.dropped());
    }

    /// `run` and `run_with_scratch` are the same computation: for random
    /// scenarios under both sensing modes, the outcomes and traces are
    /// bitwise identical. The scratch persists across proptest cases (and
    /// is deliberately left dirty between them), so this also pins the
    /// reuse contract across different graphs, team placements and
    /// schedules.
    #[test]
    fn run_with_scratch_is_bitwise_identical_to_run(
        (graph, starts, seed, schedule) in scenario_strategy(),
        traditional in any::<bool>(),
    ) {
        thread_local! {
            static SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::new());
        }
        prop_assume!(starts[0] != starts[1] && starts[1] != starts[2] && starts[0] != starts[2]);
        let sensing = if traditional { Sensing::Traditional } else { Sensing::Weak };
        let mut fresh = build_engine(&graph, &starts, seed, &schedule);
        fresh.set_sensing(sensing);
        let a = fresh.run(500).unwrap();
        let b = SCRATCH.with(|scratch| {
            let mut reused = build_engine(&graph, &starts, seed, &schedule);
            reused.set_sensing(sensing);
            reused.run_with_scratch(500, &mut scratch.borrow_mut()).unwrap()
        });
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        prop_assert_eq!(ta.events(), tb.events());
        prop_assert_eq!(ta.dropped(), tb.dropped());
    }

    #[test]
    fn different_behavior_seeds_diverge_somewhere(base in any::<u64>()) {
        // Sanity for the property above: the walker actually *uses* its
        // seed, so two different seeds produce different traces for at
        // least one of a handful of attempts (a fixed walk would make the
        // determinism test vacuous).
        let graph = Family::Ring.instantiate(6, 1);
        let starts = [0u32, 2, 4];
        let mut diverged = false;
        for offset in 0..5u64 {
            let a = build_engine(&graph, &starts, base.wrapping_add(offset), &WakeSchedule::Simultaneous)
                .run(500)
                .unwrap();
            let b = build_engine(&graph, &starts, base.wrapping_add(offset + 1), &WakeSchedule::Simultaneous)
                .run(500)
                .unwrap();
            if format!("{a:?}") != format!("{b:?}") {
                diverged = true;
                break;
            }
        }
        prop_assert!(diverged, "seeded walker ignores its seed");
    }
}

/// One 30-step walker and three long waiters on a ring, recording into
/// `trace`.
fn mixed_wait_engine(graph: &Graph, trace: Trace) -> Engine<'_> {
    let mut engine = Engine::new(graph);
    engine.set_trace(trace);
    let walker = SeededWalker {
        rng: Rng::seed_from(11),
        steps: 30,
        moves: 0,
    };
    let behaviors: [Box<dyn AgentBehavior>; 4] = [
        Box::new(ProcBehavior::mapping(walker, |m| Declaration {
            leader: None,
            size: Some(m),
        })),
        Box::new(ProcBehavior::declaring(WaitRounds::new(60))),
        Box::new(ProcBehavior::declaring(WaitRounds::new(75))),
        Box::new(ProcBehavior::declaring(UntilCardExceeds::new(
            1,
            WaitRounds::new(300),
        ))),
    ];
    for (i, behavior) in behaviors.into_iter().enumerate() {
        engine.add_agent(
            Label::new(i as u64 + 1).unwrap(),
            NodeId::new(i as u32 * 2),
            behavior,
        );
    }
    engine
}

#[test]
fn a_mixed_wait_run_digests_alike_stored_or_digest_only() {
    // Around round 12 the walker holds the lone-agent path while the
    // three waiters lag ten rounds behind it; after its declaration a
    // fast-forward leaves both `WaitRounds` agents 28 rounds behind, to
    // be caught up when next polled.
    let graph = Family::Ring.instantiate(9, 4);
    let mut scratch = EngineScratch::new();
    let mut stored = mixed_wait_engine(&graph, Trace::with_capacity(1 << 12))
        .run_with_scratch(500, &mut scratch)
        .unwrap();
    let mut streamed = mixed_wait_engine(&graph, Trace::digest_only(1 << 12))
        .run_with_scratch(500, &mut scratch)
        .unwrap();
    let stored_trace = stored.trace.take().unwrap();
    let streamed_trace = streamed.trace.take().unwrap();
    assert!(!stored_trace.events().is_empty());
    assert_eq!(streamed_trace.digest(), stored_trace.digest());
    // Every other field, poll count included.
    assert_eq!(format!("{streamed:?}"), format!("{stored:?}"));
    let declared: Vec<u64> = stored
        .declarations
        .iter()
        .map(|(_, rec)| rec.expect("every agent declares").round)
        .collect();
    // The walker finishes its 30 steps, the waiters their 60 and 75
    // rounds, and the card watcher is cut short when the walker arrives.
    assert_eq!(declared, vec![30, 60, 75, 18]);
}
