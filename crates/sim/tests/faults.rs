//! The crash-fault adversary's two contracts, property-tested — the same
//! pin discipline the dynamic-topology refactor used:
//!
//! 1. **Fault-free is free.** An engine with `set_faults(FaultSpec::None)`
//!    is bitwise identical to one whose fault adversary was never touched —
//!    across graph families, sensing modes, wake schedules, static and
//!    dynamic topologies, through a deliberately dirty shared scratch.
//!    Together with the golden smoke campaign (byte-identical to the
//!    pre-refactor recording), this pins the crash machinery as a pure
//!    extension of the lifecycle state machine.
//!
//! 2. **Crashes are faithful.** Replaying a faulty run's trace against the
//!    spec's own [`FaultSpec::crash_rounds`] resolution shows every
//!    `Crashed` event at exactly the resolved round, and no agent acting
//!    (moving, blocking or declaring) at or after its crash round — the
//!    adversary kills exactly whom it promised, exactly when, and the
//!    engine never animates a corpse.

use std::cell::RefCell;

use proptest::prelude::*;

use nochatter_graph::dynamic::{PeriodicEdges, SeededEdgeFailure};
use nochatter_graph::generators::Family;
use nochatter_graph::rng::Rng;
use nochatter_graph::{Graph, Label, NodeId, Port};
use nochatter_sim::proc::Procedure;
use nochatter_sim::{
    Action, AgentPhase, CrashPoint, Declaration, Engine, EngineScratch, FaultSpec, Obs, Poll,
    RunOutcome, Sensing, TopologySpec, TopologyView, TraceEvent, WakeSchedule,
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
        let steps = rng.range(60) as u32;
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

type ScenarioDraw = (Graph, Vec<u32>, u64, WakeSchedule, Sensing, TopologySpec);

fn scenario_strategy() -> impl Strategy<Value = ScenarioDraw> {
    (
        0usize..4,
        4u32..9,
        any::<u64>(),
        0u64..3,
        any::<bool>(),
        0usize..3,
    )
        .prop_map(|(family, n, seed, sched, traditional, topo)| {
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
            let topo = match topo {
                0 => TopologySpec::Static,
                1 => TopologySpec::Periodic(PeriodicEdges {
                    period: 3,
                    offset: seed % 3,
                }),
                _ => TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.3, seed }),
            };
            (graph, starts, seed, schedule, sensing, topo)
        })
}

fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    (0usize..3, 0u64..120, 0u64..120, any::<u64>()).prop_map(|(kind, r1, r2, seed)| match kind {
        0 => FaultSpec::CrashAt(vec![CrashPoint {
            label: Label::new(2).unwrap(),
            round: r1,
        }]),
        1 => FaultSpec::CrashAt(vec![
            CrashPoint {
                label: Label::new(1).unwrap(),
                round: r1,
            },
            CrashPoint {
                label: Label::new(3).unwrap(),
                round: r2,
            },
        ]),
        _ => FaultSpec::SeededCrash {
            p: 0.02,
            seed,
            max_crashes: 2,
        },
    })
}

fn distinct(starts: &[u32]) -> bool {
    starts[0] != starts[1] && starts[1] != starts[2] && starts[0] != starts[2]
}

proptest! {
    /// Contract 1: `FaultSpec::None` is bitwise identical to never touching
    /// the fault adversary, with the fault-free run sharing one dirty
    /// scratch across cases.
    #[test]
    fn fault_none_is_bitwise_identical_to_no_faults(
        (graph, starts, seed, schedule, sensing, topo) in scenario_strategy()
    ) {
        thread_local! {
            static SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::new());
        }
        prop_assume!(distinct(&starts));
        let untouched = {
            let mut engine = Engine::with_topology(&graph, &topo);
            add_walkers(&mut engine, &starts, seed, &schedule, sensing);
            engine.run(500).unwrap()
        };
        let explicit_none = SCRATCH.with(|scratch| {
            let mut engine = Engine::with_topology(&graph, &topo);
            add_walkers(&mut engine, &starts, seed, &schedule, sensing);
            engine.set_faults(FaultSpec::None);
            engine.run_with_scratch(500, &mut scratch.borrow_mut()).unwrap()
        });
        prop_assert_eq!(format!("{untouched:?}"), format!("{explicit_none:?}"));
        prop_assert_eq!(
            untouched.trace.as_ref().unwrap().events(),
            explicit_none.trace.as_ref().unwrap().events()
        );
        prop_assert!(untouched.crashed_agents.is_empty());
    }

    /// Contract 2: replay every faulty trace against the spec's own
    /// resolution — crashes land exactly where promised, nobody acts at or
    /// after their crash round, and the outcome's crash list matches.
    #[test]
    fn crash_traces_replay_against_the_spec(
        (graph, starts, seed, schedule, sensing, topo) in scenario_strategy(),
        fault in fault_strategy(),
    ) {
        prop_assume!(distinct(&starts));
        let mut engine = Engine::with_topology(&graph, &topo);
        add_walkers(&mut engine, &starts, seed, &schedule, sensing);
        engine.set_faults(fault.clone());
        let outcome = engine.run(500).unwrap();
        let labels: Vec<Label> = (1..=3).map(|v| Label::new(v).unwrap()).collect();
        let resolved = fault.crash_rounds(&labels).unwrap();
        let crash_round_of = |agent: Label| resolved[(agent.value() - 1) as usize];
        let trace = outcome.trace.as_ref().unwrap();
        prop_assert_eq!(trace.dropped(), 0);
        let mut crashed_seen: Vec<Label> = Vec::new();
        for event in trace.events() {
            match *event {
                TraceEvent::Crashed { agent, round, .. } => {
                    // A crash may land *after* its nominal round only if the
                    // agent had already... no: the engine applies overdue
                    // crashes in their exact round (fast-forward is capped),
                    // so the trace round must equal the resolution — unless
                    // the agent declared first, in which case no event exists.
                    prop_assert_eq!(round, crash_round_of(agent));
                    crashed_seen.push(agent);
                }
                TraceEvent::Move { agent, round, .. }
                | TraceEvent::Blocked { agent, round, .. }
                | TraceEvent::Declare { agent, round, .. }
                | TraceEvent::Wake { agent, round, .. } => {
                    prop_assert!(
                        round < crash_round_of(agent),
                        "agent {agent} acted in round {round}, at/after its crash \
                         round {}",
                        crash_round_of(agent)
                    );
                }
                _ => {}
            }
        }
        // Trace events arrive in round order; the outcome lists crashed
        // agents in insertion order. Same set either way.
        crashed_seen.sort_unstable();
        prop_assert_eq!(crashed_seen, {
            let mut v = outcome.crashed_agents.clone();
            v.sort_unstable();
            v
        });
        // Every agent with a resolved crash round inside the run either
        // crashed or had already declared before the crash round.
        for (&label, &crash) in labels.iter().zip(resolved.iter()) {
            if crash >= outcome.rounds.min(500) {
                continue;
            }
            if outcome.crashed_agents.contains(&label) {
                continue;
            }
            let declared = outcome
                .declarations
                .iter()
                .find(|(l, _)| *l == label)
                .and_then(|(_, r)| *r);
            prop_assert!(
                declared.is_some_and(|r| r.round <= crash),
                "agent {label} neither crashed at {crash} nor declared before it"
            );
        }
        // A crashed agent never declares.
        for crashed in &outcome.crashed_agents {
            let rec = outcome
                .declarations
                .iter()
                .find(|(l, _)| l == crashed)
                .unwrap();
            prop_assert!(rec.1.is_none());
        }
    }

    /// Faulty runs are themselves deterministic: same spec, same inputs,
    /// same bits.
    #[test]
    fn faulty_runs_are_deterministic(
        (graph, starts, seed, schedule, sensing, topo) in scenario_strategy(),
        fault in fault_strategy(),
    ) {
        prop_assume!(distinct(&starts));
        let run = || {
            let mut engine = Engine::with_topology(&graph, &topo);
            add_walkers(&mut engine, &starts, seed, &schedule, sensing);
            engine.set_faults(fault.clone());
            engine.run(500).unwrap()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

/// The phase helpers agree on which phases are terminal/executing (the
/// engine loops match on these — a drift here would silently corrupt the
/// lifecycle machine).
#[test]
fn agent_phase_predicates_partition_the_lifecycle() {
    use AgentPhase::*;
    for phase in [Dormant, Active, Blocked, Declared, Crashed] {
        assert!(
            !(phase.is_terminal() && phase.is_executing()),
            "{phase:?} cannot be both terminal and executing"
        );
    }
    assert!(Declared.is_terminal() && Crashed.is_terminal());
    assert!(Active.is_executing() && Blocked.is_executing());
    assert!(!Dormant.is_terminal() && !Dormant.is_executing());
}

/// A deliberately dense seeded-crash run exercises real crashes (the
/// proptests would hold vacuously if the drawn specs never fired).
#[test]
fn seeded_crashes_actually_fire() {
    let graph = Family::Ring.instantiate(6, 1);
    let mut engine = Engine::new(&graph);
    add_walkers(
        &mut engine,
        &[0, 2, 4],
        7,
        &WakeSchedule::Simultaneous,
        Sensing::Weak,
    );
    engine.set_faults(FaultSpec::SeededCrash {
        p: 0.5,
        seed: 3,
        max_crashes: 2,
    });
    let outcome: RunOutcome = engine.run(500).unwrap();
    assert_eq!(
        outcome.crashed_agents.len(),
        2,
        "p = 0.5 with max_crashes = 2 must kill exactly two walkers"
    );
}
