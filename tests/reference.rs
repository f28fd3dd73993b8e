//! The engine against the reference round loop of `tests/support`: for
//! random cells run with the real stacks — known-bound silent and talking,
//! gossip, and unknown-bound on tiny instances — the engine's outcome
//! equals the reference's in everything but its execution facts, its
//! trace holds the same events, and its executed plus fast-forwarded
//! rounds are the model rounds the reference played.
//!
//! The cells are those of `crates/core/tests/digest.rs` (graph families,
//! sensing modes, wake schedules, static and round-varying topologies,
//! crash faults) with teams of two or three agents. The reference polls
//! every executing agent in every round, so each case is capped at
//! [`MODEL_ROUNDS`] model rounds: both loops get the smaller of the
//! stack's own round limit and the cap, and a run cut by it is compared
//! as the `RoundLimit` outcome it is.

mod support;

use std::sync::Arc;

use proptest::prelude::*;

use nochatter::core::unknown::{
    EstMode, GatherUnknownUpperBound, SliceEnumeration, UnknownSchedule,
};
use nochatter::core::{BitStr, CommMode, GatherKnownUpperBound, GossipKnownUpperBound, KnownSetup};
use nochatter::graph::dynamic::{DynamicRing, PeriodicEdges, SeededEdgeFailure, Topology};
use nochatter::graph::generators::{self, Family};
use nochatter::graph::{InitialConfiguration, Label, NodeId};
use nochatter::sim::proc::Procedure;
use nochatter::sim::{
    Agent, CrashPoint, Declaration, Engine, FaultSpec, Sensing, TopologySpec, Trace, WakeSchedule,
};

/// The most model rounds one case plays.
const MODEL_ROUNDS: u64 = 100_000;

#[derive(Clone, Copy, Debug)]
enum Stack {
    Known(CommMode),
    Gossip(CommMode),
    Unknown,
}

#[derive(Debug)]
struct Cell {
    cfg: InitialConfiguration,
    stack: Stack,
    schedule: WakeSchedule,
    topo: TopologySpec,
    fault: FaultSpec,
    seed: u64,
    /// The unknown-bound stack's enumeration of hypotheses.
    omega: Vec<InitialConfiguration>,
}

impl Cell {
    fn sensing(&self) -> Sensing {
        match self.stack {
            Stack::Known(CommMode::Talking) | Stack::Gossip(CommMode::Talking) => {
                Sensing::Traditional
            }
            _ => Sensing::Weak,
        }
    }

    /// Fresh programs for the team, and the stack's own round limit.
    fn agents(&self) -> (Vec<(Label, NodeId, Agent)>, u64) {
        let team = self.cfg.agents().iter().copied();
        match self.stack {
            Stack::Known(mode) | Stack::Gossip(mode) => {
                let setup = KnownSetup::for_scenario(&self.cfg, self.seed);
                let gossip = matches!(self.stack, Stack::Gossip(_));
                let agents = team
                    .map(|(label, start)| {
                        let params = setup.params().clone();
                        let agent: Agent = if gossip {
                            let payload = BitStr::from_label(label);
                            Box::new(
                                GossipKnownUpperBound::new(params, label, payload, mode)
                                    .map(|report| Declaration::with_leader(report.leader)),
                            )
                        } else {
                            Box::new(
                                GatherKnownUpperBound::with_mode(params, label, mode)
                                    .map(Declaration::with_leader),
                            )
                        };
                        (label, start, agent)
                    })
                    .collect();
                (agents, setup.round_limit(&self.cfg))
            }
            Stack::Unknown => {
                let omega = SliceEnumeration::new(self.omega.clone());
                let schedule = Arc::new(UnknownSchedule::new(omega).unwrap());
                let graph = self.cfg.graph_arc();
                let agents = team
                    .map(|(label, start)| {
                        let agent: Agent = Box::new(
                            GatherUnknownUpperBound::new(
                                label,
                                start,
                                Arc::clone(&graph),
                                Arc::clone(&schedule),
                                EstMode::Conservative,
                            )
                            .map(|report| Declaration {
                                leader: Some(report.leader),
                                size: Some(report.size),
                            }),
                        );
                        (label, start, agent)
                    })
                    .collect();
                (agents, schedule.round_limit())
            }
        }
    }
}

fn label(v: u64) -> Label {
    Label::new(v).unwrap()
}

fn cell_strategy() -> impl Strategy<Value = Cell> {
    (
        (0usize..5, 4u32..7, any::<u64>(), any::<bool>()),
        (0u64..3, 0usize..5),
        (0usize..4, 0usize..3, 0u64..200),
    )
        .prop_map(
            |((family, n, seed, trio), (sched, stack), (topo, fault, crash_round))| {
                let stack = [
                    Stack::Known(CommMode::Silent),
                    Stack::Known(CommMode::Talking),
                    Stack::Gossip(CommMode::Silent),
                    Stack::Gossip(CommMode::Talking),
                    Stack::Unknown,
                ][stack];
                // The unknown-bound stack runs on tiny instances: a triangle
                // or an edge, the second hypothesis of a two-entry
                // enumeration.
                let graph = match stack {
                    Stack::Unknown if trio => generators::ring(3),
                    Stack::Unknown => generators::path(2),
                    _ => [
                        Family::Ring,
                        Family::Path,
                        Family::Star,
                        Family::Grid,
                        Family::RandomTree,
                    ][family]
                        .instantiate(n, seed),
                };
                let n_actual = graph.node_count() as u32;
                let mut team = vec![
                    (label(2), NodeId::new(0)),
                    (label(seed % 5 + 3), NodeId::new(n_actual / 2)),
                ];
                if trio && n_actual > 2 {
                    team.push((label(seed % 7 + 9), NodeId::new(n_actual - 1)));
                }
                let cfg = InitialConfiguration::new(graph, team).expect("distinct starts");
                let schedule = match sched {
                    0 => WakeSchedule::Simultaneous,
                    1 => WakeSchedule::FirstOnly,
                    _ => WakeSchedule::Staggered { gap: seed % 9 + 1 },
                };
                let topo = match topo {
                    0 => TopologySpec::Static,
                    1 => TopologySpec::Periodic(PeriodicEdges {
                        period: 3,
                        offset: seed % 3,
                    }),
                    2 => TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.2, seed }),
                    _ => TopologySpec::Ring(DynamicRing { seed }),
                };
                // The unknown-bound stack assumes a static network.
                let static_only = matches!(stack, Stack::Unknown);
                let topo = if topo.compatible_with(cfg.graph()) && !static_only {
                    topo
                } else {
                    TopologySpec::Static
                };
                let fault = match fault {
                    0 => FaultSpec::None,
                    1 => FaultSpec::CrashAt(vec![CrashPoint {
                        label: label(2),
                        round: crash_round,
                    }]),
                    _ => FaultSpec::SeededCrash {
                        p: 0.01,
                        seed,
                        max_crashes: 1,
                    },
                };
                let decoy = InitialConfiguration::new(
                    generators::path(2),
                    vec![(label(7), NodeId::new(0)), (label(8), NodeId::new(1))],
                )
                .unwrap();
                Cell {
                    omega: vec![decoy, cfg.clone()],
                    cfg,
                    stack,
                    schedule,
                    topo,
                    fault,
                    seed,
                }
            },
        )
}

/// Runs `cell` on the engine and on the reference loop and compares them.
fn engine_matches_reference(cell: &Cell) -> Result<(), TestCaseError> {
    engine_matches_reference_within(cell, MODEL_ROUNDS)
}

/// [`engine_matches_reference`], with both loops cut after at most `cap`
/// rounds.
fn engine_matches_reference_within(cell: &Cell, cap: u64) -> Result<(), TestCaseError> {
    let graph = cell.cfg.graph();
    let (agents, limit) = cell.agents();
    let max_rounds = limit.min(cap);

    let mut engine = Engine::with_topology(graph, &cell.topo);
    for (label, start, agent) in agents {
        engine.add_agent(label, start, agent);
    }
    engine.set_wake_schedule(cell.schedule.clone());
    engine.set_sensing(cell.sensing());
    engine.set_faults(cell.fault.clone());
    engine.set_trace(Trace::with_capacity(1 << 20));
    let ran = engine.run(max_rounds);

    let played = support::play(
        graph,
        cell.topo.view(graph),
        cell.agents().0,
        &cell.schedule,
        cell.sensing(),
        &cell.fault,
        max_rounds,
    );
    let (ran, played) = match (ran, played) {
        (Ok(ran), Ok(played)) => (ran, played),
        (ran, played) => {
            prop_assert_eq!(ran.err(), played.err());
            return Ok(());
        }
    };
    let expected = &played.outcome;
    prop_assert_eq!(ran.status, expected.status);
    prop_assert_eq!(ran.rounds, expected.rounds);
    prop_assert_eq!(&ran.declarations, &expected.declarations);
    prop_assert_eq!(&ran.crashed_agents, &expected.crashed_agents);
    prop_assert_eq!(ran.total_moves, expected.total_moves);
    prop_assert_eq!(ran.blocked_moves, expected.blocked_moves);
    prop_assert_eq!(ran.max_colocation, expected.max_colocation);
    let trace = ran.trace.as_ref().unwrap();
    prop_assert_eq!(trace.dropped(), 0);
    prop_assert_eq!(trace.events(), &played.events[..]);
    prop_assert_eq!(
        ran.engine_iterations + ran.skipped_rounds,
        played.model_rounds
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn the_engine_plays_every_round_as_the_reference_loop_does(cell in cell_strategy()) {
        engine_matches_reference(&cell)?;
    }
}

#[test]
fn an_aborted_ball_is_retraced_as_the_reference_retraces_it() {
    // The only hypothesis is a triangle (degree abort 3). On the real
    // spider, an agent's ball aborts mid-path on the degree-3 node, and its
    // retrace starts by backtracking the half-walked path: no random cell
    // reaches that case.
    let spider = generators::from_pairs(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]);
    let team = |graph, second| {
        let team = vec![(label(1), NodeId::new(0)), (label(2), NodeId::new(second))];
        InitialConfiguration::new(graph, team).unwrap()
    };
    let cell = Cell {
        cfg: team(spider, 5),
        stack: Stack::Unknown,
        schedule: WakeSchedule::Staggered { gap: 4 },
        topo: TopologySpec::Static,
        fault: FaultSpec::None,
        seed: 0,
        omega: vec![team(generators::ring(3), 1)],
    };
    engine_matches_reference(&cell).unwrap();
}

/// An unknown-bound cell on the tiny instances of [`cell_strategy`]: an
/// edge or, with `trio`, a triangle holding a third agent.
fn unknown_cell(trio: bool, schedule: WakeSchedule, fault: FaultSpec) -> Cell {
    let graph = if trio {
        generators::ring(3)
    } else {
        generators::path(2)
    };
    let mut team = vec![(label(2), NodeId::new(0)), (label(5), NodeId::new(1))];
    if trio {
        team.push((label(9), NodeId::new(2)));
    }
    let cfg = InitialConfiguration::new(graph, team).unwrap();
    let decoy = InitialConfiguration::new(
        generators::path(2),
        vec![(label(7), NodeId::new(0)), (label(8), NodeId::new(1))],
    )
    .unwrap();
    Cell {
        omega: vec![decoy, cfg.clone()],
        cfg,
        stack: Stack::Unknown,
        schedule,
        topo: TopologySpec::Static,
        fault,
        seed: 0,
    }
}

#[test]
fn traversals_share_their_runs_with_wakes_and_crashes() {
    // Within the first 100,000 rounds the agents on the edge make ball
    // traversal moves 25 rounds apart in rounds 24 to 349, 724 to 1,049
    // and 37,178 to 37,703, and those on the triangle 217 rounds apart
    // from round 37,370. The engine plays such moves from one to the next
    // while no one sees the rounds between. A crash in a move round, in
    // the round after one or inside a wait, and a wake inside a
    // traversal, each land in their own round.
    let crash = |label_value, round| {
        FaultSpec::CrashAt(vec![CrashPoint {
            label: label(label_value),
            round,
        }])
    };
    let mut cells = Vec::new();
    for round in [174, 175, 187, 849, 37_453, 37_460] {
        for label_value in [2, 5] {
            let fault = crash(label_value, round);
            cells.push(unknown_cell(false, WakeSchedule::Simultaneous, fault));
        }
    }
    for wake in [100, 187, 37_460] {
        let schedule = WakeSchedule::Explicit(vec![0, wake]);
        cells.push(unknown_cell(false, schedule.clone(), FaultSpec::None));
        cells.push(unknown_cell(false, schedule, crash(2, wake + 50)));
    }
    for round in [37_587, 37_588, 37_700] {
        cells.push(unknown_cell(
            true,
            WakeSchedule::Simultaneous,
            crash(9, round),
        ));
    }
    let schedule = WakeSchedule::Explicit(vec![0, 0, 37_700]);
    cells.push(unknown_cell(true, schedule, crash(5, 38_000)));
    for cell in &cells {
        engine_matches_reference(cell).unwrap();
    }
}

#[test]
fn a_run_cut_right_after_a_traversal_move_reads_only_the_colocations_it_plays() {
    // With staggered wakes, one agent's traversal move enters the node of
    // another, waiting blind, and makes the run's first colocation of 2:
    // on the edge in round 24, on the triangle in round 37,370. The
    // colocation a move makes is read at the start of the round after it,
    // so a run cut right after the move must not count it.
    for (trio, moved) in [(false, 24), (true, 37_370)] {
        let cell = unknown_cell(trio, WakeSchedule::Staggered { gap: 3 }, FaultSpec::None);
        for cap in moved + 1..moved + 4 {
            engine_matches_reference_within(&cell, cap).unwrap();
        }
    }
}
