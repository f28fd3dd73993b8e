//! A held slow move is exactly the wait-then-move it stands for.
//!
//! The engine holds a slow move: it answers the wait itself and makes the
//! move in its due round without polling the procedure. These tests run
//! random procedures twice: once yielding `Action::Hold` described as
//! `Instruction::Slow { port, wait }`, once expanded into a [`WaitRounds`] of `wait`
//! rounds followed by `TakePort(port)`. The two runs must agree on
//! everything the engine reports: status, rounds, declarations, crashes,
//! moves, blocked moves, executed and fast-forwarded rounds, and the trace
//! and its digest. Polls differ by exactly the move rounds: the slow form
//! polls once fewer for each slow move with a positive wait whose move
//! round the engine reached (made or blocked), and no fewer for one a
//! crash cancelled inside its wait. The draws cover one to three agents
//! (so waiters are left unpolled beside agents that act), staggered and
//! visit-only wakes, crashes that land inside a wait, and scripted ring
//! outages that block the move round.

use std::cell::Cell;
use std::rc::Rc;

use nochatter_graph::generators::{self, Family};
use nochatter_graph::rng::derive_seed;
use nochatter_graph::{Graph, Label, NodeId, Port};
use nochatter_sim::proc::{Procedure, WaitRounds};
use nochatter_sim::walk::Instruction;
use nochatter_sim::{
    Action, CrashPoint, Declaration, Engine, FaultSpec, Obs, Poll, RunOutcome, ScriptedRing,
    TopologySpec, TraceEvent, WakeSchedule,
};
use proptest::prelude::*;

/// One instruction of a [`Walker`]'s program. Ports are reduced modulo
/// the degree of the node the instruction is decided on.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// A blind wait of this many rounds.
    Pause(u64),
    /// Take a port now.
    Move(u32),
    /// Take port 0 if another agent is here, else wait one round.
    Sense,
    /// Wait this many rounds, then take the port.
    Slow(u64, u32),
}

/// Runs its steps in order and completes with a fold of every observation
/// it decided on, so a poll in a different round or under a different
/// observation changes its declaration.
struct Walker {
    steps: Vec<Step>,
    next: usize,
    /// Whether `Step::Slow` is written as a wait and a move instead of one
    /// held slow move.
    expand: bool,
    /// The expanded form's slow move in progress: its wait, then its port.
    waiting: Option<(WaitRounds, Port)>,
    pause: WaitRounds,
    /// The latest held slow move.
    slow: Instruction,
    seen: u64,
    /// Slow moves with a positive wait, shared by a run's walkers: the
    /// slow form counts the ones it yields, the expanded form the ones
    /// whose move round it is polled in, which are the ones the engine
    /// reached.
    slow_moves: Rc<Cell<u64>>,
}

impl Walker {
    fn new(steps: Vec<Step>, expand: bool, slow_moves: &Rc<Cell<u64>>) -> Self {
        Walker {
            steps,
            next: 0,
            expand,
            waiting: None,
            pause: WaitRounds::new(0),
            slow: Instruction::Slow {
                port: Port::new(0),
                wait: 0,
            },
            seen: 0,
            slow_moves: Rc::clone(slow_moves),
        }
    }

    fn count_slow_move(&self) {
        self.slow_moves.set(self.slow_moves.get() + 1);
    }
}

impl Procedure for Walker {
    type Output = u64;

    fn poll(&mut self, obs: &Obs) -> Poll<u64> {
        if let Some((wait, port)) = &mut self.waiting {
            if let Poll::Yield(a) = wait.poll(obs) {
                return Poll::Yield(a);
            }
            let port = *port;
            self.waiting = None;
            self.count_slow_move();
            return Poll::Yield(Action::TakePort(port));
        }
        if let Poll::Yield(a) = self.pause.poll(obs) {
            return Poll::Yield(a);
        }
        self.seen = derive_seed(
            self.seen,
            &[
                obs.round,
                u64::from(obs.degree),
                u64::from(obs.cur_card),
                obs.entry_port.map_or(u64::MAX, |p| u64::from(p.number())),
                u64::from(obs.just_woken),
                u64::from(obs.blocked),
            ],
        );
        let port = |p: u32| Port::new(p % obs.degree);
        loop {
            let Some(&step) = self.steps.get(self.next) else {
                return Poll::Complete(self.seen);
            };
            self.next += 1;
            match step {
                Step::Pause(rounds) => {
                    self.pause = WaitRounds::new(rounds);
                    if let Poll::Yield(a) = self.pause.poll(obs) {
                        return Poll::Yield(a);
                    }
                }
                Step::Move(p) => return Poll::Yield(Action::TakePort(port(p))),
                Step::Sense if obs.cur_card > 1 => {
                    return Poll::Yield(Action::TakePort(port(0)));
                }
                Step::Sense => return Poll::Yield(Action::Wait),
                Step::Slow(wait, p) if self.expand => {
                    let mut rounds = WaitRounds::new(wait);
                    if let Poll::Yield(a) = rounds.poll(obs) {
                        self.waiting = Some((rounds, port(p)));
                        return Poll::Yield(a);
                    }
                    return Poll::Yield(Action::TakePort(port(p)));
                }
                Step::Slow(wait, p) => {
                    self.slow = Instruction::Slow {
                        port: port(p),
                        wait,
                    };
                    if wait > 0 {
                        self.count_slow_move();
                    }
                    return Poll::Yield(Action::Hold);
                }
            }
        }
    }

    fn quiet_until(&self) -> u64 {
        match &self.waiting {
            Some((wait, _)) => wait.quiet_until(),
            None => self.pause.quiet_until(),
        }
    }

    // Every promise it makes is a wait that ignores what it senses.
    fn blind(&self) -> bool {
        true
    }

    fn held(&self) -> Instruction {
        self.slow.clone()
    }
}

/// One drawn run: the graph, each agent's start and program, the wake
/// schedule, the fault and the topology.
#[derive(Clone, Debug)]
struct Draw {
    graph: Graph,
    agents: Vec<(u32, Vec<Step>)>,
    wake: WakeSchedule,
    fault: FaultSpec,
    topo: TopologySpec,
}

fn label(i: usize) -> Label {
    Label::new(i as u64 + 1).unwrap()
}

/// Runs `draw` with every slow move written as one instruction, or
/// expanded; returns the outcome and the walkers' slow-move count.
fn run(draw: &Draw, expand: bool) -> (RunOutcome, u64) {
    let slow_moves = Rc::new(Cell::new(0));
    let mut engine = Engine::with_topology(&draw.graph, &draw.topo);
    for (i, (start, steps)) in draw.agents.iter().enumerate() {
        engine.add_agent(
            label(i),
            NodeId::new(*start),
            Box::new(
                Walker::new(steps.clone(), expand, &slow_moves).map(|seen| Declaration {
                    leader: None,
                    size: Some(seen as u32),
                }),
            ),
        );
    }
    engine.set_wake_schedule(draw.wake.clone());
    engine.set_faults(draw.fault.clone());
    engine.record_trace(1 << 14);
    (engine.run(5_000).unwrap(), slow_moves.get())
}

/// What both forms of a draw did.
struct Both {
    /// The slow form's outcome.
    slow: RunOutcome,
    /// Slow moves with a positive wait that the slow form yielded.
    yielded: u64,
    /// Those of them whose move round the engine reached.
    reached: u64,
}

/// Runs both forms of `draw` and requires identical outcomes but for the
/// polls, which differ by exactly the move rounds reached.
fn same_outcomes(draw: &Draw) -> Both {
    let (slow, yielded) = run(draw, false);
    let (expanded, reached) = run(draw, true);
    let digest = |o: &RunOutcome| o.trace.as_ref().unwrap().digest();
    assert_eq!(digest(&slow), digest(&expanded), "{draw:?}");
    let but_polls = |o: &RunOutcome| {
        format!(
            "{:?}",
            RunOutcome {
                polled_agent_rounds: 0,
                ..o.clone()
            }
        )
    };
    assert_eq!(but_polls(&slow), but_polls(&expanded), "{draw:?}");
    assert!(reached <= yielded, "{draw:?}");
    assert_eq!(
        slow.polled_agent_rounds + reached,
        expanded.polled_agent_rounds,
        "{draw:?}"
    );
    Both {
        slow,
        yielded,
        reached,
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u32..5, 0u64..24, any::<u32>()).prop_map(|(kind, rounds, port)| match kind {
        0 => Step::Pause(rounds),
        1 => Step::Move(port),
        2 => Step::Sense,
        _ => Step::Slow(rounds, port),
    })
}

fn draw_strategy() -> impl Strategy<Value = Draw> {
    (
        (0usize..4, 4u32..9, any::<u64>()),
        proptest::collection::vec(proptest::collection::vec(step_strategy(), 1..12), 1..4),
        (0u32..3, 1u64..9),
        (any::<bool>(), any::<usize>(), 0u64..160),
        (any::<bool>(), proptest::collection::vec(0u32..12, 1..9)),
    )
        .prop_map(|(graph, programs, wake, crash, script)| {
            let (family, n, seed) = graph;
            let (scripted, script) = script;
            // Scripted outages need a ring.
            let family = if scripted {
                Family::Ring
            } else {
                [
                    Family::Ring,
                    Family::Grid,
                    Family::RandomTree,
                    Family::RandomConnected,
                ][family]
            };
            let graph = family.instantiate(n, seed);
            let nodes = graph.node_count() as u32;
            let k = programs.len() as u32;
            let agents = programs
                .into_iter()
                .enumerate()
                .map(|(i, steps)| (i as u32 * nodes / k, steps))
                .collect();
            let wake = match wake {
                (0, _) => WakeSchedule::Simultaneous,
                (1, _) => WakeSchedule::FirstOnly,
                (_, gap) => WakeSchedule::Staggered { gap },
            };
            let (crashes, who, round) = crash;
            let fault = if crashes {
                FaultSpec::CrashAt(vec![CrashPoint {
                    label: label(who % k as usize),
                    round,
                }])
            } else {
                FaultSpec::None
            };
            let topo = if scripted {
                // Ids past the ring's edges keep every edge that round.
                let edges = graph.edge_count() as u32;
                TopologySpec::Scripted(ScriptedRing {
                    script: script
                        .into_iter()
                        .map(|e| if e < edges { e } else { ScriptedRing::KEEP_ALL })
                        .collect(),
                })
            } else {
                TopologySpec::Static
            };
            Draw {
                graph,
                agents,
                wake,
                fault,
                topo,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// A slow move and its expansion are indistinguishable to the engine.
    #[test]
    fn slow_moves_run_exactly_like_their_expansion(draw in draw_strategy()) {
        same_outcomes(&draw);
    }
}

/// A lone agent's program on a 4-ring from node 0.
fn lone(steps: Vec<Step>, fault: FaultSpec, topo: TopologySpec) -> Draw {
    Draw {
        graph: generators::ring(4),
        agents: vec![(0, steps)],
        wake: WakeSchedule::Simultaneous,
        fault,
        topo,
    }
}

fn moves(outcome: &RunOutcome) -> Vec<(u64, Port)> {
    outcome
        .trace
        .as_ref()
        .unwrap()
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Move { round, port, .. } => Some((*round, *port)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_slow_move_lands_in_round_r_plus_wait() {
    // Decided in rounds 0, 8 and 9; the agent declares in round 13.
    let draw = lone(
        vec![Step::Slow(7, 1), Step::Slow(0, 0), Step::Slow(3, 1)],
        FaultSpec::None,
        TopologySpec::Static,
    );
    let both = same_outcomes(&draw);
    let outcome = &both.slow;
    assert_eq!(
        moves(outcome),
        vec![(7, Port::new(1)), (8, Port::new(0)), (12, Port::new(1))]
    );
    assert!(outcome.all_declared());
    assert_eq!(outcome.rounds, 13);
    // The two waiting slow moves cost one poll each: the decision. The
    // one without a wait is a plain move.
    assert_eq!((both.yielded, both.reached), (2, 2));
    assert_eq!(outcome.polled_agent_rounds, 4);
}

#[test]
fn a_crash_inside_the_wait_cancels_the_move() {
    let crash = |round| {
        FaultSpec::CrashAt(vec![CrashPoint {
            label: label(0),
            round,
        }])
    };
    for round in 1..=10 {
        let draw = lone(vec![Step::Slow(10, 0)], crash(round), TopologySpec::Static);
        let both = same_outcomes(&draw);
        assert_eq!(both.slow.crashed_agents, vec![label(0)], "crash at {round}");
        assert_eq!(both.slow.total_moves, 0, "crash at {round}");
        // The cancelled move saves no poll.
        assert_eq!((both.yielded, both.reached), (1, 0), "crash at {round}");
    }
    let both = same_outcomes(&lone(
        vec![Step::Slow(10, 0)],
        crash(11),
        TopologySpec::Static,
    ));
    assert_eq!(both.slow.total_moves, 1);
    assert_eq!((both.yielded, both.reached), (1, 1));
}

#[test]
fn an_outage_in_the_move_round_blocks_the_slow_move() {
    // Round 3 removes edge `e`; exactly one of the ring's edges is the one
    // the slow move needs. The next move, in round 4, goes through.
    let keep = ScriptedRing::KEEP_ALL;
    let mut blocked = 0;
    for e in 0..4 {
        let topo = TopologySpec::Scripted(ScriptedRing {
            script: vec![keep, keep, keep, e].into(),
        });
        let both = same_outcomes(&lone(
            vec![Step::Slow(3, 0), Step::Move(0)],
            FaultSpec::None,
            topo,
        ));
        let outcome = &both.slow;
        blocked += outcome.blocked_moves;
        assert_eq!(outcome.total_moves + outcome.blocked_moves, 2);
        // Blocked or made, the move round was reached.
        assert_eq!(both.reached, 1);
    }
    assert_eq!(blocked, 1);
}
