//! A reference round loop: the model's rules played round by round, with
//! none of the engine's shortcuts.
//!
//! Every round, in order: crashes, adversary wake-ups, occupancy by a
//! plain count over all agents, wake-on-visit, a poll of every executing
//! agent, then the simultaneous application of the acts under the
//! topology view. A held instruction (`Action::Hold`) is played as its
//! expansion, each kind written out on its own. A slow move: `w` rounds in
//! which the agent waits without a poll, then the move, then a poll in the
//! round after. A walk: one step of [`RefWalk`] per round, without a poll,
//! then `held_done` and a poll in the round it ends in. A traversal: a
//! step of [`RefTraversal`] in the round after each move, without a poll,
//! its moves played as slow moves (a blocked one again at once), then
//! `held_done` and a poll in the round after its last move, or in its own
//! round if it made none. The loop reads no promise and skips no round,
//! so comparing it with the engine checks the engine's fast-forward, its
//! choice of whom to poll and its one held-instruction rule against the
//! rules it stands for.
//!
//! It shares no code with the engine beyond the public types: wake rounds
//! come from [`WakeSchedule::wake_rounds`], crash rounds from
//! [`FaultSpec::crash_rounds`], edge presence from the [`TopologyView`],
//! and the walk and traversal rules are written out again in [`RefWalk`]
//! and [`RefTraversal`].

mod traversal;

use std::sync::Arc;

use nochatter::graph::dynamic::TopologyView;
use nochatter::graph::{Graph, Label, NodeId, Port};
use nochatter::sim::walk::{HeldDone, Instruction, Walk, WalkDone};

use nochatter::sim::{
    Action, Agent, AgentPhase, DeclarationRecord, FaultSpec, Obs, Poll, RunOutcome, RunStatus,
    Sensing, SimError, TraceEvent, WakeSchedule,
};
pub use traversal::RefTraversal;

/// The `EXPLO` walk rule (§2), written apart from the engine's
/// `WalkState`: `made` counts the moves that went through, and each round
/// either retries the last one (it was blocked) or attempts the next.
pub struct RefWalk {
    steps: Arc<[u32]>,
    stop_above: Option<u32>,
    /// Entry ports of the forward moves that went through, in order.
    entries: Vec<Port>,
    /// Moves that went through; the last attempt was move `made` or, if
    /// it went through, move `made - 1`.
    made: usize,
    done: WalkDone,
}

impl RefWalk {
    /// Starts `walk` in a round observing `degree` and `cur_card`, and
    /// returns that round's port.
    pub fn start(walk: Walk, degree: u32, cur_card: u32) -> (Self, Port) {
        let state = RefWalk {
            steps: walk.steps,
            stop_above: walk.stop_above,
            entries: Vec::new(),
            made: 0,
            done: WalkDone {
                min_card: cur_card,
                last_card: cur_card,
                changed: None,
            },
        };
        let port = state.port(degree);
        (state, port)
    }

    /// The round after an attempt: the next port, or `None` once the walk
    /// has ended.
    pub fn step(
        &mut self,
        degree: u32,
        cur_card: u32,
        entry: Option<Port>,
        blocked: bool,
        clock: u64,
    ) -> Option<Port> {
        if self.stop_above.is_some_and(|c| cur_card > c) {
            return None;
        }
        let len = self.steps.len();
        if !blocked {
            self.made += 1;
            if self.made <= len {
                self.entries
                    .push(entry.expect("a forward move enters by a port"));
            }
        }
        if self.made == 2 * len {
            return None;
        }
        self.done.min_card = self.done.min_card.min(cur_card);
        if cur_card != self.done.last_card {
            self.done.last_card = cur_card;
            self.done.changed = Some(clock);
        }
        Some(self.port(degree))
    }

    /// What the walk observed.
    pub fn done(&self) -> WalkDone {
        self.done
    }

    /// The port of move `made`: forward by the sequence, then back.
    fn port(&self, degree: u32) -> Port {
        let len = self.steps.len();
        let m = self.made;
        if m < len {
            let entered = if m == 0 {
                0
            } else {
                self.entries[m - 1].number()
            };
            Port::new((entered + self.steps[m]) % degree.max(1))
        } else {
            self.entries[2 * len - 1 - m]
        }
    }
}

/// What the reference loop played: the outcome (its execution facts
/// count every round as executed and every poll made), the events in
/// order, and the number of model rounds played.
pub struct Played {
    pub outcome: RunOutcome,
    pub events: Vec<TraceEvent>,
    pub model_rounds: u64,
}

/// Plays `agents` (label, start node, program) on `graph` under `view`
/// for at most `max_rounds` rounds. The inputs must pass the engine's
/// validation; a protocol violation ends the run with the engine's error.
#[allow(clippy::too_many_arguments)]
pub fn play<V: TopologyView>(
    graph: &Graph,
    mut view: V,
    agents: Vec<(Label, NodeId, Agent)>,
    schedule: &WakeSchedule,
    sensing: Sensing,
    faults: &FaultSpec,
    max_rounds: u64,
) -> Result<Played, SimError> {
    let k = agents.len();
    let labels: Vec<Label> = agents.iter().map(|a| a.0).collect();
    let mut pos: Vec<NodeId> = agents.iter().map(|a| a.1).collect();
    let mut procs: Vec<Agent> = agents.into_iter().map(|a| a.2).collect();
    let wake = schedule.wake_rounds(k).expect("a valid wake schedule");
    let mut crash = faults.crash_rounds(&labels).expect("a valid fault spec");
    let mut phase = vec![AgentPhase::Dormant; k];
    let mut woke = vec![0u64; k];
    let mut just_woken = vec![false; k];
    let mut entry: Vec<Option<Port>> = vec![None; k];
    // A slow move under way: the round of its move, and its port.
    let mut slow: Vec<Option<(u64, Port)>> = vec![None; k];
    let mut walks: Vec<Option<RefWalk>> = (0..k).map(|_| None).collect();
    // A traversal under way, and the latest one that ended: a retrace
    // undoes it.
    let mut traversing: Vec<Option<RefTraversal>> = (0..k).map(|_| None).collect();
    let mut traversed: Vec<Option<RefTraversal>> = (0..k).map(|_| None).collect();
    let mut declared: Vec<Option<DeclarationRecord>> = vec![None; k];
    let mut events = Vec::new();
    let mut out = RunOutcome {
        status: RunStatus::RoundLimit,
        rounds: max_rounds,
        declarations: Vec::new(),
        crashed_agents: Vec::new(),
        total_moves: 0,
        blocked_moves: 0,
        engine_iterations: 0,
        skipped_rounds: 0,
        polled_agent_rounds: 0,
        max_colocation: 0,
        trace: None,
    };
    let (mut last_declaration, mut last_crash) = (0, 0);

    let mut round = 0;
    while round < max_rounds {
        out.engine_iterations += 1;
        view.begin_round(round);

        for i in 0..k {
            if crash[i] == round {
                crash[i] = u64::MAX;
                if phase[i] != AgentPhase::Declared {
                    phase[i] = AgentPhase::Crashed;
                    slow[i] = None;
                    walks[i] = None;
                    traversing[i] = None;
                    last_crash = round;
                    events.push(TraceEvent::Crashed {
                        agent: labels[i],
                        round,
                        node: pos[i],
                    });
                }
            }
        }

        for i in 0..k {
            if phase[i] == AgentPhase::Dormant && wake[i] <= round {
                (phase[i], woke[i], just_woken[i]) = (AgentPhase::Active, round, true);
                events.push(TraceEvent::Wake {
                    agent: labels[i],
                    round,
                    by_visit: false,
                });
            }
        }

        let card: Vec<u32> = pos
            .iter()
            .map(|&at| pos.iter().filter(|&&p| p == at).count() as u32)
            .collect();
        out.max_colocation = out
            .max_colocation
            .max(card.iter().copied().max().unwrap_or(0));

        for i in 0..k {
            if phase[i] == AgentPhase::Dormant && card[i] > 1 {
                (phase[i], woke[i], just_woken[i]) = (AgentPhase::Active, round, true);
                events.push(TraceEvent::Wake {
                    agent: labels[i],
                    round,
                    by_visit: true,
                });
            }
        }

        let mut acts = vec![None; k];
        for i in 0..k {
            if !matches!(phase[i], AgentPhase::Active | AgentPhase::Blocked) {
                continue;
            }
            if let Some((due, port)) = slow[i] {
                // The expansion of a slow move: waits without a poll, then
                // the move in its own round.
                acts[i] = Some(Poll::Yield(if due == round {
                    slow[i] = None;
                    Action::TakePort(port)
                } else {
                    Action::Wait
                }));
                continue;
            }
            let blocked = phase[i] == AgentPhase::Blocked;
            if let Some(walk) = walks[i].as_mut() {
                // The expansion of a walk: a step per round without a
                // poll; the round it ends in is polled.
                let degree = graph.degree(pos[i]);
                match walk.step(degree, card[i], entry[i], blocked, round - woke[i]) {
                    Some(port) => {
                        acts[i] = Some(Poll::Yield(Action::TakePort(port)));
                        phase[i] = AgentPhase::Active;
                        continue;
                    }
                    None => {
                        procs[i].held_done(HeldDone::Walk(walk.done()));
                        walks[i] = None;
                    }
                }
            }
            if let Some(traversal) = traversing[i].as_mut() {
                // The expansion of a traversal: a step in the round after
                // each move, without a poll; the round it ends in is
                // polled.
                match traversal.step(graph.degree(pos[i]), entry[i], blocked) {
                    Ok(port) => {
                        let wait = if blocked { 0 } else { traversal.wait() };
                        acts[i] = Some(Poll::Yield(hold(&mut slow[i], round, wait, port)));
                        phase[i] = AgentPhase::Active;
                        continue;
                    }
                    Err(completed) => {
                        procs[i].held_done(traversal_ended(completed));
                        traversed[i] = traversing[i].take();
                    }
                }
            }
            let peer_labels = (sensing == Sensing::Traditional).then(|| {
                let mut peers: Vec<Label> = (0..k)
                    .filter(|&j| pos[j] == pos[i])
                    .map(|j| labels[j])
                    .collect();
                peers.sort_unstable();
                peers
            });
            let obs = Obs {
                round: round - woke[i],
                degree: graph.degree(pos[i]),
                cur_card: card[i],
                entry_port: entry[i],
                just_woken: just_woken[i],
                blocked,
                peer_labels,
            };
            out.polled_agent_rounds += 1;
            let mut act = procs[i].poll(&obs);
            while let Poll::Yield(Action::Hold) = act {
                act = match procs[i].held() {
                    Instruction::Slow { port, wait } => {
                        Poll::Yield(hold(&mut slow[i], round, wait, port))
                    }
                    Instruction::Walk(walk) => {
                        let (walk, port) = RefWalk::start(walk, obs.degree, obs.cur_card);
                        walks[i] = Some(walk);
                        Poll::Yield(Action::TakePort(port))
                    }
                    Instruction::Traverse(traversal) => {
                        let mut traversal = RefTraversal::start(traversal, traversed[i].as_ref());
                        match traversal.step(obs.degree, obs.entry_port, false) {
                            Ok(port) => {
                                let wait = traversal.wait();
                                traversing[i] = Some(traversal);
                                Poll::Yield(hold(&mut slow[i], round, wait, port))
                            }
                            Err(completed) => {
                                // No move: handed back, and polled again
                                // at once.
                                procs[i].held_done(traversal_ended(completed));
                                traversed[i] = Some(traversal);
                                procs[i].poll(&obs)
                            }
                        }
                    }
                };
            }
            (phase[i], just_woken[i]) = (AgentPhase::Active, false);
            acts[i] = Some(act);
        }

        for (i, act) in acts.into_iter().enumerate() {
            match act {
                None | Some(Poll::Yield(Action::Wait)) => {}
                Some(Poll::Yield(Action::TakePort(port))) => {
                    let from = pos[i];
                    match graph.neighbor(from, port) {
                        None => {
                            return Err(SimError::InvalidPort {
                                agent: labels[i],
                                node: from,
                                port,
                                round,
                            })
                        }
                        Some(_) if !view.edge_present(from, port) => {
                            phase[i] = AgentPhase::Blocked;
                            out.blocked_moves += 1;
                            events.push(TraceEvent::Blocked {
                                agent: labels[i],
                                round,
                                node: from,
                                port,
                            });
                        }
                        Some((to, back)) => {
                            events.push(TraceEvent::Move {
                                agent: labels[i],
                                round,
                                from,
                                to,
                                port,
                            });
                            (pos[i], entry[i]) = (to, Some(back));
                            out.total_moves += 1;
                        }
                    }
                }
                Some(Poll::Yield(Action::Hold)) => unreachable!("resolved at the poll"),
                Some(Poll::Complete(declaration)) => {
                    declared[i] = Some(DeclarationRecord {
                        round,
                        node: pos[i],
                        declaration,
                    });
                    phase[i] = AgentPhase::Declared;
                    last_declaration = round;
                    events.push(TraceEvent::Declare {
                        agent: labels[i],
                        round,
                        node: pos[i],
                        declaration,
                    });
                }
            }
        }

        round += 1;
        if phase.iter().all(|p| p.is_terminal()) {
            let crashed = phase.contains(&AgentPhase::Crashed);
            (out.status, out.rounds) = if crashed {
                (RunStatus::Halted, last_declaration.max(last_crash))
            } else {
                (RunStatus::AllDeclared, last_declaration)
            };
            break;
        }
    }

    out.crashed_agents = (0..k)
        .filter(|&i| phase[i] == AgentPhase::Crashed)
        .map(|i| labels[i])
        .collect();
    out.declarations = labels.into_iter().zip(declared).collect();
    Ok(Played {
        outcome: out,
        events,
        model_rounds: round,
    })
}

/// A traversal's result. The reference keeps the traversals it played
/// itself, so it hands back an empty engine state, which a retrace only
/// carries back to it.
fn traversal_ended(completed: bool) -> HeldDone {
    HeldDone::Traverse {
        completed,
        state: Box::default(),
    }
}

/// A slow move through `port` decided in `round` after a wait of `wait`
/// rounds: the move itself if `wait` is 0, else a wait, with the move
/// noted in `slow` for its round.
fn hold(slow: &mut Option<(u64, Port)>, round: u64, wait: u64, port: Port) -> Action {
    if wait == 0 {
        return Action::TakePort(port);
    }
    *slow = Some((round + wait, port));
    Action::Wait
}
