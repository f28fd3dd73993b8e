//! `GraphSizeCheck` and `EST+` (paper Algorithm 11 and §4.2): is the real
//! network exactly as large as the hypothesis says?
//!
//! The `k_h` agents take turns: agent of rank `r` explores during slot `r`
//! (an `EST+` execution of exactly `2·T(EST(n_h))` rounds) while the
//! `k_h - 1` others hold still at the central node, *being* the stationary
//! token — the explorer "is with its token exactly in the rounds in which
//! `CurCard > 1`".
//!
//! In place of the Chalopin–Das–Kosowski map construction, our `EST+`
//! walks every port sequence of length `n_h - 1` over `{0..n_h-2}` with
//! backtracking — a leashed exploration that covers the whole graph
//! whenever the hypothesis size is right, since every node lies within
//! `n - 1` moves of the token — and resolves the paper's boolean contract
//! with the position oracle of `oracle.rs`: *true* iff the walk was
//! clean (token seen exactly at the token node), covered the graph, and
//! the true size equals `n_h`. The walk's moves, timing and observations
//! are the paper's; only the decision reads the real graph. The tests
//! below pin a clean pass, a wrong size and a dirtied walk, and
//! `tests/unknown_bound.rs` that no `EST+` reached through the algorithm
//! is dirty (Lemma 4.10).

use nochatter_graph::NodeId;
use nochatter_sim::proc::Procedure;
use nochatter_sim::walk::{Traversal, TraversalState, TraversalStep};
use nochatter_sim::{Action, Obs, Poll};

use super::oracle::{EstMode, SharedTracker};
use super::schedule::HypothesisSchedule;

/// The verdict of one agent's `GraphSizeCheck`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GscOutcome {
    /// Algorithm 11's return value `b`.
    pub b: bool,
    /// Whether this agent's `EST+` execution violated cleanliness — the
    /// situation Lemma 4.10 proves unreachable; exposed so tests and the
    /// ablation harness can observe it.
    pub dirty: bool,
}

/// Algorithm 11 as a [`Procedure`]; lasts exactly `2·k_h·T(EST(n_h))`
/// rounds and completes with this agent's [`GscOutcome`].
#[derive(Debug)]
pub struct GraphSizeCheck {
    k: u32,
    rank: u32,
    n_h: u32,
    t_est: u64,
    mode: EstMode,
    tracker: SharedTracker,
    /// The central node, recorded on the first observation.
    v: Option<NodeId>,
    /// The clock of the first poll.
    start: Option<u64>,
    /// Global tick within the procedure, `0 .. 2·k·t_est`, of the round
    /// after the latest poll.
    tick: u64,
    /// The `EST+` walk, a traversal without degree abort stepped in this
    /// procedure's polls (each round's `CurCard` feeds the cleanliness
    /// check); its first step comes on the first poll of the agent's slot.
    walk: TraversalState,
    visited: std::collections::HashSet<NodeId>,
    dirty: bool,
}

impl GraphSizeCheck {
    /// The check for the agent of the given rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= k_h`.
    pub fn new(hs: &HypothesisSchedule, rank: u32, mode: EstMode, tracker: SharedTracker) -> Self {
        assert!(rank < hs.k, "rank must index into the team");
        let walk = TraversalState::new(Traversal {
            alpha: hs.alpha,
            radius: hs.r_est,
            abort_degree: u32::MAX,
            wait: 0,
            retrace: None,
        });
        GraphSizeCheck {
            k: hs.k,
            rank,
            n_h: hs.n,
            t_est: hs.t_est,
            mode,
            tracker,
            v: None,
            start: None,
            tick: 0,
            walk,
            visited: std::collections::HashSet::new(),
            dirty: false,
        }
    }

    fn decide(&self) -> bool {
        let n_true = self.tracker.borrow().graph().node_count();
        let covered = self.visited.len() == n_true;
        let honest = !self.dirty && covered && n_true == self.n_h as usize;
        match self.mode {
            // A clean, complete exploration learns the exact size; anything
            // else fails validation.
            EstMode::Conservative => honest,
            // When clean, even an adversarial reconstruction is correct; a
            // *dirty* one has been misled by spurious token sightings and
            // believes the nodes it saw are the whole graph.
            EstMode::Adversarial => {
                if self.dirty {
                    self.visited.len() == self.n_h as usize
                } else {
                    honest
                }
            }
        }
    }
}

impl Procedure for GraphSizeCheck {
    type Output = GscOutcome;

    fn poll(&mut self, obs: &Obs) -> Poll<GscOutcome> {
        let v = *self
            .v
            .get_or_insert_with(|| self.tracker.borrow().position());
        let slot_len = 2 * self.t_est;
        let total = slot_len * u64::from(self.k);
        self.tick = obs.round - *self.start.get_or_insert(obs.round);
        if self.tick >= total {
            return Poll::Complete(GscOutcome {
                b: self.decide(),
                dirty: self.dirty,
            });
        }
        let slot = self.tick / slot_len;
        let my_slot = slot == u64::from(self.rank);
        let action = if my_slot {
            // Cleanliness: "at the token node iff CurCard > 1", for every
            // round of this agent's EST+ window.
            let here = self.tracker.borrow().position();
            self.visited.insert(here);
            let at_v = here == v;
            let token = obs.cur_card > 1;
            if at_v != token {
                self.dirty = true;
            }
            let in_slot = self.tick % slot_len;
            if in_slot < self.t_est {
                match self.walk.step(obs.degree, obs.entry_port, obs.blocked) {
                    TraversalStep::Move { port, .. } => Action::TakePort(port),
                    // The walk is over: pad with waits.
                    TraversalStep::Done(_) => Action::Wait,
                }
            } else {
                // The verification hold: parked on the token.
                Action::Wait
            }
        } else {
            // Being the token for somebody else's slot.
            Action::Wait
        };
        self.tick += 1;
        Poll::Yield(action)
    }

    fn quiet_until(&self) -> u64 {
        // Promise waits only through stretches with no scheduled moves: the
        // remainder of a foreign slot, or of the hold half of our own slot.
        let slot_len = 2 * self.t_est;
        let total = slot_len * u64::from(self.k);
        let Some(start) = self.start.filter(|_| self.tick < total) else {
            return 0;
        };
        let slot = self.tick / slot_len;
        let in_slot = self.tick % slot_len;
        let quiet_until = if slot == u64::from(self.rank) {
            if in_slot < self.t_est {
                return 0; // walking (or padding — not worth splitting)
            }
            (slot + 1) * slot_len
        } else {
            let my_start = u64::from(self.rank) * slot_len;
            if self.tick < my_start {
                my_start
            } else {
                total
            }
        };
        // The latest poll's clock, plus the waits after it. The completion
        // poll after `total` is not a wait.
        let waits = (quiet_until - self.tick)
            .min(total - self.tick)
            .saturating_sub(u64::from(quiet_until >= total));
        (start + self.tick - 1).saturating_add(waits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unknown::enumeration::SliceEnumeration;
    use crate::unknown::oracle::PositionTracker;
    use crate::unknown::schedule::UnknownSchedule;
    use nochatter_graph::{generators, Graph, InitialConfiguration, Label, Port};
    use nochatter_sim::proc::{Procedure, WaitRounds};
    use nochatter_sim::{Declaration, Engine, WakeSchedule};
    use std::sync::Arc;

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    fn cfg(graph: Graph, k: usize) -> InitialConfiguration {
        let agents = (0..k)
            .map(|i| (label(i as u64 + 1), NodeId::new(i as u32)))
            .collect();
        InitialConfiguration::new(graph, agents).unwrap()
    }

    /// Waits (to align with slower teammates), walks to the meeting node,
    /// then runs GSC — so the whole team starts GSC in the same round, as
    /// `MoveToCentralNode` arranges in the full algorithm.
    struct SlotRunner {
        pre_wait: u64,
        walk: Vec<Port>,
        walked: usize,
        gsc: GraphSizeCheck,
        tracker: SharedTracker,
    }

    impl Procedure for SlotRunner {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            if self.pre_wait > 0 {
                self.pre_wait -= 1;
                return Poll::Yield(Action::Wait);
            }
            if self.walked < self.walk.len() {
                let p = self.walk[self.walked];
                self.walked += 1;
                self.tracker.borrow_mut().apply(p);
                return Poll::Yield(Action::TakePort(p));
            }
            let poll = self.gsc.poll(obs);
            if let Poll::Yield(Action::TakePort(p)) = poll {
                self.tracker.borrow_mut().apply(p);
            }
            poll.map(|out| Declaration {
                leader: None,
                size: Some(u32::from(out.b) + 2 * u32::from(out.dirty)),
            })
        }
    }

    /// Runs GSC with the whole team walking to node 0 first; returns
    /// (b, dirty, round) per agent.
    fn run_gsc(
        real: &Graph,
        hypo: &InitialConfiguration,
        extras: Vec<(u64, u32, nochatter_sim::Agent)>,
    ) -> Vec<(bool, bool, u64)> {
        let sched = UnknownSchedule::new(SliceEnumeration::new(vec![hypo.clone()])).unwrap();
        let graph = Arc::new(real.clone());
        let mut engine = Engine::new(real);
        let k = hypo.agent_count();
        // Everyone must enter GSC in the same round: pad shorter approach
        // walks with waits up front.
        let walks: Vec<Vec<Port>> = (0..k)
            .map(|rank| {
                nochatter_graph::algo::lex_smallest_shortest_path(
                    real,
                    NodeId::new(rank as u32),
                    NodeId::new(0),
                )
            })
            .collect();
        let longest = walks.iter().map(Vec::len).max().unwrap() as u64;
        for (rank, &(l, _)) in hypo.agents().iter().enumerate() {
            let start = NodeId::new(rank as u32);
            let walk = walks[rank].clone();
            let tracker = PositionTracker::new(Arc::clone(&graph), start);
            engine.add_agent(
                l,
                start,
                Box::new(SlotRunner {
                    pre_wait: longest - walk.len() as u64,
                    walk,
                    walked: 0,
                    gsc: GraphSizeCheck::new(
                        sched.hypothesis(1),
                        rank as u32,
                        EstMode::Conservative,
                        Rc::clone(&tracker),
                    ),
                    tracker,
                }),
            );
        }
        for (l, start, behavior) in extras {
            engine.add_agent(label(l), NodeId::new(start), behavior);
        }
        engine.set_wake_schedule(WakeSchedule::Simultaneous);
        let outcome = engine.run(10_000_000).unwrap();
        (0..k)
            .map(|idx| {
                let rec = outcome.declarations[idx].1.expect("GSC must terminate");
                let code = rec.declaration.size.unwrap();
                (code & 1 == 1, code & 2 == 2, rec.round)
            })
            .collect()
    }

    use std::rc::Rc;

    #[test]
    fn correct_size_and_clean_run_passes() {
        // Hypothesis: 3-ring with 2 agents; real graph: the same 3-ring.
        // Both agents must report b = true, clean, in the same round.
        let g = generators::ring(3);
        let hypo = cfg(g.clone(), 2);
        let results = run_gsc(&g, &hypo, vec![]);
        let round = results[0].2;
        for (b, dirty, r) in results {
            assert!(b, "correct hypothesis must validate");
            assert!(!dirty, "exploration must be clean");
            assert_eq!(r, round, "slot padding keeps agents in lockstep");
        }
    }

    #[test]
    fn wrong_size_fails() {
        // Hypothesis says 3 nodes; the real ring has 6. The walk cannot
        // cover it; the verdict must be false for everyone.
        let hypo = cfg(generators::ring(3), 2);
        let real = generators::ring(6);
        let results = run_gsc(&real, &hypo, vec![]);
        assert!(results.iter().all(|&(b, _, _)| !b));
    }

    #[test]
    fn stranger_on_the_walk_dirties_the_exploration() {
        // A stray agent parked away from the token node is met mid-walk:
        // cleanliness is violated and the conservative verdict is false,
        // even though size and coverage would match.
        let g = generators::ring(3);
        let hypo = cfg(g.clone(), 2);
        let results = run_gsc(
            &g,
            &hypo,
            vec![(
                9,
                2,
                Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
            )],
        );
        assert!(results.iter().any(|&(_, dirty, _)| dirty));
        assert!(results.iter().all(|&(b, _, _)| !b));
    }

    #[test]
    fn duration_is_2k_t_est() {
        let g = generators::ring(3);
        let hypo = cfg(g.clone(), 2);
        let sched = UnknownSchedule::new(SliceEnumeration::new(vec![hypo.clone()])).unwrap();
        let results = run_gsc(&g, &hypo, vec![]);
        // One alignment round (the longest approach walk) plus exactly
        // 2 * k * t_est rounds of slots.
        let expected = 1 + 2 * 2 * sched.hypothesis(1).t_est;
        assert_eq!(results[0].2, expected);
        assert_eq!(results[1].2, expected);
    }
}
