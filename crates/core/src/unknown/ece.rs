//! `EnsureCleanExploration` (paper Algorithm 10): the double sweep that
//! guarantees the upcoming map-checking explorations will be clean.
//!
//! The whole group walks, in lockstep, **every** port sequence of length
//! `l_ece(h)` over the alphabet `{0..n_h-2}` from the central node —
//! twice. After every forward move the group checks `CurCard == k_h`:
//! meeting *anyone* else means the hypothesis may be polluted and the
//! function returns `false` immediately. Two sweeps are needed because a
//! slow foreign agent (whose every move is `w_h`-separated) can move at
//! most once during the whole window, so at least one sweep sees it parked.

use nochatter_sim::proc::Procedure;
use nochatter_sim::walk::{Traversal, TraversalState, TraversalStep};
use nochatter_sim::{Action, Obs, Poll};

use super::schedule::HypothesisSchedule;

/// Algorithm 10 as a [`Procedure`]; completes with `false` as soon as a
/// foreign presence is observed, `true` after two undisturbed sweeps.
///
/// Each sweep is a traversal without degree abort, stepped in the
/// procedure's own polls because every forward move is followed by a
/// `CurCard` check.
#[derive(Debug)]
pub struct EnsureCleanExploration {
    k: u32,
    sweep: Traversal,
    /// The second sweep has begun.
    second: bool,
    state: TraversalState,
    /// A forward move was yielded: check `CurCard` on the next
    /// observation.
    check_card: bool,
}

impl EnsureCleanExploration {
    /// The sweep prescribed by the hypothesis schedule.
    pub fn new(hs: &HypothesisSchedule) -> Self {
        let sweep = Traversal {
            alpha: hs.alpha,
            radius: hs.l_ece,
            abort_degree: u32::MAX,
            wait: 0,
            retrace: None,
        };
        EnsureCleanExploration {
            k: hs.k,
            state: TraversalState::new(sweep.clone()),
            sweep,
            second: false,
            check_card: false,
        }
    }
}

impl Procedure for EnsureCleanExploration {
    type Output = bool;

    fn poll(&mut self, obs: &Obs) -> Poll<bool> {
        // Algorithm 10 lines 10-12: bail out on any cardinality change.
        if std::mem::take(&mut self.check_card) && obs.cur_card != self.k {
            return Poll::Complete(false);
        }
        loop {
            match self.state.step(obs.degree, obs.entry_port, obs.blocked) {
                TraversalStep::Move { port, forward } => {
                    self.check_card = forward;
                    return Poll::Yield(Action::TakePort(port));
                }
                TraversalStep::Done(_) if !self.second => {
                    self.second = true;
                    self.state = TraversalState::new(self.sweep.clone());
                }
                TraversalStep::Done(_) => return Poll::Complete(true),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unknown::enumeration::SliceEnumeration;
    use crate::unknown::schedule::UnknownSchedule;
    use nochatter_graph::{generators, Graph, InitialConfiguration, Label, NodeId, Port};
    use nochatter_sim::proc::{FollowPath, Procedure, WaitRounds};
    use nochatter_sim::{Declaration, Engine, WakeSchedule};

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    fn ring3_schedule(k: usize) -> UnknownSchedule {
        let agents = (0..k)
            .map(|i| (label(i as u64 + 1), NodeId::new(i as u32)))
            .collect();
        let cfg = InitialConfiguration::new(generators::ring(3), agents).unwrap();
        UnknownSchedule::new(SliceEnumeration::new(vec![cfg])).unwrap()
    }

    /// Wait (to align with slower teammates), walk to the meeting node,
    /// then run ECE together — all team members must start the sweep in the
    /// same round, as `MoveToCentralNode` arranges in the full algorithm.
    struct Sweeper {
        pre_wait: u64,
        walk: FollowPath,
        ece: EnsureCleanExploration,
        walking: bool,
    }

    impl Procedure for Sweeper {
        type Output = bool;
        fn poll(&mut self, obs: &Obs) -> Poll<bool> {
            if self.pre_wait > 0 {
                self.pre_wait -= 1;
                return Poll::Yield(nochatter_sim::Action::Wait);
            }
            if self.walking {
                match self.walk.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(()) => self.walking = false,
                }
            }
            self.ece.poll(obs)
        }
    }

    fn run_sweep(
        g: &Graph,
        sched: &UnknownSchedule,
        team: &[(u64, u32, Vec<u32>)],
        extras: Vec<(u64, u32, nochatter_sim::Agent)>,
    ) -> Vec<(bool, NodeId, u64)> {
        let mut engine = Engine::new(g);
        let team_len = team.len();
        let longest = team.iter().map(|(_, _, w)| w.len()).max().unwrap() as u64;
        for (l, start, walk) in team {
            engine.add_agent(
                label(*l),
                NodeId::new(*start),
                Box::new(
                    Sweeper {
                        pre_wait: longest - walk.len() as u64,
                        walk: FollowPath::new(walk.iter().map(|&p| Port::new(p)).collect()),
                        ece: EnsureCleanExploration::new(sched.hypothesis(1)),
                        walking: true,
                    }
                    .map(|ok| Declaration {
                        leader: None,
                        size: Some(u32::from(ok)),
                    }),
                ),
            );
        }
        for (l, start, behavior) in extras {
            engine.add_agent(label(l), NodeId::new(start), behavior);
        }
        engine.set_wake_schedule(WakeSchedule::Simultaneous);
        let outcome = engine.run(1_000_000).unwrap();
        (0..team_len)
            .map(|idx| {
                let rec = outcome.declarations[idx].1.expect("sweep terminates");
                (rec.declaration.size == Some(1), rec.node, rec.round)
            })
            .collect()
    }

    #[test]
    fn lone_pair_passes_and_returns_to_start() {
        let sched = ring3_schedule(2);
        let g = generators::ring(3);
        // Agent 2 walks one step (port 0 from node 1 reaches node 0) so both
        // sweep together from node 0.
        let results = run_sweep(&g, &sched, &[(1, 0, vec![]), (2, 1, vec![0])], vec![]);
        for (ok, node, _) in &results {
            assert!(*ok);
            assert_eq!(*node, NodeId::new(0), "sweep ends where it started");
        }
        // Lockstep: identical completion rounds.
        assert_eq!(results[0].2, results[1].2);
    }

    #[test]
    fn parked_stranger_is_found() {
        let sched = ring3_schedule(2);
        let g = generators::ring(3);
        let results = run_sweep(
            &g,
            &sched,
            &[(1, 0, vec![]), (2, 1, vec![0])],
            vec![(
                9,
                2,
                Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
            )],
        );
        assert!(results.iter().all(|(ok, _, _)| !ok));
    }

    #[test]
    fn duration_fits_schedule_bound() {
        let sched = ring3_schedule(2);
        let g = generators::ring(3);
        let results = run_sweep(&g, &sched, &[(1, 0, vec![]), (2, 1, vec![0])], vec![]);
        // One approach round plus the sweep; must fit the schedule's bound.
        assert!(results[0].2 <= 1 + sched.hypothesis(1).dur_ece);
    }
}
