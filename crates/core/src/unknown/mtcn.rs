//! `MoveToCentralNode` (paper Algorithm 8): walk to where `φ_h` says the
//! smallest label starts, and wait for the full hypothetical team.
//!
//! An agent whose label is absent from `φ_h` fails immediately. Otherwise
//! it follows `path_h(L)` — the lexicographically smallest shortest path in
//! the *hypothetical* map — failing if a port is missing in the real
//! network. Arrived, it waits up to `S_h + n_h` rounds for `CurCard` to hit
//! `k_h`, then holds another `S_h + n_h` rounds and re-checks: only a group
//! of exactly the hypothesized size that stays intact passes.

use nochatter_graph::{InitialConfiguration, Label};
use nochatter_sim::proc::{Procedure, WaitRounds};
use nochatter_sim::{Action, Obs, Poll};

use super::schedule::HypothesisSchedule;

#[derive(Debug)]
enum Stage {
    /// Following `path_h(L)`; the index of the next port.
    Path(usize),
    /// Lines 11-15: bounded wait for `CurCard == k_h`, started on this
    /// clock.
    WaitForTeam(u64),
    /// Lines 16-20: the confirmation hold.
    Hold(WaitRounds),
    /// Final check on the observation after the hold.
    FinalCheck,
    Failed,
}

/// Algorithm 8 as a [`Procedure`]; completes with whether the agent is
/// confident it stands with exactly the hypothesized team at the central
/// node.
#[derive(Debug)]
pub struct MoveToCentralNode {
    path: Vec<nochatter_graph::Port>,
    k: u32,
    /// `S_h + n_h`, the two waiting windows.
    window: u64,
    stage: Stage,
}

impl MoveToCentralNode {
    /// The walk prescribed by `φ_h` for `label`.
    pub fn new(cfg: &InitialConfiguration, hs: &HypothesisSchedule, label: Label) -> Self {
        let stage = if cfg.contains_label(label) {
            Stage::Path(0)
        } else {
            // Line 3: no node labeled L in φ_h — fail without moving.
            Stage::Failed
        };
        MoveToCentralNode {
            path: cfg.path_to_central(label).unwrap_or_default(),
            k: cfg.agent_count() as u32,
            window: hs.s + u64::from(hs.n),
            stage,
        }
    }
}

impl Procedure for MoveToCentralNode {
    type Output = bool;

    fn poll(&mut self, obs: &Obs) -> Poll<bool> {
        loop {
            match &mut self.stage {
                Stage::Path(i) => {
                    if *i >= self.path.len() {
                        self.stage = Stage::WaitForTeam(obs.round);
                        continue;
                    }
                    let port = self.path[*i];
                    if port.number() >= obs.degree {
                        // Line 6: the hypothetical path does not exist here.
                        self.stage = Stage::Failed;
                        continue;
                    }
                    *i += 1;
                    return Poll::Yield(Action::TakePort(port));
                }
                Stage::WaitForTeam(start) => {
                    if obs.cur_card == self.k {
                        self.stage = Stage::Hold(WaitRounds::new(self.window));
                        continue;
                    }
                    if obs.round - *start >= self.window {
                        self.stage = Stage::Failed;
                        continue;
                    }
                    return Poll::Yield(Action::Wait);
                }
                Stage::Hold(w) => match w.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(()) => {
                        self.stage = Stage::FinalCheck;
                    }
                },
                Stage::FinalCheck => {
                    return Poll::Complete(obs.cur_card == self.k);
                }
                Stage::Failed => return Poll::Complete(false),
            }
        }
    }

    fn quiet_until(&self) -> u64 {
        match &self.stage {
            Stage::Hold(w) => w.quiet_until(),
            // WaitForTeam depends on CurCard: under identical observations
            // it keeps waiting until the budget runs out, in the round
            // `start + window`; that poll fails, which is not a wait, so
            // the promise covers every round before it.
            Stage::WaitForTeam(start) => (start + self.window).saturating_sub(1),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unknown::enumeration::SliceEnumeration;
    use crate::unknown::schedule::UnknownSchedule;
    use nochatter_graph::{generators, NodeId};
    use nochatter_sim::proc::Procedure;
    use nochatter_sim::{Declaration, Engine, WakeSchedule};

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    fn ring_cfg() -> InitialConfiguration {
        InitialConfiguration::new(
            generators::ring(3),
            vec![(label(1), NodeId::new(0)), (label(2), NodeId::new(2))],
        )
        .unwrap()
    }

    fn run_pair(cfg: &InitialConfiguration, real: &nochatter_graph::Graph) -> Vec<(bool, NodeId)> {
        let sched = UnknownSchedule::new(SliceEnumeration::new(vec![cfg.clone()])).unwrap();
        let mut engine = Engine::new(real);
        for &(l, start) in cfg.agents() {
            engine.add_agent(
                l,
                start,
                Box::new(
                    MoveToCentralNode::new(cfg, sched.hypothesis(1), l).map(|ok| Declaration {
                        leader: None,
                        size: Some(u32::from(ok)),
                    }),
                ),
            );
        }
        engine.set_wake_schedule(WakeSchedule::Simultaneous);
        let outcome = engine.run(100_000_000).unwrap();
        assert!(outcome.all_declared());
        outcome
            .declarations
            .iter()
            .map(|(_, r)| {
                let rec = r.unwrap();
                (rec.declaration.size == Some(1), rec.node)
            })
            .collect()
    }

    #[test]
    fn true_hypothesis_gathers_team_at_central_node() {
        let cfg = ring_cfg();
        let results = run_pair(&cfg, &cfg.graph().clone());
        let central = cfg.central_node();
        for (ok, node) in results {
            assert!(ok, "both agents must confirm the team");
            assert_eq!(node, central);
        }
    }

    #[test]
    fn absent_label_fails_without_moving() {
        let cfg = ring_cfg();
        let sched = UnknownSchedule::new(SliceEnumeration::new(vec![cfg.clone()])).unwrap();
        let mut proc_ = MoveToCentralNode::new(&cfg, sched.hypothesis(1), label(99));
        let obs = Obs::synthetic(0, 2, 1, None);
        assert_eq!(proc_.poll(&obs), Poll::Complete(false));
    }

    #[test]
    fn missing_port_fails() {
        // Hypothesis: 3-ring (agent 2 walks 1 step). Real graph: path(3)
        // rearranged so the hypothesized port does not exist at a leaf.
        let cfg = ring_cfg();
        let real = generators::path(3);
        // Agent at node 2 of path(3) has degree 1; path_h(2) on the ring
        // starts with a port that may not exist, or the walk ends at the
        // wrong place and the team never shows: either way both fail.
        let results = run_pair(&cfg, &real);
        assert!(results.iter().any(|(ok, _)| !ok));
    }

    /// `MoveToCentralNode` with a team-wait promise that stops one round
    /// short of the last round the wait is guaranteed through.
    struct OneRoundShort(MoveToCentralNode);
    impl Procedure for OneRoundShort {
        type Output = bool;
        fn poll(&mut self, obs: &Obs) -> Poll<bool> {
            self.0.poll(obs)
        }
        fn quiet_until(&self) -> u64 {
            match self.0.stage {
                Stage::WaitForTeam(start) => (start + self.0.window).saturating_sub(2),
                _ => self.0.quiet_until(),
            }
        }
    }

    #[test]
    fn a_team_wait_that_runs_out_alone_costs_no_round_of_its_own() {
        // The lone agent of `lone_agent_times_out` waits at the central
        // node for a team that never comes. Its promise covers every round
        // before the one its budget runs out in, so the engine jumps
        // straight to the failing poll. A promise one round shorter plays
        // the same run, trace included, with one executed round more.
        let cfg = ring_cfg();
        let real = generators::ring(6);
        let sched = UnknownSchedule::new(SliceEnumeration::new(vec![cfg.clone()])).unwrap();
        let run = |short: bool| {
            let mtcn = MoveToCentralNode::new(&cfg, sched.hypothesis(1), label(1));
            let declare = |ok: bool| Declaration {
                leader: None,
                size: Some(u32::from(ok)),
            };
            let agent: nochatter_sim::Agent = if short {
                Box::new(OneRoundShort(mtcn).map(declare))
            } else {
                Box::new(mtcn.map(declare))
            };
            let mut engine = Engine::new(&real);
            engine.add_agent(label(1), NodeId::new(0), agent);
            engine.add_agent(
                label(2),
                NodeId::new(3),
                Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
            );
            engine.record_trace(64);
            engine.run(100_000_000).unwrap()
        };
        let (mended, short) = (run(false), run(true));
        assert_eq!(mended.declarations[0].1.unwrap().declaration.size, Some(0));
        assert_eq!(mended.declarations, short.declarations);
        assert_eq!(mended.rounds, short.rounds);
        assert_eq!(
            mended.trace.as_ref().unwrap().events(),
            short.trace.as_ref().unwrap().events()
        );
        // Rounds 0 and 1 (the poll after the wake observation), then the
        // failing poll.
        assert_eq!(mended.engine_iterations, 3);
        assert_eq!(short.engine_iterations, 4);
        assert_eq!(
            mended.engine_iterations + mended.skipped_rounds,
            short.engine_iterations + short.skipped_rounds
        );
    }

    #[test]
    fn lone_agent_times_out() {
        // Real network has the two agents far apart on a bigger ring than
        // hypothesized; the central-node wait must expire, not hang.
        let cfg = ring_cfg();
        let real = generators::ring(6);
        let sched = UnknownSchedule::new(SliceEnumeration::new(vec![cfg.clone()])).unwrap();
        let mut engine = Engine::new(&real);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(
                MoveToCentralNode::new(&cfg, sched.hypothesis(1), label(1)).map(|ok| Declaration {
                    leader: None,
                    size: Some(u32::from(ok)),
                }),
            ),
        );
        engine.add_agent(
            label(2),
            NodeId::new(3),
            Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
        );
        let outcome = engine.run(100_000_000).unwrap();
        assert!(outcome.all_declared());
        assert_eq!(
            outcome.declarations[0].1.unwrap().declaration.size,
            Some(0),
            "agent must give up after the bounded wait"
        );
    }
}
