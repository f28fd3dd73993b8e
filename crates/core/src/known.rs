//! `GatherKnownUpperBound` (paper Algorithm 3): gathering and leader
//! election when agents know an upper bound `N` on the graph size.
//!
//! The algorithm proceeds in phases `i = 1, 2, 3, ...` after a wake-up
//! exploration (phase 0). In each phase a group of co-located agents:
//!
//! 1. waits `D_i` rounds, then runs `EXPLO(N)`, waits `T`, runs `EXPLO(N)`
//!    again — all interruptible the moment `CurCard` exceeds the group size
//!    `c` (two groups that can see each other merge here);
//! 2. if nothing was met, runs [`Communicate`] to learn the
//!    lexicographically smallest label code in the group (possible because
//!    unmerged groups are provably *invisible* to each other);
//! 3. runs `TZ(λ)` with the learned label for `D_i` rounds to break the
//!    invisibility, then a final `EXPLO(N)` — again interruptible;
//! 4. after a stabilization wait, declares gathering if its cardinality
//!    never grew and a leader λ was learned; otherwise starts phase `i+1`.
//!
//! Theorem 3.1: all agents declare in the same round at the same node with
//! the same leader λ (a team member's label), within time polynomial in `N`
//! and in the length `ℓ` of the smallest label.
//!
//! The same state machine, switched to [`CommMode::Talking`], implements
//! the *traditional-model baseline*: `Communicate` (cost `5i·T` rounds) is
//! replaced by an instantaneous exchange of co-located labels producing the
//! identical value — this isolates the price of silence measured by the
//! benchmarks.

use std::sync::Arc;

use nochatter_explore::Explo;
use nochatter_graph::Label;
use nochatter_rendezvous::Tz;
use nochatter_sim::proc::{Procedure, RunFor, WaitRounds};
use nochatter_sim::walk::{HeldDone, Instruction, Walk};
use nochatter_sim::{Action, Obs, Poll};

use crate::codec::BitStr;
use crate::communicate::Communicate;
use crate::params::KnownParams;

/// How a group learns the smallest co-located label in step 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommMode {
    /// The paper's weak model: movement-encoded [`Communicate`]
    /// (`5i·T(EXPLO(N))` rounds per phase).
    Silent,
    /// The traditional-model baseline: co-located labels are read
    /// instantaneously (0 rounds). Requires the engine to run with
    /// [`nochatter_sim::Sensing::Traditional`].
    Talking,
}

#[derive(Clone, Debug)]
enum Block1 {
    Wait1(WaitRounds),
    Explo1(Explo),
    Wait2(WaitRounds),
    Explo2(Explo),
}

#[derive(Clone, Debug)]
enum Block2 {
    Wait1(WaitRounds),
    Rendezvous(RunFor<Tz>),
    Wait2(WaitRounds),
    Walk(Explo),
}

#[derive(Clone, Debug)]
enum Stage {
    Phase0Explo(Explo),
    Phase0Wait(WaitRounds),
    /// Line 6: read `c` from the current observation, then enter block 1.
    PhaseStart,
    Block1(Block1),
    /// Line 16: wait for `D_{i+1}` unchanged-CurCard rounds.
    Stabilize1,
    Comm(Communicate),
    Block2(Block2),
    /// Line 31.
    Stabilize2,
    /// Line 34.
    FinalWait(WaitRounds),
}

/// Algorithm 3 as a [`Procedure`]; completes with the elected leader.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use nochatter_core::{GatherKnownUpperBound, KnownParams};
/// use nochatter_graph::{generators, Label};
/// use nochatter_sim::proc::Procedure;
/// use nochatter_sim::Declaration;
///
/// let g = generators::ring(5);
/// let params = KnownParams::for_corpus(6, std::slice::from_ref(&g), 0);
/// let proc_ = GatherKnownUpperBound::silent(params, Label::new(7).unwrap());
/// let agent = proc_.map(Declaration::with_leader); // ready for Engine::add_agent
/// # let _ = agent;
/// ```
#[derive(Clone, Debug)]
pub struct GatherKnownUpperBound {
    params: KnownParams,
    label: Label,
    mode: CommMode,
    /// The round of `CurCard`'s latest change, maintained across the whole
    /// run: the observations since, that round included, are the streak
    /// that lines 16/31 wait to reach `D_{i+1}`.
    changed: u64,
    last_card: Option<u32>,
    /// Current phase `i >= 1`.
    i: u32,
    /// Group cardinality read at the start of the phase (line 6).
    c: u32,
    /// The learned leader parameter (line 7: 0 = none).
    lambda: u64,
    stage: Stage,
}

impl GatherKnownUpperBound {
    /// The paper's algorithm in the weak model.
    pub fn silent(params: KnownParams, label: Label) -> Self {
        Self::with_mode(params, label, CommMode::Silent)
    }

    /// The traditional-model baseline (see [`CommMode::Talking`]).
    pub fn talking(params: KnownParams, label: Label) -> Self {
        Self::with_mode(params, label, CommMode::Talking)
    }

    /// Explicit-mode constructor.
    pub fn with_mode(params: KnownParams, label: Label, mode: CommMode) -> Self {
        let explo = Explo::new(params.uxs());
        GatherKnownUpperBound {
            params,
            label,
            mode,
            changed: 0,
            last_card: None,
            i: 1,
            c: 0,
            lambda: 0,
            stage: Stage::Phase0Explo(explo),
        }
    }

    /// Computes `Communicate`'s return string instantly from co-located
    /// labels — the talking baseline's replacement for step 2.
    fn talking_exchange(&self, obs: &Obs) -> BitStr {
        let peers = obs
            .peer_labels
            .as_ref()
            .expect("talking baseline requires Sensing::Traditional");
        let i = self.i as usize;
        peers
            .iter()
            .map(|&l| BitStr::from_label(l).code())
            .filter(|code| code.len() <= i)
            .min()
            .map(|sigma| sigma.padded_with_ones(i))
            .unwrap_or_else(|| BitStr::empty().padded_with_ones(i))
    }

    fn set_lambda_from(&mut self, l: &BitStr) {
        self.lambda = l
            .extract_terminated_code()
            .and_then(|x| x.to_label())
            .map(Label::value)
            .unwrap_or(0);
    }
}

impl Procedure for GatherKnownUpperBound {
    type Output = Label;

    fn poll(&mut self, obs: &Obs) -> Poll<Label> {
        // Maintain the CurCard streak (lines 16/31 anchor their waits at
        // CurCard's latest change, as seen across the agent's whole
        // observation history).
        if self.last_card != Some(obs.cur_card) {
            self.changed = obs.round;
            self.last_card = Some(obs.cur_card);
        }

        loop {
            match &mut self.stage {
                Stage::Phase0Explo(e) => match e.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(_) => {
                        self.stage = Stage::Phase0Wait(WaitRounds::new(self.params.t_explo()));
                    }
                },
                Stage::Phase0Wait(w) => match w.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(()) => self.stage = Stage::PhaseStart,
                },
                Stage::PhaseStart => {
                    self.c = obs.cur_card;
                    self.lambda = 0;
                    self.stage =
                        Stage::Block1(Block1::Wait1(WaitRounds::new(self.params.d(self.i))));
                }
                Stage::Block1(b1) => {
                    // Line 8: interrupt the block as soon as CurCard > c.
                    if obs.cur_card > self.c {
                        self.stage = Stage::Stabilize1;
                        continue;
                    }
                    match b1 {
                        Block1::Wait1(w) => match w.poll(obs) {
                            Poll::Yield(a) => return Poll::Yield(a),
                            Poll::Complete(()) => {
                                *b1 = Block1::Explo1(Explo::new(self.params.uxs()));
                            }
                        },
                        Block1::Explo1(e) => match e.poll(obs) {
                            Poll::Yield(a) => return Poll::Yield(a),
                            Poll::Complete(_) => {
                                *b1 = Block1::Wait2(WaitRounds::new(self.params.t_explo()));
                            }
                        },
                        Block1::Wait2(w) => match w.poll(obs) {
                            Poll::Yield(a) => return Poll::Yield(a),
                            Poll::Complete(()) => {
                                *b1 = Block1::Explo2(Explo::new(self.params.uxs()));
                            }
                        },
                        Block1::Explo2(e) => match e.poll(obs) {
                            Poll::Yield(a) => return Poll::Yield(a),
                            Poll::Complete(_) => {
                                // Line 15 with the current observation: the
                                // interrupt check above already established
                                // CurCard <= c, so take the else branch
                                // (lines 17-33).
                                match self.mode {
                                    CommMode::Silent => {
                                        let s = BitStr::from_label(self.label).code();
                                        self.stage = Stage::Comm(Communicate::new(
                                            self.i,
                                            s,
                                            true,
                                            Arc::clone(self.params.uxs()),
                                        ));
                                    }
                                    CommMode::Talking => {
                                        let l = self.talking_exchange(obs);
                                        self.set_lambda_from(&l);
                                        self.stage = Stage::Block2(Block2::Wait1(WaitRounds::new(
                                            self.params.t_explo(),
                                        )));
                                    }
                                }
                            }
                        },
                    }
                }
                Stage::Stabilize1 | Stage::Stabilize2 => {
                    if obs.round - self.changed + 1 >= self.params.d(self.i + 1) {
                        self.stage = Stage::FinalWait(WaitRounds::new(self.params.d(self.i + 1)));
                        continue;
                    }
                    return Poll::Yield(Action::Wait);
                }
                Stage::Comm(comm) => match comm.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(out) => {
                        // Lines 20-22.
                        self.set_lambda_from(&out.l);
                        self.stage =
                            Stage::Block2(Block2::Wait1(WaitRounds::new(self.params.t_explo())));
                    }
                },
                Stage::Block2(b2) => {
                    // Line 23: same interruption rule.
                    if obs.cur_card > self.c {
                        self.stage = Stage::Stabilize2;
                        continue;
                    }
                    match b2 {
                        Block2::Wait1(w) => match w.poll(obs) {
                            Poll::Yield(a) => return Poll::Yield(a),
                            Poll::Complete(()) => {
                                *b2 = Block2::Rendezvous(RunFor::new(
                                    self.params.d(self.i),
                                    Tz::new(self.lambda, Arc::clone(self.params.uxs())),
                                ));
                            }
                        },
                        Block2::Rendezvous(r) => match r.poll(obs) {
                            Poll::Yield(a) => return Poll::Yield(a),
                            Poll::Complete(_) => {
                                *b2 = Block2::Wait2(WaitRounds::new(self.params.t_explo()));
                            }
                        },
                        Block2::Wait2(w) => match w.poll(obs) {
                            Poll::Yield(a) => return Poll::Yield(a),
                            Poll::Complete(()) => {
                                *b2 = Block2::Walk(Explo::new(self.params.uxs()));
                            }
                        },
                        Block2::Walk(e) => match e.poll(obs) {
                            Poll::Yield(a) => return Poll::Yield(a),
                            Poll::Complete(_) => {
                                // Line 30 with CurCard <= c: no stabilization.
                                self.stage =
                                    Stage::FinalWait(WaitRounds::new(self.params.d(self.i + 1)));
                            }
                        },
                    }
                }
                Stage::FinalWait(w) => match w.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(()) => {
                        // Line 35.
                        if obs.cur_card == self.c && self.lambda != 0 {
                            let leader =
                                Label::new(self.lambda).expect("lambda != 0 was just checked");
                            return Poll::Complete(leader);
                        }
                        self.i += 1;
                        self.stage = Stage::PhaseStart;
                    }
                },
            }
        }
    }

    fn quiet_until(&self) -> u64 {
        match &self.stage {
            Stage::Phase0Wait(w) | Stage::FinalWait(w) => w.quiet_until(),
            Stage::Block1(Block1::Wait1(w)) | Stage::Block1(Block1::Wait2(w)) => w.quiet_until(),
            Stage::Block2(Block2::Wait1(w)) | Stage::Block2(Block2::Wait2(w)) => w.quiet_until(),
            Stage::Block2(Block2::Rendezvous(r)) => r.quiet_until(),
            Stage::Comm(c) => c.quiet_until(),
            // Identical observations keep the streak growing; the promise
            // stops one short of the round it reaches the window in.
            Stage::Stabilize1 | Stage::Stabilize2 => {
                (self.changed + self.params.d(self.i + 1)).saturating_sub(2)
            }
            _ => 0,
        }
    }

    // Block walks stop once CurCard exceeds c (lines 8 and 23): the poll
    // in the stop round then sees the rise and interrupts the block.
    fn held(&self) -> Instruction {
        match &self.stage {
            Stage::Phase0Explo(e) => e.held(),
            Stage::Comm(c) => c.held(),
            Stage::Block1(Block1::Explo1(e) | Block1::Explo2(e))
            | Stage::Block2(Block2::Walk(e)) => match e.held() {
                Instruction::Walk(walk) => Instruction::Walk(Walk {
                    stop_above: Some(self.c),
                    ..walk
                }),
                _ => unreachable!("EXPLO holds walks only"),
            },
            _ => unreachable!("no walk under way"),
        }
    }

    // The walk's observations extend the CurCard streak as polls would.
    fn held_done(&mut self, done: HeldDone) {
        if let HeldDone::Walk(walk) = &done {
            if let Some(changed) = walk.changed {
                self.changed = changed;
                self.last_card = Some(walk.last_card);
            }
        }
        match &mut self.stage {
            Stage::Phase0Explo(e)
            | Stage::Block1(Block1::Explo1(e) | Block1::Explo2(e))
            | Stage::Block2(Block2::Walk(e)) => e.held_done(done),
            Stage::Comm(c) => c.held_done(done),
            _ => unreachable!("no walk under way"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_known, KnownSetup};
    use nochatter_graph::{generators, InitialConfiguration, NodeId};
    use nochatter_sim::WakeSchedule;

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    fn config(graph: nochatter_graph::Graph, agents: &[(u64, u32)]) -> InitialConfiguration {
        InitialConfiguration::new(
            graph,
            agents
                .iter()
                .map(|&(l, v)| (label(l), NodeId::new(v)))
                .collect(),
        )
        .unwrap()
    }

    fn check(cfg: &InitialConfiguration, schedule: WakeSchedule) -> u64 {
        let setup = KnownSetup::for_configuration(cfg, cfg.size() as u32, 42);
        let outcome = run_known(cfg, &setup, CommMode::Silent, schedule).expect("run succeeds");
        let report = outcome
            .gathering()
            .unwrap_or_else(|e| panic!("gathering invalid: {e}"));
        assert!(report.leader.is_some(), "a leader must be elected");
        assert!(
            cfg.contains_label(report.leader.unwrap()),
            "leader must be a team member"
        );
        report.round
    }

    #[test]
    fn two_agents_on_an_edge() {
        let cfg = config(generators::path(2), &[(1, 0), (2, 1)]);
        check(&cfg, WakeSchedule::Simultaneous);
    }

    #[test]
    fn two_agents_on_a_ring_symmetric_ports() {
        // The classic hard case: a ring where port numbering gives no free
        // symmetry breaking; only the labels differ.
        let cfg = config(generators::ring(4), &[(2, 0), (3, 2)]);
        check(&cfg, WakeSchedule::Simultaneous);
    }

    #[test]
    fn three_agents_star() {
        let cfg = config(generators::star(5), &[(1, 1), (2, 3), (5, 4)]);
        check(&cfg, WakeSchedule::Simultaneous);
    }

    #[test]
    fn staggered_wakeup() {
        let cfg = config(generators::ring(5), &[(3, 0), (4, 2), (6, 4)]);
        check(&cfg, WakeSchedule::Staggered { gap: 17 });
    }

    #[test]
    fn first_only_wakeup() {
        // Only one agent is woken by the adversary; the rest wake on visit
        // during phase 0's exploration.
        let cfg = config(generators::ring(5), &[(3, 0), (4, 2), (6, 4)]);
        check(&cfg, WakeSchedule::FirstOnly);
    }

    #[test]
    fn full_team_on_complete_graph() {
        let cfg = config(generators::complete(4), &[(1, 0), (2, 1), (3, 2), (4, 3)]);
        check(&cfg, WakeSchedule::Simultaneous);
    }

    #[test]
    fn adversarial_port_numbering() {
        let g = generators::with_shuffled_ports(&generators::grid(3, 2), 99);
        let cfg = config(g, &[(2, 0), (5, 3), (9, 5)]);
        check(&cfg, WakeSchedule::Simultaneous);
    }

    #[test]
    fn leader_is_smallest_communicated_label() {
        // With simultaneous start and identical phase progress, the elected
        // leader is the agent whose code is lexicographically smallest among
        // the final group — by construction of Communicate this is a real
        // team label; pin the invariant (not the specific winner, which the
        // paper does not promise).
        let cfg = config(generators::ring(6), &[(11, 0), (6, 2), (7, 4)]);
        check(&cfg, WakeSchedule::Simultaneous);
    }

    #[test]
    fn a_walks_last_curcard_change_extends_the_streak() {
        let g = generators::ring(5);
        let params = KnownParams::for_corpus(5, std::slice::from_ref(&g), 0);
        let mut gather = GatherKnownUpperBound::silent(params, label(3));
        let first = Obs::synthetic(0, 2, 1, None);
        assert_eq!(gather.poll(&first), Poll::Yield(Action::Hold));
        let stop = |gather: &GatherKnownUpperBound| match gather.held() {
            Instruction::Walk(walk) => walk.stop_above,
            other => panic!("not a walk: {other:?}"),
        };
        assert_eq!(stop(&gather), None, "phase 0 never stops");
        // A walk that saw CurCard go 1 -> 2 on clock 4 and back -> 1 on 6.
        let walk_saw = |changed| {
            HeldDone::Walk(nochatter_sim::walk::WalkDone {
                min_card: 1,
                last_card: 1,
                changed,
            })
        };
        gather.held_done(walk_saw(Some(6)));
        assert_eq!((gather.changed, gather.last_card), (6, Some(1)));
        // A walk that saw no change leaves the streak alone.
        gather.held_done(walk_saw(None));
        assert_eq!(gather.changed, 6);
        // Block walks stop once CurCard exceeds the group's c.
        gather.c = 2;
        gather.stage = Stage::Block1(Block1::Explo1(Explo::new(gather.params.uxs())));
        assert_eq!(stop(&gather), Some(2));
    }

    #[test]
    fn wake_skew_larger_than_explo_half() {
        // Adversary delays the second agent far beyond T/2; it is woken
        // earlier by the first agent's phase-0 exploration instead.
        let cfg = config(generators::path(4), &[(1, 0), (2, 3)]);
        let setup = KnownSetup::for_configuration(&cfg, 4, 7);
        let outcome = run_known(
            &cfg,
            &setup,
            CommMode::Silent,
            WakeSchedule::Explicit(vec![0, 1_000_000]),
        )
        .unwrap();
        outcome.gathering().expect("gathering must still succeed");
    }
}
