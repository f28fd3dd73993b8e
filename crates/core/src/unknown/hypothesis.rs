//! `Hypothesis` (paper Algorithm 6): one full test of "the initial
//! configuration is `φ_h`".
//!
//! First part (the optimistic path): `BallTraversal` (wake and scan the
//! neighborhood), wait `S_h` (let stragglers catch up to hypothesis `h`),
//! `MoveToCentralNode`, `StarCheck`, `EnsureCleanExploration`,
//! `GraphSizeCheck` — any failure short-circuits to the second part. A
//! `GraphSizeCheck` success makes the whole hypothesis succeed.
//!
//! Second part (the cleanup): retrace *every* entry port of the first part
//! in reverse, one slow (`w_h`-separated) move at a time — returning the
//! agent to its start node — then pad so the hypothesis consumes exactly
//! `T_h` rounds. The exact budget is what keeps all agents' hypothesis
//! clocks in lockstep (Lemma 4.5). The ball traversal and its retrace are
//! each one held traversal ([`Action::Hold`]), which the engine plays
//! without a poll, one move every `w_h + 1` rounds; every unwind move of
//! the main part is one held slow move waiting `w_h`, after which the next
//! poll comes. The budget is read off the agent's clock.
//!
//! Only the main part's entry ports are stored. The ball traversal's,
//! reversed, form a ball traversal of their own, so the cleanup replays it
//! ([`BallTraversal::into_retrace`]) after popping the main-part trail.
//! A hypothesis therefore holds O(`r_ball` + main-part moves) state, not
//! one port per ball move.

use nochatter_graph::{InitialConfiguration, Label, Port};
use nochatter_sim::proc::{Procedure, WaitRounds};
use nochatter_sim::walk::{HeldDone, Instruction};
use nochatter_sim::{Action, Obs, Poll};

use super::ball::BallTraversal;
use super::ece::EnsureCleanExploration;
use super::gsc::GraphSizeCheck;
use super::mtcn::MoveToCentralNode;
use super::oracle::{EstMode, SharedTracker};
use super::schedule::HypothesisSchedule;
use super::starcheck::StarCheck;

/// How a hypothesis concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HypothesisVerdict {
    /// `Hypothesis(h)` returned true: gathering is achieved.
    True {
        /// Whether any `EST+` execution during this hypothesis was dirty.
        dirty_est: bool,
    },
    /// `Hypothesis(h)` returned false after exactly `T_h` rounds.
    False {
        /// Whether any `EST+` execution during this hypothesis was dirty.
        dirty_est: bool,
    },
}

#[derive(Debug)]
enum Stage {
    Ball(BallTraversal),
    /// Algorithm 6 line 4: wait `S_h`.
    Line4(WaitRounds),
    Mtcn(MoveToCentralNode),
    Star(StarCheck),
    Ece(EnsureCleanExploration),
    Gsc(GraphSizeCheck),
    /// The ball traversal's retrace, once the main-part trail is empty.
    UnwindBall(BallTraversal),
    /// Decide the next unwind step (or start padding).
    UnwindNext,
    /// One unwind move of the main part, held as a slow move.
    UnwindMove(Port),
    /// Algorithm 6 line 22: pad to exactly `T_h`.
    Pad(WaitRounds),
}

/// Algorithm 6 as a [`Procedure`].
#[derive(Debug)]
pub struct Hypothesis {
    cfg: InitialConfiguration,
    hs: HypothesisSchedule,
    label: Label,
    mode: EstMode,
    /// Ablation switch: skip `EnsureCleanExploration` (never set by the
    /// faithful algorithm; exercised by experiment A2 to show the shield is
    /// load-bearing).
    skip_ece: bool,
    tracker: SharedTracker,
    /// Entry ports of every main-part move (`MoveToCentralNode` through
    /// `GraphSizeCheck`), in order of entrance: the stored half of
    /// Algorithm 6 line 16. The ball's moves are not stored; `retrace`
    /// replays them.
    trail: Vec<Port>,
    /// The finished ball traversal's retrace, walked after `trail` when
    /// the hypothesis fails.
    retrace: Option<BallTraversal>,
    pending_trail: bool,
    /// Whether moves enter `trail`: true only during the main part.
    record_trail: bool,
    /// The clock of the hypothesis's first poll: its budget `T_h` runs
    /// from there.
    start: Option<u64>,
    dirty_est: bool,
    stage: Stage,
}

impl Hypothesis {
    /// A fresh test of hypothesis `φ_h` by the agent with the given label.
    pub fn new(
        cfg: InitialConfiguration,
        hs: HypothesisSchedule,
        label: Label,
        mode: EstMode,
        tracker: SharedTracker,
    ) -> Self {
        Self::with_shield(cfg, hs, label, mode, tracker, true)
    }

    /// Like [`Hypothesis::new`] but with the clean-exploration shield
    /// optionally disabled (`shield = false` skips Algorithm 10).
    pub fn with_shield(
        cfg: InitialConfiguration,
        hs: HypothesisSchedule,
        label: Label,
        mode: EstMode,
        tracker: SharedTracker,
        shield: bool,
    ) -> Self {
        let ball = BallTraversal::new(&hs);
        Hypothesis {
            cfg,
            hs,
            label,
            mode,
            skip_ece: !shield,
            tracker,
            trail: Vec::new(),
            retrace: None,
            pending_trail: false,
            record_trail: false,
            start: None,
            dirty_est: false,
            stage: Stage::Ball(ball),
        }
    }

    /// The exact round budget `T_h` of this hypothesis.
    pub fn budget(&self) -> u64 {
        self.hs.t_h
    }

    /// Yields `action`. The position oracle replays every move this agent
    /// makes but a traversal's: a plain move here, an unwind slow move's
    /// port when it is yielded, before its wait, while no poll can read
    /// the oracle. Traversal moves never reach it: a completed ball
    /// traversal ends on its start node, and an aborted one is retraced to
    /// the start before anything reads a position.
    fn emit(&mut self, action: Action) -> Poll<HypothesisVerdict> {
        if let Action::TakePort(p) = action {
            self.tracker.borrow_mut().apply(p);
        }
        if self.record_trail && !matches!(action, Action::Wait) {
            self.pending_trail = true;
        }
        Poll::Yield(action)
    }
}

impl Procedure for Hypothesis {
    type Output = HypothesisVerdict;

    fn poll(&mut self, obs: &Obs) -> Poll<HypothesisVerdict> {
        let spent = obs.round - *self.start.get_or_insert(obs.round);
        if self.pending_trail {
            self.pending_trail = false;
            self.trail.push(
                obs.entry_port
                    .expect("moved last round, entry port is known"),
            );
        }
        loop {
            match &mut self.stage {
                Stage::Ball(b) => match b.poll(obs) {
                    Poll::Yield(a) => return self.emit(a),
                    Poll::Complete(completed) => {
                        let next = if completed {
                            Stage::Line4(WaitRounds::new(self.hs.s))
                        } else {
                            Stage::UnwindNext
                        };
                        if let Stage::Ball(ball) = std::mem::replace(&mut self.stage, next) {
                            self.retrace = Some(ball.into_retrace());
                        }
                        self.record_trail = completed;
                    }
                },
                Stage::Line4(w) => match w.poll(obs) {
                    Poll::Yield(a) => return self.emit(a),
                    Poll::Complete(()) => {
                        self.stage =
                            Stage::Mtcn(MoveToCentralNode::new(&self.cfg, &self.hs, self.label));
                    }
                },
                Stage::Mtcn(m) => match m.poll(obs) {
                    Poll::Yield(a) => return self.emit(a),
                    Poll::Complete(true) => {
                        let rank = self
                            .cfg
                            .rank(self.label)
                            .expect("MoveToCentralNode succeeded, label is in φ_h");
                        self.stage = Stage::Star(StarCheck::new(self.hs.k, rank as u32));
                    }
                    Poll::Complete(false) => {
                        self.record_trail = false;
                        self.stage = Stage::UnwindNext;
                    }
                },
                Stage::Star(s) => match s.poll(obs) {
                    Poll::Yield(a) => return self.emit(a),
                    Poll::Complete(true) => {
                        if self.skip_ece {
                            let rank = self
                                .cfg
                                .rank(self.label)
                                .expect("label is in φ_h past MoveToCentralNode");
                            self.stage = Stage::Gsc(GraphSizeCheck::new(
                                &self.hs,
                                rank as u32,
                                self.mode,
                                std::rc::Rc::clone(&self.tracker),
                            ));
                        } else {
                            self.stage = Stage::Ece(EnsureCleanExploration::new(&self.hs));
                        }
                    }
                    Poll::Complete(false) => {
                        self.record_trail = false;
                        self.stage = Stage::UnwindNext;
                    }
                },
                Stage::Ece(e) => match e.poll(obs) {
                    Poll::Yield(a) => return self.emit(a),
                    Poll::Complete(true) => {
                        let rank = self
                            .cfg
                            .rank(self.label)
                            .expect("label is in φ_h past MoveToCentralNode");
                        self.stage = Stage::Gsc(GraphSizeCheck::new(
                            &self.hs,
                            rank as u32,
                            self.mode,
                            std::rc::Rc::clone(&self.tracker),
                        ));
                    }
                    Poll::Complete(false) => {
                        self.record_trail = false;
                        self.stage = Stage::UnwindNext;
                    }
                },
                Stage::Gsc(g) => match g.poll(obs) {
                    Poll::Yield(a) => return self.emit(a),
                    Poll::Complete(out) => {
                        self.dirty_est |= out.dirty;
                        if out.b {
                            return Poll::Complete(HypothesisVerdict::True {
                                dirty_est: self.dirty_est,
                            });
                        }
                        self.record_trail = false;
                        self.stage = Stage::UnwindNext;
                    }
                },
                Stage::UnwindNext => {
                    if let Some(port) = self.trail.pop() {
                        self.tracker.borrow_mut().apply(port);
                        self.stage = Stage::UnwindMove(port);
                        return self.emit(Action::Hold);
                    }
                    self.stage = if let Some(retrace) = self.retrace.take() {
                        Stage::UnwindBall(retrace)
                    } else {
                        let remaining =
                            self.hs.t_h.checked_sub(spent).expect(
                                "hypothesis exceeded its budget T_h — schedule bound violated",
                            );
                        Stage::Pad(WaitRounds::new(remaining))
                    };
                }
                Stage::UnwindMove(_) => self.stage = Stage::UnwindNext,
                Stage::UnwindBall(b) => match b.poll(obs) {
                    Poll::Yield(a) => return self.emit(a),
                    Poll::Complete(_) => self.stage = Stage::UnwindNext,
                },
                Stage::Pad(w) => match w.poll(obs) {
                    Poll::Yield(a) => return self.emit(a),
                    Poll::Complete(()) => {
                        debug_assert_eq!(spent, self.hs.t_h);
                        return Poll::Complete(HypothesisVerdict::False {
                            dirty_est: self.dirty_est,
                        });
                    }
                },
            }
        }
    }

    // The engine holds the ball's traversals and the unwind's slow moves:
    // those stages promise nothing of their own.
    fn quiet_until(&self) -> u64 {
        match &self.stage {
            Stage::Line4(w) | Stage::Pad(w) => w.quiet_until(),
            Stage::Mtcn(m) => m.quiet_until(),
            Stage::Gsc(g) => g.quiet_until(),
            Stage::Ball(_)
            | Stage::UnwindBall(_)
            | Stage::Star(_)
            | Stage::Ece(_)
            | Stage::UnwindNext
            | Stage::UnwindMove(_) => 0,
        }
    }

    fn blind(&self) -> bool {
        matches!(&self.stage, Stage::Line4(_) | Stage::Pad(_))
    }

    // The unwind's slow moves wait `w_h`.
    fn held(&self) -> Instruction {
        match self.stage {
            Stage::Ball(ref b) | Stage::UnwindBall(ref b) => b.held(),
            Stage::UnwindMove(port) => Instruction::Slow {
                port,
                wait: self.hs.w,
            },
            _ => unreachable!("only the ball and unwind stages hold"),
        }
    }

    fn held_done(&mut self, done: HeldDone) {
        match &mut self.stage {
            Stage::Ball(b) | Stage::UnwindBall(b) => b.held_done(done),
            _ => unreachable!("only the ball stages traverse"),
        }
    }
}
