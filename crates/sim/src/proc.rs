//! Procedures: resumable per-round state machines, and combinators.
//!
//! Every algorithm in the paper — `EXPLO`, `TZ`, `Communicate`,
//! `GatherKnownUpperBound`, the whole unknown-bound stack — is a
//! [`Procedure`]: a state machine polled in the rounds it acts in that
//! yields one move instruction per poll and eventually completes with a
//! value.
//!
//! # The polling contract
//!
//! * An agent's clock is its own: [`Obs::round`] counts the rounds since
//!   the agent woke, 0 on its first poll. A procedure reads the time that
//!   has passed since its previous poll from the next observation, and
//!   stores start clocks, never countdowns: it is not told about the
//!   rounds in which it is not polled.
//! * [`Procedure::poll`] is called at most once per round with the round's
//!   observation. `Poll::Yield(action)` consumes the round;
//!   `Poll::Complete(value)` does **not** consume the round — a parent
//!   procedure must immediately produce the round's action from its next
//!   step (possibly polling the next child in the same call).
//! * [`Procedure::quiet_until`] is a *promise*, absolute on the agent's
//!   clock: every poll up to and including that round, on an observation
//!   identical to the latest polled one, yields [`Action::Wait`], and
//!   polling the procedure in those rounds or leaving it alone makes no
//!   difference to anything it does later. A round at or before the latest
//!   poll's promises nothing. The engine polls a waiting agent again when
//!   its promise's last round has come — that poll may renew the promise —
//!   or when what it senses changes.
//! * [`Procedure::blind`] strengthens the current promise: it holds under
//!   *any* observations. The engine then lets another agent walk onto or
//!   off the procedure's node without polling it.
//!
//! The identical-observation guarantee is what makes the promise sound even
//! for observation-dependent logic (e.g. a wait that aborts when `CurCard`
//! rises): if the current observation does not trigger the abort, identical
//! ones cannot either. A wait that ignores what it senses ([`WaitRounds`])
//! is [`Procedure::blind`]: its promise holds whatever is observed.
//!
//! # Held instructions
//!
//! [`Action::Hold`] is one instruction for many rounds: the paper's slow
//! move (§4.1, "wait `w_h` rounds, then take the port"), its `EXPLO` walk
//! (§2) or its ball traversal (Algorithm 7). The procedure describes it
//! right after the poll through [`Procedure::held`] ([`Instruction`]), and
//! the [`Engine`](crate::Engine) plays it by one rule, without a poll:
//!
//! * it starts the instruction on the observation of the round it was
//!   yielded in, which gives the first move: in that round (a walk, or a
//!   slow move or traversal of wait 0) or `w` rounds on, the rounds before
//!   it being a blind wait the engine answers itself;
//! * it makes each move itself;
//! * after each move it steps the instruction. A slow move or a traversal
//!   reads no `CurCard`, so it is stepped at the end of the move round,
//!   once that round's acts are applied: the node's degree, the entry
//!   port and whether the move was blocked are all it needs. A walk is
//!   stepped on the observation of the round after the move. The step
//!   gives the next move (a walk's in the round it is stepped in, a
//!   traversal's `w + 1` rounds after the last, or in the next round
//!   after a blocked attempt) or the instruction's end: a slow move ends
//!   after its one move, a walk after its backtrack or once `CurCard` is
//!   above its stop, a traversal after its last path or on a node of its
//!   abort degree;
//! * at the end it hands back what the instruction observed through
//!   [`Procedure::held_done`] ([`HeldDone`]: a walk's `CurCard` summary, a
//!   traversal's completion and end state; a slow move hands nothing
//!   back) and polls the procedure, with that round's ordinary
//!   observation, in the round a walk ends in or the round after a slow
//!   move's or traversal's last move. A traversal that ends without a
//!   move (an abort on the start node, or a radius of 0) ends in the round
//!   it was yielded in, and the procedure is polled again on the same
//!   observation.
//!
//! So:
//!
//! * no poll sees the instruction's observations; a procedure that would
//!   have folded them in (a `CurCard` streak, `EXPLO`'s `min_card`) takes
//!   them from `held_done`, and one that must act on them (`TZ`, whose
//!   window can cut a walk off; `EnsureCleanExploration` and `EST+`, which
//!   watch `CurCard` after each move) steps a
//!   [`WalkState`](crate::walk::WalkState) or
//!   [`TraversalState`](crate::walk::TraversalState) in its own polls
//!   instead;
//! * every procedure that passes a held instruction up forwards both
//!   `held` and `held_done` to the child that yielded it, and one that
//!   interrupts on `CurCard` puts its threshold into a walk's stop: its
//!   next poll, in the round the stop fires, then sees the rise itself;
//! * the clock of the poll after an instruction is its rounds on, so a
//!   procedure that counts rounds from a start clock books the
//!   instruction as all of them;
//! * a retrace is played from the state its traversal ended in, which the
//!   procedure hands back inside the retrace's
//!   [`Traversal`](crate::walk::Traversal);
//! * [`RunFor`] passes up only a slow move whose wait fits its window,
//!   and [`UntilCardExceeds`] passes up none: a walk or a traversal has no
//!   length known in advance, and a held instruction hides `CurCard` from
//!   an interruptible block. Both panic on what they refuse.

use crate::obs::{Action, Obs, Poll};
use crate::walk::{HeldDone, Instruction};

/// A resumable mobile-agent computation; see the [module docs](self) for
/// the polling contract.
pub trait Procedure {
    /// The value produced on completion.
    type Output;

    /// Advances by one round; see the module-level contract.
    fn poll(&mut self, obs: &Obs) -> Poll<Self::Output>;

    /// The last round of the current promise, on the agent's clock: every
    /// poll through it on an observation identical to the latest one
    /// yields [`Action::Wait`] and changes nothing. A round at or before
    /// the latest poll's promises nothing; so does the default, 0.
    fn quiet_until(&self) -> u64 {
        0
    }

    /// True if the current [`Procedure::quiet_until`] promise holds under
    /// arbitrary observations, not only identical ones. The default,
    /// `false`, claims nothing beyond the identical-observation promise.
    fn blind(&self) -> bool {
        false
    }

    /// The instruction the latest poll yielded as [`Action::Hold`]; read
    /// only right after such a poll, and at most once but for a slow move,
    /// which [`RunFor`] reads too. The default panics: a procedure that
    /// yields or passes up held instructions must describe them.
    fn held(&self) -> Instruction {
        panic!("a procedure yielded Action::Hold without describing it through held()")
    }

    /// What the walk or traversal the procedure yielded observed, handed
    /// back once it has ended, right before the procedure's next poll. The
    /// default panics, as [`Procedure::held`]'s does.
    fn held_done(&mut self, _done: HeldDone) {
        panic!("a procedure that yields no walk or traversal was handed one back")
    }

    /// Maps the completion value through `f`, forwarding every promise and
    /// both held-instruction calls. This is how a procedure
    /// becomes an agent: the engine runs procedures whose output is a
    /// [`Declaration`](crate::Declaration).
    ///
    /// # Example
    ///
    /// ```
    /// use nochatter_sim::proc::{Procedure, WaitRounds};
    /// use nochatter_sim::{Action, Declaration, Obs, Poll};
    ///
    /// let mut agent = WaitRounds::new(1).map(|()| Declaration::bare());
    /// assert_eq!(agent.poll(&Obs::synthetic(0, 2, 1, None)), Poll::Yield(Action::Wait));
    /// let obs = Obs::synthetic(1, 2, 1, None);
    /// assert_eq!(agent.poll(&obs), Poll::Complete(Declaration::bare()));
    /// ```
    fn map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: FnMut(Self::Output) -> T,
    {
        Map { inner: self, f }
    }
}

/// A procedure whose completion value passes through a closure; see
/// [`Procedure::map`].
#[derive(Clone, Debug)]
pub struct Map<P, F> {
    inner: P,
    f: F,
}

impl<P, T, F> Procedure for Map<P, F>
where
    P: Procedure,
    F: FnMut(P::Output) -> T,
{
    type Output = T;

    fn poll(&mut self, obs: &Obs) -> Poll<T> {
        self.inner.poll(obs).map(&mut self.f)
    }

    fn quiet_until(&self) -> u64 {
        self.inner.quiet_until()
    }

    fn blind(&self) -> bool {
        self.inner.blind()
    }

    fn held(&self) -> Instruction {
        self.inner.held()
    }

    fn held_done(&mut self, done: HeldDone) {
        self.inner.held_done(done);
    }
}

/// Waits for an exact number of rounds, then completes.
///
/// The paper's `wait x rounds` instruction.
///
/// # Example
///
/// ```
/// use nochatter_sim::proc::{Procedure, WaitRounds};
/// use nochatter_sim::{Action, Obs, Poll};
///
/// // Polled first on the agent's clock 4, it waits through round 5.
/// let mut w = WaitRounds::new(2);
/// assert_eq!(w.poll(&Obs::synthetic(4, 2, 1, None)), Poll::Yield(Action::Wait));
/// assert_eq!(w.quiet_until(), 5);
/// assert_eq!(w.poll(&Obs::synthetic(6, 2, 1, None)), Poll::Complete(()));
/// ```
#[derive(Clone, Debug)]
pub struct WaitRounds {
    rounds: u64,
    /// The round it completes in, fixed by its first poll.
    end: Option<u64>,
}

impl WaitRounds {
    /// Waits exactly `rounds` rounds (possibly zero), counted from its
    /// first poll.
    pub fn new(rounds: u64) -> Self {
        WaitRounds { rounds, end: None }
    }
}

impl Procedure for WaitRounds {
    type Output = ();

    fn poll(&mut self, obs: &Obs) -> Poll<()> {
        let end = *self
            .end
            .get_or_insert(obs.round.saturating_add(self.rounds));
        if obs.round >= end {
            Poll::Complete(())
        } else {
            Poll::Yield(Action::Wait)
        }
    }

    fn quiet_until(&self) -> u64 {
        self.end.map_or(0, |end| end.saturating_sub(1))
    }

    // The wait never looks at the observation.
    fn blind(&self) -> bool {
        true
    }
}

/// Runs an inner procedure for *exactly* `rounds` rounds: truncates it if it
/// is still running, pads with waits if it completes early. Completes with
/// the inner output if the inner procedure finished in time.
///
/// This implements the paper's pattern "execute X for exactly T consecutive
/// rounds" (e.g. `TZ(λ)` for `D_i` rounds, Algorithm 3 line 26).
///
/// An inner slow move ([`Instruction::Slow`]) counts as its `w + 1`
/// rounds. It cannot be truncated, so one whose move would fall after the
/// last round panics. So does any other held instruction: the length of a
/// walk or a traversal is not known in advance.
#[derive(Clone, Debug)]
pub struct RunFor<P: Procedure> {
    rounds: u64,
    /// The round it completes in, fixed by its first poll.
    end: Option<u64>,
    inner: P,
    inner_result: Option<P::Output>,
}

impl<P: Procedure> RunFor<P> {
    /// Runs `inner` for exactly `rounds` rounds, counted from the first
    /// poll.
    pub fn new(rounds: u64, inner: P) -> Self {
        RunFor {
            rounds,
            end: None,
            inner,
            inner_result: None,
        }
    }
}

impl<P: Procedure> Procedure for RunFor<P> {
    type Output = Option<P::Output>;

    fn poll(&mut self, obs: &Obs) -> Poll<Self::Output> {
        let end = *self
            .end
            .get_or_insert(obs.round.saturating_add(self.rounds));
        if obs.round >= end {
            return Poll::Complete(self.inner_result.take());
        }
        if self.inner_result.is_some() {
            return Poll::Yield(Action::Wait);
        }
        match self.inner.poll(obs) {
            Poll::Yield(Action::Hold) => {
                let Instruction::Slow { wait, .. } = self.inner.held() else {
                    panic!(
                        "RunFor passes up only slow moves: a walk or a traversal has no length \
                         known in advance, so the window could not cut it off"
                    )
                };
                // One instruction for `w + 1` rounds: it must land inside
                // the window, which cannot cut it short.
                let left = end - obs.round - 1;
                assert!(
                    wait <= left,
                    "a slow move of {wait} + 1 rounds overruns RunFor's last {left} + 1",
                );
                Poll::Yield(Action::Hold)
            }
            Poll::Yield(a) => Poll::Yield(a),
            Poll::Complete(out) => {
                self.inner_result = Some(out);
                // The inner procedure completed without consuming the round;
                // this wrapper pads the rest, starting now.
                Poll::Yield(Action::Wait)
            }
        }
    }

    fn quiet_until(&self) -> u64 {
        let last = self.end.map_or(0, |end| end.saturating_sub(1));
        if self.inner_result.is_some() {
            last
        } else {
            self.inner.quiet_until().min(last)
        }
    }

    fn held(&self) -> Instruction {
        self.inner.held()
    }
}

/// Outcome of an [`UntilCardExceeds`] block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupted<T> {
    /// `CurCard` exceeded the threshold; the block was abandoned mid-way.
    /// The observation that triggered the interruption has *not* been
    /// consumed: the caller receives it next.
    Interrupted,
    /// The block ran to completion with this output.
    Finished(T),
}

impl<T> Interrupted<T> {
    /// True if the block was cut short.
    pub fn was_interrupted(&self) -> bool {
        matches!(self, Interrupted::Interrupted)
    }
}

/// The paper's interruptible begin–end block: "execute the following block
/// and interrupt it before its completion as soon as CurCard > c"
/// (Algorithm 3 lines 8 and 23).
///
/// The inner procedure must never yield an [`Action::Hold`]: the engine
/// plays a held instruction out without a poll, so a `CurCard` rise during
/// one would interrupt the block only after it, not when it happens.
/// Polling one panics.
#[derive(Clone, Debug)]
pub struct UntilCardExceeds<P> {
    threshold: u32,
    inner: P,
}

impl<P> UntilCardExceeds<P> {
    /// Interrupts `inner` as soon as an observation has `cur_card >
    /// threshold`.
    pub fn new(threshold: u32, inner: P) -> Self {
        UntilCardExceeds { threshold, inner }
    }
}

impl<P: Procedure> Procedure for UntilCardExceeds<P> {
    type Output = Interrupted<P::Output>;

    fn poll(&mut self, obs: &Obs) -> Poll<Self::Output> {
        if obs.cur_card > self.threshold {
            return Poll::Complete(Interrupted::Interrupted);
        }
        let poll = self.inner.poll(obs);
        assert!(
            !matches!(poll, Poll::Yield(Action::Hold)),
            "UntilCardExceeds passes up no slow move, walk or traversal: the engine plays \
             them without a poll, which would hide CurCard from the interruptible block"
        );
        poll.map(Interrupted::Finished)
    }

    // If the current observation does not exceed the threshold, identical
    // observations cannot either, so the inner promise carries over.
    fn quiet_until(&self) -> u64 {
        self.inner.quiet_until()
    }
}

/// Waits until `CurCard` has stayed unchanged for `window` consecutive
/// rounds, counting from (and including) the round of its latest change.
///
/// This is Algorithm 3 lines 16/31: *"wait until having seen `D_{i+1}`
/// consecutive rounds without any variation of CurCard since its latest
/// change (the current round and the round of its latest change
/// included)"*. The streak is seeded by the caller (who has been watching
/// `CurCard` across the surrounding phase) and maintained here.
#[derive(Clone, Debug)]
pub struct WaitCardStable {
    window: u64,
    /// Unchanged observations made before the round `since`.
    streak: u64,
    /// The round the current streak's count starts in: its latest change,
    /// or the first poll of a seeded streak.
    since: Option<u64>,
    last_card: Option<u32>,
}

impl WaitCardStable {
    /// Waits for `window` unchanged rounds. `streak`/`last_card` seed the
    /// count with observations the caller already made (pass `0, None` to
    /// start fresh).
    pub fn new(window: u64, streak: u64, last_card: Option<u32>) -> Self {
        WaitCardStable {
            window,
            streak,
            since: None,
            last_card,
        }
    }
}

impl Procedure for WaitCardStable {
    type Output = ();

    fn poll(&mut self, obs: &Obs) -> Poll<()> {
        if self.last_card != Some(obs.cur_card) {
            self.streak = 0;
            self.since = Some(obs.round);
            self.last_card = Some(obs.cur_card);
        }
        let since = *self.since.get_or_insert(obs.round);
        if self.streak + (obs.round - since) + 1 >= self.window {
            Poll::Complete(())
        } else {
            Poll::Yield(Action::Wait)
        }
    }

    // Identical observations keep the streak growing, so completion in the
    // round the streak reaches the window is guaranteed — but completion
    // is NOT a wait, so the promise stops one short of it.
    fn quiet_until(&self) -> u64 {
        self.since.map_or(0, |since| {
            (since + self.window).saturating_sub(self.streak + 2)
        })
    }
}

/// Follows a fixed port path, one edge per round, then completes. Completes
/// immediately if the path is empty. Does **not** check port existence; use
/// it only for paths known to exist (it is the engine's job to flag invalid
/// ports as protocol errors).
#[derive(Clone, Debug)]
pub struct FollowPath {
    path: Vec<nochatter_graph::Port>,
    next: usize,
}

impl FollowPath {
    /// Follows `path` from front to back.
    pub fn new(path: Vec<nochatter_graph::Port>) -> Self {
        FollowPath { path, next: 0 }
    }
}

impl Procedure for FollowPath {
    type Output = ();

    fn poll(&mut self, _obs: &Obs) -> Poll<()> {
        if self.next >= self.path.len() {
            Poll::Complete(())
        } else {
            let p = self.path[self.next];
            self.next += 1;
            Poll::Yield(Action::TakePort(p))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nochatter_graph::Port;

    /// A plain observation on the agent's clock `round`.
    fn at(round: u64, card: u32) -> Obs {
        Obs::synthetic(round, 3, card, None)
    }

    /// A procedure that moves through port 0 for `n` rounds then completes
    /// with 7.
    #[derive(Debug)]
    struct Mover {
        left: u32,
    }

    impl Procedure for Mover {
        type Output = u32;
        fn poll(&mut self, _obs: &Obs) -> Poll<u32> {
            if self.left == 0 {
                Poll::Complete(7)
            } else {
                self.left -= 1;
                Poll::Yield(Action::TakePort(Port::new(0)))
            }
        }
    }

    #[test]
    fn wait_rounds_zero_completes_immediately() {
        let mut w = WaitRounds::new(0);
        assert_eq!(w.poll(&at(5, 1)), Poll::Complete(()));
    }

    #[test]
    fn wait_rounds_skip_contract() {
        // Started in round 3, it promises rounds 4..=12 and completes in
        // round 13 however many of them it is polled in.
        let mut w = WaitRounds::new(10);
        assert_eq!(w.poll(&at(3, 1)), Poll::Yield(Action::Wait));
        assert_eq!(w.quiet_until(), 12);
        assert_eq!(w.poll(&at(12, 1)), Poll::Yield(Action::Wait));
        assert_eq!(w.quiet_until(), 12);
        assert_eq!(w.poll(&at(13, 1)), Poll::Complete(()));
    }

    #[test]
    fn run_for_truncates() {
        let mut r = RunFor::new(3, Mover { left: 100 });
        for round in 0..3 {
            let moved = Poll::Yield(Action::TakePort(Port::new(0)));
            assert_eq!(r.poll(&at(round, 1)), moved);
        }
        assert_eq!(r.poll(&at(3, 1)), Poll::Complete(None));
    }

    #[test]
    fn run_for_pads_and_reports_inner_output() {
        let mut r = RunFor::new(5, Mover { left: 2 });
        assert_eq!(
            r.poll(&at(0, 1)),
            Poll::Yield(Action::TakePort(Port::new(0)))
        );
        assert_eq!(
            r.poll(&at(1, 1)),
            Poll::Yield(Action::TakePort(Port::new(0)))
        );
        // Inner completes here; wrapper pads with Wait through round 4.
        assert_eq!(r.poll(&at(2, 1)), Poll::Yield(Action::Wait));
        assert_eq!(r.quiet_until(), 4);
        assert_eq!(r.poll(&at(5, 1)), Poll::Complete(Some(7)));
    }

    #[test]
    fn run_for_exact_duration() {
        // Total consumed rounds must be exactly `rounds` in both cases.
        for inner_len in [0u32, 2, 10] {
            let mut r = RunFor::new(4, Mover { left: inner_len });
            let mut round = 0;
            while let Poll::Yield(_) = r.poll(&at(round, 1)) {
                round += 1;
            }
            assert_eq!(round, 4);
        }
    }

    /// Yields slow moves of `wait` rounds through port 0 forever.
    struct Dawdler {
        wait: u64,
    }

    impl Procedure for Dawdler {
        type Output = ();
        fn poll(&mut self, _obs: &Obs) -> Poll<()> {
            Poll::Yield(Action::Hold)
        }

        fn held(&self) -> Instruction {
            Instruction::Slow {
                port: Port::new(0),
                wait: self.wait,
            }
        }
    }

    #[test]
    fn run_for_counts_a_slow_move_as_its_rounds() {
        // Each slow move takes rounds r..=r + 2; the next poll comes after.
        let slow = Poll::Yield(Action::Hold);
        let mut r = RunFor::new(6, Dawdler { wait: 2 });
        assert_eq!(r.poll(&at(0, 1)), slow);
        assert_eq!(
            r.held(),
            Instruction::Slow {
                port: Port::new(0),
                wait: 2
            }
        );
        assert_eq!(r.poll(&at(3, 1)), slow);
        assert_eq!(r.poll(&at(6, 1)), Poll::Complete(None));
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn run_for_rejects_a_slow_move_past_its_window() {
        let mut r = RunFor::new(2, Dawdler { wait: 2 });
        let _ = r.poll(&at(0, 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slow move")]
    fn until_card_exceeds_never_passes_a_slow_move() {
        let mut b = UntilCardExceeds::new(2, Dawdler { wait: 3 });
        let _ = b.poll(&at(0, 1));
    }

    /// Yields a walk on every poll.
    struct Walker;

    impl Procedure for Walker {
        type Output = ();
        fn poll(&mut self, _obs: &Obs) -> Poll<()> {
            Poll::Yield(Action::Hold)
        }

        fn held(&self) -> Instruction {
            Instruction::Walk(crate::walk::Walk {
                steps: [1].into(),
                stop_above: None,
            })
        }
    }

    #[test]
    #[should_panic(expected = "RunFor passes up only slow moves")]
    fn run_for_refuses_a_walk() {
        let _ = RunFor::new(10, Walker).poll(&at(0, 1));
    }

    #[test]
    #[should_panic(expected = "UntilCardExceeds passes up no slow move, walk or traversal")]
    fn until_card_exceeds_refuses_a_walk() {
        let _ = UntilCardExceeds::new(2, Walker).poll(&at(0, 1));
    }

    #[test]
    #[should_panic(expected = "yielded Action::Hold without describing it through held()")]
    fn a_hold_must_be_described() {
        /// Yields a held instruction it does not describe.
        struct Holder;

        impl Procedure for Holder {
            type Output = ();
            fn poll(&mut self, _obs: &Obs) -> Poll<()> {
                Poll::Yield(Action::Hold)
            }
        }

        let mut h = Holder.map(|()| ());
        assert_eq!(h.poll(&at(0, 1)), Poll::Yield(Action::Hold));
        let _ = h.held();
    }

    #[test]
    #[should_panic(expected = "yields no walk or traversal was handed one back")]
    fn only_a_walk_or_a_traversal_is_handed_back() {
        let done = crate::walk::WalkDone {
            min_card: 1,
            last_card: 1,
            changed: None,
        };
        Mover { left: 1 }.map(|n| n).held_done(HeldDone::Walk(done));
    }

    #[test]
    fn until_card_exceeds_interrupts_without_consuming() {
        let mut b = UntilCardExceeds::new(2, WaitRounds::new(10));
        assert_eq!(b.poll(&at(0, 2)), Poll::Yield(Action::Wait));
        assert_eq!(b.quiet_until(), 9);
        assert_eq!(b.poll(&at(1, 3)), Poll::Complete(Interrupted::Interrupted));
    }

    #[test]
    fn until_card_exceeds_finishes() {
        let mut b = UntilCardExceeds::new(5, Mover { left: 1 });
        assert_eq!(
            b.poll(&at(0, 1)),
            Poll::Yield(Action::TakePort(Port::new(0)))
        );
        assert_eq!(b.poll(&at(1, 1)), Poll::Complete(Interrupted::Finished(7)));
    }

    #[test]
    fn wait_card_stable_counts_streaks() {
        let mut w = WaitCardStable::new(3, 0, None);
        assert_eq!(w.poll(&at(0, 2)), Poll::Yield(Action::Wait)); // streak 1
        assert_eq!(w.poll(&at(1, 2)), Poll::Yield(Action::Wait)); // streak 2
        assert_eq!(w.poll(&at(2, 3)), Poll::Yield(Action::Wait)); // reset to 1
        assert_eq!(w.poll(&at(3, 3)), Poll::Yield(Action::Wait)); // 2
        assert_eq!(w.poll(&at(4, 3)), Poll::Complete(())); // 3 -> done
    }

    #[test]
    fn wait_card_stable_seeded() {
        let mut w = WaitCardStable::new(3, 2, Some(4));
        // Seeded with streak 2 at card 4: one more unchanged round finishes.
        assert_eq!(w.poll(&at(7, 4)), Poll::Complete(()));
        let mut w = WaitCardStable::new(3, 2, Some(4));
        // A change resets.
        assert_eq!(w.poll(&at(7, 5)), Poll::Yield(Action::Wait));
        assert_eq!(w.quiet_until(), 8);
    }

    #[test]
    fn wait_card_stable_skip_contract() {
        // 9 more unchanged rounds are needed after round 4; the last one
        // completes, so the promise ends in round 12.
        let mut w = WaitCardStable::new(10, 0, None);
        assert_eq!(w.poll(&at(4, 2)), Poll::Yield(Action::Wait));
        assert_eq!(w.quiet_until(), 12);
        assert_eq!(w.poll(&at(13, 2)), Poll::Complete(()));
    }

    #[test]
    fn follow_path_emits_ports_in_order() {
        let mut f = FollowPath::new(vec![Port::new(2), Port::new(0)]);
        assert_eq!(
            f.poll(&at(0, 1)),
            Poll::Yield(Action::TakePort(Port::new(2)))
        );
        assert_eq!(
            f.poll(&at(1, 1)),
            Poll::Yield(Action::TakePort(Port::new(0)))
        );
        assert_eq!(f.poll(&at(2, 1)), Poll::Complete(()));
    }

    #[test]
    fn map_carries_the_output() {
        let mut m = RunFor::new(4, Mover { left: 1 }).map(|out| out.map(|n| n * 2));
        assert_eq!(
            m.poll(&at(0, 1)),
            Poll::Yield(Action::TakePort(Port::new(0)))
        );
        // Mover completes; RunFor pads the last two rounds.
        assert_eq!(m.poll(&at(1, 1)), Poll::Yield(Action::Wait));
        assert_eq!(m.quiet_until(), 3);
        assert!(!m.blind());
        assert_eq!(m.poll(&at(4, 1)), Poll::Complete(Some(14)));
    }

    #[test]
    fn map_forwards_every_promise() {
        let mut w = WaitRounds::new(3).map(|()| 9u8);
        assert_eq!(w.poll(&at(0, 1)), Poll::Yield(Action::Wait));
        assert_eq!((w.quiet_until(), w.blind()), (2, true));
        assert_eq!(w.poll(&at(3, 1)), Poll::Complete(9));

        let mut s = Dawdler { wait: 5 }.map(|()| 0u8);
        assert_eq!(s.poll(&at(0, 1)), Poll::Yield(Action::Hold));
        assert_eq!(
            s.held(),
            Instruction::Slow {
                port: Port::new(0),
                wait: 5
            }
        );
    }

    #[test]
    fn boxed_procedure_delegates() {
        let mut b: Box<dyn Procedure<Output = ()>> = Box::new(WaitRounds::new(1));
        assert_eq!(b.poll(&at(0, 1)).action(), Some(Action::Wait));
        assert_eq!(b.quiet_until(), 0);
    }
}
