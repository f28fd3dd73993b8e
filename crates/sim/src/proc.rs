//! Procedures: resumable per-round state machines, and combinators.
//!
//! Every algorithm in the paper — `EXPLO`, `TZ`, `Communicate`,
//! `GatherKnownUpperBound`, the whole unknown-bound stack — is a
//! [`Procedure`]: a state machine polled once per round that yields one
//! move instruction per poll and eventually completes with a value.
//!
//! # The polling contract
//!
//! * [`Procedure::poll`] is called exactly once per round with the round's
//!   observation. `Poll::Yield(action)` consumes the round;
//!   `Poll::Complete(value)` does **not** consume the round — a parent
//!   procedure must immediately produce the round's action from its next
//!   step (possibly polling the next child in the same call).
//! * [`Procedure::min_wait`] is a *promise*: a lower bound on how many
//!   subsequent polls are guaranteed to yield [`Action::Wait`] under
//!   identical observations. It lets the engine fast-forward quiescent
//!   stretches.
//! * [`Procedure::blind`] strengthens the current promise: it holds under
//!   *any* observations, and each of those polls leaves the procedure as
//!   `note_skipped(1)` would. The engine's lone-agent path then lets
//!   another agent walk onto or off the procedure's node without polling
//!   it.
//! * [`Procedure::note_skipped`]`(k)` informs the procedure that `k` rounds
//!   elapsed during which (a) it was treated as having waited and (b) the
//!   observation was *identical* to the one most recently polled (under a
//!   blind promise: anything at all). Callers may only pass
//!   `k <= min_wait()`. Procedures that count rounds must
//!   advance their counters accordingly. Skips add up —
//!   `note_skipped(a); note_skipped(b)` equals `note_skipped(a + b)` —
//!   and `min_wait` falls by exactly the rounds noted, so a promise's
//!   last round never moves while the promise runs: the engine's
//!   lone-agent path lets waiting agents lag and catches each up with
//!   one call.
//!
//! The identical-observation guarantee is what makes `min_wait` sound even
//! for observation-dependent logic (e.g. a wait that aborts when `CurCard`
//! rises): if the current observation does not trigger the abort, identical
//! ones cannot either. A wait that ignores what it senses ([`WaitRounds`])
//! is [`Procedure::blind`]: its promise holds whatever is observed.
//!
//! # Slow moves
//!
//! [`Action::SlowMove`]`(port)` is one instruction for `w + 1` rounds, where
//! `w` is what [`Procedure::slow_wait`] reports right after the poll: the
//! unknown-bound algorithm's "wait `w_h` rounds, then take the port"
//! (§4.1). The [`Engine`](crate::Engine) holds the move: it answers the
//! `w` waiting rounds itself, makes the move in the last round without a
//! poll, and polls the procedure next in the round after the move, so:
//!
//! * no poll sees the wait's observations, and every procedure that
//!   passes a slow move up must be one that would have ignored them
//!   ([`UntilCardExceeds`], which watches `CurCard`, must never pass one
//!   through);
//! * every procedure that passes a slow move up reports the wait from its
//!   own `slow_wait`, and one that counts its rounds books the
//!   instruction as `w + 1` of them ([`RunFor`] does);
//! * nothing reaches the procedure for the wait's `min_wait`, `blind` or
//!   `note_skipped` either.

use crate::obs::{Action, Obs, Poll};

/// A resumable mobile-agent computation; see the [module docs](self) for
/// the polling contract.
pub trait Procedure {
    /// The value produced on completion.
    type Output;

    /// Advances by one round; see the module-level contract.
    fn poll(&mut self, obs: &Obs) -> Poll<Self::Output>;

    /// Lower bound on the number of subsequent polls guaranteed to yield
    /// [`Action::Wait`] under identical observations. The default promises
    /// nothing.
    fn min_wait(&self) -> u64 {
        0
    }

    /// True if the current [`Procedure::min_wait`] promise holds under
    /// arbitrary observations, not only identical ones: every poll inside
    /// it yields [`Action::Wait`] and leaves the procedure exactly as
    /// `note_skipped(1)` would. The default, `false`, claims nothing
    /// beyond the identical-observation promise.
    fn blind(&self) -> bool {
        false
    }

    /// Acknowledges `rounds` skipped rounds with identical observations.
    /// Callers must keep `rounds <= self.min_wait()`.
    fn note_skipped(&mut self, rounds: u64) {
        let _ = rounds;
    }

    /// The wait of the [`Action::SlowMove`] the latest poll yielded, in
    /// rounds before its move; read only right after such a poll. The
    /// default panics: a procedure that yields or passes up slow moves
    /// must say how long they wait.
    fn slow_wait(&self) -> u64 {
        panic!("a procedure yielded a slow move without a slow_wait")
    }

    /// Maps the completion value through `f`, forwarding every promise and
    /// the slow-move wait. This is how a procedure becomes an agent: the
    /// engine runs procedures whose output is a
    /// [`Declaration`](crate::Declaration).
    ///
    /// # Example
    ///
    /// ```
    /// use nochatter_sim::proc::{Procedure, WaitRounds};
    /// use nochatter_sim::{Action, Declaration, Obs, Poll};
    ///
    /// let mut agent = WaitRounds::new(1).map(|()| Declaration::bare());
    /// let obs = Obs::synthetic(0, 2, 1, None);
    /// assert_eq!(agent.poll(&obs), Poll::Yield(Action::Wait));
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

    fn min_wait(&self) -> u64 {
        self.inner.min_wait()
    }

    fn blind(&self) -> bool {
        self.inner.blind()
    }

    fn note_skipped(&mut self, rounds: u64) {
        self.inner.note_skipped(rounds);
    }

    fn slow_wait(&self) -> u64 {
        self.inner.slow_wait()
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
/// let mut w = WaitRounds::new(2);
/// let obs = Obs::synthetic(0, 2, 1, None);
/// assert_eq!(w.poll(&obs), Poll::Yield(Action::Wait));
/// assert_eq!(w.min_wait(), 1);
/// assert_eq!(w.poll(&obs), Poll::Yield(Action::Wait));
/// assert_eq!(w.poll(&obs), Poll::Complete(()));
/// ```
#[derive(Clone, Debug)]
pub struct WaitRounds {
    remaining: u64,
}

impl WaitRounds {
    /// Waits exactly `rounds` rounds (possibly zero).
    pub fn new(rounds: u64) -> Self {
        WaitRounds { remaining: rounds }
    }

    /// Rounds still to wait.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl Procedure for WaitRounds {
    type Output = ();

    fn poll(&mut self, _obs: &Obs) -> Poll<()> {
        if self.remaining == 0 {
            Poll::Complete(())
        } else {
            self.remaining -= 1;
            Poll::Yield(Action::Wait)
        }
    }

    fn min_wait(&self) -> u64 {
        self.remaining
    }

    // The countdown never looks at the observation.
    fn blind(&self) -> bool {
        true
    }

    fn note_skipped(&mut self, rounds: u64) {
        debug_assert!(rounds <= self.remaining);
        self.remaining -= rounds.min(self.remaining);
    }
}

/// Runs an inner procedure for *exactly* `rounds` rounds: truncates it if it
/// is still running, pads with waits if it completes early. Completes with
/// the inner output if the inner procedure finished in time.
///
/// This implements the paper's pattern "execute X for exactly T consecutive
/// rounds" (e.g. `TZ(λ)` for `D_i` rounds, Algorithm 3 line 26).
///
/// An inner [`Action::SlowMove`] counts as its `w + 1` rounds. It cannot be
/// truncated, so one whose move would fall after the last round panics.
#[derive(Clone, Debug)]
pub struct RunFor<P: Procedure> {
    remaining: u64,
    inner: P,
    inner_result: Option<P::Output>,
}

impl<P: Procedure> RunFor<P> {
    /// Runs `inner` for exactly `rounds` rounds.
    pub fn new(rounds: u64, inner: P) -> Self {
        RunFor {
            remaining: rounds,
            inner,
            inner_result: None,
        }
    }
}

impl<P: Procedure> Procedure for RunFor<P> {
    type Output = Option<P::Output>;

    fn poll(&mut self, obs: &Obs) -> Poll<Self::Output> {
        if self.remaining == 0 {
            return Poll::Complete(self.inner_result.take());
        }
        self.remaining -= 1;
        if self.inner_result.is_some() {
            return Poll::Yield(Action::Wait);
        }
        match self.inner.poll(obs) {
            Poll::Yield(a @ Action::SlowMove(_)) => {
                // One instruction for `w + 1` rounds: it must land inside
                // the window, which cannot cut it short.
                let wait = self.inner.slow_wait();
                assert!(
                    wait <= self.remaining,
                    "a slow move of {wait} + 1 rounds overruns RunFor's last {} + 1",
                    self.remaining
                );
                self.remaining -= wait;
                Poll::Yield(a)
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

    fn min_wait(&self) -> u64 {
        if self.inner_result.is_some() {
            self.remaining
        } else {
            self.inner.min_wait().min(self.remaining)
        }
    }

    fn note_skipped(&mut self, rounds: u64) {
        debug_assert!(rounds <= self.min_wait());
        self.remaining -= rounds.min(self.remaining);
        if self.inner_result.is_none() {
            self.inner.note_skipped(rounds);
        }
    }

    fn slow_wait(&self) -> u64 {
        self.inner.slow_wait()
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
/// The inner procedure must never yield an [`Action::SlowMove`]: the wait
/// of a slow move is played out without a poll, so a `CurCard` rise during
/// it would interrupt the block only after the move, not when it happens.
/// Debug builds assert it.
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
        debug_assert!(
            !matches!(poll, Poll::Yield(Action::SlowMove(_))),
            "a slow move's wait would hide CurCard from the interruptible block"
        );
        poll.map(Interrupted::Finished)
    }

    // If the current observation does not exceed the threshold, identical
    // observations cannot either, so the inner promise carries over.
    fn min_wait(&self) -> u64 {
        self.inner.min_wait()
    }

    fn note_skipped(&mut self, rounds: u64) {
        self.inner.note_skipped(rounds);
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
    streak: u64,
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
            last_card,
        }
    }
}

impl Procedure for WaitCardStable {
    type Output = ();

    fn poll(&mut self, obs: &Obs) -> Poll<()> {
        match self.last_card {
            Some(c) if c == obs.cur_card => self.streak += 1,
            _ => self.streak = 1,
        }
        self.last_card = Some(obs.cur_card);
        if self.streak >= self.window {
            Poll::Complete(())
        } else {
            Poll::Yield(Action::Wait)
        }
    }

    // Identical observations keep the streak growing, so completion after
    // the remaining count is guaranteed — but completion is NOT a wait, so
    // the promise stops one short of it.
    fn min_wait(&self) -> u64 {
        (self.window - self.streak.min(self.window)).saturating_sub(1)
    }

    fn note_skipped(&mut self, rounds: u64) {
        debug_assert!(rounds <= self.min_wait());
        self.streak += rounds;
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

    fn obs(card: u32) -> Obs {
        Obs::synthetic(0, 3, card, None)
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
        assert_eq!(w.poll(&obs(1)), Poll::Complete(()));
    }

    #[test]
    fn wait_rounds_skip_contract() {
        let mut w = WaitRounds::new(10);
        assert_eq!(w.poll(&obs(1)), Poll::Yield(Action::Wait));
        assert_eq!(w.min_wait(), 9);
        w.note_skipped(9);
        assert_eq!(w.poll(&obs(1)), Poll::Complete(()));
    }

    #[test]
    fn run_for_truncates() {
        let mut r = RunFor::new(3, Mover { left: 100 });
        for _ in 0..3 {
            assert_eq!(r.poll(&obs(1)), Poll::Yield(Action::TakePort(Port::new(0))));
        }
        assert_eq!(r.poll(&obs(1)), Poll::Complete(None));
    }

    #[test]
    fn run_for_pads_and_reports_inner_output() {
        let mut r = RunFor::new(5, Mover { left: 2 });
        assert_eq!(r.poll(&obs(1)), Poll::Yield(Action::TakePort(Port::new(0))));
        assert_eq!(r.poll(&obs(1)), Poll::Yield(Action::TakePort(Port::new(0))));
        // Inner completes here; wrapper pads with Wait.
        assert_eq!(r.poll(&obs(1)), Poll::Yield(Action::Wait));
        assert_eq!(r.min_wait(), 2);
        r.note_skipped(2);
        assert_eq!(r.poll(&obs(1)), Poll::Complete(Some(7)));
    }

    #[test]
    fn run_for_exact_duration() {
        // Total consumed rounds must be exactly `rounds` in both cases.
        for inner_len in [0u32, 2, 10] {
            let mut r = RunFor::new(4, Mover { left: inner_len });
            let mut consumed = 0;
            while let Poll::Yield(_) = r.poll(&obs(1)) {
                consumed += 1;
            }
            assert_eq!(consumed, 4);
        }
    }

    /// Yields slow moves of `wait` rounds through port 0 forever.
    struct SlowMover {
        wait: u64,
    }

    impl Procedure for SlowMover {
        type Output = ();
        fn poll(&mut self, _obs: &Obs) -> Poll<()> {
            Poll::Yield(Action::SlowMove(Port::new(0)))
        }

        fn slow_wait(&self) -> u64 {
            self.wait
        }
    }

    #[test]
    fn run_for_counts_a_slow_move_as_its_rounds() {
        let slow = Poll::Yield(Action::SlowMove(Port::new(0)));
        let mut r = RunFor::new(6, SlowMover { wait: 2 });
        assert_eq!(r.poll(&obs(1)), slow);
        assert_eq!(r.slow_wait(), 2);
        assert_eq!(r.poll(&obs(1)), slow);
        assert_eq!(r.poll(&obs(1)), Poll::Complete(None));
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn run_for_rejects_a_slow_move_past_its_window() {
        let mut r = RunFor::new(2, SlowMover { wait: 2 });
        let _ = r.poll(&obs(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slow move")]
    fn until_card_exceeds_never_passes_a_slow_move() {
        let mut b = UntilCardExceeds::new(2, SlowMover { wait: 3 });
        let _ = b.poll(&obs(1));
    }

    #[test]
    fn until_card_exceeds_interrupts_without_consuming() {
        let mut b = UntilCardExceeds::new(2, WaitRounds::new(10));
        assert_eq!(b.poll(&obs(2)), Poll::Yield(Action::Wait));
        assert_eq!(b.poll(&obs(3)), Poll::Complete(Interrupted::Interrupted));
    }

    #[test]
    fn until_card_exceeds_finishes() {
        let mut b = UntilCardExceeds::new(5, Mover { left: 1 });
        assert_eq!(b.poll(&obs(1)), Poll::Yield(Action::TakePort(Port::new(0))));
        assert_eq!(b.poll(&obs(1)), Poll::Complete(Interrupted::Finished(7)));
    }

    #[test]
    fn wait_card_stable_counts_streaks() {
        let mut w = WaitCardStable::new(3, 0, None);
        assert_eq!(w.poll(&obs(2)), Poll::Yield(Action::Wait)); // streak 1
        assert_eq!(w.poll(&obs(2)), Poll::Yield(Action::Wait)); // streak 2
        assert_eq!(w.poll(&obs(3)), Poll::Yield(Action::Wait)); // reset to 1
        assert_eq!(w.poll(&obs(3)), Poll::Yield(Action::Wait)); // 2
        assert_eq!(w.poll(&obs(3)), Poll::Complete(())); // 3 -> done
    }

    #[test]
    fn wait_card_stable_seeded() {
        let mut w = WaitCardStable::new(3, 2, Some(4));
        // Seeded with streak 2 at card 4: one more unchanged round finishes.
        assert_eq!(w.poll(&obs(4)), Poll::Complete(()));
        let mut w = WaitCardStable::new(3, 2, Some(4));
        // A change resets.
        assert_eq!(w.poll(&obs(5)), Poll::Yield(Action::Wait));
    }

    #[test]
    fn wait_card_stable_skip_contract() {
        let mut w = WaitCardStable::new(10, 0, None);
        assert_eq!(w.poll(&obs(2)), Poll::Yield(Action::Wait));
        let mw = w.min_wait();
        assert_eq!(mw, 8); // 9 more unchanged rounds needed; last one completes
        w.note_skipped(mw);
        assert_eq!(w.poll(&obs(2)), Poll::Complete(()));
    }

    #[test]
    fn follow_path_emits_ports_in_order() {
        let mut f = FollowPath::new(vec![Port::new(2), Port::new(0)]);
        assert_eq!(f.poll(&obs(1)), Poll::Yield(Action::TakePort(Port::new(2))));
        assert_eq!(f.poll(&obs(1)), Poll::Yield(Action::TakePort(Port::new(0))));
        assert_eq!(f.poll(&obs(1)), Poll::Complete(()));
    }

    #[test]
    fn map_carries_the_output() {
        let mut m = RunFor::new(4, Mover { left: 1 }).map(|out| out.map(|n| n * 2));
        assert_eq!(m.poll(&obs(1)), Poll::Yield(Action::TakePort(Port::new(0))));
        // Mover completes; RunFor pads the last two rounds.
        assert_eq!(m.poll(&obs(1)), Poll::Yield(Action::Wait));
        assert_eq!(m.min_wait(), 2);
        assert!(!m.blind());
        m.note_skipped(2);
        assert_eq!(m.poll(&obs(1)), Poll::Complete(Some(14)));
    }

    #[test]
    fn map_forwards_every_promise() {
        let mut w = WaitRounds::new(3).map(|()| 9u8);
        assert_eq!(w.poll(&obs(1)), Poll::Yield(Action::Wait));
        assert_eq!((w.min_wait(), w.blind()), (2, true));
        w.note_skipped(2);
        assert_eq!(w.poll(&obs(1)), Poll::Complete(9));

        let mut s = SlowMover { wait: 5 }.map(|()| 0u8);
        assert_eq!(s.poll(&obs(1)), Poll::Yield(Action::SlowMove(Port::new(0))));
        assert_eq!(s.slow_wait(), 5);
    }

    #[test]
    fn boxed_procedure_delegates() {
        let mut b: Box<dyn Procedure<Output = ()>> = Box::new(WaitRounds::new(1));
        assert_eq!(b.poll(&obs(1)).action(), Some(Action::Wait));
        assert_eq!(b.min_wait(), 0);
    }
}
