//! Engine-facing agent behaviors and declarations.

use nochatter_graph::{Label, Port};

use crate::obs::{Action, Obs, Poll};
use crate::proc::Procedure;

/// What an agent announces when it terminates.
///
/// The gathering algorithms elect a leader as a by-product (Theorems 3.1 and
/// 4.1); the unknown-bound algorithm additionally learns the exact graph
/// size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Declaration {
    /// The elected leader's label, if the algorithm elects one.
    pub leader: Option<Label>,
    /// The learned graph size, if the algorithm learns it.
    pub size: Option<u32>,
}

impl Declaration {
    /// A bare "gathering achieved" declaration.
    pub fn bare() -> Self {
        Declaration {
            leader: None,
            size: None,
        }
    }

    /// A declaration electing `leader`.
    pub fn with_leader(leader: Label) -> Self {
        Declaration {
            leader: Some(leader),
            size: None,
        }
    }
}

/// An agent's choice for one round, as seen by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgentAct {
    /// Stay put.
    Wait,
    /// Traverse an edge.
    TakePort(Port),
    /// Declare that gathering is achieved and halt (the agent remains at its
    /// node and keeps counting toward `CurCard`).
    Declare(Declaration),
}

/// A deterministic agent program, driven by the engine once per round.
///
/// The engine stores every agent as a `Box<dyn AgentBehavior>`.
/// Implemented for you by [`ProcBehavior`], which adapts any
/// [`Procedure`] whose output is a [`Declaration`] (or `()`).
/// The `min_wait`/`note_skipped` pair follows the same contract as
/// [`Procedure`] and powers the engine's quiescence fast-forward: when
/// every executing agent waits, the engine skips ahead by the smallest
/// horizon (capped by pending adversary events) and catches each behavior
/// up with one `note_skipped` call instead of polling it round by round.
/// The contract is what makes that sound — `min_wait` must hold under
/// identical observations, and a violation acts *later* than promised,
/// not just slower (`crates/sim/tests/promises.rs` property-tests every
/// built-in combinator against it, and debug builds assert it live). The
/// engine's lone-agent path, which polls only the one agent that is due,
/// also relies on skips adding up and on `min_wait` falling by exactly
/// the rounds noted. A [`AgentBehavior::blind`] promise also holds under
/// changed observations, so that path keeps running while another agent
/// walks onto or off a blind waiter's node.
pub trait AgentBehavior {
    /// Decides this round's action from the observation.
    fn on_round(&mut self, obs: &Obs) -> AgentAct;

    /// See [`Procedure::min_wait`].
    fn min_wait(&self) -> u64 {
        0
    }

    /// See [`Procedure::blind`].
    fn blind(&self) -> bool {
        false
    }

    /// See [`Procedure::note_skipped`].
    fn note_skipped(&mut self, rounds: u64) {
        let _ = rounds;
    }
}

/// Adapts a [`Procedure`] into an [`AgentBehavior`]: when the procedure
/// completes, the agent declares.
///
/// A yielded [`Action::SlowMove`] becomes a countdown held here: until the
/// move is made, every call answers without descending into the procedure.
///
/// # Example
///
/// ```
/// use nochatter_sim::proc::{ProcBehavior, WaitRounds};
/// use nochatter_sim::{AgentAct, AgentBehavior, Obs};
///
/// let mut b = ProcBehavior::declaring(WaitRounds::new(1));
/// let obs = Obs::synthetic(0, 2, 1, None);
/// assert_eq!(b.on_round(&obs), AgentAct::Wait);
/// assert!(matches!(b.on_round(&obs), AgentAct::Declare(_)));
/// ```
#[derive(Clone)]
pub struct ProcBehavior<P, F> {
    inner: P,
    into_declaration: F,
    phase: Phase,
}

/// Where a [`ProcBehavior`] stands.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// Polling the procedure.
    Running,
    /// Counting down a slow move: waits still to make, then the port.
    Slow(u64, Port),
    /// The procedure completed and the agent declared.
    Declared,
}

impl<P> ProcBehavior<P, fn(P::Output) -> Declaration>
where
    P: Procedure,
{
    /// The completed procedure's output is discarded and a bare declaration
    /// is made. Useful for substrate tests and examples.
    pub fn declaring(inner: P) -> Self {
        ProcBehavior {
            inner,
            into_declaration: |_| Declaration::bare(),
            phase: Phase::Running,
        }
    }
}

impl<P, F> ProcBehavior<P, F>
where
    P: Procedure,
    F: FnMut(P::Output) -> Declaration,
{
    /// Declares with a value derived from the procedure's output.
    pub fn mapping(inner: P, into_declaration: F) -> Self {
        ProcBehavior {
            inner,
            into_declaration,
            phase: Phase::Running,
        }
    }
}

impl<P, F> AgentBehavior for ProcBehavior<P, F>
where
    P: Procedure,
    F: FnMut(P::Output) -> Declaration,
{
    fn on_round(&mut self, obs: &Obs) -> AgentAct {
        match &mut self.phase {
            Phase::Running => {}
            Phase::Slow(0, port) => {
                let port = *port;
                self.phase = Phase::Running;
                return AgentAct::TakePort(port);
            }
            Phase::Slow(wait, _) => {
                *wait -= 1;
                return AgentAct::Wait;
            }
            // The engine stops polling declared agents; be safe anyway.
            Phase::Declared => return AgentAct::Wait,
        }
        match self.inner.poll(obs) {
            Poll::Yield(Action::Wait) => AgentAct::Wait,
            Poll::Yield(Action::TakePort(port)) => AgentAct::TakePort(port),
            Poll::Yield(Action::SlowMove(port)) => match self.inner.slow_wait() {
                0 => AgentAct::TakePort(port),
                wait => {
                    self.phase = Phase::Slow(wait - 1, port);
                    AgentAct::Wait
                }
            },
            Poll::Complete(out) => {
                self.phase = Phase::Declared;
                AgentAct::Declare((self.into_declaration)(out))
            }
        }
    }

    fn min_wait(&self) -> u64 {
        match self.phase {
            Phase::Running => self.inner.min_wait(),
            Phase::Slow(wait, _) => wait,
            Phase::Declared => u64::MAX,
        }
    }

    // A slow move's countdown never looks at the observation.
    fn blind(&self) -> bool {
        match self.phase {
            Phase::Running => self.inner.blind(),
            Phase::Slow(..) | Phase::Declared => true,
        }
    }

    fn note_skipped(&mut self, rounds: u64) {
        match &mut self.phase {
            Phase::Running => self.inner.note_skipped(rounds),
            Phase::Slow(wait, _) => {
                debug_assert!(rounds <= *wait);
                *wait -= rounds.min(*wait);
            }
            Phase::Declared => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::WaitRounds;

    #[test]
    fn declares_once_then_waits() {
        let mut b = ProcBehavior::declaring(WaitRounds::new(0));
        let obs = Obs::synthetic(0, 1, 1, None);
        assert!(matches!(b.on_round(&obs), AgentAct::Declare(_)));
        assert_eq!(b.on_round(&obs), AgentAct::Wait);
    }

    #[test]
    fn mapping_carries_output() {
        struct Now;
        impl Procedure for Now {
            type Output = u32;
            fn poll(&mut self, _: &Obs) -> Poll<u32> {
                Poll::Complete(9)
            }
        }
        let mut b = ProcBehavior::mapping(Now, |n| Declaration {
            leader: Label::new(n as u64),
            size: Some(n),
        });
        let obs = Obs::synthetic(0, 1, 1, None);
        match b.on_round(&obs) {
            AgentAct::Declare(d) => {
                assert_eq!(d.leader, Label::new(9));
                assert_eq!(d.size, Some(9));
            }
            other => panic!("expected declaration, got {other:?}"),
        }
    }

    #[test]
    fn min_wait_forwards() {
        let b = ProcBehavior::declaring(WaitRounds::new(5));
        assert_eq!(b.min_wait(), 5);
    }

    /// Yields one slow move of `wait` rounds through port 1, then
    /// completes.
    struct OneSlowMove {
        wait: u64,
        moved: bool,
    }

    impl Procedure for OneSlowMove {
        type Output = ();
        fn poll(&mut self, _: &Obs) -> Poll<()> {
            if std::mem::replace(&mut self.moved, true) {
                Poll::Complete(())
            } else {
                Poll::Yield(Action::SlowMove(Port::new(1)))
            }
        }

        fn slow_wait(&self) -> u64 {
            self.wait
        }
    }

    fn slow_move(wait: u64) -> ProcBehavior<OneSlowMove, fn(()) -> Declaration> {
        ProcBehavior::declaring(OneSlowMove { wait, moved: false })
    }

    #[test]
    fn a_slow_move_waits_blind_then_moves_in_round_r_plus_wait() {
        let mut b = slow_move(4);
        // Yielded in round 0: rounds 0..4 wait, round 4 moves.
        assert_eq!(b.on_round(&Obs::synthetic(0, 2, 1, None)), AgentAct::Wait);
        assert_eq!((b.min_wait(), b.blind()), (3, true));
        // Whatever is observed inside the wait, the answer is `Wait`.
        for round in 1..4 {
            let noisy = Obs::synthetic(round, 5, 1 + round as u32, Some(Port::new(2)));
            assert_eq!(b.on_round(&noisy), AgentAct::Wait, "round {round}");
            assert_eq!((b.min_wait(), b.blind()), (3 - round, true));
        }
        let obs = Obs::synthetic(4, 2, 1, None);
        assert_eq!(b.on_round(&obs), AgentAct::TakePort(Port::new(1)));
        // The procedure is polled again in the round after the move.
        assert_eq!((b.min_wait(), b.blind()), (0, false));
        assert!(matches!(b.on_round(&obs), AgentAct::Declare(_)));
    }

    #[test]
    fn note_skipped_consumes_the_wait() {
        let mut b = slow_move(10);
        assert_eq!(b.on_round(&Obs::synthetic(0, 2, 1, None)), AgentAct::Wait);
        b.note_skipped(4);
        assert_eq!(b.min_wait(), 5);
        assert!(b.blind());
        b.note_skipped(5);
        assert_eq!(b.min_wait(), 0);
        assert!(b.blind(), "the move round is still the countdown's");
        let obs = Obs::synthetic(10, 2, 3, None);
        assert_eq!(b.on_round(&obs), AgentAct::TakePort(Port::new(1)));
    }

    #[test]
    fn a_slow_move_without_wait_is_take_port() {
        let mut b = slow_move(0);
        let obs = Obs::synthetic(0, 2, 1, None);
        assert_eq!(b.on_round(&obs), AgentAct::TakePort(Port::new(1)));
        assert_eq!((b.min_wait(), b.blind()), (0, false));
        assert!(matches!(b.on_round(&obs), AgentAct::Declare(_)));
    }
}
