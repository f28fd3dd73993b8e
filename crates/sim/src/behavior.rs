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
    done: bool,
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
            done: false,
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
            done: false,
        }
    }
}

impl<P, F> AgentBehavior for ProcBehavior<P, F>
where
    P: Procedure,
    F: FnMut(P::Output) -> Declaration,
{
    fn on_round(&mut self, obs: &Obs) -> AgentAct {
        if self.done {
            // The engine stops polling declared agents; be safe anyway.
            return AgentAct::Wait;
        }
        match self.inner.poll(obs) {
            Poll::Yield(Action::Wait) => AgentAct::Wait,
            Poll::Yield(Action::TakePort(p)) => AgentAct::TakePort(p),
            Poll::Complete(out) => {
                self.done = true;
                AgentAct::Declare((self.into_declaration)(out))
            }
        }
    }

    fn min_wait(&self) -> u64 {
        if self.done {
            u64::MAX
        } else {
            self.inner.min_wait()
        }
    }

    fn blind(&self) -> bool {
        self.done || self.inner.blind()
    }

    fn note_skipped(&mut self, rounds: u64) {
        if !self.done {
            self.inner.note_skipped(rounds);
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
}
