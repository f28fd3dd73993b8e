//! Observations and actions: everything an agent can see and do in a round.

use nochatter_graph::{Label, Port};

/// What an agent observes at the start of a round, before choosing its move
/// instruction.
///
/// This is exactly the information the paper's weak model grants (§1.2):
/// the degree of the current node, the port of the most recent entry, and
/// the current number of co-located agents. `peer_labels` is populated only
/// under [`crate::Sensing::Traditional`] and exists for the talking-model
/// baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obs {
    /// The agent's own clock: the rounds since it woke, 0 on its first
    /// observation. Agents wake at different times and share no clock
    /// (§1.2), so this is the only time an agent can read.
    pub round: u64,
    /// Degree of the node the agent occupies.
    pub degree: u32,
    /// `CurCard`: the number of agents (including this one) at the node.
    pub cur_card: u32,
    /// The port by which the agent most recently entered the current node;
    /// `None` if it has not moved since waking. Persists across waits.
    pub entry_port: Option<Port>,
    /// True exactly on the first observation after the agent wakes.
    pub just_woken: bool,
    /// True exactly on the first observation after a move attempt hit an
    /// edge absent in that round (round-varying topologies only — see
    /// [`nochatter_graph::dynamic`]). The agent stayed put and its entry
    /// port is unchanged. Always false on a static topology.
    pub blocked: bool,
    /// Labels of all co-located agents (including self), sorted; only under
    /// traditional sensing. Always `None` in the paper's weak model.
    pub peer_labels: Option<Vec<Label>>,
}

impl Obs {
    /// A synthetic observation on the agent's clock `round`, for driving
    /// procedures in unit tests. Round 0 is the one just after waking.
    pub fn synthetic(round: u64, degree: u32, cur_card: u32, entry_port: Option<Port>) -> Self {
        Obs {
            round,
            degree,
            cur_card,
            entry_port,
            just_woken: round == 0,
            blocked: false,
            peer_labels: None,
        }
    }
}

/// A move instruction: the one thing an agent does each round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Stay at the current node this round.
    Wait,
    /// Traverse the edge with this local port number.
    TakePort(Port),
    /// A held instruction: the paper's slow move (§4.1), `EXPLO` walk (§2)
    /// or ball traversal (Algorithm 7), one instruction for all its
    /// rounds. The yielding procedure describes it through
    /// [`crate::Procedure::held`] ([`crate::walk::Instruction`]) and gets
    /// what it observed back through [`crate::Procedure::held_done`].
    ///
    /// The [`Engine`](crate::Engine) plays it by one rule without a poll:
    /// it starts the instruction on the observation of the round it was
    /// yielded in, makes each move itself, and steps the instruction after
    /// each move: a slow move or a traversal, which reads no `CurCard`, at
    /// the end of the move round, a walk on the observation of the round
    /// after it. Once the instruction has ended it hands back what it
    /// observed and polls the procedure in the next round it is due in:
    /// the round a walk ends in, the round after a slow move's or
    /// traversal's last move. Every procedure that passes a held instruction
    /// up must forward both calls; see the [`crate::proc`] module docs.
    /// The description is not a field, so that an `Action`, which every
    /// poll of every procedure returns, stays 8 bytes.
    Hold,
}

/// The result of polling a [`crate::Procedure`] for one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Poll<T> {
    /// The procedure's move instruction for this round.
    Yield(Action),
    /// The procedure finished *without consuming the round*; the caller must
    /// obtain this round's action from whatever runs next.
    Complete(T),
}

impl<T> Poll<T> {
    /// Maps the completion value.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Poll<U> {
        match self {
            Poll::Yield(a) => Poll::Yield(a),
            Poll::Complete(t) => Poll::Complete(f(t)),
        }
    }

    /// Returns the action if yielded.
    pub fn action(&self) -> Option<Action> {
        match self {
            Poll::Yield(a) => Some(*a),
            Poll::Complete(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_obs_round_zero_is_just_woken() {
        let o = Obs::synthetic(0, 2, 1, None);
        assert!(o.just_woken);
        let o = Obs::synthetic(5, 2, 1, Some(Port::new(1)));
        assert!(!o.just_woken);
        assert_eq!(o.entry_port, Some(Port::new(1)));
    }

    #[test]
    fn poll_map_preserves_yield() {
        let p: Poll<u32> = Poll::Yield(Action::Wait);
        assert_eq!(p.map(|x| x + 1), Poll::Yield(Action::Wait));
        let p: Poll<u32> = Poll::Complete(4);
        assert_eq!(p.map(|x| x + 1), Poll::Complete(5));
    }

    #[test]
    fn actions_stay_small() {
        // Every poll returns one; a wider `Action` measurably slows the
        // known-bound workloads, which never make a slow move.
        assert_eq!(std::mem::size_of::<Action>(), 8);
        assert_eq!(std::mem::size_of::<Poll<()>>(), 8);
    }

    #[test]
    fn poll_action_accessor() {
        let p: Poll<()> = Poll::Yield(Action::TakePort(Port::new(3)));
        assert_eq!(p.action(), Some(Action::TakePort(Port::new(3))));
        let p: Poll<u8> = Poll::Complete(1);
        assert_eq!(p.action(), None);
    }
}
