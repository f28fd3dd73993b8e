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
    /// The paper's slow move: wait `w` rounds whatever is observed, then
    /// take this port. `w` is the yielding procedure's
    /// [`crate::Procedure::slow_wait`]: yielded in round `r`, the move
    /// waits through rounds `r..r + w` and is made in round `r + w`
    /// (`w == 0` is [`Action::TakePort`]).
    ///
    /// One instruction stands for `w + 1` rounds. The
    /// [`Engine`](crate::Engine) holds the move: it answers the wait
    /// itself, makes the move in round `r + w` without a poll, and polls
    /// the procedure next in the round after, so the procedure never sees
    /// the wait's observations. Every procedure that passes a slow move up
    /// must therefore ignore those observations, count the instruction as
    /// `w + 1` rounds and report `w` from its own `slow_wait`; see the
    /// [`crate::proc`] module docs. The wait is not a field so that an
    /// `Action`, which every poll of every procedure returns, stays 8
    /// bytes.
    SlowMove(Port),
    /// The paper's `EXPLO` walk (§2), effective part and backtrack, as one
    /// instruction for all its rounds. The yielding procedure describes it
    /// through [`crate::Procedure::walk`]: the exploration sequence and an
    /// optional `CurCard` stop ([`crate::walk::Walk`]).
    ///
    /// The [`Engine`](crate::Engine) holds the walk: it makes the first
    /// move in the round the walk is yielded in, plays every later round
    /// by the walk rule without a poll, and once the walk has ended (its
    /// backtrack done, or its stop fired) hands back what it observed
    /// through [`crate::Procedure::walk_done`] and polls the procedure in
    /// that same round, with that round's ordinary observation. Every
    /// procedure that passes a walk up must forward both calls; see the
    /// [`crate::proc`] module docs. Like a slow move's wait, the walk is
    /// not a field, so that an `Action` stays 8 bytes.
    Walk,
    /// A ball traversal (Algorithm 7) or its retrace, as one instruction
    /// for all its slow moves. The yielding procedure describes it through
    /// [`crate::Procedure::traversal`]: the alphabet, the radius, the
    /// degree abort, the slow wait and whether it retraces the traversal
    /// before it ([`crate::walk::Traversal`]).
    ///
    /// The [`Engine`](crate::Engine) holds the traversal: it makes every
    /// move as a held slow move, reads the arrival node's degree and entry
    /// port right after the move to set the next one, and once the
    /// traversal has ended hands back whether it completed through
    /// [`crate::Procedure::traversal_done`]. The procedure is polled next
    /// in the round after the last move, or, if the traversal ended
    /// without a move, again in the round it was yielded in. Every
    /// procedure that passes a traversal up must forward both calls; see
    /// the [`crate::proc`] module docs. Like a walk, the traversal is not a
    /// field, so that an `Action` stays 8 bytes.
    Traverse,
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
