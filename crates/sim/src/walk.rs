//! The paper's `EXPLO` walk (§2) as one instruction: its description, the
//! one implementation of its rule, and what it hands back.
//!
//! A procedure yields [`Action::Walk`](crate::Action::Walk) and describes
//! the walk through [`Procedure::walk`](crate::Procedure::walk): the
//! exploration sequence and an optional `CurCard` stop. The
//! [`Engine`](crate::Engine) then plays every round of the walk from a
//! [`WalkState`] without a poll, and hands the walk's observations back
//! through [`Procedure::walk_done`](crate::Procedure::walk_done) right
//! before the procedure's next poll. A procedure that is polled inside its
//! walk steps the same [`WalkState`] itself (`TZ`, whose window can cut a
//! walk off).

use std::sync::Arc;

use nochatter_graph::Port;

/// A walk to play: the effective part over `steps`, then the backtrack.
///
/// The walk rule: after entering a node of degree `d` by port `p` (the
/// start node counts as entered by port 0), exit by port
/// `(p + x_i) mod d`. After `steps.len()` such moves the walk retraces
/// them in reverse order, ending at its start: `2 * steps.len()` moves in
/// all. A traversal blocked by an absent edge (round-varying topologies
/// only) rewinds one tick and is attempted again in the next round, so the
/// walk is always a genuine walk of the base graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Walk {
    /// The exploration sequence `x_1, x_2, …`; never empty.
    pub steps: Arc<[u32]>,
    /// Ends the walk in the first round after its start in which `CurCard`
    /// exceeds this threshold (Algorithm 3's "interrupt as soon as
    /// `CurCard > c`"); `None` never stops it early.
    pub stop_above: Option<u32>,
}

/// What a walk observed, handed back through
/// [`Procedure::walk_done`](crate::Procedure::walk_done).
///
/// The walk's observations are those of its move rounds: the round it was
/// yielded in and every round it moved or re-attempted a blocked move in.
/// The round it ended in is not one of them: the procedure is polled in
/// that round with its observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkDone {
    /// The smallest `CurCard` observed (`EXPLO`'s `min_card`).
    pub min_card: u32,
    /// The `CurCard` of the last observation.
    pub last_card: u32,
    /// The clock of the last observation whose `CurCard` differs from the
    /// one before it, or `None` if `CurCard` never changed during the
    /// walk.
    pub changed: Option<u64>,
}

/// A walk under way: the one implementation of the walk rule.
#[derive(Clone, Debug, Default)]
pub struct WalkState {
    steps: Arc<[u32]>,
    stop_above: u32,
    /// The index of the next move: `0..2L`.
    tick: usize,
    /// Entry ports of the forward moves, recorded as they are observed;
    /// the buffer is kept from one walk to the next.
    entries: Vec<Port>,
    min_card: u32,
    last_card: u32,
    changed: Option<u64>,
}

impl WalkState {
    /// Starts `walk` on the observation of the round it is yielded in and
    /// returns that round's port. The stop does not apply to this round:
    /// the procedure that yields the walk has seen its `CurCard`.
    ///
    /// # Panics
    ///
    /// Panics if the walk has no steps.
    pub fn start(&mut self, walk: Walk, degree: u32, cur_card: u32) -> Port {
        assert!(!walk.steps.is_empty(), "a walk needs at least one step");
        self.steps = walk.steps;
        self.stop_above = walk.stop_above.unwrap_or(u32::MAX);
        self.tick = 0;
        self.entries.clear();
        self.min_card = cur_card;
        self.last_card = cur_card;
        self.changed = None;
        self.advance(degree, None, 0)
    }

    /// One round of the walk, on that round's observation: the port to
    /// take, or `None` once the walk has ended — its backtrack is done, or
    /// its stop fired. `clock` is the agent's clock of the observation.
    #[inline]
    pub fn step(
        &mut self,
        degree: u32,
        cur_card: u32,
        entry_port: Option<Port>,
        blocked: bool,
        clock: u64,
    ) -> Option<Port> {
        if cur_card > self.stop_above {
            return None;
        }
        // The previous move was blocked: it neither moved nor recorded an
        // entry, so rewind one tick and attempt the same traversal again.
        if blocked {
            self.tick -= 1;
        }
        if self.tick == 2 * self.steps.len() {
            return None;
        }
        self.min_card = self.min_card.min(cur_card);
        if cur_card != self.last_card {
            self.last_card = cur_card;
            self.changed = Some(clock);
        }
        Some(self.advance(degree, entry_port, self.tick))
    }

    /// What the walk has observed so far.
    pub fn done(&self) -> WalkDone {
        WalkDone {
            min_card: self.min_card,
            last_card: self.last_card,
            changed: self.changed,
        }
    }

    /// The port of move `tick`, recording the entry of the previous
    /// forward move first (observations arrive one round after the move
    /// that caused them).
    #[inline]
    fn advance(&mut self, degree: u32, entry: Option<Port>, tick: usize) -> Port {
        let len = self.steps.len();
        if tick >= 1 && tick <= len && self.entries.len() < tick {
            self.entries
                .push(entry.expect("the walk moved last round, so it has an entry port"));
        }
        self.tick = tick + 1;
        if tick < len {
            let p = if tick == 0 {
                0
            } else {
                self.entries[tick - 1].number()
            };
            Port::new((p + self.steps[tick]) % degree.max(1))
        } else {
            self.entries[2 * len - 1 - tick]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(steps: &[u32], stop_above: Option<u32>) -> Walk {
        Walk {
            steps: steps.into(),
            stop_above,
        }
    }

    #[test]
    fn walks_out_and_back_on_recorded_entries() {
        let mut w = WalkState::default();
        // Degree 3 everywhere: out by 1, then (entry + 2) mod 3.
        assert_eq!(w.start(walk(&[1, 2], None), 3, 1), Port::new(1));
        let e = |p| Some(Port::new(p));
        assert_eq!(w.step(3, 1, e(0), false, 1), Some(Port::new(2)));
        assert_eq!(w.step(3, 1, e(1), false, 2), Some(Port::new(1)));
        assert_eq!(w.step(3, 1, e(2), false, 3), Some(Port::new(0)));
        assert_eq!(w.step(3, 1, e(0), false, 4), None);
        let done = w.done();
        assert_eq!((done.min_card, done.changed), (1, None));
    }

    #[test]
    fn a_blocked_move_is_attempted_again() {
        let mut w = WalkState::default();
        assert_eq!(w.start(walk(&[1], None), 2, 2), Port::new(1));
        // Blocked: no entry yet, the same traversal again.
        assert_eq!(w.step(2, 2, None, true, 1), Some(Port::new(1)));
        assert_eq!(
            w.step(2, 3, Some(Port::new(0)), false, 2),
            Some(Port::new(0))
        );
        // The backtrack is blocked too, and retried.
        assert_eq!(
            w.step(2, 1, Some(Port::new(0)), true, 3),
            Some(Port::new(0))
        );
        assert_eq!(w.step(2, 2, Some(Port::new(1)), false, 4), None);
        assert_eq!(
            w.done(),
            WalkDone {
                min_card: 1,
                last_card: 1,
                changed: Some(3),
            }
        );
    }

    #[test]
    fn the_stop_ends_the_walk_after_its_first_round() {
        let mut w = WalkState::default();
        // The first round is not checked: its poll has seen CurCard.
        assert_eq!(w.start(walk(&[0, 0], Some(1)), 2, 5), Port::new(0));
        let mut w = WalkState::default();
        w.start(walk(&[0, 0], Some(2)), 2, 2);
        assert_eq!(
            w.step(2, 2, Some(Port::new(1)), false, 1),
            Some(Port::new(1))
        );
        assert_eq!(w.step(2, 3, Some(Port::new(0)), false, 2), None);
        // The stopping observation is the poll's, not the walk's.
        assert_eq!(w.done().last_card, 2);
    }
}
