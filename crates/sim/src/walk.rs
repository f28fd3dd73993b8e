//! The paper's held instructions as data: the slow move (§4.1), the
//! `EXPLO` walk (§2) and the ball traversal (Algorithm 7), the one
//! implementation of the walk and traversal rules, and what they hand
//! back.
//!
//! A procedure yields [`Action::Hold`](crate::Action::Hold) and describes
//! the instruction through [`Procedure::held`](crate::Procedure::held)
//! ([`Instruction`]). The [`Engine`](crate::Engine) plays every round of
//! it without a poll — a walk from a [`WalkState`], a traversal from a
//! [`TraversalState`] — and hands what it observed back through
//! [`Procedure::held_done`](crate::Procedure::held_done) ([`HeldDone`])
//! right before the procedure's next poll. A procedure that must be polled
//! inside its walk or traversal steps the same state itself: `TZ`, whose
//! window can cut a walk off, and the unknown-bound sweeps that watch
//! `CurCard` after each move (`EnsureCleanExploration`, `EST+`).

use std::sync::Arc;

use nochatter_graph::Port;

use crate::paths::Paths;

/// A held instruction, as a procedure describes it through
/// [`Procedure::held`](crate::Procedure::held).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Instruction {
    /// The paper's slow move: wait `wait` rounds whatever is observed, then
    /// take `port`. Yielded in round `r`, the move is made in round
    /// `r + wait`, so the instruction stands for `wait + 1` rounds. It
    /// hands nothing back.
    Slow {
        /// The port to take.
        port: Port,
        /// The rounds to wait before the move.
        wait: u64,
    },
    /// An `EXPLO` walk; hands back a [`HeldDone::Walk`].
    Walk(Walk),
    /// A ball traversal or its retrace; hands back a
    /// [`HeldDone::Traverse`].
    Traverse(Traversal),
}

/// What a held walk or traversal observed, handed back through
/// [`Procedure::held_done`](crate::Procedure::held_done) once it has
/// ended.
#[derive(Debug, PartialEq, Eq)]
pub enum HeldDone {
    /// What the walk observed.
    Walk(WalkDone),
    /// How the traversal ended.
    Traverse {
        /// `true` if it walked every path (a retrace always does), `false`
        /// if it stood on a node of its abort degree.
        completed: bool,
        /// The state it ended in, which its retrace walks back
        /// ([`Traversal::retrace`]).
        state: Box<TraversalState>,
    },
}

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

/// What a walk observed, handed back as [`HeldDone::Walk`].
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

/// A traversal to play: every path of `radius` ports over `0..alpha`, from
/// the start node, in lexicographic order.
///
/// The traversal rule: follow the path's ports while the next one exists
/// at the current node, then backtrack over the recorded entry ports to
/// the start, and go on with the next path. Before each forward decision
/// (on the start node before each path, and after each forward move) a
/// node of degree `abort_degree` or more ends the traversal on the spot
/// (Algorithm 7 line 7). A move blocked by an absent edge (round-varying
/// topologies only) is attempted again, so the traversal is always a
/// genuine walk of the base graph.
///
/// With `retrace` set, the traversal walks the moves of the one before it
/// back, in reverse order: it first backtracks the path that traversal
/// aborted on, if it aborted, then walks every earlier path, last first,
/// forward and back. It stands only on nodes that traversal stood on, so
/// it has no degree abort, and it ends on the start node after as many
/// moves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Traversal {
    /// The alphabet: paths use the ports `0..alpha`.
    pub alpha: u32,
    /// The length of every path.
    pub radius: u32,
    /// The degree that ends the traversal; `u32::MAX` never does.
    pub abort_degree: u32,
    /// The slow wait before each move, in rounds, when the engine plays the
    /// traversal: every move is a slow move (§4.1). A procedure stepping
    /// a [`TraversalState`] itself moves when it likes.
    pub wait: u64,
    /// The state the traversal before this one ended in, handed back in
    /// its [`HeldDone::Traverse`]: walk that traversal back instead of
    /// starting afresh.
    pub retrace: Option<Box<TraversalState>>,
}

/// One step of a traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraversalStep {
    /// Take `port`: forward along the current path, or a backtrack.
    Move {
        /// The port to take.
        port: Port,
        /// Whether the move extends the current path.
        forward: bool,
    },
    /// The traversal has ended: `true` if it walked every path (a retrace
    /// always does), `false` if it stood on a node of its abort degree.
    Done(bool),
}

/// A traversal under way: the one implementation of the traversal rule.
///
/// It holds the path enumeration and the entry ports of the current path
/// only: O(`radius`) words however many moves the traversal makes. After
/// a traversal has ended, the state is what its retrace starts from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraversalState {
    alpha: u32,
    radius: u32,
    /// The degree that ends the traversal; `u32::MAX` on a retrace.
    abort_degree: u32,
    wait: u64,
    retrace: bool,
    paths: Paths,
    /// The index of the next forward move within the current path.
    i: usize,
    /// Entry ports of the forward moves made along the current path.
    entries: Vec<Port>,
    forward: bool,
    /// The move of the latest step, until the step after it.
    pending: Option<TraversalStep>,
}

impl TraversalState {
    /// Starts `traversal`; its first [`TraversalStep`] comes from the next
    /// [`TraversalState::step`], on the observation of the start node. A
    /// retrace starts from the state it carries.
    ///
    /// # Panics
    ///
    /// Panics if `traversal` is a retrace of anything but a traversal of
    /// the same paths, or if it has an empty alphabet and a positive radius.
    pub fn new(traversal: Traversal) -> Self {
        let Traversal {
            alpha,
            radius,
            abort_degree,
            wait,
            retrace,
        } = traversal;
        let Some(before) = retrace else {
            let mut paths = Paths::new(alpha, radius);
            paths.next_path();
            return TraversalState {
                alpha,
                radius,
                abort_degree,
                wait,
                paths,
                forward: true,
                ..TraversalState::default()
            };
        };
        assert!(
            !before.retrace && (before.alpha, before.radius) == (alpha, radius),
            "a retrace walks back the traversal of the same paths before it"
        );
        TraversalState {
            abort_degree: u32::MAX,
            wait,
            retrace: true,
            forward: false,
            pending: None,
            ..*before
        }
    }

    /// The slow wait of the traversal under way.
    pub(crate) fn wait(&self) -> u64 {
        self.wait
    }

    /// The next step, on the observation of the node the agent stands on:
    /// its degree, its entry port and whether the latest move was blocked.
    /// A blocked move is returned again; the entry port of a forward move
    /// that went through is recorded.
    pub fn step(&mut self, degree: u32, entry: Option<Port>, blocked: bool) -> TraversalStep {
        if let Some(pending) = self.pending.take() {
            if blocked {
                self.pending = Some(pending);
                return pending;
            }
            if let TraversalStep::Move { forward: true, .. } = pending {
                self.entries
                    .push(entry.expect("a forward move enters by a port"));
            }
        }
        let step = self.next(degree);
        if let TraversalStep::Move { .. } = step {
            self.pending = Some(step);
        }
        step
    }

    fn next(&mut self, degree: u32) -> TraversalStep {
        loop {
            if self.forward {
                if degree >= self.abort_degree {
                    return TraversalStep::Done(false);
                }
                match self.paths.current().get(self.i) {
                    Some(&p) if p < degree => {
                        self.i += 1;
                        return TraversalStep::Move {
                            port: Port::new(p),
                            forward: true,
                        };
                    }
                    // The path is walked, or its next port is missing:
                    // backtrack what was walked.
                    _ => self.forward = false,
                }
            } else if let Some(back) = self.entries.pop() {
                return TraversalStep::Move {
                    port: back,
                    forward: false,
                };
            } else {
                // Back on the start node: the next path.
                let next = if self.retrace {
                    self.paths.prev_path()
                } else {
                    self.paths.next_path()
                };
                if next.is_none() {
                    return TraversalStep::Done(true);
                }
                self.i = 0;
                self.forward = true;
            }
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

    fn traversal(radius: u32, abort_degree: u32) -> Traversal {
        Traversal {
            alpha: 2,
            radius,
            abort_degree,
            wait: 0,
            retrace: None,
        }
    }

    fn retrace(before: TraversalState) -> Traversal {
        Traversal {
            retrace: Some(Box::new(before)),
            ..traversal(2, 3)
        }
    }

    fn mv(port: u32, forward: bool) -> TraversalStep {
        TraversalStep::Move {
            port: Port::new(port),
            forward,
        }
    }

    #[test]
    fn a_traversal_walks_every_path_out_and_back() {
        // Degree 3 everywhere; each move enters by port 2.
        let mut t = TraversalState::new(traversal(1, u32::MAX));
        let e = Some(Port::new(2));
        assert_eq!(t.step(3, None, false), mv(0, true));
        assert_eq!(t.step(3, e, false), mv(2, false));
        assert_eq!(t.step(3, e, false), mv(1, true));
        assert_eq!(t.step(3, e, false), mv(2, false));
        assert_eq!(t.step(3, e, false), TraversalStep::Done(true));
    }

    #[test]
    fn a_missing_port_ends_the_path_and_a_blocked_move_is_returned_again() {
        // Degree 1 everywhere: path [1] has no port to take.
        let mut t = TraversalState::new(traversal(1, u32::MAX));
        let e = Some(Port::new(0));
        assert_eq!(t.step(1, None, false), mv(0, true));
        // Blocked: nothing recorded, the same move again.
        assert_eq!(t.step(1, None, true), mv(0, true));
        assert_eq!(t.step(1, e, false), mv(0, false));
        assert_eq!(t.step(1, e, true), mv(0, false));
        assert_eq!(t.step(1, e, false), TraversalStep::Done(true));
    }

    #[test]
    fn an_abort_is_retraced_from_its_half_walked_path() {
        // Degree 2 at the start, then 3: path [0, 0] is walked out and
        // back, path [0, 1] aborts after its first move (3 >= 3).
        let mut t = TraversalState::new(traversal(2, 3));
        let (p, q) = (Some(Port::new(0)), Some(Port::new(1)));
        assert_eq!(t.step(2, None, false), mv(0, true));
        assert_eq!(t.step(2, p, false), mv(0, true));
        assert_eq!(t.step(2, q, false), mv(1, false));
        assert_eq!(t.step(2, p, false), mv(0, false));
        assert_eq!(t.step(2, None, false), mv(0, true));
        assert_eq!(t.step(3, p, false), TraversalStep::Done(false));
        // The retrace backtracks the aborted path, then walks [0, 0] out
        // and back, with no abort.
        let mut t = TraversalState::new(retrace(t));
        assert_eq!(t.step(3, p, false), mv(0, false));
        assert_eq!(t.step(2, None, false), mv(0, true));
        assert_eq!(t.step(3, p, false), mv(0, true));
        assert_eq!(t.step(3, q, false), mv(1, false));
        assert_eq!(t.step(3, p, false), mv(0, false));
        assert_eq!(t.step(2, None, false), TraversalStep::Done(true));
    }

    #[test]
    #[should_panic(expected = "a retrace walks back")]
    fn a_retrace_needs_the_traversal_before_it() {
        TraversalState::new(retrace(TraversalState::default()));
    }
}
