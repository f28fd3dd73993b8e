//! The position-tracking oracle behind the `EST+` decision.
//!
//! The paper's `EST` (exploration with a stationary token, after
//! Chalopin–Das–Kosowski) constructs a map of the anonymous graph; the
//! unknown-bound algorithm only consumes its *boolean contract* — "did a
//! clean, complete exploration learn size exactly `n_h`?". We keep the
//! walk (movement, timing, observability) fully faithful and compute the
//! decision with a dead-reckoning oracle: the tracker holds the real graph
//! and the agent's true start node, and replays every move the agent makes,
//! so `EST+` can check coverage and cleanliness exactly. This preserves
//! the paper's behaviour wherever `EST` is clean and complete, the only
//! case the algorithm's correctness uses: there the map the paper's agent
//! would build is the real graph, so its size is the true size the oracle
//! reads (Lemma 4.10 makes every `EST+` reached through the algorithm
//! clean, which `tests/unknown_bound.rs` checks). A weak-model agent could
//! not compute the decision this way; replacing it with one made from the
//! walk's observations alone is open work.
//!
//! The tracker is shared (`Rc<RefCell<_>>`) between the top-level procedure
//! (which records every move it yields) and the nested `EST+` (which reads
//! positions).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use nochatter_graph::{Graph, NodeId, Port};

/// Dead-reckons an agent's true position on the real graph.
#[derive(Debug)]
pub struct PositionTracker {
    graph: Arc<Graph>,
    at: NodeId,
}

/// Shared handle to a [`PositionTracker`].
pub type SharedTracker = Rc<RefCell<PositionTracker>>;

impl PositionTracker {
    /// A tracker for an agent starting at `start` on `graph`.
    pub fn new(graph: Arc<Graph>, start: NodeId) -> SharedTracker {
        Rc::new(RefCell::new(PositionTracker { graph, at: start }))
    }

    /// Records a move through `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist — the engine would reject the move
    /// too, so this indicates an algorithm bug.
    pub fn apply(&mut self, port: Port) {
        let (to, _) = self
            .graph
            .neighbor(self.at, port)
            .expect("tracker replayed a move through a nonexistent port");
        self.at = to;
    }

    /// The current true position.
    pub fn position(&self) -> NodeId {
        self.at
    }

    /// The real graph (used by `EST+` for coverage accounting only).
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }
}

/// How `EST+` resolves its decision when the exploration was *not* clean —
/// a situation Lemma 4.10 proves unreachable through the full algorithm,
/// but which the ablation harness provokes deliberately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EstMode {
    /// A dirty exploration returns `false` (a real map construction misled
    /// by spurious token sightings would fail to validate; this is the
    /// faithful conservative reading).
    #[default]
    Conservative,
    /// A dirty exploration *pretends it saw nothing wrong* and answers from
    /// coverage alone — the adversarial reading used by the ablation that
    /// demonstrates why `EnsureCleanExploration` is load-bearing.
    Adversarial,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nochatter_graph::generators;

    #[test]
    fn tracker_replays_moves() {
        let g = Arc::new(generators::ring(5));
        let tracker = PositionTracker::new(Arc::clone(&g), NodeId::new(0));
        tracker.borrow_mut().apply(Port::new(1));
        tracker.borrow_mut().apply(Port::new(1));
        assert_eq!(tracker.borrow().position(), NodeId::new(2));
        tracker.borrow_mut().apply(Port::new(0));
        assert_eq!(tracker.borrow().position(), NodeId::new(1));
    }

    #[test]
    #[should_panic(expected = "nonexistent port")]
    fn tracker_rejects_bad_port() {
        let g = Arc::new(generators::path(3));
        let tracker = PositionTracker::new(g, NodeId::new(0));
        tracker.borrow_mut().apply(Port::new(5));
    }
}
