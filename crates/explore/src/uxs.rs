//! Universal exploration sequences.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use nochatter_graph::enumerate;
use nochatter_graph::rng::Rng;
use nochatter_graph::{Graph, NodeId, Port};

/// A universal exploration sequence: a fixed sequence of non-negative
/// integers `x_1, x_2, ...` driving a walk. After entering a node of degree
/// `d` by port `p` (the start node counts as entered by port 0), the walker
/// exits by port `(p + x_i) mod d`.
///
/// Construct with [`Uxs::covering`] (certified against a corpus),
/// [`Uxs::exhaustive_universal`] (certified against *all* small graphs) or
/// [`Uxs::pseudorandom`] (uncertified, for ablations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Uxs {
    /// Shared with every walk over it ([`Uxs::shared_steps`]).
    steps: Arc<[u32]>,
}

/// Failure to certify a sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum UxsError {
    /// The greedy construction failed to cover the corpus within the step
    /// budget (practically unreachable for connected corpora; the budget
    /// guards against pathological inputs).
    CertificationFailed {
        /// How many steps were tried.
        steps_tried: usize,
    },
    /// The corpus was empty.
    EmptyCorpus,
}

impl fmt::Display for UxsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UxsError::CertificationFailed { steps_tried } => write!(
                f,
                "failed to certify a covering sequence within {steps_tried} steps"
            ),
            UxsError::EmptyCorpus => write!(f, "cannot certify against an empty corpus"),
        }
    }
}

impl Error for UxsError {}

/// Walker state inside one (graph, start) pair during certification.
#[derive(Clone)]
struct WalkState<'g> {
    graph: &'g Graph,
    at: NodeId,
    entry: u32,
    visited: Vec<bool>,
    remaining: usize,
}

impl<'g> WalkState<'g> {
    fn new(graph: &'g Graph, start: NodeId) -> Self {
        let mut visited = vec![false; graph.node_count()];
        visited[start.index()] = true;
        WalkState {
            graph,
            at: start,
            entry: 0,
            remaining: graph.node_count() - 1,
            visited,
        }
    }

    /// Applies step `x`; returns 1 if a new node was visited.
    fn advance(&mut self, x: u32) -> usize {
        let d = self.graph.degree(self.at);
        let q = (self.entry + x) % d;
        let (to, back) = self
            .graph
            .neighbor(self.at, Port::new(q))
            .expect("port within degree");
        self.at = to;
        self.entry = back.number();
        if !self.visited[to.index()] {
            self.visited[to.index()] = true;
            self.remaining -= 1;
            1
        } else {
            0
        }
    }

    /// New nodes that step `x` would visit, without applying it.
    fn gain(&self, x: u32) -> usize {
        let d = self.graph.degree(self.at);
        let q = (self.entry + x) % d;
        let (to, _) = self
            .graph
            .neighbor(self.at, Port::new(q))
            .expect("port within degree");
        usize::from(!self.visited[to.index()])
    }
}

impl Uxs {
    /// Wraps an explicit step sequence.
    pub fn from_steps(steps: Vec<u32>) -> Self {
        Uxs {
            steps: steps.into(),
        }
    }

    /// The number of steps (each step is one edge traversal of the
    /// effective part; `T(EXPLO) = 2 * len`).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The `i`-th step (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn step(&self, i: usize) -> u32 {
        self.steps[i]
    }

    /// The steps, shared: what a [`nochatter_sim::walk::Walk`] over this
    /// sequence walks.
    pub fn shared_steps(&self) -> &Arc<[u32]> {
        &self.steps
    }

    /// An uncertified pseudorandom sequence of the given length —
    /// deterministic in `seed`. Used as raw material by the certified
    /// constructors and directly by the ablation that demonstrates why
    /// certification matters.
    pub fn pseudorandom(len: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        // Steps are reduced modulo the degree at walk time, so any range
        // works; keep them small for readability of dumps.
        let steps = (0..len).map(|_| rng.range(1 << 16) as u32).collect();
        Uxs { steps }
    }

    /// Greedily grows a sequence certified to visit all nodes of every
    /// corpus graph from every start node, then returns it. Deterministic
    /// in `seed`. The greedy step picks the increment that lets the most
    /// walkers discover a new node, falling back to pseudorandom steps when
    /// no increment makes immediate progress.
    ///
    /// # Errors
    ///
    /// [`UxsError::EmptyCorpus`] for an empty corpus;
    /// [`UxsError::CertificationFailed`] if the step budget is exhausted
    /// (not expected for valid connected graphs).
    pub fn covering(corpus: &[Graph], seed: u64) -> Result<Self, UxsError> {
        if corpus.is_empty() {
            return Err(UxsError::EmptyCorpus);
        }
        let mut rng = Rng::seed_from(seed ^ 0x5EED_u64);
        let mut states: Vec<WalkState<'_>> = corpus
            .iter()
            .flat_map(|g| g.nodes().map(move |s| WalkState::new(g, s)))
            .collect();
        let max_degree = corpus.iter().map(Graph::max_degree).max().unwrap_or(1);
        let total_nodes: usize = states.iter().map(|s| s.remaining).sum();
        // Generous budget: random walks cover in O(n^3) expected steps and
        // the greedy does strictly better; multiply out for safety.
        let budget = 64 * (total_nodes + 1) * (total_nodes + 1) + 4096;
        let mut steps = Vec::new();
        while states.iter().any(|s| s.remaining > 0) {
            if steps.len() >= budget {
                return Err(UxsError::CertificationFailed {
                    steps_tried: steps.len(),
                });
            }
            let mut best_x = None;
            let mut best_gain = 0usize;
            for x in 0..max_degree.max(1) {
                let gain: usize = states.iter().map(|s| s.gain(x)).sum();
                if gain > best_gain {
                    best_gain = gain;
                    best_x = Some(x);
                }
            }
            let x = match best_x {
                Some(x) => x,
                // No immediate progress anywhere: take a pseudorandom step
                // to shake all walkers out of their current positions.
                None => rng.range(u64::from(max_degree.max(1))) as u32,
            };
            for s in &mut states {
                s.advance(x);
            }
            steps.push(x);
        }
        Ok(Uxs::from_steps(steps))
    }

    /// A genuine universal exploration sequence for all graphs of size
    /// `2..=n`: certified against the exhaustive enumeration of every
    /// connected port-labeled graph of those sizes. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > `[`enumerate::MAX_EXHAUSTIVE_N`] (the
    /// enumeration would explode; use [`Uxs::covering`] with a corpus for
    /// larger sizes).
    pub fn exhaustive_universal(n: u32, seed: u64) -> Self {
        let corpus = enumerate::connected_graphs_up_to(n);
        Uxs::covering(&corpus, seed).expect("exhaustive corpus is coverable")
    }

    /// Simulates the walk on `graph` from `start` and reports whether every
    /// node is visited.
    pub fn covers(&self, graph: &Graph, start: NodeId) -> bool {
        let mut state = WalkState::new(graph, start);
        for &x in self.steps.iter() {
            if state.remaining == 0 {
                return true;
            }
            state.advance(x);
        }
        state.remaining == 0
    }

    /// Whether the walk covers every graph in `corpus` from every start.
    pub fn covers_corpus(&self, corpus: &[Graph]) -> bool {
        corpus.iter().all(|g| g.nodes().all(|s| self.covers(g, s)))
    }

    /// The nodes visited (in order, with repeats) by the walk on `graph`
    /// from `start`, including the start; ground-truth introspection for
    /// tests and oracles.
    pub fn walk(&self, graph: &Graph, start: NodeId) -> Vec<NodeId> {
        let mut state = WalkState::new(graph, start);
        let mut nodes = vec![start];
        for &x in self.steps.iter() {
            state.advance(x);
            nodes.push(state.at);
        }
        nodes
    }

    /// Truncates to the first `len` steps (for the certification ablation).
    pub fn truncated(&self, len: usize) -> Uxs {
        Uxs {
            steps: self.steps[..len.min(self.steps.len())].into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nochatter_graph::generators;

    fn standard_corpus() -> Vec<Graph> {
        vec![
            generators::ring(8),
            generators::path(7),
            generators::star(6),
            generators::complete(5),
            generators::grid(3, 3),
            generators::random_connected(9, 4, 11),
        ]
    }

    #[test]
    fn covering_certifies_standard_corpus() {
        let corpus = standard_corpus();
        let uxs = Uxs::covering(&corpus, 1).unwrap();
        assert!(uxs.covers_corpus(&corpus));
        assert!(!uxs.is_empty());
    }

    #[test]
    fn covering_is_deterministic_in_seed() {
        let corpus = standard_corpus();
        let a = Uxs::covering(&corpus, 5).unwrap();
        let b = Uxs::covering(&corpus, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn exhaustive_universal_covers_all_small_graphs() {
        let uxs = Uxs::exhaustive_universal(3, 0);
        let corpus = enumerate::connected_graphs_up_to(3);
        assert!(uxs.covers_corpus(&corpus));
        // ...including graphs it was not explicitly built against, as long
        // as they are within the size class: trivially true here, but assert
        // on a concrete instance for clarity.
        assert!(uxs.covers(&generators::ring(3), NodeId::new(1)));
    }

    #[test]
    fn exhaustive_universal_size_4() {
        let uxs = Uxs::exhaustive_universal(4, 0);
        let corpus = enumerate::connected_graphs_up_to(4);
        assert!(uxs.covers_corpus(&corpus));
    }

    #[test]
    fn truncated_sequence_loses_coverage() {
        let corpus = standard_corpus();
        let uxs = Uxs::covering(&corpus, 1).unwrap();
        // One step cannot cover an 8-ring.
        let stub = uxs.truncated(1);
        assert!(!stub.covers(&corpus[0], NodeId::new(0)));
    }

    #[test]
    fn walk_starts_at_start_and_has_len_plus_one_nodes() {
        let g = generators::ring(5);
        let uxs = Uxs::from_steps(vec![1, 1, 1]);
        let walk = uxs.walk(&g, NodeId::new(2));
        assert_eq!(walk.len(), 4);
        assert_eq!(walk[0], NodeId::new(2));
    }

    #[test]
    fn pseudorandom_is_deterministic() {
        assert_eq!(Uxs::pseudorandom(32, 9), Uxs::pseudorandom(32, 9));
        assert_ne!(Uxs::pseudorandom(32, 9), Uxs::pseudorandom(32, 10));
    }

    #[test]
    fn empty_corpus_is_an_error() {
        assert_eq!(Uxs::covering(&[], 0), Err(UxsError::EmptyCorpus));
    }

    #[test]
    fn covers_two_node_graph_with_any_step() {
        let g = generators::path(2);
        let uxs = Uxs::from_steps(vec![0]);
        assert!(uxs.covers(&g, NodeId::new(0)));
        assert!(uxs.covers(&g, NodeId::new(1)));
    }

    #[test]
    fn walk_rule_matches_definition() {
        // On a ring with the canonical numbering (port 0 ccw, port 1 cw),
        // entering by port 0 and applying x=1 exits by port (0+1)%2 = 1.
        let g = generators::ring(4);
        let uxs = Uxs::from_steps(vec![1, 0, 0, 0]);
        let walk = uxs.walk(&g, NodeId::new(0));
        // Start entry port is defined as 0, so first exit is port 1 -> node 1.
        assert_eq!(walk[1], NodeId::new(1));
        // Entered node 1 by port 0; x=0 exits by port 0 -> back to node 0.
        assert_eq!(walk[2], NodeId::new(0));
    }
}
