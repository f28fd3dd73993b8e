//! Standard network topologies with explicit port numberings.
//!
//! Gathering algorithms must work for *every* port numbering — the adversary
//! chooses it. Generators here produce a natural numbering; wrap any graph
//! with [`with_shuffled_ports`] to let a seeded adversary renumber every
//! node's ports.
//!
//! # Example
//!
//! ```
//! use nochatter_graph::generators;
//!
//! let g = generators::torus(3, 4);
//! assert_eq!(g.node_count(), 12);
//! assert_eq!(g.max_degree(), 4);
//! let shuffled = generators::with_shuffled_ports(&g, 0xC0FFEE);
//! assert_eq!(shuffled.node_count(), 12);
//! ```

use crate::graph::{Graph, GraphBuilder, NodeId, Port};
use crate::rng::{derive_seed, Rng};

/// Builds a graph from undirected node pairs, assigning ports in insertion
/// order at each endpoint.
///
/// # Panics
///
/// Panics if the pairs do not form a valid connected simple graph.
pub fn from_pairs(n: u32, pairs: &[(u32, u32)]) -> Graph {
    let mut next_port = vec![0u32; n as usize];
    let mut b = GraphBuilder::new(n);
    for &(u, v) in pairs {
        let pu = next_port[u as usize];
        let pv = next_port[v as usize];
        next_port[u as usize] += 1;
        next_port[v as usize] += 1;
        b.edge(u, pu, v, pv);
    }
    b.build().expect("generator produced an invalid graph")
}

/// The ring `C_n` (`n >= 3`): port 0 leads counterclockwise, port 1
/// clockwise.
///
/// # Panics
///
/// Panics if `n < 3` (a 2-ring would need parallel edges).
pub fn ring(n: u32) -> Graph {
    assert!(n >= 3, "ring needs at least 3 nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        let j = (i + 1) % n;
        // Port 1 at i goes clockwise to j; port 0 at j comes back.
        b.edge(i, 1, j, 0);
    }
    b.build().expect("ring is valid")
}

/// The path `P_n` (`n >= 2`): interior nodes have port 0 toward node 0.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn path(n: u32) -> Graph {
    assert!(n >= 2, "path needs at least 2 nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        let pu = if i == 0 { 0 } else { 1 };
        b.edge(i, pu, i + 1, 0);
    }
    b.build().expect("path is valid")
}

/// The complete graph `K_n` (`n >= 2`): at node `i`, port `p` leads to the
/// `p`-th other node in increasing identifier order.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete(n: u32) -> Graph {
    assert!(n >= 2, "complete graph needs at least 2 nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in i + 1..n {
            // Port of j at i skips i itself, and vice versa.
            b.edge(i, j - 1, j, i);
        }
    }
    b.build().expect("complete graph is valid")
}

/// The star `S_n` (`n >= 2` total nodes): node 0 is the center.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: u32) -> Graph {
    assert!(n >= 2, "star needs at least 2 nodes");
    let mut b = GraphBuilder::new(n);
    for leaf in 1..n {
        b.edge(0, leaf - 1, leaf, 0);
    }
    b.build().expect("star is valid")
}

/// The `w × h` grid (`w, h >= 1`, `w*h >= 2`). Ports at each node are
/// numbered in direction order left, right, up, down, skipping absent
/// directions.
///
/// # Panics
///
/// Panics if `w * h < 2`.
pub fn grid(w: u32, h: u32) -> Graph {
    assert!(w * h >= 2, "grid needs at least 2 nodes");
    let id = |x: u32, y: u32| y * w + x;
    let mut pairs = Vec::new();
    for y in 0..h {
        for x in 0..w {
            // Insertion order per node matches left, right, up, down because
            // we add the left and up edges of each node as we reach it in
            // row-major order; see `node_port_order_on_grid` test.
            if x > 0 {
                pairs.push((id(x - 1, y), id(x, y)));
            }
            if y > 0 {
                pairs.push((id(x, y - 1), id(x, y)));
            }
        }
    }
    from_pairs(w * h, &pairs)
}

/// The `w × h` torus (`w, h >= 3` so the graph stays simple); every node has
/// degree 4.
///
/// # Panics
///
/// Panics if `w < 3` or `h < 3`.
pub fn torus(w: u32, h: u32) -> Graph {
    assert!(w >= 3 && h >= 3, "torus needs both dimensions >= 3");
    let id = |x: u32, y: u32| y * w + x;
    let mut pairs = Vec::new();
    for y in 0..h {
        for x in 0..w {
            pairs.push((id(x, y), id((x + 1) % w, y)));
            pairs.push((id(x, y), id(x, (y + 1) % h)));
        }
    }
    from_pairs(w * h, &pairs)
}

/// The `d`-dimensional hypercube (`d >= 1`): taking port `b` flips bit `b`,
/// and entry ports equal exit ports.
///
/// # Panics
///
/// Panics if `d < 1` or `d > 16`.
pub fn hypercube(d: u32) -> Graph {
    assert!((1..=16).contains(&d), "hypercube dimension must be 1..=16");
    let n = 1u32 << d;
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for bit in 0..d {
            let j = i ^ (1 << bit);
            if i < j {
                b.edge(i, bit, j, bit);
            }
        }
    }
    b.build().expect("hypercube is valid")
}

/// The complete binary tree with `levels` levels (`levels >= 1`); level 1 is
/// the root alone. Ports: at every non-root node port 0 leads to the parent;
/// children hang off the next ports in left-to-right order.
///
/// # Panics
///
/// Panics if `levels < 1` or `levels > 20`.
pub fn binary_tree(levels: u32) -> Graph {
    assert!((1..=20).contains(&levels), "levels must be 1..=20");
    let n = (1u32 << levels) - 1;
    assert!(n >= 2, "a single-node tree is not a valid network");
    let mut pairs = Vec::new();
    for child in 1..n {
        let parent = (child - 1) / 2;
        pairs.push((child, parent));
    }
    // Sorting by child puts the parent link first at every node (the child
    // appears first as a left endpoint), giving the documented numbering.
    from_pairs(n, &pairs)
}

/// A uniformly random tree on `n` nodes (`n >= 2`): each node `i >= 1`
/// attaches to a uniform earlier node. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_tree(n: u32, seed: u64) -> Graph {
    assert!(n >= 2, "tree needs at least 2 nodes");
    let mut rng = Rng::seed_from(seed);
    let mut pairs = Vec::new();
    for i in 1..n {
        let parent = rng.range(i as u64) as u32;
        pairs.push((parent, i));
    }
    from_pairs(n, &pairs)
}

/// A random connected graph: a random tree plus `extra_edges` additional
/// distinct non-tree edges (silently capped at the complete graph).
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_connected(n: u32, extra_edges: u32, seed: u64) -> Graph {
    assert!(n >= 2, "graph needs at least 2 nodes");
    let mut rng = Rng::seed_from(seed);
    let mut pairs = Vec::new();
    let mut present = std::collections::HashSet::new();
    for i in 1..n {
        let parent = rng.range(i as u64) as u32;
        pairs.push((parent, i));
        present.insert((parent.min(i), parent.max(i)));
    }
    let max_edges = n as u64 * (n as u64 - 1) / 2;
    let target = (pairs.len() as u64 + extra_edges as u64).min(max_edges);
    let mut attempts = 0u64;
    while (pairs.len() as u64) < target && attempts < 100 * max_edges {
        attempts += 1;
        let u = rng.range(n as u64) as u32;
        let v = rng.range(n as u64) as u32;
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if present.insert(key) {
            pairs.push(key);
        }
    }
    from_pairs(n, &pairs)
}

/// The complete bipartite graph `K_{a,b}` (`a, b >= 1`, `a + b >= 2`):
/// nodes `0..a` on the left, `a..a+b` on the right; port `p` at a left node
/// leads to the `p`-th right node and vice versa.
///
/// # Panics
///
/// Panics if `a == 0` or `b == 0`.
pub fn complete_bipartite(a: u32, b: u32) -> Graph {
    assert!(a >= 1 && b >= 1, "both sides need at least one node");
    let mut builder = GraphBuilder::new(a + b);
    for l in 0..a {
        for r in 0..b {
            builder.edge(l, r, a + r, l);
        }
    }
    builder.build().expect("complete bipartite is valid")
}

/// A lollipop: the complete graph `K_m` with a path of `tail` extra nodes
/// hanging off node 0 — a classical worst case for exploration (the walk
/// keeps getting lost in the clique).
///
/// # Panics
///
/// Panics if `m < 2` or `tail == 0`.
pub fn lollipop(m: u32, tail: u32) -> Graph {
    assert!(m >= 2, "the clique needs at least 2 nodes");
    assert!(tail >= 1, "the tail needs at least 1 node");
    let mut builder = GraphBuilder::new(m + tail);
    // The clique, numbered as in `complete`.
    for i in 0..m {
        for j in i + 1..m {
            builder.edge(i, j - 1, j, i);
        }
    }
    // The tail off node 0: node 0 gets one extra port m-1.
    builder.edge(0, m - 1, m, 0);
    for t in 1..tail {
        builder.edge(m + t - 1, 1, m + t, 0);
    }
    builder.build().expect("lollipop is valid")
}

/// A barbell: two `K_m` cliques joined by a single bridge edge between
/// their node 0s.
///
/// # Panics
///
/// Panics if `m < 2`.
pub fn barbell(m: u32) -> Graph {
    assert!(m >= 2, "each bell needs at least 2 nodes");
    let mut builder = GraphBuilder::new(2 * m);
    for offset in [0, m] {
        for i in 0..m {
            for j in i + 1..m {
                builder.edge(offset + i, j - 1, offset + j, i);
            }
        }
    }
    builder.edge(0, m - 1, m, m - 1);
    builder.build().expect("barbell is valid")
}

/// Re-numbers the ports of every node by an independent random permutation —
/// the adversary's prerogative. Deterministic in `seed`; the underlying
/// topology is unchanged.
pub fn with_shuffled_ports(graph: &Graph, seed: u64) -> Graph {
    let mut rng = Rng::seed_from(seed);
    let n = graph.node_count() as u32;
    // perm[u][old_port] = new_port
    let perms: Vec<Vec<u32>> = (0..n)
        .map(|u| {
            let d = graph.degree(NodeId::new(u));
            let mut p: Vec<u32> = (0..d).collect();
            rng.shuffle(&mut p);
            p
        })
        .collect();
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        let node = NodeId::new(u);
        for old in 0..graph.degree(node) {
            let (v, back) = graph.neighbor(node, Port::new(old)).expect("valid port");
            if u < v.index() as u32 {
                b.edge(
                    u,
                    perms[u as usize][old as usize],
                    v.index() as u32,
                    perms[v.index()][back.index()],
                );
            }
        }
    }
    b.build().expect("port shuffle preserves validity")
}

/// The named standard families, for sweeping benchmarks over topologies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Family {
    /// Cycle `C_n`.
    Ring,
    /// Path `P_n`.
    Path,
    /// Complete graph `K_n`.
    Complete,
    /// Star with `n-1` leaves.
    Star,
    /// Near-square grid with `n` nodes (sides `⌈√n⌉ × rest`).
    Grid,
    /// Random tree.
    RandomTree,
    /// Random connected graph with ~`n/2` extra edges.
    RandomConnected,
    /// Complete bipartite graph with near-equal sides.
    Bipartite,
    /// Lollipop (clique plus tail), a classical exploration worst case.
    Lollipop,
}

/// Salt distinguishing graph-instantiation streams from other consumers of
/// the same campaign seed (see [`derive_seed`]).
const SALT_INSTANCE: u64 = 0x1;
/// Salt for the independent port-shuffle stream of
/// [`Family::instantiate_shuffled`].
const SALT_PORTS: u64 = 0x2;

impl Family {
    /// All families.
    pub fn all() -> &'static [Family] {
        &[
            Family::Ring,
            Family::Path,
            Family::Complete,
            Family::Star,
            Family::Grid,
            Family::RandomTree,
            Family::RandomConnected,
            Family::Bipartite,
            Family::Lollipop,
        ]
    }

    /// A short lowercase name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Family::Ring => "ring",
            Family::Path => "path",
            Family::Complete => "complete",
            Family::Star => "star",
            Family::Grid => "grid",
            Family::RandomTree => "rtree",
            Family::RandomConnected => "rconn",
            Family::Bipartite => "bipart",
            Family::Lollipop => "lolli",
        }
    }

    /// Parses the short [`Family::name`] back into the family.
    pub fn by_name(name: &str) -> Option<Family> {
        Family::all().iter().copied().find(|f| f.name() == name)
    }

    /// The smallest requested size [`Family::instantiate`] accepts. Rings
    /// round any smaller size up to the 3-cycle; every other family needs
    /// two nodes.
    pub fn min_nodes(self) -> u32 {
        match self {
            Family::Ring => 0,
            _ => 2,
        }
    }

    /// A stable numeric tag for seed derivation; independent of declaration
    /// order so reordering the enum never reshuffles derived streams.
    fn tag(self) -> u64 {
        match self {
            Family::Ring => 1,
            Family::Path => 2,
            Family::Complete => 3,
            Family::Star => 4,
            Family::Grid => 5,
            Family::RandomTree => 6,
            Family::RandomConnected => 7,
            Family::Bipartite => 8,
            Family::Lollipop => 9,
        }
    }

    /// Instantiates the family with approximately `n` nodes (exactly `n`
    /// when the family permits it). Deterministic in `seed`.
    ///
    /// `seed` is treated as a *campaign-level* seed: random families
    /// ([`Family::RandomTree`], [`Family::RandomConnected`]) derive an
    /// independent per-instance stream from `(seed, family, n)` via
    /// [`derive_seed`], so sweeping one campaign seed over many sizes never
    /// reuses a raw RNG stream across instances.
    ///
    /// # Panics
    ///
    /// Panics if `n` is below [`Family::min_nodes`].
    pub fn instantiate(self, n: u32, seed: u64) -> Graph {
        assert!(
            n >= self.min_nodes(),
            "{} needs at least {} nodes, asked for {n}",
            self.name(),
            self.min_nodes()
        );
        let instance_seed = derive_seed(seed, &[SALT_INSTANCE, self.tag(), u64::from(n)]);
        match self {
            Family::Ring => ring(n.max(3)),
            Family::Path => path(n),
            Family::Complete => complete(n),
            Family::Star => star(n),
            Family::Grid => {
                let w = (n as f64).sqrt().ceil() as u32;
                let h = n.div_ceil(w);
                grid(w.max(1), h.max(1))
            }
            Family::RandomTree => random_tree(n, instance_seed),
            Family::RandomConnected => random_connected(n, n / 2, instance_seed),
            Family::Bipartite => complete_bipartite(n / 2, n - n / 2),
            Family::Lollipop => {
                let m = (2 * n / 3).max(2);
                lollipop(m, (n - m).max(1))
            }
        }
    }

    /// Like [`Family::instantiate`], then renumbers every node's ports by a
    /// seeded adversary ([`with_shuffled_ports`]). The shuffle stream is
    /// derived independently of the instantiation stream, so the same
    /// topology under different port numberings is a one-seed-apart sweep.
    pub fn instantiate_shuffled(self, n: u32, seed: u64) -> Graph {
        let g = self.instantiate(n, seed);
        with_shuffled_ports(
            &g,
            derive_seed(seed, &[SALT_PORTS, self.tag(), u64::from(n)]),
        )
    }

    /// Iterates instances of this family over `sizes`, each with its own
    /// derived seed — the campaign-style way to sweep a family.
    ///
    /// # Example
    ///
    /// ```
    /// use nochatter_graph::generators::Family;
    ///
    /// let sizes: Vec<u32> = Family::RandomTree
    ///     .instances([4, 6, 8], 42)
    ///     .map(|g| g.node_count() as u32)
    ///     .collect();
    /// assert_eq!(sizes, vec![4, 6, 8]);
    /// ```
    pub fn instances(
        self,
        sizes: impl IntoIterator<Item = u32>,
        seed: u64,
    ) -> impl Iterator<Item = Graph> {
        sizes.into_iter().map(move |n| self.instantiate(n, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn ring_degrees_and_size() {
        let g = ring(7);
        assert_eq!(g.node_count(), 7);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn ring_port_one_tours_clockwise() {
        let g = ring(5);
        let mut at = NodeId::new(0);
        for _ in 0..5 {
            let (next, entry) = g.neighbor(at, Port::new(1)).unwrap();
            assert_eq!(entry, Port::new(0));
            at = next;
        }
        assert_eq!(at, NodeId::new(0));
    }

    #[test]
    fn path_endpoints_have_degree_one() {
        let g = path(6);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(5)), 1);
        for i in 1..5 {
            assert_eq!(g.degree(NodeId::new(i)), 2);
        }
    }

    #[test]
    fn complete_is_complete() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(algo::diameter(&g), 1);
    }

    #[test]
    fn complete_port_convention() {
        let g = complete(4);
        // At node 2, port 0 -> node 0, port 1 -> node 1, port 2 -> node 3.
        assert_eq!(
            g.neighbor(NodeId::new(2), Port::new(0)).unwrap().0,
            NodeId::new(0)
        );
        assert_eq!(
            g.neighbor(NodeId::new(2), Port::new(1)).unwrap().0,
            NodeId::new(1)
        );
        assert_eq!(
            g.neighbor(NodeId::new(2), Port::new(2)).unwrap().0,
            NodeId::new(3)
        );
    }

    #[test]
    fn star_center_degree() {
        let g = star(8);
        assert_eq!(g.degree(NodeId::new(0)), 7);
        for leaf in 1..8 {
            assert_eq!(g.degree(NodeId::new(leaf)), 1);
        }
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 2);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 3 + 4); // 3 vertical + 4 horizontal
        assert_eq!(algo::diameter(&g), 3);
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(3, 3);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.edge_count(), 18);
    }

    #[test]
    fn hypercube_ports_flip_bits() {
        let g = hypercube(3);
        assert_eq!(g.node_count(), 8);
        for v in g.nodes() {
            for b in 0..3 {
                let (u, back) = g.neighbor(v, Port::new(b)).unwrap();
                assert_eq!(u.index(), v.index() ^ (1 << b));
                assert_eq!(back, Port::new(b));
            }
        }
    }

    #[test]
    fn binary_tree_sizes() {
        let g = binary_tree(3);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(1)), 3);
        assert_eq!(g.degree(NodeId::new(6)), 1);
    }

    #[test]
    fn random_graphs_are_valid_and_deterministic() {
        for seed in 0..5 {
            let a = random_connected(12, 6, seed);
            let b = random_connected(12, 6, seed);
            assert_eq!(a, b, "same seed must give the same graph");
            assert!(algo::is_connected(&a));
        }
        let a = random_connected(12, 6, 1);
        let b = random_connected(12, 6, 2);
        assert_ne!(a, b, "different seeds should differ");
    }

    #[test]
    fn random_tree_has_n_minus_1_edges() {
        let g = random_tree(15, 3);
        assert_eq!(g.edge_count(), 14);
    }

    #[test]
    fn shuffled_ports_preserve_topology() {
        let g = torus(3, 4);
        let s = with_shuffled_ports(&g, 99);
        assert_eq!(s.node_count(), g.node_count());
        assert_eq!(s.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(s.degree(v), g.degree(v));
        }
        // Same multiset of neighbor sets.
        for v in g.nodes() {
            let mut a: Vec<_> = (0..g.degree(v))
                .map(|p| g.neighbor(v, Port::new(p)).unwrap().0)
                .collect();
            let mut b: Vec<_> = (0..s.degree(v))
                .map(|p| s.neighbor(v, Port::new(p)).unwrap().0)
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn families_instantiate() {
        for &f in Family::all() {
            for n in (f.min_nodes()..f.min_nodes() + 4).chain([9]) {
                let g = f.instantiate(n, 7);
                assert!(g.node_count() >= 2, "{} at {n} too small", f.name());
                assert!(algo::is_connected(&g), "{} at {n}", f.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "lolli needs at least 2 nodes, asked for 1")]
    fn instantiate_below_min_nodes_panics_with_the_family() {
        Family::Lollipop.instantiate(1, 0);
    }

    #[test]
    fn family_names_round_trip() {
        for &f in Family::all() {
            assert_eq!(Family::by_name(f.name()), Some(f));
        }
        assert_eq!(Family::by_name("nope"), None);
    }

    #[test]
    fn instances_use_independent_per_size_streams() {
        // With raw seed reuse, random_tree(n, s) and random_tree(n, s)
        // obviously coincide; the point of the derived streams is that the
        // *same campaign seed* at different sizes (or families) never feeds
        // the generator the same raw stream. Probe that by checking the
        // parent choices of the first few nodes differ somewhere across
        // sizes (they would be identical prefixes under stream reuse).
        let prefixes: Vec<Vec<u32>> = [6u32, 7, 8, 9]
            .iter()
            .map(|&n| {
                let g = Family::RandomTree.instantiate(n, 17);
                (1..5)
                    .map(|child| {
                        (0..child)
                            .find(|&p| {
                                (0..g.degree(NodeId::new(p))).any(|port| {
                                    g.neighbor(NodeId::new(p), Port::new(port)).unwrap().0
                                        == NodeId::new(child)
                                })
                            })
                            .unwrap()
                    })
                    .collect()
            })
            .collect();
        assert!(
            prefixes.windows(2).any(|w| w[0] != w[1]),
            "per-size streams look identical — seed derivation is broken: {prefixes:?}"
        );
    }

    #[test]
    fn instantiate_shuffled_preserves_topology() {
        for &f in Family::all() {
            let g = f.instantiate(8, 5);
            let s = f.instantiate_shuffled(8, 5);
            assert_eq!(g.node_count(), s.node_count());
            assert_eq!(g.edge_count(), s.edge_count());
            assert!(algo::is_connected(&s));
        }
    }

    /// The canonical `(u, port_at_u, v, port_at_v)` edge list with `u < v`,
    /// sorted — a full fingerprint of a port-labeled graph.
    fn edge_list(g: &Graph) -> Vec<(u32, u32, u32, u32)> {
        let mut out = Vec::new();
        for u in g.nodes() {
            for port in 0..g.degree(u) {
                let (v, back) = g.neighbor(u, Port::new(port)).unwrap();
                if u.index() < v.index() {
                    out.push((
                        u.index() as u32,
                        port,
                        v.index() as u32,
                        back.index() as u32,
                    ));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn derived_random_graphs_golden_values() {
        // Golden fingerprints for campaign seed 42: the per-instance seed
        // derivation feeding random_tree / random_connected /
        // with_shuffled_ports must never change, or every recorded campaign
        // silently refers to different networks. Computed once from this
        // implementation (derive_seed + xoshiro256**).
        assert_eq!(
            edge_list(&Family::RandomTree.instantiate(6, 42)),
            vec![
                (0, 0, 1, 0),
                (0, 1, 4, 0),
                (1, 1, 2, 0),
                (1, 2, 3, 0),
                (3, 1, 5, 0)
            ],
        );
        assert_eq!(
            edge_list(&Family::RandomConnected.instantiate(6, 42)),
            vec![
                (0, 0, 1, 0),
                (0, 1, 4, 2),
                (1, 1, 2, 0),
                (1, 2, 3, 0),
                (2, 1, 4, 3),
                (2, 2, 3, 2),
                (3, 1, 4, 0),
                (4, 1, 5, 0)
            ],
        );
        assert_eq!(
            edge_list(&Family::Ring.instantiate_shuffled(4, 42)),
            vec![(0, 0, 1, 0), (0, 1, 3, 0), (1, 1, 2, 0), (2, 1, 3, 1)],
        );
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(2, 3);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 6);
        for l in 0..2 {
            assert_eq!(g.degree(NodeId::new(l)), 3);
        }
        for r in 2..5 {
            assert_eq!(g.degree(NodeId::new(r)), 2);
        }
        assert_eq!(algo::diameter(&g), 2);
    }

    #[test]
    fn lollipop_structure() {
        let g = lollipop(4, 3);
        assert_eq!(g.node_count(), 7);
        // Node 0 bridges clique and tail.
        assert_eq!(g.degree(NodeId::new(0)), 4);
        // The tail end is a leaf.
        assert_eq!(g.degree(NodeId::new(6)), 1);
        assert!(algo::is_connected(&g));
        assert_eq!(algo::diameter(&g), 4);
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(3);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 3 + 3 + 1);
        assert_eq!(g.degree(NodeId::new(0)), 3); // clique + bridge
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(algo::diameter(&g), 3);
    }

    #[test]
    fn from_pairs_ports_follow_insertion_order() {
        let g = from_pairs(3, &[(0, 1), (0, 2)]);
        assert_eq!(
            g.neighbor(NodeId::new(0), Port::new(0)).unwrap().0,
            NodeId::new(1)
        );
        assert_eq!(
            g.neighbor(NodeId::new(0), Port::new(1)).unwrap().0,
            NodeId::new(2)
        );
    }
}
