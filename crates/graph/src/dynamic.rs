//! Round-varying topologies over a static base graph.
//!
//! The paper's model assumes a static unknown network, but the gathering
//! literature it sits in has moved on to *dynamic* topologies: *Gathering
//! in Dynamic Rings* (Di Luna, Dobrev, Flocchini & Santoro) studies the
//! same problem under an adversary that removes one ring edge per round
//! while keeping the graph connected (*1-interval connectivity*), and the
//! ad-hoc radio gathering line (Chrobak & Costello) treats link
//! availability as adversarial. This module opens that scenario axis
//! without touching the base [`Graph`] representation:
//!
//! * a [`Topology`] is a plain-data *provider* describing how edge
//!   presence varies over rounds ([`Static`], [`PeriodicEdges`],
//!   [`SeededEdgeFailure`], [`DynamicRing`]);
//! * a [`TopologyView`] is the per-run object the simulation engine
//!   consults: advanced once per executed round, queried once per move
//!   attempt;
//! * [`TopologySpec`] is the serializable description threaded through
//!   scenario harnesses, with [`TopologySpec::view`] producing a single
//!   concrete enum-dispatch view ([`SpecView`]) so the engine needs only
//!   two monomorphizations — the zero-cost static one and the dynamic one.
//!
//! The node set, the port numbering and every node's *degree* are fixed by
//! the base graph; only edge *presence* varies. An agent taking a port
//! whose edge is absent this round stays put and observes `blocked: true`
//! next round — absence is discovered by attempting, never announced
//! (matching the radio-gathering model, where a silent link is
//! indistinguishable from an unused one until tried).
//!
//! Presence is a **pure function of the round number**: views receive the
//! absolute round via [`TopologyView::begin_round`] and must answer
//! identically however that round was reached. The engine's quiescence
//! fast-forward jumps over stretches in which every agent waits, so a view
//! keeping incremental per-round state would silently desynchronize.
//!
//! # Example
//!
//! ```
//! use nochatter_graph::dynamic::{DynamicRing, Topology, TopologyView};
//! use nochatter_graph::{generators, NodeId, Port};
//!
//! let ring = generators::ring(5);
//! let mut view = DynamicRing { seed: 7 }.view(&ring);
//! view.begin_round(0);
//! // Exactly one of the five ring edges is absent this round.
//! let present = ring
//!     .nodes()
//!     .map(|u| u32::from(view.edge_present(u, Port::new(1))))
//!     .sum::<u32>();
//! assert_eq!(present, 4);
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use crate::graph::{Graph, NodeId, Port};
use crate::rng::derive_seed;

/// A per-run view of which base-graph edges are present each round.
///
/// The engine advances the view with [`TopologyView::begin_round`] once per
/// *executed* round and queries [`TopologyView::edge_present`] once per
/// move attempt. Contract:
///
/// * rounds passed to `begin_round` are strictly increasing but may jump
///   (the engine fast-forwards provably quiet stretches), so presence must
///   be a pure function of the round number;
/// * `edge_present` is only called for `(node, port)` pairs that are valid
///   in the base graph, and must answer the same for both directed halves
///   of an undirected edge.
pub trait TopologyView {
    /// Advances the view to the given absolute round.
    fn begin_round(&mut self, round: u64);

    /// Whether the edge behind `(from, port)` is present in the current
    /// round.
    fn edge_present(&self, from: NodeId, port: Port) -> bool;
}

/// A round-varying topology *provider*: plain data describing the dynamics,
/// turned into a per-run [`TopologyView`] over a concrete base graph.
pub trait Topology {
    /// The view type this provider yields.
    type View: TopologyView;

    /// Builds the per-run view over `graph`.
    fn view(&self, graph: &Graph) -> Self::View;
}

/// The static topology: every edge is present in every round.
///
/// This is the default of the simulation engine; its `edge_present` is a
/// constant `true` the optimizer folds away, so an engine monomorphized
/// over `Static` compiles to exactly the pre-dynamic code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Static;

impl TopologyView for Static {
    #[inline(always)]
    fn begin_round(&mut self, _round: u64) {}

    #[inline(always)]
    fn edge_present(&self, _from: NodeId, _port: Port) -> bool {
        true
    }
}

impl Topology for Static {
    type View = Static;

    fn view(&self, _graph: &Graph) -> Static {
        Static
    }
}

/// Dense undirected edge identifiers for a base graph, indexable by a
/// `(node, port)` pair in O(1).
///
/// Edges are numbered `0..m` in the order their first directed half appears
/// scanning nodes (and ports within a node) in increasing order — a pure
/// function of the graph, so every view over the same graph agrees on ids.
#[derive(Clone, Debug)]
struct EdgeIds {
    /// CSR-style row starts into `ids` (recomputed from degrees).
    offsets: Vec<u32>,
    /// Undirected edge id of each directed `(node, port)` slot.
    ids: Vec<u32>,
}

impl EdgeIds {
    fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for u in graph.nodes() {
            offsets.push(offsets[u.index()] + graph.degree(u));
        }
        let total = offsets[n] as usize;
        let mut ids = vec![u32::MAX; total];
        let mut next = 0u32;
        for u in graph.nodes() {
            for (p, (v, back)) in graph.neighbors(u).enumerate() {
                let slot = offsets[u.index()] as usize + p;
                if ids[slot] == u32::MAX {
                    ids[slot] = next;
                    ids[offsets[v.index()] as usize + back.index()] = next;
                    next += 1;
                }
            }
        }
        debug_assert_eq!(next as usize, graph.edge_count());
        EdgeIds { offsets, ids }
    }

    #[inline]
    fn id(&self, from: NodeId, port: Port) -> u32 {
        self.ids[self.offsets[from.index()] as usize + port.index()]
    }
}

/// A rotating periodic outage: in round `r`, edge `e` (by dense edge id) is
/// absent iff `(r + e) % period == offset`.
///
/// Every edge is absent exactly once per `period` rounds and roughly
/// `m / period` edges are absent in any one round, so the adversary is
/// relentless but fair — no edge is ever permanently lost (for
/// `period >= 2`; a period of 1 removes every edge every round).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeriodicEdges {
    /// The outage period in rounds (must be >= 1).
    pub period: u64,
    /// The phase of the outage within the period.
    pub offset: u64,
}

/// The per-run view of [`PeriodicEdges`].
#[derive(Clone, Debug)]
pub struct PeriodicView {
    ids: EdgeIds,
    period: u64,
    offset: u64,
    round: u64,
}

impl TopologyView for PeriodicView {
    #[inline]
    fn begin_round(&mut self, round: u64) {
        self.round = round;
    }

    #[inline]
    fn edge_present(&self, from: NodeId, port: Port) -> bool {
        let e = u64::from(self.ids.id(from, port));
        self.round.wrapping_add(e) % self.period != self.offset
    }
}

impl Topology for PeriodicEdges {
    type View = PeriodicView;

    /// # Panics
    ///
    /// Panics if `period` is 0.
    fn view(&self, graph: &Graph) -> PeriodicView {
        assert!(self.period >= 1, "PeriodicEdges period must be >= 1");
        PeriodicView {
            ids: EdgeIds::new(graph),
            period: self.period,
            offset: self.offset % self.period,
            round: 0,
        }
    }
}

/// Independent seeded edge failures: in every round, every edge is absent
/// with probability `p`, independently across `(edge, round)` pairs.
///
/// Failure is derived from `(seed, round, edge id)` through the library's
/// deterministic seed derivation, so a run is bit-reproducible on every
/// platform and unaffected by how (or whether) earlier rounds were
/// queried.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeededEdgeFailure {
    /// Per-round, per-edge failure probability, clamped to `[0, 1]`.
    pub p: f64,
    /// The adversary's seed.
    pub seed: u64,
}

/// The per-run view of [`SeededEdgeFailure`].
#[derive(Clone, Debug)]
pub struct FailureView {
    ids: EdgeIds,
    /// `p` mapped onto the `u64` range: an edge fails iff its per-round
    /// hash lands below this threshold.
    threshold: u64,
    seed: u64,
    round: u64,
}

impl TopologyView for FailureView {
    #[inline]
    fn begin_round(&mut self, round: u64) {
        self.round = round;
    }

    #[inline]
    fn edge_present(&self, from: NodeId, port: Port) -> bool {
        let e = u64::from(self.ids.id(from, port));
        derive_seed(self.seed, &[self.round, e]) >= self.threshold
    }
}

impl Topology for SeededEdgeFailure {
    type View = FailureView;

    fn view(&self, graph: &Graph) -> FailureView {
        // The saturating f64 -> u64 cast sends p >= 1 to u64::MAX (all but
        // one hash in 2^64 fails) and p <= 0 to 0 (no edge ever fails).
        let threshold = (self.p.clamp(0.0, 1.0) * (u64::MAX as f64)) as u64;
        FailureView {
            ids: EdgeIds::new(graph),
            threshold,
            seed: self.seed,
            round: 0,
        }
    }
}

/// The 1-interval-connected dynamic ring of Di Luna et al.: each round the
/// adversary removes exactly one edge of a ring base graph (a seeded choice
/// per round), leaving a connected path.
///
/// Requires the base graph to be a cycle — use
/// [`is_cycle`] (or [`TopologySpec::compatible_with`]) to check before
/// building the view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynamicRing {
    /// The adversary's seed (chooses the removed edge each round).
    pub seed: u64,
}

/// The per-run view of [`DynamicRing`].
#[derive(Clone, Debug)]
pub struct RingView {
    ids: EdgeIds,
    edge_count: u64,
    seed: u64,
    removed: u32,
}

impl TopologyView for RingView {
    #[inline]
    fn begin_round(&mut self, round: u64) {
        self.removed = (derive_seed(self.seed, &[round]) % self.edge_count) as u32;
    }

    #[inline]
    fn edge_present(&self, from: NodeId, port: Port) -> bool {
        self.ids.id(from, port) != self.removed
    }
}

impl Topology for DynamicRing {
    type View = RingView;

    /// # Panics
    ///
    /// Panics if the base graph is not a cycle.
    fn view(&self, graph: &Graph) -> RingView {
        assert!(
            is_cycle(graph),
            "DynamicRing requires a cycle base graph (n nodes, n edges, all degrees 2)"
        );
        let mut view = RingView {
            ids: EdgeIds::new(graph),
            edge_count: graph.edge_count() as u64,
            seed: self.seed,
            removed: 0,
        };
        view.begin_round(0);
        view
    }
}

/// The scripted dynamic ring: an *explicit* per-round removal schedule
/// over a cycle base graph — the choice-list form of [`DynamicRing`].
///
/// Where [`DynamicRing`] derives its removed edge from a seed (an
/// *oblivious* adversary), `ScriptedRing` spells out the adversary's
/// choice for every round: in round `r` the edge with dense id
/// `script[r % script.len()]` is absent ([`ScriptedRing::KEEP_ALL`] = no
/// removal that round). This is the representation adversary *search*
/// needs — each slot is one coordinate a local-search step can mutate —
/// while staying a pure function of the round number, so the engine's
/// quiescence fast-forward remains sound and a found witness replays
/// bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptedRing {
    /// Removed dense edge id per round slot (cycled); must be non-empty,
    /// and every entry must be [`ScriptedRing::KEEP_ALL`] or a valid edge
    /// id of the base graph. Shared, not copied, by every run's view.
    pub script: Arc<[u32]>,
}

impl ScriptedRing {
    /// Script entry meaning "no edge removed this round" (never a valid
    /// dense edge id).
    pub const KEEP_ALL: u32 = u32::MAX;

    /// The prefix of a scripted topology's key name.
    pub const NAME_PREFIX: &'static str = "sring";

    /// Whether the script can run over `graph`: non-empty, cycle base
    /// graph, every entry a valid edge id or [`ScriptedRing::KEEP_ALL`].
    ///
    /// The scan is a branch-free fold, so it vectorizes: `KEEP_ALL + 1`
    /// wraps to 0, and an edge id `e` is valid exactly when `e + 1 <= m`.
    pub fn valid_for(&self, graph: &Graph) -> bool {
        let m = u32::try_from(graph.edge_count()).unwrap_or(u32::MAX);
        !self.script.is_empty()
            && is_cycle(graph)
            && self
                .script
                .iter()
                .fold(true, |ok, &e| ok & (e.wrapping_add(1) <= m))
    }

    /// Appends slot `slot` of a script's key name, holding edge choice `e`:
    /// a `.` before every slot but the first, then `x` for
    /// [`ScriptedRing::KEEP_ALL`] or the edge id. A whole name is
    /// [`ScriptedRing::NAME_PREFIX`] followed by every slot in order.
    pub fn write_slot(out: &mut String, slot: usize, e: u32) {
        if slot > 0 {
            out.push('.');
        }
        if e == Self::KEEP_ALL {
            out.push('x');
        } else {
            let _ = write!(out, "{e}");
        }
    }
}

/// The per-run view of [`ScriptedRing`].
#[derive(Clone, Debug)]
pub struct ScriptedView {
    ids: EdgeIds,
    script: Arc<[u32]>,
    removed: u32,
}

impl TopologyView for ScriptedView {
    #[inline]
    fn begin_round(&mut self, round: u64) {
        let slot = (round % self.script.len() as u64) as usize;
        self.removed = self.script[slot];
    }

    #[inline]
    fn edge_present(&self, from: NodeId, port: Port) -> bool {
        // Dense edge ids are < m < u32::MAX, so a KEEP_ALL slot removes
        // nothing.
        self.ids.id(from, port) != self.removed
    }
}

impl Topology for ScriptedRing {
    type View = ScriptedView;

    /// # Panics
    ///
    /// Panics if the script is invalid for `graph` (see
    /// [`ScriptedRing::valid_for`]).
    fn view(&self, graph: &Graph) -> ScriptedView {
        assert!(
            self.valid_for(graph),
            "ScriptedRing requires a non-empty script of valid edge ids over a cycle base graph"
        );
        let mut view = ScriptedView {
            ids: EdgeIds::new(graph),
            script: Arc::clone(&self.script),
            removed: ScriptedRing::KEEP_ALL,
        };
        view.begin_round(0);
        view
    }
}

/// Whether `graph` is a cycle (the only base shape [`DynamicRing`]
/// accepts): `n` nodes, `n` edges, every degree 2. Connectivity is already
/// a [`Graph`] invariant.
pub fn is_cycle(graph: &Graph) -> bool {
    graph.edge_count() == graph.node_count() && graph.nodes().all(|u| graph.degree(u) == 2)
}

/// A serializable description of a round-varying topology — the value
/// scenario harnesses thread through their execution axes.
///
/// `TopologySpec` is itself a [`Topology`] whose view is the enum-dispatch
/// [`SpecView`], so one engine monomorphization covers every dynamic
/// provider; harnesses special-case [`TopologySpec::Static`] onto the
/// zero-cost [`Static`] view.
#[derive(Clone, Debug, Default, PartialEq)]
#[non_exhaustive]
pub enum TopologySpec {
    /// The static base graph (the paper's model).
    #[default]
    Static,
    /// Rotating periodic outages.
    Periodic(PeriodicEdges),
    /// Independent seeded edge failures.
    EdgeFailure(SeededEdgeFailure),
    /// The 1-interval-connected dynamic ring adversary.
    Ring(DynamicRing),
    /// The explicit per-round-removal ring adversary (the choice-list form
    /// adversary search mutates one slot at a time).
    Scripted(ScriptedRing),
}

impl TopologySpec {
    /// Whether this is the static topology (the zero-cost engine path).
    pub fn is_static(&self) -> bool {
        matches!(self, TopologySpec::Static)
    }

    /// Whether the spec can run over `graph` ([`DynamicRing`] requires a
    /// cycle, [`ScriptedRing`] a cycle plus in-range edge ids; everything
    /// else accepts any base graph).
    pub fn compatible_with(&self, graph: &Graph) -> bool {
        match self {
            TopologySpec::Ring(_) => is_cycle(graph),
            TopologySpec::Scripted(s) => s.valid_for(graph),
            _ => true,
        }
    }

    /// A short, key-safe name (`"static"`, `"per7.0"`, `"ef100@9"`,
    /// `"dring@9"`, `"sring0.2.x"`) used as the dynamism axis of scenario
    /// keys. Failure probabilities are rendered in permille; scripted
    /// removal slots are dot-joined with `x` for "keep all edges".
    pub fn short_name(&self) -> String {
        match self {
            TopologySpec::Static => "static".into(),
            TopologySpec::Periodic(p) => format!("per{}.{}", p.period, p.offset),
            TopologySpec::EdgeFailure(f) => {
                format!(
                    "ef{}@{}",
                    (f.p.clamp(0.0, 1.0) * 1000.0).round() as u64,
                    f.seed
                )
            }
            TopologySpec::Ring(r) => format!("dring@{}", r.seed),
            TopologySpec::Scripted(s) => {
                // One buffer sized for single-digit ids: search keys carry
                // scripts thousands of slots long.
                let mut name =
                    String::with_capacity(ScriptedRing::NAME_PREFIX.len() + 2 * s.script.len());
                name.push_str(ScriptedRing::NAME_PREFIX);
                for (slot, &e) in s.script.iter().enumerate() {
                    ScriptedRing::write_slot(&mut name, slot, e);
                }
                name
            }
        }
    }
}

impl Topology for TopologySpec {
    type View = SpecView;

    /// # Panics
    ///
    /// Panics if the spec is incompatible with `graph` (see
    /// [`TopologySpec::compatible_with`]).
    fn view(&self, graph: &Graph) -> SpecView {
        match self {
            TopologySpec::Static => SpecView::Static,
            TopologySpec::Periodic(p) => SpecView::Periodic(p.view(graph)),
            TopologySpec::EdgeFailure(f) => SpecView::Failure(f.view(graph)),
            TopologySpec::Ring(r) => SpecView::Ring(r.view(graph)),
            TopologySpec::Scripted(s) => SpecView::Scripted(s.view(graph)),
        }
    }
}

/// The enum-dispatch view behind [`TopologySpec`]: one concrete
/// [`TopologyView`] type covering every provider, so the simulation engine
/// needs a single dynamic monomorphization.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum SpecView {
    /// All edges always present.
    Static,
    /// See [`PeriodicEdges`].
    Periodic(PeriodicView),
    /// See [`SeededEdgeFailure`].
    Failure(FailureView),
    /// See [`DynamicRing`].
    Ring(RingView),
    /// See [`ScriptedRing`].
    Scripted(ScriptedView),
}

impl TopologyView for SpecView {
    #[inline]
    fn begin_round(&mut self, round: u64) {
        match self {
            SpecView::Static => {}
            SpecView::Periodic(v) => v.begin_round(round),
            SpecView::Failure(v) => v.begin_round(round),
            SpecView::Ring(v) => v.begin_round(round),
            SpecView::Scripted(v) => v.begin_round(round),
        }
    }

    #[inline]
    fn edge_present(&self, from: NodeId, port: Port) -> bool {
        match self {
            SpecView::Static => true,
            SpecView::Periodic(v) => v.edge_present(from, port),
            SpecView::Failure(v) => v.edge_present(from, port),
            SpecView::Ring(v) => v.edge_present(from, port),
            SpecView::Scripted(v) => v.edge_present(from, port),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// Presence of every directed half of every edge in one round.
    fn presence_map<V: TopologyView>(g: &Graph, view: &mut V, round: u64) -> Vec<bool> {
        view.begin_round(round);
        let mut out = Vec::new();
        for u in g.nodes() {
            for p in 0..g.degree(u) {
                out.push(view.edge_present(u, Port::new(p)));
            }
        }
        out
    }

    #[test]
    fn edge_ids_are_symmetric_and_dense() {
        for g in [
            generators::ring(6),
            generators::complete(5),
            generators::random_connected(12, 18, 3),
        ] {
            let ids = EdgeIds::new(&g);
            let mut seen = vec![0u32; g.edge_count()];
            for u in g.nodes() {
                for (p, (v, back)) in g.neighbors(u).enumerate() {
                    let here = ids.id(u, Port::new(p as u32));
                    let there = ids.id(v, back);
                    assert_eq!(here, there, "edge id must match from both ends");
                    assert!((here as usize) < g.edge_count());
                    seen[here as usize] += 1;
                }
            }
            // Every undirected edge id is hit exactly twice (once per half).
            assert!(seen.iter().all(|&c| c == 2), "{seen:?}");
        }
    }

    #[test]
    fn static_view_is_always_present() {
        let g = generators::ring(4);
        let mut v = Static.view(&g);
        assert!(presence_map(&g, &mut v, 0).iter().all(|&b| b));
        assert!(presence_map(&g, &mut v, u64::MAX).iter().all(|&b| b));
    }

    #[test]
    fn periodic_rotates_and_repeats() {
        let g = generators::ring(6);
        let spec = PeriodicEdges {
            period: 3,
            offset: 1,
        };
        let mut v = spec.view(&g);
        // Pure function of the round: same round, same presence, even after
        // jumping around (the fast-forward contract).
        let r2 = presence_map(&g, &mut v, 2);
        let r5 = presence_map(&g, &mut v, 5);
        let _ = presence_map(&g, &mut v, 1000);
        assert_eq!(presence_map(&g, &mut v, 2), r2);
        // One full period apart, the pattern repeats.
        assert_eq!(r2, r5);
        // Exactly m / period = 2 edges (4 directed halves) absent per round.
        assert_eq!(r2.iter().filter(|&&b| !b).count(), 4);
        // Each edge is absent at some round within the period.
        let mut ever_absent = vec![false; r2.len()];
        for round in 0..3 {
            for (slot, present) in presence_map(&g, &mut v, round).iter().enumerate() {
                ever_absent[slot] |= !present;
            }
        }
        assert!(ever_absent.iter().all(|&b| b));
    }

    #[test]
    fn seeded_failure_matches_probability_and_is_pure() {
        let g = generators::complete(8); // 28 edges
        let spec = SeededEdgeFailure { p: 0.25, seed: 9 };
        let mut v = spec.view(&g);
        let r7 = presence_map(&g, &mut v, 7);
        let _ = presence_map(&g, &mut v, 123);
        assert_eq!(presence_map(&g, &mut v, 7), r7, "pure in the round");
        let mut absent = 0u64;
        let mut total = 0u64;
        for round in 0..200 {
            let m = presence_map(&g, &mut v, round);
            absent += m.iter().filter(|&&b| !b).count() as u64;
            total += m.len() as u64;
        }
        let rate = absent as f64 / total as f64;
        assert!((rate - 0.25).abs() < 0.02, "empirical failure rate {rate}");
        // Extremes.
        let mut none = SeededEdgeFailure { p: 0.0, seed: 9 }.view(&g);
        assert!(presence_map(&g, &mut none, 3).iter().all(|&b| b));
        let mut all = SeededEdgeFailure { p: 1.0, seed: 9 }.view(&g);
        assert!(presence_map(&g, &mut all, 3).iter().all(|&b| !b));
    }

    #[test]
    fn dynamic_ring_removes_exactly_one_edge_per_round() {
        let g = generators::ring(7);
        let mut v = DynamicRing { seed: 4 }.view(&g);
        let mut removed_ids = std::collections::HashSet::new();
        for round in 0..50 {
            let m = presence_map(&g, &mut v, round);
            // One undirected edge = two absent directed halves.
            assert_eq!(m.iter().filter(|&&b| !b).count(), 2, "round {round}");
            v.begin_round(round);
            removed_ids.insert(v.removed);
        }
        // The seeded adversary varies its choice over rounds.
        assert!(removed_ids.len() > 1, "adversary never moved its removal");
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn dynamic_ring_rejects_non_cycles() {
        let g = generators::path(4);
        let _ = DynamicRing { seed: 1 }.view(&g);
    }

    #[test]
    fn scripted_ring_follows_its_script_and_is_pure() {
        let g = generators::ring(5);
        let spec = ScriptedRing {
            script: vec![0, 3, ScriptedRing::KEEP_ALL].into(),
        };
        let mut v = spec.view(&g);
        // Round r removes script[r % 3]; a KEEP_ALL slot removes nothing.
        for round in 0..12 {
            let m = presence_map(&g, &mut v, round);
            let expected_absent = if round % 3 == 2 { 0 } else { 2 };
            assert_eq!(
                m.iter().filter(|&&b| !b).count(),
                expected_absent,
                "round {round}"
            );
        }
        // Pure function of the round: jumping around changes nothing (the
        // fast-forward contract).
        let r4 = presence_map(&g, &mut v, 4);
        let _ = presence_map(&g, &mut v, 1000);
        assert_eq!(presence_map(&g, &mut v, 4), r4);
    }

    #[test]
    fn scripted_ring_validity() {
        let ring = generators::ring(5);
        let keep = ScriptedRing::KEEP_ALL;
        assert!(ScriptedRing {
            script: vec![0, 4].into()
        }
        .valid_for(&ring));
        assert!(ScriptedRing {
            script: vec![keep].into()
        }
        .valid_for(&ring));
        // Empty script, out-of-range edge id, non-cycle base: all invalid.
        assert!(!ScriptedRing {
            script: vec![].into()
        }
        .valid_for(&ring));
        assert!(!ScriptedRing {
            script: vec![5].into()
        }
        .valid_for(&ring));
        assert!(!ScriptedRing {
            script: vec![0].into()
        }
        .valid_for(&generators::path(4)));
        let spec = TopologySpec::Scripted(ScriptedRing {
            script: vec![0].into(),
        });
        assert!(spec.compatible_with(&ring));
        assert!(!spec.compatible_with(&generators::path(4)));
        assert!(!spec.is_static());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 128,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The branch-free scan agrees with the per-slot definition on
        /// scripts built from the boundary values around the edge count,
        /// empty scripts included, over cycle and non-cycle bases.
        #[test]
        fn scripted_validity_is_the_per_slot_rule(
            family in 0usize..generators::Family::all().len(),
            n in 3u32..12,
            picks in proptest::collection::vec((0usize..5, proptest::prelude::any::<u32>()), 0..40),
        ) {
            let graph = generators::Family::all()[family].instantiate(n, 7);
            let m = graph.edge_count() as u32;
            let script: Vec<u32> = picks
                .iter()
                .map(|&(kind, draw)| match kind {
                    0 => ScriptedRing::KEEP_ALL,
                    1 => m - 1,
                    2 => m,
                    3 => u32::MAX - 1,
                    _ => draw % m,
                })
                .collect();
            let per_slot = !script.is_empty()
                && is_cycle(&graph)
                && script
                    .iter()
                    .all(|&e| e == ScriptedRing::KEEP_ALL || (e as usize) < graph.edge_count());
            let ring = generators::ring(n);
            let on_ring = !script.is_empty()
                && script
                    .iter()
                    .all(|&e| e == ScriptedRing::KEEP_ALL || e < ring.edge_count() as u32);
            let spec = ScriptedRing { script: script.into() };
            proptest::prop_assert_eq!(spec.valid_for(&graph), per_slot);
            proptest::prop_assert_eq!(spec.valid_for(&ring), on_ring);
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn scripted_ring_rejects_invalid_scripts() {
        let _ = ScriptedRing {
            script: vec![9].into(),
        }
        .view(&generators::ring(4));
    }

    #[test]
    fn scripted_ring_short_name_is_key_safe() {
        let spec = TopologySpec::Scripted(ScriptedRing {
            script: vec![1, ScriptedRing::KEEP_ALL, 0].into(),
        });
        assert_eq!(spec.short_name(), "sring1.x.0");
        // Multi-digit ids next to keep-all slots, and a script long enough
        // to outgrow the name's initial capacity.
        let x = ScriptedRing::KEEP_ALL;
        let mixed = TopologySpec::Scripted(ScriptedRing {
            script: vec![x, 12, x, 0, 123, u32::MAX - 1, x].into(),
        });
        assert_eq!(mixed.short_name(), "sringx.12.x.0.123.4294967294.x");
        let long = TopologySpec::Scripted(ScriptedRing {
            script: [x, 12, x, 0, 123].repeat(400).into(),
        });
        let name = long.short_name();
        assert_eq!(name.len(), 5 + 400 * "x.12.x.0.123.".len() - 1);
        assert!(name.starts_with("sringx.12.x.0.123.x.12.x.0.123.x."));
        assert!(name.ends_with(".x.12.x.0.123.x.12.x.0.123"));
        assert_eq!(name.matches("x.12.x.0.123").count(), 400);
    }

    #[test]
    fn cycle_detection() {
        assert!(is_cycle(&generators::ring(3)));
        assert!(is_cycle(&generators::ring(9)));
        assert!(!is_cycle(&generators::path(4)));
        assert!(!is_cycle(&generators::complete(4)));
        assert!(!is_cycle(&generators::star(5)));
    }

    #[test]
    fn spec_view_agrees_with_concrete_views() {
        let g = generators::ring(6);
        let provider = SeededEdgeFailure { p: 0.3, seed: 11 };
        let mut concrete = provider.view(&g);
        let mut spec = TopologySpec::EdgeFailure(provider).view(&g);
        for round in [0, 1, 5, 100] {
            assert_eq!(
                presence_map(&g, &mut concrete, round),
                presence_map(&g, &mut spec, round)
            );
        }
    }

    #[test]
    fn spec_names_and_compatibility() {
        assert_eq!(TopologySpec::Static.short_name(), "static");
        assert!(TopologySpec::Static.is_static());
        assert_eq!(
            TopologySpec::Periodic(PeriodicEdges {
                period: 7,
                offset: 0
            })
            .short_name(),
            "per7.0"
        );
        assert_eq!(
            TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.1, seed: 9 }).short_name(),
            "ef100@9"
        );
        let dring = TopologySpec::Ring(DynamicRing { seed: 9 });
        assert_eq!(dring.short_name(), "dring@9");
        assert!(dring.compatible_with(&generators::ring(5)));
        assert!(!dring.compatible_with(&generators::path(5)));
        assert!(TopologySpec::Static.compatible_with(&generators::path(5)));
    }
}
