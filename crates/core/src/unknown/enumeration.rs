//! Enumerations of initial configurations — the `Ω = (φ_1, φ_2, ...)` of
//! paper §4.2.
//!
//! The unknown-upper-bound algorithm tests hypotheses "the initial
//! configuration is `φ_h`" for `h = 1, 2, 3, ...` against a fixed recursive
//! enumeration of all initial configurations, shared by every agent. The
//! algorithm is agnostic to *which* enumeration is used; what matters is
//! that it is fixed, deterministic and eventually contains the true
//! configuration.
//!
//! Two implementations:
//!
//! * [`SliceEnumeration`] — an explicit finite prefix, which is what tests
//!   and benchmarks use so the true configuration sits at a controlled
//!   index (the faithful dovetailed enumeration puts interesting
//!   configurations astronomically deep, and the algorithm's running time
//!   is exponential in the index, as
//!   `tests/unknown_bound.rs::time_grows_exponentially_with_hypothesis_index`
//!   measures);
//! * [`ExhaustiveEnumeration`] — a genuine enumeration of *every*
//!   configuration up to a size and label horizon, ordered by (size, graph,
//!   agents, labels), demonstrating the faithful construction.

use std::fmt;
use std::sync::Arc;

use nochatter_graph::{enumerate, InitialConfiguration, Label, NodeId};

/// A fixed, shared enumeration of initial configurations (1-based, as in
/// the paper).
pub trait ConfigEnumeration: fmt::Debug + Send + Sync {
    /// How many configurations are materialized. The paper's enumeration is
    /// infinite; a finite horizon simply bounds how many hypotheses can be
    /// processed (the algorithm must find the true configuration within the
    /// horizon).
    fn len(&self) -> usize;

    /// Whether the enumeration is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `h`-th configuration `φ_h`.
    ///
    /// # Panics
    ///
    /// Panics if `h == 0` or `h > len()`.
    fn get(&self, h: usize) -> &InitialConfiguration;
}

/// An explicit finite prefix of an enumeration.
#[derive(Clone, Debug)]
pub struct SliceEnumeration {
    configs: Vec<InitialConfiguration>,
}

impl SliceEnumeration {
    /// Wraps the given configurations in order.
    pub fn new(configs: Vec<InitialConfiguration>) -> Arc<Self> {
        Arc::new(SliceEnumeration { configs })
    }
}

impl ConfigEnumeration for SliceEnumeration {
    fn len(&self) -> usize {
        self.configs.len()
    }

    fn get(&self, h: usize) -> &InitialConfiguration {
        assert!(h >= 1 && h <= self.configs.len(), "hypothesis out of range");
        &self.configs[h - 1]
    }
}

/// The faithful enumeration: every initial configuration over every
/// connected port-labeled graph of size `2..=max_n`, every agent subset of
/// size `>= 2`, and every assignment of distinct labels from `1..=max_label`
/// — ordered by (size, graph index, start-node set, label assignment).
///
/// # Example
///
/// ```
/// use nochatter_core::unknown::{ConfigEnumeration, ExhaustiveEnumeration};
///
/// let omega = ExhaustiveEnumeration::new(2, 2);
/// // One 2-node graph, one node pair, labels {1,2} in 2 orders.
/// assert_eq!(omega.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ExhaustiveEnumeration {
    configs: Vec<InitialConfiguration>,
}

impl ExhaustiveEnumeration {
    /// Materializes the enumeration up to the given horizons.
    ///
    /// # Panics
    ///
    /// Panics if `max_n < 2`, `max_n` exceeds the exhaustive-enumeration
    /// cap, or `max_label < 2`.
    pub fn new(max_n: u32, max_label: u64) -> Arc<Self> {
        assert!(max_n >= 2, "configurations need at least 2 nodes");
        assert!(max_label >= 2, "need at least two distinct labels");
        let mut configs = Vec::new();
        for n in 2..=max_n {
            for graph in enumerate::connected_graphs(n) {
                for subset_mask in 1u32..(1 << n) {
                    let nodes: Vec<NodeId> = (0..n)
                        .filter(|&v| subset_mask >> v & 1 == 1)
                        .map(NodeId::new)
                        .collect();
                    if nodes.len() < 2 {
                        continue;
                    }
                    let mut assignment = vec![0u64; nodes.len()];
                    enumerate_labels(&mut assignment, 0, max_label, &mut |labels| {
                        let agents: Vec<(Label, NodeId)> = labels
                            .iter()
                            .zip(&nodes)
                            .map(|(&l, &v)| (Label::new(l).expect("positive"), v))
                            .collect();
                        configs.push(
                            InitialConfiguration::new(graph.clone(), agents)
                                .expect("constructed configuration is valid"),
                        );
                    });
                }
            }
        }
        Arc::new(ExhaustiveEnumeration { configs })
    }
}

/// Enumerates assignments of distinct labels `1..=max` to positions
/// `idx..`, in lexicographic order, invoking `f` on each complete one.
fn enumerate_labels(assignment: &mut Vec<u64>, idx: usize, max: u64, f: &mut impl FnMut(&[u64])) {
    if idx == assignment.len() {
        f(assignment);
        return;
    }
    for l in 1..=max {
        if assignment[..idx].contains(&l) {
            continue;
        }
        assignment[idx] = l;
        enumerate_labels(assignment, idx + 1, max, f);
    }
}

impl ConfigEnumeration for ExhaustiveEnumeration {
    fn len(&self) -> usize {
        self.configs.len()
    }

    fn get(&self, h: usize) -> &InitialConfiguration {
        assert!(h >= 1 && h <= self.configs.len(), "hypothesis out of range");
        &self.configs[h - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nochatter_graph::generators;

    #[test]
    fn slice_is_one_based() {
        let cfg = InitialConfiguration::new(
            generators::path(2),
            vec![
                (Label::new(1).unwrap(), NodeId::new(0)),
                (Label::new(2).unwrap(), NodeId::new(1)),
            ],
        )
        .unwrap();
        let omega = SliceEnumeration::new(vec![cfg.clone()]);
        assert_eq!(omega.len(), 1);
        assert_eq!(omega.get(1), &cfg);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_rejects_zero_index() {
        let cfg = InitialConfiguration::new(
            generators::path(2),
            vec![
                (Label::new(1).unwrap(), NodeId::new(0)),
                (Label::new(2).unwrap(), NodeId::new(1)),
            ],
        )
        .unwrap();
        SliceEnumeration::new(vec![cfg]).get(0);
    }

    #[test]
    fn exhaustive_counts_two_nodes() {
        // n=2: 1 graph, 1 node pair, ordered label pairs from {1,2,3}:
        // 3 * 2 = 6 configurations.
        let omega = ExhaustiveEnumeration::new(2, 3);
        assert_eq!(omega.len(), 6);
        for h in 1..=omega.len() {
            assert_eq!(omega.get(h).size(), 2);
            assert_eq!(omega.get(h).agent_count(), 2);
        }
    }

    #[test]
    fn exhaustive_contains_given_configuration() {
        let omega = ExhaustiveEnumeration::new(3, 2);
        // Find a 3-ring configuration with labels {1,2}: must exist.
        let found = (1..=omega.len()).any(|h| {
            let c = omega.get(h);
            c.size() == 3 && c.graph().edge_count() == 3 && c.agent_count() == 2
        });
        assert!(found);
        // And all sizes 2..=3 appear.
        assert!((1..=omega.len()).any(|h| omega.get(h).size() == 2));
    }

    #[test]
    fn exhaustive_is_deterministic() {
        let a = ExhaustiveEnumeration::new(3, 2);
        let b = ExhaustiveEnumeration::new(3, 2);
        assert_eq!(a.len(), b.len());
        for h in 1..=a.len() {
            assert_eq!(a.get(h), b.get(h));
        }
    }
}
