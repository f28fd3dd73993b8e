//! Exploration substrate: universal exploration sequences and the paper's
//! `EXPLO(N)` procedure.
//!
//! The gathering algorithms of *Want to Gather? No Need to Chatter!* treat
//! graph exploration as a black box with a precise contract (paper §2):
//! `EXPLO(N)` visits every node of any graph of size at most `N` from any
//! start node during its *effective* half, then retraces its steps during
//! the *backtrack* half, taking exactly `T(EXPLO(N))` rounds in total — the
//! same number for every agent, because all agents follow the same
//! *universal exploration sequence* (UXS).
//!
//! The paper cites Reingold's log-space construction for the existence of
//! polynomial UXS. Reproducing that construction is neither practical nor
//! necessary: what the algorithms consume is the *contract* — cover every
//! node of every graph they can meet, from every start, in a fixed number
//! of rounds — and a sequence that is checked against those graphs meets
//! it as well as a universal one would. This crate provides it two ways,
//! each pinned by `tests/exploration.rs` (coverage of random graphs of
//! every family, return to the start, exact duration):
//!
//! * [`Uxs::exhaustive_universal`] — a sequence verified against **every**
//!   connected port-labeled graph of size `<= n` (exhaustively enumerated),
//!   i.e. a genuine universal exploration sequence for that size class;
//! * [`Uxs::covering`] — a sequence greedily grown and *certified* to cover
//!   a given corpus of graphs from every start node, for sizes where
//!   exhaustive enumeration is out of reach.
//!
//! Both are deterministic in their seed, so every agent derives the same
//! sequence — exactly as if it were hardwired in the algorithm.
//!
//! # Example
//!
//! ```
//! use nochatter_explore::Uxs;
//! use nochatter_graph::{generators, NodeId};
//!
//! let corpus = vec![generators::ring(6), generators::torus(3, 3)];
//! let uxs = Uxs::covering(&corpus, 7).unwrap();
//! for g in &corpus {
//!     for start in g.nodes() {
//!         assert!(uxs.covers(g, start));
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explo;
mod uxs;

pub use explo::{Explo, ExploOutcome};
pub use uxs::{Uxs, UxsError};
