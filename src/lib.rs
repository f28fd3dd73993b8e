//! # nochatter
//!
//! *Want to gather? No need to chatter!* — a faithful, tested Rust
//! implementation of the deterministic gathering, leader-election and
//! gossiping algorithms of Bouchard, Dieudonné & Pelc (PODC 2020,
//! arXiv:1908.11402), together with the full simulation substrate they run
//! on.
//!
//! A team of labeled mobile agents starts from different nodes of an
//! unknown anonymous network, woken at adversarially chosen times. Agents
//! move synchronously along port-numbered edges, and the *only* thing an
//! agent can sense about its companions is **how many** currently share
//! its node. No messages, no visible labels, no marking. The paper — and
//! this library — shows that even so, the agents can gather at one node
//! and know it, elect a leader, and even solve full gossiping by encoding
//! bits into choreographed movement.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | anonymous port-labeled graphs, generators, initial configurations, exhaustive small-graph enumeration |
//! | [`sim`] | the synchronous execution engine: observations, wake schedules, declarations, the `Procedure` framework |
//! | [`explore`] | universal exploration sequences and `EXPLO(N)` |
//! | [`rendezvous`] | the label-schedule rendezvous `TZ(L)` |
//! | [`core`] | the paper's algorithms: `Communicate`, `GatherKnownUpperBound`, `GatherUnknownUpperBound`, `Gossip`, and the talking-model baseline |
//!
//! ## Quickstart
//!
//! ```
//! use nochatter::core::{harness, CommMode, KnownSetup};
//! use nochatter::graph::{generators, InitialConfiguration, Label, NodeId};
//! use nochatter::sim::WakeSchedule;
//!
//! let cfg = InitialConfiguration::new(
//!     generators::ring(5),
//!     vec![
//!         (Label::new(6).unwrap(), NodeId::new(0)),
//!         (Label::new(11).unwrap(), NodeId::new(3)),
//!     ],
//! )?;
//! let setup = KnownSetup::for_configuration(&cfg, 8, 7);
//! let outcome = harness::run_known(
//!     &cfg,
//!     &setup,
//!     CommMode::Silent,
//!     WakeSchedule::FirstOnly,
//! )?;
//! let report = outcome.gathering()?;
//! println!(
//!     "gathered at {} in round {} — leader {}",
//!     report.node,
//!     report.round,
//!     report.leader.unwrap(),
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios, and the README for the crate
//! map, the architecture notes and the experiment commands. Each
//! substitution of a construction of the paper is argued in the docs of
//! the module that makes it: the exploration sequences in
//! `nochatter_explore`, the TZ label schedule in `nochatter_rendezvous`,
//! and `EST+`, the position oracle, the calibrated schedule and the
//! enumeration in `nochatter_core::unknown`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nochatter_core as core;
pub use nochatter_explore as explore;
pub use nochatter_graph as graph;
pub use nochatter_rendezvous as rendezvous;
pub use nochatter_sim as sim;
