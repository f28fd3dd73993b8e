//! Deterministic gathering, leader election and gossiping **without
//! chatter** — the algorithms of Bouchard, Dieudonné & Pelc, *Want to
//! Gather? No Need to Chatter!* (PODC 2020).
//!
//! Labeled mobile agents, starting from different nodes of an unknown
//! anonymous network at adversarially chosen times, must all meet at one
//! node and know it — while the only thing an agent can sense about its
//! companions is *how many* share its node (`CurCard`). No messages, no
//! label reading, no marks. This crate implements the paper's full stack:
//!
//! * [`Communicate`] — transmitting binary strings through movement alone
//!   (Algorithm 4, Lemma 3.1);
//! * [`GatherKnownUpperBound`] — gathering + leader election given an upper
//!   bound `N` on the network size, in time polynomial in `N` and the
//!   smallest label length (Algorithm 3, Theorem 3.1);
//! * [`GatherUnknownUpperBound`] — gathering + leader election + exact size
//!   learning with *no prior knowledge at all*, by enumerating hypothetical
//!   initial configurations (Algorithms 5–11, Theorem 4.1; exponential by
//!   design — a feasibility result);
//! * [`Gossip`] / [`GossipKnownUpperBound`] — every agent learns every
//!   agent's message (Algorithm 12, Theorem 5.1);
//! * the traditional-model baseline ([`CommMode::Talking`]) used to measure
//!   the price of silence.
//!
//! # Quickstart
//!
//! ```
//! use nochatter_core::{harness, CommMode, KnownSetup};
//! use nochatter_graph::{generators, InitialConfiguration, Label, NodeId};
//! use nochatter_sim::WakeSchedule;
//!
//! // Three agents on a 5-ring, knowing only that the network has at most
//! // 6 nodes.
//! let cfg = InitialConfiguration::new(
//!     generators::ring(5),
//!     vec![
//!         (Label::new(2).unwrap(), NodeId::new(0)),
//!         (Label::new(5).unwrap(), NodeId::new(2)),
//!         (Label::new(9).unwrap(), NodeId::new(3)),
//!     ],
//! )?;
//! let setup = KnownSetup::for_configuration(&cfg, 6, 42);
//! let outcome = harness::run_known(
//!     &cfg,
//!     &setup,
//!     CommMode::Silent,
//!     WakeSchedule::Staggered { gap: 11 },
//! )?;
//! let report = outcome.gathering().expect("all gathered, same node & round");
//! assert!(cfg.contains_label(report.leader.unwrap()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod communicate;
mod gossip;
mod known;
mod params;

pub mod harness;
pub mod unknown;

pub use codec::BitStr;
pub use communicate::{Communicate, CommunicateOutcome};
pub use gossip::{
    Gossip, GossipKnownUpperBound, GossipOutcome, GossipReport, GossipUnknownUpperBound,
    UnknownGossipReport,
};
pub use harness::KnownSetup;
pub use known::{CommMode, GatherKnownUpperBound};
pub use params::KnownParams;
pub use unknown::GatherUnknownUpperBound;
