//! # nochatter-lab
//!
//! Declarative scenario campaigns for the *Want to Gather? No Need to
//! Chatter!* reproduction: describe a cartesian matrix of graph family ×
//! size × team × wake schedule × dynamism (round-varying topology) ×
//! sensing mode × algorithm variant × seed repetition, shard it across a
//! worker pool, and collect structured per-scenario records into
//! deterministic JSON/CSV reports.
//!
//! Three properties make the subsystem useful beyond convenience:
//!
//! * **Reproducibility regardless of parallelism.** Every scenario's RNG
//!   seed derives from the campaign seed and the scenario key's *instance
//!   sub-key* (not its index or its worker), and records are collected in
//!   key order — so a 1-worker run and an 8-worker run produce
//!   byte-identical reports, and golden files diff cleanly in CI. Cells
//!   differing only in execution axes (wake, dynamism, mode, variant)
//!   share one seed, hence one graph instance and one exploration setup.
//! * **One execution path.** Scenarios run through
//!   `nochatter_core::harness::run_scenario` (and its gossip/unknown
//!   siblings), the same entry point the bench tables, the differential
//!   tests and the examples use.
//! * **Differential testing for free.** Because silent and talking runs of
//!   the same cell differ only in the `mode` axis, asserting the paper's
//!   "polynomial price of silence" is a lookup over a report, not a
//!   bespoke harness.
//!
//! # Example
//!
//! ```
//! use nochatter_graph::generators::Family;
//! use nochatter_lab::{run_campaign, Matrix};
//! use nochatter_core::CommMode;
//!
//! let campaign = Matrix {
//!     families: vec![Family::Ring, Family::Grid],
//!     sizes: vec![4, 6],
//!     teams: vec![vec![2, 3]],
//!     modes: vec![CommMode::Silent, CommMode::Talking],
//!     ..Matrix::new()
//! }
//! .campaign("doc", 7)?;
//! let report = run_campaign(&campaign, 2);
//! assert_eq!(report.ok_count(), campaign.len());
//! println!("{}", report.to_json());
//! # Ok::<(), nochatter_lab::CampaignError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod record;
mod report;
mod runner;
mod sched;
mod search;
mod store;

pub mod presets;

pub use campaign::{
    mode_name, scenario_seed, spread, wake_name, Campaign, CampaignError, Matrix, PayloadScheme,
    Scenario, ScenarioKind,
};
pub use record::{trace_digest, RunRecord, ScenarioKey};
pub use report::{CampaignArtifacts, CampaignReport};
pub use runner::{
    default_workers, execute_scenario, execute_scenario_with_scratch, run_campaign,
    run_campaign_cached, TRACE_CAPACITY,
};
pub use search::{
    run_search, run_search_cached, run_search_with, AdversarySpace, Objective, SearchArtifacts,
    SearchOutcome, SearchReport, SearchSpec,
};
pub use store::{
    engine_fingerprint, raw_fingerprint, scenario_fingerprint, CacheStats, Store, StoreStats,
    STORE_FORMAT_VERSION,
};
