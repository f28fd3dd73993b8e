//! The four workloads: their inputs, one untraced pass of each, and the
//! output checks every pass runs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nochatter_core::unknown::{run_unknown, EstMode, SliceEnumeration};
use nochatter_graph::{generators, InitialConfiguration, Label, NodeId};
use nochatter_lab::{
    engine_fingerprint, presets, run_campaign_cached, run_search_with, Campaign, CampaignReport,
    SearchReport, SearchSpec, Store,
};
use nochatter_sim::WakeSchedule;

use crate::pins;

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `experiments campaign`: the full demo campaign against a fresh store.
    CampaignDemo,
    /// `experiments hunt`: the full hunt preset.
    Hunt,
    /// The late-outage hunt, where most evaluations fork.
    HuntLate,
    /// The `unknown_network` example: one unknown-bound run.
    UnknownNetwork,
}

/// Every workload, in the order the benchmark documents them.
pub const ALL: [Workload; 4] = [
    Workload::CampaignDemo,
    Workload::Hunt,
    Workload::HuntLate,
    Workload::UnknownNetwork,
];

/// How many input sets a seeded workload has; each has a pinned digest.
pub const INPUT_SETS: u64 = 64;

/// How many input sets one run of a seeded workload cycles through:
/// `--seed n` selects sets `n, n + 1, ...` (modulo [`INPUT_SETS`]), so a
/// run's figures average over many instance draws instead of one.
pub const WINDOW: u64 = 8;

impl Workload {
    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in the pin table.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignDemo => "campaign-demo",
            Workload::Hunt => "hunt",
            Workload::HuntLate => "hunt-late",
            Workload::UnknownNetwork => "unknown-network",
        }
    }

    /// What one operation of the workload is.
    pub fn op_unit(self) -> &'static str {
        match self {
            Workload::CampaignDemo => "cells",
            Workload::Hunt | Workload::HuntLate => "evaluations",
            Workload::UnknownNetwork => "runs",
        }
    }

    /// Whether the seed changes the workload's inputs. The late-outage
    /// windows are tuned to the preset's own seed and the example has
    /// none, so those two workloads have one input set.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::CampaignDemo | Workload::Hunt)
    }

    /// The input sets `--seed seed` selects, in the order a run cycles
    /// through them.
    pub fn input_sets(self, seed: u64) -> Vec<u64> {
        if self.seeded() {
            (0..WINDOW)
                .map(|j| seed.wrapping_add(j) % INPUT_SETS)
                .collect()
        } else {
            vec![0]
        }
    }
}

/// What one pass produced and how it fared.
pub struct Pass {
    /// Wall time of the pass, output checks excluded.
    pub wall: Duration,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that actually executed (cache misses).
    pub executed: u64,
    /// Operations that failed, including every operation of a pass whose
    /// reports differ from the pinned digest.
    pub failed: u64,
    /// The deterministic JSON report followed by the CSV report (empty for
    /// `unknown-network`, which has none).
    pub reports: String,
}

/// Per-process scratch space for result stores, under the build directory
/// of the checkout; removed on drop.
pub struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    /// A fresh work directory for this process.
    pub fn new() -> WorkDir {
        let root = PathBuf::from(".bench_build")
            .join("perfbench-work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        WorkDir { root, next: 0 }
    }

    /// A store directory no store has used yet.
    pub fn fresh_store_dir(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("store-{}", self.next))
    }

    /// Removes a store directory once its pass is over.
    pub fn discard(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The demo campaign under `seed` (matrix expansion plus graph and
/// configuration instantiation).
pub fn demo_campaign(seed: u64) -> Campaign {
    presets::demo_matrix(false)
        .campaign("demo", seed)
        .expect("the demo matrix is well-formed")
}

/// The search spec of a hunt workload.
pub fn hunt_spec(workload: Workload, seed: u64) -> SearchSpec {
    match workload {
        Workload::Hunt => presets::hunt_spec_seeded(false, seed),
        Workload::HuntLate => presets::late_outage_spec(64),
        _ => unreachable!("{} is not a hunt", workload.name()),
    }
}

/// The `unknown_network` example's inputs: the true configuration (ring 3,
/// labels 2 and 5) and the enumeration with one decoy before it.
pub fn unknown_inputs() -> (InitialConfiguration, Arc<SliceEnumeration>) {
    let label = |v| Label::new(v).expect("labels are positive");
    let config = |a, b| {
        InitialConfiguration::new(
            generators::ring(3),
            vec![(label(a), NodeId::new(0)), (label(b), NodeId::new(1))],
        )
        .expect("the example's configurations are valid")
    };
    let truth = config(2, 5);
    let omega = SliceEnumeration::new(vec![config(1, 3), truth.clone()]);
    (truth, omega)
}

/// The example's estimation mode.
pub const UNKNOWN_MODE: EstMode = EstMode::Conservative;

/// The example's wake schedule.
pub fn unknown_wake() -> WakeSchedule {
    WakeSchedule::Staggered { gap: 5 }
}

/// The one-time work before the first pass: the engine fingerprint and a
/// store (campaign only), and the first construction of every input set.
pub fn setup(workload: Workload, sets: &[u64], work: &mut WorkDir) -> Duration {
    let start = Instant::now();
    let mut store_dir = None;
    if workload == Workload::CampaignDemo {
        std::hint::black_box(engine_fingerprint());
        let dir = work.fresh_store_dir();
        std::hint::black_box(Store::open(&dir).expect("a fresh store opens"));
        store_dir = Some(dir);
    }
    for &seed in sets {
        match workload {
            Workload::CampaignDemo => {
                std::hint::black_box(demo_campaign(seed));
            }
            Workload::Hunt | Workload::HuntLate => {
                std::hint::black_box(hunt_spec(workload, seed));
            }
            Workload::UnknownNetwork => {
                std::hint::black_box(unknown_inputs());
            }
        }
    }
    let elapsed = start.elapsed();
    if let Some(dir) = store_dir {
        work.discard(&dir);
    }
    elapsed
}

/// Whether a record status is a harness failure rather than a result.
/// Dynamic cells that fail validation and falsified witnesses are results.
pub fn is_failure(status: &str) -> bool {
    ["panic", "engine error", "unsupported"]
        .iter()
        .any(|prefix| status.starts_with(prefix))
}

/// The deterministic JSON and CSV reports joined, and the byte count of
/// everything the CLI serializes (the trajectory artifact included).
pub fn serialized(json: String, csv: String, trajectory: String) -> (String, usize) {
    let bytes = json.len() + csv.len() + std::hint::black_box(trajectory).len();
    (json + &csv, bytes)
}

/// Operations of a campaign pass: cells, misses, harness failures.
pub fn campaign_ops(report: &CampaignReport) -> (u64, u64, u64) {
    let ops = report.records.len() as u64;
    let executed = report.cache.map_or(ops, |c| c.misses);
    let failed = report
        .records
        .iter()
        .filter(|r| is_failure(&r.status))
        .count() as u64;
    (ops, executed, failed)
}

/// Operations of a hunt pass: evaluations, all executed (no store), and
/// every evaluation of an instance whose witness is a harness failure.
pub fn search_ops(report: &SearchReport) -> (u64, u64, u64) {
    let ops = report.total_evaluations();
    let failed = report
        .outcomes
        .iter()
        .filter(|o| is_failure(&o.record.status))
        .map(|o| o.evaluations.max(1))
        .sum();
    (ops, ops, failed)
}

/// Checks an `unknown_network` run the way the example does: gathering is
/// valid, and every agent accepted hypothesis 2 and learned size 3.
pub fn unknown_run_ok(result: &nochatter_core::unknown::UnknownRunResult) -> bool {
    let (outcome, reports) = result;
    outcome.gathering().is_ok()
        && !reports.is_empty()
        && reports
            .iter()
            .all(|(_, r)| r.as_ref().is_some_and(|r| r.hypothesis == 2 && r.size == 3))
}

/// One untraced pass: exactly what the shipped entry point does, timed
/// from input construction to serialized reports.
pub fn pass(workload: Workload, seed: u64, work: &mut WorkDir) -> Pass {
    match workload {
        Workload::CampaignDemo => {
            let dir = work.fresh_store_dir();
            let start = Instant::now();
            let campaign = demo_campaign(seed);
            let store = Store::open(&dir).expect("a fresh store opens");
            let report = run_campaign_cached(&campaign, 1, Some(&store));
            let (reports, _) =
                serialized(report.to_json(), report.to_csv(), report.trajectory_json());
            let wall = start.elapsed();
            drop(store);
            work.discard(&dir);
            let (ops, executed, failed) = campaign_ops(&report);
            Pass {
                wall,
                ops,
                executed,
                failed,
                reports,
            }
        }
        Workload::Hunt | Workload::HuntLate => {
            let start = Instant::now();
            let spec = hunt_spec(workload, seed);
            let report = run_search_with(&spec, 1, None, true);
            let (reports, _) =
                serialized(report.to_json(), report.to_csv(), report.trajectory_json());
            let wall = start.elapsed();
            let (ops, executed, failed) = search_ops(&report);
            Pass {
                wall,
                ops,
                executed,
                failed,
                reports,
            }
        }
        Workload::UnknownNetwork => {
            let start = Instant::now();
            let (truth, omega) = unknown_inputs();
            let result = run_unknown(&truth, omega, UNKNOWN_MODE, unknown_wake());
            let gathered = result.as_ref().map(|(outcome, _)| outcome.gathering());
            let wall = start.elapsed();
            std::hint::black_box(gathered.ok());
            let ok = result.as_ref().is_ok_and(unknown_run_ok);
            Pass {
                wall,
                ops: 1,
                executed: 1,
                failed: u64::from(!ok),
                reports: String::new(),
            }
        }
    }
}

/// FNV-1a over the report bytes.
pub fn digest(reports: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in reports.as_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Compares a pass's reports with the pinned digest of its workload and
/// input set; on a mismatch (or a missing pin) every operation of the pass
/// fails. `unknown-network` has no reports: its run checks stand instead.
pub fn check_reports(workload: Workload, input_seed: u64, pass: &mut Pass) {
    if workload == Workload::UnknownNetwork {
        return;
    }
    if pins::lookup(workload.name(), input_seed) != Some(digest(&pass.reports)) {
        pass.failed = pass.ops;
    }
}
