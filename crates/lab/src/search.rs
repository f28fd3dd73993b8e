//! The adversary-search harness: a budgeted falsifier that hunts
//! worst-case scenarios instead of sweeping an oblivious grid.
//!
//! The campaign runner evaluates a fixed matrix of adversaries; this
//! module turns the same machinery into an *optimizer*. An
//! [`AdversarySpace`] declares, per instance, the discrete choices the
//! adversary controls — one wake offset per agent, one crash round per
//! crashable agent, one removed edge per script slot of a
//! [`ScriptedRing`](nochatter_sim::ScriptedRing) — and the search walks
//! that space with seeded random sampling plus greedy one-mutation local
//! search, maximizing an [`Objective`] (make the algorithm fail, or make
//! it slow). The best candidate found becomes the instance's *witness*:
//! a fully replayable [`Scenario`] whose key names the exact adversary.
//!
//! Three design rules keep the falsifier honest:
//!
//! * **Every candidate is a pure-function-of-round spec.** The search
//!   only ever emits `WakeSchedule::Explicit`, `FaultSpec::CrashAt` and
//!   `TopologySpec::Scripted` — declarative adversaries the engine
//!   resolves before the run, so determinism and the quiescence
//!   fast-forward survive, and any witness replays bit for bit through
//!   the ordinary solo [`execute_scenario`](crate::execute_scenario)
//!   path.
//! * **Candidates share their prefixes.** Candidates of one instance
//!   share the base configuration and seed, and a one-mutation neighbor
//!   of the incumbent runs *identically* to it up to a spec-derived
//!   *divergence round*. With forking on (the default), the search keeps
//!   a bounded checkpoint ladder along the incumbent's trajectory and
//!   resumes each candidate from the deepest sound rung — or clones the
//!   incumbent's outcome outright when the candidate diverges only after
//!   the run already ended — instead of replaying the shared prefix.
//!   With forking off (`NOCHATTER_NO_FORK`, `--no-fork`), each candidate
//!   runs from scratch through the campaign runner's solo path.
//! * **Determinism at any worker count, fork mode and cache state.** The
//!   per-instance search is sequential and seeded from the instance's
//!   derived seed; instances shard over the work-stealing scheduler with
//!   index-ordered result slots; forked and from-scratch evaluation are
//!   bitwise interchangeable. Same spec + budget ⇒ byte-identical
//!   [`SearchReport`] JSON and CSV for any worker count, with forking on
//!   or off, cold or warm.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nochatter_core::harness::{GatherScenario, ScenarioCheckpoint, ScenarioRun};
use nochatter_core::KnownSetup;
use nochatter_graph::rng::derive_seed;
use nochatter_graph::Label;
use nochatter_sim::{
    CrashPoint, EngineScratch, FaultSpec, RunOutcome, ScriptedRing, TopologySpec, WakeSchedule,
};

use crate::campaign::{wake_name, Scenario};
use crate::record::RunRecord;
use crate::report::{
    csv_escape, json_escape, opt_rate, record_csv_row, record_json_object, RECORD_CSV_COLUMNS,
};
use crate::runner;
use crate::sched;
use crate::store::{CacheStats, Store};

/// Salt separating the search's candidate-sampling stream from every other
/// consumer of a scenario seed.
const SALT_SEARCH: u64 = 0x5EA2C4;

/// How many random candidates a stuck search draws per kick (once the
/// incumbent's whole one-mutation neighborhood has been evaluated).
const KICK: usize = 8;

/// Checkpoint-ladder capacity per instance: when a ladder outgrows this,
/// every other rung is dropped and the capture stride doubles (dyadic
/// thinning), so memory stays bounded while coverage stays roughly
/// geometric along the incumbent's trajectory.
const LADDER_CAPACITY: usize = 24;

/// Initial ladder stride: executed engine iterations between captured
/// rungs. Doubles on every thinning pass.
const LADDER_STRIDE: u64 = 8;

/// What the falsifier maximizes, per instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Objective {
    /// Hunt outright failures: a candidate whose run executes but does
    /// not meet the gathering criterion beats every success; among
    /// failures (and among successes) more rounds rank higher. The
    /// default falsifier objective.
    Failure,
    /// Hunt slow gatherings: maximize rounds-to-gather over candidates
    /// that still succeed (failures score zero — this objective measures
    /// the adversary's *delay* power, not its kill power).
    SlowGather,
}

impl Objective {
    /// The short name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Failure => "failure",
            Objective::SlowGather => "slow-gather",
        }
    }

    /// Scores a candidate's record: a lexicographic `(rank, rounds)` pair
    /// (bigger is worse for the algorithm, i.e. better for the
    /// adversary). Records that never truly executed — preflight
    /// rejections, engine errors, panics — score `(0, 0)` under either
    /// objective: an adversary that crashes the harness has falsified
    /// nothing.
    pub fn score(self, record: &RunRecord) -> (u64, u64) {
        let executed = !(record.status.starts_with("unsupported")
            || record.status.starts_with("engine error")
            || record.status.starts_with("panic"));
        match self {
            Objective::Failure => {
                if !executed {
                    (0, 0)
                } else if record.ok {
                    (1, record.rounds)
                } else {
                    (2, record.rounds)
                }
            }
            Objective::SlowGather => {
                if executed && record.ok {
                    (1, record.rounds)
                } else {
                    (0, 0)
                }
            }
        }
    }
}

/// The discrete adversary choices of one instance, axis by axis.
///
/// A genotype is one `u32` choice index per axis, in axis order: first the
/// wake axes, then the crash axes, then the edge-script axes. Every axis
/// must offer at least one choice; an axis the space does not want to
/// perturb simply lists its single base value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversarySpace {
    /// Per-agent wake-offset choice lists, in the configuration's agent
    /// order (`u64::MAX` = never woken by the adversary, visit-only).
    /// Offsets are relative: decoding subtracts the smallest finite
    /// offset so some agent always wakes at round 0. Empty = keep the
    /// base scenario's schedule.
    pub wake_offsets: Vec<Vec<u64>>,
    /// Per-label crash-round choice lists (`u64::MAX` = never crash).
    /// Labels must be team members.
    pub crash_rounds: Vec<(Label, Vec<u64>)>,
    /// Per-slot edge-removal choice lists for a [`ScriptedRing`] script
    /// ([`ScriptedRing::KEEP_ALL`] = remove nothing that slot). Non-empty
    /// only over cycle base graphs. All-`KEEP_ALL` decodes to the static
    /// topology, so the unperturbed twin is part of the space.
    pub edge_script: Vec<Vec<u32>>,
}

impl AdversarySpace {
    /// The number of genotype axes.
    pub fn dims(&self) -> usize {
        self.wake_offsets.len() + self.crash_rounds.len() + self.edge_script.len()
    }

    /// The number of choices on axis `d` (axis order: wake, crash, edges).
    fn choices(&self, d: usize) -> usize {
        let w = self.wake_offsets.len();
        let c = self.crash_rounds.len();
        if d < w {
            self.wake_offsets[d].len()
        } else if d < w + c {
            self.crash_rounds[d - w].1.len()
        } else {
            self.edge_script[d - w - c].len()
        }
    }

    /// The total number of distinct genotypes (an upper bound on distinct
    /// candidates: wake normalization and the all-`KEEP_ALL` collapse make
    /// some genotypes decode identically).
    pub fn candidates(&self) -> u128 {
        (0..self.dims()).map(|d| self.choices(d) as u128).product()
    }

    /// Decodes a genotype into a concrete candidate scenario over `base`'s
    /// instance: same configuration, same derived seed, same algorithm —
    /// only the adversary axes (and with them the key) change.
    pub fn decode(&self, base: &Scenario, genotype: &[u32]) -> Scenario {
        assert_eq!(genotype.len(), self.dims(), "genotype covers every axis");
        let mut g = genotype.iter().map(|&c| c as usize);
        let schedule = if self.wake_offsets.is_empty() {
            base.schedule.clone()
        } else {
            let mut offsets: Vec<u64> = self
                .wake_offsets
                .iter()
                .map(|choices| choices[g.next().expect("wake axis present")])
                .collect();
            // Time is measured from the first wake-up, so the schedule is
            // only meaningful up to a shift: anchor the earliest finite
            // offset at round 0 (the engine rejects schedules without one).
            match offsets.iter().copied().filter(|&o| o != u64::MAX).min() {
                Some(min) => {
                    for o in &mut offsets {
                        if *o != u64::MAX {
                            *o -= min;
                        }
                    }
                    WakeSchedule::Explicit(offsets)
                }
                // Nobody self-wakes: not a runnable schedule; keep the
                // base one (the candidate collapses onto another point).
                None => base.schedule.clone(),
            }
        };
        let points: Vec<CrashPoint> = self
            .crash_rounds
            .iter()
            .map(|&(label, ref choices)| (label, choices[g.next().expect("crash axis present")]))
            .filter(|&(_, round)| round != u64::MAX)
            .map(|(label, round)| CrashPoint { label, round })
            .collect();
        let fault = if points.is_empty() {
            FaultSpec::None
        } else {
            FaultSpec::CrashAt(points)
        };
        let script: Vec<u32> = self
            .edge_script
            .iter()
            .map(|choices| choices[g.next().expect("edge axis present")])
            .collect();
        let topo = if script.iter().all(|&e| e == ScriptedRing::KEEP_ALL) {
            TopologySpec::Static
        } else {
            TopologySpec::Scripted(ScriptedRing { script })
        };
        let mut key = base.key.clone();
        key.wake = wake_name(&schedule);
        key.topo = topo.short_name();
        key.fault = fault.short_name();
        Scenario {
            key,
            cfg: base.cfg.clone(),
            mode: base.mode,
            schedule,
            topo,
            fault,
            kind: base.kind.clone(),
            seed: base.seed,
        }
    }
}

/// A declarative search: which instances to attack, with what adversary
/// space, under what objective and budget.
#[derive(Clone, Debug)]
pub struct SearchSpec {
    /// Search name (also the report file stem).
    pub name: String,
    /// The master seed the base scenarios were derived under (recorded in
    /// the report; candidate sampling streams derive from each instance's
    /// own scenario seed).
    pub seed: u64,
    /// Candidate evaluations per instance (the incumbent's first
    /// evaluation included). `0` behaves like `1`: the unperturbed
    /// baseline is still evaluated and recorded as the witness, with
    /// zero mutations tried.
    pub budget: u64,
    /// What the adversary maximizes.
    pub objective: Objective,
    /// The instances under attack: each base scenario (the unperturbed
    /// cell) paired with its adversary space.
    pub instances: Vec<(Scenario, AdversarySpace)>,
}

/// The best adversary one instance's search found.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The instance sub-key (`family/n…/t…/r…`) of the attacked cell.
    pub instance: String,
    /// Candidate evaluations actually spent (≤ budget; less only when the
    /// space was exhausted early).
    pub evaluations: u64,
    /// How many times a strictly better candidate replaced the incumbent.
    pub improvements: u64,
    /// The witness's objective score (`(rank, rounds)`, lexicographic).
    pub score: (u64, u64),
    /// The winning candidate, fully replayable: running this scenario
    /// through [`execute_scenario`](crate::execute_scenario) reproduces
    /// [`SearchOutcome::record`] bit for bit.
    pub witness: Scenario,
    /// The witness's measured record (key = the replayable witness key).
    pub record: RunRecord,
    /// How many of this instance's evaluations resumed from a checkpoint
    /// instead of replaying the shared prefix from scratch (0 with forking
    /// off). An execution fact: surfaced only in the trajectory artifact
    /// and the CLI summary, never in the deterministic JSON/CSV reports.
    pub forked_evals: u64,
    /// Engine iterations the resumed prefixes (and terminal
    /// short-circuits) skipped, gross — the ladder's build cost is in
    /// [`SearchOutcome::ladder_executed_rounds`], so net savings are
    /// `checkpoint_executed_rounds_saved - ladder_executed_rounds`. An
    /// execution fact, excluded from the deterministic reports.
    pub checkpoint_executed_rounds_saved: u64,
    /// Engine iterations spent building and extending the incumbent's
    /// checkpoint ladder (work forking adds that from-scratch evaluation
    /// would not do). An execution fact, excluded from the deterministic
    /// reports.
    pub ladder_executed_rounds: u64,
    /// Engine iterations actually executed across every evaluation of this
    /// instance: with forking off, the full per-run iteration counts; with
    /// forking on, resumed prefixes are excluded and ladder work included.
    /// Cache hits execute nothing. The honest per-instance work measure —
    /// byte-identical reports can hide arbitrarily different amounts of
    /// it, which is exactly why it lives outside them.
    pub executed_rounds: u64,
}

impl SearchOutcome {
    /// Whether the witness actually falsifies the algorithm: its run
    /// executed and did not meet the gathering criterion.
    pub fn is_failure(&self) -> bool {
        Objective::Failure.score(&self.record).0 == 2
    }
}

/// The collected result of one adversary search.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Search name (also the report file stem).
    pub name: String,
    /// The master seed of the spec.
    pub seed: u64,
    /// Candidate evaluations per instance.
    pub budget: u64,
    /// What the adversary maximized.
    pub objective: Objective,
    /// One outcome per instance, in spec order.
    pub outcomes: Vec<SearchOutcome>,
    /// How many worker threads executed the search (not serialized into
    /// the deterministic reports).
    pub workers: usize,
    /// Wall-clock duration of the search (not serialized into the
    /// deterministic reports).
    pub wall: Duration,
    /// Candidate-evaluation cache hit/miss counts when the search ran
    /// against a result store (`None` with caching off; not serialized
    /// into the deterministic reports).
    pub cache: Option<CacheStats>,
}

impl SearchReport {
    /// How many instances ended with a genuine failure witness.
    pub fn failure_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failure()).count()
    }

    /// Total candidate evaluations across all instances.
    pub fn total_evaluations(&self) -> u64 {
        self.outcomes.iter().map(|o| o.evaluations).sum()
    }

    /// Total evaluations that resumed from a checkpoint instead of
    /// replaying the shared prefix (0 with forking off).
    pub fn total_forked_evals(&self) -> u64 {
        self.outcomes.iter().map(|o| o.forked_evals).sum()
    }

    /// Total engine iterations the resumed prefixes skipped, gross (the
    /// ladder's build cost is [`SearchReport::total_ladder_rounds`]).
    pub fn total_rounds_saved(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.checkpoint_executed_rounds_saved)
            .sum()
    }

    /// Total engine iterations spent building checkpoint ladders.
    pub fn total_ladder_rounds(&self) -> u64 {
        self.outcomes.iter().map(|o| o.ladder_executed_rounds).sum()
    }

    /// Total engine iterations actually executed across every evaluation
    /// (resumed prefixes excluded, ladder work included) — the honest
    /// measure of simulation work the search performed.
    pub fn total_executed_rounds(&self) -> u64 {
        self.outcomes.iter().map(|o| o.executed_rounds).sum()
    }

    /// Engine iterations executed per candidate evaluation — the
    /// hardware-independent cost figure the forked path drives down.
    /// `None` when nothing was evaluated.
    pub fn executed_rounds_per_evaluation(&self) -> Option<f64> {
        let evals = self.total_evaluations();
        (evals > 0).then(|| self.total_executed_rounds() as f64 / evals as f64)
    }

    /// Candidate evaluations per wall-clock second, or `None` when the
    /// wall clock was too coarse to divide by (under one microsecond —
    /// an honest report declines instead of flooring and inflating) or any
    /// evaluation was served from the result cache (it executed nothing).
    pub fn evaluations_per_sec(&self) -> Option<f64> {
        if self.cache.is_some_and(|c| c.hits > 0) {
            return None;
        }
        let secs = self.wall.as_secs_f64();
        (secs >= 1e-6).then(|| self.total_evaluations() as f64 / secs)
    }

    /// The deterministic JSON report: search identity plus one witness
    /// object per instance, in spec order. Identical for any worker
    /// count (wall-clock time and worker count are excluded). Each
    /// witness's `record` object has the exact shape of a campaign
    /// record, so the two report kinds diff against each other cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"search\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"budget\": {},", self.budget);
        let _ = writeln!(out, "  \"objective\": \"{}\",", self.objective.name());
        let _ = writeln!(out, "  \"instance_count\": {},", self.outcomes.len());
        let _ = writeln!(out, "  \"failure_count\": {},", self.failure_count());
        let _ = writeln!(
            out,
            "  \"total_evaluations\": {},",
            self.total_evaluations()
        );
        let _ = writeln!(out, "  \"witnesses\": [");
        for (i, o) in self.outcomes.iter().enumerate() {
            let comma = if i + 1 < self.outcomes.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"instance\": \"{}\", \"evaluations\": {}, \"improvements\": {}, \
                 \"score\": [{}, {}], \"record\": {}}}{}",
                json_escape(&o.instance),
                o.evaluations,
                o.improvements,
                o.score.0,
                o.score.1,
                record_json_object(&o.record),
                comma
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// The deterministic CSV report: the search columns followed by the
    /// witness record under the campaign record columns.
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "instance,evaluations,improvements,score_rank,score_rounds,{RECORD_CSV_COLUMNS}\n"
        );
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                csv_escape(&o.instance),
                o.evaluations,
                o.improvements,
                o.score.0,
                o.score.1,
                record_csv_row(&o.record)
            );
        }
        out
    }

    /// The `BENCH_search.json` trajectory artifact: search-level aggregates
    /// plus the run's execution facts — wall-clock time, worker count,
    /// cache stats and the incremental-evaluation counters. Unlike
    /// [`SearchReport::to_json`], this file intentionally records *how*
    /// the search executed, so it differs across machines, worker counts
    /// and fork modes while the deterministic reports stay byte-identical.
    pub fn trajectory_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"search\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"budget\": {},", self.budget);
        let _ = writeln!(out, "  \"objective\": \"{}\",", self.objective.name());
        let _ = writeln!(out, "  \"instance_count\": {},", self.outcomes.len());
        let _ = writeln!(out, "  \"failure_count\": {},", self.failure_count());
        let _ = writeln!(
            out,
            "  \"total_evaluations\": {},",
            self.total_evaluations()
        );
        let _ = writeln!(out, "  \"forked_evals\": {},", self.total_forked_evals());
        let _ = writeln!(
            out,
            "  \"checkpoint_executed_rounds_saved\": {},",
            self.total_rounds_saved()
        );
        let _ = writeln!(
            out,
            "  \"ladder_executed_rounds\": {},",
            self.total_ladder_rounds()
        );
        let _ = writeln!(
            out,
            "  \"total_executed_rounds\": {},",
            self.total_executed_rounds()
        );
        let _ = writeln!(
            out,
            "  \"executed_rounds_per_evaluation\": {},",
            opt_rate(self.executed_rounds_per_evaluation())
        );
        // Cache fields appear only on cached runs, mirroring the campaign
        // trajectory's shape rules.
        if let Some(cache) = self.cache {
            let _ = writeln!(out, "  \"cache_hits\": {},", cache.hits);
            let _ = writeln!(out, "  \"cache_misses\": {},", cache.misses);
        }
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"wall_ms\": {},", self.wall.as_millis());
        let _ = writeln!(
            out,
            "  \"evaluations_per_sec\": {}",
            opt_rate(self.evaluations_per_sec())
        );
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes `<dir>/<name>.json`, `<dir>/<name>.csv` and
    /// `<dir>/BENCH_search.json`, creating `dir` if needed; returns the
    /// three paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_files(&self, dir: &Path) -> io::Result<SearchArtifacts> {
        std::fs::create_dir_all(dir)?;
        let artifacts = SearchArtifacts {
            json: dir.join(format!("{}.json", self.name)),
            csv: dir.join(format!("{}.csv", self.name)),
            trajectory: dir.join("BENCH_search.json"),
        };
        std::fs::write(&artifacts.json, self.to_json())?;
        std::fs::write(&artifacts.csv, self.to_csv())?;
        std::fs::write(&artifacts.trajectory, self.trajectory_json())?;
        Ok(artifacts)
    }
}

/// Where [`SearchReport::write_files`] put its three artifacts.
#[derive(Clone, Debug)]
pub struct SearchArtifacts {
    /// The deterministic per-witness JSON report.
    pub json: PathBuf,
    /// The deterministic per-witness CSV report.
    pub csv: PathBuf,
    /// The `BENCH_search.json` trajectory summary (execution facts).
    pub trajectory: PathBuf,
}

/// Runs the search of every instance of `spec` on `workers` threads
/// (0 = one per available core) and collects the outcomes in spec order.
///
/// The report is bit-for-bit identical for any worker count: each
/// instance's search is sequential and seeded from its own derived seed,
/// and outcomes land in index-ordered result slots regardless of which
/// worker ran them. An instance whose search panics yields a zero-score
/// outcome with a `"panic: ..."` record instead of aborting the hunt.
pub fn run_search(spec: &SearchSpec, workers: usize) -> SearchReport {
    run_search_cached(spec, workers, None)
}

/// [`run_search`] against an optional result store: every candidate a
/// search evaluates is an ordinary [`Scenario`] with a fully replayable
/// key, so its record caches exactly like a campaign cell — a warm
/// re-run of the same spec serves the whole walk from the store, and the
/// per-instance baseline cell (genotype zero) hits across presets that
/// share instances. Cached and engine-produced records are bitwise
/// identical, so the walk — and with it the deterministic reports — is
/// unchanged by the cache state.
pub fn run_search_cached(spec: &SearchSpec, workers: usize, store: Option<&Store>) -> SearchReport {
    run_search_with(spec, workers, store, fork_default())
}

/// Whether forked (checkpoint-resumed) evaluation is on by default:
/// yes, unless the `NOCHATTER_NO_FORK` environment variable is set — the
/// CI escape hatch behind the fork-on/off byte-identity check.
fn fork_default() -> bool {
    std::env::var_os("NOCHATTER_NO_FORK").is_none()
}

/// [`run_search_cached`] with explicit control over forked evaluation.
///
/// With `fork` on, each instance's search keeps a bounded ladder of
/// checkpoints along its incumbent's trajectory and evaluates candidates
/// by resuming from the deepest checkpoint at or below their *divergence
/// round* — the first round at which the candidate's adversary spec could
/// make the engine behave differently — instead of replaying the shared
/// prefix from scratch. The walk, the witnesses and the deterministic
/// JSON/CSV reports are **byte-identical** either way (pinned by tests and
/// a CI diff); only the execution-fact counters
/// ([`SearchOutcome::forked_evals`] and friends) and the wall clock
/// change.
pub fn run_search_with(
    spec: &SearchSpec,
    workers: usize,
    store: Option<&Store>,
    fork: bool,
) -> SearchReport {
    let workers = if workers == 0 {
        runner::default_workers()
    } else {
        workers
    }
    .min(spec.instances.len().max(1));
    let start = Instant::now();
    let stats_before = store.map(|s| s.stats());
    let outcomes = sched::run_sharded(
        spec.instances.len(),
        workers,
        |i, scratch| {
            let (base, space) = &spec.instances[i];
            search_instance(
                base,
                space,
                spec.objective,
                spec.budget,
                scratch,
                store,
                fork,
            )
        },
        |i, message| {
            let base = &spec.instances[i].0;
            SearchOutcome {
                instance: base.key.instance_canonical(),
                evaluations: 0,
                improvements: 0,
                score: (0, 0),
                witness: base.clone(),
                record: runner::panic_record(base, &message),
                forked_evals: 0,
                checkpoint_executed_rounds_saved: 0,
                ladder_executed_rounds: 0,
                executed_rounds: 0,
            }
        },
    );
    let cache = match (store, stats_before) {
        (Some(s), Some(before)) => {
            let after = s.stats();
            Some(CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
            })
        }
        _ => None,
    };
    SearchReport {
        name: spec.name.clone(),
        seed: spec.seed,
        budget: spec.budget,
        objective: spec.objective,
        outcomes,
        workers,
        wall: start.elapsed(),
        cache,
    }
}

/// The sequential per-instance search: greedy one-mutation local search
/// around the incumbent, with seeded random kicks once the neighborhood
/// is exhausted. Deterministic given `(base.seed, space, budget)` — the
/// `fork` flag changes execution strategy (and the execution-fact
/// counters), never the walk or the records.
#[allow(clippy::too_many_arguments)]
fn search_instance(
    base: &Scenario,
    space: &AdversarySpace,
    objective: Objective,
    budget: u64,
    scratch: &mut EngineScratch,
    store: Option<&Store>,
    fork: bool,
) -> SearchOutcome {
    let dims = space.dims();
    for d in 0..dims {
        assert!(space.choices(d) > 0, "adversary axis {d} offers no choice");
    }
    let stream = derive_seed(base.seed, &[SALT_SEARCH]);
    // Dedup on the *decoded* adversary (wake normalization and the
    // all-KEEP_ALL collapse map several genotypes onto one candidate).
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let axis_key = |s: &Scenario| format!("{}|{}|{}", s.key.wake, s.key.topo, s.key.fault);

    let mut counters = EvalCounters::default();
    let mut incumbent = vec![0u32; dims];
    let first = space.decode(base, &incumbent);
    seen.insert(axis_key(&first));
    // The baseline is a batch of one: nothing to share a prefix with yet.
    let first_record = evaluate(
        std::slice::from_ref(&first),
        scratch,
        store,
        None,
        &mut counters,
    )
    .pop()
    .expect("one candidate, one record");
    let mut evaluations = 1u64;
    let mut improvements = 0u64;
    let mut best = (objective.score(&first_record), first, first_record);
    let mut draws = 0u64;

    // A degenerate space (one candidate) or a ≤1 budget has nothing to
    // mutate: the baseline *is* the witness. Returning here instead of
    // entering the loop keeps `hunt --budget 0` and single-point spaces
    // from burning hundreds of kick draws that can only dedup away.
    if budget <= 1 || space.candidates() == 1 {
        return SearchOutcome {
            instance: base.key.instance_canonical(),
            evaluations,
            improvements,
            score: best.0,
            witness: best.1,
            record: best.2,
            forked_evals: counters.forked,
            checkpoint_executed_rounds_saved: counters.saved,
            ladder_executed_rounds: counters.ladder,
            executed_rounds: counters.executed,
        };
    }
    let mut fork_state = fork.then(|| ForkState::new(base));

    while evaluations < budget {
        let remaining = (budget - evaluations) as usize;
        // The incumbent's one-mutation neighborhood, in axis/choice order,
        // truncated at the remaining budget.
        let mut batch: Vec<(Vec<u32>, Scenario)> = Vec::new();
        'neighborhood: for d in 0..dims {
            for choice in 0..space.choices(d) as u32 {
                if choice == incumbent[d] {
                    continue;
                }
                let mut genotype = incumbent.clone();
                genotype[d] = choice;
                let candidate = space.decode(base, &genotype);
                if seen.insert(axis_key(&candidate)) {
                    batch.push((genotype, candidate));
                    if batch.len() == remaining {
                        break 'neighborhood;
                    }
                }
            }
        }
        if batch.is_empty() {
            // Neighborhood exhausted: kick to seeded random genotypes.
            let want = KICK.min(remaining);
            let mut attempts = 0usize;
            while batch.len() < want && attempts < 64 * KICK {
                attempts += 1;
                let genotype: Vec<u32> = (0..dims)
                    .map(|d| {
                        (derive_seed(stream, &[draws, d as u64]) % space.choices(d) as u64) as u32
                    })
                    .collect();
                draws += 1;
                let candidate = space.decode(base, &genotype);
                if seen.insert(axis_key(&candidate)) {
                    batch.push((genotype, candidate));
                }
            }
            if batch.is_empty() {
                break; // the whole reachable space is evaluated
            }
        }
        let candidates: Vec<Scenario> = batch.iter().map(|(_, c)| c.clone()).collect();
        let records = evaluate(
            &candidates,
            scratch,
            store,
            fork_state.as_mut().map(|state| (state, &best.1)),
            &mut counters,
        );
        evaluations += records.len() as u64;
        for ((genotype, candidate), record) in batch.into_iter().zip(records) {
            let score = objective.score(&record);
            // Strictly-greater only: ties keep the earlier candidate, so
            // the walk (and the witness) is deterministic.
            if score > best.0 {
                best = (score, candidate, record);
                incumbent = genotype;
                improvements += 1;
            }
        }
    }

    SearchOutcome {
        instance: base.key.instance_canonical(),
        evaluations,
        improvements,
        score: best.0,
        witness: best.1,
        record: best.2,
        forked_evals: counters.forked,
        checkpoint_executed_rounds_saved: counters.saved,
        ladder_executed_rounds: counters.ladder,
        executed_rounds: counters.executed,
    }
}

/// Execution-fact tallies of one instance's search (see the matching
/// [`SearchOutcome`] fields).
#[derive(Default)]
struct EvalCounters {
    forked: u64,
    saved: u64,
    ladder: u64,
    executed: u64,
}

/// The candidate [`GatherScenario`] of a decoded [`Scenario`] — the same
/// run the campaign runner executes, so the forked path measures exactly
/// what a from-scratch evaluation would.
fn gather_scenario(s: &Scenario) -> GatherScenario<'_> {
    GatherScenario {
        cfg: &s.cfg,
        mode: s.mode,
        schedule: s.schedule.clone(),
        topo: s.topo.clone(),
        fault: s.fault.clone(),
        seed: s.seed,
        trace_capacity: Some(runner::TRACE_CAPACITY),
    }
}

/// The crash adversary as a per-label first-crash-round map, when the
/// spec is declarative enough to compare round by round (`None` and
/// `CrashAt` are; a seeded adversary is not).
fn crash_map(fault: &FaultSpec) -> Option<BTreeMap<Label, u64>> {
    match fault {
        FaultSpec::None => Some(BTreeMap::new()),
        FaultSpec::CrashAt(points) => {
            let mut map = BTreeMap::new();
            for p in points {
                let round = map.entry(p.label).or_insert(u64::MAX);
                *round = (*round).min(p.round);
            }
            Some(map)
        }
        _ => None,
    }
}

/// The last round through which `candidate`'s run is guaranteed bitwise
/// identical to `incumbent`'s — so any checkpoint of the incumbent's run
/// at a round at or below it may soundly seed the candidate's.
///
/// The rule is deliberately conservative, axis by axis (the result is the
/// minimum over all contributions; `u64::MAX` when the specs are
/// identical):
///
/// * **Wake and crash rounds** consult the *fast-forward*: the engine's
///   quiescence skip at round `r` takes future wake/crash rounds into
///   its minimum, so a value differing between the two specs can change
///   skip decisions strictly before it fires. A pair differing as
///   `a ≠ b` therefore contributes `min(a, b) − 1`, not `min(a, b)`.
/// * **Edge-script slots** are never consulted by the fast-forward and a
///   slot `s` first steers round `s`, so a differing slot contributes
///   `s` itself. A scripted ring against the static topology diverges at
///   the first slot that actually removes an edge.
/// * **Shape mismatches** (different schedule variants, a seeded crash
///   adversary, unequal script lengths, an exotic topology) contribute
///   `0`: forking is then simply not attempted rather than reasoned
///   about.
fn divergence_round(incumbent: &Scenario, candidate: &Scenario) -> u64 {
    let mut div = u64::MAX;
    match (&incumbent.schedule, &candidate.schedule) {
        (a, b) if a == b => {}
        (WakeSchedule::Explicit(a), WakeSchedule::Explicit(b)) if a.len() == b.len() => {
            for (&x, &y) in a.iter().zip(b) {
                if x != y {
                    div = div.min(x.min(y).saturating_sub(1));
                }
            }
        }
        _ => return 0,
    }
    match (crash_map(&incumbent.fault), crash_map(&candidate.fault)) {
        (Some(a), Some(b)) => {
            for label in a.keys().chain(b.keys()) {
                let x = a.get(label).copied().unwrap_or(u64::MAX);
                let y = b.get(label).copied().unwrap_or(u64::MAX);
                if x != y {
                    div = div.min(x.min(y).saturating_sub(1));
                }
            }
        }
        _ => {
            if incumbent.fault != candidate.fault {
                return 0;
            }
        }
    }
    let script = |topo: &TopologySpec| match topo {
        TopologySpec::Static => Some(Vec::new()),
        TopologySpec::Scripted(ring) => Some(ring.script.clone()),
        _ => None,
    };
    match (script(&incumbent.topo), script(&candidate.topo)) {
        (Some(a), Some(b)) if a == b => {}
        (Some(a), Some(b)) if a.len() == b.len() => {
            for (s, (&x, &y)) in a.iter().zip(&b).enumerate() {
                if x != y {
                    div = div.min(s as u64);
                }
            }
        }
        // Static vs scripted: the empty script is the all-KEEP_ALL one,
        // so the first slot that removes an edge is the first divergence.
        // (A slot only steers rounds `s, s+len, …` and `s < len`, so the
        // prefix below `s` matches the static topology.)
        (Some(a), Some(b)) if a.is_empty() || b.is_empty() => {
            let scripted = if a.is_empty() { &b } else { &a };
            if let Some(s) = scripted.iter().position(|&e| e != ScriptedRing::KEEP_ALL) {
                div = div.min(s as u64);
            }
        }
        _ => {
            if incumbent.topo != candidate.topo {
                return 0;
            }
        }
    }
    div
}

/// The per-instance checkpoint ladder: a bounded set of snapshots along
/// the current incumbent's trajectory, lazily extended to the deepest
/// divergence round a batch asks for, plus the incumbent's terminal
/// outcome once the ladder has run that far (the cheapest fork of all: a
/// candidate diverging *after* the incumbent's run ended is the same run,
/// and its outcome is a clone).
struct ForkState {
    /// The instance-wide algorithm setup (shared by every candidate: same
    /// configuration, same seed ⇒ same certified parameters).
    setup: KnownSetup,
    /// Checkpoints of the incumbent's run, ascending in round.
    rungs: Vec<ScenarioCheckpoint>,
    /// Executed iterations between rung captures (doubles on thinning).
    stride: u64,
    /// The adversary the ladder currently follows.
    built_for: Option<Scenario>,
    /// The trajectory is materialized through this round (`u64::MAX` once
    /// terminal).
    covered_to: u64,
    /// The incumbent run's outcome, once the ladder stepped it to
    /// termination.
    terminal: Option<RunOutcome>,
    /// Set when forking hit a wall (a behavior declined to fork, an
    /// engine error in the ladder): evaluation falls back to from-scratch
    /// runs for the rest of this instance.
    disabled: bool,
}

impl ForkState {
    fn new(base: &Scenario) -> Self {
        ForkState {
            setup: KnownSetup::for_configuration(&base.cfg, base.cfg.size() as u32, base.seed),
            rungs: Vec::new(),
            stride: LADDER_STRIDE,
            built_for: None,
            covered_to: 0,
            terminal: None,
            disabled: false,
        }
    }

    /// Re-aims the ladder at `incumbent` (keeping every rung on the shared
    /// prefix of the old and new trajectories) and extends it through
    /// round `up_to`, charging the stepping cost to `counters`.
    fn ensure(
        &mut self,
        incumbent: &Scenario,
        up_to: u64,
        scratch: &mut EngineScratch,
        counters: &mut EvalCounters,
    ) {
        if self.disabled {
            return;
        }
        let changed = match &self.built_for {
            Some(old) => {
                old.schedule != incumbent.schedule
                    || old.fault != incumbent.fault
                    || old.topo != incumbent.topo
            }
            None => true,
        };
        if changed {
            let keep_to = match &self.built_for {
                Some(old) => divergence_round(old, incumbent),
                None => 0,
            };
            self.rungs.retain(|cp| cp.round() <= keep_to);
            match self.terminal.take() {
                // The old incumbent's run ended before the new one could
                // diverge from it: the whole trajectory carries over.
                Some(outcome) if keep_to > outcome.rounds => self.terminal = Some(outcome),
                _ => self.covered_to = self.covered_to.min(keep_to),
            }
            self.built_for = Some(incumbent.clone());
        }
        if self.terminal.is_some() || up_to <= self.covered_to {
            return;
        }
        let scenario = gather_scenario(incumbent);
        let mut run = match ScenarioRun::begin(&scenario, &self.setup, scratch) {
            Ok(run) => run,
            Err(_) => {
                self.disabled = true;
                return;
            }
        };
        let mut resumed = 0;
        if let Some(cp) = self.rungs.last() {
            if run.resume_from(cp) {
                resumed = cp.executed_rounds();
            } else {
                self.disabled = true;
                return;
            }
        }
        let mut executed = resumed;
        let mut next_capture = executed + self.stride;
        // The latest state not yet promoted to a durable rung. A step's
        // fast-forward can jump `next_round` arbitrarily far in one
        // iteration, so only a *rolling* capture guarantees a rung at the
        // deepest state still within the divergence window — a stride-only
        // scheme would routinely overshoot it and never fork anything.
        let mut pending: Option<ScenarioCheckpoint> = None;
        loop {
            if run.next_round() > up_to {
                if let Some(cp) = pending.take() {
                    self.push_rung(cp);
                }
                // The run materialized through `next_round() - 1`; keep the
                // frontier state too, so a later, deeper extension resumes
                // here instead of replaying, and mark everything below it
                // covered (no extension can add rungs beneath the frontier).
                self.covered_to = match run.checkpoint() {
                    Some(cp) => {
                        let frontier = cp.round().saturating_sub(1).max(up_to);
                        self.push_rung(cp);
                        frontier
                    }
                    None => up_to,
                };
                break;
            }
            if executed > resumed {
                match run.checkpoint() {
                    Some(cp) => {
                        if executed >= next_capture {
                            self.push_rung(cp);
                            pending = None;
                            next_capture = executed + self.stride;
                        } else {
                            pending = Some(cp);
                        }
                    }
                    None => {
                        self.disabled = true;
                        break;
                    }
                }
            }
            match run.step(scratch) {
                None => executed += 1,
                Some(Ok(outcome)) => {
                    if let Some(cp) = pending.take() {
                        self.push_rung(cp);
                    }
                    executed = outcome.engine_iterations;
                    self.terminal = Some(outcome);
                    self.covered_to = u64::MAX;
                    break;
                }
                Some(Err(_)) => {
                    self.disabled = true;
                    break;
                }
            }
        }
        counters.ladder += executed.saturating_sub(resumed);
        counters.executed += executed.saturating_sub(resumed);
    }

    /// Appends a rung, halving the ladder (and doubling the stride) when
    /// it outgrows [`LADDER_CAPACITY`]. Thinning keeps even indices, so
    /// the deepest rung always survives the length-odd overflow and the
    /// surviving rungs stay evenly spread.
    fn push_rung(&mut self, cp: ScenarioCheckpoint) {
        self.rungs.push(cp);
        if self.rungs.len() > LADDER_CAPACITY {
            let mut index = 0;
            self.rungs.retain(|_| {
                let keep = index % 2 == 0;
                index += 1;
                keep
            });
            self.stride *= 2;
        }
    }

    /// The deepest rung a candidate diverging at round `div` may resume
    /// from.
    fn deepest_for(&self, div: u64) -> Option<&ScenarioCheckpoint> {
        self.rungs.iter().rev().find(|cp| cp.round() <= div)
    }
}

/// Measures a list of same-instance candidates, with the identical
/// preflight and outcome judgment the campaign runner applies — so a
/// witness record replays bit for bit through the solo
/// [`execute_scenario`](crate::execute_scenario) path.
///
/// With a store, runnable candidates are served from the cache where
/// possible and the rest write through after execution; the returned
/// records are bitwise independent of the cache state (cached entries
/// *are* prior engine output, re-verified by key and seed), so the
/// search walk does not fork on cache hits.
///
/// With `fork` provided (and not disabled), candidates run solo through
/// [`ScenarioRun`], deepest divergence first, each resuming from the
/// deepest valid rung of the incumbent's checkpoint ladder — or, past the
/// incumbent run's end, cloning its terminal outcome outright. Records
/// land in their original slots, so the caller's selection scan (and with
/// it the walk) is order-blind to the strategy. Without `fork`, each
/// candidate runs through the campaign runner's
/// [`execute_scenario_with_scratch`](runner::execute_scenario_with_scratch).
fn evaluate(
    candidates: &[Scenario],
    scratch: &mut EngineScratch,
    store: Option<&Store>,
    fork: Option<(&mut ForkState, &Scenario)>,
    counters: &mut EvalCounters,
) -> Vec<RunRecord> {
    let mut records: Vec<RunRecord> = candidates.iter().map(runner::base_record).collect();
    let mut runnable: Vec<usize> = Vec::new();
    for (i, candidate) in candidates.iter().enumerate() {
        if runner::preflight(candidate, &mut records[i]) {
            if let Some(cached) = store.and_then(|s| s.lookup(candidate)) {
                records[i] = cached;
            } else {
                runnable.push(i);
            }
        }
    }
    if runnable.is_empty() {
        return records;
    }

    if let Some((state, incumbent)) = fork {
        if !state.disabled {
            let mut order: Vec<(usize, u64)> = runnable
                .iter()
                .map(|&i| (i, divergence_round(incumbent, &candidates[i])))
                .collect();
            let deepest = order.iter().map(|&(_, div)| div).max().unwrap_or(0);
            state.ensure(incumbent, deepest, scratch, counters);
            if !state.disabled {
                // Deepest divergence first: those candidates reuse the
                // freshest (and largest) prefixes; ties run in batch
                // order. The records still land in their original slots.
                order.sort_by_key(|&(i, div)| (Reverse(div), i));
                for (i, div) in order {
                    let candidate = &candidates[i];
                    let outcome = if let Some(terminal) =
                        state.terminal.as_ref().filter(|o| div > o.rounds)
                    {
                        // The candidate diverges only after the incumbent
                        // run's final round: same run, same outcome.
                        counters.forked += 1;
                        counters.saved += terminal.engine_iterations;
                        Ok(terminal.clone())
                    } else {
                        let scenario = gather_scenario(candidate);
                        match ScenarioRun::begin(&scenario, &state.setup, scratch) {
                            Ok(mut run) => {
                                let mut resumed = 0;
                                if let Some(cp) = state.deepest_for(div) {
                                    if run.resume_from(cp) {
                                        resumed = cp.executed_rounds();
                                    }
                                }
                                let outcome = run.finish(scratch);
                                if let Ok(o) = &outcome {
                                    counters.executed +=
                                        o.engine_iterations.saturating_sub(resumed);
                                    if resumed > 0 {
                                        counters.forked += 1;
                                        counters.saved += resumed;
                                    }
                                }
                                outcome
                            }
                            Err(e) => Err(e),
                        }
                    };
                    runner::record_outcome(&mut records[i], candidate, outcome);
                    if let Some(store) = store {
                        store.insert(candidate, &records[i]);
                    }
                }
                return records;
            }
        }
    }

    for i in runnable {
        records[i] = runner::execute_scenario_with_scratch(&candidates[i], scratch);
        counters.executed += records[i].engine_iterations;
        if let Some(store) = store {
            store.insert(&candidates[i], &records[i]);
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{scenario_seed, spread, ScenarioKind};
    use crate::record::ScenarioKey;
    use nochatter_core::CommMode;
    use nochatter_graph::generators;

    fn base_scenario() -> Scenario {
        let key = ScenarioKey {
            family: "ring".into(),
            n: 4,
            team: vec![2, 3],
            wake: "simul".into(),
            topo: "static".into(),
            fault: "none".into(),
            mode: "silent".into(),
            variant: "gather".into(),
            rep: 0,
        };
        Scenario {
            seed: scenario_seed(7, &key),
            key,
            cfg: spread(generators::ring(4), &[2, 3]).unwrap(),
            mode: CommMode::Silent,
            schedule: WakeSchedule::Simultaneous,
            topo: TopologySpec::Static,
            fault: FaultSpec::None,
            kind: ScenarioKind::Gather,
        }
    }

    fn small_space() -> AdversarySpace {
        AdversarySpace {
            wake_offsets: vec![vec![0], vec![0, 3, u64::MAX]],
            crash_rounds: vec![(Label::new(3).unwrap(), vec![u64::MAX, 16])],
            edge_script: vec![vec![ScriptedRing::KEEP_ALL, 0, 2]],
        }
    }

    #[test]
    fn genotype_zero_decodes_to_the_unperturbed_adversary() {
        let base = base_scenario();
        let space = small_space();
        let c = space.decode(&base, &[0, 0, 0, 0]);
        assert_eq!(c.schedule, WakeSchedule::Explicit(vec![0, 0]));
        assert_eq!(c.fault, FaultSpec::None);
        assert_eq!(c.topo, TopologySpec::Static);
        assert_eq!(c.key.topo, "static");
        assert_eq!(c.key.fault, "none");
        assert_eq!(c.seed, base.seed, "candidates share the instance seed");
        assert_eq!(c.cfg, base.cfg, "candidates share the instance graph");
    }

    #[test]
    fn decode_normalizes_wake_offsets_and_builds_pure_specs() {
        let base = base_scenario();
        let space = AdversarySpace {
            wake_offsets: vec![vec![5], vec![9, u64::MAX]],
            crash_rounds: vec![(Label::new(3).unwrap(), vec![u64::MAX, 16])],
            edge_script: vec![vec![ScriptedRing::KEEP_ALL, 1]],
        };
        let c = space.decode(&base, &[0, 0, 1, 1]);
        // Offsets (5, 9) anchor at the earliest finite wake: (0, 4).
        assert_eq!(c.schedule, WakeSchedule::Explicit(vec![0, 4]));
        assert_eq!(
            c.fault,
            FaultSpec::CrashAt(vec![CrashPoint {
                label: Label::new(3).unwrap(),
                round: 16,
            }])
        );
        assert_eq!(
            c.topo,
            TopologySpec::Scripted(ScriptedRing { script: vec![1] })
        );
        assert_eq!(c.key.wake, "explicit0.4");
        assert_eq!(c.key.fault, "crash3@16");
        // A schedule where nobody self-wakes is not runnable; the decode
        // collapses onto the base schedule instead.
        let dormant = space.decode(&base, &[0, 1, 0, 0]);
        // (5, MAX) still has a finite anchor; craft an all-MAX space:
        let all_max = AdversarySpace {
            wake_offsets: vec![vec![u64::MAX], vec![u64::MAX]],
            crash_rounds: vec![],
            edge_script: vec![],
        };
        assert_eq!(dormant.schedule, WakeSchedule::Explicit(vec![0, u64::MAX]));
        let collapsed = all_max.decode(&base, &[0, 0]);
        assert_eq!(collapsed.schedule, base.schedule);
    }

    #[test]
    fn objective_scores_rank_failures_over_slow_successes() {
        let base = base_scenario();
        let mut ok = runner::base_record(&base);
        ok.ok = true;
        ok.status = "gathered".into();
        ok.rounds = 100;
        let mut failed = ok.clone();
        failed.ok = false;
        failed.status = "not all agents declared".into();
        failed.rounds = 10;
        let mut rejected = ok.clone();
        rejected.ok = false;
        rejected.status = "unsupported: whatever".into();
        assert!(Objective::Failure.score(&failed) > Objective::Failure.score(&ok));
        assert!(Objective::Failure.score(&ok) > Objective::Failure.score(&rejected));
        assert_eq!(Objective::Failure.score(&rejected), (0, 0));
        assert_eq!(Objective::SlowGather.score(&ok), (1, 100));
        assert_eq!(Objective::SlowGather.score(&failed), (0, 0));
        assert_eq!(Objective::Failure.name(), "failure");
        assert_eq!(Objective::SlowGather.name(), "slow-gather");
    }

    #[test]
    fn candidate_count_is_the_choice_product() {
        assert_eq!(small_space().candidates(), 3 * 2 * 3);
        assert_eq!(small_space().dims(), 4);
    }

    #[test]
    fn search_finds_the_crash_failure_and_spends_its_budget() {
        let base = base_scenario();
        let spec = SearchSpec {
            name: "unit".into(),
            seed: 7,
            budget: 12,
            objective: Objective::Failure,
            instances: vec![(base, small_space())],
        };
        let report = run_search(&spec, 1);
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert!(o.evaluations <= 12);
        assert!(
            o.is_failure(),
            "the crash axis must yield a failure witness, got {} ({})",
            o.record.key,
            o.record.status
        );
        assert_eq!(report.failure_count(), 1);
        assert!(o.record.key.canonical().contains("crash3@16"));
    }

    #[test]
    fn report_serialization_is_deterministic_and_excludes_execution_facts() {
        let base = base_scenario();
        let spec = SearchSpec {
            name: "unit".into(),
            seed: 7,
            budget: 6,
            objective: Objective::Failure,
            instances: vec![(base, small_space())],
        };
        let mut a = run_search(&spec, 1);
        let mut b = run_search(&spec, 1);
        a.wall = Duration::from_secs(1);
        b.wall = Duration::from_secs(9);
        a.workers = 1;
        b.workers = 64;
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
        assert!(a.to_json().contains("\"objective\": \"failure\""));
        assert!(a
            .to_csv()
            .starts_with("instance,evaluations,improvements,score_rank,score_rounds,key,"));
    }

    #[test]
    fn divergence_round_is_conservative_axis_by_axis() {
        let base = base_scenario();
        let space = small_space();
        let mk = |genotype: &[u32]| space.decode(&base, genotype);
        let zero = mk(&[0, 0, 0, 0]);
        // Identical specs: no divergence at all.
        assert_eq!(divergence_round(&zero, &mk(&[0, 0, 0, 0])), u64::MAX);
        // Wake 0 vs 3 on agent 2: fast-forward sees both, min(0,3)-1 → 0.
        assert_eq!(divergence_round(&zero, &mk(&[0, 1, 0, 0])), 0);
        // Crash never vs crash@16: min(MAX,16)-1 = 15.
        assert_eq!(divergence_round(&zero, &mk(&[0, 0, 1, 0])), 15);
        // Static vs a script removing an edge in slot 0: slot index = 0.
        assert_eq!(divergence_round(&zero, &mk(&[0, 0, 0, 1])), 0);
        // Crash@16 and a differing wake: the minimum over axes wins.
        assert_eq!(divergence_round(&mk(&[0, 1, 0, 0]), &mk(&[0, 0, 1, 0])), 0);
        // Two crash sets over disjoint labels compare via the union.
        let c16 = mk(&[0, 0, 1, 0]);
        assert_eq!(divergence_round(&c16, &mk(&[0, 0, 0, 0])), 15);
        // A shape mismatch on any axis vetoes forking outright.
        let mut seeded = zero.clone();
        seeded.fault = FaultSpec::SeededCrash {
            p: 0.5,
            seed: 1,
            max_crashes: 1,
        };
        assert_eq!(divergence_round(&zero, &seeded), 0);
        let mut simul = zero.clone();
        simul.schedule = WakeSchedule::Simultaneous;
        assert_eq!(divergence_round(&simul, &zero), 0);
        // Scripts of equal length diverge at the first differing slot.
        let mut s1 = zero.clone();
        s1.topo = TopologySpec::Scripted(ScriptedRing {
            script: vec![ScriptedRing::KEEP_ALL, 2],
        });
        let mut s2 = zero.clone();
        s2.topo = TopologySpec::Scripted(ScriptedRing {
            script: vec![ScriptedRing::KEEP_ALL, 3],
        });
        assert_eq!(divergence_round(&s1, &s2), 1);
        // Different script lengths are incomparable (slot reuse is modular).
        let mut s3 = zero.clone();
        s3.topo = TopologySpec::Scripted(ScriptedRing { script: vec![2] });
        assert_eq!(divergence_round(&s1, &s3), 0);
    }

    #[test]
    fn forked_and_scratch_searches_are_bitwise_identical() {
        let base = base_scenario();
        let spec = SearchSpec {
            name: "unit-fork".into(),
            seed: 7,
            budget: 14,
            objective: Objective::Failure,
            instances: vec![(base, small_space())],
        };
        let forked = run_search_with(&spec, 1, None, true);
        let scratch = run_search_with(&spec, 1, None, false);
        assert_eq!(forked.to_json(), scratch.to_json());
        assert_eq!(forked.to_csv(), scratch.to_csv());
        // The identity must not be vacuous: the crash axis (divergence
        // round 15) has to actually resume from the ladder.
        assert!(
            forked.total_forked_evals() > 0,
            "no evaluation forked — the ladder never engaged"
        );
        assert!(forked.total_rounds_saved() > 0);
        assert_eq!(scratch.total_forked_evals(), 0);
        assert_eq!(scratch.total_ladder_rounds(), 0);
        assert!(scratch.total_executed_rounds() > 0);
        // And the records themselves agree, not just their serialization.
        for (f, s) in forked.outcomes.iter().zip(&scratch.outcomes) {
            assert_eq!(f.record, s.record);
            assert_eq!(f.evaluations, s.evaluations);
        }
    }

    #[test]
    fn degenerate_spaces_and_zero_budgets_record_the_baseline() {
        let base = base_scenario();
        let solo = AdversarySpace {
            wake_offsets: vec![vec![0], vec![0]],
            crash_rounds: vec![],
            edge_script: vec![],
        };
        assert_eq!(solo.candidates(), 1);
        let spec = SearchSpec {
            name: "unit-degenerate".into(),
            seed: 7,
            budget: 64,
            objective: Objective::Failure,
            instances: vec![(base.clone(), solo)],
        };
        let report = run_search(&spec, 1);
        let o = &report.outcomes[0];
        assert_eq!(o.evaluations, 1, "a single-point space is one evaluation");
        assert_eq!(o.improvements, 0);
        assert!(o.record.ok, "the unperturbed baseline gathers");
        let zero = SearchSpec {
            name: "unit-budget0".into(),
            seed: 7,
            budget: 0,
            objective: Objective::Failure,
            instances: vec![(base, small_space())],
        };
        let report = run_search(&zero, 1);
        let o = &report.outcomes[0];
        assert_eq!(o.evaluations, 1, "budget 0 still records the baseline");
        assert_eq!(o.improvements, 0);
        assert!(o.record.ok);
        assert_eq!(report.total_evaluations(), 1);
    }

    #[test]
    fn evaluation_rate_is_null_once_any_evaluation_comes_from_the_cache() {
        let dir = std::env::temp_dir().join("nochatter-lab-search-rate-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let spec = SearchSpec {
            name: "unit-rate".into(),
            seed: 7,
            budget: 3,
            objective: Objective::Failure,
            instances: vec![(base_scenario(), small_space())],
        };
        let mut cold = run_search_cached(&spec, 1, Some(&store));
        assert_eq!(cold.cache.map(|c| c.hits), Some(0));
        cold.wall = Duration::from_millis(5);
        assert!(cold.evaluations_per_sec().is_some());

        let mut warm = run_search_cached(&spec, 1, Some(&store));
        assert!(warm.cache.is_some_and(|c| c.hits > 0));
        warm.wall = Duration::from_millis(5);
        assert_eq!(warm.evaluations_per_sec(), None);
        assert!(warm
            .trajectory_json()
            .contains("\"evaluations_per_sec\": null"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_files_round_trips() {
        let dir = std::env::temp_dir().join("nochatter-lab-search-test");
        let spec = SearchSpec {
            name: "unit-files".into(),
            seed: 7,
            budget: 2,
            objective: Objective::SlowGather,
            instances: vec![(base_scenario(), small_space())],
        };
        let report = run_search(&spec, 1);
        let artifacts = report.write_files(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(artifacts.json).unwrap(),
            report.to_json()
        );
        assert_eq!(
            std::fs::read_to_string(artifacts.csv).unwrap(),
            report.to_csv()
        );
    }
}
