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
//! Three design rules keep the falsifier honest and cheap:
//!
//! * **Every candidate is a pure-function-of-round spec, run like a
//!   campaign cell.** The search only ever emits `WakeSchedule::Explicit`,
//!   `FaultSpec::CrashAt` and `TopologySpec::Scripted` — declarative
//!   adversaries the engine resolves before the run, so determinism and
//!   the quiescence fast-forward survive. Each candidate that runs, runs
//!   from scratch through the campaign runner's solo
//!   [`execute_scenario_with_scratch`](crate::execute_scenario_with_scratch),
//!   so any witness replays bit for bit through
//!   [`execute_scenario`](crate::execute_scenario) and caches exactly like
//!   a campaign cell.
//! * **Determinism at any worker count and cache state.** The
//!   per-instance search is sequential and seeded from the instance's
//!   derived seed; instances shard over the work-stealing scheduler with
//!   index-ordered result slots. Same spec + budget ⇒ byte-identical
//!   [`SearchReport`] JSON and CSV for any worker count, cold or warm.
//! * **Nothing runs that cannot change the witness.** A gathering run
//!   never reports more rounds than the instance's engine round limit
//!   ([`KnownSetup::round_limit`]), which every candidate of the instance
//!   shares, so [`Objective::ceiling`] bounds every candidate's score.
//!   Ties keep the incumbent, so once the incumbent reaches that ceiling
//!   the search still judges (decodes, deduplicates, counts) the rest of
//!   its budget but runs none of it: the reports are those of a search
//!   that ran everything. [`SearchOutcome::runs`] counts what ran.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nochatter_core::KnownSetup;
use nochatter_graph::rng::derive_seed;
use nochatter_graph::Label;
use nochatter_sim::{
    CrashPoint, EngineScratch, FaultSpec, ScriptedRing, TopologySpec, WakeSchedule,
};

use crate::campaign::{wake_name, Scenario, ScenarioKind};
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

    /// The highest score a run that stops at round `limit` can reach: a
    /// failure at the limit under [`Objective::Failure`], a gathering at
    /// the limit under [`Objective::SlowGather`]. No run reports more
    /// rounds than its engine round limit, and ties keep the incumbent, so
    /// an incumbent at the ceiling is final.
    pub fn ceiling(self, limit: u64) -> (u64, u64) {
        match self {
            Objective::Failure => (2, limit),
            Objective::SlowGather => (1, limit),
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
    /// Candidates judged per instance (the incumbent's first evaluation
    /// included), whether or not they run: once the incumbent reaches the
    /// instance's score ceiling, later candidates are counted without
    /// running. `0` behaves like `1`: the unperturbed baseline is still
    /// evaluated and recorded as the witness, with zero mutations tried.
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
    /// Candidates judged (≤ budget; less only when the space was
    /// exhausted early). Candidates judged after the incumbent reached the
    /// instance's score ceiling count here but never run; see
    /// [`SearchOutcome::runs`].
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
    /// Engine iterations executed across every evaluation of this
    /// instance; cache hits execute nothing. The honest per-instance work
    /// measure — byte-identical reports can hide arbitrarily different
    /// amounts of it, which is exactly why it lives outside them.
    pub executed_rounds: u64,
    /// Candidates run: executed through the engine or served from the
    /// store. Preflight rejections and candidates judged at the score
    /// ceiling are not runs. An execution fact, like `executed_rounds`.
    pub runs: u64,
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

    /// Total candidates judged across all instances.
    pub fn total_evaluations(&self) -> u64 {
        self.outcomes.iter().map(|o| o.evaluations).sum()
    }

    /// Always 0.
    // Shim for perfbench/; the next benchmark change deletes it.
    #[doc(hidden)]
    pub fn total_forked_evals(&self) -> u64 {
        0
    }

    /// Always 0.
    // Shim for perfbench/; the next benchmark change deletes it.
    #[doc(hidden)]
    pub fn total_rounds_saved(&self) -> u64 {
        0
    }

    /// Always 0.
    // Shim for perfbench/; the next benchmark change deletes it.
    #[doc(hidden)]
    pub fn total_ladder_rounds(&self) -> u64 {
        0
    }

    /// Total candidates run (executed or served from the store) across all
    /// instances; at most [`SearchReport::total_evaluations`].
    pub fn total_runs(&self) -> u64 {
        self.outcomes.iter().map(|o| o.runs).sum()
    }

    /// Total engine iterations executed across every evaluation — the
    /// measure of simulation work the search performed.
    pub fn total_executed_rounds(&self) -> u64 {
        self.outcomes.iter().map(|o| o.executed_rounds).sum()
    }

    /// Engine iterations executed per judged candidate — the
    /// hardware-independent cost figure of a search. Candidates judged at
    /// the score ceiling execute nothing and pull it down. `None` when
    /// nothing was evaluated.
    pub fn executed_rounds_per_evaluation(&self) -> Option<f64> {
        let evals = self.total_evaluations();
        (evals > 0).then(|| self.total_executed_rounds() as f64 / evals as f64)
    }

    /// Judged candidates per wall-clock second (candidates judged at the
    /// score ceiling count without running), or `None` when the wall
    /// clock was too coarse to divide by (under one microsecond — an
    /// honest report declines instead of flooring and inflating) or any
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
    /// plus the run's execution facts — candidates run, executed rounds,
    /// wall-clock time, worker count and cache stats. Unlike
    /// [`SearchReport::to_json`], this file intentionally records *how*
    /// the search executed, so it differs across machines, worker counts
    /// and cache states while the deterministic reports stay
    /// byte-identical.
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
        let _ = writeln!(out, "  \"total_runs\": {},", self.total_runs());
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
            search_instance(base, space, spec.objective, spec.budget, scratch, store)
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
                executed_rounds: 0,
                runs: 0,
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

/// [`run_search_cached`]; the last argument is ignored.
// Shim for perfbench/; the next benchmark change deletes it.
#[doc(hidden)]
pub fn run_search_with(
    spec: &SearchSpec,
    workers: usize,
    store: Option<&Store>,
    _fork: bool,
) -> SearchReport {
    run_search_cached(spec, workers, store)
}

/// The sequential per-instance search: greedy one-mutation local search
/// around the incumbent, with seeded random kicks once the neighborhood
/// is exhausted. Deterministic given `(base.seed, space, budget)`.
///
/// Once the incumbent reaches the instance's score ceiling
/// ([`instance_ceiling`]) no candidate can replace it, so the walk goes on
/// decoding, deduplicating and counting candidates but no longer runs
/// them: the walk, the counts and the witness are exactly those of a
/// search that ran everything.
fn search_instance(
    base: &Scenario,
    space: &AdversarySpace,
    objective: Objective,
    budget: u64,
    scratch: &mut EngineScratch,
    store: Option<&Store>,
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

    let ceiling = instance_ceiling(base, objective);
    let judge = |record: &RunRecord| {
        let score = objective.score(record);
        debug_assert!(
            ceiling.is_none_or(|c| score <= c),
            "{} scores {score:?}, above its instance's ceiling {ceiling:?}",
            record.key
        );
        score
    };
    let mut work = Work::default();
    let mut incumbent = vec![0u32; dims];
    let first = space.decode(base, &incumbent);
    seen.insert(axis_key(&first));
    let first_record = evaluate(&first, scratch, store, &mut work);
    let mut evaluations = 1u64;
    let mut improvements = 0u64;
    let mut best = (judge(&first_record), first, first_record);
    let mut draws = 0u64;

    // A degenerate space (one candidate) has nothing to mutate: the
    // baseline *is* the witness, as under a ≤1 budget. Skipping the loop
    // keeps single-point spaces from burning hundreds of kick draws that
    // can only dedup away.
    let budget = if space.candidates() == 1 { 1 } else { budget };
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
        for (genotype, candidate) in batch {
            evaluations += 1;
            if ceiling.is_some_and(|c| best.0 >= c) {
                continue; // judged: it cannot beat the incumbent
            }
            let record = evaluate(&candidate, scratch, store, &mut work);
            let score = judge(&record);
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
        executed_rounds: work.executed_rounds,
        runs: work.runs,
    }
}

/// The score ceiling of `base`'s instance under `objective`, or `None`
/// when the instance has none and is never skipped. Every candidate shares
/// the instance's configuration and seed, so every gathering candidate
/// stops at the same round limit, taken from the harness that enforces
/// it. Gossip and unknown-bound instances get no ceiling.
fn instance_ceiling(base: &Scenario, objective: Objective) -> Option<(u64, u64)> {
    match base.kind {
        ScenarioKind::Gather => {
            let limit = KnownSetup::for_scenario(&base.cfg, base.seed).round_limit(&base.cfg);
            Some(objective.ceiling(limit))
        }
        ScenarioKind::Gossip(_) | ScenarioKind::Unknown { .. } => None,
    }
}

/// What one instance's search ran: execution facts, never part of the
/// deterministic reports.
#[derive(Default)]
struct Work {
    /// Candidates executed or served from the store.
    runs: u64,
    /// Engine iterations the executed candidates took.
    executed_rounds: u64,
}

/// Measures one candidate with the campaign runner's preflight and solo
/// [`execute_scenario_with_scratch`](runner::execute_scenario_with_scratch),
/// so a witness record replays bit for bit through
/// [`execute_scenario`](crate::execute_scenario), and books the run in
/// `work`.
///
/// With a store, a runnable candidate is served from the cache where
/// possible and otherwise writes through after execution; the record is
/// bitwise independent of the cache state (cached entries *are* prior
/// engine output, re-verified by key and seed), so the search walk does
/// not depend on cache hits.
fn evaluate(
    candidate: &Scenario,
    scratch: &mut EngineScratch,
    store: Option<&Store>,
    work: &mut Work,
) -> RunRecord {
    let mut record = runner::base_record(candidate);
    if !runner::preflight(candidate, &mut record) {
        return record;
    }
    work.runs += 1;
    if let Some(cached) = store.and_then(|s| s.lookup(candidate)) {
        return cached;
    }
    let record = runner::execute_scenario_with_scratch(candidate, scratch);
    work.executed_rounds += record.engine_iterations;
    if let Some(store) = store {
        store.insert(candidate, &record);
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{scenario_seed, spread};
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
        // Nothing a run stopped at round 100 reports outranks the ceiling.
        assert_eq!(Objective::Failure.ceiling(100), (2, 100));
        assert_eq!(Objective::SlowGather.ceiling(100), (1, 100));
        for record in [&ok, &failed, &rejected] {
            assert!(Objective::Failure.score(record) <= Objective::Failure.ceiling(100));
            assert!(Objective::SlowGather.score(record) <= Objective::SlowGather.ceiling(100));
        }
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
