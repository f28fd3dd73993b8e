//! The traced run: each workload replayed through the same public entry
//! points the program calls, in the same order, with a span around every
//! call into a layer. Spans live in the benchmark's own code; nothing here
//! changes what the program computes, and the replay's reports must be
//! byte-identical to the untraced pass's.
//!
//! One public call can do two layers' work. The batched engine pass
//! builds its own `KnownSetup`; the replay times the inner layer with a
//! separate `KnownSetup::for_configuration` call, charges that time to
//! `core.known_setup` and subtracts it from `sim.engine`. The separate call
//! itself is extra work the untraced pass does not do: it is reported as
//! `trace.probe_s`, so that layer self times + `trace.probe_s` +
//! `trace.unaccounted_s` = `trace.wall_s`.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use nochatter_core::harness::{self, GatherScenario};
use nochatter_core::unknown::run_unknown;
use nochatter_core::KnownSetup;
use nochatter_lab::{
    execute_scenario_with_scratch, run_search_with, trace_digest, CacheStats, CampaignReport,
    RunRecord, Scenario, ScenarioKind, Store,
};
use nochatter_sim::{EngineScratch, RunOutcome, SimError};

use crate::workloads::{self, Pass, WorkDir, Workload};

/// Event-trace capacity per cell, as the campaign runner sets it.
const TRACE_CAPACITY: usize = 1 << 16;

/// Every per-layer metric, in output order, with its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("lab.campaign.self_s", "s"),
    ("lab.campaign.cells", "count"),
    ("core.known_setup.self_s", "s"),
    ("core.known_setup.builds", "count"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.runs", "count"),
    ("sim.engine.executed_rounds", "count"),
    ("sim.engine.model_rounds", "count"),
    ("sim.engine.skipped_share", "share"),
    ("sim.engine.polled_agent_rounds", "count"),
    ("sim.engine.ns_per_executed_round", "ns"),
    ("core.unknown.self_s", "s"),
    ("lab.record.self_s", "s"),
    ("lab.record.trace_events", "count"),
    ("lab.record.trace_dropped", "count"),
    ("lab.store.open_s", "s"),
    ("lab.store.lookup_s", "s"),
    ("lab.store.lookups", "count"),
    ("lab.store.hits", "count"),
    ("lab.store.insert_s", "s"),
    ("lab.store.inserts", "count"),
    ("lab.store.bytes_written", "bytes"),
    ("lab.search.self_s", "s"),
    ("lab.search.evaluations", "count"),
    ("lab.search.eval_ms", "ms"),
    ("lab.search.forked_evals", "count"),
    ("lab.search.rounds_saved", "count"),
    ("lab.search.ladder_rounds", "count"),
    ("lab.search.executed_rounds", "count"),
    ("lab.report.self_s", "s"),
    ("lab.report.bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.probe_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.accounted_share", "share"),
    ("trace.overhead_s", "s"),
];

/// The layer self times: disjoint spans whose sum, with `trace.probe_s`
/// and `trace.unaccounted_s`, is the traced wall time.
const SELF_TIMES: &[&str] = &[
    "lab.campaign.self_s",
    "core.known_setup.self_s",
    "sim.engine.self_s",
    "core.unknown.self_s",
    "lab.record.self_s",
    "lab.store.open_s",
    "lab.store.lookup_s",
    "lab.store.insert_s",
    "lab.search.self_s",
    "lab.report.self_s",
];

/// Per-layer times and counts of one traced pass. Absent layers read 0.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
    skipped_rounds: f64,
}

impl Ledger {
    /// Adds `value` to metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        *self.values.entry(name).or_default() += value;
    }

    /// Adds one engine run's counters.
    fn add_run(&mut self, outcome: &RunOutcome) {
        self.add("sim.engine.runs", 1.0);
        self.add(
            "sim.engine.executed_rounds",
            outcome.engine_iterations as f64,
        );
        self.add("sim.engine.model_rounds", outcome.rounds as f64);
        self.add(
            "sim.engine.polled_agent_rounds",
            outcome.polled_agent_rounds as f64,
        );
        self.skipped_rounds += outcome.skipped_rounds as f64;
        if let Some(trace) = &outcome.trace {
            self.add("lab.record.trace_events", trace.events().len() as f64);
            self.add("lab.record.trace_dropped", trace.dropped() as f64);
        }
    }

    /// Adds `duration` in seconds to metric `name`.
    fn add_time(&mut self, name: &'static str, duration: Duration) {
        self.add(name, duration.as_secs_f64());
    }

    /// Runs `f` inside a span charged to metric `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.add_time(name, start.elapsed());
        value
    }

    /// The value of metric `name` (0 when the layer did not run).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The mean of several passes' raw spans and counts.
    pub fn mean(ledgers: &[&Ledger]) -> Ledger {
        let share = 1.0 / ledgers.len() as f64;
        let mut mean = Ledger::default();
        for ledger in ledgers {
            for (&name, &value) in &ledger.values {
                mean.add(name, value * share);
            }
            mean.skipped_rounds += ledger.skipped_rounds * share;
        }
        mean
    }

    /// Derives the ratios and the accounting rows from the raw spans and
    /// counts, given the traced wall time in seconds.
    pub fn finish(&mut self, wall: f64) {
        let accounted: f64 =
            SELF_TIMES.iter().map(|n| self.get(n)).sum::<f64>() + self.get("trace.probe_s");
        self.add("trace.wall_s", wall);
        self.add("trace.unaccounted_s", wall - accounted);
        self.add("trace.accounted_share", accounted / wall);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        // The unknown-bound run drives the engine from inside
        // `run_unknown`, so its round loop is timed under core.unknown.
        let engine_s = self.get("sim.engine.self_s") + self.get("core.unknown.self_s");
        let executed = self.get("sim.engine.executed_rounds");
        self.add(
            "sim.engine.ns_per_executed_round",
            ratio(engine_s * 1e9, executed),
        );
        self.add(
            "sim.engine.skipped_share",
            ratio(self.skipped_rounds, self.get("sim.engine.model_rounds")),
        );
        self.add(
            "lab.search.eval_ms",
            ratio(
                self.get("lab.search.self_s") * 1e3,
                self.get("lab.search.evaluations"),
            ),
        );
    }
}

/// A traced pass: the untraced pass's result plus its ledger.
pub struct TracedPass {
    /// The pass, with the traced wall time.
    pub pass: Pass,
    /// The raw per-layer spans and counts (see [`Ledger::finish`]).
    pub ledger: Ledger,
}

/// One traced pass of `workload`.
pub fn pass(workload: Workload, seed: u64, work: &mut WorkDir) -> TracedPass {
    match workload {
        Workload::CampaignDemo => campaign(seed, work),
        Workload::Hunt | Workload::HuntLate => hunt(workload, seed),
        Workload::UnknownNetwork => unknown(),
    }
}

/// The campaign runner with one worker against a fresh store, call by
/// call: matrix expansion, store lookups, the instance-group plan, one
/// batched engine pass per group (single cells solo), record assembly,
/// write-through inserts, and report serialization.
fn campaign(seed: u64, work: &mut WorkDir) -> TracedPass {
    let mut ledger = Ledger::default();
    let dir = work.fresh_store_dir();
    let start = Instant::now();
    let campaign = ledger.time("lab.campaign.self_s", || workloads::demo_campaign(seed));
    ledger.add("lab.campaign.cells", campaign.len() as f64);
    let store = ledger.time("lab.store.open_s", || {
        Store::open(&dir).expect("a fresh store opens")
    });
    let log_start = log_len(&store);
    let scenarios = campaign.scenarios();
    let mut slots: Vec<Option<RunRecord>> = vec![None; scenarios.len()];
    let mut missing = Vec::new();
    ledger.time("lab.store.lookup_s", || {
        for (index, scenario) in scenarios.iter().enumerate() {
            match store.lookup(scenario) {
                Some(record) => slots[index] = Some(record),
                None => missing.push(index),
            }
        }
    });
    let hits = (scenarios.len() - missing.len()) as u64;
    ledger.add("lab.store.lookups", scenarios.len() as f64);
    ledger.add("lab.store.hits", hits as f64);
    let mut scratch = EngineScratch::new();
    for job in plan_jobs(scenarios, &missing) {
        let records = if job.len() > 1 {
            batch(&job, scenarios, &mut scratch, &mut ledger)
        } else {
            // Solo cells run whole through the runner's public entry
            // point (setup, engine and record assembly in one span); the
            // demo campaign has none.
            let index = job[0];
            let record = ledger.time("sim.engine.self_s", || {
                execute_scenario_with_scratch(&scenarios[index], &mut scratch)
            });
            ledger.add("sim.engine.runs", 1.0);
            ledger.add(
                "sim.engine.executed_rounds",
                record.engine_iterations as f64,
            );
            vec![(index, record)]
        };
        ledger.time("lab.store.insert_s", || {
            for (index, record) in &records {
                store.insert(&scenarios[*index], record);
            }
        });
        ledger.add("lab.store.inserts", records.len() as f64);
        for (index, record) in records {
            slots[index] = Some(record);
        }
    }
    let report = CampaignReport {
        name: campaign.name().to_string(),
        seed: campaign.seed(),
        records: slots
            .into_iter()
            .map(|slot| slot.expect("every scenario produces a record"))
            .collect(),
        workers: 1,
        wall: start.elapsed(),
        cache: Some(CacheStats {
            hits,
            misses: missing.len() as u64,
        }),
    };
    let (reports, bytes) = ledger.time("lab.report.self_s", || {
        workloads::serialized(report.to_json(), report.to_csv(), report.trajectory_json())
    });
    ledger.add("lab.report.bytes", bytes as f64);
    let wall = start.elapsed();
    ledger.add(
        "lab.store.bytes_written",
        (log_len(&store) - log_start) as f64,
    );
    drop(store);
    work.discard(&dir);
    let (ops, executed, failed) = workloads::campaign_ops(&report);
    TracedPass {
        pass: Pass {
            wall,
            ops,
            executed,
            failed,
            reports,
        },
        ledger,
    }
}

/// The size of a store's log file.
fn log_len(store: &Store) -> u64 {
    std::fs::metadata(store.path()).map_or(0, |m| m.len())
}

/// The runner's job plan: gathering cells grouped by instance sub-key in
/// first-occurrence order, every other cell alone.
fn plan_jobs(scenarios: &[Scenario], include: &[usize]) -> Vec<Vec<usize>> {
    let mut jobs: Vec<Vec<usize>> = Vec::new();
    let mut by_instance: HashMap<String, usize> = HashMap::new();
    for &index in include {
        let scenario = &scenarios[index];
        if matches!(scenario.kind, ScenarioKind::Gather) {
            let slot = *by_instance
                .entry(scenario.key.instance_canonical())
                .or_insert_with(|| {
                    jobs.push(Vec::new());
                    jobs.len() - 1
                });
            jobs[slot].push(index);
        } else {
            jobs.push(vec![index]);
        }
    }
    jobs
}

/// One instance group through `run_scenario_batch_with_scratch`, with the
/// `KnownSetup` it builds per (configuration, seed) group timed by a
/// separate call. Cells the runner's preflight rejects take the solo
/// entry point, which returns the same rejection record without running.
fn batch(
    job: &[usize],
    scenarios: &[Scenario],
    scratch: &mut EngineScratch,
    ledger: &mut Ledger,
) -> Vec<(usize, RunRecord)> {
    let mut out: Vec<Option<RunRecord>> = vec![None; job.len()];
    let mut runnable = Vec::new();
    for (position, &index) in job.iter().enumerate() {
        let s = &scenarios[index];
        if matches!(s.kind, ScenarioKind::Gather) && s.topo.compatible_with(s.cfg.graph()) {
            runnable.push(position);
        } else {
            out[position] = Some(ledger.time("lab.record.self_s", || {
                execute_scenario_with_scratch(s, scratch)
            }));
        }
    }
    let cells: Vec<&Scenario> = runnable.iter().map(|&p| &scenarios[job[p]]).collect();
    let mut probe = Duration::ZERO;
    let mut start = 0;
    while start < cells.len() {
        let first = cells[start];
        let end = (start..cells.len())
            .find(|&i| cells[i].seed != first.seed || cells[i].cfg != first.cfg)
            .unwrap_or(cells.len());
        let t = Instant::now();
        std::hint::black_box(KnownSetup::for_configuration(
            &first.cfg,
            first.cfg.size() as u32,
            first.seed,
        ));
        probe += t.elapsed();
        ledger.add("core.known_setup.builds", 1.0);
        start = end;
    }
    let t = Instant::now();
    let gather: Vec<GatherScenario<'_>> = cells
        .iter()
        .map(|s| GatherScenario {
            cfg: &s.cfg,
            mode: s.mode,
            schedule: s.schedule.clone(),
            topo: s.topo.clone(),
            fault: s.fault.clone(),
            seed: s.seed,
            trace_capacity: Some(TRACE_CAPACITY),
        })
        .collect();
    let outcomes = harness::run_scenario_batch_with_scratch(&gather, scratch);
    let engine = t.elapsed();
    ledger.add_time("core.known_setup.self_s", probe);
    ledger.add_time("trace.probe_s", probe);
    ledger.add_time("sim.engine.self_s", engine.saturating_sub(probe));
    for outcome in outcomes.iter() {
        match outcome {
            Ok(outcome) => ledger.add_run(outcome),
            Err(_) => ledger.add("sim.engine.runs", 1.0),
        }
    }
    ledger.time("lab.record.self_s", || {
        for ((&position, s), outcome) in runnable.iter().zip(&cells).zip(outcomes) {
            out[position] = Some(assemble(s, outcome));
        }
    });
    job.iter()
        .zip(out)
        .map(|(&index, record)| (index, record.expect("every cell has a record")))
        .collect()
}

/// The runner's record assembly: counters from the outcome, then the
/// gathering judgment (survivors only under a fault adversary).
fn assemble(s: &Scenario, outcome: Result<RunOutcome, SimError>) -> RunRecord {
    let mut record = RunRecord {
        key: s.key.clone(),
        seed: s.seed,
        n_actual: s.cfg.size() as u32,
        ok: false,
        status: String::new(),
        rounds: 0,
        moves: 0,
        blocked_moves: 0,
        crashed_agents: 0,
        engine_iterations: 0,
        skipped_rounds: 0,
        polled_agent_rounds: 0,
        max_colocation: 0,
        leader: None,
        node: None,
        size: None,
        trace_digest: None,
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            record.status = format!("engine error: {e}");
            return record;
        }
    };
    record.rounds = outcome.rounds;
    record.moves = outcome.total_moves;
    record.blocked_moves = outcome.blocked_moves;
    record.crashed_agents = outcome.crashed_agents.len() as u32;
    record.engine_iterations = outcome.engine_iterations;
    record.skipped_rounds = outcome.skipped_rounds;
    record.polled_agent_rounds = outcome.polled_agent_rounds;
    record.max_colocation = outcome.max_colocation;
    record.trace_digest = outcome.trace.as_ref().map(trace_digest);
    let gathering = if s.fault.is_none() {
        outcome.gathering()
    } else {
        outcome.gathering_surviving()
    };
    match gathering {
        Ok(report) => {
            match report.leader {
                None => record.status = "no leader elected".into(),
                Some(l) if !s.cfg.contains_label(l) => {
                    record.status = format!("phantom leader {l}")
                }
                Some(_) => {
                    record.ok = true;
                    record.status = "gathered".into();
                    record.rounds = report.round;
                }
            }
            record.leader = report.leader.map(|l| l.value());
            record.node = Some(report.node.index() as u32);
            record.size = report.size;
        }
        Err(e) => record.status = e.to_string(),
    }
    record
}

/// A hunt: spec construction, the search (one span: splitting search
/// bookkeeping from its evaluations needs spans inside the program), and
/// report serialization.
fn hunt(workload: Workload, seed: u64) -> TracedPass {
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let spec = ledger.time("lab.campaign.self_s", || {
        workloads::hunt_spec(workload, seed)
    });
    ledger.add("lab.campaign.cells", spec.instances.len() as f64);
    let report = ledger.time("lab.search.self_s", || {
        run_search_with(&spec, 1, None, true)
    });
    ledger.add("lab.search.evaluations", report.total_evaluations() as f64);
    ledger.add(
        "lab.search.forked_evals",
        report.total_forked_evals() as f64,
    );
    ledger.add(
        "lab.search.rounds_saved",
        report.total_rounds_saved() as f64,
    );
    ledger.add(
        "lab.search.ladder_rounds",
        report.total_ladder_rounds() as f64,
    );
    ledger.add(
        "lab.search.executed_rounds",
        report.total_executed_rounds() as f64,
    );
    let (reports, bytes) = ledger.time("lab.report.self_s", || {
        workloads::serialized(report.to_json(), report.to_csv(), report.trajectory_json())
    });
    ledger.add("lab.report.bytes", bytes as f64);
    let wall = start.elapsed();
    let (ops, executed, failed) = workloads::search_ops(&report);
    TracedPass {
        pass: Pass {
            wall,
            ops,
            executed,
            failed,
            reports,
        },
        ledger,
    }
}

/// The `unknown_network` example: input construction, `run_unknown` (its
/// engine runs inside it, so the round loop is timed there), and the
/// gathering validation.
fn unknown() -> TracedPass {
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let (truth, omega) = workloads::unknown_inputs();
    let result = ledger.time("core.unknown.self_s", || {
        run_unknown(
            &truth,
            omega,
            workloads::UNKNOWN_MODE,
            workloads::unknown_wake(),
        )
    });
    if let Ok((outcome, _)) = &result {
        ledger.add_run(outcome);
        std::hint::black_box(
            ledger
                .time("lab.record.self_s", || outcome.gathering())
                .ok(),
        );
    }
    let wall = start.elapsed();
    let ok = result.as_ref().is_ok_and(workloads::unknown_run_ok);
    TracedPass {
        pass: Pass {
            wall,
            ops: 1,
            executed: 1,
            failed: u64::from(!ok),
            reports: String::new(),
        },
        ledger,
    }
}
