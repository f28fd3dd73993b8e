//! Sharded, deterministic campaign execution.
//!
//! One cell is one run: every scenario the cache does not answer becomes
//! one job, executed by [`execute_scenario_with_scratch`] and written
//! through to the store. Jobs are distributed by the scheduler
//! ([`crate::sched`]): workers claim them one at a time from a shared
//! cursor, each with one reusable [`EngineScratch`], and write into
//! lock-free per-job result slots. The schedule reorders execution, never
//! results — each record lands in its scenario's key-order slot — so a
//! 1-worker run and an 8-worker run produce byte-identical reports. A
//! scenario that panics is isolated by the scheduler's `catch_unwind`: the
//! cell becomes a failed [`RunRecord`] with status `"panic: ..."` instead
//! of aborting the campaign.

use std::time::Instant;

use nochatter_core::unknown::{run_unknown, SliceEnumeration};
use nochatter_core::{harness, KnownSetup};
use nochatter_graph::InitialConfiguration;
use nochatter_sim::{EngineScratch, GatheringReport, RunOutcome, SimError, Trace};

use crate::campaign::{Campaign, Scenario, ScenarioKind};
use crate::record::RunRecord;
use crate::report::CampaignReport;
use crate::sched;
use crate::store::{CacheStats, Store};

/// Event-trace capacity per scenario: enough for every small-network run
/// the campaigns sweep; longer runs digest a deterministic prefix plus the
/// dropped-event count. Gather cells record into a
/// [`Trace::digest_only`] trace of this capacity, so no cell stores its
/// events.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// The number of workers [`run_campaign`] uses when the caller passes 0:
/// the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs every scenario of `campaign` on `workers` threads (0 = one per
/// available core) and collects the records in scenario-key order.
///
/// The report is bit-for-bit identical for any worker count: scenarios are
/// deterministic given their derived seed, and collection order is the
/// campaign's key order, not completion order. A panicking scenario yields
/// a `"panic: ..."` record instead of aborting the run.
pub fn run_campaign(campaign: &Campaign, workers: usize) -> CampaignReport {
    run_campaign_cached(campaign, workers, None)
}

/// [`run_campaign`] against an optional result store: the planning phase
/// partitions cells into hits (loaded from the cache — byte for byte the
/// record the engine would produce) and misses (one job each on the
/// scheduler's workers), and every completed miss writes its record
/// through immediately, so a killed run resumes where it stopped. Records
/// merge in key order regardless of their source: the JSON/CSV reports
/// are byte-identical with the cache on, off, warm, cold, or at any worker
/// count. Panic records are never cached.
pub fn run_campaign_cached(
    campaign: &Campaign,
    workers: usize,
    store: Option<&Store>,
) -> CampaignReport {
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    }
    .min(campaign.len().max(1));
    let start = Instant::now();
    let scenarios = campaign.scenarios();
    let mut slots: Vec<Option<RunRecord>> = vec![None; scenarios.len()];
    let mut missing: Vec<usize> = Vec::new();
    if let Some(store) = store {
        for (index, scenario) in scenarios.iter().enumerate() {
            match store.lookup(scenario) {
                Some(record) => slots[index] = Some(record),
                None => missing.push(index),
            }
        }
    } else {
        missing = (0..scenarios.len()).collect();
    }
    let cache = store.map(|_| CacheStats {
        hits: (scenarios.len() - missing.len()) as u64,
        misses: missing.len() as u64,
    });
    let results = sched::run_sharded(
        missing.len(),
        workers,
        |job, scratch| {
            let scenario = &scenarios[missing[job]];
            let record = execute_scenario_with_scratch(scenario, scratch);
            // Write-through per completed cell: records of a killed run are
            // already on disk, so the next run resumes past them. The
            // append order varies with the schedule; reports don't — they
            // merge by key order, and the store is an unordered index.
            if let Some(store) = store {
                store.insert(scenario, &record);
            }
            record
        },
        // A panicking cell fails honestly instead of the whole campaign.
        // Panic records are harness faults, not results — never cached.
        |job, message| panic_record(&scenarios[missing[job]], &message),
    );
    for (&index, record) in missing.iter().zip(results) {
        slots[index] = Some(record);
    }
    let records = slots
        .into_iter()
        .map(|slot| slot.expect("every scenario produces a record"))
        .collect();
    CampaignReport {
        name: campaign.name().to_string(),
        seed: campaign.seed(),
        records,
        workers,
        wall: start.elapsed(),
        cache,
    }
}

/// A record for a scenario that panicked: not ok, status carries the
/// panic message, all counters zero (nothing trustworthy was measured).
pub(crate) fn panic_record(scenario: &Scenario, message: &str) -> RunRecord {
    let mut record = base_record(scenario);
    record.status = format!("panic: {message}");
    record
}

/// The empty record every execution path starts from.
pub(crate) fn base_record(scenario: &Scenario) -> RunRecord {
    RunRecord {
        key: scenario.key.clone(),
        seed: scenario.seed,
        n_actual: scenario.cfg.size() as u32,
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
    }
}

/// Shared preflight of the campaign and search paths: rejects cells that
/// must not run (filling `record.status`) and returns whether to execute. Every
/// rejection names the offending [`crate::ScenarioKey`], so a skip record
/// quoted out of context (a CLI line, a grep hit) still identifies its
/// cell.
pub(crate) fn preflight(scenario: &Scenario, record: &mut RunRecord) -> bool {
    // Unit tests inject a deterministic panic through a reserved family
    // name to exercise the scheduler's per-scenario isolation end to end;
    // no public scenario kind can be made to panic on purpose.
    #[cfg(test)]
    if scenario.key.family == "panic-inject" {
        panic!("injected test panic");
    }
    // Only the gathering variant runs under round-varying topologies or
    // the crash-fault adversary: the gossip and unknown-bound algorithms
    // drive their own engines and are static, fault-free runs by design.
    // Reject their dynamic/faulty cells loudly instead of silently running
    // them on the wrong model.
    if !scenario.topo.is_static() && !matches!(scenario.kind, ScenarioKind::Gather) {
        record.status = format!(
            "unsupported: {} variant is static-only (cell {})",
            scenario.kind.variant_name(),
            scenario.key
        );
        return false;
    }
    if !scenario.fault.is_none() && !matches!(scenario.kind, ScenarioKind::Gather) {
        record.status = format!(
            "unsupported: {} variant has no fault axis (cell {})",
            scenario.kind.variant_name(),
            scenario.key
        );
        return false;
    }
    // Matrix expansion skips incompatible cells, but explicit scenario
    // lists (`Campaign::from_scenarios`) can still pair a topology with a
    // graph it cannot run over — record that instead of panicking a
    // worker thread in the provider's view constructor.
    if !scenario.topo.compatible_with(scenario.cfg.graph()) {
        record.status = format!(
            "unsupported: topology {} cannot run over this graph (cell {})",
            scenario.key.topo, scenario.key
        );
        return false;
    }
    true
}

/// Executes one scenario with a fresh [`EngineScratch`]; see
/// [`execute_scenario_with_scratch`] for the bulk-execution form the
/// campaign runner uses.
pub fn execute_scenario(scenario: &Scenario) -> RunRecord {
    execute_scenario_with_scratch(scenario, &mut EngineScratch::new())
}

/// Executes one scenario and measures it into a [`RunRecord`], reusing the
/// caller's [`EngineScratch`] so bulk execution allocates nothing per run
/// in steady state. Never panics on algorithm failure: engine errors and
/// validation failures are recorded in the `status` field.
pub fn execute_scenario_with_scratch(
    scenario: &Scenario,
    scratch: &mut EngineScratch,
) -> RunRecord {
    let mut record = base_record(scenario);
    if !preflight(scenario, &mut record) {
        return record;
    }
    execute_preflighted(scenario, record, scratch)
}

/// The execution half of [`execute_scenario_with_scratch`]: runs a
/// scenario that passed [`preflight`] and measures it into `record`, the
/// base record preflight was given. Callers that must look between the
/// two halves (the search consults its store there) build the record and
/// preflight once.
pub(crate) fn execute_preflighted(
    scenario: &Scenario,
    mut record: RunRecord,
    scratch: &mut EngineScratch,
) -> RunRecord {
    let outcome = match &scenario.kind {
        ScenarioKind::Gather => harness::run_scenario_with_scratch(
            &scenario.cfg,
            scenario.mode,
            scenario.schedule.clone(),
            &scenario.topo,
            &scenario.fault,
            scenario.seed,
            Some(Trace::digest_only(TRACE_CAPACITY)),
            scratch,
        ),
        ScenarioKind::Gossip(scheme) => {
            let setup = KnownSetup::for_scenario(&scenario.cfg, scenario.seed);
            let messages = scheme.payloads(&scenario.cfg);
            match harness::run_gossip_outcome(
                &scenario.cfg,
                &setup,
                scenario.mode,
                &messages,
                scenario.schedule.clone(),
            ) {
                Ok((outcome, reports)) => {
                    let mut expected: Vec<_> = messages.iter().map(|(_, m)| m.clone()).collect();
                    expected.sort();
                    let decoded_ok = reports.iter().all(|(_, rep)| {
                        let mut got = Vec::new();
                        for (payload, multiplicity) in rep.outcome.decoded() {
                            for _ in 0..multiplicity {
                                got.push(payload.clone());
                            }
                        }
                        got.sort();
                        got == expected
                    });
                    if !decoded_ok {
                        record.status = "gossip mismatch".into();
                        fill_outcome(&mut record, &outcome);
                        return record;
                    }
                    Ok(outcome)
                }
                Err(e) => Err(e),
            }
        }
        ScenarioKind::Unknown { decoys, est_mode } => {
            // The unknown-bound algorithm exists only in the weak model
            // (and consumes no seed: its schedule is fully determined by
            // the enumeration). Reject a talking-mode cell loudly instead
            // of running the silent algorithm under a mislabeled key.
            if scenario.mode != nochatter_core::CommMode::Silent {
                record.status = format!(
                    "unsupported: unknown variant has no talking baseline (cell {})",
                    scenario.key
                );
                return record;
            }
            let mut omega = decoys.clone();
            omega.push(scenario.cfg.clone());
            run_unknown(
                &scenario.cfg,
                SliceEnumeration::new(omega),
                *est_mode,
                scenario.schedule.clone(),
            )
            .map(|(outcome, _)| outcome)
        }
    };
    record_outcome(&mut record, scenario, outcome);
    record
}

/// The outcome-to-record tail of every scenario kind: fills the counters
/// and judges the gathering property (survivors-only under a fault
/// adversary), plus Theorem 4.1's learned values on unknown-bound cells.
fn record_outcome(
    record: &mut RunRecord,
    scenario: &Scenario,
    outcome: Result<RunOutcome, SimError>,
) {
    match outcome {
        Ok(outcome) => {
            fill_outcome(record, &outcome);
            // A crashed agent can never declare, so a faulty cell's
            // success criterion is the survivors' agreement — exactly the
            // paper's gathering property restricted to the living. The
            // fault-free path keeps the full validator, byte for byte.
            let gathering = if scenario.fault.is_none() {
                outcome.gathering()
            } else {
                outcome.gathering_surviving()
            };
            match gathering {
                Ok(report) => {
                    // All three variants elect a leader on success; a
                    // unanimous `None` is agreement in the engine's eyes
                    // but a protocol regression in ours.
                    match report.leader {
                        None => record.status = "no leader elected".into(),
                        Some(l) if !scenario.cfg.contains_label(l) => {
                            record.status = format!("phantom leader {l}");
                        }
                        Some(_) if matches!(scenario.kind, ScenarioKind::Unknown { .. }) => {
                            match theorem_4_1_violation(&report, &scenario.cfg) {
                                Some(status) => record.status = status,
                                None => {
                                    record.ok = true;
                                    record.status = "gathered".into();
                                    record.rounds = report.round;
                                }
                            }
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
        }
        Err(e) => record.status = format!("engine error: {e}"),
    }
}

/// Judges a gathered unknown-bound run against Theorem 4.1: the agents
/// must have learned the true graph size and elected the team's smallest
/// label. Returns the failure status, or `None` if both hold.
fn theorem_4_1_violation(report: &GatheringReport, cfg: &InitialConfiguration) -> Option<String> {
    let n = cfg.size() as u32;
    let smallest = cfg.smallest_label();
    match (report.size, report.leader) {
        (Some(size), _) if size != n => Some(format!("wrong size {size} (n = {n})")),
        (None, _) => Some(format!("no size learned (n = {n})")),
        (_, Some(leader)) if leader != smallest => Some(format!(
            "leader {leader} is not the smallest label {smallest}"
        )),
        (_, None) => Some("no leader elected".into()),
        _ => None,
    }
}

fn fill_outcome(record: &mut RunRecord, outcome: &RunOutcome) {
    record.rounds = outcome.rounds;
    record.moves = outcome.total_moves;
    record.blocked_moves = outcome.blocked_moves;
    record.crashed_agents = outcome.crashed_agents.len() as u32;
    record.engine_iterations = outcome.engine_iterations;
    record.skipped_rounds = outcome.skipped_rounds;
    record.polled_agent_rounds = outcome.polled_agent_rounds;
    record.max_colocation = outcome.max_colocation;
    record.trace_digest = outcome.trace.as_ref().map(Trace::digest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Matrix;
    use nochatter_core::CommMode;
    use nochatter_graph::generators::Family;
    use nochatter_sim::WakeSchedule;

    fn campaign() -> Campaign {
        Matrix {
            families: vec![Family::Ring, Family::Star],
            sizes: vec![4, 5],
            teams: vec![vec![2, 3]],
            schedules: vec![WakeSchedule::Simultaneous, WakeSchedule::FirstOnly],
            modes: vec![CommMode::Silent, CommMode::Talking],
            ..Matrix::new()
        }
        .campaign("runner-test", 11)
        .unwrap()
    }

    #[test]
    fn theorem_4_1_judges_the_learned_size_and_leader() {
        use nochatter_graph::{generators, Label, NodeId};
        let label = |v| Label::new(v).unwrap();
        let cfg = InitialConfiguration::new(
            generators::ring(3),
            vec![(label(2), NodeId::new(0)), (label(1), NodeId::new(2))],
        )
        .unwrap();
        let report = |leader: u64, size: Option<u32>| GatheringReport {
            round: 9,
            node: NodeId::new(1),
            leader: Label::new(leader),
            size,
        };
        assert_eq!(theorem_4_1_violation(&report(1, Some(3)), &cfg), None);
        assert_eq!(
            theorem_4_1_violation(&report(1, Some(5)), &cfg).as_deref(),
            Some("wrong size 5 (n = 3)")
        );
        assert_eq!(
            theorem_4_1_violation(&report(2, Some(3)), &cfg).as_deref(),
            Some("leader 2 is not the smallest label 1")
        );
        assert_eq!(
            theorem_4_1_violation(&report(1, None), &cfg).as_deref(),
            Some("no size learned (n = 3)")
        );
    }

    #[test]
    fn all_scenarios_gather() {
        let report = run_campaign(&campaign(), 1);
        assert_eq!(report.records.len(), 16);
        for r in &report.records {
            assert!(r.ok, "{} failed: {}", r.key, r.status);
            assert_eq!(r.status, "gathered");
            assert!(r.trace_digest.is_some());
            assert!(r.leader.is_some());
        }
    }

    #[test]
    fn worker_counts_agree_bit_for_bit() {
        let c = campaign();
        let one = run_campaign(&c, 1);
        let four = run_campaign(&c, 4);
        assert_eq!(one.records, four.records);
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.to_csv(), four.to_csv());
    }

    #[test]
    fn one_worker_scratch_reuse_matches_fresh_scratch_execution_bitwise() {
        use nochatter_graph::dynamic::DynamicRing;
        use nochatter_graph::Label;
        use nochatter_sim::{CrashPoint, FaultSpec, TopologySpec};

        // One worker threads one scratch through every cell in key order,
        // so consecutive runs cross sensing modes, graph sizes, static and
        // dynamic views, and fault-free and faulty runs. Every record —
        // counters and trace digest included — must equal a run on a
        // fresh scratch.
        let c = Matrix {
            families: vec![Family::Ring],
            sizes: vec![4, 6],
            teams: vec![vec![2, 3]],
            topologies: vec![
                TopologySpec::Static,
                TopologySpec::Ring(DynamicRing { seed: 3 }),
            ],
            faults: vec![
                FaultSpec::None,
                FaultSpec::CrashAt(vec![CrashPoint {
                    label: Label::new(3).unwrap(),
                    round: 40,
                }]),
            ],
            modes: vec![CommMode::Silent, CommMode::Talking],
            ..Matrix::new()
        }
        .campaign("scratch-reuse", 11)
        .unwrap();
        let report = run_campaign(&c, 1);
        assert_eq!(report.records.len(), 16);
        assert!(report.records.iter().any(|r| r.crashed_agents > 0));
        assert!(report.records.iter().any(|r| r.blocked_moves > 0));
        for (scenario, record) in c.scenarios().iter().zip(&report.records) {
            assert_eq!(record, &execute_scenario(scenario), "{}", scenario.key);
        }
    }

    #[test]
    fn silent_is_never_faster_than_talking() {
        // Holds on these specific cells (rings/stars at n=4..5, where the
        // silent and talking executions stay phase-aligned); NOT a general
        // theorem — see tests/differential.rs at the workspace root for
        // the honest aggregate statement.
        let report = run_campaign(&campaign(), 2);
        let pairs = report.mode_pairs("silent", "talking");
        assert!(!pairs.is_empty());
        for (silent, talking) in pairs {
            assert!(
                silent.rounds >= talking.rounds,
                "{}: silent {} < talking {}",
                silent.key,
                silent.rounds,
                talking.rounds
            );
        }
    }

    #[test]
    fn panicking_scenarios_are_recorded_not_fatal() {
        use crate::campaign::{scenario_seed, spread, Scenario, ScenarioKind};
        use crate::record::ScenarioKey;
        use nochatter_graph::generators;

        // Two cells of a reserved family that the preflight hook panics on,
        // plus two healthy cells. The scheduler's `catch_unwind` is the
        // only isolation layer: it turns each panic into that cell's
        // record and hands the worker a fresh scratch.
        let cell = |family: &str, mode: CommMode, mode_name: &str| {
            let key = ScenarioKey {
                family: family.into(),
                n: 4,
                team: vec![2, 3],
                wake: "simul".into(),
                topo: "static".into(),
                fault: "none".into(),
                mode: mode_name.into(),
                variant: "gather".into(),
                rep: 0,
            };
            Scenario {
                seed: scenario_seed(5, &key),
                key,
                cfg: spread(generators::ring(4), &[2, 3]).unwrap(),
                mode,
                schedule: WakeSchedule::Simultaneous,
                topo: nochatter_sim::TopologySpec::Static,
                fault: nochatter_sim::FaultSpec::None,
                kind: ScenarioKind::Gather,
            }
        };
        let scenarios = vec![
            cell("panic-inject", CommMode::Silent, "silent"),
            cell("panic-inject", CommMode::Talking, "talking"),
            cell("ring4", CommMode::Silent, "silent"),
            cell("ring4", CommMode::Talking, "talking"),
        ];
        let c = Campaign::from_scenarios("panic-test", 5, scenarios).unwrap();
        let one = run_campaign(&c, 1);
        let four = run_campaign(&c, 4);
        assert_eq!(one.records, four.records, "panic records are deterministic");
        for r in &one.records {
            if r.key.family == "panic-inject" {
                assert!(!r.ok);
                assert_eq!(r.status, "panic: injected test panic");
                assert_eq!(r.rounds, 0, "nothing trustworthy was measured");
            } else {
                assert!(r.ok, "{} failed: {}", r.key, r.status);
                // The healthy instance is unperturbed by the poisoned one.
                let solo = execute_scenario(
                    c.scenarios()
                        .iter()
                        .find(|s| s.key == r.key)
                        .expect("scenario exists"),
                );
                assert_eq!(r, &solo);
            }
        }
    }

    #[test]
    fn talking_mode_unknown_is_rejected_not_mislabeled() {
        use crate::campaign::{spread, Scenario, ScenarioKind};
        use crate::record::ScenarioKey;
        use nochatter_core::unknown::EstMode;
        use nochatter_graph::generators;

        let scenario = Scenario {
            key: ScenarioKey {
                family: "ring3".into(),
                n: 3,
                team: vec![1, 2],
                wake: "simul".into(),
                topo: "static".into(),
                fault: "none".into(),
                mode: "talking".into(),
                variant: "unknown@1".into(),
                rep: 0,
            },
            cfg: spread(generators::ring(3), &[1, 2]).unwrap(),
            mode: CommMode::Talking,
            schedule: WakeSchedule::Simultaneous,
            topo: nochatter_sim::TopologySpec::Static,
            fault: nochatter_sim::FaultSpec::None,
            kind: ScenarioKind::Unknown {
                decoys: vec![],
                est_mode: EstMode::Conservative,
            },
            seed: 1,
        };
        let record = execute_scenario(&scenario);
        assert!(!record.ok);
        assert!(record.status.contains("unsupported"), "{}", record.status);
        // The skip record names the offending cell, so the status line
        // identifies the scenario even when quoted out of context.
        assert!(
            record.status.contains(&scenario.key.canonical()),
            "{}",
            record.status
        );
    }

    #[test]
    fn incompatible_topology_records_unsupported_instead_of_panicking() {
        use crate::campaign::{spread, Scenario, ScenarioKind};
        use crate::record::ScenarioKey;
        use nochatter_graph::dynamic::DynamicRing;
        use nochatter_graph::generators;

        // A dynamic ring over a path: Matrix expansion would skip this
        // cell, but an explicit scenario list can still construct it.
        let topo = nochatter_sim::TopologySpec::Ring(DynamicRing { seed: 3 });
        let scenario = Scenario {
            key: ScenarioKey {
                family: "path4".into(),
                n: 4,
                team: vec![1, 2],
                wake: "simul".into(),
                topo: topo.short_name(),
                fault: "none".into(),
                mode: "silent".into(),
                variant: "gather".into(),
                rep: 0,
            },
            cfg: spread(generators::path(4), &[1, 2]).unwrap(),
            mode: CommMode::Silent,
            schedule: WakeSchedule::Simultaneous,
            topo,
            fault: nochatter_sim::FaultSpec::None,
            kind: ScenarioKind::Gather,
            seed: 1,
        };
        let record = execute_scenario(&scenario);
        assert!(!record.ok);
        assert!(
            record.status.contains("cannot run over this graph"),
            "{}",
            record.status
        );
        assert!(
            record.status.contains(&scenario.key.canonical()),
            "skip record must name the offending cell: {}",
            record.status
        );
    }

    #[test]
    fn dynamic_cells_of_static_only_variants_are_rejected_not_mislabeled() {
        use crate::campaign::{spread, PayloadScheme, Scenario, ScenarioKind};
        use crate::record::ScenarioKey;
        use nochatter_graph::dynamic::DynamicRing;
        use nochatter_graph::generators;

        let topo = nochatter_sim::TopologySpec::Ring(DynamicRing { seed: 3 });
        let scenario = Scenario {
            key: ScenarioKey {
                family: "ring4".into(),
                n: 4,
                team: vec![1, 2],
                wake: "simul".into(),
                topo: topo.short_name(),
                fault: "none".into(),
                mode: "silent".into(),
                variant: "gossip-u2".into(),
                rep: 0,
            },
            cfg: spread(generators::ring(4), &[1, 2]).unwrap(),
            mode: CommMode::Silent,
            schedule: WakeSchedule::Simultaneous,
            topo,
            fault: nochatter_sim::FaultSpec::None,
            kind: ScenarioKind::Gossip(PayloadScheme::Uniform { len: 2 }),
            seed: 1,
        };
        let record = execute_scenario(&scenario);
        assert!(!record.ok);
        assert!(record.status.contains("static-only"), "{}", record.status);
        assert!(
            record.status.contains(&scenario.key.canonical()),
            "skip record must name the offending cell: {}",
            record.status
        );
    }

    #[test]
    fn faulty_cells_of_fault_free_variants_are_rejected_with_their_key() {
        use crate::campaign::{spread, PayloadScheme, Scenario, ScenarioKind};
        use crate::record::ScenarioKey;
        use nochatter_graph::{generators, Label};
        use nochatter_sim::{CrashPoint, FaultSpec};

        let fault = FaultSpec::CrashAt(vec![CrashPoint {
            label: Label::new(1).unwrap(),
            round: 8,
        }]);
        let scenario = Scenario {
            key: ScenarioKey {
                family: "ring4".into(),
                n: 4,
                team: vec![1, 2],
                wake: "simul".into(),
                topo: "static".into(),
                fault: fault.short_name(),
                mode: "silent".into(),
                variant: "gossip-u2".into(),
                rep: 0,
            },
            cfg: spread(generators::ring(4), &[1, 2]).unwrap(),
            mode: CommMode::Silent,
            schedule: WakeSchedule::Simultaneous,
            topo: nochatter_sim::TopologySpec::Static,
            fault,
            kind: ScenarioKind::Gossip(PayloadScheme::Uniform { len: 2 }),
            seed: 1,
        };
        let record = execute_scenario(&scenario);
        assert!(!record.ok);
        assert!(record.status.contains("no fault axis"), "{}", record.status);
        assert!(
            record.status.contains(&scenario.key.canonical()),
            "skip record must name the offending cell: {}",
            record.status
        );
    }

    #[test]
    fn unknown_scenarios_run_through_the_pool() {
        use crate::campaign::{scenario_seed, spread, Scenario, ScenarioKind};
        use crate::record::ScenarioKey;
        use nochatter_core::unknown::EstMode;
        use nochatter_graph::generators;

        let truth = spread(generators::ring(3), &[1, 2]).unwrap();
        let decoy = spread(generators::path(2), &[3, 4]).unwrap();
        let key = ScenarioKey {
            family: "ring3".into(),
            n: 3,
            team: vec![1, 2],
            wake: "simul".into(),
            topo: "static".into(),
            fault: "none".into(),
            mode: "silent".into(),
            variant: "unknown@2".into(),
            rep: 0,
        };
        let scenario = Scenario {
            seed: scenario_seed(1, &key),
            key,
            cfg: truth,
            mode: CommMode::Silent,
            schedule: WakeSchedule::Simultaneous,
            topo: nochatter_sim::TopologySpec::Static,
            fault: nochatter_sim::FaultSpec::None,
            kind: ScenarioKind::Unknown {
                decoys: vec![decoy],
                est_mode: EstMode::Conservative,
            },
        };
        let c = Campaign::from_scenarios("unknown-test", 1, vec![scenario]).unwrap();
        let report = run_campaign(&c, 2);
        let r = &report.records[0];
        assert!(r.ok, "{}", r.status);
        assert_eq!(r.size, Some(3), "must learn the exact size");
        assert_eq!(r.leader, Some(1));
    }
}
