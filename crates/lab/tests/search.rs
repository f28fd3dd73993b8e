//! The adversary-search harness's external contracts:
//!
//! 1. **Witness replay.** Any witness the search emits is an ordinary
//!    [`Scenario`] — replaying it through the solo `execute_scenario`
//!    path reproduces the search-side record bit for bit (counters and
//!    trace digest included), over randomly drawn instances, adversary
//!    spaces and budgets.
//! 2. **Worker-count determinism.** The search report (JSON and CSV) is
//!    byte-identical for any worker count — the property the CI smoke
//!    step diffs — and the smoke hunt's reports match their checked-in
//!    goldens byte for byte.
//! 3. **The falsifier falsifies.** The hunt presets find at least one
//!    instance where silent gathering genuinely fails.
//! 4. **The ceiling skip is safe.** No candidate of an instance scores
//!    above the instance's ceiling (so the candidates the search judges
//!    without running could not have replaced its witness), and a space
//!    whose baseline already fails at the round limit costs one run.
//! 5. **Long single-choice lead-ins cost nothing and change nothing.** The
//!    late-outage hunt, 7,000 axes per instance of which 12 are walked,
//!    matches goldens generated when the search still walked every axis.
//! 6. **Malformed spaces are typed, never panics.** Empty axes, crash
//!    labels outside the team, out-of-range edge ids, edge removals over
//!    non-cycles and extra wake axes are each an `unsupported:` record for
//!    their instance that runs nothing.

use proptest::prelude::*;

use nochatter_core::KnownSetup;
use nochatter_graph::dynamic::is_cycle;
use nochatter_graph::generators::Family;
use nochatter_graph::Label;
use nochatter_lab::presets::{hunt_smoke_spec, hunt_space, hunt_spec, late_outage_spec};
use nochatter_lab::{
    execute_scenario, run_search, run_search_cached, scenario_seed, spread, AdversarySpace,
    CacheStats, Objective, Scenario, ScenarioKey, ScenarioKind, SearchSpec, Store,
};
use nochatter_sim::{ScriptedRing, TopologySpec, WakeSchedule};

/// A drawn search problem: one instance plus a small adversary space.
#[derive(Debug, Clone)]
struct Drawn {
    family: usize,
    n: u32,
    three_agents: bool,
    wake_choices: Vec<u64>,
    crash_choices: Vec<u64>,
    edge_slots: usize,
    budget: u64,
    seed: u64,
    objective_failure: bool,
}

fn drawn() -> impl Strategy<Value = Drawn> {
    // The vendored proptest shim has no `prop_oneof!`; draw indices into
    // fixed choice tables instead.
    const WAKE: [u64; 5] = [0, 1, 4, 17, u64::MAX];
    const CRASH: [u64; 4] = [u64::MAX, 8, 32, 256];
    (
        (0usize..3, 4u32..7, any::<bool>()),
        proptest::collection::vec(0usize..WAKE.len(), 1..4),
        proptest::collection::vec(0usize..CRASH.len(), 1..4),
        (0usize..3, 1u64..14),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                (family, n, three_agents),
                wake_idx,
                crash_idx,
                (edge_slots, budget),
                seed,
                objective_failure,
            )| Drawn {
                family,
                n,
                three_agents,
                wake_choices: wake_idx.iter().map(|&i| WAKE[i]).collect(),
                crash_choices: crash_idx.iter().map(|&i| CRASH[i]).collect(),
                edge_slots,
                budget,
                seed,
                objective_failure,
            },
        )
}

/// Builds the drawn instance and space. The space pins agent 0's wake to
/// round 0 and never crashes agent 0, mirroring the hunt presets; the
/// remaining axes use the drawn choice lists verbatim.
fn build(d: &Drawn) -> (Scenario, AdversarySpace) {
    let families = [Family::Ring, Family::Path, Family::Star];
    let family = families[d.family];
    let team: Vec<u64> = if d.three_agents {
        vec![2, 3, 9]
    } else {
        vec![2, 3]
    };
    let key = ScenarioKey {
        family: family.name().into(),
        n: d.n,
        team: team.clone(),
        wake: "simul".into(),
        topo: "static".into(),
        fault: "none".into(),
        mode: "silent".into(),
        variant: "gather".into(),
        rep: 0,
    };
    let cfg = spread(family.instantiate(d.n, scenario_seed(d.seed, &key)), &team).unwrap();
    let labels: Vec<Label> = cfg.labels().collect();
    let mut wake_choices = d.wake_choices.clone();
    if !wake_choices.contains(&0) {
        wake_choices.push(0);
    }
    let space = AdversarySpace {
        wake_offsets: labels
            .iter()
            .enumerate()
            .map(|(i, _)| {
                if i == 0 {
                    vec![0]
                } else {
                    wake_choices.clone()
                }
            })
            .collect(),
        crash_rounds: labels
            .iter()
            .skip(1)
            .map(|&l| (l, d.crash_choices.clone()))
            .collect(),
        edge_script: if is_cycle(cfg.graph()) {
            (0..d.edge_slots)
                .map(|_| {
                    let mut choices = vec![ScriptedRing::KEEP_ALL];
                    choices.extend(0..cfg.graph().edge_count() as u32);
                    choices
                })
                .collect()
        } else {
            Vec::new()
        },
    };
    let scenario = Scenario {
        seed: scenario_seed(d.seed, &key),
        key,
        cfg,
        mode: nochatter_core::CommMode::Silent,
        schedule: WakeSchedule::Simultaneous,
        topo: TopologySpec::Static,
        fault: nochatter_sim::FaultSpec::None,
        kind: ScenarioKind::Gather,
    };
    (scenario, space)
}

/// `space` with every axis cut to its first `keep` choices: small enough
/// to run every candidate.
fn truncated(space: &AdversarySpace, keep: usize) -> AdversarySpace {
    fn cut<T: Copy>(choices: &[T], keep: usize) -> Vec<T> {
        choices[..choices.len().min(keep)].to_vec()
    }
    AdversarySpace {
        wake_offsets: space.wake_offsets.iter().map(|c| cut(c, keep)).collect(),
        crash_rounds: space
            .crash_rounds
            .iter()
            .map(|(label, c)| (*label, cut(c, keep)))
            .collect(),
        edge_script: space.edge_script.iter().map(|c| cut(c, keep)).collect(),
    }
}

/// The number of choices on each axis of `space`, in axis order.
fn radices(space: &AdversarySpace) -> Vec<u32> {
    space
        .wake_offsets
        .iter()
        .map(Vec::len)
        .chain(space.crash_rounds.iter().map(|(_, c)| c.len()))
        .chain(space.edge_script.iter().map(Vec::len))
        .map(|len| len as u32)
        .collect()
}

/// Every genotype of `space`, in mixed-radix order over its axes.
fn genotypes(space: &AdversarySpace) -> Vec<Vec<u32>> {
    let radices = radices(space);
    let mut all = vec![vec![0u32; radices.len()]];
    for (d, &radix) in radices.iter().enumerate() {
        all = all
            .into_iter()
            .flat_map(|g| {
                (0..radix).map(move |c| {
                    let mut g = g.clone();
                    g[d] = c;
                    g
                })
            })
            .collect();
    }
    all
}

/// The score ceiling of a gathering instance, computed from the harness's
/// own round limit.
fn ceiling(base: &Scenario, objective: Objective) -> (u64, u64) {
    objective.ceiling(KnownSetup::for_scenario(&base.cfg, base.seed).round_limit(&base.cfg))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn no_candidate_scores_above_its_instance_ceiling(d in drawn()) {
        let (base, space) = build(&d);
        let space = truncated(&space, 2);
        let objective = if d.objective_failure {
            Objective::Failure
        } else {
            Objective::SlowGather
        };
        let ceiling = ceiling(&base, objective);
        for genotype in genotypes(&space) {
            let record = execute_scenario(&space.decode(&base, &genotype));
            prop_assert!(
                objective.score(&record) <= ceiling,
                "{} scores {:?} above the ceiling {:?}",
                record.key,
                objective.score(&record),
                ceiling
            );
        }
        let spec = SearchSpec {
            name: "ceiling".into(),
            seed: d.seed,
            budget: d.budget,
            objective,
            instances: vec![(base, space)],
        };
        let report = run_search(&spec, 1);
        let outcome = &report.outcomes[0];
        // The witness is what the search reports it to be.
        let replayed = execute_scenario(&outcome.witness);
        prop_assert_eq!(&replayed, &outcome.record);
        prop_assert_eq!(objective.score(&replayed), outcome.score);
        // Every candidate here passes preflight, so a judged candidate
        // that did not run was skipped, which only a witness at the
        // ceiling allows.
        prop_assert!(outcome.runs <= outcome.evaluations);
        if outcome.runs < outcome.evaluations {
            prop_assert_eq!(outcome.score, ceiling);
        }
    }

    #[test]
    fn witnesses_replay_bitwise_through_the_solo_path(d in drawn()) {
        let (base, space) = build(&d);
        let spec = SearchSpec {
            name: "replay".into(),
            seed: d.seed,
            budget: d.budget,
            objective: if d.objective_failure {
                Objective::Failure
            } else {
                Objective::SlowGather
            },
            instances: vec![(base, space)],
        };
        let report = run_search(&spec, 2);
        prop_assert_eq!(report.outcomes.len(), 1);
        let outcome = &report.outcomes[0];
        prop_assert!(outcome.evaluations >= 1);
        prop_assert!(outcome.evaluations <= d.budget);
        // The witness is a plain scenario: the search-side record and a
        // fresh solo execution must agree on every field, trace digest
        // included.
        let replayed = execute_scenario(&outcome.witness);
        prop_assert_eq!(&replayed, &outcome.record);
        // The witness key is the record's key: the replay recipe a report
        // reader reconstructs is exactly what was measured.
        prop_assert_eq!(
            outcome.witness.key.canonical(),
            outcome.record.key.canonical()
        );
        prop_assert_eq!(
            &outcome.instance,
            &outcome.witness.key.instance_canonical()
        );
    }
}

#[test]
fn search_reports_are_byte_identical_across_worker_counts() {
    let spec = hunt_smoke_spec();
    let one = run_search(&spec, 1);
    let json = one.to_json();
    let csv = one.to_csv();
    for workers in [2, 4, 8] {
        let many = run_search(&spec, workers);
        assert_eq!(json, many.to_json(), "workers = {workers}");
        assert_eq!(csv, many.to_csv(), "workers = {workers}");
    }
}

const GOLDEN_JSON: &str = include_str!("../golden/hunt_smoke.json");
const GOLDEN_CSV: &str = include_str!("../golden/hunt_smoke.csv");

#[test]
fn the_smoke_hunt_matches_its_golden_reports() {
    let report = run_search(&hunt_smoke_spec(), 2);
    let hint = "smoke hunt drifted from crates/lab/golden/hunt_smoke.*; if the \
                change is intentional, regenerate both files with `cargo run -p \
                nochatter-bench --release --bin experiments -- hunt --smoke \
                --workers 1 --out <dir>` and copy <dir>/hunt-smoke.{json,csv} over them";
    assert_eq!(report.to_json(), GOLDEN_JSON, "{hint}");
    assert_eq!(report.to_csv(), GOLDEN_CSV, "{hint}");
}

#[test]
fn the_smoke_hunt_finds_a_silent_failure() {
    let report = run_search(&hunt_smoke_spec(), 4);
    assert!(
        report.failure_count() >= 1,
        "the crash/edge axes must break silent gathering somewhere; \
         witnesses: {:?}",
        report
            .outcomes
            .iter()
            .map(|o| (o.record.key.canonical(), o.record.status.clone()))
            .collect::<Vec<_>>()
    );
    for outcome in &report.outcomes {
        // Every witness replays — the smoke report's records are honest.
        assert_eq!(execute_scenario(&outcome.witness), outcome.record);
    }
}

#[test]
fn hunt_quick_attacks_the_dr1_fr1_instance_space() {
    let spec = hunt_spec(true);
    let instances: Vec<&str> = spec
        .instances
        .iter()
        .map(|(s, _)| s.key.family.as_str())
        .collect();
    assert!(instances.iter().all(|&f| f == "ring"));
    // Budget sanity: the search cannot exceed its budget even when the
    // space is much larger.
    for (_, space) in &spec.instances {
        assert!(space.candidates() > u128::from(spec.budget));
    }
}

#[test]
fn hunt_space_matches_the_instance_shape() {
    let cfg = spread(Family::Ring.instantiate(5, 1), &[3, 5, 9]).unwrap();
    let space = hunt_space(&cfg);
    assert_eq!(space.wake_offsets.len(), 3);
    assert_eq!(space.crash_rounds.len(), 2);
    assert_eq!(space.edge_script.len(), 2);
    assert_eq!(space.dims(), 7);
}

#[test]
fn a_baseline_failing_at_the_limit_is_the_only_run() {
    // Agent 3 crashes at round 16 in the baseline (genotype zero); the
    // survivor never declares and the run stops at the round limit.
    let (base, space) = build(&Drawn {
        family: 0,
        n: 4,
        three_agents: false,
        wake_choices: vec![0, 4, u64::MAX],
        crash_choices: vec![16, u64::MAX, 256],
        edge_slots: 2,
        budget: 24,
        seed: 7,
        objective_failure: true,
    });
    let baseline = execute_scenario(&space.decode(&base, &vec![0; space.dims()]));
    assert_eq!(
        Objective::Failure.score(&baseline),
        ceiling(&base, Objective::Failure),
        "the baseline fails at the round limit: {}",
        baseline.status
    );
    let spec = SearchSpec {
        name: "ceiling-baseline".into(),
        seed: 7,
        budget: 24,
        objective: Objective::Failure,
        instances: vec![(base, space)],
    };
    let report = run_search(&spec, 1);
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.evaluations, 24, "every candidate is still judged");
    assert_eq!(outcome.improvements, 0);
    assert_eq!(outcome.record, baseline);
    assert_eq!(outcome.runs, 1);
    assert_eq!(outcome.executed_rounds, baseline.engine_iterations);
    assert_eq!(report.total_runs(), 1);

    let dir = std::env::temp_dir().join("nochatter-lab-search-ceiling-test");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let cold = run_search_cached(&spec, 1, Some(&store));
    assert_eq!(store.len(), 1, "one run, one insert");
    assert_eq!(cold.cache, Some(CacheStats { hits: 0, misses: 1 }));
    assert_eq!(cold.to_json(), report.to_json());
    let warm = run_search_cached(&spec, 1, Some(&store));
    assert_eq!(warm.cache, Some(CacheStats { hits: 1, misses: 0 }));
    assert_eq!(warm.total_runs(), 1);
    assert_eq!(warm.total_executed_rounds(), 0);
    assert_eq!(warm.to_json(), report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

const LATE_JSON: &str = include_str!("../golden/hunt_late.json");
const LATE_CSV: &str = include_str!("../golden/hunt_late.csv");

#[test]
fn the_late_outage_hunt_matches_its_golden_reports() {
    // 7,000-slot spaces whose single-choice lead-in the search never
    // walks: the reports must be those of a walk over every axis.
    let spec = late_outage_spec(64);
    let one = run_search(&spec, 1);
    let hint = "late-outage hunt drifted from crates/lab/golden/hunt_late.*; the \
                files are `run_search(&late_outage_spec(64), 1)`'s to_json() and \
                to_csv()";
    assert_eq!(one.to_json(), LATE_JSON, "{hint}");
    assert_eq!(one.to_csv(), LATE_CSV, "{hint}");
    let two = run_search(&spec, 2);
    assert_eq!(two.to_json(), LATE_JSON, "workers = 2");
    assert_eq!(two.to_csv(), LATE_CSV, "workers = 2");
}

/// A drawn malformed adversary space: which defect it carries, and where.
#[derive(Debug, Clone)]
struct Malformed {
    defect: usize,
    family: usize,
    axis: usize,
    budget: u64,
    seed: u64,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn malformed_spaces_yield_typed_records_never_panics(
        m in (0usize..5, 0usize..3, 0usize..8, 1u64..10, any::<u64>()).prop_map(
            |(defect, family, axis, budget, seed)| Malformed { defect, family, axis, budget, seed },
        ),
    ) {
        let (base, mut space) = build(&Drawn {
            family: m.family,
            n: 5,
            three_agents: false,
            wake_choices: vec![0, 4],
            crash_choices: vec![u64::MAX, 32],
            edge_slots: 2,
            budget: m.budget,
            seed: m.seed,
            objective_failure: true,
        });
        let m_edges = base.cfg.graph().edge_count() as u32;
        match m.defect {
            // An axis with no choice at all: a wake, a crash or an edge
            // axis.
            0 => match m.axis % 3 {
                0 => space.wake_offsets[1].clear(),
                1 => space.crash_rounds[0].1.clear(),
                _ => space.edge_script.push(Vec::new()),
            },
            // A crash label outside the team.
            1 => space.crash_rounds.push((Label::new(77).unwrap(), vec![u64::MAX, 8])),
            // Edge ids the base graph does not have.
            2 => space.edge_script.push(vec![ScriptedRing::KEEP_ALL, m_edges, m_edges + 5]),
            // A script over whatever base graph was drawn, cycle or not.
            3 => space.edge_script = vec![vec![ScriptedRing::KEEP_ALL, 0, 1]; 3],
            // A wake axis per agent plus one.
            _ => space.wake_offsets.push(vec![0, 2]),
        }
        let spec = SearchSpec {
            name: "malformed".into(),
            seed: m.seed,
            budget: m.budget,
            objective: Objective::Failure,
            instances: vec![(base, space.clone())],
        };
        let report = run_search(&spec, 1);
        let outcome = &report.outcomes[0];
        prop_assert!(
            !outcome.record.status.starts_with("panic"),
            "{:?}: {}",
            m,
            outcome.record.status
        );
        let radices = radices(&space);
        // Defects are rejected once per instance. The first edge axis
        // follows the two wake axes and the one crash axis.
        let cycle = is_cycle(spec.instances[0].0.cfg.graph());
        let first_edge = 3;
        let rejected = match m.defect {
            0 => radices
                .iter()
                .position(|&r| r == 0)
                .map(|d| format!("adversary axis {d} offers no choice")),
            1 => Some("crash label 77 is not in the team".to_string()),
            // Rings carry two valid edge axes before the pushed one;
            // other bases carry none, and no removal over them is valid.
            2 if cycle => Some(format!(
                "adversary axis {} offers edge {m_edges} of a base graph with {m_edges} edges",
                first_edge + 2
            )),
            2 => Some(format!(
                "adversary axis {first_edge} removes edge {m_edges} from a base graph that is not a cycle"
            )),
            3 if cycle => None,
            3 => Some(format!(
                "adversary axis {first_edge} removes edge 0 from a base graph that is not a cycle"
            )),
            _ => Some("3 wake axes for a team of 2".to_string()),
        };
        if let Some(defect) = rejected {
            prop_assert_eq!(
                &outcome.record.status,
                &format!("unsupported: {defect} (instance {})", outcome.instance)
            );
            prop_assert_eq!(outcome.evaluations, 0);
            prop_assert_eq!(outcome.score, (0, 0));
        } else {
            // A script over a ring is well-formed; the witness hides the
            // candidates that lost to it: run genotype zero and its
            // one-mutation neighbors directly.
            let base = &spec.instances[0].0;
            for (d, &radix) in radices.iter().enumerate() {
                for choice in 0..radix {
                    let mut genotype = vec![0u32; radices.len()];
                    genotype[d] = choice;
                    let record = execute_scenario(&space.decode(base, &genotype));
                    prop_assert!(!record.status.starts_with("panic"), "{}", record.status);
                }
            }
        }
    }
}

#[test]
fn edge_axes_are_checked_once_per_instance() {
    // The same three-slot script over a ring searches; over a path or a
    // star it is rejected before anything runs, whatever the budget.
    for (family, searched) in [(0, true), (1, false), (2, false)] {
        let (base, mut space) = build(&Drawn {
            family,
            n: 5,
            three_agents: false,
            wake_choices: vec![0, 4],
            crash_choices: vec![u64::MAX, 32],
            edge_slots: 2,
            budget: 16,
            seed: 11,
            objective_failure: true,
        });
        space.edge_script = vec![vec![ScriptedRing::KEEP_ALL, 0, 1]; 3];
        let spec = SearchSpec {
            name: "edge-axes".into(),
            seed: 11,
            budget: 16,
            objective: Objective::Failure,
            instances: vec![(base, space)],
        };
        let outcome = &run_search(&spec, 1).outcomes[0];
        if searched {
            assert!(outcome.evaluations > 0, "{}", outcome.record.status);
            assert!(!outcome.record.status.starts_with("unsupported"));
        } else {
            assert_eq!(
                outcome.record.status,
                format!(
                    "unsupported: adversary axis 3 removes edge 0 from a base graph that is \
                     not a cycle (instance {})",
                    outcome.instance
                )
            );
            assert_eq!((outcome.evaluations, outcome.runs), (0, 0));
        }
    }
}
