//! The adversary-search harness's external contracts:
//!
//! 1. **Witness replay.** Any witness the search emits is an ordinary
//!    [`Scenario`] — replaying it through the solo `execute_scenario`
//!    path reproduces the search-side record bit for bit (counters and
//!    trace digest included), over randomly drawn instances, adversary
//!    spaces and budgets.
//! 2. **Worker-count determinism.** The search report (JSON and CSV) is
//!    byte-identical for any worker count — the property the CI smoke
//!    step diffs.
//! 3. **Fork-mode determinism.** Checkpoint-forked evaluation and
//!    from-scratch evaluation produce byte-identical reports over
//!    randomly drawn spaces — the other property CI diffs — and the
//!    forked path demonstrably engages on the hunt presets.
//! 4. **The falsifier falsifies.** The hunt presets find at least one
//!    instance where silent gathering genuinely fails.

use proptest::prelude::*;

use nochatter_graph::generators::Family;
use nochatter_graph::Label;
use nochatter_lab::presets::{hunt_smoke_spec, hunt_space, hunt_spec};
use nochatter_lab::{
    execute_scenario, run_search, run_search_with, scenario_seed, spread, AdversarySpace,
    Objective, Scenario, ScenarioKey, ScenarioKind, SearchSpec,
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
        edge_script: if nochatter_graph::dynamic::is_cycle(cfg.graph()) {
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

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

    #[test]
    fn forked_evaluation_is_bitwise_equivalent_to_from_scratch(d in drawn()) {
        let (base, space) = build(&d);
        let spec = SearchSpec {
            name: "fork-mode".into(),
            seed: d.seed,
            budget: d.budget,
            objective: if d.objective_failure {
                Objective::Failure
            } else {
                Objective::SlowGather
            },
            instances: vec![(base, space)],
        };
        let forked = run_search_with(&spec, 2, None, true);
        let scratch = run_search_with(&spec, 2, None, false);
        // The walk, the witnesses and both deterministic reports must not
        // betray how candidates were executed — byte for byte, over
        // arbitrary wake/crash/edge-script spaces.
        prop_assert_eq!(forked.to_json(), scratch.to_json());
        prop_assert_eq!(forked.to_csv(), scratch.to_csv());
        prop_assert_eq!(scratch.total_forked_evals(), 0);
        prop_assert_eq!(scratch.total_ladder_rounds(), 0);
        for (f, s) in forked.outcomes.iter().zip(&scratch.outcomes) {
            prop_assert_eq!(&f.record, &s.record);
            prop_assert_eq!(&f.witness.key.canonical(), &s.witness.key.canonical());
        }
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

#[test]
fn the_smoke_hunt_forks_and_is_report_blind_to_it() {
    let spec = hunt_smoke_spec();
    let forked = run_search_with(&spec, 2, None, true);
    let scratch = run_search_with(&spec, 2, None, false);
    assert_eq!(forked.to_json(), scratch.to_json());
    assert_eq!(forked.to_csv(), scratch.to_csv());
    // Non-vacuity at preset scale: the hunt's deep crash rounds (16, 64,
    // 512) must actually ride the ladder or the terminal short-circuit,
    // and the net executed work must drop, ladder cost included.
    assert!(
        forked.total_forked_evals() > 0,
        "the smoke hunt never forked an evaluation"
    );
    assert!(
        forked.total_executed_rounds() < scratch.total_executed_rounds(),
        "forking must execute strictly fewer engine iterations \
         (forked {} vs from-scratch {})",
        forked.total_executed_rounds(),
        scratch.total_executed_rounds()
    );
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
