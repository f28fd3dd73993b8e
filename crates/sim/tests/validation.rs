//! Negative-path coverage for spec validation: malformed fault specs,
//! malformed wake schedules and incompatible topologies must surface the
//! *exact* error variant — not merely "some error" — both from the specs'
//! own resolution methods and through the engine's setup mapping
//! (`SimError::BadFaultSpec` / `SimError::BadWakeSchedule`). The adversary
//! search builds candidates out of exactly these specs, so a vague or
//! drifting rejection would silently corrupt its objective scores.

use nochatter_graph::dynamic::{is_cycle, DynamicRing, ScriptedRing};
use nochatter_graph::{generators, Label, NodeId};
use nochatter_sim::proc::{Procedure, WaitRounds};
use nochatter_sim::{
    CrashPoint, Declaration, Engine, FaultError, FaultSpec, ScheduleError, SimError, TopologySpec,
    WakeSchedule,
};

fn label(v: u64) -> Label {
    Label::new(v).unwrap()
}

fn team(vs: &[u64]) -> Vec<Label> {
    vs.iter().map(|&v| label(v)).collect()
}

/// A two-agent ring engine ready to run (the standard setup of the fault
/// suite), so each test perturbs exactly one spec.
fn ring_engine(g: &nochatter_graph::Graph) -> Engine<'_> {
    let mut engine = Engine::new(g);
    for (l, pos) in [(2u64, 0u32), (3, 2)] {
        engine.add_agent(
            label(l),
            NodeId::new(pos),
            Box::new(WaitRounds::new(4).map(|_| Declaration::bare())),
        );
    }
    engine
}

#[test]
fn phantom_crash_target_maps_to_the_exact_fault_error() {
    let spec = FaultSpec::CrashAt(vec![CrashPoint {
        label: label(9),
        round: 1,
    }]);
    assert_eq!(
        spec.crash_rounds(&team(&[2, 3])),
        Err(FaultError::UnknownCrashTarget { label: label(9) })
    );
    let g = generators::ring(4);
    let mut engine = ring_engine(&g);
    engine.set_faults(spec);
    assert_eq!(
        engine.run(10).unwrap_err(),
        SimError::BadFaultSpec {
            reason: FaultError::UnknownCrashTarget { label: label(9) },
        }
    );
}

#[test]
fn duplicate_crash_target_maps_to_the_exact_fault_error() {
    let spec = FaultSpec::CrashAt(vec![
        CrashPoint {
            label: label(3),
            round: 1,
        },
        CrashPoint {
            label: label(3),
            round: 8,
        },
    ]);
    assert_eq!(
        spec.crash_rounds(&team(&[2, 3])),
        Err(FaultError::DuplicateCrashTarget { label: label(3) })
    );
    let g = generators::ring(4);
    let mut engine = ring_engine(&g);
    engine.set_faults(spec);
    assert_eq!(
        engine.run(10).unwrap_err(),
        SimError::BadFaultSpec {
            reason: FaultError::DuplicateCrashTarget { label: label(3) },
        }
    );
}

#[test]
fn phantom_target_is_reported_before_a_later_duplicate() {
    // A list that is wrong twice over: the resolution scans in list order,
    // so the phantom (first offending entry) must win — pinning the error
    // priority keeps `assert_eq!` tests on compound lists deterministic.
    let spec = FaultSpec::CrashAt(vec![
        CrashPoint {
            label: label(9),
            round: 1,
        },
        CrashPoint {
            label: label(2),
            round: 2,
        },
        CrashPoint {
            label: label(2),
            round: 3,
        },
    ]);
    assert_eq!(
        spec.crash_rounds(&team(&[2, 3])),
        Err(FaultError::UnknownCrashTarget { label: label(9) })
    );
}

#[test]
fn bad_crash_probability_maps_to_the_exact_fault_error() {
    for p in [f64::NAN, f64::INFINITY, -0.25, 1.01] {
        let spec = FaultSpec::SeededCrash {
            p,
            seed: 1,
            max_crashes: 1,
        };
        assert_eq!(
            spec.crash_rounds(&team(&[2, 3])),
            Err(FaultError::BadProbability),
            "p = {p}"
        );
        let g = generators::ring(4);
        let mut engine = ring_engine(&g);
        engine.set_faults(spec);
        assert_eq!(
            engine.run(10).unwrap_err(),
            SimError::BadFaultSpec {
                reason: FaultError::BadProbability,
            }
        );
    }
}

#[test]
fn wrong_length_explicit_schedule_maps_to_the_exact_schedule_error() {
    let schedule = WakeSchedule::Explicit(vec![0, 1, 2]);
    assert_eq!(
        schedule.wake_rounds(2),
        Err(ScheduleError::WrongLength {
            expected: 2,
            got: 3,
        })
    );
    let g = generators::ring(4);
    let mut engine = ring_engine(&g);
    engine.set_wake_schedule(schedule);
    assert_eq!(
        engine.run(10).unwrap_err(),
        SimError::BadWakeSchedule {
            reason: ScheduleError::WrongLength {
                expected: 2,
                got: 3,
            },
        }
    );
}

#[test]
fn no_round_zero_wake_maps_to_the_exact_schedule_error() {
    // Finite but shifted, and fully dormant: both miss the round-0 anchor.
    for rounds in [vec![1, 7], vec![u64::MAX, u64::MAX]] {
        let schedule = WakeSchedule::Explicit(rounds.clone());
        assert_eq!(
            schedule.wake_rounds(2),
            Err(ScheduleError::NoRoundZeroWake),
            "rounds = {rounds:?}"
        );
        let g = generators::ring(4);
        let mut engine = ring_engine(&g);
        engine.set_wake_schedule(schedule);
        assert_eq!(
            engine.run(10).unwrap_err(),
            SimError::BadWakeSchedule {
                reason: ScheduleError::NoRoundZeroWake,
            }
        );
    }
}

#[test]
fn dynamic_ring_specs_are_incompatible_with_non_cycles() {
    let path = generators::path(4);
    let star = generators::star(5);
    let ring = generators::ring(4);
    assert!(!is_cycle(&path));
    assert!(!is_cycle(&star));
    let dring = TopologySpec::Ring(DynamicRing { seed: 3 });
    assert!(dring.compatible_with(&ring));
    assert!(!dring.compatible_with(&path));
    assert!(!dring.compatible_with(&star));
    let sring = TopologySpec::Scripted(ScriptedRing {
        script: vec![0, ScriptedRing::KEEP_ALL].into(),
    });
    assert!(sring.compatible_with(&ring));
    assert!(!sring.compatible_with(&path));
    assert!(!sring.compatible_with(&star));
}

#[test]
fn scripted_ring_scripts_are_validated_edge_by_edge() {
    let ring = generators::ring(4); // 4 edges: valid ids are 0..4
    assert!(ScriptedRing {
        script: vec![0, 3, ScriptedRing::KEEP_ALL].into(),
    }
    .valid_for(&ring));
    // An empty script has no per-round choice to make.
    assert!(!ScriptedRing {
        script: vec![].into()
    }
    .valid_for(&ring));
    // An out-of-range edge id names nothing removable.
    assert!(!ScriptedRing {
        script: vec![4].into()
    }
    .valid_for(&ring));
    assert!(!TopologySpec::Scripted(ScriptedRing {
        script: vec![4].into()
    })
    .compatible_with(&ring));
}
