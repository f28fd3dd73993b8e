//! Pins the harness's known-bound runner against a hand-wired engine: the
//! traced run through [`harness::run_known_traced_with_scratch`], sharing
//! one scratch across every case so each run starts on buffers a previous
//! run left behind, is bitwise identical (outcome and trace events) to
//! wiring the same agents into a fresh [`Engine`] and calling
//! [`Engine::run`] — across sensing modes, wake schedules and graph
//! families — and its gathering validates.

use std::cell::RefCell;

use proptest::prelude::*;

use nochatter_core::{harness, CommMode, GatherKnownUpperBound, KnownSetup};
use nochatter_graph::generators::Family;
use nochatter_graph::{InitialConfiguration, Label, NodeId};
use nochatter_sim::proc::Procedure;
use nochatter_sim::{
    Declaration, Engine, EngineScratch, RunOutcome, Sensing, SimError, WakeSchedule,
};

fn sensing_for(mode: CommMode) -> Sensing {
    match mode {
        CommMode::Silent => Sensing::Weak,
        CommMode::Talking => Sensing::Traditional,
    }
}

/// The known-bound algorithm wired by hand: one boxed behavior per agent,
/// run on a fresh scratch.
fn run_known_by_hand(
    cfg: &InitialConfiguration,
    setup: &KnownSetup,
    mode: CommMode,
    schedule: WakeSchedule,
    trace_capacity: usize,
) -> Result<RunOutcome, SimError> {
    let mut engine = Engine::new(cfg.graph());
    engine.set_sensing(sensing_for(mode));
    engine.record_trace(trace_capacity);
    for &(label, start) in cfg.agents() {
        engine.add_agent(
            label,
            start,
            Box::new(
                GatherKnownUpperBound::with_mode(setup.params().clone(), label, mode)
                    .map(Declaration::with_leader),
            ),
        );
    }
    engine.set_wake_schedule(schedule);
    let limit = setup.params().round_limit(cfg.smallest_label_bit_len());
    engine.run(limit)
}

fn scenario_strategy() -> impl Strategy<Value = (InitialConfiguration, u64, WakeSchedule, CommMode)>
{
    (0usize..4, 4u32..7, any::<u64>(), 0u64..3, any::<bool>()).prop_map(
        |(family, n, seed, sched, talking)| {
            let family = [Family::Ring, Family::Path, Family::Star, Family::Grid][family];
            let graph = family.instantiate(n, seed);
            let n_actual = graph.node_count() as u32;
            let cfg = InitialConfiguration::new(
                graph,
                vec![
                    (Label::new(2).unwrap(), NodeId::new(0)),
                    (Label::new(seed % 5 + 3).unwrap(), NodeId::new(n_actual / 2)),
                ],
            )
            .expect("two distinct starts on ≥4 nodes");
            let schedule = match sched {
                0 => WakeSchedule::Simultaneous,
                1 => WakeSchedule::FirstOnly,
                _ => WakeSchedule::Staggered { gap: seed % 9 + 1 },
            };
            let mode = if talking {
                CommMode::Talking
            } else {
                CommMode::Silent
            };
            (cfg, seed, schedule, mode)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn shared_scratch_harness_run_matches_a_fresh_hand_wired_run(
        (cfg, seed, schedule, mode) in scenario_strategy()
    ) {
        thread_local! {
            static SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::new());
        }
        let setup = KnownSetup::for_configuration(&cfg, cfg.size() as u32, seed);
        let capacity = 1 << 14;
        let by_hand = run_known_by_hand(&cfg, &setup, mode, schedule.clone(), capacity).unwrap();
        let harnessed = SCRATCH.with(|scratch| {
            harness::run_known_traced_with_scratch(
                &cfg,
                &setup,
                mode,
                schedule,
                Some(capacity),
                &mut scratch.borrow_mut(),
            )
            .unwrap()
        });
        prop_assert_eq!(format!("{by_hand:?}"), format!("{harnessed:?}"));
        prop_assert_eq!(
            by_hand.trace.as_ref().unwrap().events(),
            harnessed.trace.as_ref().unwrap().events()
        );
        // The real algorithm: the gathering must validate.
        prop_assert!(harnessed.gathering().is_ok());
    }
}
