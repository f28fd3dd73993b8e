//! Edge cases of the checkpoint/fork engine: a round-0 checkpoint is a
//! fresh run, a terminal run cannot be snapshotted, resume is insensitive
//! to scratch dirt, a checkpoint taken mid-wait resumes bitwise (stored
//! events and digest-only hash alike), and pending wake/crash boundaries
//! (with the fast-forward decisions they cap) survive forking bitwise.

use nochatter_core::harness::{run_scenario_with_scratch, GatherScenario, ScenarioRun};
use nochatter_core::{CommMode, KnownSetup};
use nochatter_graph::generators::Family;
use nochatter_graph::rng::Rng;
use nochatter_graph::{generators, Graph, InitialConfiguration, Label, NodeId, Port};
use nochatter_sim::proc::{ProcBehavior, Procedure, UntilCardExceeds, WaitRounds};
use nochatter_sim::{
    Action, ActiveRun, CrashPoint, Declaration, Engine, EngineScratch, FaultSpec, Obs, Poll,
    RunOutcome, SimError, Static, TopologySpec, Trace, WakeSchedule,
};

const SEED: u64 = 0xC0FFEE;

fn ring_cfg(n: u32) -> InitialConfiguration {
    let graph = generators::ring(n);
    let last = graph.node_count() as u32 - 1;
    InitialConfiguration::new(
        graph,
        vec![
            (Label::new(2).unwrap(), NodeId::new(0)),
            (Label::new(3).unwrap(), NodeId::new(last)),
        ],
    )
    .expect("distinct labels on distinct nodes")
}

fn scenario(
    cfg: &InitialConfiguration,
    schedule: WakeSchedule,
    fault: FaultSpec,
) -> GatherScenario<'_> {
    GatherScenario {
        cfg,
        mode: CommMode::Silent,
        schedule,
        topo: TopologySpec::Static,
        fault,
        seed: SEED,
        trace_capacity: Some(1 << 12),
    }
}

fn setup_for(cfg: &InitialConfiguration) -> KnownSetup {
    KnownSetup::for_configuration(cfg, cfg.size() as u32, SEED)
}

fn finish(s: &GatherScenario, setup: &KnownSetup) -> Result<RunOutcome, SimError> {
    let mut scratch = EngineScratch::new();
    ScenarioRun::begin(s, setup, &mut scratch)
        .expect("run begins")
        .finish(&mut scratch)
}

#[test]
fn a_round_zero_checkpoint_reproduces_the_run_exactly() {
    let cfg = ring_cfg(5);
    let setup = setup_for(&cfg);
    let s = scenario(&cfg, WakeSchedule::Simultaneous, FaultSpec::None);
    let mut scratch = EngineScratch::new();

    let donor = ScenarioRun::begin(&s, &setup, &mut scratch).expect("run begins");
    let cp = donor.checkpoint().expect("a freshly begun run snapshots");
    assert_eq!(cp.round(), 0);
    assert_eq!(cp.executed_rounds(), 0);

    let mut resumed = ScenarioRun::begin(&s, &setup, &mut scratch).expect("run begins");
    assert!(resumed.resume_from(&cp), "shapes match, behaviors fork");
    let via_checkpoint = resumed.finish(&mut scratch);
    let from_scratch = finish(&s, &setup);
    assert_eq!(
        format!("{via_checkpoint:?}"),
        format!("{from_scratch:?}"),
        "a round-0 checkpoint must be indistinguishable from a fresh begin"
    );
}

#[test]
fn a_terminated_run_declines_to_checkpoint() {
    let cfg = ring_cfg(4);
    let setup = setup_for(&cfg);
    let s = scenario(&cfg, WakeSchedule::Simultaneous, FaultSpec::None);
    let mut scratch = EngineScratch::new();

    let mut run = ScenarioRun::begin(&s, &setup, &mut scratch).expect("run begins");
    assert!(run.checkpoint().is_some(), "a live run snapshots");
    loop {
        if let Some(result) = run.step(&mut scratch) {
            result.expect("run terminates cleanly");
            break;
        }
    }
    assert!(
        run.checkpoint().is_none(),
        "finishing takes the result-bearing state; a terminal run has \
         nothing coherent left to snapshot"
    );
}

#[test]
fn resume_is_insensitive_to_scratch_dirt() {
    let cfg = ring_cfg(5);
    let setup = setup_for(&cfg);
    let s = scenario(&cfg, WakeSchedule::Staggered { gap: 3 }, FaultSpec::None);

    // Take a mid-run checkpoint with a clean scratch.
    let mut clean = EngineScratch::new();
    let mut donor = ScenarioRun::begin(&s, &setup, &mut clean).expect("run begins");
    let mut cp = donor.checkpoint().expect("live run snapshots");
    for _ in 0..6 {
        if donor.step(&mut clean).is_some() {
            break;
        }
        cp = donor.checkpoint().expect("live run snapshots");
    }

    // Dirty a scratch with an unrelated run (different shape, mode,
    // schedule), then resume through it.
    let mut dirty = EngineScratch::new();
    let other = InitialConfiguration::new(
        generators::star(7),
        vec![
            (Label::new(8).unwrap(), NodeId::new(1)),
            (Label::new(9).unwrap(), NodeId::new(6)),
        ],
    )
    .unwrap();
    run_scenario_with_scratch(
        &other,
        CommMode::Talking,
        WakeSchedule::FirstOnly,
        &TopologySpec::Static,
        &FaultSpec::None,
        99,
        Some(Trace::with_capacity(1 << 10)),
        &mut dirty,
    )
    .expect("warmup run succeeds");

    let mut resumed = ScenarioRun::begin(&s, &setup, &mut dirty).expect("run begins");
    assert!(resumed.resume_from(&cp));
    let via_dirty = resumed.finish(&mut dirty);
    let from_scratch = finish(&s, &setup);
    assert_eq!(
        format!("{via_dirty:?}"),
        format!("{from_scratch:?}"),
        "grow-only scratch buffers must not leak into a resumed run"
    );
}

/// A cloneable seeded walker: waits or takes a random port for `steps`
/// rounds, then completes.
#[derive(Clone)]
struct CloneWalker {
    rng: Rng,
    steps: u32,
}

impl Procedure for CloneWalker {
    type Output = u32;
    fn poll(&mut self, obs: &Obs) -> Poll<u32> {
        if self.steps == 0 {
            return Poll::Complete(0);
        }
        self.steps -= 1;
        if self.rng.bool() {
            Poll::Yield(Action::Wait)
        } else {
            Poll::Yield(Action::TakePort(Port::new(
                self.rng.range(u64::from(obs.degree)) as u32,
            )))
        }
    }
}

/// One cloneable procedure type over a walker and two kinds of long wait,
/// so a single `Box<B>` behavior storage is forkable via `Clone`.
#[derive(Clone)]
enum MixedProc {
    Walk(CloneWalker),
    Idle(WaitRounds),
    Card(UntilCardExceeds<WaitRounds>),
}

impl Procedure for MixedProc {
    type Output = u32;
    fn poll(&mut self, obs: &Obs) -> Poll<u32> {
        match self {
            MixedProc::Walk(p) => p.poll(obs),
            MixedProc::Idle(p) => p.poll(obs).map(|()| 0),
            MixedProc::Card(p) => p.poll(obs).map(|out| out.was_interrupted() as u32),
        }
    }
    fn min_wait(&self) -> u64 {
        match self {
            MixedProc::Walk(p) => p.min_wait(),
            MixedProc::Idle(p) => p.min_wait(),
            MixedProc::Card(p) => p.min_wait(),
        }
    }
    fn note_skipped(&mut self, rounds: u64) {
        match self {
            MixedProc::Walk(p) => p.note_skipped(rounds),
            MixedProc::Idle(p) => p.note_skipped(rounds),
            MixedProc::Card(p) => p.note_skipped(rounds),
        }
    }
}

type ForkableMix = Box<ProcBehavior<MixedProc, fn(u32) -> Declaration>>;

fn declare(size: u32) -> Declaration {
    Declaration {
        leader: None,
        size: Some(size),
    }
}

/// One walker and three long waiters on a ring, recording into `trace`.
fn mixed_wait_engine(graph: &Graph, trace: Trace) -> Engine<'_, Static, ForkableMix> {
    let mut engine: Engine<'_, Static, ForkableMix> = Engine::with_parts(graph, &Static);
    engine.set_trace(trace);
    let procs = [
        MixedProc::Walk(CloneWalker {
            rng: Rng::seed_from(11),
            steps: 30,
        }),
        MixedProc::Idle(WaitRounds::new(60)),
        MixedProc::Idle(WaitRounds::new(75)),
        MixedProc::Card(UntilCardExceeds::new(1, WaitRounds::new(300))),
    ];
    for (i, proc_) in procs.into_iter().enumerate() {
        engine.add_agent(
            Label::new(i as u64 + 1).unwrap(),
            NodeId::new(i as u32 * 2),
            Box::new(ProcBehavior::mapping(
                proc_,
                declare as fn(u32) -> Declaration,
            )),
        );
    }
    engine
}

#[test]
fn a_mid_wait_checkpoint_resumes_bitwise() {
    let graph = Family::Ring.instantiate(9, 4);
    let mut scratch = EngineScratch::new();
    let stored = Trace::with_capacity(1 << 12);
    let reference = mixed_wait_engine(&graph, stored.clone())
        .run_with_scratch(500, &mut scratch)
        .unwrap()
        .trace
        .unwrap()
        .digest();

    // The checkpoint carries the trace so far, so a digest-only trace
    // resumes its running hash exactly where a stored trace resumes its
    // event list.
    for trace in [stored, Trace::digest_only(1 << 12)] {
        let fresh = mixed_wait_engine(&graph, trace.clone())
            .run_with_scratch(500, &mut scratch)
            .unwrap();

        // Round 12 is in the thick of the waits: both `WaitRounds` agents
        // are deep inside their `min_wait` horizons, and the walker holds
        // the lone-agent path while the three waiters lag ten rounds
        // behind it. Round 60 follows the walker's declaration: a
        // fast-forward has left both `WaitRounds` agents 28 rounds behind,
        // to be caught up when next polled.
        for cp_round in [12, 60] {
            let mut donor =
                ActiveRun::begin(mixed_wait_engine(&graph, trace.clone()), 500, &mut scratch)
                    .unwrap();
            while donor.next_round() < cp_round {
                assert!(
                    donor.step(&mut scratch).is_none(),
                    "the run must still be live at round {cp_round}"
                );
            }
            let cp = donor.checkpoint().expect("forkable behaviors snapshot");
            assert_eq!(cp.round(), cp_round);

            let mut resumed =
                ActiveRun::begin(mixed_wait_engine(&graph, trace.clone()), 500, &mut scratch)
                    .unwrap();
            assert!(resumed.resume_from(&cp), "shapes match, behaviors fork");
            let outcome = loop {
                if let Some(result) = resumed.step(&mut scratch) {
                    break result.unwrap();
                }
            };
            // Every field, poll count included, plus every trace event.
            assert_eq!(format!("{outcome:?}"), format!("{fresh:?}"));
            let (resumed_trace, fresh_trace) = (
                outcome.trace.as_ref().unwrap(),
                fresh.trace.as_ref().unwrap(),
            );
            assert_eq!(resumed_trace.events(), fresh_trace.events());
            assert_eq!(resumed_trace.digest(), reference);
            assert_eq!(fresh_trace.digest(), reference);
            let declared: Vec<u64> = outcome
                .declarations
                .iter()
                .map(|(_, rec)| rec.expect("every agent declares").round)
                .collect();
            // The walker finishes its 30 steps, the waiters their 60 and 75
            // rounds, and the card watcher is cut short when the walker
            // arrives.
            assert_eq!(declared, vec![30, 60, 75, 18]);
        }
    }
}

/// Forks a run of `donor` into `target` from the deepest checkpoint at or
/// below `max_round` (stepping the donor at most to it), finishes the
/// forked run, and asserts it is bitwise identical to `target` run from
/// scratch. Returns the checkpoint round actually used.
fn fork_and_compare(
    cfg: &InitialConfiguration,
    donor: &GatherScenario,
    target: &GatherScenario,
    max_round: u64,
) -> u64 {
    let setup = setup_for(cfg);
    let mut scratch = EngineScratch::new();
    let mut run = ScenarioRun::begin(donor, &setup, &mut scratch).expect("donor begins");
    let mut cp = run.checkpoint().expect("live run snapshots");
    loop {
        if run.next_round() > max_round {
            break;
        }
        if run.step(&mut scratch).is_some() {
            break;
        }
        match run.checkpoint() {
            Some(next) if next.round() <= max_round => cp = next,
            _ => break,
        }
    }

    let mut forked = ScenarioRun::begin(target, &setup, &mut scratch).expect("target begins");
    assert!(forked.resume_from(&cp), "shapes match, behaviors fork");
    let via_fork = forked.finish(&mut scratch);
    let from_scratch = finish(target, &setup);
    assert_eq!(
        format!("{via_fork:?}"),
        format!("{from_scratch:?}"),
        "forking from round {} must be invisible in the outcome",
        cp.round()
    );
    cp.round()
}

#[test]
fn forking_across_a_pending_wake_boundary_preserves_the_schedule() {
    let cfg = ring_cfg(5);
    // Agent 3 wakes adversarially at round 40. Checkpoints up to round 39
    // are sound for any same-shape candidate differing only at 40+; the
    // fast-forward consults the pending wake when sizing its skips, so
    // this exercises exactly the FF-cap-survives-forking contract.
    let donor = scenario(&cfg, WakeSchedule::Explicit(vec![0, 40]), FaultSpec::None);
    let target = scenario(&cfg, WakeSchedule::Explicit(vec![0, 44]), FaultSpec::None);
    // Divergence rule: differing wakes 40 vs 44 ⇒ sound through round 39.
    let used = fork_and_compare(&cfg, &donor, &target, 39);
    assert!(used > 0, "the fork must not degenerate to a fresh run");
}

#[test]
fn forking_across_a_pending_crash_boundary_reconciles_the_crash() {
    let cfg = ring_cfg(5);
    let crash_at = |round: u64| {
        FaultSpec::CrashAt(vec![CrashPoint {
            label: Label::new(3).unwrap(),
            round,
        }])
    };
    // Donor crashes agent 3 at round 90, target at round 120: identical
    // through round 89, and the checkpointed pending-crash slot must be
    // re-resolved against the *target's* spec on resume.
    let donor = scenario(&cfg, WakeSchedule::Simultaneous, crash_at(90));
    let target = scenario(&cfg, WakeSchedule::Simultaneous, crash_at(120));
    let used = fork_and_compare(&cfg, &donor, &target, 89);
    assert!(used > 0, "the fork must not degenerate to a fresh run");

    // And from a faulty donor into a fault-free target: the pending crash
    // is dropped, not inherited.
    let clean = scenario(&cfg, WakeSchedule::Simultaneous, FaultSpec::None);
    fork_and_compare(&cfg, &donor, &clean, 89);
    // The reverse direction arms a crash the donor never had.
    fork_and_compare(&cfg, &clean, &donor, 89);
}
