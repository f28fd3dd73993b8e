//! `GatherUnknownUpperBound` (paper §4): gathering, leader election and
//! exact size learning with **no a priori knowledge about the network**.
//!
//! The agents share a fixed enumeration `Ω = (φ_1, φ_2, ...)` of initial
//! configurations and test the hypotheses "`φ_h` is the real configuration"
//! one by one (Algorithm 5). Hypothesis `h` (Algorithm 6) either convinces
//! every agent of the team that gathering is achieved — in which case they
//! all declare, with the smallest label of `φ_h` as leader and `n_h` as the
//! learned size — or consumes exactly `T_h` rounds for everyone, keeping
//! the team synchronized for hypothesis `h+1`.
//!
//! The two confusion-prevention schemes of §4.1 are realized exactly:
//! *slow waits* (`w_h` rounds before every pre-main-part move) let agents
//! outrun anyone still working on later hypotheses, and *ball traversals*
//! wake every agent whose execution could interfere before the sensitive
//! window (`StarCheck` → `EnsureCleanExploration` → `GraphSizeCheck`)
//! opens. The durations come from the [`UnknownSchedule`], the
//! calibrated counterpart of the paper's astronomically loose constants
//! (the docs of `unknown/schedule.rs` give each value and the inequality
//! of the proofs it satisfies).
//!
//! The algorithm is exponential by design — the paper presents it as a
//! feasibility result — so runs are confined to small configuration
//! enumerations; the quiescence fast-forward of the engine makes the huge
//! waiting periods affordable.

mod ball;
mod ece;
mod enumeration;
mod gsc;
mod hypothesis;
mod mtcn;
mod oracle;
mod schedule;
mod starcheck;

use std::sync::Arc;

use nochatter_graph::{Graph, Label, NodeId};
use nochatter_sim::proc::Procedure;
use nochatter_sim::walk::{HeldDone, Instruction};
use nochatter_sim::{Action, Obs, Poll};

pub use ball::BallTraversal;
pub use ece::EnsureCleanExploration;
pub use enumeration::{ConfigEnumeration, ExhaustiveEnumeration, SliceEnumeration};
pub use gsc::{GraphSizeCheck, GscOutcome};
pub use hypothesis::{Hypothesis, HypothesisVerdict};
pub use mtcn::MoveToCentralNode;
pub use oracle::{EstMode, PositionTracker, SharedTracker};
pub use schedule::{
    paper_ball_budget, paper_slow_wait, HypothesisSchedule, ScheduleError, UnknownSchedule,
};
pub use starcheck::StarCheck;

/// Tunables for [`GatherUnknownUpperBound`]; the default is the faithful
/// algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct UnknownOptions {
    /// How `EST+` resolves dirty explorations (see [`EstMode`]).
    pub est_mode: EstMode,
    /// Ablation: disable the `EnsureCleanExploration` shield (Algorithm
    /// 10). Never set in the faithful algorithm; experiment A2 uses it to
    /// demonstrate the shield is load-bearing.
    pub disable_clean_exploration: bool,
}

/// The result of a full unknown-bound run: the engine outcome plus each
/// agent's report (insertion order).
pub type UnknownRunResult = (
    nochatter_sim::RunOutcome,
    Vec<(Label, Option<UnknownReport>)>,
);

/// What an agent knows when `GatherUnknownUpperBound` declares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnknownReport {
    /// The elected leader: the smallest label of the accepted hypothesis.
    pub leader: Label,
    /// The learned graph size `n_h` (Theorem 4.1: the exact size).
    pub size: u32,
    /// Which hypothesis was accepted.
    pub hypothesis: usize,
    /// Whether any `EST+` execution along the way was dirty (Lemma 4.10
    /// predicts never; surfaced for validation and ablations).
    pub est_dirty_observed: bool,
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one live hypothesis at a time; boxing buys nothing
enum Stage {
    Hyp(Hypothesis),
    /// The enumeration horizon was exhausted without success: park forever
    /// (the faithful algorithm would keep going — the horizon is a
    /// simulation artifact, and reaching it fails the run's round limit).
    Exhausted,
}

/// Algorithm 5 as a [`Procedure`]; completes with the [`UnknownReport`].
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use nochatter_core::unknown::{
///     EstMode, GatherUnknownUpperBound, SliceEnumeration, UnknownSchedule,
/// };
/// use nochatter_graph::{generators, InitialConfiguration, Label, NodeId};
///
/// let cfg = InitialConfiguration::new(
///     generators::path(2),
///     vec![
///         (Label::new(1).unwrap(), NodeId::new(0)),
///         (Label::new(2).unwrap(), NodeId::new(1)),
///     ],
/// )
/// .unwrap();
/// let omega = SliceEnumeration::new(vec![cfg.clone()]);
/// let schedule = Arc::new(UnknownSchedule::new(omega).unwrap());
/// let graph = cfg.graph_arc();
/// let agent = GatherUnknownUpperBound::new(
///     Label::new(1).unwrap(),
///     NodeId::new(0),
///     graph,
///     schedule,
///     EstMode::Conservative,
/// );
/// # let _ = agent;
/// ```
#[derive(Debug)]
pub struct GatherUnknownUpperBound {
    schedule: Arc<UnknownSchedule>,
    label: Label,
    tracker: SharedTracker,
    options: UnknownOptions,
    h: usize,
    dirty_any: bool,
    stage: Stage,
}

impl GatherUnknownUpperBound {
    /// An agent with the given label starting at `start` on the real
    /// `graph` (consumed only by the position oracle behind the `EST+`
    /// decision — see [`PositionTracker`]), testing hypotheses against the
    /// shared schedule.
    pub fn new(
        label: Label,
        start: NodeId,
        graph: Arc<Graph>,
        schedule: Arc<UnknownSchedule>,
        mode: EstMode,
    ) -> Self {
        Self::with_options(
            label,
            start,
            graph,
            schedule,
            UnknownOptions {
                est_mode: mode,
                ..UnknownOptions::default()
            },
        )
    }

    /// Like [`GatherUnknownUpperBound::new`] with explicit
    /// [`UnknownOptions`].
    pub fn with_options(
        label: Label,
        start: NodeId,
        graph: Arc<Graph>,
        schedule: Arc<UnknownSchedule>,
        options: UnknownOptions,
    ) -> Self {
        let tracker = PositionTracker::new(graph, start);
        let first = Self::make_hypothesis(&schedule, 1, label, options, &tracker);
        GatherUnknownUpperBound {
            schedule,
            label,
            tracker,
            options,
            h: 1,
            dirty_any: false,
            stage: Stage::Hyp(first),
        }
    }

    fn make_hypothesis(
        schedule: &UnknownSchedule,
        h: usize,
        label: Label,
        options: UnknownOptions,
        tracker: &SharedTracker,
    ) -> Hypothesis {
        Hypothesis::with_shield(
            schedule.enumeration().get(h).clone(),
            schedule.hypothesis(h).clone(),
            label,
            options.est_mode,
            std::rc::Rc::clone(tracker),
            !options.disable_clean_exploration,
        )
    }
}

impl Procedure for GatherUnknownUpperBound {
    type Output = UnknownReport;

    fn poll(&mut self, obs: &Obs) -> Poll<UnknownReport> {
        loop {
            match &mut self.stage {
                Stage::Hyp(hyp) => match hyp.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(HypothesisVerdict::True { dirty_est }) => {
                        self.dirty_any |= dirty_est;
                        let cfg = self.schedule.enumeration().get(self.h);
                        return Poll::Complete(UnknownReport {
                            leader: cfg.smallest_label(),
                            size: cfg.size() as u32,
                            hypothesis: self.h,
                            est_dirty_observed: self.dirty_any,
                        });
                    }
                    Poll::Complete(HypothesisVerdict::False { dirty_est }) => {
                        self.dirty_any |= dirty_est;
                        self.h += 1;
                        if self.h > self.schedule.horizon() {
                            self.stage = Stage::Exhausted;
                        } else {
                            self.stage = Stage::Hyp(Self::make_hypothesis(
                                &self.schedule,
                                self.h,
                                self.label,
                                self.options,
                                &self.tracker,
                            ));
                        }
                    }
                },
                Stage::Exhausted => return Poll::Yield(Action::Wait),
            }
        }
    }

    fn quiet_until(&self) -> u64 {
        match &self.stage {
            Stage::Hyp(h) => h.quiet_until(),
            Stage::Exhausted => u64::MAX,
        }
    }

    fn blind(&self) -> bool {
        match &self.stage {
            Stage::Hyp(h) => h.blind(),
            Stage::Exhausted => true,
        }
    }

    fn held(&self) -> Instruction {
        match &self.stage {
            Stage::Hyp(h) => h.held(),
            Stage::Exhausted => unreachable!("an exhausted agent only waits"),
        }
    }

    fn held_done(&mut self, done: HeldDone) {
        match &mut self.stage {
            Stage::Hyp(h) => h.held_done(done),
            Stage::Exhausted => unreachable!("an exhausted agent only waits"),
        }
    }
}

/// Runs `GatherUnknownUpperBound` for every agent of `cfg` against the
/// enumeration; returns the run outcome and each agent's report (insertion
/// order). The engine round limit is taken from the schedule.
///
/// # Errors
///
/// Propagates engine setup/protocol errors.
///
/// # Panics
///
/// Panics if the schedule cannot be built for the enumeration (durations
/// overflowing `u64` indicate an over-ambitious horizon).
pub fn run_unknown(
    cfg: &nochatter_graph::InitialConfiguration,
    omega: Arc<dyn ConfigEnumeration>,
    mode: EstMode,
    wake: nochatter_sim::WakeSchedule,
) -> Result<UnknownRunResult, nochatter_sim::SimError> {
    run_unknown_with_options(
        cfg,
        omega,
        UnknownOptions {
            est_mode: mode,
            ..UnknownOptions::default()
        },
        wake,
    )
}

/// [`run_unknown`] with explicit [`UnknownOptions`] (ablation harness).
///
/// # Errors
///
/// Propagates engine setup/protocol errors.
///
/// # Panics
///
/// Panics if the schedule cannot be built for the enumeration.
pub fn run_unknown_with_options(
    cfg: &nochatter_graph::InitialConfiguration,
    omega: Arc<dyn ConfigEnumeration>,
    options: UnknownOptions,
    wake: nochatter_sim::WakeSchedule,
) -> Result<UnknownRunResult, nochatter_sim::SimError> {
    use std::sync::Mutex;

    let schedule =
        Arc::new(UnknownSchedule::new(omega).expect("schedule must fit u64 for this horizon"));
    // The configuration owns its graph behind an `Arc`: the per-agent
    // position oracles share it with a pointer clone instead of copying
    // the graph once per run.
    let graph = cfg.graph_arc();
    let mut engine = nochatter_sim::Engine::new(cfg.graph());
    let sinks: Vec<(Label, Arc<Mutex<Option<UnknownReport>>>)> = cfg
        .agents()
        .iter()
        .map(|&(l, _)| (l, Arc::new(Mutex::new(None))))
        .collect();
    for (idx, &(label, start)) in cfg.agents().iter().enumerate() {
        let proc_ = GatherUnknownUpperBound::with_options(
            label,
            start,
            Arc::clone(&graph),
            Arc::clone(&schedule),
            options,
        );
        engine.add_agent(
            label,
            start,
            crate::harness::sink_agent(proc_, &sinks[idx].1, |report| nochatter_sim::Declaration {
                leader: Some(report.leader),
                size: Some(report.size),
            }),
        );
    }
    engine.set_wake_schedule(wake);
    let outcome = engine.run(schedule.round_limit())?;
    let reports = sinks
        .into_iter()
        .map(|(label, sink)| (label, *sink.lock().expect("sink poisoned")))
        .collect();
    Ok((outcome, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nochatter_graph::{generators, InitialConfiguration};
    use nochatter_sim::WakeSchedule;

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    fn cfg_path2(l1: u64, l2: u64) -> InitialConfiguration {
        InitialConfiguration::new(
            generators::path(2),
            vec![(label(l1), NodeId::new(0)), (label(l2), NodeId::new(1))],
        )
        .unwrap()
    }

    fn cfg_ring3(labels: &[(u64, u32)]) -> InitialConfiguration {
        InitialConfiguration::new(
            generators::ring(3),
            labels
                .iter()
                .map(|&(l, v)| (label(l), NodeId::new(v)))
                .collect(),
        )
        .unwrap()
    }

    fn check_success(
        cfg: &InitialConfiguration,
        omega: Arc<dyn ConfigEnumeration>,
        wake: WakeSchedule,
        expect_h: Option<usize>,
    ) {
        let (outcome, reports) =
            run_unknown(cfg, omega, EstMode::Conservative, wake).expect("run succeeds");
        let report = outcome
            .gathering()
            .unwrap_or_else(|e| panic!("gathering invalid: {e}"));
        assert_eq!(report.leader, Some(cfg.smallest_label()));
        assert_eq!(report.size, Some(cfg.size() as u32));
        for (agent, r) in &reports {
            let r = r.unwrap_or_else(|| panic!("agent {agent} has no report"));
            if let Some(h) = expect_h {
                assert_eq!(r.hypothesis, h, "accepted the wrong hypothesis");
            }
            assert!(
                !r.est_dirty_observed,
                "Lemma 4.10: every EST+ reached through the algorithm is clean"
            );
        }
    }

    #[test]
    fn true_first_hypothesis_two_nodes() {
        let cfg = cfg_path2(1, 2);
        let omega = SliceEnumeration::new(vec![cfg.clone()]);
        check_success(&cfg, omega, WakeSchedule::Simultaneous, Some(1));
    }

    #[test]
    fn wrong_labels_then_true_hypothesis() {
        // φ_1 has the wrong label set; φ_2 is the truth. The first
        // hypothesis must fail for everyone and the second must succeed.
        let cfg = cfg_path2(1, 2);
        let omega = SliceEnumeration::new(vec![cfg_path2(3, 4), cfg.clone()]);
        check_success(&cfg, omega, WakeSchedule::Simultaneous, Some(2));
    }

    #[test]
    fn wrong_size_then_true_hypothesis() {
        // φ_1 hypothesizes a 2-node world; the real network is a 3-ring.
        let cfg = cfg_ring3(&[(1, 0), (2, 2)]);
        let omega = SliceEnumeration::new(vec![cfg_path2(1, 2), cfg.clone()]);
        check_success(&cfg, omega, WakeSchedule::Simultaneous, Some(2));
    }

    #[test]
    fn swapped_positions_still_gather_correctly() {
        // φ_1 is the right graph and label set but a different placement.
        // The paper explicitly allows such a hypothesis to be accepted "by
        // chance" (§4.2): since size and labels match, whichever hypothesis
        // wins, the gathering itself must be correct — same node, same
        // round, real leader, true size. We assert exactly that and leave
        // the accepted index unconstrained.
        let cfg = cfg_ring3(&[(1, 0), (2, 2)]);
        let wrong = cfg_ring3(&[(1, 2), (2, 1)]);
        let omega = SliceEnumeration::new(vec![wrong, cfg.clone()]);
        check_success(&cfg, omega, WakeSchedule::Simultaneous, None);
    }

    #[test]
    fn staggered_wakeup_still_gathers() {
        let cfg = cfg_path2(1, 2);
        let omega = SliceEnumeration::new(vec![cfg_path2(2, 3), cfg.clone()]);
        check_success(&cfg, omega, WakeSchedule::Staggered { gap: 7 }, Some(2));
    }

    #[test]
    fn first_only_wakeup_three_agents() {
        let cfg = cfg_ring3(&[(1, 0), (2, 1), (3, 2)]);
        let omega = SliceEnumeration::new(vec![cfg.clone()]);
        check_success(&cfg, omega, WakeSchedule::FirstOnly, Some(1));
    }

    #[test]
    fn exhausted_enumeration_times_out_cleanly() {
        // Ω never contains the truth: nobody declares, the engine hits the
        // schedule-derived round limit, and the outcome reports it.
        let cfg = cfg_ring3(&[(1, 0), (2, 2)]);
        let omega = SliceEnumeration::new(vec![cfg_path2(1, 2)]);
        let (outcome, reports) = run_unknown(
            &cfg,
            omega,
            EstMode::Conservative,
            WakeSchedule::Simultaneous,
        )
        .expect("run completes");
        assert!(!outcome.all_declared());
        assert!(reports.iter().all(|(_, r)| r.is_none()));
    }
}
