//! Convenience runners wiring configurations, parameters and procedures
//! into the engine — used by tests, examples and the benchmark harness.
//!
//! Every runner adds its agents to the engine as boxed procedures; the
//! runners whose reports outgrow a [`Declaration`] hand them out through a
//! per-agent sink. One scenario is one engine run.

use std::sync::{Arc, Mutex};

use nochatter_graph::{InitialConfiguration, Label};
use nochatter_sim::proc::Procedure;
use nochatter_sim::{
    Declaration, Engine, EngineScratch, FaultSpec, RunOutcome, Sensing, SimError, Static, Topology,
    TopologySpec, Trace, WakeSchedule,
};

use crate::codec::BitStr;
use crate::gossip::{GossipKnownUpperBound, GossipReport};
use crate::known::{CommMode, GatherKnownUpperBound};
use crate::params::KnownParams;

/// Bundled parameters for known-upper-bound runs.
#[derive(Clone, Debug)]
pub struct KnownSetup {
    params: KnownParams,
}

impl KnownSetup {
    /// Builds parameters whose exploration sequence is certified for the
    /// configuration's graph, with the declared upper bound `n_upper`
    /// (clamped up to the true size — `N` must be an upper bound).
    pub fn for_configuration(cfg: &InitialConfiguration, n_upper: u32, seed: u64) -> Self {
        let n = n_upper.max(cfg.size() as u32);
        KnownSetup {
            params: KnownParams::for_corpus(n, std::slice::from_ref(cfg.graph()), seed),
        }
    }

    /// The setup every scenario-style run of `cfg` uses
    /// ([`run_scenario`], and the campaign runner's gossip cells): the
    /// bound is the true size and the exploration-sequence stream derives
    /// from `seed`.
    pub fn for_scenario(cfg: &InitialConfiguration, seed: u64) -> Self {
        KnownSetup::for_configuration(cfg, cfg.size() as u32, seed)
    }

    /// Wraps explicit parameters.
    pub fn from_params(params: KnownParams) -> Self {
        KnownSetup { params }
    }

    /// The underlying timing parameters.
    pub fn params(&self) -> &KnownParams {
        &self.params
    }

    /// The engine round limit of a known-bound gathering run of `cfg`
    /// under this setup: Theorem 3.1's bound for the smallest label (see
    /// [`KnownParams::round_limit`]). No such run reports more rounds.
    pub fn round_limit(&self, cfg: &InitialConfiguration) -> u64 {
        self.params.round_limit(cfg.smallest_label_bit_len())
    }
}

/// Boxes `proc_` as an agent that, on completion, stores its full output
/// in `sink` and declares `declare(&output)`: the declaration carries only
/// what the model lets an agent announce (leader, size), the sink the
/// whole report.
pub(crate) fn sink_agent<P>(
    proc_: P,
    sink: &Arc<Mutex<Option<P::Output>>>,
    declare: fn(&P::Output) -> Declaration,
) -> nochatter_sim::Agent
where
    P: Procedure + 'static,
    P::Output: 'static,
{
    let sink = Arc::clone(sink);
    Box::new(proc_.map(move |out| {
        let declaration = declare(&out);
        *sink.lock().expect("sink poisoned") = Some(out);
        declaration
    }))
}

fn sensing_for(mode: CommMode) -> Sensing {
    match mode {
        CommMode::Silent => Sensing::Weak,
        CommMode::Talking => Sensing::Traditional,
    }
}

/// Runs `GatherKnownUpperBound` for every agent of `cfg` under the given
/// wake schedule; the round limit is derived from the paper's complexity
/// bound, so hitting it means a bug rather than slowness.
///
/// # Errors
///
/// Propagates engine setup or protocol errors.
pub fn run_known(
    cfg: &InitialConfiguration,
    setup: &KnownSetup,
    mode: CommMode,
    schedule: WakeSchedule,
) -> Result<RunOutcome, SimError> {
    run_known_traced(cfg, setup, mode, schedule, None)
}

/// [`run_known`] with optional event tracing (capacity in events); the
/// recorded trace lands in [`RunOutcome::trace`].
///
/// # Errors
///
/// Propagates engine setup or protocol errors.
pub fn run_known_traced(
    cfg: &InitialConfiguration,
    setup: &KnownSetup,
    mode: CommMode,
    schedule: WakeSchedule,
    trace_capacity: Option<usize>,
) -> Result<RunOutcome, SimError> {
    run_known_traced_with_scratch(
        cfg,
        setup,
        mode,
        schedule,
        trace_capacity,
        &mut EngineScratch::new(),
    )
}

/// [`run_known_traced`] against caller-owned engine working memory, so a
/// loop over many runs allocates nothing in steady state. Identical
/// outcomes, bit for bit.
///
/// # Errors
///
/// Propagates engine setup or protocol errors.
pub fn run_known_traced_with_scratch(
    cfg: &InitialConfiguration,
    setup: &KnownSetup,
    mode: CommMode,
    schedule: WakeSchedule,
    trace_capacity: Option<usize>,
    scratch: &mut EngineScratch,
) -> Result<RunOutcome, SimError> {
    run_known_view(
        cfg,
        KnownRun {
            setup,
            mode,
            schedule,
            fault: &FaultSpec::None,
            trace: trace_capacity.map(Trace::with_capacity),
        },
        &Static,
        scratch,
    )
}

/// The non-configuration arguments of one known-upper-bound engine run,
/// grouped so the wiring function keeps a readable signature as axes
/// (sensing mode, wake schedule, fault adversary, tracing) accumulate.
struct KnownRun<'a> {
    setup: &'a KnownSetup,
    mode: CommMode,
    schedule: WakeSchedule,
    fault: &'a FaultSpec,
    trace: Option<Trace>,
}

/// The one engine-wiring path behind every known-upper-bound runner,
/// monomorphized over the topology: the [`Static`] instantiation is the
/// fault-free pre-dynamic hot path, and one [`nochatter_sim::SpecView`]
/// instantiation covers every round-varying provider.
fn run_known_view<T: Topology>(
    cfg: &InitialConfiguration,
    run: KnownRun<'_>,
    topology: &T,
    scratch: &mut EngineScratch,
) -> Result<RunOutcome, SimError> {
    let mut engine = Engine::with_topology(cfg.graph(), topology);
    engine.set_sensing(sensing_for(run.mode));
    engine.set_faults(run.fault.clone());
    if let Some(trace) = run.trace {
        engine.set_trace(trace);
    }
    for &(label, start) in cfg.agents() {
        engine.add_agent(
            label,
            start,
            Box::new(
                GatherKnownUpperBound::with_mode(run.setup.params.clone(), label, run.mode)
                    .map(Declaration::with_leader),
            ),
        );
    }
    engine.set_wake_schedule(run.schedule);
    engine.run_with_scratch(run.setup.round_limit(cfg), scratch)
}

/// The single entry point every scenario-style consumer (the bench tables,
/// the `nochatter-lab` campaign runner, the differential tests, examples)
/// uses to execute one known-upper-bound gathering scenario.
///
/// Builds [`KnownSetup::for_scenario`] from `(cfg, seed)` — the
/// exploration-sequence stream derives from `seed`, the bound is the true
/// size — and runs, up to [`KnownSetup::round_limit`], under
/// `mode`, `schedule`, the round-varying topology described by `topo`
/// ([`TopologySpec::Static`] is the paper's model and costs nothing; see
/// [`nochatter_graph::dynamic`] for the dynamic providers) and the
/// crash-fault adversary `fault` ([`FaultSpec::None`] is the paper's model
/// and costs nothing). `trace`, if given, records the run's events and
/// comes back in [`RunOutcome::trace`]: [`Trace::digest_only`] when only
/// the digest is wanted (the campaign runner's choice), or
/// [`Trace::with_capacity`] to keep the events. Fully deterministic:
/// identical arguments produce a bitwise-identical [`RunOutcome`], which
/// is what makes sharded campaign runs reproducible regardless of worker
/// count.
///
/// # Errors
///
/// Propagates engine setup or protocol errors.
///
/// # Panics
///
/// Panics if `topo` is incompatible with the configuration's graph
/// (a [`TopologySpec::Ring`] over a non-cycle — check
/// [`TopologySpec::compatible_with`] first).
///
/// # Example
///
/// ```
/// use nochatter_core::{harness, CommMode};
/// use nochatter_graph::{generators, InitialConfiguration, Label, NodeId};
/// use nochatter_sim::{FaultSpec, TopologySpec, WakeSchedule};
///
/// let cfg = InitialConfiguration::new(
///     generators::ring(4),
///     vec![
///         (Label::new(2).unwrap(), NodeId::new(0)),
///         (Label::new(3).unwrap(), NodeId::new(2)),
///     ],
/// )?;
/// let outcome = harness::run_scenario(
///     &cfg,
///     CommMode::Silent,
///     WakeSchedule::Simultaneous,
///     &TopologySpec::Static,
///     &FaultSpec::None,
///     7,
///     None,
/// )?;
/// assert!(outcome.gathering().is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_scenario(
    cfg: &InitialConfiguration,
    mode: CommMode,
    schedule: WakeSchedule,
    topo: &TopologySpec,
    fault: &FaultSpec,
    seed: u64,
    trace: Option<Trace>,
) -> Result<RunOutcome, SimError> {
    run_scenario_with_scratch(
        cfg,
        mode,
        schedule,
        topo,
        fault,
        seed,
        trace,
        &mut EngineScratch::new(),
    )
}

/// [`run_scenario`] against caller-owned engine working memory: the
/// buffers behind occupancy tracking and observations are reused instead
/// of reallocated, which is what the campaign runner threads through each
/// of its workers. Identical outcomes, bit for bit.
///
/// # Errors
///
/// Propagates engine setup or protocol errors.
///
/// # Panics
///
/// Panics if `topo` is incompatible with the configuration's graph.
#[allow(clippy::too_many_arguments)] // the scenario axes ARE the signature
pub fn run_scenario_with_scratch(
    cfg: &InitialConfiguration,
    mode: CommMode,
    schedule: WakeSchedule,
    topo: &TopologySpec,
    fault: &FaultSpec,
    seed: u64,
    trace: Option<Trace>,
    scratch: &mut EngineScratch,
) -> Result<RunOutcome, SimError> {
    let setup = KnownSetup::for_scenario(cfg, seed);
    let run = KnownRun {
        setup: &setup,
        mode,
        schedule,
        fault,
        trace,
    };
    if topo.is_static() {
        // The zero-cost monomorphization: exactly the fault-free
        // pre-dynamic engine when `fault` is `FaultSpec::None`.
        run_known_view(cfg, run, &Static, scratch)
    } else {
        run_known_view(cfg, run, topo, scratch)
    }
}

/// One known-upper-bound gathering scenario: the argument tuple of
/// [`run_scenario`] as a value.
// Shim for perfbench/; the next benchmark change deletes it.
#[doc(hidden)]
#[derive(Clone, Debug)]
pub struct GatherScenario<'a> {
    /// The initial configuration to run.
    pub cfg: &'a InitialConfiguration,
    /// Silent (weak sensing) or talking (traditional sensing).
    pub mode: CommMode,
    /// The adversary's wake schedule.
    pub schedule: WakeSchedule,
    /// The round-varying topology ([`TopologySpec::Static`] for the
    /// paper's model).
    pub topo: TopologySpec,
    /// The crash-fault adversary ([`FaultSpec::None`] for the paper's
    /// model).
    pub fault: FaultSpec,
    /// Seed of the exploration-sequence stream.
    pub seed: u64,
    /// Event-trace capacity, if a trace is wanted. The trace stores its
    /// events ([`Trace::with_capacity`]).
    pub trace_capacity: Option<usize>,
}

/// Runs each scenario of `batch` in turn through
/// [`run_scenario_with_scratch`], threading one scratch through all of
/// them. An engine error in one scenario does not abort the rest.
// Shim for perfbench/; the next benchmark change deletes it.
#[doc(hidden)]
pub fn run_scenario_batch_with_scratch(
    batch: &[GatherScenario<'_>],
    scratch: &mut EngineScratch,
) -> Vec<Result<RunOutcome, SimError>> {
    batch
        .iter()
        .map(|s| {
            run_scenario_with_scratch(
                s.cfg,
                s.mode,
                s.schedule.clone(),
                &s.topo,
                &s.fault,
                s.seed,
                s.trace_capacity.map(Trace::with_capacity),
                scratch,
            )
        })
        .collect()
}

/// Runs the composed gather-then-gossip algorithm and returns the outcome
/// plus each agent's final [`GossipReport`] (in configuration label order).
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics if `messages` does not cover exactly the configuration's labels.
pub fn run_gossip_outcome(
    cfg: &InitialConfiguration,
    setup: &KnownSetup,
    mode: CommMode,
    messages: &[(Label, BitStr)],
    schedule: WakeSchedule,
) -> Result<(RunOutcome, Vec<(Label, GossipReport)>), SimError> {
    assert_eq!(
        messages.len(),
        cfg.agent_count(),
        "one message per agent required"
    );
    let mut engine = Engine::new(cfg.graph());
    engine.set_sensing(sensing_for(mode));
    let sinks: Vec<(Label, Arc<Mutex<Option<GossipReport>>>)> = cfg
        .agents()
        .iter()
        .map(|&(label, _)| (label, Arc::new(Mutex::new(None))))
        .collect();
    for (idx, &(label, start)) in cfg.agents().iter().enumerate() {
        let payload = messages
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no message for agent {label}"))
            .1
            .clone();
        let proc_ = GossipKnownUpperBound::new(setup.params.clone(), label, payload, mode);
        engine.add_agent(
            label,
            start,
            sink_agent(proc_, &sinks[idx].1, |report| {
                Declaration::with_leader(report.leader)
            }),
        );
    }
    engine.set_wake_schedule(schedule);
    let max_code_len = messages
        .iter()
        .map(|(_, m)| 2 * m.len() as u64 + 2)
        .max()
        .unwrap_or(2);
    let gather_limit = setup.round_limit(cfg);
    // Gossip cost: for each delivered message, the length budget climbs
    // 2, 4, ..., |σ| with Communicate cost 5jT — quadratic in the code
    // length, linear in the team size.
    let t = setup.params.t_explo();
    let per_message = 5 * t * (max_code_len / 2 + 1) * (max_code_len + 2);
    let limit = gather_limit + per_message * cfg.agent_count() as u64 + 100 * t;
    let outcome = engine.run(limit)?;
    let reports = sinks
        .into_iter()
        .map(|(label, sink)| {
            let report = sink
                .lock()
                .expect("sink poisoned")
                .clone()
                .unwrap_or_else(|| panic!("agent {label} produced no gossip report"));
            (label, report)
        })
        .collect();
    Ok((outcome, reports))
}

/// Like [`run_gossip_outcome`] but returning only the per-agent reports.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_gossip(
    cfg: &InitialConfiguration,
    setup: &KnownSetup,
    mode: CommMode,
    messages: &[(Label, BitStr)],
    schedule: WakeSchedule,
) -> Result<Vec<(Label, GossipReport)>, SimError> {
    run_gossip_outcome(cfg, setup, mode, messages, schedule).map(|(_, reports)| reports)
}

/// Runs the zero-knowledge `GossipUnknownUpperBound` for every agent of
/// `cfg` against the enumeration; returns the outcome and the per-agent
/// reports (insertion order).
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics if `messages` does not cover exactly the configuration's labels
/// or the schedule cannot be built.
pub fn run_gossip_unknown(
    cfg: &InitialConfiguration,
    omega: std::sync::Arc<dyn crate::unknown::ConfigEnumeration>,
    messages: &[(Label, BitStr)],
    schedule: WakeSchedule,
) -> Result<(RunOutcome, Vec<(Label, crate::gossip::UnknownGossipReport)>), SimError> {
    use crate::gossip::GossipUnknownUpperBound;
    use crate::unknown::{EstMode, GatherUnknownUpperBound, UnknownSchedule};

    assert_eq!(
        messages.len(),
        cfg.agent_count(),
        "one message per agent required"
    );
    let unknown_schedule = std::sync::Arc::new(
        UnknownSchedule::new(omega).expect("schedule must fit u64 for this horizon"),
    );
    // The configuration already owns its graph behind an `Arc`: sharing it
    // with every agent's position oracle is a pointer clone, not a graph
    // copy per run.
    let graph = cfg.graph_arc();
    let mut engine = Engine::new(cfg.graph());
    let sinks: Vec<(
        Label,
        Arc<Mutex<Option<crate::gossip::UnknownGossipReport>>>,
    )> = cfg
        .agents()
        .iter()
        .map(|&(l, _)| (l, Arc::new(Mutex::new(None))))
        .collect();
    for (idx, &(label, start)) in cfg.agents().iter().enumerate() {
        let payload = messages
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no message for agent {label}"))
            .1
            .clone();
        let gather = GatherUnknownUpperBound::new(
            label,
            start,
            std::sync::Arc::clone(&graph),
            std::sync::Arc::clone(&unknown_schedule),
            EstMode::Conservative,
        );
        engine.add_agent(
            label,
            start,
            sink_agent(
                GossipUnknownUpperBound::new(gather, payload),
                &sinks[idx].1,
                |report| Declaration {
                    leader: Some(report.gathering.leader),
                    size: Some(report.gathering.size),
                },
            ),
        );
    }
    engine.set_wake_schedule(schedule);
    // The gossip term is negligible next to the unknown-bound budgets.
    let limit = unknown_schedule.round_limit().saturating_mul(2);
    let outcome = engine.run(limit)?;
    let reports = sinks
        .into_iter()
        .map(|(label, sink)| {
            let report = sink
                .lock()
                .expect("sink poisoned")
                .clone()
                .unwrap_or_else(|| panic!("agent {label} produced no gossip report"));
            (label, report)
        })
        .collect();
    Ok((outcome, reports))
}
