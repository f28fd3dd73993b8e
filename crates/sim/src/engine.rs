//! The deterministic synchronous execution engine.

use std::num::NonZeroU64;

use nochatter_graph::dynamic::{Static, Topology, TopologyView};
use nochatter_graph::{Graph, Label, NodeId, Port};

use crate::error::SimError;
use crate::fault::FaultSpec;
use crate::obs::{Action, Obs, Poll};
use crate::outcome::{Declaration, DeclarationRecord, RunOutcome, RunStatus};
use crate::proc::Procedure;
use crate::schedule::WakeSchedule;
use crate::trace::{Trace, TraceEvent};

/// What co-located agents can perceive about each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Sensing {
    /// The paper's weak model: only `CurCard` is visible.
    #[default]
    Weak,
    /// The traditional model: co-located agents additionally see each
    /// other's labels. Used only by the talking-model baseline.
    Traditional,
}

/// An agent's lifecycle phase — the explicit state machine the engine's
/// poll/apply loops match on:
///
/// ```text
/// Dormant ──wake──▶ Active ⇄ Blocked
///    │                 │        │
///    │                 ├──▶ Declared   (terminal)
///    └───────crash────▶┴──▶ Crashed    (terminal)
/// ```
///
/// `Dormant` agents sleep until the adversary's wake round or the first
/// visit. `Active` agents are polled once per round. `Blocked` is the
/// one-observation state after a move attempt hit an absent edge
/// (round-varying topologies only): the agent is still executing, sees
/// `blocked: true` in its next observation, and reverts to `Active` the
/// moment it is polled. `Declared` and `Crashed` are terminal — the agent
/// never acts again, but its body stays on its node and keeps counting
/// toward `CurCard`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AgentPhase {
    /// Asleep; woken by the adversary's schedule or by the first visitor.
    #[default]
    Dormant,
    /// Awake and executing its procedure.
    Active,
    /// Awake; the previous move attempt hit an absent edge, which the next
    /// observation reports (then back to [`AgentPhase::Active`]).
    Blocked,
    /// Declared that gathering is achieved; halted at its node.
    Declared,
    /// Crashed by the fault adversary; its body stays at its node.
    Crashed,
}

impl AgentPhase {
    /// True for the terminal phases ([`AgentPhase::Declared`] and
    /// [`AgentPhase::Crashed`]): the agent will never act again.
    pub fn is_terminal(self) -> bool {
        matches!(self, AgentPhase::Declared | AgentPhase::Crashed)
    }

    /// True for the executing phases ([`AgentPhase::Active`] and
    /// [`AgentPhase::Blocked`]): the agent is polled this round.
    pub fn is_executing(self) -> bool {
        matches!(self, AgentPhase::Active | AgentPhase::Blocked)
    }
}

/// An agent's program: a procedure whose output is its declaration.
pub type Agent = Box<dyn Procedure<Output = Declaration>>;

/// Struct-of-arrays agent storage.
///
/// The round loop touches the small per-agent scalars (phase, position,
/// wake/crash rounds) far more often than the procedures' state machines,
/// so each field lives in its own contiguous array instead of one
/// array-of-structs row per agent. Procedures are boxed trait objects in
/// their own vector: every agent, built-in or user-defined, is added the
/// same way.
struct AgentArena {
    labels: Vec<Label>,
    pos: Vec<NodeId>,
    phase: Vec<AgentPhase>,
    /// True exactly until the first poll after waking.
    just_woken: Vec<bool>,
    entry_port: Vec<Option<Port>>,
    declared: Vec<Option<DeclarationRecord>>,
    /// Adversary wake round (`u64::MAX` = wake-on-visit only).
    adversary_wake: Vec<u64>,
    /// Resolved crash round (`u64::MAX` = never); cleared once applied.
    crash_round: Vec<u64>,
    /// The slow move the engine holds for the agent: the round it is due
    /// and its port, or `None` (the round of a slow move with a positive
    /// wait is always past round 0). Every round before the due round is
    /// a blind wait the engine answers itself; in the due round the
    /// engine makes the move without a poll.
    slow: Vec<(Option<NonZeroU64>, Port)>,
    procs: Vec<Agent>,
}

impl AgentArena {
    fn new() -> Self {
        AgentArena {
            labels: Vec::new(),
            pos: Vec::new(),
            phase: Vec::new(),
            just_woken: Vec::new(),
            entry_port: Vec::new(),
            declared: Vec::new(),
            adversary_wake: Vec::new(),
            crash_round: Vec::new(),
            slow: Vec::new(),
            procs: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    fn push(&mut self, label: Label, start: NodeId, agent: Agent) {
        self.labels.push(label);
        self.pos.push(start);
        self.phase.push(AgentPhase::Dormant);
        self.just_woken.push(false);
        self.entry_port.push(None);
        self.declared.push(None);
        self.adversary_wake.push(u64::MAX);
        self.crash_round.push(u64::MAX);
        self.slow.push((None, Port::new(0)));
        self.procs.push(agent);
    }

    /// Agent `i`'s wait promise after its poll in `round`: the rounds
    /// before a pending slow move's due round, or its procedure's
    /// `min_wait`.
    fn min_wait(&self, i: usize, round: u64) -> u64 {
        match self.slow[i].0 {
            Some(due) => due.get() - round - 1,
            None => self.procs[i].min_wait(),
        }
    }

    /// Whether agent `i`'s promise holds whatever it observes: always
    /// inside a slow move's wait, else as its procedure says.
    fn blind(&self, i: usize) -> bool {
        self.slow[i].0.is_some() || self.procs[i].blind()
    }

    /// Tells agent `i`'s procedure about `rounds` skipped rounds, unless
    /// the engine is counting down its slow move: that wait is absolute,
    /// and nothing of it reaches the procedure.
    fn note_skipped(&mut self, i: usize, rounds: u64) {
        if self.slow[i].0.is_none() {
            self.procs[i].note_skipped(rounds);
        }
    }
}

/// Reusable per-run working memory for [`Engine::run_with_scratch`].
///
/// One run needs per-node occupancy state and a few per-agent buffers; a
/// fresh [`Engine::run`] allocates them every time, which dominates the
/// cost of short runs executed in bulk (campaigns, benches, proptests).
/// Threading one `EngineScratch` through repeated runs keeps every buffer's
/// capacity, so steady-state execution allocates nothing.
///
/// The scratch carries no semantic state between runs: a run leaves its
/// dirt behind and the next run's internal `prepare` clears exactly the
/// entries the previous run touched. Reusing one scratch across graphs of
/// different sizes, after failed runs, across sensing modes or across
/// engines over different topologies is always safe —
/// [`Engine::run`] and [`Engine::run_with_scratch`] produce bitwise
/// identical [`RunOutcome`]s.
#[derive(Default)]
pub struct EngineScratch {
    /// Per-node occupant count (`CurCard` per node). All-zero outside the
    /// occupancy phase except for nodes listed in `touched`.
    card: Vec<u32>,
    /// Per-node bucket of the labels present this round, in increasing
    /// agent order. Empty outside the occupancy phase except for `touched`
    /// nodes.
    occupants: Vec<Vec<Label>>,
    /// The nodes with at least one agent this round — the only entries of
    /// `card`/`occupants` that need clearing, so the per-round wipe is
    /// O(k), not O(n).
    touched: Vec<u32>,
    /// This round's acts, co-indexed with the engine's agents: a move
    /// instruction (a slow move already resolved into a wait or a move),
    /// or a completed procedure's declaration.
    acts: Vec<Option<Poll<Declaration>>>,
    /// Sorted co-located labels, recycled through [`Obs::peer_labels`]
    /// under [`Sensing::Traditional`] instead of allocating a fresh vector
    /// per agent per round.
    labels: Vec<Label>,
    /// Agent-index permutation for the sort-based validation.
    validate_order: Vec<usize>,
}

impl EngineScratch {
    /// An empty scratch; buffers grow on first use and are kept thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears whatever the previous run left behind and sizes the buffers
    /// for a graph of `n` nodes and `agent_count` agents. O(touched) for
    /// the clearing plus O(n) only when the node capacity grows.
    ///
    /// Buffers only ever grow: one scratch serves a worker's runs of every
    /// size in turn, so shrinking for a small run would only reallocate for
    /// the next big one. The round loop indexes only its own `n` nodes and
    /// `agent_count` action slots, so surplus capacity is invisible.
    fn prepare(&mut self, n: usize, agent_count: usize) {
        wipe_occupancy(&mut self.card, &mut self.occupants, &mut self.touched);
        if self.card.len() < n {
            self.card.resize(n, 0);
            self.occupants.resize_with(n, Vec::new);
        }
        if self.acts.len() < agent_count {
            self.acts.resize(agent_count, None);
        }
        self.labels.clear();
    }
}

/// Restores the all-zero occupancy invariant by clearing exactly the node
/// entries listed in `touched`. The one cleanup shared by
/// [`EngineScratch::prepare`], the invalid-port early return and the
/// end-of-round wipe, so the paths cannot drift.
fn wipe_occupancy(card: &mut [u32], occupants: &mut [Vec<Label>], touched: &mut Vec<u32>) {
    for node in touched.drain(..) {
        card[node as usize] = 0;
        occupants[node as usize].clear();
    }
}

/// Everything the round loop accumulates about a run — the context struct
/// handed to the finish step (instead of a parameter per counter).
#[derive(Default)]
struct RunStats {
    total_moves: u64,
    blocked_moves: u64,
    engine_iterations: u64,
    skipped_rounds: u64,
    /// Agent polls: one per executing agent per dense round, one per
    /// lone-agent round, except the round a held slow move is made in.
    polled_agent_rounds: u64,
    max_colocation: u32,
    last_declaration_round: u64,
    last_crash_round: u64,
}

/// The synchronous-round executor.
///
/// Build it over a graph, add agents (label, start node, program), pick a
/// wake schedule and sensing mode, then [`Engine::run`]. The engine is fully
/// deterministic: identical inputs produce identical runs, bit for bit.
///
/// The engine is generic over a [`TopologyView`] `V`: every round, move
/// resolution consults the view before traversing an edge, so the same
/// loop executes static networks and round-varying ones (periodic outages,
/// seeded edge failures, the dynamic-ring adversary — see
/// [`nochatter_graph::dynamic`]). The default [`Static`] view answers a
/// constant `true` that the optimizer folds away. An agent taking a port
/// whose edge is absent this round stays put, keeps its entry port, and
/// sees `blocked: true` in its next [`Obs`].
///
/// Agents live in a struct-of-arrays arena; each one's program is an
/// [`Agent`], a boxed procedure, the one way to add an agent. The engine
/// holds each [`Action::SlowMove`] in the arena: it answers the wait's
/// rounds, and the promise calls about them, without reaching the
/// procedure, and makes the move itself in its due round.
///
/// Agent lifecycle is the explicit [`AgentPhase`] state machine, and the
/// optional [`FaultSpec`] crash adversary ([`Engine::set_faults`]) can move
/// agents to [`AgentPhase::Crashed`] mid-run: they stop acting, their
/// bodies keep counting toward `CurCard`.
///
/// See the [crate docs](crate) for a complete example.
pub struct Engine<'g, V: TopologyView = Static> {
    graph: &'g Graph,
    view: V,
    agents: AgentArena,
    schedule: WakeSchedule,
    sensing: Sensing,
    faults: FaultSpec,
    trace: Option<Trace>,
}

impl<'g> Engine<'g> {
    /// A fresh engine over the static `graph` with no agents, simultaneous
    /// wake-up, weak sensing and no faults.
    pub fn new(graph: &'g Graph) -> Self {
        Engine::with_topology(graph, &Static)
    }
}

impl<'g, V: TopologyView> Engine<'g, V> {
    /// A fresh engine over `graph` under a round-varying topology: the
    /// provider's [`TopologyView`] decides, per round, which edges of the
    /// base graph are present.
    pub fn with_topology<T: Topology<View = V>>(graph: &'g Graph, topology: &T) -> Self {
        Engine {
            graph,
            view: topology.view(graph),
            agents: AgentArena::new(),
            schedule: WakeSchedule::Simultaneous,
            sensing: Sensing::Weak,
            faults: FaultSpec::None,
            trace: None,
        }
    }

    /// Adds an agent with the given label, start node and program; the
    /// procedure's output is the agent's declaration.
    pub fn add_agent(&mut self, label: Label, start: NodeId, agent: Agent) {
        self.agents.push(label, start, agent);
    }

    /// Chooses the adversary's wake schedule (default: simultaneous).
    pub fn set_wake_schedule(&mut self, schedule: WakeSchedule) {
        self.schedule = schedule;
    }

    /// Chooses the sensing model (default: weak).
    pub fn set_sensing(&mut self, sensing: Sensing) {
        self.sensing = sensing;
    }

    /// Chooses the crash-fault adversary (default: [`FaultSpec::None`]).
    /// Resolved against the team during validation; see [`FaultSpec`].
    pub fn set_faults(&mut self, faults: FaultSpec) {
        self.faults = faults;
    }

    /// Records the run's events into `trace` (pass a fresh one, from
    /// [`Trace::with_capacity`] to keep the events or [`Trace::digest_only`]
    /// to keep only their digest); the run hands it back in
    /// [`RunOutcome::trace`].
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = Some(trace);
    }

    /// Enables event tracing, storing up to `capacity` events: shorthand
    /// for `set_trace(Trace::with_capacity(capacity))`.
    pub fn record_trace(&mut self, capacity: usize) {
        self.set_trace(Trace::with_capacity(capacity));
    }

    /// The lexicographically smallest conflicting index pair among agents
    /// sharing a key, or `None`. `order` is sorted by `(key(i), i)`, so
    /// within every run of equal keys indices ascend and the smallest pair
    /// of each run is an adjacent window; O(k log k) overall instead of the
    /// former all-pairs O(k²) scan.
    fn min_duplicate_pair<K: Ord>(
        order: &mut [usize],
        key: impl Fn(usize) -> K,
    ) -> Option<(usize, usize)> {
        order.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)).then(a.cmp(&b)));
        let mut min: Option<(usize, usize)> = None;
        for w in order.windows(2) {
            if key(w[0]) == key(w[1]) {
                let pair = (w[0], w[1]);
                if min.is_none_or(|m| pair < m) {
                    min = Some(pair);
                }
            }
        }
        min
    }

    fn validate(&mut self, order: &mut Vec<usize>) -> Result<(), SimError> {
        if self.agents.is_empty() {
            return Err(SimError::NoAgents);
        }
        // The historical validation scanned agent pairs (i, j) in
        // lexicographic order, checking start-out-of-range at (i, ·) first,
        // then shared starts before duplicate labels at each pair. Keep that
        // report order exactly (so multi-violation setups surface the same
        // error) while finding each candidate with a sort instead of the
        // quadratic scan: out-of-range at index i ranks as (i, i), a
        // conflicting pair as (i, j) with j > i, position before label.
        order.clear();
        order.extend(0..self.agents.len());
        let pos_pair = Self::min_duplicate_pair(order, |i| self.agents.pos[i]);
        let label_pair = Self::min_duplicate_pair(order, |i| self.agents.labels[i]);
        let oob = self
            .agents
            .pos
            .iter()
            .position(|&p| !self.graph.contains(p))
            .map(|i| (i, i));
        // (i, j, check-rank): out-of-range ranks before the pair checks of
        // the same row (its j equals i), position before label at a tie.
        let first = [
            oob.map(|(i, j)| (i, j, 0u8)),
            pos_pair.map(|(i, j)| (i, j, 1u8)),
            label_pair.map(|(i, j)| (i, j, 2u8)),
        ]
        .into_iter()
        .flatten()
        .min();
        match first {
            Some((i, _, 0)) => {
                return Err(SimError::StartOutOfRange {
                    node: self.agents.pos[i],
                })
            }
            Some((i, _, 1)) => {
                return Err(SimError::SharedStart {
                    node: self.agents.pos[i],
                })
            }
            Some((i, _, _)) => {
                return Err(SimError::DuplicateLabel {
                    label: self.agents.labels[i],
                })
            }
            None => {}
        }
        let wake = self
            .schedule
            .wake_rounds(self.agents.len())
            .map_err(|reason| SimError::BadWakeSchedule { reason })?;
        self.agents.adversary_wake.copy_from_slice(&wake);
        let crashes = self
            .faults
            .crash_rounds(&self.agents.labels)
            .map_err(|reason| SimError::BadFaultSpec { reason })?;
        self.agents.crash_round.copy_from_slice(&crashes);
        Ok(())
    }

    /// Runs until every agent has reached a terminal phase or `max_rounds`
    /// have elapsed.
    ///
    /// Allocates a fresh [`EngineScratch`] — when executing many runs in a
    /// row, build one scratch and use [`Engine::run_with_scratch`] instead.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on setup problems or if an agent commits a
    /// protocol violation (taking a nonexistent port).
    pub fn run(self, max_rounds: u64) -> Result<RunOutcome, SimError> {
        self.run_with_scratch(max_rounds, &mut EngineScratch::new())
    }

    /// [`Engine::run`] against caller-owned working memory: repeated runs
    /// through one [`EngineScratch`] allocate nothing in steady state. The
    /// outcome is bitwise identical to [`Engine::run`]'s.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on setup problems or if an agent commits a
    /// protocol violation (taking a nonexistent port).
    pub fn run_with_scratch(
        self,
        max_rounds: u64,
        scratch: &mut EngineScratch,
    ) -> Result<RunOutcome, SimError> {
        let mut run = ActiveRun::begin(self, max_rounds, scratch)?;
        loop {
            if let Some(result) = run.step(scratch) {
                return result;
            }
        }
    }
}

/// One validated run being stepped round by round — the engine's loop
/// reified as a state machine.
///
/// [`ActiveRun::begin`] performs validation and setup; every
/// [`ActiveRun::step`] executes exactly one iteration of the round loop
/// (one simulated round plus that round's quiescence fast-forward) against
/// a borrowed [`EngineScratch`], and returns the run's result once it
/// terminates. [`Engine::run_with_scratch`] is a trivial `begin`/`step`
/// driver.
///
/// Scratch discipline: a step leaves `card`/`occupants` all-zero (the
/// end-of-round wipe drains `touched`, including on the invalid-port error
/// path), so the next run through the same scratch starts clean.
pub(crate) struct ActiveRun<'g, V: TopologyView> {
    engine: Engine<'g, V>,
    trace: Option<Trace>,
    stats: RunStats,
    /// Crash machinery is engaged only while some resolved crash is still
    /// pending: under `FaultSpec::None` this stays 0 and the whole fault
    /// phase is one untaken branch per round.
    pending_crashes: usize,
    /// Occupancy buckets feed only the traditional-sensing peer-label
    /// observation; the silent model pays nothing for them.
    bucket_occupants: bool,
    /// Debug-build contract net for the quiescence fast-forward: per agent,
    /// the absolute round through which its last [`Procedure::min_wait`]
    /// (or the wait of the slow move the engine holds) promised further
    /// `Wait`s, the observation signature (degree, cur_card, entry_port)
    /// the promise was made under (`None` for a one-off observation), and
    /// whether it was [`Procedure::blind`].
    /// A poll inside the promised window with an identical signature, or
    /// with any observation under a blind promise, must yield `Wait` —
    /// catching unsound `min_wait` implementations at the source instead
    /// of as a report byte-diff three layers up. Weak sensing only (a
    /// scalar signature cannot capture traditional peer labels).
    #[cfg(debug_assertions)]
    #[allow(clippy::type_complexity)]
    promise: Vec<(u64, Option<(u32, u32, Option<Port>)>, bool)>,
    /// True while the round loop takes the lone-agent path (see
    /// [`ActiveRun::step`]): every executing agent but at most one is
    /// inside a wait promise, and only the one that is due gets polled.
    lone: bool,
    /// Per agent, the last round covered by its latest wait promise
    /// (`poll round + min_wait`). The agent is due from that round on: a
    /// poll in the last promised round still waits, but the dense loop
    /// would read a fresh `min_wait` after it, which may already promise
    /// more than the one round left. Meaningful only for executing agents
    /// while `lone` holds.
    quiet_through: Vec<u64>,
    /// Per agent, the first round its procedure has not yet been told
    /// about, by a poll or a `note_skipped`. Agents inside a promise lag
    /// behind the clock on the lone-agent path and catch up with one
    /// `note_skipped` when next polled or when the path is left.
    synced: Vec<u64>,
    /// The first round the lone-agent path must not execute: the next
    /// adversary wake of a dormant agent, the next pending crash, or the
    /// round limit, whichever comes first.
    lone_stop: u64,
    round: u64,
    max_rounds: u64,
}

impl<'g, V: TopologyView> ActiveRun<'g, V> {
    /// Validates the engine's setup and prepares the run for stepping.
    pub fn begin(
        mut engine: Engine<'g, V>,
        max_rounds: u64,
        scratch: &mut EngineScratch,
    ) -> Result<Self, SimError> {
        engine.validate(&mut scratch.validate_order)?;
        let trace = engine.trace.take();
        scratch.prepare(engine.graph.node_count(), engine.agents.len());
        let bucket_occupants = engine.sensing == Sensing::Traditional;
        let pending_crashes = engine
            .agents
            .crash_round
            .iter()
            .filter(|&&r| r != u64::MAX)
            .count();
        let k = engine.agents.len();
        Ok(ActiveRun {
            engine,
            trace,
            stats: RunStats::default(),
            pending_crashes,
            bucket_occupants,
            #[cfg(debug_assertions)]
            promise: vec![(0, None, false); k],
            lone: false,
            quiet_through: vec![0; k],
            synced: vec![0; k],
            lone_stop: 0,
            round: 0,
            max_rounds,
        })
    }

    /// Executes one iteration of the round loop. Returns `Some` once the
    /// run has terminated (all agents terminal, round limit, or a protocol
    /// violation); the run must not be stepped again after that.
    ///
    /// An iteration takes one of two paths through the same round
    /// semantics. The dense path scans wakes and crashes, builds the
    /// occupancy, and polls and applies every executing agent. The
    /// lone-agent path runs while exactly one executing agent is due and
    /// every other one is inside its wait promise ([`Procedure::min_wait`],
    /// or a slow move's wait): it polls and applies that agent alone, and
    /// the others catch up later with one [`Procedure::note_skipped`] call
    /// each. A dense
    /// round under [`Sensing::Weak`] with no one-off observation (just
    /// woken, blocked) enters the path when every agent waited, or when
    /// exactly one moved while the rest waited and the move disturbed no
    /// one — provided a single agent will be due next. A move disturbs a
    /// body at either end that is dormant (the visit wakes it) or
    /// executing under a promise that is not blind ([`Procedure::blind`]);
    /// declared and crashed bodies never act again. The path is left when no
    /// single agent is due, when an adversary wake, a crash or the round
    /// limit is due, after the due agent's move disturbed another body,
    /// and after it polled a one-off observation. Both paths fast-forward
    /// identically, so the outcome differs only in `polled_agent_rounds`.
    pub fn step(&mut self, scratch: &mut EngineScratch) -> Option<Result<RunOutcome, SimError>> {
        if self.round >= self.max_rounds {
            return Some(Ok(self.finish(RunStatus::RoundLimit, self.max_rounds)));
        }
        if self.lone {
            match self.lone_due() {
                Some(i) => return self.lone_step(i),
                None => self.leave_lone(),
            }
        }
        self.dense_step(scratch)
    }

    /// One round of the dense path: every agent's wake and crash, the
    /// occupancy, and a poll of every executing agent.
    fn dense_step(&mut self, scratch: &mut EngineScratch) -> Option<Result<RunOutcome, SimError>> {
        let round = self.round;
        let k = self.engine.agents.len();
        let EngineScratch {
            card,
            occupants,
            touched,
            acts,
            labels: label_buf,
            ..
        } = scratch;
        // The scratch only ever grows (see `prepare`); this run uses
        // exactly its own `k` action slots.
        let acts = &mut acts[..k];

        self.stats.engine_iterations += 1;
        // Advance the topology to this round. Fast-forwarded rounds are
        // skipped soundly: a view is a pure function of the round
        // number, and edge presence is unobservable in a round where
        // every active agent waits.
        self.engine.view.begin_round(round);

        // 0. Crash faults due this round. Crashes precede wake-ups: an
        // agent crashing in its wake round never wakes. A crash round
        // on an already-declared agent resolves to nothing — the
        // declaration stands. Either way the entry is cleared, so
        // `pending_crashes` reaches 0 and the branch disappears.
        if self.pending_crashes > 0 {
            for i in 0..k {
                if self.engine.agents.crash_round[i] <= round {
                    self.engine.agents.crash_round[i] = u64::MAX;
                    self.pending_crashes -= 1;
                    if self.engine.agents.phase[i] == AgentPhase::Declared {
                        continue;
                    }
                    self.engine.agents.phase[i] = AgentPhase::Crashed;
                    // A crash inside a slow move's wait cancels the move.
                    self.engine.agents.slow[i].0 = None;
                    self.stats.last_crash_round = self.stats.last_crash_round.max(round);
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEvent::Crashed {
                            agent: self.engine.agents.labels[i],
                            round,
                            node: self.engine.agents.pos[i],
                        });
                    }
                }
            }
        }

        // 1. Adversary wake-ups scheduled for this round.
        for i in 0..k {
            if self.engine.agents.phase[i] == AgentPhase::Dormant
                && self.engine.agents.adversary_wake[i] <= round
            {
                self.engine.agents.phase[i] = AgentPhase::Active;
                self.engine.agents.just_woken[i] = true;
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEvent::Wake {
                        agent: self.engine.agents.labels[i],
                        round,
                        by_visit: false,
                    });
                }
            }
        }

        // 2. Occupancy, counting every agent physically present —
        // dormant, declared and crashed bodies included (the paper's
        // sensing model counts bodies, not executions). Only the ≤ k
        // occupied nodes are bucketed and recorded in `touched`; the
        // end-of-round wipe clears exactly those, so no phase of the
        // loop scans all n nodes.
        for (&pos, &label) in self
            .engine
            .agents
            .pos
            .iter()
            .zip(self.engine.agents.labels.iter())
        {
            let node = pos.index();
            if card[node] == 0 {
                touched.push(node as u32);
            }
            card[node] += 1;
            if self.bucket_occupants {
                occupants[node].push(label);
            }
        }
        for &node in touched.iter() {
            self.stats.max_colocation = self.stats.max_colocation.max(card[node as usize]);
        }

        // 3. Wake-on-visit: a dormant agent co-located with any other
        // body starts executing this round. Two dormant agents can
        // never share a node (starts are distinct and dormant agents do
        // not move), so any co-located company is awake, declared or
        // crashed — and a body is a body: a crashed agent wakes a
        // sleeper exactly as a declared one does.
        for i in 0..k {
            if self.engine.agents.phase[i] != AgentPhase::Dormant {
                continue;
            }
            if card[self.engine.agents.pos[i].index()] > 1 {
                self.engine.agents.phase[i] = AgentPhase::Active;
                self.engine.agents.just_woken[i] = true;
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEvent::Wake {
                        agent: self.engine.agents.labels[i],
                        round,
                        by_visit: true,
                    });
                }
            }
        }

        // 4. Poll every executing agent (simultaneously: all
        // observations are computed from the same positions). Count the
        // agents that did not wait, for the lone-agent entry below.
        let mut any_active = false;
        let mut any_fresh = false;
        let mut actors = 0;
        let mut actor = 0;
        for (i, slot) in acts.iter_mut().enumerate() {
            *slot = None;
            if !self.engine.agents.phase[i].is_executing() {
                continue;
            }
            any_active = true;
            let pos = self.engine.agents.pos[i];
            let peers = if self.bucket_occupants {
                // The node's bucket lists everyone present in agent
                // order; fill and sort the one scratch buffer, and lend
                // it to the observation instead of allocating.
                label_buf.clear();
                label_buf.extend_from_slice(&occupants[pos.index()]);
                label_buf.sort_unstable();
                Some(&mut *label_buf)
            } else {
                None
            };
            let (act, fresh) = self.poll_agent(i, round, card[pos.index()], peers);
            any_fresh |= fresh;
            if !matches!(act, Poll::Yield(Action::Wait)) {
                actors += 1;
                actor = i;
            }
            *slot = Some(act);
        }

        // 5. Apply actions simultaneously.
        let actor_from = self.engine.agents.pos[actor];
        for (i, act) in acts.iter().enumerate() {
            let Some(act) = *act else { continue };
            if let Err(err) = self.apply(i, act, round) {
                // Leave the scratch clean for the next run through it.
                wipe_occupancy(card, occupants, touched);
                return Some(Err(err));
            }
        }
        // The lone-agent path may start after a round where one agent
        // moved (a blocked move or a declaration stays put) without
        // disturbing anyone, and everyone else waited on an observation
        // that stays identical or under a blind promise.
        let weak = self.engine.sensing == Sensing::Weak;
        let lone_mover = weak && actors == 1 && !any_fresh && {
            let to = self.engine.agents.pos[actor];
            to != actor_from && !self.disturbs(actor, actor_from, to)
        };

        // End-of-round wipe: clear exactly the nodes occupied this round,
        // restoring the all-zero scratch invariant.
        wipe_occupancy(card, occupants, touched);

        if let Some(outcome) = self.terminal_outcome() {
            return Some(Ok(outcome));
        }

        let mut next = round + 1;

        // 6. Quiescence fast-forward: if every active agent waited, no
        // observation can change until some procedure stops waiting,
        // the adversary wakes someone, or a fault crashes someone.
        // Skip ahead by the largest provably quiet stretch: to the end of
        // the shortest promise, capped by the next adversary wake, crash (a
        // crash mid-stretch must execute in its exact round: the agent
        // stops acting from then on) or the round limit. Under weak
        // sensing the promises are kept as the lone-agent path's
        // `quiet_through` and the skip is caught up lazily, unless some
        // observation this round was a one-off (just woken or blocked)
        // that the next one will not repeat. The path pays off only if a
        // single agent is due when the skip ends: no cap cut it short and
        // the second-shortest promise outlasts the shortest by two rounds
        // or more.
        if actors == 0 && any_active {
            let track = weak && !any_fresh;
            let (mut first, mut second) = (u64::MAX, u64::MAX);
            let agents = &self.engine.agents;
            for (i, &phase) in agents.phase.iter().enumerate() {
                if phase.is_executing() {
                    let wait = agents.min_wait(i, round);
                    if wait < first {
                        second = first;
                        first = wait;
                    } else if wait < second {
                        second = wait;
                    }
                    if track {
                        self.quiet_through[i] = round.saturating_add(wait);
                    }
                }
            }
            let stop = self.next_stop();
            let skip = first.min(stop.saturating_sub(next));
            let lone = track && skip == first && second > first.saturating_add(1);
            if skip > 0 && skip != u64::MAX {
                if !lone {
                    let agents = &mut self.engine.agents;
                    for i in 0..k {
                        if agents.phase[i].is_executing() {
                            agents.note_skipped(i, skip);
                        }
                    }
                }
                next += skip;
                self.stats.skipped_rounds += skip;
            }
            if lone {
                self.enter_lone(round + 1, stop);
            }
        } else if lone_mover {
            // The only `min_wait` calls a round with a mover pays for; the
            // path pays off only if no waiter is due next round as well.
            let agents = &self.engine.agents;
            let mut waiter_due = false;
            for (i, &phase) in agents.phase.iter().enumerate() {
                if phase.is_executing() {
                    let through = if i == actor {
                        round
                    } else {
                        round.saturating_add(agents.min_wait(i, round))
                    };
                    self.quiet_through[i] = through;
                    waiter_due |= i != actor && through <= next;
                }
            }
            if !waiter_due {
                self.enter_lone(round + 1, self.next_stop());
            }
        }

        self.round = next;
        None
    }

    /// One round of the lone-agent path: agent `i` is the only executing
    /// agent due, and every other one is inside its wait promise. Emits
    /// exactly the events, counters and fast-forward of a dense round.
    fn lone_step(&mut self, i: usize) -> Option<Result<RunOutcome, SimError>> {
        let round = self.round;
        self.stats.engine_iterations += 1;
        self.engine.view.begin_round(round);
        let lag = round - self.synced[i];
        if lag > 0 {
            self.engine.agents.note_skipped(i, lag);
        }
        self.synced[i] = round + 1;
        let pos = &self.engine.agents.pos;
        let from = pos[i];
        let cur_card = pos.iter().filter(|&&p| p == from).count() as u32;
        // Only the due agent moves on this path, so its node is the only
        // one whose count can have grown since the last dense round.
        self.stats.max_colocation = self.stats.max_colocation.max(cur_card);
        let (act, fresh) = self.poll_agent(i, round, cur_card, None);
        if let Err(err) = self.apply(i, act, round) {
            return Some(Err(err));
        }

        let mut next = round + 1;
        // A one-off observation (blocked) backs no promise that lazy
        // catch-up could rely on; hand the next round to the dense path.
        let mut leave = fresh;
        match act {
            Poll::Yield(Action::Wait) => {
                self.quiet_through[i] = round.saturating_add(self.engine.agents.min_wait(i, round));
                // The dense fast-forward's skip: every executing agent's
                // remaining promise, capped by the next wake, crash or
                // the round limit.
                let mut skip = self.lone_stop - next;
                for (&phase, &quiet) in self.engine.agents.phase.iter().zip(&self.quiet_through) {
                    if phase.is_executing() {
                        skip = skip.min(quiet - round);
                    }
                }
                if skip > 0 {
                    next += skip;
                    self.stats.skipped_rounds += skip;
                }
            }
            Poll::Yield(_) => {
                self.quiet_through[i] = round;
                let to = self.engine.agents.pos[i];
                leave |= to != from && self.disturbs(i, from, to);
            }
            Poll::Complete(_) => {
                if let Some(outcome) = self.terminal_outcome() {
                    return Some(Ok(outcome));
                }
            }
        }
        self.round = next;
        if leave {
            self.leave_lone();
        }
        None
    }

    /// Whether agent `i`'s move from `from` to `to` changes what another
    /// body at either end acts on: a dormant body wakes by the visit, and
    /// an executing one sees its `CurCard` change, which only a blind
    /// promise ([`AgentArena::blind`]) ignores. Declared and crashed
    /// bodies never act again.
    fn disturbs(&self, i: usize, from: NodeId, to: NodeId) -> bool {
        let agents = &self.engine.agents;
        agents.pos.iter().enumerate().any(|(j, &at)| {
            j != i
                && (at == from || at == to)
                && match agents.phase[j] {
                    AgentPhase::Dormant => true,
                    AgentPhase::Active | AgentPhase::Blocked => !agents.blind(j),
                    AgentPhase::Declared | AgentPhase::Crashed => false,
                }
        })
    }

    /// The one executing agent due this round if it is the only one and no
    /// wake, crash or round limit is due; `None` ends the lone-agent path.
    fn lone_due(&self) -> Option<usize> {
        if self.round >= self.lone_stop {
            return None;
        }
        let mut due = None;
        for (i, (&phase, &quiet)) in self
            .engine
            .agents
            .phase
            .iter()
            .zip(&self.quiet_through)
            .enumerate()
        {
            if quiet <= self.round && phase.is_executing() {
                if due.is_some() {
                    return None;
                }
                due = Some(i);
            }
        }
        due
    }

    /// Starts the lone-agent path after a dense round, to run until
    /// `stop` ([`ActiveRun::next_stop`]): every procedure has been told
    /// about every round before `synced`, and learns of any rounds skipped
    /// since from its next catch-up.
    fn enter_lone(&mut self, synced: u64, stop: u64) {
        self.lone = true;
        self.synced.fill(synced);
        self.lone_stop = stop;
    }

    /// The next round the adversary or the limit acts in, which no skip
    /// may pass and no lone-agent round may execute: the next adversary
    /// wake of a dormant agent, the next pending crash or the round limit.
    fn next_stop(&self) -> u64 {
        let agents = &self.engine.agents;
        let wake = agents
            .phase
            .iter()
            .zip(&agents.adversary_wake)
            .filter(|&(&phase, _)| phase == AgentPhase::Dormant)
            .map(|(_, &wake)| wake)
            .min()
            .unwrap_or(u64::MAX);
        let crash = if self.pending_crashes > 0 {
            agents.crash_round.iter().copied().min().unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        wake.min(crash).min(self.max_rounds)
    }

    /// Ends the lone-agent path: catches every lagging executing agent up
    /// to the current round with one `note_skipped` call.
    fn leave_lone(&mut self) {
        self.lone = false;
        let round = self.round;
        let agents = &mut self.engine.agents;
        for (i, synced) in self.synced.iter_mut().enumerate() {
            if agents.phase[i].is_executing() && *synced < round {
                agents.note_skipped(i, round - *synced);
                *synced = round;
            }
        }
    }

    /// Polls executing agent `i` in `round` on `cur_card` (and, under
    /// traditional sensing, the lent `peers` buffer), counts the poll and
    /// returns its act plus whether the observation was a one-off (just
    /// woken or blocked). Shared by both paths, as is the debug-build
    /// promise check.
    ///
    /// The engine holds slow moves here. A yielded [`Action::SlowMove`] is
    /// read with its wait `w` at once: `w == 0` is a plain move, otherwise
    /// the move is due in round `round + w` and the act is a wait. Until
    /// then the engine answers `Wait` itself, and in the due round it
    /// makes the move; neither reaches the procedure, and the move round
    /// is not counted as a poll.
    #[inline(always)]
    fn poll_agent(
        &mut self,
        i: usize,
        round: u64,
        cur_card: u32,
        mut peers: Option<&mut Vec<Label>>,
    ) -> (Poll<Declaration>, bool) {
        let agents = &mut self.engine.agents;
        let (due, port) = agents.slow[i];
        if let Some(due) = due {
            if due.get() == round {
                agents.slow[i].0 = None;
                return (Poll::Yield(Action::TakePort(port)), false);
            }
            self.stats.polled_agent_rounds += 1;
            return (Poll::Yield(Action::Wait), false);
        }
        let phase = agents.phase[i];
        let mut obs = Obs {
            round,
            degree: self.engine.graph.degree(agents.pos[i]),
            cur_card,
            entry_port: agents.entry_port[i],
            just_woken: agents.just_woken[i],
            blocked: phase == AgentPhase::Blocked,
            peer_labels: peers.as_mut().map(|buf| std::mem::take(&mut **buf)),
        };
        let mut act = agents.procs[i].poll(&obs);
        if let Poll::Yield(Action::SlowMove(port)) = act {
            act = Poll::Yield(match agents.procs[i].slow_wait() {
                0 => Action::TakePort(port),
                wait => {
                    agents.slow[i] = (NonZeroU64::new(round.saturating_add(wait)), port);
                    Action::Wait
                }
            });
        }
        self.stats.polled_agent_rounds += 1;
        let fresh = obs.blocked || obs.just_woken;
        #[cfg(debug_assertions)]
        self.check_promise(i, &obs, &act, fresh);
        // Reclaim the lent label buffer (and its capacity).
        if let (Some(buf), Some(labels)) = (peers, obs.peer_labels.take()) {
            *buf = labels;
        }
        // A `Blocked` agent has now seen its failed attempt.
        self.engine.agents.just_woken[i] = false;
        self.engine.agents.phase[i] = AgentPhase::Active;
        (act, fresh)
    }

    /// Debug-build contract net for the quiescence fast-forward and the
    /// lone-agent path: a poll inside the window promised by the agent's
    /// last `min_wait` must wait if its observation is identical to the
    /// one the promise was made on, or whatever it is if the promise was
    /// blind.
    #[cfg(debug_assertions)]
    fn check_promise(&mut self, i: usize, obs: &Obs, act: &Poll<Declaration>, fresh: bool) {
        if self.engine.sensing != Sensing::Weak {
            return;
        }
        let round = obs.round;
        let sig = (obs.degree, obs.cur_card, obs.entry_port);
        let (through, promised, blind) = self.promise[i];
        if round <= through && (blind || (!fresh && promised == Some(sig))) {
            debug_assert!(
                matches!(act, Poll::Yield(Action::Wait)),
                "agent {} acted at round {round} inside its promised wait horizon \
                 (through round {through}, blind: {blind})",
                self.engine.agents.labels[i]
            );
        }
        let agents = &self.engine.agents;
        self.promise[i] = (
            round.saturating_add(agents.min_wait(i, round)),
            (!fresh).then_some(sig),
            agents.blind(i),
        );
    }

    /// Applies agent `i`'s act of `round`: a move, a blocked attempt or a
    /// declaration, with its trace event. Shared by both paths.
    #[inline(always)]
    fn apply(&mut self, i: usize, act: Poll<Declaration>, round: u64) -> Result<(), SimError> {
        match act {
            Poll::Yield(Action::Wait) => {}
            Poll::Yield(Action::SlowMove(_)) => unreachable!("poll_agent resolves every slow move"),
            Poll::Yield(Action::TakePort(p)) => {
                let pos = self.engine.agents.pos[i];
                match self.engine.graph.neighbor(pos, p) {
                    // A port that exists in the base graph but whose
                    // edge is absent this round blocks: the agent
                    // stays put (entry port untouched) and its next
                    // observation reports it. A nonexistent port is
                    // still a protocol violation — dynamics never
                    // change the degree an agent observes.
                    Some(_) if !self.engine.view.edge_present(pos, p) => {
                        self.engine.agents.phase[i] = AgentPhase::Blocked;
                        self.stats.blocked_moves += 1;
                        if let Some(t) = self.trace.as_mut() {
                            t.push(TraceEvent::Blocked {
                                agent: self.engine.agents.labels[i],
                                round,
                                node: pos,
                                port: p,
                            });
                        }
                    }
                    Some((to, back)) => {
                        if let Some(t) = self.trace.as_mut() {
                            t.push(TraceEvent::Move {
                                agent: self.engine.agents.labels[i],
                                round,
                                from: pos,
                                to,
                                port: p,
                            });
                        }
                        self.engine.agents.pos[i] = to;
                        self.engine.agents.entry_port[i] = Some(back);
                        self.stats.total_moves += 1;
                    }
                    None => {
                        return Err(SimError::InvalidPort {
                            agent: self.engine.agents.labels[i],
                            node: pos,
                            port: p,
                            round,
                        });
                    }
                }
            }
            Poll::Complete(d) => {
                self.engine.agents.declared[i] = Some(DeclarationRecord {
                    round,
                    node: self.engine.agents.pos[i],
                    declaration: d,
                });
                self.engine.agents.phase[i] = AgentPhase::Declared;
                self.stats.last_declaration_round = self.stats.last_declaration_round.max(round);
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEvent::Declare {
                        agent: self.engine.agents.labels[i],
                        round,
                        node: self.engine.agents.pos[i],
                        declaration: d,
                    });
                }
            }
        }
        Ok(())
    }

    /// The final outcome once every agent is terminal. All declared is
    /// the paper's successful end; any crash among otherwise-declared
    /// agents halts the run early too — nothing can change anymore — but
    /// reports `Halted` (the crashed agents never declared).
    fn terminal_outcome(&mut self) -> Option<RunOutcome> {
        if !self.engine.agents.phase.iter().all(|p| p.is_terminal()) {
            return None;
        }
        let crashed = self.engine.agents.phase.contains(&AgentPhase::Crashed);
        let (status, rounds) = if crashed {
            (
                RunStatus::Halted,
                self.stats
                    .last_declaration_round
                    .max(self.stats.last_crash_round),
            )
        } else {
            (RunStatus::AllDeclared, self.stats.last_declaration_round)
        };
        Some(self.finish(status, rounds))
    }

    /// Assembles the outcome. Takes the arena's result-bearing columns out
    /// of the run; only called once, on the terminating step.
    fn finish(&mut self, status: RunStatus, rounds: u64) -> RunOutcome {
        let labels = std::mem::take(&mut self.engine.agents.labels);
        let phase = std::mem::take(&mut self.engine.agents.phase);
        let declared = std::mem::take(&mut self.engine.agents.declared);
        let stats = std::mem::take(&mut self.stats);
        let crashed_agents = labels
            .iter()
            .zip(phase.iter())
            .filter(|&(_, &p)| p == AgentPhase::Crashed)
            .map(|(&l, _)| l)
            .collect();
        RunOutcome {
            status,
            rounds,
            declarations: labels.into_iter().zip(declared).collect(),
            crashed_agents,
            total_moves: stats.total_moves,
            blocked_moves: stats.blocked_moves,
            engine_iterations: stats.engine_iterations,
            skipped_rounds: stats.skipped_rounds,
            polled_agent_rounds: stats.polled_agent_rounds,
            max_colocation: stats.max_colocation,
            trace: self.trace.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashPoint;
    use crate::proc::WaitRounds;
    use nochatter_graph::generators;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    /// Declares bare whatever the procedure completes with.
    fn bare<T>(_: T) -> Declaration {
        Declaration::bare()
    }

    /// Declares the moment it sees company.
    struct DeclareOnCompany;
    impl Procedure for DeclareOnCompany {
        type Output = ();
        fn poll(&mut self, obs: &Obs) -> Poll<()> {
            if obs.cur_card > 1 {
                Poll::Complete(())
            } else {
                Poll::Yield(Action::Wait)
            }
        }
    }

    #[test]
    fn rejects_no_agents() {
        let g = generators::ring(4);
        let engine = Engine::new(&g);
        assert!(matches!(engine.run(10), Err(SimError::NoAgents)));
    }

    #[test]
    fn rejects_shared_start() {
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        for l in [1u64, 2] {
            engine.add_agent(
                label(l),
                NodeId::new(0),
                Box::new(WaitRounds::new(0).map(bare)),
            );
        }
        assert!(matches!(engine.run(10), Err(SimError::SharedStart { .. })));
    }

    #[test]
    fn rejects_duplicate_label() {
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(WaitRounds::new(0).map(bare)),
        );
        engine.add_agent(
            label(1),
            NodeId::new(1),
            Box::new(WaitRounds::new(0).map(bare)),
        );
        assert!(matches!(
            engine.run(10),
            Err(SimError::DuplicateLabel { .. })
        ));
    }

    #[test]
    fn validation_error_priority_matches_the_old_pairwise_scan() {
        // The historical validator scanned pairs (i, j) lexicographically,
        // out-of-range before the pair checks of row i, position before
        // label at the same pair. Multi-violation setups must keep
        // reporting the same winner.
        let g = generators::ring(4);
        let agent = |engine: &mut Engine<'_>, l: u64, pos: u32| {
            engine.add_agent(
                label(l),
                NodeId::new(pos),
                Box::new(WaitRounds::new(0).map(bare)),
            );
        };
        // Label pair (0, 3) beats position pair (1, 3).
        let mut engine = Engine::new(&g);
        for (l, pos) in [(1u64, 0u32), (2, 1), (3, 2), (1, 1)] {
            agent(&mut engine, l, pos);
        }
        assert!(matches!(
            engine.run(10),
            Err(SimError::DuplicateLabel { label: l }) if l == label(1)
        ));
        // Position pair (0, 1) beats label pair (1, 2).
        let mut engine = Engine::new(&g);
        for (l, pos) in [(1u64, 0u32), (2, 0), (2, 2)] {
            agent(&mut engine, l, pos);
        }
        assert!(matches!(
            engine.run(10),
            Err(SimError::SharedStart { node }) if node == NodeId::new(0)
        ));
        // Position pair (0, 2) beats the out-of-range start at index 1.
        let mut engine = Engine::new(&g);
        for (l, pos) in [(1u64, 0u32), (2, 99), (3, 0)] {
            agent(&mut engine, l, pos);
        }
        assert!(matches!(
            engine.run(10),
            Err(SimError::SharedStart { node }) if node == NodeId::new(0)
        ));
        // ...but an out-of-range start in row 0 beats the pair (1, 2).
        let mut engine = Engine::new(&g);
        for (l, pos) in [(1u64, 99u32), (2, 1), (3, 1)] {
            agent(&mut engine, l, pos);
        }
        assert!(matches!(
            engine.run(10),
            Err(SimError::StartOutOfRange { node }) if node == NodeId::new(99)
        ));
    }

    #[test]
    fn invalid_port_is_reported() {
        struct BadPort;
        impl Procedure for BadPort {
            type Output = ();
            fn poll(&mut self, _obs: &Obs) -> Poll<()> {
                Poll::Yield(Action::TakePort(Port::new(99)))
            }
        }
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        engine.add_agent(label(1), NodeId::new(0), Box::new(BadPort.map(bare)));
        engine.add_agent(
            label(2),
            NodeId::new(1),
            Box::new(WaitRounds::new(50).map(bare)),
        );
        match engine.run(10) {
            Err(SimError::InvalidPort { agent, round, .. }) => {
                assert_eq!(agent, label(1));
                assert_eq!(round, 0);
            }
            other => panic!("expected InvalidPort, got {other:?}"),
        }
    }

    #[test]
    fn boxed_behaviors_declaring_on_their_first_poll_end_in_round_zero() {
        struct DeclareNow;
        impl Procedure for DeclareNow {
            type Output = Declaration;
            fn poll(&mut self, _obs: &Obs) -> Poll<Declaration> {
                Poll::Complete(Declaration::bare())
            }
        }
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        for (l, n) in [(1u64, 0u32), (2, 2)] {
            engine.add_agent(label(l), NodeId::new(n), Box::new(DeclareNow));
        }
        engine.set_wake_schedule(WakeSchedule::Simultaneous);
        let outcome = engine.run(10).unwrap();
        assert!(outcome.all_declared());
        assert_eq!(outcome.rounds, 0);
    }

    #[test]
    fn walker_wakes_sleeper_and_both_declare() {
        let g = generators::ring(5);
        let mut engine = Engine::new(&g);
        // Agent 1 walks; agent 2 sleeps until visited, then declares when it
        // sees company (which happens in its wake round).
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(RunFor5Moves::default().map(bare)),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(DeclareOnCompany.map(bare)),
        );
        engine.set_wake_schedule(WakeSchedule::FirstOnly);
        engine.record_trace(64);
        let outcome = engine.run(100).unwrap();
        assert!(outcome.all_declared());
        let trace = outcome.trace.as_ref().unwrap();
        // Agent 2 must have been woken by visit in round 2 (two moves away).
        assert!(trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::Wake { agent, round: 2, by_visit: true } if *agent == label(2)
        )));
    }

    /// Moves clockwise 5 times then completes.
    #[derive(Default)]
    struct RunFor5Moves {
        moves: u32,
    }
    impl Procedure for RunFor5Moves {
        type Output = ();
        fn poll(&mut self, _obs: &Obs) -> Poll<()> {
            if self.moves >= 5 {
                Poll::Complete(())
            } else {
                self.moves += 1;
                Poll::Yield(Action::TakePort(Port::new(1)))
            }
        }
    }

    #[test]
    fn crossing_agents_swap_without_meeting() {
        // Two agents adjacent on a ring, both stepping toward each other,
        // swap nodes and never observe cur_card > 1.
        struct RecordMax {
            dir: u32,
            max_seen: u32,
            steps: u32,
        }
        impl Procedure for RecordMax {
            type Output = u32;
            fn poll(&mut self, obs: &Obs) -> Poll<u32> {
                self.max_seen = self.max_seen.max(obs.cur_card);
                if self.steps == 0 {
                    Poll::Complete(self.max_seen)
                } else {
                    self.steps -= 1;
                    Poll::Yield(Action::TakePort(Port::new(self.dir)))
                }
            }
        }
        let g = generators::ring(6);
        let mut engine = Engine::new(&g);
        // Agent 1 at node 0 moves clockwise (port 1); agent 2 at node 1
        // moves counterclockwise (port 0). They cross on the same edge.
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(
                RecordMax {
                    dir: 1,
                    max_seen: 0,
                    steps: 1,
                }
                .map(|m| Declaration {
                    leader: None,
                    size: Some(m),
                }),
            ),
        );
        engine.add_agent(
            label(2),
            NodeId::new(1),
            Box::new(
                RecordMax {
                    dir: 0,
                    max_seen: 0,
                    steps: 1,
                }
                .map(|m| Declaration {
                    leader: None,
                    size: Some(m),
                }),
            ),
        );
        let outcome = engine.run(10).unwrap();
        assert!(outcome.all_declared());
        for (_, rec) in &outcome.declarations {
            // Neither agent ever saw a second agent.
            assert_eq!(rec.unwrap().declaration.size, Some(1));
        }
        // But they did end up on swapped nodes.
        let nodes: Vec<NodeId> = outcome
            .declarations
            .iter()
            .map(|(_, r)| r.unwrap().node)
            .collect();
        assert_eq!(nodes, vec![NodeId::new(1), NodeId::new(0)]);
    }

    #[test]
    fn fast_forward_skips_long_waits() {
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        for (l, pos) in [(1u64, 0u32), (2, 2)] {
            engine.add_agent(
                label(l),
                NodeId::new(pos),
                Box::new(WaitRounds::new(1_000_000).map(bare)),
            );
        }
        let outcome = engine.run(2_000_000).unwrap();
        assert!(outcome.all_declared());
        assert!(
            outcome.engine_iterations < 100,
            "fast-forward should reduce ~1M rounds to a handful of \
             iterations, got {}",
            outcome.engine_iterations
        );
        assert!(outcome.skipped_rounds > 999_000);
        // Declarations still happen in the correct round.
        assert_eq!(outcome.rounds, 1_000_000);
    }

    #[test]
    fn fast_forward_respects_pending_wakeups() {
        // Agent 2 wakes at round 500 and declares instantly; agent 1 waits
        // long. The fast-forward must not jump past round 500.
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(WaitRounds::new(1000).map(bare)),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(WaitRounds::new(0).map(bare)),
        );
        engine.set_wake_schedule(WakeSchedule::Explicit(vec![0, 500]));
        let outcome = engine.run(10_000).unwrap();
        assert!(outcome.all_declared());
        let rec2 = outcome.declarations[1].1.unwrap();
        assert_eq!(rec2.round, 500);
    }

    #[test]
    fn traditional_sensing_exposes_labels() {
        struct SeePeers;
        impl Procedure for SeePeers {
            type Output = Declaration;
            fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
                let labels = obs.peer_labels.as_ref().expect("traditional mode");
                assert_eq!(labels.len() as u32, obs.cur_card);
                Poll::Complete(Declaration::with_leader(labels[0]))
            }
        }
        let g = generators::complete(2);
        let mut engine = Engine::new(&g);
        engine.add_agent(label(5), NodeId::new(0), Box::new(SeePeers));
        engine.add_agent(label(3), NodeId::new(1), Box::new(SeePeers));
        engine.set_sensing(Sensing::Traditional);
        let outcome = engine.run(10).unwrap();
        assert!(outcome.all_declared());
        // Each agent was alone, so each elected itself.
        assert_eq!(
            outcome.declarations[0].1.unwrap().declaration.leader,
            Some(label(5))
        );
    }

    #[test]
    fn weak_sensing_hides_labels() {
        struct AssertNoLabels;
        impl Procedure for AssertNoLabels {
            type Output = Declaration;
            fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
                assert!(obs.peer_labels.is_none());
                Poll::Complete(Declaration::bare())
            }
        }
        let g = generators::complete(2);
        let mut engine = Engine::new(&g);
        engine.add_agent(label(5), NodeId::new(0), Box::new(AssertNoLabels));
        engine.add_agent(label(3), NodeId::new(1), Box::new(AssertNoLabels));
        let outcome = engine.run(10).unwrap();
        assert!(outcome.all_declared());
    }

    #[test]
    fn round_limit_reports_partial() {
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(WaitRounds::new(5).map(bare)),
        );
        engine.add_agent(
            label(2),
            NodeId::new(1),
            Box::new(WaitRounds::new(500).map(bare)),
        );
        let outcome = engine.run(10).unwrap();
        assert_eq!(outcome.status, RunStatus::RoundLimit);
        assert!(outcome.declarations[0].1.is_some());
        assert!(outcome.declarations[1].1.is_none());
        assert!(outcome.gathering().is_err());
    }

    /// A test topology that blocks every edge before round `until` and
    /// none from then on.
    #[derive(Clone, Copy)]
    struct BlockedUntil {
        until: u64,
    }
    struct BlockedUntilView {
        until: u64,
        round: u64,
    }
    impl TopologyView for BlockedUntilView {
        fn begin_round(&mut self, round: u64) {
            self.round = round;
        }
        fn edge_present(&self, _from: NodeId, _port: Port) -> bool {
            self.round >= self.until
        }
    }
    impl Topology for BlockedUntil {
        type View = BlockedUntilView;
        fn view(&self, _graph: &Graph) -> BlockedUntilView {
            BlockedUntilView {
                until: self.until,
                round: 0,
            }
        }
    }

    #[test]
    fn blocked_moves_stay_put_and_report() {
        // The agent attempts port 1 every round; rounds 0..3 are blocked.
        // It must stay on its start node, keep `entry_port: None`, observe
        // `blocked: true` in rounds 1..=3 (the observation after each
        // blocked attempt), and cross only in round 3.
        struct AssertBlockedSequence;
        impl Procedure for AssertBlockedSequence {
            type Output = Declaration;
            fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
                assert_eq!(
                    obs.blocked,
                    (1..=3).contains(&obs.round),
                    "round {}",
                    obs.round
                );
                if obs.blocked {
                    // A blocked agent never moved: entry port unchanged.
                    assert_eq!(obs.entry_port, None);
                }
                if obs.round == 4 {
                    assert_eq!(obs.entry_port, Some(Port::new(0)), "the move succeeded");
                    return Poll::Complete(Declaration::bare());
                }
                Poll::Yield(Action::TakePort(Port::new(1)))
            }
        }
        let g = generators::ring(4);
        let mut engine = Engine::with_topology(&g, &BlockedUntil { until: 3 });
        engine.add_agent(label(1), NodeId::new(0), Box::new(AssertBlockedSequence));
        engine.record_trace(64);
        let outcome = engine.run(10).unwrap();
        assert!(outcome.all_declared());
        assert_eq!(outcome.total_moves, 1);
        assert_eq!(outcome.blocked_moves, 3);
        let trace = outcome.trace.as_ref().unwrap();
        let blocked: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Blocked {
                    round, node, port, ..
                } => {
                    assert_eq!(*node, NodeId::new(0));
                    assert_eq!(*port, Port::new(1));
                    Some(*round)
                }
                _ => None,
            })
            .collect();
        assert_eq!(blocked, vec![0, 1, 2]);
        assert_eq!(outcome.declarations[0].1.unwrap().node, NodeId::new(1));
    }

    #[test]
    fn absent_edge_does_not_mask_invalid_ports() {
        // Even under a topology that blocks everything, a nonexistent port
        // is a protocol violation, not a blocked move: dynamics never
        // change the degree an agent observes.
        struct BadPort;
        impl Procedure for BadPort {
            type Output = ();
            fn poll(&mut self, _obs: &Obs) -> Poll<()> {
                Poll::Yield(Action::TakePort(Port::new(99)))
            }
        }
        let g = generators::ring(4);
        let mut engine = Engine::with_topology(&g, &BlockedUntil { until: u64::MAX });
        engine.add_agent(label(1), NodeId::new(0), Box::new(BadPort.map(bare)));
        assert!(matches!(engine.run(10), Err(SimError::InvalidPort { .. })));
    }

    #[test]
    fn static_runs_never_block() {
        let g = generators::ring(5);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(RunFor5Moves::default().map(bare)),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(DeclareOnCompany.map(bare)),
        );
        let outcome = engine.run(100).unwrap();
        assert_eq!(outcome.blocked_moves, 0);
    }

    #[test]
    fn trace_capacity_overflow_counts_drops_and_keeps_the_earliest_events() {
        // Two walkers generate a steady stream of events; a run with a
        // tiny trace capacity must retain exactly the earliest events of
        // the identical unbounded run and count every later one as
        // dropped.
        let run_with_capacity = |capacity: usize| {
            let g = generators::ring(6);
            let mut engine = Engine::new(&g);
            for (l, pos) in [(1u64, 0u32), (2, 3)] {
                engine.add_agent(
                    label(l),
                    NodeId::new(pos),
                    Box::new(RunFor5Moves::default().map(bare)),
                );
            }
            engine.record_trace(capacity);
            engine.run(100).unwrap()
        };
        let full = run_with_capacity(1 << 10);
        let full_trace = full.trace.as_ref().unwrap();
        assert_eq!(full_trace.dropped(), 0);
        assert!(
            full_trace.events().len() > 4,
            "need enough events to overflow a capacity of 4"
        );
        let small = run_with_capacity(4);
        let small_trace = small.trace.as_ref().unwrap();
        assert_eq!(small_trace.events().len(), 4);
        assert_eq!(
            small_trace.events(),
            &full_trace.events()[..4],
            "retained events must be the earliest ones, in order"
        );
        assert_eq!(
            small_trace.dropped(),
            (full_trace.events().len() - 4) as u64
        );
        // The truncation is a recording concern only: the run itself is
        // unchanged.
        assert_eq!(small.rounds, full.rounds);
        assert_eq!(small.total_moves, full.total_moves);
    }

    #[test]
    fn cur_card_counts_all_present_agents() {
        struct CountAtStart {
            seen: Option<u32>,
        }
        impl Procedure for CountAtStart {
            type Output = u32;
            fn poll(&mut self, obs: &Obs) -> Poll<u32> {
                match self.seen {
                    None => {
                        self.seen = Some(obs.cur_card);
                        Poll::Yield(Action::Wait)
                    }
                    Some(c) => Poll::Complete(c),
                }
            }
        }
        // Three agents walk to node 0 one by one... simpler: two agents
        // start adjacent; one moves onto the other; both then see card 2.
        let g = generators::path(2);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(CountAtStart { seen: None }.map(|c| Declaration {
                leader: None,
                size: Some(c),
            })),
        );
        struct MoveThenCount {
            moved: bool,
            seen: Option<u32>,
        }
        impl Procedure for MoveThenCount {
            type Output = u32;
            fn poll(&mut self, obs: &Obs) -> Poll<u32> {
                if !self.moved {
                    self.moved = true;
                    return Poll::Yield(Action::TakePort(Port::new(0)));
                }
                match self.seen {
                    None => {
                        self.seen = Some(obs.cur_card);
                        Poll::Yield(Action::Wait)
                    }
                    Some(c) => Poll::Complete(c),
                }
            }
        }
        engine.add_agent(
            label(2),
            NodeId::new(1),
            Box::new(
                MoveThenCount {
                    moved: false,
                    seen: None,
                }
                .map(|c| Declaration {
                    leader: None,
                    size: Some(c),
                }),
            ),
        );
        let outcome = engine.run(10).unwrap();
        assert!(outcome.all_declared());
        // Agent 2 saw 2 after moving onto node 0.
        assert_eq!(outcome.declarations[1].1.unwrap().declaration.size, Some(2));
        assert_eq!(outcome.max_colocation, 2);
    }

    // ------------------------------------------------------------------
    // Crash-fault adversary semantics.
    // ------------------------------------------------------------------

    /// Walks clockwise forever.
    struct WalkForever;
    impl Procedure for WalkForever {
        type Output = ();
        fn poll(&mut self, _obs: &Obs) -> Poll<()> {
            Poll::Yield(Action::TakePort(Port::new(1)))
        }
    }

    fn crash_at(points: &[(u64, u64)]) -> FaultSpec {
        FaultSpec::CrashAt(
            points
                .iter()
                .map(|&(l, round)| CrashPoint {
                    label: label(l),
                    round,
                })
                .collect(),
        )
    }

    #[test]
    fn crashed_agent_stops_moving_but_keeps_its_body() {
        let g = generators::ring(6);
        let mut engine = Engine::new(&g);
        engine.add_agent(label(1), NodeId::new(0), Box::new(WalkForever.map(bare)));
        engine.add_agent(
            label(2),
            NodeId::new(3),
            Box::new(WaitRounds::new(20).map(bare)),
        );
        engine.set_faults(crash_at(&[(1, 2)]));
        engine.record_trace(256);
        let outcome = engine.run(30).unwrap();
        // The walker made exactly 2 moves (rounds 0 and 1) and then froze
        // at node 2.
        assert_eq!(outcome.total_moves, 2);
        assert_eq!(outcome.crashed_agents, vec![label(1)]);
        let trace = outcome.trace.as_ref().unwrap();
        assert!(trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::Crashed { agent, round: 2, node } if *agent == label(1) && *node == NodeId::new(2)
        )));
        // No event of agent 1 after its crash round.
        for e in trace.events() {
            if let TraceEvent::Move { agent, round, .. } = e {
                assert!(*agent != label(1) || *round < 2, "moved after crashing");
            }
        }
        // Agent 2 declared; the run ended Halted (a crash prevented
        // all-declared) at the last declaration round.
        assert_eq!(outcome.status, RunStatus::Halted);
        assert!(outcome.declarations[1].1.is_some());
        assert!(outcome.gathering().is_err());
    }

    #[test]
    fn crashed_body_still_counts_toward_cur_card_and_wakes_sleepers() {
        // Agent 1 walks two steps and crashes on the sleeper's node; the
        // dormant agent 2 is woken by the crashed body and sees card 2.
        let g = generators::ring(5);
        let mut engine = Engine::new(&g);
        engine.add_agent(label(1), NodeId::new(0), Box::new(WalkForever.map(bare)));
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(DeclareOnCompany.map(bare)),
        );
        engine.set_wake_schedule(WakeSchedule::FirstOnly);
        engine.set_faults(crash_at(&[(1, 2)]));
        engine.record_trace(64);
        let outcome = engine.run(20).unwrap();
        let trace = outcome.trace.as_ref().unwrap();
        // The body arrives at node 2 in round 2 (observed from round 2 on)
        // and the crash (start of round 2) does not remove it: the sleeper
        // wakes by visit and declares on company.
        assert!(trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::Wake { agent, by_visit: true, .. } if *agent == label(2)
        )));
        assert!(outcome.declarations[1].1.is_some(), "sleeper declared");
        assert_eq!(outcome.crashed_agents, vec![label(1)]);
    }

    #[test]
    fn crash_in_wake_round_preempts_the_wake() {
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(WaitRounds::new(3).map(bare)),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(WaitRounds::new(0).map(bare)),
        );
        engine.set_wake_schedule(WakeSchedule::Explicit(vec![0, 5]));
        engine.set_faults(crash_at(&[(2, 5)]));
        engine.record_trace(64);
        let outcome = engine.run(100).unwrap();
        // Agent 2 never woke and never declared.
        let trace = outcome.trace.as_ref().unwrap();
        assert!(!trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Wake { agent, .. } if *agent == label(2))));
        assert_eq!(outcome.crashed_agents, vec![label(2)]);
        assert_eq!(outcome.status, RunStatus::Halted);
        // The surviving agent still declared in its own round 3.
        assert_eq!(outcome.declarations[0].1.unwrap().round, 3);
        assert_eq!(outcome.rounds, 5, "halt at the crash that ended the run");
    }

    #[test]
    fn fast_forward_respects_pending_crashes() {
        // Both agents wait enormously long; one crashes at round 700. The
        // fast-forward must stop exactly there (the crash is an event), and
        // the crashed agent must not declare when its wait would end.
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        for (l, pos) in [(1u64, 0u32), (2, 2)] {
            engine.add_agent(
                label(l),
                NodeId::new(pos),
                Box::new(WaitRounds::new(1000).map(bare)),
            );
        }
        engine.set_faults(crash_at(&[(2, 700)]));
        engine.record_trace(64);
        let outcome = engine.run(10_000).unwrap();
        assert!(
            outcome.engine_iterations < 50,
            "fast-forward must stay engaged around the crash, got {} iterations",
            outcome.engine_iterations
        );
        let trace = outcome.trace.as_ref().unwrap();
        assert!(trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::Crashed { agent, round: 700, .. } if *agent == label(2)
        )));
        assert_eq!(outcome.declarations[0].1.unwrap().round, 1000);
        assert!(outcome.declarations[1].1.is_none());
        assert_eq!(outcome.status, RunStatus::Halted);
        assert_eq!(outcome.rounds, 1000);
    }

    #[test]
    fn crash_after_declaration_is_void() {
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(WaitRounds::new(1).map(bare)),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(WaitRounds::new(1).map(bare)),
        );
        engine.set_faults(crash_at(&[(1, 5)]));
        let outcome = engine.run(100).unwrap();
        // Both declared in round 1; the round-5 crash finds a declared
        // agent and resolves to nothing.
        assert_eq!(outcome.status, RunStatus::AllDeclared);
        assert!(outcome.crashed_agents.is_empty());
        assert!(outcome.gathering().is_err() || outcome.all_declared());
    }

    #[test]
    fn all_crashed_halts_at_the_last_crash() {
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        for (l, pos) in [(1u64, 0u32), (2, 2)] {
            engine.add_agent(
                label(l),
                NodeId::new(pos),
                Box::new(WaitRounds::new(1000).map(bare)),
            );
        }
        engine.set_faults(crash_at(&[(1, 3), (2, 9)]));
        let outcome = engine.run(10_000).unwrap();
        assert_eq!(outcome.status, RunStatus::Halted);
        assert_eq!(outcome.rounds, 9);
        assert_eq!(outcome.crashed_agents, vec![label(1), label(2)]);
        assert!(outcome.gathering_surviving().is_err());
    }

    #[test]
    fn unknown_crash_target_is_a_setup_error() {
        let g = generators::ring(4);
        let mut engine = Engine::new(&g);
        for (l, pos) in [(1u64, 0u32), (2, 2)] {
            engine.add_agent(
                label(l),
                NodeId::new(pos),
                Box::new(WaitRounds::new(0).map(bare)),
            );
        }
        engine.set_faults(crash_at(&[(9, 1)]));
        assert!(matches!(engine.run(10), Err(SimError::BadFaultSpec { .. })));
    }

    #[test]
    fn survivors_gathering_validates_among_the_living() {
        // Agent 1 crashes dormant; agents 2 and 3 gather and declare
        // consistently. Full validation fails (agent 1 never declared);
        // the surviving validation succeeds.
        let g = generators::path(3);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(2),
            Box::new(WaitRounds::new(50).map(bare)),
        );
        let declare_together = || {
            Box::new(WaitRounds::new(2).map(|()| Declaration::with_leader(Label::new(2).unwrap())))
        };
        engine.add_agent(label(2), NodeId::new(0), declare_together());
        engine.add_agent(label(3), NodeId::new(1), declare_together());
        engine.set_faults(crash_at(&[(1, 0)]));
        let outcome = engine.run(100).unwrap();
        assert!(outcome.gathering().is_err());
        let report = outcome.gathering_surviving();
        // The two survivors declared in the same round with the same
        // leader but at *different* nodes — surviving validation still
        // checks full consistency.
        assert!(matches!(
            report,
            Err(crate::outcome::ValidationError::DifferentNodes { .. })
        ));
    }

    // ------------------------------------------------------------------
    // Long waits: what ends them, and in which round.
    // ------------------------------------------------------------------

    /// The declaration round of agent `i` in a finished run.
    fn declared_round(outcome: &RunOutcome, i: usize) -> u64 {
        outcome.declarations[i].1.expect("agent declared").round
    }

    /// The `Wake` events of a traced run.
    fn wakes(outcome: &RunOutcome) -> Vec<(Label, u64, bool)> {
        let events = outcome.trace.as_ref().unwrap().events();
        events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Wake {
                    agent,
                    round,
                    by_visit,
                } => Some((agent, round, by_visit)),
                _ => None,
            })
            .collect()
    }

    /// Walks a fixed port path, then waits for good.
    struct PathThenIdle {
        path: std::vec::IntoIter<Port>,
    }
    impl Procedure for PathThenIdle {
        type Output = ();
        fn poll(&mut self, _obs: &Obs) -> Poll<()> {
            match self.path.next() {
                Some(p) => Poll::Yield(Action::TakePort(p)),
                None => Poll::Yield(Action::Wait),
            }
        }
        fn min_wait(&self) -> u64 {
            if self.path.as_slice().is_empty() {
                u64::MAX
            } else {
                0
            }
        }
    }

    /// Waits `wait` rounds before each move along a fixed port path — the
    /// shape of the unknown-bound ball traversal's slow moves — then
    /// completes. A blocked move is retried at once.
    struct SlowWalk {
        ports: Vec<Port>,
        next: usize,
        wait: u64,
        left: WaitRounds,
    }
    impl SlowWalk {
        fn new(wait: u64, ports: &[u32]) -> Self {
            SlowWalk {
                ports: ports.iter().copied().map(Port::new).collect(),
                next: 0,
                wait,
                left: WaitRounds::new(wait),
            }
        }
    }
    impl Procedure for SlowWalk {
        type Output = ();
        fn poll(&mut self, obs: &Obs) -> Poll<()> {
            if obs.blocked {
                return Poll::Yield(Action::TakePort(self.ports[self.next - 1]));
            }
            if self.next == self.ports.len() {
                return Poll::Complete(());
            }
            match self.left.poll(obs) {
                Poll::Yield(action) => Poll::Yield(action),
                Poll::Complete(()) => {
                    self.next += 1;
                    self.left = WaitRounds::new(self.wait);
                    Poll::Yield(Action::TakePort(self.ports[self.next - 1]))
                }
            }
        }
        fn min_wait(&self) -> u64 {
            if self.next == self.ports.len() {
                0
            } else {
                self.left.min_wait()
            }
        }
        fn note_skipped(&mut self, rounds: u64) {
            self.left.note_skipped(rounds);
        }
    }

    /// Waits `total` rounds, promising only the rest of the current
    /// `segment`-round stretch, like the TZ rendezvous's block-bounded
    /// promise: when a promise runs out the next one is already a full
    /// segment, so `min_wait` never reaches 0 mid-wait.
    struct SegmentWait {
        tick: u64,
        segment: u64,
        total: u64,
    }
    impl Procedure for SegmentWait {
        type Output = ();
        fn poll(&mut self, _obs: &Obs) -> Poll<()> {
            if self.tick == self.total {
                return Poll::Complete(());
            }
            self.tick += 1;
            Poll::Yield(Action::Wait)
        }
        fn min_wait(&self) -> u64 {
            (self.segment - self.tick % self.segment).min(self.total - self.tick)
        }
        fn note_skipped(&mut self, rounds: u64) {
            self.tick += rounds;
        }
    }

    /// Waits `pre` rounds, tries one move through port 0 if `attempt`
    /// holds, then waits 6 rounds counting its polls on plain (neither
    /// just-woken nor blocked) observations, and declares that count as
    /// its size. A skip stands for polls identical to the last one, so it
    /// counts only after a plain poll: a promise made on a one-off
    /// observation does not stand for the plain polls that follow it.
    struct CountPlainPolls {
        pre: u64,
        attempt: bool,
        waited: u64,
        plain: u32,
        last_plain: bool,
    }
    impl CountPlainPolls {
        fn new(pre: u64, attempt: bool) -> Box<Self> {
            Box::new(CountPlainPolls {
                pre,
                attempt,
                waited: 0,
                plain: 0,
                last_plain: false,
            })
        }
    }
    impl Procedure for CountPlainPolls {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            if self.pre > 0 {
                self.pre -= 1;
                return Poll::Yield(Action::Wait);
            }
            if self.attempt {
                self.attempt = false;
                return Poll::Yield(Action::TakePort(Port::new(0)));
            }
            if self.waited == 6 {
                return Poll::Complete(Declaration {
                    leader: None,
                    size: Some(self.plain),
                });
            }
            self.waited += 1;
            self.last_plain = !(obs.just_woken || obs.blocked);
            self.plain += u32::from(self.last_plain);
            Poll::Yield(Action::Wait)
        }
        fn min_wait(&self) -> u64 {
            if self.pre > 0 {
                self.pre
            } else if self.attempt {
                0
            } else {
                6 - self.waited
            }
        }
        fn note_skipped(&mut self, rounds: u64) {
            if self.pre > 0 {
                self.pre -= rounds;
            } else {
                self.waited += rounds;
                if self.last_plain {
                    self.plain += rounds as u32;
                }
            }
        }
    }

    /// Runs `engine` with a stored trace and checks the outcome against
    /// `expected` — every field but the poll count, plus the trace digest,
    /// all computed by the dense round loop before the lone-agent path
    /// existed — and that it polls fewer agent-rounds than that loop's
    /// `dense_polls`.
    fn run_pinned(
        engine: Engine<'_, impl TopologyView>,
        max_rounds: u64,
        expected: &str,
        dense_polls: u64,
    ) -> RunOutcome {
        let outcome = run_checked(engine, max_rounds, expected);
        assert!(
            outcome.polled_agent_rounds < dense_polls,
            "{} polls, the dense loop needs {dense_polls}",
            outcome.polled_agent_rounds
        );
        outcome
    }

    /// Runs `engine` with a stored trace and checks the outcome against
    /// `expected`: every field but the poll count, plus the trace digest.
    fn run_checked(
        mut engine: Engine<'_, impl TopologyView>,
        max_rounds: u64,
        expected: &str,
    ) -> RunOutcome {
        engine.record_trace(1 << 10);
        let outcome = engine.run(max_rounds).unwrap();
        let declarations: Vec<String> = outcome
            .declarations
            .iter()
            .map(|(label, rec)| match rec {
                Some(r) => format!(
                    "{label:?}@{}:{}:{:?}/{:?}",
                    r.round, r.node, r.declaration.leader, r.declaration.size
                ),
                None => format!("{label:?}:-"),
            })
            .collect();
        let trace = outcome.trace.as_ref().unwrap();
        assert_eq!(trace.dropped(), 0);
        let pin = format!(
            "{:?} rounds {} moves {} blocked {} iterations {} skipped {} colocation {} \
             crashed {:?} [{}] digest {:016x}",
            outcome.status,
            outcome.rounds,
            outcome.total_moves,
            outcome.blocked_moves,
            outcome.engine_iterations,
            outcome.skipped_rounds,
            outcome.max_colocation,
            outcome.crashed_agents,
            declarations.join(" "),
            trace.digest()
        );
        assert_eq!(pin, expected);
        outcome
    }

    /// Adds agent `label` at node `start` running `proc_`, declaring bare.
    fn add<V: TopologyView, P: Procedure + 'static>(
        engine: &mut Engine<'_, V>,
        label_value: u64,
        start: u32,
        proc_: P,
    ) {
        engine.add_agent(
            label(label_value),
            NodeId::new(start),
            Box::new(proc_.map(bare)),
        );
    }

    #[test]
    fn horizon_expiry_declares_at_the_promised_round() {
        // A lone `WaitRounds(40)` agent acts exactly when its promise runs
        // out, and the fast-forward covers the wait in a handful of polls.
        let g = generators::ring(6);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(WaitRounds::new(40).map(bare)),
        );
        let outcome = engine.run(500).unwrap();
        assert_eq!(declared_round(&outcome, 0), 40);
        assert!(
            outcome.polled_agent_rounds < 10,
            "expected a fast-forwarded wait, got {} polls",
            outcome.polled_agent_rounds
        );

        // Two slow walkers whose waits alternate (8 and 5 rounds) hand
        // the lone-agent path back and forth beside a waiter whose
        // promises are renewed only as they run out, and each walker
        // declares inside the stretch; then the round limit lands in it.
        let ring = generators::ring(12);
        let team = || {
            let mut engine = Engine::new(&ring);
            add(&mut engine, 1, 0, SlowWalk::new(8, &[1, 1, 1]));
            add(&mut engine, 2, 6, SlowWalk::new(5, &[1, 1, 1]));
            add(
                &mut engine,
                3,
                11,
                SegmentWait {
                    tick: 0,
                    segment: 10,
                    total: 100,
                },
            );
            engine
        };
        run_pinned(
            team(),
            500,
            "AllDeclared rounds 100 moves 6 blocked 0 iterations 21 skipped 80 colocation 1 \
             crashed [] [L1@27:n3:None/None L2@18:n9:None/None L3@100:n11:None/None] \
             digest 8a4eadbc29935ed8",
            42,
        );
        run_pinned(
            team(),
            15,
            "RoundLimit rounds 15 moves 3 blocked 0 iterations 7 skipped 8 colocation 1 \
             crashed [] [L1:- L2:- L3:-] digest 62c87d54c6325f6f",
            21,
        );
    }

    #[test]
    fn walker_arrival_cuts_a_long_card_wait_short() {
        // Agent 1 waits on its node for company or 400 rounds; agent 2
        // walks a shortest path onto that node. The waiter must act in the
        // round the walker arrives, long before its horizon runs out.
        use crate::proc::UntilCardExceeds;
        let g = generators::Family::Grid.instantiate(6, 3);
        let target = NodeId::new(0);
        let start = NodeId::new(g.node_count() as u32 - 1);
        let dist = nochatter_graph::algo::bfs_distances(&g, target);
        let mut path = Vec::new();
        let mut cur = start;
        while cur != target {
            let (port, next) = (0..g.degree(cur))
                .map(Port::new)
                .map(|p| (p, g.neighbor(cur, p).unwrap().0))
                .find(|&(_, next)| dist[next.index()] < dist[cur.index()])
                .expect("the grid is connected");
            path.push(port);
            cur = next;
        }
        // Moves land at the end of rounds 0..len-1.
        let arrival = path.len() as u64;
        assert_eq!(arrival, 3);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            target,
            Box::new(
                UntilCardExceeds::new(1, WaitRounds::new(400)).map(|out| Declaration {
                    leader: None,
                    size: Some(u32::from(out.was_interrupted())),
                }),
            ),
        );
        engine.add_agent(
            label(2),
            start,
            Box::new(
                PathThenIdle {
                    path: path.into_iter(),
                }
                .map(bare),
            ),
        );
        let outcome = engine.run(500).unwrap();
        let rec = outcome.declarations[0].1.expect("the waiter declared");
        assert_eq!(rec.declaration.size, Some(1), "the wait was interrupted");
        assert_eq!(rec.round, arrival);

        // A walker passes through the node of a waiter that watches
        // `CurCard` stay unchanged for 40 rounds. With slow waits it
        // enters and leaves the occupied node from lone stretches, on a
        // static ring and under a rotating outage that blocks some of its
        // moves; without waits it leaves in the dense round after it
        // arrived.
        fn passing<V: TopologyView>(mut engine: Engine<'_, V>, wait: u64) -> Engine<'_, V> {
            add(
                &mut engine,
                1,
                5,
                crate::proc::WaitCardStable::new(40, 0, None),
            );
            add(&mut engine, 2, 2, SlowWalk::new(wait, &[1; 6]));
            engine
        }
        let ring = generators::ring(10);
        let outage = nochatter_graph::dynamic::PeriodicEdges {
            period: 4,
            offset: 1,
        };
        let outcome = run_pinned(
            passing(Engine::new(&ring), 5),
            500,
            "AllDeclared rounds 63 moves 6 blocked 0 iterations 15 skipped 49 colocation 2 \
             crashed [] [L1@63:n5:None/None L2@36:n8:None/None] \
             digest 939c4557944530ef",
            28,
        );
        assert_eq!(outcome.max_colocation, 2);
        let outcome = run_pinned(
            passing(Engine::with_topology(&ring, &outage), 5),
            500,
            "AllDeclared rounds 64 moves 6 blocked 3 iterations 18 skipped 47 colocation 2 \
             crashed [] [L1@64:n5:None/None L2@39:n8:None/None] \
             digest 0acf8b8746b817d4",
            34,
        );
        assert!(outcome.blocked_moves > 0);
        run_pinned(
            passing(Engine::new(&ring), 0),
            500,
            "AllDeclared rounds 43 moves 6 blocked 0 iterations 9 skipped 35 colocation 2 \
             crashed [] [L1@43:n5:None/None L2@6:n8:None/None] \
             digest bad93de9a696790e",
            16,
        );

        // A move attempt blocked in a lone stretch: the promise made on
        // the blocked observation does not stand for the plain polls
        // that follow, so all four count.
        let outage = nochatter_graph::dynamic::PeriodicEdges {
            period: 3,
            offset: 0,
        };
        let mut engine = Engine::with_topology(&ring, &outage);
        add(&mut engine, 1, 0, SlowWalk::new(4, &[1; 4]));
        engine.add_agent(label(2), NodeId::new(9), CountPlainPolls::new(6, true));
        let outcome = run_pinned(
            engine,
            500,
            "AllDeclared rounds 20 moves 4 blocked 1 iterations 12 skipped 9 colocation 1 \
             crashed [] [L1@20:n4:None/None L2@13:n9:None/Some(4)] \
             digest 7aeeb24e9c69fd29",
            20,
        );
        assert_eq!(outcome.declarations[1].1.unwrap().declaration.size, Some(4));
    }

    #[test]
    fn crash_lands_on_a_waiting_agent_at_its_scheduled_round() {
        // Agent 1 waits 10,000 rounds; the crash adversary takes it at
        // round 123, in the middle of a fast-forwarded stretch.
        let g = generators::ring(5);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(WaitRounds::new(10_000).map(bare)),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(WaitRounds::new(3).map(bare)),
        );
        engine.set_faults(crash_at(&[(1, 123)]));
        engine.record_trace(64);
        let outcome = engine.run(500).unwrap();
        assert_eq!(outcome.crashed_agents, vec![label(1)]);
        assert_eq!(declared_round(&outcome, 1), 3);
        let crashes: Vec<u64> = outcome
            .trace
            .as_ref()
            .unwrap()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Crashed { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, vec![123]);
        assert_eq!(outcome.status, RunStatus::Halted);
        assert_eq!(outcome.rounds, 123);

        // The crash lands mid-wait while a slow walker holds the
        // lone-agent path.
        let ring = generators::ring(8);
        let mut engine = Engine::new(&ring);
        add(&mut engine, 1, 0, WaitRounds::new(1000));
        add(&mut engine, 2, 4, SlowWalk::new(6, &[1, 1, 1]));
        engine.set_faults(crash_at(&[(1, 15)]));
        let outcome = run_pinned(
            engine,
            500,
            "Halted rounds 21 moves 3 blocked 0 iterations 8 skipped 14 colocation 1 \
             crashed [L1] [L1:- L2@21:n7:None/None] digest 0ee6a3d569d220e3",
            13,
        );
        assert_eq!(outcome.crashed_agents, vec![label(1)]);
    }

    #[test]
    fn staggered_wake_fires_during_quiescence() {
        // Three waiters woken 17 rounds apart: each adversary wake lands in
        // its exact round although every awake agent is mid-wait, and each
        // agent declares its own wait after its own wake.
        let g = generators::ring(6);
        let mut engine = Engine::new(&g);
        for (i, start) in [0u32, 2, 4].into_iter().enumerate() {
            engine.add_agent(
                label(i as u64 + 1),
                NodeId::new(start),
                Box::new(WaitRounds::new(50 + 10 * i as u64).map(bare)),
            );
        }
        engine.set_wake_schedule(WakeSchedule::Staggered { gap: 17 });
        engine.record_trace(256);
        let outcome = engine.run(500).unwrap();
        assert_eq!(
            wakes(&outcome),
            vec![
                (label(1), 0, false),
                (label(2), 17, false),
                (label(3), 34, false)
            ]
        );
        let declared: Vec<u64> = (0..3).map(|i| declared_round(&outcome, i)).collect();
        assert_eq!(declared, vec![50, 77, 104]);
        assert_eq!(outcome.status, RunStatus::AllDeclared);

        // A slow walker holds the lone-agent path while an adversary wake
        // lands mid-wait, then steps onto a sleeper (waking it by visit)
        // and walks on.
        let ring = generators::ring(10);
        let mut engine = Engine::new(&ring);
        add(&mut engine, 1, 0, SlowWalk::new(4, &[1; 5]));
        add(&mut engine, 2, 3, WaitRounds::new(30));
        add(&mut engine, 3, 8, WaitRounds::new(20));
        engine.set_wake_schedule(WakeSchedule::Explicit(vec![0, u64::MAX, 11]));
        let outcome = run_pinned(
            engine,
            500,
            "AllDeclared rounds 45 moves 5 blocked 0 iterations 16 skipped 30 colocation 2 \
             crashed [] [L1@25:n5:None/None L2@45:n3:None/None L3@31:n8:None/None] \
             digest 256c43324bf11268",
            30,
        );
        assert_eq!(
            wakes(&outcome),
            vec![
                (label(1), 0, false),
                (label(3), 11, false),
                (label(2), 15, true)
            ]
        );

        // An agent woken in a round where a walker moves, or where it
        // waits too, must not start the lone-agent path on its wake
        // observation: its five plain polls before it declares all count.
        for (wait, expected, dense_polls) in [
            (
                0,
                "AllDeclared rounds 8 moves 6 blocked 0 iterations 9 skipped 0 colocation 1 \
             crashed [] [L1@6:n6:None/None L2@8:n9:None/Some(5)] \
             digest b811cfa91db1c887",
                14,
            ),
            (
                3,
                "AllDeclared rounds 24 moves 6 blocked 0 iterations 15 skipped 10 colocation 1 \
             crashed [] [L1@24:n6:None/None L2@8:n9:None/Some(5)] \
             digest ade1f705a99ed27c",
                20,
            ),
        ] {
            let mut engine = Engine::new(&ring);
            add(&mut engine, 1, 0, SlowWalk::new(wait, &[1; 6]));
            engine.add_agent(label(2), NodeId::new(9), CountPlainPolls::new(0, false));
            engine.set_wake_schedule(WakeSchedule::Explicit(vec![0, 2]));
            let outcome = run_pinned(engine, 500, expected, dense_polls);
            assert_eq!(outcome.declarations[1].1.unwrap().declaration.size, Some(5));
        }
    }

    // ------------------------------------------------------------------
    // Company changes on the lone-agent path. Each run is pinned to the
    // outcome and trace digest of the lone-agent path before blind
    // promises, which left the path on every such change.
    // ------------------------------------------------------------------

    /// A ring of 10 with a slow walker setting out from node 2 over port 1
    /// six times, waiting `wait` rounds before each move: it enters node
    /// 5 at the end of round `3 * (wait + 1) - 1` and leaves it `wait + 1`
    /// rounds later.
    fn walker_past_node_5(ring: &Graph, wait: u64) -> Engine<'_> {
        let mut engine = Engine::new(ring);
        add(&mut engine, 2, 2, SlowWalk::new(wait, &[1; 6]));
        engine
    }

    #[test]
    fn a_walker_passes_a_blind_waiter_on_the_lone_path() {
        // The waiter's countdown ignores what it senses, so the walker
        // entering and leaving its node disturbs no one: the walker keeps
        // the lone-agent path, and the waiter is polled only when due.
        // Before blind promises each of the two moves cost a dense round
        // polling both agents.
        let ring = generators::ring(10);
        let mut engine = walker_past_node_5(&ring, 5);
        add(&mut engine, 1, 5, WaitRounds::new(60));
        let outcome = run_checked(
            engine,
            500,
            "AllDeclared rounds 60 moves 6 blocked 0 iterations 15 skipped 46 colocation 2 \
             crashed [] [L2@36:n8:None/None L1@60:n5:None/None] \
             digest 448b4ed68a51ca0c",
        );
        assert_eq!(outcome.polled_agent_rounds, 17, "19 before blind promises");

        // The waiter's promise runs out while the walker stands on its
        // node, and it declares there, polled alone.
        let mut engine = walker_past_node_5(&ring, 9);
        add(&mut engine, 1, 5, WaitRounds::new(33));
        let outcome = run_checked(
            engine,
            500,
            "AllDeclared rounds 60 moves 6 blocked 0 iterations 15 skipped 46 colocation 2 \
             crashed [] [L2@60:n8:None/None L1@33:n5:None/None] \
             digest 5b1eaa3e2f0c9d35",
        );
        assert_eq!(outcome.polled_agent_rounds, 17, "18 before blind promises");
    }

    #[test]
    fn a_walker_onto_a_card_watcher_hands_the_round_to_the_dense_loop() {
        // A waiter that gives up its wait as soon as `CurCard` exceeds 1
        // is not blind: the walker's arrival (end of round 17) hands the
        // next round to the dense loop, where the watcher acts.
        use crate::proc::UntilCardExceeds;
        let ring = generators::ring(10);
        let mut engine = walker_past_node_5(&ring, 5);
        engine.add_agent(
            label(1),
            NodeId::new(5),
            Box::new(
                UntilCardExceeds::new(1, WaitRounds::new(400)).map(|out| Declaration {
                    leader: None,
                    size: Some(u32::from(out.was_interrupted())),
                }),
            ),
        );
        let outcome = run_checked(
            engine,
            500,
            "AllDeclared rounds 36 moves 6 blocked 0 iterations 14 skipped 23 colocation 2 \
             crashed [] [L2@36:n8:None/None L1@18:n5:None/Some(1)] \
             digest 82cf47e321b531e0",
        );
        let rec = outcome.declarations[1].1.expect("the watcher declared");
        assert_eq!(rec.declaration.size, Some(1), "the wait was interrupted");
        assert_eq!(rec.round, 18);
        assert_eq!(outcome.polled_agent_rounds, 17);
    }

    #[test]
    fn a_walker_onto_a_sleeper_wakes_it_in_the_arrival_round() {
        // A dormant body is woken by the visit in the round after the
        // move, as the dense loop's occupancy phase would.
        let ring = generators::ring(10);
        let mut engine = walker_past_node_5(&ring, 5);
        add(&mut engine, 1, 5, WaitRounds::new(3));
        engine.set_wake_schedule(WakeSchedule::Explicit(vec![0, u64::MAX]));
        let outcome = run_checked(
            engine,
            500,
            "AllDeclared rounds 36 moves 6 blocked 0 iterations 15 skipped 22 colocation 2 \
             crashed [] [L2@36:n8:None/None L1@21:n5:None/None] \
             digest a7bf11321df3a716",
        );
        assert_eq!(
            wakes(&outcome),
            vec![(label(2), 0, false), (label(1), 18, true)]
        );
        assert_eq!(outcome.polled_agent_rounds, 17);
    }

    #[test]
    fn a_walker_onto_a_declared_or_crashed_body_records_the_colocation() {
        // Declared and crashed bodies never act again, so the walker
        // keeps the lone-agent path across their node, while a watcher
        // elsewhere lags inside its promise; the rounds the walker spends
        // there must still count toward `max_colocation`. Before blind
        // promises each of the two moves cost a dense round polling the
        // watcher too.
        use crate::proc::UntilCardExceeds;
        let ring = generators::ring(10);
        for (crash, expected) in [
            (
                false,
                "AllDeclared rounds 100 moves 6 blocked 0 iterations 16 skipped 85 colocation 2 \
                 crashed [] [L2@36:n8:None/None L1@0:n5:None/None L3@100:n0:None/None] \
                 digest fce22603c33a36d6",
            ),
            (
                true,
                "Halted rounds 100 moves 6 blocked 0 iterations 16 skipped 85 colocation 2 \
                 crashed [L1] [L2@36:n8:None/None L1:- L3@100:n0:None/None] \
                 digest 55d494246177e4b3",
            ),
        ] {
            let mut engine = walker_past_node_5(&ring, 5);
            add(
                &mut engine,
                1,
                5,
                WaitRounds::new(if crash { 1000 } else { 0 }),
            );
            add(
                &mut engine,
                3,
                0,
                UntilCardExceeds::new(1, WaitRounds::new(100)),
            );
            if crash {
                engine.set_faults(crash_at(&[(1, 3)]));
            }
            let outcome = run_checked(engine, 500, expected);
            assert_eq!(outcome.max_colocation, 2);
            assert_eq!(outcome.polled_agent_rounds, 19, "21 before blind promises");
        }
    }

    /// Claims a blind countdown but declares as soon as it sees company:
    /// a broken blind promise. Only the debug net can tell, so it exists
    /// only where that net does.
    #[cfg(debug_assertions)]
    struct BlindLiar(WaitRounds);
    #[cfg(debug_assertions)]
    impl Procedure for BlindLiar {
        type Output = ();
        fn poll(&mut self, obs: &Obs) -> Poll<()> {
            if obs.cur_card > 1 {
                Poll::Complete(())
            } else {
                self.0.poll(obs)
            }
        }
        fn min_wait(&self) -> u64 {
            self.0.min_wait()
        }
        fn blind(&self) -> bool {
            true
        }
        fn note_skipped(&mut self, rounds: u64) {
            self.0.note_skipped(rounds);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inside its promised wait horizon")]
    fn a_broken_blind_promise_trips_the_debug_net() {
        // The walker stands on the liar's node from round 24 to 31, and
        // the adversary wake in round 26 makes that round dense: the
        // liar, polled inside its promise (through round 29), sees
        // `CurCard` 2 and declares. The observation changed, but a blind
        // promise covers any observation.
        let ring = generators::ring(10);
        let mut engine = walker_past_node_5(&ring, 7);
        add(&mut engine, 1, 5, BlindLiar(WaitRounds::new(30)));
        add(&mut engine, 3, 0, WaitRounds::new(5));
        engine.set_wake_schedule(WakeSchedule::Explicit(vec![0, 0, 26]));
        let _ = engine.run(500);
    }

    // ------------------------------------------------------------------
    // Slow moves the engine holds.
    // ------------------------------------------------------------------

    /// Yields one slow move of `wait` rounds through port 1 on its first
    /// poll and completes on its second, logging the round of every poll.
    /// Its own promise is empty, so a skip that reaches it can only come
    /// from the wait the engine holds.
    struct OneSlowMove {
        wait: u64,
        polls: Rc<RefCell<Vec<u64>>>,
    }
    impl OneSlowMove {
        fn boxed(wait: u64, polls: &Rc<RefCell<Vec<u64>>>) -> Agent {
            Box::new(OneSlowMove {
                wait,
                polls: Rc::clone(polls),
            })
        }
    }
    impl Procedure for OneSlowMove {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            let mut polls = self.polls.borrow_mut();
            polls.push(obs.round);
            if polls.len() == 1 {
                Poll::Yield(Action::SlowMove(Port::new(1)))
            } else {
                Poll::Complete(Declaration::bare())
            }
        }
        fn note_skipped(&mut self, rounds: u64) {
            panic!("{rounds} rounds of a held slow move reached the procedure");
        }
        fn slow_wait(&self) -> u64 {
            self.wait
        }
    }

    /// Steps `run` until its clock passes `round`.
    fn step_past(run: &mut ActiveRun<'_, Static>, scratch: &mut EngineScratch, round: u64) {
        while run.round <= round {
            assert!(
                run.step(scratch).is_none(),
                "the run ended at {}",
                run.round
            );
        }
    }

    #[test]
    fn the_engine_holds_a_slow_move_and_makes_it_in_round_r_plus_wait() {
        // Yielded in round 0 with a wait of 4: the arena holds (4, port 1),
        // the engine promises the 3 rounds before it blind, and makes the
        // move in round 4 without a poll.
        let ring = generators::ring(6);
        let polls = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(label(1), NodeId::new(0), OneSlowMove::boxed(4, &polls));
        add(&mut engine, 2, 3, WaitRounds::new(100));
        let mut scratch = EngineScratch::new();
        let mut run = ActiveRun::begin(engine, 500, &mut scratch).unwrap();
        step_past(&mut run, &mut scratch, 0);
        let agents = &run.engine.agents;
        assert_eq!(agents.slow[0], (NonZeroU64::new(4), Port::new(1)));
        assert_eq!((agents.min_wait(0, 0), agents.blind(0)), (3, true));
        // The waiter's promise outlasts the wait: the clock jumps to the
        // move round, and the procedure never heard of the skip.
        assert_eq!(run.round, 4);
        step_past(&mut run, &mut scratch, 4);
        let agents = &run.engine.agents;
        assert_eq!(agents.slow[0].0, None);
        assert_eq!(agents.pos[0], NodeId::new(1));
        assert_eq!((agents.min_wait(0, 4), agents.blind(0)), (0, false));
        step_past(&mut run, &mut scratch, 5);
        assert_eq!(
            *polls.borrow(),
            vec![0, 5],
            "polled before and after, never inside"
        );
        // Round 0 polls both agents, dense round 4 the waiter only (the
        // move costs no poll), round 5 the slow mover.
        assert_eq!(run.stats.polled_agent_rounds, 4);
    }

    #[test]
    fn noisy_rounds_inside_a_held_wait_never_reach_the_procedure() {
        // Two walkers cross the slow mover's node while it waits, so every
        // round is dense and its `CurCard` changes: the engine answers
        // each of those rounds for it, and counts them as polls.
        let ring = generators::ring(6);
        let polls = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(label(1), NodeId::new(0), OneSlowMove::boxed(6, &polls));
        add(
            &mut engine,
            2,
            2,
            crate::proc::FollowPath::new(vec![Port::new(0); 4]),
        );
        add(
            &mut engine,
            3,
            4,
            crate::proc::FollowPath::new(vec![Port::new(1); 4]),
        );
        engine.record_trace(64);
        let outcome = engine.run(100).unwrap();
        assert!(outcome.all_declared());
        assert_eq!(*polls.borrow(), vec![0, 7]);
        let moves: Vec<(Label, u64)> = outcome
            .trace
            .as_ref()
            .unwrap()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Move { agent, round, .. } => Some((agent, round)),
                _ => None,
            })
            .filter(|&(agent, _)| agent == label(1))
            .collect();
        assert_eq!(moves, vec![(label(1), 6)]);
        assert_eq!(outcome.max_colocation, 3);
        // Walkers: 4 moves and a declaration each. The slow mover: its
        // yield, the five rounds of the wait, its completion.
        assert_eq!(outcome.polled_agent_rounds, 10 + 7);
    }

    #[test]
    fn skipped_rounds_inside_a_held_wait_never_reach_the_procedure() {
        // A slow walker beside the slow mover hands the run back and forth
        // between fast-forwards and the lone-agent path, whose catch-ups
        // skip whole stretches of the 20-round wait; any of them reaching
        // `OneSlowMove` panics.
        let ring = generators::ring(12);
        let polls = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(label(1), NodeId::new(0), OneSlowMove::boxed(20, &polls));
        add(&mut engine, 2, 4, SlowWalk::new(3, &[1; 3]));
        add(&mut engine, 3, 8, WaitRounds::new(40));
        let outcome = engine.run(100).unwrap();
        assert!(outcome.all_declared());
        assert_eq!(*polls.borrow(), vec![0, 21]);
        assert_eq!(declared_round(&outcome, 0), 21);
        assert!(outcome.skipped_rounds > 0);
    }

    #[test]
    fn a_slow_move_without_a_wait_is_a_plain_move() {
        let ring = generators::ring(6);
        let polls = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(label(1), NodeId::new(0), OneSlowMove::boxed(0, &polls));
        let mut scratch = EngineScratch::new();
        let mut run = ActiveRun::begin(engine, 500, &mut scratch).unwrap();
        step_past(&mut run, &mut scratch, 0);
        let agents = &run.engine.agents;
        assert_eq!(agents.slow[0].0, None);
        assert_eq!(agents.pos[0], NodeId::new(1));
        assert!(run.step(&mut scratch).is_some());
        assert_eq!(*polls.borrow(), vec![0, 1]);
    }

    #[test]
    fn a_crash_inside_a_held_wait_clears_the_move() {
        let ring = generators::ring(6);
        let polls = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(label(1), NodeId::new(0), OneSlowMove::boxed(9, &polls));
        add(&mut engine, 2, 3, WaitRounds::new(20));
        engine.set_faults(crash_at(&[(1, 5)]));
        let mut scratch = EngineScratch::new();
        let mut run = ActiveRun::begin(engine, 500, &mut scratch).unwrap();
        step_past(&mut run, &mut scratch, 4);
        assert!(run.engine.agents.slow[0].0.is_some());
        step_past(&mut run, &mut scratch, 5);
        let agents = &run.engine.agents;
        assert_eq!(agents.phase[0], AgentPhase::Crashed);
        assert_eq!(agents.slow[0].0, None, "the crash cancels the move");
        let outcome = loop {
            if let Some(result) = run.step(&mut scratch) {
                break result.unwrap();
            }
        };
        assert_eq!(outcome.total_moves, 0);
        assert_eq!(*polls.borrow(), vec![0]);
    }
}
