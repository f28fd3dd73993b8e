//! The deterministic synchronous execution engine.

use nochatter_graph::dynamic::{Static, Topology, TopologyView};
use nochatter_graph::{Graph, Label, NodeId, Port};

use crate::behavior::{AgentAct, AgentBehavior, ForkableBehavior};
use crate::error::SimError;
use crate::fault::FaultSpec;
use crate::obs::Obs;
use crate::outcome::{DeclarationRecord, RunOutcome, RunStatus};
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
    /// Awake and executing its behavior.
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

/// Struct-of-arrays agent storage.
///
/// The round loop touches the small per-agent scalars (phase, position,
/// wake/crash rounds) far more often than the behavior state machines, so
/// each field lives in its own contiguous array instead of one
/// array-of-structs row per agent. Behaviors are stored *inline* in their
/// own vector — generic over `B`, so the built-in algorithm stack
/// enum-dispatches with no per-agent `Box` and no vtable call — while
/// `B = Box<dyn AgentBehavior>` (the default) keeps the open extension
/// point.
struct AgentArena<B> {
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
    behaviors: Vec<B>,
}

impl<B> AgentArena<B> {
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
            behaviors: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    fn push(&mut self, label: Label, start: NodeId, behavior: B) {
        self.labels.push(label);
        self.pos.push(start);
        self.phase.push(AgentPhase::Dormant);
        self.just_woken.push(false);
        self.entry_port.push(None);
        self.declared.push(None);
        self.adversary_wake.push(u64::MAX);
        self.crash_round.push(u64::MAX);
        self.behaviors.push(behavior);
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
/// engines with different behavior storage types is always safe —
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
    /// This round's actions, co-indexed with the engine's agents.
    acts: Vec<Option<AgentAct>>,
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
/// [`EngineScratch::prepare`], the invalid-port early return and the dense
/// loop's end-of-round wipe, so the paths cannot drift.
fn wipe_occupancy(card: &mut [u32], occupants: &mut [Vec<Label>], touched: &mut Vec<u32>) {
    for node in touched.drain(..) {
        card[node as usize] = 0;
        occupants[node as usize].clear();
    }
}

/// Everything the round loop accumulates about a run — the context struct
/// handed to the finish step (instead of a parameter per counter).
#[derive(Clone, Default)]
struct RunStats {
    total_moves: u64,
    blocked_moves: u64,
    engine_iterations: u64,
    skipped_rounds: u64,
    /// Behavior polls actually executed (`on_round` calls). The honest
    /// denominator of the sparse round loop's win: the sparse and dense
    /// loops agree on every other number bitwise, but the sparse loop
    /// issues strictly fewer polls in mixed wait/walk regimes.
    polled_agent_rounds: u64,
    max_colocation: u32,
    last_declaration_round: u64,
    last_crash_round: u64,
}

/// The synchronous-round executor.
///
/// Build it over a graph, add agents (label, start node, behavior), pick a
/// wake schedule and sensing mode, then [`Engine::run`]. The engine is fully
/// deterministic: identical inputs produce identical runs, bit for bit.
///
/// The engine is generic along two axes:
///
/// * a [`TopologyView`] `V`: every round, move resolution consults the view
///   before traversing an edge, so the same loop executes static networks
///   and round-varying ones (periodic outages, seeded edge failures, the
///   dynamic-ring adversary — see [`nochatter_graph::dynamic`]). The
///   default [`Static`] view answers a constant `true` that the optimizer
///   folds away. An agent taking a port whose edge is absent this round
///   stays put, keeps its entry port, and sees `blocked: true` in its next
///   [`Obs`].
/// * a behavior storage type `B`: agents live in a struct-of-arrays arena
///   with their behaviors stored inline in a `Vec<B>`. The default
///   `B = Box<dyn AgentBehavior>` is the open extension point (exactly the
///   historical engine); instantiating `B` with an enum such as
///   `nochatter_core`'s `BehaviorSlot` dispatches the whole built-in
///   algorithm stack without a heap allocation or vtable call per agent.
///
/// Agent lifecycle is the explicit [`AgentPhase`] state machine, and the
/// optional [`FaultSpec`] crash adversary ([`Engine::set_faults`]) can move
/// agents to [`AgentPhase::Crashed`] mid-run: they stop acting, their
/// bodies keep counting toward `CurCard`.
///
/// See the [crate docs](crate) for a complete example.
pub struct Engine<'g, V: TopologyView = Static, B: AgentBehavior = Box<dyn AgentBehavior>> {
    graph: &'g Graph,
    view: V,
    agents: AgentArena<B>,
    schedule: WakeSchedule,
    sensing: Sensing,
    faults: FaultSpec,
    trace_capacity: Option<usize>,
    /// Explicit round-loop selection; `None` defers to the
    /// `NOCHATTER_DENSE_LOOP` environment variable at `begin`.
    dense_loop: Option<bool>,
}

/// True when the `NOCHATTER_DENSE_LOOP` environment variable selects the
/// dense reference loop (any non-empty value other than `0`).
fn dense_loop_from_env() -> bool {
    std::env::var("NOCHATTER_DENSE_LOOP").is_ok_and(|v| !v.is_empty() && v != "0")
}

impl<'g> Engine<'g> {
    /// A fresh engine over the static `graph` with no agents, simultaneous
    /// wake-up, weak sensing, boxed behaviors and no faults.
    pub fn new(graph: &'g Graph) -> Self {
        Engine::with_topology(graph, &Static)
    }
}

impl<'g, V: TopologyView> Engine<'g, V> {
    /// A fresh engine over `graph` under a round-varying topology: the
    /// provider's [`TopologyView`] decides, per round, which edges of the
    /// base graph are present. Behaviors are boxed (the open extension
    /// point); use [`Engine::with_parts`] to choose the storage type too.
    pub fn with_topology<T: Topology<View = V>>(graph: &'g Graph, topology: &T) -> Self {
        Engine::with_parts(graph, topology)
    }
}

impl<'g, V: TopologyView, B: AgentBehavior> Engine<'g, V, B> {
    /// The fully generic constructor: choose the round-varying topology
    /// *and* the behavior storage type `B`. `nochatter_core` instantiates
    /// `B` with its `BehaviorSlot` enum so the built-in algorithm stack
    /// runs without per-agent boxing.
    pub fn with_parts<T: Topology<View = V>>(graph: &'g Graph, topology: &T) -> Self {
        Engine {
            graph,
            view: topology.view(graph),
            agents: AgentArena::new(),
            schedule: WakeSchedule::Simultaneous,
            sensing: Sensing::Weak,
            faults: FaultSpec::None,
            trace_capacity: None,
            dense_loop: None,
        }
    }

    /// Selects the round-loop implementation explicitly: `true` forces the
    /// dense O(k)-per-iteration reference loop, `false` the sparse
    /// event-driven one (the default). When unset, the
    /// `NOCHATTER_DENSE_LOOP` environment variable decides at
    /// [`ActiveRun::begin`] — the programmatic override exists so
    /// same-process comparisons (benches, differential tests) never race
    /// on process-global state. The two loops produce bitwise identical
    /// runs; only [`RunOutcome::polled_agent_rounds`] tells them apart.
    pub fn set_dense_loop(&mut self, dense: bool) {
        self.dense_loop = Some(dense);
    }

    /// Adds an agent with the given label, start node and behavior.
    pub fn add_agent(&mut self, label: Label, start: NodeId, behavior: B) {
        self.agents.push(label, start, behavior);
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

    /// Enables event tracing with the given capacity.
    pub fn record_trace(&mut self, capacity: usize) {
        self.trace_capacity = Some(capacity);
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
    /// Returns a [`SimError`] on setup problems or if a behavior commits a
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
    /// Returns a [`SimError`] on setup problems or if a behavior commits a
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

/// Inserts `i` into a sorted worklist, keeping it sorted and duplicate-free.
fn insert_sorted(list: &mut Vec<u32>, i: u32) {
    if let Err(at) = list.binary_search(&i) {
        list.insert(at, i);
    }
}

/// Removes `i` from a sorted worklist if present.
fn remove_sorted(list: &mut Vec<u32>, i: u32) {
    if let Ok(at) = list.binary_search(&i) {
        list.remove(at);
    }
}

/// Per-run state behind the sparse event-driven round loop.
///
/// The dense reference loop pays O(k) per executed iteration: it scans
/// every agent for due crashes and wakes, rebuilds occupancy from all k
/// positions, and polls every executing behavior — even when all but one
/// agent sit in a multi-thousand-round `CurCard`-stability wait. The
/// sparse loop makes an executed iteration cost O(active + dirtied):
///
/// * executing agents live on a sorted **active worklist** and only those
///   are polled; an agent whose behavior returns [`AgentAct::Wait`] with a
///   positive [`AgentBehavior::min_wait`] horizon is **parked** — taken
///   off the worklist and not re-polled until (a) its horizon expires
///   (`park_deadline`), (b) the occupancy of its node changes (the
///   **dirty**-node set, fed incrementally by applied moves), or (c) a
///   pending adversary wake/crash lands on it;
/// * per-node occupancy is **incremental**: built once at `begin`, updated
///   by each applied move instead of rebuilt from all k positions;
/// * adversary wakes and crashes are sorted **event cursors**
///   (`next_wake_round`/`next_crash_round` in spirit): when no event is
///   due this round, the crash and wake phases disappear entirely.
///
/// Determinism is preserved by construction: events fire in the dense
/// loop's exact order (crashes, then adversary wakes, then visit wakes,
/// all in ascending agent order; actions apply in ascending agent order),
/// a parked behavior is caught up with [`AgentBehavior::note_skipped`]
/// before its next poll (valid because parking guarantees the skipped
/// observations were identical), and occupancy of dirtied nodes is
/// sampled exactly when the dense loop would observe it — at the start of
/// the next executed iteration, never mid-apply. Sparse and dense runs
/// are bitwise identical on traces, outcomes and all report bytes; only
/// [`RunOutcome::polled_agent_rounds`] differs.
struct SparseState {
    /// Sorted indices of executing agents polled every executed iteration.
    active: Vec<u32>,
    /// Sorted indices of dormant agents (the visit-wake scan order).
    dormant: Vec<u32>,
    /// Per agent: the round its behavior was last synchronized to
    /// (`u64::MAX` = not parked).
    parked_at: Vec<u64>,
    /// Per agent: the first round its wait promise no longer covers — it
    /// must be re-polled at this round at the latest (`u64::MAX` = not
    /// parked).
    park_deadline: Vec<u64>,
    /// Parked agents bucketed by node, so a dirtied node unparks exactly
    /// its own waiters.
    parked_here: Vec<Vec<u32>>,
    /// How many agents are currently parked.
    parked_count: usize,
    /// Lower bound on the smallest `park_deadline`; a round at or past it
    /// triggers the expiry scan.
    next_deadline: u64,
    /// Incremental per-node occupant count (every body: dormant, declared
    /// and crashed included, exactly like the dense occupancy phase).
    card: Vec<u32>,
    /// Incremental per-node occupant labels (traditional sensing only;
    /// unsorted — the poll sorts its lent buffer, like the dense loop).
    occupants: Vec<Vec<Label>>,
    /// Both endpoints of every move applied in the previous executed
    /// iteration (duplicates allowed). Processed — occupancy sampling,
    /// visit wakes, unparking — at the start of the next executed
    /// iteration, which is exactly when the dense loop first observes the
    /// new positions.
    dirty: Vec<u32>,
    /// `(wake_round, agent)` for every finite adversary wake, sorted; the
    /// cursor makes the wake phase vanish when no wake is due.
    wakes: Vec<(u64, u32)>,
    wake_cursor: usize,
    /// `(crash_round, agent)` for every pending crash, sorted; the cursor
    /// makes the crash phase vanish when no crash is due.
    crashes: Vec<(u64, u32)>,
    crash_cursor: usize,
    /// Agents not yet in a terminal phase (the terminal check without the
    /// dense all-k scan).
    nonterminal: usize,
    /// Snapshot of `active` taken by the poll phase; the apply phase
    /// iterates it so worklist edits mid-apply cannot skew iteration.
    polled: Vec<u32>,
    /// Co-indexed with `polled`: whether this poll may park on `Wait`
    /// (false for blocked or just-woken polls, whose next observation
    /// changes even without external events).
    poll_parkable: Vec<bool>,
    /// Reusable scan buffer for the parked agents a quiescence
    /// fast-forward catches up.
    ff_parked: Vec<u32>,
}

/// Builds the sparse state from the current agent columns. `parked_at`,
/// `park_deadline` and `dirty` are taken verbatim (all-unparked plus every
/// start position at [`ActiveRun::begin`]; a checkpoint's captured vectors
/// on resume); everything else is derived: worklists from the phases,
/// occupancy from the positions, event lists from the wake/crash columns
/// (stale entries — already woken or fired — are skipped by the cursors).
fn build_sparse<B>(
    agents: &AgentArena<B>,
    node_count: usize,
    bucket_occupants: bool,
    parked_at: Vec<u64>,
    park_deadline: Vec<u64>,
    dirty: Vec<u32>,
) -> SparseState {
    let k = agents.len();
    let mut active = Vec::new();
    let mut dormant = Vec::new();
    let mut parked_here: Vec<Vec<u32>> = vec![Vec::new(); node_count];
    let mut parked_count = 0;
    let mut nonterminal = 0;
    for i in 0..k {
        let phase = agents.phase[i];
        if !phase.is_terminal() {
            nonterminal += 1;
        }
        match phase {
            AgentPhase::Dormant => dormant.push(i as u32),
            AgentPhase::Active | AgentPhase::Blocked => {
                if parked_at[i] == u64::MAX {
                    active.push(i as u32);
                } else {
                    parked_here[agents.pos[i].index()].push(i as u32);
                    parked_count += 1;
                }
            }
            AgentPhase::Declared | AgentPhase::Crashed => {}
        }
    }
    let mut card = vec![0u32; node_count];
    let mut occupants: Vec<Vec<Label>> =
        vec![Vec::new(); if bucket_occupants { node_count } else { 0 }];
    for (&pos, &label) in agents.pos.iter().zip(agents.labels.iter()) {
        card[pos.index()] += 1;
        if bucket_occupants {
            occupants[pos.index()].push(label);
        }
    }
    let mut wakes: Vec<(u64, u32)> = agents
        .adversary_wake
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w != u64::MAX)
        .map(|(i, &w)| (w, i as u32))
        .collect();
    wakes.sort_unstable();
    let mut crashes: Vec<(u64, u32)> = agents
        .crash_round
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c != u64::MAX)
        .map(|(i, &c)| (c, i as u32))
        .collect();
    crashes.sort_unstable();
    let next_deadline = park_deadline.iter().copied().min().unwrap_or(u64::MAX);
    SparseState {
        active,
        dormant,
        parked_at,
        park_deadline,
        parked_here,
        parked_count,
        next_deadline,
        card,
        occupants,
        dirty,
        wakes,
        wake_cursor: 0,
        crashes,
        crash_cursor: 0,
        nonterminal,
        polled: Vec::new(),
        poll_parkable: Vec::new(),
        ff_parked: Vec::new(),
    }
}

impl SparseState {
    /// Takes a parked agent off the parked set and back onto the active
    /// worklist, catching its behavior up to `round - 1` (the last round
    /// whose observation is known identical to the one it parked on). The
    /// caller is responsible for bucket removal when it drained the bucket
    /// itself.
    fn unpark<B: AgentBehavior>(&mut self, agents: &mut AgentArena<B>, i: u32, round: u64) {
        let iu = i as usize;
        debug_assert!(self.parked_at[iu] != u64::MAX);
        let behind = round - 1 - self.parked_at[iu];
        if behind > 0 {
            agents.behaviors[iu].note_skipped(behind);
        }
        self.parked_at[iu] = u64::MAX;
        self.park_deadline[iu] = u64::MAX;
        self.parked_count -= 1;
        insert_sorted(&mut self.active, i);
    }

    /// Removes a parked agent `i` from its node bucket.
    fn remove_from_bucket(&mut self, node: usize, i: u32) {
        let bucket = &mut self.parked_here[node];
        if let Some(at) = bucket.iter().position(|&a| a == i) {
            bucket.swap_remove(at);
        }
    }
}

/// Polls agent `i` against the current occupancy: one dense-identical
/// observation build plus `on_round` call, shared by the sparse poll phase
/// and the quiescence fast-forward's parked-agent catch-up. The caller
/// accounts the poll and resolves the phase transition.
#[allow(clippy::too_many_arguments)]
fn poll_agent<B: AgentBehavior>(
    graph: &Graph,
    sensing: Sensing,
    agents: &mut AgentArena<B>,
    card: &[u32],
    occupants: &[Vec<Label>],
    label_buf: &mut Vec<Label>,
    round: u64,
    i: usize,
    blocked: bool,
) -> AgentAct {
    let pos = agents.pos[i];
    let peer_labels = match sensing {
        Sensing::Weak => None,
        Sensing::Traditional => {
            // The node's bucket lists everyone present; fill and sort the
            // one scratch buffer, and lend it to the observation instead
            // of allocating (identical bytes to the dense loop's poll).
            label_buf.clear();
            label_buf.extend_from_slice(&occupants[pos.index()]);
            label_buf.sort_unstable();
            Some(std::mem::take(label_buf))
        }
    };
    let mut obs = Obs {
        round,
        degree: graph.degree(pos),
        cur_card: card[pos.index()],
        entry_port: agents.entry_port[i],
        just_woken: agents.just_woken[i],
        blocked,
        peer_labels,
    };
    let act = agents.behaviors[i].on_round(&obs);
    // Reclaim the lent label buffer (and its capacity).
    if let Some(buf) = obs.peer_labels.take() {
        *label_buf = buf;
    }
    agents.just_woken[i] = false;
    act
}

/// How one sparse round-loop iteration ended, handed back across the
/// borrow-splitting boundary so the terminal paths can run `finish` on the
/// whole run.
enum SparseStep {
    Continue,
    Terminal(RunStatus, u64),
    Fail(SimError),
}

/// One validated run being stepped round by round — the engine's loop
/// reified as a state machine.
///
/// [`ActiveRun::begin`] performs validation and setup; every
/// [`ActiveRun::step`] executes exactly one iteration of the round loop
/// (one simulated round plus that round's quiescence fast-forward) against
/// a borrowed [`EngineScratch`], and returns the run's result once it
/// terminates. [`Engine::run_with_scratch`] is a trivial `begin`/`step`
/// driver; the adversary search steps runs itself to capture checkpoints.
///
/// Scratch discipline: a step leaves `card`/`occupants` all-zero (the
/// end-of-round wipe drains `touched`, including on the invalid-port error
/// path), so the next run through the same scratch starts clean.
///
/// When the behavior storage is forkable ([`ForkableBehavior`]), a run can
/// additionally be snapshotted mid-flight ([`ActiveRun::checkpoint`]) and
/// another run over the *same graph and team* fast-started from the
/// snapshot ([`ActiveRun::resume_from`]) — the mechanism behind the
/// adversary search's prefix-sharing incremental evaluation.
pub struct ActiveRun<'g, V: TopologyView, B: AgentBehavior> {
    engine: Engine<'g, V, B>,
    trace: Option<Trace>,
    stats: RunStats,
    /// Crash machinery is engaged only while some resolved crash is still
    /// pending: under `FaultSpec::None` this stays 0 and the whole fault
    /// phase is one untaken branch per round.
    pending_crashes: usize,
    /// The crash rounds resolved at `begin`, kept verbatim: the stepping
    /// loop clears `crash_round` entries as crashes fire, and
    /// [`ActiveRun::resume_from`] needs this run's *own* original spec to
    /// reconcile which crashes are still ahead of the resumed round.
    resolved_crashes: Vec<u64>,
    /// Occupancy buckets feed only the traditional-sensing peer-label
    /// observation; the silent model pays nothing for them.
    bucket_occupants: bool,
    /// `Some` = the sparse event-driven loop (the default); `None` = the
    /// dense O(k) reference loop (`NOCHATTER_DENSE_LOOP=1` or
    /// [`Engine::set_dense_loop`]). Both produce bitwise identical runs.
    sparse: Option<SparseState>,
    /// Debug-build contract net for the dense reference loop: per agent,
    /// the absolute round through which its last [`AgentBehavior::min_wait`]
    /// promised further `Wait`s, plus the observation signature (degree,
    /// cur_card, entry_port) the promise was made under. A poll inside the
    /// promised window with an identical signature must yield `Wait` —
    /// catching unsound `min_wait` implementations at the source instead
    /// of as a report byte-diff three layers up. Weak sensing only (a
    /// scalar signature cannot capture traditional peer labels).
    #[cfg(debug_assertions)]
    #[allow(clippy::type_complexity)]
    promise: Vec<(u64, Option<(u32, u32, Option<Port>)>)>,
    round: u64,
    max_rounds: u64,
}

/// A mid-flight snapshot of one [`ActiveRun`]: everything the round loop
/// mutates, captured at a round boundary.
///
/// The checkpoint is deliberately *spec-free*: it stores the per-agent
/// columns (positions, phases, entry ports, declarations, behavior state),
/// the accumulated [`RunOutcome`] counters, the trace so far and the
/// virtual clock — but **not** the graph, the topology view, the wake
/// schedule or the fault spec. A topology view is a pure function of the
/// round number and is re-derived by the next step's `begin_round`; wake
/// and crash rounds belong to the run resumed *into*, which reconciles
/// them against its own spec. That is what makes a checkpoint taken under
/// one adversary spec a valid starting point for a run under a *different*
/// spec, provided both specs agree on every round before
/// [`RunCheckpoint::round`] (see [`ActiveRun::resume_from`]).
pub struct RunCheckpoint<B> {
    pos: Vec<NodeId>,
    phase: Vec<AgentPhase>,
    just_woken: Vec<bool>,
    entry_port: Vec<Option<Port>>,
    declared: Vec<Option<DeclarationRecord>>,
    behaviors: Vec<B>,
    stats: RunStats,
    trace: Option<Trace>,
    /// Sparse-loop park state, captured verbatim so a sparse-resumed run
    /// re-polls exactly when the checkpointed run would have (its
    /// `polled_agent_rounds` stays poll-for-poll identical to stepping
    /// from scratch). A dense checkpoint stores the all-unparked vectors.
    parked_at: Vec<u64>,
    park_deadline: Vec<u64>,
    /// Nodes dirtied by the last executed iteration, still pending their
    /// start-of-round processing at `round`. A dense checkpoint stores
    /// every occupied node — the safe over-approximation that makes a
    /// dense checkpoint resumable into a sparse run.
    dirty: Vec<u32>,
    round: u64,
}

impl<B> RunCheckpoint<B> {
    /// The round the checkpointed run would simulate next — the first
    /// round a resumed run executes.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The engine iterations the checkpointed prefix had executed — the
    /// work a resumed run does *not* repeat (the honest basis for the
    /// search's rounds-saved accounting).
    pub fn executed_rounds(&self) -> u64 {
        self.stats.engine_iterations
    }
}

impl<'g, V: TopologyView, B: AgentBehavior> ActiveRun<'g, V, B> {
    /// Validates the engine's setup and prepares the run for stepping.
    pub fn begin(
        mut engine: Engine<'g, V, B>,
        max_rounds: u64,
        scratch: &mut EngineScratch,
    ) -> Result<Self, SimError> {
        engine.validate(&mut scratch.validate_order)?;
        let trace = engine.trace_capacity.map(Trace::with_capacity);
        scratch.prepare(engine.graph.node_count(), engine.agents.len());
        let bucket_occupants = engine.sensing == Sensing::Traditional;
        let pending_crashes = engine
            .agents
            .crash_round
            .iter()
            .filter(|&&r| r != u64::MAX)
            .count();
        let resolved_crashes = engine.agents.crash_round.clone();
        let k = engine.agents.len();
        let sparse = if engine.dense_loop.unwrap_or_else(dense_loop_from_env) {
            None
        } else {
            // Seeding `dirty` with every start position makes the first
            // executed iteration sample round-0 occupancy exactly like the
            // dense loop does (validation rejects shared starts, so no
            // spurious visit-wake can fire).
            let dirty = engine.agents.pos.iter().map(|p| p.index() as u32).collect();
            Some(build_sparse(
                &engine.agents,
                engine.graph.node_count(),
                bucket_occupants,
                vec![u64::MAX; k],
                vec![u64::MAX; k],
                dirty,
            ))
        };
        Ok(ActiveRun {
            engine,
            trace,
            stats: RunStats::default(),
            pending_crashes,
            resolved_crashes,
            bucket_occupants,
            sparse,
            #[cfg(debug_assertions)]
            promise: vec![(0, None); k],
            round: 0,
            max_rounds,
        })
    }

    /// The round this run's next [`ActiveRun::step`] will simulate; a value
    /// at or past the round limit means the next step only finalizes the
    /// outcome.
    pub fn next_round(&self) -> u64 {
        self.round
    }

    /// Executes one iteration of the round loop. Returns `Some` once the
    /// run has terminated (all agents terminal, round limit, or a protocol
    /// violation); the run must not be stepped again after that.
    ///
    /// Dispatches to the sparse event-driven loop (the default) or the
    /// dense O(k) reference loop (`NOCHATTER_DENSE_LOOP=1` or
    /// [`Engine::set_dense_loop`]); the two execute identical runs, bit
    /// for bit, differing only in how many behavior polls they issue
    /// ([`RunOutcome::polled_agent_rounds`]).
    pub fn step(&mut self, scratch: &mut EngineScratch) -> Option<Result<RunOutcome, SimError>> {
        if self.round >= self.max_rounds {
            return Some(Ok(self.finish(RunStatus::RoundLimit, self.max_rounds)));
        }
        if self.sparse.is_some() {
            match self.step_sparse(scratch) {
                SparseStep::Continue => None,
                SparseStep::Terminal(status, rounds) => Some(Ok(self.finish(status, rounds))),
                SparseStep::Fail(e) => Some(Err(e)),
            }
        } else {
            self.step_dense(scratch)
        }
    }

    /// The dense O(k)-per-iteration reference round loop, kept verbatim as
    /// the semantics baseline the sparse loop is pinned against
    /// (`NOCHATTER_DENSE_LOOP=1` selects it).
    fn step_dense(&mut self, scratch: &mut EngineScratch) -> Option<Result<RunOutcome, SimError>> {
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
        // observations are computed from the same positions). A
        // `Blocked` agent reports its failed attempt through the
        // observation and reverts to `Active`.
        let mut all_waited = true;
        let mut any_active = false;
        for (i, slot) in acts.iter_mut().enumerate() {
            *slot = None;
            let phase = self.engine.agents.phase[i];
            if !phase.is_executing() {
                continue;
            }
            any_active = true;
            let pos = self.engine.agents.pos[i];
            let peer_labels = match self.engine.sensing {
                Sensing::Weak => None,
                Sensing::Traditional => {
                    // The node's bucket lists everyone present in agent
                    // order; fill and sort the one scratch buffer, and
                    // lend it to the observation instead of allocating.
                    label_buf.clear();
                    label_buf.extend_from_slice(&occupants[pos.index()]);
                    label_buf.sort_unstable();
                    Some(std::mem::take(label_buf))
                }
            };
            let mut obs = Obs {
                round,
                degree: self.engine.graph.degree(pos),
                cur_card: card[pos.index()],
                entry_port: self.engine.agents.entry_port[i],
                just_woken: self.engine.agents.just_woken[i],
                blocked: phase == AgentPhase::Blocked,
                peer_labels,
            };
            let act = self.engine.agents.behaviors[i].on_round(&obs);
            self.stats.polled_agent_rounds += 1;
            #[cfg(debug_assertions)]
            if self.engine.sensing == Sensing::Weak {
                let sig = (obs.degree, obs.cur_card, obs.entry_port);
                let fresh = obs.blocked || obs.just_woken;
                let (through, promised) = self.promise[i];
                if !fresh && round <= through && promised == Some(sig) {
                    debug_assert!(
                        matches!(act, AgentAct::Wait),
                        "agent {} acted at round {round} inside its promised wait horizon \
                         (through round {through}) without an observation change",
                        self.engine.agents.labels[i]
                    );
                }
                self.promise[i] = if fresh {
                    (0, None)
                } else {
                    (
                        round.saturating_add(self.engine.agents.behaviors[i].min_wait()),
                        Some(sig),
                    )
                };
            }
            // Reclaim the lent label buffer (and its capacity).
            if let Some(buf) = obs.peer_labels.take() {
                *label_buf = buf;
            }
            self.engine.agents.just_woken[i] = false;
            self.engine.agents.phase[i] = AgentPhase::Active;
            if !matches!(act, AgentAct::Wait) {
                all_waited = false;
            }
            *slot = Some(act);
        }

        // 5. Apply actions simultaneously.
        for (i, act) in acts.iter().enumerate() {
            let Some(act) = *act else { continue };
            match act {
                AgentAct::Wait => {}
                AgentAct::TakePort(p) => {
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
                            // Leave the scratch clean for the next run
                            // through it.
                            wipe_occupancy(card, occupants, touched);
                            return Some(Err(SimError::InvalidPort {
                                agent: self.engine.agents.labels[i],
                                node: pos,
                                port: p,
                                round,
                            }));
                        }
                    }
                }
                AgentAct::Declare(d) => {
                    self.engine.agents.declared[i] = Some(DeclarationRecord {
                        round,
                        node: self.engine.agents.pos[i],
                        declaration: d,
                    });
                    self.engine.agents.phase[i] = AgentPhase::Declared;
                    self.stats.last_declaration_round =
                        self.stats.last_declaration_round.max(round);
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
        }

        // End-of-round wipe: clear exactly the nodes occupied this round,
        // restoring the all-zero scratch invariant.
        wipe_occupancy(card, occupants, touched);

        // A run ends when every agent is terminal. All declared is the
        // paper's successful end; any crash among otherwise-declared
        // agents halts the run early too — nothing can change anymore —
        // but reports `Halted` (the crashed agents never declared).
        if self.engine.agents.phase.iter().all(|p| p.is_terminal()) {
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
            return Some(Ok(self.finish(status, rounds)));
        }

        let mut next = round + 1;

        // 6. Quiescence fast-forward: if every active agent waited, no
        // observation can change until some procedure stops waiting,
        // the adversary wakes someone, or a fault crashes someone.
        // Skip ahead by the largest provably quiet stretch.
        if all_waited && any_active {
            let mut skip = u64::MAX;
            for (&phase, behavior) in self
                .engine
                .agents
                .phase
                .iter()
                .zip(self.engine.agents.behaviors.iter())
            {
                if phase.is_executing() {
                    skip = skip.min(behavior.min_wait());
                }
            }
            // Respect pending adversary wake-ups...
            for (&phase, &wake) in self
                .engine
                .agents
                .phase
                .iter()
                .zip(self.engine.agents.adversary_wake.iter())
            {
                if phase == AgentPhase::Dormant && wake != u64::MAX {
                    skip = skip.min(wake.saturating_sub(next));
                }
            }
            // ...pending crashes (a crash mid-stretch must execute in
            // its exact round: the agent stops acting from then on)...
            if self.pending_crashes > 0 {
                for &crash in &self.engine.agents.crash_round {
                    if crash != u64::MAX {
                        skip = skip.min(crash.saturating_sub(next));
                    }
                }
            }
            // ...and the round limit.
            skip = skip.min(self.max_rounds.saturating_sub(next));
            if skip > 0 && skip != u64::MAX {
                for (&phase, behavior) in self
                    .engine
                    .agents
                    .phase
                    .iter()
                    .zip(self.engine.agents.behaviors.iter_mut())
                {
                    if phase.is_executing() {
                        behavior.note_skipped(skip);
                    }
                }
                next += skip;
                self.stats.skipped_rounds += skip;
            }
        }

        self.round = next;
        None
    }

    /// The sparse event-driven round loop: one executed iteration costs
    /// O(active + dirtied) instead of the dense loop's O(k).
    ///
    /// Phase-for-phase it is the dense loop with every all-agents scan
    /// replaced by its sparse equivalent — event cursors for crashes and
    /// adversary wakes, the dirty-node set for occupancy sampling, visit
    /// wakes and unparking, the sorted active worklist for polls and
    /// applies — in the dense loop's exact order, so traces, outcomes and
    /// every report byte match the dense loop bit for bit (see
    /// [`SparseState`] for the full argument).
    fn step_sparse(&mut self, scratch: &mut EngineScratch) -> SparseStep {
        let ActiveRun {
            engine,
            trace,
            stats,
            pending_crashes,
            bucket_occupants,
            sparse,
            round: cur_round,
            max_rounds,
            ..
        } = self;
        let sp = sparse.as_mut().expect("step_sparse requires sparse state");
        let Engine {
            graph,
            view,
            agents,
            sensing,
            ..
        } = engine;
        let graph: &Graph = graph;
        let sensing = *sensing;
        let bucket_occupants = *bucket_occupants;
        let max_rounds = *max_rounds;
        let round = *cur_round;
        let label_buf = &mut scratch.labels;
        let acts = &mut scratch.acts;

        stats.engine_iterations += 1;
        // Advance the topology to this round (fast-forwarded rounds are
        // skipped soundly, exactly as in the dense loop).
        view.begin_round(round);

        // 0. Crash faults due this round. The cursor makes this phase
        // vanish while no crash is due; the sorted `(round, agent)` order
        // reproduces the dense ascending-agent scan. A crash on an
        // already-declared agent resolves to nothing; otherwise the agent
        // is pulled out of whichever sparse home it occupies — dormant
        // list, active worklist or parked bucket — and its body stays.
        while let Some(&(due, i)) = sp.crashes.get(sp.crash_cursor) {
            if due > round {
                break;
            }
            debug_assert_eq!(due, round, "crash events fire in their exact round");
            sp.crash_cursor += 1;
            let iu = i as usize;
            agents.crash_round[iu] = u64::MAX;
            *pending_crashes -= 1;
            if agents.phase[iu] == AgentPhase::Declared {
                continue;
            }
            match agents.phase[iu] {
                AgentPhase::Dormant => remove_sorted(&mut sp.dormant, i),
                _ if sp.parked_at[iu] != u64::MAX => {
                    sp.remove_from_bucket(agents.pos[iu].index(), i);
                    sp.parked_at[iu] = u64::MAX;
                    sp.park_deadline[iu] = u64::MAX;
                    sp.parked_count -= 1;
                }
                _ => remove_sorted(&mut sp.active, i),
            }
            sp.nonterminal -= 1;
            agents.phase[iu] = AgentPhase::Crashed;
            stats.last_crash_round = stats.last_crash_round.max(round);
            if let Some(t) = trace.as_mut() {
                t.push(TraceEvent::Crashed {
                    agent: agents.labels[iu],
                    round,
                    node: agents.pos[iu],
                });
            }
        }

        // 1. Adversary wake-ups due this round. Entries whose agent
        // already woke by visit (or crashed) are stale and skipped; live
        // entries fire exactly at their round, in ascending agent order.
        while let Some(&(due, i)) = sp.wakes.get(sp.wake_cursor) {
            if due > round {
                break;
            }
            sp.wake_cursor += 1;
            let iu = i as usize;
            if agents.phase[iu] != AgentPhase::Dormant {
                continue;
            }
            agents.phase[iu] = AgentPhase::Active;
            agents.just_woken[iu] = true;
            remove_sorted(&mut sp.dormant, i);
            insert_sorted(&mut sp.active, i);
            if let Some(t) = trace.as_mut() {
                t.push(TraceEvent::Wake {
                    agent: agents.labels[iu],
                    round,
                    by_visit: false,
                });
            }
        }

        // 2+3. Occupancy deltas from the previous executed iteration.
        // `card`/`occupants` were already updated by the applied moves;
        // this is where the dense loop would first *observe* the new
        // positions, so this is where max-colocation is sampled, dormant
        // agents that gained company wake (ascending agent order, like the
        // dense scan — a fresh co-location implies a dirtied node, so the
        // scan fires iff the dense one would), and the dirtied nodes'
        // parked waiters are brought back for re-polling.
        if !sp.dirty.is_empty() {
            for di in 0..sp.dirty.len() {
                let node = sp.dirty[di] as usize;
                stats.max_colocation = stats.max_colocation.max(sp.card[node]);
            }
            let mut d = 0;
            while d < sp.dormant.len() {
                let i = sp.dormant[d];
                let iu = i as usize;
                if sp.card[agents.pos[iu].index()] > 1 {
                    agents.phase[iu] = AgentPhase::Active;
                    agents.just_woken[iu] = true;
                    sp.dormant.remove(d);
                    insert_sorted(&mut sp.active, i);
                    if let Some(t) = trace.as_mut() {
                        t.push(TraceEvent::Wake {
                            agent: agents.labels[iu],
                            round,
                            by_visit: true,
                        });
                    }
                } else {
                    d += 1;
                }
            }
            for di in 0..sp.dirty.len() {
                let node = sp.dirty[di] as usize;
                if sp.parked_here[node].is_empty() {
                    continue;
                }
                let mut bucket = std::mem::take(&mut sp.parked_here[node]);
                for &i in &bucket {
                    sp.unpark(agents, i, round);
                }
                bucket.clear();
                sp.parked_here[node] = bucket;
            }
            sp.dirty.clear();
        }

        // Horizon expiry: the rare O(k) scan, taken only when the earliest
        // recorded deadline can actually be due (`next_deadline` is a lazy
        // lower bound — a stale-low value costs one empty scan, never a
        // missed poll).
        if round >= sp.next_deadline {
            let mut min_next = u64::MAX;
            for iu in 0..sp.park_deadline.len() {
                let deadline = sp.park_deadline[iu];
                if deadline == u64::MAX {
                    continue;
                }
                debug_assert!(deadline >= round, "a park deadline was silently passed");
                if deadline <= round {
                    sp.remove_from_bucket(agents.pos[iu].index(), iu as u32);
                    sp.unpark(agents, iu as u32, round);
                } else {
                    min_next = min_next.min(deadline);
                }
            }
            sp.next_deadline = min_next;
        }

        // 4. Poll the active worklist — the dense poll phase restricted to
        // the agents whose next action can differ from the parked `Wait`.
        // The snapshot decouples the apply phase from worklist edits; the
        // co-indexed parkable flags exclude blocked and just-woken polls
        // from parking (their very next observation changes, so the
        // skipped-identical-observation catch-up contract could not hold).
        {
            let SparseState { polled, active, .. } = &mut *sp;
            polled.clear();
            polled.extend_from_slice(active);
        }
        sp.poll_parkable.clear();
        let mut all_waited = true;
        for pi in 0..sp.polled.len() {
            let i = sp.polled[pi];
            let iu = i as usize;
            let phase = agents.phase[iu];
            debug_assert!(phase.is_executing());
            let blocked = phase == AgentPhase::Blocked;
            let parkable = !blocked && !agents.just_woken[iu];
            let act = poll_agent(
                graph,
                sensing,
                agents,
                &sp.card,
                &sp.occupants,
                label_buf,
                round,
                iu,
                blocked,
            );
            stats.polled_agent_rounds += 1;
            agents.phase[iu] = AgentPhase::Active;
            let waited = matches!(act, AgentAct::Wait);
            if !waited {
                all_waited = false;
            }
            sp.poll_parkable.push(parkable && waited);
            acts[iu] = Some(act);
        }

        // 5. Apply actions in ascending agent order, updating occupancy
        // incrementally and recording both endpoints of every applied move
        // as dirty (label swaps dirty too: under traditional sensing the
        // peer-label set changes even where the cardinality does not).
        for pi in 0..sp.polled.len() {
            let i = sp.polled[pi];
            let iu = i as usize;
            let Some(act) = acts[iu].take() else { continue };
            match act {
                AgentAct::Wait => {}
                AgentAct::TakePort(p) => {
                    let pos = agents.pos[iu];
                    match graph.neighbor(pos, p) {
                        Some(_) if !view.edge_present(pos, p) => {
                            agents.phase[iu] = AgentPhase::Blocked;
                            stats.blocked_moves += 1;
                            if let Some(t) = trace.as_mut() {
                                t.push(TraceEvent::Blocked {
                                    agent: agents.labels[iu],
                                    round,
                                    node: pos,
                                    port: p,
                                });
                            }
                        }
                        Some((to, back)) => {
                            if let Some(t) = trace.as_mut() {
                                t.push(TraceEvent::Move {
                                    agent: agents.labels[iu],
                                    round,
                                    from: pos,
                                    to,
                                    port: p,
                                });
                            }
                            let from = pos.index();
                            sp.card[from] -= 1;
                            sp.card[to.index()] += 1;
                            if bucket_occupants {
                                let label = agents.labels[iu];
                                let bucket = &mut sp.occupants[from];
                                if let Some(at) = bucket.iter().position(|&l| l == label) {
                                    bucket.swap_remove(at);
                                }
                                sp.occupants[to.index()].push(label);
                            }
                            agents.pos[iu] = to;
                            agents.entry_port[iu] = Some(back);
                            stats.total_moves += 1;
                            sp.dirty.push(from as u32);
                            sp.dirty.push(to.index() as u32);
                        }
                        // The sparse loop never touched the shared scratch
                        // occupancy, so the error path has nothing to wipe.
                        None => {
                            return SparseStep::Fail(SimError::InvalidPort {
                                agent: agents.labels[iu],
                                node: pos,
                                port: p,
                                round,
                            });
                        }
                    }
                }
                AgentAct::Declare(d) => {
                    agents.declared[iu] = Some(DeclarationRecord {
                        round,
                        node: agents.pos[iu],
                        declaration: d,
                    });
                    agents.phase[iu] = AgentPhase::Declared;
                    remove_sorted(&mut sp.active, i);
                    sp.nonterminal -= 1;
                    stats.last_declaration_round = stats.last_declaration_round.max(round);
                    if let Some(t) = trace.as_mut() {
                        t.push(TraceEvent::Declare {
                            agent: agents.labels[iu],
                            round,
                            node: agents.pos[iu],
                            declaration: d,
                        });
                    }
                }
            }
        }

        // Terminal check via the maintained counter — no all-k phase scan.
        if sp.nonterminal == 0 {
            let crashed = agents.phase.contains(&AgentPhase::Crashed);
            let (status, rounds) = if crashed {
                (
                    RunStatus::Halted,
                    stats.last_declaration_round.max(stats.last_crash_round),
                )
            } else {
                (RunStatus::AllDeclared, stats.last_declaration_round)
            };
            return SparseStep::Terminal(status, rounds);
        }

        let mut next = round + 1;

        // 6. Quiescence fast-forward. Parked agents count as waiting —
        // that is what parking means — so the condition is "every poll
        // this round waited and someone is still executing". To bound the
        // skip by every executing agent's *current* horizon (the dense
        // bound), each parked behavior is caught up and polled once at
        // this round — exactly the poll the dense loop issues in its
        // fast-forward round — then re-parked at the new synchronization
        // point with a fresh horizon.
        if all_waited && (!sp.polled.is_empty() || sp.parked_count > 0) {
            let mut skip = u64::MAX;
            for pi in 0..sp.polled.len() {
                skip = skip.min(agents.behaviors[sp.polled[pi] as usize].min_wait());
            }
            sp.ff_parked.clear();
            for iu in 0..sp.parked_at.len() {
                if sp.parked_at[iu] != u64::MAX {
                    sp.ff_parked.push(iu as u32);
                }
            }
            for fi in 0..sp.ff_parked.len() {
                let iu = sp.ff_parked[fi] as usize;
                let behind = round - 1 - sp.parked_at[iu];
                if behind > 0 {
                    agents.behaviors[iu].note_skipped(behind);
                }
                let act = poll_agent(
                    graph,
                    sensing,
                    agents,
                    &sp.card,
                    &sp.occupants,
                    label_buf,
                    round,
                    iu,
                    false,
                );
                stats.polled_agent_rounds += 1;
                debug_assert!(
                    matches!(act, AgentAct::Wait),
                    "parked agent acted inside its promised wait horizon"
                );
                skip = skip.min(agents.behaviors[iu].min_wait());
            }
            // Respect pending adversary wake-ups: the first entry whose
            // agent is still dormant bounds every later one (stale heads
            // are skipped for good — agents never return to dormant)...
            while let Some(&(w, i)) = sp.wakes.get(sp.wake_cursor) {
                if agents.phase[i as usize] == AgentPhase::Dormant {
                    skip = skip.min(w.saturating_sub(next));
                    break;
                }
                sp.wake_cursor += 1;
            }
            // ...pending crashes, with no phase filter — exactly the dense
            // bound: even a crash aimed at an already-declared agent pins
            // the skip...
            if let Some(&(c, _)) = sp.crashes.get(sp.crash_cursor) {
                skip = skip.min(c.saturating_sub(next));
            }
            // ...and the round limit.
            skip = skip.min(max_rounds.saturating_sub(next));
            if skip > 0 && skip != u64::MAX {
                for pi in 0..sp.polled.len() {
                    agents.behaviors[sp.polled[pi] as usize].note_skipped(skip);
                }
                for fi in 0..sp.ff_parked.len() {
                    agents.behaviors[sp.ff_parked[fi] as usize].note_skipped(skip);
                }
                next += skip;
                stats.skipped_rounds += skip;
            }
            let sync = next - 1;
            for fi in 0..sp.ff_parked.len() {
                let i = sp.ff_parked[fi];
                let iu = i as usize;
                let h = agents.behaviors[iu].min_wait();
                if h == 0 {
                    sp.remove_from_bucket(agents.pos[iu].index(), i);
                    sp.parked_at[iu] = u64::MAX;
                    sp.park_deadline[iu] = u64::MAX;
                    sp.parked_count -= 1;
                    insert_sorted(&mut sp.active, i);
                } else {
                    sp.parked_at[iu] = sync;
                    let deadline = sync.saturating_add(h).saturating_add(1);
                    sp.park_deadline[iu] = deadline;
                    sp.next_deadline = sp.next_deadline.min(deadline);
                }
            }
        }

        // 7. Park this round's parkable waits that carry a positive fresh
        // horizon: off the worklist, into the node bucket, re-polled only
        // by expiry, a dirtied node, or a crash.
        let sync = next - 1;
        for pi in 0..sp.polled.len() {
            if !sp.poll_parkable[pi] {
                continue;
            }
            let i = sp.polled[pi];
            let iu = i as usize;
            let h = agents.behaviors[iu].min_wait();
            if h == 0 {
                continue;
            }
            remove_sorted(&mut sp.active, i);
            sp.parked_here[agents.pos[iu].index()].push(i);
            sp.parked_at[iu] = sync;
            let deadline = sync.saturating_add(h).saturating_add(1);
            sp.park_deadline[iu] = deadline;
            sp.parked_count += 1;
            sp.next_deadline = sp.next_deadline.min(deadline);
        }

        *cur_round = next;
        SparseStep::Continue
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

impl<'g, V: TopologyView, B: ForkableBehavior> ActiveRun<'g, V, B> {
    /// Snapshots the run's full mutable state at the current round
    /// boundary (just before the round [`ActiveRun::next_round`] would
    /// simulate).
    ///
    /// Returns `None` if the run has already terminated (its
    /// result-bearing columns are gone) or if any behavior declines to
    /// fork ([`ForkableBehavior::fork`]). A checkpoint at round 0, resumed
    /// into a freshly begun run, reproduces that run exactly.
    pub fn checkpoint(&self) -> Option<RunCheckpoint<B>> {
        // `finish` takes the result-bearing columns out of the arena; a
        // terminated run has nothing coherent left to snapshot.
        if self.engine.agents.pos.len() != self.engine.agents.labels.len()
            || self.engine.agents.labels.is_empty()
        {
            return None;
        }
        let behaviors = self
            .engine
            .agents
            .behaviors
            .iter()
            .map(ForkableBehavior::fork)
            .collect::<Option<Vec<B>>>()?;
        // Sparse park state is captured verbatim, so a sparse-resumed run
        // re-polls exactly when this run would have. A dense run has no
        // park state; its checkpoint stores the all-unparked vectors plus
        // every occupied node as dirty — the safe over-approximation that
        // keeps a dense checkpoint resumable into a sparse run.
        let k = self.engine.agents.len();
        let (parked_at, park_deadline, dirty) = match &self.sparse {
            Some(sp) => (
                sp.parked_at.clone(),
                sp.park_deadline.clone(),
                sp.dirty.clone(),
            ),
            None => (
                vec![u64::MAX; k],
                vec![u64::MAX; k],
                self.engine
                    .agents
                    .pos
                    .iter()
                    .map(|p| p.index() as u32)
                    .collect(),
            ),
        };
        Some(RunCheckpoint {
            pos: self.engine.agents.pos.clone(),
            phase: self.engine.agents.phase.clone(),
            just_woken: self.engine.agents.just_woken.clone(),
            entry_port: self.engine.agents.entry_port.clone(),
            declared: self.engine.agents.declared.clone(),
            behaviors,
            stats: self.stats.clone(),
            trace: self.trace.clone(),
            parked_at,
            park_deadline,
            dirty,
            round: self.round,
        })
    }

    /// Overwrites this freshly begun run's state with the checkpoint's, so
    /// stepping continues from [`RunCheckpoint::round`] instead of round 0.
    ///
    /// Returns `false` — leaving the run untouched — if the team shapes
    /// differ or any checkpointed behavior declines to fork. The fork of
    /// every behavior happens *before* any column is overwritten, so a
    /// failed resume never leaves the run half-written.
    ///
    /// # Validity contract
    ///
    /// The resumed continuation is bitwise identical to stepping this run
    /// from scratch iff this run's configuration and the checkpointed
    /// run's agree on everything the prefix could observe: same graph,
    /// team, sensing, trace capacity, round limit and behaviors; wake
    /// schedules, fault specs and topology specs that agree on every round
    /// **before** `cp.round()`; and every wake or crash round on which the
    /// two specs *disagree* at least `cp.round() + 1`. The strict `+ 1`
    /// matters: the quiescence fast-forward computed in a quiet prefix
    /// round consults future wake/crash rounds when choosing how far to
    /// skip, so a differing value equal to `cp.round()` could have changed
    /// the prefix's skip decisions even though no agent ever acted
    /// differently. Callers (the adversary search) enforce this by
    /// deriving a conservative *divergence round* from the two specs and
    /// only resuming from checkpoints at or below it.
    pub fn resume_from(&mut self, cp: &RunCheckpoint<B>) -> bool {
        let k = self.engine.agents.len();
        if cp.pos.len() != k || cp.behaviors.len() != k {
            return false;
        }
        let Some(behaviors) = cp
            .behaviors
            .iter()
            .map(ForkableBehavior::fork)
            .collect::<Option<Vec<B>>>()
        else {
            return false;
        };
        self.engine.agents.pos.clone_from(&cp.pos);
        self.engine.agents.phase.clone_from(&cp.phase);
        self.engine.agents.just_woken.clone_from(&cp.just_woken);
        self.engine.agents.entry_port.clone_from(&cp.entry_port);
        self.engine.agents.declared.clone_from(&cp.declared);
        self.engine.agents.behaviors = behaviors;
        self.stats = cp.stats.clone();
        self.trace = cp.trace.clone();
        self.round = cp.round;
        // Crash reconciliation against this run's *own* resolved spec:
        // crashes strictly before the resumed round already fired inside
        // the checkpointed prefix (identically, by the validity contract —
        // the copied phases carry them); crashes at or after it are still
        // pending here, whatever the checkpointed run's spec said.
        let mut pending = 0;
        for (slot, &resolved) in self
            .engine
            .agents
            .crash_round
            .iter_mut()
            .zip(&self.resolved_crashes)
        {
            *slot = if resolved != u64::MAX && resolved >= cp.round {
                pending += 1;
                resolved
            } else {
                u64::MAX
            };
        }
        self.pending_crashes = pending;
        match &self.sparse {
            // Sparse resume: rebuild the whole sparse state from the
            // restored columns (worklists from the phases, occupancy from
            // the positions, event lists from the post-reconciliation
            // wake/crash columns), with the checkpoint's park state and
            // pending dirty nodes taken verbatim.
            Some(_) => {
                self.sparse = Some(build_sparse(
                    &self.engine.agents,
                    self.engine.graph.node_count(),
                    self.bucket_occupants,
                    cp.parked_at.clone(),
                    cp.park_deadline.clone(),
                    cp.dirty.clone(),
                ));
            }
            // Dense resume of a sparse checkpoint: the dense loop polls
            // every executing agent every round, so the park state
            // dissolves — catch each parked behavior up to the round
            // before the resumed one (valid: parking guarantees the
            // skipped observations were identical).
            None => {
                for (iu, &pa) in cp.parked_at.iter().enumerate() {
                    if pa != u64::MAX {
                        let behind = cp.round - 1 - pa;
                        if behind > 0 {
                            self.engine.agents.behaviors[iu].note_skipped(behind);
                        }
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        self.promise.iter_mut().for_each(|p| *p = (0, None));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Declaration;
    use crate::fault::CrashPoint;
    use crate::obs::{Action, Poll};
    use crate::proc::{ProcBehavior, Procedure, WaitRounds};
    use nochatter_graph::{generators, Port};

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
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
                Box::new(ProcBehavior::declaring(WaitRounds::new(0))),
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
            Box::new(ProcBehavior::declaring(WaitRounds::new(0))),
        );
        engine.add_agent(
            label(1),
            NodeId::new(1),
            Box::new(ProcBehavior::declaring(WaitRounds::new(0))),
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
                Box::new(ProcBehavior::declaring(WaitRounds::new(0))),
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
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(ProcBehavior::declaring(BadPort)),
        );
        engine.add_agent(
            label(2),
            NodeId::new(1),
            Box::new(ProcBehavior::declaring(WaitRounds::new(50))),
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
    fn walker_wakes_sleeper_and_both_declare() {
        let g = generators::ring(5);
        let mut engine = Engine::new(&g);
        // Agent 1 walks; agent 2 sleeps until visited, then declares when it
        // sees company (which happens in its wake round).
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(ProcBehavior::declaring(RunFor5Moves::default())),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(ProcBehavior::declaring(DeclareOnCompany)),
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
            Box::new(ProcBehavior::mapping(
                RecordMax {
                    dir: 1,
                    max_seen: 0,
                    steps: 1,
                },
                |m| Declaration {
                    leader: None,
                    size: Some(m),
                },
            )),
        );
        engine.add_agent(
            label(2),
            NodeId::new(1),
            Box::new(ProcBehavior::mapping(
                RecordMax {
                    dir: 0,
                    max_seen: 0,
                    steps: 1,
                },
                |m| Declaration {
                    leader: None,
                    size: Some(m),
                },
            )),
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
                Box::new(ProcBehavior::declaring(WaitRounds::new(1_000_000))),
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
            Box::new(ProcBehavior::declaring(WaitRounds::new(1000))),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(ProcBehavior::declaring(WaitRounds::new(0))),
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
        impl AgentBehavior for SeePeers {
            fn on_round(&mut self, obs: &Obs) -> AgentAct {
                let labels = obs.peer_labels.as_ref().expect("traditional mode");
                assert_eq!(labels.len() as u32, obs.cur_card);
                AgentAct::Declare(Declaration {
                    leader: Some(labels[0]),
                    size: None,
                })
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
        impl AgentBehavior for AssertNoLabels {
            fn on_round(&mut self, obs: &Obs) -> AgentAct {
                assert!(obs.peer_labels.is_none());
                AgentAct::Declare(Declaration::bare())
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
            Box::new(ProcBehavior::declaring(WaitRounds::new(5))),
        );
        engine.add_agent(
            label(2),
            NodeId::new(1),
            Box::new(ProcBehavior::declaring(WaitRounds::new(500))),
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
        impl AgentBehavior for AssertBlockedSequence {
            fn on_round(&mut self, obs: &Obs) -> AgentAct {
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
                    return AgentAct::Declare(Declaration::bare());
                }
                AgentAct::TakePort(Port::new(1))
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
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(ProcBehavior::declaring(BadPort)),
        );
        assert!(matches!(engine.run(10), Err(SimError::InvalidPort { .. })));
    }

    #[test]
    fn static_runs_never_block() {
        let g = generators::ring(5);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(ProcBehavior::declaring(RunFor5Moves::default())),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(ProcBehavior::declaring(DeclareOnCompany)),
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
                    Box::new(ProcBehavior::declaring(RunFor5Moves::default())),
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
            Box::new(ProcBehavior::mapping(CountAtStart { seen: None }, |c| {
                Declaration {
                    leader: None,
                    size: Some(c),
                }
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
            Box::new(ProcBehavior::mapping(
                MoveThenCount {
                    moved: false,
                    seen: None,
                },
                |c| Declaration {
                    leader: None,
                    size: Some(c),
                },
            )),
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
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(ProcBehavior::declaring(WalkForever)),
        );
        engine.add_agent(
            label(2),
            NodeId::new(3),
            Box::new(ProcBehavior::declaring(WaitRounds::new(20))),
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
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(ProcBehavior::declaring(WalkForever)),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(ProcBehavior::declaring(DeclareOnCompany)),
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
            Box::new(ProcBehavior::declaring(WaitRounds::new(3))),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(ProcBehavior::declaring(WaitRounds::new(0))),
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
                Box::new(ProcBehavior::declaring(WaitRounds::new(1000))),
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
            Box::new(ProcBehavior::declaring(WaitRounds::new(1))),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(ProcBehavior::declaring(WaitRounds::new(1))),
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
                Box::new(ProcBehavior::declaring(WaitRounds::new(1000))),
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
                Box::new(ProcBehavior::declaring(WaitRounds::new(0))),
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
            Box::new(ProcBehavior::declaring(WaitRounds::new(50))),
        );
        let declare_together = || {
            Box::new(ProcBehavior::mapping(WaitRounds::new(2), |()| {
                Declaration::with_leader(Label::new(2).unwrap())
            }))
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
}
