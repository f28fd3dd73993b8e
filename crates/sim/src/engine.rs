//! The deterministic synchronous execution engine.

use nochatter_graph::dynamic::{Static, Topology, TopologyView};
use nochatter_graph::{Graph, Label, NodeId, Port};

use crate::error::SimError;
use crate::fault::FaultSpec;
use crate::obs::{Action, Obs, Poll};
use crate::outcome::{Declaration, DeclarationRecord, RunOutcome, RunStatus};
use crate::proc::Procedure;
use crate::schedule::WakeSchedule;
use crate::trace::{Trace, TraceEvent};
use crate::walk::{HeldDone, Instruction, TraversalState, TraversalStep, WalkState};

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
/// round loop matches on:
///
/// ```text
/// Dormant ──wake──▶ Active ⇄ Blocked
///    │                 │        │
///    │                 ├──▶ Declared   (terminal)
///    └───────crash────▶┴──▶ Crashed    (terminal)
/// ```
///
/// `Dormant` agents sleep until the adversary's wake round or the first
/// visit. `Active` agents execute their procedure. `Blocked` is the
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
    /// [`AgentPhase::Blocked`]): the agent acts every round, waiting or
    /// moving.
    pub fn is_executing(self) -> bool {
        matches!(self, AgentPhase::Active | AgentPhase::Blocked)
    }
}

/// An agent's program: a procedure whose output is its declaration.
pub type Agent = Box<dyn Procedure<Output = Declaration>>;

/// The instruction the engine holds for an agent ([`Action::Hold`]) and
/// plays without a poll: what it does next, and the rule it plays by.
#[derive(Debug, Default)]
struct Held {
    next: Next,
    rule: Rule,
}

/// What the engine does next for an agent's held instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Next {
    /// Nothing is held: the agent is polled when it is due.
    #[default]
    Nothing,
    /// A move: every round before `at` is a blind wait the engine answers
    /// itself, and in round `at` it takes `port`.
    Move { at: u64, port: Port },
    /// Step the instruction: a slow move or a traversal at the end of the
    /// round of its latest move, once the round's acts are applied
    /// ([`ActiveRun::settle`]); a walk, which reads `CurCard`, on the
    /// observation of the round after it ([`ActiveRun::step_held`]).
    Step,
}

/// The rule a held instruction is played by, with its state.
#[derive(Debug, Default)]
enum Rule {
    /// A slow move: its one move ends it. It carries no state, so it is
    /// also the rule of an agent that has held nothing yet.
    #[default]
    Slow,
    /// A walk; kept after it ends, for its entry buffer.
    Walk(WalkState),
    /// A traversal under way; its state is handed back at its end.
    Traverse(Box<TraversalState>),
}

/// Struct-of-arrays agent storage.
///
/// The round loop touches the small per-agent scalars (phase, position,
/// due round) far more often than the procedures' state machines, so
/// each field lives in its own contiguous array instead of one
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
    /// The round the agent woke in: round 0 of its own clock.
    woke: Vec<u64>,
    /// The round from which the executing agent is due: the last round of
    /// its promise (its procedure's [`Procedure::quiet_until`], or the
    /// round before a held move's), or the round of its latest poll
    /// when that poll promised nothing, acted or saw a one-off
    /// observation. `u64::MAX` while the agent is not executing, so one
    /// comparison passes over sleepers, terminal agents and waiters.
    due: Vec<u64>,
    /// `CurCard` at the agent's latest poll.
    seen_card: Vec<u32>,
    /// The instruction the engine holds for the agent.
    held: Vec<Held>,
    procs: Vec<Agent>,
    /// Whether a slow move or a traversal move was taken this round: the
    /// round then ends in [`ActiveRun::settle`].
    settle: bool,
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
            woke: Vec::new(),
            due: Vec::new(),
            seen_card: Vec::new(),
            held: Vec::new(),
            procs: Vec::new(),
            settle: false,
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
        self.woke.push(0);
        self.due.push(u64::MAX);
        self.seen_card.push(0);
        self.held.push(Held::default());
        self.procs.push(agent);
    }

    /// The next adversary wake of a dormant agent, or `u64::MAX`.
    fn next_wake(&self) -> u64 {
        self.phase
            .iter()
            .zip(&self.adversary_wake)
            .filter(|&(&phase, _)| phase == AgentPhase::Dormant)
            .map(|(_, &wake)| wake)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Takes what agent `i`'s procedure yielded on `obs` in `round` into
    /// the engine's hands: returns the act to apply and the last round of
    /// the agent's promise (`round` if it promises nothing). A yielded
    /// [`Action::Hold`] is started at once ([`AgentArena::start_held`]).
    #[inline(always)]
    fn resolve(
        &mut self,
        i: usize,
        round: u64,
        obs: &Obs,
        act: Poll<Declaration>,
    ) -> (Poll<Declaration>, u64) {
        match act {
            Poll::Yield(Action::Wait) => {
                let until = self.woke[i].saturating_add(self.procs[i].quiet_until());
                (act, until.max(round))
            }
            Poll::Yield(Action::Hold) => self.start_held(i, round, obs),
            _ => (act, round),
        }
    }

    /// Starts the instruction agent `i`'s procedure just yielded on `obs`
    /// in `round`, and returns the act and promise as
    /// [`AgentArena::resolve`] does: its first move if that is due now,
    /// else a wait through the round before it. A slow move or traversal
    /// move made now is noted for [`ActiveRun::settle`]. A traversal that
    /// ends without a move is handed back at once, and the procedure is
    /// polled again on `obs`. Out of line: an instruction starts once for
    /// many rounds.
    #[inline(never)]
    fn start_held(&mut self, i: usize, round: u64, obs: &Obs) -> (Poll<Declaration>, u64) {
        let held = &mut self.held[i];
        let (at, port) = match self.procs[i].held() {
            Instruction::Slow { port, wait } => {
                held.rule = Rule::Slow;
                self.settle |= wait == 0;
                (round.saturating_add(wait), port)
            }
            Instruction::Walk(walk) => {
                if !matches!(held.rule, Rule::Walk(_)) {
                    held.rule = Rule::Walk(WalkState::default());
                }
                let Rule::Walk(state) = &mut held.rule else {
                    unreachable!("the rule was just set")
                };
                (round, state.start(walk, obs.degree, obs.cur_card))
            }
            Instruction::Traverse(traversal) => {
                let mut state = Box::new(TraversalState::new(traversal));
                match state.step(obs.degree, obs.entry_port, false) {
                    TraversalStep::Move { port, .. } => {
                        let at = round.saturating_add(state.wait());
                        self.settle |= at == round;
                        held.rule = Rule::Traverse(state);
                        (at, port)
                    }
                    TraversalStep::Done(completed) => {
                        self.procs[i].held_done(HeldDone::Traverse { completed, state });
                        let act = self.procs[i].poll(obs);
                        return self.resolve(i, round, obs, act);
                    }
                }
            }
        };
        if at == round {
            held.next = Next::Step;
            (Poll::Yield(Action::TakePort(port)), round)
        } else {
            held.next = Next::Move { at, port };
            (Poll::Yield(Action::Wait), at - 1)
        }
    }

    /// Wakes agent `i` in `round`: its clock starts and it is due at once.
    fn wake(&mut self, i: usize, round: u64) {
        self.phase[i] = AgentPhase::Active;
        self.just_woken[i] = true;
        self.woke[i] = round;
        self.due[i] = round;
    }
}

/// Reusable per-run working memory for [`Engine::run_with_scratch`].
///
/// One run needs per-node occupancy counts and a few per-agent buffers; a
/// fresh [`Engine::run`] allocates them every time, which dominates the
/// cost of short runs executed in bulk (campaigns, benches, proptests).
/// Threading one `EngineScratch` through repeated runs keeps every buffer's
/// capacity, so steady-state execution allocates nothing.
///
/// The scratch carries no semantic state between runs: each run starts by
/// zeroing the counts of its own nodes. Reusing one scratch across graphs
/// of different sizes, after failed or panicked runs, across sensing modes
/// or across engines over different topologies is always safe —
/// [`Engine::run`] and [`Engine::run_with_scratch`] produce bitwise
/// identical [`RunOutcome`]s.
#[derive(Default)]
pub struct EngineScratch {
    /// Per-node occupant count (`CurCard` per node), kept current as the
    /// agents move.
    card: Vec<u32>,
    /// This round's acts other than a wait, in agent order: a move (a held
    /// one among them) or a completed procedure's declaration.
    acts: Vec<(usize, Poll<Declaration>)>,
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

    /// Sizes the buffers for a graph of `n` nodes, with every count zero:
    /// O(n) per run, like the graph it runs on.
    fn prepare(&mut self, n: usize) {
        self.card.clear();
        self.card.resize(n, 0);
        self.acts.clear();
        self.labels.clear();
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
    /// Agent polls: one per due agent per executed round, a held move's
    /// due wait rounds included, its move rounds and a walk's step rounds
    /// excluded. A poll again in the same round, after a traversal that
    /// ended without a move, is not another one.
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
/// [`Agent`], a boxed procedure, the one way to add an agent. Each agent
/// sees its own clock: [`Obs::round`] counts the rounds since it woke.
/// The engine keeps every agent's due round in the arena, from the
/// absolute promise of [`Procedure::quiet_until`]. It holds each
/// [`Action::Hold`] there too, in one column, and plays it by one rule
/// without reaching the procedure: it starts the instruction on the
/// observation of the round it was yielded in, answers each held move's
/// wait itself and makes the move in its round, and then steps the
/// instruction, which gives the next move or the instruction's end. A
/// slow move or a traversal reads no `CurCard`, so it is stepped in the
/// move round itself, once the round's acts are applied; a walk is
/// stepped on the observation of the round after the move. At the end
/// the engine hands back what the instruction observed
/// ([`Procedure::held_done`]) and polls the procedure: in the round a
/// walk ends in, in the round after a slow move's or traversal's last
/// move.
///
/// Every executed round follows one rule. Crashes, adversary wakes and,
/// after a move, wake-on-visit run first. Then every executing agent that
/// is due is polled, all on the same positions: one whose promise's last
/// round has come (that poll may renew it), one whose latest poll saw a
/// one-off observation (just woken, blocked) or acted, and one not blind
/// ([`Procedure::blind`]) whose `CurCard` changed since its latest poll.
/// Under [`Sensing::Traditional`], where the labels present are part of
/// the observation, every executing agent is polled. An agent holding an
/// instruction is not polled: the engine makes its moves and takes its
/// steps, and polls it only once the instruction has ended. The acts
/// are then applied simultaneously under the topology view. After a
/// round in which someone acted (moved, hit an absent edge or declared),
/// or in which no agent was executing, the next round is executed, with
/// one exception. When every act of the round was a held slow move or
/// traversal move and none ended its instruction, under weak sensing,
/// with no agent dormant and every executing agent holding such a move
/// or waiting inside a blind promise, no one sees the rounds before the
/// next held move or promise end: the engine plays on from due round to
/// due round by the same rule, executing only the rounds a held move or
/// a held wait is due in, until an instruction ends, an agent holding
/// nothing comes due, or the next wake, crash or round limit falls.
/// Otherwise every executing agent waited, and no observation can change
/// before some promise runs out: the clock jumps to the round after the
/// earliest promise's last round, capped by the next adversary wake, the
/// next crash and the round limit.
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
/// [`ActiveRun::step`] executes one round (and the held moves after it
/// that no one sees, [`ActiveRun::play_held`]) and jumps over the quiet
/// rounds after it, against a borrowed [`EngineScratch`], and returns the
/// run's result once it terminates. [`Engine::run_with_scratch`] is a trivial
/// `begin`/`step` driver.
pub(crate) struct ActiveRun<'g, V: TopologyView> {
    engine: Engine<'g, V>,
    trace: Option<Trace>,
    stats: RunStats,
    /// The next adversary wake of a dormant agent and the next pending
    /// crash (`u64::MAX` for none): their scans run only in those rounds.
    next_wake: u64,
    next_crash: u64,
    /// Agents not yet terminal, and how many of them are dormant.
    running: usize,
    dormant: usize,
    /// Whether a move in the previous executed round changed a count: only
    /// then can a sleeper have company, a waiter a new `CurCard`, or the
    /// colocation a new maximum. True before round 0, which reads the
    /// starting counts.
    moved: bool,
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
        scratch.prepare(engine.graph.node_count());
        let agents = &engine.agents;
        for pos in &agents.pos {
            scratch.card[pos.index()] += 1;
        }
        let next_wake = agents.next_wake();
        let next_crash = agents.crash_round.iter().copied().min().unwrap_or(u64::MAX);
        let k = agents.len();
        Ok(ActiveRun {
            engine,
            trace,
            stats: RunStats::default(),
            next_wake,
            next_crash,
            running: k,
            dormant: k,
            moved: true,
            round: 0,
            max_rounds,
        })
    }

    /// Executes one round by the rule in the [`Engine`] docs, then moves
    /// the clock to the next round that must be executed. Returns `Some`
    /// once the run has terminated (all agents terminal, round limit, or
    /// a protocol violation); the run must not be stepped again after
    /// that.
    pub fn step(&mut self, scratch: &mut EngineScratch) -> Option<Result<RunOutcome, SimError>> {
        if self.round >= self.max_rounds {
            return Some(Ok(self.finish(RunStatus::RoundLimit, self.max_rounds)));
        }
        let round = self.round;
        self.stats.engine_iterations += 1;
        // Advance the topology to this round. Skipped rounds are skipped
        // soundly: a view is a pure function of the round number, and
        // edge presence is unobservable in a round where every executing
        // agent waits.
        self.engine.view.begin_round(round);
        if self.next_crash <= round {
            self.crash(round);
        }
        if self.next_wake <= round {
            self.wake_scheduled(round);
        }
        let EngineScratch {
            card, acts, labels, ..
        } = scratch;

        // Poll the agents that are due, all on the same positions, and
        // note the earliest last round of the promises that stand.
        acts.clear();
        let weak = self.engine.sensing == Sensing::Weak;
        let moved = std::mem::take(&mut self.moved);
        let mut visited = false;
        let mut quiet = u64::MAX;
        'agents: for i in 0..self.engine.agents.len() {
            if moved {
                visited |= self.after_move(i, round, card);
            }
            // A step that does not move the agent now changes only what
            // it holds: the agent is then treated by that, in this round.
            let act = loop {
                let agents = &mut self.engine.agents;
                let due = agents.due[i];
                if weak && due > round {
                    quiet = quiet.min(due);
                    #[cfg(debug_assertions)]
                    self.check_promise(i, round, card);
                    continue 'agents;
                }
                if !agents.phase[i].is_executing() {
                    continue 'agents;
                }
                match agents.held[i].next {
                    Next::Nothing => match self.poll_agent(i, round, card, labels) {
                        (Poll::Yield(Action::Wait), until) => {
                            quiet = quiet.min(until);
                            continue 'agents;
                        }
                        (act, _) => break act,
                    },
                    Next::Move { at, .. } if at > round => {
                        // A held wait answers itself; the agent is due in
                        // it as its expansion would be polled, and it
                        // counts as a poll.
                        self.stats.polled_agent_rounds += 1;
                        agents.due[i] = at - 1;
                        quiet = quiet.min(at - 1);
                        continue 'agents;
                    }
                    Next::Move { port, .. } => {
                        agents.held[i].next = Next::Step;
                        agents.due[i] = round;
                        agents.settle = true;
                        break Poll::Yield(Action::TakePort(port));
                    }
                    Next::Step => {
                        if let Some(port) = self.step_held(i, round, card) {
                            break Poll::Yield(Action::TakePort(port));
                        }
                    }
                }
            };
            acts.push((i, act));
        }
        if visited {
            self.next_wake = self.engine.agents.next_wake();
        }

        for &(i, act) in acts.iter() {
            if let Err(err) = self.apply(i, act, round, card) {
                return Some(Err(err));
            }
        }
        if self.running == 0 {
            return Some(Ok(self.terminal_outcome()));
        }
        if std::mem::take(&mut self.engine.agents.settle) {
            return self.settle(round, card, acts).err().map(Err);
        }

        let mut next = round + 1;
        if acts.is_empty() && self.running > self.dormant {
            let stop = self.next_wake.min(self.next_crash).min(self.max_rounds);
            next = quiet.saturating_add(1).min(stop);
            self.stats.skipped_rounds += next - round - 1;
        }
        self.round = next;
        None
    }

    /// Crash faults due by `round`. Crashes precede wake-ups: an agent
    /// crashing in its wake round never wakes. A crash round on an
    /// already-declared agent resolves to nothing — the declaration
    /// stands. Either way the entry is cleared.
    fn crash(&mut self, round: u64) {
        let agents = &mut self.engine.agents;
        for i in 0..agents.len() {
            if agents.crash_round[i] > round {
                continue;
            }
            agents.crash_round[i] = u64::MAX;
            match agents.phase[i] {
                AgentPhase::Declared => continue,
                AgentPhase::Dormant => self.dormant -= 1,
                _ => {}
            }
            self.running -= 1;
            agents.phase[i] = AgentPhase::Crashed;
            agents.due[i] = u64::MAX;
            // A crash cancels a held instruction.
            agents.held[i] = Held::default();
            self.stats.last_crash_round = round;
            if let Some(t) = self.trace.as_mut() {
                t.push(TraceEvent::Crashed {
                    agent: agents.labels[i],
                    round,
                    node: agents.pos[i],
                });
            }
        }
        self.next_crash = agents.crash_round.iter().copied().min().unwrap_or(u64::MAX);
        // A crashed sleeper's wake round no longer counts.
        self.next_wake = agents.next_wake();
    }

    /// The adversary's wake-ups scheduled by `round`.
    fn wake_scheduled(&mut self, round: u64) {
        let agents = &mut self.engine.agents;
        for i in 0..agents.len() {
            if agents.phase[i] == AgentPhase::Dormant && agents.adversary_wake[i] <= round {
                agents.wake(i, round);
                self.dormant -= 1;
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEvent::Wake {
                        agent: agents.labels[i],
                        round,
                        by_visit: false,
                    });
                }
            }
        }
        self.next_wake = agents.next_wake();
    }

    /// What the previous round's moves changed for agent `i`, seen in
    /// `round`: the colocation maximum; wake-on-visit, where a dormant
    /// agent with any other body on its node (awake, declared or crashed —
    /// a body is a body) starts executing; and under weak sensing a
    /// waiter whose `CurCard` changed becomes due unless its promise is
    /// blind or a held move's wait. `CurCard`
    /// counts every body present, dormant, declared and crashed ones
    /// included. Returns whether the agent woke.
    #[inline(always)]
    fn after_move(&mut self, i: usize, round: u64, card: &[u32]) -> bool {
        let agents = &mut self.engine.agents;
        let here = card[agents.pos[i].index()];
        self.stats.max_colocation = self.stats.max_colocation.max(here);
        match agents.phase[i] {
            AgentPhase::Dormant if here > 1 => {
                agents.wake(i, round);
                self.dormant -= 1;
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEvent::Wake {
                        agent: agents.labels[i],
                        round,
                        by_visit: true,
                    });
                }
                return true;
            }
            AgentPhase::Active | AgentPhase::Blocked
                if self.engine.sensing == Sensing::Weak
                    && agents.due[i] > round
                    && here != agents.seen_card[i]
                    && agents.held[i].next == Next::Nothing
                    && !agents.procs[i].blind() =>
            {
                agents.due[i] = round;
            }
            _ => {}
        }
        false
    }

    /// Polls executing agent `i` in `round` and returns its act and the
    /// last round of its promise (the poll's own round if it promises
    /// nothing); records when the agent is due next.
    ///
    /// The engine takes held instructions into its hands here
    /// ([`AgentArena::resolve`]). Until a held move's round the engine
    /// answers `Wait` itself, and in that round it makes the move; then it
    /// steps the instruction, at the end of that round
    /// ([`ActiveRun::settle`]) or, for a walk, in the round after
    /// ([`ActiveRun::step_held`]). None of these reaches the procedure.
    #[inline(always)]
    fn poll_agent(
        &mut self,
        i: usize,
        round: u64,
        card: &[u32],
        peers: &mut Vec<Label>,
    ) -> (Poll<Declaration>, u64) {
        let agents = &mut self.engine.agents;
        let pos = agents.pos[i];
        let peer_labels = (self.engine.sensing == Sensing::Traditional).then(|| {
            // Lend the one scratch buffer to the observation instead of
            // allocating: every label on the node, sorted.
            peers.clear();
            peers.extend(
                (0..agents.len())
                    .filter(|&j| agents.pos[j] == pos)
                    .map(|j| agents.labels[j]),
            );
            peers.sort_unstable();
            std::mem::take(peers)
        });
        let obs = Obs {
            round: round - agents.woke[i],
            degree: self.engine.graph.degree(pos),
            cur_card: card[pos.index()],
            entry_port: agents.entry_port[i],
            just_woken: agents.just_woken[i],
            blocked: agents.phase[i] == AgentPhase::Blocked,
            peer_labels,
        };
        let act = agents.procs[i].poll(&obs);
        let (act, until) = agents.resolve(i, round, &obs, act);
        // A promise made on a one-off observation stands for the skip,
        // but the agent is due in the next executed round: its next
        // observation differs from this one.
        agents.due[i] = if obs.just_woken || obs.blocked {
            round
        } else {
            until
        };
        agents.seen_card[i] = obs.cur_card;
        agents.just_woken[i] = false;
        // A `Blocked` agent has now seen its failed attempt.
        agents.phase[i] = AgentPhase::Active;
        if let Some(labels) = obs.peer_labels {
            *peers = labels;
        }
        self.stats.polled_agent_rounds += 1;
        (act, until)
    }

    /// Steps agent `i`'s held walk in `round`, the round after its latest
    /// move (or blocked attempt), on the observation the agent would get:
    /// a walk reads that round's `CurCard`. Returns the next move's port,
    /// due in this round. Or the walk has ended: what it observed is
    /// handed back, and the agent holds nothing, so the round loop polls
    /// it in this round. The step itself is not a poll. Inlined into the
    /// round loop: with slow moves and traversals stepped elsewhere, this
    /// read `hunt` and `hunt-late` about 2% faster than a call, and
    /// `unknown-network` unmoved.
    #[inline(always)]
    fn step_held(&mut self, i: usize, round: u64, card: &[u32]) -> Option<Port> {
        let agents = &mut self.engine.agents;
        let pos = agents.pos[i];
        let held = &mut agents.held[i];
        let Rule::Walk(walk) = &mut held.rule else {
            unreachable!("only a walk is stepped in the round after its move")
        };
        let degree = self.engine.graph.degree(pos);
        let entry = agents.entry_port[i];
        let blocked = agents.phase[i] == AgentPhase::Blocked;
        let clock = round - agents.woke[i];
        if let Some(port) = walk.step(degree, card[pos.index()], entry, blocked, clock) {
            // A move sets the agent `Active`: the walk has seen a blocked
            // attempt, as a poll would have.
            agents.phase[i] = AgentPhase::Active;
            return Some(port);
        }
        let done = HeldDone::Walk(walk.done());
        held.next = Next::Nothing;
        agents.procs[i].held_done(done);
        None
    }

    /// Ends `round`, in which some agent took a slow move or a traversal
    /// move, once its acts are applied: steps each such move
    /// ([`ActiveRun::settle_move`]) and moves the clock on. The round
    /// after is executed, unless every act was such a move, none ended its
    /// instruction and no one would see that round
    /// ([`ActiveRun::unseen`]): then the engine plays on in
    /// [`ActiveRun::play_held`]. Out of line, like that loop: the round
    /// loop only notes that such a move was taken.
    #[inline(never)]
    fn settle(
        &mut self,
        round: u64,
        card: &mut [u32],
        acts: &mut Vec<(usize, Poll<Declaration>)>,
    ) -> Result<(), SimError> {
        let mut held_only = true;
        for &(i, _) in acts.iter() {
            let held = &self.engine.agents.held[i];
            if held.next == Next::Step && !matches!(held.rule, Rule::Walk(_)) {
                held_only &= self.settle_move(i, round);
            } else {
                held_only = false;
            }
        }
        if held_only && self.unseen() {
            return self.play_held(round, card, acts);
        }
        self.round = round + 1;
        Ok(())
    }

    /// Steps agent `i`'s slow move or traversal in `round`, the round of
    /// its latest move (or blocked attempt), once the round's acts are
    /// applied. Neither reads `CurCard`: the degree of the node the agent
    /// stands on, the port it entered by and whether the move was blocked
    /// are all the step needs, and all three are known now. A traversal
    /// holds its next move for round `round + 1 + w`, or `round + 1` after
    /// a blocked attempt, and the step returns `true`. Or the instruction
    /// has ended (a slow move ends after its one move): what it observed
    /// is handed back, and the agent holds nothing and is due in the next
    /// round, where it is polled.
    fn settle_move(&mut self, i: usize, round: u64) -> bool {
        let agents = &mut self.engine.agents;
        let blocked = agents.phase[i] == AgentPhase::Blocked;
        let held = &mut agents.held[i];
        let done = match &mut held.rule {
            Rule::Slow => None,
            Rule::Traverse(state) => {
                let degree = self.engine.graph.degree(agents.pos[i]);
                match state.step(degree, agents.entry_port[i], blocked) {
                    TraversalStep::Move { port, .. } => {
                        // The traversal has seen the blocked attempt, as a
                        // poll would have.
                        agents.phase[i] = AgentPhase::Active;
                        let wait = if blocked { 0 } else { state.wait() };
                        let at = (round + 1).saturating_add(wait);
                        held.next = Next::Move { at, port };
                        agents.due[i] = at - 1;
                        return true;
                    }
                    TraversalStep::Done(completed) => {
                        let Rule::Traverse(state) = std::mem::take(&mut held.rule) else {
                            unreachable!("a traversal is under way")
                        };
                        Some(HeldDone::Traverse { completed, state })
                    }
                }
            }
            Rule::Walk(_) => unreachable!("a walk is stepped in the round after its move"),
        };
        held.next = Next::Nothing;
        if let Some(done) = done {
            agents.procs[i].held_done(done);
        }
        false
    }

    /// Whether no one would see the round after one in which only held
    /// slow moves and traversal moves were made: under weak sensing, with
    /// no sleeper a move could wake, every executing agent holds such a
    /// move or waits inside a blind promise, which no `CurCard` change
    /// cuts short.
    fn unseen(&self) -> bool {
        let agents = &self.engine.agents;
        self.engine.sensing == Sensing::Weak
            && self.dormant == 0
            && (0..agents.len()).all(|i| match agents.held[i].next {
                Next::Move { .. } => true,
                Next::Nothing => !agents.phase[i].is_executing() || agents.procs[i].blind(),
                Next::Step => false,
            })
    }

    /// Plays on after `round`, a round whose every act was a held slow move
    /// or traversal move, while no one would see the rounds in between
    /// ([`ActiveRun::unseen`]). It jumps from due round to due round, and
    /// in each it makes and settles the held moves due, with what the
    /// round loop does for such a round: the colocation the latest moves
    /// made (read at the start of the round after them, if the round limit
    /// lets that round be played), the topology's round, the trace, the
    /// held waits due, the iteration and skip counts and, in debug builds,
    /// the promise net. It leaves the clock on the first round it does not
    /// play, for the round loop: the round after an instruction ended
    /// (whose agent is polled there), a round in which an agent holding
    /// nothing is due, or the next wake, crash or round limit.
    #[inline(never)]
    fn play_held(
        &mut self,
        mut last: u64,
        card: &mut [u32],
        acts: &mut Vec<(usize, Poll<Declaration>)>,
    ) -> Result<(), SimError> {
        let stop = self.next_wake.min(self.next_crash).min(self.max_rounds);
        loop {
            let agents = &mut self.engine.agents;
            if std::mem::take(&mut self.moved) && last + 1 < self.max_rounds {
                for pos in &agents.pos {
                    self.stats.max_colocation = self.stats.max_colocation.max(card[pos.index()]);
                }
            }
            // The earliest due round of every agent, and of those that hold
            // no move.
            let (mut quiet, mut waiters) = (u64::MAX, u64::MAX);
            for (held, &due) in agents.held.iter().zip(&agents.due) {
                quiet = quiet.min(due);
                if !matches!(held.next, Next::Move { .. }) {
                    waiters = waiters.min(due);
                }
            }
            let next = quiet.saturating_add(1).min(stop);
            self.stats.skipped_rounds += next - last - 1;
            self.round = next;
            if next == stop || waiters <= next {
                return Ok(());
            }
            self.stats.engine_iterations += 1;
            self.engine.view.begin_round(next);
            acts.clear();
            for (i, held) in agents.held.iter_mut().enumerate() {
                match held.next {
                    Next::Move { at, port } if at == next => {
                        held.next = Next::Step;
                        agents.due[i] = next;
                        acts.push((i, Poll::Yield(Action::TakePort(port))));
                    }
                    Next::Move { at, .. } if agents.due[i] <= next => {
                        self.stats.polled_agent_rounds += 1;
                        agents.due[i] = at - 1;
                    }
                    _ => {}
                }
            }
            #[cfg(debug_assertions)]
            for i in 0..self.engine.agents.len() {
                self.check_promise(i, next, card);
            }
            for &(i, act) in acts.iter() {
                self.apply(i, act, next, card)?;
            }
            let mut ended = false;
            for &(i, _) in acts.iter() {
                ended |= !self.settle_move(i, next);
            }
            if ended {
                self.round = next + 1;
                return Ok(());
            }
            last = next;
        }
    }

    /// Debug-build promise net: agent `i` is inside its promise in
    /// `round`, blind or on an observation identical to its latest one.
    /// Polling it must change nothing: it waits, and promises the same
    /// last round. The poll is not counted, and in a release build it is
    /// not made. Weak sensing only.
    #[cfg(debug_assertions)]
    fn check_promise(&mut self, i: usize, round: u64, card: &[u32]) {
        let agents = &mut self.engine.agents;
        if !agents.phase[i].is_executing() || agents.held[i].next != Next::Nothing {
            return;
        }
        let pos = agents.pos[i];
        let obs = Obs {
            round: round - agents.woke[i],
            degree: self.engine.graph.degree(pos),
            cur_card: card[pos.index()],
            entry_port: agents.entry_port[i],
            just_woken: false,
            blocked: false,
            peer_labels: None,
        };
        let act = agents.procs[i].poll(&obs);
        let until = agents.woke[i].saturating_add(agents.procs[i].quiet_until());
        assert!(
            matches!(act, Poll::Yield(Action::Wait)) && until == agents.due[i],
            "agent {} broke its promise through round {} in round {round}: {act:?}, \
             then quiet until round {until}",
            agents.labels[i],
            agents.due[i],
        );
    }

    /// Applies agent `i`'s act of `round`: a move, a blocked attempt or a
    /// declaration, with its trace event.
    #[inline(always)]
    fn apply(
        &mut self,
        i: usize,
        act: Poll<Declaration>,
        round: u64,
        card: &mut [u32],
    ) -> Result<(), SimError> {
        let agents = &mut self.engine.agents;
        let pos = agents.pos[i];
        match act {
            Poll::Yield(Action::TakePort(p)) => {
                match self.engine.graph.neighbor(pos, p) {
                    // A port that exists in the base graph but whose
                    // edge is absent this round blocks: the agent
                    // stays put (entry port untouched) and its next
                    // observation reports it. A nonexistent port is
                    // still a protocol violation — dynamics never
                    // change the degree an agent observes.
                    Some(_) if !self.engine.view.edge_present(pos, p) => {
                        agents.phase[i] = AgentPhase::Blocked;
                        self.stats.blocked_moves += 1;
                        if let Some(t) = self.trace.as_mut() {
                            t.push(TraceEvent::Blocked {
                                agent: agents.labels[i],
                                round,
                                node: pos,
                                port: p,
                            });
                        }
                    }
                    Some((to, back)) => {
                        if let Some(t) = self.trace.as_mut() {
                            t.push(TraceEvent::Move {
                                agent: agents.labels[i],
                                round,
                                from: pos,
                                to,
                                port: p,
                            });
                        }
                        card[pos.index()] -= 1;
                        card[to.index()] += 1;
                        agents.pos[i] = to;
                        agents.entry_port[i] = Some(back);
                        self.stats.total_moves += 1;
                        self.moved = true;
                    }
                    None => {
                        return Err(SimError::InvalidPort {
                            agent: agents.labels[i],
                            node: pos,
                            port: p,
                            round,
                        });
                    }
                }
            }
            Poll::Yield(other) => unreachable!("the round loop applies no {other:?}"),
            Poll::Complete(d) => {
                agents.declared[i] = Some(DeclarationRecord {
                    round,
                    node: pos,
                    declaration: d,
                });
                agents.phase[i] = AgentPhase::Declared;
                agents.due[i] = u64::MAX;
                self.running -= 1;
                self.stats.last_declaration_round = round;
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEvent::Declare {
                        agent: agents.labels[i],
                        round,
                        node: pos,
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
    fn terminal_outcome(&mut self) -> RunOutcome {
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
        self.finish(status, rounds)
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
        fn quiet_until(&self) -> u64 {
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
        fn quiet_until(&self) -> u64 {
            if self.next == self.ports.len() {
                0
            } else {
                self.left.quiet_until()
            }
        }
    }

    /// Waits `total` rounds, promising only the rest of the current
    /// `segment`-round stretch, like the TZ rendezvous's block-bounded
    /// promise: a promise made in the last round of the previous one
    /// covers a full segment again, so the promise never lapses mid-wait.
    struct SegmentWait {
        segment: u64,
        total: u64,
        /// The clocks of the first and the latest poll.
        start: Option<u64>,
        last: u64,
    }
    impl SegmentWait {
        fn new(segment: u64, total: u64) -> Self {
            SegmentWait {
                segment,
                total,
                start: None,
                last: 0,
            }
        }
    }
    impl Procedure for SegmentWait {
        type Output = ();
        fn poll(&mut self, obs: &Obs) -> Poll<()> {
            let start = *self.start.get_or_insert(obs.round);
            if obs.round - start == self.total {
                return Poll::Complete(());
            }
            self.last = obs.round;
            Poll::Yield(Action::Wait)
        }
        fn quiet_until(&self) -> u64 {
            let tick = self.last - self.start.unwrap_or(self.last) + 1;
            self.last + (self.segment - tick % self.segment).min(self.total - tick)
        }
    }

    /// Waits `pre` rounds, tries one move through port 0 if `attempt`
    /// holds, then waits 6 rounds counting the rounds it sees plain
    /// (neither just-woken nor blocked) observations in, and declares that
    /// count as its size. An unpolled round stands for a poll identical to
    /// the last one, so it counts only after a plain poll: a promise made
    /// on a one-off observation does not stand for the plain polls that
    /// follow it.
    struct CountPlainPolls {
        pre: WaitRounds,
        attempt: bool,
        /// The round the 6-round wait starts in.
        since: Option<u64>,
        last: u64,
        plain: u32,
        last_plain: bool,
    }
    impl CountPlainPolls {
        fn new(pre: u64, attempt: bool) -> Box<Self> {
            Box::new(CountPlainPolls {
                pre: WaitRounds::new(pre),
                attempt,
                since: None,
                last: 0,
                plain: 0,
                last_plain: false,
            })
        }
    }
    impl Procedure for CountPlainPolls {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            let since = match self.since {
                Some(since) => since,
                None => {
                    if let Poll::Yield(a) = self.pre.poll(obs) {
                        return Poll::Yield(a);
                    }
                    if std::mem::take(&mut self.attempt) {
                        return Poll::Yield(Action::TakePort(Port::new(0)));
                    }
                    *self.since.insert(obs.round)
                }
            };
            if self.last_plain {
                self.plain += (obs.round - self.last - 1) as u32;
            }
            if obs.round - since == 6 {
                return Poll::Complete(Declaration {
                    leader: None,
                    size: Some(self.plain),
                });
            }
            self.last = obs.round;
            self.last_plain = !(obs.just_woken || obs.blocked);
            self.plain += u32::from(self.last_plain);
            Poll::Yield(Action::Wait)
        }
        fn quiet_until(&self) -> u64 {
            match self.since {
                Some(since) => since + 5,
                None => self.pre.quiet_until(),
            }
        }
    }

    /// Runs `engine` with a stored trace and checks the outcome against
    /// `expected` — every field but the poll count, plus the trace digest,
    /// all computed by a round loop that polled every executing agent in
    /// every executed round — and that it polls fewer agent-rounds than
    /// that loop's `dense_polls`.
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

        // Two slow walkers whose waits alternate (8 and 5 rounds) take
        // turns being the only agent due, beside a waiter whose promises
        // are renewed only as they run out, and each walker declares
        // inside the stretch; then the round limit lands in it.
        let ring = generators::ring(12);
        let team = || {
            let mut engine = Engine::new(&ring);
            add(&mut engine, 1, 0, SlowWalk::new(8, &[1, 1, 1]));
            add(&mut engine, 2, 6, SlowWalk::new(5, &[1, 1, 1]));
            add(&mut engine, 3, 11, SegmentWait::new(10, 100));
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
        // enters and leaves the occupied node while it alone is due, on a
        // static ring and under a rotating outage that blocks some of its
        // moves; without waits it leaves in the round after it arrived.
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

        // A move attempt blocked while the mover alone is due: the
        // promise made on the blocked observation does not stand for the
        // plain polls that follow, so all four count.
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

        // The crash lands mid-wait while a slow walker is the only agent
        // due.
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

        // A slow walker is the only agent due when an adversary wake
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
        // waits too, is due again after its wake observation: its five
        // plain polls before it declares all count.
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
    // Company changes beside waiters left unpolled. Each run is pinned to
    // the outcome and trace digest of the round loop before blind
    // promises, which polled every waiter on every such change.
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
    fn a_walker_passes_a_blind_waiter_unpolled() {
        // The waiter's wait ignores what it senses, so the walker
        // entering and leaving its node leaves it unpolled: the waiter is
        // polled only when due. Before blind promises each of the two
        // moves cost a poll of the waiter, and before absolute promises
        // the walker's declaration cost one more.
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
        assert_eq!(outcome.polled_agent_rounds, 16, "19 before blind promises");

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
        assert_eq!(outcome.polled_agent_rounds, 16, "18 before blind promises");
    }

    #[test]
    fn a_walker_onto_a_card_watcher_makes_it_due() {
        // A waiter that gives up its wait as soon as `CurCard` exceeds 1
        // is not blind: the walker's arrival (end of round 17) makes it
        // due in the next round, where the watcher acts.
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
        assert_eq!(outcome.polled_agent_rounds, 16);
    }

    #[test]
    fn a_walker_onto_a_sleeper_wakes_it_in_the_arrival_round() {
        // A dormant body is woken by the visit in the round after the
        // move, the round every move is followed by.
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
        assert_eq!(outcome.polled_agent_rounds, 16);
    }

    #[test]
    fn a_walker_onto_a_declared_or_crashed_body_records_the_colocation() {
        // Declared and crashed bodies never act again, so the walker
        // crosses their node with no one polled but itself, while a
        // watcher elsewhere sits inside its promise; the rounds the
        // walker spends there must still count toward `max_colocation`.
        // Before blind promises each of the two moves cost a poll of the
        // watcher too, and before absolute promises the walker's
        // declaration one more.
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
            assert_eq!(outcome.polled_agent_rounds, 18, "21 before blind promises");
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
        fn quiet_until(&self) -> u64 {
            self.0.quiet_until()
        }
        fn blind(&self) -> bool {
            true
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "broke its promise")]
    fn a_broken_blind_promise_trips_the_debug_net() {
        // The walker stands on the liar's node from round 24 to 31. The
        // engine leaves the liar unpolled there, its promise (through
        // round 29) being blind, but the debug net polls it: it sees
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
    struct OneSlow {
        wait: u64,
        polls: Rc<RefCell<Vec<u64>>>,
    }
    impl OneSlow {
        fn boxed(wait: u64, polls: &Rc<RefCell<Vec<u64>>>) -> Agent {
            Box::new(OneSlow {
                wait,
                polls: Rc::clone(polls),
            })
        }
    }
    impl Procedure for OneSlow {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            let mut polls = self.polls.borrow_mut();
            polls.push(obs.round);
            if polls.len() == 1 {
                Poll::Yield(Action::Hold)
            } else {
                Poll::Complete(Declaration::bare())
            }
        }
        fn held(&self) -> Instruction {
            Instruction::Slow {
                port: Port::new(1),
                wait: self.wait,
            }
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
        // the 3 rounds before it wait whatever happens, and the engine
        // makes the move in round 4 without a poll.
        let ring = generators::ring(6);
        let polls = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(label(1), NodeId::new(0), OneSlow::boxed(4, &polls));
        add(&mut engine, 2, 3, WaitRounds::new(100));
        let mut scratch = EngineScratch::new();
        let mut run = ActiveRun::begin(engine, 500, &mut scratch).unwrap();
        step_past(&mut run, &mut scratch, 0);
        let agents = &run.engine.agents;
        assert_eq!(
            agents.held[0].next,
            Next::Move {
                at: 4,
                port: Port::new(1),
            }
        );
        // The waiter's promise outlasts the wait: the clock jumps to the
        // move round.
        assert_eq!(run.round, 4);
        step_past(&mut run, &mut scratch, 4);
        // The move is settled in its own round: the slow move has ended,
        // and the agent is due in the round after, for its poll. (The
        // move used to be stepped in that round, held as `Next::Step`
        // until then.)
        let agents = &run.engine.agents;
        assert_eq!(agents.held[0].next, Next::Nothing);
        assert_eq!(agents.pos[0], NodeId::new(1));
        assert_eq!(agents.due[0], 4, "due again the round after its move");
        step_past(&mut run, &mut scratch, 5);
        assert_eq!(
            *polls.borrow(),
            vec![0, 5],
            "polled before and after, never inside"
        );
        // Round 0 polls both agents, round 4 the waiter only, whose
        // promise was made on its wake observation (the move costs no
        // poll), round 5 the slow mover.
        assert_eq!(run.stats.polled_agent_rounds, 4);
    }

    #[test]
    fn noisy_rounds_inside_a_held_wait_never_reach_the_procedure() {
        // Two walkers cross the slow mover's node while it waits, so every
        // round is executed and its `CurCard` changes: the engine answers
        // the rounds of the wait it is due in for it, and counts them as
        // polls.
        let ring = generators::ring(6);
        let polls = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(label(1), NodeId::new(0), OneSlow::boxed(6, &polls));
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
        // yield, the round after it (the yield saw its wake observation),
        // the last round of the wait, its completion.
        assert_eq!(outcome.polled_agent_rounds, 10 + 4);
    }

    #[test]
    fn skipped_rounds_inside_a_held_wait_never_reach_the_procedure() {
        // A slow walker beside the slow mover makes the run skip whole
        // stretches of the 20-round wait and execute others; none of them
        // reaches `OneSlow`.
        let ring = generators::ring(12);
        let polls = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(label(1), NodeId::new(0), OneSlow::boxed(20, &polls));
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
        engine.add_agent(label(1), NodeId::new(0), OneSlow::boxed(0, &polls));
        let mut scratch = EngineScratch::new();
        let mut run = ActiveRun::begin(engine, 500, &mut scratch).unwrap();
        step_past(&mut run, &mut scratch, 0);
        // Settled in its round, as any slow move is: it holds nothing.
        let agents = &run.engine.agents;
        assert_eq!(agents.held[0].next, Next::Nothing);
        assert_eq!(agents.pos[0], NodeId::new(1));
        assert!(run.step(&mut scratch).is_some());
        assert_eq!(*polls.borrow(), vec![0, 1]);
    }

    #[test]
    fn a_crash_inside_a_held_wait_clears_the_move() {
        let ring = generators::ring(6);
        let polls = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(label(1), NodeId::new(0), OneSlow::boxed(9, &polls));
        add(&mut engine, 2, 3, WaitRounds::new(20));
        engine.set_faults(crash_at(&[(1, 5)]));
        let mut scratch = EngineScratch::new();
        let mut run = ActiveRun::begin(engine, 500, &mut scratch).unwrap();
        step_past(&mut run, &mut scratch, 4);
        assert_ne!(run.engine.agents.held[0].next, Next::Nothing);
        step_past(&mut run, &mut scratch, 5);
        let agents = &run.engine.agents;
        assert_eq!(agents.phase[0], AgentPhase::Crashed);
        assert_eq!(
            agents.held[0].next,
            Next::Nothing,
            "the crash cancels the move"
        );
        let outcome = loop {
            if let Some(result) = run.step(&mut scratch) {
                break result.unwrap();
            }
        };
        assert_eq!(outcome.total_moves, 0);
        assert_eq!(*polls.borrow(), vec![0]);
    }

    // ------------------------------------------------------------------
    // The agent's own clock.
    // ------------------------------------------------------------------

    /// Logs every observation it is polled on while it waits `pause`
    /// rounds, takes port 0 `moves` times, then waits up to 40 rounds for
    /// company.
    struct Logger {
        log: Rc<RefCell<Vec<Obs>>>,
        pause: WaitRounds,
        moves: u64,
        watch: crate::proc::UntilCardExceeds<WaitRounds>,
    }
    impl Procedure for Logger {
        type Output = ();
        fn poll(&mut self, obs: &Obs) -> Poll<()> {
            self.log.borrow_mut().push(obs.clone());
            if let Poll::Yield(a) = self.pause.poll(obs) {
                return Poll::Yield(a);
            }
            if self.moves > 0 {
                self.moves -= 1;
                return Poll::Yield(Action::TakePort(Port::new(0)));
            }
            self.watch.poll(obs).map(|_| ())
        }
        // Each stage's promise, once made, outlasts the earlier stage's.
        fn quiet_until(&self) -> u64 {
            self.pause.quiet_until().max(self.watch.quiet_until())
        }
    }

    /// `event` with its round moved `shift` rounds later.
    fn shifted(event: &TraceEvent, shift: u64) -> TraceEvent {
        let mut event = event.clone();
        match &mut event {
            TraceEvent::Wake { round, .. }
            | TraceEvent::Move { round, .. }
            | TraceEvent::Blocked { round, .. }
            | TraceEvent::Crashed { round, .. }
            | TraceEvent::Declare { round, .. } => *round += shift,
        }
        event
    }

    #[test]
    fn an_agent_clock_starts_at_its_wake_and_moves_with_it() {
        // Three loggers on a ring of 8; the adversary wakes them at
        // `offsets`. Each agent's clock counts the rounds since its own
        // wake, so moving every offset by the same amount moves every
        // event of theirs by that amount and changes no observation. A
        // schedule must wake someone in round 0: an agent that waits on
        // node 7 for longer than the runs last is that someone, and never
        // acts.
        let ring = generators::ring(8);
        let run = |mut offsets: Vec<u64>| {
            let logs: Vec<Rc<RefCell<Vec<Obs>>>> = (0..3).map(|_| Rc::default()).collect();
            let mut engine = Engine::new(&ring);
            for (i, log) in (0u64..).zip(&logs) {
                let logger = Logger {
                    log: Rc::clone(log),
                    pause: WaitRounds::new(5 + 7 * i),
                    moves: 2 + i,
                    watch: crate::proc::UntilCardExceeds::new(1, WaitRounds::new(40)),
                };
                add(&mut engine, i + 1, 3 * i as u32, logger);
            }
            add(&mut engine, 9, 7, WaitRounds::new(1 << 40));
            offsets.push(0);
            engine.set_wake_schedule(WakeSchedule::Explicit(offsets));
            engine.record_trace(1 << 10);
            let outcome = engine.run(10_000).unwrap();
            let logs: Vec<Vec<Obs>> = logs.into_iter().map(|log| log.take()).collect();
            (outcome, logs)
        };

        let (outcome, logs) = run(vec![37, 40, 45]);
        assert_eq!(wakes(&outcome)[1], (label(1), 37, false));
        assert_eq!((logs[0][0].round, logs[0][0].just_woken), (0, true));

        let (base, base_logs) = run(vec![0, 3, 8]);
        assert!(base.declarations[..3].iter().all(|(_, rec)| rec.is_some()));
        assert!(base.skipped_rounds > 0);
        let team_events = |outcome: &RunOutcome, shift: u64| -> Vec<TraceEvent> {
            let trace = outcome.trace.as_ref().unwrap();
            let team = trace.events().iter().filter(|e| match e {
                TraceEvent::Wake { agent, .. } => *agent != label(9),
                _ => true,
            });
            team.map(|e| shifted(e, shift)).collect()
        };
        for shift in [1, 37, 500] {
            let (moved, moved_logs) = run(vec![shift, 3 + shift, 8 + shift]);
            assert_eq!(moved_logs, base_logs, "shifted by {shift}");
            assert_eq!(
                team_events(&moved, 0),
                team_events(&base, shift),
                "shifted by {shift}"
            );
            assert_eq!(moved.polled_agent_rounds, base.polled_agent_rounds);
        }
    }

    /// Yields one walk, then completes; logs the clock and `CurCard` of
    /// each poll, and what the walk handed back.
    struct OneWalk {
        walk: crate::walk::Walk,
        log: Rc<RefCell<WalkLog>>,
    }

    #[derive(Default)]
    struct WalkLog {
        polls: Vec<(u64, u32)>,
        done: Option<crate::walk::WalkDone>,
    }

    impl OneWalk {
        fn boxed(steps: &[u32], stop_above: Option<u32>, log: &Rc<RefCell<WalkLog>>) -> Agent {
            let walk = crate::walk::Walk {
                steps: steps.into(),
                stop_above,
            };
            Box::new(OneWalk {
                walk,
                log: Rc::clone(log),
            })
        }
    }

    impl Procedure for OneWalk {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            let mut log = self.log.borrow_mut();
            log.polls.push((obs.round, obs.cur_card));
            if log.polls.len() == 1 {
                Poll::Yield(Action::Hold)
            } else {
                Poll::Complete(Declaration::bare())
            }
        }
        fn held(&self) -> Instruction {
            Instruction::Walk(self.walk.clone())
        }
        fn held_done(&mut self, done: HeldDone) {
            let HeldDone::Walk(done) = done else {
                panic!("a walk hands back a walk's result")
            };
            self.log.borrow_mut().done = Some(done);
        }
    }

    #[test]
    fn a_held_walk_is_played_unpolled_and_hands_back_what_it_saw() {
        // On the path 0 - 1 - 2 the walker wakes in round 1 at node 0 and
        // walks out to node 1 and back. The other agent stepped onto node
        // 1 in round 0, so the walk sees CurCard 2 on its clock 1 (round
        // 2). The walker is polled on its clocks 0 and 2 only.
        let path = generators::path(3);
        let log = Rc::new(RefCell::new(WalkLog::default()));
        let mut engine = Engine::new(&path);
        engine.add_agent(label(1), NodeId::new(0), OneWalk::boxed(&[0], None, &log));
        add(
            &mut engine,
            2,
            2,
            crate::proc::FollowPath::new(vec![Port::new(0)]),
        );
        engine.set_wake_schedule(WakeSchedule::Explicit(vec![1, 0]));
        let outcome = engine.run(100).unwrap();
        let record = outcome.declarations[0].1.unwrap();
        assert_eq!((record.round, record.node), (3, NodeId::new(0)));
        let log = log.borrow();
        assert_eq!(log.polls, vec![(0, 1), (2, 1)]);
        assert_eq!(
            log.done,
            Some(crate::walk::WalkDone {
                min_card: 1,
                last_card: 2,
                changed: Some(1),
            })
        );
        assert_eq!(outcome.total_moves, 3);
        // The other agent's move and declaration, the walker's two polls.
        assert_eq!(outcome.polled_agent_rounds, 4);
    }

    #[test]
    fn a_walk_stop_polls_in_the_round_curcard_rises() {
        // The walker reaches node 1 in round 0 as the other agent does:
        // CurCard 2 > 1 in round 1 stops the walk, and that round's poll
        // sees it.
        let path = generators::path(3);
        let log = Rc::new(RefCell::new(WalkLog::default()));
        let mut engine = Engine::new(&path);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            OneWalk::boxed(&[0, 0], Some(1), &log),
        );
        add(
            &mut engine,
            2,
            2,
            crate::proc::FollowPath::new(vec![Port::new(0)]),
        );
        let outcome = engine.run(100).unwrap();
        let record = outcome.declarations[0].1.unwrap();
        assert_eq!((record.round, record.node), (1, NodeId::new(1)));
        let log = log.borrow();
        assert_eq!(log.polls, vec![(0, 1), (1, 2)]);
        assert_eq!(
            log.done,
            Some(crate::walk::WalkDone {
                min_card: 1,
                last_card: 1,
                changed: None,
            })
        );
    }

    /// Yields one traversal, then completes; logs the clock of each poll
    /// and what the traversal handed back.
    struct OneTraversal {
        traversal: crate::walk::Traversal,
        log: Rc<RefCell<TraversalLog>>,
    }

    #[derive(Default)]
    struct TraversalLog {
        polls: Vec<u64>,
        done: Option<bool>,
    }

    impl OneTraversal {
        fn boxed(
            radius: u32,
            abort_degree: u32,
            wait: u64,
            log: &Rc<RefCell<TraversalLog>>,
        ) -> Agent {
            let traversal = crate::walk::Traversal {
                alpha: 2,
                radius,
                abort_degree,
                wait,
                retrace: None,
            };
            Box::new(OneTraversal {
                traversal,
                log: Rc::clone(log),
            })
        }
    }

    impl Procedure for OneTraversal {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            let mut log = self.log.borrow_mut();
            log.polls.push(obs.round);
            if log.polls.len() == 1 {
                Poll::Yield(Action::Hold)
            } else {
                Poll::Complete(Declaration::bare())
            }
        }
        fn held(&self) -> Instruction {
            Instruction::Traverse(self.traversal.clone())
        }
        fn held_done(&mut self, done: HeldDone) {
            let HeldDone::Traverse { completed, .. } = done else {
                panic!("a traversal hands back a traversal's result")
            };
            self.log.borrow_mut().done = Some(completed);
        }
    }

    /// The moves (from, to) of agent 1 in `outcome`'s trace, with their
    /// rounds.
    fn moves_of_agent_1(outcome: &RunOutcome) -> Vec<(u64, NodeId, NodeId)> {
        let trace = outcome.trace.as_ref().unwrap();
        trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Move {
                    agent,
                    round,
                    from,
                    to,
                    ..
                } if agent == label(1) => Some((round, from, to)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_traversal_costs_two_polls_at_its_start_and_its_end() {
        // Every path of two ports over {0, 1} from node 0 of a 5-ring, a
        // slow wait of 3 before each move: the moves come 4 rounds apart
        // from round 3, and the traversal is polled when it starts and in
        // the round after its last move, with its result handed back.
        let ring = generators::ring(5);
        let log = Rc::new(RefCell::new(TraversalLog::default()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            OneTraversal::boxed(2, u32::MAX, 3, &log),
        );
        add(&mut engine, 2, 3, WaitRounds::new(0));
        engine.record_trace(1_000);
        let outcome = engine.run(1_000).unwrap();
        let moves = moves_of_agent_1(&outcome);
        // Four paths, each two moves out and two back.
        assert_eq!(moves.len(), 16);
        let rounds: Vec<u64> = moves.iter().map(|&(round, ..)| round).collect();
        assert_eq!(rounds, (0..16).map(|j| 3 + 4 * j).collect::<Vec<u64>>());
        assert_eq!(
            moves.last().unwrap().2,
            NodeId::new(0),
            "it ends on its start"
        );
        let log = log.borrow();
        assert_eq!(log.polls, vec![0, 64]);
        assert_eq!(log.done, Some(true));
        // The traversal's two polls, the other agent's one, and the held
        // wait in round 1: the agent had just woken in round 0, so it was
        // due in the next executed round.
        assert_eq!(outcome.polled_agent_rounds, 4);
        let record = outcome.declarations[0].1.unwrap();
        assert_eq!((record.round, record.node), (64, NodeId::new(0)));
        // Rounds 0 and 1, each move round and round 64. Each move is
        // stepped in its own round and no one sees the round after it, so
        // the engine plays on from move to move: 34 iterations when each
        // move was stepped in the round after it.
        assert_eq!(outcome.engine_iterations, 19);
    }

    #[test]
    fn a_traversal_without_a_move_is_handed_back_in_its_round() {
        // An abort on the start node (degree 2 >= 2), then a radius of 0:
        // neither moves, and each is handed back in the round it was
        // yielded in, where the agent is polled again and declares.
        for (radius, abort_degree, completed) in [(2, 2, false), (0, u32::MAX, true)] {
            let ring = generators::ring(4);
            let log = Rc::new(RefCell::new(TraversalLog::default()));
            let mut engine = Engine::new(&ring);
            engine.add_agent(
                label(1),
                NodeId::new(0),
                OneTraversal::boxed(radius, abort_degree, 5, &log),
            );
            add(&mut engine, 2, 2, WaitRounds::new(3));
            engine.set_wake_schedule(WakeSchedule::Explicit(vec![2, 0]));
            let outcome = engine.run(100).unwrap();
            assert_eq!(outcome.total_moves, 0);
            let log = log.borrow();
            assert_eq!(log.polls, vec![0, 0]);
            assert_eq!(log.done, Some(completed));
            assert_eq!(outcome.declarations[0].1.unwrap().round, 2);
        }
    }

    #[test]
    fn a_crash_mid_traversal_cancels_it() {
        // The first move is made in round 3; the crash in round 5 lands
        // inside the second move's wait, which is never made, and nothing
        // is handed back.
        let ring = generators::ring(5);
        let log = Rc::new(RefCell::new(TraversalLog::default()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            OneTraversal::boxed(2, u32::MAX, 3, &log),
        );
        add(&mut engine, 2, 3, WaitRounds::new(20));
        engine.set_faults(crash_at(&[(1, 5)]));
        engine.record_trace(1_000);
        let outcome = engine.run(1_000).unwrap();
        assert_eq!(outcome.crashed_agents, vec![label(1)]);
        assert_eq!(moves_of_agent_1(&outcome).len(), 1);
        let log = log.borrow();
        assert_eq!(log.polls, vec![0]);
        assert_eq!(log.done, None);
    }

    #[test]
    fn a_blocked_traversal_move_is_made_again_in_the_next_round() {
        // Every edge is absent before round 6: the first move, due in
        // round 2, is attempted in rounds 2 to 5 and made in round 6.
        // Every later move waits its 2 rounds after the one before, and
        // the traversal walks exactly the moves it walks on a static
        // ring, back to its start.
        let ring = generators::ring(5);
        let run = |blocked_until: u64| {
            let log = Rc::new(RefCell::new(TraversalLog::default()));
            let mut engine = Engine::with_topology(
                &ring,
                &BlockedUntil {
                    until: blocked_until,
                },
            );
            engine.add_agent(
                label(1),
                NodeId::new(0),
                OneTraversal::boxed(2, u32::MAX, 2, &log),
            );
            add(&mut engine, 2, 3, WaitRounds::new(0));
            engine.record_trace(1_000);
            let outcome = engine.run(1_000).unwrap();
            let log = Rc::try_unwrap(log).ok().unwrap().into_inner();
            (outcome, log)
        };
        let (free, free_log) = run(0);
        let (blocked, blocked_log) = run(6);
        let trace = blocked.trace.as_ref().unwrap();
        let attempts: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Blocked { round, .. } => Some(round),
                _ => None,
            })
            .collect();
        assert_eq!(attempts, vec![2, 3, 4, 5]);
        let free_moves = moves_of_agent_1(&free);
        let blocked_moves = moves_of_agent_1(&blocked);
        let shifted: Vec<(u64, NodeId, NodeId)> = free_moves
            .iter()
            .map(|&(round, from, to)| (round + 4, from, to))
            .collect();
        assert_eq!(blocked_moves, shifted);
        assert_eq!(blocked_log.done, Some(true));
        assert_eq!(
            blocked_log.polls,
            free_log
                .polls
                .iter()
                .enumerate()
                .map(|(j, &p)| p + 4 * j as u64)
                .collect::<Vec<u64>>()
        );
    }
    #[test]
    fn only_an_agent_in_a_traversal_carries_its_state() {
        // Every agent has a held entry: the next move, and a walk's state,
        // kept for its entry buffer. A traversal's state is boxed while
        // the traversal is under way and handed back at its end, so an
        // agent that never traverses does not pay for one: inlining it
        // would widen every entry.
        assert_eq!(std::mem::size_of::<Held>(), 96);
        assert!(std::mem::size_of::<TraversalState>() > std::mem::size_of::<WalkState>());

        let ring = generators::ring(5);
        let log = Rc::new(RefCell::new(TraversalLog::default()));
        let mut engine = Engine::new(&ring);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            OneTraversal::boxed(2, u32::MAX, 3, &log),
        );
        add(&mut engine, 2, 3, WaitRounds::new(0));
        let mut scratch = EngineScratch::new();
        let mut run = ActiveRun::begin(engine, 1_000, &mut scratch).unwrap();
        let rule = |run: &ActiveRun<'_, Static>| match run.engine.agents.held[0].rule {
            Rule::Slow => "none",
            Rule::Walk(_) => "walk",
            Rule::Traverse(_) => "traversal",
        };
        assert_eq!(rule(&run), "none");
        step_past(&mut run, &mut scratch, 0);
        assert_eq!(rule(&run), "traversal");
        // Round 3 makes the first move, and the engine plays on through
        // the last, in round 63, which hands the state back in that round;
        // round 64 polls the agent, which declares. (The state was handed
        // back in round 64 when each move was stepped in the round after
        // it.)
        step_past(&mut run, &mut scratch, 3);
        assert_eq!(run.round, 64);
        assert_eq!(rule(&run), "none");
        assert_eq!(log.borrow().done, Some(true));
        assert!(run.step(&mut scratch).is_some());
    }

    #[test]
    fn a_traversal_counts_the_wait_rounds_it_is_due_in() {
        // The traversal of `a_traversal_costs_two_polls_at_its_start_and_its_end`
        // beside a waiter, with every edge absent before round `blocked`.
        // Under weak sensing each move is stepped in its own round, and
        // the round after it is played only while the waiter sees it:
        // until it declares in round 7, and in round 8, after its
        // declaration. A wait of one round is due in that round, so it
        // counts; a longer wait is skipped up to its last round.
        // Traditional sensing reaches every executing agent in every
        // executed round. When each move was stepped in the round after
        // it, that round was always played, and the four weak rows with a
        // wait read (21, 33), (7, 34), (21, 37) and (7, 37).
        let ring = generators::ring(5);
        for (sensing, blocked, wait, polls, iterations) in [
            (Sensing::Weak, 0, 0, 6, 17),
            (Sensing::Weak, 0, 1, 6, 19),
            (Sensing::Weak, 0, 2, 6, 19),
            (Sensing::Weak, 5, 1, 6, 23),
            (Sensing::Weak, 5, 3, 6, 22),
            (Sensing::Traditional, 0, 2, 24, 34),
            (Sensing::Traditional, 5, 3, 25, 37),
        ] {
            let log = Rc::new(RefCell::new(TraversalLog::default()));
            let mut engine = Engine::with_topology(&ring, &BlockedUntil { until: blocked });
            engine.add_agent(
                label(1),
                NodeId::new(0),
                OneTraversal::boxed(2, u32::MAX, wait, &log),
            );
            add(&mut engine, 2, 3, WaitRounds::new(7));
            engine.set_sensing(sensing);
            let outcome = engine.run(1_000).unwrap();
            assert_eq!(outcome.total_moves, 16);
            assert_eq!(
                (outcome.polled_agent_rounds, outcome.engine_iterations),
                (polls, iterations),
                "{sensing:?}, blocked before round {blocked}, wait {wait}"
            );
        }
    }

    // ------------------------------------------------------------------
    // Playing on from held move to held move. Each run is checked against
    // the same traversal played in the procedure's own polls.
    // ------------------------------------------------------------------

    /// The traversal of `OneTraversal::boxed(2, u32::MAX, wait, ..)`,
    /// played in the procedure's own polls: it steps a `TraversalState`
    /// when it starts and in the round after each move, and waits out each
    /// slow wait inside a blind promise. The engine's held traversal
    /// stands for this expansion.
    struct PolledTraversal {
        state: TraversalState,
        wait: u64,
        /// The clock of the next move and its port, while it waits.
        next: Option<(u64, Port)>,
    }
    impl PolledTraversal {
        fn boxed(wait: u64) -> Agent {
            let traversal = crate::walk::Traversal {
                alpha: 2,
                radius: 2,
                abort_degree: u32::MAX,
                wait,
                retrace: None,
            };
            Box::new(PolledTraversal {
                state: TraversalState::new(traversal),
                wait,
                next: None,
            })
        }
    }
    impl Procedure for PolledTraversal {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            if let Some((at, port)) = self.next {
                if obs.round < at {
                    return Poll::Yield(Action::Wait);
                }
                self.next = None;
                return Poll::Yield(Action::TakePort(port));
            }
            match self.state.step(obs.degree, obs.entry_port, obs.blocked) {
                TraversalStep::Move { port, .. } => {
                    let wait = if obs.blocked { 0 } else { self.wait };
                    if wait == 0 {
                        return Poll::Yield(Action::TakePort(port));
                    }
                    self.next = Some((obs.round + wait, port));
                    Poll::Yield(Action::Wait)
                }
                TraversalStep::Done(_) => Poll::Complete(Declaration::bare()),
            }
        }
        fn quiet_until(&self) -> u64 {
            self.next.map_or(0, |(at, _)| at - 1)
        }
        fn blind(&self) -> bool {
            self.next.is_some()
        }
    }

    /// Runs the team `team` builds around its agent 1 twice: once holding
    /// the traversal of `OneTraversal::boxed(2, u32::MAX, wait, ..)`, once
    /// playing it in its own polls ([`PolledTraversal`]). Both must be one
    /// run: the same outcome but for the execution facts, the same trace,
    /// as many model rounds. Returns the held run, then the polled one.
    fn held_as_polled<'g, V: TopologyView>(
        team: impl Fn(Agent) -> Engine<'g, V>,
        wait: u64,
        max_rounds: u64,
    ) -> (RunOutcome, RunOutcome) {
        let run = |agent| {
            let mut engine = team(agent);
            engine.record_trace(1 << 12);
            engine.run(max_rounds).unwrap()
        };
        let log = Rc::new(RefCell::new(TraversalLog::default()));
        let held = run(OneTraversal::boxed(2, u32::MAX, wait, &log));
        let polled = run(PolledTraversal::boxed(wait));
        assert_eq!(held.status, polled.status);
        assert_eq!(held.rounds, polled.rounds);
        assert_eq!(held.declarations, polled.declarations);
        assert_eq!(held.crashed_agents, polled.crashed_agents);
        assert_eq!(held.total_moves, polled.total_moves);
        assert_eq!(held.blocked_moves, polled.blocked_moves);
        assert_eq!(held.max_colocation, polled.max_colocation);
        assert_eq!(
            held.trace.as_ref().unwrap().events(),
            polled.trace.as_ref().unwrap().events()
        );
        assert_eq!(
            held.engine_iterations + held.skipped_rounds,
            polled.engine_iterations + polled.skipped_rounds
        );
        (held, polled)
    }

    /// A ring of 8 with the traverser of [`held_as_polled`] on node 0. Its
    /// 16 moves, `wait + 1` rounds apart from round `wait`, visit nodes 7
    /// and 6 (the first path: moves 1 and 2), then 7, 1, and 1 and 2 (the
    /// last path: moves 13 and 14), each time back to node 0.
    fn around_the_traverser(
        ring: &Graph,
        traverser: Agent,
        others: impl FnOnce(&mut Engine<'_>),
    ) -> Engine<'_> {
        let mut engine = Engine::new(ring);
        engine.add_agent(label(1), NodeId::new(0), traverser);
        others(&mut engine);
        engine
    }

    #[test]
    fn a_traversal_beside_blind_waiters_is_played_from_move_to_move() {
        // The waiter on node 4 is blind: after each move no one sees the
        // rounds before the next one, so only the move rounds are
        // executed, and the waiter's own.
        let ring = generators::ring(8);
        let team = |traverser| {
            around_the_traverser(&ring, traverser, |engine| {
                add(engine, 2, 4, WaitRounds::new(30));
            })
        };
        let (held, polled) = held_as_polled(team, 3, 1_000);
        assert_eq!(held.total_moves, 16);
        // Round 0, the 16 move rounds (the waiter's poll after its wake
        // observation joins the first, in round 3), the waiter's
        // declaration in round 30 and the poll in round 64. The polled
        // traversal also executes the round after each move.
        assert_eq!(held.engine_iterations, 19);
        assert_eq!(polled.engine_iterations, 34);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "broke its promise")]
    fn a_broken_blind_promise_beside_a_traversal_trips_the_debug_net() {
        // The first move enters the liar's node in round 3, and the engine
        // plays on to the next move, in round 7, without a poll; the debug
        // net polls the liar there, and it declares on its company.
        let ring = generators::ring(8);
        let log = Rc::new(RefCell::new(TraversalLog::default()));
        let traverser = OneTraversal::boxed(2, u32::MAX, 3, &log);
        let engine = around_the_traverser(&ring, traverser, |engine| {
            add(engine, 2, 7, BlindLiar(WaitRounds::new(30)));
        });
        let _ = engine.run(1_000);
    }

    #[test]
    fn a_sleeper_on_a_traversals_path_wakes_in_the_arrival_round() {
        // The second move enters node 6 at the end of round 7. With a
        // sleeper anywhere, every round after a move is executed: the
        // sleeper wakes in round 8 and waits out its 5 rounds.
        let ring = generators::ring(8);
        let team = |traverser| {
            let mut engine = around_the_traverser(&ring, traverser, |engine| {
                add(engine, 2, 6, WaitRounds::new(5));
            });
            engine.set_wake_schedule(WakeSchedule::Explicit(vec![0, u64::MAX]));
            engine
        };
        let (held, _) = held_as_polled(team, 3, 1_000);
        assert_eq!(
            wakes(&held),
            vec![(label(1), 0, false), (label(2), 8, true)]
        );
        assert_eq!(declared_round(&held, 1), 13);
    }

    #[test]
    fn a_card_watcher_beside_a_traversal_sees_its_arrival() {
        // The watcher on node 2 is not blind: every round after a move is
        // executed while it waits. The 14th move enters its node at the
        // end of round 55, and it declares in round 56; the last two moves
        // are then played from one to the next.
        use crate::proc::UntilCardExceeds;
        let ring = generators::ring(8);
        let team = |traverser| {
            around_the_traverser(&ring, traverser, |engine| {
                engine.add_agent(
                    label(2),
                    NodeId::new(2),
                    Box::new(UntilCardExceeds::new(1, WaitRounds::new(100)).map(|out| {
                        Declaration {
                            leader: None,
                            size: Some(u32::from(out.was_interrupted())),
                        }
                    })),
                );
            })
        };
        let (held, _) = held_as_polled(team, 3, 1_000);
        let watcher = held.declarations[1].1.unwrap();
        assert_eq!((watcher.round, watcher.declaration.size), (56, Some(1)));
        // Round 0, the round of each of the first 14 moves and the round
        // after it (the watcher declares in the last), round 57 after the
        // declaration, the last two moves and round 64.
        assert_eq!(held.engine_iterations, 1 + 2 * 14 + 1 + 2 + 1);
    }

    #[test]
    fn a_crash_and_a_wake_inside_a_traversal_land_in_their_rounds() {
        // A third agent wakes in round 21, inside the traversal; from then
        // on the engine plays it from move to move beside two blind
        // waiters, due in rounds 39 and 40. One of them crashes in round
        // 30, inside the wait before the 8th move, and the traverser
        // itself in round 45, inside the wait before its 12th.
        let ring = generators::ring(8);
        let team = |traverser| {
            let mut engine = around_the_traverser(&ring, traverser, |engine| {
                add(engine, 2, 4, WaitRounds::new(40));
                add(engine, 3, 5, WaitRounds::new(20));
            });
            engine.set_wake_schedule(WakeSchedule::Explicit(vec![0, 0, 21]));
            engine.set_faults(crash_at(&[(2, 30), (1, 45)]));
            engine
        };
        let (held, _) = held_as_polled(team, 3, 1_000);
        assert_eq!(held.crashed_agents, vec![label(1), label(2)]);
        assert_eq!(moves_of_agent_1(&held).len(), 11);
        let crashes: Vec<(Label, u64)> = held
            .trace
            .as_ref()
            .unwrap()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Crashed { agent, round, .. } => Some((agent, round)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, vec![(label(2), 30), (label(1), 45)]);
        assert_eq!(wakes(&held)[2], (label(3), 21, false));
        assert_eq!(declared_round(&held, 2), 41);
    }

    #[test]
    fn a_round_limit_one_round_after_a_move_reads_no_colocation() {
        // The first move enters the node of a blind waiter at the end of
        // round 3. The colocation it makes is read at the start of round
        // 4, so a run cut before round 4 never reads it.
        let ring = generators::ring(8);
        let team = |traverser| {
            around_the_traverser(&ring, traverser, |engine| {
                add(engine, 2, 7, WaitRounds::new(1_000));
            })
        };
        for (max_rounds, colocation) in [(3, 1), (4, 1), (5, 2), (6, 2), (8, 2)] {
            let (held, _) = held_as_polled(team, 3, max_rounds);
            assert_eq!(held.status, RunStatus::RoundLimit);
            assert_eq!(held.max_colocation, colocation, "limit {max_rounds}");
        }
    }

    #[test]
    fn blocked_traversal_moves_are_made_again_inside_a_held_stretch() {
        // Beside a blind waiter, a blocked move is attempted again in the
        // next round, inside the stretch the engine plays on its own: every
        // edge absent before round 6, or a rotating outage.
        let ring = generators::ring(8);
        let blocked = |until| {
            held_as_polled(
                |traverser| {
                    let mut engine = Engine::with_topology(&ring, &BlockedUntil { until });
                    engine.add_agent(label(1), NodeId::new(0), traverser);
                    add(&mut engine, 2, 4, WaitRounds::new(100));
                    engine
                },
                3,
                1_000,
            )
        };
        let (held, _) = blocked(6);
        assert_eq!(held.blocked_moves, 3);
        let outage = nochatter_graph::dynamic::PeriodicEdges {
            period: 3,
            offset: 1,
        };
        let (held, _) = held_as_polled(
            |traverser| {
                let mut engine = Engine::with_topology(&ring, &outage);
                engine.add_agent(label(1), NodeId::new(0), traverser);
                add(&mut engine, 2, 4, WaitRounds::new(100));
                engine
            },
            2,
            1_000,
        );
        assert!(held.blocked_moves > 0);
        assert_eq!(held.total_moves, 16);
    }

    #[test]
    fn traditional_sensing_executes_every_round_after_a_move() {
        // Every executing agent sees the labels present, so no round after
        // a move goes unseen: the held traversal executes the rounds its
        // polled expansion does.
        let ring = generators::ring(8);
        let team = |traverser| {
            let mut engine = around_the_traverser(&ring, traverser, |engine| {
                add(engine, 2, 4, WaitRounds::new(30));
            });
            engine.set_sensing(Sensing::Traditional);
            engine
        };
        let (held, polled) = held_as_polled(team, 3, 1_000);
        assert_eq!(held.engine_iterations, polled.engine_iterations);
    }
}
