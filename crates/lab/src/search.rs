//! The adversary-search harness: a budgeted falsifier that hunts
//! worst-case scenarios instead of sweeping an oblivious grid.
//!
//! The campaign runner evaluates a fixed matrix of adversaries; this
//! module turns the same machinery into an *optimizer*. An
//! [`AdversarySpace`] declares, per instance, the discrete choices the
//! adversary controls — one wake offset per agent, one crash round per
//! crashable agent, one removed edge per script slot of a
//! [`ScriptedRing`](nochatter_sim::ScriptedRing) — and the search walks
//! that space with seeded random sampling plus greedy one-mutation local
//! search, maximizing an [`Objective`] (make the algorithm fail, or make
//! it slow). The best candidate found becomes the instance's *witness*:
//! a fully replayable [`Scenario`] whose key names the exact adversary.
//!
//! Three design rules keep the falsifier honest and cheap:
//!
//! * **Every candidate is a pure-function-of-round spec, run like a
//!   campaign cell.** The search only ever emits `WakeSchedule::Explicit`,
//!   `FaultSpec::CrashAt` and `TopologySpec::Scripted` — declarative
//!   adversaries the engine resolves before the run, so determinism and
//!   the quiescence fast-forward survive. Each candidate that runs, runs
//!   from scratch through the campaign runner's solo
//!   [`execute_scenario_with_scratch`](crate::execute_scenario_with_scratch),
//!   so any witness replays bit for bit through
//!   [`execute_scenario`](crate::execute_scenario) and caches exactly like
//!   a campaign cell.
//! * **Determinism at any worker count and cache state.** The
//!   per-instance search is sequential and seeded from the instance's
//!   derived seed; instances shard over the campaign scheduler with
//!   index-ordered result slots. Same spec + budget ⇒ byte-identical
//!   [`SearchReport`] JSON and CSV for any worker count, cold or warm.
//! * **Nothing runs that cannot change the witness.** A gathering run
//!   never reports more rounds than the instance's engine round limit
//!   ([`KnownSetup::round_limit`]), which every candidate of the instance
//!   shares, so [`Objective::ceiling`] bounds every candidate's score.
//!   Ties keep the incumbent, so once the incumbent reaches that ceiling
//!   the search still judges (decodes, deduplicates, counts) the rest of
//!   its budget but runs none of it: the reports are those of a search
//!   that ran everything. [`SearchOutcome::runs`] counts what ran.
//! * **A candidate costs its free axes.** The walk indexes only the axes
//!   that offer more than one choice, deduplicates on a compact decoded
//!   adversary rather than on key names, and builds a candidate's
//!   [`Scenario`] (script, key, configuration) only when it runs. A
//!   7,000-slot lead-in of single-choice axes costs the walk nothing, and
//!   a candidate that runs copies its script and key text from templates
//!   built once per instance, writing only its free slots.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nochatter_core::KnownSetup;
use nochatter_graph::dynamic::is_cycle;
use nochatter_graph::rng::derive_seed;
use nochatter_graph::Label;
use nochatter_sim::{
    CrashPoint, EngineScratch, FaultSpec, ScriptedRing, TopologySpec, WakeSchedule,
};

use crate::campaign::{wake_name, Scenario, ScenarioKind};
use crate::record::RunRecord;
use crate::report::{
    csv_escape, json_escape, opt_rate, record_csv_row, record_json_object, RECORD_CSV_COLUMNS,
};
use crate::runner;
use crate::sched;
use crate::store::{CacheStats, Store};

/// Salt separating the search's candidate-sampling stream from every other
/// consumer of a scenario seed.
const SALT_SEARCH: u64 = 0x5EA2C4;

/// How many random candidates a stuck search draws per kick (once the
/// incumbent's whole one-mutation neighborhood has been evaluated).
const KICK: usize = 8;

/// What the falsifier maximizes, per instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Objective {
    /// Hunt outright failures: a candidate whose run executes but does
    /// not meet the gathering criterion beats every success; among
    /// failures (and among successes) more rounds rank higher. The
    /// default falsifier objective.
    Failure,
    /// Hunt slow gatherings: maximize rounds-to-gather over candidates
    /// that still succeed (failures score zero — this objective measures
    /// the adversary's *delay* power, not its kill power).
    SlowGather,
}

impl Objective {
    /// The short name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Failure => "failure",
            Objective::SlowGather => "slow-gather",
        }
    }

    /// The highest score a run that stops at round `limit` can reach: a
    /// failure at the limit under [`Objective::Failure`], a gathering at
    /// the limit under [`Objective::SlowGather`]. No run reports more
    /// rounds than its engine round limit, and ties keep the incumbent, so
    /// an incumbent at the ceiling is final.
    pub fn ceiling(self, limit: u64) -> (u64, u64) {
        match self {
            Objective::Failure => (2, limit),
            Objective::SlowGather => (1, limit),
        }
    }

    /// Scores a candidate's record: a lexicographic `(rank, rounds)` pair
    /// (bigger is worse for the algorithm, i.e. better for the
    /// adversary). Records that never truly executed — preflight
    /// rejections, engine errors, panics — score `(0, 0)` under either
    /// objective: an adversary that crashes the harness has falsified
    /// nothing.
    pub fn score(self, record: &RunRecord) -> (u64, u64) {
        let executed = !(record.status.starts_with("unsupported")
            || record.status.starts_with("engine error")
            || record.status.starts_with("panic"));
        match self {
            Objective::Failure => {
                if !executed {
                    (0, 0)
                } else if record.ok {
                    (1, record.rounds)
                } else {
                    (2, record.rounds)
                }
            }
            Objective::SlowGather => {
                if executed && record.ok {
                    (1, record.rounds)
                } else {
                    (0, 0)
                }
            }
        }
    }
}

/// The discrete adversary choices of one instance, axis by axis.
///
/// A genotype is one `u32` choice index per axis, in axis order: first the
/// wake axes, then the crash axes, then the edge-script axes. Every axis
/// must offer at least one choice; an axis the space does not want to
/// perturb simply lists its single base value. A search walks only the
/// axes that offer more than one choice, so single-choice axes cost it
/// nothing, and it builds a candidate's [`Scenario`] only when it runs
/// the candidate; [`AdversarySpace::decode`] goes through the same build.
/// A space that cannot describe its instance's adversary is rejected
/// before any candidate runs: an axis that offers no choice, a wake-axis
/// list that is non-empty but not one axis per agent, a crash label
/// outside the team, an edge choice that is neither
/// [`ScriptedRing::KEEP_ALL`] nor an edge id of the base graph, or an
/// edge removal over a base graph that is not a cycle. Its instance
/// reports an `unsupported:` record instead of searching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversarySpace {
    /// Per-agent wake-offset choice lists, in the configuration's agent
    /// order (`u64::MAX` = never woken by the adversary, visit-only).
    /// Offsets are relative: decoding subtracts the smallest finite
    /// offset so some agent always wakes at round 0. Empty = keep the
    /// base scenario's schedule.
    pub wake_offsets: Vec<Vec<u64>>,
    /// Per-label crash-round choice lists (`u64::MAX` = never crash).
    /// Labels must be team members.
    pub crash_rounds: Vec<(Label, Vec<u64>)>,
    /// Per-slot edge-removal choice lists for a [`ScriptedRing`] script
    /// ([`ScriptedRing::KEEP_ALL`] = remove nothing that slot). Other
    /// choices are edge ids of the base graph, which must be a cycle. All-`KEEP_ALL` decodes to the static
    /// topology, so the unperturbed twin is part of the space.
    pub edge_script: Vec<Vec<u32>>,
}

impl AdversarySpace {
    /// The number of genotype axes.
    pub fn dims(&self) -> usize {
        self.wake_offsets.len() + self.crash_rounds.len() + self.edge_script.len()
    }

    /// The number of choices on axis `d` (axis order: wake, crash, edges).
    fn choices(&self, d: usize) -> usize {
        let w = self.wake_offsets.len();
        let c = self.crash_rounds.len();
        if d < w {
            self.wake_offsets[d].len()
        } else if d < w + c {
            self.crash_rounds[d - w].1.len()
        } else {
            self.edge_script[d - w - c].len()
        }
    }

    /// The total number of distinct genotypes (an upper bound on distinct
    /// candidates: wake normalization and the all-`KEEP_ALL` collapse make
    /// some genotypes decode identically).
    pub fn candidates(&self) -> u128 {
        (0..self.dims()).map(|d| self.choices(d) as u128).product()
    }

    /// Decodes a genotype into a concrete candidate scenario over `base`'s
    /// instance: same configuration, same derived seed, same algorithm —
    /// only the adversary axes (and with them the key) change. The search
    /// builds its candidates the same way, from their free axes alone.
    ///
    /// # Panics
    ///
    /// Panics if the genotype does not cover every axis, or picks a choice
    /// its axis does not offer.
    pub fn decode(&self, base: &Scenario, genotype: &[u32]) -> Scenario {
        assert_eq!(genotype.len(), self.dims(), "genotype covers every axis");
        for (d, &choice) in genotype.iter().enumerate() {
            assert!(
                (choice as usize) < self.choices(d),
                "adversary axis {d} offers no choice {choice}"
            );
        }
        let free = FreeAxes::of(self).expect("every axis offers the chosen choice");
        let compact: Vec<u32> = free.axes.iter().map(|&d| genotype[d]).collect();
        free.scenario(base, free.point(base, &compact))
    }
}

/// The axes of an [`AdversarySpace`] that offer more than one choice, the
/// only ones a search walks. A *compact* genotype holds one choice index
/// per free axis, in axis order; every other axis keeps its single choice.
///
/// The parts of a scripted candidate that no free axis changes are built
/// once, here: the `template` script, holding every edge slot's first
/// choice, and the `segments` of its key name, the fixed text around the
/// free edge slots. A candidate that runs copies the template and patches
/// its free slots, and writes its key name by interleaving the segments
/// with its free slots' tokens, so it pays for its free slots rather than
/// for the whole script.
struct FreeAxes<'a> {
    space: &'a AdversarySpace,
    /// The free axes' indices in the full genotype, ascending.
    axes: Vec<usize>,
    /// The index in the full genotype of the first edge axis.
    first_edge: usize,
    /// Where the edge axes start in `axes` (and in a compact genotype).
    edge_start: usize,
    /// Whether every single-choice edge axis keeps all edges, so that a
    /// point keeping all edges on its free edge axes is the static
    /// topology.
    fixed_keep_all: bool,
    /// Every edge slot's first choice: the script of a point that picks
    /// choice 0 on every free edge axis.
    template: Arc<[u32]>,
    /// The scripted key name with the free edge slots cut out: one more
    /// segment than there are free edge axes, the first starting with
    /// [`ScriptedRing::NAME_PREFIX`]. Free slot `i` is written between
    /// segments `i` and `i + 1`.
    segments: Vec<String>,
}

/// A decoded adversary: what a candidate's `wake|topo|fault` key names
/// stand for, without the names. Two compact genotypes of one instance
/// decode to equal points exactly when their candidates' names are equal.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Point {
    /// The normalized explicit wake offsets, or `None` for a base schedule
    /// that is not explicit (an explicit base schedule is stored as its
    /// offsets, so a candidate that normalizes onto it is the same point).
    wake: Option<Vec<u64>>,
    /// The crash points, in axis order, as `(label, round)`.
    crash: Vec<(Label, u64)>,
    /// The edge chosen on each free edge axis. Single-choice slots are
    /// the same for every point, so these values alone tell scripts
    /// apart, and all-`KEEP_ALL` values are the static topology exactly
    /// when the single-choice slots keep all edges too.
    edges: Vec<u32>,
}

impl<'a> FreeAxes<'a> {
    /// The free axes of `space`, or the first axis that offers no choice.
    fn of(space: &'a AdversarySpace) -> Result<Self, usize> {
        let mut axes = Vec::new();
        for d in 0..space.dims() {
            match space.choices(d) {
                0 => return Err(d),
                1 => {}
                _ => axes.push(d),
            }
        }
        let first_edge = space.wake_offsets.len() + space.crash_rounds.len();
        let edge_start = axes.partition_point(|&d| d < first_edge);
        let template: Arc<[u32]> = space.edge_script.iter().map(|c| c[0]).collect();
        let mut segments = vec![String::from(ScriptedRing::NAME_PREFIX)];
        let mut free_slots = axes[edge_start..]
            .iter()
            .map(|&d| d - first_edge)
            .peekable();
        for (slot, &e) in template.iter().enumerate() {
            if free_slots.next_if_eq(&slot).is_some() {
                segments.push(String::new());
            } else {
                let segment = segments.last_mut().expect("segments start non-empty");
                ScriptedRing::write_slot(segment, slot, e);
            }
        }
        Ok(FreeAxes {
            space,
            first_edge,
            edge_start,
            axes,
            fixed_keep_all: space
                .edge_script
                .iter()
                .all(|choices| choices.len() > 1 || choices[0] == ScriptedRing::KEEP_ALL),
            template,
            segments,
        })
    }

    /// The number of free axes (the length of a compact genotype).
    fn len(&self) -> usize {
        self.axes.len()
    }

    /// The number of choices on the `i`-th free axis.
    fn choices(&self, i: usize) -> usize {
        self.space.choices(self.axes[i])
    }

    /// The choice index compact genotype `genotype` picks on axis `d`.
    fn pick(&self, genotype: &[u32], d: usize) -> usize {
        self.axes
            .binary_search(&d)
            .map_or(0, |i| genotype[i] as usize)
    }

    /// Decodes a compact genotype into the adversary it stands for.
    fn point(&self, base: &Scenario, genotype: &[u32]) -> Point {
        let space = self.space;
        let mut offsets: Vec<u64> = space
            .wake_offsets
            .iter()
            .enumerate()
            .map(|(d, choices)| choices[self.pick(genotype, d)])
            .collect();
        // Time is measured from the first wake-up, so the schedule is only
        // meaningful up to a shift: anchor the earliest finite offset at
        // round 0 (the engine rejects schedules without one). With no wake
        // axes, or nobody self-waking, the candidate keeps the base
        // schedule (and collapses onto another point).
        let wake = match (
            offsets.iter().copied().filter(|&o| o != u64::MAX).min(),
            &base.schedule,
        ) {
            (Some(min), _) => {
                for o in &mut offsets {
                    if *o != u64::MAX {
                        *o -= min;
                    }
                }
                Some(offsets)
            }
            (None, WakeSchedule::Explicit(base_offsets)) => Some(base_offsets.clone()),
            (None, _) => None,
        };
        let w = space.wake_offsets.len();
        let crash = space
            .crash_rounds
            .iter()
            .enumerate()
            .map(|(i, &(label, ref choices))| (label, choices[self.pick(genotype, w + i)]))
            .filter(|&(_, round)| round != u64::MAX)
            .collect();
        let edges = self.axes[self.edge_start..]
            .iter()
            .zip(&genotype[self.edge_start..])
            .map(|(&d, &choice)| space.edge_script[d - self.first_edge][choice as usize])
            .collect();
        Point { wake, crash, edges }
    }

    /// The declarative specs `point` stands for.
    fn specs(&self, base: &Scenario, point: Point) -> (WakeSchedule, TopologySpec, FaultSpec) {
        let schedule = point
            .wake
            .map_or_else(|| base.schedule.clone(), WakeSchedule::Explicit);
        let fault = if point.crash.is_empty() {
            FaultSpec::None
        } else {
            FaultSpec::CrashAt(
                point
                    .crash
                    .into_iter()
                    .map(|(label, round)| CrashPoint { label, round })
                    .collect(),
            )
        };
        let topo = if self.keeps_all(&point.edges) {
            TopologySpec::Static
        } else {
            let mut script: Arc<[u32]> = Arc::from(&self.template[..]);
            let slots = Arc::get_mut(&mut script).expect("a fresh script is unshared");
            for (slot, e) in self.free_slots().zip(point.edges) {
                slots[slot] = e;
            }
            TopologySpec::Scripted(ScriptedRing { script })
        };
        (schedule, topo, fault)
    }

    /// The script slots of the free edge axes, ascending.
    fn free_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.axes[self.edge_start..]
            .iter()
            .map(|&d| d - self.first_edge)
    }

    /// Whether a point choosing `edges` on the free edge axes removes no
    /// edge in any slot: the static topology.
    fn keeps_all(&self, edges: &[u32]) -> bool {
        self.fixed_keep_all && edges.iter().all(|&e| e == ScriptedRing::KEEP_ALL)
    }

    /// The topology key name of a point choosing `edges` on the free edge
    /// axes, written from the segments: equal to the `short_name` of the
    /// topology [`FreeAxes::specs`] builds.
    fn topo_name(&self, edges: &[u32]) -> String {
        if self.keeps_all(edges) {
            return TopologySpec::Static.short_name();
        }
        let fixed: usize = self.segments.iter().map(String::len).sum();
        // A free slot writes at most a separator and ten digits.
        let mut name = String::with_capacity(fixed + 11 * edges.len());
        for ((segment, slot), &e) in self.segments.iter().zip(self.free_slots()).zip(edges) {
            name.push_str(segment);
            ScriptedRing::write_slot(&mut name, slot, e);
        }
        name.push_str(self.segments.last().expect("segments start non-empty"));
        name
    }

    /// The candidate scenario `point` stands for, over `base`'s instance.
    fn scenario(&self, base: &Scenario, point: Point) -> Scenario {
        let topo_name = self.topo_name(&point.edges);
        let (schedule, topo, fault) = self.specs(base, point);
        debug_assert_eq!(topo_name, topo.short_name(), "template-built key name");
        let mut key = base.key.clone();
        key.wake = wake_name(&schedule);
        key.topo = topo_name;
        key.fault = fault.short_name();
        Scenario {
            key,
            cfg: base.cfg.clone(),
            mode: base.mode,
            schedule,
            topo,
            fault,
            kind: base.kind.clone(),
            seed: base.seed,
        }
    }

    /// The `wake|topo|fault` key names of `point`'s candidate.
    fn names(&self, base: &Scenario, point: &Point) -> String {
        let (schedule, topo, fault) = self.specs(base, point.clone());
        format!(
            "{}|{}|{}",
            wake_name(&schedule),
            topo.short_name(),
            fault.short_name()
        )
    }
}

/// The decoded adversaries an instance's search has judged.
#[derive(Default)]
struct Seen {
    points: BTreeSet<Point>,
    /// Filled in debug builds only: the `wake|topo|fault` key names of the
    /// points, to check that points and names dedup alike.
    names: BTreeSet<String>,
}

impl Seen {
    /// Records `point`; returns whether it is new.
    fn insert(&mut self, free: &FreeAxes<'_>, base: &Scenario, point: &Point) -> bool {
        let fresh = self.points.insert(point.clone());
        if cfg!(debug_assertions) {
            let named = self.names.insert(free.names(base, point));
            debug_assert_eq!(fresh, named, "point and name dedup disagree on {point:?}");
        }
        fresh
    }
}

/// A declarative search: which instances to attack, with what adversary
/// space, under what objective and budget.
#[derive(Clone, Debug)]
pub struct SearchSpec {
    /// Search name (also the report file stem).
    pub name: String,
    /// The master seed the base scenarios were derived under (recorded in
    /// the report; candidate sampling streams derive from each instance's
    /// own scenario seed).
    pub seed: u64,
    /// Candidates judged per instance (the incumbent's first evaluation
    /// included), whether or not they run: once the incumbent reaches the
    /// instance's score ceiling, later candidates are counted without
    /// running. `0` behaves like `1`: the unperturbed baseline is still
    /// evaluated and recorded as the witness, with zero mutations tried.
    pub budget: u64,
    /// What the adversary maximizes.
    pub objective: Objective,
    /// The instances under attack: each base scenario (the unperturbed
    /// cell) paired with its adversary space.
    pub instances: Vec<(Scenario, AdversarySpace)>,
}

/// The best adversary one instance's search found.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The instance sub-key (`family/n…/t…/r…`) of the attacked cell.
    pub instance: String,
    /// Candidates judged (≤ budget; less only when the space was
    /// exhausted early, and 0 when the instance was rejected or its search
    /// panicked). Candidates judged after the incumbent reached the
    /// instance's score ceiling count here but never run; see
    /// [`SearchOutcome::runs`].
    pub evaluations: u64,
    /// How many times a strictly better candidate replaced the incumbent.
    pub improvements: u64,
    /// The witness's objective score (`(rank, rounds)`, lexicographic).
    pub score: (u64, u64),
    /// The winning candidate, fully replayable: running this scenario
    /// through [`execute_scenario`](crate::execute_scenario) reproduces
    /// [`SearchOutcome::record`] bit for bit.
    pub witness: Scenario,
    /// The witness's measured record (key = the replayable witness key).
    pub record: RunRecord,
    /// Engine iterations executed across every evaluation of this
    /// instance; cache hits execute nothing. The honest per-instance work
    /// measure — byte-identical reports can hide arbitrarily different
    /// amounts of it, which is exactly why it lives outside them.
    pub executed_rounds: u64,
    /// Candidates run: executed through the engine or served from the
    /// store. Preflight rejections and candidates judged at the score
    /// ceiling are not runs. An execution fact, like `executed_rounds`.
    pub runs: u64,
}

impl SearchOutcome {
    /// Whether the witness actually falsifies the algorithm: its run
    /// executed and did not meet the gathering criterion.
    pub fn is_failure(&self) -> bool {
        Objective::Failure.score(&self.record).0 == 2
    }
}

/// The collected result of one adversary search.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Search name (also the report file stem).
    pub name: String,
    /// The master seed of the spec.
    pub seed: u64,
    /// Candidate evaluations per instance.
    pub budget: u64,
    /// What the adversary maximized.
    pub objective: Objective,
    /// One outcome per instance, in spec order.
    pub outcomes: Vec<SearchOutcome>,
    /// How many worker threads executed the search (not serialized into
    /// the deterministic reports).
    pub workers: usize,
    /// Wall-clock duration of the search (not serialized into the
    /// deterministic reports).
    pub wall: Duration,
    /// Candidate-evaluation cache hit/miss counts when the search ran
    /// against a result store (`None` with caching off; not serialized
    /// into the deterministic reports).
    pub cache: Option<CacheStats>,
}

impl SearchReport {
    /// How many instances ended with a genuine failure witness.
    pub fn failure_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failure()).count()
    }

    /// Total candidates judged across all instances.
    pub fn total_evaluations(&self) -> u64 {
        self.outcomes.iter().map(|o| o.evaluations).sum()
    }

    /// Always 0.
    // Shim for perfbench/; the next benchmark change deletes it.
    #[doc(hidden)]
    pub fn total_forked_evals(&self) -> u64 {
        0
    }

    /// Always 0.
    // Shim for perfbench/; the next benchmark change deletes it.
    #[doc(hidden)]
    pub fn total_rounds_saved(&self) -> u64 {
        0
    }

    /// Always 0.
    // Shim for perfbench/; the next benchmark change deletes it.
    #[doc(hidden)]
    pub fn total_ladder_rounds(&self) -> u64 {
        0
    }

    /// Total candidates run (executed or served from the store) across all
    /// instances; at most [`SearchReport::total_evaluations`].
    pub fn total_runs(&self) -> u64 {
        self.outcomes.iter().map(|o| o.runs).sum()
    }

    /// Total engine iterations executed across every evaluation — the
    /// measure of simulation work the search performed.
    pub fn total_executed_rounds(&self) -> u64 {
        self.outcomes.iter().map(|o| o.executed_rounds).sum()
    }

    /// Engine iterations executed per judged candidate — the
    /// hardware-independent cost figure of a search. Candidates judged at
    /// the score ceiling execute nothing and pull it down. `None` when
    /// nothing was evaluated.
    pub fn executed_rounds_per_evaluation(&self) -> Option<f64> {
        let evals = self.total_evaluations();
        (evals > 0).then(|| self.total_executed_rounds() as f64 / evals as f64)
    }

    /// Judged candidates per wall-clock second (candidates judged at the
    /// score ceiling count without running), or `None` when the wall
    /// clock was too coarse to divide by (under one microsecond — an
    /// honest report declines instead of flooring and inflating) or any
    /// evaluation was served from the result cache (it executed nothing).
    pub fn evaluations_per_sec(&self) -> Option<f64> {
        if self.cache.is_some_and(|c| c.hits > 0) {
            return None;
        }
        let secs = self.wall.as_secs_f64();
        (secs >= 1e-6).then(|| self.total_evaluations() as f64 / secs)
    }

    /// The deterministic JSON report: search identity plus one witness
    /// object per instance, in spec order. Identical for any worker
    /// count (wall-clock time and worker count are excluded). Each
    /// witness's `record` object has the exact shape of a campaign
    /// record, so the two report kinds diff against each other cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"search\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"budget\": {},", self.budget);
        let _ = writeln!(out, "  \"objective\": \"{}\",", self.objective.name());
        let _ = writeln!(out, "  \"instance_count\": {},", self.outcomes.len());
        let _ = writeln!(out, "  \"failure_count\": {},", self.failure_count());
        let _ = writeln!(
            out,
            "  \"total_evaluations\": {},",
            self.total_evaluations()
        );
        let _ = writeln!(out, "  \"witnesses\": [");
        for (i, o) in self.outcomes.iter().enumerate() {
            let comma = if i + 1 < self.outcomes.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"instance\": \"{}\", \"evaluations\": {}, \"improvements\": {}, \
                 \"score\": [{}, {}], \"record\": {}}}{}",
                json_escape(&o.instance),
                o.evaluations,
                o.improvements,
                o.score.0,
                o.score.1,
                record_json_object(&o.record),
                comma
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// The deterministic CSV report: the search columns followed by the
    /// witness record under the campaign record columns.
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "instance,evaluations,improvements,score_rank,score_rounds,{RECORD_CSV_COLUMNS}\n"
        );
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                csv_escape(&o.instance),
                o.evaluations,
                o.improvements,
                o.score.0,
                o.score.1,
                record_csv_row(&o.record)
            );
        }
        out
    }

    /// The `BENCH_search.json` trajectory artifact: search-level aggregates
    /// plus the run's execution facts — candidates run, executed rounds,
    /// wall-clock time, worker count and cache stats. Unlike
    /// [`SearchReport::to_json`], this file intentionally records *how*
    /// the search executed, so it differs across machines, worker counts
    /// and cache states while the deterministic reports stay
    /// byte-identical.
    pub fn trajectory_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"search\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"budget\": {},", self.budget);
        let _ = writeln!(out, "  \"objective\": \"{}\",", self.objective.name());
        let _ = writeln!(out, "  \"instance_count\": {},", self.outcomes.len());
        let _ = writeln!(out, "  \"failure_count\": {},", self.failure_count());
        let _ = writeln!(
            out,
            "  \"total_evaluations\": {},",
            self.total_evaluations()
        );
        let _ = writeln!(out, "  \"total_runs\": {},", self.total_runs());
        let _ = writeln!(
            out,
            "  \"total_executed_rounds\": {},",
            self.total_executed_rounds()
        );
        let _ = writeln!(
            out,
            "  \"executed_rounds_per_evaluation\": {},",
            opt_rate(self.executed_rounds_per_evaluation())
        );
        // Cache fields appear only on cached runs, mirroring the campaign
        // trajectory's shape rules.
        if let Some(cache) = self.cache {
            let _ = writeln!(out, "  \"cache_hits\": {},", cache.hits);
            let _ = writeln!(out, "  \"cache_misses\": {},", cache.misses);
        }
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"wall_ms\": {},", self.wall.as_millis());
        let _ = writeln!(
            out,
            "  \"evaluations_per_sec\": {}",
            opt_rate(self.evaluations_per_sec())
        );
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes `<dir>/<name>.json`, `<dir>/<name>.csv` and
    /// `<dir>/BENCH_search.json`, creating `dir` if needed; returns the
    /// three paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_files(&self, dir: &Path) -> io::Result<SearchArtifacts> {
        std::fs::create_dir_all(dir)?;
        let artifacts = SearchArtifacts {
            json: dir.join(format!("{}.json", self.name)),
            csv: dir.join(format!("{}.csv", self.name)),
            trajectory: dir.join("BENCH_search.json"),
        };
        std::fs::write(&artifacts.json, self.to_json())?;
        std::fs::write(&artifacts.csv, self.to_csv())?;
        std::fs::write(&artifacts.trajectory, self.trajectory_json())?;
        Ok(artifacts)
    }
}

/// Where [`SearchReport::write_files`] put its three artifacts.
#[derive(Clone, Debug)]
pub struct SearchArtifacts {
    /// The deterministic per-witness JSON report.
    pub json: PathBuf,
    /// The deterministic per-witness CSV report.
    pub csv: PathBuf,
    /// The `BENCH_search.json` trajectory summary (execution facts).
    pub trajectory: PathBuf,
}

/// Runs the search of every instance of `spec` on `workers` threads
/// (0 = one per available core) and collects the outcomes in spec order.
///
/// The report is bit-for-bit identical for any worker count: each
/// instance's search is sequential and seeded from its own derived seed,
/// and outcomes land in index-ordered result slots regardless of which
/// worker ran them. An instance whose search panics yields a zero-score
/// outcome with a `"panic: ..."` record instead of aborting the hunt.
pub fn run_search(spec: &SearchSpec, workers: usize) -> SearchReport {
    run_search_cached(spec, workers, None)
}

/// [`run_search`] against an optional result store: every candidate a
/// search evaluates is an ordinary [`Scenario`] with a fully replayable
/// key, so its record caches exactly like a campaign cell — a warm
/// re-run of the same spec serves the whole walk from the store, and the
/// per-instance baseline cell (genotype zero) hits across presets that
/// share instances. Cached and engine-produced records are bitwise
/// identical, so the walk — and with it the deterministic reports — is
/// unchanged by the cache state.
pub fn run_search_cached(spec: &SearchSpec, workers: usize, store: Option<&Store>) -> SearchReport {
    let workers = if workers == 0 {
        runner::default_workers()
    } else {
        workers
    }
    .min(spec.instances.len().max(1));
    let start = Instant::now();
    let stats_before = store.map(|s| s.stats());
    let outcomes = sched::run_sharded(
        spec.instances.len(),
        workers,
        |i, scratch| {
            let (base, space) = &spec.instances[i];
            search_instance(base, space, spec.objective, spec.budget, scratch, store)
        },
        |i, message| {
            let base = &spec.instances[i].0;
            unsearched(base, runner::panic_record(base, &message))
        },
    );
    let cache = match (store, stats_before) {
        (Some(s), Some(before)) => {
            let after = s.stats();
            Some(CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
            })
        }
        _ => None,
    };
    SearchReport {
        name: spec.name.clone(),
        seed: spec.seed,
        budget: spec.budget,
        objective: spec.objective,
        outcomes,
        workers,
        wall: start.elapsed(),
        cache,
    }
}

/// [`run_search_cached`]; the last argument is ignored.
// Shim for perfbench/; the next benchmark change deletes it.
#[doc(hidden)]
pub fn run_search_with(
    spec: &SearchSpec,
    workers: usize,
    store: Option<&Store>,
    _fork: bool,
) -> SearchReport {
    run_search_cached(spec, workers, store)
}

/// The sequential per-instance search: greedy one-mutation local search
/// around the incumbent, with seeded random kicks once the neighborhood
/// is exhausted. Deterministic given `(base.seed, space, budget)`.
///
/// Once the incumbent reaches the instance's score ceiling
/// ([`instance_ceiling`]) no candidate can replace it, so the walk goes on
/// decoding, deduplicating and counting candidates but no longer runs
/// them: the walk, the counts and the witness are exactly those of a
/// search that ran everything.
///
/// The walk's genotypes are compact ([`FreeAxes`]): mutations and kick
/// draws touch only multi-choice axes, each kick axis drawn under its
/// full-genotype index, so the walk is the one over every axis. A space
/// that [`searchable`] rejects runs nothing and reports an `unsupported:`
/// record.
fn search_instance(
    base: &Scenario,
    space: &AdversarySpace,
    objective: Objective,
    budget: u64,
    scratch: &mut EngineScratch,
    store: Option<&Store>,
) -> SearchOutcome {
    let free = match searchable(base, space) {
        Ok(free) => free,
        Err(defect) => {
            let mut record = runner::base_record(base);
            record.status = format!(
                "unsupported: {defect} (instance {})",
                base.key.instance_canonical()
            );
            return unsearched(base, record);
        }
    };
    let stream = derive_seed(base.seed, &[SALT_SEARCH]);
    // Dedup on the *decoded* adversary (wake normalization, duplicate
    // choices and the all-KEEP_ALL collapse map several genotypes onto one
    // candidate).
    let mut seen = Seen::default();

    let ceiling = instance_ceiling(base, objective);
    let judge = |record: &RunRecord| {
        let score = objective.score(record);
        debug_assert!(
            ceiling.is_none_or(|c| score <= c),
            "{} scores {score:?}, above its instance's ceiling {ceiling:?}",
            record.key
        );
        score
    };
    let mut work = Work::default();
    // Genotypes are compact: one choice per free axis.
    let mut incumbent = vec![0u32; free.len()];
    let first_point = free.point(base, &incumbent);
    seen.insert(&free, base, &first_point);
    let first = free.scenario(base, first_point);
    let first_record = evaluate(&first, scratch, store, &mut work);
    let mut evaluations = 1u64;
    let mut improvements = 0u64;
    let mut best = (judge(&first_record), first, first_record);
    let mut draws = 0u64;

    // A degenerate space (one candidate) has nothing to mutate: the
    // baseline *is* the witness, as under a ≤1 budget. Skipping the loop
    // keeps single-point spaces from burning hundreds of kick draws that
    // can only dedup away.
    let budget = if free.len() == 0 { 1 } else { budget };
    while evaluations < budget {
        let remaining = (budget - evaluations) as usize;
        // The incumbent's one-mutation neighborhood, in axis/choice order,
        // truncated at the remaining budget. A single-choice axis has no
        // neighbor, so the free axes alone give the same neighborhood.
        let mut batch: Vec<(Vec<u32>, Point)> = Vec::new();
        'neighborhood: for i in 0..free.len() {
            for choice in 0..free.choices(i) as u32 {
                if choice == incumbent[i] {
                    continue;
                }
                let mut genotype = incumbent.clone();
                genotype[i] = choice;
                let point = free.point(base, &genotype);
                if seen.insert(&free, base, &point) {
                    batch.push((genotype, point));
                    if batch.len() == remaining {
                        break 'neighborhood;
                    }
                }
            }
        }
        if batch.is_empty() {
            // Neighborhood exhausted: kick to seeded random genotypes. Each
            // free axis draws under its full-genotype index, so the draws
            // are those of a walk over every axis (a single-choice axis
            // could only draw its one choice).
            let want = KICK.min(remaining);
            let mut attempts = 0usize;
            while batch.len() < want && attempts < 64 * KICK {
                attempts += 1;
                let genotype: Vec<u32> = (0..free.len())
                    .map(|i| {
                        let draw = derive_seed(stream, &[draws, free.axes[i] as u64]);
                        (draw % free.choices(i) as u64) as u32
                    })
                    .collect();
                draws += 1;
                let point = free.point(base, &genotype);
                if seen.insert(&free, base, &point) {
                    batch.push((genotype, point));
                }
            }
            if batch.is_empty() {
                break; // the whole reachable space is evaluated
            }
        }
        for (genotype, point) in batch {
            evaluations += 1;
            if ceiling.is_some_and(|c| best.0 >= c) {
                continue; // judged: it cannot beat the incumbent
            }
            // Only a candidate that runs is built into a scenario.
            let candidate = free.scenario(base, point);
            let record = evaluate(&candidate, scratch, store, &mut work);
            let score = judge(&record);
            // Strictly-greater only: ties keep the earlier candidate, so
            // the walk (and the witness) is deterministic.
            if score > best.0 {
                best = (score, candidate, record);
                incumbent = genotype;
                improvements += 1;
            }
        }
    }

    SearchOutcome {
        instance: base.key.instance_canonical(),
        evaluations,
        improvements,
        score: best.0,
        witness: best.1,
        record: best.2,
        executed_rounds: work.executed_rounds,
        runs: work.runs,
    }
}

/// The free axes of `space`, or why its candidates cannot run over
/// `base`'s instance: checked once per instance, so a malformed space
/// costs nothing instead of a budget of engine errors. An edge choice
/// other than [`ScriptedRing::KEEP_ALL`] must be an edge id of a cycle
/// base graph, so every script a candidate builds passes the runner's
/// preflight.
fn searchable<'a>(base: &Scenario, space: &'a AdversarySpace) -> Result<FreeAxes<'a>, String> {
    let free = FreeAxes::of(space).map_err(|d| format!("adversary axis {d} offers no choice"))?;
    let team = base.cfg.agent_count();
    let wake_axes = space.wake_offsets.len();
    if wake_axes != 0 && wake_axes != team {
        return Err(format!("{wake_axes} wake axes for a team of {team}"));
    }
    if let Some((label, _)) = space
        .crash_rounds
        .iter()
        .find(|(label, _)| base.cfg.rank(*label).is_none())
    {
        return Err(format!("crash label {label} is not in the team"));
    }
    let graph = base.cfg.graph();
    let edges = graph.edge_count();
    let cycle = is_cycle(graph);
    for (i, choices) in space.edge_script.iter().enumerate() {
        let d = free.first_edge + i;
        for &e in choices.iter().filter(|&&e| e != ScriptedRing::KEEP_ALL) {
            if !cycle {
                return Err(format!(
                    "adversary axis {d} removes edge {e} from a base graph that is not a cycle"
                ));
            }
            if e as usize >= edges {
                return Err(format!(
                    "adversary axis {d} offers edge {e} of a base graph with {edges} edges"
                ));
            }
        }
    }
    Ok(free)
}

/// The outcome of an instance whose search ran nothing: a zero score, the
/// base cell as witness and `record` (a panic or a rejection) as its
/// record.
fn unsearched(base: &Scenario, record: RunRecord) -> SearchOutcome {
    SearchOutcome {
        instance: base.key.instance_canonical(),
        evaluations: 0,
        improvements: 0,
        score: (0, 0),
        witness: base.clone(),
        record,
        executed_rounds: 0,
        runs: 0,
    }
}

/// The score ceiling of `base`'s instance under `objective`, or `None`
/// when the instance has none and is never skipped. Every candidate shares
/// the instance's configuration and seed, so every gathering candidate
/// stops at the same round limit, taken from the harness that enforces
/// it. Gossip and unknown-bound instances get no ceiling.
fn instance_ceiling(base: &Scenario, objective: Objective) -> Option<(u64, u64)> {
    match base.kind {
        ScenarioKind::Gather => {
            let limit = KnownSetup::for_scenario(&base.cfg, base.seed).round_limit(&base.cfg);
            Some(objective.ceiling(limit))
        }
        ScenarioKind::Gossip(_) | ScenarioKind::Unknown { .. } => None,
    }
}

/// What one instance's search ran: execution facts, never part of the
/// deterministic reports.
#[derive(Default)]
struct Work {
    /// Candidates executed or served from the store.
    runs: u64,
    /// Engine iterations the executed candidates took.
    executed_rounds: u64,
}

/// Measures one candidate with the two halves of the campaign runner's
/// solo [`execute_scenario_with_scratch`](runner::execute_scenario_with_scratch),
/// preflight and execution, so a witness record replays bit for bit
/// through [`execute_scenario`](crate::execute_scenario), and books the
/// run in `work`. The store is consulted between the halves, so the record
/// is built and the candidate preflighted once.
///
/// With a store, a runnable candidate is served from the cache where
/// possible and otherwise writes through after execution; the record is
/// bitwise independent of the cache state (cached entries *are* prior
/// engine output, re-verified by key and seed), so the search walk does
/// not depend on cache hits.
fn evaluate(
    candidate: &Scenario,
    scratch: &mut EngineScratch,
    store: Option<&Store>,
    work: &mut Work,
) -> RunRecord {
    let mut record = runner::base_record(candidate);
    if !runner::preflight(candidate, &mut record) {
        return record;
    }
    work.runs += 1;
    if let Some(cached) = store.and_then(|s| s.lookup(candidate)) {
        return cached;
    }
    let record = runner::execute_preflighted(candidate, record, scratch);
    work.executed_rounds += record.engine_iterations;
    if let Some(store) = store {
        store.insert(candidate, &record);
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{scenario_seed, spread};
    use crate::record::ScenarioKey;
    use nochatter_core::CommMode;
    use nochatter_graph::generators;

    fn base_scenario() -> Scenario {
        let key = ScenarioKey {
            family: "ring".into(),
            n: 4,
            team: vec![2, 3],
            wake: "simul".into(),
            topo: "static".into(),
            fault: "none".into(),
            mode: "silent".into(),
            variant: "gather".into(),
            rep: 0,
        };
        Scenario {
            seed: scenario_seed(7, &key),
            key,
            cfg: spread(generators::ring(4), &[2, 3]).unwrap(),
            mode: CommMode::Silent,
            schedule: WakeSchedule::Simultaneous,
            topo: TopologySpec::Static,
            fault: FaultSpec::None,
            kind: ScenarioKind::Gather,
        }
    }

    fn small_space() -> AdversarySpace {
        AdversarySpace {
            wake_offsets: vec![vec![0], vec![0, 3, u64::MAX]],
            crash_rounds: vec![(Label::new(3).unwrap(), vec![u64::MAX, 16])],
            edge_script: vec![vec![ScriptedRing::KEEP_ALL, 0, 2]],
        }
    }

    #[test]
    fn genotype_zero_decodes_to_the_unperturbed_adversary() {
        let base = base_scenario();
        let space = small_space();
        let c = space.decode(&base, &[0, 0, 0, 0]);
        assert_eq!(c.schedule, WakeSchedule::Explicit(vec![0, 0]));
        assert_eq!(c.fault, FaultSpec::None);
        assert_eq!(c.topo, TopologySpec::Static);
        assert_eq!(c.key.topo, "static");
        assert_eq!(c.key.fault, "none");
        assert_eq!(c.seed, base.seed, "candidates share the instance seed");
        assert_eq!(c.cfg, base.cfg, "candidates share the instance graph");
    }

    #[test]
    fn decode_normalizes_wake_offsets_and_builds_pure_specs() {
        let base = base_scenario();
        let space = AdversarySpace {
            wake_offsets: vec![vec![5], vec![9, u64::MAX]],
            crash_rounds: vec![(Label::new(3).unwrap(), vec![u64::MAX, 16])],
            edge_script: vec![vec![ScriptedRing::KEEP_ALL, 1]],
        };
        let c = space.decode(&base, &[0, 0, 1, 1]);
        // Offsets (5, 9) anchor at the earliest finite wake: (0, 4).
        assert_eq!(c.schedule, WakeSchedule::Explicit(vec![0, 4]));
        assert_eq!(
            c.fault,
            FaultSpec::CrashAt(vec![CrashPoint {
                label: Label::new(3).unwrap(),
                round: 16,
            }])
        );
        assert_eq!(
            c.topo,
            TopologySpec::Scripted(ScriptedRing {
                script: vec![1].into()
            })
        );
        assert_eq!(c.key.wake, "explicit0.4");
        assert_eq!(c.key.fault, "crash3@16");
        // A schedule where nobody self-wakes is not runnable; the decode
        // collapses onto the base schedule instead.
        let dormant = space.decode(&base, &[0, 1, 0, 0]);
        // (5, MAX) still has a finite anchor; craft an all-MAX space:
        let all_max = AdversarySpace {
            wake_offsets: vec![vec![u64::MAX], vec![u64::MAX]],
            crash_rounds: vec![],
            edge_script: vec![],
        };
        assert_eq!(dormant.schedule, WakeSchedule::Explicit(vec![0, u64::MAX]));
        let collapsed = all_max.decode(&base, &[0, 0]);
        assert_eq!(collapsed.schedule, base.schedule);
    }

    /// A decode that reads every axis of a full genotype straight into
    /// specs, with no free axes and no points: the oracle the point-based
    /// decode is checked against.
    fn reference_specs(
        space: &AdversarySpace,
        base: &Scenario,
        genotype: &[u32],
    ) -> (WakeSchedule, TopologySpec, FaultSpec) {
        let mut g = genotype.iter().map(|&c| c as usize);
        let schedule = if space.wake_offsets.is_empty() {
            base.schedule.clone()
        } else {
            let mut offsets: Vec<u64> = space
                .wake_offsets
                .iter()
                .map(|choices| choices[g.next().unwrap()])
                .collect();
            match offsets.iter().copied().filter(|&o| o != u64::MAX).min() {
                Some(min) => {
                    for o in offsets.iter_mut().filter(|o| **o != u64::MAX) {
                        *o -= min;
                    }
                    WakeSchedule::Explicit(offsets)
                }
                None => base.schedule.clone(),
            }
        };
        let points: Vec<CrashPoint> = space
            .crash_rounds
            .iter()
            .map(|&(label, ref choices)| (label, choices[g.next().unwrap()]))
            .filter(|&(_, round)| round != u64::MAX)
            .map(|(label, round)| CrashPoint { label, round })
            .collect();
        let fault = if points.is_empty() {
            FaultSpec::None
        } else {
            FaultSpec::CrashAt(points)
        };
        let script: Arc<[u32]> = space
            .edge_script
            .iter()
            .map(|choices| choices[g.next().unwrap()])
            .collect();
        let topo = if script.iter().all(|&e| e == ScriptedRing::KEEP_ALL) {
            TopologySpec::Static
        } else {
            TopologySpec::Scripted(ScriptedRing { script })
        };
        (schedule, topo, fault)
    }

    /// A drawn small space with the shapes that make genotypes collide:
    /// duplicate choices, all-`u64::MAX` wake axes, an explicit base
    /// schedule equal to a normalized candidate, and single-choice edge
    /// axes that keep all edges or remove one.
    fn drawn_space(
        base_pick: usize,
        wake: &[Vec<usize>],
        crash: &[(usize, Vec<usize>)],
        edges: &[Vec<usize>],
    ) -> (Scenario, AdversarySpace) {
        const WAKE: [u64; 5] = [0, 3, 5, u64::MAX, u64::MAX];
        const CRASH: [u64; 4] = [u64::MAX, 8, 8, 16];
        const EDGE: [u32; 5] = [ScriptedRing::KEEP_ALL, 0, 1, 2, ScriptedRing::KEEP_ALL];
        const LABELS: [u64; 3] = [2, 3, 9];
        let space = AdversarySpace {
            wake_offsets: wake
                .iter()
                .map(|axis| axis.iter().map(|&i| WAKE[i]).collect())
                .collect(),
            crash_rounds: crash
                .iter()
                .map(|(l, axis)| {
                    (
                        Label::new(LABELS[*l]).unwrap(),
                        axis.iter().map(|&i| CRASH[i]).collect(),
                    )
                })
                .collect(),
            edge_script: edges
                .iter()
                .map(|axis| axis.iter().map(|&i| EDGE[i]).collect())
                .collect(),
        };
        let mut base = base_scenario();
        base.schedule = match base_pick {
            0 => WakeSchedule::Simultaneous,
            1 => WakeSchedule::FirstOnly,
            // The normalized offsets of the wake genotype picking choice
            // `base_pick - 2` on every axis, a base some candidate
            // normalizes onto (or a fixed one if that pick is all-MAX).
            _ => {
                let picked: Vec<u64> = space
                    .wake_offsets
                    .iter()
                    .map(|axis| axis[(base_pick - 2) % axis.len()])
                    .collect();
                let finite = picked.iter().copied().filter(|&o| o != u64::MAX);
                WakeSchedule::Explicit(match finite.min() {
                    Some(min) => picked
                        .iter()
                        .map(|&o| if o == u64::MAX { o } else { o - min })
                        .collect(),
                    None => vec![0, 3],
                })
            }
        };
        (base, space)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn points_dedup_exactly_like_key_names(
            base_pick in 0usize..6,
            wake in proptest::collection::vec(proptest::collection::vec(0usize..5, 1..4), 0..4),
            crash in proptest::collection::vec(
                (0usize..3, proptest::collection::vec(0usize..4, 1..4)),
                0..3,
            ),
            edges in proptest::collection::vec(proptest::collection::vec(0usize..5, 1..4), 0..6),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (base, space) = drawn_space(base_pick, &wake, &crash, &edges);
            let free = FreeAxes::of(&space).unwrap();
            let dims = space.dims();
            // Genotype zero plus seeded draws over every axis.
            let genotypes: Vec<Vec<u32>> = (0..48u64)
                .map(|k| {
                    (0..dims)
                        .map(|d| {
                            let draw = if k == 0 { 0 } else { derive_seed(seed, &[k, d as u64]) };
                            (draw % space.choices(d) as u64) as u32
                        })
                        .collect()
                })
                .collect();
            let mut decoded = Vec::new();
            for genotype in &genotypes {
                let compact: Vec<u32> = free.axes.iter().map(|&d| genotype[d]).collect();
                let point = free.point(&base, &compact);
                let (schedule, topo, fault) = reference_specs(&space, &base, genotype);
                let names = format!(
                    "{}|{}|{}",
                    wake_name(&schedule),
                    topo.short_name(),
                    fault.short_name()
                );
                proptest::prop_assert_eq!(&free.names(&base, &point), &names);
                // The on-demand build and the public decode agree with the
                // reference, key included.
                for built in [free.scenario(&base, point.clone()), space.decode(&base, genotype)] {
                    proptest::prop_assert_eq!(&built.schedule, &schedule);
                    proptest::prop_assert_eq!(&built.topo, &topo);
                    proptest::prop_assert_eq!(&built.fault, &fault);
                    let mut key = base.key.clone();
                    key.wake = wake_name(&schedule);
                    key.topo = topo.short_name();
                    key.fault = fault.short_name();
                    proptest::prop_assert_eq!(&built.key, &key);
                    proptest::prop_assert_eq!(built.seed, base.seed);
                }
                decoded.push((point, names));
            }
            for (a, name_a) in &decoded {
                for (b, name_b) in &decoded {
                    proptest::prop_assert_eq!(a == b, name_a == name_b, "{:?} vs {:?}", a, b);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn template_built_scripts_and_names_match_the_slot_by_slot_build(
            wake in proptest::collection::vec(proptest::collection::vec(0usize..3, 1..3), 0..3),
            edges in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), proptest::collection::vec(0usize..7, 1..4)),
                0..12,
            ),
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Keep-all twice, so fixed slots often keep all edges and the
            // static collapse is on; multi-digit ids up to u32::MAX - 1.
            const EDGE: [u32; 7] =
                [ScriptedRing::KEEP_ALL, ScriptedRing::KEEP_ALL, 0, 9, 10, 123, u32::MAX - 1];
            const WAKE: [u64; 3] = [0, 4, u64::MAX];
            let space = AdversarySpace {
                wake_offsets: wake
                    .iter()
                    .map(|axis| axis.iter().map(|&i| WAKE[i]).collect())
                    .collect(),
                crash_rounds: Vec::new(),
                // A fixed slot keeps its first drawn choice alone.
                edge_script: edges
                    .iter()
                    .map(|(fixed, axis)| {
                        let keep = if *fixed { 1 } else { axis.len() };
                        axis[..keep].iter().map(|&i| EDGE[i]).collect()
                    })
                    .collect(),
            };
            // Names and scripts are built without running, so the edge ids
            // need not exist in the base graph.
            let base = base_scenario();
            let free = FreeAxes::of(&space).unwrap();
            let free_edges = space.edge_script.iter().filter(|c| c.len() > 1).count();
            proptest::prop_assert_eq!(free.segments.len(), free_edges + 1);
            proptest::prop_assert!(free.segments[0].starts_with(ScriptedRing::NAME_PREFIX));
            let dims = space.dims();
            for k in 0..24u64 {
                let genotype: Vec<u32> = (0..dims)
                    .map(|d| {
                        let draw = if k == 0 { 0 } else { derive_seed(seed, &[k, d as u64]) };
                        (draw % space.choices(d) as u64) as u32
                    })
                    .collect();
                let (_, topo, _) = reference_specs(&space, &base, &genotype);
                let compact: Vec<u32> = free.axes.iter().map(|&d| genotype[d]).collect();
                let built = free.scenario(&base, free.point(&base, &compact));
                proptest::prop_assert_eq!(&built.topo, &topo);
                proptest::prop_assert_eq!(&built.key.topo, &topo.short_name());
                proptest::prop_assert_eq!(&space.decode(&base, &genotype).topo, &topo);
            }
        }
    }

    #[test]
    fn segments_cut_the_name_around_free_slots() {
        let x = ScriptedRing::KEEP_ALL;
        let free = vec![x, 0, 12];
        // Free slots first, adjacent, and last; fixed slots between them
        // remove edges, so nothing collapses to static.
        let space = AdversarySpace {
            wake_offsets: Vec::new(),
            crash_rounds: Vec::new(),
            edge_script: vec![
                free.clone(),
                free.clone(),
                vec![123],
                vec![x],
                free.clone(),
                vec![7],
                free,
            ],
        };
        let axes = FreeAxes::of(&space).unwrap();
        assert_eq!(axes.segments, ["sring", "", ".123.x", ".7", ""]);
        assert_eq!(&*axes.template, &[x, x, 123, x, x, 7, x]);
        assert_eq!(axes.topo_name(&[x, 0, 12, 12]), "sringx.0.123.x.12.7.12");
        assert_eq!(axes.topo_name(&[x; 4]), "sringx.x.123.x.x.7.x");
        // No edge axes: one segment, and every point is static.
        let none = AdversarySpace {
            edge_script: Vec::new(),
            ..space
        };
        let axes = FreeAxes::of(&none).unwrap();
        assert_eq!(axes.segments, ["sring"]);
        assert_eq!(axes.topo_name(&[]), "static");
    }

    #[test]
    fn collision_shapes_decode_to_one_point() {
        let x = ScriptedRing::KEEP_ALL;
        // Offsets (0, 3) normalize onto the explicit base schedule (0, 3),
        // and an all-MAX pick, which nobody self-wakes in, collapses onto
        // that base too: one point, one key name.
        let (base, space) = drawn_space(2, &[vec![0, 3], vec![1, 3]], &[], &[]);
        let free = FreeAxes::of(&space).unwrap();
        assert_eq!(free.point(&base, &[0, 0]), free.point(&base, &[1, 1]));
        assert_eq!(free.point(&base, &[0, 0]).wake, Some(vec![0, 3]));
        assert_eq!(free.point(&base, &[1, 0]).wake, Some(vec![u64::MAX, 0]));
        assert_eq!(space.decode(&base, &[1, 1]).key.wake, "explicit0.3");
        // Duplicate choices decode to one point.
        let (base, space) = drawn_space(0, &[], &[(1, vec![1, 2])], &[]);
        let free = FreeAxes::of(&space).unwrap();
        assert_eq!(free.point(&base, &[0]), free.point(&base, &[1]));
        // A single-choice edge axis that removes an edge keeps every
        // point off the static topology; one that keeps all does not.
        for (lead, topo) in [
            (x, TopologySpec::Static),
            (
                2,
                TopologySpec::Scripted(ScriptedRing {
                    script: vec![2, x].into(),
                }),
            ),
        ] {
            let space = AdversarySpace {
                wake_offsets: vec![],
                crash_rounds: vec![],
                edge_script: vec![vec![lead], vec![x, 0]],
            };
            let free = FreeAxes::of(&space).unwrap();
            assert_eq!(free.len(), 1);
            assert_eq!(space.decode(&base, &[0, 0]).topo, topo);
            assert_eq!(
                space.decode(&base, &[0, 1]).key.topo,
                if lead == x { "sringx.0" } else { "sring2.0" }
            );
        }
    }

    #[test]
    fn decoded_keys_pin_long_scripts_explicit_wakes_and_multi_point_crashes() {
        let base = base_scenario();
        let x = ScriptedRing::KEEP_ALL;
        let mut edge_script = vec![vec![x]; 6];
        edge_script.push(vec![x, 0, 3]);
        edge_script.push(vec![1]);
        edge_script.push(vec![x, 2]);
        let space = AdversarySpace {
            wake_offsets: vec![vec![4], vec![u64::MAX, 9]],
            crash_rounds: vec![
                (Label::new(2).unwrap(), vec![u64::MAX, 40]),
                (Label::new(3).unwrap(), vec![7]),
            ],
            edge_script,
        };
        let c = space.decode(&base, &[0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1]);
        assert_eq!(c.key.wake, "explicit0.x");
        assert_eq!(c.key.topo, "sringx.x.x.x.x.x.3.1.2");
        assert_eq!(c.key.fault, "crash2@40+3@7");
        assert_eq!(
            c.key.canonical(),
            "ring/n4/t2.3/wexplicit0.x/sringx.x.x.x.x.x.3.1.2/crash2@40+3@7/silent/gather/r0"
        );
    }

    #[test]
    #[should_panic(expected = "offers no choice")]
    fn decode_rejects_a_choice_the_axis_does_not_offer() {
        let _ = small_space().decode(&base_scenario(), &[1, 0, 0, 0]);
    }

    /// The search walk over every axis: full genotypes, [`reference_specs`]
    /// decoding, dedup on key names and every candidate run; the oracle
    /// for the walk over free axes. Returns the evaluations, the
    /// improvements, the witness record and the executed rounds.
    fn reference_walk(
        base: &Scenario,
        space: &AdversarySpace,
        objective: Objective,
        budget: u64,
    ) -> (u64, u64, RunRecord, u64) {
        let dims = space.dims();
        let stream = derive_seed(base.seed, &[SALT_SEARCH]);
        let decode = |genotype: &[u32]| {
            let (schedule, topo, fault) = reference_specs(space, base, genotype);
            let mut s = base.clone();
            s.key.wake = wake_name(&schedule);
            s.key.topo = topo.short_name();
            s.key.fault = fault.short_name();
            (s.schedule, s.topo, s.fault) = (schedule, topo, fault);
            s
        };
        let name = |s: &Scenario| format!("{}|{}|{}", s.key.wake, s.key.topo, s.key.fault);
        let mut seen = BTreeSet::new();
        let mut incumbent = vec![0u32; dims];
        let first = decode(&incumbent);
        seen.insert(name(&first));
        let record = runner::execute_scenario(&first);
        let mut executed_rounds = record.engine_iterations;
        let (mut evaluations, mut improvements, mut draws) = (1u64, 0u64, 0u64);
        let mut best = (objective.score(&record), record);
        let budget = if space.candidates() == 1 { 1 } else { budget };
        while evaluations < budget {
            let remaining = (budget - evaluations) as usize;
            let mut batch = Vec::new();
            'neighborhood: for d in 0..dims {
                for choice in 0..space.choices(d) as u32 {
                    let mut genotype = incumbent.clone();
                    genotype[d] = choice;
                    let candidate = decode(&genotype);
                    if choice != incumbent[d] && seen.insert(name(&candidate)) {
                        batch.push((genotype, candidate));
                        if batch.len() == remaining {
                            break 'neighborhood;
                        }
                    }
                }
            }
            if batch.is_empty() {
                let want = KICK.min(remaining);
                let mut attempts = 0;
                while batch.len() < want && attempts < 64 * KICK {
                    attempts += 1;
                    let genotype: Vec<u32> = (0..dims)
                        .map(|d| {
                            let draw = derive_seed(stream, &[draws, d as u64]);
                            (draw % space.choices(d) as u64) as u32
                        })
                        .collect();
                    draws += 1;
                    let candidate = decode(&genotype);
                    if seen.insert(name(&candidate)) {
                        batch.push((genotype, candidate));
                    }
                }
                if batch.is_empty() {
                    break;
                }
            }
            for (genotype, candidate) in batch {
                evaluations += 1;
                let record = runner::execute_scenario(&candidate);
                executed_rounds += record.engine_iterations;
                let score = objective.score(&record);
                if score > best.0 {
                    best = (score, record);
                    incumbent = genotype;
                    improvements += 1;
                }
            }
        }
        (evaluations, improvements, best.1, executed_rounds)
    }

    #[test]
    fn the_free_axis_walk_is_the_walk_over_every_axis() {
        // Single-choice axes before, between and after the free ones, and
        // budgets past the neighborhood, so kicks draw many times. Every
        // candidate runs under `SlowGather` here, so the executed rounds
        // fingerprint the set of candidates walked.
        let x = ScriptedRing::KEEP_ALL;
        let space = AdversarySpace {
            wake_offsets: vec![vec![0], vec![0, 3, 5, u64::MAX]],
            crash_rounds: vec![
                (Label::new(2).unwrap(), vec![u64::MAX]),
                (Label::new(3).unwrap(), vec![u64::MAX, 16, 40, 90]),
            ],
            edge_script: vec![
                vec![x],
                vec![x, 0, 1, 2, 3],
                vec![1],
                vec![x, 0, 1, 2, 3],
                vec![x],
            ],
        };
        for (seed, budget) in [(7, 30), (8, 60)] {
            let mut base = base_scenario();
            base.seed = scenario_seed(seed, &base.key);
            let reference = reference_walk(&base, &space, Objective::SlowGather, budget);
            let spec = SearchSpec {
                name: "walk".into(),
                seed,
                budget,
                objective: Objective::SlowGather,
                instances: vec![(base, space.clone())],
            };
            let o = &run_search(&spec, 1).outcomes[0];
            assert_eq!(o.runs, o.evaluations);
            assert_eq!(
                (o.evaluations, o.improvements, &o.record, o.executed_rounds),
                (reference.0, reference.1, &reference.2, reference.3),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn objective_scores_rank_failures_over_slow_successes() {
        let base = base_scenario();
        let mut ok = runner::base_record(&base);
        ok.ok = true;
        ok.status = "gathered".into();
        ok.rounds = 100;
        let mut failed = ok.clone();
        failed.ok = false;
        failed.status = "not all agents declared".into();
        failed.rounds = 10;
        let mut rejected = ok.clone();
        rejected.ok = false;
        rejected.status = "unsupported: whatever".into();
        assert!(Objective::Failure.score(&failed) > Objective::Failure.score(&ok));
        assert!(Objective::Failure.score(&ok) > Objective::Failure.score(&rejected));
        assert_eq!(Objective::Failure.score(&rejected), (0, 0));
        assert_eq!(Objective::SlowGather.score(&ok), (1, 100));
        assert_eq!(Objective::SlowGather.score(&failed), (0, 0));
        // Nothing a run stopped at round 100 reports outranks the ceiling.
        assert_eq!(Objective::Failure.ceiling(100), (2, 100));
        assert_eq!(Objective::SlowGather.ceiling(100), (1, 100));
        for record in [&ok, &failed, &rejected] {
            assert!(Objective::Failure.score(record) <= Objective::Failure.ceiling(100));
            assert!(Objective::SlowGather.score(record) <= Objective::SlowGather.ceiling(100));
        }
        assert_eq!(Objective::Failure.name(), "failure");
        assert_eq!(Objective::SlowGather.name(), "slow-gather");
    }

    #[test]
    fn candidate_count_is_the_choice_product() {
        assert_eq!(small_space().candidates(), 3 * 2 * 3);
        assert_eq!(small_space().dims(), 4);
    }

    #[test]
    fn search_finds_the_crash_failure_and_spends_its_budget() {
        let base = base_scenario();
        let spec = SearchSpec {
            name: "unit".into(),
            seed: 7,
            budget: 12,
            objective: Objective::Failure,
            instances: vec![(base, small_space())],
        };
        let report = run_search(&spec, 1);
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert!(o.evaluations <= 12);
        assert!(
            o.is_failure(),
            "the crash axis must yield a failure witness, got {} ({})",
            o.record.key,
            o.record.status
        );
        assert_eq!(report.failure_count(), 1);
        assert!(o.record.key.canonical().contains("crash3@16"));
    }

    #[test]
    fn report_serialization_is_deterministic_and_excludes_execution_facts() {
        let base = base_scenario();
        let spec = SearchSpec {
            name: "unit".into(),
            seed: 7,
            budget: 6,
            objective: Objective::Failure,
            instances: vec![(base, small_space())],
        };
        let mut a = run_search(&spec, 1);
        let mut b = run_search(&spec, 1);
        a.wall = Duration::from_secs(1);
        b.wall = Duration::from_secs(9);
        a.workers = 1;
        b.workers = 64;
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
        assert!(a.to_json().contains("\"objective\": \"failure\""));
        assert!(a
            .to_csv()
            .starts_with("instance,evaluations,improvements,score_rank,score_rounds,key,"));
    }

    #[test]
    fn degenerate_spaces_and_zero_budgets_record_the_baseline() {
        let base = base_scenario();
        let solo = AdversarySpace {
            wake_offsets: vec![vec![0], vec![0]],
            crash_rounds: vec![],
            edge_script: vec![],
        };
        assert_eq!(solo.candidates(), 1);
        let spec = SearchSpec {
            name: "unit-degenerate".into(),
            seed: 7,
            budget: 64,
            objective: Objective::Failure,
            instances: vec![(base.clone(), solo)],
        };
        let report = run_search(&spec, 1);
        let o = &report.outcomes[0];
        assert_eq!(o.evaluations, 1, "a single-point space is one evaluation");
        assert_eq!(o.improvements, 0);
        assert!(o.record.ok, "the unperturbed baseline gathers");
        let zero = SearchSpec {
            name: "unit-budget0".into(),
            seed: 7,
            budget: 0,
            objective: Objective::Failure,
            instances: vec![(base, small_space())],
        };
        let report = run_search(&zero, 1);
        let o = &report.outcomes[0];
        assert_eq!(o.evaluations, 1, "budget 0 still records the baseline");
        assert_eq!(o.improvements, 0);
        assert!(o.record.ok);
        assert_eq!(report.total_evaluations(), 1);
    }

    #[test]
    fn evaluation_rate_is_null_once_any_evaluation_comes_from_the_cache() {
        let dir = std::env::temp_dir().join("nochatter-lab-search-rate-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let spec = SearchSpec {
            name: "unit-rate".into(),
            seed: 7,
            budget: 3,
            objective: Objective::Failure,
            instances: vec![(base_scenario(), small_space())],
        };
        let mut cold = run_search_cached(&spec, 1, Some(&store));
        assert_eq!(cold.cache.map(|c| c.hits), Some(0));
        cold.wall = Duration::from_millis(5);
        assert!(cold.evaluations_per_sec().is_some());

        let mut warm = run_search_cached(&spec, 1, Some(&store));
        assert!(warm.cache.is_some_and(|c| c.hits > 0));
        warm.wall = Duration::from_millis(5);
        assert_eq!(warm.evaluations_per_sec(), None);
        assert!(warm
            .trajectory_json()
            .contains("\"evaluations_per_sec\": null"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_files_round_trips() {
        let dir = std::env::temp_dir().join("nochatter-lab-search-test");
        let spec = SearchSpec {
            name: "unit-files".into(),
            seed: 7,
            budget: 2,
            objective: Objective::SlowGather,
            instances: vec![(base_scenario(), small_space())],
        };
        let report = run_search(&spec, 1);
        let artifacts = report.write_files(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(artifacts.json).unwrap(),
            report.to_json()
        );
        assert_eq!(
            std::fs::read_to_string(artifacts.csv).unwrap(),
            report.to_csv()
        );
    }
}
