//! Hot-path microbenchmarks: CSR graph traversal and the engine round
//! loop, the two layers flattened by the simulation hot-path refactor.
//!
//! Besides the usual criterion report, running this bench writes the
//! `BENCH_hotpath.json` trajectory artifact (override the path with
//! `NOCHATTER_HOTPATH_OUT`): one JSON object per workload with its
//! measured mean, fastest and slowest iteration time and unit rate. The
//! committed copy at the workspace root is the perf trajectory —
//! regenerate it with `cargo bench --bench hotpath` after hot-path work
//! and commit the diff.
//! CI runs the suite in `--test` mode (one tiny iteration per workload)
//! and diffs the *schema* of the emitted file — ids, units and field
//! names, never timings — so the artifact cannot silently rot.

use std::fmt::Write as _;
use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};

use nochatter_core::harness::run_scenario_with_scratch;
use nochatter_core::{BehaviorSlot, CommMode};
use nochatter_explore::{Explo, Uxs};
use nochatter_graph::dynamic::SeededEdgeFailure;
use nochatter_graph::{algo, generators, Graph, InitialConfiguration, Label, NodeId, Port};
use nochatter_lab::{presets, run_campaign_cached, run_search_cached, Store, TRACE_CAPACITY};
use nochatter_sim::proc::{ProcBehavior, Procedure};
use nochatter_sim::FaultSpec;
use nochatter_sim::{
    Action, Declaration, Engine, EngineScratch, Obs, Poll, RunOutcome, Sensing, Static,
    TopologySpec, Trace, WakeSchedule,
};
use std::sync::Arc;

fn label(v: u64) -> Label {
    Label::new(v).unwrap()
}

/// Walks forever: out of each node by the port after the entry port, which
/// varies the CSR row accessed every step.
struct Walker;
impl Procedure for Walker {
    type Output = ();
    fn poll(&mut self, obs: &Obs) -> Poll<()> {
        let next = obs.entry_port.map_or(0, |p| (p.number() + 1) % obs.degree);
        Poll::Yield(Action::TakePort(Port::new(next)))
    }
}

/// A port-chasing walk of `steps` edge traversals — the pure CSR lookup
/// chain with no engine around it. Returns the end node so the walk cannot
/// be optimized away.
fn csr_walk(g: &Graph, steps: u64) -> NodeId {
    let mut cur = NodeId::new(0);
    let mut port = Port::new(0);
    for _ in 0..steps {
        let (to, back) = g.neighbor(cur, port).expect("walk stays on valid ports");
        cur = to;
        port = Port::new((back.number() + 1) % g.degree(to));
    }
    cur
}

/// One engine run of `agents` walkers for `rounds` rounds on a ring,
/// through the caller's scratch.
fn engine_walk(g: &Graph, agents: u32, rounds: u64, sensing: Sensing, scratch: &mut EngineScratch) {
    let n = g.node_count() as u32;
    let mut engine = Engine::new(g);
    engine.set_sensing(sensing);
    for i in 0..agents {
        engine.add_agent(
            label(u64::from(i) + 1),
            NodeId::new(i * (n / agents) % n),
            Box::new(ProcBehavior::declaring(Walker)),
        );
    }
    engine.set_wake_schedule(WakeSchedule::Simultaneous);
    black_box(engine.run_with_scratch(rounds, scratch).unwrap());
}

/// A walker that tolerates blocked moves: on `blocked` it re-attempts a
/// different port, so dynamic runs keep generating traversal attempts.
struct BlockedTolerantWalker;
impl Procedure for BlockedTolerantWalker {
    type Output = ();
    fn poll(&mut self, obs: &Obs) -> Poll<()> {
        let base = obs.entry_port.map_or(0, |p| p.number() + 1);
        let next = (base + u32::from(obs.blocked)) % obs.degree;
        Poll::Yield(Action::TakePort(Port::new(next)))
    }
}

/// [`engine_walk`] through the dynamic topology machinery: the engine is
/// monomorphized over `SpecView` and pays one edge-presence check per move
/// attempt. Compare against `round_loop/walkers` to see the per-round cost
/// of the dynamism axis.
fn engine_walk_dynamic(
    g: &Graph,
    topo: &TopologySpec,
    agents: u32,
    rounds: u64,
    scratch: &mut EngineScratch,
) {
    let n = g.node_count() as u32;
    let mut engine = Engine::with_topology(g, topo);
    for i in 0..agents {
        engine.add_agent(
            label(u64::from(i) + 1),
            NodeId::new(i * (n / agents) % n),
            Box::new(ProcBehavior::declaring(BlockedTolerantWalker)),
        );
    }
    engine.set_wake_schedule(WakeSchedule::Simultaneous);
    black_box(engine.run_with_scratch(rounds, scratch).unwrap());
}

/// The start nodes of `agents` walkers spread over an `n`-node graph.
fn spread_start(i: u32, agents: u32, n: u32) -> NodeId {
    NodeId::new(i * (n / agents) % n)
}

/// One engine run of `agents` EXPLO walkers to completion, with behaviors
/// stored *inline* as [`BehaviorSlot`]s: the built-in walker enum-dispatches
/// with no per-agent box and no vtable call. Identical workload to
/// [`explo_walk_boxed`] — the pair isolates the dispatch/storage cost.
fn explo_walk_slot(g: &Graph, uxs: &Arc<Uxs>, agents: u32, scratch: &mut EngineScratch) {
    let n = g.node_count() as u32;
    let mut engine: Engine<'_, Static, BehaviorSlot> = Engine::with_parts(g, &Static);
    for i in 0..agents {
        engine.add_agent(
            label(u64::from(i) + 1),
            spread_start(i, agents, n),
            BehaviorSlot::explo(Arc::clone(uxs)),
        );
    }
    engine.set_wake_schedule(WakeSchedule::Simultaneous);
    let limit = Explo::duration(uxs) + 2;
    black_box(engine.run_with_scratch(limit, scratch).unwrap());
}

/// The identical EXPLO workload through the historical storage: one
/// `Box<dyn AgentBehavior>` per agent, a vtable call per agent per round.
fn explo_walk_boxed(g: &Graph, uxs: &Arc<Uxs>, agents: u32, scratch: &mut EngineScratch) {
    let n = g.node_count() as u32;
    let mut engine = Engine::new(g);
    for i in 0..agents {
        engine.add_agent(
            label(u64::from(i) + 1),
            spread_start(i, agents, n),
            Box::new(ProcBehavior::mapping(Explo::new(Arc::clone(uxs)), |_| {
                Declaration::bare()
            })),
        );
    }
    engine.set_wake_schedule(WakeSchedule::Simultaneous);
    let limit = Explo::duration(uxs) + 2;
    black_box(engine.run_with_scratch(limit, scratch).unwrap());
}

/// Workload sizes: full measurement vs the one-iteration `--test` mode CI
/// uses for the schema check.
struct Scale {
    csr_steps: u64,
    bfs_n: u32,
    engine_rounds: u64,
    short_runs: u64,
    /// Steps of the pseudorandom sequence driving the dispatch-pair EXPLO
    /// walkers (one run = `2 * explo_steps + 1` rounds).
    explo_steps: usize,
    /// Per-instance evaluation budget of the late-outage hunt entry.
    hunt_budget: u64,
    iters: u64,
}

const FULL: Scale = Scale {
    csr_steps: 1_000_000,
    bfs_n: 1024,
    engine_rounds: 100_000,
    short_runs: 256,
    explo_steps: 8192,
    hunt_budget: 16,
    iters: 10,
};

const QUICK: Scale = Scale {
    csr_steps: 10_000,
    bfs_n: 64,
    engine_rounds: 1_000,
    short_runs: 8,
    explo_steps: 64,
    hunt_budget: 4,
    iters: 1,
};

fn scale() -> &'static Scale {
    if std::env::args().any(|a| a == "--test") {
        &QUICK
    } else {
        &FULL
    }
}

fn traversal_graph(n: u32) -> Graph {
    generators::random_connected(n, n, 7)
}

/// CSR traversal cost without the engine: chained `neighbor` lookups and a
/// whole-graph BFS.
fn csr_traversal(c: &mut Criterion) {
    let s = scale();
    let g = traversal_graph(s.bfs_n);
    let mut group = c.benchmark_group("csr");
    group.throughput(Throughput::Elements(s.csr_steps));
    group.bench_with_input(
        BenchmarkId::new("neighbor_walk", s.bfs_n),
        &g,
        |b, g: &Graph| b.iter(|| csr_walk(g, s.csr_steps)),
    );
    group.throughput(Throughput::Elements(u64::from(s.bfs_n)));
    group.bench_with_input(BenchmarkId::new("bfs", s.bfs_n), &g, |b, g: &Graph| {
        b.iter(|| algo::bfs_distances(g, NodeId::new(0)))
    });
    group.finish();
}

/// The engine round loop: long runs (per-round cost), short runs through a
/// reused scratch (steady-state allocation-free execution), and the
/// traditional-sensing variant (peer-label scratch buffer).
fn round_loop(c: &mut Criterion) {
    let s = scale();
    let g = generators::ring(32);
    let mut group = c.benchmark_group("round_loop");
    for agents in [2u32, 8, 16] {
        group.throughput(Throughput::Elements(s.engine_rounds * u64::from(agents)));
        group.bench_with_input(
            BenchmarkId::new("walkers", agents),
            &agents,
            |b, &agents| {
                let mut scratch = EngineScratch::new();
                b.iter(|| engine_walk(&g, agents, s.engine_rounds, Sensing::Weak, &mut scratch))
            },
        );
    }
    group.throughput(Throughput::Elements(s.engine_rounds * 8));
    group.bench_function("walkers_traditional/8", |b| {
        let mut scratch = EngineScratch::new();
        b.iter(|| engine_walk(&g, 8, s.engine_rounds, Sensing::Traditional, &mut scratch))
    });
    // The dynamic-view loop: same walk through the `SpecView`
    // monomorphization with a seeded edge-failure adversary. Not part of
    // the emitted trajectory artifact (its schema is pinned); criterion
    // reports the static-vs-dynamic per-round delta.
    group.bench_function("walkers_dynamic_failure/8", |b| {
        let topo = TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.1, seed: 9 });
        let mut scratch = EngineScratch::new();
        b.iter(|| engine_walk_dynamic(&g, &topo, 8, s.engine_rounds, &mut scratch))
    });
    // The dispatch pair: the identical EXPLO workload stored as inline
    // enum slots vs one box per agent. The pair isolates the
    // dispatch/storage axis of the data-oriented agent arena: the enum
    // replaces the per-agent vtable chase with a jump table and removes
    // the per-agent heap allocation entirely (behavior state lives inline
    // in the arena). On hardware with good indirect-branch prediction the
    // per-round times come out close — the honest reading is that the
    // slot storage wins structurally (zero boxes, one contiguous arena)
    // at per-round dispatch parity; the pair keeps that claim measured
    // rather than assumed.
    // An uncertified pseudorandom sequence is fine here: EXPLO is only a
    // walk driver for the dispatch measurement, and a long sequence keeps
    // engine setup (arena growth, validation) amortized into noise.
    let uxs = Arc::new(Uxs::pseudorandom(s.explo_steps, 7));
    let explo_rounds = Explo::duration(&uxs) + 1;
    group.throughput(Throughput::Elements(explo_rounds * 8));
    group.bench_function("walkers_enum_dispatch/8", |b| {
        let mut scratch = EngineScratch::new();
        b.iter(|| explo_walk_slot(&g, &uxs, 8, &mut scratch))
    });
    group.bench_function("walkers_box_dispatch/8", |b| {
        let mut scratch = EngineScratch::new();
        b.iter(|| explo_walk_boxed(&g, &uxs, 8, &mut scratch))
    });
    // Many short runs: the regime where per-run allocations dominated
    // before `run_with_scratch` existed.
    group.throughput(Throughput::Elements(s.short_runs));
    group.bench_function("short_runs_scratch_reuse", |b| {
        let mut scratch = EngineScratch::new();
        b.iter(|| {
            for _ in 0..s.short_runs {
                engine_walk(&g, 8, 64, Sensing::Weak, &mut scratch);
            }
        })
    });
    group.bench_function("short_runs_fresh_alloc", |b| {
        b.iter(|| {
            for _ in 0..s.short_runs {
                engine_walk(&g, 8, 64, Sensing::Weak, &mut EngineScratch::new());
            }
        })
    });
    group.finish();
}

/// One campaign instance: the graph + team every `campaign_cells` cell
/// shares, exactly what one instance sub-key of a campaign holds fixed.
fn campaign_instance() -> InitialConfiguration {
    InitialConfiguration::new(
        generators::ring(8),
        vec![(label(2), NodeId::new(0)), (label(3), NodeId::new(4))],
    )
    .expect("distinct labels on distinct nodes")
}

/// The execution axes of one campaign cell; the configuration, the seed
/// and the fault-free adversary are the instance's.
struct Cell {
    mode: CommMode,
    schedule: WakeSchedule,
    topo: TopologySpec,
}

/// The 8 execution-axis cells of one instance: 2 sensing modes × 2 wake
/// schedules × {static, seeded edge-failure} — the cell mix a campaign
/// sweeps per instance, all sharing the configuration and seed.
fn campaign_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for mode in [CommMode::Silent, CommMode::Talking] {
        for schedule in [WakeSchedule::Simultaneous, WakeSchedule::FirstOnly] {
            for topo in [
                TopologySpec::Static,
                TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.1, seed: 9 }),
            ] {
                cells.push(Cell {
                    mode,
                    schedule: schedule.clone(),
                    topo,
                });
            }
        }
    }
    cells
}

/// One campaign cell exactly as the lab runner executes it: its own
/// `run_scenario_with_scratch` call (per-cell setup, shared scratch),
/// recording into a digest-only trace of the runner's capacity.
fn run_campaign_cell(
    cfg: &InitialConfiguration,
    cell: &Cell,
    scratch: &mut EngineScratch,
) -> RunOutcome {
    run_scenario_with_scratch(
        cfg,
        cell.mode,
        cell.schedule.clone(),
        &cell.topo,
        &FaultSpec::None,
        2020,
        Some(Trace::digest_only(TRACE_CAPACITY)),
        scratch,
    )
    .expect("campaign cells run clean")
}

/// The campaign-cell workload: the 8 cells of one instance, each through
/// [`run_campaign_cell`].
fn campaign_cells_solo(c: &mut Criterion) {
    let cfg = campaign_instance();
    let cells = campaign_cells();
    let mut group = c.benchmark_group("campaign_cells");
    group.throughput(Throughput::Elements(cells.len() as u64));
    group.bench_function("solo/k8", |b| {
        let mut scratch = EngineScratch::new();
        b.iter(|| {
            for cell in &cells {
                black_box(run_campaign_cell(&cfg, cell, &mut scratch));
            }
        })
    });
    group.finish();
}

/// The result-store cache pair: the 8-cell smoke campaign through the lab
/// runner against a cold store (fresh directory per iteration — every cell
/// simulates, then writes through) vs a warm store (every cell loads, zero
/// engine rounds). The delta is the end-to-end speedup a resumed or
/// re-analyzed campaign gets from `--cache-dir`; reports are byte-identical
/// either way (pinned by the lab's store tests).
fn campaign_cache_pair(c: &mut Criterion) {
    let campaign = presets::smoke_campaign();
    let dir = std::env::temp_dir().join("nochatter-bench-campaign-cache");
    let mut group = c.benchmark_group("campaign_cells");
    group.throughput(Throughput::Elements(campaign.len() as u64));
    group.bench_function("cold/k8", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = Store::open(&dir).expect("temp cache dir is writable");
            black_box(run_campaign_cached(&campaign, 1, Some(&store)))
        })
    });
    group.bench_function("warm/k8", |b| {
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("temp cache dir is writable");
        run_campaign_cached(&campaign, 1, Some(&store));
        b.iter(|| black_box(run_campaign_cached(&campaign, 1, Some(&store))))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One measured trajectory entry of `BENCH_hotpath.json`.
struct Entry {
    /// Stable workload name — identical in quick and full mode, so the CI
    /// schema diff can compare a quick run against the committed full run.
    id: &'static str,
    /// The mode-dependent size knob (graph size, rounds, runs).
    param: u64,
    unit: &'static str,
    units_per_iter: u64,
    iters: u64,
    total_ns: u128,
    /// The fastest and slowest single iteration.
    min_ns: u128,
    max_ns: u128,
}

impl Entry {
    fn mean_ns(&self) -> u128 {
        self.total_ns / u128::from(self.iters.max(1))
    }

    fn units_per_sec(&self) -> f64 {
        let total = (self.units_per_iter * self.iters) as f64;
        total / (self.total_ns.max(1) as f64 / 1e9)
    }
}

fn measure(
    id: &'static str,
    param: u64,
    unit: &'static str,
    units_per_iter: u64,
    iters: u64,
    mut routine: impl FnMut(),
) -> Entry {
    // One warm-up iteration, then every iteration timed on its own — the
    // trajectory wants a stable order-of-magnitude point and its spread,
    // not criterion statistics.
    routine();
    let (mut total_ns, mut min_ns, mut max_ns) = (0, u128::MAX, 0);
    for _ in 0..iters {
        let t0 = Instant::now();
        routine();
        let ns = t0.elapsed().as_nanos();
        total_ns += ns;
        min_ns = min_ns.min(ns);
        max_ns = max_ns.max(ns);
    }
    Entry {
        id,
        param,
        unit,
        units_per_iter,
        iters,
        total_ns,
        min_ns,
        max_ns,
    }
}

/// Measures the fixed trajectory workloads and writes
/// `BENCH_hotpath.json` (path from `NOCHATTER_HOTPATH_OUT` if set).
fn emit_trajectory(quick: bool) {
    let s = scale();
    let g = traversal_graph(s.bfs_n);
    let ring = generators::ring(32);
    let uxs = Arc::new(Uxs::pseudorandom(s.explo_steps, 7));
    let explo_rounds = Explo::duration(&uxs) + 1;
    let mut scratch = EngineScratch::new();
    let entries = [
        measure(
            "csr/neighbor_walk",
            u64::from(s.bfs_n),
            "steps",
            s.csr_steps,
            s.iters,
            || {
                black_box(csr_walk(&g, s.csr_steps));
            },
        ),
        measure(
            "csr/bfs",
            u64::from(s.bfs_n),
            "nodes",
            u64::from(s.bfs_n),
            s.iters,
            || {
                black_box(algo::bfs_distances(&g, NodeId::new(0)));
            },
        ),
        measure(
            "round_loop/walkers/a8",
            s.engine_rounds,
            "agent_rounds",
            s.engine_rounds * 8,
            s.iters,
            || engine_walk(&ring, 8, s.engine_rounds, Sensing::Weak, &mut scratch),
        ),
        measure(
            "round_loop/walkers_traditional/a8",
            s.engine_rounds,
            "agent_rounds",
            s.engine_rounds * 8,
            s.iters,
            || {
                engine_walk(
                    &ring,
                    8,
                    s.engine_rounds,
                    Sensing::Traditional,
                    &mut scratch,
                )
            },
        ),
        measure(
            "round_loop/short_runs_scratch_reuse",
            s.short_runs,
            "runs",
            s.short_runs,
            s.iters,
            || {
                for _ in 0..s.short_runs {
                    engine_walk(&ring, 8, 64, Sensing::Weak, &mut scratch);
                }
            },
        ),
        measure(
            "round_loop/walkers_enum_dispatch/a8",
            explo_rounds,
            "agent_rounds",
            explo_rounds * 8,
            s.iters,
            || explo_walk_slot(&ring, &uxs, 8, &mut scratch),
        ),
        measure(
            "round_loop/walkers_box_dispatch/a8",
            explo_rounds,
            "agent_rounds",
            explo_rounds * 8,
            s.iters,
            || explo_walk_boxed(&ring, &uxs, 8, &mut scratch),
        ),
        {
            let cfg = campaign_instance();
            let cells = campaign_cells();
            measure(
                "campaign_cells/solo/k8",
                cells.len() as u64,
                "cells",
                cells.len() as u64,
                s.iters,
                || {
                    for cell in &cells {
                        black_box(run_campaign_cell(&cfg, cell, &mut scratch));
                    }
                },
            )
        },
        {
            let campaign = presets::smoke_campaign();
            let dir = std::env::temp_dir().join("nochatter-bench-trajectory-cache");
            let k = campaign.len() as u64;
            measure("campaign_cells/cold/k8", k, "cells", k, s.iters, || {
                let _ = std::fs::remove_dir_all(&dir);
                let store = Store::open(&dir).expect("temp cache dir is writable");
                black_box(run_campaign_cached(&campaign, 1, Some(&store)));
            })
        },
        {
            let spec = presets::late_outage_spec(s.hunt_budget);
            // `units_per_iter` carries the hardware-independent fact: the
            // engine iterations one search actually executes.
            let rounds = run_search_cached(&spec, 1, None).total_executed_rounds();
            measure(
                "hunt_evals/scratch",
                s.hunt_budget,
                "executed_rounds",
                rounds,
                s.iters,
                || {
                    black_box(run_search_cached(&spec, 1, None));
                },
            )
        },
        {
            // The dr1/fr1 quick preset: long runs whose adversary acts in
            // their first few hundred rounds, beside the short late-outage
            // evaluations above.
            let spec = presets::hunt_spec(true);
            let rounds = run_search_cached(&spec, 1, None).total_executed_rounds();
            measure(
                "hunt_evals/quick_scratch",
                spec.budget,
                "executed_rounds",
                rounds,
                s.iters,
                || {
                    black_box(run_search_cached(&spec, 1, None));
                },
            )
        },
        {
            let campaign = presets::smoke_campaign();
            let dir = std::env::temp_dir().join("nochatter-bench-trajectory-cache");
            let k = campaign.len() as u64;
            let _ = std::fs::remove_dir_all(&dir);
            let store = Store::open(&dir).expect("temp cache dir is writable");
            run_campaign_cached(&campaign, 1, Some(&store));
            let entry = measure("campaign_cells/warm/k8", k, "cells", k, s.iters, || {
                black_box(run_campaign_cached(&campaign, 1, Some(&store)));
            });
            let _ = std::fs::remove_dir_all(&dir);
            entry
        },
    ];
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"hotpath\",");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"param\": {}, \"unit\": \"{}\", \
             \"units_per_iter\": {}, \"iters\": {}, \"mean_ns\": {}, \
             \"min_ns\": {}, \"max_ns\": {}, \"units_per_sec\": {:.1}}}{comma}",
            e.id,
            e.param,
            e.unit,
            e.units_per_iter,
            e.iters,
            e.mean_ns(),
            e.min_ns,
            e.max_ns,
            e.units_per_sec(),
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    // Cargo runs bench binaries from the package directory, so resolve
    // the default and any relative `NOCHATTER_HOTPATH_OUT` override
    // against the workspace root. Quick mode defaults under `target/`:
    // a stray `cargo test --benches` must not clobber the committed
    // full-mode trajectory with one-iteration numbers.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let default = if quick {
        "target/BENCH_hotpath.json"
    } else {
        "BENCH_hotpath.json"
    };
    let path = std::env::var_os("NOCHATTER_HOTPATH_OUT")
        .map_or_else(|| default.into(), std::path::PathBuf::from);
    let path = if path.is_absolute() {
        path
    } else {
        root.join(path)
    };
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

criterion_group! {
    name = benches;
    // Each iteration is a full walk or simulation; bound the sampling.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = csr_traversal, round_loop, campaign_cells_solo, campaign_cache_pair
}

fn main() {
    // Mirror `criterion_main!`, plus trajectory emission: cargo's bench
    // runner passes flags like `--bench`; `--test` (from `cargo test
    // --benches` or the CI schema step) switches to one tiny iteration
    // per workload.
    let quick = std::env::args().any(|a| a == "--test");
    if quick {
        criterion::set_test_mode(true);
    }
    benches();
    emit_trajectory(quick);
}
