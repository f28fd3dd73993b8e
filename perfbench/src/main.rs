//! The simulator's benchmark: four shipped workloads on one worker thread,
//! their end-to-end metrics, and a traced run with per-layer metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-pins
//! ```
//!
//! With `--trace 0` the run repeats untraced passes for `--seconds` and
//! prints the end-to-end metrics; with `--trace 1` it alternates untraced
//! and traced passes and prints the per-layer metrics of the fastest
//! traced pass of each input set. The last line of standard output is one
//! JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are a human-readable table. Every pass checks its reports against the
//! digest pinned in `pins.txt`; `--print-pins` regenerates that file.
//! See README.md for the workloads and the metric definitions.

mod pins;
mod traced;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use workloads::{WorkDir, Workload};

const USAGE: &str = "usage: perfbench --workload <campaign-demo|hunt|hunt-late|unknown-network> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --print-pins";

/// Set-up is measured in this many fresh processes, spread evenly over
/// the run; the fastest is reported, for the reason `untraced_run` gives.
const SETUP_PROBES: u32 = 15;

/// One benchmark run's arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// What the command line asks for.
enum Mode {
    Run(Args),
    /// Measure set-up once and print its seconds (a child of `Run`).
    SetupProbe(Workload, u64),
    PrintPins,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    if args == ["--print-pins"] {
        return Ok(Mode::PrintPins);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut probe = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--setup-probe" {
            probe = true;
            continue;
        }
        let value = iter.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace needs 0 or 1".into()),
            },
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if probe {
        return Ok(Mode::SetupProbe(workload, seed));
    }
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Run(args)) => run(&args),
        Ok(Mode::SetupProbe(workload, seed)) => {
            let sets = workload.input_sets(seed);
            let setup = workloads::setup(workload, &sets, &mut WorkDir::new());
            println!("{}", setup.as_secs_f64());
            ExitCode::SUCCESS
        }
        Ok(Mode::PrintPins) => print_pins(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The median of `values` (the mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs set-up once in a fresh process and returns its seconds.
fn setup_probe(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("set-up probe did not run: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .ok()
        .filter(|_| out.status.success())
        .ok_or_else(|| "set-up probe failed".to_string())
}

/// Restarts this process's peak resident memory count (`VmHWM`) from its
/// current resident memory. Where the kernel does not allow it, the count
/// keeps running and the readings are peaks since process start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A JSON number, or `null` for a value that was not measured.
fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".into(),
    }
}

/// Totals over every pass of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn count(&mut self, pass: &workloads::Pass) {
        self.attempted += pass.ops;
        self.failed += pass.failed;
    }
}

fn run(args: &Args) -> ExitCode {
    let workload = args.workload;
    let sets = workload.input_sets(args.seed);
    println!(
        "# perfbench {} --seed {}: input sets {:?}, 1 worker, {} s, trace {}",
        workload.name(),
        args.seed,
        sets,
        args.seconds,
        u8::from(args.trace)
    );
    let mut work = WorkDir::new();
    // This process's own set-up: the engine fingerprint and the inputs
    // are built before the first timed pass, as in the probes.
    workloads::setup(workload, &sets, &mut work);
    let span = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced_run(
            workload,
            &sets,
            Instant::now() + span,
            &mut work,
            &mut tally,
        )
    } else {
        match untraced_run(workload, args.seed, &sets, span, &mut work, &mut tally) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!(
        "failed_share {} ({} of {} {} failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted,
        workload.op_unit()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// A metric as printed: name, value (`None` = not measured), unit.
type Metric = (&'static str, Option<f64>, &'static str);

/// Whether a run may stop: the deadline has passed and every input set
/// has at least one pass.
fn done(deadline: Instant, passes: usize, sets: usize) -> bool {
    passes >= sets && Instant::now() >= deadline
}

/// The fastest of `values`.
fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Untraced passes, cycling through the input sets for `span`, with the
/// set-up probes spread evenly between them; the end-to-end metrics.
///
/// A pass time is the mean over the input sets of each set's fastest
/// pass, so every set weighs the same however many passes it got. The
/// fastest pass, not the median, because a shared machine can switch
/// between a quiet and a contended state for seconds to minutes at a
/// time, and the contended state slows every pass by up to half: the
/// median follows the neighbours' load, the fastest pass follows the code.
fn untraced_run(
    workload: Workload,
    seed: u64,
    sets: &[u64],
    span: Duration,
    work: &mut WorkDir,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let start = Instant::now();
    let deadline = start + span;
    let mut setup = Vec::new();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let mut executed = vec![0.0; sets.len()];
    let mut peaks: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let mut passes = 0;
    while !done(deadline, passes, sets.len()) {
        while setup.len() < SETUP_PROBES as usize
            && start.elapsed() >= span * setup.len() as u32 / SETUP_PROBES
        {
            setup.push(setup_probe(workload, seed)?);
        }
        let slot = passes % sets.len();
        reset_peak_rss();
        let mut pass = workloads::pass(workload, sets[slot], work);
        peaks[slot].extend(peak_rss_mb());
        workloads::check_reports(workload, sets[slot], &mut pass);
        tally.count(&pass);
        walls[slot].push(pass.wall.as_secs_f64());
        // Only executed (cache-miss) operations count toward the rate.
        executed[slot] = pass.executed as f64;
        passes += 1;
    }
    // Peak memory while a pass runs: each set's median, averaged.
    let rss = peaks
        .iter()
        .map(|p| (!p.is_empty()).then(|| median(p)))
        .sum::<Option<f64>>()
        .map(|total| total / sets.len() as f64);
    let fastest: Vec<f64> = walls.iter().map(|w| min(w)).collect();
    let wall = fastest.iter().sum::<f64>() / sets.len() as f64;
    let total_executed: f64 = executed.iter().sum();
    let ops_per_s = (total_executed > 0.0).then(|| total_executed / fastest.iter().sum::<f64>());
    let setup_s = min(&setup);
    let medians: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let median_wall = medians.iter().sum::<f64>() / sets.len() as f64;
    println!(
        "wall_s       {wall:.6} s    mean over {} input sets of the fastest pass \
         ({passes} passes; mean of the medians {median_wall:.6})",
        sets.len()
    );
    println!(
        "setup_s      {setup_s:.6} s    fastest of {} processes (median {:.6})",
        setup.len(),
        median(&setup)
    );
    println!(
        "peak_rss_mb  {} MB   VmHWM during a pass, median per set, mean over sets",
        json_number(rss)
    );
    println!(
        "ops_per_s    {} 1/s  executed {} per second of fastest pass time",
        json_number(ops_per_s),
        workload.op_unit()
    );
    Ok(vec![
        ("wall_s", Some(wall), "s"),
        ("setup_s", Some(setup_s), "s"),
        ("peak_rss_mb", rss, "MB"),
        ("ops_per_s", ops_per_s, "1/s"),
    ])
}

/// Untraced and traced passes in alternation, cycling through the input
/// sets until the deadline; the per-layer metrics: for each set its
/// fastest traced pass (see [`untraced_run`]), averaged over the sets.
fn traced_run(
    workload: Workload,
    sets: &[u64],
    deadline: Instant,
    work: &mut WorkDir,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let mut traced: Vec<Vec<traced::TracedPass>> = (0..sets.len()).map(|_| Vec::new()).collect();
    let mut passes = 0;
    while !done(deadline, passes, sets.len()) {
        let slot = passes % sets.len();
        let mut plain = workloads::pass(workload, sets[slot], work);
        workloads::check_reports(workload, sets[slot], &mut plain);
        let mut replay = traced::pass(workload, sets[slot], work);
        workloads::check_reports(workload, sets[slot], &mut replay.pass);
        // The replay must reproduce the untraced reports byte for byte.
        if replay.pass.reports != plain.reports {
            replay.pass.failed = replay.pass.ops;
        }
        tally.count(&plain);
        tally.count(&replay.pass);
        untraced[slot].push(plain.wall.as_secs_f64());
        traced[slot].push(replay);
        passes += 1;
    }
    let share = 1.0 / sets.len() as f64;
    let (mut traced_wall, mut overhead) = (0.0, 0.0);
    let mut chosen = Vec::new();
    for (replays, plain) in traced.iter().zip(&untraced) {
        let fastest = replays
            .iter()
            .min_by_key(|t| t.pass.wall)
            .expect("every set has a traced pass");
        let wall = fastest.pass.wall.as_secs_f64();
        traced_wall += wall * share;
        overhead += (wall - min(plain)) * share;
        chosen.push(&fastest.ledger);
    }
    let mut ledger = traced::Ledger::mean(&chosen);
    ledger.finish(traced_wall);
    ledger.add("trace.overhead_s", overhead);
    println!(
        "# {passes} traced passes over {} input sets; layer self times + trace.probe_s + \
         trace.unaccounted_s = trace.wall_s",
        sets.len()
    );
    traced::LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = ledger.get(name);
            println!("{name:34} {value:>16.6} {unit}");
            (name, Some(value), unit)
        })
        .collect()
}

/// Prints the `pins.txt` table: one pass per workload and input set.
fn print_pins() -> ExitCode {
    let mut work = WorkDir::new();
    let mut ok = true;
    for workload in workloads::ALL {
        if workload == Workload::UnknownNetwork {
            continue;
        }
        let sets = if workload.seeded() {
            workloads::INPUT_SETS
        } else {
            1
        };
        for input in 0..sets {
            let pass = workloads::pass(workload, input, &mut work);
            if pass.failed > 0 {
                eprintln!(
                    "{} input set {input}: {} failed",
                    workload.name(),
                    pass.failed
                );
                ok = false;
            }
            println!(
                "{} {input} {:#018x}",
                workload.name(),
                workloads::digest(&pass.reports)
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
