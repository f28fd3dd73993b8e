//! Regenerates the reproduction's tables and figures (each id below, run
//! with `--help` for the list; the README's "Build, test, bench" and
//! "Running campaigns" sections show the common runs) and runs declarative
//! scenario campaigns.
//!
//! ```text
//! experiments [--quick] [ids...]
//! experiments all            # every experiment, full sweeps
//! experiments --quick all    # every experiment, reduced sweeps
//! experiments t1 f3          # a subset
//!
//! experiments campaign [--quick | --smoke] [--workers N] [--seed S] [--out DIR]
//!             [--cache-dir DIR | --no-cache]
//! experiments hunt [--quick | --smoke] [--workers N] [--seed S] [--budget B]
//!             [--out DIR] [--cache-dir DIR | --no-cache]
//! ```
//!
//! The `campaign` subcommand expands the demo campaign (8 graph families ×
//! sizes × teams × wake schedules × 3 topologies × both sensing modes;
//! 560 scenarios), or
//! the tiny CI smoke campaign with `--smoke`, shards it over `--workers`
//! threads (0 = all cores), and writes `<name>.json`, `<name>.csv` and
//! `BENCH_campaign.json` under `--out` (default `target/campaign`). The
//! JSON/CSV reports are bit-for-bit identical for any worker count.
//!
//! The `hunt` subcommand runs the budgeted adversary search over the hunt
//! preset instances, maximizing the silent-failure objective, and writes
//! `<name>.json`, `<name>.csv` and `BENCH_search.json` under `--out`
//! (default `target/hunt`). Every candidate that runs, runs from scratch
//! exactly like a campaign cell; once an instance's witness reaches the
//! highest score its round limit allows (a failure at the limit), the
//! rest of its budget is judged without running. Like the campaign
//! reports, the witness reports are bit-for-bit identical for any worker
//! count; `--budget 0` records each instance's unperturbed baseline as its
//! witness.
//!
//! `--cache-dir DIR` runs either subcommand against the persistent result
//! store under `DIR`: previously computed records load instead of
//! simulating, completed work writes through immediately (killed runs
//! resume), and the reports stay byte-identical to uncached runs.
//! `--no-cache` wins over `--cache-dir` when both are given.

use std::fmt;
use std::process::ExitCode;

use nochatter_bench::{all_experiment_ids, run_experiment, ExperimentCtx};
use nochatter_lab::{presets, run_campaign_cached, run_search_cached, Store};

/// The flags shared by the `campaign` and `hunt` subcommands, parsed by
/// one helper so the two cannot drift. `--budget` is accepted only where
/// the caller opts in (the hunt).
struct SweepArgs {
    quick: bool,
    smoke: bool,
    workers: usize,
    seed: Option<u64>,
    budget: Option<u64>,
    out_dir: std::path::PathBuf,
    cache_dir: Option<std::path::PathBuf>,
    no_cache: bool,
}

/// Why [`SweepArgs::parse`] rejected an argument list.
#[derive(Debug, PartialEq, Eq)]
enum ArgError {
    /// A flag the subcommand does not know (the subcommand, the flag).
    Unknown(String, String),
    /// A path flag given last, without its value.
    MissingValue(&'static str),
    /// A numeric flag whose value is missing or not a number.
    NotANumber(&'static str),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unknown(subcommand, option) => {
                write!(f, "unknown {subcommand} option: {option}")
            }
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::NotANumber(flag) => write!(f, "{flag} needs a number"),
        }
    }
}

impl SweepArgs {
    /// Parses `args` for `subcommand` (named in error messages), with
    /// `default_out` as the `--out` fallback; `with_budget` gates the
    /// hunt-only `--budget` flag.
    fn parse(
        args: &[String],
        subcommand: &str,
        default_out: &str,
        with_budget: bool,
    ) -> Result<SweepArgs, ArgError> {
        let mut parsed = SweepArgs {
            quick: false,
            smoke: false,
            workers: 0,
            seed: None,
            budget: None,
            out_dir: default_out.into(),
            cache_dir: None,
            no_cache: false,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--smoke" => parsed.smoke = true,
                "--no-cache" => parsed.no_cache = true,
                "--workers" => parsed.workers = number("--workers", iter.next())?,
                "--seed" => parsed.seed = Some(number("--seed", iter.next())?),
                // --budget 0 is meaningful: record the unperturbed
                // baseline as the witness without mutating anything.
                "--budget" if with_budget => parsed.budget = Some(number("--budget", iter.next())?),
                "--out" => {
                    parsed.out_dir = iter.next().ok_or(ArgError::MissingValue("--out"))?.into()
                }
                "--cache-dir" => {
                    let dir = iter.next().ok_or(ArgError::MissingValue("--cache-dir"))?;
                    parsed.cache_dir = Some(dir.into());
                }
                other => return Err(ArgError::Unknown(subcommand.into(), other.into())),
            }
        }
        Ok(parsed)
    }

    /// Opens the result store when `--cache-dir` was given and
    /// `--no-cache` was not.
    fn open_store(&self) -> Result<Option<Store>, String> {
        match &self.cache_dir {
            Some(dir) if !self.no_cache => Store::open(dir)
                .map(Some)
                .map_err(|e| format!("cannot open result store under {}: {e}", dir.display())),
            _ => Ok(None),
        }
    }
}

/// The numeric value following `flag`.
fn number<T: std::str::FromStr>(flag: &'static str, value: Option<&String>) -> Result<T, ArgError> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or(ArgError::NotANumber(flag))
}

/// One summary line per cached run: hit/miss/resume counts plus any
/// degradation the store observed (corrupt entries skipped, failed
/// writes). Prints nothing with caching off, keeping uncached output
/// byte-identical to the pre-cache CLI.
fn report_cache(
    cache: Option<nochatter_lab::CacheStats>,
    store: Option<&Store>,
    total: u64,
    what: &str,
) {
    let (Some(cache), Some(store)) = (cache, store) else {
        return;
    };
    eprintln!(
        "cache: {} hit(s), {} miss(es) — resumed {}/{} {what} from {}",
        cache.hits,
        cache.misses,
        cache.hits,
        total,
        store.path().display()
    );
    let stats = store.stats();
    if stats.corrupt_entries > 0 {
        eprintln!(
            "cache: skipped {} corrupt log region(s) (degraded to misses)",
            stats.corrupt_entries
        );
    }
    if stats.write_errors > 0 {
        eprintln!(
            "cache: {} record(s) could not be written through (run continued uncached)",
            stats.write_errors
        );
    }
}

fn run_campaign_cli(args: &[String]) -> ExitCode {
    let parsed = match SweepArgs::parse(args, "campaign", "target/campaign", false) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Expanding the matrix under the chosen seed means a custom --seed
    // re-derives random-family instances along with the scenario seeds.
    // (--quick only shrinks the demo matrix; the smoke matrix is fixed.)
    let (matrix, name, default_seed) = if parsed.smoke {
        (presets::smoke_matrix(), "smoke", presets::SMOKE_SEED)
    } else if parsed.quick {
        (presets::demo_matrix(true), "demo-quick", presets::DEMO_SEED)
    } else {
        (presets::demo_matrix(false), "demo", presets::DEMO_SEED)
    };
    let campaign = matrix
        .campaign(name, parsed.seed.unwrap_or(default_seed))
        .expect("preset matrices are well-formed");
    eprintln!(
        "# campaign '{}': {} scenarios, seed {}",
        campaign.name(),
        campaign.len(),
        campaign.seed()
    );
    let store = match parsed.open_store() {
        Ok(store) => store,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let report = run_campaign_cached(&campaign, parsed.workers, store.as_ref());
    let out_dir = &parsed.out_dir;
    let artifacts = match report.write_files(out_dir) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot write reports under {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{}/{} scenarios ok in {:?} on {} worker(s)",
        report.ok_count(),
        report.records.len(),
        report.wall,
        report.workers
    );
    // Rates are None when the run was too fast to time (no inflating
    // floor) or any cell came from the cache (it executed nothing);
    // `rounds/s` counts fast-forwarded model time, `executed` is the
    // honest work rate.
    let fixed = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.0}"));
    let sci = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.3e}"));
    eprintln!(
        "throughput: {} scenarios/s, {} executed rounds/s ({} model rounds/s, {} engine iterations/s)",
        fixed(report.scenarios_per_sec()),
        sci(report.executed_rounds_per_sec()),
        sci(report.rounds_per_sec()),
        sci(report.engine_iterations_per_sec())
    );
    report_cache(
        report.cache,
        store.as_ref(),
        report.records.len() as u64,
        "cells",
    );
    eprintln!(
        "wrote {}, {}, {}",
        artifacts.json.display(),
        artifacts.csv.display(),
        artifacts.trajectory.display()
    );
    // Static cells must all gather — a failure there is a regression. A
    // dynamic cell that fails *validation* is an experimental outcome:
    // the paper's algorithm assumes a static network, and the campaign
    // quantifies where that assumption bites (the report carries the
    // blocked-move counts). Engine errors and unsupported cells are bugs
    // on any topology and still fail the run.
    let is_expected = |r: &&nochatter_lab::RunRecord| {
        r.key.topo != "static"
            && !r.status.starts_with("engine error")
            && !r.status.starts_with("unsupported")
    };
    let expected_dynamic = report
        .records
        .iter()
        .filter(|r| !r.ok)
        .filter(is_expected)
        .count();
    if expected_dynamic > 0 {
        eprintln!(
            "{expected_dynamic} dynamic cell(s) did not survive their adversary \
             (expected for the silent algorithm on dynamic topologies; see the \
             report's status and blocked_moves fields)"
        );
    }
    let hard_failures: Vec<_> = report
        .records
        .iter()
        .filter(|r| !r.ok)
        .filter(|r| !is_expected(r))
        .collect();
    if hard_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for r in hard_failures {
            eprintln!("FAILED {}: {}", r.key, r.status);
        }
        ExitCode::FAILURE
    }
}

fn run_hunt_cli(args: &[String]) -> ExitCode {
    let parsed = match SweepArgs::parse(args, "hunt", "target/hunt", true) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // A custom --seed honestly re-derives the base instances under it
    // (graphs and scenario seeds included), mirroring the campaign CLI.
    let seed = parsed.seed.unwrap_or(presets::HUNT_SEED);
    let mut spec = if parsed.smoke {
        presets::hunt_smoke_spec_seeded(seed)
    } else {
        presets::hunt_spec_seeded(parsed.quick, seed)
    };
    if let Some(b) = parsed.budget {
        spec.budget = b;
    }
    eprintln!(
        "# hunt '{}': {} instances, budget {} per instance, objective {}, seed {}",
        spec.name,
        spec.instances.len(),
        spec.budget,
        spec.objective.name(),
        spec.seed
    );
    if spec.budget == 0 {
        eprintln!(
            "budget 0: recording each instance's unperturbed baseline as its \
             witness — no mutations will be tried"
        );
    }
    let store = match parsed.open_store() {
        Ok(store) => store,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let report = run_search_cached(&spec, parsed.workers, store.as_ref());
    for outcome in &report.outcomes {
        let verdict = if outcome.is_failure() {
            "FALSIFIED"
        } else {
            "held"
        };
        eprintln!(
            "{verdict} {} after {} evaluation(s), {} improvement(s): {} ({} rounds)",
            outcome.instance,
            outcome.evaluations,
            outcome.improvements,
            outcome.record.status,
            outcome.record.rounds
        );
    }
    let out_dir = &parsed.out_dir;
    let artifacts = match report.write_files(out_dir) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot write reports under {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{}/{} instances falsified with {} evaluation(s) in {:?} on {} worker(s)",
        report.failure_count(),
        report.outcomes.len(),
        report.total_evaluations(),
        report.wall,
        report.workers
    );
    // Execution facts (they never enter the deterministic reports): how
    // hard the engine actually worked.
    let fixed = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.1}"));
    eprintln!(
        "work: {} of {} candidates run, {} executed rounds ({} per evaluation), {} evaluations/s",
        report.total_runs(),
        report.total_evaluations(),
        report.total_executed_rounds(),
        fixed(report.executed_rounds_per_evaluation()),
        fixed(report.evaluations_per_sec())
    );
    report_cache(report.cache, store.as_ref(), report.total_runs(), "runs");
    eprintln!(
        "wrote {}, {}, {}",
        artifacts.json.display(),
        artifacts.csv.display(),
        artifacts.trajectory.display()
    );
    // A witness whose record is a panic, an engine error or an unsupported
    // cell is a harness bug, not an adversarial finding — fail the run.
    let broken: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| {
            ["panic", "engine error", "unsupported"]
                .iter()
                .any(|p| o.record.status.starts_with(p))
        })
        .collect();
    if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        for o in broken {
            eprintln!("BROKEN {}: {}", o.record.key, o.record.status);
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("campaign") {
        return run_campaign_cli(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("hunt") {
        return run_hunt_cli(&args[1..]);
    }
    let mut quick = false;
    let mut ids: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--quick] [all | {}]\n       \
                     experiments campaign [--quick | --smoke] [--workers N] [--seed S] [--out DIR] \
                     [--cache-dir DIR | --no-cache]\n       \
                     experiments hunt [--quick | --smoke] [--workers N] [--seed S] [--budget B] \
                     [--out DIR] [--cache-dir DIR | --no-cache]",
                    all_experiment_ids().join(" | ")
                );
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = all_experiment_ids().iter().map(|s| s.to_string()).collect();
    }
    let ctx = ExperimentCtx { quick };
    eprintln!(
        "# nochatter experiments ({} mode)",
        if quick { "quick" } else { "full" }
    );
    for id in &ids {
        let start = std::time::Instant::now();
        match run_experiment(id, ctx) {
            Some(table) => {
                print!("{}", table.to_markdown());
                eprintln!("[{id} finished in {:?}]", start.elapsed());
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Argument tokens: every flag, a retired one, numbers in and out of
    /// range, and garbage.
    const TOKENS: [&str; 15] = [
        "--quick",
        "--smoke",
        "--no-cache",
        "--workers",
        "--seed",
        "--budget",
        "--out",
        "--cache-dir",
        "--no-fork",
        "0",
        "18446744073709551616",
        "-3",
        "x",
        "",
        "--",
    ];

    fn parse(args: &[&str], with_budget: bool) -> Result<SweepArgs, ArgError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let subcommand = if with_budget { "hunt" } else { "campaign" };
        SweepArgs::parse(&args, subcommand, "target/out", with_budget)
    }

    fn message(args: &[&str], with_budget: bool) -> String {
        match parse(args, with_budget) {
            Ok(_) => panic!("{args:?} must be rejected"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn hunt_rejects_the_retired_no_fork_flag() {
        assert_eq!(
            message(&["--no-fork"], true),
            "unknown hunt option: --no-fork"
        );
    }

    #[test]
    fn flags_parse_and_errors_name_the_offending_flag() {
        let parsed = parse(
            &["--quick", "--workers", "4", "--budget", "0", "--out", "d"],
            true,
        )
        .expect("well-formed hunt flags");
        assert!(parsed.quick && !parsed.smoke);
        assert_eq!((parsed.workers, parsed.budget), (4, Some(0)));
        assert_eq!(parsed.out_dir, std::path::PathBuf::from("d"));
        assert_eq!(message(&["--workers"], false), "--workers needs a number");
        assert_eq!(message(&["--seed", "x"], true), "--seed needs a number");
        assert_eq!(message(&["--out"], true), "--out needs a value");
        assert_eq!(
            message(&["--budget", "3"], false),
            "unknown campaign option: --budget"
        );
    }

    proptest! {
        /// Random argv mixing known flags, garbage, missing values and
        /// non-numeric values: parsing returns `Ok` or an error naming a
        /// token of the argv, and never panics.
        #[test]
        fn random_argv_never_panics_the_parser(
            picks in proptest::collection::vec(
                (0usize..TOKENS.len(), any::<u64>(), any::<bool>()),
                0..10,
            ),
            with_budget in any::<bool>(),
        ) {
            let argv: Vec<String> = picks
                .iter()
                .map(|&(i, n, numeric)| if numeric { n.to_string() } else { TOKENS[i].to_string() })
                .collect();
            let subcommand = if with_budget { "hunt" } else { "campaign" };
            match SweepArgs::parse(&argv, subcommand, "target/out", with_budget) {
                Ok(_) => {}
                Err(ArgError::Unknown(sub, option)) => {
                    prop_assert_eq!(sub.as_str(), subcommand);
                    prop_assert!(argv.contains(&option));
                }
                Err(ArgError::MissingValue(flag) | ArgError::NotANumber(flag)) => {
                    prop_assert!(argv.iter().any(|a| a == flag));
                }
            }
        }
    }
}
