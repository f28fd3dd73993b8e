//! Structured campaign reports: deterministic JSON and CSV, plus the
//! `BENCH_campaign.json` trajectory artifact.
//!
//! The serializers are hand-rolled (the build environment is offline; no
//! serde) and deliberately boring: fixed field order, `\n` line endings, a
//! trailing newline, no floats except in the trajectory summary. Everything
//! in [`CampaignReport::to_json`] and [`CampaignReport::to_csv`] is a pure
//! function of the campaign spec — wall-clock time and worker count are
//! excluded — so golden-file diffs and worker-count equality checks are
//! byte-exact.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::record::{RunRecord, ScenarioKey};
use crate::store::CacheStats;

/// The collected result of one campaign run.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign name (also the report file stem).
    pub name: String,
    /// The campaign master seed.
    pub seed: u64,
    /// One record per scenario, in scenario-key order.
    pub records: Vec<RunRecord>,
    /// How many worker threads executed the run (not serialized into the
    /// deterministic reports).
    pub workers: usize,
    /// Wall-clock duration of the run (not serialized into the
    /// deterministic reports).
    pub wall: Duration,
    /// Cache hit/miss counts when the run went through a result store
    /// (`None` with caching off). Surfaced only in the trajectory
    /// artifact and the CLI summary — the deterministic JSON/CSV reports
    /// exclude it, so they stay byte-identical across cache states.
    pub cache: Option<CacheStats>,
}

/// Escapes a string for a JSON string literal (quotes not included).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Escapes a CSV field: quoted iff it contains a comma, quote or newline.
pub(crate) fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

pub(crate) fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

/// The shared record column list: campaign CSVs use it verbatim; the search
/// CSV appends its per-instance columns in front of it.
pub(crate) const RECORD_CSV_COLUMNS: &str =
    "key,family,n,n_actual,team,wake,topo,fault,mode,variant,rep,seed,ok,status,rounds,\
     moves,blocked_moves,crashed_agents,engine_iterations,skipped_rounds,max_colocation,\
     leader,node,size,trace_digest";

/// One record as a JSON object (no indent, no trailing comma) — the exact
/// historical shape of [`CampaignReport::to_json`] record lines, shared with
/// the search report so witness records diff cleanly against campaign ones.
///
/// Dynamism and fault fields appear only on dynamic/faulty records:
/// unperturbed reports must stay byte-identical to their goldens.
pub(crate) fn record_json_object(r: &RunRecord) -> String {
    let dynamism = if r.key.topo.is_empty() || r.key.topo == "static" {
        String::new()
    } else {
        format!(
            ", \"topo\": \"{}\", \"blocked_moves\": {}",
            json_escape(&r.key.topo),
            r.blocked_moves
        )
    };
    let fault = if r.key.fault.is_empty() || r.key.fault == "none" {
        String::new()
    } else {
        format!(
            ", \"fault\": \"{}\", \"crashed_agents\": {}",
            json_escape(&r.key.fault),
            r.crashed_agents
        )
    };
    format!(
        "{{\"key\": \"{key}\", \"family\": \"{family}\", \"n\": {n}, \
         \"n_actual\": {n_actual}, \"team\": \"{team}\", \"wake\": \"{wake}\", \
         \"mode\": \"{mode}\", \"variant\": \"{variant}\", \"rep\": {rep}, \
         \"seed\": {seed}, \"ok\": {ok}, \"status\": \"{status}\", \
         \"rounds\": {rounds}, \"moves\": {moves}, \
         \"engine_iterations\": {iters}, \"skipped_rounds\": {skipped}, \
         \"max_colocation\": {coloc}, \"leader\": {leader}, \"node\": {node}, \
         \"size\": {size}, \"trace_digest\": {digest}{dynamism}{fault}}}",
        key = json_escape(&r.key.canonical()),
        family = json_escape(&r.key.family),
        n = r.key.n,
        n_actual = r.n_actual,
        team = r.key.team_string(),
        wake = json_escape(&r.key.wake),
        mode = json_escape(&r.key.mode),
        variant = json_escape(&r.key.variant),
        rep = r.key.rep,
        seed = r.seed,
        ok = r.ok,
        status = json_escape(&r.status),
        rounds = r.rounds,
        moves = r.moves,
        iters = r.engine_iterations,
        skipped = r.skipped_rounds,
        coloc = r.max_colocation,
        leader = opt_u64(r.leader),
        node = opt_u64(r.node.map(u64::from)),
        size = opt_u64(r.size.map(u64::from)),
        digest = r
            .trace_digest
            .map_or_else(|| "null".into(), |d| format!("\"0x{d:016x}\"")),
    )
}

/// One record as a CSV row under [`RECORD_CSV_COLUMNS`] (no trailing
/// newline); `topo`/`fault` render as `static`/`none` on unperturbed cells.
pub(crate) fn record_csv_row(r: &RunRecord) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        csv_escape(&r.key.canonical()),
        csv_escape(&r.key.family),
        r.key.n,
        r.n_actual,
        r.key.team_string(),
        csv_escape(&r.key.wake),
        csv_escape(if r.key.topo.is_empty() {
            "static"
        } else {
            &r.key.topo
        }),
        csv_escape(if r.key.fault.is_empty() {
            "none"
        } else {
            &r.key.fault
        }),
        csv_escape(&r.key.mode),
        csv_escape(&r.key.variant),
        r.key.rep,
        r.seed,
        r.ok,
        csv_escape(&r.status),
        r.rounds,
        r.moves,
        r.blocked_moves,
        r.crashed_agents,
        r.engine_iterations,
        r.skipped_rounds,
        r.max_colocation,
        r.leader.map_or_else(String::new, |v| v.to_string()),
        r.node.map_or_else(String::new, |v| v.to_string()),
        r.size.map_or_else(String::new, |v| v.to_string()),
        r.trace_digest
            .map_or_else(String::new, |d| format!("0x{d:016x}")),
    )
}

/// Renders a throughput rate for the trajectory JSON: `null` when the wall
/// clock was too coarse to measure (never a floored, inflated number).
pub(crate) fn opt_rate(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |x| format!("{x:.1}"))
}

impl CampaignReport {
    /// How many scenarios met their success criterion.
    pub fn ok_count(&self) -> usize {
        self.records.iter().filter(|r| r.ok).count()
    }

    /// Wall-clock seconds to divide executed work by, or `None` when no
    /// honest rate exists: the measurement is too coarse (under one
    /// microsecond — flooring it would inflate every `*_per_sec` rate), or
    /// some records came from the result cache (their counters describe
    /// work this run never executed).
    fn wall_secs(&self) -> Option<f64> {
        if self.cache.is_some_and(|c| c.hits > 0) {
            return None;
        }
        let secs = self.wall.as_secs_f64();
        (secs >= 1e-6).then_some(secs)
    }

    /// Executed scenarios per wall-clock second, or `None` when the wall
    /// clock was too coarse to measure or any record came from the cache
    /// (serialized as `null`).
    pub fn scenarios_per_sec(&self) -> Option<f64> {
        Some(self.records.len() as f64 / self.wall_secs()?)
    }

    /// Total simulated rounds across all records, fast-forwarded rounds
    /// *included* — the amount of model time the campaign covered.
    pub fn total_rounds(&self) -> u64 {
        self.records.iter().map(|r| r.rounds).sum()
    }

    /// Total rounds the engine actually stepped through, i.e.
    /// [`CampaignReport::total_rounds`] minus the quiescent stretches the
    /// fast-forward skipped. This is the honest measure of simulation work
    /// for throughput claims; `total_rounds` measures model-time coverage.
    pub fn total_executed_rounds(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.rounds.saturating_sub(r.skipped_rounds))
            .sum()
    }

    /// Simulated rounds per wall-clock second, fast-forwarded rounds
    /// *included* — the rate at which *model time* advances, not the rate
    /// of work done. A campaign dominated by quiescent waiting (the
    /// unknown-bound algorithm) posts an enormous number here while the
    /// engine idles; quote [`CampaignReport::executed_rounds_per_sec`] for
    /// performance claims. `None` when the wall clock was too coarse.
    pub fn rounds_per_sec(&self) -> Option<f64> {
        Some(self.total_rounds() as f64 / self.wall_secs()?)
    }

    /// Rounds the engine actually stepped through per wall-clock second
    /// (fast-forward excluded) — the honest throughput figure. `None` when
    /// the wall clock was too coarse.
    pub fn executed_rounds_per_sec(&self) -> Option<f64> {
        Some(self.total_executed_rounds() as f64 / self.wall_secs()?)
    }

    /// Executed engine loop iterations per wall-clock second (fast-forward
    /// excluded — the rate of actual hot-path work). `None` when the wall
    /// clock was too coarse.
    pub fn engine_iterations_per_sec(&self) -> Option<f64> {
        let total: u64 = self.records.iter().map(|r| r.engine_iterations).sum();
        Some(total as f64 / self.wall_secs()?)
    }

    /// Behavior polls executed per wall-clock second — the round loop's
    /// per-agent work rate, beside the executed-vs-model rounds split:
    /// one poll per executing agent per executed round, never the
    /// fast-forwarded ones. `None` when the wall clock was too coarse.
    pub fn polled_rounds_per_sec(&self) -> Option<f64> {
        let total: u64 = self.records.iter().map(|r| r.polled_agent_rounds).sum();
        Some(total as f64 / self.wall_secs()?)
    }

    /// Looks up the record of a key by canonical form.
    pub fn record(&self, canonical_key: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.key.canonical() == canonical_key)
    }

    /// The record whose key equals `record`'s with `mutate` applied — the
    /// twin along one execution axis (both run on the identical instance,
    /// since seeds derive from the axis-independent instance sub-key).
    fn twin_of(
        &self,
        record: &RunRecord,
        mutate: impl FnOnce(&mut ScenarioKey),
    ) -> Option<&RunRecord> {
        let mut key = record.key.clone();
        mutate(&mut key);
        self.records.iter().find(|r| r.key == key)
    }

    /// Pairs every record in sensing mode `a` with its twin in mode `b` —
    /// the record whose key is identical except for the mode axis. Since
    /// seeds derive from the mode-independent instance sub-key, each pair
    /// ran on the identical configuration; this is the lookup behind every
    /// differential (silent vs talking) comparison.
    ///
    /// # Panics
    ///
    /// Panics if a twin is missing — a matrix listing both modes always
    /// produces both.
    pub fn mode_pairs(&self, a: &str, b: &str) -> Vec<(&RunRecord, &RunRecord)> {
        self.records
            .iter()
            .filter(|r| r.key.mode == a)
            .map(|ra| {
                let rb = self
                    .twin_of(ra, |key| key.mode = b.to_string())
                    .unwrap_or_else(|| panic!("no {b} twin for {}", ra.key));
                (ra, rb)
            })
            .collect()
    }

    /// Pairs every record with topology `a` with its twin under topology
    /// `b` — the record whose key is identical except for the dynamism
    /// axis. Seeds derive from the topology-independent instance sub-key,
    /// so each pair ran on the identical base graph and exploration setup:
    /// this is the lookup behind static-vs-dynamic differential
    /// comparisons, exactly as [`CampaignReport::mode_pairs`] is for
    /// silent-vs-talking.
    ///
    /// Unlike the mode axis, the dynamism axis is partial — matrix
    /// expansion skips cells whose topology cannot run over the
    /// instantiated graph (a dynamic ring over a star) — so records
    /// without a `b` twin are skipped rather than treated as an error,
    /// and the lookup is total in both directions.
    pub fn topo_pairs(&self, a: &str, b: &str) -> Vec<(&RunRecord, &RunRecord)> {
        self.records
            .iter()
            .filter(|r| r.key.topo == a)
            .filter_map(|ra| {
                self.twin_of(ra, |key| key.topo = b.to_string())
                    .map(|rb| (ra, rb))
            })
            .collect()
    }

    /// Pairs every record with fault spec `a` with its twin under fault
    /// spec `b` — the record whose key is identical except for the fault
    /// axis. Seeds derive from the fault-independent instance sub-key, so
    /// each pair ran on the identical base graph and exploration setup:
    /// the lookup behind faulty-vs-fault-free differential comparisons,
    /// mirroring [`CampaignReport::topo_pairs`] on the dynamism axis.
    ///
    /// The fault axis is partial too — matrix expansion skips crash lists
    /// naming labels outside a team — so records without a `b` twin are
    /// skipped rather than treated as an error.
    pub fn fault_pairs(&self, a: &str, b: &str) -> Vec<(&RunRecord, &RunRecord)> {
        self.records
            .iter()
            .filter(|r| r.key.fault == a)
            .filter_map(|ra| {
                self.twin_of(ra, |key| key.fault = b.to_string())
                    .map(|rb| (ra, rb))
            })
            .collect()
    }

    /// The deterministic JSON report: campaign identity plus one object per
    /// record, in key order. Identical for any worker count.
    ///
    /// Records of dynamic cells carry two extra fields (`"topo"` and
    /// `"blocked_moves"`), and records of faulty cells two more
    /// (`"fault"` and `"crashed_agents"`); static fault-free records keep
    /// the exact historical shape, so golden reports of static fault-free
    /// campaigns stay byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"campaign\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"scenario_count\": {},", self.records.len());
        let _ = writeln!(out, "  \"ok_count\": {},", self.ok_count());
        let _ = writeln!(out, "  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{}", record_json_object(r), comma);
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// The deterministic CSV report (same fields as the JSON records; the
    /// tabular format carries the `topo`/`blocked_moves` and
    /// `fault`/`crashed_agents` columns for every row — `static` / 0 and
    /// `none` / 0 on unperturbed cells).
    pub fn to_csv(&self) -> String {
        let mut out = format!("{RECORD_CSV_COLUMNS}\n");
        for r in &self.records {
            let _ = writeln!(out, "{}", record_csv_row(r));
        }
        out
    }

    /// The `BENCH_campaign.json` trajectory artifact: campaign-level
    /// aggregates plus the run's wall-clock time and worker count. Unlike
    /// [`CampaignReport::to_json`], this file intentionally records *how*
    /// the run executed, so it differs across machines and worker counts.
    ///
    /// Throughput semantics: `rounds_per_sec` counts fast-forwarded
    /// (skipped) rounds and therefore measures model-time coverage;
    /// `executed_rounds_per_sec` excludes them and measures simulation
    /// work. All `*_per_sec` fields are `null` when the run was too fast
    /// to time (wall clock under one microsecond) — never inflated by a
    /// floor — and when any record came from the result cache, since
    /// cached records carry work this run did not execute.
    ///
    /// Runs executed against a result store additionally carry
    /// `cache_hits` and `cache_misses`; uncached runs omit both fields
    /// entirely, keeping the historical shape.
    pub fn trajectory_json(&self) -> String {
        let total_rounds: u64 = self.total_rounds();
        let total_moves: u64 = self.records.iter().map(|r| r.moves).sum();
        let total_blocked: u64 = self.records.iter().map(|r| r.blocked_moves).sum();
        let total_crashed: u64 = self
            .records
            .iter()
            .map(|r| u64::from(r.crashed_agents))
            .sum();
        let total_iters: u64 = self.records.iter().map(|r| r.engine_iterations).sum();
        let total_polled: u64 = self.records.iter().map(|r| r.polled_agent_rounds).sum();
        let mut families: Vec<&str> = self.records.iter().map(|r| r.key.family.as_str()).collect();
        families.sort_unstable();
        families.dedup();
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"campaign\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"scenario_count\": {},", self.records.len());
        let _ = writeln!(out, "  \"ok_count\": {},", self.ok_count());
        let _ = writeln!(
            out,
            "  \"families\": [{}],",
            families
                .iter()
                .map(|f| format!("\"{}\"", json_escape(f)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(out, "  \"total_rounds\": {total_rounds},");
        let _ = writeln!(
            out,
            "  \"total_executed_rounds\": {},",
            self.total_executed_rounds()
        );
        let _ = writeln!(out, "  \"total_moves\": {total_moves},");
        let _ = writeln!(out, "  \"total_blocked_moves\": {total_blocked},");
        let _ = writeln!(out, "  \"total_crashed_agents\": {total_crashed},");
        let _ = writeln!(out, "  \"total_engine_iterations\": {total_iters},");
        let _ = writeln!(out, "  \"total_polled_agent_rounds\": {total_polled},");
        // Cache fields appear only on cached runs, so uncached trajectory
        // artifacts keep their exact historical shape.
        if let Some(cache) = self.cache {
            let _ = writeln!(out, "  \"cache_hits\": {},", cache.hits);
            let _ = writeln!(out, "  \"cache_misses\": {},", cache.misses);
        }
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"wall_ms\": {},", self.wall.as_millis());
        let _ = writeln!(
            out,
            "  \"scenarios_per_sec\": {},",
            opt_rate(self.scenarios_per_sec())
        );
        let _ = writeln!(
            out,
            "  \"rounds_per_sec\": {},",
            opt_rate(self.rounds_per_sec())
        );
        let _ = writeln!(
            out,
            "  \"executed_rounds_per_sec\": {},",
            opt_rate(self.executed_rounds_per_sec())
        );
        let _ = writeln!(
            out,
            "  \"engine_iterations_per_sec\": {},",
            opt_rate(self.engine_iterations_per_sec())
        );
        let _ = writeln!(
            out,
            "  \"polled_rounds_per_sec\": {}",
            opt_rate(self.polled_rounds_per_sec())
        );
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes `<dir>/<name>.json`, `<dir>/<name>.csv` and
    /// `<dir>/BENCH_campaign.json`, creating `dir` if needed; returns the
    /// three paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_files(&self, dir: &Path) -> io::Result<CampaignArtifacts> {
        std::fs::create_dir_all(dir)?;
        let artifacts = CampaignArtifacts {
            json: dir.join(format!("{}.json", self.name)),
            csv: dir.join(format!("{}.csv", self.name)),
            trajectory: dir.join("BENCH_campaign.json"),
        };
        std::fs::write(&artifacts.json, self.to_json())?;
        std::fs::write(&artifacts.csv, self.to_csv())?;
        std::fs::write(&artifacts.trajectory, self.trajectory_json())?;
        Ok(artifacts)
    }
}

/// Where [`CampaignReport::write_files`] put its three artifacts.
#[derive(Clone, Debug)]
pub struct CampaignArtifacts {
    /// The deterministic per-record JSON report.
    pub json: PathBuf,
    /// The deterministic per-record CSV report.
    pub csv: PathBuf,
    /// The `BENCH_campaign.json` trajectory summary.
    pub trajectory: PathBuf,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Matrix;
    use crate::runner::{run_campaign, run_campaign_cached};
    use nochatter_graph::generators::Family;

    fn tiny_report() -> CampaignReport {
        run_campaign(
            &Matrix {
                families: vec![Family::Path],
                sizes: vec![4],
                teams: vec![vec![2, 3]],
                ..Matrix::new()
            }
            .campaign("tiny", 3)
            .unwrap(),
            1,
        )
    }

    #[test]
    fn json_has_stable_shape() {
        let json = tiny_report().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"campaign\": \"tiny\""));
        assert!(json.contains("\"scenario_count\": 1"));
        assert!(json.contains("\"status\": \"gathered\""));
        assert!(json.contains("\"trace_digest\": \"0x"));
    }

    #[test]
    fn csv_has_header_plus_one_row_per_record() {
        let report = tiny_report();
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 1 + report.records.len());
        assert!(csv.lines().nth(1).unwrap().contains("path"));
    }

    #[test]
    fn trajectory_includes_execution_facts() {
        let t = tiny_report().trajectory_json();
        assert!(t.contains("\"workers\": 1"));
        assert!(t.contains("\"wall_ms\""));
        assert!(t.contains("\"families\": [\"path\"]"));
        assert!(t.contains("\"total_executed_rounds\""));
        assert!(t.contains("\"executed_rounds_per_sec\""));
    }

    #[test]
    fn trajectory_carries_cache_stats_only_on_cached_runs() {
        let mut report = tiny_report();
        assert!(!report.trajectory_json().contains("cache_"));
        report.cache = Some(CacheStats { hits: 3, misses: 4 });
        let t = report.trajectory_json();
        assert!(t.contains("\"cache_hits\": 3,"));
        assert!(t.contains("\"cache_misses\": 4,"));
        // The deterministic reports never carry cache facts — byte
        // identity across cache states holds by construction.
        assert!(!report.to_json().contains("cache_"));
        assert!(!report.to_csv().contains("cache_"));
    }

    #[test]
    fn unmeasurable_walls_yield_null_rates_not_inflated_ones() {
        // The historical 1µs floor turned a sub-microsecond campaign into
        // an arbitrarily huge `*_per_sec`; rates must decline instead.
        let mut report = tiny_report();
        report.wall = Duration::ZERO;
        assert_eq!(report.scenarios_per_sec(), None);
        assert_eq!(report.rounds_per_sec(), None);
        assert_eq!(report.executed_rounds_per_sec(), None);
        assert_eq!(report.engine_iterations_per_sec(), None);
        let t = report.trajectory_json();
        assert!(t.contains("\"scenarios_per_sec\": null"));
        assert!(t.contains("\"executed_rounds_per_sec\": null"));

        report.wall = Duration::from_secs(2);
        assert_eq!(
            report.scenarios_per_sec(),
            Some(report.records.len() as f64 / 2.0)
        );
    }

    #[test]
    fn rates_are_null_once_any_record_comes_from_the_cache() {
        let campaign = Matrix {
            families: vec![Family::Path, Family::Ring],
            sizes: vec![4],
            teams: vec![vec![2, 3]],
            ..Matrix::new()
        }
        .campaign("rates", 3)
        .unwrap();
        let dir = std::env::temp_dir().join("nochatter-lab-report-rates-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::Store::open(&dir).unwrap();
        let rates = |r: &CampaignReport| {
            [
                r.scenarios_per_sec(),
                r.rounds_per_sec(),
                r.executed_rounds_per_sec(),
                r.engine_iterations_per_sec(),
                r.polled_rounds_per_sec(),
            ]
        };

        let mut cold = run_campaign_cached(&campaign, 1, Some(&store));
        assert_eq!(cold.cache, Some(CacheStats { hits: 0, misses: 2 }));
        // The cold run really executed; pin a measurable wall so the
        // assertion does not depend on the clock's resolution.
        cold.wall = Duration::from_millis(5);
        assert!(rates(&cold).iter().all(Option::is_some));
        assert!(!cold.trajectory_json().contains("null"));

        let mut warm = run_campaign_cached(&campaign, 1, Some(&store));
        assert_eq!(warm.cache, Some(CacheStats { hits: 2, misses: 0 }));
        warm.wall = Duration::from_millis(5);
        assert!(rates(&warm).iter().all(Option::is_none));
        assert_eq!(
            warm.trajectory_json().matches("_per_sec\": null").count(),
            5
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn executed_rounds_exclude_fast_forwarded_ones() {
        let report = tiny_report();
        let skipped: u64 = report.records.iter().map(|r| r.skipped_rounds).sum();
        assert_eq!(
            report.total_executed_rounds(),
            report.total_rounds() - skipped
        );
        assert!(report.total_executed_rounds() <= report.total_rounds());
    }

    #[test]
    fn write_files_round_trips() {
        // No tempdir crate offline; the OS temp dir is fine for a unit test.
        let dir = std::env::temp_dir().join("nochatter-lab-report-test");
        let report = tiny_report();
        let artifacts = report.write_files(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(artifacts.json).unwrap(),
            report.to_json()
        );
        assert_eq!(
            std::fs::read_to_string(artifacts.csv).unwrap(),
            report.to_csv()
        );
        assert!(artifacts.trajectory.ends_with("BENCH_campaign.json"));
    }

    #[test]
    fn topo_pairs_skips_records_without_a_twin() {
        // A static-only report has no dynamic twins; the lookup must be
        // total (empty), not a panic, in either direction.
        let report = tiny_report();
        assert!(report.topo_pairs("static", "dring@1").is_empty());
        assert!(report.topo_pairs("dring@1", "static").is_empty());
    }

    #[test]
    fn fault_pairs_skips_records_without_a_twin() {
        // A fault-free report has no faulty twins; the lookup must be
        // total (empty), not a panic, in either direction.
        let report = tiny_report();
        assert!(report.fault_pairs("none", "crash3@64").is_empty());
        assert!(report.fault_pairs("crash3@64", "none").is_empty());
    }

    #[test]
    fn escaping_helpers() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }
}
