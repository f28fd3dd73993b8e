//! The experiment harness: regenerates every table and figure of the
//! reproduction (the README's "Build, test, bench" section shows how to
//! run them; `experiments -- --help` lists them).
//!
//! The paper is a theory paper — its "evaluation" is Theorems 3.1, 4.1 and
//! 5.1 plus complexity claims — so each experiment turns one theorem or
//! claim into a measurable table (`T*`), series (`F*`) or ablation (`A*`).
//! Run them all with:
//!
//! ```text
//! cargo run -p nochatter-bench --release --bin experiments -- all
//! ```
//!
//! Every scenario-sweep table (T1, F1, F2, T3, F3, T4, F4, T5, T6, DR1,
//! FR1) is
//! expressed as a [`nochatter_lab`] campaign: the sweep is a declarative
//! [`Matrix`] (or an explicit scenario list for the unknown-bound tables),
//! executed by the sharded deterministic campaign runner, and the table is
//! a post-processing pass over the collected [`RunRecord`]s. Three
//! experiments deliberately bypass the campaign runner because they probe
//! *internal* machinery rather than end-to-end scenarios: T2 drives the
//! `Communicate` subroutine with hand-built behaviors (Lemma 3.1's exact
//! duration), and A1/A2 ablate internals (truncated exploration sequences,
//! the clean-exploration shield) that no well-formed scenario can express.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::Arc;

use nochatter_core::unknown::{
    run_unknown_with_options, EstMode, SliceEnumeration, UnknownOptions,
};
use nochatter_core::{harness, BitStr, CommMode, KnownParams, KnownSetup};
use nochatter_explore::Uxs;
use nochatter_graph::generators::{self, Family};
use nochatter_graph::{InitialConfiguration, Label, NodeId};
use nochatter_lab::{
    mode_name, run_campaign, spread, wake_name, Campaign, Matrix, PayloadScheme, RunRecord,
    Scenario, ScenarioKey, ScenarioKind,
};
use nochatter_sim::WakeSchedule;

/// A rendered experiment: a titled markdown table plus free-form notes.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id and description.
    pub title: String,
    /// Column headers.
    pub columns: Vec<&'static str>,
    /// Row cells (stringified).
    pub rows: Vec<Vec<String>>,
    /// Summary lines printed below the table.
    pub notes: Vec<String>,
}

impl Table {
    fn new(title: impl Into<String>, columns: Vec<&'static str>) -> Self {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
    }

    fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders as github-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n{note}");
        }
        out
    }
}

/// Global knobs for a harness invocation.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentCtx {
    /// Shrinks sweeps for fast iteration (`--quick`).
    pub quick: bool,
}

fn label(v: u64) -> Label {
    Label::new(v).unwrap()
}

/// Runs a campaign on every available core (campaign results are
/// bit-identical for any worker count, so tables don't depend on this).
fn run(campaign: &Campaign) -> Vec<RunRecord> {
    run_campaign(campaign, 0).records
}

fn ok_cell(r: &RunRecord) -> (String, String) {
    if r.ok {
        ("yes".into(), r.rounds.to_string())
    } else {
        (format!("NO: {}", r.status), String::new())
    }
}

/// Least-squares slope of log(y) against log(x).
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// T1 — Theorem 3.1 correctness sweep: families × sizes × team sizes ×
/// wake schedules; every cell must validate.
pub fn t1_correctness(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "T1 — GatherKnownUpperBound correctness sweep (Theorem 3.1)",
        vec!["family", "n", "k", "wake", "ok", "rounds", "moves"],
    );
    let sizes: Vec<u32> = if ctx.quick {
        vec![5, 8]
    } else {
        vec![4, 6, 8, 10, 12]
    };
    let teams: Vec<Vec<u64>> = if ctx.quick {
        vec![vec![2, 3], vec![3, 5, 9]]
    } else {
        vec![vec![2, 3], vec![3, 5, 9], vec![1, 4, 6, 7]]
    };
    let campaign = Matrix {
        families: Family::all().to_vec(),
        sizes,
        teams,
        schedules: vec![
            WakeSchedule::Simultaneous,
            WakeSchedule::FirstOnly,
            WakeSchedule::Staggered { gap: 7 },
        ],
        ..Matrix::new()
    }
    .campaign("t1", 17)
    .expect("t1 matrix is well-formed");
    let records = run(&campaign);
    let failures = records.iter().filter(|r| !r.ok).count();
    for r in &records {
        let (ok, rounds) = ok_cell(r);
        t.row(vec![
            r.key.family.clone(),
            r.n_actual.to_string(),
            r.key.team.len().to_string(),
            r.key.wake.clone(),
            ok,
            rounds,
            r.moves.to_string(),
        ]);
    }
    t.note(format!(
        "invariant violations: {failures} (expected 0) over {} runs",
        records.len()
    ));
    t
}

/// F1 — Theorem 3.1 complexity in `N`: rounds vs network size on rings and
/// random graphs, with the fitted log–log slope.
pub fn f1_rounds_vs_n(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "F1 — rounds vs N (Theorem 3.1: polynomial in N)",
        vec!["family", "n=N", "rounds", "moves"],
    );
    let sizes: Vec<u32> = if ctx.quick {
        vec![4, 6, 8, 10]
    } else {
        vec![4, 6, 8, 10, 12, 14, 16]
    };
    let campaign = Matrix {
        families: vec![Family::Ring, Family::RandomConnected],
        sizes,
        teams: vec![vec![2, 3]],
        ..Matrix::new()
    }
    .campaign("f1", 9)
    .expect("f1 matrix is well-formed");
    let records = run(&campaign);
    for family in ["rconn", "ring"] {
        let mut points = Vec::new();
        for r in records.iter().filter(|r| r.key.family == family) {
            assert!(r.ok, "F1 runs must validate: {} {}", r.key, r.status);
            points.push((f64::from(r.n_actual), r.rounds as f64));
            t.row(vec![
                r.key.family.clone(),
                r.n_actual.to_string(),
                r.rounds.to_string(),
                r.moves.to_string(),
            ]);
        }
        t.note(format!(
            "{}: fitted log-log slope {:.2} (a low-degree polynomial; the dominant \
             term is T(EXPLO(N)) times the phase count)",
            family,
            loglog_slope(&points)
        ));
    }
    t
}

/// F2 — Theorem 3.1 complexity in `ℓ`: rounds vs the bit length of the
/// smallest label at fixed N, expressed as a campaign whose *team* axis
/// sweeps label lengths.
pub fn f2_rounds_vs_label_len(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "F2 — rounds vs smallest-label bit length ℓ (Theorem 3.1: polynomial in ℓ)",
        vec!["ℓ", "labels", "rounds"],
    );
    let max_bits: u32 = if ctx.quick { 6 } else { 10 };
    let teams: Vec<Vec<u64>> = (1..=max_bits)
        .map(|bits| {
            let small = 1u64 << (bits - 1); // smallest label with `bits` bits
            vec![small, small + 1]
        })
        .collect();
    let campaign = Matrix {
        families: vec![Family::Ring],
        sizes: vec![6],
        teams: teams.clone(),
        ..Matrix::new()
    }
    .campaign("f2", 2)
    .expect("f2 matrix is well-formed");
    let records = run(&campaign);
    let mut points = Vec::new();
    for (bits, team) in (1..=max_bits).zip(&teams) {
        let r = records
            .iter()
            .find(|r| &r.key.team == team)
            .expect("every team ran");
        assert!(r.ok, "F2 runs must validate: {}", r.status);
        points.push((f64::from(bits), r.rounds as f64));
        t.row(vec![
            bits.to_string(),
            format!("{{{}, {}}}", team[0], team[1]),
            r.rounds.to_string(),
        ]);
    }
    // The quadratic signature: first differences grow linearly (constant
    // second differences), even while the log-log slope is still depressed
    // by the large additive constant.
    let rounds: Vec<f64> = points.iter().map(|&(_, y)| y).collect();
    let second_diffs: Vec<f64> = rounds
        .windows(3)
        .map(|w| (w[2] - w[1]) - (w[1] - w[0]))
        .collect();
    let mean_dd = second_diffs.iter().sum::<f64>() / second_diffs.len().max(1) as f64;
    let max_dev = second_diffs
        .iter()
        .map(|d| (d - mean_dd).abs())
        .fold(0.0f64, f64::max);
    t.note(format!(
        "fitted log-log slope {:.2}; second differences of the rounds are \
         constant at {:.0} (max deviation {:.0}) — the quadratic-in-ℓ \
         signature of ≈2ℓ phases whose length grows linearly in the index",
        loglog_slope(&points),
        mean_dd,
        max_dev
    ));
    t
}

/// T2 — Lemma 3.1: `Communicate` transmits the lexicographically smallest
/// code with its exact multiplicity, in exactly `5·i·T(EXPLO(N))` rounds.
///
/// Deliberately not a campaign: it drives the `Communicate` subroutine in
/// isolation with hand-built agents to pin the lemma's *exact* duration,
/// which no end-to-end scenario exposes.
pub fn t2_communicate(_ctx: ExperimentCtx) -> Table {
    use nochatter_core::Communicate;
    use nochatter_sim::proc::Procedure;
    use nochatter_sim::{Action, Declaration, Engine, Obs, Poll};

    let mut t = Table::new(
        "T2 — Communicate (Lemma 3.1): winner, multiplicity, exact duration",
        vec!["labels", "i", "winner", "k", "duration", "expected", "ok"],
    );

    /// Steps from its leaf onto the star's hub, then runs `Communicate`
    /// and declares the decoded winner and its multiplicity.
    struct Member {
        comm: Communicate,
        moved: bool,
    }
    impl Procedure for Member {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            if !self.moved {
                self.moved = true;
                return Poll::Yield(Action::TakePort(nochatter_graph::Port::new(0)));
            }
            self.comm.poll(obs).map(|out| Declaration {
                leader: out.l.extract_terminated_code().and_then(|d| d.to_label()),
                size: Some(out.k),
            })
        }

        fn held(&self) -> nochatter_sim::walk::Instruction {
            self.comm.held()
        }

        fn held_done(&mut self, done: nochatter_sim::walk::HeldDone) {
            self.comm.held_done(done);
        }
    }

    for labels in [vec![5u64, 3, 12], vec![4, 9], vec![7, 7 + 8, 23, 6]] {
        let i = labels
            .iter()
            .map(|&l| 2 * (64 - l.leading_zeros() as u64) + 2)
            .max()
            .unwrap() as u32;
        let g = generators::star(labels.len() as u32 + 1);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 7).unwrap());
        let t_explo = 2 * uxs.len() as u64;
        let mut engine = Engine::new(&g);
        for (idx, &l) in labels.iter().enumerate() {
            engine.add_agent(
                label(l),
                NodeId::new(idx as u32 + 1),
                Box::new(Member {
                    comm: Communicate::new(
                        i,
                        BitStr::from_label(label(l)).code(),
                        true,
                        Arc::clone(&uxs),
                    ),
                    moved: false,
                }),
            );
        }
        let outcome = engine.run(100_000_000).unwrap();
        let expected_winner = labels
            .iter()
            .map(|&l| (BitStr::from_label(label(l)).code(), l))
            .min()
            .unwrap();
        let expected_k = labels
            .iter()
            .filter(|&&l| BitStr::from_label(label(l)).code() == expected_winner.0)
            .count() as u32;
        let rec = outcome.declarations[0].1.unwrap();
        let winner = rec.declaration.leader.map(|l| l.value()).unwrap_or(0);
        let k = rec.declaration.size.unwrap();
        let duration = rec.round - 1; // one approach move
        let expected_duration = 5 * u64::from(i) * t_explo;
        let ok = winner == expected_winner.1 && k == expected_k && duration == expected_duration;
        t.row(vec![
            format!("{labels:?}"),
            i.to_string(),
            winner.to_string(),
            k.to_string(),
            duration.to_string(),
            expected_duration.to_string(),
            if ok { "yes" } else { "NO" }.into(),
        ]);
    }
    t
}

fn tiny_cfg(kind: &str, labels: &[(u64, u32)]) -> InitialConfiguration {
    let graph = match kind {
        "path2" => generators::path(2),
        "ring3" => generators::ring(3),
        other => panic!("unknown tiny graph {other}"),
    };
    InitialConfiguration::new(
        graph,
        labels
            .iter()
            .map(|&(l, v)| (label(l), NodeId::new(v)))
            .collect(),
    )
    .unwrap()
}

/// Builds one explicit unknown-bound scenario: `truth` against an
/// enumeration of `decoys` followed by the truth itself.
fn unknown_scenario(
    name: &str,
    truth: InitialConfiguration,
    decoys: Vec<InitialConfiguration>,
) -> Scenario {
    let mode = CommMode::Silent;
    let schedule = WakeSchedule::Simultaneous;
    let kind = ScenarioKind::Unknown {
        decoys,
        est_mode: EstMode::Conservative,
    };
    // Key strings come from the lab helpers so explicit scenarios can never
    // desync from matrix-expanded ones.
    let key = ScenarioKey {
        family: name.to_string(),
        n: truth.size() as u32,
        team: truth.labels().map(Label::value).collect(),
        wake: wake_name(&schedule),
        topo: "static".into(),
        fault: "none".into(),
        mode: mode_name(mode).into(),
        variant: kind.variant_name(),
        rep: 0,
    };
    Scenario {
        key,
        cfg: truth,
        mode,
        schedule,
        topo: nochatter_sim::TopologySpec::Static,
        fault: nochatter_sim::FaultSpec::None,
        kind,
        seed: 0, // overwritten by Campaign::from_scenarios
    }
}

/// T3 — Theorem 4.1: gathering + leader election + exact size learning with
/// no prior knowledge, across truth positions in the enumeration.
pub fn t3_unknown(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "T3 — GatherUnknownUpperBound correctness (Theorem 4.1)",
        vec![
            "truth",
            "h*",
            "ok",
            "size",
            "leader",
            "rounds",
            "engine iters",
        ],
    );
    let truth2 = tiny_cfg("path2", &[(1, 0), (2, 1)]);
    let truth3 = tiny_cfg("ring3", &[(1, 0), (2, 1)]);
    let decoy = tiny_cfg("path2", &[(3, 0), (4, 1)]);
    let mut scenarios = vec![
        unknown_scenario("path2", truth2.clone(), vec![]),
        unknown_scenario("ring3", truth3.clone(), vec![]),
        unknown_scenario("ring3", truth3.clone(), vec![decoy.clone()]),
    ];
    if !ctx.quick {
        scenarios.push(unknown_scenario(
            "ring3",
            truth3.clone(),
            vec![decoy.clone(), tiny_cfg("path2", &[(5, 0), (6, 1)])],
        ));
    }
    let campaign =
        Campaign::from_scenarios("t3", 0, scenarios).expect("t3 scenarios are well-formed");
    let mut records = run(&campaign);
    // Present in enumeration-depth order (key order sorts path2 first).
    records.sort_by_key(|r| (r.key.family.clone(), r.key.variant.clone()));
    for r in &records {
        let h_star = r.key.variant.trim_start_matches("unknown@").to_string();
        let (ok, _) = ok_cell(r);
        t.row(vec![
            format!("{}@{h_star}", r.key.family),
            h_star,
            ok,
            r.size.map(|s| s.to_string()).unwrap_or_default(),
            r.leader.map(|l| l.to_string()).unwrap_or_default(),
            r.rounds.to_string(),
            r.engine_iterations.to_string(),
        ]);
    }
    t.note("size must equal the true network size; leader must be the true smallest label.");
    t
}

/// F3 — §4 feasibility-only: round blow-up as the truth moves deeper into
/// the enumeration.
pub fn f3_unknown_growth(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "F3 — unknown-bound rounds vs hypothesis index (exponential by design)",
        vec!["h*", "rounds", "engine iters", "skipped (fast-forwarded)"],
    );
    let truth = tiny_cfg("ring3", &[(1, 0), (2, 1)]);
    let decoys = [
        tiny_cfg("path2", &[(1, 0), (2, 1)]),
        tiny_cfg("path2", &[(3, 0), (4, 1)]),
    ];
    let depth = if ctx.quick { 2 } else { 3 };
    let scenarios: Vec<Scenario> = (1..=depth)
        .map(|h_star| {
            unknown_scenario(
                "ring3",
                truth.clone(),
                decoys.iter().take(h_star - 1).cloned().collect(),
            )
        })
        .collect();
    let campaign =
        Campaign::from_scenarios("f3", 0, scenarios).expect("f3 scenarios are well-formed");
    let mut records = run(&campaign);
    records.sort_by_key(|r| r.key.variant.clone());
    for r in &records {
        assert!(r.ok, "F3 runs must validate: {}", r.status);
        t.row(vec![
            r.key.variant.trim_start_matches("unknown@").to_string(),
            r.rounds.to_string(),
            r.engine_iterations.to_string(),
            r.skipped_rounds.to_string(),
        ]);
    }
    t.note(
        "each extra wrong hypothesis multiplies the round count (the nested \
         S_h/T_h budgets compound) — the paper's 'feasibility only' caveat, measured.",
    );
    t
}

/// T4 — Theorem 5.1 correctness: every agent learns the exact multiset of
/// messages (the campaign runner verifies each agent's decoded multiset).
pub fn t4_gossip(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "T4 — Gossip correctness (Theorem 5.1)",
        vec!["k", "payload lengths", "ok", "rounds"],
    );
    let teams: Vec<Vec<u64>> = if ctx.quick {
        vec![vec![3, 4], vec![2, 5, 9]]
    } else {
        vec![vec![3, 4], vec![2, 5, 9], vec![1, 6, 11, 14]]
    };
    let campaign = Matrix {
        families: vec![Family::Ring],
        sizes: vec![5],
        teams,
        kinds: vec![ScenarioKind::Gossip(PayloadScheme::Ramp)],
        ..Matrix::new()
    }
    .campaign("t4", 3)
    .expect("t4 matrix is well-formed");
    let mut records = run(&campaign);
    records.sort_by_key(|r| r.key.team.len());
    for r in &records {
        t.row(vec![
            r.key.team.len().to_string(),
            format!("{:?}", (0..r.key.team.len()).collect::<Vec<_>>()),
            if r.ok { "yes" } else { "NO" }.into(),
            r.rounds.to_string(),
        ]);
    }
    t
}

/// F4 — Theorem 5.1 complexity: rounds vs the largest message length. The
/// campaign's variant axis sweeps `Gather` (the baseline isolating the
/// gossip term) plus uniform payload lengths.
pub fn f4_gossip_vs_len(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "F4 — gossip rounds vs max message length (Theorem 5.1: polynomial)",
        vec!["|M|", "total rounds", "gossip rounds (excl. gathering)"],
    );
    let lens: &[usize] = if ctx.quick {
        &[1, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 24]
    };
    let mut kinds = vec![ScenarioKind::Gather];
    kinds.extend(
        lens.iter()
            .map(|&len| ScenarioKind::Gossip(PayloadScheme::Uniform { len })),
    );
    let campaign = Matrix {
        families: vec![Family::Path],
        sizes: vec![3],
        teams: vec![vec![2, 3]],
        kinds,
        ..Matrix::new()
    }
    .campaign("f4", 3)
    .expect("f4 matrix is well-formed");
    let records = run(&campaign);
    let gather_only = records
        .iter()
        .find(|r| r.key.variant == "gather")
        .expect("baseline ran");
    assert!(
        gather_only.ok,
        "baseline must gather: {}",
        gather_only.status
    );
    for &len in lens {
        let variant = format!("gossip-u{len}");
        let r = records
            .iter()
            .find(|r| r.key.variant == variant)
            .expect("every length ran");
        assert!(r.ok, "F4 runs must validate: {}", r.status);
        // The baseline shares the gossip runs' instance seed (the variant
        // axis is outside the instance sub-key), so gathering takes the
        // same rounds in both and the difference is exactly the gossip
        // term; a failed subtraction means that sharing broke.
        let gossip_term = r
            .rounds
            .checked_sub(gather_only.rounds)
            .expect("gossip runs cannot finish before their own gathering baseline");
        t.row(vec![
            len.to_string(),
            r.rounds.to_string(),
            gossip_term.to_string(),
        ]);
    }
    t.note(format!(
        "gathering-only baseline: {} rounds; the gossip term grows \
         quadratically in |M| (length budget climbs 2,4,...,2|M|+2 with cost 5jT each).",
        gather_only.rounds
    ));
    t
}

/// T5 — the price of silence: identical instances under the weak model vs.
/// the traditional talking model (the campaign's mode axis).
pub fn t5_price_of_silence(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "T5 — price of silence: weak model vs traditional model",
        vec!["family", "n", "k", "silent", "talking", "ratio"],
    );
    let sizes: Vec<u32> = if ctx.quick { vec![6] } else { vec![6, 9, 12] };
    let campaign = Matrix {
        families: vec![Family::Ring, Family::Grid, Family::Star],
        sizes,
        teams: vec![vec![3, 5, 9]],
        modes: vec![CommMode::Silent, CommMode::Talking],
        ..Matrix::new()
    }
    .campaign("t5", 5)
    .expect("t5 matrix is well-formed");
    let report = run_campaign(&campaign, 0);
    let mut ratios = Vec::new();
    for (silent, talking) in report.mode_pairs("silent", "talking") {
        assert!(silent.ok && talking.ok, "T5 runs must validate");
        let ratio = silent.rounds as f64 / talking.rounds as f64;
        ratios.push(ratio);
        t.row(vec![
            silent.key.family.clone(),
            silent.n_actual.to_string(),
            silent.key.team.len().to_string(),
            silent.rounds.to_string(),
            talking.rounds.to_string(),
            format!("{ratio:.3}"),
        ]);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    t.note(format!(
        "mean ratio {mean:.3}: silence costs the 5i·T Communicate term per phase — \
         a constant factor here, polynomial overhead in general (Theorem 3.1)."
    ));
    t
}

/// T6 — agreement invariants over a randomized batch: the campaign's seed
/// repetitions sweep fresh random graphs under staggered wake-ups, and
/// every record must pass the full gathering validation (same round, same
/// node, same leader, leader in team).
pub fn t6_agreement(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "T6 — agreement invariants over randomized instances",
        vec!["runs", "gathered", "invariant violations", "engine errors"],
    );
    let campaign = Matrix {
        families: vec![Family::RandomConnected, Family::RandomTree],
        sizes: if ctx.quick {
            vec![5, 7]
        } else {
            vec![5, 6, 7, 8]
        },
        teams: vec![vec![2, 5, 8], vec![3, 4]],
        schedules: vec![
            WakeSchedule::Staggered { gap: 1 },
            WakeSchedule::Staggered { gap: 5 },
            WakeSchedule::Staggered { gap: 13 },
        ],
        reps: if ctx.quick { 1 } else { 2 },
        shuffled_ports: true,
        ..Matrix::new()
    }
    .campaign("t6", 6)
    .expect("t6 matrix is well-formed");
    let records = run(&campaign);
    let gathered = records.iter().filter(|r| r.ok).count();
    let engine_errors = records
        .iter()
        .filter(|r| r.status.starts_with("engine error"))
        .count();
    let violations = records.len() - gathered - engine_errors;
    t.row(vec![
        records.len().to_string(),
        format!("{gathered}/{}", records.len()),
        violations.to_string(),
        engine_errors.to_string(),
    ]);
    for r in records.iter().filter(|r| !r.ok) {
        t.note(format!("violation at {}: {}", r.key, r.status));
    }
    t
}

/// A1 — ablation: truncating the certified exploration sequence breaks the
/// wake-up and rendezvous guarantees, and gathering fails.
///
/// Deliberately not a campaign: it injects *uncertified* exploration
/// sequences, which no well-formed scenario specification can express.
pub fn a1_uxs_ablation(_ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "A1 — ablation: uncertified (truncated) exploration sequences",
        vec!["fraction", "covers all starts", "gathering"],
    );
    let g = generators::ring(8);
    let cfg = spread(g.clone(), &[2, 3]).expect("valid ablation configuration");
    let full = Uxs::covering(std::slice::from_ref(&g), 11).unwrap();
    for percent in [100usize, 60, 30, 10] {
        let truncated = full.truncated((full.len() * percent / 100).max(1));
        let covers = g.nodes().all(|s| truncated.covers(&g, s));
        let params = KnownParams::new(8, Arc::new(truncated));
        let setup = KnownSetup::from_params(params);
        let result = harness::run_known(&cfg, &setup, CommMode::Silent, WakeSchedule::FirstOnly);
        let verdict = match result {
            Ok(outcome) => match outcome.gathering() {
                Ok(_) => "correct".to_string(),
                Err(e) => format!("FAILS: {e}"),
            },
            Err(e) => format!("engine error: {e}"),
        };
        t.row(vec![format!("{percent}%"), covers.to_string(), verdict]);
    }
    t.note(
        "the certified sequence is load-bearing: with partial coverage the phase-0 \
         exploration no longer wakes everyone and EXPLO-based meetings are lost.",
    );
    t
}

/// A2 — ablation: removing the `EnsureCleanExploration` shield lets a
/// corrupted `EST` reconstruction declare gathering unsoundly (why
/// Algorithm 10 and Lemma 4.10 exist).
///
/// Deliberately not a campaign: it toggles internal options
/// (`disable_clean_exploration`, adversarial `EST`) that the scenario
/// specification intentionally cannot reach.
pub fn a2_est_ablation(_ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "A2 — ablation: the clean-exploration shield (Algorithm 10)",
        vec!["shield", "EST mode", "outcome"],
    );
    // Real world: a 4-path with a third agent (label 9 ∉ φ_1) parked two
    // hops from the hypothesized central node — outside StarCheck's radius
    // but inside EST+'s walk.
    let truth = InitialConfiguration::new(
        generators::path(4),
        vec![
            (label(1), NodeId::new(0)),
            (label(2), NodeId::new(1)),
            (label(9), NodeId::new(2)),
        ],
    )
    .unwrap();
    let hypo = InitialConfiguration::new(
        generators::path(3),
        vec![(label(1), NodeId::new(0)), (label(2), NodeId::new(1))],
    )
    .unwrap();
    for (shield, mode) in [
        (true, EstMode::Adversarial),
        (false, EstMode::Conservative),
        (false, EstMode::Adversarial),
    ] {
        let (outcome, reports) = run_unknown_with_options(
            &truth,
            SliceEnumeration::new(vec![hypo.clone()]),
            UnknownOptions {
                est_mode: mode,
                disable_clean_exploration: !shield,
            },
            WakeSchedule::Simultaneous,
        )
        .expect("run completes");
        let outcome_str = match outcome.gathering() {
            Ok(r) => format!(
                "UNSOUND: declared size {} on a {}-node network",
                r.size.unwrap(),
                truth.size()
            ),
            Err(_) if outcome.declarations.iter().any(|(_, r)| r.is_some()) => {
                "UNSOUND: partial declaration".into()
            }
            Err(_) => {
                let dirty = reports
                    .iter()
                    .filter_map(|(_, r)| *r)
                    .any(|r| r.est_dirty_observed);
                format!(
                    "safe (hypothesis rejected{})",
                    if dirty { ", dirty EST seen" } else { "" }
                )
            }
        };
        t.row(vec![
            if shield { "on" } else { "OFF" }.into(),
            format!("{mode:?}"),
            outcome_str,
        ]);
    }
    t.note(
        "with the shield on, even an adversarial EST is never exercised (Lemma 4.10); \
         removing the shield lets a dirty exploration accept a wrong hypothesis.",
    );
    t
}

/// DR1 — gathering on 1-interval-connected dynamic rings (à la *Gathering
/// in Dynamic Rings*, Di Luna et al.): the `dr1` preset campaign pits the
/// algorithm against an adversary that removes one seeded ring edge per
/// round, with each dynamic cell's static twin (same derived seed, same
/// base ring) as the control column.
pub fn dr1_dynamic_ring(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "DR1 — dynamic ring: one adversarial edge removal per round (1-interval connectivity)",
        vec!["n", "k", "wake", "mode", "topo", "ok", "rounds", "blocked"],
    );
    let report = run_campaign(&nochatter_lab::presets::dr1_campaign(ctx.quick), 0);
    for r in &report.records {
        let (ok, rounds) = ok_cell(r);
        t.row(vec![
            r.n_actual.to_string(),
            r.key.team.len().to_string(),
            r.key.wake.clone(),
            r.key.mode.clone(),
            r.key.topo.clone(),
            ok,
            rounds,
            r.blocked_moves.to_string(),
        ]);
    }
    let dynamic: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.key.topo != "static")
        .collect();
    let survived = dynamic.iter().filter(|r| r.ok).count();
    let blocked: u64 = dynamic.iter().map(|r| r.blocked_moves).sum();
    t.note(format!(
        "static control: {}/{} ok; dynamic ring: {survived}/{} ok with {blocked} blocked \
         moves total. The talking baseline survives every cell (label sensing makes \
         meeting detection timing-independent); the silent algorithm — EXPLO retries \
         blocked traversals — survives a substantial subset, and where it fails the \
         record names the violated requirement.",
        report
            .records
            .iter()
            .filter(|r| r.key.topo == "static" && r.ok)
            .count(),
        report.records.len() - dynamic.len(),
        dynamic.len(),
    ));
    t
}

/// FR1 — gathering under crash faults: the `fr1` preset campaign crashes
/// `f ∈ {0, 1, 2}` agents mid-run (the crashed body keeps counting toward
/// `CurCard` — the paper's sensing model makes that the honest semantics)
/// and asks where the silent algorithm still achieves *surviving*
/// gathering, with the talking baseline and each cell's fault-free twin
/// (same derived seed, same base ring) as the controls.
pub fn fr1_crash_faults(ctx: ExperimentCtx) -> Table {
    let mut t = Table::new(
        "FR1 — crash faults: f agent crashes vs silent gathering and the talking baseline",
        vec!["n", "k", "wake", "mode", "fault", "ok", "rounds", "crashed"],
    );
    let report = run_campaign(&nochatter_lab::presets::fr1_campaign(ctx.quick), 0);
    for r in &report.records {
        let (ok, rounds) = ok_cell(r);
        t.row(vec![
            r.n_actual.to_string(),
            r.key.team.len().to_string(),
            r.key.wake.clone(),
            r.key.mode.clone(),
            r.key.fault.clone(),
            ok,
            rounds,
            r.crashed_agents.to_string(),
        ]);
    }
    let faulty: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.key.fault != "none")
        .collect();
    let survived = |mode: &str| {
        let cells: Vec<_> = faulty.iter().filter(|r| r.key.mode == mode).collect();
        format!("{}/{}", cells.iter().filter(|r| r.ok).count(), cells.len())
    };
    let total_crashed: u64 = faulty.iter().map(|r| u64::from(r.crashed_agents)).sum();
    t.note(format!(
        "fault-free control: {}/{} ok; under crashes the silent algorithm achieves \
         surviving gathering on {} cells and the talking baseline on {} (identical \
         instances — each faulty cell shares its seed with its fault-free twin), \
         {total_crashed} agents crashed in total. Where a cell fails, the record names \
         the violated requirement (a validation error, never a harness crash): a crashed \
         body is indistinguishable from a waiting agent under weak sensing, so survivors \
         can wait forever for a CurCard that will never move.",
        report
            .records
            .iter()
            .filter(|r| r.key.fault == "none" && r.ok)
            .count(),
        report.records.len() - faulty.len(),
        survived("silent"),
        survived("talking"),
    ));
    t
}

/// Runs an experiment by id; `None` for an unknown id.
pub fn run_experiment(id: &str, ctx: ExperimentCtx) -> Option<Table> {
    Some(match id {
        "t1" => t1_correctness(ctx),
        "f1" => f1_rounds_vs_n(ctx),
        "f2" => f2_rounds_vs_label_len(ctx),
        "t2" => t2_communicate(ctx),
        "t3" => t3_unknown(ctx),
        "f3" => f3_unknown_growth(ctx),
        "t4" => t4_gossip(ctx),
        "f4" => f4_gossip_vs_len(ctx),
        "t5" => t5_price_of_silence(ctx),
        "t6" => t6_agreement(ctx),
        "dr1" => dr1_dynamic_ring(ctx),
        "fr1" => fr1_crash_faults(ctx),
        "a1" => a1_uxs_ablation(ctx),
        "a2" => a2_est_ablation(ctx),
        _ => return None,
    })
}

/// All experiment ids, in presentation order.
pub fn all_experiment_ids() -> &'static [&'static str] {
    &[
        "t1", "f1", "f2", "t2", "t3", "f3", "t4", "f4", "t5", "t6", "dr1", "fr1", "a1", "a2",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentCtx {
        ExperimentCtx { quick: true }
    }

    #[test]
    fn t1_has_no_failures() {
        let t = t1_correctness(quick());
        assert!(t.notes[0].contains("violations: 0"));
    }

    #[test]
    fn t2_all_rows_ok() {
        let t = t2_communicate(quick());
        assert!(t.rows.iter().all(|r| r.last().unwrap() == "yes"));
    }

    #[test]
    fn t3_learns_exact_sizes() {
        let t = t3_unknown(quick());
        for row in &t.rows {
            assert_eq!(row[2], "yes", "{row:?}");
            let truth = &row[0];
            let expected = if truth.starts_with("path2") { "2" } else { "3" };
            assert_eq!(row[3], expected, "{row:?}");
        }
    }

    #[test]
    fn t4_all_rows_ok() {
        let t = t4_gossip(quick());
        assert!(!t.rows.is_empty());
        assert!(t.rows.iter().all(|r| r[2] == "yes"), "{:?}", t.rows);
    }

    #[test]
    fn t5_silence_never_speeds_up() {
        let t = t5_price_of_silence(quick());
        for row in &t.rows {
            let silent: u64 = row[3].parse().unwrap();
            let talking: u64 = row[4].parse().unwrap();
            assert!(silent >= talking, "{row:?}");
        }
    }

    #[test]
    fn t6_all_invariants_hold() {
        let t = t6_agreement(quick());
        let row = &t.rows[0];
        let (num, den) = row[1].split_once('/').unwrap();
        assert_eq!(num, den, "not all runs gathered: {row:?}");
        assert_eq!(row[2], "0", "invariant violations: {:?}", t.notes);
        assert_eq!(row[3], "0", "engine errors: {:?}", t.notes);
    }

    #[test]
    fn dr1_controls_hold_and_dynamics_are_exercised() {
        let t = dr1_dynamic_ring(quick());
        // Static control rows all gather with zero blocked moves.
        for row in t.rows.iter().filter(|r| r[4] == "static") {
            assert_eq!(row[5], "yes", "{row:?}");
            assert_eq!(row[7], "0", "{row:?}");
        }
        // Dynamic rows exist, all paid blocked moves, talking all gather.
        let dynamic: Vec<_> = t.rows.iter().filter(|r| r[4] != "static").collect();
        assert!(!dynamic.is_empty());
        for row in &dynamic {
            assert_ne!(row[7], "0", "{row:?}");
            if row[3] == "talking" {
                assert_eq!(row[5], "yes", "{row:?}");
            }
        }
        assert!(
            dynamic.iter().any(|r| r[3] == "silent" && r[5] == "yes"),
            "some silent cell must survive the adversary"
        );
    }

    #[test]
    fn fr1_controls_hold_and_crashes_are_differential() {
        let t = fr1_crash_faults(quick());
        // Fault-free control rows all gather with zero crashes.
        for row in t.rows.iter().filter(|r| r[4] == "none") {
            assert_eq!(row[5], "yes", "{row:?}");
            assert_eq!(row[7], "0", "{row:?}");
        }
        // Faulty rows exist, each records its exact crash count, the
        // talking baseline survives every one, and silent failures are
        // validation errors (never engine errors or harness crashes).
        let faulty: Vec<_> = t.rows.iter().filter(|r| r[4] != "none").collect();
        assert!(!faulty.is_empty());
        for row in &faulty {
            let expected_crashes = 1 + row[4].matches('+').count();
            assert_eq!(row[7], expected_crashes.to_string(), "{row:?}");
            if row[3] == "talking" {
                assert_eq!(row[5], "yes", "{row:?}");
            } else {
                assert!(row[5].starts_with("NO:"), "{row:?}");
                assert!(!row[5].contains("engine error"), "{row:?}");
            }
        }
    }

    #[test]
    fn a1_truncation_breaks_gathering() {
        let t = a1_uxs_ablation(quick());
        assert!(t.rows[0][2].contains("correct"), "{:?}", t.rows[0]);
        assert!(
            t.rows
                .iter()
                .any(|r| r[2].contains("FAILS") || r[2].contains("error")),
            "some truncation must break gathering: {:?}",
            t.rows
        );
    }

    #[test]
    fn a2_shield_is_load_bearing() {
        let t = a2_est_ablation(quick());
        // Shield on: safe.
        assert!(t.rows[0][2].contains("safe"), "{:?}", t.rows[0]);
        // Shield off with adversarial EST: unsound.
        assert!(
            t.rows[2][2].contains("UNSOUND"),
            "removing the shield must be demonstrably unsound: {:?}",
            t.rows[2]
        );
    }

    #[test]
    fn unknown_ids_are_rejected() {
        assert!(run_experiment("zz", quick()).is_none());
    }

    #[test]
    fn markdown_renders() {
        let t = t6_agreement(quick());
        let md = t.to_markdown();
        assert!(md.contains("### T6"));
        assert!(md.contains("|---|"));
    }
}
