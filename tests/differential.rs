//! Differential testing: the silent (weak-sensing) algorithm against the
//! talking (traditional-sensing) baseline on *identical* configurations,
//! driven through the `nochatter-lab` campaign runner.
//!
//! The paper's central claim (Theorem 3.1) is that giving up all
//! communication costs only a polynomial overhead: on every instance the
//! silent algorithm still gathers, and always within the paper's
//! polynomial round bound. Note what the claim does *not* say: silence is
//! not slower on every single instance. Compressing the movement-encoded
//! `Communicate` term to zero rounds (the talking baseline) shifts the
//! phase alignment between agents, so the two executions diverge after
//! their first meeting and occasionally the talking run needs *more*
//! phases before the decisive meeting (observed on lollipops and random
//! families at n=6). The overhead claim is a worst-case envelope, and
//! that's what this suite pins: every cell gathers, every silent run stays
//! inside the envelope, the per-instance ratio is bounded in both
//! directions, and in aggregate silence does cost rounds.

use nochatter::core::{CommMode, KnownSetup};
use nochatter::graph::generators::Family;
use nochatter::sim::WakeSchedule;
use nochatter_lab::{run_campaign, CampaignReport, Matrix};

/// Silent and talking runs of every family × size × schedule cell. Seeds
/// derive from the mode-independent instance sub-key, so each silent cell
/// and its talking twin run on the identical graph and exploration setup.
fn differential_report() -> (CampaignReport, nochatter_lab::Campaign) {
    let campaign = Matrix {
        families: Family::all().to_vec(),
        sizes: vec![4, 6],
        teams: vec![vec![2, 3], vec![3, 5, 9]],
        schedules: vec![WakeSchedule::Simultaneous, WakeSchedule::FirstOnly],
        modes: vec![CommMode::Silent, CommMode::Talking],
        ..Matrix::new()
    }
    .campaign("differential", 77)
    .expect("differential matrix is well-formed");
    let report = run_campaign(&campaign, 0);
    (report, campaign)
}

#[test]
fn both_models_gather_on_every_family() {
    let (report, _) = differential_report();
    assert!(report.records.len() >= 2 * Family::all().len());
    for r in &report.records {
        assert!(r.ok, "{} failed to gather: {}", r.key, r.status);
        assert!(r.leader.is_some(), "{} elected no leader", r.key);
    }
}

#[test]
fn silence_costs_rounds_in_aggregate() {
    let (report, _) = differential_report();
    let pairs = report.mode_pairs("silent", "talking");
    let mut inverted = 0usize;
    let mut ratio_sum = 0.0f64;
    for (silent, talking) in &pairs {
        let ratio = silent.rounds as f64 / talking.rounds as f64;
        ratio_sum += ratio;
        inverted += usize::from(silent.rounds < talking.rounds);
        // The two runs really are different executions, not one code path
        // measured twice.
        assert_ne!(
            silent.trace_digest, talking.trace_digest,
            "{}: silent and talking traces are identical",
            silent.key
        );
    }
    let mean = ratio_sum / pairs.len() as f64;
    assert!(
        mean >= 1.05,
        "mean silent/talking ratio {mean:.3} — silence has become free, \
         which means the Communicate term is no longer being paid"
    );
    // Per-instance inversions exist (phase-alignment divergence) but must
    // stay the exception; a majority would mean the baseline is broken.
    assert!(
        inverted * 5 <= pairs.len(),
        "{inverted}/{} pairs have silent faster than talking",
        pairs.len()
    );
}

#[test]
fn silent_rounds_stay_inside_the_papers_envelope() {
    let (report, campaign) = differential_report();
    for r in report.records.iter().filter(|r| r.key.mode == "silent") {
        let scenario = campaign
            .scenarios()
            .iter()
            .find(|s| s.key == r.key)
            .expect("record has a scenario");
        // Theorem 3.1's bound, as computed by the implementation: the
        // per-phase durations summed over the phase bound. `run_scenario`
        // enforces it as the engine round limit, so also assert the run
        // finished by declaration rather than by hitting the limit.
        let envelope =
            KnownSetup::for_scenario(&scenario.cfg, scenario.seed).round_limit(&scenario.cfg);
        assert!(
            r.rounds <= envelope,
            "{}: {} rounds exceeds the polynomial envelope {}",
            r.key,
            r.rounds,
            envelope
        );
        assert_eq!(r.status, "gathered", "{}: {}", r.key, r.status);
    }
}

#[test]
fn overhead_ratio_is_uniformly_bounded_at_these_sizes() {
    // At fixed small sizes the polynomial overhead collapses to a modest
    // constant factor (T5's observation). Pin a generous two-sided ceiling
    // so a regression that blows up the Communicate term — or one that
    // makes the talking baseline pathologically slow — fails loudly rather
    // than silently shifting recorded tables.
    let (report, _) = differential_report();
    for (silent, talking) in report.mode_pairs("silent", "talking") {
        let ratio = silent.rounds as f64 / talking.rounds as f64;
        assert!(
            (0.125..=16.0).contains(&ratio),
            "{}: silent/talking ratio {ratio:.2} out of envelope \
             (silent {} vs talking {})",
            silent.key,
            silent.rounds,
            talking.rounds
        );
    }
}
