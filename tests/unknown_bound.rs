//! Integration tests for the unknown-upper-bound algorithm (Theorem 4.1),
//! including the validation of Lemma 4.10 (clean explorations) and the
//! robustness of the clean-exploration shield against an adversarial `EST`
//! reconstruction.

#[path = "support/traversal.rs"]
mod traversal;

use std::fmt::Debug;
use std::sync::Arc;

use proptest::prelude::*;

use nochatter::core::unknown::{
    run_unknown, BallTraversal, ConfigEnumeration, EstMode, ExhaustiveEnumeration,
    GatherUnknownUpperBound, Hypothesis, PositionTracker, SliceEnumeration, UnknownOptions,
    UnknownSchedule,
};
use nochatter::graph::{generators, Graph, InitialConfiguration, Label, NodeId, Port};
use nochatter::sim::proc::Procedure;
use nochatter::sim::walk::{HeldDone, Instruction};
use nochatter::sim::{
    Action, Declaration, Engine, Obs, Poll, RunOutcome, RunStatus, Trace, WakeSchedule,
};
use traversal::RefTraversal;

fn label(v: u64) -> Label {
    Label::new(v).unwrap()
}

fn cfg(graph: nochatter::graph::Graph, agents: &[(u64, u32)]) -> InitialConfiguration {
    InitialConfiguration::new(
        graph,
        agents
            .iter()
            .map(|&(l, v)| (label(l), NodeId::new(v)))
            .collect(),
    )
    .unwrap()
}

fn assert_correct(
    truth: &InitialConfiguration,
    omega: Arc<dyn ConfigEnumeration>,
    mode: EstMode,
    wake: WakeSchedule,
) {
    let (outcome, reports) = run_unknown(truth, omega, mode, wake).expect("run succeeds");
    let report = outcome
        .gathering()
        .unwrap_or_else(|e| panic!("gathering invalid: {e}"));
    assert_eq!(report.leader, Some(truth.smallest_label()));
    assert_eq!(
        report.size,
        Some(truth.size() as u32),
        "Theorem 4.1: the exact size is learned"
    );
    for (_, r) in reports {
        assert!(
            !r.unwrap().est_dirty_observed,
            "Lemma 4.10: explorations reached through the algorithm are clean"
        );
    }
}

#[test]
fn truth_at_various_indices() {
    let truth = cfg(generators::ring(3), &[(1, 0), (2, 1)]);
    let decoy_a = cfg(generators::path(2), &[(1, 0), (2, 1)]);
    let decoy_b = cfg(generators::ring(3), &[(4, 0), (5, 2)]);
    for omega in [
        SliceEnumeration::new(vec![truth.clone()]),
        SliceEnumeration::new(vec![decoy_a.clone(), truth.clone()]),
        SliceEnumeration::new(vec![decoy_a, decoy_b, truth.clone()]),
    ] {
        assert_correct(
            &truth,
            omega,
            EstMode::Conservative,
            WakeSchedule::Simultaneous,
        );
    }
}

#[test]
fn three_agents_on_a_triangle() {
    let truth = cfg(generators::ring(3), &[(3, 0), (5, 1), (9, 2)]);
    let omega = SliceEnumeration::new(vec![truth.clone()]);
    assert_correct(
        &truth,
        omega,
        EstMode::Conservative,
        WakeSchedule::Staggered { gap: 3 },
    );
}

#[test]
fn adversarial_est_is_contained_by_the_clean_exploration_shield() {
    // Even if EST's reconstruction is corrupted whenever cleanliness fails
    // (the adversarial oracle), the full algorithm stays correct: the
    // StarCheck + EnsureCleanExploration + slow-wait machinery guarantees
    // every EST+ reached through the algorithm is clean (Lemma 4.10), so
    // the adversarial branch is provably never exercised. The ablation
    // experiment (a2) shows it *does* fire once the shield is removed.
    let truth = cfg(generators::ring(3), &[(1, 0), (2, 1)]);
    let decoy = cfg(generators::path(2), &[(1, 0), (2, 1)]);
    let omega = SliceEnumeration::new(vec![decoy, truth.clone()]);
    assert_correct(
        &truth,
        omega,
        EstMode::Adversarial,
        WakeSchedule::Simultaneous,
    );
}

#[test]
fn exhaustive_enumeration_contains_and_finds_a_two_node_truth() {
    // The faithful dovetailed enumeration: the true 2-node configuration
    // appears at some index and the algorithm finds it.
    let truth = cfg(generators::path(2), &[(2, 0), (1, 1)]);
    let omega = ExhaustiveEnumeration::new(2, 2);
    // The enumeration holds both orderings of labels {1,2} on the edge.
    assert!(omega.len() >= 2);
    assert_correct(
        &truth,
        omega,
        EstMode::Conservative,
        WakeSchedule::Simultaneous,
    );
}

#[test]
fn time_grows_exponentially_with_hypothesis_index() {
    // The paper's feasibility-only caveat, measured: moving the truth one
    // slot deeper multiplies the round count enormously.
    let truth = cfg(generators::ring(3), &[(1, 0), (2, 1)]);
    let decoy_a = cfg(generators::path(2), &[(1, 0), (2, 1)]);
    let decoy_b = cfg(generators::path(2), &[(3, 0), (4, 1)]);
    let mut rounds = Vec::new();
    for omega in [
        SliceEnumeration::new(vec![truth.clone()]),
        SliceEnumeration::new(vec![decoy_a.clone(), truth.clone()]),
        SliceEnumeration::new(vec![decoy_a, decoy_b, truth.clone()]),
    ] {
        let (outcome, _) = run_unknown(
            &truth,
            omega,
            EstMode::Conservative,
            WakeSchedule::Simultaneous,
        )
        .expect("run succeeds");
        rounds.push(outcome.gathering().unwrap().round);
    }
    // Blow-up measured in practice: ~5x then ~20x per extra decoy (the
    // ratio itself grows — super-exponential in the index, as the nested
    // budgets compound). Assert conservative floors.
    assert!(rounds[1] > 3 * rounds[0], "index 2 ≫ index 1: {rounds:?}");
    assert!(rounds[2] > 10 * rounds[1], "index 3 ≫ index 2: {rounds:?}");
    assert!(rounds[2] > 50 * rounds[0], "compound growth: {rounds:?}");
}

#[test]
fn zero_knowledge_gossip_delivers_everything() {
    // Theorem 5.1, second part: gossiping with no a priori knowledge — the
    // exact size learned by GatherUnknownUpperBound becomes the bound the
    // gossip stage derives its exploration sequence from.
    use nochatter::core::BitStr;

    let truth = cfg(generators::ring(3), &[(1, 0), (2, 1)]);
    let omega = SliceEnumeration::new(vec![truth.clone()]);
    let messages = vec![
        (label(1), BitStr::parse("101").unwrap()),
        (label(2), BitStr::parse("0").unwrap()),
    ];
    let (outcome, reports) = nochatter::core::harness::run_gossip_unknown(
        &truth,
        omega,
        &messages,
        WakeSchedule::Simultaneous,
    )
    .expect("run succeeds");
    outcome.gathering().expect("gathering validates");
    let mut expected: Vec<BitStr> = messages.iter().map(|(_, m)| m.clone()).collect();
    expected.sort();
    for (_, report) in &reports {
        assert_eq!(report.gathering.size, 3, "exact size learned");
        let mut got: Vec<BitStr> = Vec::new();
        for (payload, k) in report.outcome.decoded() {
            for _ in 0..k {
                got.push(payload.clone());
            }
        }
        got.sort();
        assert_eq!(got, expected, "full multiset delivered");
    }
}

/// Runs every agent of `truth` the way `run_unknown_with_options` does,
/// with a digest-only trace of every event attached.
fn traced_run(
    truth: &InitialConfiguration,
    omega: Arc<dyn ConfigEnumeration>,
    options: UnknownOptions,
    wake: WakeSchedule,
) -> RunOutcome {
    let schedule = Arc::new(UnknownSchedule::new(omega).unwrap());
    let mut engine = Engine::new(truth.graph());
    for &(label, start) in truth.agents() {
        let agent = GatherUnknownUpperBound::with_options(
            label,
            start,
            truth.graph_arc(),
            Arc::clone(&schedule),
            options,
        );
        engine.add_agent(
            label,
            start,
            Box::new(agent.map(|report| Declaration {
                leader: Some(report.leader),
                size: Some(report.size),
            })),
        );
    }
    engine.set_wake_schedule(wake);
    engine.set_trace(Trace::digest_only(usize::MAX));
    engine.run(schedule.round_limit()).expect("run succeeds")
}

fn digest(outcome: &RunOutcome) -> String {
    format!("{:016x}", outcome.trace.as_ref().unwrap().digest())
}

#[test]
fn every_unwind_path_keeps_its_pinned_trace() {
    // Each case fails a hypothesis at a different point, so its second part
    // (Algorithm 6 line 16) retraces a different mix of ball and main-part
    // moves. The digests fold every move's round, ports and endpoints.
    let conservative = UnknownOptions::default();

    // The ball aborts on the very first observation: a 3-ring node has
    // degree 2 >= n_h = 2. Nothing to retrace; the run never gathers.
    let truth = cfg(generators::ring(3), &[(1, 0), (2, 2)]);
    let omega = SliceEnumeration::new(vec![cfg(generators::path(2), &[(1, 0), (2, 1)])]);
    let out = traced_run(&truth, omega, conservative, WakeSchedule::Simultaneous);
    assert_eq!(out.status, RunStatus::RoundLimit);
    assert_eq!(out.rounds, 75_308);
    assert_eq!(digest(&out), "5662ed9a7b4c3b06");

    // The ball aborts mid-path on the degree-3 node of a spider: the
    // retrace starts by backtracking the half-walked path.
    let spider = generators::from_pairs(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]);
    let truth = cfg(spider, &[(1, 0), (2, 5)]);
    let omega = SliceEnumeration::new(vec![cfg(generators::ring(3), &[(1, 0), (2, 1)])]);
    let out = traced_run(
        &truth,
        omega,
        conservative,
        WakeSchedule::Staggered { gap: 4 },
    );
    assert_eq!(out.total_moves, 152);
    assert_eq!(digest(&out), "9a90e19e3c140a62");

    // A complete ball, then MoveToCentralNode fails on unknown labels.
    let truth = cfg(generators::ring(3), &[(1, 0), (2, 1)]);
    let omega = SliceEnumeration::new(vec![cfg(generators::ring(3), &[(7, 0), (8, 1)])]);
    let out = traced_run(&truth, omega, conservative, WakeSchedule::Simultaneous);
    assert_eq!(out.total_moves, 180_224);
    assert_eq!(digest(&out), "a64f48c84553b322");

    // A complete ball and main-part moves before the hypothesis fails: the
    // unwind pops the main-part trail before it retraces the ball.
    let truth = cfg(generators::ring(4), &[(1, 0), (2, 1)]);
    let phi = cfg(generators::ring(3), &[(1, 0), (2, 1)]);
    let omega = SliceEnumeration::new(vec![phi.clone()]);
    let out = traced_run(&truth, omega, conservative, WakeSchedule::Simultaneous);
    assert_eq!(out.total_moves, 180_706);
    assert_eq!(digest(&out), "98ab518f858c1568");
    let ablated = UnknownOptions {
        est_mode: EstMode::Adversarial,
        disable_clean_exploration: true,
    };
    let omega = SliceEnumeration::new(vec![phi]);
    let out = traced_run(&truth, omega, ablated, WakeSchedule::Staggered { gap: 9 });
    assert_eq!(out.total_moves, 180_322);
    assert_eq!(digest(&out), "3922edfe4ee9af88");

    // A wrong hypothesis unwound in full, then success on the truth.
    let truth = cfg(generators::path(2), &[(1, 0), (2, 1)]);
    let decoy = cfg(generators::path(2), &[(3, 0), (4, 1)]);
    let omega = SliceEnumeration::new(vec![decoy, truth.clone()]);
    let out = traced_run(
        &truth,
        omega,
        conservative,
        WakeSchedule::Staggered { gap: 7 },
    );
    out.gathering().expect("gathering validates");
    assert_eq!(digest(&out), "ef1820cffe25cad1");

    // The faithful enumeration, wrong hypotheses first.
    let truth = cfg(generators::path(2), &[(2, 0), (1, 1)]);
    let omega = ExhaustiveEnumeration::new(2, 2);
    let out = traced_run(&truth, omega, conservative, WakeSchedule::Simultaneous);
    out.gathering().expect("gathering validates");
    assert_eq!(digest(&out), "a8d1723ee0b0bb16");
}

/// Polls a blind promise may see at most, per promise, before the rest of
/// it is skipped (the slow waits run to millions of rounds).
const BLIND_PROBE: u64 = 64;

/// Drives twin procedures as the engine runs an agent, as a lone agent
/// walking `graph` from `start`: every real poll sees the node's degree,
/// the true entry port and `CurCard` 1, and both twins must answer it
/// alike and complete with the same output. A held instruction is
/// described by both twins alike ([`Procedure::held`]) and played as the
/// engine plays it, written out here. A slow move: nothing reaches either
/// twin for its wait `w`, and the move is made in the last round; a wait
/// of two rounds or more is a blind promise before its move round, and is
/// recorded as probed (the engine's own tests feed such waits noisy
/// rounds). A traversal, by [`RefTraversal`]: nothing reaches either twin
/// until it ends, every move is a slow move decided in the round after
/// the move before (recorded as probed in the same way), and both are
/// handed its result back, then polled in that round, or in the round
/// they yielded it in if it made no move. Whenever a poll leaves a blind
/// promise of the procedure itself, `a` is polled through its first
/// `BLIND_PROBE` rounds at most on observations with random `CurCard`s and
/// entry ports, and must wait in each and keep promising the same last
/// round, while `b` skips the whole promise; non-blind promises are
/// skipped by both. Stops after `max_polls` real polls and traversal
/// moves, or on completion, and returns the round at which each probed
/// promise began.
fn check_blind_twins<P>(
    mut a: P,
    mut b: P,
    graph: &Graph,
    start: NodeId,
    noise: &[u32],
    max_polls: usize,
) -> Vec<u64>
where
    P: Procedure,
    P::Output: Debug,
{
    let (mut pos, mut entry, mut round) = (start, None, 0u64);
    let mut noise = noise.iter().cycle();
    let mut probed = Vec::new();
    // The traversal under way, and the latest one that ended.
    let (mut traversing, mut traversed) = (None::<RefTraversal>, None::<RefTraversal>);
    // Its result, handed back to both twins; the reference keeps its own
    // log for a retrace, so the engine state it carries back is empty.
    let done = |completed| HeldDone::Traverse {
        completed,
        state: Box::default(),
    };
    for _ in 0..max_polls {
        let degree = graph.degree(pos);
        // The held traversal's next move, decided in the round after the
        // move before it, and its wait.
        let mut held_move = None;
        if let Some(held) = traversing.as_mut() {
            match held.step(degree, entry, false) {
                Ok(p) => held_move = Some((p, held.wait())),
                Err(completed) => {
                    a.held_done(done(completed));
                    b.held_done(done(completed));
                    traversed = traversing.take();
                }
            }
        }
        if held_move.is_none() {
            let real = Obs::synthetic(round, degree, 1, entry);
            let output = |out: P::Output| format!("{out:?}");
            let (x, y) = (a.poll(&real).map(output), b.poll(&real).map(output));
            assert_eq!(x, y, "twins diverged in round {round}");
            let description = (x == Poll::Yield(Action::Hold)).then(|| {
                let description = a.held();
                assert_eq!(description, b.held(), "round {round}");
                description
            });
            if let Some(Instruction::Traverse(traversal)) = description {
                let wait = traversal.wait;
                let mut held = RefTraversal::start(traversal, traversed.as_ref());
                match held.step(degree, entry, false) {
                    Ok(p) => {
                        held_move = Some((p, wait));
                        traversing = Some(held);
                    }
                    Err(completed) => {
                        // No move: handed back, and polled again in this round.
                        a.held_done(done(completed));
                        b.held_done(done(completed));
                        traversed = Some(held);
                        continue;
                    }
                }
            } else {
                round += 1;
                let port = match (x, description) {
                    (Poll::Complete(_), _) => break,
                    (Poll::Yield(Action::Wait), _) => None,
                    (Poll::Yield(Action::TakePort(p)), _) => Some(p),
                    (_, Some(Instruction::Slow { port, wait })) => {
                        if wait > 1 {
                            probed.push(round);
                        }
                        round += wait;
                        Some(port)
                    }
                    _ => unreachable!("the unknown-bound stack makes no walks"),
                };
                if let Some(p) = port {
                    let (to, back) = graph.neighbor(pos, p).expect("moves stay on the graph");
                    (pos, entry) = (to, Some(back));
                    continue;
                }
                let quiet = a.quiet_until();
                assert_eq!(quiet, b.quiet_until(), "round {round}");
                assert_eq!(a.blind(), b.blind(), "round {round}");
                if a.blind() && quiet >= round {
                    probed.push(round);
                    for n in round..=quiet.min(round + BLIND_PROBE - 1) {
                        let seed = *noise.next().unwrap();
                        let cur_card = 1 + seed % 4;
                        let entry = (!seed.is_multiple_of(5)).then(|| Port::new(seed / 5 % degree));
                        let w = a.poll(&Obs::synthetic(n, degree, cur_card, entry));
                        assert_eq!(
                            (w.action(), a.quiet_until()),
                            (Some(Action::Wait), quiet),
                            "blind promise through round {quiet} broken in round {n}"
                        );
                    }
                }
                round = round.max(quiet.saturating_add(1));
                continue;
            }
        }
        // A traversal's slow move: its wait, then the move.
        let (p, w) = held_move.expect("a traversal moves");
        round += 1;
        if w > 1 {
            probed.push(round);
        }
        round += w;
        let (to, back) = graph.neighbor(pos, p).expect("moves stay on the graph");
        (pos, entry) = (to, Some(back));
    }
    probed
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Whenever `blind()` holds after a poll of `BallTraversal` or
    /// `Hypothesis` run as an agent, the promised waits (slow moves
    /// included) hold under random `CurCard`s and entry ports, and leave
    /// the agent exactly as skipping them would: a twin that skips every
    /// promise makes the same moves and reaches the same verdict. Random
    /// graphs of every family, random starts, and the first or second
    /// hypothesis of a two-entry enumeration, tested by either of its
    /// agents.
    #[test]
    fn slow_waits_are_blind(
        family in 0usize..9,
        n in 2u32..8,
        seed in any::<u64>(),
        start in 0u32..8,
        h in 1usize..3,
        agent in 1u64..3,
        noise in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let graph = Arc::new(generators::Family::all()[family].instantiate(n, seed));
        let start = NodeId::new(start % graph.node_count() as u32);
        let omega = SliceEnumeration::new(vec![
            cfg(generators::path(2), &[(1, 0), (2, 1)]),
            cfg(generators::ring(3), &[(1, 0), (2, 1)]),
        ]);
        let schedule = UnknownSchedule::new(omega).unwrap();
        let hs = schedule.hypothesis(h);

        let probed = check_blind_twins(
            BallTraversal::new(hs),
            BallTraversal::new(hs),
            &graph,
            start,
            &noise,
            2_000,
        );
        prop_assert_eq!(
            probed.first().copied(),
            (graph.degree(start) < hs.n).then_some(1),
            "a ball that does not abort at once starts with a probed slow move"
        );

        // Each twin replays its own moves into its position oracle.
        let twin = || {
            Hypothesis::new(
                schedule.enumeration().get(h).clone(),
                hs.clone(),
                label(agent),
                EstMode::Conservative,
                PositionTracker::new(Arc::clone(&graph), start),
            )
        };
        check_blind_twins(twin(), twin(), &graph, start, &noise, 2_000);
    }
}
