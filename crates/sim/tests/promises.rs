//! The `min_wait`/`note_skipped` promise contract, property-tested against
//! every wait combinator the paper's algorithms are built from.
//!
//! The quiescence fast-forward skips every executing agent past the
//! smallest `min_wait` horizon and catches each one up with one
//! `note_skipped` call, so the skip is only as correct as these two
//! guarantees:
//!
//! 1. **The horizon is honest.** After any poll, `min_wait() = h` promises
//!    the next `h` polls under *identical observations* all yield
//!    [`Action::Wait`] — a procedure acting earlier would act later than it
//!    should once skipped.
//! 2. **Skipping is polling.** `note_skipped(k)` for any `k <= h` leaves
//!    the procedure in a state indistinguishable from `k` identical polls:
//!    every subsequent poll answer (under arbitrary observations) matches,
//!    as does the remaining `min_wait`.
//! 3. **Skips add up.** `note_skipped(a); note_skipped(b)` equals
//!    `note_skipped(a + b)` for `a + b <= h`.
//! 4. **The end round holds.** After `note_skipped(k)`, `min_wait` is
//!    exactly `h - k`: a promise's last round never moves while it runs.
//! 5. **A blind horizon holds under arbitrary observations.** While
//!    `blind()` holds, the next `h` polls yield [`Action::Wait`] whatever
//!    they observe, and `k` such polls leave the procedure as
//!    `note_skipped(k)` does.
//!
//! The engine's lone-agent path relies on 3 and 4: it polls only the one
//! agent that is due and lets every other agent inside its promise lag,
//! catching it up later with a single `note_skipped` that covers polls
//! and fast-forwards alike, and it reads each lagging agent's remaining
//! horizon off the promise's end round instead of asking `min_wait`. It
//! relies on 5 to keep lagging a blind waiter whose node another agent
//! enters or leaves.
//!
//! The engine additionally `debug_assert`s guarantees 1 and 5 on every poll
//! through its promise tracker; these tests pin all five guarantees
//! directly at the combinator level, where a violation is easiest to
//! localize.

use std::fmt::Debug;

use proptest::prelude::*;

use nochatter_graph::Port;
use nochatter_sim::proc::{Procedure, RunFor, UntilCardExceeds, WaitCardStable, WaitRounds};
use nochatter_sim::{Action, Obs, Poll};

/// Observations the combinators can distinguish: degree is irrelevant to
/// all of them, `cur_card` is what `UntilCardExceeds`/`WaitCardStable`
/// watch.
fn obs(round: u64, cur_card: u32) -> Obs {
    Obs::synthetic(round, 3, cur_card, Some(Port::new(1)))
}

/// An arbitrary observation drawn from `seed`: any degree from 1 to 4,
/// `CurCard` from 1 to 5, and no entry port or any port of the degree.
fn noisy_obs(round: u64, seed: u32) -> Obs {
    let degree = 1 + seed % 4;
    let entry = (!seed.is_multiple_of(5)).then(|| Port::new(seed / 5 % degree));
    Obs::synthetic(round, degree, 1 + seed / 3 % 5, entry)
}

/// Polls `a` and `b` through the same `probe` observations from `round`
/// on and asserts they answer alike until they complete.
fn assert_same_futures<P>(mut a: P, mut b: P, probe: &[u32], round: u64, what: &str)
where
    P: Procedure,
    P::Output: Debug,
{
    for (n, &probe_card) in probe.iter().enumerate() {
        let probe_round = round + n as u64;
        let x = a.poll(&obs(probe_round, probe_card));
        let y = b.poll(&obs(probe_round, probe_card));
        assert_eq!(
            format!("{x:?}"),
            format!("{y:?}"),
            "{what}: futures diverged {n} probes later"
        );
        if matches!(x, Poll::Complete(_)) {
            break;
        }
    }
}

/// Drives `proc_` through `stream`, and at every step where a positive
/// horizon is promised checks all five guarantees against clones. `probe`
/// supplies the arbitrary post-skip observations of guarantees 2, 3 and
/// 5, and the seeds of guarantee 5's arbitrary observations inside the
/// horizon.
fn check_promises<P>(mut proc_: P, stream: &[u32], probe: &[u32], skip_frac: u64)
where
    P: Procedure + Clone,
    P::Output: Debug,
{
    for (step, &card) in stream.iter().enumerate() {
        let round = step as u64;
        let o = obs(round, card);
        if matches!(proc_.poll(&o), Poll::Complete(_)) {
            return;
        }

        let h = proc_.min_wait();
        if h == 0 {
            continue;
        }

        // Guarantee 1: the next h identical polls all wait (capped — some
        // horizons are astronomically long by design).
        let mut witness = proc_.clone();
        for n in 0..h.min(50) {
            let w = witness.poll(&obs(round + 1 + n, card));
            assert!(
                matches!(w, Poll::Yield(Action::Wait)),
                "promised to wait {h} rounds but acted after {n}: {w:?}"
            );
        }

        // Guarantee 2: note_skipped(k) == k identical polls, for a k
        // somewhere inside the horizon.
        let k = (h.min(50) * skip_frac.clamp(1, 4)) / 4;
        let mut skipped = proc_.clone();
        skipped.note_skipped(k);
        let mut polled = proc_.clone();
        for n in 0..k {
            let w = polled.poll(&obs(round + 1 + n, card));
            assert!(matches!(w, Poll::Yield(Action::Wait)));
        }
        assert_eq!(
            skipped.min_wait(),
            polled.min_wait(),
            "skipping {k} of {h} promised rounds left a different remaining horizon"
        );
        assert_same_futures(skipped, polled, probe, round + 1 + k, "skipped vs polled");

        // Guarantees 3 and 4: two notes of a and b rounds equal one of
        // a + b, for the whole horizon too, and each leaves exactly the
        // rest of the promise.
        for total in [k, h.min(50)] {
            let a = total / 2;
            let mut split = proc_.clone();
            split.note_skipped(a);
            assert_eq!(split.min_wait(), h - a, "noting {a} of {h} rounds");
            split.note_skipped(total - a);
            let mut whole = proc_.clone();
            whole.note_skipped(total);
            assert_eq!(whole.min_wait(), h - total, "noting {total} of {h} rounds");
            assert_eq!(split.min_wait(), whole.min_wait());
            assert_same_futures(
                split,
                whole,
                probe,
                round + 1 + total,
                "split vs whole skip",
            );
        }

        // Guarantee 5: a blind horizon holds whatever is observed, and
        // polling through it on arbitrary observations is skipping it.
        if proc_.blind() {
            let mut noisy = proc_.clone();
            let mut after_k = None;
            for n in 0..h.min(50) {
                if n == k {
                    after_k = Some(noisy.clone());
                }
                let seed = probe[n as usize % probe.len()].wrapping_mul(7) + n as u32;
                let w = noisy.poll(&noisy_obs(round + 1 + n, seed));
                assert!(
                    matches!(w, Poll::Yield(Action::Wait)),
                    "promised a blind wait of {h} rounds but acted after {n}: {w:?}"
                );
            }
            let noisy = after_k.unwrap_or(noisy);
            let mut skipped = proc_.clone();
            skipped.note_skipped(k);
            assert_eq!(
                noisy.min_wait(),
                skipped.min_wait(),
                "{k} arbitrary polls of a blind horizon of {h} left a different horizon"
            );
            assert_same_futures(noisy, skipped, probe, round + 1 + k, "noisy vs skipped");
        }
    }
}

fn card_stream() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(1u32..4, 1..30)
}

proptest! {
    #[test]
    fn wait_rounds_promises_hold(
        rounds in 0u64..120,
        stream in card_stream(),
        probe in card_stream(),
        frac in 1u64..5,
    ) {
        // Guarantee 5 binds `WaitRounds`: its countdown is blind.
        prop_assert!(WaitRounds::new(rounds).blind());
        check_promises(WaitRounds::new(rounds), &stream, &probe, frac);
    }

    #[test]
    fn run_for_promises_hold(
        budget in 0u64..80,
        inner in 0u64..120,
        stream in card_stream(),
        probe in card_stream(),
        frac in 1u64..5,
    ) {
        check_promises(RunFor::new(budget, WaitRounds::new(inner)), &stream, &probe, frac);
    }

    #[test]
    fn until_card_exceeds_promises_hold(
        threshold in 0u32..4,
        inner in 0u64..120,
        stream in card_stream(),
        probe in card_stream(),
        frac in 1u64..5,
    ) {
        check_promises(
            UntilCardExceeds::new(threshold, WaitRounds::new(inner)),
            &stream,
            &probe,
            frac,
        );
    }

    #[test]
    fn wait_card_stable_promises_hold(
        window in 1u64..12,
        streak in 0u64..4,
        stream in card_stream(),
        probe in card_stream(),
        frac in 1u64..5,
    ) {
        check_promises(WaitCardStable::new(window, streak, None), &stream, &probe, frac);
    }

    #[test]
    fn nested_combinator_promises_hold(
        budget in 0u64..80,
        threshold in 0u32..4,
        inner in 0u64..120,
        stream in card_stream(),
        probe in card_stream(),
        frac in 1u64..5,
    ) {
        let nested = RunFor::new(budget, UntilCardExceeds::new(threshold, WaitRounds::new(inner)));
        check_promises(nested.clone(), &stream, &probe, frac);
        // `map`, which turns a procedure into an agent, forwards them all.
        check_promises(nested.map(|out| out.is_some()), &stream, &probe, frac);
    }
}
