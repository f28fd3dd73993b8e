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
//!
//! The engine additionally `debug_assert`s guarantee 1 on every poll through
//! its promise tracker; these tests pin both guarantees directly
//! at the combinator level, where a violation is easiest to localize.

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

/// Drives `proc_` through `stream`, and at every step where a positive
/// horizon is promised checks both guarantees against clones. `probe`
/// supplies the arbitrary post-skip observations of guarantee 2.
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
        for (n, &probe_card) in probe.iter().enumerate() {
            let probe_round = round + 1 + k + n as u64;
            let a = skipped.poll(&obs(probe_round, probe_card));
            let b = polled.poll(&obs(probe_round, probe_card));
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "skipped-vs-polled futures diverged {n} probes after the skip"
            );
            if matches!(a, Poll::Complete(_)) {
                break;
            }
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
        check_promises(
            RunFor::new(budget, UntilCardExceeds::new(threshold, WaitRounds::new(inner))),
            &stream,
            &probe,
            frac,
        );
    }
}
