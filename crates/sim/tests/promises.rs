//! The promise contract of [`Procedure::quiet_until`], property-tested
//! against every wait combinator the paper's algorithms are built from.
//!
//! A promise is absolute on the agent's clock: after a poll in round `r`,
//! `quiet_until() = q > r` promises the polls of rounds `r + 1 ..= q`.
//! The engine leaves an agent unpolled inside its promise, polls it again
//! in the promise's last round or when what it senses changes, and jumps
//! over the rounds every agent is promised through, so it is only as
//! correct as these guarantees:
//!
//! 1. **The horizon is honest.** The polls through round `q` under
//!    *identical observations* all yield [`Action::Wait`] — a procedure
//!    acting earlier would act later than it should once left unpolled.
//! 2. **Silence is polling.** A procedure left unpolled from round `r + 1`
//!    to `r + k`, inside its promise, answers every later poll (under
//!    arbitrary observations), and reports the same `quiet_until`, as one
//!    polled in each of those rounds on identical observations.
//! 3. **The end round holds.** Every identical poll before the promise's
//!    last round leaves `quiet_until` at `q`.
//! 4. **A blind promise holds under arbitrary observations.** While
//!    `blind()` holds, the polls through round `q` yield [`Action::Wait`]
//!    whatever they observe, keep `quiet_until` at `q`, and leave the
//!    procedure as silence does.
//!
//! In debug builds the engine polls every agent it leaves unpolled inside
//! a promise and asserts guarantees 1, 3 and 4 live; these tests pin all
//! four directly at the combinator level, where a violation is easiest to
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

/// Drives `proc_` through `stream`, one poll per round, and at every
/// step where a promise is made checks all four guarantees against
/// clones. `probe` supplies the arbitrary observations after the silence
/// of guarantees 2 and 4, and the seeds of guarantee 4's arbitrary
/// observations inside the promise. `skip_frac` quarters of the promise
/// stay silent.
fn check_promises<P>(mut proc_: P, stream: &[u32], probe: &[u32], skip_frac: u64)
where
    P: Procedure + Clone,
    P::Output: Debug,
{
    for (step, &card) in stream.iter().enumerate() {
        let round = step as u64;
        if matches!(proc_.poll(&obs(round, card)), Poll::Complete(_)) {
            return;
        }
        let quiet = proc_.quiet_until();
        if quiet <= round {
            continue;
        }
        // Capped: some promises are astronomically long by design.
        let last = quiet.min(round + 50);

        // Guarantees 1 and 3: the promised identical polls all wait, and
        // none before the last round moves it.
        let mut witness = proc_.clone();
        for n in round + 1..=last {
            let w = witness.poll(&obs(n, card));
            assert!(
                matches!(w, Poll::Yield(Action::Wait)),
                "promised to wait through round {quiet} but acted in round {n}: {w:?}"
            );
            if n < quiet {
                assert_eq!(witness.quiet_until(), quiet, "polled in round {n}");
            }
        }

        // Guarantee 2: silence through round `round + k`, inside the
        // promise, is polling on identical observations.
        let k = (last - round - 1) * skip_frac.clamp(1, 4) / 4;
        let mut polled = proc_.clone();
        for n in round + 1..=round + k {
            assert!(matches!(
                polled.poll(&obs(n, card)),
                Poll::Yield(Action::Wait)
            ));
        }
        assert_eq!(
            proc_.quiet_until(),
            polled.quiet_until(),
            "{k} silent rounds of a promise through round {quiet}"
        );
        assert_same_futures(
            proc_.clone(),
            polled,
            probe,
            round + 1 + k,
            "silent vs polled",
        );

        // Guarantee 4: a blind promise holds whatever is observed, and
        // polling through it on arbitrary observations is silence.
        if proc_.blind() {
            let mut noisy = proc_.clone();
            let mut after_k = None;
            for n in round + 1..=last {
                if n == round + 1 + k {
                    after_k = Some(noisy.clone());
                }
                let seed = probe[n as usize % probe.len()].wrapping_mul(7) + n as u32;
                let w = noisy.poll(&noisy_obs(n, seed));
                assert!(
                    matches!(w, Poll::Yield(Action::Wait)),
                    "promised a blind wait through round {quiet} but acted in round {n}: {w:?}"
                );
                if n < quiet {
                    assert_eq!(noisy.quiet_until(), quiet, "noisy poll in round {n}");
                }
            }
            let noisy = after_k.unwrap_or(noisy);
            assert_same_futures(
                noisy,
                proc_.clone(),
                probe,
                round + 1 + k,
                "noisy vs silent",
            );
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
        // Guarantee 4 binds `WaitRounds`: its wait is blind.
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
