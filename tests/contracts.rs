//! Property-based tests of the two substrate *contracts* the paper's
//! correctness proofs consume: the `Communicate` return value (Lemma 3.1)
//! and the `TZ` meeting bound (the `P(N, ℓ)` polynomial). These are the
//! load-bearing interfaces between the substrate crates and the core
//! algorithms, so they get their own randomized coverage beyond the
//! example-based unit tests.

use std::sync::Arc;

use proptest::prelude::*;

use nochatter::core::{BitStr, Communicate};
use nochatter::explore::Uxs;
use nochatter::graph::{generators, Label, NodeId, Port};
use nochatter::rendezvous::{meeting_bound, Tz};
use nochatter::sim::proc::{Procedure, UntilCardExceeds};
use nochatter::sim::walk::{HeldDone, Instruction};
use nochatter::sim::{Action, Declaration, Engine, Obs, Poll, WakeSchedule};

fn label(v: u64) -> Label {
    Label::new(v).unwrap()
}

/// One hub-meeting Communicate participant (walks one step to the star
/// center first).
struct Member {
    comm: Communicate,
    moved: bool,
}

impl Procedure for Member {
    type Output = Declaration;
    fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
        if !self.moved {
            self.moved = true;
            return Poll::Yield(Action::TakePort(Port::new(0)));
        }
        self.comm.poll(obs).map(|out| Declaration {
            leader: out.l.extract_terminated_code().and_then(|d| d.to_label()),
            size: Some(out.k),
        })
    }

    fn held(&self) -> Instruction {
        self.comm.held()
    }

    fn held_done(&mut self, done: HeldDone) {
        self.comm.held_done(done);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Lemma 3.1 over random label multisets and participation flags: every
    /// member receives the lexicographically smallest *participating* code
    /// (or all-ones), with the exact multiplicity, in the same round.
    #[test]
    fn communicate_contract(
        labels in proptest::collection::btree_set(1u64..64, 2..5),
        bools in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let labels: Vec<u64> = labels.into_iter().collect();
        let bools: Vec<bool> = bools[..labels.len()].to_vec();
        let i = labels
            .iter()
            .map(|&l| 2 * (64 - l.leading_zeros()) + 2)
            .max()
            .unwrap();
        let g = generators::star(labels.len() as u32 + 1);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 7).unwrap());
        let mut engine = Engine::new(&g);
        for (idx, (&l, &b)) in labels.iter().zip(&bools).enumerate() {
            engine.add_agent(
                label(l),
                NodeId::new(idx as u32 + 1),
                Box::new(Member {
                    comm: Communicate::new(
                        i,
                        BitStr::from_label(label(l)).code(),
                        b,
                        Arc::clone(&uxs),
                    ),
                    moved: false,
                }),
            );
        }
        let outcome = engine.run(100_000_000).unwrap();
        prop_assert!(outcome.all_declared());

        // Expected winner among participants.
        let participating: Vec<u64> = labels
            .iter()
            .zip(&bools)
            .filter(|&(_, &b)| b)
            .map(|(&l, _)| l)
            .collect();
        let expected = participating
            .iter()
            .map(|&l| (BitStr::from_label(label(l)).code(), l))
            .min();
        let rounds: Vec<u64> = outcome
            .declarations
            .iter()
            .map(|(_, r)| r.unwrap().round)
            .collect();
        prop_assert!(rounds.windows(2).all(|w| w[0] == w[1]), "lockstep");
        for (_, rec) in &outcome.declarations {
            let d = rec.unwrap().declaration;
            match &expected {
                Some((code, winner)) => {
                    prop_assert_eq!(d.leader, Some(label(*winner)));
                    let k = participating
                        .iter()
                        .filter(|&&l| &BitStr::from_label(label(l)).code() == code)
                        .count() as u32;
                    prop_assert_eq!(d.size, Some(k));
                }
                None => {
                    prop_assert_eq!(d.leader, None, "nobody participated");
                }
            }
        }
    }

    /// The TZ meeting bound over random rings, placements, labels and start
    /// offsets up to T/2 — the exact contract Algorithm 3's analysis uses.
    #[test]
    fn tz_meeting_bound_holds(
        n in 4u32..10,
        gap in 1u32..5,
        a in 1u64..32,
        b in 1u64..32,
        offset_frac in 0u64..3,
    ) {
        prop_assume!(a != b);
        let g = generators::ring(n);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 13).unwrap());
        let t = 2 * uxs.len() as u64;
        let offset = t * offset_frac / 4; // 0, T/4, T/2
        let min_bits = (64 - a.leading_zeros()).min(64 - b.leading_zeros());
        let bound = meeting_bound(&uxs, min_bits);
        let mut engine = Engine::new(&g);
        for (l, start, p) in [(1u64, 0u32, a), (2, gap.min(n - 1), b)] {
            engine.add_agent(
                label(l),
                NodeId::new(start),
                Box::new(UntilCardExceeds::new(
                    1,
                    Tz::new(p, Arc::clone(&uxs)),
                ).map(|_| Declaration::bare())),
            );
        }
        engine.set_wake_schedule(WakeSchedule::Explicit(vec![0, offset]));
        let outcome = engine.run(offset + bound + 1).unwrap();
        prop_assert!(outcome.all_declared(), "agents must meet within the bound");
        let report = outcome.gathering().expect("met at one node");
        prop_assert!(report.round <= offset + bound);
    }
}
