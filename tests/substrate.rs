//! Substrate-level integration tests: the model semantics the paper's
//! proofs lean on, exercised through the public API across crates.

use std::sync::Arc;

use nochatter::explore::{Explo, Uxs};
use nochatter::graph::{generators, Label, NodeId, Port};
use nochatter::rendezvous::{meeting_bound, Tz};
use nochatter::sim::proc::{Procedure, RunFor, UntilCardExceeds, WaitRounds};
use nochatter::sim::{Action, Declaration, Engine, Obs, Poll, WakeSchedule};

fn label(v: u64) -> Label {
    Label::new(v).unwrap()
}

#[test]
fn entry_port_persists_across_waits() {
    // "When an agent enters a node, it learns its degree and the port of
    // entry" — and keeps that knowledge while waiting.
    struct MoveWaitCheck {
        step: u32,
    }
    impl Procedure for MoveWaitCheck {
        type Output = ();
        fn poll(&mut self, obs: &Obs) -> Poll<()> {
            self.step += 1;
            match self.step {
                1 => {
                    assert_eq!(obs.entry_port, None, "never moved yet");
                    Poll::Yield(Action::TakePort(Port::new(1)))
                }
                2..=5 => {
                    assert_eq!(
                        obs.entry_port,
                        Some(Port::new(0)),
                        "entry port must persist through waits (step {})",
                        self.step
                    );
                    Poll::Yield(Action::Wait)
                }
                _ => Poll::Complete(()),
            }
        }
    }
    let g = generators::ring(4);
    let mut engine = Engine::new(&g);
    engine.add_agent(
        label(1),
        NodeId::new(0),
        Box::new(MoveWaitCheck { step: 0 }.map(|_| Declaration::bare())),
    );
    engine.add_agent(
        label(2),
        NodeId::new(2),
        Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
    );
    engine.run(100).unwrap();
}

#[test]
fn just_woken_fires_exactly_once() {
    struct CountWokenFlags {
        woken_obs: u32,
        polls: u32,
    }
    impl Procedure for CountWokenFlags {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            self.polls += 1;
            if obs.just_woken {
                self.woken_obs += 1;
            }
            if self.polls >= 5 {
                assert_eq!(self.woken_obs, 1, "just_woken must fire exactly once");
                Poll::Complete(Declaration::bare())
            } else {
                Poll::Yield(Action::Wait)
            }
        }
    }
    let g = generators::path(3);
    let mut engine = Engine::new(&g);
    for (l, v) in [(1u64, 0u32), (2, 2)] {
        engine.add_agent(
            label(l),
            NodeId::new(v),
            Box::new(CountWokenFlags {
                woken_obs: 0,
                polls: 0,
            }),
        );
    }
    engine.set_wake_schedule(WakeSchedule::Staggered { gap: 3 });
    let outcome = engine.run(100).unwrap();
    assert!(outcome.all_declared());
}

#[test]
fn fast_forward_preserves_exact_semantics() {
    // The same scenario must produce identical declarations whether the
    // waits are walked round by round (procedures that promise nothing) or
    // fast-forwarded (WaitRounds with its `quiet_until` promise).
    struct OpaqueWait {
        left: u64,
    }
    impl Procedure for OpaqueWait {
        type Output = ();
        fn poll(&mut self, _obs: &Obs) -> Poll<()> {
            if self.left == 0 {
                Poll::Complete(())
            } else {
                self.left -= 1;
                Poll::Yield(Action::Wait)
            }
        }
        // Deliberately no promise: it is polled every round.
    }
    let run = |fast: bool| {
        let g = generators::ring(5);
        let mut engine = Engine::new(&g);
        for (i, (l, v)) in [(3u64, 0u32), (4, 2)].into_iter().enumerate() {
            let rounds = 5000 + i as u64 * 37;
            let agent: nochatter::sim::Agent = if fast {
                Box::new(WaitRounds::new(rounds).map(|_| Declaration::bare()))
            } else {
                Box::new(OpaqueWait { left: rounds }.map(|_| Declaration::bare()))
            };
            engine.add_agent(label(l), NodeId::new(v), agent);
        }
        engine.run(100_000).unwrap()
    };
    let slow = run(false);
    let fast = run(true);
    assert!(fast.skipped_rounds > 0, "hints must enable skipping");
    assert_eq!(slow.skipped_rounds, 0, "no hints, no skipping");
    for (s, f) in slow.declarations.iter().zip(&fast.declarations) {
        assert_eq!(s.1.unwrap().round, f.1.unwrap().round);
        assert_eq!(s.1.unwrap().node, f.1.unwrap().node);
    }
    assert!(fast.engine_iterations < slow.engine_iterations / 10);
}

#[test]
fn tz_inside_runfor_is_interruptible_and_bounded() {
    // The exact composition Algorithm 3 uses: TZ wrapped in RunFor wrapped
    // in the cardinality interrupt. Two distinct labels must meet within
    // the meeting bound; the RunFor cap must stop TZ(0) pairs.
    let g = generators::ring(6);
    let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 5).unwrap());
    let bound = meeting_bound(&uxs, 3);
    let run = |params: (u64, u64)| {
        let mut engine = Engine::new(&g);
        for (l, v, p) in [(1u64, 0u32, params.0), (2, 3, params.1)] {
            engine.add_agent(
                label(l),
                NodeId::new(v),
                Box::new(
                    UntilCardExceeds::new(1, RunFor::new(bound, Tz::new(p, Arc::clone(&uxs))))
                        .map(|_| Declaration::bare()),
                ),
            );
        }
        engine.run(10 * bound).unwrap()
    };
    // Distinct parameters: both declare (they met) before the cap.
    let met = run((5, 6));
    assert!(met.all_declared());
    assert!(met.gathering().unwrap().round <= bound);
    // Both passive (sentinel 0): no meeting, but RunFor caps the execution
    // and both complete exactly at the bound.
    let capped = run((0, 0));
    assert!(capped.all_declared());
    let rounds: Vec<u64> = capped
        .declarations
        .iter()
        .map(|(_, r)| r.unwrap().round)
        .collect();
    assert_eq!(rounds, vec![bound, bound]);
    // And they never met.
    assert!(capped.gathering().is_err() || capped.max_colocation == 1);
}

#[test]
fn explo_on_adversarial_ports_still_covers() {
    // Certification is against the *shuffled* graph, so coverage must hold
    // under any port renumbering.
    for seed in 0..5 {
        let g = generators::with_shuffled_ports(&generators::lollipop(4, 3), seed);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), seed).unwrap());
        for start in g.nodes() {
            assert!(uxs.covers(&g, start), "seed {seed} start {start}");
        }
        // And the in-engine execution terminates at the start node.
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(2),
            Box::new(Explo::new(&uxs).map(|_| Declaration::bare())),
        );
        engine.add_agent(
            label(2),
            NodeId::new(0),
            Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
        );
        let outcome = engine.run(1_000_000).unwrap();
        assert_eq!(outcome.declarations[0].1.unwrap().node, NodeId::new(2));
    }
}

#[test]
fn declared_agents_still_count_toward_curcard() {
    // A declared agent remains physically present: its body still raises
    // CurCard for agents passing through — the paper's counters count
    // agents, not running programs.
    struct SenseNeighbor {
        moved: bool,
    }
    impl Procedure for SenseNeighbor {
        type Output = u32;
        fn poll(&mut self, obs: &Obs) -> Poll<u32> {
            if !self.moved {
                self.moved = true;
                return Poll::Yield(Action::TakePort(Port::new(0)));
            }
            Poll::Complete(obs.cur_card)
        }
    }
    let g = generators::path(2);
    let mut engine = Engine::new(&g);
    engine.add_agent(
        label(1),
        NodeId::new(0),
        Box::new(WaitRounds::new(0).map(|_| Declaration::bare())), // declares at once
    );
    engine.add_agent(
        label(2),
        NodeId::new(1),
        Box::new(SenseNeighbor { moved: false }.map(|c| Declaration {
            leader: None,
            size: Some(c),
        })),
    );
    let outcome = engine.run(100).unwrap();
    assert_eq!(
        outcome.declarations[1].1.unwrap().declaration.size,
        Some(2),
        "the declared agent must still be counted"
    );
}
