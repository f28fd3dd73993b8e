//! `StarCheck` (paper Algorithm 9): the dancing protocol that verifies a
//! group consists of exactly the hypothesized team.
//!
//! The `k_h` agents, all at the central node `v` of degree `d`, take turns
//! (twice, in rank order) performing a *dance*: visiting each neighbor of
//! `v` and coming straight back, one neighbor per two rounds. While one
//! agent dances, the others hold still and check the cardinality rhythm:
//! `k_h - 1` at `v` in odd rounds (dancer away), `k_h` in even rounds
//! (dancer back); the dancer itself checks it is alone at each neighbor
//! (first pass) and that the group is whole whenever it returns. Any agent
//! out of step — an impostor, a missing dancer, a drop-in from another
//! hypothesis — breaks the rhythm and everyone's verdict turns false.
//! Lasts exactly `4·d·k_h` rounds.

use nochatter_graph::Port;
use nochatter_sim::proc::Procedure;
use nochatter_sim::{Action, Obs, Poll};

/// Algorithm 9 as a [`Procedure`]; completes with the verdict `b`.
#[derive(Debug)]
pub struct StarCheck {
    k: u32,
    rank: u32,
    /// Degree of `v`, read on the first observation.
    d: Option<u32>,
    /// Poll offset `0 .. 4dk` (the `4dk`-th observation carries the final
    /// pending check and completes).
    o: u64,
    /// Whether this agent dances in the current slice (frozen at slice
    /// entry, since the second-pass dance condition consults `b` then).
    dancing: bool,
    b: bool,
}

impl StarCheck {
    /// A check for a team of `k` agents, executed by the agent of the given
    /// rank within the hypothesis configuration.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= k` or `k == 0`.
    pub fn new(k: u32, rank: u32) -> Self {
        assert!(k > 0 && rank < k, "rank must index into the team");
        StarCheck {
            k,
            rank,
            d: None,
            o: 0,
            dancing: false,
            b: true,
        }
    }

    /// Whether this agent dances in slice `s` (`0..2k`): it is its rank's
    /// turn, and in the second pass only if its verdict still stands
    /// (Algorithm 9 line 7).
    fn dances_in(&self, s: u64) -> bool {
        let first_pass = s < u64::from(self.k);
        s % u64::from(self.k) == u64::from(self.rank) && (first_pass || self.b)
    }
}

impl Procedure for StarCheck {
    type Output = bool;

    fn poll(&mut self, obs: &Obs) -> Poll<bool> {
        let d = *self.d.get_or_insert(obs.degree);
        let two_d = u64::from(2 * d);
        let total = two_d * u64::from(2 * self.k);
        let w = self.o % two_d;
        if w == 0 {
            // Slice boundary: the previous slice's trailing checks ride on
            // this observation (everyone expects the full group at `v`),
            // and the new dance decision is frozen.
            if self.o >= 1 && obs.cur_card != self.k {
                self.b = false;
            }
            if self.o == total {
                return Poll::Complete(self.b);
            }
            self.dancing = self.dances_in(self.o / two_d);
        } else {
            let s = self.o / two_d;
            let first_pass = s < u64::from(self.k);
            if self.dancing {
                if w % 2 == 1 {
                    // At a neighbor: first pass checks solitude (line 11).
                    if first_pass && obs.cur_card != 1 {
                        self.b = false;
                    }
                } else if obs.cur_card != self.k {
                    // Back at v (line 15).
                    self.b = false;
                }
            } else {
                // Waiting: the rhythm check (line 22).
                let expect = if w % 2 == 1 { self.k - 1 } else { self.k };
                if obs.cur_card != expect {
                    self.b = false;
                }
            }
        }
        let action = if self.dancing {
            if w.is_multiple_of(2) {
                Action::TakePort(Port::new((w / 2) as u32))
            } else {
                Action::TakePort(
                    obs.entry_port
                        .expect("dancer moved out last round, entry port known"),
                )
            }
        } else {
            Action::Wait
        };
        self.o += 1;
        Poll::Yield(action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nochatter_graph::{generators, Graph, Label, NodeId};
    use nochatter_sim::proc::{FollowPath, Procedure, WaitRounds};
    use nochatter_sim::{Declaration, Engine, WakeSchedule};

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    /// Walk to the hub, then StarCheck; declare the verdict in `size`.
    struct HubChecker {
        walk: FollowPath,
        check: StarCheck,
        walking: bool,
    }

    impl Procedure for HubChecker {
        type Output = bool;
        fn poll(&mut self, obs: &Obs) -> Poll<bool> {
            if self.walking {
                match self.walk.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(()) => self.walking = false,
                }
            }
            self.check.poll(obs)
        }
    }

    fn run_checkers(
        g: &Graph,
        team: &[(u64, u32, Vec<u32>, u32)], // (label, start, walk, rank)
        k: u32,
        extras: Vec<(u64, u32, nochatter_sim::Agent)>,
    ) -> Vec<bool> {
        let mut engine = Engine::new(g);
        let team_len = team.len();
        for (l, start, walk, rank) in team {
            engine.add_agent(
                label(*l),
                NodeId::new(*start),
                Box::new(
                    HubChecker {
                        walk: FollowPath::new(walk.iter().map(|&p| Port::new(p)).collect()),
                        check: StarCheck::new(k, *rank),
                        walking: true,
                    }
                    .map(|ok| Declaration {
                        leader: None,
                        size: Some(u32::from(ok)),
                    }),
                ),
            );
        }
        for (l, start, behavior) in extras {
            engine.add_agent(label(l), NodeId::new(start), behavior);
        }
        engine.set_wake_schedule(WakeSchedule::Simultaneous);
        let outcome = engine.run(1_000_000).unwrap();
        (0..team_len)
            .map(|idx| {
                let rec = outcome.declarations[idx].1.expect("checker must terminate");
                rec.declaration.size == Some(1)
            })
            .collect()
    }

    #[test]
    fn clean_team_passes() {
        // Three agents walk to the hub of a star and dance.
        let g = generators::star(4);
        let verdicts = run_checkers(
            &g,
            &[(1, 1, vec![0], 0), (2, 2, vec![0], 1), (3, 3, vec![0], 2)],
            3,
            vec![],
        );
        assert_eq!(verdicts, vec![true, true, true]);
    }

    #[test]
    fn parked_stranger_at_neighbor_is_detected() {
        // A fourth agent sits on one of the hub's neighbors: the dancers
        // find it during their neighbor visits (CurCard != 1 away from v).
        let g = generators::star(5);
        let verdicts = run_checkers(
            &g,
            &[(1, 1, vec![0], 0), (2, 2, vec![0], 1), (3, 3, vec![0], 2)],
            3,
            vec![(
                9,
                4,
                Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
            )],
        );
        assert_eq!(verdicts, vec![false, false, false]);
    }

    #[test]
    fn stranger_at_the_hub_breaks_the_rhythm() {
        // A stranger waiting at the hub itself makes every cardinality
        // expectation off by one.
        let g = generators::star(5);
        let verdicts = run_checkers(
            &g,
            &[(1, 1, vec![0], 0), (2, 2, vec![0], 1)],
            2,
            vec![(
                9,
                4,
                Box::new(HubSitter { walked: false }.map(|_| Declaration::bare())),
            )],
        );
        assert_eq!(verdicts, vec![false, false]);
    }

    /// Walks one step to the hub and parks there forever (never declares
    /// within the test window — the test only reads the checkers).
    struct HubSitter {
        walked: bool,
    }
    impl Procedure for HubSitter {
        type Output = ();
        fn poll(&mut self, _obs: &Obs) -> Poll<()> {
            if self.walked {
                Poll::Yield(Action::Wait)
            } else {
                self.walked = true;
                Poll::Yield(Action::TakePort(Port::new(0)))
            }
        }
    }

    #[test]
    fn duration_is_4dk() {
        let g = generators::star(4); // hub degree 3
        let mut engine = Engine::new(&g);
        for (l, start, rank) in [(1u64, 1u32, 0u32), (2, 2, 1)] {
            engine.add_agent(
                label(l),
                NodeId::new(start),
                Box::new(
                    HubChecker {
                        walk: FollowPath::new(vec![Port::new(0)]),
                        check: StarCheck::new(2, rank),
                        walking: true,
                    }
                    .map(|_| Declaration::bare()),
                ),
            );
        }
        let outcome = engine.run(100_000).unwrap();
        assert!(outcome.all_declared());
        // 1 round of walking + 4 * d * k = 4 * 3 * 2 = 24 rounds of dancing.
        assert_eq!(outcome.declarations[0].1.unwrap().round, 1 + 24);
    }

    #[test]
    #[should_panic(expected = "rank must index")]
    fn bad_rank_panics() {
        StarCheck::new(2, 2);
    }

    #[test]
    fn missing_team_member_fails() {
        // k = 3 expected but only 2 agents show up: the waiter rhythm is
        // off from the start.
        let g = generators::star(4);
        let verdicts = run_checkers(&g, &[(1, 1, vec![0], 0), (2, 2, vec![0], 1)], 3, vec![]);
        assert_eq!(verdicts, vec![false, false]);
    }
}
