//! `BallTraversal` (paper Algorithm 7): the preprocessing walk of every
//! hypothesis.
//!
//! The agent follows **every** port sequence of length `r_ball(h)` over the
//! alphabet `{0..n_h-2}` from its start node, backtracking after each, with
//! a slow wait of `w_h` rounds before every single move. This (a) wakes
//! every dormant agent the main part could later disturb, and (b) returns
//! `false` the moment the agent stands on a node of degree `>= n_h` —
//! proof that the hypothesis is wrong. The slow waits are the paper's
//! *first scheme*: they make every pre-main-part move so sluggish that
//! agents testing hypothesis `h` can recognize (and not be confused by)
//! agents still working on other hypotheses.
//!
//! The whole traversal is one held instruction ([`Action::Hold`],
//! [`Instruction::Traverse`]): no step of it reads `CurCard`, so the
//! engine plays it by the one traversal rule ([`TraversalState`]), every
//! move a held move `w_h + 1` rounds after the one before, and the
//! traversal is polled only twice: when it starts, and in the round after
//! its last move, with its result handed back.
//!
//! A finished traversal turns into its own retrace
//! ([`BallTraversal::into_retrace`]): the hypothesis's cleanup walks the
//! ball's moves back by replaying paths from the state the traversal
//! ended in, which the engine handed back, so no move is ever stored and a
//! traversal holds O(`r_ball`) state however many moves it makes.

use nochatter_sim::proc::Procedure;
use nochatter_sim::walk::{HeldDone, Instruction, Traversal, TraversalState};
use nochatter_sim::{Action, Obs, Poll};

use super::schedule::HypothesisSchedule;

/// Algorithm 7 as a [`Procedure`]; completes with `false` iff a node of
/// degree `>= n_h` was stood upon.
///
/// Its state is the traversal's description and, once the engine has
/// handed it back, whether it completed and the state it ended in.
#[derive(Debug)]
pub struct BallTraversal {
    traversal: Traversal,
    done: Option<(bool, Box<TraversalState>)>,
}

impl BallTraversal {
    /// The traversal prescribed by the hypothesis schedule.
    pub fn new(hs: &HypothesisSchedule) -> Self {
        BallTraversal {
            traversal: Traversal {
                alpha: hs.alpha,
                radius: hs.r_ball,
                abort_degree: hs.n,
                wait: hs.w,
                retrace: None,
            },
            done: None,
        }
    }

    /// The walk that undoes this finished traversal: every move it made,
    /// in reverse order, each after the same slow wait.
    ///
    /// One excursion along a path goes out over the path's ports and comes
    /// back over the entry ports it observed; reversed, that is the same
    /// path walked forward and backtracked. So the retrace first
    /// backtracks the path the traversal aborted on, if it aborted, then
    /// walks every earlier path from the last one down. It stands only on
    /// nodes the traversal stood on, so it skips the degree abort, and it
    /// ends on the start node after exactly the traversal's rounds. It
    /// completes with `true`. The engine plays it from the state the
    /// traversal ended in.
    ///
    /// # Panics
    ///
    /// Panics if the traversal has not been handed back.
    pub fn into_retrace(self) -> Self {
        let (_, state) = self.done.expect("only a finished traversal has a retrace");
        BallTraversal {
            traversal: Traversal {
                retrace: Some(state),
                ..self.traversal
            },
            done: None,
        }
    }
}

impl Procedure for BallTraversal {
    type Output = bool;

    fn poll(&mut self, _obs: &Obs) -> Poll<bool> {
        match &self.done {
            Some((completed, _)) => Poll::Complete(*completed),
            None => Poll::Yield(Action::Hold),
        }
    }

    fn held(&self) -> Instruction {
        Instruction::Traverse(self.traversal.clone())
    }

    fn held_done(&mut self, done: HeldDone) {
        let HeldDone::Traverse { completed, state } = done else {
            unreachable!("a ball traversal holds traversals only")
        };
        self.done = Some((completed, state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unknown::enumeration::SliceEnumeration;
    use crate::unknown::schedule::UnknownSchedule;
    use nochatter_graph::{generators, Graph, InitialConfiguration, Label, NodeId};
    use nochatter_sim::proc::WaitRounds;
    use nochatter_sim::{Declaration, Engine, TraceEvent, WakeSchedule};

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    fn schedule_for(graph: Graph, k: usize) -> UnknownSchedule {
        let agents = (0..k)
            .map(|i| (label(i as u64 + 1), NodeId::new(i as u32)))
            .collect();
        let cfg = InitialConfiguration::new(graph, agents).unwrap();
        UnknownSchedule::new(SliceEnumeration::new(vec![cfg])).unwrap()
    }

    /// Runs a single BallTraversal on `graph` from `start`; returns
    /// (result, visited set, rounds).
    fn run_bt(
        graph: &Graph,
        start: NodeId,
        sched: &UnknownSchedule,
    ) -> (bool, std::collections::HashSet<NodeId>, u64) {
        let mut engine = Engine::new(graph);
        engine.add_agent(
            label(1),
            start,
            Box::new(
                BallTraversal::new(sched.hypothesis(1)).map(|ok| Declaration {
                    leader: None,
                    size: Some(u32::from(ok)),
                }),
            ),
        );
        let other = graph.nodes().find(|&v| v != start).unwrap();
        engine.add_agent(
            label(2),
            other,
            Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
        );
        engine.set_wake_schedule(WakeSchedule::Simultaneous);
        engine.record_trace(1_000_000);
        let outcome = engine.run(100_000_000).unwrap();
        assert!(outcome.all_declared(), "ball traversal must terminate");
        let rec = outcome.declarations[0].1.unwrap();
        let mut visited: std::collections::HashSet<NodeId> = std::iter::once(start).collect();
        for e in outcome.trace.unwrap().events() {
            if let TraceEvent::Move { agent, to, .. } = e {
                if *agent == label(1) {
                    visited.insert(*to);
                }
            }
        }
        (rec.declaration.size == Some(1), visited, rec.round)
    }

    /// A traversal, then its retrace. Completes with the clock of each of
    /// its polls.
    struct ThereAndBack {
        ball: Option<BallTraversal>,
        retracing: bool,
        polls: Vec<u64>,
    }

    impl Procedure for ThereAndBack {
        type Output = Vec<u64>;

        fn poll(&mut self, obs: &Obs) -> Poll<Vec<u64>> {
            self.polls.push(obs.round);
            loop {
                match self.ball.as_mut().unwrap().poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(ok) => {
                        if self.retracing {
                            assert!(ok, "a retrace never aborts");
                            return Poll::Complete(std::mem::take(&mut self.polls));
                        }
                        self.retracing = true;
                        self.ball = self.ball.take().map(BallTraversal::into_retrace);
                    }
                }
            }
        }

        fn held(&self) -> Instruction {
            self.ball.as_ref().unwrap().held()
        }

        fn held_done(&mut self, done: HeldDone) {
            self.ball.as_mut().unwrap().held_done(done);
        }
    }

    /// A schedule carrying only what a `BallTraversal` reads.
    fn ball_schedule(n: u32, r_ball: u32, w: u64) -> HypothesisSchedule {
        HypothesisSchedule {
            n,
            k: 2,
            alpha: n - 1,
            r_est: 0,
            t_est: 0,
            l_ece: 0,
            dur_sc: 0,
            dur_ece: 0,
            dur_gsc: 0,
            sens: 0,
            w,
            d_main: 0,
            r_ball,
            t_bt: 0,
            s: 0,
            t_h: 0,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]
        #[test]
        fn retrace_replays_the_traversal_backwards(
            family in 0u32..3,
            size in 2u32..7,
            extra in 0u32..4,
            seed in proptest::prelude::any::<u64>(),
            n in 2u32..6,
            r_ball in 0u32..4,
            w in 0u64..3,
        ) {
            // Random graphs with shuffled ports complete or abort; a star
            // or a lollipop (started off its hub or clique) aborts mid-path
            // once the hub's degree reaches the cap `n`.
            let graph = match family {
                0 => generators::with_shuffled_ports(
                    &generators::random_connected(size, extra, seed),
                    seed.rotate_left(32),
                ),
                1 => generators::star(size + 1),
                _ => generators::lollipop(size, 1 + extra),
            };
            let start = NodeId::new((seed % graph.node_count() as u64) as u32);
            let other = graph.nodes().find(|&v| v != start).unwrap();
            let result = std::rc::Rc::new(std::cell::RefCell::new(None));
            let sink = std::rc::Rc::clone(&result);
            let walker = ThereAndBack {
                ball: Some(BallTraversal::new(&ball_schedule(n, r_ball, w))),
                retracing: false,
                polls: Vec::new(),
            };
            let mut engine = Engine::new(&graph);
            engine.add_agent(
                label(1),
                start,
                Box::new(walker.map(move |polls| {
                    *sink.borrow_mut() = Some(polls);
                    Declaration::bare()
                })),
            );
            engine.add_agent(
                label(2),
                other,
                Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
            );
            engine.record_trace(usize::MAX);
            let outcome = engine.run(u64::MAX).unwrap();
            proptest::prop_assert!(outcome.all_declared());
            proptest::prop_assert_eq!(outcome.declarations[0].1.unwrap().node, start);
            // Polled when the traversal starts, when it ends (the retrace
            // starts in the same poll) and when the retrace ends.
            let polls = result.borrow_mut().take().unwrap();
            proptest::prop_assert_eq!(polls.len(), 3);
            let (there_from, back_from, back_to) = (polls[0], polls[1], polls[2]);
            let walked: Vec<(u64, NodeId, NodeId)> = outcome
                .trace
                .unwrap()
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Move { agent, round, from, to, .. } if *agent == label(1) => {
                        Some((*round, *from, *to))
                    }
                    _ => None,
                })
                .collect();
            let split = walked.partition_point(|&(round, ..)| round < back_from);
            let (there, back) = walked.split_at(split);
            proptest::prop_assert_eq!(there.len(), back.len());
            // Every move is a slow move of `w + 1` rounds, so each half
            // spends exactly its moves' rounds.
            let half = there.len() as u64 * (w + 1);
            proptest::prop_assert_eq!(back_from - there_from, half);
            proptest::prop_assert_eq!(back_to - back_from, half);
            let undone: Vec<(NodeId, NodeId)> =
                there.iter().rev().map(|&(_, from, to)| (to, from)).collect();
            let back: Vec<(NodeId, NodeId)> = back.iter().map(|&(_, from, to)| (from, to)).collect();
            proptest::prop_assert_eq!(back, undone);
        }
    }

    #[test]
    fn visits_whole_ball_and_returns_true_when_degrees_fit() {
        // Hypothesis graph: 3-ring (n=3). Real graph: 3-ring (degrees 2 <=
        // n-1 = 2): traversal returns true and visits everything within the
        // ball radius — here the whole graph.
        let g = generators::ring(3);
        let sched = schedule_for(g.clone(), 2);
        let (ok, visited, rounds) = run_bt(&g, NodeId::new(0), &sched);
        assert!(ok);
        assert_eq!(visited.len(), 3);
        assert!(rounds <= sched.hypothesis(1).t_bt, "within the budget");
    }

    #[test]
    fn aborts_on_high_degree_node() {
        // Hypothesis: path(2) => n = 2, degree cap 1. Real graph: star(4)
        // whose center has degree 3: the traversal must return false.
        let sched = schedule_for(generators::path(2), 2);
        let g = generators::star(4);
        // Starting at a leaf (degree 1 < 2 is fine), the first step lands on
        // the center (degree 3 >= 2) and the next decision aborts.
        let (ok, _, _) = run_bt(&g, NodeId::new(1), &sched);
        assert!(!ok);
        // Starting at the center aborts before any move.
        let (ok, visited, rounds) = run_bt(&g, NodeId::new(0), &sched);
        assert!(!ok);
        assert_eq!(visited.len(), 1, "no move needed");
        assert_eq!(rounds, 0, "aborts on the first observation");
    }

    #[test]
    fn true_traversal_ends_where_it_started() {
        let g = generators::ring(3);
        let sched = schedule_for(g.clone(), 2);
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(1),
            Box::new(BallTraversal::new(sched.hypothesis(1)).map(|_| Declaration::bare())),
        );
        engine.add_agent(
            label(2),
            NodeId::new(0),
            Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
        );
        let outcome = engine.run(100_000_000).unwrap();
        assert!(outcome.all_declared());
        assert_eq!(outcome.declarations[0].1.unwrap().node, NodeId::new(1));
    }

    #[test]
    fn every_move_is_preceded_by_the_slow_wait() {
        let g = generators::ring(3);
        let sched = schedule_for(g.clone(), 2);
        let w = sched.hypothesis(1).w;
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(1),
            NodeId::new(0),
            Box::new(BallTraversal::new(sched.hypothesis(1)).map(|_| Declaration::bare())),
        );
        engine.add_agent(
            label(2),
            NodeId::new(2),
            Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
        );
        engine.record_trace(2_000_000);
        let outcome = engine.run(100_000_000).unwrap();
        let trace = outcome.trace.unwrap();
        let move_rounds: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Move { agent, round, .. } if *agent == label(1) => Some(*round),
                _ => None,
            })
            .collect();
        assert!(!move_rounds.is_empty());
        // First move happens after w waits; consecutive moves are >= w+1
        // rounds apart.
        assert!(move_rounds[0] >= w);
        for pair in move_rounds.windows(2) {
            assert!(
                pair[1] - pair[0] > w,
                "moves at {} and {} closer than the slow wait {w}",
                pair[0],
                pair[1]
            );
        }
    }
}
