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
//! Each wait-then-move is one [`Action::SlowMove`] of `w_h + 1` rounds
//! (its [`Procedure::slow_wait`] is `w_h`). The wait ignores what the
//! agent senses, so the traversal is polled only where it decides: once
//! per move, in the round after it.
//!
//! A finished traversal turns into its own retrace
//! ([`BallTraversal::into_retrace`]): the hypothesis's cleanup walks the
//! ball's moves back by replaying paths, so no move is ever stored and a
//! traversal holds O(`r_ball`) state however many moves it makes.

use nochatter_explore::paths::Paths;
use nochatter_graph::Port;
use nochatter_sim::proc::Procedure;
use nochatter_sim::{Action, Obs, Poll};

use super::schedule::HypothesisSchedule;

/// Algorithm 7 as a [`Procedure`]; completes with `false` iff a node of
/// degree `>= n_h` was stood upon.
///
/// Its state is the path enumerator, the current path and the entry ports
/// of that one path: O(`r_ball`) words, never a record of past paths.
#[derive(Debug)]
pub struct BallTraversal {
    n: u32,
    w: u64,
    paths: Paths,
    /// Walking the paths in reverse order without the degree abort: the
    /// retrace of a finished traversal.
    retrace: bool,
    /// The current path being followed (owned copy; `Paths` reuses its
    /// buffer).
    current: Vec<u32>,
    /// Next index within `current` (0-based).
    i: usize,
    /// Entry ports of the moves made along the current path.
    entries: Vec<Port>,
    /// True while walking forward, false while backtracking.
    forward: bool,
    /// The result, once the traversal has finished.
    done: Option<bool>,
    /// Set when a move was just yielded so the next observation's entry
    /// port must be recorded.
    pending_entry: bool,
}

impl BallTraversal {
    /// The traversal prescribed by the hypothesis schedule.
    pub fn new(hs: &HypothesisSchedule) -> Self {
        let mut paths = Paths::new(hs.alpha, hs.r_ball);
        let first = paths
            .next_path()
            .expect("alphabet is non-empty, at least one path exists")
            .to_vec();
        BallTraversal {
            n: hs.n,
            w: hs.w,
            paths,
            retrace: false,
            current: first,
            i: 0,
            entries: Vec::new(),
            forward: true,
            done: None,
            pending_entry: false,
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
    /// completes with `true`.
    pub fn into_retrace(self) -> Self {
        debug_assert!(
            self.done.is_some(),
            "only a finished traversal has a retrace"
        );
        BallTraversal {
            retrace: true,
            forward: false,
            done: None,
            pending_entry: false,
            ..self
        }
    }
}

impl Procedure for BallTraversal {
    type Output = bool;

    fn poll(&mut self, obs: &Obs) -> Poll<bool> {
        if self.pending_entry {
            self.pending_entry = false;
            self.entries.push(
                obs.entry_port
                    .expect("moved last round, entry port is known"),
            );
        }
        loop {
            if let Some(b) = self.done {
                return Poll::Complete(b);
            }
            if self.forward {
                // Algorithm 7 line 7: abort on a high-degree node.
                if !self.retrace && obs.degree >= self.n {
                    self.done = Some(false);
                } else if self.i >= self.current.len() || self.current[self.i] >= obs.degree {
                    // Path finished or port missing: backtrack what was
                    // walked.
                    self.forward = false;
                } else {
                    let port = Port::new(self.current[self.i]);
                    self.i += 1;
                    self.pending_entry = true;
                    return Poll::Yield(Action::SlowMove(port));
                }
            } else if let Some(back) = self.entries.pop() {
                // Backtrack moves do not re-record entries.
                return Poll::Yield(Action::SlowMove(back));
            } else {
                // Back at the start: advance to the next path.
                let next = if self.retrace {
                    self.paths.prev_path()
                } else {
                    self.paths.next_path()
                };
                match next {
                    Some(p) => {
                        self.current.clear();
                        self.current.extend_from_slice(p);
                        self.i = 0;
                        self.forward = true;
                    }
                    None => self.done = Some(true),
                }
            }
        }
    }

    fn slow_wait(&self) -> u64 {
        self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unknown::enumeration::SliceEnumeration;
    use crate::unknown::schedule::UnknownSchedule;
    use nochatter_graph::{generators, Graph, InitialConfiguration, Label, NodeId};
    use nochatter_sim::proc::{Procedure, WaitRounds};
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

    /// A traversal, then its retrace. Completes with the rounds spent and
    /// the moves made by each half.
    struct ThereAndBack {
        ball: Option<BallTraversal>,
        retracing: bool,
        rounds: [u64; 2],
        moves: [usize; 2],
    }

    impl ThereAndBack {
        fn half(&self) -> usize {
            usize::from(self.retracing)
        }

        fn ball(&mut self) -> &mut BallTraversal {
            self.ball.as_mut().unwrap()
        }
    }

    impl Procedure for ThereAndBack {
        type Output = ([u64; 2], [usize; 2]);

        fn poll(&mut self, obs: &Obs) -> Poll<Self::Output> {
            loop {
                match self.ball().poll(obs) {
                    Poll::Yield(a) => {
                        let half = self.half();
                        let (rounds, moves) = match a {
                            Action::Wait => (1, 0),
                            Action::TakePort(_) => (1, 1),
                            Action::SlowMove(_) => (self.ball().slow_wait() + 1, 1),
                            Action::Walk => unreachable!("a ball traversal makes no walks"),
                        };
                        self.rounds[half] += rounds;
                        self.moves[half] += moves;
                        return Poll::Yield(a);
                    }
                    Poll::Complete(ok) => {
                        if self.retracing {
                            assert!(ok, "a retrace never aborts");
                            return Poll::Complete((self.rounds, self.moves));
                        }
                        self.retracing = true;
                        self.ball = self.ball.take().map(BallTraversal::into_retrace);
                    }
                }
            }
        }

        fn slow_wait(&self) -> u64 {
            self.ball.as_ref().unwrap().slow_wait()
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
            let result = std::rc::Rc::new(std::cell::Cell::new(None));
            let sink = std::rc::Rc::clone(&result);
            let walker = ThereAndBack {
                ball: Some(BallTraversal::new(&ball_schedule(n, r_ball, w))),
                retracing: false,
                rounds: [0; 2],
                moves: [0; 2],
            };
            let mut engine = Engine::new(&graph);
            engine.add_agent(
                label(1),
                start,
                Box::new(walker.map(move |out| {
                    sink.set(Some(out));
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
            let (rounds, moves) = result.get().unwrap();
            proptest::prop_assert_eq!(rounds[0], rounds[1], "the retrace's rounds differ");
            proptest::prop_assert_eq!(outcome.declarations[0].1.unwrap().node, start);
            let walked: Vec<(NodeId, NodeId)> = outcome
                .trace
                .unwrap()
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Move { agent, from, to, .. } if *agent == label(1) => {
                        Some((*from, *to))
                    }
                    _ => None,
                })
                .collect();
            proptest::prop_assert_eq!(walked.len(), moves[0] + moves[1]);
            proptest::prop_assert_eq!(moves[0], moves[1]);
            let (there, back) = walked.split_at(moves[0]);
            let undone: Vec<(NodeId, NodeId)> =
                there.iter().rev().map(|&(from, to)| (to, from)).collect();
            proptest::prop_assert_eq!(back, &undone[..]);
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
