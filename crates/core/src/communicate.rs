//! The `Communicate` function (paper Algorithm 4): transmitting a binary
//! string to co-located agents using nothing but movement and `CurCard`.
//!
//! A group of agents at one node runs `Communicate(i, s, bool)` in lockstep.
//! The execution proceeds in `i` *steps* of `5·T(EXPLO(N))` rounds each. In
//! step `j`, the participating agents whose string has bit 0 at position `j`
//! leave on an exploration (wait T, `EXPLO`, wait 3T) while everyone else
//! stays (wait 3T, `EXPLO`, wait T): the stay-behinds observe the dip in
//! `CurCard` and thereby *read* the bit. Per Lemma 3.1, as long as the
//! groups are mutually invisible (which Algorithm 3's phase structure
//! arranges), every member ends up with `l = σ·1^{i-|σ|}` where `σ` is the
//! lexicographically smallest transmitted string, and with `k` = the number
//! of agents whose string is `σ`.

use std::sync::Arc;

use nochatter_explore::{Explo, Uxs};
use nochatter_sim::proc::{Procedure, WaitRounds};
use nochatter_sim::walk::{HeldDone, Instruction};
use nochatter_sim::{Obs, Poll};

use crate::codec::BitStr;

/// The return value `(l, k)` of `Communicate`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommunicateOutcome {
    /// The received string `l` (length `i`).
    pub l: BitStr,
    /// The multiplicity `k`: under Lemma 3.1's conditions, how many
    /// co-located agents transmitted the winning string.
    pub k: u32,
}

#[derive(Clone, Debug)]
enum Stage {
    /// Line 2: read `c` and decide participation on the first observation.
    Start,
    /// Lines 12/21: the wait before this step's `EXPLO`.
    PreWait(WaitRounds, bool),
    /// Lines 13/22: the step's `EXPLO`.
    Walk(Explo, bool),
    /// Lines 14/23: the wait after this step's `EXPLO`.
    PostWait(WaitRounds),
    /// Loop exhausted: report `(l, k)`.
    Finished,
}

/// Algorithm 4, as a [`Procedure`]. Lasts exactly `5 · i · T(EXPLO(N))`
/// rounds.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use nochatter_core::{BitStr, Communicate};
/// use nochatter_explore::Uxs;
///
/// let uxs = Arc::new(Uxs::from_steps(vec![1, 1]));
/// let s = BitStr::parse("01").unwrap().code();
/// let comm = Communicate::new(6, s, true, uxs);
/// assert_eq!(comm.duration(), 6 * 5 * 4);
/// ```
#[derive(Clone, Debug)]
pub struct Communicate {
    i: u32,
    s: BitStr,
    want: bool,
    uxs: Arc<Uxs>,
    t: u64,
    /// `c`: the group cardinality read on the first observation.
    c: u32,
    k: u32,
    l: BitStr,
    participate: bool,
    /// Current step `j`, 1-based.
    j: u32,
    stage: Stage,
}

impl Communicate {
    /// `Communicate(i, s, bool)` over the shared exploration sequence.
    ///
    /// # Panics
    ///
    /// Panics if `i == 0` or the sequence is empty.
    pub fn new(i: u32, s: BitStr, bool_param: bool, uxs: Arc<Uxs>) -> Self {
        assert!(i >= 1, "Communicate needs at least one step");
        assert!(!uxs.is_empty(), "EXPLO needs a non-empty sequence");
        Communicate {
            i,
            s,
            want: bool_param,
            t: Explo::duration(&uxs),
            uxs,
            c: 0,
            k: 1,
            l: BitStr::empty(),
            participate: false,
            j: 0,
            stage: Stage::Start,
        }
    }

    /// The exact duration in rounds: `5 · i · T(EXPLO(N))`.
    pub fn duration(&self) -> u64 {
        5 * u64::from(self.i) * self.t
    }

    /// Enters step `j` (already incremented), choosing the branch.
    fn enter_step(&mut self) -> Stage {
        let j = self.j as usize;
        let is_active = self.participate && j <= self.s.len() && !self.s.bit(j);
        let pre = if is_active { self.t } else { 3 * self.t };
        Stage::PreWait(WaitRounds::new(pre), is_active)
    }

    /// Finalizes step `j` after its post-wait (lines 15–18 / 24–31).
    fn finish_step(&mut self, is_active: bool, min_card: u32) {
        if is_active {
            self.l.push(false);
            if self.c > 1 {
                self.k = min_card;
            }
        } else {
            let c_prime = min_card;
            if self.c == 1 || c_prime == self.c {
                self.l.push(true);
            } else {
                self.l.push(false);
                self.participate = false;
                // In the paper's static model the stay-behinds' walk never
                // meets more agents than the group, so `c' <= c`. On a
                // dynamic topology a blocked move can split the group and
                // `c' > c` happens. Then the subtraction wraps, in every
                // build profile, because the pinned campaign reports
                // encode the wrapped `k`. What `k` should be there is an
                // open question of the dynamic extension.
                self.k = self.c.wrapping_sub(c_prime);
            }
        }
    }
}

impl Procedure for Communicate {
    type Output = CommunicateOutcome;

    fn poll(&mut self, obs: &Obs) -> Poll<CommunicateOutcome> {
        // `min_card` of the step's EXPLO, carried from Walk to PostWait.
        loop {
            match &mut self.stage {
                Stage::Start => {
                    self.c = obs.cur_card;
                    self.k = 1;
                    self.participate = self.want && self.s.len() as u32 <= self.i;
                    self.j = 1;
                    self.stage = self.enter_step();
                }
                Stage::PreWait(w, is_active) => {
                    let is_active = *is_active;
                    match w.poll(obs) {
                        Poll::Yield(a) => return Poll::Yield(a),
                        Poll::Complete(()) => {
                            self.stage = Stage::Walk(Explo::new(&self.uxs), is_active);
                        }
                    }
                }
                Stage::Walk(e, is_active) => {
                    let is_active = *is_active;
                    match e.poll(obs) {
                        Poll::Yield(a) => return Poll::Yield(a),
                        Poll::Complete(out) => {
                            let post = if is_active { 3 * self.t } else { self.t };
                            // Stash min_card in the wait stage via closure
                            // state: finalize now (the decision only uses
                            // quantities already observed; timing of the
                            // assignment within the step is immaterial).
                            self.finish_step(is_active, out.min_card);
                            self.stage = Stage::PostWait(WaitRounds::new(post));
                        }
                    }
                }
                Stage::PostWait(w) => match w.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(()) => {
                        if self.j == self.i {
                            self.stage = Stage::Finished;
                        } else {
                            self.j += 1;
                            self.stage = self.enter_step();
                        }
                    }
                },
                Stage::Finished => {
                    return Poll::Complete(CommunicateOutcome {
                        l: self.l.clone(),
                        k: self.k,
                    });
                }
            }
        }
    }

    fn quiet_until(&self) -> u64 {
        match &self.stage {
            Stage::PreWait(w, _) | Stage::PostWait(w) => w.quiet_until(),
            _ => 0,
        }
    }

    fn held(&self) -> Instruction {
        match &self.stage {
            Stage::Walk(e, _) => e.held(),
            _ => unreachable!("no walk under way"),
        }
    }

    fn held_done(&mut self, done: HeldDone) {
        match &mut self.stage {
            Stage::Walk(e, _) => e.held_done(done),
            _ => unreachable!("no walk under way"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nochatter_graph::{generators, Graph, Label, NodeId, Port};
    use nochatter_sim::{Declaration, Engine, WakeSchedule};

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    /// Walks `approach` ports, then runs Communicate with the agent's own
    /// label code, then declares with the outcome stuffed into the
    /// declaration (leader = decoded winner, size = k).
    struct Member {
        approach: Vec<Port>,
        comm: Communicate,
        walked: usize,
    }

    impl Procedure for Member {
        type Output = Declaration;
        fn poll(&mut self, obs: &Obs) -> Poll<Declaration> {
            if self.walked < self.approach.len() {
                let p = self.approach[self.walked];
                self.walked += 1;
                return Poll::Yield(nochatter_sim::Action::TakePort(p));
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

    /// Gathers all agents at node 0 of a star, then runs Communicate with
    /// everyone present, asserting Lemma 3.1's conclusion. All agents start
    /// on leaves and walk to the hub simultaneously, so they start
    /// Communicate in the same round at the same node.
    fn run_group(labels: &[u64], i: u32, bools: &[bool]) -> Vec<(Option<Label>, u32)> {
        let n = labels.len() as u32 + 1;
        let g: Graph = generators::star(n);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 7).unwrap());
        let mut engine = Engine::new(&g);
        for (idx, (&lv, &b)) in labels.iter().zip(bools).enumerate() {
            let s = BitStr::from_label(label(lv)).code();
            engine.add_agent(
                label(lv),
                NodeId::new(idx as u32 + 1),
                Box::new(Member {
                    approach: vec![Port::new(0)],
                    comm: Communicate::new(i, s, b, Arc::clone(&uxs)),
                    walked: 0,
                }),
            );
        }
        engine.set_wake_schedule(WakeSchedule::Simultaneous);
        let outcome = engine.run(10_000_000).unwrap();
        assert!(outcome.all_declared(), "Communicate must terminate");
        // All declarations in the same round (exact lockstep).
        let rounds: Vec<u64> = outcome
            .declarations
            .iter()
            .map(|(_, r)| r.unwrap().round)
            .collect();
        assert!(rounds.windows(2).all(|w| w[0] == w[1]));
        outcome
            .declarations
            .iter()
            .map(|(_, r)| {
                let d = r.unwrap().declaration;
                (d.leader, d.size.unwrap())
            })
            .collect()
    }

    #[test]
    fn group_learns_lexicographically_smallest_code() {
        // Labels 5 (101), 3 (11), 12 (1100): codes are 11001101, 111101,
        // 1111000001; the lexicographically smallest is 5's (not the
        // smallest label — the paper promises *a* team label, not the
        // minimum).
        let i = 12;
        let results = run_group(&[5, 3, 12], i, &[true, true, true]);
        for (leader, k) in results {
            assert_eq!(leader, Some(label(5)));
            assert_eq!(k, 1);
        }
    }

    #[test]
    fn multiplicity_counts_equal_strings() {
        // Two agents transmit the same message string; pass the *message*
        // role through by giving both the same `s` (allowed: `s` need not be
        // the agent's label — gossiping relies on this).
        let g = generators::star(4);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 7).unwrap());
        let shared = BitStr::parse("10").unwrap().code();
        let other = BitStr::parse("11").unwrap().code();
        let mut engine = Engine::new(&g);
        for (idx, (lv, s)) in [
            (4u64, shared.clone()),
            (9, shared.clone()),
            (2, other.clone()),
        ]
        .into_iter()
        .enumerate()
        {
            engine.add_agent(
                label(lv),
                NodeId::new(idx as u32 + 1),
                Box::new(Member {
                    approach: vec![Port::new(0)],
                    comm: Communicate::new(8, s, true, Arc::clone(&uxs)),
                    walked: 0,
                }),
            );
        }
        let outcome = engine.run(10_000_000).unwrap();
        assert!(outcome.all_declared());
        for (_, rec) in &outcome.declarations {
            let d = rec.unwrap().declaration;
            // Winner is decode(code(10)) = 2; two agents transmitted it.
            assert_eq!(d.leader, Some(label(2)));
            assert_eq!(d.size, Some(2));
        }
    }

    #[test]
    fn non_participants_receive_all_ones() {
        let i = 8;
        let results = run_group(&[5, 3], i, &[false, false]);
        for (leader, k) in results {
            assert_eq!(leader, None, "nobody transmitted, l must be 1^i");
            assert_eq!(k, 1);
        }
    }

    #[test]
    fn too_long_strings_do_not_participate() {
        // i = 4 but code(label 12) has 10 bits: only label 3 (code length 6
        // > 4!)... both exceed i, so l = 1^4. With i = 6, 3's code fits.
        let results = run_group(&[12, 3], 4, &[true, true]);
        for (leader, _) in results {
            assert_eq!(leader, None);
        }
        let results = run_group(&[12, 3], 6, &[true, true]);
        for (leader, k) in results {
            assert_eq!(leader, Some(label(3)));
            assert_eq!(k, 1);
        }
    }

    #[test]
    fn duration_is_5_i_t() {
        let g = generators::star(3);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 7).unwrap());
        let t = Explo::duration(&uxs);
        for i in [1u32, 3, 7] {
            let comm = Communicate::new(
                i,
                BitStr::from_label(label(5)).code(),
                true,
                Arc::clone(&uxs),
            );
            assert_eq!(comm.duration(), 5 * u64::from(i) * t);
        }
        // And the in-engine execution takes exactly that long: the Member
        // walks 1 round then communicates, so declaration round = 1 + 5iT.
        let i = 6;
        let results_round = {
            let mut engine = Engine::new(&g);
            for (idx, lv) in [5u64, 6].into_iter().enumerate() {
                engine.add_agent(
                    label(lv),
                    NodeId::new(idx as u32 + 1),
                    Box::new(Member {
                        approach: vec![Port::new(0)],
                        comm: Communicate::new(
                            i,
                            BitStr::from_label(label(lv)).code(),
                            true,
                            Arc::clone(&uxs),
                        ),
                        walked: 0,
                    }),
                );
            }
            let outcome = engine.run(1_000_000).unwrap();
            assert!(outcome.all_declared());
            outcome.declarations[0].1.unwrap().round
        };
        assert_eq!(results_round, 1 + 5 * u64::from(i) * t);
    }

    #[test]
    fn solo_agent_reads_its_own_string() {
        // A single agent (c = 1): every step's else-branch sets l[j] = 1 via
        // the c == 1 clause... unless it participates and its bit is 0, in
        // which case l[j] = 0. Net effect: l = s padded with ones, k = 1.
        let g = generators::path(2);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 7).unwrap());
        let s = BitStr::from_label(label(5)).code(); // 11001101
        let mut engine = Engine::new(&g);
        engine.add_agent(
            label(5),
            NodeId::new(0),
            Box::new(Member {
                approach: vec![],
                comm: Communicate::new(10, s, true, Arc::clone(&uxs)),
                walked: 0,
            }),
        );
        engine.add_agent(
            label(9),
            NodeId::new(1),
            Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
        );
        // The second agent declares instantly and then idles in place; the
        // solo communicator's EXPLO passes through its node, which must not
        // corrupt the result (min_card at *some* foreign node is what
        // matters — here c == 1 so the c' logic is bypassed entirely).
        let outcome = engine.run(10_000_000).unwrap();
        assert!(outcome.all_declared());
        let d = outcome.declarations[0].1.unwrap().declaration;
        assert_eq!(d.leader, Some(label(5)));
        assert_eq!(d.size, Some(1));
    }

    #[test]
    fn finish_step_wraps_k_when_the_walk_meets_more_than_the_group() {
        let uxs = Arc::new(Uxs::from_steps(vec![1]));
        let mut comm = Communicate::new(2, BitStr::parse("1").unwrap().code(), true, uxs);
        comm.c = 3;
        comm.participate = true;
        // A non-walker whose walk met 5 agents in a group of 3.
        comm.finish_step(false, 5);
        assert_eq!(comm.k, u32::MAX - 1, "3 - 5 wraps");
        assert!(!comm.participate);
        assert_eq!(comm.l, BitStr::parse("0").unwrap());
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_panics() {
        Communicate::new(0, BitStr::empty(), true, Arc::new(Uxs::from_steps(vec![1])));
    }
}
