//! The `TZ(L)` rendezvous procedure (paper §2).
//!
//! `GatherKnownUpperBound` breaks the symmetry between groups of agents by
//! running a label-parameterized rendezvous procedure the paper borrows from
//! Ta-Shma and Zwick: if two agents (or two lock-stepped groups) execute
//! `TZ` with *different* parameters, starting at most `T(EXPLO(N))/2` rounds
//! apart, they meet within `P(N, ℓ)` rounds of the later start, where `ℓ`
//! bounds the bit length of the smaller parameter.
//!
//! In place of the Ta-Shma–Zwick construction, ours is the classical
//! label-schedule one, whose meeting bound [`meeting_bound`] states and
//! the tests of this crate (`two_agents_meet_within_bound` over graph,
//! label and start-offset sweeps) and `tests/exploration.rs` (schedules of
//! distinct labels differ within `2ℓ + 2` blocks) pin: time is divided into blocks of `2·T(EXPLO(N))` rounds; the bits of
//! `code(x_λ)` (each label bit doubled, then the terminator `01` — the
//! prefix-free encoding of Proposition 2.1) select per block whether the
//! agent is *active* (wait T/2, run `EXPLO(N)`, wait T/2) or *passive* (wait
//! the whole block; bit 1 = passive), with all-passive padding afterwards
//! and `TZ(0)` defined as all-passive. Distinct parameters give schedules
//! that differ in some block `j ≤ 2ℓ+2` because `code` is prefix-free; in
//! the first differing block the active party's full exploration lands
//! inside the passive party's waiting window (start offsets ≤ T/2 shift the
//! windows by less than the wait margins), and exploration visits every
//! node, forcing a meeting.
//!
//! # Example
//!
//! ```
//! use nochatter_rendezvous::ActivitySchedule;
//!
//! // code(binary of 2) = code("10") = 1 1 0 0 0 1; bit 0 = active.
//! let s = ActivitySchedule::for_param(2);
//! let acts: Vec<bool> = (0..7).map(|b| s.is_active(b)).collect();
//! assert_eq!(acts, vec![false, false, true, true, true, false, false]);
//! // TZ(0) never moves.
//! assert!(!ActivitySchedule::for_param(0).is_active(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::convert::Infallible;
use std::sync::Arc;

use nochatter_explore::{Explo, Uxs};
use nochatter_sim::proc::Procedure;
use nochatter_sim::walk::{Walk, WalkState};
use nochatter_sim::{Action, Obs, Poll};

/// Which blocks of `TZ` are active, derived from the parameter's prefix-free
/// encoding; see the [crate docs](self).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActivitySchedule {
    /// `code(x_λ)`: true = passive (bit 1), false = active (bit 0). Blocks
    /// beyond the end are passive.
    bits: Vec<bool>,
}

impl ActivitySchedule {
    /// The schedule of `TZ(lambda)`. `lambda == 0` (the "no label learned"
    /// sentinel of Algorithm 3) is all-passive.
    pub fn for_param(lambda: u64) -> Self {
        if lambda == 0 {
            return ActivitySchedule { bits: Vec::new() };
        }
        let len = 64 - lambda.leading_zeros();
        let mut bits = Vec::with_capacity(2 * len as usize + 2);
        for i in (0..len).rev() {
            let bit = (lambda >> i) & 1 == 1;
            bits.push(bit);
            bits.push(bit);
        }
        bits.push(false);
        bits.push(true);
        ActivitySchedule { bits }
    }

    /// Whether block `block` (0-based) is active.
    pub fn is_active(&self, block: usize) -> bool {
        match self.bits.get(block) {
            Some(&passive_bit) => !passive_bit,
            None => false,
        }
    }

    /// Length of the explicitly encoded prefix (`2ℓ+2` for an `ℓ`-bit
    /// parameter, 0 for the sentinel).
    pub fn encoded_len(&self) -> usize {
        self.bits.len()
    }

    /// The first block where two schedules differ, if within both encoded
    /// prefixes extended with passive padding.
    pub fn first_difference(&self, other: &ActivitySchedule) -> Option<usize> {
        let horizon = self.bits.len().max(other.bits.len());
        (0..horizon).find(|&b| self.is_active(b) != other.is_active(b))
    }
}

/// The meeting-time polynomial `P(N, ℓ)` for our `TZ` construction: if two
/// parties with distinct parameters start `TZ` at most `T(EXPLO)/2` rounds
/// apart and one parameter has bit length at most `bit_len`, they share a
/// node within this many rounds of the later start (tests assert it across
/// graph/label/offset sweeps).
pub fn meeting_bound(uxs: &Uxs, bit_len: u32) -> u64 {
    (4 * u64::from(bit_len) + 6) * Explo::duration(uxs)
}

/// The `TZ(λ)` procedure. Never completes on its own — Algorithm 3 runs it
/// for a fixed number of rounds (`RunFor`) and interrupts on meetings
/// (`UntilCardExceeds`).
///
/// Its walks are not held instructions ([`Action::Hold`]): the window of
/// an active block ends after `2L` rounds whether or not its walk has ended
/// (a blocked traversal stretches the walk), so `TZ` steps a
/// [`WalkState`], the engine's walk rule, in its own polls.
#[derive(Clone, Debug)]
pub struct Tz {
    schedule: ActivitySchedule,
    uxs: Arc<Uxs>,
    /// `L`: half of `T(EXPLO)`.
    l: u64,
    /// The clock of its first poll: block `b` starts `b` block lengths
    /// after it.
    start: Option<u64>,
    /// The clock of its latest poll.
    last: u64,
    /// The block the walk below belongs to.
    block: usize,
    /// Whether this block's walk has started.
    walking: bool,
    walk: WalkState,
}

impl Tz {
    /// `TZ(lambda)` driven by the shared exploration sequence.
    ///
    /// # Panics
    ///
    /// Panics if `uxs` is empty.
    pub fn new(lambda: u64, uxs: Arc<Uxs>) -> Self {
        assert!(!uxs.is_empty(), "TZ needs a non-empty exploration sequence");
        Tz {
            schedule: ActivitySchedule::for_param(lambda),
            l: uxs.len() as u64,
            uxs,
            start: None,
            last: 0,
            block: 0,
            walking: false,
            walk: WalkState::default(),
        }
    }

    /// Rounds per block: `2 * T(EXPLO)`.
    pub fn block_len(&self) -> u64 {
        4 * self.l
    }
}

impl Procedure for Tz {
    type Output = Infallible;

    fn poll(&mut self, obs: &Obs) -> Poll<Infallible> {
        let block_len = self.block_len();
        let elapsed = obs.round - *self.start.get_or_insert(obs.round);
        let (block, tick) = ((elapsed / block_len) as usize, elapsed % block_len);
        if block != self.block {
            self.block = block;
            self.walking = false;
        }
        self.last = obs.round;
        if !self.schedule.is_active(self.block) || !(self.l..3 * self.l).contains(&tick) {
            return Poll::Yield(Action::Wait);
        }
        let port = if self.walking {
            self.walk
                .step(
                    obs.degree,
                    obs.cur_card,
                    obs.entry_port,
                    obs.blocked,
                    obs.round,
                )
                // EXPLO lasts exactly 2L rounds and the active window is
                // 2L rounds wide, so its end cannot be observed here.
                .expect("EXPLO window sized to its duration")
        } else {
            self.walking = true;
            let walk = Walk {
                steps: Arc::clone(self.uxs.shared_steps()),
                stop_above: None,
            };
            self.walk.start(walk, obs.degree, obs.cur_card)
        };
        Poll::Yield(Action::TakePort(port))
    }

    fn quiet_until(&self) -> u64 {
        let Some(start) = self.start else { return 0 };
        // Count guaranteed waits from the round after the latest poll.
        let block_len = self.block_len();
        let next = self.last - start + 1;
        let (block, tick) = ((next / block_len) as usize, next % block_len);
        let waits = if !self.schedule.is_active(block) {
            let mut quiet = block_len - tick;
            // Extend through consecutive passive blocks, notably the
            // infinite passive tail (capped — callers re-query anyway).
            let mut b = block + 1;
            while !self.schedule.is_active(b) && quiet < (1 << 40) {
                if b >= self.schedule.encoded_len() {
                    // All-passive forever from here.
                    return u64::MAX;
                }
                quiet += block_len;
                b += 1;
            }
            quiet
        } else if tick < self.l {
            self.l - tick
        } else if tick >= 3 * self.l {
            block_len - tick
        } else {
            0
        };
        self.last.saturating_add(waits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nochatter_graph::{generators, Graph, Label, NodeId};
    use nochatter_sim::proc::{Procedure, UntilCardExceeds};
    use nochatter_sim::{Declaration, Engine, WakeSchedule};

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    #[test]
    fn schedule_encoding_matches_code() {
        // λ = 5 = 101 -> code = 11 00 11 01 (passive bits), so active
        // (bit 0) blocks are 2, 3 and 6.
        let s = ActivitySchedule::for_param(5);
        assert_eq!(s.encoded_len(), 8);
        let active: Vec<usize> = (0..10).filter(|&b| s.is_active(b)).collect();
        assert_eq!(active, vec![2, 3, 6]);
    }

    #[test]
    fn distinct_params_differ_within_bound() {
        let params: Vec<u64> = vec![1, 2, 3, 5, 6, 7, 12, 13, 100, 255];
        for &a in &params {
            for &b in &params {
                if a == b {
                    continue;
                }
                let sa = ActivitySchedule::for_param(a);
                let sb = ActivitySchedule::for_param(b);
                let diff = sa
                    .first_difference(&sb)
                    .expect("prefix-free encodings must differ");
                let min_bits = (64 - a.leading_zeros()).min(64 - b.leading_zeros());
                assert!(
                    diff < (2 * min_bits + 2) as usize,
                    "params {a},{b} differ at {diff}, expected < {}",
                    2 * min_bits + 2
                );
            }
        }
    }

    #[test]
    fn zero_is_all_passive_and_differs_from_any() {
        let z = ActivitySchedule::for_param(0);
        assert!((0..100).all(|b| !z.is_active(b)));
        for lambda in [1u64, 2, 9, 31] {
            let s = ActivitySchedule::for_param(lambda);
            assert!(z.first_difference(&s).is_some());
        }
    }

    /// Runs two agents executing TZ (wrapped to declare on meeting) with the
    /// given start offset; returns the meeting round (round of the later
    /// agent's declaration) if they met.
    fn run_tz(
        g: &Graph,
        starts: (u32, u32),
        params: (u64, u64),
        offset: u64,
        uxs: &Arc<Uxs>,
        max_rounds: u64,
    ) -> Option<u64> {
        let mut engine = Engine::new(g);
        for (i, (start, param)) in [(starts.0, params.0), (starts.1, params.1)]
            .into_iter()
            .enumerate()
        {
            engine.add_agent(
                label(i as u64 + 1),
                NodeId::new(start),
                Box::new(
                    UntilCardExceeds::new(1, Tz::new(param, Arc::clone(uxs)))
                        .map(|_| Declaration::bare()),
                ),
            );
        }
        engine.set_wake_schedule(WakeSchedule::Explicit(vec![0, offset]));
        let outcome = engine.run(max_rounds).ok()?;
        if !outcome.all_declared() {
            return None;
        }
        let report = outcome.gathering().ok()?;
        Some(report.round)
    }

    #[test]
    fn two_agents_meet_within_bound() {
        let graphs = vec![
            generators::ring(6),
            generators::path(5),
            generators::star(5),
            generators::random_connected(7, 3, 2),
        ];
        let uxs = Arc::new(Uxs::covering(&graphs, 13).unwrap());
        let t = Explo::duration(&uxs);
        let pairs: Vec<(u64, u64)> = vec![(1, 2), (3, 4), (5, 12), (2, 9)];
        for g in &graphs {
            for &(a, b) in &pairs {
                for offset in [0, t / 4, t / 2] {
                    let min_bits = (64 - a.leading_zeros()).min(64 - b.leading_zeros());
                    let bound = meeting_bound(&uxs, min_bits);
                    let met = run_tz(g, (0, 2), (a, b), offset, &uxs, offset + bound + 1)
                        .unwrap_or_else(|| {
                            panic!("params ({a},{b}) offset {offset} on {g:?}: no meeting")
                        });
                    assert!(
                        met <= offset + bound,
                        "met at {met}, bound was {} (offset {offset})",
                        offset + bound
                    );
                }
            }
        }
    }

    #[test]
    fn nonzero_meets_sentinel_zero() {
        // One group learned a label (λ=9), the other learned nothing (λ=0):
        // the active one must find the passive one.
        let g = generators::ring(8);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 3).unwrap());
        let bound = meeting_bound(&uxs, 4);
        let met = run_tz(&g, (1, 5), (9, 0), 0, &uxs, bound + 1).expect("must meet");
        assert!(met <= bound);
    }

    #[test]
    fn sentinel_never_moves() {
        let mut tz = Tz::new(0, Arc::new(Uxs::from_steps(vec![1, 1])));
        for round in 0..100 {
            match tz.poll(&Obs::synthetic(round, 2, 1, None)) {
                Poll::Yield(Action::Wait) => {}
                other => panic!("TZ(0) must always wait, got {other:?}"),
            }
        }
        assert_eq!(tz.quiet_until(), u64::MAX);
    }

    #[test]
    fn equal_params_stay_symmetric_on_ring() {
        // Two agents with the same parameter on a symmetric ring never meet;
        // the run hits its round limit with nobody declared.
        let g = generators::ring(6);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 3).unwrap());
        let result = run_tz(&g, (0, 3), (5, 5), 0, &uxs, 20_000);
        assert_eq!(result, None);
    }

    #[test]
    fn quiet_until_and_skips_are_consistent() {
        // Drive one TZ with a poll every round, another only in the round
        // after each of its promises; the action streams must agree, and
        // every round the second skips must be a wait of the first. The
        // synthetic observation carries an entry port because EXPLO reads
        // it after every move.
        let uxs = Arc::new(Uxs::from_steps(vec![1, 0, 1]));
        let obs = |round| Obs::synthetic(round, 2, 1, Some(nochatter_graph::Port::new(0)));
        let mut reference = Tz::new(6, Arc::clone(&uxs));
        let actions: Vec<Action> = (0..200)
            .map(|round| reference.poll(&obs(round)).action().unwrap())
            .collect();
        let mut skipping = Tz::new(6, Arc::clone(&uxs));
        let mut round = 0;
        while round < 200 {
            let action = skipping.poll(&obs(round)).action().unwrap();
            assert_eq!(
                action, actions[round as usize],
                "divergence at round {round}"
            );
            let next = match action {
                Action::Wait => skipping.quiet_until().saturating_add(1).max(round + 1),
                _ => round + 1,
            };
            for skipped in round + 1..next.min(200) {
                assert_eq!(actions[skipped as usize], Action::Wait, "round {skipped}");
            }
            round = next;
        }
    }
}
