//! `Gossip` (paper Algorithm 12, §5): the most general information-exchange
//! problem, solved by agents that cannot talk.
//!
//! Precondition (arranged by running a gathering algorithm first): all
//! agents are at one node and start in the same round, knowing a common
//! upper bound `N`. Each agent holds a message `M = code(M')`. The agents
//! repeatedly call [`Communicate`] with a growing length budget `j`; each
//! call surfaces the lexicographically smallest not-yet-delivered message of
//! length `j` (recognizable by its `01` suffix) together with its
//! multiplicity `k`. Senders whose message was delivered stop participating
//! (`b = false`); the loop ends when the delivered multiplicities sum to the
//! team size.
//!
//! Theorem 5.1: every agent ends with the full multiset of messages, in
//! time polynomial in `N`, in the smallest label length, and in the largest
//! message length.

use std::sync::Arc;

use nochatter_explore::Uxs;
use nochatter_graph::Label;
use nochatter_sim::proc::Procedure;
use nochatter_sim::walk::{HeldDone, Instruction};
use nochatter_sim::{Obs, Poll};

use crate::codec::BitStr;
use crate::communicate::Communicate;
use crate::known::{CommMode, GatherKnownUpperBound};
use crate::params::KnownParams;

/// What every agent knows when `Gossip` completes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipOutcome {
    /// Delivered messages in delivery order: the message *code* and how many
    /// agents sent it.
    pub transcript: Vec<(BitStr, u32)>,
}

impl GossipOutcome {
    /// The delivered payloads (decoded message bodies) with multiplicities.
    pub fn decoded(&self) -> Vec<(BitStr, u32)> {
        self.transcript
            .iter()
            .map(|(code, k)| {
                (
                    code.decode().expect("delivered strings are valid codes"),
                    *k,
                )
            })
            .collect()
    }

    /// Total number of senders accounted for.
    pub fn delivered_count(&self) -> u32 {
        self.transcript.iter().map(|&(_, k)| k).sum()
    }
}

#[derive(Debug)]
enum Stage {
    /// Read `a = CurCard` and loop control (Algorithm 12 lines 3-4).
    Loop,
    Comm(Communicate),
}

/// Algorithm 12 as a [`Procedure`]. All participating agents must start it
/// in the same round at the same node.
///
/// # Example
///
/// ```
/// use nochatter_core::{BitStr, Gossip};
/// use nochatter_explore::Uxs;
/// use std::sync::Arc;
///
/// let uxs = Arc::new(Uxs::from_steps(vec![1, 1]));
/// let gossip = Gossip::new(BitStr::parse("1011").unwrap(), uxs);
/// # let _ = gossip;
/// ```
#[derive(Debug)]
pub struct Gossip {
    uxs: Arc<Uxs>,
    /// `M = code(payload)`.
    message: BitStr,
    a: Option<u32>,
    i: u32,
    j: u32,
    b: bool,
    s: Vec<(BitStr, u32)>,
    stage: Stage,
}

impl Gossip {
    /// Gossips the given payload `M'` (the transmitted message is
    /// `code(M')`, which makes every message self-terminating).
    pub fn new(payload: BitStr, uxs: Arc<Uxs>) -> Self {
        Gossip {
            message: payload.code(),
            uxs,
            a: None,
            i: 0,
            j: 2,
            b: true,
            s: Vec::new(),
            stage: Stage::Loop,
        }
    }
}

impl Procedure for Gossip {
    type Output = GossipOutcome;

    fn poll(&mut self, obs: &Obs) -> Poll<GossipOutcome> {
        loop {
            match &mut self.stage {
                Stage::Loop => {
                    let a = *self.a.get_or_insert(obs.cur_card);
                    if self.i == a {
                        return Poll::Complete(GossipOutcome {
                            transcript: self.s.clone(),
                        });
                    }
                    self.stage = Stage::Comm(Communicate::new(
                        self.j,
                        self.message.clone(),
                        self.b,
                        Arc::clone(&self.uxs),
                    ));
                }
                Stage::Comm(comm) => match comm.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(out) => {
                        let m = out.l;
                        let n = m.len();
                        let suffixed_01 = n >= 2 && !m.bit(n - 1) && m.bit(n);
                        if suffixed_01 {
                            if m == self.message {
                                self.b = false;
                            }
                            self.i += out.k;
                            self.s.push((m, out.k));
                            self.j = 2;
                        } else {
                            self.j += 2;
                        }
                        self.stage = Stage::Loop;
                    }
                },
            }
        }
    }

    fn quiet_until(&self) -> u64 {
        match &self.stage {
            Stage::Comm(c) => c.quiet_until(),
            Stage::Loop => 0,
        }
    }

    fn held(&self) -> Instruction {
        match &self.stage {
            Stage::Comm(c) => c.held(),
            Stage::Loop => unreachable!("no walk under way"),
        }
    }

    fn held_done(&mut self, done: HeldDone) {
        match &mut self.stage {
            Stage::Comm(c) => c.held_done(done),
            Stage::Loop => unreachable!("no walk under way"),
        }
    }
}

/// The full `GossipKnownUpperBound` of Theorem 5.1: gather with
/// [`GatherKnownUpperBound`], then [`Gossip`]. Completes with the elected
/// leader and the delivered transcript.
#[derive(Debug)]
pub struct GossipKnownUpperBound {
    stage: ComposedStage,
    payload: BitStr,
    uxs: Arc<Uxs>,
}

#[derive(Debug)]
enum ComposedStage {
    Gather(GatherKnownUpperBound),
    Chat(Label, Gossip),
}

/// Leader plus transcript, the composed algorithm's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipReport {
    /// The leader elected during the gathering stage.
    pub leader: Label,
    /// The gossip outcome.
    pub outcome: GossipOutcome,
}

impl GossipKnownUpperBound {
    /// Gathers (in the given communication mode) and then gossips `payload`.
    pub fn new(params: KnownParams, label: Label, payload: BitStr, mode: CommMode) -> Self {
        let uxs = Arc::clone(params.uxs());
        GossipKnownUpperBound {
            stage: ComposedStage::Gather(GatherKnownUpperBound::with_mode(params, label, mode)),
            payload,
            uxs,
        }
    }
}

impl Procedure for GossipKnownUpperBound {
    type Output = GossipReport;

    fn poll(&mut self, obs: &Obs) -> Poll<GossipReport> {
        loop {
            match &mut self.stage {
                ComposedStage::Gather(g) => match g.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(leader) => {
                        // All agents complete gathering in the same round at
                        // the same node (Theorem 3.1), which is exactly
                        // Gossip's precondition.
                        self.stage = ComposedStage::Chat(
                            leader,
                            Gossip::new(self.payload.clone(), Arc::clone(&self.uxs)),
                        );
                    }
                },
                ComposedStage::Chat(leader, gossip) => match gossip.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(outcome) => {
                        return Poll::Complete(GossipReport {
                            leader: *leader,
                            outcome,
                        });
                    }
                },
            }
        }
    }

    fn quiet_until(&self) -> u64 {
        match &self.stage {
            ComposedStage::Gather(g) => g.quiet_until(),
            ComposedStage::Chat(_, g) => g.quiet_until(),
        }
    }

    fn held(&self) -> Instruction {
        match &self.stage {
            ComposedStage::Gather(g) => g.held(),
            ComposedStage::Chat(_, g) => g.held(),
        }
    }

    fn held_done(&mut self, done: HeldDone) {
        match &mut self.stage {
            ComposedStage::Gather(g) => g.held_done(done),
            ComposedStage::Chat(_, g) => g.held_done(done),
        }
    }
}

/// `GossipUnknownUpperBound` (Theorem 5.1, second part): full gossiping
/// with **no a priori knowledge about the network**.
///
/// Runs [`crate::unknown::GatherUnknownUpperBound`] first; its declaration
/// leaves all agents at one node, in the same round, knowing the **exact**
/// network size `n`. That size then plays the role of the known upper bound
/// for [`Gossip`]: every agent derives the same genuinely universal
/// exploration sequence deterministically from `n` (the analogue of
/// Reingold's construction being a fixed function of `N`), so the
/// movement-encoded exchange proceeds exactly as in the known-bound case.
///
/// Like everything downstream of the unknown-bound algorithm, this is a
/// feasibility construction: the exploration sequence derived from `n`
/// uses the exhaustive certification, which caps `n` at
/// [`nochatter_graph::enumerate::MAX_EXHAUSTIVE_N`].
#[derive(Debug)]
pub struct GossipUnknownUpperBound {
    stage: UnknownComposedStage,
    payload: BitStr,
}

#[derive(Debug)]
// One instance per agent behavior, never stored in bulk: the size skew
// between the stages is irrelevant, boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum UnknownComposedStage {
    Gather(crate::unknown::GatherUnknownUpperBound),
    Chat(crate::unknown::UnknownReport, Gossip),
}

/// The result of the zero-knowledge gossip: the gathering report plus the
/// delivered transcript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownGossipReport {
    /// The unknown-bound gathering result (leader, learned size,
    /// hypothesis index).
    pub gathering: crate::unknown::UnknownReport,
    /// The gossip outcome.
    pub outcome: GossipOutcome,
}

impl GossipUnknownUpperBound {
    /// Gathers with zero knowledge, then gossips `payload`.
    pub fn new(gather: crate::unknown::GatherUnknownUpperBound, payload: BitStr) -> Self {
        GossipUnknownUpperBound {
            stage: UnknownComposedStage::Gather(gather),
            payload,
        }
    }
}

impl Procedure for GossipUnknownUpperBound {
    type Output = UnknownGossipReport;

    fn poll(&mut self, obs: &Obs) -> Poll<UnknownGossipReport> {
        loop {
            match &mut self.stage {
                UnknownComposedStage::Gather(g) => match g.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(report) => {
                        // All agents learn the same exact size in the same
                        // round (Theorem 4.1) and derive the identical
                        // exploration sequence from it — a deterministic
                        // function of n, shared without communication.
                        let uxs = Arc::new(Uxs::exhaustive_universal(report.size, 0));
                        self.stage = UnknownComposedStage::Chat(
                            report,
                            Gossip::new(self.payload.clone(), uxs),
                        );
                    }
                },
                UnknownComposedStage::Chat(report, gossip) => match gossip.poll(obs) {
                    Poll::Yield(a) => return Poll::Yield(a),
                    Poll::Complete(outcome) => {
                        return Poll::Complete(UnknownGossipReport {
                            gathering: *report,
                            outcome,
                        });
                    }
                },
            }
        }
    }

    fn quiet_until(&self) -> u64 {
        match &self.stage {
            UnknownComposedStage::Gather(g) => g.quiet_until(),
            UnknownComposedStage::Chat(_, g) => g.quiet_until(),
        }
    }

    // Only the gathering stage waits blind (its held instructions never
    // reach here: the engine plays them); the exchange watches `CurCard`.
    fn blind(&self) -> bool {
        match &self.stage {
            UnknownComposedStage::Gather(g) => g.blind(),
            UnknownComposedStage::Chat(..) => false,
        }
    }

    fn held(&self) -> Instruction {
        match &self.stage {
            UnknownComposedStage::Gather(g) => g.held(),
            UnknownComposedStage::Chat(_, g) => g.held(),
        }
    }

    fn held_done(&mut self, done: HeldDone) {
        match &mut self.stage {
            UnknownComposedStage::Gather(g) => g.held_done(done),
            UnknownComposedStage::Chat(_, g) => g.held_done(done),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_gossip, KnownSetup};
    use nochatter_graph::{generators, InitialConfiguration, NodeId};
    use nochatter_sim::WakeSchedule;

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    fn payloads(items: &[(u64, &str)]) -> Vec<(Label, BitStr)> {
        items
            .iter()
            .map(|&(l, m)| (label(l), BitStr::parse(m).unwrap()))
            .collect()
    }

    fn run_and_check(cfg: &InitialConfiguration, msgs: &[(u64, &str)], schedule: WakeSchedule) {
        let setup = KnownSetup::for_configuration(cfg, cfg.size() as u32, 3);
        let msgs = payloads(msgs);
        let reports = run_gossip(cfg, &setup, CommMode::Silent, &msgs, schedule)
            .expect("gossip run succeeds");
        // Every agent ends with the same transcript covering all agents.
        let first = &reports[0].1;
        for (agent, report) in &reports {
            assert_eq!(
                report.outcome, first.outcome,
                "agent {agent} learned a different transcript"
            );
            assert_eq!(report.outcome.delivered_count() as usize, msgs.len());
        }
        // The transcript is exactly the multiset of payloads.
        let mut expected: Vec<BitStr> = msgs.iter().map(|(_, m)| m.clone()).collect();
        expected.sort();
        let mut got: Vec<BitStr> = Vec::new();
        for (payload, k) in first.outcome.decoded() {
            for _ in 0..k {
                got.push(payload.clone());
            }
        }
        got.sort();
        assert_eq!(got, expected, "delivered multiset mismatch");
    }

    #[test]
    fn two_agents_exchange_messages() {
        let cfg = InitialConfiguration::new(
            generators::path(3),
            vec![(label(1), NodeId::new(0)), (label(2), NodeId::new(2))],
        )
        .unwrap();
        run_and_check(&cfg, &[(1, "101"), (2, "0")], WakeSchedule::Simultaneous);
    }

    #[test]
    fn three_agents_with_duplicate_messages() {
        let cfg = InitialConfiguration::new(
            generators::ring(5),
            vec![
                (label(2), NodeId::new(0)),
                (label(5), NodeId::new(2)),
                (label(6), NodeId::new(3)),
            ],
        )
        .unwrap();
        // Two agents carry the same payload; multiplicity must be 2.
        run_and_check(
            &cfg,
            &[(2, "11"), (5, "11"), (6, "000")],
            WakeSchedule::Simultaneous,
        );
    }

    #[test]
    fn empty_message_is_legal() {
        let cfg = InitialConfiguration::new(
            generators::path(2),
            vec![(label(1), NodeId::new(0)), (label(3), NodeId::new(1))],
        )
        .unwrap();
        run_and_check(&cfg, &[(1, ""), (3, "1")], WakeSchedule::Simultaneous);
    }

    #[test]
    fn staggered_wakeups_do_not_break_gossip() {
        let cfg = InitialConfiguration::new(
            generators::star(4),
            vec![
                (label(3), NodeId::new(1)),
                (label(4), NodeId::new(2)),
                (label(9), NodeId::new(3)),
            ],
        )
        .unwrap();
        run_and_check(
            &cfg,
            &[(3, "01"), (4, "0110"), (9, "1")],
            WakeSchedule::Staggered { gap: 13 },
        );
    }

    #[test]
    fn longer_messages_cost_more_rounds() {
        let mk = |m: &str| {
            let cfg = InitialConfiguration::new(
                generators::path(2),
                vec![(label(1), NodeId::new(0)), (label(2), NodeId::new(1))],
            )
            .unwrap();
            let setup = KnownSetup::for_configuration(&cfg, 2, 3);
            let msgs = payloads(&[(1, m), (2, "1")]);
            let (outcome, _) = crate::harness::run_gossip_outcome(
                &cfg,
                &setup,
                CommMode::Silent,
                &msgs,
                WakeSchedule::Simultaneous,
            )
            .unwrap();
            outcome.rounds
        };
        let short = mk("1");
        let long = mk("1111111111");
        assert!(
            long > short,
            "longer message must take longer ({long} <= {short})"
        );
    }
}
