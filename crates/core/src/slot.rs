//! Enum-dispatched agent behaviors: the built-in algorithm stack as one
//! inline storage type.
//!
//! The engine's agent arena is generic over its behavior storage
//! (`Engine<'g, V, B>`); instantiating `B` with [`BehaviorSlot`] stores
//! every built-in behavior *inline* — no `Box` per agent, no vtable call
//! per agent per round. The harness runners
//! ([`crate::harness::run_scenario`] and the gossip/unknown siblings) all
//! execute through slots; [`BehaviorSlot::Custom`] keeps the open
//! [`AgentBehavior`] extension point for everything else, so the public
//! trait survives unchanged.

use std::convert::Infallible;
use std::sync::{Arc, Mutex};

use nochatter_explore::{Explo, ExploOutcome, Uxs};
use nochatter_graph::Label;
use nochatter_rendezvous::Tz;
use nochatter_sim::proc::{ProcBehavior, Procedure, RunFor};
use nochatter_sim::{Action, AgentAct, AgentBehavior, Declaration, Obs, Poll};

use crate::gossip::{GossipKnownUpperBound, GossipReport, GossipUnknownUpperBound};
use crate::known::{CommMode, GatherKnownUpperBound};
use crate::params::KnownParams;
use crate::unknown::{GatherUnknownUpperBound, UnknownReport};

/// Adapts a [`Procedure`] into an [`AgentBehavior`] that, on completion,
/// writes the full output into a shared sink and declares a summary of it.
///
/// This is how the gossip and unknown-bound runners get their rich reports
/// out of the engine: the declaration carries only what the model lets an
/// agent announce (leader, size), while the sink receives the whole
/// transcript. Keeping the summary map a plain `fn` pointer (not a
/// closure) is what makes the concrete `SinkBehavior<P>` types nameable —
/// and therefore storable in [`BehaviorSlot`] without boxing.
pub struct SinkBehavior<P: Procedure> {
    inner: P,
    sink: Arc<Mutex<Option<P::Output>>>,
    declare: fn(&P::Output) -> Declaration,
    done: bool,
}

impl<P: Procedure> SinkBehavior<P> {
    /// Runs `inner`; on completion stores the output in `sink` and
    /// declares `declare(&output)`.
    pub fn new(
        inner: P,
        sink: Arc<Mutex<Option<P::Output>>>,
        declare: fn(&P::Output) -> Declaration,
    ) -> Self {
        SinkBehavior {
            inner,
            sink,
            declare,
            done: false,
        }
    }
}

impl<P: Procedure> AgentBehavior for SinkBehavior<P> {
    fn on_round(&mut self, obs: &Obs) -> AgentAct {
        if self.done {
            // The engine stops polling declared agents; be safe anyway.
            return AgentAct::Wait;
        }
        match self.inner.poll(obs) {
            Poll::Yield(Action::Wait) => AgentAct::Wait,
            Poll::Yield(Action::TakePort(p)) => AgentAct::TakePort(p),
            Poll::Complete(out) => {
                self.done = true;
                let declaration = (self.declare)(&out);
                *self.sink.lock().expect("sink poisoned") = Some(out);
                AgentAct::Declare(declaration)
            }
        }
    }

    fn min_wait(&self) -> u64 {
        if self.done {
            u64::MAX
        } else {
            self.inner.min_wait()
        }
    }

    fn blind(&self) -> bool {
        self.done || self.inner.blind()
    }

    fn note_skipped(&mut self, rounds: u64) {
        if !self.done {
            self.inner.note_skipped(rounds);
        }
    }
}

fn declare_bare_explo(_out: ExploOutcome) -> Declaration {
    Declaration::bare()
}

fn declare_bare_tz(_out: Option<Infallible>) -> Declaration {
    Declaration::bare()
}

fn declare_gossip(report: &GossipReport) -> Declaration {
    Declaration::with_leader(report.leader)
}

fn declare_unknown(report: &UnknownReport) -> Declaration {
    Declaration {
        leader: Some(report.leader),
        size: Some(report.size),
    }
}

fn declare_unknown_gossip(report: &crate::gossip::UnknownGossipReport) -> Declaration {
    Declaration {
        leader: Some(report.gathering.leader),
        size: Some(report.gathering.size),
    }
}

/// A walker variant's concrete type: a procedure mapped to a declaration
/// by a plain `fn` pointer (closures would make the type unnameable).
type WalkerBehavior<P> = ProcBehavior<P, fn(<P as Procedure>::Output) -> Declaration>;

/// One agent's behavior, enum-dispatched.
///
/// Every built-in algorithm of the reproduction has a variant, so a
/// campaign's engines store their agents' state machines inline in the
/// arena's `Vec<BehaviorSlot>` and dispatch each round with a jump table
/// instead of a per-agent vtable pointer chase. [`BehaviorSlot::Custom`]
/// boxes anything outside the built-in stack — the same open extension
/// point the engine's default `Box<dyn AgentBehavior>` storage offers.
// One slot per agent, k ≤ n of them per engine: the size skew between a
// bare EXPLO walker and the full known-bound machine is irrelevant next to
// losing the per-agent heap indirection.
#[allow(clippy::large_enum_variant)]
pub enum BehaviorSlot {
    /// An `EXPLO(N)` walker: runs the exploration once, then declares.
    Explo(WalkerBehavior<Explo>),
    /// A `TZ(λ)` rendezvous walker run for a fixed number of rounds, then
    /// declaring.
    Tz(WalkerBehavior<RunFor<Tz>>),
    /// Algorithm 3, [`GatherKnownUpperBound`], silent or talking; declares
    /// the elected leader.
    KnownGather(WalkerBehavior<GatherKnownUpperBound>),
    /// Algorithm 12, gather-then-gossip; the full [`GossipReport`] lands
    /// in a sink.
    Gossip(SinkBehavior<GossipKnownUpperBound>),
    /// Algorithm 5, the unknown-bound hypothesis machine; the full
    /// [`UnknownReport`] lands in a sink. The machine itself is boxed: it
    /// is by far the largest built-in (a live [`crate::unknown::Hypothesis`]
    /// inline), it runs on the exponential feasibility path where one
    /// setup allocation is irrelevant, and keeping it out of line keeps
    /// the enum small for the behaviors that run millions of rounds.
    UnknownGather(SinkBehavior<Box<GatherUnknownUpperBound>>),
    /// Zero-knowledge gossip; the full
    /// [`crate::gossip::UnknownGossipReport`] lands in a sink. Boxed for
    /// the same reason as [`BehaviorSlot::UnknownGather`].
    UnknownGossip(SinkBehavior<Box<GossipUnknownUpperBound>>),
    /// The boxed escape hatch for user-defined [`AgentBehavior`]s.
    Custom(Box<dyn AgentBehavior>),
}

impl BehaviorSlot {
    /// An `EXPLO(N)` walker driven by `uxs`; declares bare on completion.
    pub fn explo(uxs: Arc<Uxs>) -> Self {
        BehaviorSlot::Explo(ProcBehavior::mapping(Explo::new(uxs), declare_bare_explo))
    }

    /// A `TZ(lambda)` walker run for exactly `rounds` rounds; declares
    /// bare afterwards.
    pub fn tz(lambda: u64, rounds: u64, uxs: Arc<Uxs>) -> Self {
        BehaviorSlot::Tz(ProcBehavior::mapping(
            RunFor::new(rounds, Tz::new(lambda, uxs)),
            declare_bare_tz,
        ))
    }

    /// The known-upper-bound gathering algorithm (Algorithm 3) in the
    /// given communication mode; declares the elected leader.
    pub fn known_gather(params: KnownParams, label: Label, mode: CommMode) -> Self {
        BehaviorSlot::KnownGather(
            GatherKnownUpperBound::with_mode(params, label, mode).into_behavior(),
        )
    }

    /// Gather-then-gossip (Algorithm 12); the report is written to `sink`
    /// and the declaration elects the gathered leader.
    pub fn gossip(proc_: GossipKnownUpperBound, sink: Arc<Mutex<Option<GossipReport>>>) -> Self {
        BehaviorSlot::Gossip(SinkBehavior::new(proc_, sink, declare_gossip))
    }

    /// The unknown-bound hypothesis machine (Algorithm 5); the report is
    /// written to `sink` and the declaration carries leader and size.
    pub fn unknown_gather(
        proc_: GatherUnknownUpperBound,
        sink: Arc<Mutex<Option<UnknownReport>>>,
    ) -> Self {
        BehaviorSlot::UnknownGather(SinkBehavior::new(Box::new(proc_), sink, declare_unknown))
    }

    /// Zero-knowledge gossip; the report is written to `sink` and the
    /// declaration carries the gathered leader and learned size.
    pub fn unknown_gossip(
        proc_: GossipUnknownUpperBound,
        sink: Arc<Mutex<Option<crate::gossip::UnknownGossipReport>>>,
    ) -> Self {
        BehaviorSlot::UnknownGossip(SinkBehavior::new(
            Box::new(proc_),
            sink,
            declare_unknown_gossip,
        ))
    }

    /// Wraps an arbitrary behavior (the boxed extension point).
    pub fn custom(behavior: Box<dyn AgentBehavior>) -> Self {
        BehaviorSlot::Custom(behavior)
    }
}

impl From<Box<dyn AgentBehavior>> for BehaviorSlot {
    fn from(behavior: Box<dyn AgentBehavior>) -> Self {
        BehaviorSlot::Custom(behavior)
    }
}

/// Enum dispatch over every slot, `min_wait`/`blind`/`note_skipped`
/// included: forwarding the wait promise verbatim is what lets the quiescence
/// fast-forward skip the built-in algorithms' long `CurCard`-watch phases
/// (which promise real horizons) exactly as it skips boxed behaviors.
impl AgentBehavior for BehaviorSlot {
    fn on_round(&mut self, obs: &Obs) -> AgentAct {
        match self {
            BehaviorSlot::Explo(b) => b.on_round(obs),
            BehaviorSlot::Tz(b) => b.on_round(obs),
            BehaviorSlot::KnownGather(b) => b.on_round(obs),
            BehaviorSlot::Gossip(b) => b.on_round(obs),
            BehaviorSlot::UnknownGather(b) => b.on_round(obs),
            BehaviorSlot::UnknownGossip(b) => b.on_round(obs),
            BehaviorSlot::Custom(b) => b.on_round(obs),
        }
    }

    fn min_wait(&self) -> u64 {
        match self {
            BehaviorSlot::Explo(b) => b.min_wait(),
            BehaviorSlot::Tz(b) => b.min_wait(),
            BehaviorSlot::KnownGather(b) => b.min_wait(),
            BehaviorSlot::Gossip(b) => b.min_wait(),
            BehaviorSlot::UnknownGather(b) => b.min_wait(),
            BehaviorSlot::UnknownGossip(b) => b.min_wait(),
            BehaviorSlot::Custom(b) => b.min_wait(),
        }
    }

    fn blind(&self) -> bool {
        match self {
            BehaviorSlot::Explo(b) => b.blind(),
            BehaviorSlot::Tz(b) => b.blind(),
            BehaviorSlot::KnownGather(b) => b.blind(),
            BehaviorSlot::Gossip(b) => b.blind(),
            BehaviorSlot::UnknownGather(b) => b.blind(),
            BehaviorSlot::UnknownGossip(b) => b.blind(),
            BehaviorSlot::Custom(b) => b.blind(),
        }
    }

    fn note_skipped(&mut self, rounds: u64) {
        match self {
            BehaviorSlot::Explo(b) => b.note_skipped(rounds),
            BehaviorSlot::Tz(b) => b.note_skipped(rounds),
            BehaviorSlot::KnownGather(b) => b.note_skipped(rounds),
            BehaviorSlot::Gossip(b) => b.note_skipped(rounds),
            BehaviorSlot::UnknownGather(b) => b.note_skipped(rounds),
            BehaviorSlot::UnknownGossip(b) => b.note_skipped(rounds),
            BehaviorSlot::Custom(b) => b.note_skipped(rounds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nochatter_graph::{generators, NodeId};
    use nochatter_sim::{Engine, WakeSchedule};

    #[test]
    fn explo_slot_walks_and_declares() {
        let g = generators::ring(5);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 3).unwrap());
        let duration = Explo::duration(&uxs);
        let mut engine: Engine<'_, _, BehaviorSlot> =
            Engine::with_parts(&g, &nochatter_sim::Static);
        engine.add_agent(
            Label::new(1).unwrap(),
            NodeId::new(0),
            BehaviorSlot::explo(Arc::clone(&uxs)),
        );
        engine.add_agent(
            Label::new(2).unwrap(),
            NodeId::new(2),
            BehaviorSlot::explo(uxs),
        );
        let outcome = engine.run(duration + 10).unwrap();
        assert!(outcome.all_declared());
        assert_eq!(outcome.total_moves, 2 * duration);
    }

    #[test]
    fn tz_slot_runs_for_the_exact_duration() {
        let g = generators::ring(6);
        let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 3).unwrap());
        let mut engine: Engine<'_, _, BehaviorSlot> =
            Engine::with_parts(&g, &nochatter_sim::Static);
        engine.add_agent(
            Label::new(5).unwrap(),
            NodeId::new(0),
            BehaviorSlot::tz(5, 64, Arc::clone(&uxs)),
        );
        engine.add_agent(
            Label::new(6).unwrap(),
            NodeId::new(3),
            BehaviorSlot::tz(6, 64, uxs),
        );
        let outcome = engine.run(1000).unwrap();
        assert!(outcome.all_declared());
        assert_eq!(outcome.rounds, 64, "RunFor pins the duration exactly");
    }

    #[test]
    fn custom_slot_delegates_to_the_boxed_behavior() {
        struct DeclareNow;
        impl AgentBehavior for DeclareNow {
            fn on_round(&mut self, _obs: &Obs) -> AgentAct {
                AgentAct::Declare(Declaration::bare())
            }
        }
        let g = generators::ring(4);
        let mut engine: Engine<'_, _, BehaviorSlot> =
            Engine::with_parts(&g, &nochatter_sim::Static);
        for (l, n) in [(1u64, 0u32), (2, 2)] {
            engine.add_agent(
                Label::new(l).unwrap(),
                NodeId::new(n),
                BehaviorSlot::custom(Box::new(DeclareNow)),
            );
        }
        engine.set_wake_schedule(WakeSchedule::Simultaneous);
        let outcome = engine.run(10).unwrap();
        assert!(outcome.all_declared());
        assert_eq!(outcome.rounds, 0);
    }
}
