//! The synchronous mobile-agent execution model of *Want to Gather? No Need
//! to Chatter!* (Bouchard, Dieudonné & Pelc, PODC 2020).
//!
//! This crate is the substrate on which every algorithm of the paper runs:
//!
//! * **Rounds.** Agents execute exactly one move instruction per round:
//!   `take port p` or `wait`. Moves are simultaneous; agents crossing the
//!   same edge in opposite directions do not notice each other.
//! * **Weak sensing.** In every round an agent observes only the degree of
//!   its node, the port by which it last entered it, and `CurCard` — the
//!   number of agents at its node. It cannot see labels of co-located
//!   agents, exchange messages, or mark nodes. A *traditional* sensing mode
//!   (co-located labels visible) exists solely for the talking-model
//!   baseline the paper compares against.
//! * **Adversarial wake-up.** The adversary wakes a subset of agents at
//!   chosen rounds; a dormant agent is woken by the first agent that visits
//!   its start node and starts executing in that round.
//! * **Termination.** Agents *declare* (gathering achieved, optionally with
//!   an elected leader and learned graph size); correctness requires all
//!   agents to declare in the same round at the same node, which
//!   [`RunOutcome::gathering`] validates.
//!
//! Algorithms are written as [`Procedure`]s — resumable state machines
//! polled once per round — composed with the combinators in [`proc`]. The
//! deterministic [`Engine`] executes them, with a sound *quiescence
//! fast-forward* that skips stretches of rounds in which provably no
//! observation can change (essential for the unknown-upper-bound algorithm,
//! whose schedule is dominated by enormous waiting periods).
//!
//! Agents live in a data-oriented arena: struct-of-arrays storage, an
//! explicit [`AgentPhase`] lifecycle state machine (`Dormant → Active ⇄
//! Blocked → Declared | Crashed`), and a behavior storage type parameter
//! whose default `Box<dyn AgentBehavior>` is the open extension point
//! (`nochatter_core`'s `BehaviorSlot` instantiates it with an enum so the
//! built-in algorithm stack runs unboxed). The optional [`FaultSpec`]
//! crash adversary kills agents mid-run: a crashed agent stops acting, but
//! its body keeps counting toward `CurCard` — under weak sensing the
//! survivors cannot tell a corpse from a waiting companion.
//!
//! # Example
//!
//! ```
//! use nochatter_graph::{generators, Label, NodeId, Port};
//! use nochatter_sim::{Engine, WakeSchedule};
//! use nochatter_sim::proc::{ProcBehavior, WaitRounds};
//!
//! // Two agents that just wait 10 rounds and then declare.
//! let g = generators::ring(4);
//! let mut engine = Engine::new(&g);
//! for (label, node) in [(1u64, 0u32), (2, 2)] {
//!     engine.add_agent(
//!         Label::new(label).unwrap(),
//!         NodeId::new(node),
//!         Box::new(ProcBehavior::declaring(WaitRounds::new(10))),
//!     );
//! }
//! engine.set_wake_schedule(WakeSchedule::Simultaneous);
//! let outcome = engine.run(1_000)?;
//! assert!(outcome.all_declared());
//! # Ok::<(), nochatter_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod behavior;
mod engine;
mod error;
mod fault;
mod obs;
mod outcome;
mod schedule;
mod trace;

pub mod proc;

pub use behavior::{AgentAct, AgentBehavior, Declaration};
pub use engine::{AgentPhase, Engine, EngineScratch, Sensing};
pub use error::SimError;
pub use fault::{CrashPoint, FaultError, FaultSpec, SEEDED_CRASH_HORIZON};
pub use obs::{Action, Obs, Poll};
pub use outcome::{DeclarationRecord, GatheringReport, RunOutcome, RunStatus, ValidationError};
pub use proc::Procedure;
pub use schedule::{ScheduleError, WakeSchedule};
pub use trace::{Trace, TraceEvent};

// The engine is generic over the round-varying topology abstraction of
// `nochatter_graph::dynamic`; re-export the names engine users need.
// `ScriptedRing` rides along as the explicit choice-list edge adversary —
// the per-round analogue of `FaultSpec::CrashAt` on the crash axis.
pub use nochatter_graph::dynamic::{
    ScriptedRing, SpecView, Static, Topology, TopologySpec, TopologyView,
};
