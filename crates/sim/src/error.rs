//! Simulation errors.

use std::error::Error;
use std::fmt;

use nochatter_graph::{Label, NodeId, Port};

use crate::fault::FaultError;
use crate::schedule::ScheduleError;

/// A protocol violation or setup error detected by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// No agents were added before `run`.
    NoAgents,
    /// Two agents were placed on the same start node (forbidden by the
    /// model).
    SharedStart {
        /// The contested node.
        node: NodeId,
    },
    /// Two agents carry the same label (forbidden by the model).
    DuplicateLabel {
        /// The duplicated label.
        label: Label,
    },
    /// An agent start node is not in the graph.
    StartOutOfRange {
        /// The offending node.
        node: NodeId,
    },
    /// An agent asked for a port that does not exist at its node — a bug
    /// in the algorithm under test, surfaced loudly.
    InvalidPort {
        /// The offending agent's label.
        agent: Label,
        /// Where it happened.
        node: NodeId,
        /// The nonexistent port.
        port: Port,
        /// The round of the attempt.
        round: u64,
    },
    /// The wake schedule is malformed for the team (no wake at round 0 —
    /// time is measured from the first wake-up — or the wrong length).
    BadWakeSchedule {
        /// The specific malformation.
        reason: ScheduleError,
    },
    /// The crash-fault spec is malformed for the team (a crash target
    /// outside the team, a doubly-crashed label, or a bad probability).
    BadFaultSpec {
        /// The specific malformation.
        reason: FaultError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoAgents => write!(f, "no agents added to the engine"),
            SimError::SharedStart { node } => {
                write!(f, "two agents share start node {node}")
            }
            SimError::DuplicateLabel { label } => {
                write!(f, "two agents share label {label}")
            }
            SimError::StartOutOfRange { node } => {
                write!(f, "start node {node} is not in the graph")
            }
            SimError::InvalidPort {
                agent,
                node,
                port,
                round,
            } => write!(
                f,
                "agent {agent} took nonexistent port {port} at {node} in round {round}"
            ),
            SimError::BadWakeSchedule { reason } => {
                write!(f, "bad wake schedule: {reason}")
            }
            SimError::BadFaultSpec { reason } => {
                write!(f, "bad fault spec: {reason}")
            }
        }
    }
}

impl Error for SimError {}
