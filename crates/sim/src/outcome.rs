//! Run outcomes and gathering validation.

use std::error::Error;
use std::fmt;

use nochatter_graph::{Label, NodeId};

use crate::trace::Trace;

/// What an agent announces when it terminates: the output of the
/// procedure the engine runs for it.
///
/// The gathering algorithms elect a leader as a by-product (Theorems 3.1 and
/// 4.1); the unknown-bound algorithm additionally learns the exact graph
/// size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Declaration {
    /// The elected leader's label, if the algorithm elects one.
    pub leader: Option<Label>,
    /// The learned graph size, if the algorithm learns it.
    pub size: Option<u32>,
}

impl Declaration {
    /// A bare "gathering achieved" declaration.
    pub fn bare() -> Self {
        Declaration {
            leader: None,
            size: None,
        }
    }

    /// A declaration electing `leader`.
    pub fn with_leader(leader: Label) -> Self {
        Declaration {
            leader: Some(leader),
            size: None,
        }
    }
}

/// An agent's terminal declaration, with where and when it was made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeclarationRecord {
    /// The round of the declaration.
    pub round: u64,
    /// The node at which the agent declared.
    pub node: NodeId,
    /// The declared content.
    pub declaration: Declaration,
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Every agent declared.
    AllDeclared,
    /// Every agent reached a terminal phase, but at least one crashed
    /// instead of declaring (crash-fault runs only) — nothing could change
    /// anymore, so the engine halted early.
    Halted,
    /// The round limit was hit first.
    RoundLimit,
}

/// Everything measured about one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// How the run ended.
    pub status: RunStatus,
    /// The round of the last declaration (or the round limit). Time is
    /// measured from the wake-up of the earliest agent, as in the paper.
    pub rounds: u64,
    /// Per agent (in insertion order): its label and its declaration if any.
    pub declarations: Vec<(Label, Option<DeclarationRecord>)>,
    /// Agents crashed by the fault adversary, in insertion order (empty
    /// under `FaultSpec::None`). A crashed agent never declares, but its
    /// body keeps counting toward `CurCard` for the rest of the run.
    pub crashed_agents: Vec<Label>,
    /// Total edge traversals performed by all agents.
    pub total_moves: u64,
    /// Move attempts that hit an edge absent in their round (round-varying
    /// topologies only; always 0 on a static topology). Blocked attempts
    /// are not counted in [`RunOutcome::total_moves`].
    pub blocked_moves: u64,
    /// Rounds actually executed by the engine loop (excluding fast-forwarded
    /// ones); a cost metric for the simulator itself.
    pub engine_iterations: u64,
    /// Rounds skipped by the quiescence fast-forward.
    pub skipped_rounds: u64,
    /// Agent polls, the round loop's per-round cost denominator: one per
    /// executing agent that is due in an executed round, while the others
    /// sit inside their wait promises (see
    /// [`crate::Procedure::quiet_until`]). Of a held instruction
    /// ([`crate::Action::Hold`]), a round inside a move's wait that the
    /// agent is due in counts although the engine answers it without
    /// reaching the procedure; the rounds the engine makes a move in or
    /// steps a walk in cost none. An
    /// execution fact, not a model fact — it moves whenever the engine's
    /// execution strategy does — so it is excluded from the deterministic
    /// lab reports and surfaced as a campaign-level trajectory aggregate
    /// instead.
    pub polled_agent_rounds: u64,
    /// The largest number of co-located agents ever observed.
    pub max_colocation: u32,
    /// The trace handed to [`crate::Engine::set_trace`], with the run's
    /// events recorded: stored ones readable through [`Trace::events`],
    /// or folded into [`Trace::digest`] only for a
    /// [`Trace::digest_only`] trace. `None` if tracing was not enabled.
    pub trace: Option<Trace>,
}

impl RunOutcome {
    /// True if every agent declared.
    pub fn all_declared(&self) -> bool {
        self.status == RunStatus::AllDeclared
    }

    /// Validates the paper's gathering requirements: every agent declared,
    /// all in the same round, at the same node, with consistent leader and
    /// size claims, and (if elected) a leader belonging to the team.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    pub fn gathering(&self) -> Result<GatheringReport, ValidationError> {
        let mut records = Vec::with_capacity(self.declarations.len());
        for (label, rec) in &self.declarations {
            match rec {
                Some(r) => records.push((*label, *r)),
                None => return Err(ValidationError::NotAllDeclared { agent: *label }),
            }
        }
        self.validate_records(&records)
    }

    /// [`RunOutcome::gathering`] restricted to the agents that did *not*
    /// crash: every surviving agent must have declared, consistently. The
    /// crash-fault experiments' success criterion — a crashed agent can
    /// never declare, so full validation is unsatisfiable the moment the
    /// adversary acts, but the survivors' agreement is still the paper's
    /// gathering property. The elected leader may be any team member,
    /// crashed or not (a label learned before the crash is still a valid
    /// election). With no crashes this is exactly [`RunOutcome::gathering`].
    ///
    /// # Errors
    ///
    /// [`ValidationError::NoSurvivors`] if every agent crashed; otherwise
    /// the first violated requirement among the survivors.
    pub fn gathering_surviving(&self) -> Result<GatheringReport, ValidationError> {
        let mut records = Vec::with_capacity(self.declarations.len());
        for (label, rec) in &self.declarations {
            if self.crashed_agents.contains(label) {
                continue;
            }
            match rec {
                Some(r) => records.push((*label, *r)),
                None => return Err(ValidationError::NotAllDeclared { agent: *label }),
            }
        }
        if records.is_empty() {
            return Err(ValidationError::NoSurvivors);
        }
        self.validate_records(&records)
    }

    /// The shared consistency check behind both validators: same round,
    /// same node, same leader and size claims, leader in the team. The
    /// team for the leader check is the full declaration list (crashed
    /// members included), not just `records`.
    fn validate_records(
        &self,
        records: &[(Label, DeclarationRecord)],
    ) -> Result<GatheringReport, ValidationError> {
        let (first_label, first) = records[0];
        for &(label, r) in &records[1..] {
            if r.round != first.round {
                return Err(ValidationError::DifferentRounds {
                    a: first_label,
                    b: label,
                });
            }
            if r.node != first.node {
                return Err(ValidationError::DifferentNodes {
                    a: first_label,
                    b: label,
                });
            }
            if r.declaration.leader != first.declaration.leader {
                return Err(ValidationError::DifferentLeaders {
                    a: first_label,
                    b: label,
                });
            }
            if r.declaration.size != first.declaration.size {
                return Err(ValidationError::DifferentSizes {
                    a: first_label,
                    b: label,
                });
            }
        }
        if let Some(leader) = first.declaration.leader {
            if !self.declarations.iter().any(|&(l, _)| l == leader) {
                return Err(ValidationError::LeaderNotInTeam { leader });
            }
        }
        Ok(GatheringReport {
            round: first.round,
            node: first.node,
            leader: first.declaration.leader,
            size: first.declaration.size,
        })
    }
}

/// A validated successful gathering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatheringReport {
    /// The common declaration round.
    pub round: u64,
    /// The common gathering node.
    pub node: NodeId,
    /// The commonly elected leader, if any.
    pub leader: Option<Label>,
    /// The commonly learned size, if any.
    pub size: Option<u32>,
}

/// A violated gathering requirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidationError {
    /// Some agent never declared.
    NotAllDeclared {
        /// The silent agent.
        agent: Label,
    },
    /// Two agents declared in different rounds.
    DifferentRounds {
        /// First agent.
        a: Label,
        /// Second agent.
        b: Label,
    },
    /// Two agents declared at different nodes.
    DifferentNodes {
        /// First agent.
        a: Label,
        /// Second agent.
        b: Label,
    },
    /// Two agents elected different leaders.
    DifferentLeaders {
        /// First agent.
        a: Label,
        /// Second agent.
        b: Label,
    },
    /// Two agents learned different sizes.
    DifferentSizes {
        /// First agent.
        a: Label,
        /// Second agent.
        b: Label,
    },
    /// The elected leader is not a team member.
    LeaderNotInTeam {
        /// The phantom leader.
        leader: Label,
    },
    /// Every agent crashed — there is no surviving gathering to validate
    /// (only [`RunOutcome::gathering_surviving`] reports this).
    NoSurvivors,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NotAllDeclared { agent } => {
                write!(f, "agent {agent} never declared")
            }
            ValidationError::DifferentRounds { a, b } => {
                write!(f, "agents {a} and {b} declared in different rounds")
            }
            ValidationError::DifferentNodes { a, b } => {
                write!(f, "agents {a} and {b} declared at different nodes")
            }
            ValidationError::DifferentLeaders { a, b } => {
                write!(f, "agents {a} and {b} elected different leaders")
            }
            ValidationError::DifferentSizes { a, b } => {
                write!(f, "agents {a} and {b} learned different sizes")
            }
            ValidationError::LeaderNotInTeam { leader } => {
                write!(f, "elected leader {leader} is not a team member")
            }
            ValidationError::NoSurvivors => {
                write!(f, "every agent crashed; no survivors to validate")
            }
        }
    }
}

impl Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    fn record(round: u64, node: u32, leader: Option<u64>) -> DeclarationRecord {
        DeclarationRecord {
            round,
            node: NodeId::new(node),
            declaration: Declaration {
                leader: leader.map(|l| Label::new(l).unwrap()),
                size: None,
            },
        }
    }

    fn outcome(declarations: Vec<(Label, Option<DeclarationRecord>)>) -> RunOutcome {
        RunOutcome {
            status: if declarations.iter().all(|(_, d)| d.is_some()) {
                RunStatus::AllDeclared
            } else {
                RunStatus::RoundLimit
            },
            rounds: 10,
            declarations,
            crashed_agents: Vec::new(),
            total_moves: 0,
            blocked_moves: 0,
            engine_iterations: 0,
            skipped_rounds: 0,
            polled_agent_rounds: 0,
            max_colocation: 2,
            trace: None,
        }
    }

    #[test]
    fn accepts_consistent_gathering() {
        let o = outcome(vec![
            (label(1), Some(record(9, 2, Some(1)))),
            (label(4), Some(record(9, 2, Some(1)))),
        ]);
        let report = o.gathering().unwrap();
        assert_eq!(report.round, 9);
        assert_eq!(report.node, NodeId::new(2));
        assert_eq!(report.leader, Some(label(1)));
    }

    #[test]
    fn rejects_missing_declaration() {
        let o = outcome(vec![(label(1), Some(record(9, 2, None))), (label(4), None)]);
        assert!(matches!(
            o.gathering(),
            Err(ValidationError::NotAllDeclared { .. })
        ));
    }

    #[test]
    fn rejects_different_rounds_nodes_leaders() {
        let o = outcome(vec![
            (label(1), Some(record(9, 2, Some(1)))),
            (label(4), Some(record(8, 2, Some(1)))),
        ]);
        assert!(matches!(
            o.gathering(),
            Err(ValidationError::DifferentRounds { .. })
        ));
        let o = outcome(vec![
            (label(1), Some(record(9, 2, Some(1)))),
            (label(4), Some(record(9, 3, Some(1)))),
        ]);
        assert!(matches!(
            o.gathering(),
            Err(ValidationError::DifferentNodes { .. })
        ));
        let o = outcome(vec![
            (label(1), Some(record(9, 2, Some(1)))),
            (label(4), Some(record(9, 2, Some(4)))),
        ]);
        assert!(matches!(
            o.gathering(),
            Err(ValidationError::DifferentLeaders { .. })
        ));
    }

    #[test]
    fn surviving_validation_skips_crashed_agents() {
        // Agent 4 crashed and never declared: full validation fails, the
        // surviving validation accepts the singleton gathering — and a
        // leader that happens to be the crashed agent is still in-team.
        let mut o = outcome(vec![
            (label(1), Some(record(9, 2, Some(4)))),
            (label(4), None),
        ]);
        o.crashed_agents = vec![label(4)];
        assert!(matches!(
            o.gathering(),
            Err(ValidationError::NotAllDeclared { .. })
        ));
        let report = o.gathering_surviving().unwrap();
        assert_eq!(report.leader, Some(label(4)));
        // A surviving agent that never declared still fails.
        let mut o = outcome(vec![
            (label(1), Some(record(9, 2, None))),
            (label(4), None),
            (label(6), None),
        ]);
        o.crashed_agents = vec![label(4)];
        assert!(matches!(
            o.gathering_surviving(),
            Err(ValidationError::NotAllDeclared { agent }) if agent == label(6)
        ));
        // Everyone crashed: no survivors.
        let mut o = outcome(vec![(label(1), None), (label(4), None)]);
        o.crashed_agents = vec![label(1), label(4)];
        assert!(matches!(
            o.gathering_surviving(),
            Err(ValidationError::NoSurvivors)
        ));
    }

    #[test]
    fn rejects_phantom_leader() {
        let o = outcome(vec![
            (label(1), Some(record(9, 2, Some(7)))),
            (label(4), Some(record(9, 2, Some(7)))),
        ]);
        assert!(matches!(
            o.gathering(),
            Err(ValidationError::LeaderNotInTeam { .. })
        ));
    }
}
