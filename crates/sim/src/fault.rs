//! The crash-fault adversary: agents that stop acting mid-run.
//!
//! The adversarial-model literature around the source paper (Di Luna et
//! al., *Gathering in Dynamic Rings*) treats agent *death* as a core
//! robustness question, the natural sibling of the dynamic-edge adversary:
//! an agent that crashes stops executing its algorithm forever, but its
//! body stays where it fell. Under the paper's weak sensing model that is
//! the interesting, honest semantics — a crashed body keeps counting
//! toward `CurCard`, so survivors cannot distinguish it from a waiting
//! agent.
//!
//! A [`FaultSpec`] resolves, *before the run starts*, into one crash round
//! per agent ([`FaultSpec::crash_rounds`]). Crash presence is therefore a
//! pure function of the round number — exactly the contract the
//! round-varying topologies obey — which is what keeps the engine's
//! quiescence fast-forward sound: a skip is simply capped at the next
//! pending crash round.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use nochatter_graph::rng::derive_seed;
use nochatter_graph::Label;

/// Salt separating per-agent crash derivation from other consumers of a
/// fault seed.
const SALT_CRASH: u64 = 0xC4A5;

/// [`FaultSpec::SeededCrash`] stops flipping coins after this many rounds:
/// an agent that survives the first `2^16` rounds never crashes. The cap
/// bounds the setup-time resolution scan; every campaign workload this
/// repository runs gathers well inside it.
pub const SEEDED_CRASH_HORIZON: u64 = 1 << 16;

/// One scheduled crash of a [`FaultSpec::CrashAt`] list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// The agent to crash.
    pub label: Label,
    /// The round from which it no longer acts (its body stays put and
    /// keeps counting toward `CurCard`).
    pub round: u64,
}

/// The crash-fault adversary of one run.
///
/// Mirrors the design of [`nochatter_graph::dynamic::TopologySpec`]: a
/// plain-data description that the engine resolves deterministically, so a
/// faulty scenario is reproducible bit for bit and a fault-free one
/// ([`FaultSpec::None`]) costs nothing on the hot path.
#[derive(Clone, Debug, PartialEq, Default)]
#[non_exhaustive]
pub enum FaultSpec {
    /// No crashes — the paper's model, and the default.
    #[default]
    None,
    /// Crash the named agents at the named rounds (each label at most
    /// once). The deterministic axis for differential experiments: "the
    /// same cell, minus agent 5 from round 256 on".
    CrashAt(Vec<CrashPoint>),
    /// Every agent independently flips a seeded coin each round and
    /// crashes on the first success — a per-round crash probability `p`,
    /// realized exactly like the seeded edge-failure topology (an integer
    /// threshold on a hash of `(seed, label, round)`, no floating-point
    /// state). At most `max_crashes` agents actually crash: the earliest
    /// tentative crash rounds win, ties broken by agent order. Coins stop
    /// after [`SEEDED_CRASH_HORIZON`] rounds.
    SeededCrash {
        /// Per-round crash probability, clamped to `[0, 1]`.
        p: f64,
        /// The adversary's seed (part of the scenario's identity).
        seed: u64,
        /// Upper bound on how many agents crash (`0` disables the axis).
        max_crashes: u32,
    },
}

/// Why a [`FaultSpec`] is malformed for a given team.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// A [`FaultSpec::CrashAt`] entry names a label that is not in the
    /// team.
    UnknownCrashTarget {
        /// The phantom label.
        label: Label,
    },
    /// A [`FaultSpec::CrashAt`] list names the same label twice.
    DuplicateCrashTarget {
        /// The doubly-crashed label.
        label: Label,
    },
    /// A [`FaultSpec::SeededCrash`] probability is not a finite number in
    /// `[0, 1]`.
    BadProbability,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::UnknownCrashTarget { label } => {
                write!(f, "crash target {label} is not in the team")
            }
            FaultError::DuplicateCrashTarget { label } => {
                write!(f, "label {label} is listed to crash twice")
            }
            FaultError::BadProbability => {
                write!(f, "crash probability must be a finite number in [0, 1]")
            }
        }
    }
}

impl Error for FaultError {}

impl FaultSpec {
    /// True for the fault-free adversary (the paper's model).
    pub fn is_none(&self) -> bool {
        matches!(self, FaultSpec::None)
    }

    /// The short name used in scenario keys and reports: `"none"`,
    /// `"crash<label>@<round>[+...]"` or `"sc<permille>@<seed>x<max>"`.
    pub fn short_name(&self) -> String {
        match self {
            FaultSpec::None => "none".into(),
            FaultSpec::CrashAt(points) => {
                let mut name = String::from("crash");
                for (i, c) in points.iter().enumerate() {
                    if i > 0 {
                        name.push('+');
                    }
                    let _ = write!(name, "{}@{}", c.label, c.round);
                }
                name
            }
            FaultSpec::SeededCrash {
                p,
                seed,
                max_crashes,
            } => format!(
                "sc{}@{seed}x{max_crashes}",
                (p.clamp(0.0, 1.0) * 1000.0).round() as u64
            ),
        }
    }

    /// Whether the spec can run over a team with these labels (a
    /// [`FaultSpec::CrashAt`] must only name team members). Matrix
    /// expansion uses this to skip incompatible cells, mirroring
    /// `TopologySpec::compatible_with`.
    pub fn compatible_with(&self, labels: &[Label]) -> bool {
        match self {
            FaultSpec::CrashAt(points) => points.iter().all(|c| labels.contains(&c.label)),
            _ => true,
        }
    }

    /// Resolves the spec into one crash round per agent of `labels` (in
    /// the given agent order; `u64::MAX` = never crashes). An agent does
    /// not act in its crash round or any later round.
    ///
    /// This is the entire adversary: a pure function of the spec and the
    /// team, computed once before the run, which is what keeps crash
    /// presence a pure function of the round number (and the engine's
    /// quiescence fast-forward sound). Tests replay traces against it.
    ///
    /// # Errors
    ///
    /// See [`FaultError`].
    pub fn crash_rounds(&self, labels: &[Label]) -> Result<Vec<u64>, FaultError> {
        match self {
            FaultSpec::None => Ok(vec![u64::MAX; labels.len()]),
            FaultSpec::CrashAt(points) => {
                let mut rounds = vec![u64::MAX; labels.len()];
                for c in points {
                    let i = labels
                        .iter()
                        .position(|&l| l == c.label)
                        .ok_or(FaultError::UnknownCrashTarget { label: c.label })?;
                    if rounds[i] != u64::MAX {
                        return Err(FaultError::DuplicateCrashTarget { label: c.label });
                    }
                    rounds[i] = c.round;
                }
                Ok(rounds)
            }
            FaultSpec::SeededCrash {
                p,
                seed,
                max_crashes,
            } => {
                if !p.is_finite() || *p < 0.0 || *p > 1.0 {
                    return Err(FaultError::BadProbability);
                }
                // The same integer-threshold trick the seeded edge-failure
                // topology uses: the per-round coin for (agent, round) is
                // `hash(seed, label, round) < p * 2^64`.
                let threshold = (*p * u64::MAX as f64) as u64;
                let mut tentative: Vec<(u64, usize)> = Vec::new();
                for (i, label) in labels.iter().enumerate() {
                    if let Some(round) = (0..SEEDED_CRASH_HORIZON).find(|&round| {
                        derive_seed(*seed, &[SALT_CRASH, label.value(), round]) < threshold
                    }) {
                        tentative.push((round, i));
                    }
                }
                // The earliest `max_crashes` tentative crashes win; ties
                // break by agent order (the sort key's second component).
                tentative.sort_unstable();
                let mut rounds = vec![u64::MAX; labels.len()];
                for &(round, i) in tentative.iter().take(*max_crashes as usize) {
                    rounds[i] = round;
                }
                Ok(rounds)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(v: u64) -> Label {
        Label::new(v).unwrap()
    }

    fn team(vs: &[u64]) -> Vec<Label> {
        vs.iter().map(|&v| label(v)).collect()
    }

    #[test]
    fn none_never_crashes() {
        assert!(FaultSpec::None.is_none());
        assert_eq!(
            FaultSpec::None.crash_rounds(&team(&[2, 3])),
            Ok(vec![u64::MAX; 2])
        );
    }

    #[test]
    fn crash_at_resolves_by_label() {
        let spec = FaultSpec::CrashAt(vec![CrashPoint {
            label: label(5),
            round: 64,
        }]);
        assert_eq!(
            spec.crash_rounds(&team(&[3, 5, 9])),
            Ok(vec![u64::MAX, 64, u64::MAX])
        );
        assert!(spec.compatible_with(&team(&[3, 5, 9])));
        assert!(!spec.compatible_with(&team(&[2, 3])));
    }

    #[test]
    fn crash_at_rejects_phantoms_and_duplicates() {
        let phantom = FaultSpec::CrashAt(vec![CrashPoint {
            label: label(7),
            round: 1,
        }]);
        assert_eq!(
            phantom.crash_rounds(&team(&[2, 3])),
            Err(FaultError::UnknownCrashTarget { label: label(7) })
        );
        let dup = FaultSpec::CrashAt(vec![
            CrashPoint {
                label: label(2),
                round: 1,
            },
            CrashPoint {
                label: label(2),
                round: 9,
            },
        ]);
        assert_eq!(
            dup.crash_rounds(&team(&[2, 3])),
            Err(FaultError::DuplicateCrashTarget { label: label(2) })
        );
    }

    #[test]
    fn seeded_crash_is_deterministic_and_capped() {
        let spec = FaultSpec::SeededCrash {
            p: 0.2,
            seed: 9,
            max_crashes: 1,
        };
        let a = spec.crash_rounds(&team(&[2, 3, 9])).unwrap();
        let b = spec.crash_rounds(&team(&[2, 3, 9])).unwrap();
        assert_eq!(a, b, "resolution must be deterministic");
        let crashed = a.iter().filter(|&&r| r != u64::MAX).count();
        assert_eq!(crashed, 1, "max_crashes caps the adversary");
    }

    #[test]
    fn seeded_crash_p_one_kills_at_round_zero() {
        let spec = FaultSpec::SeededCrash {
            p: 1.0,
            seed: 1,
            max_crashes: 8,
        };
        assert_eq!(spec.crash_rounds(&team(&[2, 3])), Ok(vec![0, 0]));
    }

    #[test]
    fn seeded_crash_p_zero_spares_everyone() {
        let spec = FaultSpec::SeededCrash {
            p: 0.0,
            seed: 1,
            max_crashes: 8,
        };
        assert_eq!(
            spec.crash_rounds(&team(&[2, 3])),
            Ok(vec![u64::MAX, u64::MAX])
        );
    }

    #[test]
    fn bad_probability_is_rejected() {
        for p in [f64::NAN, -0.1, 1.5] {
            let spec = FaultSpec::SeededCrash {
                p,
                seed: 1,
                max_crashes: 1,
            };
            assert_eq!(
                spec.crash_rounds(&team(&[2, 3])),
                Err(FaultError::BadProbability)
            );
        }
    }

    #[test]
    fn short_names_are_stable() {
        assert_eq!(FaultSpec::None.short_name(), "none");
        let spec = FaultSpec::CrashAt(vec![
            CrashPoint {
                label: label(3),
                round: 64,
            },
            CrashPoint {
                label: label(5),
                round: 256,
            },
        ]);
        assert_eq!(spec.short_name(), "crash3@64+5@256");
        let three = FaultSpec::CrashAt(vec![
            CrashPoint {
                label: label(9),
                round: 0,
            },
            CrashPoint {
                label: label(3),
                round: u64::MAX - 1,
            },
            CrashPoint {
                label: label(12),
                round: 7,
            },
        ]);
        assert_eq!(three.short_name(), "crash9@0+3@18446744073709551614+12@7");
        assert_eq!(
            FaultSpec::SeededCrash {
                p: 0.05,
                seed: 9,
                max_crashes: 2
            }
            .short_name(),
            "sc50@9x2"
        );
    }
}
