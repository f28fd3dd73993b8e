//! Execution traces for debugging and assertions, and the FNV-1a trace
//! digest the determinism pins compare.

use nochatter_graph::{Label, NodeId, Port};

use crate::outcome::Declaration;

/// One observable event in a run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// An agent woke up (by the adversary or by being visited).
    Wake {
        /// The agent.
        agent: Label,
        /// The round of wake-up.
        round: u64,
        /// True if woken by a visiting agent rather than the adversary.
        by_visit: bool,
    },
    /// An agent traversed an edge.
    Move {
        /// The agent.
        agent: Label,
        /// The round of the move.
        round: u64,
        /// Node left.
        from: NodeId,
        /// Node entered (occupied from the next round).
        to: NodeId,
        /// The port taken at `from`.
        port: Port,
    },
    /// An agent's move attempt hit an edge absent in that round
    /// (round-varying topologies only); it stayed put.
    Blocked {
        /// The agent.
        agent: Label,
        /// The round of the attempt.
        round: u64,
        /// Where the agent stayed.
        node: NodeId,
        /// The port whose edge was absent.
        port: Port,
    },
    /// An agent was crashed by the fault adversary: it stops acting from
    /// this round on, but its body stays at the node and keeps counting
    /// toward `CurCard`.
    Crashed {
        /// The agent.
        agent: Label,
        /// The round from which it no longer acts.
        round: u64,
        /// Where its body remains.
        node: NodeId,
    },
    /// An agent declared that gathering is achieved.
    Declare {
        /// The agent.
        agent: Label,
        /// The round of the declaration.
        round: u64,
        /// Where it declared.
        node: NodeId,
        /// What it declared.
        declaration: Declaration,
    },
}

impl TraceEvent {
    /// The round the event happened in.
    pub fn round(&self) -> u64 {
        match self {
            TraceEvent::Wake { round, .. }
            | TraceEvent::Move { round, .. }
            | TraceEvent::Blocked { round, .. }
            | TraceEvent::Crashed { round, .. }
            | TraceEvent::Declare { round, .. } => *round,
        }
    }
}

/// A bounded event recorder, and the one owner of the trace digest's
/// FNV-1a event encoding.
///
/// The first `capacity` events are recorded; later ones are only counted
/// in [`Trace::dropped`] (runs can be astronomically long; traces are a
/// debugging aid, not an archive). Two kinds of trace record the same
/// events and digest them identically:
///
/// * [`Trace::with_capacity`] stores the events, for callers that read
///   them back through [`Trace::events`];
/// * [`Trace::digest_only`] folds each event into a running FNV-1a hash
///   as the engine emits it and stores nothing, so a run that wants only
///   [`Trace::digest`] allocates no event buffer.
#[derive(Clone, Debug)]
pub struct Trace {
    sink: Sink,
    capacity: usize,
    dropped: u64,
}

/// Where a [`Trace`] puts the events it records.
#[derive(Clone, Debug)]
enum Sink {
    /// Every recorded event, in order.
    Events(Vec<TraceEvent>),
    /// The FNV-1a hash of the recorded events so far, and their count.
    Digest { hash: u64, folded: usize },
}

impl Trace {
    /// A trace that stores at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            sink: Sink::Events(Vec::new()),
            capacity,
            dropped: 0,
        }
    }

    /// A trace that folds at most `capacity` events into its digest as
    /// they happen and stores none: [`Trace::events`] stays empty, while
    /// [`Trace::digest`] and [`Trace::dropped`] equal those of a
    /// [`Trace::with_capacity`] trace of the same run.
    pub fn digest_only(capacity: usize) -> Self {
        Trace {
            sink: Sink::Digest {
                hash: FNV_OFFSET,
                folded: 0,
            },
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        match &mut self.sink {
            Sink::Events(events) if events.len() < self.capacity => events.push(event),
            Sink::Digest { hash, folded } if *folded < self.capacity => {
                fold_event(hash, &event);
                *folded += 1;
            }
            _ => self.dropped += 1,
        }
    }

    /// The stored events, in order (always empty for a
    /// [`Trace::digest_only`] trace).
    pub fn events(&self) -> &[TraceEvent] {
        match &self.sink {
            Sink::Events(events) => events,
            Sink::Digest { .. } => &[],
        }
    }

    /// How many events were discarded after the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// A 64-bit FNV-1a digest of the recorded events.
    ///
    /// Two runs with the same digest made the same wake-ups, moves,
    /// blocked moves, crashes and declarations in the same rounds — the
    /// differential and determinism suites compare digests instead of
    /// hauling whole traces around. Each event is its tag (Wake 1, Move 2,
    /// Declare 3, Blocked 4, Crashed 5) followed by every field as a
    /// little-endian `u64`; the dropped-event count comes last, so a
    /// truncated trace still digests deterministically.
    pub fn digest(&self) -> u64 {
        let mut hash = match &self.sink {
            Sink::Events(events) => {
                let mut hash = FNV_OFFSET;
                for event in events {
                    fold_event(&mut hash, event);
                }
                hash
            }
            Sink::Digest { hash, .. } => *hash,
        };
        fnv_u64(&mut hash, self.dropped);
        hash
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `ZERO_RUN[m]` is `FNV_PRIME^m`: folding `m` zero bytes into an FNV-1a
/// hash is one multiply by it, because `(h ^ 0) * P == h * P`, and so is
/// folding one byte followed by `m - 1` zero bytes, after the xor.
const ZERO_RUN: [u64; 9] = {
    let mut table = [1u64; 9];
    let mut m = 1;
    while m < table.len() {
        table[m] = table[m - 1].wrapping_mul(FNV_PRIME);
        m += 1;
    }
    table
};

/// Folds the 8 little-endian bytes of `value` into `hash`. The zero bytes
/// above the highest non-zero one cost no multiply of their own: their
/// run is folded into that byte's multiply. A value below 256 (labels,
/// nodes, ports and tags mostly are) is one xor and one multiply, with no
/// loop; a longer one hashes its lower bytes one by one first.
#[inline]
fn fnv_u64(hash: &mut u64, value: u64) {
    if value < 0x100 {
        *hash = (*hash ^ value).wrapping_mul(ZERO_RUN[8]);
        return;
    }
    let len = 8 - (value.leading_zeros() / 8) as usize;
    let bytes = value.to_le_bytes();
    let mut h = *hash;
    for &byte in &bytes[..len - 1] {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    *hash = (h ^ u64::from(bytes[len - 1])).wrapping_mul(ZERO_RUN[9 - len]);
}

/// The digest encoding of one event (see [`Trace::digest`]).
#[inline]
fn fold_event(hash: &mut u64, event: &TraceEvent) {
    match *event {
        TraceEvent::Wake {
            agent,
            round,
            by_visit,
        } => {
            fnv_u64(hash, 1);
            fnv_u64(hash, agent.value());
            fnv_u64(hash, round);
            fnv_u64(hash, u64::from(by_visit));
        }
        TraceEvent::Move {
            agent,
            round,
            from,
            to,
            port,
        } => {
            fnv_u64(hash, 2);
            fnv_u64(hash, agent.value());
            fnv_u64(hash, round);
            fnv_u64(hash, from.index() as u64);
            fnv_u64(hash, to.index() as u64);
            fnv_u64(hash, port.index() as u64);
        }
        TraceEvent::Declare {
            agent,
            round,
            node,
            declaration,
        } => {
            fnv_u64(hash, 3);
            fnv_u64(hash, agent.value());
            fnv_u64(hash, round);
            fnv_u64(hash, node.index() as u64);
            fnv_u64(hash, declaration.leader.map_or(0, |l| l.value()));
            fnv_u64(hash, declaration.size.map_or(0, |s| u64::from(s) + 1));
        }
        TraceEvent::Blocked {
            agent,
            round,
            node,
            port,
        } => {
            fnv_u64(hash, 4);
            fnv_u64(hash, agent.value());
            fnv_u64(hash, round);
            fnv_u64(hash, node.index() as u64);
            fnv_u64(hash, port.index() as u64);
        }
        TraceEvent::Crashed { agent, round, node } => {
            fnv_u64(hash, 5);
            fnv_u64(hash, agent.value());
            fnv_u64(hash, round);
            fnv_u64(hash, node.index() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(round: u64) -> TraceEvent {
        TraceEvent::Wake {
            agent: Label::new(1).unwrap(),
            round,
            by_visit: false,
        }
    }

    /// FNV-1a over the 8 little-endian bytes of `value`, one byte at a
    /// time: the definition the zero-run fold must reproduce.
    fn fnv_u64_bytewise(hash: u64, value: u64) -> u64 {
        value
            .to_le_bytes()
            .iter()
            .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = Trace::with_capacity(2);
        for round in 0..5 {
            t.push(wake(round));
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.events()[1].round(), 1);
    }

    #[test]
    fn zero_run_fold_matches_the_bytewise_definition() {
        let values = [
            0,
            1,
            0xff,
            0x100,
            0xffff,
            0x1_0000,
            (1 << 56) - 1,
            1 << 56,
            u64::MAX,
            0x00ff_0000_0000_0100,
        ];
        for start in [FNV_OFFSET, 0, 1, u64::MAX, 0x1234_5678_9abc_def0] {
            for value in values {
                let mut folded = start;
                fnv_u64(&mut folded, value);
                assert_eq!(
                    folded,
                    fnv_u64_bytewise(start, value),
                    "start {start:#x}, value {value:#x}"
                );
            }
        }
        assert_eq!(ZERO_RUN[0], 1);
        assert_eq!(ZERO_RUN[1], FNV_PRIME);
    }

    proptest::proptest! {
        /// Random values of every byte length, from random hash states.
        #[test]
        fn the_fold_matches_the_bytewise_definition(
            start in proptest::prelude::any::<u64>(),
            value in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            let value = value >> shift;
            let mut folded = start;
            fnv_u64(&mut folded, value);
            proptest::prop_assert_eq!(folded, fnv_u64_bytewise(start, value));
        }
    }

    #[test]
    fn digest_only_traces_digest_like_stored_traces() {
        let events = [
            wake(0),
            TraceEvent::Move {
                agent: Label::new(7).unwrap(),
                round: 1 << 40,
                from: NodeId::new(3),
                to: NodeId::new(300),
                port: Port::new(2),
            },
            TraceEvent::Blocked {
                agent: Label::new(7).unwrap(),
                round: 9,
                node: NodeId::new(300),
                port: Port::new(0),
            },
            TraceEvent::Crashed {
                agent: Label::new(u64::MAX).unwrap(),
                round: u64::MAX,
                node: NodeId::new(0),
            },
            TraceEvent::Declare {
                agent: Label::new(1).unwrap(),
                round: 12,
                node: NodeId::new(5),
                declaration: Declaration {
                    leader: Some(Label::new(1).unwrap()),
                    size: Some(0),
                },
            },
        ];
        for capacity in [0, 1, 3, events.len(), 64] {
            let mut stored = Trace::with_capacity(capacity);
            let mut folded = Trace::digest_only(capacity);
            for event in &events {
                stored.push(event.clone());
                folded.push(event.clone());
            }
            assert_eq!(stored.events().len(), capacity.min(events.len()));
            assert!(folded.events().is_empty());
            assert_eq!(folded.dropped(), stored.dropped());
            assert_eq!(folded.digest(), stored.digest(), "capacity {capacity}");
        }
        // The dropped count is part of the digest.
        let mut one = Trace::digest_only(0);
        one.push(wake(0));
        assert_ne!(one.digest(), Trace::digest_only(0).digest());
    }
}
