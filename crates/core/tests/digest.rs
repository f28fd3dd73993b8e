//! The streaming trace digest against the stored one: for random
//! `run_scenario` cells — graph families, sensing modes, wake schedules,
//! static and round-varying topologies, crash faults — a
//! [`Trace::digest_only`] trace, which folds each event into FNV-1a as the
//! engine emits it and stores nothing, digests exactly like a
//! [`Trace::with_capacity`] trace of the same capacity, and both equal a
//! byte-by-byte FNV-1a of the stored events kept here as the reference.
//! The small capacities (0, 1, 7) drop events, so the dropped-event count
//! (the digest's last field) is exercised as well as the events.

use std::cell::RefCell;

use proptest::prelude::*;

use nochatter_core::{harness, CommMode};
use nochatter_graph::dynamic::{DynamicRing, PeriodicEdges, SeededEdgeFailure};
use nochatter_graph::generators::Family;
use nochatter_graph::{InitialConfiguration, Label, NodeId};
use nochatter_sim::{
    CrashPoint, EngineScratch, FaultSpec, RunOutcome, TopologySpec, Trace, TraceEvent, WakeSchedule,
};

const CAPACITIES: [usize; 4] = [0, 1, 7, 1 << 16];

/// Byte-by-byte FNV-1a of the trace encoding: per event its tag (Wake 1,
/// Move 2, Declare 3, Blocked 4, Crashed 5) and every field as 8
/// little-endian bytes, then the dropped-event count.
fn reference_digest(events: &[TraceEvent], dropped: u64) -> u64 {
    let mut words = Vec::new();
    for event in events {
        match *event {
            TraceEvent::Wake {
                agent,
                round,
                by_visit,
            } => words.extend([1, agent.value(), round, u64::from(by_visit)]),
            TraceEvent::Move {
                agent,
                round,
                from,
                to,
                port,
            } => words.extend([
                2,
                agent.value(),
                round,
                from.index() as u64,
                to.index() as u64,
                port.index() as u64,
            ]),
            TraceEvent::Declare {
                agent,
                round,
                node,
                declaration,
            } => words.extend([
                3,
                agent.value(),
                round,
                node.index() as u64,
                declaration.leader.map_or(0, |l| l.value()),
                declaration.size.map_or(0, |s| u64::from(s) + 1),
            ]),
            TraceEvent::Blocked {
                agent,
                round,
                node,
                port,
            } => words.extend([
                4,
                agent.value(),
                round,
                node.index() as u64,
                port.index() as u64,
            ]),
            TraceEvent::Crashed { agent, round, node } => {
                words.extend([5, agent.value(), round, node.index() as u64])
            }
            _ => unreachable!("an event variant without a digest encoding: {event:?}"),
        }
    }
    words.push(dropped);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct Cell {
    cfg: InitialConfiguration,
    mode: CommMode,
    schedule: WakeSchedule,
    topo: TopologySpec,
    fault: FaultSpec,
    seed: u64,
}

impl Cell {
    fn run(&self, trace: Trace, scratch: &mut EngineScratch) -> RunOutcome {
        harness::run_scenario_with_scratch(
            &self.cfg,
            self.mode,
            self.schedule.clone(),
            &self.topo,
            &self.fault,
            self.seed,
            Some(trace),
            scratch,
        )
        .expect("scenario cells run clean")
    }
}

fn cell_strategy() -> impl Strategy<Value = Cell> {
    (
        (0usize..5, 4u32..7, any::<u64>()),
        (0u64..3, any::<bool>()),
        (0usize..4, 0usize..3, 0u64..200),
    )
        .prop_map(
            |((family, n, seed), (sched, talking), (topo, fault, crash_round))| {
                let family = [
                    Family::Ring,
                    Family::Path,
                    Family::Star,
                    Family::Grid,
                    Family::RandomTree,
                ][family];
                let graph = family.instantiate(n, seed);
                let n_actual = graph.node_count() as u32;
                let cfg = InitialConfiguration::new(
                    graph,
                    vec![
                        (Label::new(2).unwrap(), NodeId::new(0)),
                        (Label::new(seed % 5 + 3).unwrap(), NodeId::new(n_actual / 2)),
                    ],
                )
                .expect("two distinct starts on ≥4 nodes");
                let schedule = match sched {
                    0 => WakeSchedule::Simultaneous,
                    1 => WakeSchedule::FirstOnly,
                    _ => WakeSchedule::Staggered { gap: seed % 9 + 1 },
                };
                let mode = if talking {
                    CommMode::Talking
                } else {
                    CommMode::Silent
                };
                let topo = match topo {
                    0 => TopologySpec::Static,
                    1 => TopologySpec::Periodic(PeriodicEdges {
                        period: 3,
                        offset: seed % 3,
                    }),
                    2 => TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.2, seed }),
                    _ => TopologySpec::Ring(DynamicRing { seed }),
                };
                // A dynamic ring needs a cycle; elsewhere it degrades to
                // the static topology.
                let topo = if topo.compatible_with(cfg.graph()) {
                    topo
                } else {
                    TopologySpec::Static
                };
                let fault = match fault {
                    0 => FaultSpec::None,
                    1 => FaultSpec::CrashAt(vec![CrashPoint {
                        label: Label::new(2).unwrap(),
                        round: crash_round,
                    }]),
                    _ => FaultSpec::SeededCrash {
                        p: 0.01,
                        seed,
                        max_crashes: 1,
                    },
                };
                Cell {
                    cfg,
                    mode,
                    schedule,
                    topo,
                    fault,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn streamed_digest_equals_stored_digest_and_the_bytewise_reference(cell in cell_strategy()) {
        thread_local! {
            static SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::new());
        }
        SCRATCH.with(|scratch| {
            let scratch = &mut scratch.borrow_mut();
            let mut total_events = None;
            for capacity in CAPACITIES {
                let stored = cell.run(Trace::with_capacity(capacity), scratch);
                let streamed = cell.run(Trace::digest_only(capacity), scratch);
                let (stored_trace, streamed_trace) =
                    (stored.trace.as_ref().unwrap(), streamed.trace.as_ref().unwrap());
                prop_assert!(streamed_trace.events().is_empty());
                prop_assert_eq!(streamed_trace.dropped(), stored_trace.dropped());
                // Kept plus dropped is the run's event count at every
                // capacity, and every run has events to drop at 0.
                let total = stored_trace.events().len() as u64 + stored_trace.dropped();
                prop_assert_eq!(*total_events.get_or_insert(total), total);
                prop_assert!(total > 0);
                let reference = reference_digest(stored_trace.events(), stored_trace.dropped());
                prop_assert_eq!(stored_trace.digest(), reference, "capacity {}", capacity);
                prop_assert_eq!(streamed_trace.digest(), reference, "capacity {}", capacity);
                // The trace kind changes nothing else about the run.
                prop_assert_eq!(stored.rounds, streamed.rounds);
                prop_assert_eq!(&stored.declarations, &streamed.declarations);
                prop_assert_eq!(stored.polled_agent_rounds, streamed.polled_agent_rounds);
            }
            Ok(())
        })?;
    }
}
