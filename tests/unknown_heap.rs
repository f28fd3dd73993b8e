//! The unknown-bound algorithm's memory stays flat however long it runs.
//!
//! A failing hypothesis retraces every first-part move (Algorithm 6 line
//! 16). The ball traversal makes nearly all of them, so storing one entry
//! port per ball move would grow the heap with the run. The retrace is
//! replayed instead; this file counts live heap bytes to pin that.
//!
//! It holds a single test: a counting `#[global_allocator]` sees every
//! allocation in the process, so a second test running on another thread
//! would pollute the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use nochatter::core::unknown::{run_unknown, EstMode, SliceEnumeration};
use nochatter::graph::{generators, InitialConfiguration, Label, NodeId};
use nochatter::sim::WakeSchedule;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, so its guarantees
// carry over; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged to the system allocator.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn cfg(graph: nochatter::graph::Graph, agents: &[(u64, u32)]) -> InitialConfiguration {
    InitialConfiguration::new(
        graph,
        agents
            .iter()
            .map(|&(l, v)| (Label::new(l).unwrap(), NodeId::new(v)))
            .collect(),
    )
    .unwrap()
}

#[test]
fn run_unknown_peak_heap_does_not_grow_with_ball_moves() {
    const CAP: usize = 64 * 1024;
    let truth = cfg(generators::ring(3), &[(1, 0), (2, 1)]);
    let decoy = cfg(generators::path(2), &[(1, 0), (2, 1)]);
    // Alone, the truth passes after one complete ball traversal per agent.
    // After the decoy it is hypothesis 2, whose larger ball makes nearly
    // five times the moves.
    for configs in [vec![truth.clone()], vec![decoy, truth.clone()]] {
        let omega = SliceEnumeration::new(configs);
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let (outcome, _) = run_unknown(
            &truth,
            omega,
            EstMode::Conservative,
            WakeSchedule::Simultaneous,
        )
        .expect("run succeeds");
        let peak = PEAK.load(Ordering::Relaxed) - base;
        outcome.gathering().expect("gathering validates");
        assert!(
            peak < CAP,
            "run_unknown peaked at {peak} live heap bytes over {} moves (cap {CAP})",
            outcome.total_moves
        );
    }
}
