//! The scheduler behind the campaign runner: one shared cursor.
//!
//! `count` jobs (indices `0..count`) are handed to `workers` worker
//! threads one at a time: a worker claims the next index with one
//! `fetch_add` on a shared atomic cursor, so a worker stuck on a heavy
//! cell simply claims fewer, and no index is claimed twice. A cell costs
//! a fraction of a millisecond of engine time and a claim nanoseconds, so
//! nothing coarser pays for itself.
//!
//! **Determinism.** The schedule reorders *execution*, never *results*:
//! each job writes its result into its own [`OnceLock`] slot (lock-free
//! for disjoint indices, and `set` doubles as an exactly-once assertion),
//! and the caller reads the slots back in index order. Any schedule of any
//! number of workers therefore produces the same result vector.
//!
//! **Panic isolation.** Every job runs under [`catch_unwind`]. A panic is
//! converted into a result via the caller's `on_panic` hook (the campaign
//! runner records a failed `RunRecord`), and the worker's scratch is
//! replaced wholesale — the scratch carries no semantic state, but a
//! panicking run may have left borrows half-restored, so the safe move is
//! a fresh one. One poisoned cell can no longer abort a million-cell
//! sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use nochatter_sim::EngineScratch;

/// Renders a panic payload the way the default hook would: the `&str` or
/// `String` message if there is one, a placeholder otherwise.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes jobs `0..count` across `workers` threads and returns their
/// results in index order, independent of the worker count and of the
/// order in which the workers claimed the jobs.
///
/// `job(index, scratch)` produces index `index`'s result against the
/// worker's reusable [`EngineScratch`]; if it panics, the scratch is
/// replaced and `on_panic(index, message)` produces the result instead.
/// At most `count` threads are spawned, however many workers are asked
/// for (see [`thread_count`]). With one thread or fewer everything runs
/// inline on the caller's thread through the identical job/panic path —
/// one code path, no thread spawn.
pub(crate) fn run_sharded<T, J, P>(count: usize, workers: usize, job: J, on_panic: P) -> Vec<T>
where
    T: Send + Sync,
    J: Fn(usize, &mut EngineScratch) -> T + Sync,
    P: Fn(usize, String) -> T + Sync,
{
    let run_one = |index: usize, scratch: &mut EngineScratch| -> T {
        match catch_unwind(AssertUnwindSafe(|| job(index, scratch))) {
            Ok(value) => value,
            Err(payload) => {
                *scratch = EngineScratch::new();
                on_panic(index, panic_message(payload))
            }
        }
    };

    let workers = thread_count(count, workers);
    if workers <= 1 {
        let mut scratch = EngineScratch::new();
        return (0..count).map(|i| run_one(i, &mut scratch)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..count).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = EngineScratch::new();
                loop {
                    // The cursor only hands out indices and publishes no
                    // data: results travel through the slots and the
                    // scope's join.
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= count {
                        break;
                    }
                    let value = run_one(index, &mut scratch);
                    // Disjoint lock-free writes: the cursor hands every
                    // index to exactly one worker, and `set` asserts it.
                    assert!(
                        slots[index].set(value).is_ok(),
                        "job {index} was scheduled twice"
                    );
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every scheduled job produced a result")
        })
        .collect()
}

/// The number of worker threads [`run_sharded`] uses for `count` jobs
/// when `workers` are requested: a thread beyond the job count would find
/// the cursor past the end at once, so the request is capped at `count`.
fn thread_count(count: usize, workers: usize) -> usize {
    workers.min(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn job_ids(count: usize, workers: usize) -> Vec<usize> {
        run_sharded(
            count,
            workers,
            |i, _scratch| i * 10,
            |_, _| panic!("no job panics here"),
        )
    }

    #[test]
    fn every_job_runs_exactly_once_in_index_order() {
        for workers in [1, 2, 3, 4, 7, 16] {
            for count in [0, 1, 2, 5, 33, 100] {
                let results = job_ids(count, workers);
                let expected: Vec<usize> = (0..count).map(|i| i * 10).collect();
                assert_eq!(results, expected, "count={count} workers={workers}");
            }
        }
    }

    #[test]
    fn results_are_independent_of_worker_count() {
        let one = job_ids(57, 1);
        for workers in [2, 4, 9] {
            assert_eq!(job_ids(57, workers), one);
        }
    }

    #[test]
    fn panicking_jobs_become_on_panic_results() {
        for workers in [1, 4] {
            let executed = AtomicUsize::new(0);
            let results: Vec<String> = run_sharded(
                8,
                workers,
                |i, _scratch| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    if i % 3 == 0 {
                        panic!("boom at {i}");
                    }
                    format!("ok {i}")
                },
                |i, message| format!("caught {i}: {message}"),
            );
            assert_eq!(executed.load(Ordering::Relaxed), 8);
            for (i, r) in results.iter().enumerate() {
                if i % 3 == 0 {
                    assert_eq!(r, &format!("caught {i}: boom at {i}"));
                } else {
                    assert_eq!(r, &format!("ok {i}"));
                }
            }
        }
    }

    #[test]
    fn zero_jobs_yield_an_empty_result_for_any_worker_count() {
        for workers in [0, 1, 8, 64] {
            assert!(job_ids(0, workers).is_empty(), "workers={workers}");
        }
    }

    #[test]
    fn one_job_with_many_workers_runs_inline_exactly_once() {
        // count <= 1 takes the inline path no matter how many workers were
        // requested: no threads, one execution, one slot.
        let runs = AtomicUsize::new(0);
        let results = run_sharded(
            1,
            32,
            |i, _scratch| {
                runs.fetch_add(1, Ordering::Relaxed);
                i + 7
            },
            |_, _| unreachable!("no panics"),
        );
        assert_eq!(results, vec![7]);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn thread_count_is_capped_at_the_job_count() {
        assert_eq!(thread_count(3, 64), 3);
        assert_eq!(thread_count(0, 8), 0);
        assert_eq!(thread_count(1, 1_000_000), 1);
        assert_eq!(thread_count(100, 4), 4);
        assert_eq!(thread_count(5, 0), 0);
    }

    #[test]
    fn more_workers_than_jobs_run_every_job_exactly_once() {
        // 3 jobs across 64 requested workers: at most 3 threads. A thread
        // that finishes first finds the cursor past the end while the
        // other jobs are in flight and must exit cleanly, while the
        // OnceLock slots assert each job ran exactly once.
        let runs: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let threads = Mutex::new(std::collections::HashSet::new());
        let results = run_sharded(
            3,
            64,
            |i, _scratch| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                threads.lock().unwrap().insert(std::thread::current().id());
                // Keep the job in flight long enough that idle workers
                // really do find the cursor exhausted meanwhile.
                std::thread::sleep(std::time::Duration::from_millis(1));
                i * 100
            },
            |_, _| unreachable!("no panics"),
        );
        assert_eq!(results, vec![0, 100, 200]);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "job {i} must run once");
        }
        assert!(threads.into_inner().unwrap().len() <= 3);
    }

    #[test]
    fn panic_message_extracts_str_and_string_payloads() {
        assert_eq!(panic_message(Box::new("static str")), "static str");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(17u32)), "non-string panic payload");
    }
}
