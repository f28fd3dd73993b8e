//! The work-stealing scheduler behind the campaign runner.
//!
//! `count` jobs (indices `0..count`) are distributed over `workers` worker
//! threads as contiguous chunks seeded into per-worker deques. A worker
//! pops from the front of its own deque; when that runs dry it scans for
//! the richest victim and steals the *back half* of its deque in one lock,
//! so load imbalance (one worker's chunk full of heavyweight cells) heals
//! in O(log) steals instead of a cell at a time through a shared cursor.
//! The deques hold only `usize` indices behind short-lived mutexes —
//! vendored-shim friendly, no external scheduler dependency.
//!
//! **Determinism.** Stealing reorders *execution*, never *results*: each
//! job writes its result into its own [`OnceLock`] slot (lock-free for
//! disjoint indices, and `set` doubles as an exactly-once assertion), and
//! the caller reads the slots back in index order. Any schedule of any
//! number of workers therefore produces the same result vector.
//!
//! **Panic isolation.** Every job runs under [`catch_unwind`]. A panic is
//! converted into a result via the caller's `on_panic` hook (the campaign
//! runner records a failed `RunRecord`), and the worker's scratch is
//! replaced wholesale — the scratch carries no semantic state, but a
//! panicking run may have left borrows half-restored, so the safe move is
//! a fresh one. One poisoned cell can no longer abort a million-cell
//! sweep.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

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

/// Executes jobs `0..count` across `workers` threads with work stealing
/// and returns their results in index order, independent of the worker
/// count and of the steal schedule.
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

    // Seed each worker's deque with a contiguous chunk of the index space
    // (the first `count % workers` workers take one extra).
    let deques: Vec<Mutex<VecDeque<usize>>> = {
        let base = count / workers;
        let extra = count % workers;
        let mut next = 0;
        (0..workers)
            .map(|w| {
                let len = base + usize::from(w < extra);
                let chunk = (next..next + len).collect();
                next += len;
                Mutex::new(chunk)
            })
            .collect()
    };
    let slots: Vec<OnceLock<T>> = (0..count).map(|_| OnceLock::new()).collect();

    std::thread::scope(|scope| {
        for me in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let run_one = &run_one;
            scope.spawn(move || {
                let mut scratch = EngineScratch::new();
                while let Some(index) = next_job(deques, me) {
                    let value = run_one(index, &mut scratch);
                    // Disjoint lock-free writes: every index is claimed by
                    // exactly one worker, and `set` asserts it.
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
/// when `workers` are requested: a thread beyond the job count would only
/// seed an empty deque, so the request is capped at `count`.
fn thread_count(count: usize, workers: usize) -> usize {
    workers.min(count)
}

/// Claims the next job for worker `me`: the front of its own deque, or a
/// steal of the back half of the richest victim's deque. `None` once every
/// deque is empty (in-flight jobs on other workers need no help).
fn next_job(deques: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    if let Some(index) = deques[me].lock().expect("deque poisoned").pop_front() {
        return Some(index);
    }
    loop {
        let mut victim = me;
        let mut best = 0;
        for (i, deque) in deques.iter().enumerate() {
            if i == me {
                continue;
            }
            let len = deque.lock().expect("deque poisoned").len();
            if len > best {
                best = len;
                victim = i;
            }
        }
        if best == 0 {
            return None;
        }
        let mut queue = deques[victim].lock().expect("deque poisoned");
        let len = queue.len();
        if len == 0 {
            // Lost the race to another thief; rescan.
            continue;
        }
        let mut stolen = queue.split_off(len - len.div_ceil(2));
        drop(queue);
        let first = stolen.pop_front().expect("stole at least one job");
        if !stolen.is_empty() {
            deques[me]
                .lock()
                .expect("deque poisoned")
                .extend(stolen.drain(..));
        }
        return Some(first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        // 3 jobs across 64 requested workers: at most 3 threads, one job
        // each. A thread that finishes first scans victims whose jobs are
        // all in flight and must exit cleanly, while the OnceLock slots
        // assert each job ran exactly once.
        let runs: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let threads = Mutex::new(std::collections::HashSet::new());
        let results = run_sharded(
            3,
            64,
            |i, _scratch| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                threads.lock().unwrap().insert(std::thread::current().id());
                // Keep the job in flight long enough that idle workers
                // really do scan while the deques are empty.
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
    fn stealing_from_empty_victims_terminates_with_correct_results() {
        // Two jobs, eight requested workers: two threads, and whichever
        // finishes first finds its own deque and its victim's empty (the
        // other job is in flight) and must return None from the steal scan
        // rather than spin or grab a job twice.
        let runs: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        let results = run_sharded(
            2,
            8,
            |i, _scratch| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(2));
                i
            },
            |_, _| unreachable!("no panics"),
        );
        assert_eq!(results, vec![0, 1]);
        for r in &runs {
            assert_eq!(r.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn panic_message_extracts_str_and_string_payloads() {
        assert_eq!(panic_message(Box::new("static str")), "static str");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(17u32)), "non-string panic payload");
    }

    #[test]
    fn imbalanced_chunks_are_stolen() {
        // One slow chunk: make low indices heavy so the workers seeded with
        // the tail chunks run dry and must steal. Correctness is the same
        // assertion (all results present, index order); this exercises the
        // steal path under contention.
        let heavy = AtomicUsize::new(0);
        let results = run_sharded(
            64,
            8,
            |i, _scratch| {
                if i < 8 {
                    heavy.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i
            },
            |_, _| unreachable!("no panics"),
        );
        assert_eq!(results, (0..64).collect::<Vec<_>>());
        assert_eq!(heavy.load(Ordering::Relaxed), 8);
    }
}
