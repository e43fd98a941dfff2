//! Deterministic parallel execution for independent simulation cells.
//!
//! The experiment suite is a large collection of *independent* sim cells:
//! each owns a fresh `Host`/`Ssd`/RNG and shares no state with its
//! siblings, so they may run on any thread, in any order, without
//! changing what each one computes. What must NOT vary with the worker
//! count is the *merged* output. This crate provides exactly that
//! guarantee:
//!
//! 1. every task is a `FnOnce() -> T` closure that owns its inputs,
//! 2. workers pull tasks from a shared atomic cursor (dynamic load
//!    balancing — long cells do not serialize behind short ones), and
//! 3. results are written into a slot table indexed by *declaration
//!    order* and collected only after all workers join.
//!
//! Because the merge reads the slot table in index order, the returned
//! `Vec` is byte-for-byte the same whatever `jobs` was — running with
//! `jobs = 1` takes a purely serial path with no threads at all, and
//! `jobs = N` merely changes wall-clock time. See
//! `docs/DETERMINISM.md` ("parallel cells, serial merge") for the
//! argument in full.
//!
//! This is the one crate in the workspace allowed to touch threads:
//! simlint's S005 rule carves out `ull-exec` precisely because it is
//! *not* part of the event loop — nothing here ever consults or
//! advances sim time.
//!
//! ```
//! let tasks: Vec<_> = (0..8u64).map(|i| move || i * i).collect();
//! let out = ull_exec::run_ordered(4, tasks);
//! assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// One entry of the slot table: a pending task, a task checked out by a
/// worker, or a finished result.
enum Slot<F, T> {
    /// Task not yet claimed.
    Task(F),
    /// Task checked out by a worker (or already harvested).
    Empty,
    /// Finished result awaiting the ordered merge.
    Done(T),
}

/// Runs `tasks` on up to `jobs` worker threads and returns their results
/// **in declaration order**, regardless of which worker finished which
/// task when.
///
/// - `jobs <= 1` runs the tasks serially on the calling thread with no
///   thread machinery at all (the reference ordering).
/// - `jobs > 1` spawns `min(jobs, tasks.len())` scoped workers that pull
///   task indices from a shared cursor.
///
/// The output is guaranteed identical for every `jobs` value as long as
/// each task is a pure function of its owned inputs — which is exactly
/// the contract of a sim cell.
///
/// # Panics
///
/// If a task panics, the panic is propagated to the caller after the
/// scope joins (no result is silently dropped).
pub fn run_ordered<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        // Serial reference path: no threads, no locks.
        return tasks.into_iter().map(|f| f()).collect();
    }

    let slots: Vec<Mutex<Slot<F, T>>> = tasks
        .into_iter()
        .map(|f| Mutex::new(Slot::Task(f)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let workers = jobs.min(n);

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Check the task out of its slot so the closure runs
                // without holding the lock.
                let task = {
                    let mut slot = slots[i]
                        .lock()
                        .expect("no worker panics while holding a slot lock");
                    match std::mem::replace(&mut *slot, Slot::Empty) {
                        Slot::Task(f) => f,
                        // Unreachable: the cursor hands each index to
                        // exactly one worker.
                        _ => break,
                    }
                };
                let out = task();
                *slots[i]
                    .lock()
                    .expect("no worker panics while holding a slot lock") = Slot::Done(out);
            });
        }
    });

    // Serial merge, in declaration order.
    slots
        .into_iter()
        .map(|slot| {
            let slot = slot
                .into_inner()
                .expect("workers store results before the scope joins");
            match slot {
                Slot::Done(t) => t,
                // Unreachable: the scope joins all workers, and a worker
                // panic propagates out of `thread::scope` above.
                _ => unreachable!("scope joined with an unfinished slot"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn serial_path_preserves_order() {
        let tasks: Vec<_> = (0..10u64).map(|i| move || i * 3).collect();
        let out = run_ordered(1, tasks);
        assert_eq!(out, (0..10u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_for_every_job_count() {
        let expected: Vec<u64> = (0..50u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for jobs in [1, 2, 3, 4, 8, 64] {
            let tasks: Vec<_> = (0..50u64)
                .map(|i| move || i.wrapping_mul(0x9E37_79B9))
                .collect();
            assert_eq!(run_ordered(jobs, tasks), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn order_holds_even_when_early_tasks_finish_last() {
        // Earlier tasks sleep longer, so completion order is the reverse
        // of declaration order — the merge must undo that.
        let tasks: Vec<_> = (0..6u64)
            .map(|i| {
                move || {
                    thread::sleep(Duration::from_millis((6 - i) * 2));
                    i
                }
            })
            .collect();
        assert_eq!(run_ordered(6, tasks), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn more_jobs_than_tasks() {
        let tasks: Vec<_> = (0..3u64).map(|i| move || i + 100).collect();
        assert_eq!(run_ordered(32, tasks), vec![100, 101, 102]);
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<fn() -> u8> = Vec::new();
        assert!(run_ordered(4, none).is_empty());
        assert_eq!(run_ordered(4, vec![|| 7u8]), vec![7]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let tasks: Vec<_> = (0..40u64)
            .map(|i| {
                move || {
                    CALLS.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let out = run_ordered(4, tasks);
        assert_eq!(out.len(), 40);
        assert_eq!(CALLS.load(Ordering::Relaxed), 40);
    }
}
