//! Deterministic work distribution (std-only): a batch-mode ordered pool,
//! first-in first-out.
//!
//! [`run_ordered`]'s workers claim jobs from one shared next-job index, so
//! jobs start in index order. Completion order is whatever the machine
//! gives us — the consumer callback is nevertheless invoked **in job-id
//! order** via a reorder buffer, so anything driven from it (journal
//! lines, progress output) is bit-identical no matter how many workers
//! ran. With jobs that are pure functions of their index, an N-thread run
//! is therefore indistinguishable from a 1-thread run everywhere outside
//! wall-clock time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `n_jobs` jobs on `threads` workers, invoking `emit(job, result)`
/// on the calling thread in strictly ascending job order, starting while
/// later jobs are still executing.
///
/// `run` must be a pure function of the job index (up to shared memoized
/// state that is itself deterministic); the pool guarantees only ordering,
/// not value determinism.
pub fn run_ordered<R, F, E>(threads: usize, n_jobs: usize, run: F, mut emit: E)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    E: FnMut(usize, R),
{
    let threads = threads.max(1).min(n_jobs.max(1));
    let next_job = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next_job = &next_job;
            let run = &run;
            s.spawn(move || loop {
                let j = next_job.fetch_add(1, Ordering::Relaxed);
                if j >= n_jobs || tx.send((j, run(j))).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut next = 0usize;
        for (job, result) in rx {
            pending.insert(job, result);
            while let Some(r) = pending.remove(&next) {
                emit(next, r);
                next += 1;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn emission(threads: usize, n: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        run_ordered(threads, n, |j| j * j, |j, r| out.push((j, r)));
        out
    }

    #[test]
    fn emits_every_job_in_ascending_order() {
        for threads in [1, 2, 3, 8] {
            let out = emission(threads, 37);
            assert_eq!(out.len(), 37, "threads={threads}");
            for (i, (j, r)) in out.iter().enumerate() {
                assert_eq!(*j, i);
                assert_eq!(*r, i * i);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_emission() {
        assert_eq!(emission(1, 25), emission(8, 25));
    }

    #[test]
    fn more_threads_than_jobs_and_zero_jobs_work() {
        assert_eq!(emission(16, 3).len(), 3);
        assert_eq!(emission(4, 0).len(), 0);
    }

    #[test]
    fn each_job_runs_exactly_once() {
        let runs = AtomicUsize::new(0);
        let mut emitted = 0usize;
        run_ordered(
            4,
            100,
            |_| runs.fetch_add(1, Ordering::SeqCst),
            |_, _| emitted += 1,
        );
        assert_eq!(runs.load(Ordering::SeqCst), 100);
        assert_eq!(emitted, 100);
    }
}
