//! Deterministic work distribution (std-only): a batch-mode ordered pool
//! and a long-running service pool, both first-in first-out.
//!
//! [`run_ordered`]'s workers claim jobs from one shared next-job index, so
//! jobs start in index order. Completion order is whatever the machine
//! gives us — the consumer callback is nevertheless invoked **in job-id
//! order** via a reorder buffer, so anything driven from it (journal
//! lines, progress output) is bit-identical no matter how many workers
//! ran. With jobs that are pure functions of their index, an N-thread run
//! is therefore indistinguishable from a 1-thread run everywhere outside
//! wall-clock time.
//!
//! [`ServicePool`] is the embeddable, continuously-fed variant `das-serve`
//! builds on: tasks arrive over the pool's lifetime into one queue and
//! start in arrival order, each task reports its own completion (the
//! server's job registry), and a panicking task never takes a worker down.
//!
//! Lock-poisoning policy: the service queue's mutex guards a plain
//! `VecDeque` whose operations (`push_back`/`pop_front`) cannot panic
//! mid-mutation, so a poisoned lock only means *some other* thread
//! panicked while holding it — the queue itself is still consistent. All
//! sites therefore recover with `PoisonError::into_inner` instead of
//! cascading the panic.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning (see the module-level policy).
fn lock_queue<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// A boxed unit of service work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

struct ServiceShared {
    /// Tasks not yet picked up, oldest first.
    queue: Mutex<VecDeque<Task>>,
    /// Signalled on submit and on shutdown.
    available: Condvar,
    /// Once set, workers exit as soon as the queue is empty — queued
    /// tasks still run (drain-then-stop, never drop).
    shutdown: AtomicBool,
    /// Tasks whose panic was contained by the worker loop.
    panicked: AtomicU64,
}

/// A long-running worker pool for continuously arriving tasks — the
/// service-mode sibling of [`run_ordered`]: idle workers take the oldest
/// queued task.
///
/// Unlike `run_ordered` there is no reorder buffer: each task carries its
/// own completion effect (e.g. updating `das-serve`'s job registry), and
/// results stay deterministic because every task is a pure function of
/// its job spec. A panicking task is contained with `catch_unwind`: the
/// worker survives, the panic is counted, and the remaining queue keeps
/// draining — one bad job cannot stall the service.
pub struct ServicePool {
    shared: Arc<ServiceShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServicePool {
    /// Starts `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> ServicePool {
        let shared = Arc::new(ServiceShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            panicked: AtomicU64::new(0),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ServicePool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Enqueues one task at the back of the queue. Admission control is
    /// the caller's job — the pool itself is unbounded.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        lock_queue(&self.shared.queue).push_back(Box::new(task));
        self.shared.available.notify_one();
    }

    /// Tasks currently waiting in the queue (not yet picked up).
    pub fn pending(&self) -> usize {
        lock_queue(&self.shared.queue).len()
    }

    /// Tasks whose panic the pool contained so far.
    pub fn panicked_tasks(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Drains and stops: already-queued tasks still run, then every worker
    /// exits and is joined. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        let workers = std::mem::take(&mut *lock_queue(&self.workers));
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &ServiceShared) {
    loop {
        let task = {
            let mut queue = lock_queue(&shared.queue);
            loop {
                if let Some(t) = queue.pop_front() {
                    break Some(t);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        match task {
            Some(t) => {
                // Contain task panics: the task's own completion handling
                // (e.g. marking a job failed) is the task's business; the
                // worker must survive to run the rest of the queue.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(t)).is_err() {
                    shared.panicked.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => return,
        }
    }
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

    #[test]
    fn service_pool_runs_every_task_across_threads() {
        let pool = ServicePool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 200);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn service_pool_shutdown_drains_queued_tasks() {
        // Queue far more tasks than workers, shut down immediately: every
        // queued task must still run (drain-then-stop, never drop).
        let pool = ServicePool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let pool = ServicePool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("job exploded"));
        let d = Arc::clone(&done);
        pool.submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1, "worker survived the panic");
        assert_eq!(pool.panicked_tasks(), 1);
    }

    #[test]
    fn service_pool_is_idempotent_on_double_shutdown() {
        let pool = ServicePool::new(2);
        pool.submit(|| {});
        pool.shutdown();
        pool.shutdown();
        assert_eq!(pool.pending(), 0);
    }
}
