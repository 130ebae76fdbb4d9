//! A bounded, long-lived worker pool with explicit backpressure.
//!
//! The fork-join helpers in the crate root ([`scoped_map`] and friends)
//! spawn scoped threads per call — right for data-parallel kernels,
//! wrong for a serving front end, which needs a *fixed* set of workers
//! multiplexing an unbounded stream of independent requests under a
//! *bounded* amount of queued memory. [`WorkerPool`] is that primitive:
//!
//! * **Fixed N workers, one `Mutex`+`Condvar` FIFO queue.** Jobs run in
//!   submission order (FIFO dispatch; completion order depends on job
//!   durations, as in any pool).
//! * **Bounded depth, non-blocking rejection.** [`WorkerPool::submit`]
//!   never blocks and never buffers past the configured depth: a full
//!   queue returns [`SubmitError::QueueFull`] immediately, so the
//!   caller can reply with typed backpressure instead of queuing
//!   unbounded memory. Overload degrades to a counted, explicit "try
//!   again", never to an OOM.
//! * **Panic isolation.** A panicking job is caught and counted; the
//!   worker thread survives and keeps pulling jobs. (Callers that need
//!   to observe their own panics — e.g. to turn one into an error
//!   reply — should wrap their job bodies; the pool's catch is the
//!   backstop that keeps the *thread* alive.)
//! * **Drain-then-join shutdown.** [`WorkerPool::shutdown`] rejects new
//!   submissions, lets already-queued jobs finish, and joins every
//!   worker — no detached threads outlive the pool.
//!
//! Worker threads are flagged with the crate's `in_worker` marker, so
//! parallel kernels called from inside a job run their serial (bitwise
//! identical) paths: with N pool workers the parallelism is *across*
//! jobs, and a job's nested kernels do not multiply the thread count.
//!
//! [`scoped_map`]: crate::scoped_map

use crate::relock;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A queued unit of work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a [`WorkerPool::submit`] was rejected. Both variants hand the
/// job back so the caller can reply, retry, or run it inline.
pub enum SubmitError {
    /// The bounded queue is at capacity — typed backpressure. The
    /// caller decides: reply "overloaded", retry later, or shed load.
    QueueFull(Job),
    /// [`WorkerPool::shutdown`] has begun; no new work is accepted.
    ShuttingDown(Job),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => write!(f, "worker pool queue is full"),
            SubmitError::ShuttingDown(_) => write!(f, "worker pool is shutting down"),
        }
    }
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The carried job is opaque; name only the rejection kind.
        match self {
            SubmitError::QueueFull(_) => f.write_str("QueueFull(..)"),
            SubmitError::ShuttingDown(_) => f.write_str("ShuttingDown(..)"),
        }
    }
}

/// Point-in-time counters for one pool — see [`WorkerPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs that ran to completion (panicking jobs included — they
    /// occupied a worker all the same).
    pub executed: u64,
    /// Submissions rejected with [`SubmitError::QueueFull`].
    pub rejected_full: u64,
    /// Submissions rejected with [`SubmitError::ShuttingDown`].
    pub rejected_shutdown: u64,
    /// Job panics caught by the worker backstop.
    pub panics: u64,
    /// High-water mark of queued (not yet dispatched) jobs.
    pub peak_depth: u64,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Workers sleep here for jobs (or the shutdown signal).
    jobs_cv: Condvar,
    executed: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    panics: AtomicU64,
    peak_depth: AtomicU64,
}

/// Fixed-size worker pool over a bounded FIFO queue. See the module
/// docs for the contract.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    depth: usize,
}

impl WorkerPool {
    /// Spawns `workers` (≥ 1) threads serving a queue bounded at
    /// `queue_depth` (≥ 1) not-yet-dispatched jobs.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            jobs_cv: Condvar::new(),
            executed: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            peak_depth: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("freehgc-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
            depth: queue_depth.max(1),
        }
    }

    /// Enqueues `job` without blocking. A full queue or a shutting-down
    /// pool hands the job back as a typed rejection — the backpressure
    /// signal the serving layer converts into an overload reply.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut q = relock(&self.shared.queue);
        if q.shutting_down {
            drop(q);
            self.shared
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown(job));
        }
        if q.jobs.len() >= self.depth {
            drop(q);
            self.shared.rejected_full.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull(job));
        }
        q.jobs.push_back(job);
        let depth = q.jobs.len() as u64;
        drop(q);
        self.shared.peak_depth.fetch_max(depth, Ordering::Relaxed);
        self.shared.jobs_cv.notify_one();
        Ok(())
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        relock(&self.workers).len()
    }

    /// Jobs queued and not yet dispatched to a worker.
    pub fn queued(&self) -> usize {
        relock(&self.shared.queue).jobs.len()
    }

    /// The configured queue-depth bound.
    pub fn queue_depth(&self) -> usize {
        self.depth
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            executed: self.shared.executed.load(Ordering::Relaxed),
            rejected_full: self.shared.rejected_full.load(Ordering::Relaxed),
            rejected_shutdown: self.shared.rejected_shutdown.load(Ordering::Relaxed),
            panics: self.shared.panics.load(Ordering::Relaxed),
            peak_depth: self.shared.peak_depth.load(Ordering::Relaxed),
        }
    }

    /// Drains and joins: new submissions are rejected with
    /// [`SubmitError::ShuttingDown`] from this point on, every job
    /// already queued still runs, and every worker thread is joined
    /// before this returns. Idempotent; called by `Drop` as a backstop
    /// so a pool can never leak detached threads past its owner.
    pub fn shutdown(&self) {
        {
            let mut q = relock(&self.shared.queue);
            q.shutting_down = true;
        }
        self.shared.jobs_cv.notify_all();
        let handles = std::mem::take(&mut *relock(&self.workers));
        for h in handles {
            // A worker that somehow panicked outside the job backstop
            // is already dead; joining it is still the right cleanup.
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("queue_depth", &self.depth)
            .field("queued", &self.queued())
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    // Flag the thread so nested parallel helpers run inline (serial,
    // bitwise-identical): the pool's parallelism is across jobs.
    let _guard = crate::enter_worker();
    loop {
        let job = {
            let mut q = relock(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutting_down {
                    return;
                }
                q = shared
                    .jobs_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        shared.executed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    fn wait_until(mut cond: impl FnMut() -> bool) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("condition not reached within 2s");
    }

    #[test]
    fn jobs_dispatch_in_fifo_order() {
        let pool = WorkerPool::new(1, 16);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..8 {
            let order = Arc::clone(&order);
            pool.submit(Box::new(move || order.lock().unwrap().push(i)))
                .unwrap();
        }
        pool.shutdown();
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
        assert_eq!(pool.stats().executed, 8);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let pool = WorkerPool::new(1, 1);
        let gate = Arc::new(Barrier::new(2));
        let blocker = Arc::clone(&gate);
        // Occupy the single worker…
        pool.submit(Box::new(move || {
            blocker.wait();
        }))
        .unwrap();
        wait_until(|| pool.queued() == 0); // dispatched, worker blocked
                                           // …fill the single queue slot…
        pool.submit(Box::new(|| {})).unwrap();
        // …and the next submission must bounce, handing the job back.
        match pool.submit(Box::new(|| {})) {
            Err(SubmitError::QueueFull(_)) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(pool.stats().rejected_full, 1);
        gate.wait();
        pool.shutdown();
        assert_eq!(pool.stats().executed, 2, "rejected job never ran");
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_rejects() {
        let pool = WorkerPool::new(1, 16);
        let gate = Arc::new(Barrier::new(2));
        let blocker = Arc::clone(&gate);
        let ran = Arc::new(AtomicUsize::new(0));
        pool.submit(Box::new(move || {
            blocker.wait();
        }))
        .unwrap();
        for _ in 0..4 {
            let ran = Arc::clone(&ran);
            pool.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let pool = Arc::new(pool);
        let p2 = Arc::clone(&pool);
        let joiner = std::thread::spawn(move || {
            p2.shutdown();
            flag.store(true, Ordering::Relaxed);
        });
        // Shutdown must wait for the in-flight blocker and the queue.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!done.load(Ordering::Relaxed), "shutdown drains, not aborts");
        gate.wait();
        joiner.join().unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 4, "queued jobs all drained");
        match pool.submit(Box::new(|| {})) {
            Err(SubmitError::ShuttingDown(_)) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        assert_eq!(pool.stats().rejected_shutdown, 1);
    }

    #[test]
    fn panicking_job_is_counted_and_worker_survives() {
        let pool = WorkerPool::new(1, 16);
        pool.submit(Box::new(|| panic!("job dies"))).unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.submit(Box::new(move || {
            r.fetch_add(1, Ordering::Relaxed);
        }))
        .unwrap();
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 1, "worker survived the panic");
        let stats = pool.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.executed, 2);
    }

    #[test]
    fn pool_workers_run_nested_kernels_inline() {
        let pool = WorkerPool::new(2, 4);
        let flags = Arc::new(Mutex::new(Vec::new()));
        let f = Arc::clone(&flags);
        pool.submit(Box::new(move || {
            f.lock()
                .unwrap()
                .push((crate::in_worker(), crate::current_threads()));
        }))
        .unwrap();
        pool.shutdown();
        assert_eq!(*flags.lock().unwrap(), vec![(true, 1)]);
    }
}
