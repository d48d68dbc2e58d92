//! A std-only thread-pool job scheduler with a bounded run queue.
//!
//! All workers pull from one shared MPMC deque guarded by a mutex and a
//! condvar — effectively every worker "steals" from the same queue, which
//! for the coarse-grained jobs the service runs (one full extraction per
//! job) performs within noise of per-worker deques while staying small
//! enough to audit.
//!
//! Semantics:
//!
//! * **One entry point.** [`Scheduler::submit`] never blocks and hands
//!   every outcome of a job to its callback, exactly once: the result, a
//!   timeout, a panic, or a refusal ([`JobResult::Rejected`], delivered on
//!   the submitting thread before `submit` returns) when the queue is full
//!   or shut down. A caller that wants to wait pairs it with a channel, as
//!   [`parallel_map`] does.
//! * **Per-job deadline.** A job still queued when its deadline passes is
//!   *never run*: the worker popping it resolves it to
//!   [`JobResult::TimedOut`]. A job that has started runs to the end.
//! * **Graceful shutdown.** [`Scheduler::shutdown`] closes the queue to new
//!   submissions, lets workers drain every job already queued, and joins
//!   them. Dropping the scheduler does the same.
//! * **Known stack.** Workers run on [`WORKER_STACK_BYTES`] of stack, not
//!   the platform's default for spawned threads.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stack of every worker, and of the thread the `eqsql` CLI runs its
/// command on, so `eqsql serve` accepts whatever `eqsql extract` accepts.
/// 8 MiB is the usual main-thread stack on Linux; a spawned thread gets
/// 2 MiB by default, which a 10,000-term `x + x + … + x` overflows. An
/// unoptimised build's frames are about four times larger (a release
/// build passes 25,000 terms on 8 MiB, a debug build on 32 MiB), so it
/// gets four times the stack.
pub const WORKER_STACK_BYTES: usize = if cfg!(debug_assertions) {
    32 << 20
} else {
    8 << 20
};

/// Scheduler construction parameters.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker thread count (clamped to ≥ 1).
    pub workers: usize,
    /// Maximum number of queued (not yet running) jobs (clamped to ≥ 1).
    pub queue_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            queue_capacity: 256,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue was at capacity.
    QueueFull,
    /// The scheduler is shutting down.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("job queue is full"),
            SubmitError::Shutdown => f.write_str("scheduler is shut down"),
        }
    }
}

/// Final outcome of a job, as its callback receives it.
#[derive(Debug)]
pub enum JobResult<T> {
    /// The closure ran to completion.
    Completed(T),
    /// The deadline passed while the job was still queued; it never ran.
    TimedOut,
    /// The closure panicked; the payload is the panic message.
    Panicked(String),
    /// The scheduler refused the job; it never ran.
    Rejected(SubmitError),
}

/// Monotonic job counters.
#[derive(Default)]
struct StatsCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    timed_out: AtomicU64,
    panicked: AtomicU64,
    rejected: AtomicU64,
}

impl StatsCells {
    /// Count one final outcome.
    fn count<T>(&self, outcome: &JobResult<T>) {
        match outcome {
            JobResult::Completed(_) => &self.completed,
            JobResult::TimedOut => &self.timed_out,
            JobResult::Panicked(_) => &self.panicked,
            JobResult::Rejected(_) => &self.rejected,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// Snapshot of the scheduler's counters and gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs whose final outcome was `Completed`.
    pub completed: u64,
    /// Jobs whose final outcome was `TimedOut`.
    pub timed_out: u64,
    /// Jobs whose closure panicked.
    pub panicked: u64,
    /// Submissions refused (`QueueFull` / `Shutdown`).
    pub rejected: u64,
    /// Worker thread count (gauge).
    pub workers: u64,
    /// Jobs currently queued, not yet picked up (gauge).
    pub queue_depth: u64,
}

/// A queued job: runs the closure (or not, past its deadline) and hands
/// the outcome to the callback.
type QueuedJob = Box<dyn FnOnce() + Send>;

struct State {
    queue: VecDeque<QueuedJob>,
    closed: bool,
}

struct Inner {
    state: Mutex<State>,
    not_empty: Condvar,
    capacity: usize,
    stats: Arc<StatsCells>,
}

impl Inner {
    /// Lock the queue. Jobs and callbacks run outside the lock, so no
    /// panic can poison it.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("the scheduler lock is never poisoned")
    }
}

/// The thread pool. See the module docs for semantics.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawn the worker threads.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            stats: Arc::new(StatsCells::default()),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("eqsql-worker-{i}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Scheduler { inner, workers }
    }

    /// Queue `f` to run on a worker, with an optional deadline, and hand
    /// its outcome to `cb`. Never blocks.
    ///
    /// `cb` is called exactly once: on the worker thread once the job has
    /// run (or expired in the queue), or on this thread, before `submit`
    /// returns, with [`JobResult::Rejected`] when the queue is full or the
    /// scheduler is shutting down. The event loop's callback typically
    /// queues a response and nudges a wakeup pipe.
    pub fn submit<T, F, C>(&self, f: F, timeout: Option<Duration>, cb: C)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        C: FnOnce(JobResult<T>) + Send + 'static,
    {
        let deadline = timeout.map(|t| Instant::now() + t);
        let stats = &self.inner.stats;
        let mut st = self.inner.state();
        let refused = if st.closed {
            Some(SubmitError::Shutdown)
        } else if st.queue.len() >= self.inner.capacity {
            Some(SubmitError::QueueFull)
        } else {
            None
        };
        if let Some(e) = refused {
            drop(st);
            let outcome = JobResult::Rejected(e);
            stats.count(&outcome);
            return cb(outcome);
        }
        let job_stats = Arc::clone(stats);
        st.queue.push_back(Box::new(move || {
            let outcome = if deadline.is_some_and(|d| Instant::now() >= d) {
                JobResult::TimedOut
            } else {
                match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => JobResult::Completed(v),
                    Err(p) => JobResult::Panicked(panic_message(&*p)),
                }
            };
            job_stats.count(&outcome);
            cb(outcome);
        }));
        stats.submitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.inner.not_empty.notify_one();
    }

    /// Counter/gauge snapshot.
    pub fn stats(&self) -> SchedulerStats {
        let s = &self.inner.stats;
        SchedulerStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            timed_out: s.timed_out.load(Ordering::Relaxed),
            panicked: s.panicked.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            workers: self.workers.len() as u64,
            queue_depth: self.inner.state().queue.len() as u64,
        }
    }

    /// Close the queue, drain every already-queued job, join the workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.inner.state().closed = true;
        self.inner.not_empty.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut st = inner.state();
            loop {
                if let Some(j) = st.queue.pop_front() {
                    break Some(j);
                }
                if st.closed {
                    break None;
                }
                st = inner
                    .not_empty
                    .wait(st)
                    .expect("the scheduler lock is never poisoned");
            }
        };
        match job {
            Some(run) => run(),
            None => return,
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// Run `f` over every item on a throwaway pool of `jobs` workers and
/// return the results **in input order** — the helper behind `eqsql batch
/// --jobs N`, the parallel corpus harness, and the bench binaries, all of
/// which need output independent of scheduling interleavings. A panic in
/// any job is re-raised here.
pub fn parallel_map<I, T, F>(items: Vec<I>, jobs: usize, f: F) -> Vec<T>
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(I) -> T + Send + Sync + 'static,
{
    let n = items.len();
    let sched = Scheduler::new(SchedulerConfig {
        workers: jobs,
        queue_capacity: n.max(1),
    });
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel();
    for (i, item) in items.into_iter().enumerate() {
        let f = Arc::clone(&f);
        let tx = tx.clone();
        sched.submit(
            move || f(item),
            None,
            move |outcome| {
                let _ = tx.send((i, outcome));
            },
        );
    }
    drop(tx);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    // Ends once every callback has run and dropped its sender.
    for (i, outcome) in rx {
        match outcome {
            JobResult::Completed(v) => out[i] = Some(v),
            JobResult::Panicked(m) => panic!("parallel_map job panicked: {m}"),
            JobResult::TimedOut | JobResult::Rejected(_) => {
                unreachable!("parallel_map jobs have no deadline and fit the queue")
            }
        }
    }
    out.into_iter()
        .map(|v| v.expect("every job reports once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn pool(workers: usize, capacity: usize) -> Scheduler {
        Scheduler::new(SchedulerConfig {
            workers,
            queue_capacity: capacity,
        })
    }

    /// Submit `f` and return the receiver its outcome arrives on.
    fn spawn<T: Send + 'static>(
        s: &Scheduler,
        f: impl FnOnce() -> T + Send + 'static,
        timeout: Option<Duration>,
    ) -> mpsc::Receiver<JobResult<T>> {
        let (tx, rx) = mpsc::channel();
        s.submit(f, timeout, move |o| tx.send(o).unwrap());
        rx
    }

    fn wait<T>(rx: mpsc::Receiver<JobResult<T>>) -> JobResult<T> {
        rx.recv_timeout(Duration::from_secs(10)).unwrap()
    }

    /// A job that holds its worker until the returned sender fires.
    fn blocker(s: &Scheduler) -> (mpsc::Sender<()>, mpsc::Receiver<JobResult<()>>) {
        let (tx, rx) = mpsc::channel::<()>();
        (tx, spawn(s, move || rx.recv().unwrap(), None))
    }

    #[test]
    fn jobs_complete_and_stats_count() {
        let s = pool(2, 16);
        let pending: Vec<_> = (0..8).map(|i| spawn(&s, move || i * 2, None)).collect();
        let mut out: Vec<i32> = pending
            .into_iter()
            .map(|rx| match wait(rx) {
                JobResult::Completed(v) => v,
                other => panic!("{other:?}"),
            })
            .collect();
        out.sort();
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        let st = s.stats();
        assert_eq!((st.submitted, st.completed), (8, 8));
        s.shutdown();
    }

    #[test]
    fn queued_job_times_out_without_running() {
        // One worker, blocked; a job with a tiny timeout expires in queue.
        let s = pool(1, 8);
        let (release, blocked) = blocker(&s);
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let doomed = spawn(
            &s,
            move || ran2.store(true, Ordering::SeqCst),
            Some(Duration::from_millis(5)),
        );
        std::thread::sleep(Duration::from_millis(30));
        release.send(()).unwrap();
        assert!(matches!(wait(doomed), JobResult::TimedOut));
        assert!(matches!(wait(blocked), JobResult::Completed(())));
        assert!(!ran.load(Ordering::SeqCst), "expired job must never run");
        assert_eq!(s.stats().timed_out, 1);
        s.shutdown();
    }

    #[test]
    fn shutdown_drains_the_queue() {
        let s = pool(1, 64);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let c = Arc::clone(&counter);
            let job = move || {
                std::thread::sleep(Duration::from_micros(200));
                c.fetch_add(1, Ordering::SeqCst);
            };
            s.submit(job, None, |o| {
                assert!(matches!(o, JobResult::Completed(())))
            });
        }
        s.shutdown(); // must not return before every queued job ran
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let s = pool(1, 4);
        s.inner.state().closed = true;
        // The refusal reaches the callback before `submit` returns.
        let rx = spawn(&s, || (), None);
        assert!(matches!(
            rx.try_recv(),
            Ok(JobResult::Rejected(SubmitError::Shutdown))
        ));
        assert_eq!(s.stats().rejected, 1);
    }

    #[test]
    fn submit_reports_full_queue() {
        let s = pool(1, 1);
        let (release, blocked) = blocker(&s);
        // Give the worker a moment to pick up the first job, then fill the
        // single queue slot and overflow it.
        std::thread::sleep(Duration::from_millis(10));
        let (release2, queued) = blocker(&s);
        let overflow = spawn(&s, || (), None);
        assert!(matches!(
            overflow.try_recv(),
            Ok(JobResult::Rejected(SubmitError::QueueFull))
        ));
        assert_eq!((s.stats().submitted, s.stats().rejected), (2, 1));
        release.send(()).unwrap();
        release2.send(()).unwrap();
        assert!(matches!(wait(blocked), JobResult::Completed(())));
        assert!(matches!(wait(queued), JobResult::Completed(())));
        s.shutdown();
    }

    #[test]
    fn panicking_job_is_reported_not_fatal() {
        let s = pool(1, 4);
        match wait(spawn(&s, || -> i32 { panic!("boom {}", 42) }, None)) {
            JobResult::Panicked(m) => assert!(m.contains("boom 42"), "{m}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            wait(spawn(&s, || 1, None)),
            JobResult::Completed(1)
        ));
        assert_eq!(s.stats().panicked, 1);
        s.shutdown();
    }

    #[test]
    fn submit_callback_delivers_outcomes_off_thread() {
        let s = pool(2, 8);
        let (tx, rx) = mpsc::channel::<(JobResult<i32>, Option<String>)>();
        let tx2 = tx.clone();
        let on_worker = |tx: mpsc::Sender<_>| {
            move |o| {
                let name = std::thread::current().name().map(str::to_string);
                tx.send((o, name)).unwrap();
            }
        };
        s.submit(|| 21 * 2, None, on_worker(tx));
        s.submit(|| -> i32 { panic!("cb boom") }, None, on_worker(tx2));
        let mut completed = 0;
        let mut panicked = 0;
        for _ in 0..2 {
            let (outcome, thread) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(thread.unwrap().starts_with("eqsql-worker-"));
            match outcome {
                JobResult::Completed(v) => {
                    assert_eq!(v, 42);
                    completed += 1;
                }
                JobResult::Panicked(m) => {
                    assert!(m.contains("cb boom"), "{m}");
                    panicked += 1;
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!((completed, panicked), (1, 1));
        let st = s.stats();
        assert_eq!((st.completed, st.panicked), (1, 1));
        s.shutdown();
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        // Jittered per-item delays: order must still be the input order.
        let out = parallel_map((0..64).collect::<Vec<u64>>(), 8, |i| {
            std::thread::sleep(Duration::from_micros((i * 37) % 500));
            i * i
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<u64>>());
    }
}
