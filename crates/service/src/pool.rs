//! A persistent, channel-fed worker pool with per-worker long-lived
//! scratch.
//!
//! Spawning threads per batch is fine at batch ≥ 16 and wasteful for
//! the tiny batches a network frontend produces. A [`WorkerPool`]
//! spawns its threads once; jobs are boxed closures fed
//! through a bounded-by-nothing internal queue (admission control is the
//! *caller's* concern — see `pigeonring-server`; a live pool never
//! rejects work, only a [shut-down](WorkerPool::shutdown) one does, and
//! then visibly via [`JobRejected`]).
//!
//! Each worker owns a [`ScratchStore`]: a type-erased map from scratch
//! type to one long-lived instance. A job asks for its engine's scratch
//! type with [`ScratchStore::get_mut`]; the first job of that type on a
//! worker allocates it, every later job — across batches, across
//! [`ShardedIndex`] instances, across *domains* — reuses the warm
//! buffers.
//!
//! [`ShardedIndex`]: crate::sharded::ShardedIndex

use std::any::{Any, TypeId};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use pigeonring_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

/// Telemetry handles for a [`WorkerPool`], attached once via
/// [`WorkerPool::attach_metrics`]. All fields are shared registry
/// handles, so a snapshot of the registry sees the live values.
#[derive(Clone)]
pub struct PoolMetrics {
    /// Total jobs submitted.
    pub jobs: Arc<Counter>,
    /// µs each job spent queued before a worker picked it up.
    pub queue_wait_us: Arc<Histogram>,
    /// Jobs currently waiting in the queue.
    pub queued: Arc<Gauge>,
    /// Workers currently executing a job.
    pub busy_workers: Arc<Gauge>,
}

impl PoolMetrics {
    /// Registers the pool metric family (`pool.*`) on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        PoolMetrics {
            jobs: registry.counter("pool.jobs"),
            queue_wait_us: registry.histogram("pool.queue_wait_us"),
            queued: registry.gauge("pool.queued"),
            busy_workers: registry.gauge("pool.busy_workers"),
        }
    }
}

/// Decrements a gauge on drop, so a panicking job cannot leave
/// `busy_workers` permanently elevated.
struct GaugeGuard(Arc<Gauge>);

impl GaugeGuard {
    fn enter(gauge: &Arc<Gauge>) -> Self {
        gauge.inc();
        GaugeGuard(Arc::clone(gauge))
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Returned by [`WorkerPool::submit`] when the pool has been shut down:
/// the job was **not** enqueued and will never run. Callers either
/// propagate this as a typed failure (the server answers the client with
/// an `Internal` error) or treat it as a bug and panic — silently
/// dropping work is not an option.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobRejected;

impl fmt::Display for JobRejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("worker pool is shut down; job rejected")
    }
}

impl std::error::Error for JobRejected {}

/// Per-worker, long-lived scratch storage: one instance per scratch
/// *type*, allocated on first use and reused for every later job.
#[derive(Default)]
pub struct ScratchStore {
    slots: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl ScratchStore {
    /// The worker's long-lived scratch of type `S`, created with
    /// `S::default()` on first request.
    #[expect(
        clippy::expect_used,
        reason = "the entry is keyed by TypeId::of::<S>, so it always holds an S"
    )]
    pub fn get_mut<S: Default + Send + 'static>(&mut self) -> &mut S {
        self.slots
            .entry(TypeId::of::<S>())
            .or_insert_with(|| Box::new(S::default()))
            .downcast_mut::<S>()
            .expect("slot keyed by TypeId::of::<S> holds an S")
    }

    /// Drops every stored scratch (used after a job panic, when a
    /// half-updated scratch can no longer be trusted).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

type Job = Box<dyn FnOnce(&mut ScratchStore) + Send>;

/// Locks the pool mutex, recovering from poison: the guarded state (a
/// queue of owned jobs plus the shutdown flag) is consistent after any
/// partial update, and a job panic is already survived by the workers,
/// so submission must survive it too.
fn lock_recover<'a>(m: &'a Mutex<PoolState>) -> std::sync::MutexGuard<'a, PoolState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct PoolState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued or shutdown begins.
    available: Condvar,
}

/// A fixed-size pool of persistent worker threads.
///
/// Dropping the pool drains the remaining jobs (workers finish whatever
/// is queued) and joins every thread.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    metrics: OnceLock<PoolMetrics>,
}

impl WorkerPool {
    /// Spawns `workers.max(1)` persistent worker threads.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        #[expect(
            clippy::expect_used,
            reason = "spawn failure at pool construction is an unrecoverable resource exhaustion; fail loudly at startup"
        )]
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pigeonring-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            metrics: OnceLock::new(),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Attaches telemetry to this pool: later submissions record job
    /// counts, queue-wait latency, queue depth, and busy-worker
    /// utilization. First attach wins; attaching is optional and an
    /// un-instrumented pool pays zero overhead (one `OnceLock` load
    /// per submit).
    pub fn attach_metrics(&self, metrics: PoolMetrics) {
        let _ = self.metrics.set(metrics);
    }

    /// Queues one job. Jobs run in submission order (pulled FIFO by
    /// whichever worker frees up first); a live pool never drops or
    /// reorders work. After [`WorkerPool::shutdown`] (or mid-`Drop`) the
    /// job is rejected with [`JobRejected`] instead of being silently
    /// enqueued on a pool whose workers may already be gone.
    pub fn submit(
        &self,
        job: impl FnOnce(&mut ScratchStore) + Send + 'static,
    ) -> Result<(), JobRejected> {
        // Instrumented pools wrap the job so the worker accounts
        // queue-wait and utilization; the wrapper is built before the
        // lock so the critical section stays one push, and the
        // counters only move after the push succeeds (a rejected job
        // must not leave `queued` elevated).
        let metrics = self.metrics.get().cloned();
        let job: Job = match &metrics {
            Some(m) => {
                let m = m.clone();
                let submitted = Instant::now();
                Box::new(move |scratch: &mut ScratchStore| {
                    m.queued.dec();
                    m.queue_wait_us
                        .record(submitted.elapsed().as_micros().min(u64::MAX as u128) as u64);
                    let _busy = GaugeGuard::enter(&m.busy_workers);
                    job(scratch);
                })
            }
            None => Box::new(job),
        };
        let mut state = lock_recover(&self.shared.state);
        if state.shutdown {
            return Err(JobRejected);
        }
        state.jobs.push_back(job);
        drop(state);
        if let Some(m) = &metrics {
            m.jobs.inc();
            m.queued.inc();
        }
        self.shared.available.notify_one();
        Ok(())
    }

    /// Begins a graceful shutdown: already-queued jobs still run, but
    /// every later [`WorkerPool::submit`] returns [`JobRejected`].
    /// Workers exit once the queue drains; [`Drop`] joins them.
    pub fn shutdown(&self) {
        lock_recover(&self.shared.state).shutdown = true;
        self.shared.available.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside a job (impossible today —
            // job panics are caught) would surface here; propagate.
            if handle.join().is_err() {
                // Already unwinding? Don't double-panic out of drop.
                #[expect(
                    clippy::panic,
                    reason = "a worker dying outside a job is a pool bug; propagating the panic is the only honest signal"
                )]
                if !std::thread::panicking() {
                    panic!("worker thread panicked outside a job");
                }
            }
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut scratch = ScratchStore::default();
    loop {
        let job = {
            let mut state = lock_recover(&shared.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // A panicking job must not kill the worker (later jobs would
        // deadlock waiting for a thread that is gone). The caller
        // observes the panic through its result channel hanging up; the
        // worker survives with a fresh scratch (the old one may be
        // half-updated).
        if catch_unwind(AssertUnwindSafe(|| job(&mut scratch))).is_err() {
            scratch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_all_jobs() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).expect("receiver alive");
            })
            .expect("pool accepts jobs");
        }
        for _ in 0..50 {
            rx.recv().expect("job completed");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn scratch_persists_across_jobs_on_a_worker() {
        // One worker ⇒ every job sees the same store; a counter stored
        // in scratch must accumulate across jobs.
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for _ in 0..10 {
            let tx = tx.clone();
            pool.submit(move |scratch| {
                let n: &mut usize = scratch.get_mut();
                *n += 1;
                tx.send(*n).expect("receiver alive");
            })
            .expect("pool accepts jobs");
        }
        let seen: Vec<usize> = (0..10).map(|_| rx.recv().expect("job ran")).collect();
        assert_eq!(seen, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = mpsc::channel();
        pool.submit(move |_| tx.send(7).expect("receiver alive"))
            .expect("pool accepts jobs");
        assert_eq!(rx.recv().expect("job ran"), 7);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let counter = Arc::clone(&counter);
            pool.submit(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .expect("pool accepts jobs");
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(|_| panic!("job panic"))
            .expect("pool accepts jobs");
        let (tx, rx) = mpsc::channel();
        pool.submit(move |_| tx.send(1).expect("receiver alive"))
            .expect("pool accepts jobs");
        assert_eq!(rx.recv().expect("worker survived the panic"), 1);
    }

    #[test]
    fn submit_after_shutdown_is_rejected_not_silently_enqueued() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.submit(move |_| tx.send(1).expect("receiver alive"))
            .expect("live pool accepts jobs");
        assert_eq!(rx.recv().expect("job ran"), 1);
        pool.shutdown();
        let ran = Arc::new(AtomicUsize::new(0));
        let job_ran = Arc::clone(&ran);
        assert_eq!(
            pool.submit(move |_| {
                job_ran.fetch_add(1, Ordering::SeqCst);
            }),
            Err(JobRejected),
            "shut-down pool must reject, not enqueue"
        );
        drop(pool); // joins workers; the rejected job must never run
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn shutdown_drains_already_queued_jobs() {
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.submit(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .expect("pool accepts jobs");
        }
        pool.shutdown();
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn scratch_store_is_typed() {
        let mut store = ScratchStore::default();
        *store.get_mut::<usize>() = 5;
        *store.get_mut::<String>() = "hi".into();
        assert_eq!(*store.get_mut::<usize>(), 5);
        assert_eq!(store.get_mut::<String>(), "hi");
        store.clear();
        assert_eq!(*store.get_mut::<usize>(), 0);
    }
}
