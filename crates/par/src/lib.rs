//! # harborsim-par
//!
//! Three dependency-free parallel primitives over [`std::thread`], and
//! the process's thread budget:
//!
//! - [`parallelism`] is how many CPUs this process may run on;
//! - [`run`] maps a materialized batch on a scoped pool and returns the
//!   results in input order (scenario sweeps, batched executes);
//! - [`gang`] gives every item its own thread, for tasks that block on
//!   each other (the sharded DES driver);
//! - [`WorkerPool`] is a resident pool for work that arrives over time
//!   (the lab daemon's engine workers).
//!
//! [`run`]'s pool: the workers share one atomic claim cursor and each
//! takes the next unclaimed index until the cursor passes the end.
//! Scenario sweeps are skewed (a 256-node plan costs orders of magnitude
//! more than a 2-node plan); claiming one item at a time keeps every
//! worker busy until the batch is exhausted, whichever items are heavy,
//! without giving up order: results carry their index and are
//! reassembled in input order at the end.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

/// How many CPUs this process may run on, at least 1: the thread budget
/// that sizes [`run`] and the lab daemon's [`WorkerPool`].
///
/// This is [`thread::available_parallelism`], which reads the process's
/// CPU affinity mask and its cgroup's CPU quota, so a process pinned to
/// one CPU (`taskset -c 0`, a container's cpuset) gets 1 however many
/// the host has. More threads than that only time-slice the same CPUs,
/// and each costs its stack and its own malloc arena.
pub fn parallelism() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

fn worker_count(items: usize) -> usize {
    if items <= 1 {
        return 1;
    }
    parallelism().min(items)
}

/// Apply `f` to every item in parallel on the scoped pool, returning
/// results in input order.
pub fn run<I, U, F>(items: Vec<I>, f: F) -> Vec<U>
where
    I: Send,
    U: Send,
    F: Fn(I) -> U + Sync,
{
    run_on(worker_count(items.len()), items, f)
}

/// [`run`] on exactly `workers` threads (at most one per item), whatever
/// the host's parallelism — the seam tests use to force contention.
fn run_on<I, U, F>(workers: usize, items: Vec<I>, f: F) -> Vec<U>
where
    I: Send,
    U: Send,
    F: Fn(I) -> U + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Items live in index-addressed slots so a worker holding only a
    // shared reference can move one out once it has claimed the index.
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    // The claim cursor: `fetch_add` hands every index to exactly one
    // worker, and a worker exits once the cursor passes `n`. `Relaxed`
    // suffices: the read-modify-write alone makes each index unique, and
    // the slot's mutex orders the hand-off of the item itself.
    let next = AtomicUsize::new(0);
    let (slots, next, f) = (&slots, &next, &f);
    let mut results: Vec<Option<U>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done: Vec<(usize, U)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("slot lock poisoned")
                            .take()
                            .expect("index claimed twice");
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, u) in h.join().expect("parallel worker panicked") {
                results[i] = Some(u);
            }
        }
    });
    results
        .into_iter()
        .map(|u| u.expect("every index executes exactly once"))
        .collect()
}

/// Run every item on its own dedicated OS thread, returning results in
/// input order.
///
/// Unlike [`run`], which multiplexes items over at most one worker per
/// core, `gang` guarantees one thread per item — the contract tasks that
/// *synchronize with each other* need. The sharded DES driver blocks its
/// shard tasks on window barriers: under [`run`] on a small machine two
/// shards can land on one worker, and the first would park at a barrier
/// the second (never started) can never reach. Gangs are expected to be
/// small — one item per shard, not one per work unit. With fewer cores
/// than items the threads time-slice; that is slower but correct as long
/// as the tasks' synchronization spins politely (yields).
pub fn gang<I, U, F>(items: Vec<I>, f: F) -> Vec<U>
where
    I: Send,
    U: Send,
    F: Fn(I) -> U + Sync,
{
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gang worker panicked"))
            .collect()
    })
}

/// A resident pool of worker threads consuming boxed jobs from one
/// shared queue — the long-lived sibling of the scoped [`run`] pool,
/// for servers whose work arrives over time (the lab daemon's
/// connection handlers) instead of as one materialized batch.
///
/// Jobs are `FnOnce() + Send + 'static` closures and run in submission
/// order: a worker takes the oldest queued job. Submission never blocks
/// (the queue is unbounded — admission control belongs to the caller,
/// e.g. a bounded listener backlog), and a job may submit to its own
/// pool. A job that panics is reported by the panic hook, and its
/// worker goes on to the next job. Dropping the pool closes the queue,
/// lets every queued job finish, and joins the workers.
///
/// The queue is one mutex-guarded deque with a condition variable that
/// idle workers wait on. A submit wakes a worker only when one is
/// waiting: a worker that finishes a job takes the next one without
/// sleeping, so while every worker is busy a hand-off costs no wake-up
/// at all, and otherwise exactly one.
pub struct WorkerPool {
    queue: Arc<Queue>,
    workers: Vec<thread::JoinHandle<()>>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool's queue, shared by the pool and its workers.
struct Queue {
    state: Mutex<QueueState>,
    /// Idle workers wait here for a job or for the queue to close.
    ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Workers waiting on `ready`.
    idle: usize,
    /// Set by `Drop`: workers exit once `jobs` is empty.
    closed: bool,
}

impl Queue {
    /// The queue state. The lock is never held while a job runs, so no
    /// job's panic can poison it.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .expect("the pool queue is never held by a job")
    }

    /// A worker's life: run the oldest job, or wait while there is none,
    /// until the queue is closed and empty.
    fn work(&self) {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                // jobs run unlocked; a panicking job (reported by the
                // panic hook) must not take its worker along, or a
                // one-worker pool would queue every later job forever
                drop(state);
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                state = self.lock();
            } else if state.closed {
                return;
            } else {
                state.idle += 1;
                state = self
                    .ready
                    .wait(state)
                    .expect("the pool queue is never held by a job");
                state.idle -= 1;
            }
        }
    }
}

impl WorkerPool {
    /// A pool of exactly `workers` resident threads (min 1).
    /// `reproduce_all --serve` sizes the lab daemon's pool with
    /// [`parallelism`].
    pub fn new(workers: usize) -> WorkerPool {
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                idle: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || queue.work())
            })
            .collect();
        WorkerPool { queue, workers }
    }

    /// Number of resident worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue one job; it runs after every job submitted before it has
    /// started. Wakes one worker if one is idle.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.queue.lock();
        state.jobs.push_back(Box::new(job));
        let idle = state.idle > 0;
        drop(state);
        if idle {
            self.queue.ready.notify_one();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // close the queue: workers drain it and exit (a poisoned lock
        // still closes it, or the joins below would never return)
        let mut state = self.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.queue.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let ys: Vec<u64> = run((0..1000).collect(), |x: u64| x * 2);
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(run(Vec::<i32>::new(), |x| x).is_empty());
        assert_eq!(run(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn skewed_workload_preserves_order() {
        // One item orders of magnitude heavier than the rest — the shape
        // that starves a fixed-chunk split. Output order must still be
        // input order, every item exactly once.
        let xs: Vec<u64> = (0..257).collect();
        let ys: Vec<u64> = run(xs, |x| {
            let spins = if x == 0 { 200_000 } else { 50 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x * 3
        });
        assert_eq!(ys, (0..257).map(|x| x * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn gang_runs_mutually_blocking_tasks() {
        // Tasks that rendezvous at a barrier: correct only if every task
        // gets its own thread (run() would serialize them onto the
        // available workers and deadlock). Must hold on any core count.
        use std::sync::atomic::AtomicUsize;
        const N: usize = 4;
        let arrived = AtomicUsize::new(0);
        let arrived = &arrived;
        let out = gang((0..N).collect(), |i| {
            arrived.fetch_add(1, Ordering::AcqRel);
            while arrived.load(Ordering::Acquire) < N {
                thread::yield_now();
            }
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn worker_pool_runs_every_submitted_job() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let sum = Arc::new(AtomicU64::new(0));
        for x in 1..=100u64 {
            let sum = Arc::clone(&sum);
            pool.submit(move || {
                sum.fetch_add(x, Ordering::Relaxed);
            });
        }
        drop(pool); // joins: every queued job has run
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn worker_pool_clamps_to_one_worker() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(move || tx.send(42u8).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
    }

    /// A 1-worker pool whose worker is held by a job until the returned
    /// sender is dropped or sends.
    fn held_pool() -> (WorkerPool, std::sync::mpsc::Sender<()>) {
        let pool = WorkerPool::new(1);
        let (started, running) = std::sync::mpsc::channel();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        pool.submit(move || {
            started.send(()).expect("the test waits for the holder");
            let _ = gate.recv();
        });
        running.recv().expect("the holder runs");
        (pool, release)
    }

    #[test]
    fn jobs_queued_behind_a_busy_worker_run_in_submission_order() {
        let (pool, release) = held_pool();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..100 {
            let order = Arc::clone(&order);
            pool.submit(move || order.lock().unwrap().push(i));
        }
        assert!(order.lock().unwrap().is_empty(), "the only worker is busy");
        release.send(()).unwrap();
        drop(pool);
        assert_eq!(*order.lock().unwrap(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_job_can_submit_to_its_own_pool() {
        let pool = Arc::new(WorkerPool::new(1));
        let (tx, rx) = std::sync::mpsc::channel();
        let inner = Arc::clone(&pool);
        pool.submit(move || {
            let tx2 = tx.clone();
            inner.submit(move || tx2.send("inner").unwrap());
            // the last handle must drop on this thread, never on a worker
            drop(inner);
            tx.send("outer").unwrap();
        });
        let mut got = [rx.recv().unwrap(), rx.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, ["inner", "outer"]);
        Arc::try_unwrap(pool)
            .ok()
            .expect("the job dropped its handle before answering");
    }

    #[test]
    fn dropping_the_pool_runs_every_queued_job() {
        use std::sync::atomic::AtomicU64;
        let (pool, release) = held_pool();
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        // release the holder only once the drop has begun: every job is
        // still queued when the pool closes
        let pool = Arc::new(pool);
        let watch = Arc::downgrade(&pool);
        let releaser = {
            let ran = Arc::clone(&ran);
            thread::spawn(move || {
                while watch.upgrade().is_some() {
                    thread::yield_now();
                }
                assert_eq!(ran.load(Ordering::SeqCst), 0, "nothing ran yet");
                release.send(()).unwrap();
            })
        };
        drop(pool);
        releaser.join().expect("the releaser saw every job queued");
        assert_eq!(ran.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn a_panicking_job_leaves_its_worker_running() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("a job fails"));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(move || tx.send(7u8).unwrap());
        let after = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(after, Ok(7), "the only worker survives a panicking job");
    }

    #[test]
    fn parallelism_is_at_least_one() {
        assert!(parallelism() >= 1);
    }

    #[test]
    fn concurrent_steals_never_deadlock() {
        // Tiny batches on two workers make both drain at once and steal
        // from each other; a watchdog turns a deadlock into a failure.
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let batches = thread::spawn(move || {
            let _done = done; // dropped on return or panic: wakes the watchdog
            for batch in 0..20_000u64 {
                let out = run_on(2, vec![batch, batch + 1, batch + 2], |x| x * 2);
                assert_eq!(out, vec![batch * 2, batch * 2 + 2, batch * 2 + 4]);
            }
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(120));
        assert!(
            waited != Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "20 000 small batches did not finish in 120 s: steal deadlock"
        );
        batches
            .join()
            .expect("every batch returns its items doubled");
    }
}
