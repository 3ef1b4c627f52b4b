//! # harborsim-par
//!
//! Three dependency-free parallel primitives over [`std::thread`]:
//!
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

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

fn worker_count(items: usize) -> usize {
    if items <= 1 {
        return 1;
    }
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(items)
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
/// Jobs are `FnOnce() + Send + 'static` closures; submission never
/// blocks (the queue is unbounded — admission control belongs to the
/// caller, e.g. a bounded listener backlog). Dropping the pool closes
/// the queue, lets every queued job finish, and joins the workers.
pub struct WorkerPool {
    tx: Option<std::sync::mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

impl WorkerPool {
    /// A pool of exactly `workers` resident threads (min 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (tx, rx) = std::sync::mpsc::channel::<Job>();
        let rx = std::sync::Arc::new(Mutex::new(rx));
        let workers = (0..workers)
            .map(|_| {
                let rx = std::sync::Arc::clone(&rx);
                thread::spawn(move || loop {
                    // hold the lock only to receive: jobs run unlocked
                    let job = match rx.lock().unwrap().recv() {
                        Ok(job) => job,
                        Err(_) => return, // queue closed: drain done
                    };
                    job();
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of resident worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue one job; some idle worker will run it.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool queue lives as long as the pool")
            .send(Box::new(job))
            .expect("workers outlive the queue");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the queue: workers drain and exit
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
