//! # harborsim-par
//!
//! Minimal data-parallel iterators over [`std::thread::scope`], covering
//! exactly the surface HarborSim uses: order-preserving `map().collect()`
//! over slices and vectors, and mutable chunk iteration for the solver
//! kernels (`par_chunks_mut` + `zip`/`enumerate`/`filter`/`for_each`).
//!
//! Execution is a **work-stealing pool**: every worker owns a deque
//! seeded with a contiguous block of item indices, pops its own work from
//! the back, and — once drained — steals from the *front* of its
//! neighbours. Scenario sweeps are skewed (a 256-node plan costs orders
//! of magnitude more than a 2-node plan), and the old one-fixed-chunk-
//! per-core split left most cores idle behind whichever chunk drew the
//! big points; stealing keeps them busy without giving up order: results
//! carry their index and are reassembled in input order at the end.
//! Every adapter is eager, so the item list is materialized before the
//! parallel stage runs; the implementation stays dependency-free and
//! deterministic in output order. The old fixed-chunk strategy survives
//! as [`run_chunked`] — the baseline the `engine_micro` bench compares
//! against.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Everything call sites need: the three extension traits.
pub mod prelude {
    pub use crate::{IntoParIter, ParChunksMutExt, ParIterExt};
}

fn worker_count(items: usize) -> usize {
    if items <= 1 {
        return 1;
    }
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(items)
}

/// Apply `f` to every item in parallel on the work-stealing pool,
/// returning results in input order.
pub fn run<I, U, F>(items: Vec<I>, f: F) -> Vec<U>
where
    I: Send,
    U: Send,
    F: Fn(I) -> U + Sync,
{
    run_on(worker_count(items.len()), items, f)
}

/// [`run`] on exactly `workers` threads (at most one per item), whatever
/// the host's parallelism — the seam tests use to force stealing.
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
    // Per-worker deques, block-seeded: worker w starts with a contiguous
    // index range, so the no-contention fast path preserves the locality
    // of the old fixed-chunk split.
    let per = n.div_ceil(workers);
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w * per..((w + 1) * per).min(n)).collect()))
        .collect();
    // Unclaimed-item count: workers exit once every index is claimed,
    // even while the final items are still executing elsewhere.
    let unclaimed = AtomicUsize::new(n);
    let (slots, deques, unclaimed, f) = (&slots, &deques, &unclaimed, &f);
    let mut results: Vec<Option<U>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut done: Vec<(usize, U)> = Vec::new();
                    loop {
                        // Own deque first (pop back: LIFO keeps the block
                        // warm), then steal from the front of the others
                        // (FIFO: take the victim's coldest work). The own
                        // pop is a statement of its own so its guard drops
                        // before any steal: holding it while locking a
                        // victim lets two stealers wait on each other.
                        let own = deques[w].lock().expect("deque lock poisoned").pop_back();
                        let idx = own.or_else(|| {
                            (1..workers)
                                .find_map(|d| deques[(w + d) % workers].lock().unwrap().pop_front())
                        });
                        match idx {
                            Some(i) => {
                                unclaimed.fetch_sub(1, Ordering::AcqRel);
                                let item = slots[i]
                                    .lock()
                                    .unwrap()
                                    .take()
                                    .expect("index dequeued twice");
                                done.push((i, f(item)));
                            }
                            None if unclaimed.load(Ordering::Acquire) == 0 => break,
                            // Queues momentarily empty mid-claim: let the
                            // claimant finish its pop before re-scanning.
                            None => thread::yield_now(),
                        }
                    }
                    done
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

/// The pre-stealing strategy: split items into one contiguous fixed chunk
/// per core, one thread per chunk, no load balancing. Kept as the
/// benchmark baseline for the work-stealing pool (see the `engine_micro`
/// bench's skewed-workload comparison); sweeps should use [`run`].
pub fn run_chunked<I, U, F>(items: Vec<I>, f: F) -> Vec<U>
where
    I: Send,
    U: Send,
    F: Fn(I) -> U + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let per = items.len().div_ceil(workers);
    let mut batches: Vec<Vec<I>> = Vec::with_capacity(workers);
    let mut it = items.into_iter();
    loop {
        let batch: Vec<I> = it.by_ref().take(per).collect();
        if batch.is_empty() {
            break;
        }
        batches.push(batch);
    }
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| scope.spawn(move || batch.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// An eager parallel iterator: adapters restructure the item list, the
/// terminal `for_each`/`map().collect()` runs it across threads.
pub struct ParItems<I> {
    items: Vec<I>,
}

impl<I: Send> ParItems<I> {
    /// Pair items positionally with another parallel iterator (truncates
    /// to the shorter side, like [`Iterator::zip`]).
    pub fn zip<J: Send>(self, other: ParItems<J>) -> ParItems<(I, J)> {
        ParItems {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Attach each item's index.
    pub fn enumerate(self) -> ParItems<(usize, I)> {
        ParItems {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Keep only items matching `pred`.
    pub fn filter<P: FnMut(&I) -> bool>(self, pred: P) -> ParItems<I> {
        ParItems {
            items: self.items.into_iter().filter(pred).collect(),
        }
    }

    /// Defer `f` to the parallel stage; finish with [`ParMap::collect`].
    pub fn map<U, F>(self, f: F) -> ParMap<I, F>
    where
        F: Fn(I) -> U + Sync,
        U: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Run `f` on every item in parallel.
    pub fn for_each<F: Fn(I) + Sync>(self, f: F) {
        run(self.items, f);
    }
}

/// A pending parallel map; [`ParMap::collect`] executes it.
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I: Send, F> ParMap<I, F> {
    /// Execute the map across threads and collect in input order.
    pub fn collect<U, B>(self) -> B
    where
        F: Fn(I) -> U + Sync,
        U: Send,
        B: FromIterator<U>,
    {
        run(self.items, self.f).into_iter().collect()
    }
}

/// `par_iter()` over shared slices (and anything that derefs to one).
pub trait ParIterExt<T> {
    /// Parallel iterator of `&T` in slice order.
    fn par_iter(&self) -> ParItems<&T>;
}

impl<T: Sync> ParIterExt<T> for [T] {
    fn par_iter(&self) -> ParItems<&T> {
        ParItems {
            items: self.iter().collect(),
        }
    }
}

/// `into_par_iter()` over owned collections.
pub trait IntoParIter {
    /// Item type handed to the parallel stage.
    type Item: Send;
    /// Consume `self` into a parallel iterator.
    fn into_par_iter(self) -> ParItems<Self::Item>;
}

impl<T: Send> IntoParIter for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParItems<T> {
        ParItems { items: self }
    }
}

/// `par_chunks_mut()` over mutable slices: disjoint windows that threads
/// may write concurrently.
pub trait ParChunksMutExt<T> {
    /// Parallel iterator of `&mut [T]` chunks of at most `size` elements.
    fn par_chunks_mut(&mut self, size: usize) -> ParItems<&mut [T]>;
}

impl<T: Send> ParChunksMutExt<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParItems<&mut [T]> {
        ParItems {
            items: self.chunks_mut(size).collect(),
        }
    }
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
        let xs: Vec<u64> = (0..1000).collect();
        let ys: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_owned() {
        let xs: Vec<String> = (0..64).map(|i| format!("item-{i}")).collect();
        let lens: Vec<usize> = xs.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens.len(), 64);
        assert_eq!(lens[0], 6);
        assert_eq!(lens[10], 7);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<i32> = Vec::<i32>::new().into_par_iter().map(|x| x).collect();
        assert!(none.is_empty());
        let one: Vec<i32> = vec![7].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn chunks_zip_enumerate_filter_matches_serial() {
        let plane = 16;
        let planes = 9;
        let mut a = vec![0.0_f64; plane * planes];
        let mut b = vec![0.0_f64; plane * planes];
        a.par_chunks_mut(plane)
            .zip(b.par_chunks_mut(plane))
            .enumerate()
            .filter(|(k, _)| *k >= 1 && *k < planes - 1)
            .for_each(|(k, (a_k, b_k))| {
                for (o, (x, y)) in a_k.iter_mut().zip(b_k.iter_mut()).enumerate() {
                    *x = (k * plane + o) as f64;
                    *y = -*x;
                }
            });
        // boundary planes untouched
        assert!(a[..plane].iter().all(|&x| x == 0.0));
        assert!(a[plane * (planes - 1)..].iter().all(|&x| x == 0.0));
        // interior written
        assert_eq!(a[plane + 3], (plane + 3) as f64);
        assert_eq!(b[plane + 3], -((plane + 3) as f64));
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
    fn stealing_and_chunked_agree() {
        let xs: Vec<u64> = (0..1000).collect();
        let a = run(xs.clone(), |x| x * x + 1);
        let b = run_chunked(xs, |x| x * x + 1);
        assert_eq!(a, b);
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
    fn for_each_visits_every_item_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits = AtomicU64::new(0);
        let xs: Vec<u64> = (1..=100).collect();
        xs.into_par_iter().for_each(|x| {
            hits.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5050);
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
