//! A tiny thread-safe free-list of reusable scratch state.
//!
//! An engine that simulates every seed of a cached plan afresh (the DES
//! under `ScenarioPlan::execute` over many seeds) keeps its per-run working
//! state — event arenas, link schedules, tally vectors — in a
//! [`ScratchPool`] instead of reallocating it every run: take a box off
//! the pool (or build a fresh one on first use), reset it in place, run,
//! put it back. Concurrent executions on the lab's worker pool each take
//! their own box, so the pool grows to the peak concurrency and then stops
//! allocating.
//!
//! The pool deliberately knows nothing about the scratch type: resetting is
//! the caller's job, because only the engine knows which dimensions of the
//! scratch depend on the plan.

use std::sync::{Arc, Mutex};

/// A shared stack of `Box<T>` scratch values.
pub struct ScratchPool<T> {
    stack: Arc<Mutex<Vec<Box<T>>>>,
}

impl<T> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> ScratchPool<T> {
        ScratchPool {
            stack: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Pop a scratch value, if one is idle. `None` means the caller should
    /// build a fresh one (and [`put`](ScratchPool::put) it back when done).
    pub fn take(&self) -> Option<Box<T>> {
        self.stack.lock().expect("scratch pool poisoned").pop()
    }

    /// Return a scratch value to the pool for the next run.
    pub fn put(&self, scratch: Box<T>) {
        self.stack
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// Number of idle scratch values currently pooled.
    pub fn idle(&self) -> usize {
        self.stack.lock().expect("scratch pool poisoned").len()
    }
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool::new()
    }
}

// Clones share the same pool: a cloned engine reuses its sibling's scratch.
impl<T> Clone for ScratchPool<T> {
    fn clone(&self) -> Self {
        ScratchPool {
            stack: Arc::clone(&self.stack),
        }
    }
}

impl<T> std::fmt::Debug for ScratchPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("idle", &self.idle())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_round_trip_reuses_storage() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        assert!(pool.take().is_none());
        let mut v = Box::new(vec![0u64; 128]);
        let ptr = v.as_ptr();
        v.clear();
        pool.put(v);
        assert_eq!(pool.idle(), 1);
        let back = pool.take().expect("pooled value");
        assert_eq!(back.as_ptr(), ptr, "same allocation comes back");
        assert!(pool.take().is_none());
    }

    #[test]
    fn clones_share_the_pool() {
        let a: ScratchPool<u32> = ScratchPool::new();
        let b = a.clone();
        a.put(Box::new(7));
        assert_eq!(b.idle(), 1);
        assert_eq!(*b.take().unwrap(), 7);
        assert_eq!(a.idle(), 0);
    }
}
