//! The engine-owned table of counted traffic that analytic plans share.
//!
//! An environment, a spine taper or a degraded link changes a link's
//! capacity or latency, never which ranks talk over which links. So the
//! per-rank level of analytic costing, [`AnalyticEngine::count`], gives
//! the same [`Traffic`] for every plan with the same case, placement,
//! fabric shape and allreduce algorithm: one traffic key. A
//! [`TrafficTable`] keeps one shared entry per key, and each plan that
//! first executes through it settles the entry's counts at its own
//! capacities ([`AnalyticEngine::cost_from`]).
//!
//! - **Single-flight.** The entry's cell is a [`OnceLock`]: of the plans
//!   that first execute on one key together, one counts and the others
//!   wait for its counts.
//! - **Owned by plans.** A plan holds its entry for as long as it lives;
//!   the table holds only a weak reference. When the last plan holding an
//!   entry goes (evicted from a plan cache, or dropped by a caller), the
//!   entry drops its counts and leaves the table. There is no capacity to
//!   configure: the table never holds more entries than there are live
//!   plans that executed through it.
//! - **Free until used.** A new table allocates nothing; its map is built
//!   by the first costing that looks a key up. Compiling a plan never
//!   touches it.
//!
//! [`AnalyticEngine::count`]: harborsim_mpi::AnalyticEngine::count
//! [`AnalyticEngine::cost_from`]: harborsim_mpi::AnalyticEngine::cost_from

use harborsim_mpi::collectives::AllreduceAlgo;
use harborsim_mpi::{RankMap, Traffic};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};

/// Everything a plan's counted traffic depends on: the case (by its memo
/// key, which with the rank count fixes the job profile), the placement,
/// the fabric's nodes per leaf and the allreduce algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TrafficKey {
    pub(crate) case: Arc<str>,
    pub(crate) map: RankMap,
    pub(crate) nodes_per_leaf: u32,
    pub(crate) algo: AllreduceAlgo,
}

/// Point-in-time traffic table statistics (see [`TrafficTable::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Times a job's traffic was counted through this table.
    pub counted: u64,
    /// Keys in the table, each held by at least one plan.
    pub entries: usize,
    /// Heap bytes the entries' counts hold.
    pub stored_bytes: usize,
}

/// Shared counted traffic, one entry per traffic key; see the module
/// docs.
#[derive(Debug, Default)]
pub struct TrafficTable {
    map: OnceLock<Arc<Entries>>,
}

/// The table behind a [`TrafficTable`], which every entry points back to
/// so it can leave when its last plan goes.
#[derive(Debug, Default)]
struct Entries {
    live: Mutex<HashMap<TrafficKey, Weak<TrafficEntry>>>,
    counted: AtomicU64,
}

impl Entries {
    fn lock(&self) -> MutexGuard<'_, HashMap<TrafficKey, Weak<TrafficEntry>>> {
        // the map holds no invariant a panicking holder could break
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One key's shared traffic, held by every plan that executed on it.
#[derive(Debug)]
pub(crate) struct TrafficEntry {
    key: TrafficKey,
    table: Arc<Entries>,
    traffic: OnceLock<Traffic>,
}

impl TrafficEntry {
    /// The entry's traffic, counted by `count` if no plan has yet.
    pub(crate) fn traffic(&self, count: impl FnOnce() -> Traffic) -> &Traffic {
        self.traffic.get_or_init(|| {
            self.table.counted.fetch_add(1, Ordering::Relaxed);
            count()
        })
    }
}

impl Drop for TrafficEntry {
    /// Leave the table, unless a new entry already took the key.
    fn drop(&mut self) {
        let mut live = self.table.lock();
        if live.get(&self.key).is_some_and(|w| w.strong_count() == 0) {
            live.remove(&self.key);
        }
    }
}

impl TrafficTable {
    /// An empty table; allocates nothing.
    pub const fn new() -> TrafficTable {
        TrafficTable {
            map: OnceLock::new(),
        }
    }

    /// The live entry for `key`, or a new, uncounted one.
    pub(crate) fn entry(&self, key: TrafficKey) -> Arc<TrafficEntry> {
        let table = self.map.get_or_init(Arc::default);
        let mut live = table.lock();
        if let Some(entry) = live.get(&key).and_then(Weak::upgrade) {
            return entry;
        }
        let entry = Arc::new(TrafficEntry {
            key: key.clone(),
            table: Arc::clone(table),
            traffic: OnceLock::new(),
        });
        // replaces a dead entry whose drop has not yet taken the lock
        live.insert(key, Arc::downgrade(&entry));
        entry
    }

    /// Current statistics.
    pub fn stats(&self) -> TrafficStats {
        let Some(table) = self.map.get() else {
            return TrafficStats::default();
        };
        // upgrade under the lock, but drop outside it: the last holder's
        // drop takes the lock itself
        let held: Vec<Arc<TrafficEntry>> =
            table.lock().values().filter_map(Weak::upgrade).collect();
        TrafficStats {
            counted: table.counted.load(Ordering::Relaxed),
            entries: held.len(),
            stored_bytes: held
                .iter()
                .filter_map(|e| e.traffic.get())
                .map(Traffic::heap_bytes)
                .sum(),
        }
    }
}
