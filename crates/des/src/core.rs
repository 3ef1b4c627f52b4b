//! The event core: slab + keyed 4-ary heap with a zero-delay lane + clock.
//!
//! [`EventCore`] is the one pending-event set of the kernel: an event
//! arena, a min-heap, and a local clock, with a caller-owned loop. The
//! serial [`Engine`](crate::Engine) is a thin run loop over one core; a
//! parallel discrete-event simulation holds one core *per shard*, which is
//! what conservative synchronization needs: each shard pops only events
//! inside the current safe horizon via [`EventCore::pop_within`] and parks
//! at a barrier until a new horizon is agreed.
//!
//! Ordering is by a caller-packed key: `(time, tie)`. The engine's tie is
//! its scheduling sequence number; the sharded MPI engine's tie carries a
//! layout-invariant `(source domain, per-domain sequence)` pair. Because
//! that key is a pure function of *which domain scheduled the event and in
//! what order*, the global pop order of the union of all shards' cores is
//! identical for every shard count — the property the serial-vs-sharded
//! differential test pins.
//!
//! Zero-delay schedules skip the heap. An event scheduled at the instant
//! of the last pop, with a key above every other such event still
//! pending, joins a FIFO lane beside the heap, and each pop takes the
//! smaller key of the lane front and the heap root. Resource grants and
//! same-instant wake-ups cost an append instead of a sift, and the pop
//! order stays the global key order: every user of the core (the serial
//! engine, the sharded MPI engine, deployment, the schedulers,
//! [`FluidLink`](crate::FluidLink)) keeps its exact schedule. [`len`],
//! [`is_empty`], [`min_time`] and [`reset`] all count the lane.
//!
//! Cancellation is an O(1) generation bump in the arena: the heap or lane
//! entry stays behind as a tombstone that [`EventCore::pop_within`] skips.
//!
//! [`len`]: EventCore::len
//! [`is_empty`]: EventCore::is_empty
//! [`min_time`]: EventCore::min_time
//! [`reset`]: EventCore::reset

use crate::arena::EventArena;
use crate::heap::{pack, EventHeap};
use crate::time::SimTime;

/// Handle to a scheduled event, returned by [`EventCore::schedule_keyed`].
/// The handle is `(slot, generation)` into the core's event arena;
/// cancelling a fired or already-cancelled event fails the generation
/// check and is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

/// One pending-event set and its clock.
///
/// Events are plain values (`E`); scheduling stores them in a slab and
/// orders bare slot indices, so the hot loop never moves payloads.
#[derive(Debug)]
pub struct EventCore<E> {
    now: SimTime,
    heap: EventHeap,
    arena: EventArena<E>,
}

impl<E> Default for EventCore<E> {
    fn default() -> Self {
        EventCore::new()
    }
}

impl<E> EventCore<E> {
    /// An empty core at time zero.
    pub fn new() -> Self {
        EventCore {
            now: SimTime::ZERO,
            heap: EventHeap::new(),
            arena: EventArena::new(),
        }
    }

    /// Current simulation time: the timestamp of the last event popped
    /// (zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events, cancelled tombstones included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events (live or cancelled) are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.len() == 0
    }

    /// Schedule `ev` at absolute time `at`, tie-broken by `tie` (smaller
    /// fires first among equal times), returning a handle that can cancel
    /// it before it fires. Coexisting `(at, tie)` pairs must be distinct.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, tie: u64, ev: E) -> EventId {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let (slot, generation) = self.arena.insert(ev);
        self.heap.push_keyed(pack(at, tie), slot);
        EventId { slot, generation }
    }

    /// Cancel a scheduled event. Cancelling an event that already fired
    /// (or was already cancelled) is a no-op.
    #[inline]
    pub fn cancel(&mut self, id: EventId) {
        self.arena.cancel(id.slot, id.generation);
    }

    /// Timestamp of the earliest pending entry (possibly a tombstone).
    #[inline]
    pub fn min_time(&self) -> Option<SimTime> {
        self.heap.peek_time()
    }

    /// Pop the earliest live event if it fires at or before `horizon`,
    /// advancing the clock to its timestamp; cancelled tombstones on the
    /// way are dropped without touching the clock. `None` means the next
    /// event (if any) lies beyond the horizon — a shard must
    /// re-synchronize before it may process further.
    #[inline]
    pub fn pop_within(&mut self, horizon: SimTime) -> Option<E> {
        loop {
            let (at, slot) = self.heap.pop_within(horizon)?;
            if let Some(ev) = self.arena.take(slot) {
                self.now = at;
                return Some(ev);
            }
        }
    }

    /// Drop all pending events and rewind the clock, keeping allocations
    /// (shard reuse across runs). Outstanding [`EventId`]s are invalidated.
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.heap.clear();
        self.arena.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_tie_order() {
        let mut c: EventCore<u32> = EventCore::new();
        c.schedule_keyed(SimTime(20), 1, 0);
        c.schedule_keyed(SimTime(10), 9, 1);
        c.schedule_keyed(SimTime(10), 2, 2);
        c.schedule_keyed(SimTime(30), 0, 3);
        let mut got = Vec::new();
        while let Some(ev) = c.pop_within(SimTime::MAX) {
            got.push((c.now().0, ev));
        }
        assert_eq!(got, vec![(10, 2), (10, 1), (20, 0), (30, 3)]);
    }

    #[test]
    fn horizon_blocks_later_events() {
        let mut c: EventCore<&'static str> = EventCore::new();
        c.schedule_keyed(SimTime(5), 0, "early");
        c.schedule_keyed(SimTime(50), 0, "late");
        assert_eq!(c.pop_within(SimTime(10)), Some("early"));
        assert_eq!(c.pop_within(SimTime(10)), None);
        assert_eq!(c.now(), SimTime(5), "a refused pop must not advance time");
        assert_eq!(c.min_time(), Some(SimTime(50)));
        assert_eq!(c.pop_within(SimTime(50)), Some("late"));
        assert!(c.is_empty());
    }

    #[test]
    fn reset_rewinds_and_clears() {
        let mut c: EventCore<u8> = EventCore::new();
        c.schedule_keyed(SimTime(7), 0, 1);
        assert_eq!(c.pop_within(SimTime::MAX), Some(1));
        c.schedule_keyed(SimTime(9), 0, 2);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.min_time(), None);
        c.schedule_keyed(SimTime(1), 0, 3);
        assert_eq!(c.pop_within(SimTime::MAX), Some(3));
    }

    #[test]
    fn cancelled_events_are_skipped_without_advancing_time() {
        let mut c: EventCore<u8> = EventCore::new();
        let early = c.schedule_keyed(SimTime(5), 0, 1);
        c.schedule_keyed(SimTime(9), 1, 2);
        c.cancel(early);
        assert_eq!(c.len(), 2, "the tombstone stays queued until popped");
        assert_eq!(c.pop_within(SimTime(6)), None);
        assert_eq!(
            c.now(),
            SimTime::ZERO,
            "a tombstone pop must not advance time"
        );
        assert_eq!(c.pop_within(SimTime::MAX), Some(2));
        c.cancel(early); // stale: already gone
        assert!(c.is_empty());
    }
}
