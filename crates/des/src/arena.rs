//! A slab arena for pending events.
//!
//! Every scheduled event lives in a slot of this arena until it fires or is
//! cancelled; the heap orders bare slot indices, so the hot loop never moves
//! payloads around. Slots carry a generation counter: an
//! [`EventId`](crate::core::EventId) is `(slot, generation)`, cancellation
//! is an O(1) generation bump that empties the payload in place, and a stale
//! handle (the event already fired, or the slot was recycled) simply fails
//! the generation check. Cancelled slots are *lazily* freed — the heap entry
//! still points at them, so they rejoin the free list only when that entry
//! pops as a tombstone. Free slots form an intrusive list through
//! `next_free`, so steady-state schedule/pop churn reuses storage instead of
//! allocating.

#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    next_free: u32,
    payload: Option<E>,
}

const NIL: u32 = u32::MAX;

#[derive(Debug)]
pub(crate) struct EventArena<E> {
    slots: Vec<Slot<E>>,
    free_head: u32,
}

impl<E> Default for EventArena<E> {
    fn default() -> Self {
        EventArena {
            slots: Vec::new(),
            free_head: NIL,
        }
    }
}

impl<E> EventArena<E> {
    pub(crate) fn new() -> Self {
        EventArena::default()
    }

    /// Store `payload`, returning `(slot, generation)`.
    #[inline]
    pub(crate) fn insert(&mut self, payload: E) -> (u32, u32) {
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.payload.is_none(), "free slot holds a payload");
            self.free_head = s.next_free;
            s.payload = Some(payload);
            (slot, s.generation)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("event arena overflow");
            self.slots.push(Slot {
                generation: 0,
                next_free: NIL,
                payload: Some(payload),
            });
            (slot, 0)
        }
    }

    /// Remove and return the payload as its heap entry pops, freeing the
    /// slot. `None` means the entry was a cancelled tombstone.
    pub(crate) fn take(&mut self, slot: u32) -> Option<E> {
        let s = &mut self.slots[slot as usize];
        let payload = s.payload.take();
        // Invalidate outstanding handles (cancel-after-fire is a no-op) and
        // recycle the slot.
        s.generation = s.generation.wrapping_add(1);
        s.next_free = self.free_head;
        self.free_head = slot;
        payload
    }

    /// Cancel the event in `slot` if `generation` still matches. The slot
    /// stays out of the free list until its heap entry pops.
    #[inline]
    pub(crate) fn cancel(&mut self, slot: u32, generation: u32) {
        if let Some(s) = self.slots.get_mut(slot as usize) {
            if s.generation == generation && s.payload.is_some() {
                s.payload = None;
                s.generation = s.generation.wrapping_add(1);
            }
        }
    }

    /// Drop all payloads and rebuild the free list, keeping the slot
    /// storage (core reuse). Generations advance so pre-reset handles
    /// cannot alias post-reset events.
    pub(crate) fn clear(&mut self) {
        self.free_head = NIL;
        for (i, s) in self.slots.iter_mut().enumerate().rev() {
            if s.payload.take().is_some() {
                s.generation = s.generation.wrapping_add(1);
            }
            s.next_free = self.free_head;
            self.free_head = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_reused_after_take() {
        let mut a: EventArena<u32> = EventArena::new();
        let (s0, g0) = a.insert(10);
        assert_eq!(a.take(s0), Some(10));
        let (s1, g1) = a.insert(20);
        assert_eq!(s1, s0, "freed slot must be reused");
        assert_ne!(g1, g0, "reuse must advance the generation");
    }

    #[test]
    fn cancel_with_stale_generation_is_noop() {
        let mut a: EventArena<u32> = EventArena::new();
        let (s, g) = a.insert(1);
        assert_eq!(a.take(s), Some(1));
        let (s2, _) = a.insert(2);
        assert_eq!(s2, s);
        a.cancel(s, g); // stale handle from the first event
        assert_eq!(
            a.take(s),
            Some(2),
            "stale cancel must not hit the new event"
        );
    }

    #[test]
    fn cancelled_slot_freed_only_on_take() {
        let mut a: EventArena<u32> = EventArena::new();
        let (s, g) = a.insert(1);
        a.cancel(s, g);
        // not yet free: a new insert must take a fresh slot
        let (s2, _) = a.insert(2);
        assert_ne!(s2, s);
        assert_eq!(a.take(s), None, "tombstone pop yields no payload");
        let (s3, _) = a.insert(3);
        assert_eq!(s3, s, "slot rejoins the free list after the tombstone pop");
    }

    #[test]
    fn clear_keeps_capacity_and_invalidates_handles() {
        let mut a: EventArena<u32> = EventArena::new();
        let ids: Vec<_> = (0..8).map(|i| a.insert(i)).collect();
        a.clear();
        for (s, g) in ids {
            a.cancel(s, g); // all stale now
        }
        let (s, _) = a.insert(99);
        assert_eq!(a.take(s), Some(99));
    }
}
