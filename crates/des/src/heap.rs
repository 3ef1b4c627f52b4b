//! A 4-ary min-heap over packed `(time, tie)` keys.
//!
//! The pending-event set of the [`EventCore`](crate::core::EventCore) is a
//! flat pair of arrays: one `u128` key per entry (`time` in the high 64
//! bits, the caller's tie-breaker in the low 64) and one arena slot index.
//! Ordering a single integer instead of a struct keeps sift comparisons
//! branch-free, and the 4-ary layout halves the tree depth of a binary heap
//! — the shape that matters for the schedule-soon/pop-soon churn the MPI
//! protocol events produce, where entries rarely sink far.

use crate::time::SimTime;

/// The heap key of an entry firing at `at` with tie-breaker `tie`.
#[inline]
pub(crate) fn pack(at: SimTime, tie: u64) -> u128 {
    ((at.0 as u128) << 64) | tie as u128
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// The pending-event set: a min-heap of `(key, slot)` pairs in
/// structure-of-arrays layout.
#[derive(Debug, Default)]
pub(crate) struct EventHeap {
    keys: Vec<u128>,
    slots: Vec<u32>,
}

impl EventHeap {
    pub(crate) fn new() -> Self {
        EventHeap::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Drop all entries but keep the allocations (core reuse).
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
    }

    /// Insert `slot` under a [`pack`]ed key (time in the high 64 bits, the
    /// tie-breaker in the low 64); callers must keep coexisting keys
    /// distinct.
    #[inline]
    pub(crate) fn push_keyed(&mut self, key: u128, slot: u32) {
        self.keys.push(key);
        self.slots.push(slot);
        self.sift_up(self.keys.len() - 1);
    }

    /// Time of the earliest entry.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&k| unpack_time(k))
    }

    /// Remove and return the earliest entry's `(time, slot)`.
    /// The core itself always pops through [`EventHeap::pop_within`].
    #[cfg(test)]
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let key = *self.keys.first()?;
        Some((unpack_time(key), self.remove_root()))
    }

    /// [`EventHeap::pop`], unless the earliest entry is after `horizon` (or
    /// the heap is empty): one root-key load answers both questions, so the
    /// event loop pays no separate peek per iteration.
    #[inline]
    pub(crate) fn pop_within(&mut self, horizon: SimTime) -> Option<(SimTime, u32)> {
        let key = *self.keys.first()?;
        let at = unpack_time(key);
        if at > horizon {
            return None;
        }
        Some((at, self.remove_root()))
    }

    /// Remove the root entry (which must exist), returning its slot.
    #[inline]
    fn remove_root(&mut self) -> u32 {
        let slot = self.slots[0];
        self.keys.swap_remove(0);
        self.slots.swap_remove(0);
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        slot
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        let slot = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[i] = self.keys[parent];
            self.slots[i] = self.slots[parent];
            i = parent;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.keys.len();
        let key = self.keys[i];
        let slot = self.slots[i];
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            // min child: a full node uses a 2+1 comparison tournament (the
            // two halves race independently, shortening the dependency
            // chain); a partial node scans. Keys are unique, so ties never
            // arise and `<=`/`<` choices cannot change the result.
            let min_c = if first + 4 <= n {
                let c = &self.keys[first..first + 4];
                let lo = usize::from(c[1] < c[0]);
                let hi = 2 + usize::from(c[3] < c[2]);
                first + if c[hi] < c[lo] { hi } else { lo }
            } else {
                let mut m = first;
                for c in first + 1..n {
                    if self.keys[c] < self.keys[m] {
                        m = c;
                    }
                }
                m
            };
            let min_key = self.keys[min_c];
            if key <= min_key {
                break;
            }
            self.keys[i] = min_key;
            self.slots[i] = self.slots[min_c];
            i = min_c;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut h = EventHeap::new();
        for (i, (t, tie)) in [(30u64, 0u64), (10, 1), (20, 2), (10, 3), (5, 4)]
            .into_iter()
            .enumerate()
        {
            h.push_keyed(pack(SimTime(t), tie), i as u32);
        }
        let mut order = Vec::new();
        while let Some((t, s)) = h.pop() {
            order.push((t.0, s));
        }
        // time-sorted, the two t=10 entries by tie
        assert_eq!(order, vec![(5, 4), (10, 1), (10, 3), (20, 2), (30, 0)]);
    }

    #[test]
    fn pop_within_refuses_later_entries() {
        let mut h = EventHeap::new();
        h.push_keyed(pack(SimTime(7), 0), 3);
        assert_eq!(h.pop_within(SimTime(6)), None);
        assert_eq!(h.peek_time(), Some(SimTime(7)));
        assert_eq!(h.pop_within(SimTime(7)), Some((SimTime(7), 3)));
        assert_eq!(h.pop_within(SimTime::MAX), None);
    }

    #[test]
    fn random_interleaving_matches_sort() {
        let mut rng = crate::rng::RngStream::new(0x4EA9);
        for _ in 0..50 {
            let mut h = EventHeap::new();
            let n = 1 + rng.below(200) as usize;
            let mut expect: Vec<(u64, u32)> = Vec::new();
            for i in 0..n {
                let t = rng.below(50);
                h.push_keyed(pack(SimTime(t), i as u64), i as u32);
                expect.push((t, i as u32));
            }
            expect.sort(); // (time, tie) order, the tie being the index
            let mut got = Vec::new();
            while let Some((t, s)) = h.pop() {
                got.push((t.0, s));
            }
            assert_eq!(got, expect);
        }
    }
}
