//! A 4-ary min-heap over packed `(time, tie)` keys, with a zero-delay lane.
//!
//! The pending-event set of the [`EventCore`](crate::core::EventCore) is a
//! flat pair of arrays: one `u128` key per entry (`time` in the high 64
//! bits, the caller's tie-breaker in the low 64) and one arena slot index.
//! Ordering a single integer instead of a struct keeps sift comparisons
//! branch-free, and the 4-ary layout halves the tree depth of a binary heap
//! — the shape that matters for the schedule-soon/pop-soon churn the MPI
//! protocol events produce, where entries rarely sink far.
//!
//! Much of that churn is zero-delay: a resource grant, a released
//! server's next waiter, a rank's first step. Such an entry fires at the
//! time of the last pop, and usually after every other entry already
//! scheduled for that instant, so it needs no sift at all. A push whose
//! time equals the last popped time and whose key is greater than the
//! lane's last key goes to a FIFO *lane* instead of the heap. The lane is
//! then sorted by construction, and every pop takes the smaller key of
//! the lane front and the heap root, so entries still pop in global key
//! order: the lane changes what a push costs, never which entry pops next.
//! A lane entry fires before time moves on, so the lane empties, and
//! rewinds, at every instant that scheduled into it.

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
/// structure-of-arrays layout, plus the zero-delay lane.
#[derive(Debug, Default)]
pub(crate) struct EventHeap {
    keys: Vec<u128>,
    slots: Vec<u32>,
    /// Zero-delay lane, ascending by key; entries before `lane_head` have
    /// popped.
    lane: Vec<(u128, u32)>,
    lane_head: usize,
    /// Time of the last pop, the only time the lane accepts.
    last: SimTime,
}

impl EventHeap {
    pub(crate) fn new() -> Self {
        EventHeap::default()
    }

    /// Pending entries, lane included.
    pub(crate) fn len(&self) -> usize {
        self.keys.len() + self.lane.len() - self.lane_head
    }

    /// Drop all entries and rewind the lane's time, keeping the
    /// allocations (core reuse).
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
        self.lane.clear();
        self.lane_head = 0;
        self.last = SimTime::ZERO;
    }

    /// Insert `slot` under a [`pack`]ed key (time in the high 64 bits, the
    /// tie-breaker in the low 64); callers must keep coexisting keys
    /// distinct. An entry at the last popped time that sorts after the
    /// lane's last entry joins the lane; any other goes into the heap.
    #[inline]
    pub(crate) fn push_keyed(&mut self, key: u128, slot: u32) {
        if unpack_time(key) == self.last && self.lane.last().is_none_or(|&(back, _)| key > back) {
            self.lane.push((key, slot));
            return;
        }
        self.keys.push(key);
        self.slots.push(slot);
        self.sift_up(self.keys.len() - 1);
    }

    /// Key of the lane's front entry.
    #[inline]
    fn lane_front(&self) -> Option<u128> {
        self.lane.get(self.lane_head).map(|&(key, _)| key)
    }

    /// Time of the earliest entry.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        match (self.lane_front(), self.keys.first()) {
            (Some(l), Some(&h)) => Some(unpack_time(l.min(h))),
            (Some(k), None) | (None, Some(&k)) => Some(unpack_time(k)),
            (None, None) => None,
        }
    }

    /// Remove and return the earliest entry's `(time, slot)`.
    /// The core itself always pops through [`EventHeap::pop_within`].
    #[cfg(test)]
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.pop_within(SimTime::MAX)
    }

    /// [`EventHeap::pop`], unless the earliest entry is after `horizon` (or
    /// the set is empty): one key comparison picks the lane front or the
    /// heap root, and its time answers the horizon, so the event loop
    /// pays no separate peek per iteration.
    #[inline]
    pub(crate) fn pop_within(&mut self, horizon: SimTime) -> Option<(SimTime, u32)> {
        if let Some(key) = self.lane_front() {
            if self.keys.first().is_none_or(|&root| key < root) {
                let at = unpack_time(key);
                if at > horizon {
                    return None;
                }
                let slot = self.lane[self.lane_head].1;
                self.lane_head += 1;
                if self.lane_head == self.lane.len() {
                    self.lane.clear();
                    self.lane_head = 0;
                }
                self.last = at;
                return Some((at, slot));
            }
        }
        let key = *self.keys.first()?;
        let at = unpack_time(key);
        if at > horizon {
            return None;
        }
        self.last = at;
        Some((at, self.remove_root()))
    }

    /// Remove the root entry (which must exist), returning its slot.
    ///
    /// The last entry refills the root's place bottom-up: the hole left by
    /// the root descends along the smaller children to a leaf, and the
    /// last entry is sifted up from there. The last entry is one of the
    /// latest, so it seldom rises, and the descent saves the per-level
    /// comparison against it that a top-down sift pays.
    #[inline]
    fn remove_root(&mut self) -> u32 {
        let slot = self.slots[0];
        let (Some(key), Some(last)) = (self.keys.pop(), self.slots.pop()) else {
            unreachable!("remove_root on an empty heap");
        };
        if self.keys.is_empty() {
            return slot;
        }
        let n = self.keys.len();
        let mut i = 0;
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
            self.keys[i] = self.keys[min_c];
            self.slots[i] = self.slots[min_c];
            i = min_c;
        }
        self.keys[i] = key;
        self.slots[i] = last;
        self.sift_up(i);
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
    fn lane_takes_same_instant_pushes_and_pops_merge_in_key_order() {
        let mut h = EventHeap::new();
        h.push_keyed(pack(SimTime(5), 0), 0);
        h.push_keyed(pack(SimTime(5), 7), 1);
        h.push_keyed(pack(SimTime(9), 0), 2);
        // the time-0 lane refused none of these: they are later
        assert_eq!(h.lane.len(), 0);
        assert_eq!(h.pop(), Some((SimTime(5), 0)));
        h.push_keyed(pack(SimTime(5), 10), 3); // lane
        h.push_keyed(pack(SimTime(5), 3), 4); // below the lane's back: heap
        h.push_keyed(pack(SimTime(5), 11), 5); // lane
        h.push_keyed(pack(SimTime(6), 12), 6); // later: heap
        assert_eq!(h.lane.len(), 2);
        assert_eq!(h.len(), 6);
        assert_eq!(h.peek_time(), Some(SimTime(5)));
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(_, s)| s)).collect();
        assert_eq!(order, vec![4, 1, 3, 5, 6, 2]);
        assert_eq!(
            (h.lane.len(), h.lane_head),
            (0, 0),
            "a drained lane rewinds"
        );
    }

    #[test]
    fn lane_entries_answer_the_horizon_and_clear() {
        let mut h = EventHeap::new();
        h.push_keyed(pack(SimTime(0), 1), 0); // time 0 is the first lane time
        h.push_keyed(pack(SimTime(4), 0), 1);
        assert_eq!(h.lane.len(), 1);
        assert_eq!(h.peek_time(), Some(SimTime::ZERO));
        assert_eq!(h.pop_within(SimTime(3)), Some((SimTime::ZERO, 0)));
        assert_eq!(h.pop_within(SimTime(3)), None);
        assert_eq!(h.pop_within(SimTime(4)), Some((SimTime(4), 1)));
        h.push_keyed(pack(SimTime(4), 1), 2);
        assert_eq!(h.len(), 1);
        h.clear();
        assert_eq!((h.len(), h.peek_time()), (0, None));
        // clearing rewinds the lane's time to zero
        h.push_keyed(pack(SimTime(0), 0), 3);
        assert_eq!(h.lane.len(), 1);
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

    #[test]
    fn random_push_pop_interleaving_matches_a_sorted_set() {
        use std::collections::BTreeSet;
        let mut rng = crate::rng::RngStream::new(0x1A4E);
        for _ in 0..50 {
            let mut h = EventHeap::new();
            let mut want: BTreeSet<(u128, u32)> = BTreeSet::new();
            let mut now = 0u64;
            for i in 0..400u32 {
                if rng.below(3) > 0 {
                    // half the pushes land on the current instant; ties are
                    // random, so some sort before the lane's back
                    let t = now + if rng.below(2) == 0 { 0 } else { rng.below(20) };
                    let key = pack(SimTime(t), rng.below(1 << 20) << 12 | u64::from(i));
                    h.push_keyed(key, i);
                    want.insert((key, i));
                } else {
                    let got = h.pop();
                    let expect = want.pop_first().map(|(k, s)| (unpack_time(k), s));
                    assert_eq!(got, expect);
                    if let Some((t, _)) = got {
                        now = t.0;
                    }
                }
                assert_eq!(h.len(), want.len());
                let first = want.first().map(|&(k, _)| unpack_time(k));
                assert_eq!(h.peek_time(), first);
            }
        }
    }
}
