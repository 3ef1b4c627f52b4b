//! FIFO server pools with finite capacity.
//!
//! A [`CoreResource`] models anything that serves at most `capacity` users
//! at a time and queues the rest in arrival order: a node's NIC send
//! engine, a switch pipe, a bridge, a registry's connection limit, the
//! Docker daemon's single build lock.

use std::collections::VecDeque;

/// A finite-capacity FIFO resource decoupled from any engine.
///
/// `acquire`/`release` return the continuation to grant instead of
/// scheduling it, so the same resource works on an [`Engine`](crate::Engine)
/// and inside a per-shard [`EventCore`](crate::EventCore) loop, where
/// scheduling needs a shard-assigned event key the resource cannot know.
/// `Some(cont)` means the caller must schedule `cont` now with zero delay,
/// so grants interleave deterministically with other same-instant events;
/// `None` from `acquire` means the request was queued.
#[derive(Debug)]
pub struct CoreResource<E> {
    capacity: u32,
    in_use: u32,
    waiters: VecDeque<E>,
}

impl<E> CoreResource<E> {
    /// A resource with `capacity` simultaneous servers.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "resource capacity must be positive");
        CoreResource {
            capacity,
            in_use: 0,
            waiters: VecDeque::new(),
        }
    }

    /// Return the resource to its initial state with `capacity` servers,
    /// keeping the waiter queue's allocation (scratch-pool reuse).
    pub fn reset(&mut self, capacity: u32) {
        assert!(capacity > 0, "resource capacity must be positive");
        self.capacity = capacity;
        self.in_use = 0;
        self.waiters.clear();
    }

    /// Request one server. `Some(cont)` hands the continuation back for
    /// the caller to schedule immediately (a server was free); `None`
    /// means it was queued and will come back out of a later `release`.
    #[inline]
    #[must_use = "a granted continuation must be scheduled"]
    pub fn acquire(&mut self, cont: E) -> Option<E> {
        if self.in_use < self.capacity {
            self.in_use += 1;
            Some(cont)
        } else {
            self.waiters.push_back(cont);
            None
        }
    }

    /// Return one server. `Some(cont)` is the oldest waiter, now granted,
    /// for the caller to schedule immediately.
    ///
    /// # Panics
    /// Panics if no server is currently held.
    #[inline]
    #[must_use = "a granted continuation must be scheduled"]
    pub fn release(&mut self) -> Option<E> {
        assert!(self.in_use > 0, "release without matching acquire");
        let granted = self.waiters.pop_front();
        if granted.is_none() {
            self.in_use -= 1;
        }
        granted
    }

    /// Servers currently held.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Event, SimDuration};

    /// Unit jobs through one resource on an engine: each arrives at zero,
    /// holds a server for `HOLD`, and logs `(idx, finish time)`.
    struct St {
        res: CoreResource<Ev>,
        finish: Vec<(u32, f64)>,
    }

    #[derive(Clone, Copy)]
    enum Ev {
        Arrive(u32),
        Granted(u32),
        Done(u32),
    }

    const HOLD: SimDuration = SimDuration::from_secs(1);

    impl Event<St> for Ev {
        fn fire(self, eng: &mut Engine<St, Ev>, st: &mut St) {
            let granted = match self {
                Ev::Arrive(i) => st.res.acquire(Ev::Granted(i)),
                Ev::Granted(i) => {
                    eng.schedule_event(HOLD, Ev::Done(i));
                    None
                }
                Ev::Done(i) => {
                    st.finish.push((i, eng.now().as_secs_f64()));
                    st.res.release()
                }
            };
            if let Some(cont) = granted {
                eng.schedule_event(SimDuration::ZERO, cont);
            }
        }
    }

    fn serve(capacity: u32, jobs: u32) -> St {
        let mut eng = Engine::new();
        let mut st = St {
            res: CoreResource::new(capacity),
            finish: Vec::new(),
        };
        for i in 0..jobs {
            eng.schedule_event(SimDuration::ZERO, Ev::Arrive(i));
        }
        eng.run(&mut st);
        st
    }

    #[test]
    fn fifo_order_preserved() {
        let st = serve(1, 5);
        assert_eq!(
            st.finish,
            vec![(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)]
        );
        assert_eq!(st.res.in_use(), 0);
        assert_eq!(st.res.queue_len(), 0);
    }

    #[test]
    fn capacity_two_runs_pairs_concurrently() {
        let st = serve(2, 4);
        // pairs (0,1) finish at t=1, pairs (2,3) at t=2
        assert_eq!(st.finish, vec![(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]);
    }

    #[test]
    fn core_resource_fifo_and_reset() {
        let mut r: CoreResource<u32> = CoreResource::new(2);
        assert_eq!(r.acquire(0), Some(0));
        assert_eq!(r.acquire(1), Some(1));
        assert_eq!(r.acquire(2), None, "at capacity: queued");
        assert_eq!(r.acquire(3), None);
        assert_eq!(r.queue_len(), 2);
        assert_eq!(r.in_use(), 2);
        // releases grant the waiters oldest-first, keeping servers busy
        assert_eq!(r.release(), Some(2));
        assert_eq!(r.in_use(), 2);
        assert_eq!(r.release(), Some(3));
        assert_eq!(r.release(), None);
        assert_eq!(r.in_use(), 1);
        r.reset(1);
        assert_eq!(r.in_use(), 0);
        assert_eq!(r.queue_len(), 0);
        assert_eq!(r.acquire(9), Some(9));
        assert_eq!(r.acquire(10), None, "reset capacity applies");
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn release_without_acquire_panics() {
        let mut r: CoreResource<u32> = CoreResource::new(1);
        let _ = r.release();
    }
}
