//! The event loop.
//!
//! An [`Engine<S, E>`] owns the simulated clock and the pending-event set;
//! the user owns a state value `S` and an event type `E` — usually a
//! plain `enum` of the model's event kinds — that implements [`Event`].
//! Firing an event hands it the engine and the state mutably, so events
//! can both mutate the model and schedule further events.
//!
//! ```
//! use harborsim_des::{Engine, Event, SimDuration};
//!
//! #[derive(Clone, Copy)]
//! enum Ev {
//!     First,
//!     Second,
//! }
//!
//! impl Event<u32> for Ev {
//!     fn fire(self, eng: &mut Engine<u32, Ev>, count: &mut u32) {
//!         match self {
//!             Ev::First => {
//!                 *count += 1;
//!                 // chain another event 500ms later
//!                 eng.schedule_event(SimDuration::from_millis(500), Ev::Second);
//!             }
//!             Ev::Second => *count += 10,
//!         }
//!     }
//! }
//!
//! let mut engine: Engine<u32, Ev> = Engine::new();
//! engine.schedule_event(SimDuration::from_secs(1), Ev::First);
//! let mut count = 0;
//! engine.run(&mut count);
//! assert_eq!(count, 11);
//! assert_eq!(engine.now().as_secs_f64(), 1.5);
//! ```
//!
//! The engine is a thin run loop over one [`EventCore`]: payloads live in
//! the core's slab arena with free-list reuse, the heap orders packed
//! `(time, sequence)` integers, and the steady-state loop performs **zero**
//! heap allocations. The only state the engine adds is the sequence
//! counter that makes same-instant events fire in scheduling order; it
//! restarts whenever the queue has drained, so long runs cannot creep
//! toward overflow and replays restart from an identical sequence stream.
//! Cancellation is the core's O(1) generation bump.

use crate::core::{EventCore, EventId};
use crate::time::{SimDuration, SimTime};
use std::marker::PhantomData;

/// A typed event: fired by value, with the engine and user state in hand.
pub trait Event<S>: Sized {
    /// Execute the event.
    fn fire(self, eng: &mut Engine<S, Self>, state: &mut S);
}

/// A deterministic discrete-event simulation engine over user state `S`
/// and event type `E`.
pub struct Engine<S, E> {
    core: EventCore<E>,
    /// Tie-breaker of the next scheduled event.
    seq: u64,
    executed: u64,
    _state: PhantomData<fn(&mut S)>,
}

impl<S, E: Event<S>> Default for Engine<S, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S, E: Event<S>> Engine<S, E> {
    /// A fresh engine with the clock at zero.
    pub fn new() -> Self {
        Engine {
            core: EventCore::new(),
            seq: 0,
            executed: 0,
            _state: PhantomData,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled tombstones).
    pub fn events_pending(&self) -> usize {
        self.core.len()
    }

    /// Schedule a typed event after `delay` from the current time.
    #[inline]
    pub fn schedule_event(&mut self, delay: SimDuration, event: E) {
        self.schedule_event_at(self.now() + delay, event);
    }

    /// Schedule a typed event at an absolute time `at` (not in the past).
    #[inline]
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        self.push(at, event);
    }

    /// Schedule a typed event after `delay`, returning a handle that can
    /// cancel it before it fires.
    #[inline]
    pub fn schedule_cancellable_event(&mut self, delay: SimDuration, event: E) -> EventId {
        self.push(self.now() + delay, event)
    }

    /// Cancel a previously scheduled cancellable event. Cancelling an event
    /// that already fired is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.core.cancel(id);
    }

    #[inline]
    fn push(&mut self, at: SimTime, event: E) -> EventId {
        if self.core.is_empty() {
            // only coexisting events need distinct sequence numbers
            self.seq = 0;
        }
        let id = self.core.schedule_keyed(at, self.seq, event);
        self.seq += 1;
        id
    }

    /// Run until the event set is exhausted. Returns the number of events
    /// executed during this call.
    pub fn run(&mut self, state: &mut S) -> u64 {
        let before = self.executed;
        while let Some(event) = self.core.pop_within(SimTime::MAX) {
            self.executed += 1;
            event.fire(self, state);
        }
        self.executed - before
    }

    /// Run until at most `limit` further events have executed (safety valve
    /// for tests against runaway event cascades). Returns `true` if the event
    /// set was exhausted within the budget.
    pub fn run_bounded(&mut self, state: &mut S, limit: u64) -> bool {
        for _ in 0..limit {
            let Some(event) = self.core.pop_within(SimTime::MAX) else {
                return true;
            };
            self.executed += 1;
            event.fire(self, state);
        }
        self.core.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test event: log `(now, label)`, optionally chaining a follow-up
    /// `Log` after `then` nanoseconds, or cancel a handle.
    #[derive(Clone, Copy)]
    enum Ev {
        Log(u64),
        Chain(u64, u64),
        Cancel(EventId),
    }

    impl Event<Vec<(u64, u64)>> for Ev {
        fn fire(self, eng: &mut Engine<Vec<(u64, u64)>, Ev>, log: &mut Vec<(u64, u64)>) {
            match self {
                Ev::Log(label) => log.push((eng.now().as_nanos(), label)),
                Ev::Chain(label, then) => {
                    log.push((eng.now().as_nanos(), label));
                    eng.schedule_event(SimDuration::from_nanos(then), Ev::Log(label + 1));
                }
                Ev::Cancel(id) => eng.cancel(id),
            }
        }
    }

    type Eng = Engine<Vec<(u64, u64)>, Ev>;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn events_run_in_order_and_clock_advances() {
        let mut eng = Eng::new();
        eng.schedule_event(ns(2), Ev::Log(2));
        eng.schedule_event(ns(1), Ev::Log(1));
        let mut log = Vec::new();
        assert_eq!(eng.run(&mut log), 2);
        assert_eq!(log, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn chained_events_see_updated_now() {
        let mut eng = Eng::new();
        eng.schedule_event(ns(1000), Ev::Chain(7, 1000));
        let mut log = Vec::new();
        eng.run(&mut log);
        assert_eq!(log, vec![(1000, 7), (2000, 8)]);
        assert_eq!(eng.now().as_nanos(), 2000);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut eng = Eng::new();
        let id = eng.schedule_cancellable_event(ns(10), Ev::Log(1));
        eng.schedule_event(ns(5), Ev::Cancel(id));
        let mut log = Vec::new();
        eng.run(&mut log);
        assert!(log.is_empty());
        // two events were queued, but one was a tombstone
        assert_eq!(eng.events_executed(), 1);
        assert_eq!(
            eng.now().as_nanos(),
            5,
            "a tombstone does not move the clock"
        );
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut eng = Eng::new();
        let id = eng.schedule_cancellable_event(ns(1), Ev::Log(1));
        let mut log = Vec::new();
        eng.run(&mut log);
        eng.cancel(id); // already fired
        eng.run(&mut log);
        assert_eq!(log, vec![(1, 1)]);
    }

    #[test]
    fn cancel_does_not_hit_recycled_slot() {
        let mut eng = Eng::new();
        let id = eng.schedule_cancellable_event(ns(1), Ev::Log(1));
        let mut log = Vec::new();
        eng.run(&mut log);
        // the fired event's slot is recycled by the next schedule
        let _id2 = eng.schedule_cancellable_event(ns(1), Ev::Log(2));
        eng.cancel(id); // stale handle must not cancel the new event
        eng.run(&mut log);
        assert_eq!(log, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn run_bounded_reports_exhaustion() {
        let mut eng = Eng::new();
        for i in 0..4 {
            eng.schedule_event(ns(1), Ev::Log(i));
        }
        let mut log = Vec::new();
        assert!(!eng.run_bounded(&mut log, 2));
        assert_eq!(log.len(), 2);
        assert!(eng.run_bounded(&mut log, 100));
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut eng = Eng::new();
        for i in 0..50 {
            eng.schedule_event(ns(1), Ev::Log(i));
        }
        let mut log = Vec::new();
        eng.run(&mut log);
        assert_eq!(log, (0..50).map(|i| (1, i)).collect::<Vec<_>>());
    }

    #[test]
    fn tie_sequence_restarts_when_the_queue_drains() {
        let mut eng = Eng::new();
        eng.schedule_event(ns(1), Ev::Log(0));
        eng.schedule_event(ns(1), Ev::Log(1));
        let mut log = Vec::new();
        eng.run(&mut log);
        eng.schedule_event(ns(1), Ev::Log(2));
        assert_eq!(eng.seq, 1, "a drained queue restarts the sequence stream");
        // and ties still break in scheduling order after the restart
        eng.schedule_event(ns(1), Ev::Log(3));
        eng.run(&mut log);
        assert_eq!(log, vec![(1, 0), (1, 1), (2, 2), (2, 3)]);
    }

    #[test]
    fn a_cancelled_tombstone_keeps_the_sequence_running() {
        let mut eng = Eng::new();
        let id = eng.schedule_cancellable_event(ns(5), Ev::Log(0));
        eng.cancel(id);
        // the tombstone is still queued: the next event must not reuse
        // sequence 0 alongside it
        eng.schedule_event(ns(5), Ev::Log(1));
        assert_eq!(eng.seq, 2);
        let mut log = Vec::new();
        eng.run(&mut log);
        assert_eq!(log, vec![(5, 1)]);
    }

    #[test]
    fn typed_events_fire_without_boxing() {
        #[derive(Clone, Copy)]
        enum Tick {
            Tick(u64),
            Stop,
        }
        impl Event<u64> for Tick {
            fn fire(self, eng: &mut Engine<u64, Tick>, count: &mut u64) {
                match self {
                    Tick::Tick(left) => {
                        *count += 1;
                        if left > 1 {
                            eng.schedule_event(ns(5), Tick::Tick(left - 1));
                        } else {
                            eng.schedule_event(SimDuration::ZERO, Tick::Stop);
                        }
                    }
                    Tick::Stop => {}
                }
            }
        }
        let mut eng: Engine<u64, Tick> = Engine::new();
        eng.schedule_event(ns(5), Tick::Tick(100));
        let mut count = 0;
        eng.run(&mut count);
        assert_eq!(count, 100);
        assert_eq!(eng.events_executed(), 101);
        assert_eq!(eng.now().as_nanos(), 500);
    }
}
