//! Fair-share ("fluid flow") bandwidth links.
//!
//! A [`FluidLink`] models a shared pipe of fixed capacity where every active
//! transfer progresses at `capacity / n` — the idealized behaviour of TCP
//! flows sharing a bottleneck, of compute nodes hammering a parallel
//! filesystem, or of layer downloads sharing a registry uplink.
//!
//! Implementation: piecewise-constant rates. Whenever the set of active flows
//! changes, every flow's remaining volume is advanced to "now" and the single
//! pending completion timer is retracted and re-aimed at the new earliest
//! finisher. This is exact for the fluid model (no time-stepping error) and
//! costs `O(n)` per flow arrival/departure.
//!
//! The link speaks the caller's event type `E`: each flow carries a typed
//! continuation, and the completion timer is a caller-chosen `E` value
//! whose handler calls [`FluidLink::on_timer`].

use crate::core::EventId;
use crate::engine::{Engine, Event};
use crate::time::{SimDuration, SimTime};

/// Volume below which a flow counts as finished (absorbs floating-point
/// residue from repeated rate changes).
const DONE_EPS_BYTES: f64 = 1e-6;

struct Flow<E> {
    size: f64,
    remaining: f64,
    cont: E,
}

/// A shared link of fixed capacity with max-min fair sharing.
///
/// The link lives inside the simulation state `S`. Because the completion
/// timer must find the link again from inside an event handler, the
/// caller's event type carries a variant for it, and that variant's
/// handler passes [`FluidLink::on_timer`] an accessor: a plain `fn` that
/// projects the state to this link.
///
/// ```
/// use harborsim_des::{Engine, Event, FluidLink, SimDuration};
///
/// struct St {
///     link: FluidLink<Ev>,
///     done: u32,
/// }
///
/// #[derive(Clone, Copy)]
/// enum Ev {
///     Start,
///     Done,
///     LinkTimer,
/// }
///
/// impl Event<St> for Ev {
///     fn fire(self, eng: &mut Engine<St, Ev>, st: &mut St) {
///         match self {
///             Ev::Start => st.link.start_flow(eng, 100.0, Ev::Done),
///             Ev::Done => st.done += 1,
///             Ev::LinkTimer => FluidLink::on_timer(eng, st, |st| &mut st.link),
///         }
///     }
/// }
///
/// let mut eng: Engine<St, Ev> = Engine::new();
/// let mut st = St { link: FluidLink::new(100.0, Ev::LinkTimer), done: 0 };
/// eng.schedule_event(SimDuration::ZERO, Ev::Start);
/// eng.schedule_event(SimDuration::ZERO, Ev::Start);
/// eng.run(&mut st);
/// // two 100 B flows share 100 B/s: both finish at t = 2 s
/// assert_eq!(st.done, 2);
/// assert!((eng.now().as_secs_f64() - 2.0).abs() < 1e-6);
/// ```
pub struct FluidLink<E> {
    capacity_bps: f64,
    flows: Vec<Flow<E>>,
    last_advance: SimTime,
    timer: Option<EventId>,
    timer_event: E,
    /// Continuations of the flows the current timer completed; kept
    /// between timers so firing them allocates nothing at steady state.
    completed: Vec<E>,
    completed_flows: u64,
    bytes_completed: f64,
    peak_concurrency: usize,
}

impl<E> FluidLink<E> {
    /// A link carrying `capacity_bytes_per_sec` whose completion timer is
    /// scheduled as `timer_event`.
    ///
    /// # Panics
    /// Panics if the capacity is not strictly positive and finite.
    pub fn new(capacity_bytes_per_sec: f64, timer_event: E) -> Self {
        assert!(
            capacity_bytes_per_sec.is_finite() && capacity_bytes_per_sec > 0.0,
            "link capacity must be positive"
        );
        FluidLink {
            capacity_bps: capacity_bytes_per_sec,
            flows: Vec::new(),
            last_advance: SimTime::ZERO,
            timer: None,
            timer_event,
            completed: Vec::new(),
            completed_flows: 0,
            bytes_completed: 0.0,
            peak_concurrency: 0,
        }
    }

    /// Number of flows currently in progress.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Flows completed so far.
    pub fn completed_flows(&self) -> u64 {
        self.completed_flows
    }

    /// Total volume delivered so far, in bytes.
    pub fn bytes_completed(&self) -> f64 {
        self.bytes_completed
    }

    /// Largest number of simultaneously active flows observed.
    pub fn peak_concurrency(&self) -> usize {
        self.peak_concurrency
    }

    /// Bring every active flow's remaining volume up to date.
    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        if dt <= 0.0 || self.flows.is_empty() {
            return;
        }
        let per_flow = self.capacity_bps / self.flows.len() as f64;
        let drained = per_flow * dt;
        for f in &mut self.flows {
            f.remaining -= drained;
        }
    }

    /// Move the continuations of every finished flow into `completed`.
    fn take_completed(&mut self) {
        let mut i = 0;
        while i < self.flows.len() {
            if self.flows[i].remaining <= DONE_EPS_BYTES {
                let f = self.flows.swap_remove(i);
                self.completed_flows += 1;
                self.bytes_completed += f.size;
                self.completed.push(f.cont);
            } else {
                i += 1;
            }
        }
    }
}

impl<E: Clone> FluidLink<E> {
    /// Begin transferring `bytes`; `cont` fires when the transfer completes
    /// under fair sharing with all concurrently active flows.
    pub fn start_flow<S>(&mut self, eng: &mut Engine<S, E>, bytes: f64, cont: E)
    where
        E: Event<S>,
    {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "flow size must be non-negative"
        );
        self.advance(eng.now());
        let size = bytes.max(DONE_EPS_BYTES);
        self.flows.push(Flow {
            size,
            remaining: size,
            cont,
        });
        self.peak_concurrency = self.peak_concurrency.max(self.flows.len());
        self.reschedule(eng);
    }

    /// Handle this link's completion timer: fire the continuations of the
    /// flows that finished, inline and in completion order, then re-aim
    /// the timer. `link` projects the state to this link.
    pub fn on_timer<S>(eng: &mut Engine<S, E>, state: &mut S, link: fn(&mut S) -> &mut Self)
    where
        E: Event<S>,
    {
        let mut completed = {
            let l = link(state);
            l.timer = None;
            l.advance(eng.now());
            l.take_completed();
            std::mem::take(&mut l.completed)
        };
        for cont in completed.drain(..) {
            cont.fire(eng, state);
        }
        let l = link(state);
        l.completed = completed;
        l.reschedule(eng);
    }

    /// Re-aim the completion timer at the earliest finisher.
    fn reschedule<S>(&mut self, eng: &mut Engine<S, E>)
    where
        E: Event<S>,
    {
        if let Some(t) = self.timer.take() {
            eng.cancel(t);
        }
        if self.flows.is_empty() {
            return;
        }
        let per_flow = self.capacity_bps / self.flows.len() as f64;
        let min_remaining = self
            .flows
            .iter()
            .map(|f| f.remaining)
            .fold(f64::INFINITY, f64::min);
        // overshoot by one clock tick: nanosecond rounding must never leave
        // the earliest flow fractionally unfinished (a 0 ns retry would spin
        // the event loop forever at the same instant)
        let dt = SimDuration::from_secs_f64((min_remaining / per_flow).max(0.0))
            .saturating_add(SimDuration::from_nanos(1));
        self.timer = Some(eng.schedule_cancellable_event(dt, self.timer_event.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct St {
        link: FluidLink<Ev>,
        finished: Vec<(u32, f64)>,
    }

    #[derive(Clone, Copy)]
    enum Ev {
        Start { idx: u32, bytes: f64 },
        Finished(u32),
        LinkTimer,
    }

    impl Event<St> for Ev {
        fn fire(self, eng: &mut Engine<St, Ev>, st: &mut St) {
            match self {
                Ev::Start { idx, bytes } => st.link.start_flow(eng, bytes, Ev::Finished(idx)),
                Ev::Finished(idx) => st.finished.push((idx, eng.now().as_secs_f64())),
                Ev::LinkTimer => FluidLink::on_timer(eng, st, |st| &mut st.link),
            }
        }
    }

    fn start(eng: &mut Engine<St, Ev>, at: SimDuration, idx: u32, bytes: f64) {
        eng.schedule_event(at, Ev::Start { idx, bytes });
    }

    fn fresh() -> (Engine<St, Ev>, St) {
        (
            Engine::new(),
            St {
                link: FluidLink::new(100.0, Ev::LinkTimer), // 100 B/s
                finished: Vec::new(),
            },
        )
    }

    #[test]
    fn single_flow_takes_bytes_over_rate() {
        let (mut eng, mut st) = fresh();
        start(&mut eng, SimDuration::ZERO, 0, 200.0);
        eng.run(&mut st);
        assert_eq!(st.finished.len(), 1);
        assert!((st.finished[0].1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn two_equal_flows_share_fairly() {
        let (mut eng, mut st) = fresh();
        start(&mut eng, SimDuration::ZERO, 0, 100.0);
        start(&mut eng, SimDuration::ZERO, 1, 100.0);
        eng.run(&mut st);
        // each gets 50 B/s -> both done at t=2
        assert_eq!(st.finished.len(), 2);
        for &(_, t) in &st.finished {
            assert!((t - 2.0).abs() < 1e-6, "t={t}");
        }
        assert_eq!(st.link.peak_concurrency(), 2);
    }

    #[test]
    fn late_arrival_slows_first_flow() {
        let (mut eng, mut st) = fresh();
        // flow 0: 100 B alone for 0.5s (50 B done), then shares.
        start(&mut eng, SimDuration::ZERO, 0, 100.0);
        start(&mut eng, SimDuration::from_millis(500), 1, 100.0);
        eng.run(&mut st);
        let t0 = st.finished.iter().find(|f| f.0 == 0).unwrap().1;
        let t1 = st.finished.iter().find(|f| f.0 == 1).unwrap().1;
        // flow0: 50 B left at t=0.5, rate 50 -> done at 1.5
        assert!((t0 - 1.5).abs() < 1e-6, "t0={t0}");
        // flow1: at t=1.5 it has transferred 50, 50 left at full rate -> 2.0
        assert!((t1 - 2.0).abs() < 1e-6, "t1={t1}");
    }

    #[test]
    fn conservation_of_bytes() {
        let (mut eng, mut st) = fresh();
        let sizes = [10.0, 250.0, 33.0, 120.0, 90.0];
        for (i, &b) in sizes.iter().enumerate() {
            start(
                &mut eng,
                SimDuration::from_millis(137 * i as u64),
                i as u32,
                b,
            );
        }
        eng.run(&mut st);
        assert_eq!(st.link.completed_flows(), sizes.len() as u64);
        let total: f64 = sizes.iter().sum();
        assert!(
            (st.link.bytes_completed() - total).abs() < 1e-3,
            "delivered {} expected {total}",
            st.link.bytes_completed()
        );
        // aggregate throughput can never beat capacity
        let makespan = eng.now().as_secs_f64();
        assert!(total / makespan <= 100.0 + 1e-6);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (mut eng, mut st) = fresh();
        start(&mut eng, SimDuration::ZERO, 0, 0.0);
        eng.run(&mut st);
        assert_eq!(st.finished.len(), 1);
        assert!(st.finished[0].1 < 1e-6);
    }

    #[test]
    fn simultaneous_finishers_fire_in_swap_remove_order() {
        let (mut eng, mut st) = fresh();
        for i in 0..4 {
            start(&mut eng, SimDuration::ZERO, i, 100.0);
        }
        eng.run(&mut st);
        // all four finish on one timer; the scan swap-removes flow 0, pulls
        // the last flow into its place, and so on
        let order: Vec<u32> = st.finished.iter().map(|f| f.0).collect();
        assert_eq!(order, vec![0, 3, 2, 1]);
    }

    #[test]
    fn storm_of_identical_flows_finishes_together() {
        let (mut eng, mut st) = fresh();
        for i in 0..64 {
            start(&mut eng, SimDuration::ZERO, i, 100.0);
        }
        eng.run(&mut st);
        assert_eq!(st.finished.len(), 64);
        for &(_, t) in &st.finished {
            assert!((t - 64.0).abs() < 1e-3, "t={t}");
        }
    }
}
