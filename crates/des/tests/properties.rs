//! Property-style tests of the DES kernel, driven by deterministic
//! [`RngStream`] case generation (seeded, reproducible, dependency-free).

use harborsim_des::{
    CoreResource, Engine, Event, EventCore, EventId, FluidLink, RngStream, SimDuration, SimTime,
};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashSet};

/// Deterministic replacement for proptest case generation.
fn cases(label: &str, n: u64) -> impl Iterator<Item = RngStream> {
    let root = RngStream::new(0xDE5_0001).derive(label);
    (0..n).map(move |i| root.derive_idx(i))
}

fn random_vec(rng: &mut RngStream, max_len: u64, max_val: u64) -> Vec<u64> {
    let len = 1 + rng.below(max_len);
    (0..len).map(|_| rng.below(max_val)).collect()
}

/// Appends `(now, label)` to a log when fired.
#[derive(Clone, Copy)]
struct Log(u64);

impl Event<Vec<(u64, u64)>> for Log {
    fn fire(self, eng: &mut Engine<Vec<(u64, u64)>, Log>, log: &mut Vec<(u64, u64)>) {
        log.push((eng.now().as_nanos(), self.0));
    }
}

/// Events always execute in (time, schedule-order) sequence, whatever
/// order they were submitted in.
#[test]
fn event_order_is_time_then_fifo() {
    for mut rng in cases("event-order", 64) {
        let delays = random_vec(&mut rng, 200, 1_000);
        let mut eng: Engine<Vec<(u64, u64)>, Log> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            eng.schedule_event(SimDuration::from_nanos(d), Log(i as u64));
        }
        let mut log = Vec::new();
        eng.run(&mut log);
        assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "time must be monotone");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "ties break by schedule order");
            }
        }
    }
}

/// A FIFO resource of capacity c serving n unit jobs of duration d
/// finishes at exactly ceil(n/c)*d.
#[test]
fn resource_makespan_exact() {
    struct St {
        res: CoreResource<Job>,
        done: u32,
    }
    #[derive(Clone, Copy)]
    enum Job {
        Arrive,
        Granted,
        Release,
    }
    const HOLD: SimDuration = SimDuration::from_millis(10);
    impl Event<St> for Job {
        fn fire(self, eng: &mut Engine<St, Job>, st: &mut St) {
            let granted = match self {
                Job::Arrive => st.res.acquire(Job::Granted),
                Job::Granted => {
                    eng.schedule_event(HOLD, Job::Release);
                    None
                }
                Job::Release => {
                    st.done += 1;
                    st.res.release()
                }
            };
            if let Some(cont) = granted {
                eng.schedule_event(SimDuration::ZERO, cont);
            }
        }
    }
    for mut rng in cases("resource-makespan", 64) {
        let jobs = 1 + rng.below(59) as u32;
        let capacity = 1 + rng.below(7) as u32;
        let mut eng: Engine<St, Job> = Engine::new();
        let mut st = St {
            res: CoreResource::new(capacity),
            done: 0,
        };
        for _ in 0..jobs {
            eng.schedule_event(SimDuration::ZERO, Job::Arrive);
        }
        eng.run(&mut st);
        assert_eq!(st.done, jobs);
        let waves = jobs.div_ceil(capacity) as u64;
        assert_eq!(eng.now().as_nanos(), waves * 10_000_000);
    }
}

/// Fair-share links conserve bytes and never exceed capacity.
#[test]
fn fluid_link_conserves() {
    struct St {
        link: FluidLink<Flow>,
        done: usize,
    }
    #[derive(Clone, Copy)]
    enum Flow {
        Start(f64),
        Done,
        LinkTimer,
    }
    impl Event<St> for Flow {
        fn fire(self, eng: &mut Engine<St, Flow>, st: &mut St) {
            match self {
                Flow::Start(bytes) => st.link.start_flow(eng, bytes, Flow::Done),
                Flow::Done => st.done += 1,
                Flow::LinkTimer => FluidLink::on_timer(eng, st, |st| &mut st.link),
            }
        }
    }
    for mut rng in cases("fluid-conserves", 64) {
        let n = 1 + rng.below(39);
        let sizes: Vec<f64> = (0..n).map(|_| rng.uniform_range(1.0, 1e6)).collect();
        let mut eng: Engine<St, Flow> = Engine::new();
        let mut st = St {
            link: FluidLink::new(1e6, Flow::LinkTimer),
            done: 0,
        };
        for (i, &bytes) in sizes.iter().enumerate() {
            eng.schedule_event(SimDuration::from_micros(i as u64 * 37), Flow::Start(bytes));
        }
        eng.run(&mut st);
        assert_eq!(st.done, sizes.len());
        let total: f64 = sizes.iter().sum();
        assert!((st.link.bytes_completed() - total).abs() / total < 1e-6);
        // aggregate throughput bounded by capacity
        let makespan = eng.now().as_secs_f64();
        assert!(total / makespan <= 1e6 * (1.0 + 1e-9));
    }
}

/// RNG streams are reproducible and label-derivations independent of
/// consumption order.
#[test]
fn rng_substreams_stable() {
    for mut rng in cases("substreams", 64) {
        let seed = rng.next_u64();
        let len = 1 + rng.below(12) as usize;
        let label: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let root = RngStream::new(seed);
        let mut a = root.derive(&label);
        // consuming the parent's siblings must not perturb `a`
        let mut noise = root.derive("noise");
        let _ = noise.next_u64();
        let mut b = root.derive(&label);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

/// The reference pending-event set: a `BinaryHeap` ordered by
/// `(time, sequence)`, the sequence restarting whenever the queue drains.
/// Deliberately the simplest correct design, independent of the kernel's
/// arena + 4-ary heap.
struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
}

struct Scheduled<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    // Reversed so that `BinaryHeap` (a max-heap) pops the *earliest* entry.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> EventQueue<T> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    fn pop(&mut self) -> Option<Scheduled<T>> {
        let popped = self.heap.pop();
        if popped.is_some() && self.heap.is_empty() {
            self.next_seq = 0;
        }
        popped
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[test]
fn reference_queue_pops_in_time_then_schedule_order() {
    let mut q = EventQueue::new();
    q.push(SimTime(30), "c");
    q.push(SimTime(10), "a");
    q.push(SimTime(20), "b");
    q.push(SimTime(10), "a2");
    let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
    assert_eq!(order, vec!["a", "a2", "b", "c"]);
    assert_eq!(q.next_seq, 0, "a drained queue restarts its sequence");
}

/// Differential test of the arena + 4-ary-heap engine against the
/// reference queue (a `BinaryHeap` + tombstone-set design):
/// interleaved schedule/cancel/pop sequences must match event-for-event —
/// same labels, same fire times, same pending counts, same clock.
#[test]
fn arena_engine_matches_reference_queue() {
    engine_matches_reference_queue("differential", |rng| rng.below(1_000));
}

/// [`arena_engine_matches_reference_queue`] with three quarters of the
/// schedules at zero delay, so most pushes land in the core's zero-delay
/// lane, cancels hit lane entries, and pops merge the lane with the heap.
#[test]
fn zero_delay_heavy_engine_matches_reference_queue() {
    engine_matches_reference_queue("differential-zero-delay", |rng| {
        if rng.below(4) == 0 {
            rng.below(1_000)
        } else {
            0
        }
    });
}

/// Drive the production engine and the reference queue through the same
/// random schedule/cancel/pop sequence, drawing delays (ns) from `delay`.
fn engine_matches_reference_queue(label: &str, delay: fn(&mut RngStream) -> u64) {
    for mut rng in cases(label, 64) {
        // Reference model: the pre-arena engine semantics, spelled out.
        let mut refq: EventQueue<(u64, Option<u64>)> = EventQueue::new();
        let mut ref_cancelled: HashSet<u64> = HashSet::new();
        let mut ref_now = SimTime::ZERO;
        let mut ref_log: Vec<(u64, u64)> = Vec::new();
        let mut next_cid = 0u64;

        // Subject: the production engine.
        let mut eng: Engine<Vec<(u64, u64)>, Log> = Engine::new();
        let mut eng_log: Vec<(u64, u64)> = Vec::new();
        let mut handles: Vec<(u64, EventId)> = Vec::new();

        let ref_pop = |refq: &mut EventQueue<(u64, Option<u64>)>,
                       ref_cancelled: &mut HashSet<u64>,
                       ref_now: &mut SimTime,
                       ref_log: &mut Vec<(u64, u64)>| {
            while let Some(s) = refq.pop() {
                let (label, cid) = s.payload;
                if let Some(c) = cid {
                    if ref_cancelled.remove(&c) {
                        continue; // tombstone
                    }
                }
                *ref_now = s.at;
                ref_log.push((s.at.as_nanos(), label));
                break;
            }
        };

        let steps = 50 + rng.below(150);
        let mut label = 0u64;
        for _ in 0..steps {
            match rng.below(4) {
                0 => {
                    let d = SimDuration::from_nanos(delay(&mut rng));
                    refq.push(ref_now + d, (label, None));
                    eng.schedule_event(d, Log(label));
                    label += 1;
                }
                1 => {
                    let d = SimDuration::from_nanos(delay(&mut rng));
                    let cid = next_cid;
                    next_cid += 1;
                    refq.push(ref_now + d, (label, Some(cid)));
                    let id = eng.schedule_cancellable_event(d, Log(label));
                    label += 1;
                    handles.push((cid, id));
                }
                2 => {
                    // cancel a random handle — possibly one that already
                    // fired or was already cancelled; both must no-op
                    if !handles.is_empty() {
                        let k = rng.below(handles.len() as u64) as usize;
                        let (cid, id) = handles[k];
                        ref_cancelled.insert(cid);
                        eng.cancel(id);
                    }
                }
                _ => {
                    ref_pop(&mut refq, &mut ref_cancelled, &mut ref_now, &mut ref_log);
                    eng.run_bounded(&mut eng_log, 1);
                }
            }
            assert_eq!(eng_log, ref_log);
            assert_eq!(eng.now(), ref_now);
            assert_eq!(eng.events_pending(), refq.len());
        }
        // drain both to the end
        while !refq.is_empty() {
            ref_pop(&mut refq, &mut ref_cancelled, &mut ref_now, &mut ref_log);
        }
        eng.run(&mut eng_log);
        assert_eq!(eng_log, ref_log);
        assert_eq!(eng.now(), ref_now);
    }
}

/// Engine determinism: identical schedules produce identical histories.
#[test]
fn engine_is_deterministic() {
    #[derive(Clone, Copy)]
    struct Mix;
    impl Event<u64> for Mix {
        fn fire(self, eng: &mut Engine<u64, Mix>, acc: &mut u64) {
            *acc = acc.wrapping_mul(31).wrapping_add(eng.now().as_nanos());
        }
    }
    for mut rng in cases("determinism", 64) {
        let delays = random_vec(&mut rng, 100, 10_000);
        let run = |delays: &[u64]| -> (u64, u64) {
            let mut eng: Engine<u64, Mix> = Engine::new();
            for &d in delays {
                eng.schedule_event(SimDuration::from_nanos(d), Mix);
            }
            let mut acc = 0;
            eng.run(&mut acc);
            (acc, eng.now().as_nanos())
        };
        assert_eq!(run(&delays), run(&delays));
    }
}

/// The event core under caller-packed ties, the way the sharded MPI engine
/// keys events: ties are not monotone, so a same-instant schedule may sort
/// before the zero-delay lane's back and must take the heap. Random
/// schedules (mostly at the current instant), cancels and horizon-bounded
/// pops must match a sorted map of the live entries: same events, same
/// clock, same pending counts and earliest time.
#[test]
fn event_core_with_lane_matches_a_sorted_map() {
    for mut rng in cases("core-lane", 64) {
        let mut core: EventCore<u64> = EventCore::new();
        // (time, tie) -> (label, live); cancelled entries stay as
        // tombstones until they would pop, as in the core
        let mut want: BTreeMap<(u64, u64), (u64, bool)> = BTreeMap::new();
        let mut ids: Vec<((u64, u64), EventId)> = Vec::new();
        let mut now = 0u64;
        for label in 0..300u64 {
            match rng.below(5) {
                0..=2 => {
                    let at = now + if rng.below(4) == 0 { rng.below(50) } else { 0 };
                    // a random tie above the label keeps keys distinct
                    let tie = rng.below(64) << 20 | label;
                    ids.push(((at, tie), core.schedule_keyed(SimTime(at), tie, label)));
                    want.insert((at, tie), (label, true));
                }
                3 => {
                    if !ids.is_empty() {
                        let (key, id) = ids[rng.below(ids.len() as u64) as usize];
                        core.cancel(id);
                        if let Some(e) = want.get_mut(&key) {
                            e.1 = false;
                        }
                    }
                }
                _ => {
                    let horizon = now + rng.below(8);
                    let got = core.pop_within(SimTime(horizon));
                    let mut expect = None;
                    while let Some((&(at, tie), &(label, live))) = want.first_key_value() {
                        if at > horizon {
                            break;
                        }
                        want.remove(&(at, tie));
                        if live {
                            now = at;
                            expect = Some(label);
                            break;
                        }
                    }
                    assert_eq!(got, expect);
                }
            }
            assert_eq!(core.now(), SimTime(now));
            assert_eq!(core.len(), want.len());
            assert_eq!(core.is_empty(), want.is_empty());
            let earliest = want.first_key_value().map(|(&(at, _), _)| SimTime(at));
            assert_eq!(core.min_time(), earliest);
        }
    }
}

#[test]
fn cancelling_a_lane_entry_leaves_a_tombstone() {
    let mut core: EventCore<&str> = EventCore::new();
    core.schedule_keyed(SimTime(5), 0, "first");
    assert_eq!(core.pop_within(SimTime::MAX), Some("first"));
    // both at the current instant, in key order: the lane takes them
    let doomed = core.schedule_keyed(SimTime(5), 1, "doomed");
    core.schedule_keyed(SimTime(5), 2, "kept");
    core.schedule_keyed(SimTime(9), 3, "later");
    core.cancel(doomed);
    assert_eq!(core.len(), 3, "the tombstone stays queued until it pops");
    assert_eq!(core.min_time(), Some(SimTime(5)));
    assert_eq!(core.pop_within(SimTime::MAX), Some("kept"));
    assert_eq!(core.len(), 1);
    core.cancel(doomed); // stale: already popped as a tombstone
    assert_eq!(core.pop_within(SimTime::MAX), Some("later"));
    assert!(core.is_empty());
}

#[test]
fn a_horizon_refuses_a_lane_entry() {
    let mut core: EventCore<&str> = EventCore::new();
    core.schedule_keyed(SimTime(5), 0, "first");
    assert_eq!(core.pop_within(SimTime(5)), Some("first"));
    core.schedule_keyed(SimTime(5), 1, "lane");
    // a shard may be handed a horizon below its own clock
    assert_eq!(core.pop_within(SimTime(4)), None);
    assert_eq!(core.now(), SimTime(5));
    assert_eq!(core.len(), 1);
    assert_eq!(core.min_time(), Some(SimTime(5)));
    assert_eq!(core.pop_within(SimTime(5)), Some("lane"));
    assert!(core.is_empty());
}

#[test]
fn len_is_empty_min_time_and_reset_count_the_lane() {
    let mut core: EventCore<u32> = EventCore::new();
    core.schedule_keyed(SimTime(3), 0, 0);
    assert_eq!(core.pop_within(SimTime::MAX), Some(0));
    core.schedule_keyed(SimTime(3), 1, 1);
    core.schedule_keyed(SimTime(3), 2, 2);
    core.schedule_keyed(SimTime(7), 0, 3);
    assert_eq!(core.len(), 3);
    assert!(!core.is_empty());
    assert_eq!(core.min_time(), Some(SimTime(3)));
    assert_eq!(core.pop_within(SimTime::MAX), Some(1));
    assert_eq!(core.len(), 2);
    core.reset();
    assert_eq!(core.len(), 0);
    assert!(core.is_empty());
    assert_eq!(core.min_time(), None);
    assert_eq!(core.now(), SimTime::ZERO);
    // the rewound core starts a fresh lane at time zero
    core.schedule_keyed(SimTime::ZERO, 5, 4);
    core.schedule_keyed(SimTime::ZERO, 1, 5);
    assert_eq!(core.pop_within(SimTime::MAX), Some(5));
    assert_eq!(core.pop_within(SimTime::MAX), Some(4));
    assert!(core.is_empty());
}

/// Schedules a zero-delay `Log` for each label it carries when fired.
#[derive(Clone, Copy)]
enum Burst {
    Log(u64),
    Fan(u64, u64),
}

impl Event<Vec<(u64, u64)>> for Burst {
    fn fire(self, eng: &mut Engine<Vec<(u64, u64)>, Burst>, log: &mut Vec<(u64, u64)>) {
        match self {
            Burst::Log(label) => log.push((eng.now().as_nanos(), label)),
            Burst::Fan(first, n) => {
                for label in first..first + n {
                    eng.schedule_event(SimDuration::ZERO, Burst::Log(label));
                }
            }
        }
    }
}

#[test]
fn tie_sequence_restarts_after_the_queue_drains_through_the_lane() {
    let mut eng: Engine<Vec<(u64, u64)>, Burst> = Engine::new();
    let mut log = Vec::new();
    eng.schedule_event(SimDuration::from_nanos(10), Burst::Fan(0, 3));
    eng.run(&mut log);
    assert_eq!(eng.events_pending(), 0);
    // drained at t = 10: the sequence restarts, and the restarted keys
    // must still fire in scheduling order through a fresh lane
    eng.schedule_event(SimDuration::ZERO, Burst::Fan(3, 2));
    eng.schedule_event(SimDuration::ZERO, Burst::Log(5));
    let doomed = eng.schedule_cancellable_event(SimDuration::ZERO, Burst::Log(99));
    eng.cancel(doomed);
    eng.schedule_event(SimDuration::from_nanos(1), Burst::Fan(6, 2));
    eng.run(&mut log);
    assert_eq!(
        log,
        vec![
            (10, 0),
            (10, 1),
            (10, 2),
            (10, 5),
            (10, 3),
            (10, 4),
            (11, 6),
            (11, 7)
        ]
    );
    // a fan and 3 logs, then 2 fans and 5 logs; the tombstone never fires
    assert_eq!(eng.events_executed(), 4 + 7);
}
