//! The typed event loop is allocation-free at steady state.
//!
//! A counting global allocator wraps `System`; after one warm-up round has
//! grown the engine's heap and arena to the workload's high-water mark,
//! sustained schedule/cancel/pop churn must perform **exactly zero** heap
//! allocations — the free-list slab and the flat 4-ary heap reuse their
//! storage, and cancellation is a generation bump, not a hash insert.
//!
//! The counter is per thread, so a measurement sees only the allocations
//! of the thread running it, never those of sibling tests running
//! concurrently in the same binary.

use harborsim_des::{Engine, Event, EventId, FluidLink, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it never allocates and
// stays valid for the whole life of the thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[derive(Clone, Copy)]
struct Tick;

impl Event<u64> for Tick {
    fn fire(self, _eng: &mut Engine<u64, Tick>, fired: &mut u64) {
        *fired += 1;
    }
}

/// One churn round: schedule `batch` cancellable events at staggered
/// times, cancel every third, drain.
fn churn_round(eng: &mut Engine<u64, Tick>, ids: &mut Vec<EventId>, fired: &mut u64) {
    ids.clear();
    for i in 0..ids.capacity() as u64 {
        ids.push(eng.schedule_cancellable_event(SimDuration::from_nanos(997 * i % 1000), Tick));
    }
    for id in ids.iter().skip(1).step_by(3) {
        eng.cancel(*id);
    }
    eng.run(fired);
}

#[test]
fn typed_event_churn_allocates_exactly_zero_after_warmup() {
    const BATCH: usize = 512;
    let mut eng: Engine<u64, Tick> = Engine::new();
    let mut ids = Vec::with_capacity(BATCH);
    let mut fired = 0u64;
    // warm-up: grows the heap, arena, and id vector to the high-water mark
    churn_round(&mut eng, &mut ids, &mut fired);
    let before = allocations();
    for _ in 0..100 {
        churn_round(&mut eng, &mut ids, &mut fired);
    }
    let during = allocations() - before;
    assert!(fired > 0);
    assert_eq!(
        during, 0,
        "steady-state typed churn must not allocate (saw {during} allocations in 100 rounds)"
    );
}

/// Flows through one fair-share link. `Done(k)` starts a follow-up flow
/// from inside the timer's inline continuation while `k > 0`.
struct Storm {
    link: FluidLink<Flow>,
    done: u64,
}

#[derive(Clone, Copy)]
enum Flow {
    Start,
    Done(u32),
    LinkTimer,
}

impl Event<Storm> for Flow {
    fn fire(self, eng: &mut Engine<Storm, Flow>, st: &mut Storm) {
        match self {
            Flow::Start => st.link.start_flow(eng, 1e6, Flow::Done(2)),
            Flow::Done(k) => {
                st.done += 1;
                if k > 0 {
                    st.link.start_flow(eng, 5e5, Flow::Done(k - 1));
                }
            }
            Flow::LinkTimer => FluidLink::on_timer(eng, st, |st| &mut st.link),
        }
    }
}

fn storm_round(eng: &mut Engine<Storm, Flow>, st: &mut Storm) {
    for i in 0..64 {
        eng.schedule_event(SimDuration::from_micros(13 * i), Flow::Start);
    }
    eng.run(st);
}

#[test]
fn fluid_link_cycle_allocates_exactly_zero_after_warmup() {
    let mut eng: Engine<Storm, Flow> = Engine::new();
    let mut st = Storm {
        link: FluidLink::new(1e9, Flow::LinkTimer),
        done: 0,
    };
    // warm-up: grows the flow list, the completed-continuation buffer, the
    // heap and the arena to the storm's high-water mark
    storm_round(&mut eng, &mut st);
    let before = allocations();
    for _ in 0..50 {
        storm_round(&mut eng, &mut st);
    }
    let during = allocations() - before;
    assert_eq!(st.done, 51 * 64 * 3, "every flow and follow-up completes");
    assert_eq!(
        during, 0,
        "a warmed start-flow/timer/continuation cycle must not allocate \
         (saw {during} allocations in 50 rounds)"
    );
}

#[test]
fn the_counter_sees_allocations_on_the_measuring_thread() {
    // control for the zeros above: an allocation on this thread must show
    let before = allocations();
    let mut v: Vec<u64> = std::hint::black_box(Vec::new());
    v.push(1);
    std::hint::black_box(&v);
    assert!(
        allocations() - before >= 1,
        "a first Vec push allocates and must be counted"
    );
}
