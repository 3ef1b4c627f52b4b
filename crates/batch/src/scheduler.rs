//! A FIFO + EASY-backfill cluster scheduler as a discrete-event simulation.
//!
//! The production policy on machines like MareNostrum4: jobs start in
//! submission order; when the queue head does not fit, it receives a
//! *reservation* at the earliest instant enough nodes will be free, and
//! later jobs may start out of order ("backfill") only if doing so cannot
//! delay that reservation — either they finish before it (by their
//! walltime estimate), or they fit in nodes the head will not need.
//!
//! Job *arrival* is an event source, not a pre-enqueued list: each
//! arrival event enqueues its job, runs a scheduling pass, and schedules
//! the next arrival — so jobs may materialize mid-simulation. The closed
//! [`Scheduler`] drains a submitted list through that chain; the
//! open-system engine ([`crate::open`]) drives the same decision core,
//! `SchedCore`, from a sampled arrival process instead.

use crate::job::{Job, JobOutcome};
use harborsim_des::trace::{Recorder, SpanCategory};
use harborsim_des::{Engine, Event, SimTime};
use std::collections::VecDeque;

pub(crate) struct Running {
    pub(crate) id: u32,
    pub(crate) nodes: u32,
    /// When the scheduler may count these nodes free (walltime-based for
    /// planning; the actual release event uses the true runtime).
    pub(crate) est_end: SimTime,
}

/// The engine-agnostic scheduling core: node accounting, the pending
/// queue, and the FIFO + EASY grant decision. Both the closed
/// [`Scheduler`] and the open-system engine drive their event loops
/// through it — enqueue on arrival, [`SchedCore::grants`] after every
/// state change, [`SchedCore::release`] when a job's nodes come back.
pub(crate) struct SchedCore {
    pub(crate) total_nodes: u32,
    pub(crate) free: u32,
    pub(crate) queue: VecDeque<Job>,
    pub(crate) running: Vec<Running>,
    pub(crate) busy_node_seconds: f64,
    last_change: SimTime,
}

impl SchedCore {
    pub(crate) fn new(total_nodes: u32) -> SchedCore {
        assert!(total_nodes > 0);
        SchedCore {
            total_nodes,
            free: total_nodes,
            queue: VecDeque::new(),
            running: Vec::new(),
            busy_node_seconds: 0.0,
            last_change: SimTime::ZERO,
        }
    }

    /// Integrate busy-node-seconds up to `now`; call before any change
    /// to `free`.
    pub(crate) fn account(&mut self, now: SimTime) {
        let dt = now.since(self.last_change).as_secs_f64();
        self.busy_node_seconds += dt * (self.total_nodes - self.free) as f64;
        self.last_change = now;
    }

    pub(crate) fn enqueue(&mut self, job: Job) {
        debug_assert!(job.nodes <= self.total_nodes);
        self.queue.push_back(job);
    }

    fn allocate(&mut self, job: &Job, now: SimTime) {
        self.account(now);
        debug_assert!(self.free >= job.nodes);
        self.free -= job.nodes;
        self.running.push(Running {
            id: job.id,
            nodes: job.nodes,
            est_end: now + job.walltime,
        });
    }

    /// Return a job's nodes to the pool.
    pub(crate) fn release(&mut self, id: u32, nodes: u32, now: SimTime) {
        self.account(now);
        self.free += nodes;
        self.running.retain(|r| r.id != id);
    }

    /// One FIFO + EASY pass at `now`: pop every job that may start,
    /// allocate its nodes, and return it with its backfill flag, in
    /// grant order (FIFO heads first, then backfill candidates in queue
    /// order).
    pub(crate) fn grants(&mut self, now: SimTime) -> Vec<(Job, bool)> {
        let mut granted = Vec::new();
        // start the head (and successive heads) while they fit
        while let Some(head) = self.queue.front() {
            if head.nodes <= self.free {
                let job = self.queue.pop_front().expect("head exists");
                self.allocate(&job, now);
                granted.push((job, false));
            } else {
                break;
            }
        }
        let Some(head) = self.queue.front() else {
            return granted;
        };
        let head_nodes = head.nodes;
        // reservation for the head: walk running jobs by estimated end
        // until enough nodes accumulate
        let mut ends: Vec<(SimTime, u32)> =
            self.running.iter().map(|r| (r.est_end, r.nodes)).collect();
        ends.sort();
        let mut avail = self.free;
        let mut shadow = SimTime::MAX;
        for (t, n) in &ends {
            avail += n;
            if avail >= head_nodes {
                shadow = *t;
                break;
            }
        }
        debug_assert!(shadow != SimTime::MAX, "head can never run?");
        // nodes not claimed by the head at the shadow time
        let spare_at_shadow = avail.saturating_sub(head_nodes);
        // backfill pass over the rest of the queue
        let mut i = 1;
        while i < self.queue.len() {
            let cand = &self.queue[i];
            let fits_now = cand.nodes <= self.free;
            let ends_before_shadow = now + cand.walltime <= shadow;
            let uses_spare = cand.nodes <= spare_at_shadow;
            if fits_now && (ends_before_shadow || uses_spare) {
                let job = self.queue.remove(i).expect("index checked");
                self.allocate(&job, now);
                granted.push((job, true));
                // free changed; the head still cannot start (its
                // requirement exceeded free before, and backfilled jobs
                // only shrank free)
            } else {
                i += 1;
            }
        }
        granted
    }

    /// Mean node utilization over `makespan` (0..1).
    pub(crate) fn utilization(&self, makespan: SimTime) -> f64 {
        if makespan == SimTime::ZERO {
            0.0
        } else {
            self.busy_node_seconds / (makespan.as_secs_f64() * self.total_nodes as f64)
        }
    }
}

struct State {
    core: SchedCore,
    /// Pending arrivals, soonest last (popped by the arrival chain).
    arrivals: Vec<Job>,
    outcomes: Vec<JobOutcome>,
    rec: Recorder,
}

/// The scheduler: submit jobs, then [`Scheduler::run`].
pub struct Scheduler {
    jobs: Vec<Job>,
    total_nodes: u32,
}

/// The result of a scheduling run.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Per-job outcomes, submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Makespan (last end time).
    pub makespan: SimTime,
    /// Mean node utilization over the makespan (0..1).
    pub utilization: f64,
}

impl Scheduler {
    /// A scheduler over a machine of `total_nodes` nodes.
    pub fn new(total_nodes: u32) -> Scheduler {
        Scheduler {
            jobs: Vec::new(),
            total_nodes: {
                assert!(total_nodes > 0);
                total_nodes
            },
        }
    }

    /// Queue a job (any submit time; jobs are sorted internally).
    ///
    /// # Panics
    /// Panics if the job requests more nodes than the machine has.
    pub fn submit(&mut self, job: Job) {
        assert!(
            job.nodes <= self.total_nodes,
            "job {} wants {} nodes, machine has {}",
            job.id,
            job.nodes,
            self.total_nodes
        );
        self.jobs.push(job);
    }

    /// Run to completion, emitting one wait span (queue or backfill) and
    /// one launch span per job through `rec`, on track `job.id`. Pass
    /// [`Recorder::off`] for the untraced path. Arrivals enter the
    /// simulation as a chained event source: only the next pending
    /// arrival is ever scheduled.
    pub fn run(self, rec: &mut Recorder) -> ScheduleResult {
        let mut eng: Engine<State, Ev> = Engine::new();
        let mut jobs = self.jobs;
        jobs.sort_by_key(|j| (j.submit, j.id));
        let mut state = State {
            core: SchedCore::new(self.total_nodes),
            arrivals: Vec::new(),
            outcomes: Vec::new(),
            rec: Recorder::like(rec),
        };
        state
            .rec
            .declare_tracks(jobs.iter().map(|j| j.id + 1).max().unwrap_or(0));
        jobs.reverse();
        state.arrivals = jobs;
        next_arrival(&mut eng, &mut state);
        eng.run(&mut state);
        assert!(state.arrivals.is_empty(), "scheduler left arrivals pending");
        assert!(state.core.queue.is_empty(), "scheduler left jobs queued");
        assert!(state.core.running.is_empty(), "scheduler left jobs running");
        state.core.account(eng.now());
        let makespan = eng.now();
        let util = state.core.utilization(makespan);
        rec.merge(state.rec);
        let mut outcomes = state.outcomes;
        outcomes.sort_by_key(|o| o.id);
        ScheduleResult {
            outcomes,
            makespan,
            utilization: util,
        }
    }
}

/// The closed scheduler's events.
#[derive(Clone, Copy)]
enum Ev {
    /// The next pending arrival submits: enqueue it, run a grant pass,
    /// and chain the arrival after it.
    Arrival,
    /// A running job finished and frees its nodes.
    Finish { id: u32, nodes: u32 },
}

impl Event<State> for Ev {
    fn fire(self, eng: &mut Engine<State, Ev>, st: &mut State) {
        match self {
            Ev::Arrival => {
                let job = st
                    .arrivals
                    .pop()
                    .expect("arrival event with no job pending");
                st.core.enqueue(job);
                dispatch(eng, st);
                next_arrival(eng, st);
            }
            Ev::Finish { id, nodes } => {
                let now = eng.now();
                st.core.release(id, nodes, now);
                if let Some(o) = st.outcomes.iter_mut().find(|o| o.id == id) {
                    o.end = now;
                }
                dispatch(eng, st);
            }
        }
    }
}

/// Schedule the next pending arrival (if any).
fn next_arrival(eng: &mut Engine<State, Ev>, st: &mut State) {
    if let Some(next) = st.arrivals.last() {
        eng.schedule_event_at(next.submit, Ev::Arrival);
    }
}

/// Run a grant pass and start everything it returns.
fn dispatch(eng: &mut Engine<State, Ev>, st: &mut State) {
    let now = eng.now();
    for (job, backfilled) in st.core.grants(now) {
        start_job(eng, st, job, backfilled);
    }
}

fn start_job(eng: &mut Engine<State, Ev>, st: &mut State, job: Job, backfilled: bool) {
    let now = eng.now();
    let (cat, name) = if backfilled {
        (SpanCategory::Backfill, "backfill-wait")
    } else {
        (SpanCategory::Queue, "queue-wait")
    };
    st.rec.span(cat, name, job.id, job.submit, now);
    st.rec.span(
        SpanCategory::Launch,
        "job-run",
        job.id,
        now,
        now + job.runtime,
    );
    st.outcomes.push(JobOutcome {
        id: job.id,
        start: now,
        end: now, // patched at finish
        wait: now.since(job.submit),
    });
    eng.schedule_event(
        job.runtime,
        Ev::Finish {
            id: job.id,
            nodes: job.nodes,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use harborsim_des::SimDuration;

    fn outcome(res: &ScheduleResult, id: u32) -> &JobOutcome {
        res.outcomes.iter().find(|o| o.id == id).unwrap()
    }

    #[test]
    fn single_job_runs_immediately() {
        let mut s = Scheduler::new(8);
        s.submit(Job::new(1, 4, 100.0, 60.0, 0.0));
        let res = s.run(&mut Recorder::off());
        let o = outcome(&res, 1);
        assert_eq!(o.wait, SimDuration::ZERO);
        assert!((o.end.as_secs_f64() - 60.0).abs() < 1e-9);
        assert!((res.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fifo_order_without_backfill_opportunity() {
        let mut s = Scheduler::new(4);
        // two full-machine jobs: strictly sequential
        s.submit(Job::new(1, 4, 100.0, 100.0, 0.0));
        s.submit(Job::new(2, 4, 100.0, 100.0, 0.0));
        let res = s.run(&mut Recorder::off());
        assert!(outcome(&res, 1).start.as_secs_f64().abs() < 1e-9);
        assert!((outcome(&res, 2).start.as_secs_f64() - 100.0).abs() < 1e-9);
        assert!((res.makespan.as_secs_f64() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn easy_backfill_fills_the_hole() {
        let mut s = Scheduler::new(4);
        s.submit(Job::new(1, 2, 100.0, 100.0, 0.0)); // runs on 2 nodes
        s.submit(Job::new(2, 4, 100.0, 100.0, 0.0)); // head: must wait for all 4
        s.submit(Job::new(3, 2, 50.0, 50.0, 0.0)); // fits the hole and ends before the shadow
        let res = s.run(&mut Recorder::off());
        assert!(
            outcome(&res, 3).start.as_secs_f64().abs() < 1e-9,
            "backfilled"
        );
        assert!(
            (outcome(&res, 2).start.as_secs_f64() - 100.0).abs() < 1e-9,
            "head undelayed"
        );
    }

    #[test]
    fn backfill_never_delays_the_head() {
        let mut s = Scheduler::new(4);
        s.submit(Job::new(1, 2, 100.0, 100.0, 0.0));
        s.submit(Job::new(2, 4, 100.0, 100.0, 0.0)); // head, shadow = 100
        s.submit(Job::new(3, 2, 200.0, 200.0, 0.0)); // would delay the head: no backfill
        let res = s.run(&mut Recorder::off());
        assert!((outcome(&res, 2).start.as_secs_f64() - 100.0).abs() < 1e-9);
        assert!(outcome(&res, 3).start.as_secs_f64() >= 100.0);
    }

    #[test]
    fn early_finish_releases_nodes_early() {
        let mut s = Scheduler::new(4);
        // estimates 100 but actually finishes at 30
        s.submit(Job::new(1, 4, 100.0, 30.0, 0.0));
        s.submit(Job::new(2, 4, 100.0, 50.0, 0.0));
        let res = s.run(&mut Recorder::off());
        assert!((outcome(&res, 2).start.as_secs_f64() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn staggered_submissions() {
        let mut s = Scheduler::new(4);
        s.submit(Job::new(1, 4, 60.0, 60.0, 0.0));
        s.submit(Job::new(2, 2, 60.0, 60.0, 100.0)); // machine idle when it arrives
        let res = s.run(&mut Recorder::off());
        assert!((outcome(&res, 2).start.as_secs_f64() - 100.0).abs() < 1e-9);
        assert_eq!(outcome(&res, 2).wait, SimDuration::ZERO);
    }

    #[test]
    fn arrivals_materialize_mid_simulation() {
        // the machine drains completely, then a late job arrives: the
        // arrival chain must still be alive to deliver it
        let mut s = Scheduler::new(4);
        s.submit(Job::new(1, 4, 50.0, 50.0, 0.0));
        s.submit(Job::new(2, 4, 50.0, 50.0, 500.0)); // long idle gap first
        let res = s.run(&mut Recorder::off());
        assert!((outcome(&res, 2).start.as_secs_f64() - 500.0).abs() < 1e-9);
        assert!((res.makespan.as_secs_f64() - 550.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_bounded() {
        let mut s = Scheduler::new(8);
        for i in 0..10 {
            s.submit(Job::new(
                i,
                1 + i % 4,
                150.0,
                40.0 + 5.0 * i as f64,
                10.0 * i as f64,
            ));
        }
        let res = s.run(&mut Recorder::off());
        assert!(res.utilization > 0.0 && res.utilization <= 1.0);
        assert_eq!(res.outcomes.len(), 10);
        // conservation: every job ran for exactly its runtime
        for (i, o) in res.outcomes.iter().enumerate() {
            let expected = 40.0 + 5.0 * i as f64;
            assert!(
                (o.end.since(o.start).as_secs_f64() - expected).abs() < 1e-9,
                "job {i}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let build = || {
            let mut s = Scheduler::new(6);
            for i in 0..12 {
                s.submit(Job::new(
                    i,
                    1 + (i * 7) % 5,
                    300.0,
                    100.0 + (i * 13) as f64 % 150.0,
                    (i * 31) as f64 % 200.0,
                ));
            }
            s.run(&mut Recorder::off())
        };
        let a = build();
        let b = build();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.makespan, b.makespan);
    }
}
