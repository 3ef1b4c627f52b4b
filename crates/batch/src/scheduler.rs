//! The FIFO + EASY-backfill grant decision.
//!
//! The production policy on machines like MareNostrum4: jobs start in
//! submission order; when the queue head does not fit, it receives a
//! *reservation* at the earliest instant enough nodes will be free, and
//! later jobs may start out of order ("backfill") only if doing so cannot
//! delay that reservation — either they finish before it (by their
//! walltime estimate), or they fit in nodes the head will not need.
//!
//! `SchedCore` holds no clock and no events: the open-system engine
//! ([`crate::open`]) enqueues on arrival, calls [`SchedCore::grants`]
//! after every state change, and [`SchedCore::release`] when a job's
//! nodes come back.

use harborsim_des::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A pending job, reduced to what the grant decision reads.
pub(crate) struct Queued {
    pub(crate) id: u32,
    pub(crate) nodes: u32,
    /// The user's walltime estimate: reservations plan with it.
    pub(crate) walltime: SimDuration,
}

pub(crate) struct Running {
    pub(crate) id: u32,
    pub(crate) nodes: u32,
    /// When the scheduler may count these nodes free (walltime-based for
    /// planning; the actual release event uses the true runtime).
    pub(crate) est_end: SimTime,
}

/// The scheduling core: node accounting, the pending queue, and the
/// FIFO + EASY grant decision.
pub(crate) struct SchedCore {
    pub(crate) total_nodes: u32,
    pub(crate) free: u32,
    pub(crate) queue: VecDeque<Queued>,
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

    pub(crate) fn enqueue(&mut self, job: Queued) {
        debug_assert!(job.nodes <= self.total_nodes);
        self.queue.push_back(job);
    }

    fn allocate(&mut self, job: &Queued, now: SimTime) {
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
    /// allocate its nodes, and return its id with its backfill flag, in
    /// grant order (FIFO heads first, then backfill candidates in queue
    /// order).
    pub(crate) fn grants(&mut self, now: SimTime) -> Vec<(u32, bool)> {
        let mut granted = Vec::new();
        // start the head (and successive heads) while they fit
        while let Some(head) = self.queue.front() {
            if head.nodes <= self.free {
                let job = self.queue.pop_front().expect("head exists");
                self.allocate(&job, now);
                granted.push((job.id, false));
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
                granted.push((job.id, true));
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
