//! The open-system campaign engine, the crate's one batch-scheduler
//! loop: jobs arrive, queue, stage their containers through two shared
//! pipes, run, and leave.
//!
//! Production systems are *open*: tenants keep submitting, and the
//! interesting dynamics — queue-wait tails, deployment storms where
//! co-arriving jobs throttle each other's image pulls — only exist when
//! arrival pressure is part of the model. This module drives the
//! FIFO + EASY decision core (`SchedCore`) from an arrival list sampled
//! upstream (Poisson interarrivals, Zipf job mix — see
//! `harborsim_core::open`) or built by a closed [`crate::Campaign`], and
//! inserts a *staging phase* between node grant and solver start: each
//! job's [`StagePlan`] bytes contend fair-share on a registry uplink and
//! a parallel-filesystem [`FluidLink`], while its fixed latency
//! (metadata, unpack, gateway pack, launcher fan-out) runs in parallel.
//! The job's nodes are held — and billed — for the whole stage, exactly
//! as on the real machines. A job with an empty `StagePlan` starts its
//! solver the instant it is granted.
//!
//! Arrival is an event source, not a pre-enqueued list: each arrival
//! event enqueues its job, runs a grant pass, and schedules the next
//! arrival, so jobs materialize mid-simulation.
//!
//! Everything is a serial discrete-event simulation over one clock, so
//! results are bit-identical for a given job list whatever the host.
//!
//! [`FluidLink`]: harborsim_des::FluidLink

use crate::scheduler::{Queued, SchedCore};
use harborsim_container::StagePlan;
use harborsim_des::trace::{Recorder, SpanCategory};
use harborsim_des::{Engine, Event, FluidLink, SimDuration, SimTime};

/// A job in an open campaign, fully sampled before simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenJob {
    /// Dense id (also the trace track).
    pub id: u32,
    /// Submitting tenant.
    pub tenant: u32,
    /// Index into the campaign's class table (size × case × runtime).
    pub class: usize,
    /// Nodes requested.
    pub nodes: u32,
    /// Arrival time in seconds.
    pub submit_s: f64,
    /// Solver time once staged (from the class's compiled plan).
    pub solver_s: f64,
    /// Walltime request the scheduler plans reservations with.
    pub walltime_s: f64,
    /// Staging demand (registry bytes, PFS bytes, fixed seconds).
    pub stage: StagePlan,
}

/// The machine an open campaign runs on, reduced to what the engine
/// needs: a node pool and the two shared staging pipes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenCluster {
    /// Schedulable nodes.
    pub total_nodes: u32,
    /// Registry uplink capacity in bytes/s.
    pub registry_bps: f64,
    /// Parallel-filesystem bandwidth in bytes/s.
    pub pfs_bps: f64,
}

/// What happened to one open-campaign job.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenJobRecord {
    /// The job id.
    pub id: u32,
    /// Submitting tenant.
    pub tenant: u32,
    /// Class-table index.
    pub class: usize,
    /// Nodes held.
    pub nodes: u32,
    /// Arrival time.
    pub submit_s: f64,
    /// Queue wait: arrival to node grant.
    pub wait_s: f64,
    /// Staging: node grant to solver start (contended).
    pub stage_s: f64,
    /// Solver time.
    pub run_s: f64,
    /// Whether EASY backfill started it out of FIFO order.
    pub backfilled: bool,
}

impl OpenJobRecord {
    /// Submission-to-completion time.
    pub fn turnaround_s(&self) -> f64 {
        self.wait_s + self.stage_s + self.run_s
    }
}

/// The result of an open-campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenOutcome {
    /// Per-job records, id order.
    pub records: Vec<OpenJobRecord>,
    /// Last completion time.
    pub makespan_s: f64,
    /// Mean node utilization over the makespan (stage + solve both hold
    /// nodes).
    pub utilization: f64,
    /// Share of delivered node-seconds that went to backfilled jobs.
    pub backfill_node_share: f64,
    /// Discrete events processed (arrivals, stage completions, solver
    /// finishes) — the unit of the open-system throughput benchmark.
    pub events: u64,
    /// Most simultaneous registry pulls (the deployment-storm depth).
    pub peak_registry_flows: usize,
    /// Most simultaneous parallel-filesystem streams.
    pub peak_pfs_flows: usize,
}

/// A granted job mid-flight: counts down its staging parts, then solves.
struct Slot {
    job: OpenJob,
    granted: SimTime,
    solve_started: SimTime,
    backfilled: bool,
    /// Staging parts still in flight (fixed latency + up to two flows).
    pending: u32,
}

struct St {
    core: SchedCore,
    registry: FluidLink<Ev>,
    pfs: FluidLink<Ev>,
    /// Pending arrivals, soonest last.
    arrivals: Vec<OpenJob>,
    slots: Vec<Option<Slot>>,
    records: Vec<OpenJobRecord>,
    events: u64,
    rec: Recorder,
}

/// The open engine's events.
#[derive(Clone, Copy)]
enum Ev {
    /// The next pending arrival submits.
    Arrival,
    /// One staging part of job `id` (fixed latency or a flow) finished.
    StagePartDone(u32),
    /// Job `id`'s solver finished and frees its nodes.
    Finish {
        id: u32,
        nodes: u32,
    },
    RegistryTimer,
    PfsTimer,
}

impl Event<St> for Ev {
    fn fire(self, eng: &mut Engine<St, Ev>, st: &mut St) {
        match self {
            Ev::Arrival => arrive(eng, st),
            Ev::StagePartDone(id) => stage_part_done(eng, st, id),
            Ev::Finish { id, nodes } => finish(eng, st, id, nodes),
            Ev::RegistryTimer => FluidLink::on_timer(eng, st, |st| &mut st.registry),
            Ev::PfsTimer => FluidLink::on_timer(eng, st, |st| &mut st.pfs),
        }
    }
}

/// Run an open campaign to completion. Jobs may arrive in any order;
/// ids must be unique. Spans (queue/backfill wait, staging, solver) are
/// emitted through `rec` on track `job.id`.
///
/// # Panics
/// Panics if a job requests more nodes than the cluster has.
pub fn run_open(cluster: &OpenCluster, jobs: Vec<OpenJob>, rec: &mut Recorder) -> OpenOutcome {
    let mut jobs = jobs;
    for j in &jobs {
        assert!(
            j.nodes >= 1 && j.nodes <= cluster.total_nodes,
            "job {} wants {} nodes, machine has {}",
            j.id,
            j.nodes,
            cluster.total_nodes
        );
    }
    jobs.sort_by(|a, b| a.submit_s.total_cmp(&b.submit_s).then(a.id.cmp(&b.id)));
    let max_id = jobs.iter().map(|j| j.id + 1).max().unwrap_or(0);
    let mut state = St {
        core: SchedCore::new(cluster.total_nodes),
        registry: FluidLink::new(cluster.registry_bps, Ev::RegistryTimer),
        pfs: FluidLink::new(cluster.pfs_bps, Ev::PfsTimer),
        arrivals: Vec::new(),
        slots: (0..max_id).map(|_| None).collect(),
        records: Vec::new(),
        events: 0,
        rec: Recorder::like(rec),
    };
    state.rec.declare_tracks(max_id);
    jobs.reverse();
    state.arrivals = jobs;
    let mut eng: Engine<St, Ev> = Engine::new();
    next_arrival(&mut eng, &mut state);
    eng.run(&mut state);
    assert!(state.arrivals.is_empty(), "open run left arrivals pending");
    assert!(state.core.queue.is_empty(), "open run left jobs queued");
    assert!(state.core.running.is_empty(), "open run left jobs running");
    state.core.account(eng.now());
    let makespan = eng.now();
    let utilization = state.core.utilization(makespan);
    rec.merge(state.rec);
    let mut records = state.records;
    records.sort_by_key(|r| r.id);
    let delivered: f64 = records
        .iter()
        .map(|r| r.nodes as f64 * (r.stage_s + r.run_s))
        .sum();
    let backfilled: f64 = records
        .iter()
        .filter(|r| r.backfilled)
        .map(|r| r.nodes as f64 * (r.stage_s + r.run_s))
        .sum();
    OpenOutcome {
        records,
        makespan_s: makespan.as_secs_f64(),
        utilization,
        // an empty f64 sum is -0.0 (the sign-preserving additive
        // identity), which would print as "-0"; route it to +0.0
        backfill_node_share: if backfilled > 0.0 && delivered > 0.0 {
            backfilled / delivered
        } else {
            0.0
        },
        events: state.events,
        peak_registry_flows: state.registry.peak_concurrency(),
        peak_pfs_flows: state.pfs.peak_concurrency(),
    }
}

/// Schedule the next pending arrival, if any.
fn next_arrival(eng: &mut Engine<St, Ev>, st: &mut St) {
    if let Some(next) = st.arrivals.last() {
        let at = SimTime::ZERO + SimDuration::from_secs_f64(next.submit_s);
        eng.schedule_event_at(at, Ev::Arrival);
    }
}

/// The next pending arrival submits: it enqueues, dispatches, chains.
fn arrive(eng: &mut Engine<St, Ev>, st: &mut St) {
    st.events += 1;
    let job = st
        .arrivals
        .pop()
        .expect("arrival event with no job pending");
    let id = job.id;
    st.core.enqueue(Queued {
        id,
        nodes: job.nodes,
        walltime: SimDuration::from_secs_f64(job.walltime_s),
    });
    assert!(
        st.slots[id as usize].is_none(),
        "duplicate open job id {id}"
    );
    st.slots[id as usize] = Some(Slot {
        job,
        granted: SimTime::ZERO,
        solve_started: SimTime::ZERO,
        backfilled: false,
        pending: 0,
    });
    dispatch(eng, st);
    next_arrival(eng, st);
}

/// Grant pass: every job the core starts begins its staging phase.
fn dispatch(eng: &mut Engine<St, Ev>, st: &mut St) {
    let now = eng.now();
    for (id, backfilled) in st.core.grants(now) {
        begin_stage(eng, st, id, backfilled);
    }
}

fn begin_stage(eng: &mut Engine<St, Ev>, st: &mut St, id: u32, backfilled: bool) {
    let now = eng.now();
    let (stage, submit) = {
        let slot = st.slots[id as usize]
            .as_mut()
            .expect("granted job has no slot");
        slot.granted = now;
        slot.backfilled = backfilled;
        slot.pending = 1
            + u32::from(slot.job.stage.registry_bytes > 0.0)
            + u32::from(slot.job.stage.pfs_bytes > 0.0);
        (slot.job.stage, slot.job.submit_s)
    };
    let (cat, name) = if backfilled {
        (SpanCategory::Backfill, "backfill-wait")
    } else {
        (SpanCategory::Queue, "queue-wait")
    };
    st.rec.span(
        cat,
        name,
        id,
        SimTime::ZERO + SimDuration::from_secs_f64(submit),
        now,
    );
    eng.schedule_event(
        SimDuration::from_secs_f64(stage.fixed_s),
        Ev::StagePartDone(id),
    );
    if stage.registry_bytes > 0.0 {
        st.registry
            .start_flow(eng, stage.registry_bytes, Ev::StagePartDone(id));
    }
    if stage.pfs_bytes > 0.0 {
        st.pfs
            .start_flow(eng, stage.pfs_bytes, Ev::StagePartDone(id));
    }
}

/// One staging part (fixed latency or a flow) finished; when all have,
/// the solver starts.
fn stage_part_done(eng: &mut Engine<St, Ev>, st: &mut St, id: u32) {
    st.events += 1;
    let now = eng.now();
    let (granted, solver_s, nodes) = {
        let slot = st.slots[id as usize]
            .as_mut()
            .expect("staging part for a job with no slot");
        slot.pending -= 1;
        if slot.pending > 0 {
            return;
        }
        slot.solve_started = now;
        (slot.granted, slot.job.solver_s, slot.job.nodes)
    };
    st.rec.span(SpanCategory::Pull, "stage", id, granted, now);
    let solver = SimDuration::from_secs_f64(solver_s);
    st.rec
        .span(SpanCategory::Launch, "job-run", id, now, now + solver);
    eng.schedule_event(solver, Ev::Finish { id, nodes });
}

/// Job `id`'s solver finished: free its nodes, record it, dispatch.
fn finish(eng: &mut Engine<St, Ev>, st: &mut St, id: u32, nodes: u32) {
    st.events += 1;
    let now = eng.now();
    st.core.release(id, nodes, now);
    let slot = st.slots[id as usize]
        .take()
        .expect("finishing job has no slot");
    st.records.push(OpenJobRecord {
        id,
        tenant: slot.job.tenant,
        class: slot.job.class,
        nodes: slot.job.nodes,
        submit_s: slot.job.submit_s,
        wait_s: slot
            .granted
            .since(SimTime::ZERO + SimDuration::from_secs_f64(slot.job.submit_s))
            .as_secs_f64(),
        stage_s: slot.solve_started.since(slot.granted).as_secs_f64(),
        run_s: now.since(slot.solve_started).as_secs_f64(),
        backfilled: slot.backfilled,
    });
    dispatch(eng, st);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> OpenCluster {
        OpenCluster {
            total_nodes: 4,
            registry_bps: 100e6,
            pfs_bps: 1e9,
        }
    }

    fn job(id: u32, nodes: u32, submit_s: f64, stage: StagePlan) -> OpenJob {
        OpenJob {
            id,
            tenant: id % 3,
            class: 0,
            nodes,
            submit_s,
            solver_s: 50.0,
            walltime_s: 1000.0,
            stage,
        }
    }

    fn pull(registry_bytes: f64) -> StagePlan {
        StagePlan {
            registry_bytes,
            pfs_bytes: 0.0,
            fixed_s: 2.0,
        }
    }

    #[test]
    fn an_uncontended_job_matches_its_solo_estimate() {
        let c = cluster();
        let stage = StagePlan {
            registry_bytes: 200e6,
            pfs_bytes: 500e6,
            fixed_s: 3.0,
        };
        let out = run_open(&c, vec![job(0, 2, 0.0, stage)], &mut Recorder::off());
        let r = &out.records[0];
        assert_eq!(r.wait_s, 0.0);
        // parts run in parallel: the stage is the slowest of the three
        let expect = 3.0_f64.max(200e6 / c.registry_bps).max(500e6 / c.pfs_bps);
        assert!((r.stage_s - expect).abs() < 1e-6, "stage {}", r.stage_s);
        assert!((r.run_s - 50.0).abs() < 1e-9);
        assert!((out.makespan_s - (r.stage_s + 50.0)).abs() < 1e-6);
    }

    #[test]
    fn co_arriving_pulls_contend_for_the_registry() {
        let c = cluster();
        // alone: 100 MB at 100 MB/s = 1 s; together they fair-share
        let jobs = vec![job(0, 1, 0.0, pull(100e6)), job(1, 1, 0.0, pull(100e6))];
        let out = run_open(&c, jobs, &mut Recorder::off());
        assert_eq!(out.peak_registry_flows, 2);
        for r in &out.records {
            assert!(
                (r.stage_s - 2.0_f64.max(2.0)).abs() < 1e-6,
                "contended stage {}",
                r.stage_s
            );
        }
        // a lone job would have staged in max(fixed 2 s, 1 s transfer)
        let solo = run_open(&c, vec![job(0, 1, 0.0, pull(100e6))], &mut Recorder::off());
        assert!(out.records[0].stage_s >= solo.records[0].stage_s);
    }

    #[test]
    fn backfill_fills_holes_mid_storm() {
        let c = cluster();
        let mut jobs = vec![
            job(0, 2, 0.0, pull(0.0)), // holds 2 nodes
            job(1, 4, 1.0, pull(0.0)), // head: must wait for the machine
            job(2, 1, 2.0, pull(0.0)), // short, fits the hole
        ];
        jobs[2].solver_s = 5.0;
        jobs[2].walltime_s = 10.0;
        let out = run_open(&c, jobs, &mut Recorder::off());
        let r2 = out.records.iter().find(|r| r.id == 2).unwrap();
        assert!(r2.backfilled, "small job should backfill");
        assert!(out.backfill_node_share > 0.0 && out.backfill_node_share < 1.0);
        let r1 = out.records.iter().find(|r| r.id == 1).unwrap();
        assert!(r1.wait_s > 0.0, "head waited for the full machine");
    }

    #[test]
    fn deterministic_and_conserves_jobs() {
        let build = || {
            let c = cluster();
            let jobs: Vec<OpenJob> = (0..10)
                .map(|i| {
                    let mut j = job(
                        i,
                        1 + i % 3,
                        7.0 * i as f64,
                        pull(40e6 * (1 + i % 2) as f64),
                    );
                    j.solver_s = 30.0 + 4.0 * i as f64;
                    j
                })
                .collect();
            run_open(&c, jobs, &mut Recorder::off())
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.records.len(), 10);
        assert!(a.utilization > 0.0 && a.utilization <= 1.0);
        assert!(a.events > 30, "arrival + staging + finish per job");
        for r in &a.records {
            assert!(r.turnaround_s() >= r.run_s);
        }
    }

    // The FIFO + EASY behaviours below use `pull(0.0)`: every job stages
    // for a fixed 2 s and holds its nodes through it, so a job that holds
    // nodes for `t` seconds solves for `t - 2`. Records are in id order.

    #[test]
    fn a_single_job_runs_at_once() {
        let jobs = vec![OpenJob {
            solver_s: 58.0,
            walltime_s: 100.0,
            ..job(0, 2, 0.0, pull(0.0))
        }];
        let out = run_open(&cluster(), jobs, &mut Recorder::off());
        let r = &out.records[0];
        assert_eq!(r.wait_s, 0.0);
        assert!((r.turnaround_s() - 60.0).abs() < 1e-9);
        assert!((out.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fifo_order_without_a_backfill_opportunity() {
        // two full-machine jobs: strictly sequential
        let full = |id| OpenJob {
            solver_s: 98.0,
            walltime_s: 100.0,
            ..job(id, 4, 0.0, pull(0.0))
        };
        let out = run_open(&cluster(), vec![full(0), full(1)], &mut Recorder::off());
        assert_eq!(out.records[0].wait_s, 0.0);
        assert!((out.records[1].wait_s - 100.0).abs() < 1e-9);
        assert!(!out.records[1].backfilled);
        assert!((out.makespan_s - 200.0).abs() < 1e-9);
    }

    #[test]
    fn easy_backfill_fills_the_hole() {
        let jobs = vec![
            // runs on 2 nodes until 100
            OpenJob {
                solver_s: 98.0,
                walltime_s: 100.0,
                ..job(0, 2, 0.0, pull(0.0))
            },
            // head: must wait for all 4, reservation at 100
            OpenJob {
                solver_s: 98.0,
                walltime_s: 100.0,
                ..job(1, 4, 0.0, pull(0.0))
            },
            // fits the hole and ends before the reservation
            OpenJob {
                solver_s: 48.0,
                walltime_s: 50.0,
                ..job(2, 2, 0.0, pull(0.0))
            },
        ];
        let out = run_open(&cluster(), jobs, &mut Recorder::off());
        assert!(out.records[2].backfilled);
        assert_eq!(out.records[2].wait_s, 0.0, "backfilled at once");
        assert!(
            (out.records[1].wait_s - 100.0).abs() < 1e-9,
            "head undelayed"
        );
    }

    #[test]
    fn backfill_never_delays_the_head() {
        let jobs = vec![
            OpenJob {
                solver_s: 98.0,
                walltime_s: 100.0,
                ..job(0, 2, 0.0, pull(0.0))
            },
            // head, reservation at 100
            OpenJob {
                solver_s: 98.0,
                walltime_s: 100.0,
                ..job(1, 4, 0.0, pull(0.0))
            },
            // fits the hole now but would run past the reservation
            OpenJob {
                solver_s: 198.0,
                walltime_s: 200.0,
                ..job(2, 2, 0.0, pull(0.0))
            },
        ];
        let out = run_open(&cluster(), jobs, &mut Recorder::off());
        assert!((out.records[1].wait_s - 100.0).abs() < 1e-9);
        assert!(!out.records[2].backfilled);
        assert!(out.records[2].wait_s >= 100.0);
    }

    #[test]
    fn an_early_finish_releases_nodes_early() {
        let jobs = vec![
            // estimates 100 but holds its nodes for 30
            OpenJob {
                solver_s: 28.0,
                walltime_s: 100.0,
                ..job(0, 4, 0.0, pull(0.0))
            },
            OpenJob {
                solver_s: 48.0,
                walltime_s: 100.0,
                ..job(1, 4, 0.0, pull(0.0))
            },
        ];
        let out = run_open(&cluster(), jobs, &mut Recorder::off());
        assert!((out.records[1].wait_s - 30.0).abs() < 1e-9);
    }

    #[test]
    fn staggered_submissions() {
        let jobs = vec![
            OpenJob {
                solver_s: 58.0,
                walltime_s: 60.0,
                ..job(0, 4, 0.0, pull(0.0))
            },
            // the machine is idle when it arrives
            OpenJob {
                solver_s: 58.0,
                walltime_s: 60.0,
                ..job(1, 2, 100.0, pull(0.0))
            },
        ];
        let out = run_open(&cluster(), jobs, &mut Recorder::off());
        assert_eq!(out.records[1].wait_s, 0.0);
        assert!((out.makespan_s - 160.0).abs() < 1e-9);
    }

    #[test]
    fn an_arrival_after_an_idle_gap_still_runs() {
        // the machine drains completely, then a late job arrives: the
        // arrival chain must still be alive to deliver it
        let jobs = vec![
            OpenJob {
                solver_s: 48.0,
                walltime_s: 50.0,
                ..job(0, 4, 0.0, pull(0.0))
            },
            OpenJob {
                solver_s: 48.0,
                walltime_s: 50.0,
                ..job(1, 4, 500.0, pull(0.0))
            },
        ];
        let out = run_open(&cluster(), jobs, &mut Recorder::off());
        assert_eq!(out.records[1].wait_s, 0.0);
        assert!((out.makespan_s - 550.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_bounded_and_every_job_runs_its_time() {
        let c = OpenCluster {
            total_nodes: 8,
            ..cluster()
        };
        let jobs: Vec<OpenJob> = (0..10)
            .map(|i| OpenJob {
                solver_s: 40.0 + 5.0 * i as f64,
                walltime_s: 150.0,
                ..job(i, 1 + i % 4, 10.0 * i as f64, pull(0.0))
            })
            .collect();
        let out = run_open(&c, jobs, &mut Recorder::off());
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
        assert_eq!(out.records.len(), 10);
        for (i, r) in out.records.iter().enumerate() {
            assert!((r.stage_s - 2.0).abs() < 1e-9, "job {i}");
            assert!((r.run_s - (40.0 + 5.0 * i as f64)).abs() < 1e-9, "job {i}");
        }
    }

    #[test]
    fn a_backfilling_mix_is_deterministic() {
        let build = || {
            let c = OpenCluster {
                total_nodes: 6,
                ..cluster()
            };
            let jobs: Vec<OpenJob> = (0..12)
                .map(|i| OpenJob {
                    solver_s: 100.0 + (i * 13) as f64 % 150.0,
                    walltime_s: 300.0,
                    ..job(i, 1 + (i * 7) % 5, (i * 31) as f64 % 200.0, pull(0.0))
                })
                .collect();
            run_open(&c, jobs, &mut Recorder::off())
        };
        let a = build();
        assert!(a.records.iter().any(|r| r.backfilled));
        assert_eq!(a, build());
    }
}
