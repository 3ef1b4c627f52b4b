//! The bulk-synchronous analytic performance engine.
//!
//! Costs a [`JobProfile`] against a node model, a composed network model and
//! a rank placement using LogGP closed forms over the routed link graph
//! shared with the DES engine ([`harborsim_net::link`]). Each communication
//! round counts its messages per link in a fluid [`LinkSchedule`] and
//! settles them once at the round's message size; the round's wire time is
//! the busiest link's drain time. Total work is `O(phases × ranks·log
//! ranks)` regardless of how many timesteps the job has (steps are
//! run-length encoded), and the per-rank part is integer counting.
//!
//! A run splits in three, by what each level depends on:
//!
//! - **Count** ([`AnalyticEngine::count`], per rank): walk every round of
//!   every phase over the placement and keep, as a [`Traffic`], each
//!   round's message counts per link (run-length encoded), its intra-node
//!   maximum and sum, and whether it stays under one leaf or crosses the
//!   spine. This depends on the job, the placement, the fabric's shape
//!   and the allreduce algorithm, and on nothing an environment, a spine
//!   taper or a degraded link changes, so plans that differ only in their
//!   network can share one count. Within a job, a phase whose pattern
//!   equals an earlier one's (the CFD and FSI cases' two halo exchanges
//!   on one grid, FSI's two coupling exchanges) reuses its rounds.
//! - **Cost** ([`AnalyticEngine::cost_from`], per link): settle the counted
//!   rounds at this engine's capacities and message sizes into an
//!   [`AnalyticCost`] table: each step's compute seconds, each phase's
//!   seconds and bridge share, the message and byte totals, and per-link
//!   busy seconds and bytes. [`AnalyticEngine::cost`] counts and costs in
//!   one call.
//! - **Replay** ([`AnalyticEngine::replay`], per seed): draw the run
//!   factor, walk the table emitting spans, and render the link labels,
//!   in `O(phases + links)`.
//!
//! A plan's first execute of the MareNostrum4 CFD case at 128 × 48 =
//! 6,144 ranks counts and costs in 0.29–0.51 ms on a 2-thread host
//! (`engine_micro`'s `fresh_plan_first_execute_mn4_128x48`, four runs;
//! the host's pace moves that much between runs). When a sibling plan has
//! already counted the traffic, the cost level alone takes about a sixth
//! of that, 0.06–0.09 ms in the same runs
//! (`first_execute_shared_traffic_mn4_128x48`).
//! Every floating-point operation keeps the order of a single pass
//! (`(compute × reps) × run_factor`), so a replayed table is bit-identical
//! to costing the seed from scratch, and a cost from shared counts is
//! bit-identical to one from the engine's own.
//!
//! Modelling decisions (shared with the DES engine where applicable):
//!
//! - Per-rank protocol CPU costs parallelize across ranks; payload bytes
//!   leaving a node serialize through its NIC-fed uplink, and which spine
//!   link they then cross is a property of the placement, not a scalar.
//! - Intra-node messages share a node-wide memory/bridge pipe.
//! - Compute and communication do not overlap (Alya's solver phases are
//!   bulk-synchronous).
//! - OS jitter grows the effective compute time of the slowest of `p` ranks
//!   by `1 + σ·sqrt(2·ln p)` — the expected maximum of `p` log-normal
//!   deviates, the standard large-scale noise-amplification model.

use crate::collectives::{log2_rounds, AllreduceAlgo};
use crate::mapping::{route_table, RankMap};
use crate::result::{CommBreakdown, LinkUsage, SimResult};
use crate::workload::{for_each_grid_face, CommPhase, JobProfile, StepProfile};
use harborsim_des::trace::{Recorder, SpanCategory};
use harborsim_des::{RngStream, SimDuration, SimTime};
use harborsim_hw::NodeSpec;
use harborsim_net::{LinkGraph, LinkSchedule, NetworkModel, RoundCounts, RouteTable};
use std::sync::Arc;

/// Knobs common to both engines.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Allreduce algorithm.
    pub allreduce_algo: AllreduceAlgo,
    /// Sigma of per-rank log-normal compute jitter (OS noise).
    pub jitter_sigma: f64,
    /// Multiplicative compute slowdown from the container runtime
    /// (cgroup accounting etc.); 1.0 = none.
    pub compute_tax: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            allreduce_algo: AllreduceAlgo::RecursiveDoubling,
            jitter_sigma: 0.01,
            compute_tax: 1.0,
        }
    }
}

/// Scalar cost of one communication phase. The per-link tallies the phase
/// deposits accumulate in the costing's [`Scratch`], not here.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCost {
    seconds: f64,
    /// Share of `seconds` spent in the serialized container-bridge path
    /// (already included in `seconds`; recorded as a nested trace span).
    bridge_s: f64,
    inter_msgs: u64,
    intra_msgs: u64,
    inter_bytes: u64,
}

impl PhaseCost {
    fn accumulate(&mut self, other: PhaseCost) {
        self.seconds += other.seconds;
        self.bridge_s += other.bridge_s;
        self.inter_msgs += other.inter_msgs;
        self.intra_msgs += other.intra_msgs;
        self.inter_bytes += other.inter_bytes;
    }

    fn times(mut self, k: u64) -> PhaseCost {
        self.seconds *= k as f64;
        self.bridge_s *= k as f64;
        self.inter_msgs *= k;
        self.intra_msgs *= k;
        self.inter_bytes *= k;
        self
    }
}

/// The message counts of one job on one placement, before any capacity,
/// latency or message size applies: built by [`AnalyticEngine::count`]
/// and settled by [`AnalyticEngine::cost_from`] on any engine whose
/// placement, fabric shape (nodes and nodes per leaf) and allreduce
/// algorithm match the counting engine's. Stores each distinct round
/// once, all rounds back to back, so no round has an allocation of its
/// own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traffic {
    /// Each communication phase of the job, in job order: its rounds,
    /// as a range of round indices.
    phases: Vec<(u32, u32)>,
    /// Each round's intra-node messages: the most on any node, and the
    /// sum over nodes.
    intra: Vec<(u32, u64)>,
    /// Each round's per-link message counts.
    links: RoundCounts,
}

impl Traffic {
    /// Rounds counted (a phase that reuses another's rounds adds none).
    pub fn rounds(&self) -> usize {
        self.intra.len()
    }

    /// Heap bytes the counts hold.
    pub fn heap_bytes(&self) -> usize {
        self.phases.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.intra.capacity() * std::mem::size_of::<(u32, u64)>()
            + self.links.heap_bytes()
    }
}

/// Runs a counted round is first given room for: a halo or pairwise
/// round over a block placement loads the links in a handful of equal
/// stretches.
const RUNS_PER_ROUND: usize = 8;

/// Working state of one count, `O(links + nodes)`: the round being
/// counted (per-node intra-node tallies and the link schedule), and the
/// traffic recorded so far.
struct Counter {
    /// Link counts of the round being counted.
    sched: LinkSchedule,
    /// Intra-node messages per node, this round.
    intra: Vec<u32>,
    traffic: Traffic,
}

impl Counter {
    /// Start counting a fresh communication round.
    fn begin_round(&mut self) {
        self.intra.fill(0);
        self.sched.reset();
    }

    /// Keep the round counted since [`Counter::begin_round`].
    fn end_round(&mut self) {
        let max = self.intra.iter().copied().max().unwrap_or(0);
        let sum = self.intra.iter().map(|&n| u64::from(n)).sum();
        self.traffic.intra.push((max, sum));
        self.sched.record(&mut self.traffic.links);
    }
}

/// Working state of one costing, `O(links)`: the settling buffer, the
/// current phase's per-link accumulators, and the whole job's per-link
/// accumulators.
#[derive(Debug)]
struct Scratch {
    /// Settles each counted round.
    sched: LinkSchedule,
    /// Per-link busy seconds deposited by the current phase.
    phase_busy: Vec<f64>,
    /// Per-link payload bytes deposited by the current phase.
    phase_bytes: Vec<u64>,
    /// Per-link busy seconds over the whole job.
    link_busy: Vec<f64>,
    /// Per-link payload bytes over the whole job.
    link_bytes: Vec<u64>,
}

impl Scratch {
    /// Zeroed state for a plan over `graph`.
    fn new(graph: &LinkGraph) -> Scratch {
        let links = graph.len();
        Scratch {
            sched: LinkSchedule::new(graph),
            phase_busy: vec![0.0; links],
            phase_bytes: vec![0; links],
            link_busy: vec![0.0; links],
            link_bytes: vec![0; links],
        }
    }

    /// Multiply the current phase's link tallies by a repeat count.
    fn scale_phase(&mut self, k: u64) {
        let kf = k as f64;
        for b in &mut self.phase_busy {
            *b *= kf;
        }
        for b in &mut self.phase_bytes {
            *b *= k;
        }
    }
}

/// Whether two phases send the same messages between the same ranks in
/// every round, whatever their sizes and repeat counts: then one count
/// serves both. An allreduce's rounds follow the engine's one algorithm,
/// and a broadcast's rounds do not depend on its size.
fn same_pattern(a: &CommPhase, b: &CommPhase) -> bool {
    use CommPhase::*;
    match (a, b) {
        (Halo3D { dims: x, .. }, Halo3D { dims: y, .. }) => x == y,
        (Pairs { pairs: x, .. }, Pairs { pairs: y, .. }) => x == y,
        (Halo1D { .. }, Halo1D { .. })
        | (Allreduce { .. }, Allreduce { .. })
        | (Bcast { .. }, Bcast { .. })
        | (Gather { .. }, Gather { .. })
        | (Barrier, Barrier) => true,
        _ => false,
    }
}

/// One stretch of the bulk-synchronous timeline, before the seed's run
/// factor scales it.
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// A step's compute: the slowest rank's seconds times the step's
    /// repeat count.
    Compute(f64),
    /// A communication phase after the step's repeat count.
    Phase {
        seconds: f64,
        /// Share of `seconds` spent in the serialized container-bridge path.
        bridge_s: f64,
        cat: SpanCategory,
        name: &'static str,
    },
}

/// The seed-independent cost of one job on one [`AnalyticEngine`]: the
/// timeline's segments, the traffic totals and the per-link tallies.
/// Built by [`AnalyticEngine::cost`] and turned into a seed's result by
/// [`AnalyticEngine::replay`] on the engine that built it. It holds no
/// link labels; `replay` renders them.
#[derive(Debug, Clone)]
pub struct AnalyticCost {
    /// Compute and phase segments in timeline order.
    segments: Vec<Segment>,
    inter_msgs: u64,
    intra_msgs: u64,
    inter_bytes: u64,
    /// Per-link busy seconds; empty when no byte crossed the fabric.
    link_busy: Vec<f64>,
    /// Per-link payload bytes; empty when no byte crossed the fabric.
    link_bytes: Vec<u64>,
}

/// The analytic engine.
#[derive(Debug, Clone)]
pub struct AnalyticEngine {
    /// Node hardware.
    pub node: NodeSpec,
    /// Effective network (fabric × stack × data path).
    pub network: NetworkModel,
    /// Rank placement.
    pub map: RankMap,
    /// Engine knobs.
    pub config: EngineConfig,
    routes: Arc<RouteTable>,
}

impl AnalyticEngine {
    /// Build an engine, deriving the route table from the placement and
    /// network. Prefer [`AnalyticEngine::with_routes`] when another engine
    /// shares the same plan — the table is built once per plan, not per
    /// engine.
    pub fn new(
        node: NodeSpec,
        network: NetworkModel,
        map: RankMap,
        config: EngineConfig,
    ) -> AnalyticEngine {
        let routes = Arc::new(route_table(&map, &network));
        AnalyticEngine::with_routes(node, network, map, config, routes)
    }

    /// Build an engine over an already-built route table.
    pub fn with_routes(
        node: NodeSpec,
        network: NetworkModel,
        map: RankMap,
        config: EngineConfig,
        routes: Arc<RouteTable>,
    ) -> AnalyticEngine {
        assert_eq!(
            routes.ranks(),
            map.ranks(),
            "route table must match placement"
        );
        AnalyticEngine {
            node,
            network,
            map,
            config,
            routes,
        }
    }

    /// The route table all inter-node costs derive from.
    pub fn routes(&self) -> &Arc<RouteTable> {
        &self.routes
    }

    /// Execute `job` and return timing + traffic accounting. `seed` drives
    /// the run-to-run jitter the paper averages away.
    pub fn run(&self, job: &JobProfile, seed: u64) -> SimResult {
        self.run_traced(job, seed, &mut Recorder::aggregating())
    }

    /// Execute `job`, emitting the closed-form timeline as spans through
    /// `rec` (one track, bulk-synchronous: compute and phase spans strictly
    /// alternate). The timing and breakdown in the returned [`SimResult`]
    /// are *derived from* the recorded spans; with a disabled recorder
    /// `elapsed` and traffic counters are still exact but `compute`/`comm`
    /// attribution comes out zero. Costs `job` afresh; callers that run
    /// many seeds of one job keep its [`AnalyticEngine::cost`] and
    /// [`AnalyticEngine::replay`] it.
    pub fn run_traced(&self, job: &JobProfile, seed: u64, rec: &mut Recorder) -> SimResult {
        self.replay(&self.cost(job), seed, rec)
    }

    /// Cost everything about `job` that does not depend on the seed:
    /// [`AnalyticEngine::count`] then [`AnalyticEngine::cost_from`].
    pub fn cost(&self, job: &JobProfile) -> AnalyticCost {
        self.cost_from(job, &self.count(job))
    }

    /// Count every communication round of `job` on this engine's
    /// placement: `O(phases × ranks·log ranks)`, the engine's only
    /// per-rank work. The result depends on the job, the placement, the
    /// link graph's shape and the allreduce algorithm, and on no capacity
    /// or latency, so any engine that agrees on those four can cost from
    /// it.
    pub fn count(&self, job: &JobProfile) -> Traffic {
        let graph = self.routes.graph();
        let phases = || job.steps.iter().flat_map(|(step, _)| &step.comm);
        // no phase counts more rounds than this, and a regular round
        // encodes in a few runs: sized so that counting seldom regrows
        let nphases = phases().count();
        let rounds = nphases * log2_rounds(self.map.ranks()).max(1) as usize;
        let mut c = Counter {
            sched: LinkSchedule::new(graph),
            intra: vec![0; self.map.nodes as usize],
            traffic: Traffic {
                phases: Vec::with_capacity(nphases),
                intra: Vec::with_capacity(rounds),
                links: RoundCounts::with_capacity(graph, rounds, RUNS_PER_ROUND * rounds),
            },
        };
        for (i, phase) in phases().enumerate() {
            let rounds = match phases().take(i).position(|p| same_pattern(p, phase)) {
                Some(earlier) => c.traffic.phases[earlier],
                None => {
                    let start = c.traffic.intra.len() as u32;
                    self.count_phase(&mut c, phase);
                    (start, c.traffic.intra.len() as u32)
                }
            };
            c.traffic.phases.push(rounds);
        }
        c.traffic.links.shrink_to_fit();
        c.traffic.intra.shrink_to_fit();
        c.traffic
    }

    /// Settle `traffic`, counted for `job` by [`AnalyticEngine::count`] on
    /// this engine or on one with the same placement, graph shape and
    /// allreduce algorithm, at this engine's capacities, latencies and
    /// message sizes: `O(rounds × links · log links)`, with no per-rank
    /// work. Bit-identical to costing from this engine's own count.
    ///
    /// # Panics
    /// If `traffic` was counted for a job with another number of phases,
    /// or over a graph with another number of links.
    pub fn cost_from(&self, job: &JobProfile, traffic: &Traffic) -> AnalyticCost {
        let graph = self.routes.graph();
        let nlinks = graph.len();
        assert_eq!(
            traffic.links.links(),
            nlinks,
            "traffic counted over a graph of another shape"
        );
        let mut s = Scratch::new(graph);
        let mut segments =
            Vec::with_capacity(job.steps.iter().map(|(step, _)| 1 + step.comm.len()).sum());
        let mut inter_msgs = 0u64;
        let mut intra_msgs = 0u64;
        let mut inter_bytes = 0u64;
        let mut rounds = traffic.phases.iter();

        for (step, reps) in &job.steps {
            let reps = *reps as u64;
            segments.push(Segment::Compute(
                self.step_compute_seconds(step) * reps as f64,
            ));
            for phase in &step.comm {
                let &(first, end) = rounds.next().expect("traffic counted for a shorter job");
                let (cost, cat, name) = self.phase_cost(&mut s, traffic, first..end, phase);
                let cost = cost.times(reps);
                s.scale_phase(reps);
                inter_msgs += cost.inter_msgs;
                intra_msgs += cost.intra_msgs;
                inter_bytes += cost.inter_bytes;
                // per-link tallies stay structural (no jitter): they report
                // what the fabric carried, not when
                for i in 0..nlinks {
                    s.link_busy[i] += s.phase_busy[i];
                    s.link_bytes[i] += s.phase_bytes[i];
                }
                segments.push(Segment::Phase {
                    seconds: cost.seconds,
                    bridge_s: cost.bridge_s,
                    cat,
                    name,
                });
            }
        }
        assert!(rounds.next().is_none(), "traffic counted for a longer job");

        let (link_busy, link_bytes) = if inter_bytes > 0 {
            (s.link_busy, s.link_bytes)
        } else {
            (Vec::new(), Vec::new())
        };
        AnalyticCost {
            segments,
            inter_msgs,
            intra_msgs,
            inter_bytes,
            link_busy,
            link_bytes,
        }
    }

    /// Turn `cost` (from [`AnalyticEngine::cost`] on this engine) into
    /// `seed`'s result: draw the run-to-run factor, emit the timeline's
    /// spans through `rec` as [`AnalyticEngine::run_traced`] does, and
    /// attach the link table. `O(phases + links)`, with no per-rank work.
    pub fn replay(&self, cost: &AnalyticCost, seed: u64, rec: &mut Recorder) -> SimResult {
        let mut rng = RngStream::new(seed).derive("analytic-run");
        // one multiplicative run-to-run factor (machine state, turbo, ...)
        let run_factor = rng.lognormal_factor(0.004);

        // one track, so the roll-up of these spans is their per-category
        // sum: kept here, the result needs no recorder of its own
        rec.declare_tracks(1);
        let mut totals = [0u64; SpanCategory::COUNT];
        let mut t = SimTime::ZERO;
        for segment in &cost.segments {
            match *segment {
                Segment::Compute(seconds) => {
                    let d = SimDuration::from_secs_f64(seconds * run_factor);
                    rec.span(SpanCategory::Compute, "solver-compute", 0, t, t + d);
                    totals[SpanCategory::Compute.index()] += d.as_nanos();
                    t += d;
                }
                Segment::Phase {
                    seconds,
                    bridge_s,
                    cat,
                    name,
                } => {
                    let d = SimDuration::from_secs_f64(seconds * run_factor);
                    rec.span(cat, name, 0, t, t + d);
                    totals[cat.index()] += d.as_nanos();
                    if bridge_s > 0.0 {
                        // nested inside the phase span: the serialized
                        // bridge share, already part of `d` — informational
                        let bd = SimDuration::from_secs_f64(bridge_s * run_factor);
                        rec.span(SpanCategory::Bridge, "bridge-serialization", 0, t, t + bd);
                    }
                    t += d;
                }
            }
        }
        // attribution comes from the recorded spans: none when it is off
        let attributed = |cat: SpanCategory| {
            SimDuration::from_nanos(if rec.is_enabled() {
                totals[cat.index()]
            } else {
                0
            })
        };

        let links = self.routes.graph().with_labels(|labels| {
            cost.link_busy
                .iter()
                .zip(&cost.link_bytes)
                .zip(labels)
                .map(|((&busy_s, &bytes), label)| LinkUsage {
                    label: label.into(),
                    busy_s,
                    bytes,
                })
                .collect()
        });
        SimResult {
            elapsed: t - SimTime::ZERO,
            compute: attributed(SpanCategory::Compute),
            comm: CommBreakdown {
                halo: attributed(SpanCategory::Halo),
                allreduce: attributed(SpanCategory::Allreduce),
                pairs: attributed(SpanCategory::Pairs),
                other: attributed(SpanCategory::Other),
            },
            inter_node_msgs: cost.inter_msgs,
            intra_node_msgs: cost.intra_msgs,
            inter_node_bytes: cost.inter_bytes,
            links,
            engine: "analytic",
        }
    }

    /// Compute time of the slowest rank in one step.
    fn step_compute_seconds(&self, step: &StepProfile) -> f64 {
        let p = self.map.ranks().max(2) as f64;
        let noise_amplification = 1.0 + self.config.jitter_sigma * (2.0 * p.ln()).sqrt();
        let worst_rank_flops =
            step.flops_per_rank * step.imbalance * self.config.compute_tax * noise_amplification;
        self.node
            .rank_compute_seconds(worst_rank_flops, self.map.threads_per_rank, step.regions)
    }

    /// Count every round of one phase into `c`.
    fn count_phase(&self, c: &mut Counter, phase: &CommPhase) {
        let p = self.map.ranks();
        match phase {
            CommPhase::Pairs { pairs, .. } => {
                if !pairs.is_empty() {
                    // every coupling pair exchanges both ways
                    c.begin_round();
                    for &(a, b) in pairs {
                        self.count_exchange(c, a, b);
                    }
                    c.end_round();
                }
            }
            _ if p <= 1 => {}
            CommPhase::Halo1D { .. } => {
                // directed messages along the chain: r -> r+1 and r+1 -> r
                c.begin_round();
                for r in 0..p - 1 {
                    self.count_exchange(c, r, r + 1);
                }
                c.end_round();
            }
            CommPhase::Halo3D { dims, .. } => {
                debug_assert_eq!(
                    dims.0 * dims.1 * dims.2,
                    p,
                    "rank grid must cover all ranks"
                );
                // every rank sends to each face neighbour: each face both
                // ways
                c.begin_round();
                for_each_grid_face(*dims, |r, q| self.count_exchange(c, r, q));
                c.end_round();
            }
            CommPhase::Allreduce { .. } => match self.config.allreduce_algo {
                // a reduce-scatter round and its mirrored allgather round
                // send along the same pairs, so Rabenseifner counts the
                // recursive-doubling rounds and costs each twice
                AllreduceAlgo::RecursiveDoubling | AllreduceAlgo::Rabenseifner => {
                    for k in 0..log2_rounds(p) {
                        self.count_pairwise_round(c, 1 << k);
                    }
                }
                AllreduceAlgo::Ring => {
                    // every round identical: ring neighbour sends
                    c.begin_round();
                    for r in 0..p {
                        self.count_send(c, r, (r + 1) % p);
                    }
                    c.end_round();
                }
            },
            CommPhase::Bcast { bytes } => {
                // the actual binomial rounds: structural message
                // accounting matches the DES engine exactly
                for round in crate::collectives::bcast_rounds(p, *bytes) {
                    c.begin_round();
                    for m in &round {
                        self.count_send(c, m.src, m.dst);
                    }
                    c.end_round();
                }
            }
            CommPhase::Gather { .. } => {
                // everyone sends to rank 0; the root's downlink
                // serializes the incast
                c.begin_round();
                for r in 1..p {
                    self.count_send(c, r, 0);
                }
                c.end_round();
            }
            CommPhase::Barrier => {
                for k in 0..log2_rounds(p) {
                    let dist = 1u32 << k;
                    // dissemination round: r -> (r + dist) % p
                    c.begin_round();
                    for r in 0..p {
                        self.count_send(c, r, (r + dist) % p);
                    }
                    c.end_round();
                }
            }
        }
    }

    /// One pairwise-exchange round at XOR distance `dist` (a power of
    /// two): every rank `r` with `r ^ dist < p` sends to it.
    fn count_pairwise_round(&self, c: &mut Counter, dist: u32) {
        let p = self.map.ranks();
        c.begin_round();
        // the ranks with bit `dist` clear come in blocks of `dist`; each
        // exchanges with `r + dist` when that rank exists
        for lo in (0..p).step_by(2 * dist as usize) {
            for r in lo..(lo + dist).min(p.saturating_sub(dist)) {
                self.count_exchange(c, r, r + dist);
            }
        }
        c.end_round();
    }

    /// Count one message on the round being counted in `c`.
    #[inline]
    fn count_send(&self, c: &mut Counter, src: u32, dst: u32) {
        let (a, b) = (self.routes.node_of(src), self.routes.node_of(dst));
        if a == b {
            c.intra[a as usize] += 1;
        } else {
            c.sched.deposit(self.routes.graph(), a, b);
        }
    }

    /// Count the two messages `r → q` and `q → r`, looking each rank's
    /// node up once.
    #[inline]
    fn count_exchange(&self, c: &mut Counter, r: u32, q: u32) {
        let (a, b) = (self.routes.node_of(r), self.routes.node_of(q));
        if a == b {
            c.intra[a as usize] += 2;
        } else {
            let g = self.routes.graph();
            c.sched.deposit(g, a, b);
            c.sched.deposit(g, b, a);
        }
    }

    /// Cost one phase from its counted `rounds`. On return the phase's
    /// per-link tallies sit in `s.phase_busy` / `s.phase_bytes`
    /// (including any internal repeat multipliers); the caller applies
    /// the step repeat count and folds them into the run accumulators.
    fn phase_cost(
        &self,
        s: &mut Scratch,
        traffic: &Traffic,
        rounds: std::ops::Range<u32>,
        phase: &CommPhase,
    ) -> (PhaseCost, SpanCategory, &'static str) {
        s.phase_busy.fill(0.0);
        s.phase_bytes.fill(0);
        use SpanCategory as Cat;
        let (bytes, repeats, cat, name) = match phase {
            CommPhase::Halo1D { bytes, repeats } => (*bytes, *repeats, Cat::Halo, "halo1d"),
            CommPhase::Halo3D { bytes, repeats, .. } => (*bytes, *repeats, Cat::Halo, "halo3d"),
            CommPhase::Allreduce { bytes, repeats } => {
                (*bytes, *repeats, Cat::Allreduce, "allreduce")
            }
            CommPhase::Pairs { bytes, .. } => (*bytes, 1, Cat::Pairs, "pairs"),
            CommPhase::Bcast { bytes } => (*bytes, 1, Cat::Other, "bcast"),
            CommPhase::Gather { bytes_per_rank } => (*bytes_per_rank, 1, Cat::Other, "gather"),
            CommPhase::Barrier => (8, 1, Cat::Other, "barrier"),
        };
        let algo =
            matches!(phase, CommPhase::Allreduce { .. }).then_some(self.config.allreduce_algo);
        let p = u64::from(self.map.ranks());
        let cost = self.rounds_cost(s, traffic, rounds, |k| match algo {
            // one counted round, sent 2(p − 1) times at bytes/p
            Some(AllreduceAlgo::Ring) => (bytes.div_ceil(p).max(1), 2 * (p - 1)),
            // round k halves the volume, and runs twice (reduce-scatter
            // + mirrored allgather)
            Some(AllreduceAlgo::Rabenseifner) => ((bytes >> (k + 1)).max(1), 2),
            _ => (bytes, 1),
        });
        let repeats = u64::from(repeats);
        s.scale_phase(repeats);
        (cost.times(repeats), cat, name)
    }

    /// The summed cost of `rounds`, round `k` of them settled at the
    /// `(bytes, mult)` that `size(k)` gives.
    fn rounds_cost(
        &self,
        s: &mut Scratch,
        traffic: &Traffic,
        rounds: std::ops::Range<u32>,
        size: impl Fn(u32) -> (u64, u64),
    ) -> PhaseCost {
        let mut total = PhaseCost::default();
        for (k, round) in rounds.enumerate() {
            let (bytes, mult) = size(k as u32);
            total.accumulate(self.round_cost(s, traffic, round as usize, bytes, mult));
        }
        total
    }

    /// Cost counted round `round` of `traffic` at `bytes` per message,
    /// scaled by `mult` identical repeats, and fold its link tallies
    /// (×`mult`) into the phase accumulators.
    ///
    /// The inter-node part is LogGP alpha + the schedule's busiest-link
    /// drain time + the longest route's switch latency; the intra-node part
    /// shares the node pipe; the two overlap. The serialized
    /// container-bridge term (every message of the busiest node queuing
    /// through one softirq path) does not overlap with either.
    fn round_cost(
        &self,
        s: &mut Scratch,
        traffic: &Traffic,
        round: usize,
        bytes: u64,
        mult: u64,
    ) -> PhaseCost {
        let (intra_max, intra_msgs) = traffic.intra[round];
        let settled = s
            .sched
            .settle_recorded(self.routes.graph(), &traffic.links, round, bytes);
        let (inter_msgs, out_max) = (settled.messages(), settled.max_node_sends());
        let mut seconds: f64 = 0.0;
        if inter_msgs > 0 {
            let t = self.network.inter.alpha_seconds(bytes)
                + settled.wire_seconds()
                + settled.max_latency_s();
            seconds = seconds.max(t);
        }
        if intra_max > 0 {
            let intra = &self.network.intra;
            let t =
                intra.alpha_seconds(bytes) + intra_max as f64 * bytes as f64 / intra.bandwidth_bps;
            seconds = seconds.max(t);
        }
        let serialized =
            self.network.node_serialized_per_msg_s * (out_max as f64 + intra_max as f64);
        seconds += serialized;
        // an unloaded link would add 0.0, which leaves its tally as is
        let mf = mult as f64;
        for l in settled.loads() {
            s.phase_busy[l.link.index()] += l.busy_s * mf;
            s.phase_bytes[l.link.index()] += l.bytes * mult;
        }
        PhaseCost {
            seconds,
            bridge_s: serialized,
            inter_msgs,
            intra_msgs,
            inter_bytes: inter_msgs * bytes,
        }
        .times(mult)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::log2_rounds;
    use crate::workload::StepProfile;
    use harborsim_hw::{CpuModel, InterconnectKind, NodeSpec};
    use harborsim_net::{DataPath, Topology, TransportSelection};

    fn engine(nodes: u32, rpn: u32, threads: u32, path: DataPath) -> AnalyticEngine {
        AnalyticEngine::new(
            NodeSpec::dual_socket(CpuModel::xeon_e5_2697v3(), 128),
            NetworkModel::compose(
                InterconnectKind::GigabitEthernet,
                TransportSelection::Native,
                path,
                Topology::small_cluster(),
            ),
            RankMap::block(nodes, rpn, threads),
            EngineConfig::default(),
        )
    }

    fn cfd_like_step() -> StepProfile {
        StepProfile {
            flops_per_rank: 4e8,
            imbalance: 1.03,
            regions: 35.0,
            comm: vec![
                CommPhase::Halo1D {
                    bytes: 160_000,
                    repeats: 31,
                },
                CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 62,
                },
            ],
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let e = engine(4, 28, 1, DataPath::Host);
        let job = JobProfile::uniform(cfd_like_step(), 10);
        let a = e.run(&job, 7);
        let b = e.run(&job, 7);
        assert_eq!(a, b);
        let c = e.run(&job, 8);
        assert_ne!(a.elapsed, c.elapsed, "different seeds must jitter");
        // ... but only slightly
        let rel =
            (a.elapsed.as_secs_f64() - c.elapsed.as_secs_f64()).abs() / a.elapsed.as_secs_f64();
        assert!(rel < 0.05, "rel={rel}");
    }

    #[test]
    fn one_cost_replays_every_seed_as_a_fresh_run() {
        let e = engine(4, 28, 1, DataPath::docker_default_bridge());
        let job = JobProfile::uniform(cfd_like_step(), 10);
        let cost = e.cost(&job);
        for seed in [0, 3, 42, u64::MAX] {
            let mut fresh = Recorder::capturing();
            let mut replayed = Recorder::capturing();
            assert_eq!(
                e.replay(&cost, seed, &mut replayed),
                e.run_traced(&job, seed, &mut fresh),
                "seed {seed}"
            );
            assert_eq!(replayed.take_buffer(), fresh.take_buffer(), "seed {seed}");
        }
    }

    #[test]
    fn docker_bridge_slower_than_host() {
        let job = JobProfile::uniform(cfd_like_step(), 10);
        let host = engine(4, 28, 1, DataPath::Host).run(&job, 1);
        let dock = engine(4, 28, 1, DataPath::docker_default_bridge()).run(&job, 1);
        assert!(
            dock.elapsed > host.elapsed,
            "docker {} vs host {}",
            dock.elapsed,
            host.elapsed
        );
        assert_eq!(host.compute, dock.compute, "bridge must not touch compute");
    }

    #[test]
    fn docker_penalty_grows_with_ranks() {
        // the Fig. 1 mechanism: same 112 cores, more ranks -> bigger bridge tax
        let job = JobProfile::uniform(cfd_like_step(), 10);
        let rel = |rpn: u32, threads: u32| {
            let host = engine(4, rpn, threads, DataPath::Host).run(&job, 1);
            let dock = engine(4, rpn, threads, DataPath::docker_default_bridge()).run(&job, 1);
            dock.elapsed.as_secs_f64() / host.elapsed.as_secs_f64()
        };
        let low = rel(2, 14);
        let high = rel(28, 1);
        assert!(
            high > low,
            "docker relative cost must grow with ranks: 2x14 -> {low}, 28x1 -> {high}"
        );
    }

    #[test]
    fn single_node_has_no_inter_traffic() {
        let e = engine(1, 28, 1, DataPath::Host);
        let job = JobProfile::uniform(cfd_like_step(), 5);
        let r = e.run(&job, 1);
        assert_eq!(r.inter_node_msgs, 0);
        assert_eq!(r.inter_node_bytes, 0);
        assert!(r.intra_node_msgs > 0);
        assert!(r.links.is_empty(), "no fabric traffic, no link table");
    }

    #[test]
    fn message_accounting_matches_structure() {
        let e = engine(4, 2, 1, DataPath::Host);
        let step = StepProfile {
            flops_per_rank: 0.0,
            imbalance: 1.0,
            regions: 0.0,
            comm: vec![CommPhase::Halo1D {
                bytes: 1000,
                repeats: 1,
            }],
        };
        let r = e.run(&JobProfile::uniform(step, 1), 1);
        // chain 0-1 | 2-3 | 4-5 | 6-7 over 4 nodes: cut edges at 1-2, 3-4,
        // 5-6 -> 6 directed inter msgs; intra edges 0-1,2-3,4-5,6-7 -> 8
        assert_eq!(r.inter_node_msgs, 6);
        assert_eq!(r.intra_node_msgs, 8);
        assert_eq!(r.inter_node_bytes, 6000);
        // every cut byte shows up exactly once on some node uplink
        let up_bytes: u64 = r
            .links
            .iter()
            .filter(|l| l.label.ends_with(":up") && l.label.starts_with("node"))
            .map(|l| l.bytes)
            .sum();
        assert_eq!(up_bytes, 6000);
    }

    #[test]
    fn allreduce_algorithms_tradeoff() {
        // tiny payload: recursive doubling must beat ring
        let mk = |algo| {
            let mut e = engine(4, 28, 1, DataPath::Host);
            e.config.allreduce_algo = algo;
            let step = StepProfile {
                flops_per_rank: 0.0,
                imbalance: 1.0,
                regions: 0.0,
                comm: vec![CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 1,
                }],
            };
            e.run(&JobProfile::uniform(step, 1), 1)
                .elapsed
                .as_secs_f64()
        };
        let rd = mk(AllreduceAlgo::RecursiveDoubling);
        let ring = mk(AllreduceAlgo::Ring);
        assert!(ring > 5.0 * rd, "ring {ring} vs recursive-doubling {rd}");
    }

    #[test]
    fn strong_scaling_reduces_elapsed() {
        // fixed total work spread over more nodes must run faster (until
        // comm dominates; with these parameters 16 nodes is still faster)
        let total_flops = 5e11;
        let t = |nodes: u32| {
            let e = engine(nodes, 28, 1, DataPath::Host);
            let step = StepProfile {
                flops_per_rank: total_flops / (nodes as f64 * 28.0),
                imbalance: 1.02,
                regions: 10.0,
                comm: vec![CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 4,
                }],
            };
            e.run(&JobProfile::uniform(step, 10), 1)
                .elapsed
                .as_secs_f64()
        };
        // Lenox only has 4 nodes, but the engine doesn't enforce that
        let t1 = t(1);
        let t2 = t(2);
        let t4 = t(4);
        assert!(t2 < t1 && t4 < t2, "t1={t1} t2={t2} t4={t4}");
    }

    #[test]
    fn threads_vs_ranks_tradeoff_visible() {
        // same cores, different split: both must be within 2x of each other
        // and both slower than zero-comm ideal
        let job = JobProfile::uniform(cfd_like_step(), 10);
        let hybrid = engine(4, 2, 14, DataPath::Host).run(&job, 1);
        let pure = engine(4, 28, 1, DataPath::Host).run(&job, 1);
        let ratio = hybrid.elapsed.as_secs_f64() / pure.elapsed.as_secs_f64();
        assert!(ratio > 0.3 && ratio < 3.0, "ratio={ratio}");
    }

    #[test]
    fn oversubscribed_spine_tops_utilization() {
        // a heavily tapered fat tree under an all-cross-leaf exchange: the
        // spine links, not any NIC, must be the busiest rows of the table
        let e = AnalyticEngine::new(
            NodeSpec::dual_socket(CpuModel::xeon_platinum_8160(), 96),
            NetworkModel::compose(
                InterconnectKind::OmniPath100,
                TransportSelection::Native,
                DataPath::Host,
                Topology::FatTree {
                    nodes_per_leaf: 4,
                    hop_latency_s: 0.15e-6,
                    taper: 0.1,
                },
            ),
            RankMap::block(8, 4, 1),
            EngineConfig::default(),
        );
        let step = StepProfile {
            flops_per_rank: 0.0,
            imbalance: 1.0,
            regions: 0.0,
            comm: vec![CommPhase::Allreduce {
                bytes: 1 << 20,
                repeats: 1,
            }],
        };
        let r = e.run(&JobProfile::uniform(step, 1), 1);
        let busiest = r
            .links
            .iter()
            .max_by(|a, b| a.busy_s.total_cmp(&b.busy_s))
            .unwrap();
        assert!(
            busiest.label.contains("spine"),
            "busiest link should be a spine link, got {}",
            busiest.label
        );
    }

    /// A job that runs every kind of communication phase, twice each for
    /// the ones whose pattern a later phase repeats (a second halo on the
    /// same grid, a second coupling on the same pairs, an allreduce in
    /// both steps), over `ranks` ranks.
    fn every_phase_job(ranks: u32) -> JobProfile {
        let pairs: Vec<(u32, u32)> = (0..ranks / 2).map(|r| (r, ranks - 1 - r)).collect();
        let step = |comm| StepProfile {
            flops_per_rank: 3e6,
            imbalance: 1.01,
            regions: 2.0,
            comm,
        };
        JobProfile {
            steps: vec![
                (
                    step(vec![
                        CommPhase::Halo1D {
                            bytes: 30_000,
                            repeats: 3,
                        },
                        CommPhase::Halo3D {
                            dims: crate::workload::factor3(ranks),
                            bytes: 12_345,
                            repeats: 2,
                        },
                        CommPhase::Allreduce {
                            bytes: 1 << 20,
                            repeats: 2,
                        },
                        CommPhase::Halo3D {
                            dims: crate::workload::factor3(ranks),
                            bytes: 777,
                            repeats: 5,
                        },
                        CommPhase::Pairs {
                            pairs: pairs.clone(),
                            bytes: 7_777,
                        },
                        CommPhase::Pairs { pairs, bytes: 99 },
                    ]),
                    4,
                ),
                (
                    step(vec![
                        CommPhase::Bcast { bytes: 65_536 },
                        CommPhase::Gather { bytes_per_rank: 96 },
                        CommPhase::Barrier,
                        CommPhase::Allreduce {
                            bytes: 8,
                            repeats: 3,
                        },
                    ]),
                    2,
                ),
            ],
        }
    }

    #[test]
    fn a_cost_from_shared_traffic_is_a_fresh_costing_bit_for_bit() {
        // 40 nodes under 16-node leaves (a ragged last leaf), scattered
        // ranks: every phase crosses the spine
        let map = RankMap {
            nodes: 40,
            ranks_per_node: 3,
            threads_per_rank: 1,
            placement: crate::Placement::RoundRobin,
        };
        let topology = |taper| Topology::FatTree {
            nodes_per_leaf: 16,
            hop_latency_s: 0.2e-6,
            taper,
        };
        let node = NodeSpec::dual_socket(CpuModel::xeon_platinum_8160(), 96);
        let net = |path, taper| {
            NetworkModel::compose(
                InterconnectKind::OmniPath100,
                TransportSelection::Native,
                path,
                topology(taper),
            )
        };
        let job = every_phase_job(map.ranks());
        for algo in [
            AllreduceAlgo::RecursiveDoubling,
            AllreduceAlgo::Ring,
            AllreduceAlgo::Rabenseifner,
        ] {
            let config = EngineConfig {
                allreduce_algo: algo,
                ..EngineConfig::default()
            };
            // counted on a healthy, untapered fabric
            let counter =
                AnalyticEngine::new(node.clone(), net(DataPath::Host, 1.0), map, config.clone());
            let shared = counter.count(&job);
            // costed behind the Docker bridge on a tapered fabric with
            // three degraded links
            let network = net(DataPath::docker_default_bridge(), 0.4);
            let mut routes = route_table(&map, &network);
            let g = routes.graph_mut();
            let (up, down, spine) = (g.node_up(7), g.node_down(33), g.leaf_up(1));
            g.degrade(up, 0.3);
            g.degrade(down, 0.55);
            g.degrade(spine, 0.9);
            let engine =
                AnalyticEngine::with_routes(node.clone(), network, map, config, Arc::new(routes));
            assert_eq!(
                engine.count(&job),
                shared,
                "{algo:?}: counts ignore capacities"
            );
            assert!(shared.rounds() > 0);
            let from_shared = engine.cost_from(&job, &shared);
            for seed in [0, 9, u64::MAX] {
                let (mut a, mut b) = (Recorder::capturing(), Recorder::capturing());
                let got = engine.replay(&from_shared, seed, &mut a);
                let fresh = engine.run_traced(&job, seed, &mut b);
                assert_eq!(got, fresh, "{algo:?}, seed {seed}");
                let bits = |r: &SimResult| {
                    r.links
                        .iter()
                        .map(|l| l.busy_s.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&got), bits(&fresh), "{algo:?}, seed {seed}");
                assert_eq!(a.take_buffer(), b.take_buffer(), "{algo:?}, seed {seed}");
            }
        }
    }

    #[test]
    fn repeated_patterns_are_counted_once() {
        let e = engine(4, 6, 1, DataPath::Host);
        let job = every_phase_job(24);
        let log = log2_rounds(24) as usize;
        // halo1d 1, halo3d 1, allreduce log p, pairs 1, bcast log p,
        // gather 1, barrier log p; the repeats add nothing
        assert_eq!(e.count(&job).rounds(), 4 + 3 * log);
    }
}
