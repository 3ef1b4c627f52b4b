//! The message-level discrete-event performance engine, shard-parallel.
//!
//! Every point-to-point message and every collective round of the workload
//! becomes simulated wire traffic:
//!
//! - each rank is a little interpreter over its private instruction stream
//!   (compute / send / recv), generated lazily from the [`JobProfile`];
//! - sends are *posted* (Isend semantics): the rank pays the per-message CPU
//!   overhead and moves on, while the payload claims the links of its
//!   route — node uplink, spine crossing, receiver downlink — as FIFO
//!   [`CoreResource`]s carved into node-stream slots, the same routed graph
//!   the analytic engine costs with its fluid schedule;
//! - intra-node messages serialize through a per-node memory/bridge pipe;
//! - messages above the eager threshold use a rendezvous handshake: the
//!   payload may only enter the NIC once the receiver has posted the
//!   matching receive and a request/ack round-trip has elapsed;
//! - receives block the rank until arrival (+ receive overhead).
//!
//! # Sharding
//!
//! The simulation is partitioned by *domain* — the leaf group of the fabric
//! ([`LinkGraph::leaf_of`](harborsim_net::LinkGraph::leaf_of)) — and domains
//! are dealt out to shards as contiguous blocks. Each shard owns a private
//! [`EventCore`] (slab + keyed heap + clock), the rank interpreters, link /
//! pipe / bridge resources, and message table of its domains; nothing it
//! touches is shared. All intra-domain protocol (same node, same leaf) is
//! the exact serial state machine. Cross-leaf traffic crosses shards over
//! three typed mailbox events, each carrying at least the *lookahead*
//! `λ = latency + min(3·hop, 2·overhead)` of simulated delay:
//!
//! - `SegArrive` — the payload finished its source-side segment (node-up +
//!   leaf-up held for `h0`) and hops to the destination leaf, where it
//!   claims leaf-down + node-down for `h1`; `h0 + h1` equals the full
//!   serialization time, split by inverse segment rate so a degraded
//!   uplink still dominates.
//! - `RdvProbe` / `RdvGrant` — the rendezvous handshake as an explicit
//!   request/ack pair so the receiver's message table stays receiver-local.
//!
//! Shards run conservatively synchronized windows: agree on the global
//! minimum pending time `M`, process events strictly below `M + λ`, flush
//! outboxes, repeat. Determinism does not depend on thread timing: every
//! event is keyed `(time, scheduling domain, per-domain sequence)`, a pure
//! function of the (deterministic) per-domain schedule order, so the
//! per-domain pop order — and with it every result and span — is identical
//! for *any* shard count. The unit test `sharded_runs_match_serial_bit_for_bit`
//! and `tests/engines_agree.rs` (`sharded_des_agrees_*`) pin serial vs
//! sharded bit-equality, and `tests/des_golden.rs` pins the values
//! themselves; `shards = 1` (the default) skips threads, barriers and the
//! per-schedule target lookup entirely.
//!
//! # Cost per event
//!
//! Event payloads are 40-byte `Copy` values in per-shard slab arenas:
//! route events carry `(src, dst, bytes)` and look the route, its
//! serialization time and its latency up again from the route table
//! rather than carrying them. Per-run constants (overheads, handshakes,
//! the bridge hold, the pipe latency) are converted to durations once per
//! run, the rank → domain map is a table built once per engine, and the
//! message table hashes with the identity, since `match_id` has already
//! mixed its key. Instruction queues, resources, and tallies live in
//! pooled `DesScratch` reused across runs, so the steady-state event loop
//! of `plan.execute(seed)` performs no heap allocation.
//!
//! The engine is deterministic for a given seed and cross-validated against
//! the analytic engine in `tests/engines_agree.rs`.

use crate::analytic::EngineConfig;
use crate::collectives::{log2_rounds, AllreduceAlgo};
use crate::mapping::{route_table, RankMap};
use crate::result::{CommBreakdown, LinkUsage, SimResult};
use crate::workload::{CommPhase, JobProfile};
use harborsim_des::trace::{Recorder, SpanCategory};
use harborsim_des::{CoreResource, EventCore, RngStream, SimDuration, SimTime};
use harborsim_hw::NodeSpec;
use harborsim_net::{LinkId, NetworkModel, Route, RouteTable, ScratchPool, TransportParams};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Communication family, for wait-time attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Halo,
    Allreduce,
    Pairs,
    Other,
}

impl Family {
    fn category(self) -> SpanCategory {
        match self {
            Family::Halo => SpanCategory::Halo,
            Family::Allreduce => SpanCategory::Allreduce,
            Family::Pairs => SpanCategory::Pairs,
            Family::Other => SpanCategory::Other,
        }
    }
}

/// One primitive instruction of a rank's stream.
#[derive(Debug, Clone)]
enum PrimOp {
    /// Busy for this many seconds.
    Compute(f64),
    /// Post a message (Isend): pay overhead, enqueue payload, continue.
    Send { dst: u32, bytes: u64, mid: u64 },
    /// Block until message `mid` from `src` has arrived. (`src` is implied
    /// by `mid`; kept for trace readability when debugging expansions.)
    Recv {
        #[allow(dead_code)]
        src: u32,
        mid: u64,
        family: Family,
    },
}

/// Deterministic directed-message id: both endpoints derive the same id
/// from what they know locally.
fn match_id(uid: u64, round: u32, rep: u32, src: u32, dst: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [uid, round as u64, rep as u64, src as u64, dst as u64] {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// Program-position cursor of one rank.
#[derive(Debug, Clone, Default)]
struct Cursor {
    block: usize,
    rep: u32,
    item: usize, // 0 = compute, 1.. = comm phase index + 1
}

struct RankState {
    queue: VecDeque<PrimOp>,
    cursor: Cursor,
    rng: RngStream,
    finished: bool,
}

/// The message table's hasher: the identity on the `u64` message id,
/// which [`match_id`] has already mixed.
#[derive(Default)]
struct MidHasher(u64);

impl Hasher for MidHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the message table hashes only u64 message ids");
    }

    #[inline]
    fn write_u64(&mut self, mid: u64) {
        self.0 = mid;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-message protocol state, keyed by message id.
type MsgTable = HashMap<u64, MsgState, BuildHasherDefault<MidHasher>>;

#[derive(Default)]
struct MsgState {
    arrived: bool,
    /// Rank blocked on this message, with post time and family.
    waiting: Option<(u32, SimTime, Family)>,
    recv_posted: bool,
    /// Sender parked waiting for the rendezvous partner.
    rdv_sender: Option<(u32, u32, u64)>,
}

/// One transport's parameters and its per-message durations, converted
/// once per run.
#[derive(Debug, Clone, Copy)]
struct Transport {
    params: TransportParams,
    /// Sender-side CPU overhead of one message.
    send_overhead: SimDuration,
    /// Rendezvous request/ack round trip: `2 (L + 2 o)`.
    handshake: SimDuration,
}

impl Transport {
    fn new(params: TransportParams) -> Transport {
        Transport {
            params,
            send_overhead: SimDuration::from_secs_f64(params.overhead_s),
            handshake: SimDuration::from_secs_f64(
                2.0 * (params.latency_s + 2.0 * params.overhead_s),
            ),
        }
    }
}

/// Shared immutable job context.
struct JobCtx {
    job: JobProfile,
    map: RankMap,
    node: NodeSpec,
    inter: Transport,
    intra: Transport,
    /// Receive overhead, the larger of the two transports' (the receiver
    /// does not tell them apart).
    recv_overhead: SimDuration,
    /// One cross-leaf rendezvous leg, request or ack: `L + 2 o` inter.
    rdv_leg: SimDuration,
    /// Latency of the intra-node pipe.
    pipe_latency: SimDuration,
    /// Serialized per-message bridge cost (Docker), 0 on host networking.
    bridge_serial_s: f64,
    /// [`JobCtx::bridge_serial_s`] as a duration.
    bridge_hold: SimDuration,
    config: EngineConfig,
    routes: Arc<RouteTable>,
    /// Per-slot drain rate of each link (bytes/s), dense by link id.
    link_rate: Arc<[f64]>,
    /// Owning domain (leaf group) of each rank.
    rank_domain: Arc<[u32]>,
    /// Owning shard of each domain (leaf group), dense by leaf id.
    shard_of_domain: Box<[u32]>,
}

impl JobCtx {
    /// The domain (leaf group) that owns `rank`'s protocol state.
    #[inline]
    fn domain_of_rank(&self, rank: u32) -> u32 {
        self.rank_domain[rank as usize]
    }

    #[inline]
    fn same_domain(&self, a: u32, b: u32) -> bool {
        self.domain_of_rank(a) == self.domain_of_rank(b)
    }

    #[inline]
    fn node_of(&self, rank: u32) -> u32 {
        self.routes.node_of(rank)
    }

    #[inline]
    fn same_node(&self, a: u32, b: u32) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The transport a message from `src` to `dst` takes.
    #[inline]
    fn transport(&self, src: u32, dst: u32) -> &Transport {
        if self.same_node(src, dst) {
            &self.intra
        } else {
            &self.inter
        }
    }

    /// The domain whose shard must process `ev`. Every resource and every
    /// message-table entry is touched by exactly one domain: node links and
    /// pipes by their node's leaf, leaf links by their own leaf, message
    /// state by the *receiver's* leaf. A node's bridge carries only its own
    /// ranks' sends, and its pipe only messages between its own ranks, so
    /// the node's leaf is the domain of `src` (bridge) or `dst` (pipe).
    #[inline]
    fn domain_of_ev(&self, ev: &Ev) -> u32 {
        match *ev {
            Ev::Advance { rank } => self.domain_of_rank(rank),
            Ev::Transfer { src, .. }
            | Ev::BridgeGranted { src, .. }
            | Ev::BridgeDone { src, .. } => self.domain_of_rank(src),
            Ev::PipeGranted { dst, .. } | Ev::PipeSerDone { dst, .. } => self.domain_of_rank(dst),
            Ev::RouteGranted { dst, .. } | Ev::RouteSerDone { dst, .. } => self.domain_of_rank(dst),
            Ev::SegGranted { src, dst, seg, .. } | Ev::SegSerDone { src, dst, seg, .. } => {
                if seg == 0 {
                    self.domain_of_rank(src)
                } else {
                    self.domain_of_rank(dst)
                }
            }
            Ev::SegArrive { dst, .. } => self.domain_of_rank(dst),
            Ev::RdvProbe { dst, .. } => self.domain_of_rank(dst),
            Ev::RdvGrant { src, .. } => self.domain_of_rank(src),
            Ev::Deliver { dst, .. } => self.domain_of_rank(dst),
        }
    }

    /// A same-leaf route's serialization time for `bytes`, at the
    /// narrowest per-slot rate of its links.
    fn route_ser(&self, route: &Route, bytes: u64) -> SimDuration {
        let mut rate = f64::INFINITY;
        for &l in route.links() {
            rate = rate.min(self.link_rate[l.index()]);
        }
        SimDuration::from_secs_f64(bytes as f64 / rate)
    }

    /// Transport plus switch latency of an inter-node route.
    fn route_latency(&self, route: &Route) -> SimDuration {
        SimDuration::from_secs_f64(self.inter.params.latency_s + route.latency_s())
    }
}

/// The protocol state machine as a typed, `Copy` event payload. Intra-leaf
/// variants are 1:1 with the serial implementation; `Seg*` and `Rdv*` carry
/// cross-leaf traffic between shards.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Drive `rank`'s interpreter forward.
    Advance { rank: u32 },
    /// Rendezvous handshake finished: move the payload onto the node path.
    Transfer {
        src: u32,
        dst: u32,
        bytes: u64,
        mid: u64,
    },
    /// The node's serialized bridge granted one message slot.
    BridgeGranted {
        node: u32,
        src: u32,
        dst: u32,
        bytes: u64,
        mid: u64,
    },
    /// The bridge hold elapsed: release it and hit the wire.
    BridgeDone {
        node: u32,
        src: u32,
        dst: u32,
        bytes: u64,
        mid: u64,
    },
    /// The intra-node pipe granted; hold it for the serialization time.
    PipeGranted {
        node: u32,
        dst: u32,
        ser: SimDuration,
        mid: u64,
    },
    /// Payload fully through the pipe: release, then deliver after latency.
    PipeSerDone { node: u32, dst: u32, mid: u64 },
    /// Link `idx - 1` of the same-leaf route `src → dst` granted; claim
    /// the next one.
    RouteGranted {
        src: u32,
        dst: u32,
        bytes: u64,
        idx: u8,
        mid: u64,
    },
    /// Payload streamed across all held links: release them, deliver later.
    RouteSerDone { src: u32, dst: u32, mid: u64 },
    /// Link `idx - 1` of a cross-leaf segment granted; claim the next one.
    /// `seg` 0 holds node-up + leaf-up at the source leaf, `seg` 1 holds
    /// leaf-down + node-down at the destination leaf.
    SegGranted {
        src: u32,
        dst: u32,
        bytes: u64,
        seg: u8,
        idx: u8,
        mid: u64,
    },
    /// A segment's hold elapsed: release its links; segment 0 hops across
    /// the spine, segment 1 delivers.
    SegSerDone {
        src: u32,
        dst: u32,
        bytes: u64,
        seg: u8,
        mid: u64,
    },
    /// Cross-leaf payload reached the destination leaf (mailbox event,
    /// carries the full transport + switch latency).
    SegArrive {
        src: u32,
        dst: u32,
        bytes: u64,
        mid: u64,
    },
    /// Cross-leaf rendezvous request at the receiver's leaf (mailbox).
    RdvProbe {
        src: u32,
        dst: u32,
        bytes: u64,
        mid: u64,
        sent_at: SimTime,
    },
    /// Cross-leaf rendezvous ack back at the sender's leaf (mailbox);
    /// `sent_at` anchors the handshake span on the sender's track.
    RdvGrant {
        src: u32,
        dst: u32,
        bytes: u64,
        mid: u64,
        sent_at: SimTime,
    },
    /// Message arrived at the receiver.
    Deliver { dst: u32, mid: u64 },
}

// Route events carry `(src, dst, bytes)`, not the route: an arena slot
// stays at 48 bytes.
const _: () = assert!(std::mem::size_of::<Ev>() == 40);

/// Domain bits of the event key tie-breaker; 40 bits of per-domain
/// sequence below, 24 bits of domain above.
const DOMAIN_SHIFT: u32 = 40;
const SEQ_MASK: u64 = (1 << DOMAIN_SHIFT) - 1;

/// One shard's complete working state. Vectors are full-length and
/// globally indexed (rank, node, link id) — each shard only ever touches
/// the entries its domains own, and full-length indexing keeps every code
/// path identical to the serial engine.
struct ShardSim {
    id: u32,
    /// The run has one shard: every event stays local.
    serial: bool,
    ctx: Arc<JobCtx>,
    core: EventCore<Ev>,
    ranks: Vec<RankState>,
    /// One FIFO resource per fabric link, `capacity / node-stream` slots each.
    links: Vec<CoreResource<Ev>>,
    pipes: Vec<CoreResource<Ev>>,
    bridges: Vec<CoreResource<Ev>>,
    msgs: MsgTable,
    /// Per-domain schedule counters — the event key tie-breakers.
    dseq: Vec<u64>,
    /// Domain of the event currently firing; keys every schedule it makes.
    cause: u32,
    live_ranks: u32,
    events: u64,
    inter_msgs: u64,
    intra_msgs: u64,
    inter_bytes: u64,
    /// Integer per-link byte tallies (summed across shards; `busy_s` is
    /// derived by one division at the end so f64 accumulation order can
    /// never differ between shard layouts).
    link_bytes: Vec<u64>,
    /// Cross-shard sends staged during a window, flushed at its end.
    outboxes: Vec<Vec<(u128, Ev)>>,
    /// Trace sink; compute/wait attribution is derived from it after the run.
    rec: Recorder,
}

impl ShardSim {
    #[inline]
    fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Schedule `ev` after `d`, keyed by the firing domain and its schedule
    /// counter. Cross-shard targets go to the outbox instead of the heap.
    #[inline]
    fn sched_after(&mut self, d: SimDuration, ev: Ev) {
        let at = self.now() + d;
        let seq = self.dseq[self.cause as usize];
        self.dseq[self.cause as usize] = seq + 1;
        debug_assert!(seq <= SEQ_MASK, "per-domain schedule counter overflow");
        let tie = ((self.cause as u64) << DOMAIN_SHIFT) | (seq & SEQ_MASK);
        if self.serial {
            self.core.schedule_keyed(at, tie, ev);
            return;
        }
        let target = self.ctx.domain_of_ev(&ev);
        let shard = self.ctx.shard_of_domain[target as usize];
        if shard == self.id {
            self.core.schedule_keyed(at, tie, ev);
        } else {
            let key = ((at.0 as u128) << 64) | tie as u128;
            self.outboxes[shard as usize].push((key, ev));
        }
    }

    fn release_link(&mut self, l: LinkId) {
        if let Some(ev) = self.links[l.index()].release() {
            self.sched_after(SimDuration::ZERO, ev);
        }
    }

    fn release_pipe(&mut self, node: u32) {
        if let Some(ev) = self.pipes[node as usize].release() {
            self.sched_after(SimDuration::ZERO, ev);
        }
    }

    fn release_bridge(&mut self, node: u32) {
        if let Some(ev) = self.bridges[node as usize].release() {
            self.sched_after(SimDuration::ZERO, ev);
        }
    }
}

fn fire(sim: &mut ShardSim, ev: Ev) {
    match ev {
        Ev::Advance { rank } => advance(sim, rank),
        Ev::Transfer {
            src,
            dst,
            bytes,
            mid,
        } => enqueue_transfer(sim, src, dst, bytes, mid),
        Ev::BridgeGranted {
            node,
            src,
            dst,
            bytes,
            mid,
        } => {
            let hold = sim.ctx.bridge_hold;
            // bridge tracks sit above the rank tracks: ranks + node
            let track = sim.ctx.map.ranks() + node;
            let t0 = sim.now();
            sim.rec.span(
                SpanCategory::Bridge,
                "bridge-serialization",
                track,
                t0,
                t0 + hold,
            );
            sim.sched_after(
                hold,
                Ev::BridgeDone {
                    node,
                    src,
                    dst,
                    bytes,
                    mid,
                },
            );
        }
        Ev::BridgeDone {
            node,
            src,
            dst,
            bytes,
            mid,
        } => {
            sim.release_bridge(node);
            enqueue_transfer_wire(sim, src, dst, bytes, mid);
        }
        Ev::PipeGranted {
            node,
            dst,
            ser,
            mid,
        } => {
            // hold the pipe for the serialization time
            sim.sched_after(ser, Ev::PipeSerDone { node, dst, mid });
        }
        Ev::PipeSerDone { node, dst, mid } => {
            sim.release_pipe(node);
            // payload fully through; delivery after the latency
            sim.sched_after(sim.ctx.pipe_latency, Ev::Deliver { dst, mid });
        }
        Ev::RouteGranted {
            src,
            dst,
            bytes,
            idx,
            mid,
        } => acquire_route(sim, src, dst, bytes, idx as usize, mid),
        Ev::RouteSerDone { src, dst, mid } => {
            let route = sim.ctx.routes.route(src, dst);
            for &l in route.links() {
                sim.release_link(l);
            }
            // payload fully on the wire; delivery after transport +
            // switch latency
            sim.sched_after(sim.ctx.route_latency(&route), Ev::Deliver { dst, mid });
        }
        Ev::SegGranted {
            src,
            dst,
            bytes,
            seg,
            idx,
            mid,
        } => acquire_seg(sim, src, dst, bytes, seg, idx as usize, mid),
        Ev::SegSerDone {
            src,
            dst,
            bytes,
            seg,
            mid,
        } => {
            let route = sim.ctx.routes.route(src, dst);
            let (lo, hi) = if seg == 0 { (0, 2) } else { (2, 4) };
            for &l in &route.links()[lo..hi] {
                sim.release_link(l);
            }
            if seg == 0 {
                // hop to the destination leaf: transport + switch latency
                let lat = sim.ctx.route_latency(&route);
                sim.sched_after(
                    lat,
                    Ev::SegArrive {
                        src,
                        dst,
                        bytes,
                        mid,
                    },
                );
            } else {
                deliver(sim, mid);
            }
        }
        Ev::SegArrive {
            src,
            dst,
            bytes,
            mid,
        } => acquire_seg(sim, src, dst, bytes, 1, 2, mid),
        Ev::RdvProbe {
            src,
            dst,
            bytes,
            mid,
            sent_at,
        } => {
            let m = sim.msgs.entry(mid).or_default();
            if m.recv_posted {
                // receiver ready: ack back to the sender's leaf
                sim.sched_after(
                    sim.ctx.rdv_leg,
                    Ev::RdvGrant {
                        src,
                        dst,
                        bytes,
                        mid,
                        sent_at,
                    },
                );
            } else {
                m.rdv_sender = Some((src, dst, bytes));
            }
        }
        Ev::RdvGrant {
            src,
            dst,
            bytes,
            mid,
            sent_at,
        } => {
            let now = sim.now();
            sim.rec.span(
                SpanCategory::Protocol,
                "rendezvous-handshake",
                src,
                sent_at,
                now,
            );
            enqueue_transfer(sim, src, dst, bytes, mid);
        }
        Ev::Deliver { dst: _, mid } => deliver(sim, mid),
    }
}

/// Per-shard pooled working state.
#[derive(Default)]
struct ShardScratch {
    core: EventCore<Ev>,
    ranks: Vec<RankState>,
    links: Vec<CoreResource<Ev>>,
    pipes: Vec<CoreResource<Ev>>,
    bridges: Vec<CoreResource<Ev>>,
    msgs: MsgTable,
    link_bytes: Vec<u64>,
    dseq: Vec<u64>,
    outboxes: Vec<Vec<(u128, Ev)>>,
}

impl ShardScratch {
    #[allow(clippy::too_many_arguments)]
    fn reset(
        &mut self,
        p: u32,
        root: &RngStream,
        slots: &[u32],
        nodes: u32,
        nlinks: usize,
        domains: u32,
        shards: usize,
    ) {
        self.core.reset();
        self.ranks.truncate(p as usize);
        for (r, rs) in self.ranks.iter_mut().enumerate() {
            rs.queue.clear();
            rs.cursor = Cursor::default();
            rs.rng = root.derive_idx(r as u64);
            rs.finished = false;
        }
        for r in self.ranks.len() as u64..p as u64 {
            self.ranks.push(RankState {
                queue: VecDeque::new(),
                cursor: Cursor::default(),
                rng: root.derive_idx(r),
                finished: false,
            });
        }
        if self.links.len() == slots.len() {
            for (res, &s) in self.links.iter_mut().zip(slots) {
                res.reset(s);
            }
        } else {
            self.links.clear();
            self.links
                .extend(slots.iter().map(|&s| CoreResource::new(s)));
        }
        for pool in [&mut self.pipes, &mut self.bridges] {
            if pool.len() == nodes as usize {
                for res in pool.iter_mut() {
                    res.reset(1);
                }
            } else {
                pool.clear();
                pool.extend((0..nodes).map(|_| CoreResource::new(1)));
            }
        }
        self.msgs.clear();
        self.link_bytes.clear();
        self.link_bytes.resize(nlinks, 0);
        self.dseq.clear();
        self.dseq.resize(domains as usize, 0);
        for ob in &mut self.outboxes {
            ob.clear();
        }
        self.outboxes.resize_with(shards, Vec::new);
        self.outboxes.truncate(shards);
    }
}

/// Pooled across `run_traced` calls so a cached plan's execute-many loop
/// reuses every allocation: per-shard event arenas and heaps, rank
/// instruction queues, link/pipe/bridge resources, message tables, and
/// per-link tally vectors.
#[derive(Default)]
struct DesScratch {
    shards: Vec<ShardScratch>,
}

/// Sense-reversing spinning barrier. Waiters yield to the scheduler, so
/// gang-scheduled shard threads make progress even with fewer cores than
/// shards (time-slicing, not deadlock).
struct SpinBarrier {
    n: u32,
    count: AtomicU32,
    generation: AtomicU32,
}

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n: n as u32,
            count: AtomicU32::new(0),
            generation: AtomicU32::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == gen {
                std::thread::yield_now();
            }
        }
    }
}

/// Shared window-synchronization state of one multi-shard run.
struct WindowSync {
    barrier: SpinBarrier,
    /// Each shard's minimum pending event time (ns; `u64::MAX` = empty).
    mins: Vec<AtomicU64>,
    /// Cross-shard mailboxes, indexed by receiving shard.
    inboxes: Vec<Mutex<Vec<(u128, Ev)>>>,
    /// Events strictly within `M + horizon_ns` are safe to process —
    /// `horizon_ns` is the lookahead minus a nanosecond of rounding margin.
    horizon_ns: u64,
}

/// Conservative synchronous-window loop of one shard.
fn drive_windowed(sim: &mut ShardSim, sync: &WindowSync) {
    loop {
        // A: every shard has flushed its previous window's outboxes
        sync.barrier.wait();
        {
            let mut inbox = sync.inboxes[sim.id as usize].lock().unwrap();
            for (key, ev) in inbox.drain(..) {
                sim.core
                    .schedule_keyed(SimTime((key >> 64) as u64), key as u64, ev);
            }
        }
        let min = sim.core.min_time().map_or(u64::MAX, |t| t.0);
        sync.mins[sim.id as usize].store(min, Ordering::Release);
        // B: every shard has published its minimum; the array is stable
        // until the next A because minima are only written between A and B
        sync.barrier.wait();
        let m = sync
            .mins
            .iter()
            .map(|a| a.load(Ordering::Acquire))
            .min()
            .expect("at least one shard");
        if m == u64::MAX {
            return;
        }
        let horizon = SimTime(m.saturating_add(sync.horizon_ns));
        while let Some(ev) = sim.core.pop_within(horizon) {
            sim.events += 1;
            sim.cause = sim.ctx.domain_of_ev(&ev);
            fire(sim, ev);
        }
        for dst in 0..sim.outboxes.len() {
            if !sim.outboxes[dst].is_empty() {
                let mut inbox = sync.inboxes[dst].lock().unwrap();
                let ob = &mut sim.outboxes[dst];
                inbox.append(ob);
            }
        }
    }
}

/// The message-level engine.
#[derive(Debug, Clone)]
pub struct DesEngine {
    /// Node hardware.
    pub node: NodeSpec,
    /// Effective network model.
    pub network: NetworkModel,
    /// Rank placement.
    pub map: RankMap,
    /// Engine knobs (shared type with the analytic engine).
    pub config: EngineConfig,
    /// Requested shard count. Clamped to the number of fabric leaves at run
    /// time (a single-switch fabric always runs serial), and forced to 1
    /// when the transport's lookahead vanishes. `1` — the default — runs
    /// the loop inline with no threads or barriers.
    pub shards: u32,
    routes: Arc<RouteTable>,
    /// Per-link slot counts, precomputed once per engine.
    slots: Arc<[u32]>,
    /// Per-slot drain rate of each link (bytes/s), precomputed once.
    link_rate: Arc<[f64]>,
    /// Owning domain (leaf group) of each rank, precomputed once.
    rank_domain: Arc<[u32]>,
    scratch: ScratchPool<DesScratch>,
}

impl DesEngine {
    /// Build an engine, deriving the route table from the placement and
    /// network. Prefer [`DesEngine::with_routes`] when another engine shares
    /// the same plan — the table is built once per plan, not per engine.
    pub fn new(
        node: NodeSpec,
        network: NetworkModel,
        map: RankMap,
        config: EngineConfig,
    ) -> DesEngine {
        let routes = Arc::new(route_table(&map, &network));
        DesEngine::with_routes(node, network, map, config, routes)
    }

    /// Build an engine over an already-built route table.
    pub fn with_routes(
        node: NodeSpec,
        network: NetworkModel,
        map: RankMap,
        config: EngineConfig,
        routes: Arc<RouteTable>,
    ) -> DesEngine {
        assert_eq!(
            routes.ranks(),
            map.ranks(),
            "route table must match placement"
        );
        // each link is carved into slots of the node stream rate: a node
        // uplink is one slot (one kernel-fed wire), a healthy leaf uplink is
        // taper × nodes_per_leaf slots — messages serialize only where the
        // fabric is actually narrower than the offered streams
        let graph = routes.graph();
        let stream = network.inter.bandwidth_bps.min(network.nic_bw_bps);
        let mut slots = Vec::with_capacity(graph.len());
        let mut link_rate = Vec::with_capacity(graph.len());
        for i in 0..graph.len() {
            let cap = graph.capacity_bps(LinkId(i as u32));
            let s = ((cap / stream).floor() as u32).max(1);
            slots.push(s);
            link_rate.push(cap / s as f64);
        }
        let rank_domain = (0..map.ranks())
            .map(|r| graph.leaf_of(map.node_of(r)))
            .collect();
        DesEngine {
            node,
            network,
            map,
            config,
            shards: 1,
            routes,
            slots: slots.into(),
            link_rate: link_rate.into(),
            rank_domain,
            scratch: ScratchPool::new(),
        }
    }

    /// The same engine with a different requested shard count.
    pub fn with_shards(mut self, shards: u32) -> DesEngine {
        self.shards = shards;
        self
    }

    /// The route table all inter-node traffic flows over.
    pub fn routes(&self) -> &Arc<RouteTable> {
        &self.routes
    }

    /// The smallest simulated delay any cross-leaf (and therefore any
    /// cross-shard) event carries, in nanoseconds: the transport latency
    /// plus the lesser of the spine crossing (3 switch hops) and the
    /// rendezvous request/ack CPU legs (2 overheads).
    fn lookahead_ns(&self) -> u64 {
        let t = self.network.inter;
        let hop = self.routes.graph().hop_latency_s();
        let floor = t.latency_s + (3.0 * hop).min(2.0 * t.overhead_s);
        SimDuration::from_secs_f64(floor).0
    }

    /// The shard count a run would actually use for this engine.
    pub fn effective_shards(&self) -> u32 {
        let domains = self.routes.graph().leaves();
        let s = self.shards.max(1).min(domains);
        // without at least 3 ns of lookahead there is no usable window
        // beyond the margin; fall back to the serial loop
        if s > 1 && self.lookahead_ns() < 3 {
            1
        } else {
            s
        }
    }

    /// Execute `job`, simulating every message. `seed` drives compute
    /// jitter. Cost is `O(total messages · log pending-events)`.
    pub fn run(&self, job: &JobProfile, seed: u64) -> SimResult {
        self.run_traced(job, seed, &mut Recorder::aggregating())
    }

    /// Execute `job`, emitting per-rank compute / wait / protocol / bridge /
    /// link spans through `rec` (one track per rank; bridge tracks at
    /// `ranks..ranks+nodes`, link tracks above those). The `compute` and
    /// `comm` attribution in the returned [`SimResult`] is *derived from*
    /// the recorded spans; with a disabled recorder `elapsed` and the
    /// traffic counters are still exact but the attribution comes out zero.
    pub fn run_traced(&self, job: &JobProfile, seed: u64, rec: &mut Recorder) -> SimResult {
        self.run_counted(job, seed, rec).0
    }

    /// [`DesEngine::run_traced`], also returning the number of events the
    /// run fired across all shards — the unit the throughput benchmarks
    /// report as events/s.
    pub fn run_counted(&self, job: &JobProfile, seed: u64, rec: &mut Recorder) -> (SimResult, u64) {
        let p = self.map.ranks();
        let graph = self.routes.graph();
        let domains = graph.leaves();
        let shards = self.effective_shards() as usize;
        let shard_of_domain = partition_domains(domains, shards as u32);
        let root = RngStream::new(seed).derive("des-run");
        let (inter, intra) = (self.network.inter, self.network.intra);
        let bridge_serial_s = self.network.node_serialized_per_msg_s;
        let ctx = Arc::new(JobCtx {
            job: job.clone(),
            map: self.map,
            node: self.node.clone(),
            inter: Transport::new(inter),
            intra: Transport::new(intra),
            recv_overhead: SimDuration::from_secs_f64(intra.overhead_s.max(inter.overhead_s)),
            rdv_leg: SimDuration::from_secs_f64(inter.latency_s + 2.0 * inter.overhead_s),
            pipe_latency: SimDuration::from_secs_f64(intra.latency_s),
            bridge_serial_s,
            bridge_hold: SimDuration::from_secs_f64(bridge_serial_s),
            config: self.config.clone(),
            routes: self.routes.clone(),
            link_rate: self.link_rate.clone(),
            rank_domain: self.rank_domain.clone(),
            shard_of_domain,
        });

        let mut scratch = self
            .scratch
            .take()
            .unwrap_or_else(|| Box::new(DesScratch::default()));
        scratch.shards.resize_with(shards, ShardScratch::default);
        scratch.shards.truncate(shards);
        let mut sims: Vec<ShardSim> = scratch
            .shards
            .iter_mut()
            .enumerate()
            .map(|(id, sc)| {
                sc.reset(
                    p,
                    &root,
                    &self.slots,
                    self.map.nodes,
                    graph.len(),
                    domains,
                    shards,
                );
                let mut local = Recorder::like(rec);
                local.declare_tracks(p);
                ShardSim {
                    id: id as u32,
                    serial: shards == 1,
                    ctx: ctx.clone(),
                    core: std::mem::take(&mut sc.core),
                    ranks: std::mem::take(&mut sc.ranks),
                    links: std::mem::take(&mut sc.links),
                    pipes: std::mem::take(&mut sc.pipes),
                    bridges: std::mem::take(&mut sc.bridges),
                    msgs: std::mem::take(&mut sc.msgs),
                    dseq: std::mem::take(&mut sc.dseq),
                    cause: 0,
                    live_ranks: 0,
                    events: 0,
                    inter_msgs: 0,
                    intra_msgs: 0,
                    inter_bytes: 0,
                    link_bytes: std::mem::take(&mut sc.link_bytes),
                    outboxes: std::mem::take(&mut sc.outboxes),
                    rec: local,
                }
            })
            .collect();

        // seed the interpreters in global rank order, so every domain's
        // schedule counter assigns the same keys at every shard count
        for r in 0..p {
            let dom = ctx.domain_of_rank(r);
            let sim = &mut sims[ctx.shard_of_domain[dom as usize] as usize];
            sim.live_ranks += 1;
            sim.cause = dom;
            sim.sched_after(SimDuration::ZERO, Ev::Advance { rank: r });
        }

        if shards == 1 {
            let sim = &mut sims[0];
            while let Some(ev) = sim.core.pop_within(SimTime::MAX) {
                sim.events += 1;
                sim.cause = sim.ctx.domain_of_ev(&ev);
                fire(sim, ev);
            }
        } else {
            let sync = WindowSync {
                barrier: SpinBarrier::new(shards),
                mins: (0..shards).map(|_| AtomicU64::new(0)).collect(),
                inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
                horizon_ns: self.lookahead_ns() - 2,
            };
            let sync = &sync;
            sims = harborsim_par::gang(sims, |mut sim| {
                drive_windowed(&mut sim, sync);
                sim
            });
        }

        let mut local = Recorder::like(rec);
        local.declare_tracks(p);
        let mut live = 0u32;
        let mut events = 0u64;
        let mut elapsed = SimTime::ZERO;
        let mut inter_msgs = 0u64;
        let mut intra_msgs = 0u64;
        let mut inter_bytes = 0u64;
        let mut link_bytes = vec![0u64; graph.len()];
        for (sim, sc) in sims.into_iter().zip(scratch.shards.iter_mut()) {
            live += sim.live_ranks;
            events += sim.events;
            elapsed = elapsed.max(sim.now());
            inter_msgs += sim.inter_msgs;
            intra_msgs += sim.intra_msgs;
            inter_bytes += sim.inter_bytes;
            for (total, &b) in link_bytes.iter_mut().zip(&sim.link_bytes) {
                *total += b;
            }
            local.merge(sim.rec);
            // hand the working state back for the next run
            sc.core = sim.core;
            sc.ranks = sim.ranks;
            sc.links = sim.links;
            sc.pipes = sim.pipes;
            sc.bridges = sim.bridges;
            sc.msgs = sim.msgs;
            sc.link_bytes = sim.link_bytes;
            sc.dseq = sim.dseq;
            sc.outboxes = sim.outboxes;
        }
        assert_eq!(live, 0, "ranks deadlocked: {live} still live");

        let links = if inter_bytes > 0 {
            graph.with_labels(|labels| {
                labels
                    .enumerate()
                    .map(|(i, label)| {
                        let id = LinkId(i as u32);
                        LinkUsage {
                            label: label.into(),
                            busy_s: link_bytes[i] as f64 / graph.capacity_bps(id),
                            bytes: link_bytes[i],
                        }
                    })
                    .collect()
            })
        } else {
            Vec::new()
        };
        let result = SimResult {
            elapsed: elapsed - SimTime::ZERO,
            compute: local.rollup().max_track(SpanCategory::Compute),
            comm: CommBreakdown::from_trace(local.rollup()),
            inter_node_msgs: inter_msgs,
            intra_node_msgs: intra_msgs,
            inter_node_bytes: inter_bytes,
            links,
            engine: "des",
        };
        rec.merge(local);
        self.scratch.put(scratch);
        (result, events)
    }
}

/// Deal `domains` leaves to `shards` shards as contiguous blocks, the
/// first `domains % shards` shards holding one extra.
fn partition_domains(domains: u32, shards: u32) -> Box<[u32]> {
    let base = domains / shards;
    let rem = domains % shards;
    let mut owner = Vec::with_capacity(domains as usize);
    for s in 0..shards {
        let n = base + u32::from(s < rem);
        owner.extend(std::iter::repeat_n(s, n as usize));
    }
    owner.into_boxed_slice()
}

/// Refill `rank`'s instruction queue from the next program item, pushing
/// directly into the rank's (pooled) queue. Returns `false` when the
/// program is exhausted.
fn refill(sim: &mut ShardSim, rank: u32) -> bool {
    let ctx = sim.ctx.clone();
    let p = ctx.map.ranks();
    loop {
        let cur = sim.ranks[rank as usize].cursor.clone();
        let Some((step, reps)) = ctx.job.steps.get(cur.block) else {
            return false;
        };
        if cur.rep >= *reps {
            let rs = &mut sim.ranks[rank as usize];
            rs.cursor.block += 1;
            rs.cursor.rep = 0;
            rs.cursor.item = 0;
            continue;
        }
        // uid identifying (block, rep): phases add their index
        let uid = ((cur.block as u64) << 40) | ((cur.rep as u64) << 8);
        if cur.item == 0 {
            // compute item
            sim.ranks[rank as usize].cursor.item = 1;
            if step.flops_per_rank > 0.0 {
                let rs = &mut sim.ranks[rank as usize];
                let shape = 1.0 + (step.imbalance - 1.0) * rs.rng.uniform();
                let jitter = rs.rng.lognormal_factor(ctx.config.jitter_sigma);
                let flops = step.flops_per_rank * shape * ctx.config.compute_tax;
                let secs =
                    ctx.node
                        .rank_compute_seconds(flops, ctx.map.threads_per_rank, step.regions)
                        * jitter;
                rs.queue.push_back(PrimOp::Compute(secs));
                return true;
            }
            continue;
        }
        let phase_idx = cur.item - 1;
        if phase_idx >= step.comm.len() {
            let rs = &mut sim.ranks[rank as usize];
            rs.cursor.rep += 1;
            rs.cursor.item = 0;
            continue;
        }
        sim.ranks[rank as usize].cursor.item += 1;
        let uid = uid | (phase_idx as u64 + 1);
        let queue = &mut sim.ranks[rank as usize].queue;
        let before = queue.len();
        expand_phase(&ctx, rank, p, &step.comm[phase_idx], uid, queue);
        if queue.len() > before {
            return true;
        }
    }
}

/// Emit `rank`'s instructions for one communication phase.
fn expand_phase(
    ctx: &JobCtx,
    rank: u32,
    p: u32,
    phase: &CommPhase,
    uid: u64,
    ops: &mut VecDeque<PrimOp>,
) {
    if p <= 1 {
        return;
    }
    let r = rank;
    match phase {
        CommPhase::Halo1D { bytes, repeats } => {
            let left = r.checked_sub(1);
            let right = (r + 1 < p).then_some(r + 1);
            for k in 0..*repeats {
                for nb in [left, right].into_iter().flatten() {
                    ops.push_back(PrimOp::Send {
                        dst: nb,
                        bytes: *bytes,
                        mid: match_id(uid, 0, k, r, nb),
                    });
                }
                for nb in [left, right].into_iter().flatten() {
                    ops.push_back(PrimOp::Recv {
                        src: nb,
                        mid: match_id(uid, 0, k, nb, r),
                        family: Family::Halo,
                    });
                }
            }
        }
        CommPhase::Halo3D {
            dims,
            bytes,
            repeats,
        } => {
            debug_assert_eq!(dims.0 * dims.1 * dims.2, p);
            let neighbors = crate::workload::grid_neighbors(r, *dims);
            for k in 0..*repeats {
                for &nb in &neighbors {
                    ops.push_back(PrimOp::Send {
                        dst: nb,
                        bytes: *bytes,
                        mid: match_id(uid, 0, k, r, nb),
                    });
                }
                for &nb in &neighbors {
                    ops.push_back(PrimOp::Recv {
                        src: nb,
                        mid: match_id(uid, 0, k, nb, r),
                        family: Family::Halo,
                    });
                }
            }
        }
        CommPhase::Allreduce { bytes, repeats } => {
            for k in 0..*repeats {
                expand_allreduce(ctx.config.allreduce_algo, r, p, *bytes, uid, k, ops);
            }
        }
        CommPhase::Pairs { pairs, bytes } => {
            for (i, &(a, b)) in pairs.iter().enumerate() {
                let other = if a == r {
                    b
                } else if b == r {
                    a
                } else {
                    continue;
                };
                ops.push_back(PrimOp::Send {
                    dst: other,
                    bytes: *bytes,
                    mid: match_id(uid, i as u32, 0, r, other),
                });
                ops.push_back(PrimOp::Recv {
                    src: other,
                    mid: match_id(uid, i as u32, 0, other, r),
                    family: Family::Pairs,
                });
            }
        }
        CommPhase::Bcast { bytes } => {
            let rounds = log2_rounds(p);
            if r > 0 {
                let level = 31 - r.leading_zeros(); // round in which r receives
                let src = r - (1 << level);
                ops.push_back(PrimOp::Recv {
                    src,
                    mid: match_id(uid, level, 0, src, r),
                    family: Family::Other,
                });
                for k in (level + 1)..rounds {
                    let dst = r + (1 << k);
                    if dst < p {
                        ops.push_back(PrimOp::Send {
                            dst,
                            bytes: *bytes,
                            mid: match_id(uid, k, 0, r, dst),
                        });
                    }
                }
            } else {
                for k in 0..rounds {
                    let dst = 1u32 << k;
                    if dst < p {
                        ops.push_back(PrimOp::Send {
                            dst,
                            bytes: *bytes,
                            mid: match_id(uid, k, 0, 0, dst),
                        });
                    }
                }
            }
        }
        CommPhase::Gather { bytes_per_rank } => {
            if r == 0 {
                for src in 1..p {
                    ops.push_back(PrimOp::Recv {
                        src,
                        mid: match_id(uid, 0, 0, src, 0),
                        family: Family::Other,
                    });
                }
            } else {
                ops.push_back(PrimOp::Send {
                    dst: 0,
                    bytes: *bytes_per_rank,
                    mid: match_id(uid, 0, 0, r, 0),
                });
            }
        }
        CommPhase::Barrier => {
            for k in 0..log2_rounds(p) {
                let dist = 1u32 << k;
                let dst = (r + dist) % p;
                let src = (r + p - dist) % p;
                ops.push_back(PrimOp::Send {
                    dst,
                    bytes: 8,
                    mid: match_id(uid, k, 0, r, dst),
                });
                ops.push_back(PrimOp::Recv {
                    src,
                    mid: match_id(uid, k, 0, src, r),
                    family: Family::Other,
                });
            }
        }
    }
}

fn expand_allreduce(
    algo: AllreduceAlgo,
    r: u32,
    p: u32,
    bytes: u64,
    uid: u64,
    rep: u32,
    ops: &mut VecDeque<PrimOp>,
) {
    match algo {
        AllreduceAlgo::RecursiveDoubling => {
            for k in 0..log2_rounds(p) {
                let partner = r ^ (1 << k);
                if partner < p {
                    ops.push_back(PrimOp::Send {
                        dst: partner,
                        bytes,
                        mid: match_id(uid, k, rep, r, partner),
                    });
                    ops.push_back(PrimOp::Recv {
                        src: partner,
                        mid: match_id(uid, k, rep, partner, r),
                        family: Family::Allreduce,
                    });
                }
            }
        }
        AllreduceAlgo::Ring => {
            let chunk = bytes.div_ceil(p as u64).max(1);
            let right = (r + 1) % p;
            let left = (r + p - 1) % p;
            for j in 0..2 * (p - 1) {
                ops.push_back(PrimOp::Send {
                    dst: right,
                    bytes: chunk,
                    mid: match_id(uid, j, rep, r, right),
                });
                ops.push_back(PrimOp::Recv {
                    src: left,
                    mid: match_id(uid, j, rep, left, r),
                    family: Family::Allreduce,
                });
            }
        }
        AllreduceAlgo::Rabenseifner => {
            let rounds = log2_rounds(p);
            let mut round_no = 0u32;
            for k in 0..rounds {
                let vol = (bytes >> (k + 1)).max(1);
                push_pairwise(r, p, k, vol, uid, rep, round_no, ops);
                round_no += 1;
            }
            for k in (0..rounds).rev() {
                let vol = (bytes >> (k + 1)).max(1);
                push_pairwise(r, p, k, vol, uid, rep, round_no, ops);
                round_no += 1;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn push_pairwise(
    r: u32,
    p: u32,
    k: u32,
    bytes: u64,
    uid: u64,
    rep: u32,
    round_no: u32,
    ops: &mut VecDeque<PrimOp>,
) {
    let partner = r ^ (1 << k);
    if partner < p {
        ops.push_back(PrimOp::Send {
            dst: partner,
            bytes,
            mid: match_id(uid, round_no, rep, r, partner),
        });
        ops.push_back(PrimOp::Recv {
            src: partner,
            mid: match_id(uid, round_no, rep, partner, r),
            family: Family::Allreduce,
        });
    }
}

/// Drive `rank` forward until it blocks, computes, or finishes.
fn advance(sim: &mut ShardSim, rank: u32) {
    loop {
        let op = match sim.ranks[rank as usize].queue.pop_front() {
            Some(op) => op,
            None => {
                if refill(sim, rank) {
                    continue;
                }
                let rs = &mut sim.ranks[rank as usize];
                if !rs.finished {
                    rs.finished = true;
                    sim.live_ranks -= 1;
                }
                return;
            }
        };
        match op {
            PrimOp::Compute(secs) => {
                let d = SimDuration::from_secs_f64(secs);
                let now = sim.now();
                sim.rec
                    .span(SpanCategory::Compute, "solver-compute", rank, now, now + d);
                sim.sched_after(d, Ev::Advance { rank });
                return;
            }
            PrimOp::Send { dst, bytes, mid } => {
                let d = start_send(sim, rank, dst, bytes, mid);
                let now = sim.now();
                sim.rec
                    .span(SpanCategory::Protocol, "send-overhead", rank, now, now + d);
                sim.sched_after(d, Ev::Advance { rank });
                return;
            }
            PrimOp::Recv {
                src: _,
                mid,
                family,
            } => {
                let now = sim.now();
                let m = sim.msgs.entry(mid).or_default();
                if m.arrived {
                    sim.msgs.remove(&mid);
                    // same-node vs inter overhead difference is tiny on the
                    // receive side; one overhead serves both
                    let d = sim.ctx.recv_overhead;
                    sim.rec
                        .span(SpanCategory::Protocol, "recv-overhead", rank, now, now + d);
                    sim.sched_after(d, Ev::Advance { rank });
                    return;
                }
                m.recv_posted = true;
                m.waiting = Some((rank, now, family));
                if let Some((src, dst, bytes)) = m.rdv_sender.take() {
                    // rendezvous partner was parked: run the handshake now
                    let hd = sim.ctx.transport(src, dst).handshake;
                    if sim.ctx.same_domain(src, dst) {
                        sim.rec.span(
                            SpanCategory::Protocol,
                            "rendezvous-handshake",
                            src,
                            now,
                            now + hd,
                        );
                        sim.sched_after(
                            hd,
                            Ev::Transfer {
                                src,
                                dst,
                                bytes,
                                mid,
                            },
                        );
                    } else {
                        // the sender parked at a probe: grant across the
                        // fabric, it stamps the handshake span on arrival
                        sim.sched_after(
                            hd,
                            Ev::RdvGrant {
                                src,
                                dst,
                                bytes,
                                mid,
                                sent_at: now,
                            },
                        );
                    }
                }
                return;
            }
        }
    }
}

/// Post a message; returns the sender-side CPU overhead to charge.
fn start_send(sim: &mut ShardSim, src: u32, dst: u32, bytes: u64, mid: u64) -> SimDuration {
    let same = sim.ctx.same_node(src, dst);
    if same {
        sim.intra_msgs += 1;
    } else {
        sim.inter_msgs += 1;
        sim.inter_bytes += bytes;
    }
    let t = *sim.ctx.transport(src, dst);
    if bytes > t.params.eager_threshold {
        // rendezvous: the payload may move only once the receiver is ready
        if sim.ctx.same_domain(src, dst) {
            let m = sim.msgs.entry(mid).or_default();
            if m.recv_posted {
                let hd = t.handshake;
                let now = sim.now();
                sim.rec.span(
                    SpanCategory::Protocol,
                    "rendezvous-handshake",
                    src,
                    now,
                    now + hd,
                );
                sim.sched_after(
                    hd,
                    Ev::Transfer {
                        src,
                        dst,
                        bytes,
                        mid,
                    },
                );
            } else {
                m.rdv_sender = Some((src, dst, bytes));
            }
        } else {
            // the receiver's message table lives on another shard: probe it
            let sent_at = sim.now();
            sim.sched_after(
                sim.ctx.rdv_leg,
                Ev::RdvProbe {
                    src,
                    dst,
                    bytes,
                    mid,
                    sent_at,
                },
            );
        }
    } else {
        enqueue_transfer(sim, src, dst, bytes, mid);
    }
    t.send_overhead
}

/// Queue the payload on the sending node's wire (NIC or intra pipe),
/// passing first through the node's serialized bridge path if the job
/// runs under Docker networking.
fn enqueue_transfer(sim: &mut ShardSim, src: u32, dst: u32, bytes: u64, mid: u64) {
    if sim.ctx.bridge_serial_s > 0.0 {
        let node = sim.ctx.node_of(src);
        if let Some(ev) = sim.bridges[node as usize].acquire(Ev::BridgeGranted {
            node,
            src,
            dst,
            bytes,
            mid,
        }) {
            sim.sched_after(SimDuration::ZERO, ev);
        }
    } else {
        enqueue_transfer_wire(sim, src, dst, bytes, mid);
    }
}

/// Queue the payload directly on the wire: the intra-node pipe, the whole
/// same-leaf route, or the source segment of a cross-leaf route.
fn enqueue_transfer_wire(sim: &mut ShardSim, src: u32, dst: u32, bytes: u64, mid: u64) {
    if sim.ctx.same_node(src, dst) {
        let node = sim.ctx.node_of(src);
        let ser = SimDuration::from_secs_f64(sim.ctx.intra.params.serialization_seconds(bytes));
        if let Some(ev) = sim.pipes[node as usize].acquire(Ev::PipeGranted {
            node,
            dst,
            ser,
            mid,
        }) {
            sim.sched_after(SimDuration::ZERO, ev);
        }
        return;
    }
    let route = sim.ctx.routes.route(src, dst);
    // integer byte tallies for the utilization table; all four links are
    // tallied at the sender so the sums are layout-independent
    for &l in route.links() {
        sim.link_bytes[l.index()] += bytes;
    }
    if route.links().len() < 4 {
        // same leaf: claim the whole route and stream across it at once
        acquire_route(sim, src, dst, bytes, 0, mid);
    } else {
        // cross-leaf: store-and-forward over two shard-local segments
        acquire_seg(sim, src, dst, bytes, 0, 0, mid);
    }
}

/// Claim a same-leaf route's links one by one in traversal order (node-up,
/// node-down — a fixed class order, so chained holds cannot deadlock), then
/// hold them all for the serialization time.
fn acquire_route(sim: &mut ShardSim, src: u32, dst: u32, bytes: u64, idx: usize, mid: u64) {
    let route = sim.ctx.routes.route(src, dst);
    if let Some(&link) = route.links().get(idx) {
        if let Some(ev) = sim.links[link.index()].acquire(Ev::RouteGranted {
            src,
            dst,
            bytes,
            idx: (idx + 1) as u8,
            mid,
        }) {
            sim.sched_after(SimDuration::ZERO, ev);
        }
        return;
    }
    // all links held: the payload streams across the whole route at the
    // narrowest per-slot rate
    let ser = sim.ctx.route_ser(&route, bytes);
    let now = sim.now();
    let link_track_base = sim.ctx.map.ranks() + sim.ctx.map.nodes;
    for &l in route.links() {
        sim.rec.span(
            SpanCategory::Link,
            "link-busy",
            link_track_base + l.0,
            now,
            now + ser,
        );
    }
    sim.sched_after(ser, Ev::RouteSerDone { src, dst, mid });
}

/// The per-segment hold times of a cross-leaf route: the full serialization
/// time at the narrowest per-slot rate, split between the source segment
/// (node-up + leaf-up) and the destination segment (leaf-down + node-down)
/// in proportion to inverse segment rate. Both shards recompute this from
/// `(src, dst, bytes)` alone, so the split never has to cross the fabric.
fn seg_holds(ctx: &JobCtx, route: &Route, bytes: u64) -> (f64, f64) {
    let ls = route.links();
    let r0 = ctx.link_rate[ls[0].index()].min(ctx.link_rate[ls[1].index()]);
    let r1 = ctx.link_rate[ls[2].index()].min(ctx.link_rate[ls[3].index()]);
    let ser = bytes as f64 / r0.min(r1);
    // w0 / (w0 + w1) with weights w = 1/r simplifies to r1 / (r0 + r1)
    let h0 = ser * (r1 / (r0 + r1));
    (h0, ser - h0)
}

/// Claim one cross-leaf segment's links in traversal order, then hold them
/// for the segment's share of the serialization time.
fn acquire_seg(sim: &mut ShardSim, src: u32, dst: u32, bytes: u64, seg: u8, idx: usize, mid: u64) {
    let route = sim.ctx.routes.route(src, dst);
    let end = if seg == 0 { 2 } else { 4 };
    if idx < end {
        let link = route.links()[idx];
        if let Some(ev) = sim.links[link.index()].acquire(Ev::SegGranted {
            src,
            dst,
            bytes,
            seg,
            idx: (idx + 1) as u8,
            mid,
        }) {
            sim.sched_after(SimDuration::ZERO, ev);
        }
        return;
    }
    // both segment links held: stream the payload through them
    let (h0, h1) = seg_holds(&sim.ctx, &route, bytes);
    let hold = SimDuration::from_secs_f64(if seg == 0 { h0 } else { h1 });
    let now = sim.now();
    let link_track_base = sim.ctx.map.ranks() + sim.ctx.map.nodes;
    for &l in &route.links()[end - 2..end] {
        sim.rec.span(
            SpanCategory::Link,
            "link-busy",
            link_track_base + l.0,
            now,
            now + hold,
        );
    }
    sim.sched_after(
        hold,
        Ev::SegSerDone {
            src,
            dst,
            bytes,
            seg,
            mid,
        },
    );
}

/// Message arrived at the receiver.
fn deliver(sim: &mut ShardSim, mid: u64) {
    let m = sim.msgs.entry(mid).or_default();
    if let Some((rank, posted_at, family)) = m.waiting.take() {
        sim.msgs.remove(&mid);
        let od = sim.ctx.recv_overhead;
        let now = sim.now();
        // blocked-wait span: from the posted receive to delivery + overhead
        sim.rec
            .span(family.category(), "recv-wait", rank, posted_at, now + od);
        sim.sched_after(od, Ev::Advance { rank });
    } else {
        m.arrived = true;
    }
}

/// The DES engine under step truncation: simulate at most
/// `max_steps_per_kind` repetitions of each step kind and scale the result
/// back to the full job. Exact for perfectly periodic bulk-synchronous
/// phases, and the only way to run message-level simulation on
/// thousands-of-timesteps production cases.
#[derive(Debug, Clone)]
pub struct TruncatingDes {
    /// The underlying message-level engine.
    pub inner: DesEngine,
    /// Repetitions of each step kind to actually simulate.
    pub max_steps_per_kind: u32,
}

impl TruncatingDes {
    /// Execute `job` truncated, emitting spans through `rec`. The trace
    /// covers the *truncated* run; only the returned result is scaled
    /// back to the full job.
    pub fn run_traced(&self, job: &JobProfile, seed: u64, rec: &mut Recorder) -> SimResult {
        let (short, mult) = job.truncated(self.max_steps_per_kind);
        self.inner.run_traced(&short, seed, rec).scaled(mult)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::StepProfile;
    use harborsim_hw::{CpuModel, InterconnectKind};
    use harborsim_net::{DataPath, Topology, TransportSelection};

    fn des(nodes: u32, rpn: u32, path: DataPath) -> DesEngine {
        DesEngine::new(
            NodeSpec::dual_socket(CpuModel::xeon_e5_2697v3(), 128),
            NetworkModel::compose(
                InterconnectKind::GigabitEthernet,
                TransportSelection::Native,
                path,
                Topology::small_cluster(),
            ),
            RankMap::block(nodes, rpn, 1),
            EngineConfig::default(),
        )
    }

    fn fat_des(nodes: u32, rpn: u32, nodes_per_leaf: u32, path: DataPath) -> DesEngine {
        DesEngine::new(
            NodeSpec::dual_socket(CpuModel::xeon_e5_2697v3(), 128),
            NetworkModel::compose(
                InterconnectKind::GigabitEthernet,
                TransportSelection::Native,
                path,
                Topology::FatTree {
                    nodes_per_leaf,
                    hop_latency_s: 0.4e-6,
                    taper: 0.8,
                },
            ),
            RankMap::block(nodes, rpn, 1),
            EngineConfig::default(),
        )
    }

    fn step(comm: Vec<CommPhase>) -> StepProfile {
        StepProfile {
            flops_per_rank: 1e8,
            imbalance: 1.02,
            regions: 5.0,
            comm,
        }
    }

    #[test]
    fn compute_only_job_matches_hand_calc() {
        let e = des(1, 4, DataPath::Host);
        let mut cfg = e.clone();
        cfg.config.jitter_sigma = 0.0;
        let job = JobProfile::uniform(
            StepProfile {
                flops_per_rank: 2e9,
                imbalance: 1.0,
                regions: 0.0,
                comm: vec![],
            },
            3,
        );
        let r = cfg.run(&job, 1);
        // 2 GFLOP at 2.0 GF/s = 1 s per step, 3 steps
        assert!(
            (r.elapsed.as_secs_f64() - 3.0).abs() < 1e-6,
            "elapsed={}",
            r.elapsed
        );
        assert_eq!(r.inter_node_msgs, 0);
    }

    #[test]
    fn halo_chain_runs_and_counts_messages() {
        let e = des(2, 4, DataPath::Host);
        let job = JobProfile::uniform(
            step(vec![CommPhase::Halo1D {
                bytes: 10_000,
                repeats: 2,
            }]),
            3,
        );
        let r = e.run(&job, 5);
        // chain of 8 ranks over 2 nodes: 1 cut edge -> 2 inter msgs per
        // exchange; 6 intra edges -> 12 intra msgs per exchange
        assert_eq!(r.inter_node_msgs, 2 * 2 * 3);
        assert_eq!(r.intra_node_msgs, 12 * 2 * 3);
        assert_eq!(r.inter_node_bytes, 10_000 * 12);
        assert!(r.comm.halo > SimDuration::ZERO);
    }

    #[test]
    fn allreduce_completes_for_odd_rank_counts() {
        for p in [2u32, 3, 5, 7, 12] {
            let e = des(1, p, DataPath::Host);
            let job = JobProfile::uniform(
                step(vec![CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 3,
                }]),
                2,
            );
            let r = e.run(&job, 1);
            assert!(r.elapsed > SimDuration::ZERO, "p={p}");
        }
    }

    #[test]
    fn all_collective_phases_terminate() {
        let e = des(2, 5, DataPath::Host);
        let job = JobProfile::uniform(
            step(vec![
                CommPhase::Bcast { bytes: 4096 },
                CommPhase::Gather {
                    bytes_per_rank: 256,
                },
                CommPhase::Barrier,
                CommPhase::Allreduce {
                    bytes: 16,
                    repeats: 2,
                },
                CommPhase::Halo1D {
                    bytes: 1024,
                    repeats: 1,
                },
                CommPhase::Pairs {
                    pairs: vec![(0, 9), (3, 7)],
                    bytes: 2048,
                },
            ]),
            2,
        );
        let r = e.run(&job, 3);
        assert!(r.elapsed > SimDuration::ZERO);
        assert!(r.comm.other > SimDuration::ZERO);
        assert!(r.comm.pairs > SimDuration::ZERO);
    }

    #[test]
    fn rendezvous_messages_terminate() {
        // 1 MB >> eager threshold: exercises the rendezvous path
        let e = des(2, 2, DataPath::Host);
        let job = JobProfile::uniform(
            step(vec![CommPhase::Halo1D {
                bytes: 1 << 20,
                repeats: 1,
            }]),
            2,
        );
        let r = e.run(&job, 1);
        assert!(r.elapsed > SimDuration::ZERO);
        // 1 MB over 117 MB/s is ~9 ms per message; the chain has 3 edges
        assert!(r.comm.halo.as_secs_f64() > 5e-3);
    }

    #[test]
    fn deterministic_per_seed() {
        let e = des(2, 6, DataPath::Host);
        let job = JobProfile::uniform(
            step(vec![
                CommPhase::Halo1D {
                    bytes: 40_000,
                    repeats: 3,
                },
                CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 5,
                },
            ]),
            4,
        );
        let a = e.run(&job, 11);
        let b = e.run(&job, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_runs_reuse_pooled_scratch() {
        let e = des(2, 4, DataPath::Host);
        let job = JobProfile::uniform(
            step(vec![CommPhase::Halo1D {
                bytes: 10_000,
                repeats: 2,
            }]),
            2,
        );
        let first = e.run(&job, 7);
        assert_eq!(e.scratch.idle(), 1, "run must return its scratch");
        for seed in 0..4 {
            let again = e.run(&job, 7);
            assert_eq!(first, again, "pooled scratch must not leak state");
            let _ = e.run(&job, seed); // interleave other seeds
        }
        assert_eq!(e.scratch.idle(), 1);
    }

    #[test]
    fn docker_bridge_slows_everything() {
        let job = JobProfile::uniform(
            step(vec![
                CommPhase::Halo1D {
                    bytes: 40_000,
                    repeats: 5,
                },
                CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 10,
                },
            ]),
            3,
        );
        let host = des(2, 8, DataPath::Host).run(&job, 1);
        let dock = des(2, 8, DataPath::docker_default_bridge()).run(&job, 1);
        assert!(
            dock.elapsed.as_secs_f64() > 1.05 * host.elapsed.as_secs_f64(),
            "docker {} vs host {}",
            dock.elapsed,
            host.elapsed
        );
    }

    #[test]
    fn halo3d_terminates_and_counts() {
        use crate::workload::factor3;
        let e = des(2, 4, DataPath::Host); // 8 ranks -> 2x2x2 grid
        let dims = factor3(8);
        let job = JobProfile::uniform(
            step(vec![CommPhase::Halo3D {
                dims,
                bytes: 5_000,
                repeats: 2,
            }]),
            3,
        );
        let r = e.run(&job, 1);
        // 2x2x2 grid: every rank has 3 neighbours -> 24 directed msgs per
        // exchange, x-neighbours (12 msgs) intra under block mapping of 4/node
        assert_eq!(r.inter_node_msgs + r.intra_node_msgs, 24 * 2 * 3);
        assert!(r.inter_node_msgs > 0 && r.intra_node_msgs > 0);
    }

    #[test]
    fn ring_allreduce_terminates() {
        let mut e = des(1, 6, DataPath::Host);
        e.config.allreduce_algo = AllreduceAlgo::Ring;
        let job = JobProfile::uniform(
            step(vec![CommPhase::Allreduce {
                bytes: 6000,
                repeats: 1,
            }]),
            1,
        );
        let r = e.run(&job, 1);
        assert!(r.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn rabenseifner_terminates() {
        let mut e = des(2, 4, DataPath::Host);
        e.config.allreduce_algo = AllreduceAlgo::Rabenseifner;
        let job = JobProfile::uniform(
            step(vec![CommPhase::Allreduce {
                bytes: 4096,
                repeats: 2,
            }]),
            2,
        );
        let r = e.run(&job, 1);
        assert!(r.elapsed > SimDuration::ZERO);
    }

    // -- sharding --

    fn mixed_job() -> JobProfile {
        JobProfile::uniform(
            step(vec![
                CommPhase::Halo1D {
                    bytes: 20_000,
                    repeats: 2,
                },
                // above the GigE eager threshold: cross-leaf rendezvous
                CommPhase::Halo1D {
                    bytes: 256 * 1024,
                    repeats: 1,
                },
                CommPhase::Allreduce {
                    bytes: 64,
                    repeats: 3,
                },
                CommPhase::Barrier,
            ]),
            3,
        )
    }

    /// Run traced with a capturing recorder, returning the result and the
    /// order-insensitive span fingerprint.
    fn run_fingerprinted(e: &DesEngine, job: &JobProfile, seed: u64) -> (SimResult, u64) {
        let mut rec = Recorder::capturing();
        let r = e.run_traced(job, seed, &mut rec);
        let fp = rec.take_buffer().fingerprint();
        (r, fp)
    }

    #[test]
    fn sharded_runs_match_serial_bit_for_bit() {
        // 8 nodes on 2-node leaves: 4 domains; shard counts that divide the
        // leaves evenly, unevenly, and overshoot (clamped to 4)
        let job = mixed_job();
        let serial = fat_des(8, 4, 2, DataPath::Host);
        assert_eq!(serial.effective_shards(), 1);
        for shards in [2u32, 3, 4, 8] {
            let sharded = fat_des(8, 4, 2, DataPath::Host).with_shards(shards);
            assert!(sharded.effective_shards() > 1, "shards={shards}");
            for seed in [1u64, 7] {
                let (a, fa) = run_fingerprinted(&serial, &job, seed);
                let (b, fb) = run_fingerprinted(&sharded, &job, seed);
                assert_eq!(a, b, "shards={shards} seed={seed}");
                assert_eq!(fa, fb, "trace diverged: shards={shards} seed={seed}");
            }
        }
    }

    #[test]
    fn sharded_matches_serial_under_docker_bridge() {
        let job = mixed_job();
        let serial = fat_des(8, 4, 2, DataPath::docker_default_bridge());
        let sharded = fat_des(8, 4, 2, DataPath::docker_default_bridge()).with_shards(4);
        let (a, fa) = run_fingerprinted(&serial, &job, 3);
        let (b, fb) = run_fingerprinted(&sharded, &job, 3);
        assert_eq!(a, b);
        assert_eq!(fa, fb);
    }

    #[test]
    fn single_leaf_topology_forces_serial() {
        let e = des(2, 4, DataPath::Host).with_shards(8);
        assert_eq!(e.effective_shards(), 1, "one leaf -> one domain");
        let job = mixed_job();
        assert_eq!(e.run(&job, 2), des(2, 4, DataPath::Host).run(&job, 2));
    }

    #[test]
    fn run_counted_reports_fired_events() {
        let e = fat_des(4, 2, 2, DataPath::Host);
        let job = mixed_job();
        let (r, events) = e.run_counted(&job, 1, &mut Recorder::aggregating());
        assert!(r.elapsed > SimDuration::ZERO);
        // at the very least every rank fires its seed Advance
        assert!(events >= u64::from(e.map.ranks()), "events={events}");
        let (_, sharded_events) = fat_des(4, 2, 2, DataPath::Host).with_shards(2).run_counted(
            &job,
            1,
            &mut Recorder::aggregating(),
        );
        assert_eq!(events, sharded_events, "event count is layout-invariant");
    }

    #[test]
    fn truncating_des_scales_back_to_full_job() {
        let d = des(2, 4, DataPath::Host);
        let job = JobProfile::uniform(StepProfile::compute_only(5e7, 2.0), 40);
        let trunc = TruncatingDes {
            inner: d.clone(),
            max_steps_per_kind: 5,
        };
        let full = trunc.run_traced(&job, 3, &mut Recorder::aggregating());
        let (short, mult) = job.truncated(5);
        let manual = d.run(&short, 3).scaled(mult);
        assert_eq!(full.elapsed, manual.elapsed);
        assert!(mult > 1.0);
    }
}
