//! Routes over the link graph, and the fluid schedule that costs them.
//!
//! A [`RouteTable`] fixes, once per compiled scenario, which links every
//! (src rank, dst rank) pair traverses. Routing is deterministic — up to
//! the leaf, across the spine, down — so the table only needs each rank's
//! node placement to answer in O(1); nothing is materialized per pair
//! (a 256-node MareNostrum4 job has 12,288 ranks — 150M pairs).
//!
//! [`LinkSchedule`] is the analytic engine's costing device: a fluid
//! (max-min sharing, no packet granularity) schedule where every message of
//! a round keeps each link it crosses busy for `bytes / capacity`, and the
//! round's wire time is the busiest link. All messages of a round have one
//! size, so the schedule counts messages per link while the round is built
//! (integers only, keyed by node pair, no [`Route`] built) and folds each
//! link's count into busy seconds once, when the round is settled at its
//! size. The fold adds the same quantum `count` times from `0.0`, which is
//! bit for bit what a per-message deposit computes in any order. A counted
//! round can also be recorded into [`RoundCounts`] and settled later, at
//! any capacities over a graph of the same shape: the counts depend on the
//! routes alone. The DES engine uses the same routes but materializes the
//! links as FIFO resources, so both engines disagree only about queueing,
//! never about topology.

use crate::link::{LinkClass, LinkGraph, LinkId};

/// The ordered links one message traverses, plus the switch latency it pays.
///
/// At most four links (node-up, leaf-up, leaf-down, node-down); same-node
/// traffic traverses none and same-leaf traffic skips the spine pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Route {
    links: [LinkId; 4],
    len: u8,
    latency_s: f64,
}

impl Route {
    const LOCAL: Route = Route {
        links: [LinkId(0); 4],
        len: 0,
        latency_s: 0.0,
    };

    /// The links in traversal order (which is also the DES lock order).
    #[inline]
    pub fn links(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }

    /// Total switch-traversal latency along the route, seconds.
    #[inline]
    pub fn latency_s(&self) -> f64 {
        self.latency_s
    }
}

/// Per-plan routing: a link graph plus each rank's node placement.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteTable {
    graph: LinkGraph,
    node_of_rank: Box<[u32]>,
}

impl RouteTable {
    /// Bind a graph to a rank placement.
    pub fn build(graph: LinkGraph, node_of_rank: Vec<u32>) -> RouteTable {
        assert!(!node_of_rank.is_empty(), "a job has at least one rank");
        for (r, &n) in node_of_rank.iter().enumerate() {
            assert!(n < graph.nodes(), "rank {r} placed on absent node {n}");
        }
        RouteTable {
            graph,
            node_of_rank: node_of_rank.into_boxed_slice(),
        }
    }

    /// The link graph routed over.
    pub fn graph(&self) -> &LinkGraph {
        &self.graph
    }

    /// Mutable graph access, for degrading links before the table is shared.
    pub fn graph_mut(&mut self) -> &mut LinkGraph {
        &mut self.graph
    }

    /// Ranks in the placement.
    pub fn ranks(&self) -> u32 {
        self.node_of_rank.len() as u32
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: u32) -> u32 {
        self.node_of_rank[rank as usize]
    }

    /// The route from rank `src` to rank `dst`, computed in O(1).
    #[inline]
    pub fn route(&self, src: u32, dst: u32) -> Route {
        self.route_between_nodes(self.node_of(src), self.node_of(dst))
    }

    /// The route between two nodes.
    pub fn route_between_nodes(&self, a: u32, b: u32) -> Route {
        if a == b {
            return Route::LOCAL;
        }
        let g = &self.graph;
        let (la, lb) = (g.leaf_of(a), g.leaf_of(b));
        if la == lb {
            Route {
                links: [g.node_up(a), g.node_down(b), LinkId(0), LinkId(0)],
                len: 2,
                latency_s: g.hop_latency_s(),
            }
        } else {
            Route {
                links: [g.node_up(a), g.leaf_up(la), g.leaf_down(lb), g.node_down(b)],
                len: 4,
                latency_s: 3.0 * g.hop_latency_s(),
            }
        }
    }
}

/// Fluid costing of one communication round over a [`LinkGraph`], by
/// counting messages per link.
///
/// Every message of a round has the same size, so each link's busy time is
/// one quantum, `bytes / capacity`, added once per message crossing it. A
/// round therefore needs only integers while its messages arrive:
/// [`deposit`](Self::deposit) adds 1 to the count of each link between two
/// nodes and notes whether the pair shares a leaf. The size comes once, at
/// [`settle`](Self::settle), which folds each loaded link's count into its
/// busy seconds and bytes and reads off the round's serialization time as
/// the busiest link: every link drains its queued bytes at full capacity,
/// concurrently.
///
/// The counts depend only on which nodes talk and on the graph's shape
/// (node count and nodes per leaf), never on a capacity or a latency. So
/// a counted round can be kept: [`record`](Self::record) appends it to a
/// [`RoundCounts`], and [`settle_recorded`](Self::settle_recorded) settles
/// it later over any graph of the same shape (another environment,
/// taper or degraded link) exactly as `settle` would have settled the
/// live counts there, with no allocation.
///
/// The fold is exact, not an approximation of per-message deposits: a
/// link's busy time is the left fold from `0.0` of `count` copies of its
/// quantum, which is what adding the quantum once per message computes, in
/// any message order. Settling sorts the loaded links by (quantum, count)
/// and extends one running sum through each run of equal quanta, so a
/// round's floating-point work is `O(links · log links)` plus the largest
/// count of each distinct quantum, however many messages it carried. A
/// degraded link has a quantum of its own and gets its own sum.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSchedule {
    /// Leaf switch of each node, so a deposit divides nothing.
    leaf_of: Box<[u32]>,
    /// Messages deposited on each link this round, by [`LinkId::index`].
    count: Vec<u32>,
    /// Some deposited pair shares a leaf.
    same_leaf: bool,
    /// Some deposited pair crosses the spine.
    cross_leaf: bool,
    /// The loaded links of the last settle, in (quantum, count) order.
    loads: Vec<LinkLoad>,
}

/// One loaded link of a settled round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLoad {
    /// The link.
    pub link: LinkId,
    /// Messages that crossed it this round.
    pub messages: u32,
    /// Seconds one message keeps it busy: `bytes / capacity`.
    pub quantum_s: f64,
    /// Busy seconds: `messages` quanta, added one at a time from `0.0`.
    pub busy_s: f64,
    /// Payload bytes it carried: `messages × bytes`.
    pub bytes: u64,
}

/// A round of a [`LinkSchedule`] settled at one message size.
#[derive(Debug, Clone, Copy)]
pub struct SettledRound<'a> {
    loads: &'a [LinkLoad],
    messages: u64,
    max_node_sends: u32,
    wire_s: f64,
    max_latency_s: f64,
}

impl SettledRound<'_> {
    /// The round's wire time: the busiest link's drain time.
    pub fn wire_seconds(&self) -> f64 {
        self.wire_s
    }

    /// The longest switch latency any message of the round pays.
    pub fn max_latency_s(&self) -> f64 {
        self.max_latency_s
    }

    /// Messages deposited this round.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// The most messages any one node put on the fabric this round.
    pub fn max_node_sends(&self) -> u32 {
        self.max_node_sends
    }

    /// Every link that carried a message, in no particular link order.
    pub fn loads(&self) -> &[LinkLoad] {
        self.loads
    }
}

/// Counted rounds kept for settling later: each round's per-link message
/// counts, run-length encoded in link order, and whether its pairs share
/// a leaf or cross the spine. Rounds are stored back to back in two
/// vectors, so recording a round allocates nothing of its own.
///
/// A link layout puts every node's uplink, then every downlink, then the
/// leaf links, so a regular pattern (a halo, a pairwise exchange) loads
/// long stretches of links equally and encodes in a few runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundCounts {
    /// Links in the graph the rounds were counted over.
    links: u32,
    /// `(count, links)` runs covering each round's links in order.
    runs: Vec<(u32, u32)>,
    /// Each round's end in `runs`, and its same-leaf and cross-leaf flags.
    rounds: Vec<(u32, bool, bool)>,
}

impl RoundCounts {
    /// No rounds, for a graph of `graph`'s shape.
    pub fn new(graph: &LinkGraph) -> RoundCounts {
        RoundCounts::with_capacity(graph, 0, 0)
    }

    /// No rounds, for a graph of `graph`'s shape, with room for `rounds`
    /// rounds of `runs` runs in all before recording allocates.
    pub fn with_capacity(graph: &LinkGraph, rounds: usize, runs: usize) -> RoundCounts {
        RoundCounts {
            links: graph.len() as u32,
            runs: Vec::with_capacity(runs),
            rounds: Vec::with_capacity(rounds),
        }
    }

    /// Links in the graph the rounds were counted over.
    pub fn links(&self) -> usize {
        self.links as usize
    }

    /// Rounds recorded.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True when no round has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Heap bytes the recorded rounds hold.
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.rounds.capacity() * std::mem::size_of::<(u32, bool, bool)>()
    }

    /// Drop the spare capacity recording left behind.
    pub fn shrink_to_fit(&mut self) {
        self.runs.shrink_to_fit();
        self.rounds.shrink_to_fit();
    }

    /// Round `round`'s runs and flags.
    fn round(&self, round: usize) -> (&[(u32, u32)], bool, bool) {
        let start = match round {
            0 => 0,
            r => self.rounds[r - 1].0 as usize,
        };
        let (end, same_leaf, cross_leaf) = self.rounds[round];
        (&self.runs[start..end as usize], same_leaf, cross_leaf)
    }
}

impl LinkSchedule {
    /// An empty schedule over `graph`'s links, with its leaf table.
    pub fn new(graph: &LinkGraph) -> LinkSchedule {
        LinkSchedule {
            leaf_of: (0..graph.nodes()).map(|n| graph.leaf_of(n)).collect(),
            count: vec![0; graph.len()],
            same_leaf: false,
            cross_leaf: false,
            loads: Vec::with_capacity(graph.len()),
        }
    }

    /// Deposit one message from node `a` to node `b` (`a != b`; same-node
    /// traffic never reaches the fabric): its route's links each count
    /// one more message.
    #[inline]
    pub fn deposit(&mut self, graph: &LinkGraph, a: u32, b: u32) {
        debug_assert_ne!(a, b, "same-node messages cross no link");
        let (la, lb) = (self.leaf_of[a as usize], self.leaf_of[b as usize]);
        self.count[graph.node_up(a).index()] += 1;
        self.count[graph.node_down(b).index()] += 1;
        if la == lb {
            self.same_leaf = true;
        } else {
            self.cross_leaf = true;
            self.count[graph.leaf_up(la).index()] += 1;
            self.count[graph.leaf_down(lb).index()] += 1;
        }
    }

    /// Settle the round at `bytes` per message: fold every loaded link's
    /// count into busy seconds and bytes over `graph`'s capacities (the
    /// graph this schedule was built for). Allocates nothing.
    pub fn settle(&mut self, graph: &LinkGraph, bytes: u64) -> SettledRound<'_> {
        debug_assert_eq!(
            self.count.len(),
            graph.len(),
            "schedule built for another graph"
        );
        let loaded = self
            .count
            .iter()
            .enumerate()
            .filter(|&(_, &messages)| messages > 0)
            .map(|(i, &messages)| (i as u32, messages));
        settle_loaded(
            &mut self.loads,
            graph,
            bytes,
            (self.same_leaf, self.cross_leaf),
            loaded,
        )
    }

    /// Append the round counted so far to `into`, run-length encoded, and
    /// return its index there. The schedule keeps its counts until
    /// [`reset`](Self::reset).
    pub fn record(&self, into: &mut RoundCounts) -> usize {
        debug_assert_eq!(into.links as usize, self.count.len(), "another shape");
        let start = into.runs.len();
        for &messages in &self.count {
            match into.runs[start..].last_mut() {
                Some((count, links)) if *count == messages => *links += 1,
                _ => into.runs.push((messages, 1)),
            }
        }
        into.rounds
            .push((into.runs.len() as u32, self.same_leaf, self.cross_leaf));
        into.rounds.len() - 1
    }

    /// Settle round `round` of `counts` at `bytes` per message over
    /// `graph`'s capacities, bit for bit as [`settle`](Self::settle)
    /// settles the same counts deposited live. `graph` may be any graph of
    /// the shape the round was counted on; this schedule's own counts are
    /// not read. Allocates nothing.
    pub fn settle_recorded(
        &mut self,
        graph: &LinkGraph,
        counts: &RoundCounts,
        round: usize,
        bytes: u64,
    ) -> SettledRound<'_> {
        debug_assert_eq!(counts.links as usize, graph.len(), "another shape");
        let (runs, same_leaf, cross_leaf) = counts.round(round);
        let mut first = 0u32;
        let loaded = runs.iter().flat_map(move |&(messages, links)| {
            let start = first;
            first += links;
            // an empty run yields no link
            let end = if messages > 0 { first } else { start };
            (start..end).map(move |i| (i, messages))
        });
        settle_loaded(
            &mut self.loads,
            graph,
            bytes,
            (same_leaf, cross_leaf),
            loaded,
        )
    }

    /// Clear the counts for the next round, keeping the allocations.
    pub fn reset(&mut self) {
        self.count.fill(0);
        self.same_leaf = false;
        self.cross_leaf = false;
    }
}

/// Settle one round whose loaded links arrive in increasing link order as
/// `(link index, messages)`: the fold behind both
/// [`LinkSchedule::settle`] and [`LinkSchedule::settle_recorded`], into
/// `loads`, whose capacity covers every link.
fn settle_loaded<'a>(
    loads: &'a mut Vec<LinkLoad>,
    graph: &LinkGraph,
    bytes: u64,
    (same_leaf, cross_leaf): (bool, bool),
    loaded: impl Iterator<Item = (u32, u32)>,
) -> SettledRound<'a> {
    loads.clear();
    let (mut sent, mut max_node_sends) = (0u64, 0u32);
    for (i, messages) in loaded {
        let link = LinkId(i);
        // every message leaves through exactly one node uplink
        if graph.link(link).class == LinkClass::NodeUp {
            sent += messages as u64;
            max_node_sends = max_node_sends.max(messages);
        }
        loads.push(LinkLoad {
            link,
            messages,
            quantum_s: bytes as f64 / graph.capacity_bps(link),
            busy_s: 0.0,
            bytes: messages as u64 * bytes,
        });
    }
    loads.sort_unstable_by_key(|l| (l.quantum_s.to_bits(), l.messages));
    let (mut quantum_bits, mut sum, mut added) = (None, 0.0, 0u32);
    let mut wire_s: f64 = 0.0;
    for l in loads.iter_mut() {
        if quantum_bits != Some(l.quantum_s.to_bits()) {
            (quantum_bits, sum, added) = (Some(l.quantum_s.to_bits()), 0.0, 0);
        }
        while added < l.messages {
            sum += l.quantum_s;
            added += 1;
        }
        l.busy_s = sum;
        wire_s = wire_s.max(sum);
    }
    let hop = graph.hop_latency_s();
    let mut max_latency_s: f64 = 0.0;
    if same_leaf {
        max_latency_s = max_latency_s.max(hop);
    }
    if cross_leaf {
        max_latency_s = max_latency_s.max(3.0 * hop);
    }
    SettledRound {
        loads,
        messages: sent,
        max_node_sends,
        wire_s,
        max_latency_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn table() -> RouteTable {
        // 4 nodes x 2-node leaves, 2 ranks per node, block placement
        let g = LinkGraph::build(
            &Topology::FatTree {
                nodes_per_leaf: 2,
                hop_latency_s: 1e-6,
                taper: 0.5,
            },
            4,
            1e9,
            1e9,
        );
        RouteTable::build(g, vec![0, 0, 1, 1, 2, 2, 3, 3])
    }

    #[test]
    fn same_node_routes_nothing() {
        let t = table();
        let r = t.route(0, 1);
        assert!(r.links().is_empty());
        assert_eq!(r.latency_s(), 0.0);
    }

    #[test]
    fn same_leaf_skips_the_spine() {
        let t = table();
        let r = t.route(0, 2); // node 0 -> node 1, both under leaf 0
        let g = t.graph();
        assert_eq!(r.links(), &[g.node_up(0), g.node_down(1)]);
        assert!((r.latency_s() - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn cross_leaf_traverses_four_links_in_order() {
        let t = table();
        let r = t.route(1, 7); // node 0 (leaf 0) -> node 3 (leaf 1)
        let g = t.graph();
        assert_eq!(
            r.links(),
            &[g.node_up(0), g.leaf_up(0), g.leaf_down(1), g.node_down(3)]
        );
        assert!((r.latency_s() - 3e-6).abs() < 1e-15);
    }

    #[test]
    fn schedule_finds_the_busiest_link() {
        let t = table();
        let g = t.graph();
        let mut s = LinkSchedule::new(g);
        // two cross-leaf flows out of leaf 0 share its spine uplink
        // (capacity 0.5 * 2 * 1e9 = 1e9): uplink carries 2000 bytes
        s.deposit(g, t.node_of(0), t.node_of(4));
        s.deposit(g, t.node_of(2), t.node_of(6));
        let round = s.settle(g, 1000);
        let up = round
            .loads()
            .iter()
            .find(|l| l.link == g.leaf_up(0))
            .expect("the spine uplink is loaded");
        assert_eq!((up.messages, up.bytes), (2, 2000));
        assert_eq!((round.messages(), round.max_node_sends()), (2, 1));
        assert!((up.busy_s - 2000.0 / 1e9).abs() < 1e-18);
        assert!((round.wire_seconds() - 2000.0 / 1e9).abs() < 1e-18);
        assert!((round.max_latency_s() - 3e-6).abs() < 1e-15);
        s.reset();
        let round = s.settle(g, 1000);
        assert_eq!(round.wire_seconds(), 0.0);
        assert_eq!(round.max_latency_s(), 0.0);
        assert!(round.loads().is_empty());
    }

    #[test]
    fn same_leaf_rounds_pay_one_hop() {
        let t = table();
        let g = t.graph();
        let mut s = LinkSchedule::new(g);
        s.deposit(g, 0, 1);
        let round = s.settle(g, 1_000_000);
        assert_eq!(round.loads().len(), 2, "node-up and node-down only");
        assert!((round.max_latency_s() - 1e-6).abs() < 1e-15);
    }

    /// A small xorshift generator: the crate has no RNG of its own to lean
    /// on below the DES kernel's streams.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// What a schedule that deposits `bytes / capacity` per message on
    /// each link of its route computes: per-link busy seconds and bytes,
    /// the busiest link and the longest route latency.
    fn per_message_fold(
        t: &RouteTable,
        pairs: &[(u32, u32)],
        bytes: u64,
    ) -> (Vec<f64>, Vec<u64>, f64, f64) {
        let g = t.graph();
        let (mut busy, mut carried) = (vec![0.0; g.len()], vec![0u64; g.len()]);
        let mut latency: f64 = 0.0;
        for &(a, b) in pairs {
            let route = t.route_between_nodes(a, b);
            for &l in route.links() {
                busy[l.index()] += bytes as f64 / g.capacity_bps(l);
                carried[l.index()] += bytes;
            }
            latency = latency.max(route.latency_s());
        }
        let wire = busy.iter().copied().fold(0.0, f64::max);
        (busy, carried, wire, latency)
    }

    #[test]
    fn counting_equals_the_per_message_fold_bit_for_bit() {
        // 13 nodes under 4-node leaves (a ragged last leaf), 1.1 GB/s
        // nodes: quanta are not powers of two, so a multiplied fold would
        // round differently
        let mut g = LinkGraph::build(
            &Topology::FatTree {
                nodes_per_leaf: 4,
                hop_latency_s: 0.3e-6,
                taper: 0.7,
            },
            13,
            1.1e9,
            3.3e9,
        );
        g.degrade(g.node_up(2), 0.3);
        g.degrade(g.node_down(7), 0.55);
        g.degrade(g.leaf_up(1), 0.9);
        let t = RouteTable::build(g, (0..13).collect());
        let g = t.graph();
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut s = LinkSchedule::new(g);
        let mut pairs = Vec::new();
        for round in 0..400 {
            pairs.clear();
            // a whole leaf talking to itself, or the whole machine
            let span = if round % 3 == 0 { 4 } else { 13 };
            for _ in 0..rng.below(600) {
                let a = rng.below(span) as u32;
                let b = rng.below(span) as u32;
                if a != b {
                    pairs.push((a, b));
                }
            }
            let bytes = 1 + rng.below(1 << (1 + round % 30));
            let (busy, carried, wire, latency) = per_message_fold(&t, &pairs, bytes);
            s.reset();
            for &(a, b) in &pairs {
                s.deposit(g, a, b);
            }
            let settled = s.settle(g, bytes);
            let (mut got_busy, mut got_bytes) = (vec![0.0; g.len()], vec![0u64; g.len()]);
            for l in settled.loads() {
                got_busy[l.link.index()] = l.busy_s;
                got_bytes[l.link.index()] = l.bytes;
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got_busy), bits(&busy), "round {round}: busy");
            assert_eq!(got_bytes, carried, "round {round}: bytes");
            assert_eq!(
                settled.wire_seconds().to_bits(),
                wire.to_bits(),
                "round {round}"
            );
            assert_eq!(
                settled.max_latency_s().to_bits(),
                latency.to_bits(),
                "round {round}"
            );
            assert_eq!(settled.messages(), pairs.len() as u64, "round {round}");
            let mut sends = [0u32; 13];
            for &(a, _) in &pairs {
                sends[a as usize] += 1;
            }
            assert_eq!(settled.max_node_sends(), sends.into_iter().max().unwrap());
        }
    }

    /// A settled round as bit patterns: every load, then the round's
    /// wire time, latency, messages and busiest sender.
    type Snapshot = (Vec<(LinkId, u32, u64, u64, u64)>, u64, u64, u64, u32);

    fn snapshot(r: SettledRound<'_>) -> Snapshot {
        let loads = r
            .loads()
            .iter()
            .map(|l| {
                (
                    l.link,
                    l.messages,
                    l.quantum_s.to_bits(),
                    l.busy_s.to_bits(),
                    l.bytes,
                )
            })
            .collect();
        (
            loads,
            r.wire_seconds().to_bits(),
            r.max_latency_s().to_bits(),
            r.messages(),
            r.max_node_sends(),
        )
    }

    #[test]
    fn a_recorded_round_settles_as_the_live_one_on_any_capacities() {
        // one shape (13 nodes, 4-node leaves), two capacity sets: the
        // counts recorded on the healthy graph settle on the degraded one
        // exactly as counts deposited there
        let graph = |degrade: bool| {
            let mut g = LinkGraph::build(
                &Topology::FatTree {
                    nodes_per_leaf: 4,
                    hop_latency_s: 0.3e-6,
                    taper: 0.7,
                },
                13,
                1.1e9,
                3.3e9,
            );
            if degrade {
                g.degrade(g.node_up(2), 0.3);
                g.degrade(g.leaf_down(2), 0.55);
            }
            g
        };
        let graphs = [graph(false), graph(true)];
        let mut live = graphs.each_ref().map(LinkSchedule::new);
        let mut counts = RoundCounts::new(&graphs[0]);
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        let mut want = Vec::new();
        for round in 0..300 {
            // a leaf talking to itself, the whole machine, or nothing
            let (span, n) = match round % 5 {
                0 => (4, rng.below(80)),
                4 => (13, 0),
                _ => (13, rng.below(600)),
            };
            for s in &mut live {
                s.reset();
            }
            for _ in 0..n {
                let (a, b) = (rng.below(span) as u32, rng.below(span) as u32);
                if a != b {
                    for (s, g) in live.iter_mut().zip(&graphs) {
                        s.deposit(g, a, b);
                    }
                }
            }
            assert_eq!(live[0].record(&mut counts), round);
            let bytes = 1 + rng.below(1 << (1 + round % 30));
            let settled: Vec<Snapshot> = live
                .iter_mut()
                .zip(&graphs)
                .map(|(s, g)| snapshot(s.settle(g, bytes)))
                .collect();
            want.push((bytes, settled));
        }
        assert_eq!(counts.len(), 300);
        let mut later = LinkSchedule::new(&graphs[0]);
        for (round, (bytes, settled)) in want.iter().enumerate() {
            for (g, want) in graphs.iter().zip(settled) {
                let got = snapshot(later.settle_recorded(g, &counts, round, *bytes));
                assert_eq!(&got, want, "round {round}");
            }
        }
    }
}
