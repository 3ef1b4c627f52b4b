//! The explicit link graph of a cluster fabric.
//!
//! A [`LinkGraph`] materializes the topology as directed capacity-carrying
//! links: every node owns an uplink and a downlink to its leaf switch, and
//! every leaf switch owns an uplink and a downlink to the spine. Traffic
//! between two nodes under the same leaf uses `node-up → node-down`;
//! traffic crossing leaves uses `node-up → leaf-up → leaf-down → node-down`.
//! Single-switch clusters are the degenerate case of one leaf spanning the
//! whole machine, whose spine links are never routed over.
//!
//! Capacities encode the contention model both engines share:
//!
//! - A **node link** carries the node's *stream rate* —
//!   `min(transport bandwidth, NIC bandwidth)`. A transport's bandwidth
//!   figure is a node-level cap, not per-flow: kernel-bypass stacks saturate
//!   the NIC from one flow, and IP-emulation stacks (IPoIB, IPoFabric)
//!   bottleneck in the kernel no matter how many ranks send — which is
//!   exactly why a self-contained container cannot "use the Mellanox EDR
//!   network". Per-rank protocol CPU time still parallelizes across cores;
//!   only payload bytes serialize here.
//! - A **leaf (spine) link** carries `taper × nodes_per_leaf × NIC
//!   bandwidth`: the aggregate uplink capacity of the leaf. With `taper <
//!   1` the spine — not any NIC — becomes the bottleneck of a global
//!   exchange, which is the 256-node effect of the paper's Fig. 3.
//!
//! The analytic engine costs a communication round as the busiest link of
//! a fluid schedule over these capacities ([`crate::route::LinkSchedule`]);
//! the DES engine materializes each link as a FIFO resource with one slot
//! per node-stream share. One graph, two engines, one source of truth.

use crate::topology::Topology;
use std::sync::{RwLock, RwLockReadGuard};

/// Index of one directed link in a [`LinkGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Dense index into per-link arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a link connects. The variants are declared in route order (a route
/// traverses classes strictly in this order), which is also the canonical
/// lock order the DES engine acquires link resources in — making
/// simultaneous multi-link holds deadlock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Node NIC → leaf switch.
    NodeUp,
    /// Leaf switch → spine.
    LeafUp,
    /// Spine → leaf switch.
    LeafDown,
    /// Leaf switch → node NIC.
    NodeDown,
}

impl LinkClass {
    /// True for the two spine-facing classes.
    pub fn is_spine(self) -> bool {
        matches!(self, LinkClass::LeafUp | LinkClass::LeafDown)
    }
}

/// One directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// What this link connects.
    pub class: LinkClass,
    /// Node index (for node links) or leaf index (for leaf links).
    pub index: u32,
    /// Capacity in bytes/second (after any degradation).
    pub capacity_bps: f64,
}

/// The directed link graph of a fabric serving `nodes` nodes.
///
/// Link ids are laid out densely: `[0, n)` node uplinks, `[n, 2n)` node
/// downlinks, then `L` leaf uplinks and `L` leaf downlinks.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkGraph {
    links: Vec<Link>,
    nodes: u32,
    nodes_per_leaf: u32,
    leaves: u32,
    hop_latency_s: f64,
}

impl LinkGraph {
    /// Build the graph for `topology` over `nodes` nodes.
    ///
    /// `node_stream_bps` is the node-level stream rate — `min(transport
    /// bandwidth, NIC bandwidth)` of the effective inter-node transport;
    /// `nic_bw_bps` is the raw NIC rate, which sizes the leaf uplinks
    /// (the switch hardware does not slow down because the endpoints run a
    /// kernel-bound transport).
    pub fn build(topology: &Topology, nodes: u32, node_stream_bps: f64, nic_bw_bps: f64) -> Self {
        assert!(nodes > 0, "a graph needs at least one node");
        assert!(node_stream_bps > 0.0 && nic_bw_bps > 0.0);
        let (nodes_per_leaf, hop_latency_s, taper) = match *topology {
            Topology::SingleSwitch { hop_latency_s } => (nodes, hop_latency_s, 1.0),
            Topology::FatTree {
                nodes_per_leaf,
                hop_latency_s,
                taper,
            } => (nodes_per_leaf, hop_latency_s, taper),
        };
        let leaves = nodes.div_ceil(nodes_per_leaf);
        let leaf_capacity = taper * nodes_per_leaf as f64 * nic_bw_bps;
        let mut links = Vec::with_capacity(2 * (nodes + leaves) as usize);
        for class in [LinkClass::NodeUp, LinkClass::NodeDown] {
            links.extend((0..nodes).map(|i| Link {
                class,
                index: i,
                capacity_bps: node_stream_bps,
            }));
        }
        for class in [LinkClass::LeafUp, LinkClass::LeafDown] {
            links.extend((0..leaves).map(|i| Link {
                class,
                index: i,
                capacity_bps: leaf_capacity,
            }));
        }
        LinkGraph {
            links,
            nodes,
            nodes_per_leaf,
            leaves,
            hop_latency_s,
        }
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when the graph has no links (never: `build` requires a node).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Nodes served by this graph.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Leaf switches in this graph.
    pub fn leaves(&self) -> u32 {
        self.leaves
    }

    /// Nodes under each leaf switch (the last leaf may hold fewer). With
    /// [`nodes`](Self::nodes) it fixes the graph's shape: which links
    /// exist and how nodes reach each other, whatever the capacities.
    pub fn nodes_per_leaf(&self) -> u32 {
        self.nodes_per_leaf
    }

    /// Per-switch-traversal latency, seconds.
    pub fn hop_latency_s(&self) -> f64 {
        self.hop_latency_s
    }

    /// The leaf switch serving `node`.
    #[inline]
    pub fn leaf_of(&self, node: u32) -> u32 {
        node / self.nodes_per_leaf
    }

    /// The uplink of `node`.
    #[inline]
    pub fn node_up(&self, node: u32) -> LinkId {
        debug_assert!(node < self.nodes);
        LinkId(node)
    }

    /// The downlink of `node`.
    #[inline]
    pub fn node_down(&self, node: u32) -> LinkId {
        debug_assert!(node < self.nodes);
        LinkId(self.nodes + node)
    }

    /// The spine uplink of leaf `leaf`.
    #[inline]
    pub fn leaf_up(&self, leaf: u32) -> LinkId {
        debug_assert!(leaf < self.leaves);
        LinkId(2 * self.nodes + leaf)
    }

    /// The spine downlink of leaf `leaf`.
    #[inline]
    pub fn leaf_down(&self, leaf: u32) -> LinkId {
        debug_assert!(leaf < self.leaves);
        LinkId(2 * self.nodes + self.leaves + leaf)
    }

    /// The link behind an id.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Capacity of a link, bytes/second.
    #[inline]
    pub fn capacity_bps(&self, id: LinkId) -> f64 {
        self.links[id.index()].capacity_bps
    }

    /// Multiply a link's capacity by `factor` — a degraded cable, a flapping
    /// port, a drained spine plane. The robustness scenarios drive this.
    pub fn degrade(&mut self, id: LinkId, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "degradation is a de-rating");
        self.links[id.index()].capacity_bps *= factor;
    }

    /// Call `f` with every link's human-readable label, e.g. `node3:up`,
    /// `leaf0:spine-down`, in id order. The text lives in one
    /// process-wide table that grows to the largest graph labelled and is
    /// never freed, so a label is formatted once per process, shared by
    /// every graph and plan, and costs a result nothing to hold. `f`
    /// reads the table under one shared lock, held until it returns, so
    /// `f` must not call `with_labels` itself: that nested read can wait
    /// forever behind a thread growing the table for a larger graph.
    pub fn with_labels<R>(&self, f: impl FnOnce(Labels<'_>) -> R) -> R {
        let table = LabelTable::covering(self);
        f(Labels {
            table: &table,
            links: self.links.iter(),
        })
    }
}

/// The labels of one [`LinkGraph`], in id order: see
/// [`LinkGraph::with_labels`].
pub struct Labels<'a> {
    table: &'a LabelTable,
    links: std::slice::Iter<'a, Link>,
}

impl Iterator for Labels<'_> {
    type Item = &'static str;

    fn next(&mut self) -> Option<&'static str> {
        let l = self.links.next()?;
        Some(self.table.get(l.class, l.index))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.links.size_hint()
    }
}

impl ExactSizeIterator for Labels<'_> {}

/// The label text of every node index and every leaf index up to the
/// largest yet labelled: `[up, down]` per node, `[spine-up, spine-down]`
/// per leaf. Grows under the write lock, so concurrent growers format
/// each label once; entries are never removed.
struct LabelTable {
    nodes: Vec<[&'static str; 2]>,
    leaves: Vec<[&'static str; 2]>,
}

static LABELS: RwLock<LabelTable> = RwLock::new(LabelTable {
    nodes: Vec::new(),
    leaves: Vec::new(),
});

impl LabelTable {
    /// The table, read-locked, once it covers every link of `graph`.
    fn covering(graph: &LinkGraph) -> RwLockReadGuard<'static, LabelTable> {
        let covers = |t: &LabelTable| {
            t.nodes.len() >= graph.nodes as usize && t.leaves.len() >= graph.leaves as usize
        };
        let table = LABELS
            .read()
            .expect("the link label table is never poisoned");
        if covers(&table) {
            return table;
        }
        drop(table);
        let mut table = LABELS
            .write()
            .expect("the link label table is never poisoned");
        grow(&mut table.nodes, graph.nodes, ["node", ":up", ":down"]);
        grow(
            &mut table.leaves,
            graph.leaves,
            ["leaf", ":spine-up", ":spine-down"],
        );
        drop(table);
        LABELS
            .read()
            .expect("the link label table is never poisoned")
    }

    fn get(&self, class: LinkClass, index: u32) -> &'static str {
        let i = index as usize;
        match class {
            LinkClass::NodeUp => self.nodes[i][0],
            LinkClass::NodeDown => self.nodes[i][1],
            LinkClass::LeafUp => self.leaves[i][0],
            LinkClass::LeafDown => self.leaves[i][1],
        }
    }
}

/// Extend `rows` to `len` rows of `[{prefix}{i}{up}, {prefix}{i}{down}]`,
/// the new text in one leaked allocation.
fn grow(rows: &mut Vec<[&'static str; 2]>, len: u32, [prefix, up, down]: [&str; 3]) {
    use std::fmt::Write as _;
    let from = rows.len() as u32;
    if len <= from {
        return;
    }
    let mut text = String::new();
    let mut ends = Vec::with_capacity(2 * (len - from) as usize);
    for i in from..len {
        for suffix in [up, down] {
            let _ = write!(text, "{prefix}{i}{suffix}");
            ends.push(text.len());
        }
    }
    let text: &'static str = Box::leak(text.into_boxed_str());
    let mut start = 0;
    for pair in ends.chunks(2) {
        rows.push([&text[start..pair[0]], &text[pair[0]..pair[1]]]);
        start = pair[1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mn4_graph(nodes: u32) -> LinkGraph {
        // OPA native: stream = NIC = 11 GB/s, 48-node leaves, 0.8 taper
        LinkGraph::build(&Topology::mn4_fat_tree(), nodes, 11.0e9, 11.0e9)
    }

    #[test]
    fn id_layout_is_dense_and_disjoint() {
        let g = mn4_graph(100); // 3 leaves
        assert_eq!(g.leaves(), 3);
        assert_eq!(g.len(), 2 * 100 + 2 * 3);
        let mut seen = std::collections::HashSet::new();
        for n in 0..100 {
            assert!(seen.insert(g.node_up(n)));
            assert!(seen.insert(g.node_down(n)));
        }
        for l in 0..3 {
            assert!(seen.insert(g.leaf_up(l)));
            assert!(seen.insert(g.leaf_down(l)));
        }
        assert_eq!(seen.len(), g.len());
    }

    #[test]
    fn capacities_follow_the_taper() {
        let g = mn4_graph(96);
        assert_eq!(g.capacity_bps(g.node_up(5)), 11.0e9);
        let leaf = g.capacity_bps(g.leaf_up(0));
        assert!((leaf - 0.8 * 48.0 * 11.0e9).abs() < 1.0, "leaf={leaf}");
        assert!(g.link(g.leaf_up(1)).class.is_spine());
        assert!(!g.link(g.node_down(1)).class.is_spine());
    }

    #[test]
    fn fallback_stream_rate_caps_node_links_only() {
        // self-contained container on OPA: 1.2 GB/s kernel-bound stream,
        // but the switch hardware still runs at full rate
        let g = LinkGraph::build(&Topology::mn4_fat_tree(), 96, 1.2e9, 11.0e9);
        assert_eq!(g.capacity_bps(g.node_up(0)), 1.2e9);
        assert!(g.capacity_bps(g.leaf_up(0)) > 100.0e9);
    }

    #[test]
    fn single_switch_is_one_leaf() {
        let g = LinkGraph::build(&Topology::small_cluster(), 4, 117e6, 117e6);
        assert_eq!(g.leaves(), 1);
        assert_eq!(g.leaf_of(0), g.leaf_of(3));
        assert_eq!(g.len(), 2 * 4 + 2);
    }

    #[test]
    fn degrade_scales_one_link() {
        let mut g = mn4_graph(96);
        let before = g.capacity_bps(g.node_up(3));
        g.degrade(g.node_up(3), 0.25);
        assert!((g.capacity_bps(g.node_up(3)) - 0.25 * before).abs() < 1.0);
        assert_eq!(g.capacity_bps(g.node_up(4)), before, "others untouched");
    }

    #[test]
    fn labels_name_the_endpoint() {
        let g = mn4_graph(96);
        let labels: Vec<&str> = g.with_labels(|l| l.collect());
        let label = |id: LinkId| labels[id.index()];
        assert_eq!(labels.len(), g.len());
        assert_eq!(label(g.node_up(3)), "node3:up");
        assert_eq!(label(g.node_down(0)), "node0:down");
        assert_eq!(label(g.leaf_up(1)), "leaf1:spine-up");
        assert_eq!(label(g.leaf_down(0)), "leaf0:spine-down");
        // a smaller graph shares the grown table's text
        let small = mn4_graph(2);
        let small_up: Vec<&str> = small.with_labels(|l| l.take(2).collect());
        assert_eq!(small_up, ["node0:up", "node1:up"]);
        assert!(std::ptr::eq(small_up[1], label(g.node_up(1))));
    }
}
