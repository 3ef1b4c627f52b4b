//! Rank-to-node placement.

use harborsim_net::{LinkGraph, NetworkModel, RouteTable};

/// How consecutive ranks are laid out on nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Ranks 0..rpn on node 0, the next rpn on node 1, ... (the batch-system
    /// default, and what Alya's 1D slab decomposition wants: neighbouring
    /// subdomains land on the same node).
    Block,
    /// Rank r on node r % nodes (pathological for halo locality; kept for
    /// the mapping ablation).
    RoundRobin,
}

/// A concrete placement of an MPI job: `nodes × ranks_per_node` ranks, each
/// with `threads_per_rank` OpenMP threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankMap {
    /// Number of nodes used.
    pub nodes: u32,
    /// MPI ranks per node.
    pub ranks_per_node: u32,
    /// OpenMP threads per rank.
    pub threads_per_rank: u32,
    /// Layout of ranks over nodes.
    pub placement: Placement,
}

impl RankMap {
    /// Block placement (the default in every experiment of the paper).
    pub fn block(nodes: u32, ranks_per_node: u32, threads_per_rank: u32) -> RankMap {
        assert!(nodes > 0 && ranks_per_node > 0 && threads_per_rank > 0);
        RankMap {
            nodes,
            ranks_per_node,
            threads_per_rank,
            placement: Placement::Block,
        }
    }

    /// Total MPI ranks.
    pub fn ranks(&self) -> u32 {
        self.nodes * self.ranks_per_node
    }

    /// Total cores in use.
    pub fn cores(&self) -> u64 {
        self.ranks() as u64 * self.threads_per_rank as u64
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: u32) -> u32 {
        debug_assert!(rank < self.ranks());
        match self.placement {
            Placement::Block => rank / self.ranks_per_node,
            Placement::RoundRobin => rank % self.nodes,
        }
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: u32, b: u32) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// For a 1D chain (rank r talks to r±1): how many chain edges cross
    /// node boundaries under this placement.
    pub fn chain_cut_edges(&self) -> u32 {
        let p = self.ranks();
        (0..p.saturating_sub(1))
            .filter(|&r| !self.same_node(r, r + 1))
            .count() as u32
    }
}

/// Build the [`RouteTable`] this placement induces on `network`'s fabric.
///
/// The node links carry the effective transport's stream rate — capped by
/// the NIC, which matters for Docker's bridge path where the transport's
/// nominal bandwidth can exceed what the NIC admits — while the leaf links
/// are sized from the raw NIC rate (switch hardware does not degrade when
/// the endpoints run a kernel-bound stack).
pub fn route_table(map: &RankMap, network: &NetworkModel) -> RouteTable {
    let stream = network.inter.bandwidth_bps.min(network.nic_bw_bps);
    let graph = LinkGraph::build(&network.topology, map.nodes, stream, network.nic_bw_bps);
    let node_of = (0..map.ranks()).map(|r| map.node_of(r)).collect();
    RouteTable::build(graph, node_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping_groups_consecutive_ranks() {
        let m = RankMap::block(4, 28, 1);
        assert_eq!(m.ranks(), 112);
        assert_eq!(m.cores(), 112);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(27), 0);
        assert_eq!(m.node_of(28), 1);
        assert_eq!(m.node_of(111), 3);
        assert!(m.same_node(0, 27));
        assert!(!m.same_node(27, 28));
    }

    #[test]
    fn round_robin_scatters() {
        let m = RankMap {
            nodes: 4,
            ranks_per_node: 28,
            threads_per_rank: 1,
            placement: Placement::RoundRobin,
        };
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(1), 1);
        assert_eq!(m.node_of(4), 0);
    }

    #[test]
    fn block_chain_cuts_equal_node_boundaries() {
        let m = RankMap::block(4, 28, 1);
        assert_eq!(m.chain_cut_edges(), 3);
        let m2 = RankMap::block(16, 40, 1);
        assert_eq!(m2.chain_cut_edges(), 15);
    }

    #[test]
    fn round_robin_chain_cuts_everything() {
        let m = RankMap {
            nodes: 4,
            ranks_per_node: 4,
            threads_per_rank: 1,
            placement: Placement::RoundRobin,
        };
        // every consecutive pair lands on different nodes
        assert_eq!(m.chain_cut_edges(), 15);
    }

    #[test]
    fn hybrid_core_accounting() {
        let m = RankMap::block(4, 2, 14);
        assert_eq!(m.ranks(), 8);
        assert_eq!(m.cores(), 112);
    }
}
