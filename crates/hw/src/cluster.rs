//! Cluster descriptions: homogeneous pools of nodes joined by an
//! interconnect, with shared storage and an installed software stack.

use crate::cpu::CpuIdentity;
use crate::node::NodeSpec;
use crate::storage::{StorageKind, StorageSpec};
use crate::threading::ThreadingModel;
use std::fmt;

/// The interconnect family of a cluster. The `net` crate maps each kind to
/// transport parameters (native and TCP-fallback stacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterconnectKind {
    /// 1 Gbit/s Ethernet, TCP only (Lenox).
    GigabitEthernet,
    /// 40 Gbit/s Ethernet, TCP only (ThunderX mini-cluster).
    FortyGigEthernet,
    /// Mellanox InfiniBand EDR, 100 Gbit/s, RDMA verbs (CTE-POWER).
    InfinibandEdr,
    /// Intel Omni-Path, 100 Gbit/s, PSM2 (MareNostrum4).
    OmniPath100,
}

impl InterconnectKind {
    /// Whether the fabric needs vendor userspace drivers for its native
    /// (kernel-bypass) transport. On plain Ethernet the "native" MPI
    /// transport *is* TCP, so a self-contained container loses nothing —
    /// on IB/OPA it loses kernel-bypass and falls to IP emulation.
    pub fn needs_userspace_driver(self) -> bool {
        matches!(
            self,
            InterconnectKind::InfinibandEdr | InterconnectKind::OmniPath100
        )
    }

    /// Human-readable fabric name.
    pub fn name(self) -> &'static str {
        match self {
            InterconnectKind::GigabitEthernet => "1GbE (TCP)",
            InterconnectKind::FortyGigEthernet => "40GbE (TCP)",
            InterconnectKind::InfinibandEdr => "InfiniBand EDR",
            InterconnectKind::OmniPath100 => "Omni-Path 100",
        }
    }

    /// The userspace library a system-specific container must bind from the
    /// host to reach the native transport, if any.
    pub fn driver_library(self) -> Option<&'static str> {
        match self {
            InterconnectKind::InfinibandEdr => Some("libmlx5/verbs"),
            InterconnectKind::OmniPath100 => Some("libpsm2"),
            _ => None,
        }
    }
}

impl fmt::Display for InterconnectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Physical layout of a cluster's fabric as a two-level switch hierarchy:
/// node NICs feed leaf switches, leaf switches feed a spine. The `net`
/// crate turns this into an explicit link graph (`harborsim_net::link`),
/// so which traffic stays under one leaf — and how much aggregate
/// bandwidth the spine offers — is a property of the *machine*, not a
/// per-engine scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricLayout {
    /// Downlinks per leaf switch. `None` means one flat switch spans the
    /// whole machine (small clusters with a single managed switch).
    pub nodes_per_leaf: Option<u32>,
    /// Per-switch-traversal latency in seconds.
    pub hop_latency_s: f64,
    /// Fraction of a leaf's aggregate injection bandwidth available above
    /// the leaf layer (1.0 = non-blocking, 0.5 = 2:1 oversubscribed).
    pub spine_taper: f64,
}

impl FabricLayout {
    /// One flat switch spanning every node.
    pub fn single_switch(hop_latency_s: f64) -> FabricLayout {
        FabricLayout {
            nodes_per_leaf: None,
            hop_latency_s,
            spine_taper: 1.0,
        }
    }

    /// A two-level fat tree: `nodes_per_leaf` downlinks per leaf switch,
    /// spine capacity tapered to `spine_taper` of leaf injection.
    pub fn fat_tree(nodes_per_leaf: u32, hop_latency_s: f64, spine_taper: f64) -> FabricLayout {
        assert!(nodes_per_leaf > 0, "a leaf must have downlinks");
        assert!(
            spine_taper > 0.0 && spine_taper <= 1.0,
            "taper is a fraction of injection bandwidth"
        );
        FabricLayout {
            nodes_per_leaf: Some(nodes_per_leaf),
            hop_latency_s,
            spine_taper,
        }
    }
}

/// Container software installed on a cluster, by version string. `None`
/// means the technology is not available there (e.g. no Docker on the
/// production BSC machines — it needs a root daemon).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SoftwareStack {
    /// Docker daemon version, if installed.
    pub docker: Option<String>,
    /// Singularity version, if installed.
    pub singularity: Option<String>,
    /// Shifter version, if installed.
    pub shifter: Option<String>,
}

impl SoftwareStack {
    /// Stack with only Singularity, as on the BSC production machines.
    pub fn singularity_only(version: &str) -> SoftwareStack {
        SoftwareStack {
            docker: None,
            singularity: Some(version.to_string()),
            shifter: None,
        }
    }
}

/// Why a `(nodes, ranks_per_node, threads_per_rank)` placement cannot run
/// on a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// Some placement dimension is zero.
    ZeroDimension,
    /// More nodes requested than the cluster has.
    TooManyNodes {
        /// Cluster name.
        cluster: String,
        /// Nodes requested.
        requested: u32,
        /// Nodes the cluster has.
        available: u32,
    },
    /// `ranks_per_node × threads_per_rank` exceeds the cores of a node.
    Oversubscribed {
        /// Ranks per node requested.
        ranks_per_node: u32,
        /// Threads per rank requested.
        threads_per_rank: u32,
        /// Cores each node actually has.
        cores_per_node: u32,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::ZeroDimension => {
                f.write_str("placement dimensions must be positive")
            }
            PlacementError::TooManyNodes {
                cluster,
                requested,
                available,
            } => write!(
                f,
                "{requested} nodes requested but {cluster} has only {available}"
            ),
            PlacementError::Oversubscribed {
                ranks_per_node,
                threads_per_rank,
                cores_per_node,
            } => write!(
                f,
                "{ranks_per_node}x{threads_per_rank} = {} cores per node requested but nodes have {cores_per_node}",
                ranks_per_node * threads_per_rank
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// A cluster: `node_count` identical nodes, one interconnect, shared
/// storage, node-local storage, and the installed container stack.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name as used in the paper.
    pub name: String,
    /// Number of compute nodes available.
    pub node_count: u32,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Inter-node fabric.
    pub interconnect: InterconnectKind,
    /// Switch hierarchy of the fabric (leaf size, hop latency, spine taper).
    pub fabric_layout: FabricLayout,
    /// Shared storage visible from all nodes.
    pub shared_storage: StorageSpec,
    /// Node-local storage, if compute nodes have any disk.
    pub local_storage: Option<StorageSpec>,
    /// Installed container technologies.
    pub software: SoftwareStack,
}

impl ClusterSpec {
    /// Total cores in the whole machine.
    pub fn total_cores(&self) -> u64 {
        self.node_count as u64 * self.node.cores() as u64
    }

    /// Cores available on `nodes` nodes.
    pub fn cores_on(&self, nodes: u32) -> u64 {
        debug_assert!(
            nodes <= self.node_count,
            "asking for more nodes than the cluster has"
        );
        nodes as u64 * self.node.cores() as u64
    }

    /// Check that a `(nodes, ranks_per_node, threads_per_rank)` placement
    /// fits the machine.
    ///
    /// # Errors
    /// Returns the specific [`PlacementError`] violated.
    pub fn validate_placement(
        &self,
        nodes: u32,
        ranks_per_node: u32,
        threads_per_rank: u32,
    ) -> Result<(), PlacementError> {
        if nodes == 0 || ranks_per_node == 0 || threads_per_rank == 0 {
            return Err(PlacementError::ZeroDimension);
        }
        if nodes > self.node_count {
            return Err(PlacementError::TooManyNodes {
                cluster: self.name.clone(),
                requested: nodes,
                available: self.node_count,
            });
        }
        if ranks_per_node * threads_per_rank > self.node.cores() {
            return Err(PlacementError::Oversubscribed {
                ranks_per_node,
                threads_per_rank,
                cores_per_node: self.node.cores(),
            });
        }
        Ok(())
    }

    /// This cluster's structural identity: every field, borrowed, with
    /// floats as bit patterns. Equal identities imply equal `Debug`
    /// renderings; the converse holds unless a float is NaN (bit
    /// patterns tell NaN payloads apart, and `-0.0` from `0.0`, where
    /// `PartialEq` would merge the zeros). So a key built on it is never
    /// coarser than one built on the rendering, and costs no rendering.
    pub fn identity(&self) -> ClusterIdentity<'_> {
        // no `..` anywhere below: a new field fails to compile until it
        // is covered here
        let ClusterSpec {
            name,
            node_count,
            node,
            interconnect,
            fabric_layout,
            shared_storage,
            local_storage,
            software,
        } = self;
        let NodeSpec {
            cpu,
            sockets,
            mem_gib,
            threading,
        } = node;
        let ThreadingModel {
            serial_fraction,
            barrier_base_us,
            regions_per_unit,
        } = threading;
        let FabricLayout {
            nodes_per_leaf,
            hop_latency_s,
            spine_taper,
        } = fabric_layout;
        let SoftwareStack {
            docker,
            singularity,
            shifter,
        } = software;
        ClusterIdentity {
            name,
            node_count: *node_count,
            cpu: cpu.identity(),
            node: (*sockets, *mem_gib),
            threading: [
                serial_fraction.to_bits(),
                barrier_base_us.to_bits(),
                regions_per_unit.to_bits(),
            ],
            interconnect: *interconnect,
            fabric: (
                *nodes_per_leaf,
                hop_latency_s.to_bits(),
                spine_taper.to_bits(),
            ),
            shared_storage: StorageIdentity::of(shared_storage),
            local_storage: local_storage.as_ref().map(StorageIdentity::of),
            software: [docker, singularity, shifter].map(Option::as_deref),
        }
    }
}

/// A [`ClusterSpec`]'s structural identity (see [`ClusterSpec::identity`]):
/// compare or hash it wherever a cluster is a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterIdentity<'a> {
    name: &'a str,
    node_count: u32,
    cpu: CpuIdentity<'a>,
    /// Sockets and memory per node.
    node: (u32, u32),
    threading: [u64; 3],
    interconnect: InterconnectKind,
    /// Leaf size, hop latency and spine taper.
    fabric: (Option<u32>, u64, u64),
    shared_storage: StorageIdentity<'a>,
    local_storage: Option<StorageIdentity<'a>>,
    /// Docker, Singularity and Shifter versions.
    software: [Option<&'a str>; 3],
}

/// A [`StorageSpec`]'s part of a [`ClusterIdentity`]: its name, and its
/// kind as a variant tag over that variant's fields as bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StorageIdentity<'a> {
    name: &'a str,
    kind: (u8, [u64; 3]),
}

impl StorageIdentity<'_> {
    fn of(spec: &StorageSpec) -> StorageIdentity<'_> {
        let StorageSpec { name, kind } = spec;
        let kind = match *kind {
            StorageKind::ParallelFs {
                aggregate_bps,
                per_client_bps,
                metadata_op_s,
            } => (
                0,
                [aggregate_bps, per_client_bps, metadata_op_s].map(f64::to_bits),
            ),
            StorageKind::LocalDisk {
                read_bps,
                write_bps,
                op_latency_s,
            } => (1, [read_bps, write_bps, op_latency_s].map(f64::to_bits)),
            StorageKind::Nfs {
                server_bps,
                metadata_op_s,
            } => (2, [server_bps.to_bits(), metadata_op_s.to_bits(), 0]),
        };
        StorageIdentity { name, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModel;

    fn mini() -> ClusterSpec {
        ClusterSpec {
            name: "mini".into(),
            node_count: 4,
            node: NodeSpec::dual_socket(CpuModel::xeon_e5_2697v3(), 128),
            interconnect: InterconnectKind::GigabitEthernet,
            fabric_layout: FabricLayout::single_switch(0.4e-6),
            shared_storage: StorageSpec::nfs_small(),
            local_storage: Some(StorageSpec::local_scratch()),
            software: SoftwareStack::default(),
        }
    }

    #[test]
    fn core_accounting() {
        let c = mini();
        assert_eq!(c.total_cores(), 112);
        assert_eq!(c.cores_on(2), 56);
    }

    #[test]
    fn placement_validation() {
        let c = mini();
        assert!(c.validate_placement(4, 28, 1).is_ok());
        assert!(c.validate_placement(4, 2, 14).is_ok());
        assert!(
            matches!(
                c.validate_placement(5, 1, 1),
                Err(PlacementError::TooManyNodes {
                    requested: 5,
                    available: 4,
                    ..
                })
            ),
            "too many nodes"
        );
        assert!(
            matches!(
                c.validate_placement(1, 28, 2),
                Err(PlacementError::Oversubscribed {
                    cores_per_node: 28,
                    ..
                })
            ),
            "oversubscribed"
        );
        assert_eq!(
            c.validate_placement(0, 1, 1),
            Err(PlacementError::ZeroDimension)
        );
    }

    #[test]
    fn placement_error_messages() {
        let c = mini();
        let e = c.validate_placement(5, 1, 1).unwrap_err();
        assert_eq!(e.to_string(), "5 nodes requested but mini has only 4");
        let e = c.validate_placement(1, 28, 2).unwrap_err();
        assert_eq!(
            e.to_string(),
            "28x2 = 56 cores per node requested but nodes have 28"
        );
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn driver_requirements_by_fabric() {
        assert!(!InterconnectKind::GigabitEthernet.needs_userspace_driver());
        assert!(!InterconnectKind::FortyGigEthernet.needs_userspace_driver());
        assert!(InterconnectKind::InfinibandEdr.needs_userspace_driver());
        assert!(InterconnectKind::OmniPath100.needs_userspace_driver());
        assert_eq!(
            InterconnectKind::InfinibandEdr.driver_library(),
            Some("libmlx5/verbs")
        );
        assert_eq!(InterconnectKind::GigabitEthernet.driver_library(), None);
    }

    #[test]
    fn fabric_layout_constructors() {
        let flat = FabricLayout::single_switch(0.4e-6);
        assert_eq!(flat.nodes_per_leaf, None);
        assert_eq!(flat.spine_taper, 1.0);
        let tree = FabricLayout::fat_tree(48, 0.15e-6, 0.8);
        assert_eq!(tree.nodes_per_leaf, Some(48));
        assert!((tree.spine_taper - 0.8).abs() < 1e-12);
    }
}
