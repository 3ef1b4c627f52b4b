//! # harborsim-hw
//!
//! Hardware models for the HarborSim study: CPUs, compute nodes, storage
//! systems, and full cluster descriptions, including exact presets of the
//! four machines used in the paper (Lenox, MareNostrum4, CTE-POWER and the
//! Mont-Blanc ThunderX mini-cluster).
//!
//! The models are deliberately *sustained-throughput* models rather than
//! cycle-accurate ones: what the containers-in-HPC study exercises is the
//! ratio between compute grain and communication cost, which is governed by
//! per-core sustained GFLOP/s on memory-bound solver kernels, node core
//! counts, and fabric class — all encoded here from public spec sheets.

pub mod cluster;
pub mod cpu;
pub mod node;
pub mod presets;
pub mod storage;
pub mod threading;

pub use cluster::{
    ClusterIdentity, ClusterSpec, FabricLayout, InterconnectKind, PlacementError, SoftwareStack,
};
pub use cpu::{CpuArch, CpuIdentity, CpuModel};
pub use node::NodeSpec;
pub use storage::{StorageKind, StorageSpec};
pub use threading::ThreadingModel;
