//! # harborsim-net
//!
//! Interconnect models: fabric transport parameters (LogGP-style), transport
//! *stacks* (native kernel-bypass vs TCP fallback), container data paths
//! (host networking vs Docker's bridge/NAT), and the routed link graph —
//! explicit node→leaf→spine links with capacities, routes, and the fluid
//! schedule both simulation engines cost communication rounds with.
//!
//! The central object is [`NetworkModel`]: the *effective* communication
//! behaviour an MPI job observes once the fabric, the transport stack the MPI
//! library managed to open, and the container data path are composed. The
//! whole portability story of the paper lives in this composition:
//!
//! - **bare metal / system-specific container** on InfiniBand EDR →
//!   [`TransportSelection::Native`] → 1 µs latency, 11.5 GB/s;
//! - **self-contained container** on the same machine → its bundled MPI
//!   cannot see `libmlx5`, so [`TransportSelection::TcpFallback`] → 18 µs
//!   latency, 1.2 GB/s over IPoIB — and Fig. 2/3's flattening curves follow;
//! - **Docker with default bridge networking** → every message additionally
//!   traverses veth + NAT ([`DataPath::DockerBridge`]) — and Fig. 1's
//!   divergence with rank count follows.

pub mod fabric;
pub mod link;
pub mod model;
pub mod route;
pub mod scratch;
pub mod topology;
pub mod transport;

pub use fabric::{fabric_transports, shm_transport, FabricTransports};
pub use link::{Link, LinkClass, LinkGraph, LinkId};
pub use model::{DataPath, NetworkModel, TransportSelection};
pub use route::{LinkLoad, LinkSchedule, RoundCounts, Route, RouteTable, SettledRound};
pub use scratch::ScratchPool;
pub use topology::Topology;
pub use transport::TransportParams;
