//! # harborsim-mpi
//!
//! Simulated and functional MPI for the HarborSim study.
//!
//! Three faces of "MPI" live here:
//!
//! 1. **The workload IR** ([`workload`]): solvers describe themselves as a
//!    sequence of bulk-synchronous *steps*, each with a per-rank compute load
//!    and a list of communication phases (halo exchanges, allreduces,
//!    coupling point-to-points, ...). This is the contract between the
//!    mini-Alya solvers and the performance engines.
//! 2. **Two performance engines** that execute the IR against a cluster +
//!    network model:
//!    - [`analytic`] — closed-form bulk-synchronous estimates (LogGP +
//!      NIC-contention algebra). O(steps) cost; used for the 12,288-core
//!      scalability sweep of Fig. 3.
//!    - [`des_engine`] — a message-level discrete-event simulation: every
//!      point-to-point message and collective round becomes wire traffic
//!      with FIFO NIC queueing, eager/rendezvous protocol switching and
//!      per-message container taxes. Used at small/medium scale and to
//!      cross-validate the analytic engine.
//! 3. **A functional in-process MPI** ([`thread_mpi`]): real threads, real
//!    channels, real data. The mini-Alya solvers run on it so that their
//!    domain decomposition can be verified bit-for-bit against sequential
//!    execution — the numerical ground truth under the performance models.

pub mod analytic;
pub mod collectives;
pub mod des_engine;
pub mod mapping;
pub mod result;
pub mod thread_mpi;
pub mod workload;

pub use analytic::{AnalyticCost, AnalyticEngine, Traffic};
pub use des_engine::{DesEngine, TruncatingDes};
pub use mapping::{route_table, Placement, RankMap};
pub use result::{CommBreakdown, LinkUsage, SimResult};
pub use workload::{CommPhase, JobProfile, StepProfile};
