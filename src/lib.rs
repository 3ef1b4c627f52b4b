//! # HarborSim
//!
//! A deterministic simulation laboratory for studying container technologies
//! (Docker, Singularity, Shifter) on High-Performance Computing systems.
//!
//! HarborSim is a from-scratch Rust reproduction of the study *"Containers in
//! HPC: A Scalability and Portability Study in Production Biological
//! Simulations"* (Rudyy et al., 2019). It models four real HPC clusters, their
//! interconnect fabrics, an MPI library with pluggable transports, and the
//! deployment and runtime behaviour of three container technologies; it drives
//! them with a miniature-but-numerically-honest version of the Alya artery
//! CFD and FSI use cases, and regenerates every figure and evaluation table of
//! the paper.
//!
//! This umbrella crate re-exports the individual subsystem crates:
//!
//! - [`des`] — discrete-event simulation kernel
//! - [`hw`] — hardware models and cluster presets
//! - [`net`] — interconnect fabrics, transports, topology
//! - [`mpi`] — simulated MPI engines and a functional thread-backed MPI
//! - [`container`] — images, registry, build engine, container runtimes
//! - [`alya`] — the mini-Alya CFD and FSI solvers and their workload models
//! - [`batch`] — batch-system substrate: FIFO + EASY-backfill scheduling and job campaigns
//! - [`study`] — the experiment harness regenerating the paper's results
//!
//! ## Quickstart
//!
//! ```
//! use harborsim::study::lab::{LabRequest, QueryEngine};
//! use harborsim::study::scenario::{Scenario, Execution};
//! use harborsim::study::workloads;
//! use harborsim::hw::presets;
//!
//! // Run the artery CFD case inside a Singularity container on a model of
//! // the MareNostrum4 supercomputer, using 2 nodes x 48 ranks. The lab
//! // compiles the scenario into a plan once (cached by fingerprint) and
//! // executes every seed across the batch pool.
//! let lab = QueryEngine::new();
//! let scenario = Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
//!     .execution(Execution::singularity_system_specific())
//!     .nodes(2)
//!     .ranks_per_node(48);
//! let mean_s = lab.handle(LabRequest::batch([scenario], &[42, 43])).means()[0];
//! assert!(mean_s > 0.0);
//! assert_eq!(lab.stats().misses, 1);
//! ```

pub use harborsim_alya as alya;
pub use harborsim_batch as batch;
pub use harborsim_container as container;
pub use harborsim_core as study;
pub use harborsim_des as des;
pub use harborsim_hw as hw;
pub use harborsim_mpi as mpi;
pub use harborsim_net as net;
