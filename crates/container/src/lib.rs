//! # harborsim-container
//!
//! The container substrate of the HarborSim study: everything between a
//! `Containerfile` and a running containerized MPI rank.
//!
//! - [`digest`] — content-addressed layer digests (own FNV-based 256-bit
//!   construction; stable, dependency-free).
//! - [`recipe`] — a Containerfile-like recipe language with a parser, plus
//!   a package database that prices `yum/apt install` lines in bytes and
//!   seconds.
//! - [`image`] — layers, manifests, and the three on-disk formats of the
//!   study: Docker's layered tarballs, Singularity's single-file SIF
//!   (squashfs), Shifter's gateway-converted UDI.
//! - [`build`] — the build engine: recipe × containment policy → manifest,
//!   with build-time modelling.
//! - [`registry`] — a content-addressed blob registry with pull protocol
//!   (parallel layer streams, client-side layer cache).
//! - [`runtime`] — behavioural models of Docker, Singularity and Shifter
//!   (namespaces, privilege model, network data path, compute tax, startup
//!   sequence) plus bare metal as the control.
//! - [`containment`] — the *system-specific vs self-contained* axis: which
//!   libraries are inside the image, which must be bind-mounted from the
//!   host, and the resulting MPI transport selection — the paper's whole
//!   portability trade-off.
//! - [`deploy`] — a discrete-event deployment pipeline: registry pulls,
//!   gateway conversions, parallel-filesystem mount storms, per-node
//!   container start, at any node count.
//! - [`launch`] — the job-launch model: launcher-tree fanout plus per-rank
//!   container spawn costs (the Docker daemon serializes them; SUID
//!   runtimes barely notice).
//! - [`storm`] — per-job staging demands for open-system deployment
//!   storms: registry bytes, filesystem bytes, and fixed latency per
//!   runtime, cold vs warm.

pub mod build;
pub mod containment;
pub mod deploy;
pub mod digest;
pub mod image;
pub mod launch;
pub mod recipe;
pub mod registry;
pub mod runtime;
pub mod storm;

pub use build::{builds_executed, BuildEngine, BuildError, BuildOutput};
pub use containment::Containment;
pub use deploy::{DeployPlan, DeploymentReport};
pub use digest::Digest;
pub use image::{ImageFormat, ImageManifest, Layer};
pub use launch::LaunchModel;
pub use recipe::{ImageRecipe, Instruction};
pub use registry::Registry;
pub use runtime::{EngineView, ExecutionEnvironment, RuntimeKind};
pub use storm::StagePlan;
