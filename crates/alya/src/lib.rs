//! # harborsim-alya
//!
//! Mini-Alya: numerically honest miniatures of the two biological use cases
//! the paper runs on Alya, plus the workload models that describe their
//! computation/communication footprint to the HarborSim performance engines.
//!
//! - [`mesh`] — the artery geometry: a cylinder masked out of a Cartesian
//!   grid.
//! - [`cfd`] — the **CFD artery case**: 3D incompressible Navier–Stokes
//!   (fractional-step/Chorin projection, upwind advection, conjugate-
//!   gradient pressure solve), validated against Poiseuille flow. Runs
//!   sequentially, with Rayon shared-memory parallelism, or slab-decomposed
//!   over the functional thread MPI.
//! - [`pulse1d`] — the 1D arterial pulse-wave fluid solver (area/flow
//!   formulation with an elastic tube law) used by the FSI pair.
//! - [`wall`] — the wall-mechanics "solid code": a viscoelastic radial
//!   displacement model per axial station.
//! - [`fsi`] — the **FSI artery case**: partitioned coupling of the 1D
//!   fluid code and the wall code with sub-iterations and relaxation —
//!   "two instances of different codes", as the paper describes it.
//! - [`fsi_dist`] — the same coupled pair over the functional thread MPI:
//!   fluid and solid on disjoint rank groups exchanging interface data,
//!   validated against the sequential coupling.
//! - [`workload`] — [`harborsim_mpi::JobProfile`] generators for both use
//!   cases at any scale, with flop and byte counts derived from the
//!   instrumented solvers above.

pub mod cfd;
pub mod dist;
pub mod fsi;
pub mod fsi_dist;
pub mod mesh;
pub mod pulse1d;
pub mod wall;
pub mod workload;

pub use cfd::{CfdConfig, CfdSolver};
pub use fsi::{CoupledFsi, FsiConfig};
pub use mesh::TubeMesh;
pub use workload::{ArteryCfd, ArteryFsi};
