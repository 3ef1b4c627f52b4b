//! # harborsim-batch
//!
//! The batch-system substrate. Every run in the paper went through a batch
//! scheduler (SLURM on the BSC machines); what a user experiences is not
//! the solver time but the *turnaround*: queue wait + image staging + job
//! launch + execution. This crate supplies:
//!
//! - [`open`] — the one scheduler loop: arrivals drive a FIFO + EASY
//!   backfill core (the standard production policy: the queue head gets
//!   a reservation, later jobs may jump ahead only if they cannot delay
//!   it), and each job stages its container through shared
//!   registry/filesystem pipes before solving (deployment storms);
//! - [`campaign`] — containerized campaign modelling: a sequence of jobs
//!   under one technology, with cross-job cache effects (Shifter's gateway
//!   conversion and Docker's node-layer caches pay once), run on the same
//!   loop.

pub mod campaign;
pub mod open;
mod scheduler;

pub use campaign::{Campaign, CampaignReport};
pub use open::{run_open, OpenCluster, OpenJob, OpenJobRecord, OpenOutcome};
