//! The repetition protocol.
//!
//! The paper reports *average* elapsed times over repeated runs. A
//! [`LabRequest::batch`](crate::lab::LabRequest::batch) over these seeds,
//! read through [`LabResponse::means`](crate::lab::LabResponse::means),
//! is that protocol: each scenario compiles once and its plan executes
//! every seed.

/// Default seeds — "five repetitions", as typical for the cluster runs.
pub fn default_seeds() -> &'static [u64] {
    &[11, 22, 33, 44, 55]
}
