//! # harborsim-core
//!
//! The study harness: everything that turns the HarborSim substrates into
//! the paper's evaluation.
//!
//! - [`scenario`] — a runnable scenario: cluster × execution environment ×
//!   workload × placement, with engine selection and deployment modelling.
//!   Scenarios *compile* into a [`scenario::ScenarioPlan`] (validate once,
//!   execute many seeds).
//! - [`error`] — [`HarborError`], the typed study-level error wrapping the
//!   substrate errors.
//! - [`lab`] — the concurrent query engine: batched queries fingerprinted
//!   into a single-flight LRU plan cache and spread across the
//!   `harborsim-par` batch pool. Every sweep routes through it, and its batch
//!   responses average elapsed time over seeds.
//! - [`runner`] — the default seeds of the paper's five-repetition
//!   protocol.
//! - [`workloads`] — the Alya case presets re-exported for convenience.
//! - [`experiments`] — one function per figure/table of the paper
//!   (Fig. 1 containerization, Fig. 2 portability, Fig. 3 scalability,
//!   the deployment-overhead and cross-architecture tables, and the
//!   future-work I/O storm study), each returning structured data plus
//!   shape checks that encode the paper's qualitative claims.
//! - [`dist`] — seed-deterministic sampling distributions (Poisson
//!   interarrivals, Zipf-over-ranks) for open workloads.
//! - [`open`] — open-system campaigns: Poisson arrivals, a Zipf job mix,
//!   tenant-warm image staging, and per-runtime tail-latency sketches.
//! - [`sketch`] — a mergeable streaming quantile sketch (DDSketch-style
//!   relative-error buckets) for p50/p99/p999 tails.
//! - [`report`] — aligned ASCII tables, ASCII charts, CSV and SVG writers.
//! - [`traceviz`] — exporters for captured simulation traces:
//!   chrome://tracing JSON and a per-category summary table.

pub mod calibration;
pub mod dist;
pub mod error;
pub mod experiments;
pub mod json;
pub mod lab;
pub mod open;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod script;
pub mod sketch;
pub mod traceviz;

/// The Alya case presets, re-exported for harness users.
pub mod workloads {
    pub use harborsim_alya::workload::{AlyaCase, ArteryCfd, ArteryFsi};
    use harborsim_mpi::workload::{CommPhase, JobProfile, StepProfile};
    use std::ops::Deref;
    use std::sync::{Arc, OnceLock};

    /// A 1D chain-halo case with enough bytes per edge that placement
    /// decides how much traffic hits the wire (the 3D CFD partitions can
    /// tie under stride aliasing; see `tests/ablations.rs`). Used
    /// by the `ext-locality` experiment and addressable from scripts as
    /// `workload chain-halo`.
    pub struct ChainHaloCase;

    impl AlyaCase for ChainHaloCase {
        fn name(&self) -> &str {
            "chain-halo-locality"
        }

        fn memo_key(&self) -> Option<String> {
            // the profile is rank-independent, so a constant key is exact
            Some("chain-halo-locality".into())
        }

        fn job_profile(&self, _ranks: u32) -> JobProfile {
            JobProfile::uniform(
                StepProfile {
                    flops_per_rank: 2e8,
                    imbalance: 1.0,
                    regions: 1.0,
                    comm: vec![CommPhase::Halo1D {
                        bytes: 200_000,
                        repeats: 20,
                    }],
                },
                50,
            )
        }
    }

    /// The small CFD case used by the quickstart example and tests.
    pub fn artery_cfd_small() -> ArteryCfd {
        ArteryCfd::small()
    }

    /// The Fig. 1 CFD case.
    pub fn artery_cfd_lenox() -> ArteryCfd {
        ArteryCfd::lenox_case()
    }

    /// The Fig. 2 CFD case.
    pub fn artery_cfd_cte() -> ArteryCfd {
        ArteryCfd::cte_power_case()
    }

    /// The Fig. 3 FSI case.
    pub fn artery_fsi_mn4() -> ArteryFsi {
        ArteryFsi::mn4_case()
    }

    /// The small FSI case.
    pub fn artery_fsi_small() -> ArteryFsi {
        ArteryFsi::small()
    }

    /// A workload case shared by reference count, with its
    /// [`memo_key`](AlyaCase::memo_key) computed once when it is wrapped.
    /// A [`Scenario`](crate::Scenario) holds its case this way, so a
    /// registry case resolved by name is one shared value, and
    /// fingerprinting a scenario clones no case and formats no key.
    #[derive(Clone)]
    pub struct SharedCase {
        case: Arc<dyn AlyaCase + Send + Sync>,
        key: Option<Arc<str>>,
    }

    impl SharedCase {
        /// Wrap `case`, computing its memo key now.
        pub fn new(case: impl AlyaCase + Send + Sync + 'static) -> SharedCase {
            let key = case.memo_key().map(Arc::from);
            SharedCase {
                case: Arc::new(case),
                key,
            }
        }

        /// The memo key computed when the case was wrapped: `None` for a
        /// case that opted out of fingerprinting.
        pub fn key(&self) -> Option<&Arc<str>> {
            self.key.as_ref()
        }
    }

    impl<C: AlyaCase + Send + Sync + 'static> From<C> for SharedCase {
        fn from(case: C) -> SharedCase {
            SharedCase::new(case)
        }
    }

    impl Deref for SharedCase {
        type Target = dyn AlyaCase + Send + Sync;

        fn deref(&self) -> &Self::Target {
            &*self.case
        }
    }

    impl AsRef<dyn AlyaCase + Send + Sync> for SharedCase {
        fn as_ref(&self) -> &(dyn AlyaCase + Send + Sync + 'static) {
            &*self.case
        }
    }

    /// The constructor of one registry workload.
    type Build = fn() -> SharedCase;

    /// The presets under the names scripts, the wire and the CLI give
    /// them, in registry order.
    pub const NAMED: [(&str, Build); 6] = [
        ("cfd-small", || artery_cfd_small().into()),
        ("cfd-lenox", || artery_cfd_lenox().into()),
        ("cfd-cte", || artery_cfd_cte().into()),
        ("fsi-small", || artery_fsi_small().into()),
        ("fsi-mn4", || artery_fsi_mn4().into()),
        ("chain-halo", || ChainHaloCase.into()),
    ];

    /// The registry cases, built once per process in [`NAMED`] order.
    fn shared() -> &'static [SharedCase] {
        static SHARED: OnceLock<Vec<SharedCase>> = OnceLock::new();
        SHARED.get_or_init(|| NAMED.iter().map(|(_, build)| build()).collect())
    }

    /// The shared preset under a registry name. `None` for unknown names.
    pub fn by_name(name: &str) -> Option<SharedCase> {
        let i = NAMED.iter().position(|(n, _)| *n == name)?;
        Some(shared()[i].clone())
    }

    /// The registry name of `case`, matched by
    /// [`memo_key`](AlyaCase::memo_key): a preset edited in any
    /// profile-relevant field has no name.
    pub fn name_of(case: &dyn AlyaCase) -> Option<&'static str> {
        let key = case.memo_key()?;
        NAMED
            .iter()
            .zip(shared())
            .find(|(_, shared)| shared.key().map(|k| &**k) == Some(key.as_str()))
            .map(|(&(name, _), _)| name)
    }
}

pub use dist::{Poisson, Zipf};
pub use error::HarborError;
pub use lab::daemon::{DaemonHandle, LabClient, LabDaemon};
pub use lab::{
    CacheStats, CampaignReport, CampaignResult, CampaignRow, CampaignRowKind, EngineStats,
    LabRequest, LabResponse, PlanInfo, PlanKey, Query, QueryEngine,
};
pub use open::{
    class_table, run_open_campaign, MixSpec, OpenClass, OpenReport, OpenSpec, RuntimeOpenStats,
};
pub use report::{FigureData, Series, TableData};
pub use scenario::{EngineKind, Execution, Outcome, Scenario, ScenarioPlan};
pub use script::{CompiledCampaign, CompiledRun, CompiledScript, ScriptError};
pub use sketch::QuantileSketch;
