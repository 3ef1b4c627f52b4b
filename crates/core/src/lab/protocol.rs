//! The lab's one typed query protocol.
//!
//! [`LabRequest`] and [`LabResponse`] are the *entire* public query
//! surface of [`QueryEngine`](super::QueryEngine): one request enum
//! handled by one method,
//! [`QueryEngine::handle`](super::QueryEngine::handle). The
//! [`wire`](super::wire) module serializes exactly these types, so an
//! in-process caller and a socket client of the
//! [`daemon`](super::daemon) execute the same code path.
//!
//! The response helpers ([`LabResponse::means`],
//! [`LabResponse::into_outcome`], ...) keep call sites terse; they panic
//! on configuration errors.

use super::Query;
use crate::error::HarborError;
use crate::scenario::{Outcome, Scenario};
use crate::CacheStats;

/// One lab query: everything the engine can be asked, in-process or over
/// the wire.
pub enum LabRequest {
    /// Resolve (compile or fetch) a scenario's plan and describe it —
    /// no execution.
    Plan {
        /// The scenario to resolve (boxed: `Scenario` is large and the
        /// variants should stay size-balanced).
        scenario: Box<Scenario>,
    },
    /// Execute one scenario under one seed with full trace attribution —
    /// the lab-routed equivalent of [`Scenario::run`].
    Execute {
        /// The scenario to run (boxed: `Scenario` is large and the other
        /// variants are small).
        scenario: Box<Scenario>,
        /// The seed to run it under.
        seed: u64,
    },
    /// Execute many scenario × seed grids as one batch on the
    /// work-stealing pool.
    Batch {
        /// The queries, answered in submission order.
        queries: Vec<Query>,
    },
    /// Compile and run a `.hsim` campaign script server-side.
    Campaign {
        /// The script text (what `reproduce_all --script` reads from a
        /// file).
        script: String,
    },
    /// Report engine statistics (plan cache counters).
    Stats,
}

impl LabRequest {
    /// A [`LabRequest::Plan`] for `scenario`.
    pub fn plan(scenario: Scenario) -> LabRequest {
        LabRequest::Plan {
            scenario: Box::new(scenario),
        }
    }

    /// An [`LabRequest::Execute`] for `scenario` under `seed`.
    pub fn execute(scenario: Scenario, seed: u64) -> LabRequest {
        LabRequest::Execute {
            scenario: Box::new(scenario),
            seed,
        }
    }

    /// A [`LabRequest::Batch`] running every scenario over the same
    /// seeds.
    pub fn batch(scenarios: impl IntoIterator<Item = Scenario>, seeds: &[u64]) -> LabRequest {
        LabRequest::Batch {
            queries: scenarios
                .into_iter()
                .map(|s| Query::new(s, seeds))
                .collect(),
        }
    }
}

/// What the engine answers; variants mirror [`LabRequest`] kinds, plus
/// [`LabResponse::Error`] for requests that failed as a whole (batch
/// requests carry per-query errors inside [`LabResponse::Batch`]
/// instead).
#[derive(Debug)]
pub enum LabResponse {
    /// Answer to [`LabRequest::Plan`].
    Plan(PlanInfo),
    /// Answer to [`LabRequest::Execute`].
    Execute(Box<Outcome>),
    /// Answer to [`LabRequest::Batch`]: one result per query in
    /// submission order, outcomes in seed order.
    Batch(Vec<Result<Vec<Outcome>, HarborError>>),
    /// Answer to [`LabRequest::Campaign`].
    Campaign(CampaignReport),
    /// Answer to [`LabRequest::Stats`].
    Stats(EngineStats),
    /// The request failed as a whole (configuration, script, placement,
    /// build errors — every [`HarborError`] round-trips the wire).
    Error(HarborError),
}

impl LabResponse {
    /// The batch results, by value.
    ///
    /// # Panics
    /// Panics if this is not a [`LabResponse::Batch`].
    pub fn into_batch(self) -> Vec<Result<Vec<Outcome>, HarborError>> {
        match self {
            LabResponse::Batch(results) => results,
            LabResponse::Error(e) => panic!("scenario configuration: {e}"),
            other => panic!("expected a batch response, got {other:?}"),
        }
    }

    /// Mean elapsed seconds per batch query, in submission order — the
    /// reduction the paper's figures plot.
    ///
    /// # Panics
    /// Panics on configuration errors, like [`Scenario::run`], and if
    /// this is not a [`LabResponse::Batch`].
    pub fn means(self) -> Vec<f64> {
        self.into_batch()
            .into_iter()
            .map(|r| match r {
                Ok(outcomes) => {
                    let n = outcomes.len().max(1) as f64;
                    outcomes
                        .iter()
                        .map(|o| o.elapsed.as_secs_f64())
                        .sum::<f64>()
                        / n
                }
                Err(e) => panic!("scenario configuration: {e}"),
            })
            .collect()
    }

    /// The single outcome, by value.
    ///
    /// # Panics
    /// Panics on configuration errors, like [`Scenario::run`], and if
    /// this is not a [`LabResponse::Execute`].
    pub fn into_outcome(self) -> Outcome {
        match self {
            LabResponse::Execute(outcome) => *outcome,
            LabResponse::Error(e) => panic!("scenario configuration: {e}"),
            other => panic!("expected an execute response, got {other:?}"),
        }
    }

    /// The campaign report, by value.
    ///
    /// # Panics
    /// Panics on script errors and if this is not a
    /// [`LabResponse::Campaign`].
    pub fn into_campaign(self) -> CampaignReport {
        match self {
            LabResponse::Campaign(report) => report,
            LabResponse::Error(e) => panic!("campaign script: {e}"),
            other => panic!("expected a campaign response, got {other:?}"),
        }
    }

    /// The engine statistics, by value.
    ///
    /// # Panics
    /// Panics if this is not a [`LabResponse::Stats`].
    pub fn into_stats(self) -> EngineStats {
        match self {
            LabResponse::Stats(stats) => stats,
            other => panic!("expected a stats response, got {other:?}"),
        }
    }
}

/// What [`LabRequest::Plan`] answers: the resolved plan's identity and
/// shape, without executing anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInfo {
    /// Canonical [`PlanKey`](super::PlanKey) fingerprint under the
    /// engine's taper fallback; `None` when the workload opted out of
    /// memoization.
    pub fingerprint: Option<u64>,
    /// The engine that will execute it (`"analytic"` / `"message-des"`).
    pub engine: String,
    /// Total MPI ranks the rank map places.
    pub ranks: u32,
    /// Whether the plan carries a deployment (image staging) phase.
    pub deployment: bool,
}

/// What [`LabRequest::Stats`] answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Aggregate cache counters (what
    /// [`summary_line`](CacheStats::summary_line) prints).
    pub cache: CacheStats,
    /// The cache counters again, as the one entry of a list. The cache
    /// is not split, so the engine always answers `vec![cache]`; the
    /// field stays for the wire shape until a versioned change drops it.
    pub per_shard: Vec<CacheStats>,
    /// Always 0 from the engine: no execute is served from another's
    /// (see [`QueryEngine::batched_executes`](super::QueryEngine::batched_executes)).
    /// The field stays for the wire shape, as `per_shard` does.
    pub batched_executes: u64,
    /// Daemon front-end counters — `Some` only when the stats were
    /// served over the wire by a daemon (the in-process engine has no
    /// front end, and leaves this `None`).
    pub daemon: Option<DaemonStats>,
}

/// Front-end counters a serving daemon stamps onto wire-served
/// [`EngineStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonStats {
    /// Serving model: always `"reactor"`, the daemon's only front end
    /// (kept on the wire so clients can tell what answered).
    pub mode: String,
    /// Accept-loop errors survived (EMFILE and friends).
    pub accept_errors: u64,
    /// Requests answered `503` because they arrived after shutdown
    /// began.
    pub late_503s: u64,
    /// Connections open when the stats were taken.
    pub open_conns: u64,
}

/// What [`LabRequest::Campaign`] answers: one result per `campaign`
/// block, in script order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-campaign results.
    pub campaigns: Vec<CampaignResult>,
}

/// One campaign block's grid, fully executed.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The campaign's script name.
    pub name: String,
    /// One row per grid point, in sweep order.
    pub rows: Vec<CampaignRow>,
}

/// One executed grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Sweep labels joined with `" / "` (or `"(base)"` for a sweepless
    /// campaign) — matches the `reproduce_all` table rows.
    pub label: String,
    /// Canonical plan-key fingerprint (0 if the workload opted out of
    /// memoization).
    pub fingerprint: u64,
    /// The measured result.
    pub kind: CampaignRowKind,
}

/// The measurement a campaign row carries: closed grids report the
/// paper's mean-elapsed reduction, open (arrival-process) campaigns
/// report throughput and queue-wait tails.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignRowKind {
    /// A closed run: mean solver elapsed over the campaign seeds.
    Closed {
        /// Mean elapsed seconds.
        mean_elapsed_s: f64,
    },
    /// An open run: the arrival process summed over the campaign seeds.
    Open {
        /// Jobs completed (all seeds).
        jobs: u64,
        /// Mean node utilization (averaged over seeds).
        utilization: f64,
        /// Queue-wait median, seconds (sketches merged across seeds).
        wait_p50_s: f64,
        /// Queue-wait p99, seconds.
        wait_p99_s: f64,
    },
}
