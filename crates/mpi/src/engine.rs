//! The common face of the performance engines.
//!
//! [`PerfEngine`] abstracts over "execute a [`JobProfile`] against a
//! machine and report timing + traffic": the analytic engine, the
//! message-level DES engine, and [`TruncatingDes`] — the DES engine run on
//! a truncated job with the result scaled back, which is how HarborSim
//! makes message-level simulation affordable on long production runs.
//!
//! Callers that hold one engine of either kind (experiments, benches,
//! tests) run it through the trait. The `Scenario` layer in
//! `harborsim-core` instead matches on its two engines, because it keeps
//! the analytic engine's per-plan [`AnalyticCost`](crate::AnalyticCost)
//! beside it.

use crate::analytic::AnalyticEngine;
use crate::des_engine::DesEngine;
use crate::result::SimResult;
use crate::workload::JobProfile;
use harborsim_des::trace::Recorder;

/// A performance engine: executes a workload IR and accounts for time and
/// traffic. `seed` drives the run-to-run jitter the paper averages away;
/// implementations must be deterministic given `(job, seed)`.
pub trait PerfEngine {
    /// Execute `job`, emitting spans through `rec` and returning timing +
    /// traffic accounting derived from them.
    fn run_traced(&self, job: &JobProfile, seed: u64, rec: &mut Recorder) -> SimResult;

    /// Execute `job` with a private aggregating recorder — full breakdown
    /// attribution, no span storage.
    fn run(&self, job: &JobProfile, seed: u64) -> SimResult {
        self.run_traced(job, seed, &mut Recorder::aggregating())
    }

    /// Short engine name for reports ("analytic", "des").
    fn name(&self) -> &'static str;
}

impl PerfEngine for AnalyticEngine {
    fn run_traced(&self, job: &JobProfile, seed: u64, rec: &mut Recorder) -> SimResult {
        AnalyticEngine::run_traced(self, job, seed, rec)
    }

    fn name(&self) -> &'static str {
        "analytic"
    }
}

impl PerfEngine for DesEngine {
    fn run_traced(&self, job: &JobProfile, seed: u64, rec: &mut Recorder) -> SimResult {
        DesEngine::run_traced(self, job, seed, rec)
    }

    fn name(&self) -> &'static str {
        "des"
    }
}

/// The DES engine under step truncation: simulate at most
/// `max_steps_per_kind` repetitions of each step kind and scale the result
/// back to the full job. Exact for perfectly periodic bulk-synchronous
/// phases, and the only way to run message-level simulation on
/// thousands-of-timesteps production cases.
#[derive(Debug, Clone)]
pub struct TruncatingDes {
    /// The underlying message-level engine.
    pub inner: DesEngine,
    /// Repetitions of each step kind to actually simulate.
    pub max_steps_per_kind: u32,
}

impl PerfEngine for TruncatingDes {
    /// The trace covers the *truncated* run; only the returned result is
    /// scaled back to the full job.
    fn run_traced(&self, job: &JobProfile, seed: u64, rec: &mut Recorder) -> SimResult {
        let (short, mult) = job.truncated(self.max_steps_per_kind);
        self.inner.run_traced(&short, seed, rec).scaled(mult)
    }

    fn name(&self) -> &'static str {
        "des"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::EngineConfig;
    use crate::mapping::RankMap;
    use crate::workload::StepProfile;
    use harborsim_hw::NodeSpec;
    use harborsim_net::{DataPath, NetworkModel, Topology, TransportSelection};

    fn engines() -> (AnalyticEngine, DesEngine) {
        let node = NodeSpec::dual_socket(harborsim_hw::CpuModel::xeon_e5_2697v3(), 128);
        let network = NetworkModel::compose(
            harborsim_hw::InterconnectKind::GigabitEthernet,
            TransportSelection::Native,
            DataPath::Host,
            Topology::small_cluster(),
        );
        let map = RankMap::block(2, 4, 1);
        let a = AnalyticEngine::new(node.clone(), network.clone(), map, EngineConfig::default());
        // the DES twin shares the analytic engine's table, like a compiled
        // scenario plan does
        let d = DesEngine::with_routes(
            node,
            network,
            map,
            EngineConfig::default(),
            a.routes().clone(),
        );
        (a, d)
    }

    #[test]
    fn trait_dispatch_matches_inherent_calls() {
        let (a, d) = engines();
        let job = JobProfile::uniform(StepProfile::compute_only(1e8, 4.0), 6);
        let dyn_a: &dyn PerfEngine = &a;
        let dyn_d: &dyn PerfEngine = &d;
        assert_eq!(dyn_a.run(&job, 9).elapsed, a.run(&job, 9).elapsed);
        assert_eq!(dyn_d.run(&job, 9).elapsed, d.run(&job, 9).elapsed);
        assert_eq!(dyn_a.name(), "analytic");
        assert_eq!(dyn_d.name(), "des");
    }

    #[test]
    fn truncating_des_scales_back_to_full_job() {
        let (_, d) = engines();
        let job = JobProfile::uniform(StepProfile::compute_only(5e7, 2.0), 40);
        let trunc = TruncatingDes {
            inner: d.clone(),
            max_steps_per_kind: 5,
        };
        let full = trunc.run(&job, 3);
        let (short, mult) = job.truncated(5);
        let manual = d.run(&short, 3).scaled(mult);
        assert_eq!(full.elapsed, manual.elapsed);
        assert!(mult > 1.0);
    }
}
