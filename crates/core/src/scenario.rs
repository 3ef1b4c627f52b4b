//! Runnable scenarios: cluster × execution environment × workload ×
//! placement.
//!
//! A [`Scenario`] is the builder; [`Scenario::compile`] validates it once
//! and produces a [`ScenarioPlan`] — placement, job profile, composed
//! network, engine, and (if requested) the built image and deployment
//! model, all resolved up front. [`ScenarioPlan::execute`] then runs one
//! seed with no validation, no profile rebuild and no image rebuild, which
//! is what the repetition-and-sweep layer in [`crate::runner`] leans on. On
//! the analytic engine the first execute also costs the job, once per plan
//! ([`harborsim_mpi::AnalyticCost`]); every execute after it only replays
//! that table under its seed. A first execute through a
//! [`TrafficTable`] ([`ScenarioPlan::execute_sharing`], which every
//! [`crate::lab::QueryEngine`] execute takes) reuses the message counts
//! of any plan that differs only in its network.

use crate::error::HarborError;
use crate::lab::traffic::{TrafficEntry, TrafficKey, TrafficTable};
use crate::open::OpenSpec;
use crate::workloads::SharedCase;
use harborsim_container::deploy::deployment_overhead;
use harborsim_container::image::ImageManifest;
use harborsim_container::{BuildEngine, BuildError, DeploymentReport};
use harborsim_des::trace::{AttrValue, Recorder, SpanCategory, TraceBuffer};
use harborsim_des::{SimDuration, SimTime};
use harborsim_hw::{ClusterSpec, CpuModel, FabricLayout};
use harborsim_mpi::analytic::EngineConfig;
use harborsim_mpi::workload::JobProfile;
use harborsim_mpi::{
    route_table, AnalyticCost, AnalyticEngine, DesEngine, Placement, RankMap, SimResult,
    TruncatingDes,
};
use harborsim_net::{NetworkModel, RouteTable, Topology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub use harborsim_container::runtime::ExecutionEnvironment as Execution;

/// Which performance engine executes the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Closed-form bulk-synchronous engine (default; exact enough and
    /// instant at any scale).
    Analytic,
    /// Message-level discrete-event engine; the job is truncated to at most
    /// this many steps per step-kind and the result scaled back.
    Des {
        /// Steps of each kind to actually simulate.
        max_steps_per_kind: u32,
    },
}

/// The topology a cluster's declared [`FabricLayout`] expands to, before
/// any taper override. Scenarios resolve overrides on top of this via
/// [`Scenario::network_model`].
pub fn topology_for(cluster: &ClusterSpec) -> Topology {
    Topology::from_layout(&cluster.fabric_layout)
}

/// What a scenario run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Solver elapsed time (the quantity the paper's figures plot).
    pub elapsed: SimDuration,
    /// Full engine result (breakdowns, traffic counters).
    pub result: SimResult,
    /// Deployment cost, if requested via [`Scenario::with_deployment`].
    pub deployment: Option<DeploymentReport>,
}

/// A configured scenario.
pub struct Scenario {
    /// The machine, shared: a preset resolved by name is one value per
    /// process.
    pub cluster: Arc<ClusterSpec>,
    /// The workload, with its memo key computed once.
    pub case: SharedCase,
    /// Runtime + containment.
    pub env: Execution,
    /// Nodes used.
    pub nodes: u32,
    /// MPI ranks per node.
    pub ranks_per_node: u32,
    /// OpenMP threads per rank.
    pub threads_per_rank: u32,
    /// Engine choice.
    pub engine: EngineKind,
    /// Whether to also simulate image deployment.
    pub deploy: bool,
    /// Layout of ranks over nodes.
    pub placement: Placement,
    /// Per-scenario spine-taper override (beats any engine-level fallback
    /// passed to [`Scenario::compile_with`], which beats the machine's
    /// declared layout).
    pub spine_taper: Option<f64>,
    /// Node uplinks to degrade: `(node, factor)` multiplies that node's
    /// injection capacity by `factor` in the compiled route table.
    pub degraded_uplinks: Vec<(u32, f64)>,
    /// DES shard count (1 = serial event loop). Only the message-level
    /// engine reads it; the sharded run is bit-identical to serial, so
    /// this is a throughput knob, not a model knob.
    pub shards: u32,
    /// Open-system campaign spec, if this scenario describes one
    /// (arrival process, tenant count, job mix). Compiling the scenario
    /// itself ignores it — the open engine [`crate::open`] reads it to
    /// derive the per-class solver scenarios and the arrival sampler.
    pub open: Option<OpenSpec>,
}

impl Scenario {
    /// A bare-metal scenario using one full node; customize via the
    /// builder methods. Takes the cluster by value or already shared, and
    /// any [`AlyaCase`](crate::workloads::AlyaCase) or a
    /// [`SharedCase`].
    pub fn new(cluster: impl Into<Arc<ClusterSpec>>, case: impl Into<SharedCase>) -> Scenario {
        let cluster = cluster.into();
        let rpn = cluster.node.cores();
        Scenario {
            cluster,
            case: case.into(),
            env: Execution::bare_metal(),
            nodes: 1,
            ranks_per_node: rpn,
            threads_per_rank: 1,
            engine: EngineKind::Analytic,
            deploy: false,
            placement: Placement::Block,
            spine_taper: None,
            degraded_uplinks: Vec::new(),
            shards: 1,
            open: None,
        }
    }

    /// Set the execution environment.
    pub fn execution(mut self, env: Execution) -> Scenario {
        self.env = env;
        self
    }

    /// Set the node count.
    pub fn nodes(mut self, nodes: u32) -> Scenario {
        self.nodes = nodes;
        self
    }

    /// Set ranks per node.
    pub fn ranks_per_node(mut self, rpn: u32) -> Scenario {
        self.ranks_per_node = rpn;
        self
    }

    /// Set threads per rank.
    pub fn threads_per_rank(mut self, t: u32) -> Scenario {
        self.threads_per_rank = t;
        self
    }

    /// Select the performance engine.
    pub fn engine(mut self, engine: EngineKind) -> Scenario {
        self.engine = engine;
        self
    }

    /// Run the DES engine over this many shards (ignored by the analytic
    /// engine; clamped to the fabric's leaf count at run time). The result
    /// is bit-identical at every shard count.
    pub fn shards(mut self, shards: u32) -> Scenario {
        assert!(shards >= 1, "shard count must be at least 1");
        self.shards = shards;
        self
    }

    /// Also simulate deploying the image before the run.
    pub fn with_deployment(mut self) -> Scenario {
        self.deploy = true;
        self
    }

    /// Attach an open-system campaign spec (arrival process, tenants,
    /// job mix). Run it through [`crate::open::run_open_campaign`].
    pub fn open_campaign(mut self, spec: OpenSpec) -> Scenario {
        self.open = Some(spec);
        self
    }

    /// Choose how ranks are laid out over nodes (default: block).
    pub fn placement(mut self, placement: Placement) -> Scenario {
        self.placement = placement;
        self
    }

    /// Override the fabric's spine taper for this scenario only (1.0 =
    /// non-blocking, 0.5 = 2:1 oversubscribed).
    pub fn spine_taper(mut self, taper: f64) -> Scenario {
        assert!(
            taper > 0.0 && taper <= 1.0,
            "taper is a fraction of injection bandwidth"
        );
        self.spine_taper = Some(taper);
        self
    }

    /// Degrade one node's uplink to `factor` of its capacity — a flapping
    /// cable or renegotiated-down port, for the robustness scenarios.
    pub fn degrade_node_uplink(mut self, node: u32, factor: f64) -> Scenario {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degradation is a fraction of link capacity"
        );
        self.degraded_uplinks.push((node, factor));
        self
    }

    /// The fabric layout with this scenario's own taper override resolved
    /// (no engine-level fallback): [`Scenario::fabric_layout_with`] with
    /// `None`.
    pub fn fabric_layout(&self) -> FabricLayout {
        self.fabric_layout_with(None)
    }

    /// The fabric layout after taper overrides are resolved: this
    /// scenario's [`Scenario::spine_taper`] beats `fallback_taper` (the
    /// engine-level knob behind `reproduce_all --ablate-taper` /
    /// `--oversub`), which beats the machine's declared layout. Flat
    /// single-switch fabrics have no spine and ignore both.
    pub fn fabric_layout_with(&self, fallback_taper: Option<f64>) -> FabricLayout {
        let mut layout = self.cluster.fabric_layout;
        if let Some(t) = self.spine_taper.or(fallback_taper) {
            assert!(
                t > 0.0 && t <= 1.0,
                "taper is a fraction of injection bandwidth"
            );
            layout.spine_taper = t;
        }
        layout
    }

    /// The composed network model this scenario observes.
    pub fn network_model(&self) -> NetworkModel {
        self.network_model_with(None)
    }

    /// The composed network model under an engine-level taper fallback,
    /// built from the environment's
    /// [`EngineView`](harborsim_container::EngineView) on this cluster's
    /// fabric.
    pub fn network_model_with(&self, fallback_taper: Option<f64>) -> NetworkModel {
        let fabric = self.cluster.interconnect;
        self.env.engine_view(fabric).network_model(
            fabric,
            Topology::from_layout(&self.fabric_layout_with(fallback_taper)),
        )
    }

    /// Validate the scenario and resolve everything seed-independent into
    /// a [`ScenarioPlan`]: placement, job profile, network, engine, and
    /// (if requested) the built image and its deployment model.
    ///
    /// # Errors
    /// [`HarborError::Placement`] if the placement doesn't fit the machine,
    /// [`HarborError::RuntimeUnavailable`] if the container runtime is not
    /// installed there, [`HarborError::Build`] if deployment was requested
    /// and the image build fails.
    pub fn compile(&self) -> Result<ScenarioPlan, HarborError> {
        self.compile_with(None)
    }

    /// [`Scenario::compile`] under an engine-level spine-taper fallback:
    /// the scenario's own [`Scenario::spine_taper`] wins, the fallback
    /// applies otherwise, the declared layout last. Plans are a pure
    /// function of the builder and this argument — there is no process
    /// state involved, which is what makes lab [`crate::lab::PlanKey`]
    /// fingerprints sound.
    ///
    /// # Errors
    /// See [`Scenario::compile`].
    pub fn compile_with(&self, fallback_taper: Option<f64>) -> Result<ScenarioPlan, HarborError> {
        self.cluster
            .validate_placement(self.nodes, self.ranks_per_node, self.threads_per_rank)?;
        if !self.env.runtime.available_on(&self.cluster.software) {
            return Err(HarborError::RuntimeUnavailable {
                runtime: self.env.runtime.label().to_string(),
                cluster: self.cluster.name.clone(),
            });
        }
        let map = RankMap {
            nodes: self.nodes,
            ranks_per_node: self.ranks_per_node,
            threads_per_rank: self.threads_per_rank,
            placement: self.placement,
        };
        let job = self.case.job_profile(map.ranks());
        // the engines see the environment only through its view: network
        // and compute tax both come from it
        let network = self.network_model_with(fallback_taper);
        let config = EngineConfig {
            compute_tax: self.env.engine_view(self.cluster.interconnect).compute_tax,
            ..EngineConfig::default()
        };
        // One route table per plan: built here, shared by whichever engine
        // runs (and degraded before it is frozen behind the Arc).
        let mut table = route_table(&map, &network);
        for &(node, factor) in &self.degraded_uplinks {
            assert!(
                node < self.nodes,
                "degraded uplink names node {node}, but the scenario has {} nodes",
                self.nodes
            );
            let id = table.graph().node_up(node);
            table.graph_mut().degrade(id, factor);
        }
        let routes = Arc::new(table);
        let engine = match self.engine {
            EngineKind::Analytic => PlanEngine::Analytic(AnalyticPlan {
                engine: AnalyticEngine::with_routes(
                    self.cluster.node.clone(),
                    network,
                    map,
                    config,
                    routes,
                ),
                // the memo key names the job in a traffic key; a case
                // without one counts its own traffic
                case_key: self.case.key().cloned(),
                // filled by the first execute, not here: a plan that is
                // only described (a lab `Plan` request) never pays for it
                traffic: OnceLock::new(),
                cost: OnceLock::new(),
                costings: AtomicU64::new(0),
            }),
            EngineKind::Des { max_steps_per_kind } => PlanEngine::Des(TruncatingDes {
                inner: DesEngine::with_routes(
                    self.cluster.node.clone(),
                    network,
                    map,
                    config,
                    routes,
                )
                .with_shards(self.shards),
                max_steps_per_kind,
            }),
        };
        let (deployment, deployment_trace) = if self.deploy {
            let image = shared_alya_image(&self.cluster.node.cpu)?;
            // capture the deployment spans once at compile time; executes
            // replay them into any enabled recorder
            let mut dep_rec = Recorder::capturing();
            let report = deployment_overhead(
                self.nodes,
                self.env,
                &image,
                &self.cluster.shared_storage,
                &mut dep_rec,
            );
            (Some(report), Some(dep_rec.take_buffer()))
        } else {
            (None, None)
        };
        let attrs = vec![
            ("cluster", AttrValue::Text(self.cluster.name.clone())),
            ("env", AttrValue::Text(self.env.label())),
            ("nodes", AttrValue::Int(u64::from(self.nodes))),
            (
                "ranks_per_node",
                AttrValue::Int(u64::from(self.ranks_per_node)),
            ),
            (
                "threads_per_rank",
                AttrValue::Int(u64::from(self.threads_per_rank)),
            ),
            (
                "placement",
                AttrValue::Text(
                    match self.placement {
                        Placement::Block => "block",
                        Placement::RoundRobin => "round-robin",
                    }
                    .to_string(),
                ),
            ),
        ];
        Ok(ScenarioPlan {
            map,
            job,
            engine,
            deployment,
            deployment_trace,
            attrs,
        })
    }

    /// Validate and run; `seed` drives run-to-run jitter. One-shot
    /// convenience for [`Scenario::compile`] + [`ScenarioPlan::execute`]
    /// with an aggregating recorder (so the outcome's breakdowns are
    /// populated) — callers running many seeds should compile once and
    /// reuse the plan, or go through [`crate::lab::QueryEngine`].
    ///
    /// # Errors
    /// See [`Scenario::compile`].
    pub fn try_run(&self, seed: u64) -> Result<Outcome, HarborError> {
        Ok(self.compile()?.execute(seed, &mut Recorder::aggregating()))
    }

    /// Like [`Scenario::try_run`] but panics on configuration errors.
    ///
    /// # Panics
    /// Panics on placement violations or unavailable runtimes.
    pub fn run(&self, seed: u64) -> Outcome {
        match self.try_run(seed) {
            Ok(outcome) => outcome,
            Err(e) => panic!("scenario configuration: {e}"),
        }
    }
}

/// The engine a plan executes on.
enum PlanEngine {
    /// The analytic engine and its job's seed-independent cost.
    Analytic(AnalyticPlan),
    /// The message-level engine under step truncation, which simulates
    /// every seed from scratch.
    Des(TruncatingDes),
}

/// An analytic plan's engine and the cost its first execute fills in.
struct AnalyticPlan {
    engine: AnalyticEngine,
    /// The case's memo key, if it has one.
    case_key: Option<Arc<str>>,
    /// The shared traffic this plan's cost was settled from, when its
    /// first execute went through a [`TrafficTable`]; held for the
    /// plan's life, so sibling plans find it counted.
    traffic: OnceLock<Arc<TrafficEntry>>,
    /// The job's cost table, filled by the first execute.
    cost: OnceLock<AnalyticCost>,
    /// Cost tables computed for this plan (see
    /// [`ScenarioPlan::costings`]).
    costings: AtomicU64,
}

impl AnalyticPlan {
    /// `job`'s cost table, costed by the first call.
    fn cost(&self, job: &JobProfile, shared: Option<&TrafficTable>) -> &AnalyticCost {
        match self.cost.get() {
            Some(cost) => cost,
            None => self.first_cost(job, shared),
        }
    }

    /// Cost `job`, from `shared`'s counts when it is given and the case
    /// has a memo key, else from a private count, and keep the table.
    #[cold]
    #[inline(never)]
    fn first_cost(&self, job: &JobProfile, shared: Option<&TrafficTable>) -> &AnalyticCost {
        self.costings.fetch_add(1, Ordering::Relaxed);
        let engine = &self.engine;
        let count = || engine.count(job);
        let computed = match (shared, &self.case_key) {
            (Some(shared), Some(case)) => {
                let entry = self.traffic.get_or_init(|| {
                    shared.entry(TrafficKey {
                        case: Arc::clone(case),
                        map: engine.map,
                        nodes_per_leaf: engine.routes().graph().nodes_per_leaf(),
                        algo: engine.config.allreduce_algo,
                    })
                });
                engine.cost_from(job, entry.traffic(count))
            }
            _ => engine.cost_from(job, &count()),
        };
        // a racing execute may have filled the cell meanwhile; its table
        // is the same, so losing the `set` is harmless
        let _ = self.cost.set(computed);
        self.cost.get().expect("the cost cell was just filled")
    }
}

/// A compiled scenario: everything seed-independent resolved, ready to
/// execute any number of seeds.
pub struct ScenarioPlan {
    map: RankMap,
    job: JobProfile,
    engine: PlanEngine,
    deployment: Option<DeploymentReport>,
    /// Deployment spans captured at compile time, replayed per execute.
    deployment_trace: Option<TraceBuffer>,
    /// Scenario attributes attached to the top-level run span.
    attrs: Vec<(&'static str, AttrValue)>,
}

impl ScenarioPlan {
    /// Execute one seed, emitting the full trace through `rec`: the
    /// deployment spans captured at compile time (if any), the engine's
    /// spans, and a top-level `Run` span carrying the scenario attributes
    /// and the seed. Deterministic: the same plan and seed always produce
    /// the same [`Outcome`].
    ///
    /// The recorder *is* the attribution path: with
    /// [`Recorder::aggregating`] the outcome's breakdowns are populated,
    /// with [`Recorder::off`] elapsed time and traffic counters stay
    /// exact but compute/comm attribution comes out zero.
    ///
    /// On the analytic engine the first execute costs the job and keeps
    /// the table; later executes only replay it. Costing counts the job's
    /// traffic rank by rank, then settles it at the plan's capacities.
    /// This execute counts privately; [`ScenarioPlan::execute_sharing`]
    /// shares the count with sibling plans. The table is published
    /// without a lock: executes that race to be first each cost the job,
    /// one table is kept, and none waits for another.
    pub fn execute(&self, seed: u64, rec: &mut Recorder) -> Outcome {
        self.execute_in(seed, rec, None)
    }

    /// [`ScenarioPlan::execute`], with a first analytic costing that takes
    /// its traffic counts from `table`: counted there already by a plan
    /// with the same case, placement, fabric shape and allreduce
    /// algorithm, or counted now and left there for the next. The plan
    /// then holds that entry for its life. Bit-identical to `execute`; a
    /// case without a memo key counts privately, as `execute` does.
    pub fn execute_sharing(&self, seed: u64, rec: &mut Recorder, table: &TrafficTable) -> Outcome {
        self.execute_in(seed, rec, Some(table))
    }

    fn execute_in(&self, seed: u64, rec: &mut Recorder, shared: Option<&TrafficTable>) -> Outcome {
        if rec.is_enabled() {
            if let Some(buf) = &self.deployment_trace {
                rec.absorb(buf);
            }
        }
        let result = match &self.engine {
            PlanEngine::Analytic(plan) => {
                plan.engine.replay(plan.cost(&self.job, shared), seed, rec)
            }
            PlanEngine::Des(des) => des.run_traced(&self.job, seed, rec),
        };
        // only a capturing recorder keeps attributes: render them for no
        // other (an empty `Vec` allocates nothing)
        let attrs = if rec.is_capturing() {
            let mut attrs = Vec::with_capacity(self.attrs.len() + 2);
            attrs.extend_from_slice(&self.attrs);
            attrs.push(("engine", AttrValue::Text(result.engine.to_string())));
            attrs.push(("seed", AttrValue::Int(seed)));
            attrs
        } else {
            Vec::new()
        };
        rec.span_with(
            SpanCategory::Run,
            "scenario-run",
            0,
            SimTime::ZERO,
            SimTime::ZERO + result.elapsed,
            attrs,
        );
        Outcome {
            elapsed: result.elapsed,
            result,
            deployment: self.deployment.clone(),
        }
    }

    /// Capture one seed's full trace: compile-time deployment spans plus
    /// the engine's spans plus the top-level run span.
    pub fn capture_trace(&self, seed: u64) -> TraceBuffer {
        let mut rec = Recorder::capturing();
        self.execute(seed, &mut rec);
        rec.take_buffer()
    }

    /// The route table the plan's engine costs over, built once at
    /// compile and shared by every execute.
    pub fn routes(&self) -> &Arc<RouteTable> {
        match &self.engine {
            PlanEngine::Analytic(plan) => plan.engine.routes(),
            PlanEngine::Des(des) => des.inner.routes(),
        }
    }

    /// The validated rank placement.
    pub fn rank_map(&self) -> RankMap {
        self.map
    }

    /// The compiled workload IR.
    pub fn job(&self) -> &JobProfile {
        &self.job
    }

    /// Short name of the selected engine ("analytic", "des").
    pub fn engine_name(&self) -> &'static str {
        match &self.engine {
            PlanEngine::Analytic(_) => "analytic",
            PlanEngine::Des(_) => "des",
        }
    }

    /// How many times this plan has costed its job on the analytic
    /// engine: 0 until the first execute, then 1 however many executes
    /// follow, unless first executes raced (each of those costs the job,
    /// and one table is kept). A costing counts the job's traffic, an
    /// execute's only per-rank work, unless a [`TrafficTable`] already
    /// held it. Always 0 on the DES, which keeps no per-plan cost.
    pub fn costings(&self) -> u64 {
        match &self.engine {
            PlanEngine::Analytic(plan) => plan.costings.load(Ordering::Relaxed),
            PlanEngine::Des(_) => 0,
        }
    }

    /// The deployment model, if the scenario requested one.
    pub fn deployment(&self) -> Option<&DeploymentReport> {
        self.deployment.as_ref()
    }
}

/// The study's Alya image, built at most once per build-host CPU for the
/// whole process. Every scenario on the same cluster deploys the identical
/// image, so sweeps (any number of points × seeds) share a single
/// [`BuildEngine`] run. Also the image every open-campaign job stages
/// (see [`crate::open`]).
///
/// Single-flight: the map lock is held across the build, so concurrent
/// sweep workers that miss together wait for one build instead of each
/// running their own. A build runs once per CPU model per process, so
/// serializing the misses costs nothing measurable.
///
/// Models are told apart by [`CpuModel::identity`]. The paper's clusters
/// have four, so a scan of the built ones is the whole lookup.
pub(crate) fn shared_alya_image(cpu: &CpuModel) -> Result<ImageManifest, BuildError> {
    static IMAGES: Mutex<Vec<(CpuModel, ImageManifest)>> = Mutex::new(Vec::new());
    let mut images = IMAGES
        .lock()
        .expect("an image build panicked while holding the image cache");
    let identity = cpu.identity();
    if let Some((_, hit)) = images
        .iter()
        .find(|(built, _)| built.identity() == identity)
    {
        return Ok(hit.clone());
    }
    let manifest = BuildEngine::self_contained(cpu.clone())
        .build(&harborsim_container::build::alya_recipe())?
        .manifest;
    images.push((cpu.clone(), manifest.clone()));
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use harborsim_hw::presets;

    #[test]
    fn quickstart_scenario_runs() {
        let outcome = Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
            .execution(Execution::singularity_system_specific())
            .nodes(2)
            .ranks_per_node(48)
            .run(42);
        assert!(outcome.elapsed.as_secs_f64() > 0.0);
        assert!(outcome.deployment.is_none());
    }

    #[test]
    fn docker_rejected_on_production_machines() {
        let err = Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
            .execution(Execution::docker())
            .try_run(1)
            .unwrap_err();
        assert!(
            matches!(err, HarborError::RuntimeUnavailable { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("Docker"), "{err}");
    }

    #[test]
    fn placement_violations_rejected() {
        let err = Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .nodes(9)
            .try_run(1)
            .unwrap_err();
        assert!(matches!(err, HarborError::Placement(_)), "{err:?}");
        assert!(err.to_string().contains("nodes"), "{err}");
        let err = Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .ranks_per_node(28)
            .threads_per_rank(2)
            .try_run(1)
            .unwrap_err();
        assert!(err.to_string().contains("cores"), "{err}");
    }

    #[test]
    fn plan_execute_matches_try_run() {
        let scenario = Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(2)
            .ranks_per_node(8);
        let plan = scenario.compile().expect("compiles");
        for seed in [1u64, 7, 42] {
            let a = plan.execute(seed, &mut Recorder::aggregating());
            let b = scenario.try_run(seed).unwrap();
            assert_eq!(a.elapsed, b.elapsed, "seed {seed}");
            assert_eq!(a.result.compute, b.result.compute);
        }
    }

    #[test]
    fn plan_exposes_compiled_state() {
        let plan = Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .nodes(2)
            .ranks_per_node(14)
            .compile()
            .unwrap();
        assert_eq!(plan.rank_map().ranks(), 28);
        assert_eq!(plan.engine_name(), "analytic");
        assert!(plan.job().total_steps() > 0);
        assert!(plan.deployment().is_none());
    }

    #[test]
    fn engines_give_comparable_elapsed() {
        let mk = |engine| {
            Scenario::new(presets::lenox(), workloads::artery_cfd_small())
                .execution(Execution::singularity_self_contained())
                .nodes(2)
                .ranks_per_node(8)
                .engine(engine)
                .run(7)
                .elapsed
                .as_secs_f64()
        };
        let analytic = mk(EngineKind::Analytic);
        let des = mk(EngineKind::Des {
            max_steps_per_kind: 5,
        });
        let ratio = des / analytic;
        assert!(
            (0.4..2.5).contains(&ratio),
            "engines disagree: analytic={analytic} des={des} ratio={ratio}"
        );
    }

    /// A chain-halo case heavy enough that placement decides how many
    /// bytes hit the wire (the 3D CFD cases can tie under stride aliasing;
    /// see `tests/ablations.rs`).
    struct ChainHalo;

    impl workloads::AlyaCase for ChainHalo {
        fn name(&self) -> &str {
            "chain-halo"
        }
        fn job_profile(&self, _ranks: u32) -> harborsim_mpi::JobProfile {
            use harborsim_mpi::{CommPhase, JobProfile, StepProfile};
            JobProfile::uniform(
                StepProfile {
                    flops_per_rank: 1e8,
                    imbalance: 1.0,
                    regions: 1.0,
                    comm: vec![CommPhase::Halo1D {
                        bytes: 200_000,
                        repeats: 20,
                    }],
                },
                10,
            )
        }
    }

    #[test]
    fn round_robin_placement_costs_more_on_halo_workloads() {
        // 1GbE so halo bandwidth (what scattering multiplies) dominates
        let t = |placement| {
            Scenario::new(presets::lenox(), ChainHalo)
                .execution(Execution::singularity_system_specific())
                .nodes(4)
                .ranks_per_node(28)
                .placement(placement)
                .run(11)
                .elapsed
                .as_secs_f64()
        };
        let block = t(Placement::Block);
        let rr = t(Placement::RoundRobin);
        assert!(
            rr > block,
            "scattering chain neighbours over nodes must cost: block={block} rr={rr}"
        );
    }

    #[test]
    fn scenario_taper_beats_fallback_beats_layout() {
        let base = Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small());
        let declared = base.fabric_layout().spine_taper;
        assert!((declared - 0.8).abs() < 1e-12, "mn4 declares 0.8");
        let pinned = base.spine_taper(0.25);
        assert!((pinned.fabric_layout().spine_taper - 0.25).abs() < 1e-12);
        // a builder-pinned value survives an engine-level fallback
        // underneath it, while a scenario without one picks the fallback up
        assert!(
            (pinned.fabric_layout_with(Some(0.5)).spine_taper - 0.25).abs() < 1e-12,
            "builder beats fallback"
        );
        let plain = Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small());
        assert!(
            (plain.fabric_layout_with(Some(0.5)).spine_taper - 0.5).abs() < 1e-12,
            "fallback beats layout"
        );
        assert!(
            (plain.fabric_layout_with(None).spine_taper - declared).abs() < 1e-12,
            "no fallback restores the declared layout"
        );
    }

    #[test]
    fn degraded_uplink_slows_the_run() {
        let t = |scenario: Scenario| scenario.run(9).elapsed.as_secs_f64();
        let mk = || {
            Scenario::new(presets::cte_power(), workloads::artery_cfd_small())
                .execution(Execution::singularity_system_specific())
                .nodes(4)
                .ranks_per_node(40)
        };
        let healthy = t(mk());
        let degraded = t(mk().degrade_node_uplink(1, 0.1));
        assert!(
            degraded > healthy,
            "a 10x slower uplink must show: healthy={healthy} degraded={degraded}"
        );
    }

    #[test]
    fn deployment_attaches_when_requested() {
        let outcome = Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::docker())
            .nodes(4)
            .ranks_per_node(28)
            .with_deployment()
            .run(3);
        let dep = outcome.deployment.expect("deployment report");
        assert!(dep.makespan.as_secs_f64() > 1.0);
    }

    #[test]
    fn containment_changes_nothing_on_ethernet() {
        let t = |env| {
            Scenario::new(presets::lenox(), workloads::artery_cfd_small())
                .execution(env)
                .nodes(4)
                .ranks_per_node(28)
                .run(5)
                .elapsed
        };
        let ss = t(Execution::singularity_system_specific());
        let sc = t(Execution::singularity_self_contained());
        assert_eq!(ss, sc, "TCP fabric: containment is irrelevant");
    }

    #[test]
    fn containment_matters_on_infiniband() {
        let t = |env| {
            Scenario::new(presets::cte_power(), workloads::artery_cfd_small())
                .execution(env)
                .nodes(4)
                .ranks_per_node(40)
                .run(5)
                .elapsed
                .as_secs_f64()
        };
        let ss = t(Execution::singularity_system_specific());
        let sc = t(Execution::singularity_self_contained());
        assert!(sc > 1.2 * ss, "self-contained {sc} vs system-specific {ss}");
    }
}
