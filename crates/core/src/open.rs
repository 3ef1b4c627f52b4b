//! Open-system campaigns: Poisson arrivals, a Zipf-weighted job mix, and
//! deployment storms, on top of the compiled-plan lab.
//!
//! A closed scenario answers "how long does this job take"; an open
//! campaign answers what a *user* experiences on a shared machine: N
//! tenants submit a heavy-tailed mix of Alya jobs (size, case, and
//! container runtime each Zipf-weighted over a small menu) for a fixed
//! simulated horizon, and every job queues, stages its image against
//! co-arriving jobs, then solves. The pieces:
//!
//! - [`OpenSpec`] / [`MixSpec`] — the sampled-campaign description a
//!   [`Scenario`] carries (see [`Scenario::open_campaign`] and the
//!   `.hsim` directives `arrivals`, `mix`, `tenants`, `horizon`);
//! - [`class_table`] — the cross product of the mixes, each class a
//!   plain closed scenario, grouped by what the performance engines can
//!   tell apart: classes with the same size, workload and
//!   [`EngineView`](harborsim_container::EngineView) on the cluster's
//!   fabric share one *solver* class (Shifter and Singularity
//!   self-contained on the storm's Ethernet, say);
//! - [`run_open_campaign`] — solve each distinct solver class once per
//!   seed through the lab (compiled plans are shared across seeds, and
//!   solver times inherit the sharded DES's bit-identical guarantee),
//!   sample the arrival stream, price each job's staging demand
//!   ([`StagePlan`]), drive `harborsim_batch::open`, and fold per-job
//!   samples into per-runtime [`QuantileSketch`]es.
//!
//! Determinism: the sampler is a splitmix-derived [`RngStream`], the
//! open engine is a serial DES, and each class's solver time is a lab
//! outcome — so the whole report is bit-identical for a given (scenario,
//! seed) at *any* DES shard count, which the differential tests pin.

use crate::dist::{Poisson, Zipf};
use crate::error::HarborError;
use crate::lab::{Query, QueryEngine};
use crate::scenario::{shared_alya_image, Execution, Scenario};
use crate::sketch::QuantileSketch;
use crate::workloads;
use harborsim_batch::open::{run_open, OpenCluster, OpenJob};
use harborsim_container::runtime::RuntimeKind;
use harborsim_container::StagePlan;
use harborsim_des::trace::Recorder;
use harborsim_des::RngStream;
use harborsim_hw::ClusterSpec;
use std::collections::HashSet;
use std::sync::Arc;

/// Registry uplink capacity every open campaign assumes, bytes/s — the
/// same 117 MB/s convention the deployment pipeline uses.
pub const REGISTRY_UPLINK_BPS: f64 = 117e6;

/// A run's solver time is "short" below this many seconds for
/// bounded-slowdown purposes (the standard BSLD threshold keeps tiny
/// jobs from dominating the tail).
pub const SLOWDOWN_FLOOR_S: f64 = 10.0;

/// One Zipf-weighted menu: rank k (0-based) gets weight `1/(k+1)^s`.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSpec<T> {
    /// Zipf exponent (1.0 = classic, larger = more head-heavy).
    pub s: f64,
    /// The menu, most-popular first.
    pub values: Vec<T>,
}

impl<T> MixSpec<T> {
    /// A degenerate mix: every job draws `value`.
    pub fn single(value: T) -> MixSpec<T> {
        MixSpec {
            s: 1.0,
            values: vec![value],
        }
    }
}

/// The sampled-campaign description a [`Scenario`] may carry.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSpec {
    /// Poisson arrival rate, jobs per simulated second (all tenants
    /// combined).
    pub rate_per_s: f64,
    /// Submission horizon in seconds (jobs arriving later are not
    /// sampled; the simulation runs past the horizon until they drain).
    pub horizon_s: f64,
    /// Number of submitting tenants; each job picks one uniformly, and
    /// image warmth (layer caches, converted UDIs) is per tenant ×
    /// runtime.
    pub tenants: u32,
    /// Job size menu (node counts).
    pub node_mix: MixSpec<u32>,
    /// Workload menu (registry names: `cfd-small`, `fsi-mn4`, ...).
    pub workload_mix: MixSpec<String>,
    /// Runtime menu.
    pub env_mix: MixSpec<Execution>,
}

/// One job class of an open campaign: a point of the size × case ×
/// runtime cross product, as a plain closed scenario.
///
/// Classes keep their own label and environment (staging and per-runtime
/// statistics depend on the runtime), but a class's solver time is its
/// [`OpenClass::solver`]'s.
pub struct OpenClass {
    /// Human label ("cfd-small ×2 Docker").
    pub label: String,
    /// Node count of this class.
    pub nodes: u32,
    /// Runtime + containment of this class.
    pub env: Execution,
    /// The closed scenario whose elapsed time is this class's solver
    /// time.
    pub scenario: Scenario,
    /// Index of the class whose solve this class shares: the first class
    /// with the same node count, the same workload and an equal engine
    /// view on the cluster's fabric. A class that is first of its kind
    /// is its own solver.
    pub solver: usize,
}

/// Per-runtime tail statistics of one (or several merged) open runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOpenStats {
    /// The runtime.
    pub runtime: RuntimeKind,
    /// Jobs completed under it.
    pub jobs: u64,
    /// Cold image stages (first submission per tenant × runtime).
    pub cold_pulls: u64,
    /// Queue-wait seconds per job.
    pub wait: QuantileSketch,
    /// Bounded slowdown per job: `max(1, turnaround / max(run, 10 s))`.
    pub slowdown: QuantileSketch,
    /// Staging seconds per job (contended pulls + fixed latency).
    pub stage: QuantileSketch,
}

impl RuntimeOpenStats {
    fn empty(runtime: RuntimeKind) -> RuntimeOpenStats {
        RuntimeOpenStats {
            runtime,
            jobs: 0,
            cold_pulls: 0,
            wait: QuantileSketch::new(),
            slowdown: QuantileSketch::new(),
            stage: QuantileSketch::new(),
        }
    }

    /// Fold another run's stats for the same runtime in (sketches merge
    /// losslessly).
    ///
    /// # Panics
    /// Panics when the runtimes differ.
    pub fn merge(&mut self, other: &RuntimeOpenStats) {
        assert_eq!(self.runtime, other.runtime, "merging different runtimes");
        self.jobs += other.jobs;
        self.cold_pulls += other.cold_pulls;
        self.wait.merge(&other.wait);
        self.slowdown.merge(&other.slowdown);
        self.stage.merge(&other.stage);
    }
}

/// What one open-campaign run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenReport {
    /// Jobs sampled (and completed — the machine always drains).
    pub jobs: u64,
    /// Last completion, seconds.
    pub makespan_s: f64,
    /// Mean node utilization over the makespan.
    pub utilization: f64,
    /// Share of delivered node-seconds that went to backfilled jobs —
    /// the EASY-backfill efficiency under this mix.
    pub backfill_node_share: f64,
    /// Discrete events processed.
    pub events: u64,
    /// Deepest simultaneous registry-pull storm.
    pub peak_registry_flows: usize,
    /// Deepest simultaneous parallel-filesystem storm.
    pub peak_pfs_flows: usize,
    /// Per-runtime tails, in env-mix menu order.
    pub per_runtime: Vec<RuntimeOpenStats>,
}

/// Expand a scenario's [`OpenSpec`] into its class cross product (node
/// menu outermost, then workload, then runtime — a job's `class` index
/// is `(ni * W + wi) * E + ei`).
///
/// The cluster is taken as-is except that every runtime on the menu is
/// *pretended installed* (version "modelled") — the study's what-if
/// framing, same as the campaign experiments. Class scenarios inherit
/// the base scenario's engine, shards, placement, taper, and rank shape;
/// deployment is always off (staging is the open engine's job), and
/// degraded uplinks outside a class's node count are dropped.
///
/// Every class scenario differs from the others only in node count,
/// workload and environment, and the engines see an environment only
/// through its [`EngineView`](harborsim_container::EngineView) on the
/// cluster's fabric. So two classes that agree on all three (engine view
/// in place of environment) compile to plans that give equal outcomes for
/// every seed, and each points its [`OpenClass::solver`] at the first of
/// them. Which environments collapse depends on the fabric: on Ethernet
/// containment selects no different transport, so self-contained and
/// system-specific images of one host-network runtime collapse too.
///
/// # Panics
/// Panics if the scenario has no open spec or a workload name is not in
/// the registry (script compilation validates both).
pub fn class_table(base: &Scenario) -> Vec<OpenClass> {
    let spec = base
        .open
        .as_ref()
        .expect("class_table needs a scenario with an open-campaign spec");
    let mut cluster = ClusterSpec::clone(&base.cluster);
    for env in &spec.env_mix.values {
        let slot = match env.runtime {
            RuntimeKind::BareMetal => None,
            RuntimeKind::Docker => Some(&mut cluster.software.docker),
            RuntimeKind::Singularity => Some(&mut cluster.software.singularity),
            RuntimeKind::Shifter => Some(&mut cluster.software.shifter),
        };
        if let Some(slot) = slot {
            if slot.is_none() {
                *slot = Some("modelled".into());
            }
        }
    }
    let fabric = cluster.interconnect;
    let cluster = Arc::new(cluster);
    let mut classes = Vec::new();
    // what each class is to the engines, in class order
    let mut kinds = Vec::new();
    for &nodes in &spec.node_mix.values {
        for workload in &spec.workload_mix.values {
            for &env in &spec.env_mix.values {
                let case = workloads::by_name(workload)
                    .unwrap_or_else(|| panic!("unknown workload `{workload}` in an open mix"));
                let kind = (nodes, workload, env.engine_view(fabric));
                let solver = kinds.iter().position(|k| *k == kind).unwrap_or(kinds.len());
                kinds.push(kind);
                classes.push(OpenClass {
                    label: format!("{workload} \u{d7}{nodes} {}", env.label()),
                    nodes,
                    env,
                    scenario: Scenario {
                        cluster: Arc::clone(&cluster),
                        case,
                        env,
                        nodes,
                        ranks_per_node: base.ranks_per_node,
                        threads_per_rank: base.threads_per_rank,
                        engine: base.engine,
                        deploy: false,
                        placement: base.placement,
                        spine_taper: base.spine_taper,
                        degraded_uplinks: base
                            .degraded_uplinks
                            .iter()
                            .copied()
                            .filter(|&(node, _)| node < nodes)
                            .collect(),
                        shards: base.shards,
                        open: None,
                    },
                    solver,
                });
            }
        }
    }
    classes
}

/// Run one open campaign: solve each distinct [`OpenClass::solver`] once
/// for `seed` in one lab batch (shared plans, bit-identical under sharded
/// DES), give every class its solver's time, sample the arrival stream
/// from `seed`, and drive the open scheduler. Spans flow through `rec` on
/// per-job tracks.
///
/// A class that shares a solver is never compiled here. That hides no
/// error: the only compile check that reads the runtime itself is its
/// availability, which [`class_table`]'s pretend-installed stack grants
/// every class.
///
/// # Errors
/// Any solver scenario that fails to compile (placement, image build)
/// surfaces here.
///
/// # Panics
/// Panics if the scenario has no open spec.
pub fn run_open_campaign(
    lab: &QueryEngine,
    scenario: &Scenario,
    seed: u64,
    rec: &mut Recorder,
) -> Result<OpenReport, HarborError> {
    let spec = scenario
        .open
        .clone()
        .expect("run_open_campaign needs a scenario with an open-campaign spec");
    let n_env = spec.env_mix.values.len();
    // one lab batch solves each distinct solver class for this seed
    let mut solvers = Vec::new();
    let mut queries = Vec::new();
    for (i, class) in class_table(scenario).into_iter().enumerate() {
        if class.solver == i {
            queries.push(Query::new(class.scenario, &[seed]));
        }
        solvers.push(class.solver);
    }
    let mut solved = lab.run_batch(queries, &mut Recorder::off()).into_iter();
    let mut solver_s: Vec<f64> = Vec::with_capacity(solvers.len());
    for (i, &solver) in solvers.iter().enumerate() {
        // a solver precedes every class that shares it
        let s = if solver == i {
            let outcomes = solved.next().expect("one batch result per solver")?;
            outcomes[0].elapsed.as_secs_f64()
        } else {
            solver_s[solver]
        };
        solver_s.push(s);
    }
    let image = shared_alya_image(&scenario.cluster.node.cpu)?;
    let registry_bps = REGISTRY_UPLINK_BPS;
    let pfs_bps = scenario
        .cluster
        .shared_storage
        .shared_bandwidth_bps(scenario.cluster.node_count);

    // sample the arrival stream
    let mut rng = RngStream::new(seed).derive("open-campaign");
    let poisson = Poisson::new(spec.rate_per_s);
    let z_nodes = Zipf::new(spec.node_mix.s, spec.node_mix.values.len());
    let z_work = Zipf::new(spec.workload_mix.s, spec.workload_mix.values.len());
    let z_env = Zipf::new(spec.env_mix.s, spec.env_mix.values.len());
    let mut warm: HashSet<(u32, RuntimeKind)> = HashSet::new();
    let mut runtimes: Vec<RuntimeOpenStats> = Vec::new();
    for env in &spec.env_mix.values {
        if !runtimes.iter().any(|s| s.runtime == env.runtime) {
            runtimes.push(RuntimeOpenStats::empty(env.runtime));
        }
    }
    let mut jobs = Vec::new();
    let mut t = 0.0;
    while {
        t += poisson.next_gap_s(&mut rng);
        t <= spec.horizon_s
    } {
        let tenant = rng.below(u64::from(spec.tenants.max(1))) as u32;
        let ni = z_nodes.sample(&mut rng);
        let wi = z_work.sample(&mut rng);
        let ei = z_env.sample(&mut rng);
        let class = (ni * spec.workload_mix.values.len() + wi) * n_env + ei;
        let env = spec.env_mix.values[ei];
        let nodes = spec.node_mix.values[ni];
        let cold = warm.insert((tenant, env.runtime));
        if cold {
            let s = runtimes
                .iter_mut()
                .find(|s| s.runtime == env.runtime)
                .expect("menu runtime");
            s.cold_pulls += 1;
        }
        let stage = StagePlan::for_job(env, &image, nodes, scenario.ranks_per_node, !cold);
        // the walltime request a user would file: generous padding over
        // the uncontended estimate, so reservations stay conservative
        let walltime_s =
            1.3 * solver_s[class] + 3.0 * stage.solo_seconds(registry_bps, pfs_bps) + 600.0;
        jobs.push(OpenJob {
            id: jobs.len() as u32,
            tenant,
            class,
            nodes,
            submit_s: t,
            solver_s: solver_s[class],
            walltime_s,
            stage,
        });
    }

    let outcome = run_open(
        &OpenCluster {
            total_nodes: scenario.cluster.node_count,
            registry_bps,
            pfs_bps,
        },
        jobs,
        rec,
    );
    for r in &outcome.records {
        let runtime = spec.env_mix.values[r.class % n_env].runtime;
        let s = runtimes
            .iter_mut()
            .find(|s| s.runtime == runtime)
            .expect("record runtime comes from the menu");
        s.jobs += 1;
        s.wait.observe(r.wait_s);
        s.stage.observe(r.stage_s);
        let slowdown = (r.turnaround_s() / r.run_s.max(SLOWDOWN_FLOOR_S)).max(1.0);
        s.slowdown.observe(slowdown);
    }
    Ok(OpenReport {
        jobs: outcome.records.len() as u64,
        makespan_s: outcome.makespan_s,
        utilization: outcome.utilization,
        backfill_node_share: outcome.backfill_node_share,
        events: outcome.events,
        peak_registry_flows: outcome.peak_registry_flows,
        peak_pfs_flows: outcome.peak_pfs_flows,
        per_runtime: runtimes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EngineKind;
    use harborsim_container::Containment;
    use harborsim_hw::presets;

    fn base(cluster: harborsim_hw::ClusterSpec, spec: OpenSpec) -> Scenario {
        Scenario::new(cluster, workloads::artery_cfd_small())
            .ranks_per_node(8)
            .open_campaign(spec)
    }

    fn small_spec() -> OpenSpec {
        OpenSpec {
            rate_per_s: 0.02,
            horizon_s: 600.0,
            tenants: 3,
            node_mix: MixSpec {
                s: 1.3,
                values: vec![1, 2],
            },
            workload_mix: MixSpec::single("cfd-small".into()),
            env_mix: MixSpec {
                s: 1.1,
                values: vec![Execution::docker(), Execution::shifter()],
            },
        }
    }

    #[test]
    fn class_table_covers_the_cross_product_and_pretends_installed() {
        // marenostrum4 ships Singularity only; the menu wants Docker and
        // Shifter, so the table must install them as "modelled"
        let scenario = base(presets::marenostrum4(), small_spec());
        let classes = class_table(&scenario);
        // 2 node values x 1 workload x 2 envs
        assert_eq!(classes.len(), 4);
        let lab = QueryEngine::new();
        for c in &classes {
            assert!(!c.scenario.deploy);
            assert!(c.scenario.open.is_none());
            lab.plan(&c.scenario)
                .unwrap_or_else(|e| panic!("{}: {e}", c.label));
        }
        assert_eq!(
            classes[0].scenario.cluster.software.docker.as_deref(),
            Some("modelled")
        );
        // index convention: runtime innermost
        assert_eq!(classes[0].env.runtime, RuntimeKind::Docker);
        assert_eq!(classes[1].env.runtime, RuntimeKind::Shifter);
        assert_eq!(classes[0].nodes, 1);
        assert_eq!(classes[2].nodes, 2);
        // Docker's bridge and Shifter's host network are told apart
        for (i, c) in classes.iter().enumerate() {
            assert_eq!(c.solver, i, "{}", c.label);
        }
    }

    #[test]
    fn campaigns_are_bit_identical_per_seed() {
        let lab = QueryEngine::new();
        let run = |seed| {
            let scenario = base(presets::lenox(), small_spec());
            run_open_campaign(&lab, &scenario, seed, &mut Recorder::off()).expect("runs")
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same bits");
        assert!(a.jobs > 0, "600 s at 0.02/s should sample some jobs");
        assert!(a.utilization > 0.0 && a.utilization <= 1.0);
        let c = run(43);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seed, different stream"
        );
    }

    #[test]
    fn cold_pulls_are_once_per_tenant_and_runtime() {
        let lab = QueryEngine::new();
        let spec = OpenSpec {
            rate_per_s: 0.05,
            horizon_s: 600.0,
            tenants: 2,
            node_mix: MixSpec::single(1),
            workload_mix: MixSpec::single("cfd-small".into()),
            env_mix: MixSpec::single(Execution {
                runtime: RuntimeKind::Docker,
                containment: Containment::SelfContained,
            }),
        };
        let scenario = base(presets::lenox(), spec);
        let report = run_open_campaign(&lab, &scenario, 7, &mut Recorder::off()).expect("runs");
        let docker = &report.per_runtime[0];
        assert_eq!(docker.runtime, RuntimeKind::Docker);
        assert!(docker.jobs >= docker.cold_pulls);
        assert!(docker.cold_pulls <= 2, "at most one cold pull per tenant");
        assert!(docker.cold_pulls >= 1);
        assert_eq!(docker.jobs, report.jobs);
        assert_eq!(docker.wait.count(), report.jobs);
    }

    #[test]
    fn quantiles_order_and_slowdown_floor_hold() {
        let lab = QueryEngine::new();
        let scenario = base(presets::lenox(), small_spec()).engine(EngineKind::Des {
            max_steps_per_kind: 2,
        });
        let report = run_open_campaign(&lab, &scenario, 11, &mut Recorder::off()).expect("runs");
        for s in &report.per_runtime {
            if s.jobs == 0 {
                continue;
            }
            assert!(s.wait.p999() >= s.wait.p99());
            assert!(s.wait.p99() >= s.wait.p50());
            assert!(
                s.slowdown.p50() >= 1.0 - QuantileSketch::relative_error() - 1e-9,
                "bounded slowdown floor (within sketch error)"
            );
            assert!(s.stage.p50() > 0.0, "every job stages something");
        }
    }
}
