//! Open campaigns solve each class the performance engines can tell apart
//! once: `class_table` groups classes by node count, workload and
//! `ExecutionEnvironment::engine_view` on the cluster's fabric, and
//! `run_open_campaign` simulates one class per group.
//!
//! The grouping is sound only if the view is complete — everything a
//! compiled plan's engine reads of an environment. The first test checks
//! that on every paper cluster: environments with equal views must give
//! equal outcomes, seed for seed, on both engines.

use harborsim::des::trace::Recorder;
use harborsim::hw::{presets, ClusterSpec};
use harborsim::study::experiments::ext_open_system;
use harborsim::study::lab::QueryEngine;
use harborsim::study::scenario::{EngineKind, Execution, Outcome, Scenario};
use harborsim::study::script::compile_str;
use harborsim::study::{class_table, run_open_campaign, workloads, MixSpec, OpenSpec};

/// Every environment the study compares.
fn environments() -> Vec<Execution> {
    vec![
        Execution::bare_metal(),
        Execution::docker(),
        Execution::singularity_self_contained(),
        Execution::singularity_system_specific(),
        Execution::shifter(),
        Execution {
            containment: harborsim::container::Containment::SystemSpecific,
            ..Execution::shifter()
        },
    ]
}

/// `cluster` with every container runtime installed, as `class_table`
/// pretends.
fn with_every_runtime(mut cluster: ClusterSpec) -> ClusterSpec {
    for slot in [
        &mut cluster.software.docker,
        &mut cluster.software.singularity,
        &mut cluster.software.shifter,
    ] {
        slot.get_or_insert_with(|| "modelled".to_string());
    }
    cluster
}

const SEEDS: [u64; 4] = [0, 1, 42, u64::MAX];

fn outcomes(cluster: &ClusterSpec, env: Execution, engine: EngineKind) -> Vec<Outcome> {
    let plan = Scenario::new(cluster.clone(), workloads::artery_cfd_small())
        .execution(env)
        .nodes(2)
        .ranks_per_node(4)
        .engine(engine)
        .compile()
        .unwrap_or_else(|e| panic!("{} {}: {e}", cluster.name, env.label()));
    SEEDS
        .iter()
        .map(|&seed| plan.execute(seed, &mut Recorder::aggregating()))
        .collect()
}

#[test]
fn equal_engine_views_give_equal_outcomes() {
    let engines = [
        EngineKind::Analytic,
        EngineKind::Des {
            max_steps_per_kind: 2,
        },
    ];
    for cluster in presets::all().into_iter().map(with_every_runtime) {
        let fabric = cluster.interconnect;
        let envs = environments();
        for engine in engines {
            let runs: Vec<Vec<Outcome>> = envs
                .iter()
                .map(|&env| outcomes(&cluster, env, engine))
                .collect();
            let mut shared = 0;
            for (i, a) in envs.iter().enumerate() {
                for (j, b) in envs.iter().enumerate().skip(i + 1) {
                    let pair = format!(
                        "{} {engine:?}: {} vs {}",
                        cluster.name,
                        a.label(),
                        b.label()
                    );
                    if a.engine_view(fabric) == b.engine_view(fabric) {
                        shared += 1;
                        assert_eq!(runs[i], runs[j], "{pair}: equal views, different outcomes");
                    } else {
                        // the view is no finer than it must be: every
                        // difference in it shows in the elapsed time
                        assert_ne!(
                            runs[i][0].elapsed, runs[j][0].elapsed,
                            "{pair}: different views, same elapsed time"
                        );
                    }
                }
            }
            // Shifter and Singularity share a view at either containment
            assert!(shared >= 2, "{}: only {shared} shared views", cluster.name);
        }
    }
}

/// The script's first campaign's scenario.
fn campaign(script: &str) -> Scenario {
    let compiled = compile_str(script).expect("script compiles");
    let campaign = compiled.campaigns.into_iter().next().expect("a campaign");
    campaign.runs.into_iter().next().expect("a run").scenario
}

/// Check that `scenario`'s solver grouping is exactly the partition of
/// its classes by node count, workload and engine view, each group's
/// solver its first class; return the number of groups.
fn assert_partition(scenario: &Scenario) -> usize {
    let classes = class_table(scenario);
    let fabric = scenario.cluster.interconnect;
    let same = |a: usize, b: usize| {
        let (a, b) = (&classes[a], &classes[b]);
        a.nodes == b.nodes
            && a.scenario.case.memo_key() == b.scenario.case.memo_key()
            && a.env.engine_view(fabric) == b.env.engine_view(fabric)
    };
    let mut solvers = 0;
    for (i, class) in classes.iter().enumerate() {
        let first = (0..=i)
            .find(|&j| same(i, j))
            .expect("a class matches itself");
        assert_eq!(class.solver, first, "{}: solver", class.label);
        solvers += usize::from(first == i);
        for (j, other) in classes.iter().enumerate() {
            assert_eq!(
                class.solver == other.solver,
                same(i, j),
                "{} vs {}",
                class.label,
                other.label
            );
        }
    }
    solvers
}

fn open_on(
    cluster: ClusterSpec,
    nodes: Vec<u32>,
    work: Vec<&str>,
    envs: Vec<Execution>,
) -> Scenario {
    Scenario::new(cluster, workloads::artery_cfd_small())
        .ranks_per_node(4)
        .open_campaign(OpenSpec {
            rate_per_s: 0.01,
            horizon_s: 600.0,
            tenants: 2,
            node_mix: MixSpec {
                s: 1.1,
                values: nodes,
            },
            workload_mix: MixSpec {
                s: 1.1,
                values: work.into_iter().map(str::to_string).collect(),
            },
            env_mix: MixSpec {
                s: 1.1,
                values: envs,
            },
        })
}

#[test]
fn solver_grouping_is_the_partition_by_engine_view() {
    // the storm: Shifter and Singularity self-contained share a view on
    // Lenox's Ethernet, Docker's bridge keeps it apart
    assert_eq!(assert_partition(&campaign(ext_open_system::SCRIPT)), 6);
    // the smoke campaign's Docker and Shifter stay distinct
    let smoke = campaign(include_str!("../scripts/repro_open_quick.hsim"));
    assert_eq!(assert_partition(&smoke), class_table(&smoke).len());
    // one environment listed twice collapses
    let twice = open_on(
        presets::lenox(),
        vec![2],
        vec!["cfd-small"],
        vec![Execution::shifter(); 2],
    );
    assert_eq!(assert_partition(&twice), 1);
    // containment selects the transport only where the fabric needs
    // userspace drivers
    let singularity = || {
        vec![
            Execution::singularity_self_contained(),
            Execution::singularity_system_specific(),
        ]
    };
    let mn4 = open_on(
        presets::marenostrum4(),
        vec![2],
        vec!["cfd-small"],
        singularity(),
    );
    assert_eq!(assert_partition(&mn4), 2, "Omni-Path: containment matters");
    let lenox = open_on(presets::lenox(), vec![2], vec!["cfd-small"], singularity());
    assert_eq!(
        assert_partition(&lenox),
        1,
        "Ethernet: containment does not"
    );
    // every paper cluster, with repeated sizes and workloads on the menus
    for cluster in presets::all() {
        let fabric = cluster.interconnect;
        let mut views = Vec::new();
        for env in environments() {
            let view = env.engine_view(fabric);
            if !views.contains(&view) {
                views.push(view);
            }
        }
        let name = cluster.name.clone();
        let wide = open_on(
            cluster,
            vec![1, 2, 1],
            vec!["cfd-small", "fsi-small", "cfd-small"],
            environments(),
        );
        // 2 sizes x 2 workloads x the distinct views
        assert_eq!(assert_partition(&wide), 4 * views.len(), "{name}");
    }
}

#[test]
fn the_storm_compiles_one_plan_per_solver() {
    let scenario = campaign(ext_open_system::SCRIPT);
    let lab = QueryEngine::new();
    run_open_campaign(&lab, &scenario, 3, &mut Recorder::off()).expect("the storm runs");
    assert_eq!(lab.plans_compiled(), 6, "one plan per solver class");
    run_open_campaign(&lab, &scenario, 4, &mut Recorder::off()).expect("the storm runs");
    assert_eq!(lab.plans_compiled(), 6, "a second seed reuses every plan");
}
