//! Golden determinism tests for the compile-once API: a compiled
//! [`ScenarioPlan`] must produce bit-identical results to the one-shot
//! `try_run` path, for both engines, across seeds and repeated executions.
//! An analytic plan costs its job on its first execute and only replays
//! that table afterwards, so a warm plan must answer exactly as a fresh
//! one does, and must cost its job once.

use harborsim::des::trace::{Recorder, TraceBuffer};
use harborsim::hw::presets;
use harborsim::mpi::Placement;
use harborsim::study::lab::{LabRequest, LabResponse, QueryEngine};
use harborsim::study::scenario::{EngineKind, Execution, Outcome, Scenario};
use harborsim::study::traceviz::chrome_trace_json;
use harborsim::study::workloads;
use std::sync::Barrier;

fn scenario(engine: EngineKind) -> Scenario {
    Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
        .execution(Execution::singularity_system_specific())
        .nodes(2)
        .ranks_per_node(24)
        .threads_per_rank(2)
        .engine(engine)
}

#[test]
fn plan_execution_is_bit_identical_to_try_run() {
    for engine in [
        EngineKind::Analytic,
        EngineKind::Des {
            max_steps_per_kind: 3,
        },
    ] {
        let sc = scenario(engine);
        let plan = sc.compile().expect("compiles");
        for seed in [0u64, 1, 42, 1 << 40, u64::MAX] {
            let via_plan = plan.execute(seed, &mut Recorder::aggregating());
            let via_run = sc.try_run(seed).expect("runs");
            assert_eq!(
                via_plan.elapsed.as_secs_f64().to_bits(),
                via_run.elapsed.as_secs_f64().to_bits(),
                "elapsed diverged for seed {seed}"
            );
            assert_eq!(
                via_plan.result.compute.as_secs_f64().to_bits(),
                via_run.result.compute.as_secs_f64().to_bits(),
                "compute diverged for seed {seed}"
            );
            assert_eq!(
                via_plan.result.inter_node_msgs,
                via_run.result.inter_node_msgs
            );
            assert_eq!(
                via_plan.result.inter_node_bytes,
                via_run.result.inter_node_bytes
            );
        }
    }
}

#[test]
fn repeated_plan_executions_do_not_drift() {
    let plan = scenario(EngineKind::Analytic).compile().expect("compiles");
    let first = plan
        .execute(9, &mut Recorder::off())
        .elapsed
        .as_secs_f64()
        .to_bits();
    for _ in 0..10 {
        assert_eq!(
            plan.execute(9, &mut Recorder::off())
                .elapsed
                .as_secs_f64()
                .to_bits(),
            first
        );
    }
}

#[test]
fn distinct_seeds_still_vary() {
    // determinism must not collapse into seed-independence: the jitter
    // model has to see the seed
    let plan = scenario(EngineKind::Analytic).compile().expect("compiles");
    let a = plan.execute(1, &mut Recorder::off()).elapsed.as_secs_f64();
    let b = plan.execute(2, &mut Recorder::off()).elapsed.as_secs_f64();
    assert_ne!(a.to_bits(), b.to_bits());
}

/// Every cluster preset, plus the plan shapes a cost table must carry
/// through unchanged: a single node (no fabric traffic, so no link
/// table), round-robin placement, a pinned taper, degraded uplinks and a
/// deployment.
fn warm_cold_scenarios() -> Vec<Scenario> {
    let mut out: Vec<Scenario> = presets::all()
        .into_iter()
        .map(|cluster| Scenario::new(cluster, workloads::artery_cfd_small()).nodes(2))
        .collect();
    let mn4 = || {
        Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
    };
    out.push(mn4().nodes(1).ranks_per_node(48));
    out.push(
        mn4()
            .nodes(4)
            .ranks_per_node(12)
            .placement(Placement::RoundRobin),
    );
    out.push(mn4().nodes(4).ranks_per_node(24).spine_taper(0.25));
    out.push(
        mn4()
            .nodes(4)
            .ranks_per_node(24)
            .degrade_node_uplink(1, 0.1)
            .degrade_node_uplink(3, 0.5),
    );
    out.push(
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_system_specific())
            .nodes(4)
            .ranks_per_node(28)
            .with_deployment(),
    );
    out
}

/// A captured trace as the bytes the chrome://tracing exporter writes.
fn trace_bytes(buf: TraceBuffer) -> String {
    chrome_trace_json(&[("run".to_string(), buf)])
}

#[test]
fn a_warm_plan_answers_exactly_as_a_fresh_one() {
    let seeds = [0u64, 1, 42, 1 << 40, u64::MAX];
    for sc in warm_cold_scenarios() {
        let what = format!(
            "{} {}x{} {:?}",
            sc.cluster.name, sc.nodes, sc.ranks_per_node, sc.placement
        );
        let warm = sc.compile().expect("compiles");
        warm.execute(7, &mut Recorder::off());
        for seed in seeds {
            let cold = sc
                .compile()
                .expect("compiles")
                .execute(seed, &mut Recorder::capturing());
            let warm_outcome = warm.execute(seed, &mut Recorder::capturing());
            assert_eq!(warm_outcome, cold, "{what}, seed {seed}");
            assert_eq!(
                trace_bytes(warm.capture_trace(seed)),
                trace_bytes(sc.compile().expect("compiles").capture_trace(seed)),
                "{what}, seed {seed}"
            );
        }
        if sc.nodes == 1 {
            assert!(warm
                .execute(3, &mut Recorder::off())
                .result
                .links
                .is_empty());
        }
        if sc.deploy {
            assert!(warm.execute(3, &mut Recorder::off()).deployment.is_some());
        }
        assert_eq!(warm.costings(), 1, "{what}");
    }
}

fn mn4_768_ranks() -> Scenario {
    Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
        .execution(Execution::singularity_self_contained())
        .nodes(16)
        .ranks_per_node(48)
}

#[test]
fn a_plan_costs_its_job_once_and_warm_executes_only_replay() {
    let lab = QueryEngine::new();
    let sc = mn4_768_ranks();
    let LabResponse::Plan(_) = lab.handle(LabRequest::Plan {
        scenario: Box::new(mn4_768_ranks()),
    }) else {
        panic!("a plan request answers with the plan");
    };
    let plan = lab.plan(&sc).expect("compiles");
    assert_eq!(
        plan.costings(),
        0,
        "describing a plan must not cost its job"
    );
    plan.execute(1, &mut Recorder::off());
    assert_eq!(plan.costings(), 1, "the first execute costs the job");
    for seed in 2..66 {
        plan.execute(seed, &mut Recorder::off());
        plan.execute(seed, &mut Recorder::aggregating());
        plan.capture_trace(seed);
    }
    assert_eq!(
        plan.costings(),
        1,
        "a warm execute must do no per-rank work"
    );

    let des = sc
        .engine(EngineKind::Des {
            max_steps_per_kind: 1,
        })
        .nodes(2)
        .compile()
        .expect("compiles");
    des.execute(1, &mut Recorder::off());
    assert_eq!(des.costings(), 0, "the DES keeps no per-plan cost");
}

#[test]
fn racing_first_executes_match_serial_ones() {
    let sc = mn4_768_ranks();
    let seeds = [0u64, 1, 2, 42, 1 << 20, 1 << 40, u64::MAX - 1, u64::MAX];
    let serial_plan = sc.compile().expect("compiles");
    let serial: Vec<Outcome> = seeds
        .iter()
        .map(|&seed| serial_plan.execute(seed, &mut Recorder::aggregating()))
        .collect();
    let plan = sc.compile().expect("compiles");
    let start = Barrier::new(seeds.len());
    let racing: Vec<Outcome> = std::thread::scope(|scope| {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let (plan, start) = (&plan, &start);
                scope.spawn(move || {
                    start.wait();
                    plan.execute(seed, &mut Recorder::aggregating())
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("execute panicked"))
            .collect()
    });
    assert_eq!(racing, serial);
    let costed = plan.costings();
    assert!((1..=8).contains(&costed), "{costed} costings");
    plan.execute(5, &mut Recorder::off());
    assert_eq!(
        plan.costings(),
        costed,
        "the kept table serves later executes"
    );
}
