//! A compiled scenario holds one route table, whichever engine it
//! selects, and executing any number of seeds builds no more: routing is
//! plan state, not per-run state.
//!
//! The checks read state the plan and the engine own: the plan's table
//! is the same allocation before and after its executes, and no execute
//! keeps a reference to it; a sweep through a [`QueryEngine`] compiles
//! one plan per point, each with its own table.

use harborsim::des::trace::Recorder;
use harborsim::hw::presets;
use harborsim::study::lab::{LabRequest, QueryEngine};
use harborsim::study::runner::default_seeds;
use harborsim::study::scenario::{EngineKind, Execution, Scenario};
use harborsim::study::workloads;
use std::sync::Arc;

#[test]
fn one_route_table_per_plan_zero_per_execute() {
    let mk = |engine| {
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(4)
            .ranks_per_node(14)
            .engine(engine)
    };

    for engine in [
        EngineKind::Analytic,
        EngineKind::Des {
            max_steps_per_kind: 3,
        },
    ] {
        let plan = mk(engine).compile().expect("compiles");
        let compiled = Arc::clone(plan.routes());
        assert_eq!(
            Arc::strong_count(&compiled),
            2,
            "{engine:?}: the compiled engine holds the only other handle on its table"
        );
        for seed in default_seeds() {
            assert!(
                plan.execute(*seed, &mut Recorder::off())
                    .elapsed
                    .as_secs_f64()
                    > 0.0
            );
        }
        assert!(
            Arc::ptr_eq(plan.routes(), &compiled),
            "{engine:?}: executing seeds must not rebuild routes"
        );
        assert_eq!(
            Arc::strong_count(&compiled),
            2,
            "{engine:?}: executes keep no handle on the table"
        );
    }

    // and a multi-point multi-seed sweep compiles one plan, with one
    // table, per point
    let point = |n: u32| {
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(n)
            .ranks_per_node(14)
    };
    let nodes = [2u32, 3, 4];
    let lab = QueryEngine::new();
    let times = lab
        .handle(LabRequest::batch(nodes.map(point), default_seeds()))
        .means();
    assert_eq!(times.len(), 3);
    assert_eq!(
        lab.plans_compiled(),
        3,
        "3 sweep points x 5 seeds must compile exactly 3 plans"
    );
    let tables: Vec<_> = nodes
        .map(|n| Arc::clone(lab.plan(&point(n)).expect("resident").routes()))
        .to_vec();
    assert_eq!(lab.plans_compiled(), 3, "the points are resident");
    assert!(!Arc::ptr_eq(&tables[0], &tables[1]) && !Arc::ptr_eq(&tables[1], &tables[2]));
}
