//! A compiled scenario builds its route table exactly once, whichever
//! engine it selects, and executing any number of seeds builds no more:
//! routing is plan state, not per-run state.
//!
//! This lives in its own test binary so the process-wide construction
//! counter ([`harborsim::net::route_tables_built`]) sees no unrelated
//! tables.

use harborsim::des::trace::Recorder;
use harborsim::hw::presets;
use harborsim::net::route_tables_built;
use harborsim::study::lab::{LabRequest, QueryEngine};
use harborsim::study::runner::default_seeds;
use harborsim::study::scenario::{EngineKind, Execution, Scenario};
use harborsim::study::workloads;

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
        let before = route_tables_built();
        let plan = mk(engine).compile().expect("compiles");
        assert_eq!(
            route_tables_built() - before,
            1,
            "{engine:?}: compile builds the table exactly once"
        );
        for seed in default_seeds() {
            assert!(
                plan.execute(*seed, &mut Recorder::off())
                    .elapsed
                    .as_secs_f64()
                    > 0.0
            );
        }
        assert_eq!(
            route_tables_built() - before,
            1,
            "{engine:?}: executing seeds must not rebuild routes"
        );
    }

    // and a multi-point multi-seed sweep builds one table per point
    let before = route_tables_built();
    let points = [2u32, 3, 4].map(|n| {
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(n)
            .ranks_per_node(14)
    });
    let times = QueryEngine::new()
        .handle(LabRequest::batch(points, default_seeds()))
        .means();
    assert_eq!(times.len(), 3);
    assert_eq!(
        route_tables_built() - before,
        3,
        "3 sweep points x 5 seeds must build exactly 3 route tables"
    );
}
