//! A multi-seed, multi-point deployment sweep must build the container
//! image exactly once: compilation shares one `BuildEngine` run per CPU
//! model, and plan execution never rebuilds.
//!
//! This lives in its own test binary so the process-wide build counter
//! ([`harborsim::container::builds_executed`]) sees no unrelated builds.

use harborsim::container::builds_executed;
use harborsim::hw::presets;
use harborsim::study::lab::{LabRequest, QueryEngine};
use harborsim::study::runner::default_seeds;
use harborsim::study::scenario::{Execution, Scenario};
use harborsim::study::workloads;

/// Mean elapsed seconds per scenario, as one batch through a fresh engine
/// (no plan shared with any other sweep).
fn sweep(scenarios: impl IntoIterator<Item = Scenario>, seeds: &[u64]) -> Vec<f64> {
    QueryEngine::new()
        .handle(LabRequest::batch(scenarios, seeds))
        .means()
}

#[test]
fn multi_seed_deployment_sweep_builds_one_image() {
    let mk = |nodes: u32| {
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(nodes)
            .ranks_per_node(14)
            .with_deployment()
    };

    let before = builds_executed();
    let times = sweep([1u32, 2, 4].map(mk), default_seeds());
    let after = builds_executed();

    assert_eq!(times.len(), 3);
    assert!(times.iter().all(|t| *t > 0.0));
    assert_eq!(
        after - before,
        1,
        "3 sweep points x 5 seeds with deployment must share one image build"
    );

    // and a second sweep on the same CPU model reuses the cached image:
    // zero further builds
    let again = sweep([2u32, 3].map(mk), &[1, 2, 3]);
    assert_eq!(again.len(), 2);
    assert_eq!(
        builds_executed() - after,
        0,
        "image cache must be shared across sweeps"
    );
}
