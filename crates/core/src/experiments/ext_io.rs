//! Extension — the paper's future-work item.
//!
//! *"Our study lacks a deeper evaluation of I/O and distributed storage
//! performance using containers"*. HarborSim implements the first slice of
//! that study: the **image-startup storm**. When a job starts on N nodes,
//! every node must fault in the container image's working set; where the
//! image lives (parallel filesystem vs node-local disk vs per-node registry
//! pulls) decides whether startup time is flat or linear in N.

use crate::experiments::{expect, ShapeReport};
use crate::report::{FigureData, Series};
use crate::scenario::Execution;
use harborsim_container::build::{alya_recipe, BuildEngine};
use harborsim_container::deploy::DeployPlan;
use harborsim_des::trace::Recorder;
use harborsim_hw::{presets, StorageSpec};

/// Node counts of the storm sweep.
pub const NODES: [u32; 5] = [4, 16, 64, 128, 256];

/// Regenerate the startup-storm figure: x = nodes, y = seconds until every
/// node's container is running.
pub fn run() -> FigureData {
    let cluster = presets::marenostrum4();
    let image = BuildEngine::self_contained(cluster.node.cpu.clone())
        .build(&alya_recipe())
        .expect("builds")
        .manifest;
    let storm = |env: Execution, storage: StorageSpec, cached: bool| -> Vec<(f64, f64)> {
        harborsim_par::run(NODES.to_vec(), |n| {
            let rep = DeployPlan {
                nodes: n,
                env,
                image: image.clone(),
                shared_storage: storage.clone(),
                registry_uplink_bps: 1.2e9,
                shifter_udi_cached: cached,
                docker_layers_cached: cached,
            }
            .run(&mut Recorder::off());
            (n as f64, rep.makespan.as_secs_f64())
        })
    };
    let series = vec![
        Series::new(
            "Singularity SIF on GPFS",
            storm(
                Execution::singularity_self_contained(),
                StorageSpec::gpfs(),
                false,
            ),
        ),
        Series::new(
            "Singularity SIF staged node-local",
            storm(
                Execution::singularity_self_contained(),
                StorageSpec::local_scratch(),
                false,
            ),
        ),
        Series::new(
            "Docker per-node registry pull",
            storm(Execution::docker(), StorageSpec::gpfs(), false),
        ),
        Series::new(
            "Docker warm layer caches",
            storm(Execution::docker(), StorageSpec::gpfs(), true),
        ),
        Series::new(
            "Shifter (UDI cached on GPFS)",
            storm(Execution::shifter(), StorageSpec::gpfs(), true),
        ),
    ];
    FigureData {
        id: "ext-io".into(),
        title: "Image-startup storm: time until all containers run".into(),
        x_label: "Nodes".into(),
        y_label: "Startup makespan [s]".into(),
        series,
    }
}

/// Capture one 16-node deployment trace per storm series (pull / unpack /
/// start spans, one track per node).
pub fn traces() -> Vec<(String, harborsim_des::trace::TraceBuffer)> {
    let cluster = presets::marenostrum4();
    let image = BuildEngine::self_contained(cluster.node.cpu.clone())
        .build(&alya_recipe())
        .expect("builds")
        .manifest;
    let cases: [(&str, Execution, StorageSpec, bool); 5] = [
        (
            "Singularity SIF on GPFS",
            Execution::singularity_self_contained(),
            StorageSpec::gpfs(),
            false,
        ),
        (
            "Singularity SIF staged node-local",
            Execution::singularity_self_contained(),
            StorageSpec::local_scratch(),
            false,
        ),
        (
            "Docker per-node registry pull",
            Execution::docker(),
            StorageSpec::gpfs(),
            false,
        ),
        (
            "Docker warm layer caches",
            Execution::docker(),
            StorageSpec::gpfs(),
            true,
        ),
        (
            "Shifter (UDI cached on GPFS)",
            Execution::shifter(),
            StorageSpec::gpfs(),
            true,
        ),
    ];
    cases
        .into_iter()
        .map(|(label, env, storage, cached)| {
            let mut rec = Recorder::capturing();
            DeployPlan {
                nodes: 16,
                env,
                image: image.clone(),
                shared_storage: storage,
                registry_uplink_bps: 1.2e9,
                shifter_udi_cached: cached,
                docker_layers_cached: cached,
            }
            .run(&mut rec);
            (label.to_string(), rec.take_buffer())
        })
        .collect()
}

/// Claims the extension is expected to demonstrate.
pub fn check_shape(fig: &FigureData) -> ShapeReport {
    let mut report = ShapeReport::new();
    let get = |label: &str, n: u32| {
        fig.series_named(label)
            .and_then(|s| s.y_at(n as f64))
            .unwrap_or(f64::NAN)
    };
    // node-local staging is flat in N
    let local4 = get("Singularity SIF staged node-local", 4);
    let local256 = get("Singularity SIF staged node-local", 256);
    expect(
        &mut report,
        local256 / local4 < 1.5,
        format!("node-local staging should be ~flat: {local4:.1}s -> {local256:.1}s"),
    );
    // per-node Docker pulls scale linearly and are worst at 256 nodes
    let docker256 = get("Docker per-node registry pull", 256);
    let docker4 = get("Docker per-node registry pull", 4);
    expect(
        &mut report,
        docker256 > 10.0 * docker4,
        format!("Docker pulls should scale ~linearly: {docker4:.1}s -> {docker256:.1}s"),
    );
    for label in [
        "Singularity SIF on GPFS",
        "Singularity SIF staged node-local",
        "Shifter (UDI cached on GPFS)",
    ] {
        expect(
            &mut report,
            get(label, 256) < docker256,
            format!("{label} should beat per-node Docker pulls at 256 nodes"),
        );
    }
    // GPFS absorbs the storm far better than per-node pulls but is not flat
    let gpfs256 = get("Singularity SIF on GPFS", 256);
    expect(
        &mut report,
        gpfs256 < 120.0,
        format!("GPFS storm at 256 nodes should stay under 2 minutes: {gpfs256:.1}s"),
    );
    // warm Docker caches make re-deployment flat and fast (second job of a
    // campaign) — but the first job still pays the full pull
    let warm256 = get("Docker warm layer caches", 256);
    expect(
        &mut report,
        warm256 < 3.0 && warm256 < docker256 / 20.0,
        format!(
            "warm Docker caches should deploy in seconds: {warm256:.1}s vs cold {docker256:.1}s"
        ),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_io_storm_shape() {
        let fig = run();
        assert_eq!(fig.series.len(), 5);
        let report = check_shape(&fig);
        assert!(report.is_empty(), "{report:#?}");
    }
}
