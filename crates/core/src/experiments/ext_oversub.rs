//! Extension — spine oversubscription.
//!
//! The paper's machines differ not just in NIC technology but in how much
//! bandwidth their fabrics offer *above* the leaf switches. With the
//! routed link graph this is one knob — the spine taper — and this
//! extension sweeps it on the full-scale MareNostrum4 FSI configuration:
//! 256 nodes, 12,288 ranks, taper from non-blocking (1.0) down to 4:1
//! oversubscribed (0.25). The per-link utilization table of the worst
//! point shows *where* the machine saturates: the spine links, not the
//! node uplinks.

use crate::experiments::{expect, ShapeReport};
use crate::lab::QueryEngine;
use crate::report::{FigureData, Series, TableData};
use crate::scenario::{Execution, Scenario};
use crate::workloads;
use harborsim_alya::workload::AlyaCase;
use harborsim_mpi::workload::{CommPhase, JobProfile, StepProfile};
use harborsim_mpi::SimResult;

/// Spine tapers of the sweep, non-blocking first.
pub const TAPERS: [f64; 4] = [1.0, 0.8, 0.5, 0.25];

fn scenario(taper: f64) -> Scenario {
    Scenario::new(
        harborsim_hw::presets::marenostrum4(),
        workloads::artery_fsi_mn4(),
    )
    .execution(Execution::bare_metal())
    .nodes(256)
    .ranks_per_node(48)
    .spine_taper(taper)
}

/// A global transpose: rank `i` exchanges with rank `i + p/2`, so every
/// message crosses the spine. This is the spine-stress probe — Alya's own
/// traffic (leaf-local halos, bandwidth-optimal allreduce) bottlenecks on
/// the NICs even 4:1 oversubscribed, which the sweep itself shows; a
/// transpose is the canonical pattern that does saturate the spine.
pub struct TransposeCase;

impl AlyaCase for TransposeCase {
    fn name(&self) -> &str {
        "global-transpose"
    }

    fn memo_key(&self) -> Option<String> {
        // the profile is a pure function of the rank count
        Some("global-transpose".into())
    }

    fn job_profile(&self, ranks: u32) -> JobProfile {
        let half = ranks / 2;
        JobProfile::uniform(
            StepProfile {
                flops_per_rank: 1e8,
                imbalance: 1.0,
                regions: 1.0,
                comm: vec![CommPhase::Pairs {
                    pairs: (0..half).map(|i| (i, i + half)).collect(),
                    bytes: 100_000,
                }],
            },
            10,
        )
    }
}

/// The sweep's outputs: the slowdown curve and the spine-stress probe's
/// full result (whose link table names the bottleneck).
pub struct OversubStudy {
    /// x = spine taper, y = slowdown vs the non-blocking fabric.
    pub fig: FigureData,
    /// The taper-0.25 transpose probe, link counters included.
    pub worst: SimResult,
}

/// Regenerate the sweep.
pub fn run(lab: &QueryEngine, seeds: &[u64]) -> OversubStudy {
    let means = lab
        .handle(crate::lab::LabRequest::batch(
            TAPERS.iter().map(|&t| scenario(t)),
            seeds,
        ))
        .means();
    let times: Vec<(f64, f64)> = TAPERS.iter().copied().zip(means).collect();
    let t_full = times[0].1;
    let fig = FigureData {
        id: "ext-oversub".into(),
        title: "Spine oversubscription, artery FSI at 256 nodes (MareNostrum4)".into(),
        x_label: "Spine taper (fraction of injection bandwidth)".into(),
        y_label: "Slowdown vs non-blocking".into(),
        series: vec![Series::new(
            "Bare-metal",
            times.iter().map(|&(t, s)| (t, s / t_full)).collect(),
        )],
    };
    let worst = lab
        .handle(crate::lab::LabRequest::execute(
            Scenario::new(harborsim_hw::presets::marenostrum4(), TransposeCase)
                .execution(Execution::bare_metal())
                .nodes(256)
                .ranks_per_node(48)
                .spine_taper(*TAPERS.last().unwrap()),
            seeds[0],
        ))
        .into_outcome()
        .result;
    OversubStudy { fig, worst }
}

/// Per-link utilization of the most oversubscribed point, busiest first.
pub fn table(study: &OversubStudy) -> TableData {
    crate::traceviz::link_utilization(&study.worst)
}

/// The label of the busiest link (by fluid busy time) in a result.
pub fn busiest_link(result: &SimResult) -> Option<&str> {
    result
        .links
        .iter()
        .max_by(|a, b| a.busy_s.total_cmp(&b.busy_s))
        .map(|l| &*l.label)
}

/// The mechanism claims.
pub fn check_shape(study: &OversubStudy) -> ShapeReport {
    let mut report = ShapeReport::new();
    let get = |taper: f64| {
        study
            .fig
            .series_named("Bare-metal")
            .and_then(|s| s.y_at(taper))
            .unwrap_or(f64::NAN)
    };
    // tightening the spine can only slow the job down
    for w in TAPERS.windows(2) {
        let (wide, narrow) = (get(w[0]), get(w[1]));
        expect(
            &mut report,
            narrow >= wide - 1e-9,
            format!(
                "less spine bandwidth must not speed the job up: taper {} -> {:.3}x, taper {} -> {:.3}x",
                w[0], wide, w[1], narrow
            ),
        );
    }
    expect(
        &mut report,
        (get(1.0) - 1.0).abs() < 1e-9,
        "the non-blocking point is its own baseline".into(),
    );
    let worst = get(0.25);
    expect(
        &mut report,
        worst > 1.01,
        format!("4:1 oversubscription must visibly hurt at 12,288 ranks, got {worst:.3}x"),
    );
    // under spine-crossing traffic the bottleneck is where the taper
    // bites: a spine link, not a NIC
    match busiest_link(&study.worst) {
        Some(label) => expect(
            &mut report,
            label.contains("spine"),
            format!("busiest link under 4:1 oversubscription should be a spine link, got {label}"),
        ),
        None => report.push("taper-0.25 probe recorded no link usage".into()),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscription_shape() {
        let study = run(&QueryEngine::new(), &[1]);
        let report = check_shape(&study);
        assert!(report.is_empty(), "{report:#?}");
        let t = table(&study);
        assert!(t.rows[0][0].contains("spine"), "{:?}", t.rows[0]);
    }
}
