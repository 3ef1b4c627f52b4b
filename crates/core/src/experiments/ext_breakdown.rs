//! Extension — where does the time go?
//!
//! The paper reports end-to-end times; this extension decomposes the
//! 112×1 Lenox configuration into compute / halo / allreduce / other for
//! each technology, and adds the *mechanism ablation* the paper couldn't
//! run: Docker with `--net=host` (host network namespace, cgroups kept).
//! If the bridge is really the culprit, host-network Docker must collapse
//! onto the bare-metal breakdown — and it does.
//!
//! Every number in the table is read off the captured trace (the shared
//! `Recorder` roll-up both engines emit through), not from engine-private
//! accounting.

use crate::experiments::{expect, ShapeReport};
use crate::lab::QueryEngine;
use crate::report::{fmt_seconds, TableData};
use crate::scenario::{Execution, Scenario};
use crate::workloads;
use harborsim_alya::workload::AlyaCase;
use harborsim_des::trace::{Recorder, SpanCategory, TraceBuffer};
use harborsim_des::SimTime;
use harborsim_mpi::analytic::{AnalyticEngine, EngineConfig};
use harborsim_mpi::{RankMap, SimResult};
use harborsim_net::{DataPath, NetworkModel, Topology, TransportSelection};

/// One decomposed run.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Technology label.
    pub label: String,
    /// Full engine result.
    pub result: SimResult,
    /// The captured trace the decomposition is read from.
    pub trace: TraceBuffer,
}

impl Breakdown {
    /// Seconds the trace recorded under `cat` (single analytic track, so
    /// totals are exact, not averages).
    pub fn seconds(&self, cat: SpanCategory) -> f64 {
        self.trace.total(cat).as_secs_f64()
    }

    /// End-to-end seconds, read from the top-level run span.
    pub fn elapsed_s(&self) -> f64 {
        self.seconds(SpanCategory::Run)
    }

    /// Total communication seconds across the four phase families.
    pub fn comm_s(&self) -> f64 {
        self.seconds(SpanCategory::Halo)
            + self.seconds(SpanCategory::Allreduce)
            + self.seconds(SpanCategory::Pairs)
            + self.seconds(SpanCategory::Other)
    }
}

/// Decompose the 112×1 configuration under every technology plus the
/// host-network Docker ablation.
pub fn run(lab: &QueryEngine, seed: u64) -> Vec<Breakdown> {
    let mut out = Vec::new();
    for env in [
        Execution::bare_metal(),
        Execution::singularity_self_contained(),
        Execution::shifter(),
        Execution::docker(),
    ] {
        let plan = lab
            .plan(
                &Scenario::new(
                    harborsim_hw::presets::lenox(),
                    workloads::artery_cfd_lenox(),
                )
                .execution(env)
                .nodes(4)
                .ranks_per_node(28),
            )
            .expect("breakdown scenario compiles");
        let mut rec = Recorder::capturing();
        // the four environments share one placement, so the lab counts
        // their traffic once
        let outcome = lab.execute_plan(&plan, seed, &mut rec);
        out.push(Breakdown {
            label: env.label(),
            result: outcome.result,
            trace: rec.take_buffer(),
        });
    }
    // the ablation: Docker's cgroup tax without its bridge network
    let cluster = harborsim_hw::presets::lenox();
    let case = workloads::artery_cfd_lenox();
    let map = RankMap::block(4, 28, 1);
    let mut rec = Recorder::capturing();
    let result = AnalyticEngine::new(
        cluster.node.clone(),
        NetworkModel::compose(
            cluster.interconnect,
            TransportSelection::Native,
            DataPath::Host,
            Topology::small_cluster(),
        ),
        map,
        EngineConfig {
            compute_tax: 1.02,
            ..EngineConfig::default()
        },
    )
    .run_traced(&case.job_profile(map.ranks()), seed, &mut rec);
    rec.span(
        SpanCategory::Run,
        "scenario-run",
        0,
        SimTime::ZERO,
        SimTime::ZERO + result.elapsed,
    );
    out.push(Breakdown {
        label: "Docker --net=host (modelled)".into(),
        result,
        trace: rec.take_buffer(),
    });
    out
}

/// The rows' captured traces, labelled, for export.
pub fn traces(rows: &[Breakdown]) -> Vec<(String, TraceBuffer)> {
    rows.iter()
        .map(|b| (b.label.clone(), b.trace.clone()))
        .collect()
}

/// Render the decomposition as a table.
pub fn table(rows: &[Breakdown]) -> TableData {
    TableData {
        id: "ext-breakdown".into(),
        title: "Time decomposition, artery CFD at 112x1 on Lenox".into(),
        headers: vec![
            "Technology".into(),
            "Compute".into(),
            "Halo".into(),
            "Allreduce".into(),
            "Other".into(),
            "Total".into(),
        ],
        rows: rows
            .iter()
            .map(|b| {
                vec![
                    b.label.clone(),
                    fmt_seconds(b.seconds(SpanCategory::Compute)),
                    fmt_seconds(b.seconds(SpanCategory::Halo)),
                    fmt_seconds(b.seconds(SpanCategory::Allreduce)),
                    fmt_seconds(b.seconds(SpanCategory::Other)),
                    fmt_seconds(b.elapsed_s()),
                ]
            })
            .collect(),
    }
}

/// The mechanism claims.
pub fn check_shape(rows: &[Breakdown]) -> ShapeReport {
    let mut report = ShapeReport::new();
    let find = |label: &str| rows.iter().find(|b| b.label.contains(label));
    let (Some(bare), Some(docker), Some(hostnet)) = (
        find("Bare-metal"),
        find("Docker self-contained"),
        find("net=host"),
    ) else {
        report.push("missing rows".into());
        return report;
    };
    // Docker's extra time is communication, not compute
    let extra_compute = docker.seconds(SpanCategory::Compute) - bare.seconds(SpanCategory::Compute);
    let extra_comm = docker.comm_s() - bare.comm_s();
    expect(
        &mut report,
        extra_comm > 5.0 * extra_compute.max(0.0),
        format!("Docker's penalty must be network-borne: comm +{extra_comm:.1}s vs compute +{extra_compute:.1}s"),
    );
    // host-network Docker collapses onto bare metal
    let rel = hostnet.elapsed_s() / bare.elapsed_s();
    expect(
        &mut report,
        (1.0..1.06).contains(&rel),
        format!("--net=host Docker should be within 6% of bare metal, got {rel:.3}x"),
    );
    // and far below bridge Docker
    expect(
        &mut report,
        docker.elapsed_s() > 1.25 * hostnet.elapsed_s(),
        "bridge Docker must clearly exceed host-network Docker".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_mechanism_holds() {
        let rows = run(&QueryEngine::new(), 1);
        assert_eq!(rows.len(), 5);
        let report = check_shape(&rows);
        assert!(report.is_empty(), "{report:#?}");
        let t = table(&rows);
        assert_eq!(t.rows.len(), 5);
        assert!(t.to_ascii().contains("net=host"));
    }

    #[test]
    fn the_four_environments_count_their_traffic_once() {
        // bare metal, Singularity, Shifter and Docker place the same 4x28
        // job on the same fabric: one count serves all four plans
        let lab = QueryEngine::new();
        run(&lab, 1);
        assert_eq!(lab.plans_compiled(), 4);
        assert_eq!(lab.traffic_stats().counted, 1);
    }

    #[test]
    fn trace_view_agrees_with_engine_result() {
        // the table is read from the trace; the engine result is a roll-up
        // of the same spans — single analytic track, so they agree exactly
        for b in run(&QueryEngine::new(), 2) {
            assert!(!b.trace.is_empty(), "{}", b.label);
            assert_eq!(
                b.seconds(SpanCategory::Compute),
                b.result.compute.as_secs_f64(),
                "{}",
                b.label
            );
            assert_eq!(b.elapsed_s(), b.result.elapsed.as_secs_f64(), "{}", b.label);
            assert_eq!(
                b.comm_s(),
                b.result.comm.total().as_secs_f64(),
                "{}",
                b.label
            );
        }
    }
}
