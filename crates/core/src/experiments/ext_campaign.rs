//! Extension — campaign turnaround under a batch scheduler.
//!
//! One job is the paper's unit of measurement; a research campaign is the
//! user's. This experiment submits an 8-job CFD campaign (8 nodes each) to
//! the CTE-POWER model under FIFO + EASY backfill, once per technology, and
//! reports mean turnaround and per-job staging. Cross-job cache effects are
//! what make it interesting: Shifter's gateway conversion and Docker's
//! layer pulls are first-job costs; Docker's serialized per-rank launch is
//! an every-job cost.

use crate::experiments::{expect, ShapeReport};
use crate::lab::QueryEngine;
use crate::report::{fmt_seconds, TableData};
use crate::scenario::{shared_alya_image, Execution, Scenario};
use harborsim_batch::Campaign;
use harborsim_des::trace::Recorder;
use harborsim_hw::presets;

/// Jobs in the campaign.
pub const JOBS: u32 = 8;
/// Nodes per job.
pub const NODES_PER_JOB: u32 = 8;

/// The per-job case: a production-length CFD run (~4 minutes of solver
/// time on 8 CTE-POWER nodes — long enough that staging amortizes for
/// everyone except Docker's per-rank launch).
fn campaign_case() -> harborsim_alya::workload::ArteryCfd {
    harborsim_alya::workload::ArteryCfd {
        label: "artery-cfd-campaign".into(),
        active_cells: 20.0e6,
        timesteps: 5_000,
        cg_iters: 35,
    }
}

/// The campaign every row and trace runs: [`JOBS`] jobs of
/// [`NODES_PER_JOB`] CTE-POWER nodes at 40 ranks each, submitted 30 s
/// apart, all on the shared Alya image, under `env` with a solver time
/// of `solver_s` per job.
fn campaign(env: Execution, solver_s: f64) -> Campaign {
    let cluster = presets::cte_power();
    let image = shared_alya_image(&cluster.node.cpu).expect("builds");
    Campaign {
        cluster,
        env,
        image,
        jobs: JOBS,
        nodes_per_job: NODES_PER_JOB,
        ranks_per_node: 40,
        solver_seconds: solver_s,
        submit_interval_s: 30.0,
        registry_uplink_bps: 117e6,
    }
}

/// One technology's campaign outcome.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Technology label.
    pub label: String,
    /// First-job staging seconds (cold caches).
    pub first_staging_s: f64,
    /// Steady-state staging seconds (warm caches).
    pub warm_staging_s: f64,
    /// Mean turnaround seconds.
    pub mean_turnaround_s: f64,
    /// Machine utilization during the campaign.
    pub utilization: f64,
}

/// Run the campaign under each technology CTE-POWER offers (plus Docker,
/// modelled as if it were installed, for contrast).
pub fn run(lab: &QueryEngine, seeds: &[u64]) -> Vec<CampaignRow> {
    let cluster = presets::cte_power();
    let mut rows = Vec::new();
    for env in [
        Execution::bare_metal(),
        Execution::singularity_system_specific(),
        Execution::singularity_self_contained(),
        Execution::shifter(),
        Execution::docker(),
    ] {
        // solver time for this technology at the job's size; Docker and
        // Shifter are not installed on CTE-POWER, so pretend they are —
        // this experiment models what would happen if they were
        let solver_s = {
            let mut c = cluster.clone();
            c.software.docker = Some("modelled".into());
            c.software.shifter = Some("modelled".into());
            lab.handle(crate::lab::LabRequest::batch(
                [Scenario::new(c, campaign_case())
                    .execution(env)
                    .nodes(NODES_PER_JOB)
                    .ranks_per_node(40)],
                seeds,
            ))
            .means()[0]
        };
        let report = campaign(env, solver_s).run(&mut Recorder::off());
        rows.push(CampaignRow {
            label: env.label(),
            first_staging_s: report.staging_s[0],
            warm_staging_s: report.staging_s[JOBS as usize - 1],
            mean_turnaround_s: report.mean_turnaround_s(),
            utilization: report.utilization,
        });
    }
    rows
}

/// Capture the full campaign trace (deployments + queue/backfill/launch
/// spans) for two contrasting technologies, with a short solver time so
/// the scheduler dynamics dominate the picture.
pub fn traces() -> Vec<(String, harborsim_des::trace::TraceBuffer)> {
    [
        Execution::singularity_system_specific(),
        Execution::docker(),
    ]
    .iter()
    .map(|env| {
        let mut rec = Recorder::capturing();
        campaign(*env, 240.0).run(&mut rec);
        (env.label(), rec.take_buffer())
    })
    .collect()
}

/// Render as a table.
pub fn table(rows: &[CampaignRow]) -> TableData {
    TableData {
        id: "ext-campaign".into(),
        title: format!(
            "{JOBS}-job campaign on CTE-POWER ({NODES_PER_JOB} nodes/job, FIFO + EASY backfill)"
        ),
        headers: vec![
            "Technology".into(),
            "First-job staging".into(),
            "Warm staging".into(),
            "Mean turnaround".into(),
            "Utilization".into(),
        ],
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    fmt_seconds(r.first_staging_s),
                    fmt_seconds(r.warm_staging_s),
                    fmt_seconds(r.mean_turnaround_s),
                    format!("{:.0}%", r.utilization * 100.0),
                ]
            })
            .collect(),
    }
}

/// The campaign-level claims.
pub fn check_shape(rows: &[CampaignRow]) -> ShapeReport {
    let mut report = ShapeReport::new();
    let find = |label: &str| rows.iter().find(|r| r.label.contains(label));
    let (Some(bare), Some(ss), Some(sc), Some(shifter), Some(docker)) = (
        find("Bare-metal"),
        find("system-specific"),
        find("Singularity self-contained"),
        find("Shifter"),
        find("Docker"),
    ) else {
        report.push("missing rows".into());
        return report;
    };
    // warm staging amortizes the one-time costs
    expect(
        &mut report,
        shifter.first_staging_s > 3.0 * shifter.warm_staging_s,
        format!(
            "Shifter's gateway should be a first-job cost: {:.1}s -> {:.1}s",
            shifter.first_staging_s, shifter.warm_staging_s
        ),
    );
    expect(
        &mut report,
        docker.first_staging_s > 1.5 * docker.warm_staging_s,
        format!(
            "Docker's layer pulls should be a first-job cost: {:.1}s -> {:.1}s",
            docker.first_staging_s, docker.warm_staging_s
        ),
    );
    // ...but Docker's per-rank launch never amortizes
    expect(
        &mut report,
        docker.warm_staging_s > 10.0 * ss.warm_staging_s,
        format!(
            "Docker's per-rank daemon launch is an every-job cost: {:.1}s vs {:.1}s",
            docker.warm_staging_s, ss.warm_staging_s
        ),
    );
    // turnaround ordering: bare ~ system-specific < self-contained < docker
    expect(
        &mut report,
        ss.mean_turnaround_s < 1.05 * bare.mean_turnaround_s,
        "system-specific campaigns must match bare metal".into(),
    );
    expect(
        &mut report,
        sc.mean_turnaround_s > 1.3 * ss.mean_turnaround_s,
        format!(
            "self-contained pays the fallback transport every job: {:.0}s vs {:.0}s",
            sc.mean_turnaround_s, ss.mean_turnaround_s
        ),
    );
    expect(
        &mut report,
        docker.mean_turnaround_s > sc.mean_turnaround_s,
        "docker should trail everything".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_shape_holds() {
        let rows = run(&QueryEngine::new(), &[1]);
        assert_eq!(rows.len(), 5);
        let report = check_shape(&rows);
        assert!(report.is_empty(), "{report:#?}");
        let t = table(&rows);
        assert!(t.to_ascii().contains("campaign"));
    }
}
