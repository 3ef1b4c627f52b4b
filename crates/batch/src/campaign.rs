//! Containerized campaigns: what a research group actually experiences.
//!
//! A production study (like the paper's) is not one job but a campaign of
//! many. Technology choices compound across jobs:
//!
//! - Shifter's gateway conversion and Docker's node-layer caches are paid
//!   by the *first* job and amortized by the rest;
//! - Docker's per-rank daemon launch is paid by *every* job;
//! - queue dynamics (FIFO + backfill) sit on top.
//!
//! [`Campaign::run`] simulates each job's deployment and launch, then
//! hands the jobs to the open-system engine ([`run_open`]) as ordinary
//! traffic on its one queue. Staging is already paid inside each job's
//! runtime, so the jobs carry an empty [`StagePlan`].

use crate::open::{run_open, OpenCluster, OpenJob};
use harborsim_container::deploy::DeployPlan;
use harborsim_container::launch::LaunchModel;
use harborsim_container::runtime::{ExecutionEnvironment, RuntimeKind};
use harborsim_container::{ImageManifest, StagePlan};
use harborsim_des::trace::Recorder;
use harborsim_hw::ClusterSpec;

/// A campaign of identical jobs under one technology.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The machine (its node count bounds concurrency).
    pub cluster: ClusterSpec,
    /// Technology under test.
    pub env: ExecutionEnvironment,
    /// The image every job uses.
    pub image: ImageManifest,
    /// Number of jobs.
    pub jobs: u32,
    /// Nodes per job.
    pub nodes_per_job: u32,
    /// Ranks per node (drives the launch cost).
    pub ranks_per_node: u32,
    /// Solver elapsed time per job, seconds (take it from a `Scenario`).
    pub solver_seconds: f64,
    /// Submission spacing, seconds (0 = all at once).
    pub submit_interval_s: f64,
    /// Registry uplink, bytes/s.
    pub registry_uplink_bps: f64,
}

/// Campaign outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-job staging (deploy + launch) seconds, submission order.
    pub staging_s: Vec<f64>,
    /// Per-job turnaround seconds (submit → end), submission order.
    pub turnaround_s: Vec<f64>,
    /// Campaign makespan, seconds.
    pub makespan_s: f64,
    /// Machine utilization during the campaign.
    pub utilization: f64,
}

impl CampaignReport {
    /// Mean turnaround.
    pub fn mean_turnaround_s(&self) -> f64 {
        self.turnaround_s.iter().sum::<f64>() / self.turnaround_s.len().max(1) as f64
    }
}

impl Campaign {
    /// Execute the campaign, forwarding deployment spans (per job) and the
    /// scheduler's queue/backfill/launch spans through `rec`. Pass
    /// [`Recorder::off`] for the untraced path.
    pub fn run(&self, rec: &mut Recorder) -> CampaignReport {
        assert!(self.jobs > 0);
        let launch = LaunchModel::default();
        let mut staging_s = Vec::with_capacity(self.jobs as usize);
        let mut jobs = Vec::with_capacity(self.jobs as usize);
        for j in 0..self.jobs {
            let warm = j > 0;
            let deploy = DeployPlan {
                nodes: self.nodes_per_job,
                env: self.env,
                image: self.image.clone(),
                shared_storage: self.cluster.shared_storage.clone(),
                registry_uplink_bps: self.registry_uplink_bps,
                shifter_udi_cached: warm && self.env.runtime == RuntimeKind::Shifter,
                docker_layers_cached: warm && self.env.runtime == RuntimeKind::Docker,
            }
            .run(rec);
            let stage = deploy.makespan.as_secs_f64()
                + launch.launch_seconds(self.env.runtime, self.nodes_per_job, self.ranks_per_node);
            // staging is billed inside the job's runtime, not as its own
            // fixed latency: the runtime rounds to nanoseconds once
            let runtime = stage + self.solver_seconds;
            staging_s.push(stage);
            jobs.push(OpenJob {
                id: j,
                tenant: 0,
                class: 0,
                nodes: self.nodes_per_job,
                submit_s: j as f64 * self.submit_interval_s,
                solver_s: runtime,
                walltime_s: runtime * 1.3 + 60.0,
                stage: StagePlan {
                    registry_bytes: 0.0,
                    pfs_bytes: 0.0,
                    fixed_s: 0.0,
                },
            });
        }
        // the engine's pipes carry no bytes here; they get the machine's
        // capacities all the same
        let cluster = OpenCluster {
            total_nodes: self.cluster.node_count,
            registry_bps: self.registry_uplink_bps,
            pfs_bps: self
                .cluster
                .shared_storage
                .shared_bandwidth_bps(self.cluster.node_count),
        };
        let out = run_open(&cluster, jobs, rec);
        CampaignReport {
            staging_s,
            turnaround_s: out.records.iter().map(|r| r.turnaround_s()).collect(),
            makespan_s: out.makespan_s,
            utilization: out.utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harborsim_container::build::{alya_recipe, BuildEngine};
    use harborsim_hw::presets;

    fn campaign(runtime: RuntimeKind, jobs: u32) -> Campaign {
        let cluster = presets::cte_power();
        let image = BuildEngine::self_contained(cluster.node.cpu.clone())
            .build(&alya_recipe())
            .unwrap()
            .manifest;
        Campaign {
            cluster,
            env: ExecutionEnvironment {
                runtime,
                containment: harborsim_container::Containment::SelfContained,
            },
            image,
            jobs,
            nodes_per_job: 8,
            ranks_per_node: 40,
            solver_seconds: 600.0,
            submit_interval_s: 0.0,
            registry_uplink_bps: 117e6,
        }
    }

    #[test]
    fn shifter_amortizes_the_gateway() {
        let rep = campaign(RuntimeKind::Shifter, 4).run(&mut Recorder::off());
        assert!(
            rep.staging_s[0] > 3.0 * rep.staging_s[1],
            "first job pays the conversion: {:?}",
            rep.staging_s
        );
        assert!((rep.staging_s[1] - rep.staging_s[3]).abs() < 1e-6);
    }

    #[test]
    fn singularity_campaign_beats_docker_campaign() {
        let sing = campaign(RuntimeKind::Singularity, 4).run(&mut Recorder::off());
        let dock = campaign(RuntimeKind::Docker, 4).run(&mut Recorder::off());
        assert!(
            sing.mean_turnaround_s() < dock.mean_turnaround_s(),
            "singularity {} vs docker {}",
            sing.mean_turnaround_s(),
            dock.mean_turnaround_s()
        );
        // ... and the gap is the staging + per-rank launch, not the solver
        for (s, d) in sing.staging_s.iter().zip(&dock.staging_s) {
            assert!(d > s, "docker staging {d} vs singularity {s}");
        }
    }

    #[test]
    fn queue_serializes_when_machine_is_small() {
        // 8 nodes/job x 4 jobs on a 52-node machine: 6 fit side by side, so
        // with simultaneous submission all four run concurrently
        let rep = campaign(RuntimeKind::Singularity, 4).run(&mut Recorder::off());
        let first = rep.turnaround_s[0];
        for t in &rep.turnaround_s {
            assert!((t - first).abs() < 2.0, "{:?}", rep.turnaround_s);
        }
        // 7 jobs exceed the machine (7x8=56 > 52): the last must queue
        let rep7 = campaign(RuntimeKind::Singularity, 7).run(&mut Recorder::off());
        let max = rep7.turnaround_s.iter().cloned().fold(0.0, f64::max);
        let min = rep7.turnaround_s.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max > 1.5 * min,
            "one job must wait: {:?}",
            rep7.turnaround_s
        );
    }

    #[test]
    fn utilization_sane() {
        let rep = campaign(RuntimeKind::BareMetal, 3).run(&mut Recorder::off());
        assert!(rep.utilization > 0.0 && rep.utilization <= 1.0);
        assert_eq!(rep.turnaround_s.len(), 3);
    }
}
