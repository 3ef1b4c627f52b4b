//! Pinned schedules for `batch::Campaign`.
//!
//! The `ext-campaign` table prints turnarounds rounded to a second, so a
//! scheduler change that moved a job by a few nanoseconds would pass the
//! study goldens. These tests pin the schedule itself: for each campaign,
//! an FNV-1a digest over the sorted `(track, name, start ns, end ns)` of
//! every `queue-wait`, `backfill-wait` and `job-run` span, plus the bit
//! patterns of the makespan and the utilization.
//!
//! The campaigns are `ext_campaign`'s five technologies on CTE-POWER
//! (8 jobs × 8 nodes, submitted 30 s apart, a fixed 240 s solver) and
//! one 7-job campaign submitted at once, which needs 56 of the machine's
//! 52 nodes, so its last job queues.
//!
//! A value here changes only when the scheduling model is meant to
//! change; say so in the change that re-records it.

use harborsim::batch::{Campaign, CampaignReport};
use harborsim::container::build::{alya_recipe, BuildEngine};
use harborsim::des::trace::Recorder;
use harborsim::hw::presets;
use harborsim::study::scenario::Execution;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The spans the scheduler decides.
const SCHEDULE_SPANS: [&str; 3] = ["queue-wait", "backfill-wait", "job-run"];

fn campaign(env: Execution, jobs: u32, submit_interval_s: f64) -> Campaign {
    let cluster = presets::cte_power();
    let image = BuildEngine::self_contained(cluster.node.cpu.clone())
        .build(&alya_recipe())
        .expect("builds")
        .manifest;
    Campaign {
        cluster,
        env,
        image,
        jobs,
        nodes_per_job: 8,
        ranks_per_node: 40,
        solver_seconds: 240.0,
        submit_interval_s,
        registry_uplink_bps: 117e6,
    }
}

/// One campaign's schedule: the span digest, the number of `job-run`
/// spans, the longest queue wait in ns, and the report.
fn schedule(c: &Campaign) -> (u64, usize, u64, CampaignReport) {
    let mut rec = Recorder::capturing();
    let report = c.run(&mut rec);
    let buf = rec.take_buffer();
    let mut spans: Vec<(u32, &str, u64, u64)> = buf
        .spans()
        .iter()
        .filter(|s| SCHEDULE_SPANS.contains(&s.name))
        .map(|s| (s.track, s.name, s.start.as_nanos(), s.end.as_nanos()))
        .collect();
    spans.sort_unstable();
    let mut h = FNV_OFFSET;
    for (track, name, start, end) in &spans {
        h = fnv(h, &track.to_le_bytes());
        h = fnv(h, name.as_bytes());
        h = fnv(h, &start.to_le_bytes());
        h = fnv(h, &end.to_le_bytes());
    }
    let runs = spans.iter().filter(|s| s.1 == "job-run").count();
    let max_wait = spans
        .iter()
        .filter(|s| s.1 != "job-run")
        .map(|s| s.3 - s.2)
        .max()
        .unwrap_or(0);
    (h, runs, max_wait, report)
}

/// `(campaign, span digest, makespan bits, utilization bits)`.
const PINNED: [(&str, u64, u64, u64); 6] = [
    (
        "bare-metal",
        0x7bab_5fa5_7b94_f580,
        0x407f_e717_e4b2_358c,
        0x3fe2_88f2_01ad_c583,
    ),
    (
        "singularity-system-specific",
        0xfef2_7040_a872_ffb7,
        0x4080_0464_3729_2e6f,
        0x3fe2_8a29_9a0e_bcfc,
    ),
    (
        "singularity-self-contained",
        0xfef2_7040_a872_ffb7,
        0x4080_0464_3729_2e6f,
        0x3fe2_8a29_9a0e_bcfc,
    ),
    (
        "shifter",
        0x6d8c_04bb_4ee2_5c12,
        0x4080_0aca_9d8f_94d6,
        0x3fe2_b6e6_0021_349d,
    ),
    (
        "docker",
        0x8b91_bd93_83d6_b495,
        0x4082_ff18_cdb6_1207,
        0x3fe2_cb37_69a8_288a,
    ),
    (
        "singularity-system-specific-7-at-once",
        0x3b70_eab2_cdfb_d9e1,
        0x407e_28c8_6e52_5cde,
        0x3fe1_3b13_b13b_13b1,
    ),
];

fn campaigns() -> [(&'static str, Campaign); 6] {
    [
        ("bare-metal", campaign(Execution::bare_metal(), 8, 30.0)),
        (
            "singularity-system-specific",
            campaign(Execution::singularity_system_specific(), 8, 30.0),
        ),
        (
            "singularity-self-contained",
            campaign(Execution::singularity_self_contained(), 8, 30.0),
        ),
        ("shifter", campaign(Execution::shifter(), 8, 30.0)),
        ("docker", campaign(Execution::docker(), 8, 30.0)),
        (
            "singularity-system-specific-7-at-once",
            campaign(Execution::singularity_system_specific(), 7, 0.0),
        ),
    ]
}

#[test]
fn campaign_schedules_are_pinned() {
    let mut got = Vec::new();
    for ((label, c), pinned) in campaigns().iter().zip(PINNED) {
        assert_eq!(*label, pinned.0);
        let (digest, runs, _, report) = schedule(c);
        assert_eq!(runs, c.jobs as usize, "{label}: one job-run span per job");
        got.push((
            *label,
            digest,
            report.makespan_s.to_bits(),
            report.utilization.to_bits(),
        ));
    }
    assert_eq!(got, PINNED, "campaign schedules moved");
}

#[test]
fn a_campaign_that_overfills_the_machine_queues() {
    let c = campaign(Execution::singularity_system_specific(), 7, 0.0);
    assert!(c.jobs * c.nodes_per_job > c.cluster.node_count);
    let (_, _, max_wait, report) = schedule(&c);
    assert!(max_wait > 0, "the seventh job must wait for nodes");
    let fastest = report.turnaround_s.iter().cloned().fold(f64::MAX, f64::min);
    let slowest = report.turnaround_s.iter().cloned().fold(0.0, f64::max);
    assert!(slowest > 1.5 * fastest, "{:?}", report.turnaround_s);
}
