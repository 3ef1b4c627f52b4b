//! Differential determinism for open-system campaigns: the shard count
//! of the DES engine is an *execution* knob, not a model knob, so an
//! open campaign — whose per-class solver times come from sharded DES
//! plans — must be bit-identical serial vs any shard count, down to the
//! captured trace.
//!
//! The grid runs on MareNostrum4 with jobs wider than one leaf group
//! (48 nodes), the only regime where the conservative-parallel event
//! cores actually engage; on smaller topologies sharding falls back to
//! the serial loop and the test would pass vacuously.

use harborsim::des::trace::Recorder;
use harborsim::hw::presets;
use harborsim::study::lab::QueryEngine;
use harborsim::study::scenario::{EngineKind, Execution, Scenario};
use harborsim::study::{class_table, run_open_campaign, workloads, MixSpec, OpenSpec};

/// A short MareNostrum4 open campaign whose node mix straddles two leaf
/// groups. Low rate keeps the job count (and test time) small.
fn mn4_open(shards: u32) -> Scenario {
    mn4_open_over(vec![Execution::docker(), Execution::shifter()], shards)
}

/// [`mn4_open`] over another env mix.
fn mn4_open_over(envs: Vec<Execution>, shards: u32) -> Scenario {
    let spec = OpenSpec {
        rate_per_s: 0.004,
        horizon_s: 1500.0,
        tenants: 3,
        node_mix: MixSpec {
            s: 1.2,
            values: vec![50, 56],
        },
        workload_mix: MixSpec::single("cfd-small".to_string()),
        env_mix: MixSpec {
            s: 1.1,
            values: envs,
        },
    };
    Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
        .ranks_per_node(1)
        .engine(EngineKind::Des {
            max_steps_per_kind: 2,
        })
        .shards(shards)
        .open_campaign(spec)
}

#[test]
fn open_campaigns_are_bit_identical_across_shard_counts() {
    assert_bit_identical_across_shard_counts(mn4_open);
}

/// Shifter and Singularity self-contained share a view on Omni-Path (both
/// fall back to TCP on the host network), so their classes share one
/// solve: the shared solver times must stay shard-invariant on jobs that
/// span leaf groups.
#[test]
fn shared_solver_campaigns_are_bit_identical_across_shard_counts() {
    let envs = || {
        vec![
            Execution::shifter(),
            Execution::singularity_self_contained(),
        ]
    };
    let classes = class_table(&mn4_open_over(envs(), 1));
    assert_eq!(
        classes.iter().map(|c| c.solver).collect::<Vec<_>>(),
        [0, 0, 2, 2],
        "one solver per node count"
    );
    assert_bit_identical_across_shard_counts(|shards| mn4_open_over(envs(), shards));
}

/// Run `campaign(shards)` at 1, 2 and 4 shards; the report and the
/// captured trace must not change.
fn assert_bit_identical_across_shard_counts(campaign: impl Fn(u32) -> Scenario) {
    let lab = QueryEngine::new();
    let mut renders = Vec::new();
    let mut traces = Vec::new();
    for shards in [1, 2, 4] {
        let scenario = campaign(shards);
        let mut rec = Recorder::capturing();
        let report = run_open_campaign(&lab, &scenario, 7, &mut rec).expect("open campaign runs");
        assert!(report.jobs > 0, "shards {shards}: campaign sampled no jobs");
        renders.push(format!("{report:?}"));
        traces.push(rec.take_buffer());
    }
    assert_eq!(
        renders[0], renders[1],
        "open report must be bit-identical serial vs 2 shards"
    );
    assert_eq!(
        renders[0], renders[2],
        "open report must be bit-identical serial vs 4 shards"
    );
    assert!(!traces[0].is_empty(), "the capture recorded spans");
    assert_eq!(
        traces[0], traces[1],
        "trace must be bit-identical serial vs 2 shards"
    );
    assert_eq!(
        traces[0], traces[2],
        "trace must be bit-identical serial vs 4 shards"
    );
}

#[test]
fn different_seeds_give_different_campaigns() {
    let lab = QueryEngine::new();
    let scenario = mn4_open(1);
    let a = run_open_campaign(&lab, &scenario, 7, &mut Recorder::off()).expect("runs");
    let b = run_open_campaign(&lab, &scenario, 8, &mut Recorder::off()).expect("runs");
    assert_ne!(
        format!("{a:?}"),
        format!("{b:?}"),
        "the arrival process must actually depend on the seed"
    );
}
