//! Integration tests for the lab query engine: the plan-cache fingerprint
//! must distinguish every scenario-builder knob, and a storm of identical
//! concurrent queries must compile exactly one plan.
//!
//! The single-flight test reads the compile count of the engine it drives
//! ([`QueryEngine::plans_compiled`]), so sibling tests running in the same
//! binary cannot perturb it.

use std::sync::{Arc, Barrier};

use harborsim::hw::presets;
use harborsim::mpi::Placement;
use harborsim::study::lab::{PlanKey, QueryEngine};
use harborsim::study::scenario::{EngineKind, Execution, Scenario};
use harborsim::study::workloads;

fn base() -> Scenario {
    Scenario::new(presets::lenox(), workloads::artery_cfd_small())
        .execution(Execution::singularity_self_contained())
        .nodes(4)
        .ranks_per_node(8)
        .threads_per_rank(1)
}

fn key(scenario: Scenario) -> PlanKey {
    PlanKey::of(&scenario, None).expect("artery case opts into memoization")
}

/// Property over the whole builder surface: flipping any single knob —
/// cluster, case, execution environment, every shape axis, engine,
/// deployment, placement, taper, each degraded-link entry — must move the
/// fingerprint, and every pair of variants must stay distinct from every
/// other (one changed field must never cancel another).
#[test]
fn plan_key_distinguishes_every_builder_knob() {
    let variants: Vec<(&str, PlanKey)> = vec![
        ("base", key(base())),
        (
            "cluster",
            key(
                Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
                    .execution(Execution::singularity_self_contained())
                    .nodes(4)
                    .ranks_per_node(8)
                    .threads_per_rank(1),
            ),
        ),
        (
            "case",
            key(
                Scenario::new(presets::lenox(), workloads::artery_cfd_lenox())
                    .execution(Execution::singularity_self_contained())
                    .nodes(4)
                    .ranks_per_node(8)
                    .threads_per_rank(1),
            ),
        ),
        ("env", key(base().execution(Execution::bare_metal()))),
        ("nodes", key(base().nodes(8))),
        ("ranks_per_node", key(base().ranks_per_node(16))),
        ("threads_per_rank", key(base().threads_per_rank(2))),
        (
            "engine",
            key(base().engine(EngineKind::Des {
                max_steps_per_kind: 3,
            })),
        ),
        (
            "engine-budget",
            key(base().engine(EngineKind::Des {
                max_steps_per_kind: 4,
            })),
        ),
        ("deploy", key(base().with_deployment())),
        ("placement", key(base().placement(Placement::RoundRobin))),
        ("taper", key(base().spine_taper(0.5))),
        ("taper-value", key(base().spine_taper(0.25))),
        // a *different* taper value than the builder variants above: the
        // key stores the resolved taper, so builder 0.5 and fallback 0.5
        // coincide by design (asserted below)
        (
            "fallback-taper",
            PlanKey::of(&base(), Some(0.75)).expect("memoizable"),
        ),
        ("degraded", key(base().degrade_node_uplink(0, 0.5))),
        ("degraded-node", key(base().degrade_node_uplink(1, 0.5))),
        ("degraded-factor", key(base().degrade_node_uplink(0, 0.25))),
        (
            "degraded-pair",
            key(base()
                .degrade_node_uplink(0, 0.5)
                .degrade_node_uplink(1, 0.25)),
        ),
    ];
    for (i, (name_a, a)) in variants.iter().enumerate() {
        for (name_b, b) in variants.iter().skip(i + 1) {
            assert_ne!(a, b, "knob {name_a} and knob {name_b} collide");
        }
    }

    // sanity on the other direction: identical builders agree, the
    // explicit builder taper shadows the engine fallback, and the
    // degraded-link multiset is order-insensitive
    assert_eq!(key(base()), key(base()));
    assert_eq!(
        PlanKey::of(&base().spine_taper(0.5), Some(0.25)),
        PlanKey::of(&base().spine_taper(0.5), None),
        "an explicit builder taper must shadow the engine fallback"
    );
    assert_eq!(
        PlanKey::of(&base(), Some(0.5)),
        PlanKey::of(&base().spine_taper(0.5), None),
        "the resolved taper is what is fingerprinted, not its provenance"
    );
    assert_eq!(
        key(base()
            .degrade_node_uplink(0, 0.5)
            .degrade_node_uplink(1, 0.25)),
        key(base()
            .degrade_node_uplink(1, 0.25)
            .degrade_node_uplink(0, 0.5)),
        "degradation is multiplicative; entry order must not split the cache"
    );
}

/// A workload without a memo key is uncacheable by design, not an error.
#[test]
fn memoization_is_opt_in() {
    use harborsim::alya::workload::AlyaCase;
    use harborsim::mpi::workload::JobProfile;
    struct Anonymous;
    impl AlyaCase for Anonymous {
        fn name(&self) -> &str {
            "anonymous"
        }
        fn job_profile(&self, ranks: u32) -> JobProfile {
            workloads::artery_cfd_small().job_profile(ranks)
        }
    }
    let sc = Scenario::new(presets::lenox(), Anonymous)
        .nodes(2)
        .ranks_per_node(8);
    assert!(PlanKey::of(&sc, None).is_none());
}

/// The acceptance criterion of the single-flight cache: 64 threads racing
/// the same scenario through one engine must compile exactly one plan —
/// one miss, 63 hits or in-flight waits, nothing recompiled after the
/// winner lands.
#[test]
fn sixty_four_concurrent_identical_queries_compile_one_plan() {
    let lab = Arc::new(QueryEngine::new());
    let barrier = Arc::new(Barrier::new(64));
    let handles: Vec<_> = (0..64)
        .map(|_| {
            let lab = Arc::clone(&lab);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let plan = lab.plan(&base()).expect("scenario compiles");
                assert!(plan.rank_map().ranks() > 0);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("query thread panics");
    }
    assert_eq!(
        lab.plans_compiled(),
        1,
        "64 identical concurrent queries must share one compile"
    );
    let stats = lab.stats();
    assert_eq!(stats.misses, 1, "exactly one thread wins the compile");
    assert_eq!(
        stats.hits + stats.waits,
        63,
        "every loser is served the winner's plan"
    );
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.uncached, 0);
}

/// The point of sharding the plan cache: under the same 64-thread storm,
/// spreading keys over shards must not *increase* mutex contention, and
/// the per-shard counters must conserve the aggregate exactly (nothing
/// double- or under-counted when the locks split). On multi-core hosts
/// the single-mutex engine piles up try-lock failures that the sharded
/// engine avoids — when real contention shows up (hundreds of failed
/// try-locks), the reduction is asserted strictly. On a single hardware
/// thread both counts hover near zero and the difference is scheduler
/// noise, so the storms are aggregated over rounds and the comparison
/// carries one-failed-try-lock-per-thread slack rather than betting the
/// suite on a timing coin flip.
#[test]
fn sharding_reduces_lock_contention_under_the_storm() {
    use harborsim::study::lab::PlanCache;

    // 8 distinct scenarios -> 8 distinct plan keys (Lenox has 4 nodes,
    // so the grid is nodes x ranks-per-node)
    let scenarios: Vec<fn() -> Scenario> = vec![
        || base().nodes(1).ranks_per_node(4),
        || base().nodes(2).ranks_per_node(4),
        || base().nodes(3).ranks_per_node(4),
        || base().nodes(4).ranks_per_node(4),
        || base().nodes(1).ranks_per_node(8),
        || base().nodes(2).ranks_per_node(8),
        || base().nodes(3).ranks_per_node(8),
        || base().nodes(4).ranks_per_node(8),
    ];
    let storm = |lab: &Arc<QueryEngine>| {
        let barrier = Arc::new(Barrier::new(64));
        let handles: Vec<_> = (0..64)
            .map(|t| {
                let lab = Arc::clone(lab);
                let barrier = Arc::clone(&barrier);
                let mk = scenarios[t % scenarios.len()];
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..50 {
                        let plan = lab.plan(&mk()).expect("scenario compiles");
                        assert!(plan.rank_map().ranks() > 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("storm thread panics");
        }
    };

    let (mut s1, mut s8) = (0u64, 0u64);
    for _ in 0..3 {
        let single = Arc::new(QueryEngine::with_cache(PlanCache::with_shards(64, 1)));
        let sharded = Arc::new(QueryEngine::with_cache(PlanCache::with_shards(64, 8)));
        storm(&single);
        storm(&sharded);

        for (name, lab) in [("single", &single), ("sharded", &sharded)] {
            let total = lab.stats();
            let shards = lab.shard_stats();
            assert_eq!(
                shards.iter().map(|s| s.hits).sum::<u64>(),
                total.hits,
                "{name}: shard hits must conserve the aggregate"
            );
            assert_eq!(
                shards.iter().map(|s| s.misses).sum::<u64>(),
                total.misses,
                "{name}: shard misses must conserve the aggregate"
            );
            assert_eq!(
                shards.iter().map(|s| s.contended).sum::<u64>(),
                total.contended,
                "{name}: shard contention must conserve the aggregate"
            );
            assert_eq!(total.misses, 8, "{name}: one compile per distinct key");
            assert_eq!(
                total.hits + total.waits,
                64 * 50 - 8,
                "{name}: every other access is served from cache"
            );
        }
        assert_eq!(single.shard_stats().len(), 1);
        assert_eq!(sharded.shard_stats().len(), 8);
        s1 += single.stats().contended;
        s8 += sharded.stats().contended;
    }
    assert!(
        s8 <= s1 + 64,
        "sharding must not increase lock contention: sharded {s8} vs single {s1}"
    );
    if s1 >= 512 {
        assert!(
            s8 < s1,
            "under real contention sharding must reduce it: sharded {s8} vs single {s1}"
        );
    }
}
