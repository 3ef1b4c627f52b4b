//! The DESIGN.md §5 ablations: one test per modelling choice, each
//! asserting what switching that choice changes. EXPERIMENTS.md's
//! "Ablations" table states these claims and points at these tests.

use harborsim::alya::workload::AlyaCase;
use harborsim::hw::{presets, InterconnectKind};
use harborsim::mpi::analytic::{AnalyticEngine, EngineConfig};
use harborsim::mpi::collectives::AllreduceAlgo;
use harborsim::mpi::mapping::{Placement, RankMap};
use harborsim::mpi::workload::{CommPhase, JobProfile, StepProfile};
use harborsim::net::{DataPath, NetworkModel, Topology, TransportSelection};
use harborsim::study::scenario::{EngineKind, Execution, Scenario};
use harborsim::study::workloads;

/// Docker's slowdown against bare metal at the paper's pure-MPI 112×1
/// configuration on Lenox, with the bridge's serialized per-message
/// softirq/NAT cost set to `serialized_us`.
fn bridge_slowdown_at(serialized_us: f64) -> f64 {
    let cluster = presets::lenox();
    let case = workloads::artery_cfd_lenox();
    let map = RankMap::block(4, 28, 1);
    let job = case.job_profile(map.ranks());
    let run = |path: DataPath, tax: f64| {
        AnalyticEngine::new(
            cluster.node.clone(),
            NetworkModel::compose(
                cluster.interconnect,
                TransportSelection::Native,
                path,
                Topology::small_cluster(),
            ),
            map,
            EngineConfig {
                compute_tax: tax,
                ..EngineConfig::default()
            },
        )
        .run(&job, 1)
        .elapsed
        .as_secs_f64()
    };
    let bare = run(DataPath::Host, 1.0);
    let docker = run(
        DataPath::DockerBridge {
            per_message_cpu_s: 45e-6,
            serialized_per_msg_s: serialized_us * 1e-6,
            bandwidth_cap_bps: 2.5e9,
        },
        1.02,
    );
    docker / bare
}

/// How much bridge overhead can Docker afford? The slowdown grows with
/// the bridge's cost, a free bridge still pays the per-message CPU and
/// cgroup tax, and the default 10 µs reproduces Fig. 1's gap.
#[test]
fn docker_slowdown_grows_with_bridge_cost() {
    let mut prev = 0.0;
    for us in [0.0, 2.0, 5.0, 10.0, 20.0, 40.0] {
        let s = bridge_slowdown_at(us);
        assert!(
            s >= prev,
            "slowdown must be monotone in bridge cost: {s} at {us} us"
        );
        prev = s;
    }
    assert!(bridge_slowdown_at(0.0) > 1.0);
    assert!(
        bridge_slowdown_at(10.0) > 1.4,
        "default bridge must reproduce Fig. 1"
    );
}

/// Elapsed seconds of a halo-heavy job on 8 CTE-POWER nodes with both
/// fabrics' eager/rendezvous threshold set to `eager_threshold`.
fn elapsed_with_threshold(eager_threshold: u64, halo_bytes: u64) -> f64 {
    let cluster = presets::cte_power();
    let mut network = NetworkModel::compose(
        cluster.interconnect,
        TransportSelection::Native,
        DataPath::Host,
        Topology::cte_fat_tree(),
    );
    network.inter.eager_threshold = eager_threshold;
    network.intra.eager_threshold = eager_threshold;
    let map = RankMap::block(8, 40, 1);
    let job = JobProfile::uniform(
        StepProfile {
            flops_per_rank: 1e8,
            imbalance: 1.0,
            regions: 1.0,
            comm: vec![CommPhase::Halo1D {
                bytes: halo_bytes,
                repeats: 30,
            }],
        },
        50,
    );
    AnalyticEngine::new(cluster.node, network, map, EngineConfig::default())
        .run(&job, 1)
        .elapsed
        .as_secs_f64()
}

/// The eager/rendezvous threshold on 32 KB halos (the CFD case's CG halo
/// scale): raising it never slows the job, and forcing rendezvous on
/// every message costs more than sending every message eagerly.
#[test]
fn raising_the_eager_threshold_never_slows_a_halo_job() {
    let halo = 32 * 1024;
    let mut last = f64::INFINITY;
    for threshold in [1u64, 4 << 10, 16 << 10, 64 << 10, 1 << 20] {
        let t = elapsed_with_threshold(threshold, halo);
        assert!(
            t <= last * 1.001,
            "raising the threshold must not slow things: {t} at {threshold} B"
        );
        last = t;
    }
    let rendezvous = elapsed_with_threshold(1, halo);
    let eager = elapsed_with_threshold(1 << 20, halo);
    assert!(
        rendezvous > eager,
        "forcing rendezvous must cost: {rendezvous} vs {eager}"
    );
}

/// Elapsed time of one `bytes`-sized allreduce over 32 MareNostrum4
/// nodes × 48 ranks under `algo`.
fn allreduce_elapsed(algo: AllreduceAlgo, bytes: u64) -> harborsim::des::SimDuration {
    let engine = AnalyticEngine::new(
        presets::marenostrum4().node,
        NetworkModel::compose(
            InterconnectKind::OmniPath100,
            TransportSelection::Native,
            DataPath::Host,
            Topology::mn4_fat_tree(),
        ),
        RankMap::block(32, 48, 1),
        EngineConfig {
            allreduce_algo: algo,
            ..EngineConfig::default()
        },
    );
    let job = JobProfile::uniform(
        StepProfile {
            flops_per_rank: 0.0,
            imbalance: 1.0,
            regions: 0.0,
            comm: vec![CommPhase::Allreduce { bytes, repeats: 1 }],
        },
        1,
    );
    engine.run(&job, 1).elapsed
}

/// The crossover the textbooks promise: recursive doubling wins on an
/// 8-byte payload (the FSI case's dot products), ring on 64 MB.
#[test]
fn allreduce_ring_and_recursive_doubling_cross_over() {
    let tiny_rd = allreduce_elapsed(AllreduceAlgo::RecursiveDoubling, 8);
    let tiny_ring = allreduce_elapsed(AllreduceAlgo::Ring, 8);
    assert!(
        tiny_rd < tiny_ring,
        "recursive doubling must win at 8 B: {tiny_rd} vs {tiny_ring}"
    );
    let big_rd = allreduce_elapsed(AllreduceAlgo::RecursiveDoubling, 64 << 20);
    let big_ring = allreduce_elapsed(AllreduceAlgo::Ring, 64 << 20);
    assert!(
        big_ring < big_rd,
        "ring must win at 64 MB: {big_ring} vs {big_rd}"
    );
}

/// Elapsed seconds of `job` on `nodes` CTE-POWER nodes × 40 ranks under
/// `placement`.
fn cte_elapsed(placement: Placement, nodes: u32, job: &JobProfile) -> f64 {
    let cluster = presets::cte_power();
    let map = RankMap {
        nodes,
        ranks_per_node: 40,
        threads_per_rank: 1,
        placement,
    };
    AnalyticEngine::new(
        cluster.node,
        NetworkModel::compose(
            cluster.interconnect,
            TransportSelection::Native,
            DataPath::Host,
            Topology::cte_fat_tree(),
        ),
        map,
        EngineConfig::default(),
    )
    .run(job, 1)
    .elapsed
    .as_secs_f64()
}

/// Rank placement. On the 3D-partitioned CFD case round-robin can tie
/// with block, or even win slightly, when the rank-grid strides alias the
/// node count (whole axes stay node-local by arithmetic accident), so
/// that case only bounds it at 0.95× of block. On a 1D chain
/// decomposition block cuts `nodes - 1` edges and round-robin cuts every
/// edge, so scattering must cost more than 25%.
#[test]
fn scattering_ranks_costs_on_chains_and_never_clearly_wins() {
    let case = workloads::artery_cfd_cte();
    for nodes in [4u32, 8, 16] {
        let job = case.job_profile(nodes * 40);
        let block = cte_elapsed(Placement::Block, nodes, &job);
        let rr = cte_elapsed(Placement::RoundRobin, nodes, &job);
        assert!(
            rr >= 0.95 * block,
            "even with stride aliasing, scattering should not clearly win: {rr} < {block}"
        );
    }
    let chain = JobProfile::uniform(
        StepProfile {
            flops_per_rank: 1e8,
            imbalance: 1.0,
            regions: 1.0,
            comm: vec![CommPhase::Halo1D {
                bytes: 200_000,
                repeats: 20,
            }],
        },
        50,
    );
    for nodes in [4u32, 8, 16] {
        let block = cte_elapsed(Placement::Block, nodes, &chain);
        let rr = cte_elapsed(Placement::RoundRobin, nodes, &chain);
        assert!(
            rr > 1.25 * block,
            "cutting every chain edge must hurt: {rr} vs {block}"
        );
    }
}

/// The two MPI performance engines on one scenario (Singularity
/// self-contained, 4 Lenox nodes × 14 ranks, the DES truncated to 5 steps
/// per kind) predict within a 0.4×–2.5× band of each other.
#[test]
fn des_and_analytic_engines_stay_within_the_validation_band() {
    let scenario = |engine: EngineKind| {
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(4)
            .ranks_per_node(14)
            .engine(engine)
    };
    let a = scenario(EngineKind::Analytic).run(5).elapsed.as_secs_f64();
    let d = scenario(EngineKind::Des {
        max_steps_per_kind: 5,
    })
    .run(5)
    .elapsed
    .as_secs_f64();
    assert!(
        (0.4..2.5).contains(&(d / a)),
        "engines diverged: {a} vs {d}"
    );
}
