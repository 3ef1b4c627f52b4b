//! Version-to-version goldens for the analytic engine.
//!
//! The analytic engine's other checks compare two code paths of one
//! build: a replayed cost against a fresh run, a cached plan against a
//! cold one. A costing change that shifted every result the same way
//! would pass them all. These tests pin the `SimResult` bit patterns
//! themselves (elapsed, compute, the communication breakdown, message
//! and byte counts, and every link's label, byte tally and busy-time
//! bits), so a change to round costing that is meant to be a pure
//! speedup has to reproduce them bit for bit.
//!
//! The families:
//!
//! - every scenario shape of perfbench's `serve-sweep` universe:
//!   MareNostrum4 at 1–128 nodes and CTE-POWER at 1–32, 4 rank counts
//!   per node each, 3 environments, 2 placements and 4 spine tapers
//!   (1,344 scenarios, folded into one digest);
//! - Fig. 3's 256-node FSI points (12,288 ranks), bare metal and
//!   Singularity self-contained;
//! - the `ext-degraded` CTE-POWER scenario with node 3's uplink at a
//!   quarter of its capacity, so one link has its own busy quantum;
//! - Lenox `cfd-small` under Docker, where the bridge term shows;
//! - the Ring and Rabenseifner allreduces through `AnalyticEngine`
//!   directly, in a job that runs every kind of communication phase
//!   across MareNostrum4 leaves.
//!
//! A value here changes only when the model is meant to change; say so
//! in the change that re-records it.

use harborsim::des::trace::Recorder;
use harborsim::hw::presets;
use harborsim::mpi::analytic::{AnalyticEngine, EngineConfig};
use harborsim::mpi::collectives::AllreduceAlgo;
use harborsim::mpi::workload::{factor3, CommPhase, JobProfile, StepProfile};
use harborsim::mpi::{Placement, RankMap, SimResult};
use harborsim::net::{DataPath, NetworkModel, Topology, TransportSelection};
use harborsim::study::scenario::{Execution, Scenario};
use harborsim::study::workloads;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A result's bit patterns as one line: times in nanoseconds, counters,
/// and a hash over every link's label, byte tally and busy-time bits.
fn digest(r: &SimResult) -> String {
    let mut links = FNV_OFFSET;
    for l in &r.links {
        links = fnv(links, l.label.as_bytes());
        links = fnv(links, &l.bytes.to_le_bytes());
        links = fnv(links, &l.busy_s.to_bits().to_le_bytes());
    }
    let link_bytes: u64 = r.links.iter().map(|l| l.bytes).sum();
    format!(
        "elapsed={} compute={} halo={} allreduce={} pairs={} other={} \
         inter={} intra={} bytes={} links={}/{}/{links:016x}",
        r.elapsed.as_nanos(),
        r.compute.as_nanos(),
        r.comm.halo.as_nanos(),
        r.comm.allreduce.as_nanos(),
        r.comm.pairs.as_nanos(),
        r.comm.other.as_nanos(),
        r.inter_node_msgs,
        r.intra_node_msgs,
        r.inter_node_bytes,
        r.links.len(),
        link_bytes,
    )
}

/// The digest of `sc`'s first execute on a freshly compiled plan.
fn run(sc: &Scenario, seed: u64) -> String {
    let plan = sc.compile().expect("scenario compiles");
    assert_eq!(plan.engine_name(), "analytic");
    digest(&plan.execute(seed, &mut Recorder::aggregating()).result)
}

/// MareNostrum4 node counts and ranks per node of the `serve-sweep`
/// universe.
const MN4_NODES: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
const MN4_RPN: [u32; 4] = [6, 12, 24, 48];
/// CTE-POWER node counts and ranks per node.
const CTE_NODES: [u32; 6] = [1, 2, 4, 8, 16, 32];
const CTE_RPN: [u32; 4] = [5, 10, 20, 40];
const PLACEMENTS: [Placement; 2] = [Placement::Block, Placement::RoundRobin];
const TAPERS: [Option<f64>; 4] = [None, Some(0.75), Some(0.5), Some(0.25)];

/// Every scenario shape of the `serve-sweep` universe, in a fixed order.
fn sweep_universe() -> Vec<Scenario> {
    let mut shapes = Vec::new();
    for n in MN4_NODES {
        for r in MN4_RPN {
            shapes.push((presets::marenostrum4(), n, r));
        }
    }
    for n in CTE_NODES {
        for r in CTE_RPN {
            shapes.push((presets::cte_power(), n, r));
        }
    }
    let envs = [
        Execution::bare_metal(),
        Execution::singularity_system_specific(),
        Execution::singularity_self_contained(),
    ];
    let mut out = Vec::new();
    for taper in TAPERS {
        for placement in PLACEMENTS {
            for env in envs {
                for (cluster, nodes, rpn) in &shapes {
                    let mut sc = Scenario::new(cluster.clone(), workloads::artery_cfd_small())
                        .execution(env)
                        .nodes(*nodes)
                        .ranks_per_node(*rpn)
                        .placement(placement);
                    if let Some(t) = taper {
                        sc = sc.spine_taper(t);
                    }
                    out.push(sc);
                }
            }
        }
    }
    out
}

#[test]
fn serve_sweep_universe_is_pinned() {
    let universe = sweep_universe();
    assert_eq!(universe.len(), 1344);
    let mut h = FNV_OFFSET;
    for (u, sc) in universe.iter().enumerate() {
        h = fnv(h, run(sc, u as u64).as_bytes());
        h = fnv(h, b"\n");
    }
    assert_eq!(h, 11828153175185377978, "digest of the 1344 sweep results");
}

fn fig3_256(env: Execution) -> Scenario {
    Scenario::new(presets::marenostrum4(), workloads::artery_fsi_mn4())
        .execution(env)
        .nodes(256)
        .ranks_per_node(48)
}

#[test]
fn fig3_256_nodes_bare_metal_is_pinned() {
    assert_eq!(run(&fig3_256(Execution::bare_metal()), 1), "elapsed=1369985927 compute=825310021 halo=330434811 allreduce=132771350 pairs=78077450 other=3392295 inter=709566840 intra=451035270 bytes=894766233600 links=524/2202481704960/d150fb6945056b4a");
}

#[test]
fn fig3_256_nodes_self_contained_is_pinned() {
    assert_eq!(
        run(&fig3_256(Execution::singularity_self_contained()), 1),
        "elapsed=4847220841 compute=827785951 halo=1715406820 allreduce=1882385041 pairs=402731924 other=18911105 inter=709566840 intra=451035270 bytes=894766233600 links=524/2202481704960/17be4b8e5dd4a7c9"
    );
}

#[test]
fn degraded_uplink_is_pinned() {
    let sc = Scenario::new(presets::cte_power(), workloads::artery_cfd_cte())
        .execution(Execution::singularity_system_specific())
        .nodes(16)
        .ranks_per_node(40)
        .degrade_node_uplink(3, 0.25);
    assert_eq!(run(&sc, 2), "elapsed=14191126009 compute=8329570698 halo=5345722388 allreduce=514563360 pairs=0 other=1269563 inter=126636000 intra=147187500 bytes=219242048000 links=34/438484096000/caa6cdfa503473fe");
}

#[test]
fn lenox_cfd_docker_is_pinned() {
    let sc = Scenario::new(presets::lenox(), workloads::artery_cfd_small())
        .execution(Execution::docker())
        .nodes(4)
        .ranks_per_node(28);
    assert_eq!(run(&sc, 5), "elapsed=680617503 compute=666989 halo=177878635 allreduce=498497892 pairs=0 other=3573987 inter=62460 intra=106015 bytes=9397800 links=10/18795600/3e9090f710d8ade5");
}

/// An engine over 64 MareNostrum4 nodes (two leaf groups) with 4 ranks
/// each, round-robin placed so neighbouring ranks cross the fabric, and
/// a job that runs every kind of communication phase.
fn every_phase(algo: AllreduceAlgo) -> (AnalyticEngine, JobProfile) {
    let cluster = presets::marenostrum4();
    let network = NetworkModel::compose(
        cluster.interconnect,
        TransportSelection::Native,
        DataPath::Host,
        Topology::mn4_fat_tree(),
    );
    let map = RankMap {
        nodes: 64,
        ranks_per_node: 4,
        threads_per_rank: 1,
        placement: Placement::RoundRobin,
    };
    let config = EngineConfig {
        allreduce_algo: algo,
        ..EngineConfig::default()
    };
    let ranks = map.ranks();
    let engine = AnalyticEngine::new(cluster.node, network, map, config);
    let job = JobProfile {
        steps: vec![
            (
                StepProfile {
                    flops_per_rank: 2e7,
                    imbalance: 1.04,
                    regions: 3.0,
                    comm: vec![
                        CommPhase::Halo1D {
                            bytes: 30_000,
                            repeats: 3,
                        },
                        CommPhase::Halo3D {
                            dims: factor3(ranks),
                            bytes: 12_345,
                            repeats: 2,
                        },
                        CommPhase::Allreduce {
                            bytes: 1 << 20,
                            repeats: 2,
                        },
                        CommPhase::Pairs {
                            pairs: (0..ranks / 2).map(|r| (r, ranks - 1 - r)).collect(),
                            bytes: 7_777,
                        },
                    ],
                },
                5,
            ),
            (
                StepProfile {
                    flops_per_rank: 1e6,
                    imbalance: 1.0,
                    regions: 1.0,
                    comm: vec![
                        CommPhase::Bcast { bytes: 65_536 },
                        CommPhase::Gather { bytes_per_rank: 96 },
                        CommPhase::Barrier,
                    ],
                },
                2,
            ),
        ],
    };
    (engine, job)
}

#[test]
fn ring_allreduce_through_the_engine_is_pinned() {
    let (engine, job) = every_phase(AllreduceAlgo::Ring);
    assert_eq!(digest(&engine.run(&job, 9)), "elapsed=61602856 compute=42187999 halo=612473 allreduce=18588123 pairs=24926 other=189335 inter=1327192 intra=5254 bytes=5706133856 links=132/11789088384/ef1ee8e05db05b3e");
}

#[test]
fn rabenseifner_allreduce_through_the_engine_is_pinned() {
    let (engine, job) = every_phase(AllreduceAlgo::Rabenseifner);
    assert_eq!(digest(&engine.run(&job, 9)), "elapsed=51179978 compute=42187999 halo=612473 allreduce=8165245 pairs=24926 other=189335 inter=52312 intra=15494 bytes=5643219296 links=132/11580683904/73e414c2232e636f");
}
