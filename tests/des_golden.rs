//! Version-to-version goldens for the message-level DES.
//!
//! Every other DES check compares two code paths of one build: plan vs
//! `try_run`, serial vs sharded, warm vs fresh. A change that shifted
//! every DES result the same way would pass all of them. These tests pin
//! the outputs themselves, so a kernel or protocol change that is meant
//! to be a pure speedup has to reproduce them bit for bit:
//!
//! - the `SimResult` bit patterns: elapsed, compute, the communication
//!   breakdown, message and byte counts, and every link's byte tally and
//!   busy time;
//! - the capture-mode trace fingerprint;
//! - the number of events `run_counted` fires, which shows a speedup came
//!   from cheaper events rather than fewer.
//!
//! The scenarios cover each protocol path: same-leaf eager and rendezvous
//! (`fsi-mn4` on 8 MareNostrum4 nodes, bare metal and Singularity), the
//! Docker bridge and the intra-node pipe (Lenox `cfd-small`, 2 × 14), and
//! the cross-leaf segment and rendezvous mailboxes (the 256-node job of
//! `engines_agree`, serial and on two shards). Two open campaigns pin the
//! layer above: the smoke campaign of `scripts/repro_open_quick.hsim` and
//! the committed `ext-open-system` storm, whose class solves run on the
//! DES.
//!
//! A value here changes only when the model is meant to change; say so in
//! the change that re-records it.

use harborsim::des::trace::{Recorder, SpanCategory, TraceBuffer};
use harborsim::hw::presets;
use harborsim::mpi::analytic::EngineConfig;
use harborsim::mpi::workload::{CommPhase, JobProfile, StepProfile};
use harborsim::mpi::{DesEngine, Placement, RankMap, SimResult};
use harborsim::net::{DataPath, NetworkModel, Topology, TransportSelection};
use harborsim::study::experiments::ext_open_system;
use harborsim::study::lab::QueryEngine;
use harborsim::study::scenario::{EngineKind, Execution, Scenario};
use harborsim::study::script::compile_str;
use harborsim::study::{run_open_campaign, workloads};

/// Steps of each kind the scenario goldens simulate (`engine des 2`).
const STEPS_PER_KIND: u32 = 2;

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

/// What one golden pins.
#[derive(Debug, PartialEq)]
struct Pinned {
    result: String,
    fingerprint: u64,
    events: u64,
}

fn pinned(result: &str, fingerprint: u64, events: u64) -> Pinned {
    Pinned {
        result: result.to_string(),
        fingerprint,
        events,
    }
}

fn spans_named(buf: &TraceBuffer, name: &str) -> usize {
    buf.spans().iter().filter(|s| s.name == name).count()
}

/// The message-level engine a scenario's plan runs, built from the
/// scenario's public parts, so `run_counted` can count its events.
fn engine_of(sc: &Scenario) -> DesEngine {
    let map = RankMap {
        nodes: sc.nodes,
        ranks_per_node: sc.ranks_per_node,
        threads_per_rank: sc.threads_per_rank,
        placement: sc.placement,
    };
    let config = EngineConfig {
        compute_tax: sc.env.runtime.compute_tax(),
        ..EngineConfig::default()
    };
    DesEngine::new(sc.cluster.node.clone(), sc.network_model(), map, config).with_shards(sc.shards)
}

/// Run a truncated-DES scenario every way the goldens pin it, returning
/// the pins and the captured trace.
fn run_scenario(sc: &Scenario, seed: u64) -> (Pinned, TraceBuffer) {
    let plan = sc.compile().expect("scenario compiles");
    let outcome = plan.execute(seed, &mut Recorder::aggregating());
    let trace = plan.capture_trace(seed);
    let (short, mult) = plan.job().truncated(STEPS_PER_KIND);
    let (raw, events) = engine_of(sc).run_counted(&short, seed, &mut Recorder::aggregating());
    assert_eq!(
        raw.scaled(mult),
        outcome.result,
        "the engine rebuilt from the scenario must be the plan's engine"
    );
    let pins = Pinned {
        result: digest(&outcome.result),
        fingerprint: trace.fingerprint(),
        events,
    };
    (pins, trace)
}

fn fsi_mn4(env: Execution) -> Scenario {
    Scenario::new(presets::marenostrum4(), workloads::artery_fsi_mn4())
        .execution(env)
        .nodes(8)
        .ranks_per_node(1)
        .engine(EngineKind::Des {
            max_steps_per_kind: STEPS_PER_KIND,
        })
}

#[test]
fn fsi_mn4_bare_metal_is_pinned() {
    let (got, trace) = run_scenario(&fsi_mn4(Execution::bare_metal()), 3);
    assert!(spans_named(&trace, "rendezvous-handshake") > 0);
    assert_eq!(got, pinned(
        "elapsed=1272246902505 compute=1260436539735 halo=81193357890 allreduce=20158065 pairs=632250 other=0 inter=212670 intra=0 bytes=73135404000 links=18/146270808000/a5b4d88e1d688700",
        10690051101217401947,
        30020,
    ));
}

#[test]
fn fsi_mn4_singularity_is_pinned() {
    let (got, trace) = run_scenario(&fsi_mn4(Execution::singularity_self_contained()), 3);
    assert!(spans_named(&trace, "rendezvous-handshake") > 0);
    assert_eq!(got, pinned(
        "elapsed=1280654610975 compute=1264217849325 halo=85528839915 allreduce=301877955 pairs=6159285 other=0 inter=212670 intra=0 bytes=73135404000 links=18/146270808000/5cf8c1a0c0f1d334",
        15983885185163092388,
        30020,
    ));
}

#[test]
fn lenox_cfd_docker_is_pinned() {
    let sc = Scenario::new(presets::lenox(), workloads::artery_cfd_small())
        .execution(Execution::docker())
        .nodes(2)
        .ranks_per_node(14)
        .engine(EngineKind::Des {
            max_steps_per_kind: STEPS_PER_KIND,
        });
    let (got, trace) = run_scenario(&sc, 5);
    assert!(spans_named(&trace, "bridge-serialization") > 0);
    assert!(trace
        .spans()
        .iter()
        .any(|s| s.category == SpanCategory::Link));
    assert_eq!(got, pinned(
        "elapsed=165354795 compute=2617550 halo=23737915 allreduce=68724035 pairs=0 other=26888 inter=8490 intra=22005 bytes=3837140 links=6/7674280/4c529eea79e98a9c",
        10933312240511096079,
        88866,
    ));
}

/// The 256-node job of `engines_agree::sharded_des_agrees_at_256_nodes`:
/// six MareNostrum4 leaf groups, so messages cross the spine.
fn mn4_256(shards: u32) -> (DesEngine, JobProfile) {
    let cluster = presets::marenostrum4();
    let network = NetworkModel::compose(
        cluster.interconnect,
        TransportSelection::Native,
        DataPath::Host,
        Topology::mn4_fat_tree(),
    );
    let map = RankMap {
        nodes: 256,
        ranks_per_node: 4,
        threads_per_rank: 1,
        placement: Placement::Block,
    };
    let engine =
        DesEngine::new(cluster.node, network, map, EngineConfig::default()).with_shards(shards);
    let job = JobProfile::uniform(
        StepProfile {
            flops_per_rank: 5e7,
            imbalance: 1.01,
            regions: 2.0,
            comm: vec![
                CommPhase::Halo1D {
                    bytes: 50_000,
                    repeats: 2,
                },
                CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 4,
                },
                CommPhase::Bcast { bytes: 4096 },
            ],
        },
        2,
    );
    (engine, job)
}

#[test]
fn mn4_256_nodes_is_pinned_serial_and_sharded() {
    let want = pinned(
        "elapsed=40019368 compute=39503712 halo=506372 allreduce=777021 pairs=0 other=24820 inter=69616 intra=22534 bytes=110880128 links=524/239784960/7186bd69062aa7e4",
        10172832545333563080,
        620502,
    );
    for shards in [1, 2] {
        let (engine, job) = mn4_256(shards);
        assert_eq!(engine.effective_shards(), shards);
        let mut rec = Recorder::capturing();
        let result = engine.run_traced(&job, 7, &mut rec);
        let trace = rec.take_buffer();
        assert!(spans_named(&trace, "rendezvous-handshake") > 0);
        let (again, events) = engine.run_counted(&job, 7, &mut Recorder::aggregating());
        assert_eq!(result, again);
        let got = Pinned {
            result: digest(&result),
            fingerprint: trace.fingerprint(),
            events,
        };
        assert_eq!(got, want, "{shards} shard(s)");
    }
}

/// FNV-1a of an open report's `Debug` rendering.
fn report_hash(script: &str, seed: Option<u64>) -> u64 {
    let compiled = compile_str(script).expect("script compiles");
    let seed = seed.unwrap_or(compiled.seeds[0]);
    let campaign = compiled.campaigns.into_iter().next().expect("a campaign");
    let scenario = campaign.runs.into_iter().next().expect("a run").scenario;
    let report = run_open_campaign(&QueryEngine::new(), &scenario, seed, &mut Recorder::off())
        .expect("open campaign runs");
    assert!(report.jobs > 0);
    fnv(FNV_OFFSET, format!("{report:?}").as_bytes())
}

#[test]
fn open_smoke_campaign_report_is_pinned() {
    let script = include_str!("../scripts/repro_open_quick.hsim");
    assert_eq!(report_hash(script, None), 202706449034203551);
}

#[test]
fn open_system_storm_report_is_pinned() {
    assert_eq!(
        report_hash(ext_open_system::SCRIPT, Some(3)),
        8700862768337205056
    );
}
