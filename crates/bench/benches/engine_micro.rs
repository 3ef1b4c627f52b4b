//! Micro-benchmarks of the simulation substrates: DES event throughput,
//! fair-share fluid links, RNG streams, the message-level MPI engine, the
//! work-stealing pool on a skewed workload, the lab's
//! plan-cache hit path and key, the wire's reply encoder, and one warm
//! open-system campaign; and of the real mini-Alya solvers: CFD step cost
//! at three mesh sizes, the coupled FSI step, and the functional
//! thread-MPI collectives. This is the crate's only bench target: the
//! paper's figures and tables are written by `reproduce_all` alone.

use harborsim_bench::baseline::churn_arena;
use harborsim_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use harborsim_des::trace::Recorder;
use harborsim_des::{Engine, Event, FluidLink, RngStream, SimDuration};
use harborsim_mpi::analytic::EngineConfig;
use harborsim_mpi::workload::{CommPhase, JobProfile, StepProfile};
use harborsim_mpi::{DesEngine, RankMap};
use harborsim_net::{DataPath, NetworkModel, Topology, TransportSelection};
use std::hint::black_box;

/// Counts down the state, chaining itself 10 ns later until it hits zero.
#[derive(Clone, Copy)]
struct Tick;

impl Event<u64> for Tick {
    fn fire(self, eng: &mut Engine<u64, Tick>, left: &mut u64) {
        if *left > 0 {
            *left -= 1;
            eng.schedule_event(SimDuration::from_nanos(10), Tick);
        }
    }
}

/// Counts its firings.
#[derive(Clone, Copy)]
struct Count;

impl Event<u64> for Count {
    fn fire(self, _eng: &mut Engine<u64, Count>, count: &mut u64) {
        *count += 1;
    }
}

fn bench_des_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_kernel");
    let n: u64 = 100_000;
    g.throughput(Throughput::Elements(n));
    g.bench_function("event_chain_100k", |b| {
        b.iter(|| {
            let mut eng: Engine<u64, Tick> = Engine::new();
            eng.schedule_event(SimDuration::from_nanos(10), Tick);
            let mut left = n;
            eng.run(&mut left);
            black_box(eng.now())
        });
    });
    g.bench_function("heap_fanout_10k", |b| {
        b.iter(|| {
            let mut eng: Engine<u64, Count> = Engine::new();
            for i in 0..10_000u64 {
                eng.schedule_event(SimDuration::from_nanos(i % 997), Count);
            }
            let mut count = 0;
            eng.run(&mut count);
            black_box(count)
        });
    });
    g.finish();
}

/// Schedule/cancel/pop churn — the access pattern the MPI protocol events
/// produce — on the arena + 4-ary-heap event core.
fn bench_event_churn(c: &mut Criterion) {
    const ROUNDS: usize = 32;
    const BATCH: usize = 512;
    let mut g = c.benchmark_group("des_churn");
    g.throughput(Throughput::Elements((ROUNDS * BATCH) as u64));
    g.bench_function("arena_typed", |b| {
        b.iter(|| black_box(churn_arena(ROUNDS, BATCH)));
    });
    g.finish();
}

/// One full CFD solver step (momentum + divergence + CG projection +
/// correction) at two mesh sizes, then on a 33×33×64 mesh with the CG
/// capped at 40 iterations, in cell-updates/sec.
fn bench_cfd_step(c: &mut Criterion) {
    use harborsim_alya::mesh::TubeMesh;
    use harborsim_alya::{CfdConfig, CfdSolver};
    let mut g = c.benchmark_group("cfd_step");
    for (nx, ny, nz, r) in [(13usize, 13usize, 24usize, 5.0), (21, 21, 48, 8.0)] {
        let mesh = TubeMesh::cylinder(nx, ny, nz, r);
        let cfg = CfdConfig::stable(&mesh, 50.0, 0.1);
        let active = mesh.active_cells() as u64;
        let mut s = CfdSolver::new(mesh, cfg);
        s.run(5); // settle the CG warm start
        g.throughput(Throughput::Elements(active));
        g.bench_function(&format!("step_{nx}x{ny}x{nz}"), |b| {
            b.iter(|| {
                s.step();
                black_box(s.stats.steps)
            });
        });
    }
    let mesh = TubeMesh::cylinder(33, 33, 64, 14.0);
    g.throughput(Throughput::Elements(mesh.active_cells() as u64));
    let mut cfg = CfdConfig::stable(&mesh, 30.0, 0.1);
    cfg.cg_max_iters = 40;
    let mut s = CfdSolver::new(mesh, cfg);
    s.run(3); // warm up the pressure field
    g.bench_function("step_33x33x64_cg40", |b| {
        b.iter(|| {
            s.step();
            black_box(s.stats.steps)
        });
    });
    g.finish();
}

/// One coupled FSI step (1D pulse fluid + wall, sub-iterated) against the
/// fluid step alone, both on 200 stations.
fn bench_fsi_step(c: &mut Criterion) {
    use harborsim_alya::fsi::{CoupledFsi, FsiConfig};
    use harborsim_alya::pulse1d::{cardiac_inflow, PulseConfig, PulseSolver};
    let mut g = c.benchmark_group("fsi_step");
    g.bench_function("coupled_200_stations", |b| {
        let mut fsi = CoupledFsi::new(
            PulseConfig::artery(200),
            40.0,
            FsiConfig::default(),
            cardiac_inflow,
        );
        b.iter(|| black_box(fsi.step()));
    });
    g.bench_function("fluid_only_200_stations", |b| {
        let mut fluid = PulseSolver::new(PulseConfig::artery(200), cardiac_inflow);
        b.iter(|| {
            fluid.step();
            black_box(fluid.time)
        });
    });
    g.finish();
}

/// The functional thread-backed MPI: 100 scalar allreduces over 8 ranks.
fn bench_thread_mpi(c: &mut Criterion) {
    use harborsim_mpi::thread_mpi::ThreadComm;
    let mut g = c.benchmark_group("thread_mpi");
    g.bench_function("allreduce_8_ranks_x100", |b| {
        b.iter(|| {
            let sums = ThreadComm::run(8, |comm| {
                let mut acc = 0.0;
                for i in 0..100 {
                    acc += comm.allreduce_sum_scalar(i as f64);
                }
                acc
            });
            black_box(sums)
        });
    });
    g.finish();
}

/// Execute-many on one cached plan: the per-seed hot path the query
/// engine's sharded batches are made of (ties into the plan-cache benches
/// below — this is the cost of each cache *hit*'s payload).
fn bench_execute_many(c: &mut Criterion) {
    use harborsim_core::lab::QueryEngine;
    use harborsim_core::scenario::{Execution, Scenario};
    let scenario = Scenario::new(
        harborsim_hw::presets::lenox(),
        harborsim_core::workloads::artery_cfd_small(),
    )
    .execution(Execution::singularity_self_contained())
    .nodes(2)
    .ranks_per_node(14);
    let lab = QueryEngine::new();
    let plan = lab.plan(&scenario).expect("scenario compiles");
    let mut g = c.benchmark_group("plan_execute");
    g.bench_function("cached_plan_one_seed", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(plan.execute(seed, &mut Recorder::off()).elapsed)
        });
    });
    // the once-per-plan cost a cached plan's executes no longer pay: a
    // fresh MareNostrum4 128x48 plan, executed once (compile untimed)
    let fresh = Scenario::new(
        harborsim_hw::presets::marenostrum4(),
        harborsim_core::workloads::artery_cfd_small(),
    )
    .nodes(128)
    .ranks_per_node(48);
    g.bench_function("fresh_plan_first_execute_mn4_128x48", |b| {
        b.iter_with_setup(
            || fresh.compile().expect("scenario compiles"),
            |plan| {
                black_box(plan.execute(1, &mut Recorder::off()).elapsed);
                plan
            },
        );
    });
    g.finish();
}

fn bench_fluid(c: &mut Criterion) {
    struct St {
        link: FluidLink<Flow>,
        done: u32,
    }
    #[derive(Clone, Copy)]
    enum Flow {
        Start,
        Done,
        LinkTimer,
    }
    impl Event<St> for Flow {
        fn fire(self, eng: &mut Engine<St, Flow>, st: &mut St) {
            match self {
                Flow::Start => st.link.start_flow(eng, 1e6, Flow::Done),
                Flow::Done => st.done += 1,
                Flow::LinkTimer => FluidLink::on_timer(eng, st, |st| &mut st.link),
            }
        }
    }
    let mut g = c.benchmark_group("fluid_link");
    g.bench_function("storm_512_flows", |b| {
        b.iter(|| {
            let mut eng: Engine<St, Flow> = Engine::new();
            let mut st = St {
                link: FluidLink::new(1e9, Flow::LinkTimer),
                done: 0,
            };
            for i in 0..512u64 {
                eng.schedule_event(SimDuration::from_micros(i), Flow::Start);
            }
            eng.run(&mut st);
            black_box(st.done)
        });
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1_000_000));
    g.bench_function("splitmix_1m", |b| {
        let mut r = RngStream::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc ^= r.next_u64();
            }
            black_box(acc)
        });
    });
    g.finish();
}

fn micro_engine_and_job() -> (DesEngine, JobProfile) {
    let engine = DesEngine::new(
        harborsim_hw::presets::lenox().node,
        NetworkModel::compose(
            harborsim_hw::InterconnectKind::GigabitEthernet,
            TransportSelection::Native,
            DataPath::Host,
            Topology::small_cluster(),
        ),
        RankMap::block(4, 28, 1),
        EngineConfig::default(),
    );
    let job = JobProfile::uniform(
        StepProfile {
            flops_per_rank: 1e7,
            imbalance: 1.02,
            regions: 4.0,
            comm: vec![
                CommPhase::Halo1D {
                    bytes: 10_000,
                    repeats: 4,
                },
                CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 8,
                },
            ],
        },
        5,
    );
    (engine, job)
}

fn bench_route_table(c: &mut Criterion) {
    use harborsim_mpi::route_table;
    // full-scale Fig. 3 point: 256 MareNostrum4 nodes, 12,288 ranks
    let network = NetworkModel::compose(
        harborsim_hw::InterconnectKind::OmniPath100,
        TransportSelection::Native,
        DataPath::Host,
        Topology::mn4_fat_tree(),
    );
    let map = RankMap::block(256, 48, 1);
    let mut g = c.benchmark_group("route_table");
    g.throughput(Throughput::Elements(u64::from(map.ranks())));
    g.bench_function("build_256_nodes_12288_ranks", |b| {
        b.iter(|| black_box(route_table(black_box(&map), &network).ranks()));
    });
    g.finish();
}

fn bench_des_mpi(c: &mut Criterion) {
    let (engine, job) = micro_engine_and_job();
    let probe = engine.run(&job, 1);
    let msgs = probe.inter_node_msgs + probe.intra_node_msgs;
    let mut g = c.benchmark_group("des_mpi");
    g.throughput(Throughput::Elements(msgs));
    g.bench_function("message_level_112_ranks", |b| {
        b.iter(|| black_box(engine.run(&job, 1).elapsed));
    });
    // the largest campaign-des grid point, in fired events/s: the
    // per-event cost of the kernel, protocol and link costing together
    let (engine, job) = fsi_mn4_32x1_des2();
    let (_, events) = engine.run_counted(&job, 1, &mut Recorder::off());
    g.throughput(Throughput::Elements(events));
    g.bench_function("fsi_mn4_32x1_des2", |b| {
        b.iter(|| black_box(engine.run_counted(&job, 1, &mut Recorder::off()).1));
    });
    g.finish();
}

/// `fsi-mn4` on 32 MareNostrum4 nodes at one rank per node, bare metal,
/// truncated to 2 steps per kind (`engine des 2`): the engine and job a
/// plan of the largest campaign-des grid point runs.
fn fsi_mn4_32x1_des2() -> (DesEngine, JobProfile) {
    use harborsim_core::scenario::Scenario;
    let scenario = Scenario::new(
        harborsim_hw::presets::marenostrum4(),
        harborsim_core::workloads::artery_fsi_mn4(),
    )
    .nodes(32)
    .ranks_per_node(1);
    let plan = scenario.compile().expect("scenario compiles");
    let config = EngineConfig {
        compute_tax: scenario.env.runtime.compute_tax(),
        ..EngineConfig::default()
    };
    let engine = DesEngine::new(
        scenario.cluster.node.clone(),
        scenario.network_model(),
        plan.rank_map(),
        config,
    );
    (engine, plan.job().truncated(2).0)
}

/// Per-shard scaling of the conservative parallel DES on the 256-node
/// fat-tree campaign (the `par_des_eps` baseline workload). Every row
/// computes the identical result — shard count is an execution knob —
/// so the rows read as a scaling curve for the host's parallelism; on a
/// single-hardware-thread host the sharded rows only show the
/// synchronization overhead.
fn bench_par_des(c: &mut Criterion) {
    use harborsim_bench::baseline::par_des_campaign;
    let (engine, job) = par_des_campaign();
    let (probe, events) = engine.run_counted(&job, 1, &mut Recorder::off());
    let mut g = c.benchmark_group("par_des");
    g.throughput(Throughput::Elements(events));
    for shards in [1u32, 2, 4, 8] {
        let sharded = {
            let (e, _) = par_des_campaign();
            e.with_shards(shards)
        };
        // every shard count must re-execute the identical campaign
        let (check, check_events) = sharded.run_counted(&job, 1, &mut Recorder::off());
        assert_eq!(check, probe, "{shards} shards drifted from serial");
        assert_eq!(check_events, events);
        g.bench_function(&format!("campaign_256n_{shards}shards"), |b| {
            b.iter(|| black_box(sharded.run_counted(&job, 1, &mut Recorder::off()).1));
        });
    }
    g.finish();
}

fn bench_recorder_modes(c: &mut Criterion) {
    let (engine, job) = micro_engine_and_job();
    let mut g = c.benchmark_group("recorder");
    g.bench_function("des_recorder_off", |b| {
        b.iter(|| black_box(engine.run_traced(&job, 1, &mut Recorder::off()).elapsed));
    });
    g.bench_function("des_recorder_aggregating", |b| {
        b.iter(|| {
            black_box(
                engine
                    .run_traced(&job, 1, &mut Recorder::aggregating())
                    .elapsed,
            )
        });
    });
    g.bench_function("des_recorder_capturing", |b| {
        b.iter(|| {
            black_box(
                engine
                    .run_traced(&job, 1, &mut Recorder::capturing())
                    .elapsed,
            )
        });
    });
    g.finish();
    guard_recorder_overhead(&engine, &job);
}

/// The no-op recorder must be a true no-op: running the DES engine with
/// `Recorder::off()` may not cost measurably more than the aggregating
/// mode, which does strictly more work per span. Min-of-N interleaved
/// samples with an absolute slack keep the guard robust to scheduler
/// noise; a failure means the off-mode early return stopped being free.
fn guard_recorder_overhead(engine: &DesEngine, job: &JobProfile) {
    const ROUNDS: usize = 7;
    const RUNS_PER_SAMPLE: u64 = 3;
    let sample = |mk: fn() -> Recorder| -> f64 {
        let t0 = std::time::Instant::now();
        for seed in 0..RUNS_PER_SAMPLE {
            black_box(engine.run_traced(job, seed, &mut mk()).elapsed);
        }
        t0.elapsed().as_secs_f64()
    };
    let (mut off, mut agg) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        off = off.min(sample(Recorder::off));
        agg = agg.min(sample(Recorder::aggregating));
    }
    let slack_s = 500e-6;
    println!(
        "recorder overhead guard: off {:.3} ms, aggregating {:.3} ms ({:+.2}%)",
        off * 1e3,
        agg * 1e3,
        (off / agg - 1.0) * 100.0
    );
    assert!(
        off <= agg * 1.02 + slack_s,
        "no-op recorder slower than the aggregating mode: off {off:.6}s vs aggregating {agg:.6}s"
    );
}

/// The work-stealing pool on a skewed workload: item 0 costs ~64x the
/// rest, the shape that would strand a fixed chunking's first worker
/// while its siblings idle. Stealing keeps the siblings busy on the
/// cheap items.
fn bench_pool_skew(c: &mut Criterion) {
    const ITEMS: usize = 256;
    fn spin(iters: u64) -> u64 {
        let mut acc = 1u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }
    let cost = |i: usize| if i == 0 { 2_000_000 } else { 31_250 };
    let mut g = c.benchmark_group("par_pool");
    g.throughput(Throughput::Elements(ITEMS as u64));
    g.bench_function("skewed_work_stealing", |b| {
        b.iter(|| {
            let items: Vec<usize> = (0..ITEMS).collect();
            black_box(harborsim_par::run(items, |i| spin(cost(i))))
        });
    });
    g.finish();
}

/// The lab's plan-cache hit path: after one compile, every further
/// resolve of the same scenario is a key build + LRU lookup, orders of
/// magnitude under a compile (route table, image build, validation).
/// `key_of` is the key build alone, on a daemon menu scenario.
fn bench_plan_cache(c: &mut Criterion) {
    use harborsim_bench::loadgen::menu_scenario;
    use harborsim_core::lab::{PlanKey, QueryEngine};
    use harborsim_core::scenario::{Execution, Scenario};
    let mk = || {
        Scenario::new(
            harborsim_hw::presets::lenox(),
            harborsim_core::workloads::artery_cfd_small(),
        )
        .execution(Execution::singularity_self_contained())
        .nodes(2)
        .ranks_per_node(14)
    };
    let mut g = c.benchmark_group("plan_cache");
    g.bench_function("hit", |b| {
        let lab = QueryEngine::new();
        lab.plan(&mk()).expect("compiles");
        b.iter(|| black_box(lab.plan(&mk()).expect("hits")));
    });
    g.bench_function("miss_compile", |b| {
        b.iter(|| {
            let lab = QueryEngine::new();
            black_box(lab.plan(&mk()).expect("compiles"))
        });
    });
    g.bench_function("key_of", |b| {
        let scenario = menu_scenario(6);
        b.iter(|| black_box(PlanKey::of(black_box(&scenario), None)));
    });
    g.finish();
}

/// The wire on the daemon's hot path, for the 2-node MareNostrum4 menu
/// scenario: decoding its Execute request (dropping the decoded request
/// is timed too), and encoding the Execute reply, six links long.
fn bench_wire(c: &mut Criterion) {
    use harborsim_bench::loadgen::menu_scenario;
    use harborsim_core::lab::wire::{decode_request, encode_request, encode_response};
    use harborsim_core::lab::{LabRequest, LabResponse, QueryEngine};
    let request = encode_request(&LabRequest::execute(menu_scenario(6), 0)).expect("encodes");
    let reply = QueryEngine::new().handle(LabRequest::execute(menu_scenario(6), 0));
    let LabResponse::Execute(outcome) = &reply else {
        panic!("the menu scenario executes");
    };
    assert_eq!(
        outcome.result.links.len(),
        6,
        "the row times a 6-link reply"
    );
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements(1));
    g.bench_function("decode_execute_request", |b| {
        b.iter(|| {
            let decoded = decode_request(black_box(&request)).expect("decodes");
            black_box(matches!(decoded, LabRequest::Execute { .. }))
        });
    });
    g.bench_function("encode_execute_reply", |b| {
        b.iter(|| black_box(encode_response(black_box(&reply)).len()));
    });
    g.finish();
}

/// The scenario-DSL front end: parse-only and parse+compile of the
/// largest committed campaign (Fig. 3's 21-run grid), in scripts/sec.
/// Compilation expands the full grid and builds every scenario, so this
/// also bounds the fixed cost `reproduce_all --script` adds per run.
fn bench_script_front_end(c: &mut Criterion) {
    use harborsim_core::script::{self, parse};
    let src = harborsim_core::experiments::fig3::SCRIPT;
    parse(src).expect("committed script parses");
    let mut g = c.benchmark_group("script");
    g.throughput(Throughput::Elements(1));
    g.bench_function("parse_fig3", |b| {
        b.iter(|| black_box(parse(black_box(src)).unwrap().items.len()));
    });
    g.bench_function("parse_and_compile_fig3", |b| {
        b.iter(|| {
            let compiled = script::compile_str(black_box(src)).unwrap();
            black_box(compiled.campaigns[0].runs.len())
        });
    });
    g.finish();
}

/// One seed of the committed open-system storm at 0.15 jobs/s (the
/// campaign-open workload's rate, 60-80% node utilization on Lenox) on a
/// warm engine: per-campaign wall time, almost all of it the DES solves
/// of the job classes the engines can tell apart.
fn bench_open_campaign(c: &mut Criterion) {
    use harborsim_core::experiments::ext_open_system;
    use harborsim_core::lab::QueryEngine;
    use harborsim_core::{run_open_campaign, script};
    let storm = ext_open_system::SCRIPT.replace("rate=0.05", "rate=0.15");
    assert_ne!(storm, ext_open_system::SCRIPT, "the storm's rate moved");
    let scenario = script::compile_str(&storm)
        .expect("the storm compiles")
        .campaigns
        .remove(0)
        .runs
        .remove(0)
        .scenario;
    let lab = QueryEngine::new();
    let campaign = || {
        run_open_campaign(&lab, &scenario, 1, &mut Recorder::off())
            .expect("the storm runs")
            .jobs
    };
    // compile every plan before timing
    campaign();
    let mut g = c.benchmark_group("open_campaign");
    g.bench_function("ext_open_system_storm", |b| {
        b.iter(|| black_box(campaign()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_des_events,
    bench_event_churn,
    bench_cfd_step,
    bench_fsi_step,
    bench_thread_mpi,
    bench_fluid,
    bench_rng,
    bench_route_table,
    bench_des_mpi,
    bench_par_des,
    bench_recorder_modes,
    bench_pool_skew,
    bench_plan_cache,
    bench_wire,
    bench_execute_many,
    bench_script_front_end,
    bench_open_campaign
);
criterion_main!(benches);
