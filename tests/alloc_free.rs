//! The cached-plan hot path performs no per-step heap allocations.
//!
//! Two guarantees, asserted with a counting global allocator:
//!
//! 1. `LinkSchedule` round costing reuses its buffers — a reset, deposit
//!    and settle cycle on a warmed schedule allocates **exactly zero**.
//! 2. Both engines' `run_traced` cost is constant in the step count: a run
//!    with 10x the steps performs the *same number* of allocations as a
//!    short run, because everything that scales with steps (events, link
//!    tallies, per-rank queues, message state) lives in scratch reused
//!    from step to step: pooled across runs in the DES, built once per
//!    costing in the analytic engine. Per-run setup (taking or building
//!    the scratch, assembling `SimResult`) may allocate, but only O(1) per
//!    run.
//!
//! Two more cover the daemon's wire: encoding an Execute reply streams
//! into one buffer sized up front, so it makes **exactly one**
//! allocation, the output itself; and decoding an Execute request reads
//! its fields straight from the text and takes its cluster and workload
//! from the registries' shared values, so it makes **exactly one**, the
//! `Box` the request holds its scenario in.
//!
//! The last ones pin whole queries and set-ups: a warm execute as the
//! daemon's reactor answers it (decode, `handle_warm`, encode), for one
//! menu entry and over the 36 serve-hot menu requests; a cold execute
//! through `handle` on a fresh engine, compile included, with its traffic
//! counted afresh or already counted by a sibling plan; and a campaign's
//! set-up, a fresh engine and its compiles.
//!
//! The counter is per thread, so a measurement sees only the allocations
//! of the thread running it, never those of sibling tests running
//! concurrently in the same binary.

use harborsim_des::trace::Recorder;
use harborsim_mpi::analytic::EngineConfig;
use harborsim_mpi::workload::{CommPhase, JobProfile, StepProfile};
use harborsim_mpi::{AnalyticEngine, DesEngine, RankMap};
use harborsim_net::{DataPath, LinkGraph, LinkSchedule, NetworkModel, RouteTable};
use harborsim_net::{Topology, TransportSelection};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it never allocates and
// stays valid for the whole life of the thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn link_schedule_round_costing_allocates_exactly_zero() {
    let graph = LinkGraph::build(
        &Topology::FatTree {
            nodes_per_leaf: 2,
            hop_latency_s: 1e-6,
            taper: 0.5,
        },
        8,
        1e9,
        1e9,
    );
    let table = RouteTable::build(graph, (0..16).map(|r| r / 2).collect());
    let g = table.graph();
    let mut sched = LinkSchedule::new(g);
    let round = |sched: &mut LinkSchedule| {
        sched.reset();
        for src in 0..16u32 {
            let dst = (src + 2) % 16;
            sched.deposit(g, table.node_of(src), table.node_of(dst));
        }
        sched.settle(g, 64 * 1024).wire_seconds()
    };
    let warm = round(&mut sched);
    let before = allocations();
    let mut acc = 0.0;
    for _ in 0..1000 {
        acc += round(&mut sched);
    }
    let during = allocations() - before;
    assert!(acc > 0.0 && warm > 0.0);
    assert_eq!(
        during, 0,
        "LinkSchedule reset+deposit+settle must reuse its buffers (saw {during} allocations)"
    );
}

fn job(reps: u32) -> JobProfile {
    job_with_halo(reps, 10_000)
}

fn job_with_halo(reps: u32, halo_bytes: u64) -> JobProfile {
    JobProfile::uniform(
        StepProfile {
            flops_per_rank: 1e7,
            imbalance: 1.02,
            regions: 4.0,
            comm: vec![
                CommPhase::Halo1D {
                    bytes: halo_bytes,
                    repeats: 4,
                },
                CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 8,
                },
            ],
        },
        reps,
    )
}

fn network() -> NetworkModel {
    network_on(DataPath::Host)
}

fn network_on(path: DataPath) -> NetworkModel {
    NetworkModel::compose(
        harborsim_hw::InterconnectKind::GigabitEthernet,
        TransportSelection::Native,
        path,
        Topology::small_cluster(),
    )
}

/// Allocation count of one untraced run.
fn count_run(run: &dyn Fn(&JobProfile) -> harborsim_mpi::SimResult, job: &JobProfile) -> u64 {
    let before = allocations();
    let r = run(job);
    assert!(r.elapsed.as_nanos() > 0);
    allocations() - before
}

/// Host networking with eager halos, and the Docker bridge with halos
/// above the eager threshold: the second runs every zero-delay grant of
/// the bridge, pipe and link resources and the rendezvous handshake, so
/// the event core's zero-delay lane and the message table must reuse the
/// pooled scratch too.
#[test]
fn des_engine_allocations_are_constant_in_step_count() {
    for (path, halo_bytes) in [
        (DataPath::Host, 10_000),
        (DataPath::docker_default_bridge(), 256 * 1024),
    ] {
        let engine = DesEngine::new(
            harborsim_hw::presets::lenox().node,
            network_on(path),
            RankMap::block(4, 28, 1),
            EngineConfig::default(),
        );
        let run = |j: &JobProfile| engine.run_traced(j, 1, &mut Recorder::off());
        let (short, long) = (job_with_halo(2, halo_bytes), job_with_halo(20, halo_bytes));
        // warm the scratch pool (and every lazily-grown buffer) with the
        // larger variant first
        run(&long);
        run(&short);
        let a_short = count_run(&run, &short);
        let a_long = count_run(&run, &long);
        assert_eq!(
            a_short, a_long,
            "10x the steps must not change the DES engine's allocation count \
             (halo {halo_bytes} B, short={a_short}, long={a_long}): the event \
             loop is leaking per-step allocations"
        );
    }
}

#[test]
fn analytic_engine_allocations_are_constant_in_step_count() {
    let engine = AnalyticEngine::new(
        harborsim_hw::presets::lenox().node,
        network(),
        RankMap::block(4, 28, 1),
        EngineConfig::default(),
    );
    let run = |j: &JobProfile| engine.run_traced(j, 1, &mut Recorder::off());
    let (short, long) = (job(2), job(20));
    run(&long);
    run(&short);
    let a_short = count_run(&run, &short);
    let a_long = count_run(&run, &long);
    assert_eq!(
        a_short, a_long,
        "10x the steps must not change the analytic engine's allocation \
         count (short={a_short}, long={a_long}): round costing is leaking \
         per-step allocations"
    );
}

#[test]
fn encoding_an_execute_reply_allocates_only_its_output() {
    use harborsim_core::lab::wire::encode_response;
    use harborsim_core::scenario::{Execution, Scenario};
    use harborsim_core::{LabRequest, LabResponse, QueryEngine};
    // the daemon menu's 2-node MareNostrum4 entry: a six-link reply
    let scenario = Scenario::new(
        harborsim_hw::presets::marenostrum4(),
        harborsim_core::workloads::artery_cfd_small(),
    )
    .execution(Execution::singularity_system_specific())
    .nodes(2)
    .ranks_per_node(48);
    let reply = QueryEngine::new().handle(LabRequest::execute(scenario, 0));
    let LabResponse::Execute(outcome) = &reply else {
        panic!("the scenario executes");
    };
    assert_eq!(outcome.result.links.len(), 6);
    let before = allocations();
    let wire = encode_response(&reply);
    let made = allocations() - before;
    assert_eq!(
        made,
        1,
        "a {}-byte reply took {made} allocations: the encoder builds \
         something besides its output, or sized it too small",
        wire.len()
    );
}

#[test]
fn decoding_an_execute_request_allocates_only_its_scenario() {
    use harborsim_bench::loadgen::menu_scenario;
    use harborsim_core::lab::wire::{decode_request, encode_request};
    use harborsim_core::scenario::{EngineKind, Execution, Scenario};
    use harborsim_core::LabRequest;
    // the daemon menu's 2-node MareNostrum4 entry, built from the
    // registries by the names its request carries
    let from_registries = Scenario {
        cluster: harborsim_hw::presets::by_name("marenostrum4").expect("registry cluster"),
        case: harborsim_core::workloads::by_name("cfd-small").expect("registry workload"),
        env: Execution::singularity_system_specific(),
        nodes: 2,
        ranks_per_node: 48,
        threads_per_rank: 1,
        engine: EngineKind::Analytic,
        deploy: false,
        placement: harborsim_mpi::Placement::Block,
        spine_taper: None,
        degraded_uplinks: Vec::new(),
        shards: 1,
        open: None,
    };
    let wire = encode_request(&LabRequest::execute(menu_scenario(6), 0)).unwrap();
    assert_eq!(
        encode_request(&LabRequest::execute(from_registries, 0)).unwrap(),
        wire,
        "the registries build the menu scenario"
    );
    // warm every table the first decode fills
    decode_request(&wire).unwrap();
    let before = allocations();
    let decoded = decode_request(&wire).unwrap();
    let made = allocations() - before;
    // the cluster and the case are the registries' shared values, so
    // the scenario owns no heap data of its own: the box is all
    assert_eq!(
        made,
        1,
        "decoding a {}-byte request took {made} allocations where its \
         box takes one: the decoder builds something besides its output",
        wire.len()
    );
    drop(decoded);
}

/// The wire request of menu entry `i` under `seed`.
fn menu_request(i: usize, seed: u64) -> String {
    use harborsim_bench::loadgen::menu_scenario;
    use harborsim_core::lab::wire::encode_request;
    use harborsim_core::LabRequest;
    encode_request(&LabRequest::execute(menu_scenario(i), seed)).unwrap()
}

/// Allocations of one whole warm query on `lab`: decode `wire`, answer
/// it through `handle_warm`, encode the reply.
fn warm_query_allocations(lab: &harborsim_core::QueryEngine, wire: &str) -> u64 {
    use harborsim_core::lab::wire::{decode_request, encode_response};
    let before = allocations();
    let req = decode_request(wire).unwrap();
    let reply = lab
        .handle_warm(req)
        .ok()
        .expect("a resident analytic plan answers warm");
    let out = encode_response(&reply);
    let made = allocations() - before;
    assert!(out.len() > 100);
    made
}

#[test]
fn a_warm_execute_query_allocates_only_its_reply() {
    use harborsim_bench::loadgen::{menu_scenario, MENU_LEN};
    use harborsim_core::QueryEngine;
    let lab = QueryEngine::new();
    for i in 0..MENU_LEN {
        lab.plan(&menu_scenario(i)).unwrap();
    }
    // first executes cost each plan's job and size every shared table
    for i in 0..MENU_LEN {
        warm_query_allocations(&lab, &menu_request(i, 0));
    }
    // menu entry 6 (two MareNostrum4 nodes, six links): the request's
    // box, the recorder's one roll-up track, the link list, the reply's
    // box and the encoded reply; the link labels are shared text
    let made = warm_query_allocations(&lab, &menu_request(6, 1));
    assert_eq!(made, 5, "a warm menu-6 query took {made} allocations");
    // and over the 36 requests of the serve-hot menu
    let total: u64 = (0..MENU_LEN)
        .flat_map(|i| (0..3).map(move |seed| (i, seed)))
        .map(|(i, seed)| warm_query_allocations(&lab, &menu_request(i, seed)))
        .sum();
    assert_eq!(total, 168, "36 warm menu queries took {total} allocations");
}

#[test]
fn a_cold_execute_allocates_a_pinned_count() {
    use harborsim_bench::loadgen::menu_scenario;
    use harborsim_core::{LabRequest, QueryEngine};
    let cold = || {
        let lab = QueryEngine::new();
        let req = LabRequest::execute(menu_scenario(6), 0);
        let before = allocations();
        let reply = lab.handle(req);
        let made = allocations() - before;
        assert!(matches!(reply, harborsim_core::LabResponse::Execute(_)));
        assert_eq!(lab.traffic_stats().counted, 1);
        made
    };
    // the first fills the process-wide tables a compile reads
    cold();
    // compile, the engine's traffic table, the count and the cost
    let made = cold();
    assert_eq!(made, 41, "a cold menu-6 execute took {made} allocations");
}

#[test]
fn a_cold_execute_on_counted_traffic_allocates_a_pinned_count() {
    use harborsim_bench::loadgen::menu_scenario;
    use harborsim_core::{LabRequest, QueryEngine};
    let cold = || {
        let lab = QueryEngine::new();
        // a sibling of menu entry 6 on a tapered spine: same traffic,
        // other capacities
        lab.handle(LabRequest::execute(menu_scenario(6).spine_taper(0.5), 0));
        let req = LabRequest::execute(menu_scenario(6), 0);
        let before = allocations();
        let reply = lab.handle(req);
        let made = allocations() - before;
        assert!(matches!(reply, harborsim_core::LabResponse::Execute(_)));
        assert_eq!(lab.traffic_stats().counted, 1, "the sibling counted it");
        made
    };
    cold();
    // compile and the cost only: the table and its entry already exist
    let made = cold();
    assert_eq!(
        made, 26,
        "a cold menu-6 execute on counted traffic took {made} allocations"
    );
}

/// Allocations of resolving `scenario` through a fresh engine, engine
/// construction not included.
fn fresh_compile_allocations(scenario: &harborsim_core::scenario::Scenario) -> u64 {
    let lab = harborsim_core::QueryEngine::new();
    let before = allocations();
    lab.plan(scenario).expect("the scenario compiles");
    allocations() - before
}

/// What a campaign's set-up pays before its first execute: a fresh
/// engine, then one compile per grid point or open class. Neither may
/// grow with analytic costing, which belongs to executes.
#[test]
fn campaign_set_up_allocates_a_pinned_count() {
    use harborsim_core::scenario::{EngineKind, Execution, Scenario};
    use harborsim_core::QueryEngine;
    let before = allocations();
    let lab = QueryEngine::new();
    let made = allocations() - before;
    drop(lab);
    assert_eq!(made, 0, "a fresh engine took {made} allocations");

    // campaign-des's grid point, with the registries' shared values a
    // script resolves
    let des = Scenario::new(
        harborsim_hw::presets::by_name("marenostrum4").expect("registry cluster"),
        harborsim_core::workloads::by_name("fsi-mn4").expect("registry workload"),
    )
    .nodes(4)
    .ranks_per_node(1)
    .engine(EngineKind::Des {
        max_steps_per_kind: 2,
    });
    // a Lenox open-campaign class shape on the analytic engine
    let analytic = Scenario::new(
        harborsim_hw::presets::by_name("lenox").expect("registry cluster"),
        harborsim_core::workloads::by_name("cfd-small").expect("registry workload"),
    )
    .execution(Execution::singularity_self_contained())
    .nodes(2)
    .ranks_per_node(14);
    // the first compiles fill the process-wide tables a compile reads
    fresh_compile_allocations(&des);
    fresh_compile_allocations(&analytic);
    let made = fresh_compile_allocations(&des);
    assert_eq!(
        made, 22,
        "compiling the DES grid point took {made} allocations"
    );
    let made = fresh_compile_allocations(&analytic);
    assert_eq!(
        made, 16,
        "compiling the analytic class took {made} allocations"
    );
}
