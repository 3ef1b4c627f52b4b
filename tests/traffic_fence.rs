//! A fence around analytic costing: one digest over the encoded Execute
//! replies of a universe in which many plans differ only in their
//! network.
//!
//! The universe crosses MareNostrum4 and CTE-POWER, each at a one-leaf
//! and a cross-leaf shape, with both placements, three environments and
//! four spine tapers, for `cfd-small` and `fsi-small`; it adds a degraded
//! uplink and a deployment. Every scenario runs two seeds, and every
//! reply is encoded as the daemon sends it.
//!
//! The same digest must come out of two paths:
//!
//! - a capacity-8 [`QueryEngine`], fed the universe twice: once in an
//!   order that keeps each plan's siblings (same shape and placement,
//!   other environment or taper) far apart, so a plan is evicted before
//!   its next sibling compiles, and once with siblings side by side, so
//!   they are resident together;
//! - [`Scenario::compile`] and [`ScenarioPlan::execute`] on a fresh plan
//!   per scenario, with no engine at all.
//!
//! The value changes only when the model is meant to change; say so in
//! the change that re-records it.
//!
//! [`ScenarioPlan::execute`]: harborsim::study::scenario::ScenarioPlan::execute

use harborsim::des::trace::Recorder;
use harborsim::hw::{presets, ClusterSpec};
use harborsim::mpi::Placement;
use harborsim::study::lab::wire::encode_response;
use harborsim::study::lab::{LabRequest, LabResponse, QueryEngine};
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

/// The pinned digest of every reply, in universe order.
const FENCE_DIGEST: u64 = 0x5b47_bd44_503a_bfe9;

/// Seeds each scenario runs.
const SEEDS: [u64; 2] = [3, 1 << 33];

/// A preset cluster's constructor.
type Preset = fn() -> ClusterSpec;

/// (cluster, nodes, ranks per node): one leaf, and more than one
/// (MareNostrum4 has 48 nodes per leaf, CTE-POWER 26).
const SHAPES: [(Preset, u32, u32); 4] = [
    (presets::marenostrum4, 2, 48),
    (presets::marenostrum4, 64, 6),
    (presets::cte_power, 4, 40),
    (presets::cte_power, 32, 5),
];
const TAPERS: [Option<f64>; 4] = [None, Some(0.75), Some(0.5), Some(0.25)];
const PLACEMENTS: [Placement; 2] = [Placement::Block, Placement::RoundRobin];
/// Workloads, by the registry names a wire request carries.
const CASES: [&str; 2] = ["cfd-small", "fsi-small"];

fn envs() -> [Execution; 3] {
    [
        Execution::bare_metal(),
        Execution::singularity_system_specific(),
        Execution::singularity_self_contained(),
    ]
}

/// Scenarios per (taper, placement, environment) block of the
/// universe: every shape with every workload, so a plan's siblings sit
/// `BLOCK` apart.
const BLOCK: usize = SHAPES.len() * CASES.len();

/// Scenarios in the universe: the blocks, then the two extras.
const UNIVERSE: usize = TAPERS.len() * PLACEMENTS.len() * 3 * BLOCK + 2;

/// Scenario `u` of the fence universe, in a fixed order: for each taper,
/// placement and environment, every (cluster, shape, workload) pattern,
/// then a degraded uplink and a deployment.
fn scenario(u: usize) -> Scenario {
    match u.checked_sub(UNIVERSE - 2) {
        // a degraded uplink on a cross-leaf shape: the pattern of a
        // healthy plan in the blocks, one link slower
        Some(0) => Scenario::new(presets::cte_power(), workloads::artery_cfd_small())
            .execution(Execution::singularity_system_specific())
            .nodes(32)
            .ranks_per_node(5)
            .degrade_node_uplink(3, 0.25),
        // a deployment: the pattern of a plan in the blocks, plus the
        // image spans
        Some(_) => Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(2)
            .ranks_per_node(48)
            .with_deployment(),
        None => {
            let (block, within) = (u / BLOCK, u % BLOCK);
            let (cluster, nodes, rpn) = SHAPES[within / CASES.len()];
            let env = envs()[block % 3];
            let placement = PLACEMENTS[block / 3 % PLACEMENTS.len()];
            let taper = TAPERS[block / 3 / PLACEMENTS.len()];
            let case = workloads::by_name(CASES[within % CASES.len()]).expect("a registry name");
            let mut sc = Scenario::new(cluster(), case)
                .execution(env)
                .nodes(nodes)
                .ranks_per_node(rpn)
                .placement(placement);
            if let Some(t) = taper {
                sc = sc.spine_taper(t);
            }
            sc
        }
    }
}

/// Fold one encoded reply into `h`.
fn fold(h: u64, reply: &LabResponse) -> u64 {
    assert!(
        matches!(reply, LabResponse::Execute(_)),
        "every fence scenario executes: {reply:?}"
    );
    fnv(h, encode_response(reply).as_bytes())
}

/// The digest of every (scenario, seed) in universe order, each reply
/// produced by `answer`.
fn digest(mut answer: impl FnMut(usize, u64) -> LabResponse) -> u64 {
    let mut h = FNV_OFFSET;
    for u in 0..UNIVERSE {
        for seed in SEEDS {
            h = fold(h, &answer(u, seed));
        }
    }
    h
}

#[test]
fn the_fence_holds_through_a_small_engine_and_through_compile() {
    let n = UNIVERSE;

    // fresh plans, no engine
    let compiled = digest(|u, seed| {
        let plan = scenario(u).compile().expect("compiles");
        LabResponse::Execute(Box::new(plan.execute(seed, &mut Recorder::aggregating())))
    });

    // a capacity-8 engine, siblings apart: compiling a plan's next
    // sibling evicts the plan, so the sibling costs its job after the
    // plan is gone
    let lab = QueryEngine::with_capacity(8);
    let apart = digest(|u, seed| lab.handle(LabRequest::execute(scenario(u), seed)));
    assert!(lab.stats().misses >= n as u64, "every plan compiled");

    // the same engine, siblings side by side: replies are gathered in
    // visiting order, then folded in universe order
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&u| (u % BLOCK, u));
    let mut replies: Vec<Vec<LabResponse>> = (0..n).map(|_| Vec::new()).collect();
    for &u in &order {
        for seed in SEEDS {
            replies[u].push(lab.handle(LabRequest::execute(scenario(u), seed)));
        }
    }
    let mut together = FNV_OFFSET;
    for reply in replies.iter().flatten() {
        together = fold(together, reply);
    }

    assert_eq!(apart, compiled, "engine with evictions against compile");
    assert_eq!(together, compiled, "engine with siblings resident");
    assert_eq!(compiled, FENCE_DIGEST, "{compiled:016x}");
}
