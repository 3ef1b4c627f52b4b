//! Seeded request streams for the daemon workloads, built whole at
//! set-up: the typed requests, their wire bytes, and the exact replies
//! the in-process engine gives, so the timed loops only move bytes.

use crate::loadgen::Item;
use harborsim_bench::loadgen::{menu_scenario, MENU_LEN};
use harborsim_core::lab::daemon::http::render_response;
use harborsim_core::lab::wire;
use harborsim_core::scenario::{Execution, Scenario};
use harborsim_core::{workloads, LabRequest, LabResponse, Poisson, QueryEngine, Zipf};
use harborsim_des::RngStream;
use harborsim_hw::presets;
use harborsim_mpi::Placement;
use std::time::Duration;

/// Zipf exponent of the `serve-hot` menu draw.
const HOT_ZIPF_S: f64 = 1.1;
/// `serve-hot` seeds cycle this modulus, so admission batching sees
/// identical `(plan, seed)` twins in flight.
const HOT_SEED_CYCLE: u64 = 3;

/// MareNostrum4 node counts and ranks per node in the `serve-sweep`
/// universe.
const MN4_NODES: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
const MN4_RPN: [u32; 4] = [6, 12, 24, 48];
/// CTE-POWER node counts (it has 52 nodes) and ranks per node.
const CTE_NODES: [u32; 6] = [1, 2, 4, 8, 16, 32];
const CTE_RPN: [u32; 4] = [5, 10, 20, 40];
const MN4_SHAPES: usize = MN4_NODES.len() * MN4_RPN.len();
const SHAPES: usize = MN4_SHAPES + CTE_NODES.len() * CTE_RPN.len();
const ENVS: usize = 3;
const PLACEMENTS: [Placement; 2] = [Placement::Block, Placement::RoundRobin];
const TAPERS: [Option<f64>; 4] = [None, Some(0.75), Some(0.5), Some(0.25)];
/// Distinct scenarios `serve-sweep` draws from: 1344, over five times
/// the daemon's default 256-plan cache.
pub const SWEEP_UNIVERSE: usize = SHAPES * ENVS * PLACEMENTS.len() * TAPERS.len();
const _: () = assert!(
    SWEEP_UNIVERSE >= 4 * 256,
    "the universe must outgrow the cache"
);
/// One `serve-sweep` scenario in this many carries a deployment.
const SWEEP_DEPLOY_EVERY: usize = 8;
/// Share of `serve-sweep` requests that are `Plan` rather than `Execute`.
const SWEEP_PLAN_SHARE: f64 = 0.25;

/// A workload's requests for one run.
pub struct Traffic {
    /// Every distinct request, with the reply it must get.
    pub items: Vec<Item>,
    /// Each item's request body on the wire.
    pub bodies: Vec<String>,
    /// Item order of the closed phase, each entry sent once.
    pub closed: Vec<u32>,
    /// Item order of the open phase, one per scheduled arrival.
    pub open: Vec<u32>,
    /// Item order of the traced run's depth-1 pass.
    pub probe: Vec<u32>,
    /// Open-phase due offsets, ascending.
    pub schedule: Vec<Duration>,
}

/// `req` as an [`Item`], plus its wire body: the HTTP request, and the
/// exact HTTP reply `engine` gives.
///
/// # Panics
/// If `engine` answers with an error: the workloads are built so that
/// no operation fails.
pub fn item(engine: &QueryEngine, req: LabRequest) -> (Item, String) {
    let body = wire::encode_request(&req).expect("workload scenarios are wire-encodable");
    let reply = engine.handle(req);
    if let LabResponse::Error(e) = &reply {
        panic!("workload request {body} fails: {e}");
    }
    let mut expected = Vec::new();
    render_response(&mut expected, 200, &wire::encode_response(&reply));
    let request = format!(
        "POST /v1/lab HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let item = Item {
        request: request.into_bytes(),
        expected,
    };
    (item, body)
}

/// Poisson arrival offsets at `rate_per_s` over `seconds`.
pub fn poisson_schedule(rng: &mut RngStream, rate_per_s: f64, seconds: f64) -> Vec<Duration> {
    let arrivals = Poisson::new(rate_per_s);
    let mut schedule = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize);
    let mut at = 0.0;
    loop {
        at += arrivals.next_gap_s(rng);
        if at >= seconds {
            return schedule;
        }
        schedule.push(Duration::from_secs_f64(at));
    }
}

/// `serve-hot`: execute requests over the 12-entry menu, entries drawn
/// Zipf, seeds cycling by position.
pub fn hot(seed: u64, closed_len: usize, open_rate: f64, open_s: f64, probe_len: usize) -> Traffic {
    let engine = QueryEngine::new();
    let (items, bodies) = (0..MENU_LEN)
        .flat_map(|m| (0..HOT_SEED_CYCLE).map(move |s| (m, s)))
        .map(|(m, s)| item(&engine, LabRequest::execute(menu_scenario(m), s)))
        .unzip();
    let root = RngStream::new(seed).derive("serve-hot");
    let zipf = Zipf::new(HOT_ZIPF_S, MENU_LEN);
    let draw = |rng: &mut RngStream, k: usize| {
        (zipf.sample(rng) as u64 * HOT_SEED_CYCLE + k as u64 % HOT_SEED_CYCLE) as u32
    };
    let mut rng = root.derive("closed");
    let closed = (0..closed_len).map(|k| draw(&mut rng, k)).collect();
    let mut rng = root.derive("open");
    let schedule = poisson_schedule(&mut rng, open_rate, open_s);
    let open = (0..schedule.len()).map(|k| draw(&mut rng, k)).collect();
    let mut rng = root.derive("probe");
    let probe = (0..probe_len).map(|k| draw(&mut rng, k)).collect();
    Traffic {
        items,
        bodies,
        closed,
        open,
        probe,
        schedule,
    }
}

/// The `u`-th scenario of the `serve-sweep` universe
/// (`u < SWEEP_UNIVERSE`).
pub fn sweep_scenario(u: usize) -> Scenario {
    let shape = u % SHAPES;
    let (cluster, nodes, rpn) = if shape < MN4_SHAPES {
        let (n, r) = (shape / MN4_RPN.len(), shape % MN4_RPN.len());
        (presets::marenostrum4(), MN4_NODES[n], MN4_RPN[r])
    } else {
        let shape = shape - MN4_SHAPES;
        let (n, r) = (shape / CTE_RPN.len(), shape % CTE_RPN.len());
        (presets::cte_power(), CTE_NODES[n], CTE_RPN[r])
    };
    let rest = u / SHAPES;
    let env = [
        Execution::bare_metal(),
        Execution::singularity_system_specific(),
        Execution::singularity_self_contained(),
    ][rest % ENVS];
    let rest = rest / ENVS;
    let mut scenario = Scenario::new(cluster, workloads::artery_cfd_small())
        .execution(env)
        .nodes(nodes)
        .ranks_per_node(rpn)
        .placement(PLACEMENTS[rest % PLACEMENTS.len()]);
    if let Some(taper) = TAPERS[rest / PLACEMENTS.len()] {
        scenario = scenario.spine_taper(taper);
    }
    if u.is_multiple_of(SWEEP_DEPLOY_EVERY) {
        scenario = scenario.with_deployment();
    }
    scenario
}

/// `serve-sweep`: plan and execute requests drawn uniformly from the
/// universe, every execute under a seed no other request uses. The
/// closed, open and probe orders take consecutive runs of the items.
pub fn sweep(
    seed: u64,
    closed_len: usize,
    open_rate: f64,
    open_s: f64,
    probe_len: usize,
) -> Traffic {
    let root = RngStream::new(seed).derive("serve-sweep");
    let schedule = poisson_schedule(&mut root.derive("open"), open_rate, open_s);
    let open_end = closed_len + schedule.len();
    let total = open_end + probe_len;
    // the workload seed above a request counter, under 2^53 so the JSON
    // wire carries it exactly
    let base = (seed & 0xFF_FFFF) << 28;
    let mut rng = root.derive("requests");
    let requests: Vec<LabRequest> = (0..total)
        .map(|k| {
            let scenario = sweep_scenario(rng.below(SWEEP_UNIVERSE as u64) as usize);
            if rng.uniform() < SWEEP_PLAN_SHARE {
                LabRequest::plan(scenario)
            } else {
                LabRequest::execute(scenario, base + k as u64)
            }
        })
        .collect();
    // a cache over the whole universe: set-up compiles each scenario once;
    // one scoped thread per CPU, each on a contiguous share
    let engine = QueryEngine::with_capacity(SWEEP_UNIVERSE);
    let share = total.div_ceil(crate::nproc());
    let mut parts = Vec::new();
    let mut requests = requests.into_iter();
    loop {
        let part: Vec<LabRequest> = requests.by_ref().take(share).collect();
        if part.is_empty() {
            break;
        }
        parts.push(part);
    }
    let (items, bodies) = std::thread::scope(|scope| {
        let engine = &engine;
        let workers: Vec<_> = parts
            .into_iter()
            .map(|part| {
                scope.spawn(move || {
                    part.into_iter()
                        .map(|req| item(engine, req))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a set-up thread panicked"))
            .unzip()
    });
    Traffic {
        items,
        bodies,
        closed: (0..closed_len as u32).collect(),
        open: (closed_len as u32..open_end as u32).collect(),
        probe: (open_end as u32..total as u32).collect(),
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harborsim_core::PlanKey;
    use std::collections::HashSet;

    #[test]
    fn schedules_are_seeded_and_keep_their_rate() {
        let schedule = |seed| poisson_schedule(&mut RngStream::new(seed), 2000.0, 5.0);
        let a = schedule(7);
        assert_eq!(a, schedule(7), "same seed, same schedule");
        assert_ne!(a, schedule(8), "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < Duration::from_secs(5)));
        let rate = a.len() as f64 / 5.0;
        assert!((rate - 2000.0).abs() < 100.0, "rate {rate}");
    }

    #[test]
    fn hot_streams_are_seeded_zipf_draws_with_cycling_seeds() {
        let a = hot(3, 20_000, 500.0, 1.0, 50);
        let b = hot(3, 20_000, 500.0, 1.0, 50);
        assert_eq!(
            (&a.closed, &a.open, &a.probe, &a.schedule),
            (&b.closed, &b.open, &b.probe, &b.schedule)
        );
        assert_ne!(a.closed, hot(4, 20_000, 500.0, 1.0, 50).closed);
        assert_eq!(a.probe.len(), 50);
        assert_eq!(a.items.len(), MENU_LEN * HOT_SEED_CYCLE as usize);
        assert_eq!(a.open.len(), a.schedule.len());
        for (k, &i) in a.closed.iter().enumerate() {
            assert_eq!(u64::from(i) % HOT_SEED_CYCLE, k as u64 % HOT_SEED_CYCLE);
        }
        let head = a.closed.iter().filter(|&&i| i < 3).count() as f64 / a.closed.len() as f64;
        let expected = Zipf::new(HOT_ZIPF_S, MENU_LEN).pmf(0);
        assert!(
            (head - expected).abs() < 0.02,
            "head share {head} vs {expected}"
        );
    }

    #[test]
    fn the_sweep_universe_is_distinct_and_outgrows_the_cache() {
        let keys: HashSet<u64> = (0..SWEEP_UNIVERSE)
            .map(|u| {
                PlanKey::of(&sweep_scenario(u), None)
                    .expect("cacheable")
                    .fingerprint()
            })
            .collect();
        assert_eq!(keys.len(), SWEEP_UNIVERSE);
    }

    #[test]
    fn sweep_executes_never_share_a_seed() {
        let t = sweep(9, 60, 100.0, 0.5, 20);
        let mut seeds = HashSet::new();
        for body in &t.bodies {
            if let LabRequest::Execute { seed, .. } = wire::decode_request(body).expect("decodes") {
                assert!(seeds.insert(seed), "seed {seed} reused");
            }
        }
        assert!(!seeds.is_empty());
        assert_eq!(t.items.len(), t.closed.len() + t.open.len() + t.probe.len());
    }
}
