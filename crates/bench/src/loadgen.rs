//! The daemon load generator: the lab benchmarking itself.
//!
//! `reproduce_all --serve-bench` starts a [`LabDaemon`](harborsim_core::lab::daemon::LabDaemon) on a loopback
//! port and turns this generator on it: `clients` concurrent
//! connections, each drawing *which* query to send from a Zipf
//! distribution over a fixed menu of scenarios spanning the four paper
//! clusters — so a hot head of plan keys hammers a few cache shards
//! while a long tail keeps compiling, exactly the skew the sharded
//! cache and admission batching exist for. Seeds cycle `i % 3`, so
//! concurrent clients regularly collide on the same `(plan, seed)` and
//! the daemon's batched-execute rendezvous gets real traffic.
//!
//! Two [`Drive`] modes:
//!
//! * **Closed loop** — each connection keeps a fixed number of requests
//!   in flight (pipelined over one keep-alive socket; `in_flight: 1` is
//!   the classic request/response ping-pong). Latency is measured send
//!   → response. Closed loops measure *capacity*: the daemon is never
//!   offered more than `clients × in_flight` concurrent work.
//! * **Open loop** — arrivals follow a Poisson process at a fixed
//!   aggregate rate, and the schedule is computed *up front*: every
//!   request's latency is measured from its **scheduled** send time,
//!   not from whenever the client thread got around to writing it, so a
//!   stalled daemon inflates the recorded tail instead of silently
//!   thinning the arrival stream (no coordinated omission). Open loops
//!   measure *latency under offered load*.
//!
//! Per-request latencies stream into the same
//! [`QuantileSketch`] the open-system campaigns use for queue waits —
//! p50/p99/p999 — and each connection reports its own error count, so a
//! single sick socket is visible instead of vanishing into an
//! aggregate. The report's `qps` and `p99_ms` land in
//! `BENCH_baseline.json` (`daemon_mux_qps`, `daemon_mux_p99_ms`) next to
//! the solver hot paths.

use harborsim_core::lab::daemon::LabClient;
use harborsim_core::lab::{LabRequest, LabResponse};
use harborsim_core::scenario::{Execution, Scenario};
use harborsim_core::{Poisson, QuantileSketch, Zipf};
use harborsim_des::RngStream;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Zipf exponent of the query mix: a strong hot head (the first menu
/// entry draws ~30% of the traffic) with a compiling tail.
const ZIPF_S: f64 = 1.1;
/// Seeds cycle this modulus, forcing same-`(plan, seed)` collisions.
const SEED_CYCLE: u64 = 3;
/// Open-loop pipeline depth cap per connection: past this many
/// outstanding requests the client blocks on the oldest response
/// (latency stays corrected — it is measured from the schedule).
const OPEN_DEPTH_CAP: usize = 64;
/// Longest single inter-arrival sleep (bounds worst-case run time).
const MAX_GAP_S: f64 = 0.050;

/// How each load-generator connection offers work to the daemon.
#[derive(Debug, Clone, Copy)]
pub enum Drive {
    /// Fixed in-flight pipelined requests per connection; a response
    /// completion immediately triggers the next send.
    Closed {
        /// Outstanding requests each connection maintains (min 1).
        in_flight: usize,
    },
    /// Poisson arrivals at `rate_per_s` aggregate (split evenly across
    /// connections), latency-corrected against the precomputed
    /// schedule.
    Open {
        /// Aggregate arrival rate, requests per second.
        rate_per_s: f64,
    },
}

/// One connection's outcome.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Requests answered with a successful execute outcome.
    pub ok: u64,
    /// Requests that failed (socket, protocol, or wire errors).
    pub errors: u64,
    /// The connection could not even be established.
    pub connect_failed: bool,
}

/// What one load-generation run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests answered successfully, across all connections.
    pub requests: u64,
    /// Requests that failed, across all connections.
    pub errors: u64,
    /// Wall-clock seconds from first send to last response.
    pub wall_s: f64,
    /// Answered requests per wall-clock second.
    pub qps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile request latency, milliseconds.
    pub p999_ms: f64,
    /// Per-connection breakdown, in connection order.
    pub per_client: Vec<ClientReport>,
}

impl LoadgenReport {
    /// The per-connection error breakdown: one line per connection
    /// that saw trouble, or a single all-clear line. A single sick
    /// socket shows up by index instead of vanishing into a total.
    pub fn error_breakdown(&self) -> String {
        let mut out = String::new();
        for (i, c) in self.per_client.iter().enumerate() {
            if c.errors > 0 || c.connect_failed {
                let note = if c.connect_failed {
                    " (connect failed)"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "    conn {i:>3}: {:>6} ok  {:>6} errors{note}",
                    c.ok, c.errors
                );
            }
        }
        if out.is_empty() {
            out.push_str("    all connections clean\n");
        }
        out
    }
}

/// Menu size; [`menu_scenario`] accepts indices `0..MENU_LEN`.
pub const MENU_LEN: usize = 12;

/// The `i`-th menu entry: small-but-distinct scenarios across the four
/// paper clusters. Every entry compiles to its own plan key, so Zipf
/// over indices is Zipf over plan keys. (`Scenario` is not `Clone` —
/// workloads are boxed traits — so the menu is a constructor, not a
/// table.)
pub fn menu_scenario(i: usize) -> Scenario {
    let lenox = harborsim_hw::presets::lenox;
    let mn4 = harborsim_hw::presets::marenostrum4;
    let cte = harborsim_hw::presets::cte_power;
    let tx = harborsim_hw::presets::thunderx;
    let cfd = harborsim_core::workloads::artery_cfd_small;
    match i {
        // the hot head: the warm-start set itself, one per cluster
        0 => Scenario::new(lenox(), cfd()),
        1 => Scenario::new(mn4(), cfd()),
        2 => Scenario::new(cte(), cfd()),
        3 => Scenario::new(tx(), cfd()),
        // containerized variants
        4 => Scenario::new(lenox(), cfd())
            .execution(Execution::singularity_self_contained())
            .nodes(2)
            .ranks_per_node(14),
        5 => Scenario::new(lenox(), cfd())
            .execution(Execution::docker())
            .nodes(2)
            .ranks_per_node(14),
        6 => Scenario::new(mn4(), cfd())
            .execution(Execution::singularity_system_specific())
            .nodes(2)
            .ranks_per_node(48),
        7 => Scenario::new(cte(), cfd())
            .execution(Execution::singularity_system_specific())
            .nodes(2)
            .ranks_per_node(20),
        // scale-out tail
        8 => Scenario::new(mn4(), cfd())
            .execution(Execution::bare_metal())
            .nodes(4)
            .ranks_per_node(48),
        9 => Scenario::new(lenox(), cfd())
            .execution(Execution::singularity_self_contained())
            .nodes(4)
            .ranks_per_node(14),
        10 => Scenario::new(tx(), cfd())
            .execution(Execution::singularity_self_contained())
            .nodes(2)
            .ranks_per_node(48),
        11 => Scenario::new(lenox(), harborsim_core::workloads::ChainHaloCase)
            .nodes(2)
            .ranks_per_node(14),
        _ => panic!("menu index {i} out of range (menu has {MENU_LEN} entries)"),
    }
}

/// Drive a serving daemon at `addr` with `clients` connections,
/// `requests_per_client` queries each, under the given [`Drive`] mode.
pub fn run_with(
    addr: SocketAddr,
    clients: usize,
    requests_per_client: u64,
    drive: Drive,
) -> LoadgenReport {
    let clients = clients.max(1);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut rng = RngStream::new(0x10AD).derive(&format!("client-{c}"));
                let zipf = Zipf::new(ZIPF_S, MENU_LEN);
                let mut client = match LabClient::connect(addr) {
                    Ok(client) => client,
                    Err(_) => {
                        return (
                            ClientReport {
                                ok: 0,
                                errors: requests_per_client,
                                connect_failed: true,
                            },
                            QuantileSketch::new(),
                        )
                    }
                };
                match drive {
                    Drive::Closed { in_flight } => drive_closed(
                        &mut client,
                        requests_per_client,
                        in_flight.max(1),
                        &mut rng,
                        &zipf,
                    ),
                    Drive::Open { rate_per_s } => drive_open(
                        &mut client,
                        requests_per_client,
                        (rate_per_s / clients as f64).max(1e-9),
                        &mut rng,
                        &zipf,
                    ),
                }
            })
        })
        .collect();
    let mut per_client = Vec::with_capacity(clients);
    let mut lat = QuantileSketch::new();
    for h in handles {
        let (report, sketch) = h.join().expect("loadgen client panicked");
        lat.merge(&sketch);
        per_client.push(report);
    }
    let requests = per_client.iter().map(|c| c.ok).sum::<u64>();
    let errors = per_client.iter().map(|c| c.errors).sum::<u64>();
    let wall_s = t0.elapsed().as_secs_f64();
    LoadgenReport {
        requests,
        errors,
        wall_s,
        qps: requests as f64 / wall_s.max(1e-9),
        p50_ms: lat.p50(),
        p99_ms: lat.p99(),
        p999_ms: lat.p999(),
        per_client,
    }
}

/// Back-compat entry point: a finite rate is an open loop at that
/// aggregate rate; `f64::INFINITY` is the classic closed ping-pong
/// (one request in flight per connection).
pub fn run(
    addr: SocketAddr,
    clients: usize,
    requests_per_client: u64,
    rate_per_s: f64,
) -> LoadgenReport {
    let drive = if rate_per_s.is_finite() {
        Drive::Open { rate_per_s }
    } else {
        Drive::Closed { in_flight: 1 }
    };
    run_with(addr, clients, requests_per_client, drive)
}

/// Closed-loop sweep over connection counts: how throughput and tails
/// move as concurrency grows with the per-connection demand fixed.
pub fn connection_sweep(
    addr: SocketAddr,
    conn_counts: &[usize],
    requests_per_conn: u64,
    in_flight: usize,
) -> Vec<(usize, LoadgenReport)> {
    conn_counts
        .iter()
        .map(|&conns| {
            (
                conns,
                run_with(addr, conns, requests_per_conn, Drive::Closed { in_flight }),
            )
        })
        .collect()
}

/// One scenario-menu request with the colliding seed cycle.
fn next_request(i: u64, rng: &mut RngStream, zipf: &Zipf) -> LabRequest {
    LabRequest::execute(menu_scenario(zipf.sample(rng)), i % SEED_CYCLE)
}

fn observe(lat: &mut QuantileSketch, since: Instant) {
    lat.observe(since.elapsed().as_secs_f64() * 1e3);
}

/// Fixed in-flight pipelining over one keep-alive connection.
fn drive_closed(
    client: &mut LabClient,
    total: u64,
    in_flight: usize,
    rng: &mut RngStream,
    zipf: &Zipf,
) -> (ClientReport, QuantileSketch) {
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut lat = QuantileSketch::new();
    let mut sent: VecDeque<Instant> = VecDeque::with_capacity(in_flight);
    let mut next = 0u64;
    loop {
        while next < total && sent.len() < in_flight {
            let req = next_request(next, rng, zipf);
            if client.send(&req).is_err() {
                // The socket is gone: everything unanswered is an error.
                return (
                    ClientReport {
                        ok,
                        errors: total - ok,
                        connect_failed: false,
                    },
                    lat,
                );
            }
            sent.push_back(Instant::now());
            next += 1;
        }
        let Some(t_sent) = sent.pop_front() else {
            break;
        };
        match client.recv() {
            Ok(LabResponse::Execute(_)) => {
                observe(&mut lat, t_sent);
                ok += 1;
            }
            Ok(_) => errors += 1,
            Err(_) => {
                return (
                    ClientReport {
                        ok,
                        errors: total - ok,
                        connect_failed: false,
                    },
                    lat,
                );
            }
        }
    }
    (
        ClientReport {
            ok,
            errors,
            connect_failed: false,
        },
        lat,
    )
}

/// Poisson arrivals against a precomputed schedule; latency is
/// measured from the *scheduled* send time, so client-side stalls
/// inflate the recorded tail instead of thinning the offered load.
fn drive_open(
    client: &mut LabClient,
    total: u64,
    rate_per_s: f64,
    rng: &mut RngStream,
    zipf: &Zipf,
) -> (ClientReport, QuantileSketch) {
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut lat = QuantileSketch::new();
    let arrivals = Poisson::new(rate_per_s);
    let mut at = 0.0f64;
    let schedule: Vec<Duration> = (0..total)
        .map(|_| {
            at += arrivals.next_gap_s(rng).min(MAX_GAP_S);
            Duration::from_secs_f64(at)
        })
        .collect();
    let start = Instant::now();
    // scheduled send instants of outstanding requests, oldest first
    let mut sent: VecDeque<Instant> = VecDeque::new();
    let abort = |ok: u64, lat: QuantileSketch| {
        (
            ClientReport {
                ok,
                errors: total - ok,
                connect_failed: false,
            },
            lat,
        )
    };
    for (i, offset) in schedule.iter().enumerate() {
        if sent.len() >= OPEN_DEPTH_CAP {
            let t_sched = sent.pop_front().expect("outstanding request");
            match client.recv() {
                Ok(LabResponse::Execute(_)) => {
                    observe(&mut lat, t_sched);
                    ok += 1;
                }
                Ok(_) => errors += 1,
                Err(_) => return abort(ok, lat),
            }
        }
        let due = start + *offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let req = next_request(i as u64, rng, zipf);
        if client.send(&req).is_err() {
            return abort(ok, lat);
        }
        sent.push_back(due);
    }
    while let Some(t_sched) = sent.pop_front() {
        match client.recv() {
            Ok(LabResponse::Execute(_)) => {
                observe(&mut lat, t_sched);
                ok += 1;
            }
            Ok(_) => errors += 1,
            Err(_) => return abort(ok, lat),
        }
    }
    (
        ClientReport {
            ok,
            errors,
            connect_failed: false,
        },
        lat,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use harborsim_core::lab::daemon::LabDaemon;
    use harborsim_core::lab::QueryEngine;
    use std::sync::Arc;

    #[test]
    fn menu_entries_have_distinct_plan_keys() {
        use harborsim_core::lab::PlanKey;
        let keys: Vec<u64> = (0..MENU_LEN)
            .map(|i| {
                PlanKey::of(&menu_scenario(i), None)
                    .expect("menu scenarios are cacheable")
                    .fingerprint()
            })
            .collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "menu keys collide: {keys:?}");
    }

    #[test]
    fn loadgen_drives_a_live_daemon() {
        let daemon =
            LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), 4).expect("bind loopback");
        let handle = daemon.spawn();
        let report = run(handle.addr(), 4, 8, f64::INFINITY);
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.requests, 32);
        assert!(report.qps > 0.0 && report.p99_ms >= report.p50_ms);
        assert!(report.p999_ms >= report.p99_ms);
        assert_eq!(report.per_client.len(), 4);
        assert!(report.per_client.iter().all(|c| c.ok == 8 && c.errors == 0));
        assert!(report.error_breakdown().contains("all connections clean"));
        handle.shutdown();
    }

    #[test]
    fn pipelined_and_open_drives_answer_every_request() {
        let daemon =
            LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), 2).expect("bind loopback");
        let handle = daemon.spawn();
        let closed = run_with(handle.addr(), 3, 10, Drive::Closed { in_flight: 4 });
        assert_eq!(closed.errors, 0, "{closed:?}");
        assert_eq!(closed.requests, 30);
        let open = run_with(handle.addr(), 2, 8, Drive::Open { rate_per_s: 400.0 });
        assert_eq!(open.errors, 0, "{open:?}");
        assert_eq!(open.requests, 16);
        handle.shutdown();
    }

    #[test]
    fn connection_sweep_covers_each_count() {
        let daemon =
            LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), 4).expect("bind loopback");
        let handle = daemon.spawn();
        let sweep = connection_sweep(handle.addr(), &[1, 2, 4], 6, 2);
        assert_eq!(sweep.len(), 3);
        for (conns, report) in &sweep {
            assert_eq!(report.errors, 0, "{conns} conns: {report:?}");
            assert_eq!(report.requests, *conns as u64 * 6);
            assert_eq!(report.per_client.len(), *conns);
        }
        handle.shutdown();
    }
}
