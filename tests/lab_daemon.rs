//! Integration tests for the lab daemon: concurrent socket clients must
//! see exactly the results a serial in-process replay produces, the
//! sharded cache counters must conserve the aggregate under the
//! storm, campaign scripts must run (and fail typed) over the wire, the
//! reactor must hold hundreds of keep-alive connections over a small
//! worker pool, and hostile framing (oversized heads and bodies, garbled
//! lengths, slow-loris dribble) must be answered with the right status
//! and a close, never a hang, while a body padded with a 1 MiB string is
//! answered promptly. Warm, small analytic executes are answered on the
//! reactor thread itself: in request order behind pooled requests, never
//! for a DES, over-budget or cold plan, never blocked behind a long
//! execute on the pool, and never at the cost of starving another
//! connection. Replies to requests pipelined in one read share a write.

use harborsim::hw::presets;
use harborsim::study::lab::daemon::{DaemonHandle, LabClient, LabDaemon};
use harborsim::study::lab::{
    wire, CampaignRowKind, LabRequest, LabResponse, PlanKey, QueryEngine, INLINE_MAX_RANKS,
};
use harborsim::study::scenario::{EngineKind, Execution, Outcome, Scenario};
use harborsim::study::workloads;
use harborsim_bench::loadgen::{menu_scenario, MENU_LEN};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;
/// Requests each client keeps in flight in the concurrent-clients test.
const PIPELINE_DEPTH: usize = 4;

/// A small grid of distinct scenarios; index i picks scenario and seed.
fn grid_scenario(i: usize) -> (Scenario, u64) {
    let nodes = [1u32, 2, 3, 4][i % 4];
    let seed = (i / 4) as u64 % 3;
    (
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(nodes)
            .ranks_per_node(14),
        seed,
    )
}

fn assert_same_outcome(label: &str, over_wire: &Outcome, direct: &Outcome) {
    assert_eq!(
        over_wire.elapsed, direct.elapsed,
        "{label}: elapsed must be bit-identical over the wire"
    );
    assert_eq!(
        over_wire.result, direct.result,
        "{label}: the full result must survive the wire"
    );
    assert_eq!(over_wire.deployment.is_some(), direct.deployment.is_some());
}

/// CLIENTS threads hammer one daemon over real sockets, each pipelining
/// its requests PIPELINE_DEPTH at a time; every response must be
/// bit-identical to a serial in-process replay of the same (scenario,
/// seed) schedule, and the per-shard cache counters must add up exactly
/// to the aggregate.
#[test]
fn concurrent_clients_match_the_serial_replay_on_the_reactor() {
    let engine = Arc::new(QueryEngine::new());
    let daemon =
        LabDaemon::bind("127.0.0.1:0", Arc::clone(&engine), CLIENTS).expect("bind loopback");
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = LabClient::connect(addr).expect("connect");
                // overlapping schedules: clients collide on both plans
                // and (plan, seed) pairs
                let schedule: Vec<usize> = (0..REQUESTS_PER_CLIENT)
                    .map(|r| (c + r) % (4 * 3))
                    .collect();
                barrier.wait();
                // every connection pipelines PIPELINE_DEPTH requests at a
                // time, so cold compiles on the pool and warm executes on
                // the reactor interleave within one connection
                schedule
                    .chunks(PIPELINE_DEPTH)
                    .flat_map(|group| {
                        let requests: Vec<LabRequest> = group
                            .iter()
                            .map(|&i| {
                                let (scenario, seed) = grid_scenario(i);
                                LabRequest::execute(scenario, seed)
                            })
                            .collect();
                        let responses = client
                            .query_pipelined(&requests)
                            .expect("pipelined queries succeed");
                        group
                            .iter()
                            .zip(responses)
                            .map(|(&i, response)| (i, response.into_outcome()))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let answered: Vec<(usize, Outcome)> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread panics"))
        .collect();

    // serial replay on a fresh engine, same schedule, no daemon
    let serial = QueryEngine::new();
    for (i, over_wire) in &answered {
        let (scenario, seed) = grid_scenario(*i);
        let direct = serial
            .handle(LabRequest::execute(scenario, seed))
            .into_outcome();
        assert_same_outcome(&format!("grid point {i}"), over_wire, &direct);
    }
    assert_eq!(answered.len(), CLIENTS * REQUESTS_PER_CLIENT);

    // the stats wire keeps its shape: one `per_shard` entry equal to the
    // cache counters, and no execute served from another's
    let mut client = LabClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats query").into_stats();
    assert_eq!(stats.per_shard.len(), 1);
    assert_eq!(stats.per_shard[0], stats.cache);
    assert_eq!(stats.batched_executes, 0);
    // 4 grid plans + the 4 warm-started paper-cluster plans
    assert_eq!(stats.cache.misses, 8, "{:?}", stats.cache);
    assert_eq!(
        stats.cache.hits + stats.cache.waits + stats.cache.misses,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64 + 4,
        "every request resolves through the cache exactly once \
         (+4 warm-start compiles): {:?}",
        stats.cache
    );

    // the wire view carries the daemon block the in-process view lacks
    let d = stats.daemon.as_ref().expect("daemon stats over the wire");
    assert_eq!(d.mode, "reactor");
    assert_eq!(d.accept_errors, 0);
    assert!(d.open_conns >= 1, "the stats connection itself is open");

    // inline and pooled answers interleaved: each client's first group
    // covers all 4 plans (`i % 4`), so its later 8 requests are warm and
    // answered on the reactor, while at least the 4 compiles took the pool
    let inline = handle.inline_answers();
    assert!(
        (64..=92).contains(&inline),
        "{inline} of {} requests answered on the reactor",
        CLIENTS * REQUESTS_PER_CLIENT
    );

    handle.shutdown();
    // in-process view agrees with the wire view
    assert_eq!(engine.stats().hits, stats.cache.hits);
}

/// Campaigns run server-side: one `.hsim` script over the socket, rows
/// come back labelled and fingerprinted exactly as a local compile
/// computes them.
#[test]
fn campaign_scripts_run_over_the_socket() {
    let daemon =
        LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), 2).expect("bind loopback");
    let handle = daemon.spawn();
    let mut client = LabClient::connect(handle.addr()).expect("connect");

    let script = "seeds quick\n\
                  campaign \"wire probe\" {\n\
                  \x20 cluster lenox\n\
                  \x20 workload cfd-small\n\
                  \x20 env singularity self-contained\n\
                  \x20 rpn 14\n\
                  \x20 sweep nodes [1, 2]\n\
                  }\n";
    let report = client
        .query(&LabRequest::Campaign {
            script: script.into(),
        })
        .expect("campaign query")
        .into_campaign();
    assert_eq!(report.campaigns.len(), 1);
    let result = &report.campaigns[0];
    assert_eq!(result.name, "wire probe");
    assert_eq!(result.rows.len(), 2);
    for (row, nodes) in result.rows.iter().zip([1u32, 2]) {
        let scenario = Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(nodes)
            .ranks_per_node(14);
        let expect = PlanKey::of(&scenario, None)
            .expect("cacheable")
            .fingerprint();
        assert_eq!(row.fingerprint, expect, "row {}", row.label);
        match &row.kind {
            CampaignRowKind::Closed { mean_elapsed_s } => assert!(*mean_elapsed_s > 0.0),
            other => panic!("expected a closed row, got {other:?}"),
        }
    }

    // a broken script comes back as a typed, positioned error
    let err = client
        .query(&LabRequest::Campaign {
            script: "seeds quick\ncampaign \"x\" {\n  cluster atlantis\n}\n".into(),
        })
        .expect("transport succeeds");
    match err {
        LabResponse::Error(harborsim::study::HarborError::Script(e)) => {
            assert_eq!(e.span.line, 3, "error carries the offending line: {e}");
            assert!(e.to_string().contains("atlantis"), "{e}");
        }
        other => panic!("expected a typed script error, got {other:?}"),
    }
    handle.shutdown();
}

/// Concurrent socket clients asking for the same (plan, seed) each get
/// the full outcome of the direct in-process run.
#[test]
fn identical_concurrent_wire_queries_get_the_direct_outcome() {
    let engine = Arc::new(QueryEngine::new());
    let daemon = LabDaemon::bind("127.0.0.1:0", Arc::clone(&engine), 8).expect("bind loopback");
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let barrier = Arc::new(Barrier::new(8));
    let outcomes: Vec<Outcome> = (0..8)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = LabClient::connect(addr).expect("connect");
                barrier.wait();
                // many rounds of the same (plan, seed), so executes of
                // one plan overlap on the pool and the reactor
                (0..6)
                    .map(|_| {
                        client
                            .query(&LabRequest::execute(grid_scenario(0).0, 42))
                            .expect("query")
                            .into_outcome()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flat_map(|w| w.join().expect("client panics"))
        .collect();

    let direct = QueryEngine::new()
        .handle(LabRequest::execute(grid_scenario(0).0, 42))
        .into_outcome();
    for o in &outcomes {
        assert_same_outcome("concurrent identical execute", o, &direct);
    }
    handle.shutdown();
}

/// The multiplexing acceptance test: 256 keep-alive connections stay
/// open simultaneously over a 4-worker pool, every one of them
/// answering queries, and the daemon's own stats report the count.
#[test]
fn reactor_holds_256_simultaneous_keepalive_connections() {
    const CONNS: usize = 256;
    let engine = Arc::new(QueryEngine::new());
    let daemon = LabDaemon::bind("127.0.0.1:0", engine, 4).expect("bind loopback");
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let mut clients: Vec<LabClient> = (0..CONNS)
        .map(|i| LabClient::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    // two passes so every socket proves it survives between requests
    for pass in 0..2 {
        for (i, client) in clients.iter_mut().enumerate() {
            let (scenario, _) = grid_scenario(i % 12);
            let response = client
                .query(&LabRequest::plan(scenario))
                .unwrap_or_else(|e| panic!("pass {pass} conn {i}: {e}"));
            assert!(
                matches!(response, LabResponse::Plan(_)),
                "pass {pass} conn {i}: {response:?}"
            );
        }
    }
    let stats = clients[0].stats().expect("stats").into_stats();
    let d = stats.daemon.expect("daemon stats over the wire");
    assert_eq!(d.mode, "reactor");
    assert!(
        d.open_conns >= CONNS as u64,
        "the reactor must hold all {CONNS} keep-alive connections at once, held {}",
        d.open_conns
    );
    drop(clients);
    handle.shutdown();
}

/// Write raw bytes, half-close, and collect whatever the daemon says
/// before it closes the connection.
fn raw_roundtrip(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write request bytes");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("daemon must close");
    String::from_utf8_lossy(&out).into_owned()
}

/// Hostile framing gets the right status and a close: oversized heads
/// 431, oversized declared bodies 413, garbled or conflicting
/// Content-Length 400 — never a hang, never a wedged worker.
#[test]
fn hostile_framing_is_rejected_on_the_reactor() {
    let daemon =
        LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), 2).expect("bind loopback");
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let huge_head = format!(
        "GET /v1/stats HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(9 * 1024)
    );
    let reply = raw_roundtrip(addr, huge_head.as_bytes());
    assert!(reply.starts_with("HTTP/1.1 431"), "{reply:?}");

    let huge_body = "POST /v1/lab HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n";
    let reply = raw_roundtrip(addr, huge_body.as_bytes());
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply:?}");

    let garbled = "POST /v1/lab HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
    let reply = raw_roundtrip(addr, garbled.as_bytes());
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");

    // the first length frames a whole stats request; the second disagrees
    let body = r#"{"v":1,"kind":"stats"}"#;
    let conflicting = format!(
        "POST /v1/lab HTTP/1.1\r\nContent-Length: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
        body.len() + 1
    );
    let reply = raw_roundtrip(addr, conflicting.as_bytes());
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");

    // the daemon is still healthy afterwards
    let mut client = LabClient::connect(addr).expect("connect after abuse");
    let stats = client.stats().expect("stats after abuse").into_stats();
    assert_eq!(stats.daemon.expect("daemon stats").accept_errors, 0);
    handle.shutdown();
}

/// A slow-loris connection dribbling a partial head times out with a
/// 408 and a close — and while it dribbles, healthy clients keep
/// getting served (the whole point of the per-request deadline).
#[test]
fn slow_loris_times_out_without_wedging_the_reactor() {
    let daemon = LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), 2)
        .expect("bind loopback")
        .read_timeout(Duration::from_millis(300));
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let mut loris = TcpStream::connect(addr).expect("loris connects");
    loris.write_all(b"GET /v1/st").expect("partial head");

    // the daemon must serve this while the loris holds its socket open
    let mut healthy = LabClient::connect(addr).expect("healthy client connects");
    let stats = healthy
        .stats()
        .expect("healthy client served mid-loris")
        .into_stats();
    assert!(stats.daemon.is_some());

    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut out = Vec::new();
    loris.read_to_end(&mut out).expect("daemon must close");
    let reply = String::from_utf8_lossy(&out);
    assert!(reply.starts_with("HTTP/1.1 408"), "{reply:?}");
    handle.shutdown();
}

/// A `stats` request padded with a 1 MiB unknown string field is
/// answered well inside the read timeout: JSON
/// strings parse in one linear pass, so a large body cannot hold a
/// worker for minutes.
#[test]
fn padded_body_is_answered_promptly_on_the_reactor() {
    let daemon =
        LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), 2).expect("bind loopback");
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let body = format!(
        r#"{{"v":1,"kind":"stats","pad":"{}"}}"#,
        "x".repeat(1 << 20)
    );
    let request = format!(
        "POST /v1/lab HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let reply = raw_roundtrip(addr, request.as_bytes());
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply:?}");
    assert!(reply.contains(r#""kind":"stats""#), "{reply:?}");
    handle.shutdown();
}

/// Pipelined requests on one connection come back in request order,
/// each a complete typed response — the framing layer may never
/// interleave or reorder.
#[test]
fn pipelined_requests_come_back_in_order_on_the_reactor() {
    let daemon =
        LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), 2).expect("bind loopback");
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let mut client = LabClient::connect(addr).expect("connect");
    let (scenario, _) = grid_scenario(1);
    let responses = client
        .query_pipelined(&[LabRequest::plan(scenario), LabRequest::Stats])
        .expect("pipelined batch");
    assert_eq!(responses.len(), 2);
    assert!(
        matches!(responses[0], LabResponse::Plan(_)),
        "first response answers the first request: {:?}",
        responses[0]
    );
    assert!(
        matches!(responses[1], LabResponse::Stats(_)),
        "second response answers the second request: {:?}",
        responses[1]
    );
    handle.shutdown();
}

/// Shutdown under load drains instead of wedging: clients racing a
/// shutdown either get a real answer or a typed 503/socket error, the
/// shutdown completes promptly, and every in-flight answer is still
/// bit-identical to the serial replay.
#[test]
fn shutdown_under_load_drains_on_the_reactor() {
    let daemon =
        LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), 4).expect("bind loopback");
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let clients: Vec<_> = (0..6)
        .map(|c| {
            std::thread::spawn(move || {
                let mut answered = Vec::new();
                for r in 0..60 {
                    let Ok(mut client) = LabClient::connect(addr) else {
                        break; // daemon gone: a clean refusal, not a hang
                    };
                    let i = (c + r) % 12;
                    let (scenario, seed) = grid_scenario(i);
                    match client.query(&LabRequest::execute(scenario, seed)) {
                        Ok(LabResponse::Execute(outcome)) => answered.push((i, *outcome)),
                        // late arrival: the daemon said 503 in a typed
                        // error instead of silently dropping the socket
                        Ok(LabResponse::Error(_)) | Err(_) => break,
                        Ok(other) => panic!("unexpected response {other:?}"),
                    }
                }
                answered
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    handle.shutdown();

    let serial = QueryEngine::new();
    for worker in clients {
        for (i, over_wire) in worker.join().expect("client thread panicked") {
            let (scenario, seed) = grid_scenario(i);
            let direct = serial
                .handle(LabRequest::execute(scenario, seed))
                .into_outcome();
            assert_same_outcome(&format!("racing grid point {i}"), &over_wire, &direct);
        }
    }
}

/// The raw HTTP request [`LabClient::send`] writes for `req`, with
/// `Connection: close` when `close` is set.
fn lab_post(addr: SocketAddr, req: &LabRequest, close: bool) -> Vec<u8> {
    let body = wire::encode_request(req).expect("encodable request");
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST /v1/lab HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Read one HTTP response off `reader` and return its body.
fn read_reply(reader: &mut impl BufRead) -> String {
    let mut length = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).expect("reply head") > 0, "eof");
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some(value) = trimmed.strip_prefix("Content-Length:") {
            length = value.trim().parse().expect("numeric length");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("reply body");
    String::from_utf8(body).expect("UTF-8 reply")
}

/// Warm `scenario`'s plan through the pool (a plan request never runs
/// on the reactor).
fn warm(client: &mut LabClient, scenario: Scenario) {
    let reply = client.query(&LabRequest::plan(scenario)).expect("plan");
    assert!(matches!(reply, LabResponse::Plan(_)), "{reply:?}");
}

fn spawn(workers: usize) -> DaemonHandle {
    LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), workers)
        .expect("bind loopback")
        .spawn()
}

/// A warm execute answered on the reactor waits in the reorder buffer
/// behind the pooled requests before it, and the daemon counts exactly
/// the warm executes as answered there.
#[test]
fn pipelined_warm_executes_answer_inline_in_request_order() {
    let handle = spawn(2);
    let mut client = LabClient::connect(handle.addr()).expect("connect");
    warm(&mut client, grid_scenario(1).0);
    assert_eq!(handle.inline_answers(), 0, "plans always take the pool");

    let responses = client
        .query_pipelined(&[
            LabRequest::plan(grid_scenario(2).0),
            LabRequest::execute(grid_scenario(1).0, 7),
            LabRequest::Stats,
            LabRequest::execute(grid_scenario(1).0, 8),
        ])
        .expect("pipelined batch");
    assert!(
        matches!(responses[0], LabResponse::Plan(_)),
        "{:?}",
        responses[0]
    );
    assert!(
        matches!(responses[2], LabResponse::Stats(_)),
        "{:?}",
        responses[2]
    );
    let direct = QueryEngine::new();
    for (i, seed) in [(1, 7u64), (3, 8)] {
        let LabResponse::Execute(over_wire) = &responses[i] else {
            panic!("response {i} answers an execute: {:?}", responses[i]);
        };
        let expect = direct
            .handle(LabRequest::execute(grid_scenario(1).0, seed))
            .into_outcome();
        assert_same_outcome(&format!("inline seed {seed}"), over_wire, &expect);
    }
    assert_eq!(handle.inline_answers(), 2, "exactly the two warm executes");
    handle.shutdown();
}

/// Only a warm, small analytic execute runs on the reactor: a DES plan,
/// a plan over the rank budget and a cold plan all take the pool, and
/// the budget is inclusive.
#[test]
fn des_over_budget_and_cold_executes_never_go_inline() {
    let handle = spawn(2);
    let mut client = LabClient::connect(handle.addr()).expect("connect");
    let des = || {
        grid_scenario(0).0.engine(EngineKind::Des {
            max_steps_per_kind: 2,
        })
    };
    let mn4 = |nodes: u32, rpn: u32| {
        Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
            .nodes(nodes)
            .ranks_per_node(rpn)
    };
    const { assert!(8 * 48 > INLINE_MAX_RANKS && 16 * 16 == INLINE_MAX_RANKS) };
    warm(&mut client, des());
    warm(&mut client, mn4(8, 48));
    let executes = [des(), mn4(8, 48), grid_scenario(3).0];
    for scenario in executes {
        let reply = client.query(&LabRequest::execute(scenario, 1));
        assert!(matches!(reply, Ok(LabResponse::Execute(_))), "{reply:?}");
    }
    assert_eq!(handle.inline_answers(), 0, "DES, over budget, cold");

    // the cold execute compiled its plan, so the same query is now warm;
    // so is a plan at exactly the rank budget
    warm(&mut client, mn4(16, 16));
    for scenario in [grid_scenario(3).0, mn4(16, 16)] {
        let reply = client.query(&LabRequest::execute(scenario, 1));
        assert!(matches!(reply, Ok(LabResponse::Execute(_))), "{reply:?}");
    }
    assert_eq!(handle.inline_answers(), 2);
    handle.shutdown();
}

/// With one worker held by a long DES execute on connection A, a warm
/// execute on connection B is still answered: it never waits for the
/// pool.
#[test]
fn a_warm_execute_is_answered_while_a_des_execute_holds_the_only_worker() {
    let handle = spawn(1);
    let addr = handle.addr();
    let mut b = LabClient::connect(addr).expect("connect B");
    warm(&mut b, grid_scenario(0).0);

    // about 2 s of message-level simulation on a 2-thread host
    let long = Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
        .nodes(16)
        .ranks_per_node(48)
        .engine(EngineKind::Des {
            max_steps_per_kind: 5,
        });
    let resident = handle.engine().stats().entries;
    let mut a = TcpStream::connect(addr).expect("connect A");
    a.write_all(&lab_post(addr, &LabRequest::execute(long, 1), true))
        .expect("send the DES execute");
    // A holds the only worker once its plan's slot is in the cache
    // (in flight while it compiles, ready while it executes)
    while handle.engine().stats().entries == resident {
        std::thread::yield_now();
    }

    let reply = b.query(&LabRequest::execute(grid_scenario(0).0, 2));
    assert!(matches!(reply, Ok(LabResponse::Execute(_))), "{reply:?}");
    assert_eq!(handle.inline_answers(), 1);
    a.set_nonblocking(true).expect("nonblocking probe");
    let mut probe = [0u8; 1];
    let pending = a.peek(&mut probe);
    assert!(
        matches!(&pending, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the DES execute must still be outstanding: {pending:?}"
    );

    a.set_nonblocking(false).expect("blocking read");
    a.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut out = Vec::new();
    a.read_to_end(&mut out).expect("A's reply");
    let reply = String::from_utf8_lossy(&out);
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply:?}");
    assert!(reply.contains(r#""kind":"execute""#), "{reply:?}");
    handle.shutdown();
}

/// Warm executes pipelined in one write come back in request order, each
/// byte-equal to the in-process reply, in a handful of writes: the
/// reactor flushes once per readiness event, not once per reply.
#[test]
fn pipelined_warm_executes_are_flushed_together() {
    const PIPELINED: usize = 32;
    let handle = spawn(2);
    let addr = handle.addr();
    let mut client = LabClient::connect(addr).expect("connect");
    for m in 0..MENU_LEN {
        warm(&mut client, menu_scenario(m));
    }
    let requests: Vec<LabRequest> = (0..PIPELINED)
        .map(|i| LabRequest::execute(menu_scenario(i % MENU_LEN), i as u64))
        .collect();
    let bytes: Vec<u8> = requests
        .iter()
        .flat_map(|req| lab_post(addr, req, false))
        .collect();
    let direct = QueryEngine::new();
    let expected: Vec<String> = requests
        .into_iter()
        .map(|req| wire::encode_response(&direct.handle(req)))
        .collect();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let before = handle.reply_writes();
    (&stream)
        .write_all(&bytes)
        .expect("every request in one write");
    let mut reader = BufReader::new(&stream);
    for (i, expect) in expected.iter().enumerate() {
        assert_eq!(&read_reply(&mut reader), expect, "reply {i}");
    }
    // a write is counted just after it returns, so the client can see
    // its bytes first
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.reply_writes() == before && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let writes = handle.reply_writes() - before;
    assert!(
        (1..=4).contains(&writes),
        "{PIPELINED} pipelined replies took {writes} writes"
    );
    assert_eq!(handle.inline_answers(), PIPELINED as u64);
    handle.shutdown();
}

/// A connection pipelining thousands of warm executes, each answered on
/// the reactor, does not keep a depth-1 client on another connection
/// waiting until the flood ends.
#[test]
fn a_pipelined_flood_of_warm_executes_does_not_starve_another_connection() {
    const FLOOD: usize = 4000;
    let handle = spawn(2);
    let addr = handle.addr();
    let mut client = LabClient::connect(addr).expect("connect");
    warm(&mut client, grid_scenario(0).0);

    let request = lab_post(addr, &LabRequest::execute(grid_scenario(0).0, 3), false);
    let flood = TcpStream::connect(addr).expect("connect the flood");
    let mut writer = flood.try_clone().expect("clone the flood socket");
    let answered = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let sender = std::thread::spawn(move || {
        for _ in 0..FLOOD {
            writer.write_all(&request).expect("flood write");
        }
    });
    let receiver = {
        let (answered, done) = (Arc::clone(&answered), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut reader = BufReader::new(flood);
            for _ in 0..FLOOD {
                assert!(read_reply(&mut reader).contains(r#""kind":"execute""#));
                answered.fetch_add(1, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    while answered.load(Ordering::SeqCst) < 50 {
        std::thread::yield_now();
    }

    let reply = client.query(&LabRequest::execute(grid_scenario(0).0, 4));
    assert!(matches!(reply, Ok(LabResponse::Execute(_))), "{reply:?}");
    let during = answered.load(Ordering::SeqCst);
    assert!(
        !done.load(Ordering::SeqCst),
        "the depth-1 client waited for the whole flood ({during} of {FLOOD} answered)"
    );

    sender.join().expect("flood sender");
    receiver.join().expect("flood receiver");
    assert_eq!(answered.load(Ordering::SeqCst), FLOOD);
    assert_eq!(handle.inline_answers(), FLOOD as u64 + 1);
    handle.shutdown();
}
