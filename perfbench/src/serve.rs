//! The daemon workloads, `serve-hot` and `serve-sweep`: the shipped
//! `reproduce_all --serve` daemon (epoll reactor, 8 workers) in a process
//! of its own, driven over loopback by this one process.
//!
//! A run spawns the daemon [`SETUP_REPS`] times (`setup_s` is the median
//! of spawn to first correct reply, warm start included) and measures on
//! the last one: a closed phase for `throughput_qps`, then an open phase
//! at a fixed Poisson rate for the latencies. The daemon runs on one CPU
//! and this process on another, both kept out of idle while timed; each
//! end-to-end timing is scaled by the host's pace on the daemon's CPU
//! (see `pace`), sampled between spawns, slices and segments. A traced
//! run adds the layer attribution: daemon counter deltas, a depth-1
//! socket pass with the client's wire work inside each round trip, and
//! the same requests replayed in process through each layer's public
//! functions.

use crate::loadgen::{drive, frame, Load, Phase};
use crate::metrics::Report;
use crate::pace::{self, Pace, Probe};
use crate::stats::{median, percentile, Summary};
use crate::trace::SpanLog;
use crate::traffic::{self, Traffic};
use crate::{sys, Args};
use harborsim_core::lab::wire;
use harborsim_core::{EngineStats, LabClient, LabRequest, LabResponse, QueryEngine};
use harborsim_des::trace::Recorder;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Which request mix.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Zipf execute requests over the warm 12-entry menu.
    Hot,
    /// Plan and execute requests over a universe five times the cache.
    Sweep,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Hot => "serve-hot",
            Mix::Sweep => "serve-sweep",
        }
    }

    /// The open phase's fixed arrival rate, requests/s: well under the
    /// closed-phase capacity on a 2-thread host (about 22k and 5.7k q/s),
    /// where the p99 repeats from run to run; at half the capacity it
    /// swung between 3 and 23 ms.
    fn open_rate(self) -> f64 {
        match self {
            Mix::Hot => 1500.0,
            Mix::Sweep => 600.0,
        }
    }

    /// Closed-phase requests prepared per second of the phase, each sent
    /// once: well above the closed-phase capacity on a 2-thread host, so
    /// only a much faster daemon makes a slice run out and end early.
    /// `serve-sweep` prepares each request's reply in process at set-up,
    /// which bounds its margin.
    fn closed_per_s(self) -> f64 {
        match self {
            Mix::Hot => 60_000.0,
            Mix::Sweep => 9_000.0,
        }
    }
}

/// Daemon spawns per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Requests in flight per connection in the closed phase.
const DEPTH: usize = 4;
/// Share of `--seconds` the closed phase sends for.
const CLOSED_SHARE: f64 = 0.4;
/// Slices of the closed phase, each on fresh connections and its own
/// share of the closed order; `throughput_qps` is their median, which a
/// short stall cannot move.
const CLOSED_SLICES: u32 = 20;
/// Share of `--seconds` the open phase's schedule spans.
const OPEN_SHARE: f64 = 0.5;
/// Consecutive parts of the open phase, with the host's pace sampled
/// between them.
const OPEN_SEGMENTS: usize = 10;
/// Requests in the traced depth-1 pass and its in-process replay.
const PROBE_REQUESTS: usize = 2000;
/// First trace id of the depth-1 pass, clear of the phases' ids.
const PROBE_TRACE: u64 = 1 << 40;

/// Run one serve workload.
pub fn run(mix: Mix, args: &Args) -> io::Result<Report> {
    let closed_for = Duration::from_secs_f64(CLOSED_SHARE * args.seconds as f64);
    let open_s = OPEN_SHARE * args.seconds as f64;
    let closed_len = (mix.closed_per_s() * closed_for.as_secs_f64()).ceil() as usize;
    let t = Instant::now();
    let build = match mix {
        Mix::Hot => traffic::hot,
        Mix::Sweep => traffic::sweep,
    };
    let traffic = build(
        args.seed,
        closed_len,
        mix.open_rate(),
        open_s,
        PROBE_REQUESTS,
    );
    println!(
        "{}: {} distinct requests and their replies prepared in process in {:.2} s",
        mix.name(),
        traffic.items.len(),
        t.elapsed().as_secs_f64()
    );
    let mut report = Report::default();
    let probe = &traffic.items[traffic.closed[0] as usize];
    let allowed = sys::allowed_cpus()?;
    let cpus = Cpus {
        daemon: allowed[0],
        client: allowed[allowed.len() - 1],
        conns: allowed.len().min(2),
    };
    sys::pin_to(cpus.client)?;
    let mut spawn_pace = Pace::new(Probe::Spawn);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut setup_paces = vec![cpus.pace(&mut spawn_pace)?];
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let awake = cpus.awake()?;
        let t0 = Instant::now();
        let spawned = cpus.spawn(&args.daemon)?;
        let correct = exchange(spawned.addr, &probe.request)? == probe.expected;
        setup.push(t0.elapsed().as_secs_f64());
        drop(awake);
        report.count(1, u64::from(!correct));
        if rep + 1 < SETUP_REPS {
            spawned.shutdown()?;
        } else {
            daemon = Some(spawned);
        }
        setup_paces.push(cpus.pace(&mut spawn_pace)?);
    }
    let setup = pace::scale(&setup, &setup_paces);
    let daemon = daemon.expect("at least one set-up");
    println!(
        "  set-up: spawn to first correct reply, median {:.4} s of {SETUP_REPS}",
        median(&setup)
    );
    if args.trace {
        attribute(
            mix,
            args,
            &traffic,
            daemon,
            cpus.conns,
            closed_for,
            &mut report,
        )?;
    } else {
        measure(mix, &traffic, daemon, cpus, closed_for, &mut report)?;
        report.set("setup_s", median(&setup));
    }
    Ok(report)
}

/// The open phase cut into [`OPEN_SEGMENTS`] consecutive parts: each
/// part's share of the open order, and its schedule, due offsets counted
/// from the part's first arrival.
fn open_segments(traffic: &Traffic) -> impl Iterator<Item = (&[u32], Vec<Duration>)> {
    let n = traffic.schedule.len();
    (0..OPEN_SEGMENTS).filter_map(move |k| {
        let (from, to) = (n * k / OPEN_SEGMENTS, n * (k + 1) / OPEN_SEGMENTS);
        let part = traffic.schedule.get(from..to).filter(|p| !p.is_empty())?;
        let schedule = part.iter().map(|&due| due - part[0]).collect();
        Some((&traffic.open[from..to], schedule))
    })
}

/// The `k`-th of [`CLOSED_SLICES`] equal shares of the closed order.
fn slice(closed: &[u32], k: u32) -> &[u32] {
    let at = |k: u32| closed.len() * k as usize / CLOSED_SLICES as usize;
    &closed[at(k)..at(k + 1)]
}

/// One closed slice: `k`'s share of the closed order for its share of
/// the phase. A slice that sends its whole share ends early; its
/// throughput stands, but the prepared requests were too few.
fn closed_slice(
    addr: SocketAddr,
    conns: usize,
    traffic: &Traffic,
    k: u32,
    closed_for: Duration,
    trace: bool,
) -> io::Result<Phase> {
    let order = slice(&traffic.closed, k);
    let load = Load::Closed {
        depth: DEPTH,
        run_for: closed_for / CLOSED_SLICES,
    };
    let phase = drive(addr, conns, &traffic.items, order, load, trace)?;
    if phase.sent == order.len() {
        eprintln!(
            "closed slice {k} sent all {} of its prepared requests before its time was up",
            order.len()
        );
    }
    Ok(phase)
}

/// The end-to-end run: closed phase, open phase, peak memory.
fn measure(
    mix: Mix,
    traffic: &Traffic,
    daemon: Daemon,
    cpus: Cpus,
    closed_for: Duration,
    report: &mut Report,
) -> io::Result<()> {
    let (conns, pace) = (cpus.conns, &mut Pace::new(Probe::Switch));
    // seconds per reply in each slice, and the host's pace around each
    let mut per_reply = Vec::with_capacity(CLOSED_SLICES as usize);
    let mut paces = vec![cpus.pace(pace)?];
    for k in 0..CLOSED_SLICES {
        let awake = cpus.awake()?;
        let slice = closed_slice(daemon.addr, conns, traffic, k, closed_for, false)?;
        drop(awake);
        report.add(&slice.tally);
        per_reply.push(1.0 / slice.qps());
        paces.push(cpus.pace(pace)?);
    }
    let raw_qps = 1.0 / median(&per_reply);
    let qps: Vec<f64> = pace::scale(&per_reply, &paces)
        .iter()
        .map(|s| 1.0 / s)
        .collect();
    println!(
        "  closed phase: {CLOSED_SLICES} slices of {:.2} s over {conns} connections x depth \
         {DEPTH}: median {raw_qps:.0} q/s as timed, host pace {:.3} (from {:.3} to {:.3}); \
         at the reference pace {qps:.0?} q/s",
        closed_for.as_secs_f64() / f64::from(CLOSED_SLICES),
        median(&paces),
        paces.iter().copied().fold(f64::INFINITY, f64::min),
        paces.iter().copied().fold(0.0, f64::max),
    );
    report.set("throughput_qps", median(&qps));
    // the open phase in segments, each on fresh connections, the pace
    // sampled between them; latencies kept in order, scaled by the pace
    // around their segment
    let (mut raw_ms, mut latency_ms) = (Vec::new(), Vec::new());
    let mut before = cpus.pace(pace)?;
    for (order, schedule) in open_segments(traffic) {
        let awake = cpus.awake()?;
        let open = drive(
            daemon.addr,
            conns,
            &traffic.items,
            order,
            Load::Open {
                schedule: &schedule,
            },
            false,
        )?;
        drop(awake);
        report.add(&open.tally);
        let after = cpus.pace(pace)?;
        let at = (before + after) / 2.0;
        latency_ms.extend(open.tally.latency_ms.iter().map(|ms| ms / at));
        raw_ms.extend(open.tally.latency_ms);
        before = after;
    }
    let peak_rss_mb = sys::peak_rss_mb(Some(daemon.child.id()));
    daemon.shutdown()?;
    if let Some(lat) = Summary::of(&latency_ms) {
        println!(
            "  open phase: {} requests at {}/s in {OPEN_SEGMENTS} segments; p50 {:.4} ms as \
             timed; at the reference pace latency p50 {:.4} ms, {} {:.4} ms (n={})",
            traffic.schedule.len(),
            mix.open_rate(),
            median(&raw_ms),
            lat.p50,
            lat.tail_label(),
            lat.tail,
            lat.n,
        );
        report.set("latency_p50_ms", lat.p50);
    }
    report.set("peak_rss_mb", peak_rss_mb);
    Ok(())
}

/// The traced run: every per-layer metric, and the stage table of a
/// depth-1 round trip.
fn attribute(
    mix: Mix,
    args: &Args,
    traffic: &Traffic,
    daemon: Daemon,
    conns: usize,
    closed_for: Duration,
    report: &mut Report,
) -> io::Result<()> {
    let mut log = SpanLog::new();
    let before = daemon_stats(daemon.addr)?;
    // the closed slices alternate untraced and traced in ABBA order, so
    // drift cancels: the throughput gap is what recording spans costs
    let mut slices = [Vec::new(), Vec::new()];
    let mut next_trace = 0;
    for k in 0..CLOSED_SLICES {
        let traced = matches!(k % 4, 1 | 2);
        let phase = closed_slice(daemon.addr, conns, traffic, k, closed_for, traced)?;
        slices[usize::from(traced)].push(phase.qps());
        report.add(&phase.tally);
        next_trace = log.requests(next_trace, &phase.spans);
    }
    let qps = [median(&slices[0]), median(&slices[1])];
    let open = Load::Open {
        schedule: &traffic.schedule,
    };
    let open = drive(
        daemon.addr,
        conns,
        &traffic.items,
        &traffic.open,
        open,
        true,
    )?;
    report.add(&open.tally);
    log.requests(next_trace, &open.spans);
    let after = daemon_stats(daemon.addr)?;
    let rtt = depth_one(daemon.addr, traffic, &mut log, report)?;
    daemon.shutdown()?;
    let replay = replay(traffic, &mut log);

    let mut lag = open.tally.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    if !lag.is_empty() {
        report.set("loadgen.lag_p99_ms", percentile(&lag, 99.0));
    }
    report.set("trace.overhead_pct", (1.0 - qps[1] / qps[0]) * 100.0);
    report.cache(
        &before.cache,
        &after.cache,
        after
            .batched_executes
            .saturating_sub(before.batched_executes),
    );
    if let Some(d) = &after.daemon {
        report.set("daemon.accept_errors", d.accept_errors as f64);
        report.set("daemon.late_503s", d.late_503s as f64);
        report.set("daemon.open_conns", d.open_conns as f64);
    }

    // The stages of a depth-1 round trip. The front end is the residual,
    // so the stages add up to the median round trip by construction.
    let rtt_us = median(&rtt);
    let stages = [
        (
            "client wire (encode request + decode response)",
            median(&replay.client_wire),
        ),
        (
            "server wire (decode request + encode response)",
            median(&replay.server_wire),
        ),
        ("plan resolve (QueryEngine::plan)", median(&replay.plan)),
        ("execute (ScenarioPlan::execute)", median(&replay.execute)),
        (
            "handle self (handle - plan - execute)",
            median(&replay.handle_self),
        ),
    ];
    let frontend = rtt_us - stages.iter().map(|(_, us)| us).sum::<f64>();
    println!(
        "  a depth-1 round trip, medians over {} requests on one connection:",
        rtt.len()
    );
    for (stage, us) in stages {
        println!("    {stage:<54} {us:>10.2} us");
    }
    let residual = "front end (reactor, HTTP, pool hand-off, loopback)";
    println!("    {residual:<54} {frontend:>10.2} us");
    println!("    {:<54} {rtt_us:>10.2} us", "= socket round trip");
    println!(
        "  tracing overhead on throughput_qps: {:.2}% ({:.1} q/s untraced, {:.1} q/s traced)",
        (1.0 - qps[1] / qps[0]) * 100.0,
        qps[0],
        qps[1]
    );
    report.set("socket.rtt_us", rtt_us);
    report.set("daemon.frontend_us", frontend);
    report.set("lab.handle_self_us", stages[4].1);
    for (metric, span) in [
        ("wire.encode_request_us", "wire.encode_request"),
        ("wire.decode_request_us", "wire.decode_request"),
        ("wire.encode_response_us", "wire.encode_response"),
        ("wire.decode_response_us", "wire.decode_response"),
        ("lab.handle_us", "lab.handle"),
        ("scenario.compile_us", "scenario.compile"),
        ("scenario.execute_analytic_us", "scenario.execute"),
    ] {
        report.set(metric, median(&log.durations_us(span)));
    }
    report.set("wire.request_bytes", median(&replay.request_bytes));
    report.set("wire.response_bytes", median(&replay.response_bytes));
    report.set("lab.plan_hit_us", median(&replay.plan_hit));
    report.set("lab.plan_miss_us", median(&replay.plan_miss));
    log.write(
        &args
            .out
            .join(format!("{}-seed{}.spans.jsonl", mix.name(), args.seed)),
    )
}

fn decode(body: &str) -> LabRequest {
    wire::decode_request(body).expect("the benchmark's own request bytes decode")
}

/// The body of a framed HTTP reply.
fn body(reply: &[u8]) -> &[u8] {
    let start = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(0, |at| at + 4);
    &reply[start..]
}

/// Round trips over one connection at depth 1 with the client's wire
/// work inside each — encode the typed request, send, read, decode — as
/// a `LabClient` user sees them. Returns them in µs.
fn depth_one(
    addr: SocketAddr,
    traffic: &Traffic,
    log: &mut SpanLog,
    report: &mut Report,
) -> io::Result<Vec<f64>> {
    let mut client = LabClient::connect(addr)?;
    let mut rtt = Vec::with_capacity(PROBE_REQUESTS);
    let mut failed = 0;
    for (k, &item) in traffic.probe.iter().enumerate() {
        let req = decode(&traffic.bodies[item as usize]);
        let trace = PROBE_TRACE + k as u64;
        let (reply, us) = log.time(trace, "socket.round_trip", || client.query(&req));
        let expected = body(&traffic.items[item as usize].expected);
        failed += u64::from(wire::encode_response(&reply?).as_bytes() != expected);
        rtt.push(us);
    }
    report.count(rtt.len() as u64, failed);
    Ok(rtt)
}

/// Per-request stage timings in µs from the in-process replay.
#[derive(Default)]
struct Replay {
    client_wire: Vec<f64>,
    server_wire: Vec<f64>,
    plan: Vec<f64>,
    plan_hit: Vec<f64>,
    plan_miss: Vec<f64>,
    execute: Vec<f64>,
    handle_self: Vec<f64>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
}

/// Replay the depth-1 requests in process through each layer's public
/// functions, on an engine warm-started like the daemon's. `handle`
/// resolves the plan and executes inside; those two steps are timed
/// apart on a twin engine with the same cache history.
fn replay(traffic: &Traffic, log: &mut SpanLog) -> Replay {
    let engine = QueryEngine::new();
    engine.warm_start();
    let twin = QueryEngine::new();
    twin.warm_start();
    let mut r = Replay::default();
    for (k, &item) in traffic.probe.iter().enumerate() {
        let trace = PROBE_TRACE + k as u64;
        let typed = decode(&traffic.bodies[item as usize]);
        let (text, encode_request) = log.time(trace, "wire.encode_request", || {
            wire::encode_request(&typed).expect("encodable")
        });
        let (req, decode_request) = log.time(trace, "wire.decode_request", || decode(&text));
        let (scenario, seed) = match decode(&text) {
            LabRequest::Execute { scenario, seed } => (scenario, Some(seed)),
            LabRequest::Plan { scenario } => (scenario, None),
            _ => unreachable!("the serve workloads send plan and execute requests"),
        };
        let misses = twin.stats().misses;
        let (plan, plan_us) = log.time(trace, "lab.plan", || {
            twin.plan(&scenario).expect("workload scenarios compile")
        });
        if twin.stats().misses == misses {
            r.plan_hit.push(plan_us);
        } else {
            r.plan_miss.push(plan_us);
        }
        let execute = seed.map_or(0.0, |seed| {
            let mut rec = Recorder::aggregating();
            log.time(trace, "scenario.execute", || plan.execute(seed, &mut rec))
                .1
        });
        let _ = log.time(trace, "scenario.compile", || scenario.compile_with(None));
        let (reply, handle) = log.time(trace, "lab.handle", || engine.handle(req));
        let (out, encode_response) = log.time(trace, "wire.encode_response", || {
            wire::encode_response(&reply)
        });
        let (_, decode_response) = log.time(trace, "wire.decode_response", || {
            wire::decode_response(&out)
        });
        r.client_wire.push(encode_request + decode_response);
        r.server_wire.push(decode_request + encode_response);
        r.plan.push(plan_us);
        r.execute.push(execute);
        r.handle_self.push(handle - plan_us - execute);
        r.request_bytes.push(text.len() as f64);
        r.response_bytes.push(out.len() as f64);
    }
    r
}

/// Where the daemon and the load generator run: a CPU each where the
/// host gives two, so neither queues behind the other's threads.
#[derive(Debug, Clone, Copy)]
struct Cpus {
    daemon: usize,
    client: usize,
    /// Load-generator connections: one per CPU the host gives, at most 2.
    conns: usize,
}

impl Cpus {
    /// Spawn a daemon, which inherits the spawning thread's CPU.
    fn spawn(self, bin: &Path) -> io::Result<Daemon> {
        sys::pin_to(self.daemon)?;
        let daemon = Daemon::spawn(bin);
        sys::pin_to(self.client)?;
        daemon
    }

    /// Keep both CPUs awake while the guard is held.
    fn awake(self) -> io::Result<sys::Awake> {
        sys::Awake::on(&[self.daemon, self.client])
    }

    /// The pace of the daemon's CPU, sampled while the daemon is idle.
    fn pace(self, pace: &mut Pace) -> io::Result<f64> {
        sys::pin_to(self.daemon)?;
        let at = pace.sample()?;
        sys::pin_to(self.client)?;
        Ok(at)
    }
}

/// A `reproduce_all --serve` child process. Dropping it kills the
/// process and waits for it, so no daemon outlives the run.
struct Daemon {
    child: Child,
    /// Held open so the daemon's last status line never meets a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawn on an ephemeral loopback port; returns once it has bound
    /// and warm-started.
    fn spawn(bin: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(["--serve", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "{} reported no serving address: {line:?}",
                    bin.display()
                )))
            }
        }
    }

    /// Ask for a drained shutdown and wait for the process to exit.
    fn shutdown(mut self) -> io::Result<()> {
        LabClient::connect(self.addr)?.shutdown()?;
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("the daemon exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("the daemon did not exit after shutdown"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One blocking request and its framed reply, on a fresh connection.
fn exchange(addr: SocketAddr, request: &[u8]) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(request)?;
    let mut reply = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(len) = frame(&reply).map_err(io::Error::other)? {
            reply.truncate(len);
            return Ok(reply);
        }
        match stream.read(&mut chunk)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => reply.extend_from_slice(&chunk[..n]),
        }
    }
}

/// The daemon's `GET /v1/stats` counters.
fn daemon_stats(addr: SocketAddr) -> io::Result<EngineStats> {
    match LabClient::connect(addr)?.stats()? {
        LabResponse::Stats(stats) => Ok(stats),
        other => Err(io::Error::other(format!(
            "the stats route answered {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn no_sweep_request_or_seed_is_sent_twice() {
        let t = traffic::sweep(4, 400, 200.0, 0.5, 30);
        let sent: Vec<u32> = (0..CLOSED_SLICES)
            .flat_map(|k| slice(&t.closed, k).iter().copied())
            .chain(t.open.iter().copied())
            .chain(t.probe.iter().copied())
            .collect();
        assert_eq!(
            sent.len(),
            t.items.len(),
            "the slices cover the closed order"
        );
        let distinct: HashSet<u32> = sent.iter().copied().collect();
        assert_eq!(distinct.len(), sent.len(), "the slices share no request");
        let mut seeds = HashSet::new();
        for &i in &sent {
            if let LabRequest::Execute { seed, .. } = decode(&t.bodies[i as usize]) {
                assert!(seeds.insert(seed), "seed {seed} is sent twice");
            }
        }
        assert!(seeds.len() > sent.len() / 2, "most requests execute");
    }
}
