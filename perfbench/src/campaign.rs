//! The in-process campaign workloads: `campaign-des`, a message-level
//! DES grid, and `campaign-open`, the open-system Lenox storm. One
//! operation is one `QueryEngine::handle(LabRequest::Campaign)` on an
//! engine whose plans set-up resolved. Every report is compared with a
//! reference built at set-up that bypasses the plan cache, admission
//! batching and the pool.

use crate::metrics::Report;
use crate::pace::{self, Pace, Probe};
use crate::stats::{median, Summary};
use crate::trace::SpanLog;
use crate::{nproc, sys, Args};
use harborsim_core::experiments::ext_open_system;
use harborsim_core::lab::wire;
use harborsim_core::script::compile_str;
use harborsim_core::{
    class_table, run_open_campaign, CampaignReport, CampaignResult, CampaignRow, CampaignRowKind,
    LabRequest, LabResponse, Outcome, PlanKey, QuantileSketch, QueryEngine, Scenario,
};
use harborsim_des::trace::Recorder;
use harborsim_des::RngStream;
use std::io;
use std::time::Instant;

/// Which campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fsi-mn4` on MareNostrum4 under the message-level DES.
    Des,
    /// The `ext_open_system` Lenox storm over many seeds.
    Open,
}

/// Engine set-ups per run; `setup_s` is their median. One takes about
/// 0.1 ms, so only a median over many is steady from run to run.
const SETUP_REPS: usize = 301;
/// Ranks per node of the DES grid: one, so every message crosses the
/// network and one campaign takes about 0.15 s on a 2-thread host; a
/// run holds over a hundred operations, and their median is steady.
const DES_RPN: u32 = 1;
/// Seeds one open-system operation runs: few enough that a run holds
/// over a hundred operations (about 0.15-0.2 s each on a 2-thread host),
/// so their median is steady.
const OPEN_SEEDS: usize = 2;
/// The storm's arrival rate, jobs/s, for 60-80% node utilization on
/// Lenox (0.05/s gives 30%; 0.5/s saturates with a growing backlog).
const OPEN_RATE: f64 = 0.15;
/// Repetitions of each sub-millisecond layer timing in a traced run.
const LAYER_REPS: u64 = 20;
/// Executes at each shard count behind `des.shard_speedup`; it compares
/// their medians.
const SHARD_REPS: usize = 5;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Des => "campaign-des",
            Kind::Open => "campaign-open",
        }
    }

    /// The campaign script for workload seed `seed`.
    fn script(self, seed: u64) -> String {
        let mut rng = RngStream::new(seed).derive(self.name());
        let mut seeds = |n: usize| {
            (0..n)
                .map(|_| rng.below(1 << 31).to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        match self {
            Kind::Des => format!(
                "campaign \"des-grid\" {{\n  cluster marenostrum4\n  workload fsi-mn4\n  \
                 rpn {DES_RPN}\n  engine des 2\n  seeds {}\n  \
                 sweep env [bare-metal, singularity self-contained]\n  \
                 sweep nodes [4, 8, 16, 32]\n}}\n",
                seeds(2)
            ),
            Kind::Open => {
                let storm =
                    ext_open_system::SCRIPT.replace("rate=0.05", &format!("rate={OPEN_RATE}"));
                let block = storm
                    .trim_end()
                    .strip_suffix('}')
                    .expect("the storm script ends with its campaign block");
                format!("{block}  seeds {}\n}}\n", seeds(OPEN_SEEDS))
            }
        }
    }
}

fn fail(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// One campaign block as the engine runs it: labels, scenarios with the
/// script's taper pinned, and seeds.
struct Grid {
    name: String,
    seeds: Vec<u64>,
    runs: Vec<(String, Scenario)>,
}

fn grid(script: &str) -> io::Result<Grid> {
    let compiled = compile_str(script).map_err(fail)?;
    let taper = compiled.taper;
    let fallback = compiled.seeds.clone();
    let campaign = compiled
        .campaigns
        .into_iter()
        .next()
        .ok_or_else(|| fail("the script has no campaign"))?;
    let seeds = campaign.seeds_or(&fallback).to_vec();
    let runs = campaign
        .runs
        .into_iter()
        .map(|run| {
            let label = if run.labels.is_empty() {
                "(base)".to_string()
            } else {
                run.labels.join(" / ")
            };
            let mut scenario = run.scenario;
            if scenario.spine_taper.is_none() {
                scenario.spine_taper = taper;
            }
            (label, scenario)
        })
        .collect();
    Ok(Grid {
        name: campaign.name,
        seeds,
        runs,
    })
}

/// Executes timed one at a time, outside the pool.
#[derive(Default)]
struct Executes {
    secs: Vec<f64>,
    msgs: u64,
}

impl Executes {
    fn add(&mut self, outcome: &Outcome, us: f64) {
        self.secs.push(us / 1e6);
        self.msgs += outcome.result.inter_node_msgs + outcome.result.intra_node_msgs;
    }

    fn msgs_per_s(&self) -> f64 {
        self.msgs as f64 / self.secs.iter().sum::<f64>().max(1e-12)
    }
}

fn fingerprint(scenario: &Scenario) -> u64 {
    PlanKey::of(scenario, None).map_or(0, |key| key.fingerprint())
}

/// Closed rows the direct way: `Scenario::compile`, then
/// `ScenarioPlan::execute` per seed, one at a time.
fn closed_reference(
    grid: &Grid,
    log: &mut SpanLog,
    executes: &mut Executes,
) -> io::Result<CampaignReport> {
    let mut rows = Vec::with_capacity(grid.runs.len());
    for (i, (label, scenario)) in grid.runs.iter().enumerate() {
        let trace = i as u64;
        let plan = log
            .time(trace, "scenario.compile", || scenario.compile())
            .0
            .map_err(fail)?;
        let mut elapsed = Vec::with_capacity(grid.seeds.len());
        for &seed in &grid.seeds {
            let (outcome, us) = log.time(trace, "scenario.execute", || {
                plan.execute(seed, &mut Recorder::off())
            });
            executes.add(&outcome, us);
            elapsed.push(outcome.elapsed.as_secs_f64());
        }
        let mean_elapsed_s = elapsed.iter().sum::<f64>() / elapsed.len().max(1) as f64;
        rows.push(CampaignRow {
            label: label.clone(),
            fingerprint: fingerprint(scenario),
            kind: CampaignRowKind::Closed { mean_elapsed_s },
        });
    }
    Ok(CampaignReport {
        campaigns: vec![CampaignResult {
            name: grid.name.clone(),
            rows,
        }],
    })
}

/// Open rows the direct way: `run_open_campaign` per seed on a fresh
/// engine, folded as the campaign handler folds them.
fn open_reference(grid: &Grid, log: &mut SpanLog) -> io::Result<CampaignReport> {
    let mut rows = Vec::with_capacity(grid.runs.len());
    for (i, (label, scenario)) in grid.runs.iter().enumerate() {
        let lab = QueryEngine::new();
        let (mut jobs, mut utilization, mut wait) = (0, 0.0, QuantileSketch::new());
        for &seed in &grid.seeds {
            let report = log
                .time(i as u64, "reference.run_open_campaign", || {
                    run_open_campaign(&lab, scenario, seed, &mut Recorder::off())
                })
                .0
                .map_err(fail)?;
            jobs += report.jobs;
            utilization += report.utilization;
            for runtime in &report.per_runtime {
                wait.merge(&runtime.wait);
            }
        }
        utilization /= grid.seeds.len().max(1) as f64;
        rows.push(CampaignRow {
            label: label.clone(),
            fingerprint: fingerprint(scenario),
            kind: CampaignRowKind::Open {
                jobs,
                utilization,
                wait_p50_s: wait.p50(),
                wait_p99_s: wait.p99(),
            },
        });
    }
    Ok(CampaignReport {
        campaigns: vec![CampaignResult {
            name: grid.name.clone(),
            rows,
        }],
    })
}

/// Run one campaign workload.
pub fn run(kind: Kind, args: &Args) -> io::Result<Report> {
    let script = kind.script(args.seed);
    let grid = grid(&script)?;
    let mut log = SpanLog::new();
    let mut report = Report::default();
    // Sharded DES runs its shards on `harborsim_par::gang` threads, not
    // the batch pool, so the shard scaling is timed on every CPU the host
    // gives, before the pin below.
    let speedup = if args.trace {
        Some(shard_speedup(kind, &script, grid.seeds[0], &mut log)?)
    } else {
        None
    };
    // `harborsim_par::run` can deadlock when two of its workers steal at
    // once (each holds its own deque's lock while locking the other's),
    // and these workloads run thousands of batches per run; on one CPU
    // the pool runs each batch inline.
    sys::pin_to_one_cpu()?;
    // every plan one operation resolves: the grid points, or for an open
    // campaign every class of its job mix
    let classes: Vec<Scenario> = match kind {
        Kind::Des => Vec::new(),
        Kind::Open => grid
            .runs
            .iter()
            .flat_map(|(_, s)| class_table(s))
            .map(|c| c.scenario)
            .collect(),
    };
    let targets: Vec<&Scenario> = match kind {
        Kind::Des => grid.runs.iter().map(|(_, s)| s).collect(),
        Kind::Open => classes.iter().collect(),
    };
    let mut pace = Pace::new(Probe::Compute);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut setup_paces = vec![pace.sample()?];
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let fresh = QueryEngine::new();
        for (i, scenario) in targets.iter().enumerate() {
            log.time(i as u64, "lab.plan_miss", || fresh.plan(scenario))
                .0
                .map_err(fail)?;
        }
        setup.push(t0.elapsed().as_secs_f64());
        setup_paces.push(pace.sample()?);
        engine = Some(fresh);
    }
    let setup = pace::scale(&setup, &setup_paces);
    let engine = engine.expect("at least one set-up");
    for (i, scenario) in targets.iter().enumerate() {
        log.time(i as u64, "lab.plan_hit", || engine.plan(scenario))
            .0
            .map_err(fail)?;
    }
    let t = Instant::now();
    let mut executes = Executes::default();
    let reference = match kind {
        Kind::Des => closed_reference(&grid, &mut log, &mut executes)?,
        Kind::Open => open_reference(&grid, &mut log)?,
    };
    println!(
        "{}: {} grid points x {} seeds over {} plans; reference built in {:.2} s; \
         set-up median {:.4} s of {SETUP_REPS}",
        kind.name(),
        grid.runs.len(),
        grid.seeds.len(),
        targets.len(),
        t.elapsed().as_secs_f64(),
        median(&setup)
    );
    for row in &reference.campaigns[0].rows {
        if let CampaignRowKind::Open {
            jobs, utilization, ..
        } = row.kind
        {
            println!(
                "  {}: {jobs} jobs, node utilization {utilization:.3}",
                row.label
            );
        }
    }

    let stats_before = engine.stats();
    let batched_before = engine.batched_executes();
    // every operation's wall time in order, whether it was traced, and
    // the host's pace before the first and after each
    let (mut took_ms, mut traced_ops) = (Vec::new(), Vec::new());
    let mut paces = vec![pace.sample()?];
    let mut last = None;
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed().as_secs_f64() < args.seconds as f64 {
        // a traced run alternates untraced and traced operations (ABBA)
        // so their difference prices the span recording
        let traced_op = args.trace && matches!(op % 4, 1 | 2);
        let request = LabRequest::Campaign {
            script: script.clone(),
        };
        let t0 = Instant::now();
        let reply = engine.handle(request);
        let t1 = Instant::now();
        if traced_op {
            log.record(op, "lab.handle", t0, t1);
        }
        let correct = matches!(&reply, LabResponse::Campaign(r) if *r == reference);
        if !correct {
            eprintln!(
                "{}: operation {op} disagrees with the reference",
                kind.name()
            );
        }
        report.count(1, u64::from(!correct));
        took_ms.push((t1 - t0).as_secs_f64() * 1e3);
        traced_ops.push(traced_op);
        paces.push(pace.sample()?);
        last = Some(reply);
        op += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();
    let raw = Summary::of(&took_ms).expect("at least one operation");
    let ops_ms = pace::scale(&took_ms, &paces);
    let pick = |want: bool| -> Vec<f64> {
        let ops = ops_ms.iter().zip(&traced_ops);
        ops.filter(|(_, &t)| t == want).map(|(ms, _)| *ms).collect()
    };
    let (plain, traced) = (pick(false), pick(true));
    let lat = Summary::of(&ops_ms).expect("at least one operation");
    println!(
        "  {op} campaigns in {loop_s:.3} s: p50 {:.3} ms as timed, host pace {:.3} \
         (from {:.3} to {:.3}); at the reference pace p50 {:.3} ms, {} {:.3} ms (n={})",
        raw.p50,
        median(&paces),
        paces.iter().copied().fold(f64::INFINITY, f64::min),
        paces.iter().copied().fold(0.0, f64::max),
        lat.p50,
        lat.tail_label(),
        lat.tail,
        lat.n,
    );
    if !args.trace {
        report.set("setup_s", median(&setup));
        // campaigns per second of campaign time: the last operation's
        // overrun past `--seconds` does not quantize it
        let busy_s: f64 = plain.iter().sum::<f64>() / 1e3;
        report.set("throughput_qps", op as f64 / busy_s);
        report.set("latency_p50_ms", lat.p50);
        report.set("peak_rss_mb", sys::peak_rss_mb(None));
        return Ok(report);
    }

    if !plain.is_empty() && !traced.is_empty() {
        report.set(
            "trace.overhead_pct",
            (median(&traced) / median(&plain) - 1.0) * 100.0,
        );
    }
    report.set("lab.handle_us", raw.p50 * 1e3);
    report.cache(
        &stats_before,
        &engine.stats(),
        engine.batched_executes() - batched_before,
    );
    // the script and wire layers, on this workload's own request and reply
    let request = LabRequest::Campaign {
        script: script.clone(),
    };
    let reply = last.expect("at least one operation");
    for i in 0..LAYER_REPS {
        log.time(i, "script.compile", || compile_str(&script))
            .0
            .map_err(fail)?;
        let text = log
            .time(i, "wire.encode_request", || wire::encode_request(&request))
            .0
            .map_err(fail)?;
        log.time(i, "wire.decode_request", || wire::decode_request(&text))
            .0
            .map_err(fail)?;
        let out = log
            .time(i, "wire.encode_response", || wire::encode_response(&reply))
            .0;
        log.time(i, "wire.decode_response", || wire::decode_response(&out))
            .0
            .map_err(fail)?;
        report.set("wire.request_bytes", text.len() as f64);
        report.set("wire.response_bytes", out.len() as f64);
    }
    if kind == Kind::Open {
        open_layers(&grid, &engine, &mut log, &mut executes, &mut report)?;
    } else {
        let busy: f64 = executes.secs.iter().sum();
        // over the CPUs the pinned campaign may use: one
        report.set("par.busy_share", busy / (raw.p50 / 1e3 * nproc() as f64));
    }
    for (metric, span) in [
        ("script.compile_us", "script.compile"),
        ("wire.encode_request_us", "wire.encode_request"),
        ("wire.decode_request_us", "wire.decode_request"),
        ("wire.encode_response_us", "wire.encode_response"),
        ("wire.decode_response_us", "wire.decode_response"),
        ("lab.plan_miss_us", "lab.plan_miss"),
        ("lab.plan_hit_us", "lab.plan_hit"),
        ("scenario.compile_us", "scenario.compile"),
    ] {
        report.set(metric, median(&log.durations_us(span)));
    }
    report.set("scenario.execute_des_s", median(&executes.secs));
    report.set("des.msgs_per_s", executes.msgs_per_s());
    report.set("des.shard_speedup", speedup.unwrap_or_default());
    log.write(
        &args
            .out
            .join(format!("{}-seed{}.spans.jsonl", kind.name(), args.seed)),
    )?;
    Ok(report)
}

/// The open engine's layers on the warm engine, per operation: the class
/// solve (a `Batch` over `class_table`), the open engine proper
/// (`run_open_campaign` minus that solve), and each class's compile and
/// execute, apart, under the first seed.
fn open_layers(
    grid: &Grid,
    engine: &QueryEngine,
    log: &mut SpanLog,
    executes: &mut Executes,
    report: &mut Report,
) -> io::Result<()> {
    let (mut solve_s, mut engine_s, mut events, mut jobs) = (0.0, 0.0, 0u64, 0u64);
    for (_, scenario) in &grid.runs {
        for (i, &seed) in grid.seeds.iter().enumerate() {
            let trace = i as u64;
            let (_, solve) = log.time(trace, "open.class_solve", || {
                let classes = class_table(scenario).into_iter().map(|c| c.scenario);
                engine.handle(LabRequest::batch(classes, &[seed]))
            });
            let (run, total) = log.time(trace, "open.run_open_campaign", || {
                run_open_campaign(engine, scenario, seed, &mut Recorder::off())
            });
            let run = run.map_err(fail)?;
            solve_s += solve / 1e6;
            engine_s += (total - solve) / 1e6;
            events += run.events;
            jobs += run.jobs;
        }
        for (i, class) in class_table(scenario).into_iter().enumerate() {
            let trace = i as u64;
            let plan = log
                .time(trace, "scenario.compile", || class.scenario.compile())
                .0
                .map_err(fail)?;
            let (outcome, us) = log.time(trace, "scenario.execute", || {
                plan.execute(grid.seeds[0], &mut Recorder::off())
            });
            executes.add(&outcome, us);
        }
    }
    report.set("open.class_solve_s", solve_s);
    report.set("open.engine_s", engine_s);
    report.set("open.events_per_s", events as f64 / engine_s.max(1e-12));
    report.set("open.jobs", jobs as f64);
    Ok(())
}

/// The campaign's largest DES scenario (most nodes), executed at one
/// shard and at the host's thread count: the ratio of the two times.
fn shard_speedup(kind: Kind, script: &str, seed: u64, log: &mut SpanLog) -> io::Result<f64> {
    let grid = grid(script)?;
    let mut candidates: Vec<Scenario> = match kind {
        Kind::Des => grid.runs.into_iter().map(|(_, s)| s).collect(),
        Kind::Open => grid
            .runs
            .iter()
            .flat_map(|(_, s)| class_table(s))
            .map(|c| c.scenario)
            .collect(),
    };
    let largest = (0..candidates.len())
        .max_by_key(|&i| (candidates[i].nodes, std::cmp::Reverse(i)))
        .ok_or_else(|| fail("the campaign has no scenarios"))?;
    let mut scenario = candidates.swap_remove(largest);
    let mut time = |shards: usize| -> io::Result<f64> {
        scenario.shards = shards as u32;
        let plan = scenario.compile().map_err(fail)?;
        let us: Vec<f64> = (0..SHARD_REPS)
            .map(|_| {
                log.time(shards as u64, "des.shard_execute", || {
                    plan.execute(seed, &mut Recorder::off())
                })
                .1
            })
            .collect();
        Ok(median(&us))
    };
    let one = time(1)?;
    let many = time(nproc())?;
    Ok(one / many)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_scripts_are_seeded_and_compile() {
        for kind in [Kind::Des, Kind::Open] {
            let script = kind.script(5);
            assert_eq!(script, kind.script(5));
            assert_ne!(script, kind.script(6));
            let grid = grid(&script).expect("compiles");
            match kind {
                Kind::Des => {
                    assert_eq!(grid.runs.len(), 8);
                    assert_eq!(grid.seeds.len(), 2);
                }
                Kind::Open => {
                    assert_eq!(grid.runs.len(), 1);
                    assert_eq!(grid.seeds.len(), OPEN_SEEDS);
                    let spec = grid.runs[0].1.open.as_ref().expect("an open campaign");
                    assert_eq!(spec.rate_per_s, OPEN_RATE);
                }
            }
        }
    }

    #[test]
    fn references_match_the_campaign_handler() {
        let closed = "campaign \"probe\" {\n  cluster lenox\n  workload cfd-small\n  rpn 14\n  \
                      seeds 1 2\n  sweep nodes [1, 2]\n}\n";
        let open = "campaign \"storm\" {\n  cluster lenox\n  workload cfd-small\n  nodes 2\n  \
                    rpn 14\n  arrivals poisson rate=0.05\n  horizon 300.0\n  tenants 2\n  \
                    mix zipf s=1.1 over env [docker, shifter]\n  seeds 3 4\n}\n";
        for script in [closed, open] {
            let grid = grid(script).expect("compiles");
            let mut log = SpanLog::new();
            let reference = if grid.runs[0].1.open.is_some() {
                open_reference(&grid, &mut log)
            } else {
                closed_reference(&grid, &mut log, &mut Executes::default())
            }
            .expect("runs");
            let reply = QueryEngine::new().handle(LabRequest::Campaign {
                script: script.into(),
            });
            assert!(
                matches!(&reply, LabResponse::Campaign(r) if *r == reference),
                "{reply:?} vs {reference:?}"
            );
        }
    }
}
