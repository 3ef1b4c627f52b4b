//! The tracked performance baseline.
//!
//! `reproduce_all --bench-baseline` measures the simulator's hot
//! paths — DES event churn, the Alya CFD step, cached-plan
//! execute-many throughput, the sharded 256-node campaign and the
//! open-system campaign engine — and writes them to
//! `target/study/BENCH_baseline.json`. A copy committed at the repository
//! root (`BENCH_baseline.json`) records the trajectory PR-over-PR; the CI
//! smoke job re-measures and fails if a gated metric regresses against
//! the committed numbers. The lab daemon is measured end to end by
//! perfbench's serve-hot and serve-sweep workloads, not here.
//!
//! Every metric is one row of [`METRICS`]: its JSON key, how it prints,
//! and the [`Gate`] that compares it. Serialization, parsing, the report
//! and the regression check are each one loop over that table, so a new
//! metric costs one row plus its measurement. A key the committed file
//! lacks skips its row's comparison with a warning naming the key.
//!
//! Raw throughput is machine-dependent, so every run also measures a tiny
//! integer-spin calibration loop; rate comparisons divide each rate by the
//! spin rate of its own run, cancelling the machine out (the same
//! normalization the paper's cross-machine tables rely on).

use harborsim_alya::mesh::TubeMesh;
use harborsim_alya::{CfdConfig, CfdSolver};
use harborsim_batch::{run_open, OpenCluster, OpenJob};
use harborsim_container::StagePlan;
use harborsim_des::trace::Recorder;
use harborsim_des::{Engine, Event, RngStream, SimDuration};
use harborsim_mpi::analytic::EngineConfig;
use harborsim_mpi::workload::{CommPhase, JobProfile, StepProfile};
use harborsim_mpi::{DesEngine, RankMap};
use harborsim_net::{DataPath, NetworkModel, Topology, TransportSelection};
use std::hint::black_box;
use std::time::Instant;

/// Schedule/cancel/pop rounds of the churn workload.
const CHURN_ROUNDS: usize = 64;
/// Events scheduled per churn round.
const CHURN_BATCH: usize = 512;
/// Timing repetitions; the best (least-interfered) sample is kept.
const TIMING_REPS: usize = 5;
/// Allowed drop of a gated rate or ratio before the gate fails.
const REGRESSION_TOLERANCE: f64 = 0.20;
/// The calibration row every rate is normalized by.
const SPIN_MOPS: &str = "spin_mops";
/// The context row a same-host ratio is compared under.
const HOST_THREADS: &str = "host_threads";

/// How a metric is compared against the committed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// A throughput: normalized by each run's `spin_mops`, fails past a
    /// 20% drop.
    Rate,
    /// A ratio that depends on the host's parallelism: compared raw,
    /// only when both runs saw the same `host_threads`; fails past a
    /// 20% drop.
    SameHostRatio,
    /// Recorded for context, never compared.
    Context,
}

/// One row of the baseline table.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// JSON key in `BENCH_baseline.json`.
    pub name: &'static str,
    /// What the human-readable report calls it.
    pub label: &'static str,
    /// Unit printed after the value in the report.
    pub unit: &'static str,
    /// Decimal places in both the JSON and the report.
    pub decimals: usize,
    /// How the regression check compares it.
    pub gate: Gate,
}

const fn row(
    name: &'static str,
    label: &'static str,
    unit: &'static str,
    decimals: usize,
    gate: Gate,
) -> Metric {
    Metric {
        name,
        label,
        unit,
        decimals,
        gate,
    }
}

/// Every tracked metric, in `BENCH_baseline.json` order.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    // wrapping-multiply spin loop: the machine's pace
    row(SPIN_MOPS, "calibration spin", "Mops/s", 1, Gate::Context),
    // arena + 4-ary-heap engine on the churn workload
    row("des_churn_new_eps", "DES churn (arena)", "events/s", 0, Gate::Rate),
    // CFD step at 13x13x24 (radius 5) and 21x21x48 (radius 8)
    row("cfd_small_cups", "CFD step 13x13x24", "cell-updates/s", 0, Gate::Context),
    row("cfd_large_cups", "CFD step 21x21x48", "cell-updates/s", 0, Gate::Context),
    // `ScenarioPlan::execute` on a cached plan
    row("execute_many_rps", "cached-plan execute", "runs/s", 1, Gate::Context),
    // the 256-node fat-tree campaign, serial and on 4 shards (bit-identical)
    row("par_des_serial_eps", "DES 256n campaign (1 shard)", "events/s", 0, Gate::Context),
    row("par_des_eps", "DES 256n campaign (4 shards)", "events/s", 0, Gate::Context),
    // par_des_eps / par_des_serial_eps: at or below 1.0 on one hardware
    // thread, the speedup materializes with the host's parallelism
    row("par_des_speedup", "sharded-DES speedup", "x", 2, Gate::SameHostRatio),
    row(HOST_THREADS, "host threads", "hardware threads", 0, Gate::Context),
    // open-system engine (arrivals + EASY backfill + staging flows)
    row("open_system_eps", "open-system storm", "events/s", 0, Gate::Context),
];

fn index(name: &str) -> Option<usize> {
    METRICS.iter().position(|m| m.name == name)
}

/// One baseline: a value per [`METRICS`] row, absolute rates plus the
/// calibration spin rate that makes them comparable across machines.
/// A measured baseline fills every row; one parsed from a committed
/// file may lack rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchBaseline {
    /// Indexed like [`METRICS`]; `None` where the source had no value.
    values: Vec<Option<f64>>,
}

/// Best-of-N wall-clock timing of `work`, returning `units / seconds`.
fn rate_of<F: FnMut() -> u64>(units: f64, mut work: F) -> f64 {
    black_box(work()); // warm-up: touch code, grow scratch to steady state
    let mut best = f64::INFINITY;
    for _ in 0..TIMING_REPS {
        let t0 = Instant::now();
        black_box(work());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    units / best
}

fn spin(iters: u64) -> u64 {
    let mut acc = 1u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

/// The calibration spin rate in million ops/sec.
fn spin_mops() -> f64 {
    const ITERS: u64 = 50_000_000;
    rate_of(ITERS as f64, || spin(ITERS)) / 1e6
}

#[derive(Clone, Copy)]
struct ChurnEv;

impl Event<u64> for ChurnEv {
    fn fire(self, _eng: &mut Engine<u64, ChurnEv>, fired: &mut u64) {
        *fired += 1;
    }
}

/// The churn workload on the arena engine: per round, schedule a batch of
/// cancellable events at pseudo-random near-future times, cancel every
/// third one, drain. Returns events fired (a determinism check more than a
/// result).
pub fn churn_arena(rounds: usize, batch: usize) -> u64 {
    let mut eng: Engine<u64, ChurnEv> = Engine::new();
    let mut rng = RngStream::new(0xC0DE);
    let mut ids = Vec::with_capacity(batch);
    let mut fired = 0u64;
    for _ in 0..rounds {
        ids.clear();
        for _ in 0..batch {
            ids.push(
                eng.schedule_cancellable_event(SimDuration::from_nanos(rng.below(1000)), ChurnEv),
            );
        }
        for id in ids.iter().skip(1).step_by(3) {
            eng.cancel(*id);
        }
        eng.run(&mut fired);
    }
    fired
}

/// CFD cell-updates/sec: `steps` full solver steps on an
/// `nx × ny × nz` tube, after a short warm-up so the CG warm start is in
/// its steady state.
fn cfd_rate(nx: usize, ny: usize, nz: usize, radius: f64, steps: usize) -> f64 {
    let mesh = TubeMesh::cylinder(nx, ny, nz, radius);
    let cfg = CfdConfig::stable(&mesh, 50.0, 0.1);
    let active = mesh.active_cells() as f64;
    let mut s = CfdSolver::new(mesh, cfg);
    s.run(5);
    rate_of(active * steps as f64, || {
        s.run(steps);
        s.stats.steps
    })
}

/// The 256-node parallel-DES campaign: MareNostrum4's tapered fat tree
/// crossed by halos and allreduces from 512 ranks — large enough that
/// the domain decomposition spans every leaf group, small enough that
/// `--bench-baseline` stays a few seconds. Shared by the baseline and
/// the `engine_micro` per-shard scaling rows.
pub fn par_des_campaign() -> (DesEngine, JobProfile) {
    let cluster = harborsim_hw::presets::marenostrum4();
    let engine = DesEngine::new(
        cluster.node,
        NetworkModel::compose(
            cluster.interconnect,
            TransportSelection::Native,
            DataPath::Host,
            Topology::mn4_fat_tree(),
        ),
        RankMap::block(256, 2, 1),
        EngineConfig::default(),
    );
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
            ],
        },
        2,
    );
    (engine, job)
}

/// Events/sec of the 256-node campaign at `shards` (1 = the serial
/// event loop).
pub fn par_des_eps(shards: u32) -> f64 {
    let (engine, job) = par_des_campaign();
    let engine = engine.with_shards(shards);
    let (_, events) = engine.run_counted(&job, 1, &mut Recorder::off());
    rate_of(events as f64, || {
        engine.run_counted(&job, 1, &mut Recorder::off()).1
    })
}

/// The canned open-system storm: `n` jobs from `tenants` tenants arrive
/// over `horizon_s` seconds on a 24-node machine, each staging a
/// registry pull and/or a parallel-filesystem unpack before solving —
/// enough co-arrival that the FluidLink fair-share repartitioning (the
/// expensive part of the open engine) is exercised throughout.
pub fn open_storm_jobs(n: u32, tenants: u32, horizon_s: f64) -> Vec<OpenJob> {
    let mut rng = RngStream::new(0x0BE7).derive("bench-open");
    (0..n)
        .map(|id| {
            let registry = if rng.below(3) > 0 {
                (50 + rng.below(200)) as f64 * 1e6
            } else {
                0.0
            };
            OpenJob {
                id,
                tenant: rng.below(u64::from(tenants)) as u32,
                class: 0,
                nodes: 1 + rng.below(4) as u32,
                submit_s: horizon_s * id as f64 / n as f64,
                solver_s: (30 + rng.below(120)) as f64,
                walltime_s: 600.0,
                stage: StagePlan {
                    registry_bytes: registry,
                    pfs_bytes: (100 + rng.below(900)) as f64 * 1e6,
                    fixed_s: 2.0 + rng.below(6) as f64,
                },
            }
        })
        .collect()
}

/// Events/sec of the open-system campaign engine on the canned storm.
fn open_system_eps() -> f64 {
    let cluster = OpenCluster {
        total_nodes: 24,
        registry_bps: 117e6,
        pfs_bps: 4e9,
    };
    let jobs = open_storm_jobs(400, 8, 1800.0);
    let events = run_open(&cluster, jobs.clone(), &mut Recorder::off()).events;
    rate_of(events as f64, || {
        run_open(&cluster, jobs.clone(), &mut Recorder::off()).events
    })
}

/// Cached-plan `execute` throughput, runs/sec (untraced, calling
/// `plan.execute` directly as the query engine's batches do).
fn execute_many_rps() -> f64 {
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
    const RUNS: u64 = 64;
    rate_of(RUNS as f64, || {
        let mut acc = 0u64;
        for seed in 0..RUNS {
            acc ^= plan.execute(seed, &mut Recorder::off()).elapsed.as_nanos();
        }
        acc
    })
}

/// Measure the full baseline. Takes a few seconds; intended for
/// `reproduce_all --bench-baseline` and the CI smoke job.
pub fn measure() -> BenchBaseline {
    let spin = spin_mops();
    let churn_events = (CHURN_ROUNDS * CHURN_BATCH) as f64;
    let churn_eps = rate_of(churn_events, || churn_arena(CHURN_ROUNDS, CHURN_BATCH));
    let serial_eps = par_des_eps(1);
    let sharded_eps = par_des_eps(4);
    BenchBaseline::measured([
        (SPIN_MOPS, spin),
        ("des_churn_new_eps", churn_eps),
        ("cfd_small_cups", cfd_rate(13, 13, 24, 5.0, 20)),
        ("cfd_large_cups", cfd_rate(21, 21, 48, 8.0, 5)),
        ("execute_many_rps", execute_many_rps()),
        ("par_des_serial_eps", serial_eps),
        ("par_des_eps", sharded_eps),
        ("par_des_speedup", sharded_eps / serial_eps),
        (
            HOST_THREADS,
            std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
        ),
        ("open_system_eps", open_system_eps()),
    ])
}

impl BenchBaseline {
    /// A complete baseline from `(name, value)` pairs.
    ///
    /// # Panics
    /// On a name that is not a [`METRICS`] row, or a row left without a
    /// value.
    fn measured<const N: usize>(pairs: [(&str, f64); N]) -> BenchBaseline {
        let mut values = vec![None; METRICS.len()];
        for (name, value) in pairs {
            let i = index(name).unwrap_or_else(|| panic!("{name} is not a baseline metric"));
            values[i] = Some(value);
        }
        if let Some(i) = values.iter().position(Option::is_none) {
            panic!("no value measured for {}", METRICS[i].name);
        }
        BenchBaseline { values }
    }

    /// The value of metric `name`, if this baseline has one.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values[index(name)?]
    }

    /// Rows that have a value, with their table entry.
    fn present(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        METRICS
            .iter()
            .zip(&self.values)
            .filter_map(|(m, v)| Some((m, (*v)?)))
    }

    /// Serialize to the committed JSON shape: one `"name": value` line
    /// per present row, in table order, at the row's decimals.
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .present()
            .map(|(m, v)| format!("  \"{}\": {v:.*}", m.name, m.decimals))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Parse a committed baseline. Keys the table does not know are
    /// ignored and rows the file lacks stay empty; only `spin_mops` is
    /// required, since every rate is normalized by it.
    pub fn from_json(text: &str) -> Option<BenchBaseline> {
        let json = harborsim_core::json::Json::parse(text).ok()?;
        let parsed = BenchBaseline {
            values: METRICS
                .iter()
                .map(|m| json.get(m.name).and_then(|v| v.as_f64()))
                .collect(),
        };
        parsed.get(SPIN_MOPS)?;
        Some(parsed)
    }

    /// A human-readable report, one line per present row.
    pub fn to_ascii(&self) -> String {
        let lines: Vec<String> = self
            .present()
            .map(|(m, v)| format!("  {:<28} {v:>14.*} {}", m.label, m.decimals, m.unit))
            .collect();
        lines.join("\n")
    }

    /// Compare against a committed baseline, row by row under each
    /// row's [`Gate`]. Returns `(violations, warnings)`: empty
    /// violations = pass; warnings are comparisons that were skipped
    /// rather than failed, each naming its metric.
    pub fn check_regression(&self, committed: &BenchBaseline) -> (Vec<String>, Vec<String>) {
        let mut violations = Vec::new();
        let mut warnings = Vec::new();
        for (i, m) in METRICS.iter().enumerate() {
            if m.gate == Gate::Context {
                continue;
            }
            let name = m.name;
            let (Some(now), Some(then)) = (self.values[i], committed.values[i]) else {
                warnings.push(format!(
                    "skipping {name}: the committed baseline has no \"{name}\" key"
                ));
                continue;
            };
            let drop_pct = |ratio: f64| (1.0 - ratio) * 100.0;
            match m.gate {
                Gate::Rate => {
                    let spin = |b: &BenchBaseline| {
                        b.get(SPIN_MOPS)
                            .expect("a baseline always has its calibration spin")
                    };
                    let (norm_now, norm_then) = (now / spin(self), then / spin(committed));
                    let ratio = norm_now / norm_then;
                    if ratio < 1.0 - REGRESSION_TOLERANCE {
                        violations.push(format!(
                            "{name} regressed {:.0}% vs the committed baseline \
                             (normalized {norm_now:.2} vs {norm_then:.2} {} per Mspin)",
                            drop_pct(ratio),
                            m.unit
                        ));
                    }
                }
                Gate::SameHostRatio => {
                    let (host_now, host_then) =
                        (self.get(HOST_THREADS), committed.get(HOST_THREADS));
                    if host_now.is_none() || host_now != host_then {
                        warnings.push(format!(
                            "skipping {name}: {HOST_THREADS} is {} here and {} in the \
                             committed baseline",
                            show(host_now),
                            show(host_then)
                        ));
                        continue;
                    }
                    let ratio = now / then;
                    if ratio < 1.0 - REGRESSION_TOLERANCE {
                        violations.push(format!(
                            "{name} regressed {:.0}% vs the committed baseline \
                             ({now:.2} vs {then:.2} on {} host thread(s))",
                            drop_pct(ratio),
                            show(host_now)
                        ));
                    }
                }
                Gate::Context => unreachable!("context rows are skipped above"),
            }
        }
        (violations, warnings)
    }
}

/// A possibly missing value, for warnings.
fn show(v: Option<f64>) -> String {
    v.map_or_else(|| "missing".to_string(), |v| format!("{v:.0}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_fires_every_uncancelled_event() {
        let fired = churn_arena(4, 30);
        // per round: 30 scheduled, every third of the tail cancelled
        let cancelled_per_round = (1..30).step_by(3).count() as u64;
        assert_eq!(fired, 4 * (30 - cancelled_per_round));
    }

    /// The committed file at the repository root.
    const COMMITTED: &str = include_str!("../../../BENCH_baseline.json");

    /// A complete baseline with round numbers; `edits` overrides rows.
    fn sample(edits: &[(&str, f64)]) -> BenchBaseline {
        let mut b = BenchBaseline::measured([
            (SPIN_MOPS, 1000.0),
            ("des_churn_new_eps", 1.0e7),
            ("cfd_small_cups", 1.0),
            ("cfd_large_cups", 1.0),
            ("execute_many_rps", 1.0),
            ("par_des_serial_eps", 1.0e6),
            ("par_des_eps", 2.0e6),
            ("par_des_speedup", 2.0),
            (HOST_THREADS, 4.0),
            ("open_system_eps", 1.0e5),
        ]);
        for &(name, value) in edits {
            b.values[index(name).expect("known metric")] = Some(value);
        }
        b
    }

    /// `b` with row `name` removed, as a committed file lacking the key.
    fn without(mut b: BenchBaseline, name: &str) -> BenchBaseline {
        b.values[index(name).expect("known metric")] = None;
        b
    }

    #[test]
    fn json_round_trips() {
        let b = sample(&[
            (SPIN_MOPS, 1234.5),
            ("par_des_speedup", 3.0),
            ("execute_many_rps", 9.5),
        ]);
        let parsed = BenchBaseline::from_json(&b.to_json()).expect("parses");
        assert_eq!(parsed, b);
        // only spin_mops is required
        assert!(BenchBaseline::from_json("{}").is_none());
        assert!(BenchBaseline::from_json("not json").is_none());
        // a file lacking rows parses with exactly those rows empty
        let partial = b
            .to_json()
            .replace("  \"cfd_large_cups\": 1,\n", "")
            .replace("  \"execute_many_rps\": 9.5,\n", "");
        let parsed = BenchBaseline::from_json(&partial).expect("partial file parses");
        assert_eq!(parsed.get("cfd_large_cups"), None);
        assert_eq!(parsed.get("execute_many_rps"), None);
        assert_eq!(parsed.get("par_des_speedup"), Some(3.0));
        assert_eq!(parsed.to_json(), partial);
    }

    #[test]
    fn committed_baseline_round_trips_byte_for_byte() {
        let parsed = BenchBaseline::from_json(COMMITTED).expect("the committed file parses");
        assert_eq!(parsed.to_json(), COMMITTED);
    }

    #[test]
    fn table_keys_are_the_committed_keys() {
        let Ok(harborsim_core::json::Json::Obj(fields)) =
            harborsim_core::json::Json::parse(COMMITTED)
        else {
            panic!("the committed baseline is a JSON object");
        };
        let committed: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let table: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        assert_eq!(table, committed);
    }

    #[test]
    fn a_missing_rate_key_skips_with_one_warning_naming_it() {
        let committed = BenchBaseline::from_json(COMMITTED).expect("parses");
        let lacking = BenchBaseline::from_json(
            &COMMITTED.replace("  \"des_churn_new_eps\": 20793316,\n", ""),
        )
        .expect("parses without the row");
        let (violations, warnings) = committed.check_regression(&lacking);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("des_churn_new_eps"), "{warnings:?}");
    }

    #[test]
    fn regression_gate_normalizes_by_spin_rate() {
        let base = sample(&[]);
        // a machine half as fast across the board is NOT a regression
        let slower_machine = sample(&[(SPIN_MOPS, 500.0), ("des_churn_new_eps", 5.0e6)]);
        let (violations, warnings) = slower_machine.check_regression(&base);
        assert!(violations.is_empty() && warnings.is_empty());
        // same machine, 30% fewer events/sec IS one
        let regressed = sample(&[("des_churn_new_eps", 0.7e7)]);
        let (violations, _) = regressed.check_regression(&base);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("des_churn_new_eps"));
        // 10% is inside the tolerance
        let noise = sample(&[("des_churn_new_eps", 0.9e7)]);
        assert!(noise.check_regression(&base).0.is_empty());
    }

    #[test]
    fn speedup_gate_skips_across_host_thread_counts() {
        let base = sample(&[
            ("par_des_eps", 3.0e6),
            ("par_des_speedup", 3.0),
            (HOST_THREADS, 8.0),
        ]);
        // same thread count, speedup collapsed: a violation, no warning
        let collapsed = sample(&[
            ("par_des_eps", 1.2e6),
            ("par_des_speedup", 1.2),
            (HOST_THREADS, 8.0),
        ]);
        let (violations, warnings) = collapsed.check_regression(&base);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("par_des_speedup"));
        assert!(warnings.is_empty());
        // the committed baseline came from a 1-thread CI runner: the same
        // collapsed numbers are incomparable, so the gate warns and skips
        let one_thread = sample(&[
            ("par_des_eps", 0.9e6),
            ("par_des_speedup", 0.9),
            (HOST_THREADS, 1.0),
        ]);
        let (violations, warnings) = collapsed.check_regression(&one_thread);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("skipping par_des_speedup"));
        assert!(warnings[0].contains(HOST_THREADS));
    }

    #[test]
    fn each_missing_gated_key_skips_with_its_own_warning() {
        let base = sample(&[]);
        // a committed baseline without the gated rows skips each one with
        // a warning naming it, instead of dividing by zero
        let gated = ["des_churn_new_eps", "par_des_speedup"];
        let legacy = gated.iter().fold(base.clone(), |b, name| without(b, name));
        let (violations, warnings) = base.check_regression(&legacy);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(warnings.len(), gated.len(), "{warnings:?}");
        for name in gated {
            assert!(
                warnings
                    .iter()
                    .any(|w| w.contains(&format!("skipping {name}"))),
                "{warnings:?}"
            );
        }
    }
}
