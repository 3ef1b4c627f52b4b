//! Every metric the benchmark prints — name, unit, and which direction
//! is better — in the order `BENCHMARK.json` declares them, and the
//! result line built from them.

use crate::loadgen::Tally;
use harborsim_core::json::Json;
use harborsim_core::CacheStats;

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name; per-layer names start with their layer.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["serve-hot", "serve-sweep", "campaign-des", "campaign-open"];

/// What `--trace 0` reports, on every workload.
pub const END_TO_END: [Metric; 4] = [
    lower("setup_s", "s"),
    higher("throughput_qps", "1/s"),
    lower("latency_p50_ms", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// What `--trace 1` reports. A layer a workload does not run reads 0.
pub const PER_LAYER: [Metric; 34] = [
    lower("loadgen.lag_p99_ms", "ms"),
    lower("socket.rtt_us", "us"),
    lower("daemon.frontend_us", "us"),
    lower("daemon.accept_errors", "count"),
    lower("daemon.late_503s", "count"),
    lower("daemon.open_conns", "count"),
    lower("wire.encode_request_us", "us"),
    lower("wire.decode_request_us", "us"),
    lower("wire.encode_response_us", "us"),
    lower("wire.decode_response_us", "us"),
    lower("wire.request_bytes", "bytes"),
    lower("wire.response_bytes", "bytes"),
    lower("lab.handle_us", "us"),
    lower("lab.handle_self_us", "us"),
    lower("lab.plan_hit_us", "us"),
    lower("lab.plan_miss_us", "us"),
    higher("cache.hit_ratio", "ratio"),
    lower("cache.misses", "count"),
    lower("cache.waits", "count"),
    lower("cache.contended", "count"),
    lower("cache.entries", "count"),
    higher("lab.batched_executes", "count"),
    lower("scenario.compile_us", "us"),
    lower("scenario.execute_analytic_us", "us"),
    lower("scenario.execute_des_s", "s"),
    higher("des.msgs_per_s", "1/s"),
    higher("des.shard_speedup", "ratio"),
    higher("par.busy_share", "ratio"),
    lower("script.compile_us", "us"),
    lower("open.class_solve_s", "s"),
    lower("open.engine_s", "s"),
    higher("open.events_per_s", "1/s"),
    higher("open.jobs", "count"),
    lower("trace.overhead_pct", "%"),
];

/// One run's outcome: operation counts and metric values.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Count `attempted` operations, `failed` of which failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count a driven phase's requests.
    pub fn add(&mut self, tally: &Tally) {
        self.count(tally.attempted, tally.failed);
    }

    /// Set metric `name`, which must be declared in one of the tables.
    /// A value that is not finite reads 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.values.push((name, value)),
        }
    }

    /// The plan-cache and admission-batching counters: deltas over the
    /// measured operations, and the plans resident after them.
    pub fn cache(&mut self, before: &CacheStats, after: &CacheStats, batched: u64) {
        let hits = after.hits.saturating_sub(before.hits);
        let misses = after.misses.saturating_sub(before.misses);
        let waits = after.waits.saturating_sub(before.waits);
        let resolves = (hits + misses + waits).max(1);
        self.set("cache.hit_ratio", hits as f64 / resolves as f64);
        self.set("cache.misses", misses as f64);
        self.set("cache.waits", waits as f64);
        let contended = after.contended.saturating_sub(before.contended);
        self.set("cache.contended", contended as f64);
        self.set("cache.entries", after.entries as f64);
        self.set("lab.batched_executes", batched as f64);
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn table(trace: bool) -> &'static [Metric] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Correct when operations ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The operation counts, then one aligned line per metric.
    pub fn print(&self, workload: &str, trace: bool) {
        println!(
            "{workload}: {} operations, {} failed (error rate {:.6})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for m in Report::table(trace) {
            let (name, value, unit, better) = (m.name, self.get(m.name), m.unit, m.better);
            println!("  {name:<30} {value:>18.6} {unit:<6} ({better} is better)");
        }
    }

    /// The result line.
    pub fn json(&self, trace: bool) -> String {
        let mut metrics = Json::obj();
        for m in Report::table(trace) {
            let value = Json::obj()
                .set("value", self.get(m.name))
                .set("unit", m.unit);
            metrics = metrics.set(m.name, value);
        }
        Json::obj()
            .set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
            .write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn declared(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(table: &[Metric]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn tables_agree_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&json, "end_to_end"), ours(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_lines_carry_every_metric_of_their_mode_once() {
        let mut report = Report::default();
        report.count(10, 1);
        report.set("setup_s", 0.5);
        report.set("latency_p50_ms", f64::NAN);
        for trace in [false, true] {
            let line = Json::parse(&report.json(trace)).expect("the result line is JSON");
            assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
            assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(10));
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics object in {line:?}");
            };
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            let table: Vec<&str> = Report::table(trace).iter().map(|m| m.name).collect();
            assert_eq!(names, table);
            for (name, m) in metrics {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            }
        }
        let line = Json::parse(&report.json(false)).expect("JSON");
        let value = |name: &str| {
            line.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("setup_s"), Some(0.5));
        assert_eq!(
            value("latency_p50_ms"),
            Some(0.0),
            "NaN never reaches the line"
        );
    }

    #[test]
    fn errors_are_counted_against_attempts() {
        let mut tally = Tally::default();
        let now = Instant::now();
        tally.sent(now, now, false);
        tally.replied(now, now, true);
        tally.sent(now, now, false);
        tally.replied(now, now, false);
        tally.unsent(3);
        let mut report = Report::default();
        report.add(&tally);
        report.count(1, 0);
        assert_eq!((report.attempted, report.failed), (6, 4));
        assert!(!report.correct());
        assert!(!Report::default().correct(), "no operations is not a pass");
    }
}
