//! Trace exporters: chrome://tracing JSON and a summary table.
//!
//! The simulation layers emit spans through the shared
//! [`Recorder`](harborsim_des::trace::Recorder); this module turns captured
//! [`TraceBuffer`]s into artifacts. [`chrome_trace_json`] renders the
//! "Trace Event Format" consumed by `chrome://tracing` and Perfetto: one
//! *process* per named buffer, one *thread* per track (MPI rank, node, or
//! job id depending on the emitting layer), and complete (`"ph":"X"`)
//! events with microsecond timestamps. [`summary`] rolls the same buffers
//! up into an ASCII-renderable table.

use crate::json::JsonWriter;
use crate::report::{fmt_seconds, TableData};
use harborsim_des::trace::{AttrValue, SpanCategory, TraceBuffer};
use harborsim_mpi::SimResult;

/// Render named trace buffers as one chrome://tracing JSON document.
///
/// Each `(label, buffer)` pair becomes its own process id with a
/// `process_name` metadata record, so several experiments (or several
/// technologies of one experiment) can live side by side in one file. Span
/// categories become the event `cat` field — the tracing UI can filter on
/// `compute`, `halo`, `bridge`, ….
pub fn chrome_trace_json(parts: &[(String, TraceBuffer)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj().key("traceEvents").begin_arr();
    for (pid, (label, buf)) in parts.iter().enumerate() {
        let pid = pid as u64;
        w.begin_obj()
            .key("name")
            .str("process_name")
            .key("ph")
            .str("M")
            .key("pid")
            .u64(pid)
            .key("tid")
            .u64(0)
            .key("args")
            .begin_obj()
            .key("name")
            .str(label)
            .end_obj()
            .end_obj();
        for s in buf.sorted_spans() {
            w.begin_obj()
                .key("name")
                .str(s.name)
                .key("cat")
                .str(s.category.label())
                .key("ph")
                .str("X")
                .key("ts")
                .f64(s.start.as_nanos() as f64 / 1e3)
                .key("dur")
                .f64(s.duration().as_nanos() as f64 / 1e3)
                .key("pid")
                .u64(pid)
                .key("tid")
                .u64(u64::from(s.track))
                .key("args")
                .begin_obj();
            for (k, v) in &s.attrs {
                w.key(k);
                match v {
                    AttrValue::Text(text) => w.str(text),
                    AttrValue::Int(i) => w.u64(*i),
                    AttrValue::Num(x) => w.f64(*x),
                };
            }
            w.end_obj().end_obj();
        }
    }
    w.end_arr().end_obj();
    w.finish()
}

/// Roll named buffers up into a per-category summary table: span count and
/// total recorded seconds for every category that appears.
pub fn summary(parts: &[(String, TraceBuffer)]) -> TableData {
    let mut rows = Vec::new();
    for (label, buf) in parts {
        for cat in SpanCategory::ALL {
            let n = buf.count(cat);
            if n == 0 {
                continue;
            }
            rows.push(vec![
                label.clone(),
                cat.label().to_string(),
                n.to_string(),
                fmt_seconds(buf.total(cat).as_secs_f64()),
            ]);
        }
    }
    TableData {
        id: "trace-summary".into(),
        title: "Recorded span time by category".into(),
        headers: vec![
            "Trace".into(),
            "Category".into(),
            "Spans".into(),
            "Total".into(),
        ],
        rows,
    }
}

/// Per-link utilization table for one run, busiest link first.
///
/// Utilization is the fluid busy time — payload bytes over link capacity —
/// divided by the run's elapsed time, so it is comparable between the
/// analytic engine (which never queues) and the DES engine (whose queueing
/// shows up as elapsed, not busy). `elapsed_s` should be the same run's
/// [`SimResult::elapsed`].
pub fn link_utilization(result: &SimResult) -> TableData {
    let elapsed_s = result.elapsed.as_secs_f64();
    let mut rows: Vec<&harborsim_mpi::LinkUsage> = result.links.iter().collect();
    rows.sort_by(|a, b| b.busy_s.total_cmp(&a.busy_s).then(a.label.cmp(&b.label)));
    TableData {
        id: "link-utilization".into(),
        title: format!("Per-link utilization ({} engine)", result.engine),
        headers: vec![
            "Link".into(),
            "Busy".into(),
            "Bytes".into(),
            "Utilization".into(),
        ],
        rows: rows
            .iter()
            .map(|l| {
                let util = if elapsed_s > 0.0 {
                    l.busy_s / elapsed_s
                } else {
                    0.0
                };
                vec![
                    l.label.to_string(),
                    fmt_seconds(l.busy_s),
                    l.bytes.to_string(),
                    format!("{:.1}%", util * 100.0),
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harborsim_des::trace::Recorder;
    use harborsim_des::{SimDuration, SimTime};

    fn sample() -> TraceBuffer {
        let mut rec = Recorder::capturing();
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_secs_f64(1.5);
        rec.span(SpanCategory::Compute, "solver-compute", 0, t0, t1);
        rec.span_with(
            SpanCategory::Halo,
            "halo3d",
            1,
            t1,
            t1 + SimDuration::from_secs_f64(0.25),
            vec![
                ("ranks", AttrValue::Int(4)),
                ("label", AttrValue::Text("a \"b\"".into())),
            ],
        );
        rec.take_buffer()
    }

    #[test]
    fn chrome_json_has_expected_events() {
        let json = chrome_trace_json(&[("demo".to_string(), sample())]);
        assert!(json.starts_with(r#"{"traceEvents":["#));
        assert!(json.contains(r#""name":"process_name""#));
        assert!(json.contains(r#""cat":"compute""#));
        assert!(json.contains(r#""cat":"halo""#));
        // 1.5 s compute span = 1.5e6 µs
        assert!(json.contains(r#""dur":1500000"#), "{json}");
        // attributes survive, escaped
        assert!(json.contains(r#""ranks":4"#));
        assert!(json.contains(r#"a \"b\""#));
        // crude balance check: a well-formed document closes every brace
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn summary_counts_non_empty_categories_only() {
        let t = summary(&[("demo".to_string(), sample())]);
        assert_eq!(t.headers.len(), 4);
        assert_eq!(t.rows.len(), 2, "{t:?}");
        assert!(t.to_ascii().contains("compute"));
        assert!(!t.to_ascii().contains("backfill"));
    }

    #[test]
    fn empty_parts_render_empty_but_valid() {
        let json = chrome_trace_json(&[]);
        assert_eq!(json, r#"{"traceEvents":[]}"#);
        assert!(summary(&[]).rows.is_empty());
    }

    #[test]
    fn link_table_sorts_busiest_first() {
        use crate::scenario::{Execution, Scenario};
        use crate::workloads;
        let outcome = Scenario::new(
            harborsim_hw::presets::lenox(),
            workloads::artery_cfd_small(),
        )
        .execution(Execution::singularity_self_contained())
        .nodes(4)
        .ranks_per_node(8)
        .run(3);
        let t = link_utilization(&outcome.result);
        assert!(!t.rows.is_empty());
        assert!(t.rows[0][0].contains("node") || t.rows[0][0].contains("leaf"));
        let busy: Vec<f64> = outcome.result.links.iter().map(|l| l.busy_s).collect();
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        // first row is the busiest link
        assert_eq!(t.rows[0][1], fmt_seconds(max));
        assert!(t.to_ascii().contains('%'));
    }
}
