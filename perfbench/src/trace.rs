//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name (the layer function or stage), a trace id shared by
//! every span of one request or operation, and its start and end. Spans
//! stay in memory while the run measures and are written out, one JSON
//! object per line, when it ends; the per-layer metrics are medians of
//! their durations.

use crate::loadgen::RequestSpan;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One span, in microseconds since the log was created.
#[derive(Debug, Clone, Copy)]
struct Span {
    trace: u64,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

/// An in-memory span log.
pub struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span from `start` to `end`.
    pub fn record(&mut self, trace: u64, name: &'static str, start: Instant, end: Instant) {
        let us = |t: Instant| t.saturating_duration_since(self.base).as_secs_f64() * 1e6;
        let span = Span {
            trace,
            name,
            start_us: us(start),
            end_us: us(end),
        };
        self.spans.push(span);
    }

    /// Run `f` inside a span; returns its result and duration in µs.
    pub fn time<T>(&mut self, trace: u64, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(trace, name, start, end);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// Record a traced phase's requests under trace ids from `first`: a
    /// `socket.request` span from due to reply, holding `loadgen.send_lag`
    /// (due to sent) and `socket.wait` (sent to reply). Returns the next
    /// free trace id.
    pub fn requests(&mut self, first: u64, spans: &[RequestSpan]) -> u64 {
        for (k, s) in spans.iter().enumerate() {
            let id = first + k as u64;
            self.record(id, "socket.request", s.due, s.done);
            self.record(id, "loadgen.send_lag", s.due, s.sent);
            self.record(id, "socket.wait", s.sent, s.done);
        }
        first + spans.len() as u64
    }

    /// Durations in µs of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Write the log to `path`, one JSON object per span.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"trace\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.trace, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
