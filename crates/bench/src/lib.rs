//! # harborsim-bench
//!
//! The `reproduce_all` binary, the only writer of the paper's artifacts in
//! `target/study/`, with the perf [`baseline`] it gates; and the
//! `engine_micro` bench on the in-tree, Criterion-shaped [`harness`]. The
//! DESIGN.md §5 ablations are tier-1 tests (`tests/ablations.rs`).

pub mod baseline;
pub mod harness;
pub mod loadgen;

use harborsim_core::report::{FigureData, TableData};
use std::fs;
use std::path::{Path, PathBuf};

/// Where reproduction artifacts land.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/study");
    fs::create_dir_all(&dir).expect("create target/study");
    dir
}

/// Persist a figure as CSV + SVG + ASCII in `dir`.
pub fn write_figure(dir: &Path, fig: &FigureData) {
    fs::write(dir.join(format!("{}.csv", fig.id)), fig.to_csv()).expect("csv");
    fs::write(dir.join(format!("{}.svg", fig.id)), fig.to_svg(720, 440)).expect("svg");
    fs::write(dir.join(format!("{}.txt", fig.id)), fig.to_ascii(72, 22)).expect("txt");
}

/// Persist a table as CSV + ASCII in `dir`.
pub fn write_table(dir: &Path, t: &TableData) {
    fs::write(dir.join(format!("{}.csv", t.id)), t.to_csv()).expect("csv");
    fs::write(dir.join(format!("{}.txt", t.id)), t.to_ascii()).expect("txt");
}

/// Persist captured traces for one experiment as a chrome://tracing JSON
/// document (`<dir>/<name>.trace.json`, loadable in `chrome://tracing` or
/// Perfetto).
pub fn write_trace(dir: &Path, name: &str, parts: &[(String, harborsim_des::trace::TraceBuffer)]) {
    fs::create_dir_all(dir).expect("create trace dir");
    fs::write(
        dir.join(format!("{name}.trace.json")),
        harborsim_core::traceviz::chrome_trace_json(parts),
    )
    .expect("trace json");
}

#[cfg(test)]
mod tests {
    use super::*;
    use harborsim_core::report::Series;

    #[test]
    fn artifacts_round_trip_to_disk() {
        let fig = FigureData {
            id: "selftest-fig".into(),
            title: "self test".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series::new("s", vec![(1.0, 2.0), (2.0, 1.0)])],
        };
        // a directory of its own: `target/study/` belongs to `reproduce_all`
        let dir = std::env::temp_dir().join(format!("harborsim-selftest-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create selftest dir");
        write_figure(&dir, &fig);
        for ext in ["csv", "svg", "txt"] {
            let p = dir.join(format!("selftest-fig.{ext}"));
            assert!(p.exists(), "{p:?}");
        }
        fs::remove_dir_all(&dir).ok();
    }
}
