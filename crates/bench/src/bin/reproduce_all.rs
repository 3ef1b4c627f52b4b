//! Regenerate every figure and table of the paper in one run.
//!
//! ```sh
//! cargo run --release -p harborsim-bench --bin reproduce_all [-- FLAGS]
//! ```
//!
//! Flags:
//!
//! - `--quick` — one seed instead of the paper's five-repetition protocol
//!   (fast smoke run; numbers shift slightly, shapes must still hold).
//! - `--script <file>` — drive the run from a `.hsim` campaign script
//!   instead of flags: the script's `seeds`/`taper`/`trace`/`experiments`
//!   directives replace `--quick`/`--ablate-taper`/`--oversub`/`--trace`,
//!   and every `campaign` block runs through the generic campaign runner
//!   (labels, means, canonical plan-key fingerprints; campaigns with
//!   `arrivals` run through the open-system engine and report queue-wait
//!   tails). Mutually exclusive with `--ablate-taper` and `--oversub` —
//!   those flags *are* a script (see
//!   `harborsim_core::script::flags_script` and the committed equivalents
//!   under `scripts/`). `--quick` combines with `--script`: it truncates
//!   the script's seed lists to one (the CI smoke mode).
//! - `--trace <dir>` — additionally export one chrome://tracing JSON per
//!   experiment into `<dir>` (`fig1.trace.json`, …), capturing
//!   representative configurations through the simulation trace layer.
//! - `--ablate-taper` — force every fat-tree fabric non-blocking
//!   (spine taper 1.0): how much of each figure is spine bandwidth.
//! - `--oversub <taper>` — force every fat-tree fabric to the given spine
//!   taper (e.g. `0.5` for 2:1 oversubscription). Mutually exclusive with
//!   `--ablate-taper`; scenario-pinned tapers (the oversubscription sweep)
//!   are unaffected.
//! - `--shards <n>` — run every DES-engine experiment on `n` event-engine
//!   shards (conservative parallel DES). Results are bit-identical to the
//!   serial engine at any shard count; the knob only changes how the event
//!   loop is executed. Equivalent to the `shards <n>` script directive.
//! - `--bench-baseline` — measure the simulator's hot-path throughput (DES
//!   event churn, CFD cell-updates, cached-plan execute-many, the sharded
//!   DES campaign, the open-system engine), write it to
//!   `target/study/BENCH_baseline.json`, and fail if a gated metric
//!   regresses against the committed `BENCH_baseline.json` at the
//!   repository root — DES events/sec down more than 20%
//!   (spin-calibrated, so the gate is machine-independent), or the
//!   sharded-DES speedup down more than 20% on a host with the same
//!   thread count. The daemon is measured by perfbench, not here.
//! - `--serve <addr>` — skip the reproduction and run the lab as a
//!   resident daemon on `addr` (e.g. `127.0.0.1:7878`): plan cache
//!   warm-started for the four paper clusters, queries answered over the
//!   versioned JSON wire protocol (`POST /v1/lab`, `GET /v1/stats`,
//!   `POST /v1/shutdown`). Runs until a shutdown request arrives. To
//!   measure the daemon under load, run perfbench's serve-hot and
//!   serve-sweep workloads (`perfbench/README.md`).
//!
//! Artifacts land in `target/study/` (CSV + SVG + ASCII per figure, CSV +
//! ASCII per table, plus a machine-readable `summary.json`), and every
//! shape check — the paper's qualitative claims — is evaluated and printed.

use harborsim_bench::baseline::BenchBaseline;
use harborsim_bench::{out_dir, write_figure, write_table, write_trace};
use harborsim_core::experiments::{
    ext_breakdown, ext_campaign, ext_degraded, ext_io, ext_locality, ext_open_system, ext_oversub,
    ext_weak, fig1, fig2, fig3, tables, validation,
};
use harborsim_core::lab::{CampaignRow, CampaignRowKind, QueryEngine};
use harborsim_core::script::ast::ExperimentsSpec;
use harborsim_core::script::{compile_str, flags_script, CompiledScript};
use std::path::PathBuf;
use std::time::Instant;

fn report_shapes(name: &str, violations: &[String]) -> bool {
    if violations.is_empty() {
        println!("  [ok] {name}: all of the paper's claims hold");
        true
    } else {
        println!("  [!!] {name}:");
        for v in violations {
            println!("       - {v}");
        }
        false
    }
}

fn main() {
    let mut quick = false;
    let mut bench_baseline = false;
    let mut serve_addr: Option<String> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut taper: Option<f64> = None;
    let mut shards: u32 = 1;
    let mut script_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--bench-baseline" => bench_baseline = true,
            "--serve" => {
                let addr = args.next().unwrap_or_else(|| {
                    eprintln!("--serve needs a listen address argument (e.g. 127.0.0.1:7878)");
                    std::process::exit(2);
                });
                serve_addr = Some(addr);
            }
            "--trace" => {
                let dir = args.next().unwrap_or_else(|| {
                    eprintln!("--trace needs a directory argument");
                    std::process::exit(2);
                });
                trace_dir = Some(PathBuf::from(dir));
            }
            "--ablate-taper" => taper = Some(1.0),
            "--oversub" => {
                let t = args
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|t| *t > 0.0 && *t <= 1.0);
                match t {
                    Some(t) => taper = Some(t),
                    None => {
                        eprintln!("--oversub needs a taper in (0, 1]");
                        std::process::exit(2);
                    }
                }
            }
            "--shards" => {
                let n = args.next().and_then(|v| v.parse::<u32>().ok());
                match n {
                    Some(n) if n >= 1 => shards = n,
                    _ => {
                        eprintln!("--shards needs a count of at least 1");
                        std::process::exit(2);
                    }
                }
            }
            "--script" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--script needs a .hsim file argument");
                    std::process::exit(2);
                });
                script_path = Some(PathBuf::from(path));
            }
            other => {
                eprintln!(
                    "unknown flag {other} (usage: reproduce_all [--quick] [--bench-baseline] [--serve <addr>] [--trace <dir>] [--ablate-taper | --oversub <taper>] [--shards <n>] [--script <file>])"
                );
                std::process::exit(2);
            }
        }
    }

    // Serving replaces the reproduction entirely: the lab *is* the
    // artifact.
    if let Some(addr) = serve_addr {
        let engine = std::sync::Arc::new(QueryEngine::new());
        let daemon =
            harborsim_core::lab::daemon::LabDaemon::bind(&addr, engine, 8).unwrap_or_else(|e| {
                eprintln!("cannot bind {addr}: {e}");
                std::process::exit(2);
            });
        println!(
            "lab daemon serving on http://{} (plan cache warm-started; POST /v1/lab, GET /v1/stats, POST /v1/shutdown)",
            daemon.local_addr()
        );
        daemon.serve();
        println!("lab daemon: shutdown request received, drained, exiting.");
        return;
    }

    // Flags and scripts are one front end: a flag combination is exactly
    // the one-line script `flags_script` renders, so both paths compile
    // the same way and fingerprint to the same plan keys.
    let mut compiled: CompiledScript = match &script_path {
        Some(path) => {
            if taper.is_some() || shards != 1 {
                eprintln!(
                    "--script replaces --ablate-taper/--oversub/--shards: put `taper <t>` / `shards <n>` in the script instead"
                );
                std::process::exit(2);
            }
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(2);
            });
            compile_str(&src).unwrap_or_else(|e| {
                eprintln!("{}: {e}", path.display());
                std::process::exit(2);
            })
        }
        None => compile_str(&flags_script(quick, taper, shards))
            .expect("the flag front end always renders a valid script"),
    };
    // `--script X --quick` = run X's grid on one seed (the CI smoke mode)
    if script_path.is_some() && quick {
        compiled.seeds.truncate(1);
        for campaign in &mut compiled.campaigns {
            if let Some(seeds) = &mut campaign.seeds {
                seeds.truncate(1);
            }
        }
    }

    let taper = compiled.taper;
    let seeds: &[u64] = &compiled.seeds;
    let trace_dir = trace_dir.or_else(|| compiled.trace_dir.clone().map(PathBuf::from));
    let selected = |name: &str| match &compiled.experiments {
        None => false,
        Some(ExperimentsSpec::All) => true,
        Some(ExperimentsSpec::Named(names)) => names.iter().any(|n| n.value == name),
    };

    // The taper override is plumbed explicitly: one engine, one fallback,
    // shared by every experiment — so cached plans carry the ablation in
    // their keys instead of reading process-global state.
    let lab = QueryEngine::new().spine_taper_fallback(taper);
    if let Some(t) = taper {
        println!("NOTE: spine taper forced to {t} on every fat-tree fabric for this run.\n");
    }
    let trace = |name: &str, parts: &[(String, harborsim_des::trace::TraceBuffer)]| {
        if let Some(dir) = &trace_dir {
            write_trace(dir, name, parts);
        }
    };
    let t0 = Instant::now();
    let mut all_ok = true;
    let mut summary: Vec<(&str, String)> = Vec::new();

    if bench_baseline {
        println!("== Performance baseline (hot-path throughput) ==");
        let measured = harborsim_bench::baseline::measure();
        println!("{}", measured.to_ascii());
        let path = out_dir().join("BENCH_baseline.json");
        std::fs::write(&path, measured.to_json()).expect("write bench baseline");
        println!("  written to {}", path.display());
        let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
        match std::fs::read_to_string(&committed)
            .ok()
            .and_then(|t| BenchBaseline::from_json(&t))
        {
            Some(base) => {
                let (violations, warnings) = measured.check_regression(&base);
                for w in &warnings {
                    println!("  [--] {w}");
                }
                if violations.is_empty() {
                    println!("  [ok] no regression vs the committed baseline (spin-normalized)");
                } else {
                    for v in &violations {
                        println!("  [!!] {v}");
                    }
                    all_ok = false;
                }
            }
            None => println!(
                "  [--] no committed BENCH_baseline.json to compare against ({})",
                committed.display()
            ),
        }
        println!();
    }

    if compiled.experiments.is_some() {
        println!("== Machine calibration (model constants, derived) ==");
        println!(
            "{:<14} {:>16} {:>16} {:>12} {:>10}",
            "cluster", "node GF/s (CG)", "machine TF/s", "8B msg [us]", "BW [GB/s]"
        );
        for m in harborsim_core::calibration::all_machines() {
            println!(
                "{:<14} {:>16.0} {:>16.1} {:>12.1} {:>10.1}",
                m.name,
                m.node_sustained_gflops,
                m.machine_sustained_tflops,
                m.small_message_us,
                m.fabric_gbs
            );
        }
        println!();
    }

    if selected("fig1") {
        println!("== Fig. 1: containerization solutions (Lenox) ==");
        let f1 = fig1::run(&lab, seeds);
        write_figure(&f1);
        println!("{}", f1.to_ascii(72, 18));
        all_ok &= report_shapes("fig1", &fig1::check_shape(&f1));
        summary.push(("fig1", f1.to_json()));
        trace("fig1", &fig1::traces(&lab, seeds[0]));
    }

    if selected("fig2") {
        println!("\n== Fig. 2: portability (CTE-POWER) ==");
        let f2 = fig2::run(&lab, seeds);
        write_figure(&f2);
        println!("{}", f2.to_ascii(72, 18));
        all_ok &= report_shapes("fig2", &fig2::check_shape(&f2));
        summary.push(("fig2", f2.to_json()));
        trace("fig2", &fig2::traces(&lab, seeds[0]));
    }

    if selected("fig3") {
        println!("\n== Fig. 3: scalability (MareNostrum4, up to 12,288 cores) ==");
        let f3 = fig3::run(&lab, seeds);
        write_figure(&f3);
        println!("{}", f3.to_ascii(72, 18));
        all_ok &= report_shapes("fig3", &fig3::check_shape(&f3));
        summary.push(("fig3", f3.to_json()));
        trace("fig3", &fig3::traces(&lab, seeds[0]));
    }

    if selected("tables") {
        println!("\n== Table: deployment overhead / image size / execution time ==");
        let td = tables::deployment(&lab, seeds);
        write_table(&td);
        println!("{}", td.to_ascii());
        all_ok &= report_shapes("table-deployment", &tables::check_deployment_shape(&td));
        summary.push(("table_deployment", td.to_json()));
        trace("table-deployment", &tables::deployment_traces());

        println!("\n== Table: portability across three architectures ==");
        let tp = tables::portability(&lab, seeds);
        write_table(&tp);
        println!("{}", tp.to_ascii());
        all_ok &= report_shapes("table-portability", &tables::check_portability_shape(&tp));
        summary.push(("table_portability", tp.to_json()));
    }

    if selected("ext-io") {
        println!("\n== Extension: I/O & distributed storage (image-startup storm) ==");
        let fe = ext_io::run();
        write_figure(&fe);
        println!("{}", fe.to_ascii(72, 18));
        all_ok &= report_shapes("ext-io", &ext_io::check_shape(&fe));
        summary.push(("ext_io", fe.to_json()));
        trace("ext-io", &ext_io::traces());
    }

    if selected("ext-breakdown") {
        println!("\n== Extension: time decomposition + Docker --net=host ablation ==");
        let rows = ext_breakdown::run(&lab, seeds[0]);
        let tb = ext_breakdown::table(&rows);
        write_table(&tb);
        println!("{}", tb.to_ascii());
        all_ok &= report_shapes("ext-breakdown", &ext_breakdown::check_shape(&rows));
        summary.push(("ext_breakdown", tb.to_json()));
        trace("ext-breakdown", &ext_breakdown::traces(&rows));
    }

    if selected("ext-campaign") {
        println!("\n== Extension: campaign turnaround under the batch scheduler ==");
        let rows = ext_campaign::run(&lab, seeds);
        let tc = ext_campaign::table(&rows);
        write_table(&tc);
        println!("{}", tc.to_ascii());
        all_ok &= report_shapes("ext-campaign", &ext_campaign::check_shape(&rows));
        summary.push(("ext_campaign", tc.to_json()));
        trace("ext-campaign", &ext_campaign::traces());
    }

    if selected("ext-open-system") {
        println!("\n== Extension: open-system campaign (arrivals, mix, storms) ==");
        let data = ext_open_system::run(&lab, seeds);
        let to = ext_open_system::table(&data);
        write_table(&to);
        println!("{}", to.to_ascii());
        all_ok &= report_shapes("ext-open-system", &ext_open_system::check_shape(&data));
        summary.push(("ext_open_system", to.to_json()));
        trace("ext-open-system", &ext_open_system::traces(&lab, seeds[0]));
    }

    if selected("ext-weak") {
        println!("\n== Extension: weak scaling ==");
        let fw = ext_weak::run(&lab, seeds);
        write_figure(&fw);
        println!("{}", fw.to_ascii(72, 18));
        all_ok &= report_shapes("ext-weak", &ext_weak::check_shape(&fw));
        summary.push(("ext_weak", fw.to_json()));
        trace("ext-weak", &ext_weak::traces(&lab, seeds[0]));
    }

    if selected("ext-oversub") {
        println!("\n== Extension: spine oversubscription ==");
        let study = ext_oversub::run(&lab, seeds);
        write_figure(&study.fig);
        println!("{}", study.fig.to_ascii(72, 18));
        let tl = ext_oversub::table(&study);
        write_table(&tl);
        println!("{}", tl.to_ascii());
        all_ok &= report_shapes("ext-oversub", &ext_oversub::check_shape(&study));
        summary.push(("ext_oversub", study.fig.to_json()));
    }

    if selected("ext-degraded") {
        println!("\n== Extension: degraded-link robustness ==");
        let fd = ext_degraded::run(&lab, seeds);
        write_figure(&fd);
        println!("{}", fd.to_ascii(72, 18));
        all_ok &= report_shapes("ext-degraded", &ext_degraded::check_shape(&fd));
        summary.push(("ext_degraded", fd.to_json()));
    }

    if selected("ext-locality") {
        println!("\n== Extension: placement locality on the fat tree ==");
        let fl = ext_locality::run(&lab, seeds);
        write_figure(&fl);
        println!("{}", fl.to_ascii(72, 18));
        all_ok &= report_shapes("ext-locality", &ext_locality::check_shape(&fl));
        summary.push(("ext_locality", fl.to_json()));
    }

    if selected("validation") {
        if compiled.shards > 1 {
            println!(
                "\n== Engine cross-validation (DES on {} shards vs analytic) ==",
                compiled.shards
            );
        } else {
            println!("\n== Engine cross-validation (DES vs analytic) ==");
        }
        let vrows = validation::run_with_shards(&lab, compiled.shards);
        let tv = validation::table(&vrows);
        write_table(&tv);
        println!("{}", tv.to_ascii());
        all_ok &= report_shapes("ext-validation", &validation::check_shape(&vrows));
        summary.push(("validation", tv.to_json()));
        trace("validation", &validation::traces(&lab, seeds[0]));
    }

    // The generic campaign runner: every `campaign` block in the script
    // becomes a labelled grid of (mean elapsed, canonical plan-key
    // fingerprint) rows, executed through the same lab and plan cache as
    // the paper experiments. An open campaign (`arrivals poisson …`)
    // runs through the open-system engine and reports tail latency
    // instead of means.
    let report = lab
        .run_script(compiled, &mut harborsim_des::trace::Recorder::off())
        .unwrap_or_else(|e| {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        });
    for campaign in &report.campaigns {
        println!("\n== Campaign: {} ==", campaign.name);
        let open = matches!(
            campaign.rows.first(),
            Some(CampaignRow {
                kind: CampaignRowKind::Open { .. },
                ..
            })
        );
        if open {
            println!(
                "{:<44} {:>7} {:>7} {:>10} {:>10}   {:<16}",
                "open run", "jobs", "util", "wait p50", "wait p99", "plan key"
            );
        } else {
            println!("{:<44} {:>12}   {:<16}", "run", "mean [s]", "plan key");
        }
        for row in &campaign.rows {
            let (label, print) = (&row.label, row.fingerprint);
            match row.kind {
                CampaignRowKind::Closed { mean_elapsed_s } => {
                    println!("{label:<44} {mean_elapsed_s:>12.2}   {print:016x}");
                }
                CampaignRowKind::Open {
                    jobs,
                    utilization,
                    wait_p50_s,
                    wait_p99_s,
                } => println!(
                    "{label:<44} {jobs:>7} {:>6.0}% {wait_p50_s:>9.1}s {wait_p99_s:>9.1}s   {print:016x}",
                    utilization * 100.0
                ),
            }
        }
    }

    let body: Vec<String> = summary
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let summary_path = out_dir().join("summary.json");
    std::fs::write(&summary_path, format!("{{\n{}\n}}\n", body.join(",\n")))
        .expect("write summary");

    println!("\n{}", lab.stats().summary_line());
    println!(
        "Done in {:.1}s. Artifacts in {} (summary.json, per-figure csv/svg/txt).",
        t0.elapsed().as_secs_f64(),
        out_dir().display()
    );
    if let Some(dir) = &trace_dir {
        println!(
            "Traces in {} (one chrome://tracing JSON per experiment).",
            dir.display()
        );
    }
    if !all_ok {
        println!("SOME SHAPE CHECKS FAILED — see above.");
        std::process::exit(1);
    }
    println!("All shape checks passed: the reproduction matches the paper's claims.");
}
