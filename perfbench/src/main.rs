//! `harborsim-perfbench`: the HarborSim benchmark.
//!
//! ```text
//! harborsim-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!                     --daemon <reproduce_all binary> [--out <span directory>]
//! ```
//!
//! Runs one workload (see `README.md`), prints every metric with its
//! unit, then, as the last line of standard output, one JSON object:
//! `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! `run.py` builds the daemon and this program and is the usual way in.

mod campaign;
mod loadgen;
mod metrics;
mod pace;
mod serve;
mod stats;
mod sys;
mod trace;
mod traffic;

use std::path::PathBuf;

const USAGE: &str = "usage: harborsim-perfbench --workload <name|all> --seed <n> --seconds <s> \
                     --trace <0|1> --daemon <reproduce_all> [--out <dir>]";

/// The command line.
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long one run measures.
    pub seconds: u64,
    /// Report the per-layer metrics of a traced run instead.
    pub trace: bool,
    /// The `reproduce_all` binary the serve workloads start.
    pub daemon: PathBuf,
    /// Where traced runs write their spans.
    pub out: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon) =
        (None, None, None, None, None);
    let mut out = PathBuf::from("target/perfbench");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.unwrap_or(false),
        daemon: daemon.ok_or_else(|| missing("--daemon"))?,
        out,
    })
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(pace::IDLE_FLAG) {
        return;
    }
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("harborsim-perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let names = if args.workload == "all" {
        metrics::WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        let result = match name {
            "serve-hot" => serve::run(serve::Mix::Hot, &args),
            "serve-sweep" => serve::run(serve::Mix::Sweep, &args),
            "campaign-des" => campaign::run(campaign::Kind::Des, &args),
            "campaign-open" => campaign::run(campaign::Kind::Open, &args),
            other => {
                eprintln!(
                    "harborsim-perfbench: unknown workload {other} (one of {:?}, or all)",
                    metrics::WORKLOADS
                );
                std::process::exit(2);
            }
        };
        match result {
            Ok(report) => {
                report.print(name, args.trace);
                println!("{}", report.json(args.trace));
            }
            Err(e) => {
                eprintln!("harborsim-perfbench: {name}: {e}");
                std::process::exit(1);
            }
        }
    }
}
