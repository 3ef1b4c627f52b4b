//! The `harborsim` command-line interface.
//!
//! ```text
//! harborsim list                          # clusters, workloads, environments
//! harborsim run --cluster cte-power --workload cfd-cte \
//!               --runtime singularity --containment self-contained \
//!               --nodes 8 --rpn 40 [--threads 1] [--seed 42] [--deploy] [--des]
//! ```
//!
//! Clusters and workloads are looked up by the names scripts and the lab
//! wire use (`harborsim list` prints them). The figures and tables are
//! regenerated by `reproduce_all`, not by this binary.
//!
//! Argument parsing is deliberately hand-rolled (no CLI dependency): the
//! interface is small and stable.

use harborsim::container::Containment;
use harborsim::container::RuntimeKind;
use harborsim::hw::presets;
use harborsim::study::report::fmt_seconds;
use harborsim::study::scenario::{EngineKind, Execution, Scenario};
use harborsim::study::workloads;
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  harborsim list\n  harborsim run --cluster <name> --workload <name> \
         [--runtime <runtime>] [--containment <containment>] \
         [--nodes N] [--rpn N] [--threads N] [--seed N] [--deploy] [--des]\n\
         `harborsim list` names the clusters, workloads, runtimes and containments.\n\
         to regenerate the paper's figures and tables: \
         cargo run --release -p harborsim-bench --bin reproduce_all"
    );
    exit(2);
}

const RUNTIMES: [RuntimeKind; 4] = [
    RuntimeKind::BareMetal,
    RuntimeKind::Docker,
    RuntimeKind::Singularity,
    RuntimeKind::Shifter,
];

const CONTAINMENTS: [Containment; 2] = [Containment::SelfContained, Containment::SystemSpecific];

/// The word `--runtime` takes for `runtime`: the first word of the
/// environment names that use it (`bare` is accepted for bare metal too).
fn runtime_word(runtime: RuntimeKind) -> &'static str {
    Execution::NAMED
        .iter()
        .find(|(_, env)| env.runtime == runtime)
        .and_then(|(name, _)| name.split(' ').next())
        .expect("every runtime has a named environment")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("run") => run(&args[1..]),
        _ => usage(),
    }
}

fn list() {
    println!("clusters:");
    for (name, aliases, build) in presets::NAMED {
        let c = build();
        // the container runtimes (bare metal runs everywhere)
        let installed: Vec<&str> = RUNTIMES[1..]
            .iter()
            .filter(|r| r.available_on(&c.software))
            .map(|&r| runtime_word(r))
            .collect();
        let aliases = if aliases.is_empty() {
            String::new()
        } else {
            format!("  (also {})", aliases.join(", "))
        };
        println!(
            "  {:<14} {:>4} nodes x {:>2} cores  {:<16} [{}]{aliases}",
            name,
            c.node_count,
            c.node.cores(),
            c.interconnect.to_string(),
            installed.join(" "),
        );
    }
    println!("\nworkloads:");
    for (name, build) in workloads::NAMED {
        println!("  {:<11} {}", name, build().name());
    }
    println!("\nenvironments (scripts and the lab wire):");
    for (name, _) in Execution::NAMED {
        println!("  {name}");
    }
    let runtimes: Vec<&str> = RUNTIMES.iter().map(|&r| runtime_word(r)).collect();
    let containments: Vec<&str> = CONTAINMENTS.iter().map(|c| c.label()).collect();
    println!("\nruntimes (--runtime): bare, {}", runtimes.join(", "));
    println!(
        "containments (--containment): self, system, {}",
        containments.join(", ")
    );
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("unexpected argument {a:?}");
            usage();
        };
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(), // boolean flag
        };
        out.insert(key.to_string(), value);
    }
    out
}

fn run(args: &[String]) {
    let flags = parse_flags(args);
    let get = |k: &str, default: &str| flags.get(k).cloned().unwrap_or_else(|| default.to_string());

    let name = get("cluster", "marenostrum4");
    let cluster = presets::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown cluster {name:?} (try `harborsim list`)");
        exit(2);
    });
    let runtime = match flags.get("runtime").map(String::as_str) {
        None => RuntimeKind::Singularity,
        Some("bare") => RuntimeKind::BareMetal,
        Some(word) => RUNTIMES
            .into_iter()
            .find(|&r| runtime_word(r) == word)
            .unwrap_or_else(|| {
                eprintln!("unknown runtime {word:?}");
                exit(2);
            }),
    };
    let containment = match flags.get("containment").map(String::as_str) {
        None => Containment::SystemSpecific,
        Some("self") => Containment::SelfContained,
        Some("system") => Containment::SystemSpecific,
        Some(word) => CONTAINMENTS
            .into_iter()
            .find(|c| c.label() == word)
            .unwrap_or_else(|| {
                eprintln!("unknown containment {word:?}");
                exit(2);
            }),
    };
    let nodes: u32 = get("nodes", "2").parse().unwrap_or_else(|_| usage());
    let rpn: u32 = get("rpn", &cluster.node.cores().to_string())
        .parse()
        .unwrap_or_else(|_| usage());
    let threads: u32 = get("threads", "1").parse().unwrap_or_else(|_| usage());
    let seed: u64 = get("seed", "42").parse().unwrap_or_else(|_| usage());

    let mut scenario = Scenario::new(cluster, workloads::artery_cfd_small())
        .execution(Execution {
            runtime,
            containment,
        })
        .nodes(nodes)
        .ranks_per_node(rpn)
        .threads_per_rank(threads);
    if let Some(name) = flags.get("workload") {
        scenario.case = workloads::by_name(name).unwrap_or_else(|| {
            eprintln!("unknown workload {name:?} (try `harborsim list`)");
            exit(2);
        });
    }
    if flags.contains_key("des") {
        scenario = scenario.engine(EngineKind::Des {
            max_steps_per_kind: 5,
        });
    }
    if flags.contains_key("deploy") {
        scenario = scenario.with_deployment();
    }

    match scenario.try_run(seed) {
        Err(e) => {
            eprintln!("scenario rejected: {e}");
            exit(1);
        }
        Ok(outcome) => {
            println!(
                "{} | {} nodes x {} ranks x {} threads | engine={}",
                scenario.env.label(),
                nodes,
                rpn,
                threads,
                outcome.result.engine
            );
            if let Some(dep) = &outcome.deployment {
                println!(
                    "deployment: {} (gateway {}, {} pulled)",
                    fmt_seconds(dep.makespan.as_secs_f64()),
                    fmt_seconds(dep.gateway_seconds),
                    harborsim::study::report::fmt_bytes(dep.bytes_pulled)
                );
            }
            println!(
                "elapsed: {}  (compute {}, halo {}, allreduce {}, coupling {}, other {})",
                outcome.elapsed,
                outcome.result.compute,
                outcome.result.comm.halo,
                outcome.result.comm.allreduce,
                outcome.result.comm.pairs,
                outcome.result.comm.other,
            );
            println!(
                "traffic: {} inter-node msgs, {} intra-node msgs, {} over the fabric",
                outcome.result.inter_node_msgs,
                outcome.result.intra_node_msgs,
                harborsim::study::report::fmt_bytes(outcome.result.inter_node_bytes)
            );
        }
    }
}
