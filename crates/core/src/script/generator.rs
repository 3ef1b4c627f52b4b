//! Deterministic random-script generator — the DSL's fuzz surface.
//!
//! [`random_script`] builds a valid-by-construction [`Script`] from an
//! [`RngStream`], so the property tests can drive
//! print → parse → compile → fingerprint over thousands of distinct
//! scripts with zero flakiness: the same seed always yields the same
//! script. Generated campaigns keep their sweep values pairwise distinct
//! within each dimension, so a correct compiler must produce pairwise
//! distinct plan-key fingerprints — a property the tests pin.
//!
//! [`mutate`] damages script *text* (still deterministically) to walk the
//! error paths: whatever the mutation produces, the pipeline must reject
//! it with a spanned [`ScriptError`](crate::script::ScriptError) or
//! compile it — never panic.

use crate::scenario::Execution;
use crate::script::ast::{
    synth, Atom, Campaign, EngineSpec, ExperimentsSpec, Item, PlacementSpec, Script, SeedsSpec,
    Setting, Sweep, SweepPoint, SweepValues,
};
use crate::script::compile::EXPERIMENT_NAMES;
use crate::workloads;
use harborsim_des::RngStream;
use harborsim_hw::presets;

fn pick<'a, T>(rng: &mut RngStream, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// A deterministic random script: up to three directives and 1–2
/// campaigns, each with 0–2 sweeps whose values are pairwise distinct
/// within a dimension. Always parses, always compiles.
pub fn random_script(rng: &mut RngStream) -> Script {
    let mut items = Vec::new();
    match rng.below(4) {
        0 => items.push(synth(Item::Seeds(SeedsSpec::Quick))),
        1 => items.push(synth(Item::Seeds(SeedsSpec::Default))),
        2 => items.push(synth(Item::Seeds(SeedsSpec::List(vec![
            rng.below(1000) + 1,
            rng.below(1000) + 1001,
        ])))),
        _ => {}
    }
    if rng.below(3) == 0 {
        items.push(synth(Item::Taper((rng.below(9) + 1) as f64 / 10.0)));
    }
    if rng.below(4) == 0 {
        items.push(synth(Item::Trace(format!("target/gen-{}", rng.below(100)))));
    }
    if rng.below(4) == 0 {
        items.push(synth(Item::Shards(rng.below(7) + 1)));
    }
    if rng.below(4) == 0 {
        let spec = if rng.below(2) == 0 {
            ExperimentsSpec::All
        } else {
            ExperimentsSpec::Named(vec![synth((*pick(rng, &EXPERIMENT_NAMES)).to_string())])
        };
        items.push(synth(Item::Experiments(spec)));
    }
    let campaigns = rng.below(2) + 1;
    for c in 0..campaigns {
        items.push(synth(Item::Campaign(random_campaign(rng, c))));
    }
    Script { items }
}

fn random_campaign(rng: &mut RngStream, idx: u64) -> Campaign {
    let mut body = Vec::new();
    body.push(synth(Setting::Cluster(
        pick(rng, &presets::NAMED).0.to_string(),
    )));
    body.push(synth(Setting::Workload(
        pick(rng, &workloads::NAMED).0.to_string(),
    )));
    // nodes first: a generated degrade-uplink must stay inside the job
    let nodes = rng.below(15) + 2;
    body.push(synth(Setting::Nodes(nodes)));
    if rng.below(2) == 0 {
        body.push(synth(Setting::Rpn(rng.below(47) + 1)));
    }
    if rng.below(3) == 0 {
        body.push(synth(Setting::Threads(rng.below(4) + 1)));
    }
    if rng.below(4) == 0 {
        body.push(synth(Setting::Env(pick(rng, &Execution::NAMED).1)));
    }
    if rng.below(4) == 0 {
        body.push(synth(Setting::Placement(if rng.below(2) == 0 {
            PlacementSpec::Block
        } else {
            PlacementSpec::RoundRobin
        })));
    }
    if rng.below(4) == 0 {
        body.push(synth(Setting::SpineTaper((rng.below(9) + 1) as f64 / 10.0)));
    }
    if rng.below(5) == 0 {
        // node 0 stays inside the job even when a later nodes sweep
        // shrinks it
        body.push(synth(Setting::DegradeUplink(
            0,
            (rng.below(9) + 1) as f64 / 10.0,
        )));
    }
    if rng.below(4) == 0 {
        body.push(synth(Setting::Seeds(vec![rng.below(100) + 1])));
    }
    if rng.below(3) == 0 {
        // a des engine pin, with or without its own shard count (0 means
        // "inherit the top-level shards directive")
        body.push(synth(Setting::Engine(if rng.below(3) == 0 {
            EngineSpec::Analytic
        } else {
            EngineSpec::Des {
                steps: rng.below(6) + 2,
                shards: if rng.below(2) == 0 {
                    0
                } else {
                    rng.below(7) + 1
                },
            }
        })));
    }
    if rng.below(4) == 0 {
        // an open-system bundle: arrivals always brings its horizon, so
        // the generated script stays valid by construction (and the
        // expected job count stays far below the compile-time ceiling)
        body.push(synth(Setting::Arrivals((rng.below(20) + 1) as f64 / 100.0)));
        body.push(synth(Setting::Horizon(((rng.below(40) + 5) * 10) as f64)));
        if rng.below(2) == 0 {
            body.push(synth(Setting::Tenants(rng.below(8) + 1)));
        }
        if rng.below(2) == 0 {
            // 1/2/4 nodes fit every cluster preset
            body.push(synth(Setting::Mix {
                s: (rng.below(15) + 5) as f64 / 10.0,
                knob: "nodes".into(),
                values: vec![vec![Atom::Int(1)], vec![Atom::Int(2)], vec![Atom::Int(4)]],
            }));
        }
        if rng.below(2) == 0 {
            let count = rng.below(2) + 2;
            let offset = rng.below(Execution::NAMED.len() as u64);
            let values = (0..count)
                .map(|i| {
                    Execution::NAMED[((offset + i) % Execution::NAMED.len() as u64) as usize]
                        .0
                        .split_whitespace()
                        .map(|w| Atom::Word(w.to_string()))
                        .collect()
                })
                .collect();
            body.push(synth(Setting::Mix {
                s: (rng.below(15) + 5) as f64 / 10.0,
                knob: "env".into(),
                values,
            }));
        }
    }
    for s in 0..rng.below(3) {
        body.push(synth(Setting::Sweep(random_sweep(rng, s))));
    }
    Campaign {
        name: format!("generated-{idx}"),
        body,
    }
}

fn random_sweep(rng: &mut RngStream, dim: u64) -> Sweep {
    // each arm keeps its values pairwise distinct within the dimension
    match rng.below(6) {
        0 => {
            let lo = rng.below(4) + 1;
            Sweep {
                knobs: vec![synth("nodes".to_string())],
                values: SweepValues::Range(lo, lo + rng.below(4) + 1),
            }
        }
        1 => {
            let base = rng.below(20) + 1;
            let points = (0..rng.below(3) + 2)
                .map(|i| labelled(rng, SweepPoint::single(vec![Atom::Int(base + i * 7)])))
                .collect();
            Sweep {
                knobs: vec![synth("rpn".to_string())],
                values: SweepValues::List(points),
            }
        }
        2 => {
            let count = rng.below(3) + 2;
            let offset = rng.below(Execution::NAMED.len() as u64);
            let points = (0..count)
                .map(|i| {
                    let (name, _) =
                        Execution::NAMED[((offset + i) % Execution::NAMED.len() as u64) as usize];
                    let atoms = name
                        .split_whitespace()
                        .map(|w| Atom::Word(w.to_string()))
                        .collect();
                    labelled(rng, SweepPoint::single(atoms))
                })
                .collect();
            Sweep {
                knobs: vec![synth("env".to_string())],
                values: SweepValues::List(points),
            }
        }
        3 => Sweep {
            knobs: vec![synth("placement".to_string())],
            values: SweepValues::List(vec![
                labelled(rng, SweepPoint::single(vec![Atom::Word("block".into())])),
                labelled(
                    rng,
                    SweepPoint::single(vec![Atom::Word("round-robin".into())]),
                ),
            ]),
        },
        4 => {
            // node 0 is inside the job whatever the other dims pick
            let victim = 0;
            let points = [1.0, 0.5, 0.25]
                .iter()
                .take((rng.below(2) + 2) as usize)
                .map(|&factor| {
                    labelled(
                        rng,
                        SweepPoint::single(vec![Atom::Int(victim), Atom::Float(factor)]),
                    )
                })
                .collect();
            Sweep {
                knobs: vec![synth("degrade-uplink".to_string())],
                values: SweepValues::List(points),
            }
        }
        _ => {
            // a zipped two-knob sweep, fig1-style
            let points = (0..rng.below(2) + 2)
                .map(|i| {
                    let threads = 1 << i;
                    labelled(
                        rng,
                        SweepPoint {
                            parts: vec![
                                vec![Atom::Int(28 / threads + dim)],
                                vec![Atom::Int(threads)],
                            ],
                            label: None,
                        },
                    )
                })
                .collect();
            Sweep {
                knobs: vec![synth("rpn".to_string()), synth("threads".to_string())],
                values: SweepValues::List(points),
            }
        }
    }
}

fn labelled(rng: &mut RngStream, mut point: SweepPoint) -> crate::script::Spanned<SweepPoint> {
    if rng.below(3) == 0 {
        point.label = Some(format!("L{}", rng.below(10_000)));
    }
    synth(point)
}

/// Deterministically damage script text: truncate it, delete a span, or
/// splice in bytes from another position. The result may or may not be a
/// valid script — the property tests only require that the pipeline
/// never panics on it.
pub fn mutate(src: &str, rng: &mut RngStream) -> String {
    if src.is_empty() {
        return src.to_string();
    }
    let bytes: Vec<char> = src.chars().collect();
    let n = bytes.len() as u64;
    match rng.below(4) {
        0 => bytes[..rng.below(n) as usize].iter().collect(),
        1 => {
            let start = rng.below(n) as usize;
            let len = (rng.below(8) + 1) as usize;
            let end = (start + len).min(bytes.len());
            bytes[..start].iter().chain(&bytes[end..]).collect()
        }
        2 => {
            let at = rng.below(n) as usize;
            let from = rng.below(n) as usize;
            let len = ((rng.below(8) + 1) as usize).min(bytes.len() - from);
            let mut out: Vec<char> = bytes[..at].to_vec();
            out.extend(&bytes[from..from + len]);
            out.extend(&bytes[at..]);
            out.into_iter().collect()
        }
        _ => {
            let mut out = bytes;
            let at = rng.below(n) as usize;
            out[at] = *pick(rng, &['@', '.', '"', '}', ']', ')', '0', 'q']);
            out.into_iter().collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{compile, parse};

    #[test]
    fn generated_scripts_are_deterministic() {
        let a = random_script(&mut RngStream::new(42).derive("gen"));
        let b = random_script(&mut RngStream::new(42).derive("gen"));
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn generated_scripts_parse_and_compile() {
        for i in 0..50 {
            let mut rng = RngStream::new(0xD51).derive_idx(i);
            let script = random_script(&mut rng);
            let text = script.to_string();
            let reparsed = parse(&text).unwrap_or_else(|e| panic!("seed {i}: {e}\n{text}"));
            assert_eq!(script, reparsed, "seed {i} round trip\n{text}");
            let compiled = compile(&reparsed).unwrap_or_else(|e| panic!("seed {i}: {e}\n{text}"));
            assert!(!compiled.campaigns.is_empty());
        }
    }

    #[test]
    fn mutation_is_deterministic() {
        let src = "campaign \"x\" { cluster lenox workload cfd-small }";
        let a = mutate(src, &mut RngStream::new(7).derive("mut"));
        let b = mutate(src, &mut RngStream::new(7).derive("mut"));
        assert_eq!(a, b);
    }
}
