//! The syntax tree of `.hsim` scripts, plus the canonical pretty-printer.
//!
//! Equality between trees ignores source layout: positions live in
//! [`Spanned`] wrappers whose `PartialEq` compares only the value. The
//! `Display` impl on [`Script`] is the *canonical* rendering — printing a
//! parsed script and re-parsing the output yields an equal tree (the
//! round-trip property the test suite pins), which is also what makes the
//! deterministic script generator a fuzz surface: it builds trees, prints
//! them, and feeds the text back through the full pipeline.

use crate::scenario::Execution;
use crate::script::{Span, Spanned};
use std::fmt;

/// A whole script: directives and campaign blocks, in source order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Script {
    /// Top-level items in the order they appeared.
    pub items: Vec<Spanned<Item>>,
}

/// One top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `seeds quick | seeds default | seeds 1 2 3` — the repetition
    /// protocol.
    Seeds(SeedsSpec),
    /// `taper 0.5` — the engine-level spine-taper fallback (the script
    /// equivalent of `reproduce_all --ablate-taper` / `--oversub`).
    Taper(f64),
    /// `shards 4` — the DES shard-count fallback (the script equivalent
    /// of `reproduce_all --shards`): campaigns whose engine directive did
    /// not pin its own shard count pick this up.
    Shards(u64),
    /// `trace "dir"` — export chrome://tracing JSON per experiment.
    Trace(String),
    /// `experiments all | experiments fig1 fig2` — which of the paper's
    /// experiments to regenerate.
    Experiments(ExperimentsSpec),
    /// `campaign "name" { ... }` — a scenario grid of this script's own.
    Campaign(Campaign),
}

/// The seed protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedsSpec {
    /// One seed — the `--quick` smoke protocol.
    Quick,
    /// The paper's five-repetition protocol.
    Default,
    /// Explicit seeds.
    List(Vec<u64>),
}

/// Which experiments a script selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentsSpec {
    /// The full suite.
    All,
    /// A named subset, in run order.
    Named(Vec<Spanned<String>>),
}

/// A campaign block: a name and its settings in source order. Plain
/// settings fix one knob; `sweep` settings add a grid dimension (first
/// sweep outermost).
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Display name (also the figure/report id in generic runs).
    pub name: String,
    /// Body statements, in order.
    pub body: Vec<Spanned<Setting>>,
}

/// One campaign statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Setting {
    /// `cluster lenox`
    Cluster(String),
    /// `workload cfd-lenox`
    Workload(String),
    /// `env singularity self-contained` — one of the environments named
    /// in [`Execution::NAMED`] (the printer writes its name).
    Env(Execution),
    /// `nodes 4`
    Nodes(u64),
    /// `rpn 28` — MPI ranks per node.
    Rpn(u64),
    /// `threads 2` — OpenMP threads per rank.
    Threads(u64),
    /// `engine analytic | engine des 5`
    Engine(EngineSpec),
    /// `deploy` — also simulate image deployment.
    Deploy,
    /// `placement block | placement round-robin`
    Placement(PlacementSpec),
    /// `spine-taper 0.5` — pin this campaign's fabric taper.
    SpineTaper(f64),
    /// `degrade-uplink 3 0.5` — degrade node 3's uplink to half capacity.
    DegradeUplink(u64, f64),
    /// `seeds 1 2 3` — override the script-level protocol here only.
    Seeds(Vec<u64>),
    /// `sweep <knobs> <values>` — one grid dimension.
    Sweep(Sweep),
    /// `arrivals poisson rate=0.05` — turn the campaign into an
    /// open-system one: jobs arrive as a Poisson stream at this rate
    /// (jobs per simulated second).
    Arrivals(f64),
    /// `mix zipf s=1.1 over env [docker, shifter]` — one Zipf-weighted
    /// menu an open campaign samples per job (knob: `nodes`, `workload`,
    /// or `env`; most-popular value first).
    Mix {
        /// Zipf exponent.
        s: f64,
        /// Which per-job knob the menu feeds.
        knob: String,
        /// The menu values (multi-atom for `env` entries).
        values: Vec<Vec<Atom>>,
    },
    /// `tenants 6` — submitting tenants of an open campaign (image
    /// warmth is per tenant × runtime).
    Tenants(u64),
    /// `horizon 1200.0` — the open campaign's submission window, seconds.
    Horizon(f64),
}

/// Engine selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSpec {
    /// `analytic`
    Analytic,
    /// `engine des <max-steps-per-kind> [shards <n>]` — `shards` is the
    /// DES shard count (0 = inherit the script-level `shards` directive).
    Des {
        /// Steps of each kind to actually simulate.
        steps: u64,
        /// Pinned shard count; 0 means "not pinned here".
        shards: u64,
    },
}

/// Rank layout over nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementSpec {
    /// `block`
    Block,
    /// `round-robin`
    RoundRobin,
}

/// A sweep: one or more knobs (zipped when parenthesized) and the values
/// they take, each value optionally labelled `as "..."` for legends.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Knob names; more than one means tuple values assign them together.
    pub knobs: Vec<Spanned<String>>,
    /// The dimension's values.
    pub values: SweepValues,
}

/// The values of one sweep dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepValues {
    /// `2..16` — inclusive integer range (single integer knob only).
    Range(u64, u64),
    /// `[v, v as "Label", (a, b), ...]`
    List(Vec<Spanned<SweepPoint>>),
}

/// One grid value: per-knob atom sequences (multi-atom for knobs like
/// `env` and `degrade-uplink`), plus an optional legend label.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// One atom sequence per swept knob.
    pub parts: Vec<Vec<Atom>>,
    /// `as "Label"` — the series/legend name this value contributes.
    pub label: Option<String>,
}

/// A bare value inside a sweep point.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// Unsigned integer.
    Int(u64),
    /// Float (printed with `{:?}` so it round-trips bit-exactly).
    Float(f64),
    /// Bare word (`docker`, `round-robin`, `self-contained`, ...).
    Word(String),
}

impl SweepPoint {
    /// An unlabelled single-knob point.
    pub fn single(atoms: Vec<Atom>) -> SweepPoint {
        SweepPoint {
            parts: vec![atoms],
            label: None,
        }
    }

    /// The label used when no `as "..."` was given: the value itself,
    /// rendered canonically (`"16"`, `"singularity self-contained"`,
    /// `"(2, 14)"`).
    pub fn default_label(&self) -> String {
        if self.parts.len() == 1 {
            fmt_atoms(&self.parts[0])
        } else {
            format!(
                "({})",
                self.parts
                    .iter()
                    .map(|p| fmt_atoms(p))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Int(n) => write!(f, "{n}"),
            Atom::Float(x) => write!(f, "{x:?}"),
            Atom::Word(w) => f.write_str(w),
        }
    }
}

fn fmt_atoms(atoms: &[Atom]) -> String {
    atoms
        .iter()
        .map(Atom::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

fn fmt_ints(ints: &[u64]) -> String {
    ints.iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

impl fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.len() == 1 {
            f.write_str(&fmt_atoms(&self.parts[0]))?;
        } else {
            write!(
                f,
                "({})",
                self.parts
                    .iter()
                    .map(|p| fmt_atoms(p))
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        if let Some(label) = &self.label {
            write!(f, " as {label:?}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sweep ")?;
        if self.knobs.len() == 1 {
            f.write_str(&self.knobs[0].value)?;
        } else {
            write!(
                f,
                "({})",
                self.knobs
                    .iter()
                    .map(|k| k.value.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        match &self.values {
            SweepValues::Range(lo, hi) => write!(f, " {lo}..{hi}"),
            SweepValues::List(points) => write!(
                f,
                " [{}]",
                points
                    .iter()
                    .map(|p| p.value.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

impl fmt::Display for Setting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Setting::Cluster(name) => write!(f, "cluster {name}"),
            Setting::Workload(name) => write!(f, "workload {name}"),
            Setting::Env(env) => write!(f, "env {}", env.name().ok_or(fmt::Error)?),
            Setting::Nodes(n) => write!(f, "nodes {n}"),
            Setting::Rpn(n) => write!(f, "rpn {n}"),
            Setting::Threads(n) => write!(f, "threads {n}"),
            Setting::Engine(EngineSpec::Analytic) => f.write_str("engine analytic"),
            Setting::Engine(EngineSpec::Des { steps, shards: 0 }) => {
                write!(f, "engine des {steps}")
            }
            Setting::Engine(EngineSpec::Des { steps, shards }) => {
                write!(f, "engine des {steps} shards {shards}")
            }
            Setting::Deploy => f.write_str("deploy"),
            Setting::Placement(PlacementSpec::Block) => f.write_str("placement block"),
            Setting::Placement(PlacementSpec::RoundRobin) => f.write_str("placement round-robin"),
            Setting::SpineTaper(t) => write!(f, "spine-taper {t:?}"),
            Setting::DegradeUplink(node, factor) => {
                write!(f, "degrade-uplink {node} {factor:?}")
            }
            Setting::Seeds(seeds) => write!(f, "seeds {}", fmt_ints(seeds)),
            Setting::Sweep(sweep) => sweep.fmt(f),
            Setting::Arrivals(rate) => write!(f, "arrivals poisson rate={rate:?}"),
            Setting::Mix { s, knob, values } => write!(
                f,
                "mix zipf s={s:?} over {knob} [{}]",
                values
                    .iter()
                    .map(|v| fmt_atoms(v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Setting::Tenants(n) => write!(f, "tenants {n}"),
            Setting::Horizon(t) => write!(f, "horizon {t:?}"),
        }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Item::Seeds(SeedsSpec::Quick) => f.write_str("seeds quick"),
            Item::Seeds(SeedsSpec::Default) => f.write_str("seeds default"),
            Item::Seeds(SeedsSpec::List(seeds)) => write!(f, "seeds {}", fmt_ints(seeds)),
            Item::Taper(t) => write!(f, "taper {t:?}"),
            Item::Shards(n) => write!(f, "shards {n}"),
            Item::Trace(dir) => write!(f, "trace {dir:?}"),
            Item::Experiments(ExperimentsSpec::All) => f.write_str("experiments all"),
            Item::Experiments(ExperimentsSpec::Named(names)) => write!(
                f,
                "experiments {}",
                names
                    .iter()
                    .map(|n| n.value.clone())
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            Item::Campaign(c) => {
                writeln!(f, "campaign {:?} {{", c.name)?;
                for setting in &c.body {
                    writeln!(f, "  {}", setting.value)?;
                }
                f.write_str("}")
            }
        }
    }
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in &self.items {
            writeln!(f, "{}", item.value)?;
        }
        Ok(())
    }
}

impl Script {
    /// The campaigns of the script, in order.
    pub fn campaigns(&self) -> impl Iterator<Item = &Campaign> {
        self.items.iter().filter_map(|item| match &item.value {
            Item::Campaign(c) => Some(c),
            _ => None,
        })
    }
}

/// Shorthand for building synthesized (span-free) items in tests and the
/// generator.
pub fn synth<T>(value: T) -> Spanned<T> {
    Spanned::new(value, Span::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_printing_is_canonical() {
        let script = Script {
            items: vec![
                synth(Item::Seeds(SeedsSpec::Quick)),
                synth(Item::Taper(0.5)),
                synth(Item::Campaign(Campaign {
                    name: "demo".into(),
                    body: vec![
                        synth(Setting::Cluster("lenox".into())),
                        synth(Setting::Workload("cfd-small".into())),
                        synth(Setting::Env(Execution::singularity_self_contained())),
                        synth(Setting::Sweep(Sweep {
                            knobs: vec![synth("nodes".into())],
                            values: SweepValues::Range(2, 4),
                        })),
                        synth(Setting::Sweep(Sweep {
                            knobs: vec![synth("rpn".into()), synth("threads".into())],
                            values: SweepValues::List(vec![
                                synth(SweepPoint {
                                    parts: vec![vec![Atom::Int(2)], vec![Atom::Int(14)]],
                                    label: Some("2x14".into()),
                                }),
                                synth(SweepPoint {
                                    parts: vec![vec![Atom::Int(4)], vec![Atom::Int(7)]],
                                    label: None,
                                }),
                            ]),
                        })),
                    ],
                })),
            ],
        };
        let text = script.to_string();
        assert_eq!(
            text,
            "seeds quick\n\
             taper 0.5\n\
             campaign \"demo\" {\n  \
               cluster lenox\n  \
               workload cfd-small\n  \
               env singularity self-contained\n  \
               sweep nodes 2..4\n  \
               sweep (rpn, threads) [(2, 14) as \"2x14\", (4, 7)]\n\
             }\n"
        );
    }

    #[test]
    fn open_campaign_settings_render_canonically() {
        assert_eq!(
            Setting::Arrivals(0.05).to_string(),
            "arrivals poisson rate=0.05"
        );
        assert_eq!(
            Setting::Mix {
                s: 1.1,
                knob: "env".into(),
                values: vec![
                    vec![Atom::Word("docker".into())],
                    vec![
                        Atom::Word("singularity".into()),
                        Atom::Word("self-contained".into())
                    ],
                ],
            }
            .to_string(),
            "mix zipf s=1.1 over env [docker, singularity self-contained]"
        );
        assert_eq!(Setting::Tenants(6).to_string(), "tenants 6");
        assert_eq!(Setting::Horizon(1200.0).to_string(), "horizon 1200.0");
    }

    #[test]
    fn default_labels_render_the_value() {
        assert_eq!(
            SweepPoint::single(vec![Atom::Int(16)]).default_label(),
            "16"
        );
        assert_eq!(
            SweepPoint::single(vec![
                Atom::Word("singularity".into()),
                Atom::Word("self-contained".into())
            ])
            .default_label(),
            "singularity self-contained"
        );
        let tuple = SweepPoint {
            parts: vec![vec![Atom::Int(2)], vec![Atom::Float(0.5)]],
            label: None,
        };
        assert_eq!(tuple.default_label(), "(2, 0.5)");
    }
}
