//! AST → scenario grid: resolve names, expand sweeps, fingerprint.
//!
//! Compilation turns every campaign block into the cross product of its
//! sweeps (first sweep outermost — the env-outer/config-inner ordering
//! the figure runners chunk by), building a full
//! [`Scenario`] for each grid point. All
//! validation lives here — registry names, ranges, sweep knob/value
//! shapes — so the scenario builders' assertions can never fire on
//! script input; every rejection is a spanned
//! [`ScriptError`] (stage `Compile`).

use crate::lab::PlanKey;
use crate::open::{MixSpec, OpenSpec};
use crate::runner::default_seeds;
use crate::scenario::{EngineKind, Execution, Scenario};
use crate::script::ast::{
    Atom, Campaign, EngineSpec, ExperimentsSpec, Item, PlacementSpec, Script, SeedsSpec, Setting,
    Sweep, SweepValues,
};
use crate::script::parser::{env_words, needs_containment, or_list, parse};
use crate::script::{ScriptError, Span};
use crate::workloads;
use harborsim_hw::presets;
use harborsim_mpi::Placement;

/// One knob binding a sweep point applies: `(knob, atoms, span)`.
type KnobBind = (String, Vec<Atom>, Span);

/// One expanded sweep dimension: its labelled points, in source order.
type SweepDim = Vec<(String, Vec<KnobBind>)>;

/// The experiment names `experiments` may select. `reproduce_all` runs a
/// selection in an order of its own, not this one; the order here is
/// fixed because the script generator picks from the list by index.
pub const EXPERIMENT_NAMES: [&str; 13] = [
    "fig1",
    "fig2",
    "fig3",
    "tables",
    "validation",
    "ext-io",
    "ext-breakdown",
    "ext-campaign",
    "ext-weak",
    "ext-oversub",
    "ext-degraded",
    "ext-locality",
    "ext-open-system",
];

/// A whole script, compiled: the run protocol plus one scenario grid per
/// campaign.
pub struct CompiledScript {
    /// Seeds each run repeats over (campaigns may override via their own
    /// `seeds` setting): `quick` → the first default seed, `default` or
    /// absent → the full default protocol.
    pub seeds: Vec<u64>,
    /// Engine-level spine-taper fallback (the `taper` directive — the
    /// script form of `--ablate-taper`/`--oversub`).
    pub taper: Option<f64>,
    /// DES shard-count fallback (the `shards` directive — the script form
    /// of `--shards`). Campaign runs whose engine directive did not pin
    /// its own count compile with this; 1 when absent.
    pub shards: u32,
    /// Trace output directory, if the script asks for traces.
    pub trace_dir: Option<String>,
    /// Which paper experiments to run, if the script selects any.
    pub experiments: Option<ExperimentsSpec>,
    /// One compiled grid per campaign block, in script order.
    pub campaigns: Vec<CompiledCampaign>,
}

impl std::fmt::Debug for CompiledScript {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Scenario boxes a trait object, so the grid renders as shape +
        // fingerprints rather than full scenarios
        f.debug_struct("CompiledScript")
            .field("seeds", &self.seeds)
            .field("taper", &self.taper)
            .field("shards", &self.shards)
            .field("trace_dir", &self.trace_dir)
            .field("experiments", &self.experiments)
            .field("campaigns", &self.campaigns)
            .finish()
    }
}

impl CompiledScript {
    /// Canonical [`PlanKey`] fingerprints of every run of every campaign,
    /// in grid order, under this script's taper fallback. A run whose
    /// workload opts out of memoization fingerprints as 0.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.campaigns
            .iter()
            .flat_map(|c| c.runs.iter())
            .map(|run| run.fingerprint(self.taper))
            .collect()
    }
}

/// One campaign block, expanded to its scenario grid.
pub struct CompiledCampaign {
    /// The quoted campaign name.
    pub name: String,
    /// Campaign-level seed override, if present.
    pub seeds: Option<Vec<u64>>,
    /// Number of values in each sweep, in declaration order — the grid
    /// shape. `runs.len()` is their product; the first sweep is
    /// outermost.
    pub sweep_lens: Vec<usize>,
    /// Every grid point, first sweep outermost.
    pub runs: Vec<CompiledRun>,
}

impl std::fmt::Debug for CompiledCampaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledCampaign")
            .field("name", &self.name)
            .field("seeds", &self.seeds)
            .field("sweep_lens", &self.sweep_lens)
            .field(
                "runs",
                &self.runs.iter().map(|r| &r.labels).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl CompiledCampaign {
    /// This campaign's seeds, falling back to the script-level protocol.
    pub fn seeds_or<'a>(&'a self, fallback: &'a [u64]) -> &'a [u64] {
        self.seeds.as_deref().unwrap_or(fallback)
    }
}

/// One grid point: a runnable scenario plus its sweep labels.
pub struct CompiledRun {
    /// One label per sweep, in declaration order — the explicit
    /// `as "Label"` if given, otherwise the value's canonical rendering.
    pub labels: Vec<String>,
    /// The fully built scenario.
    pub scenario: Scenario,
}

impl CompiledRun {
    /// Canonical [`PlanKey`] fingerprint under `fallback_taper`, or 0 if
    /// the workload opted out of memoization.
    pub fn fingerprint(&self, fallback_taper: Option<f64>) -> u64 {
        PlanKey::of(&self.scenario, fallback_taper)
            .map(|key| key.fingerprint())
            .unwrap_or(0)
    }
}

/// Parse and compile in one step.
///
/// # Errors
/// [`ScriptError`] from whichever stage rejects the input.
pub fn compile_str(src: &str) -> Result<CompiledScript, ScriptError> {
    compile(&parse(src)?)
}

/// Compile a parsed [`Script`].
///
/// # Errors
/// [`ScriptError`] (stage `Compile`) naming the offending span.
pub fn compile(script: &Script) -> Result<CompiledScript, ScriptError> {
    let mut seeds = default_seeds().to_vec();
    let mut taper = None;
    let mut shards: u32 = 1;
    let mut trace_dir = None;
    let mut experiments = None;
    // pass 1 — directives, so a script-level `shards` reaches every
    // campaign no matter where it appears in the file
    for item in &script.items {
        match &item.value {
            Item::Seeds(spec) => seeds = resolve_seeds(spec, item.span)?,
            Item::Taper(t) => {
                check_fraction(*t, item.span, "taper")?;
                taper = Some(*t);
            }
            Item::Shards(n) => shards = checked_shards(*n, item.span)?,
            Item::Trace(dir) => trace_dir = Some(dir.clone()),
            Item::Experiments(spec) => {
                if let ExperimentsSpec::Named(names) = spec {
                    for name in names {
                        if !EXPERIMENT_NAMES.contains(&name.value.as_str()) {
                            return Err(ScriptError::compile(
                                name.span,
                                format!(
                                    "unknown experiment `{}` (known: {})",
                                    name.value,
                                    EXPERIMENT_NAMES.join(", ")
                                ),
                            ));
                        }
                    }
                }
                experiments = Some(spec.clone());
            }
            Item::Campaign(_) => {}
        }
    }
    // pass 2 — campaigns, compiled under the script-level shard fallback
    let mut campaigns = Vec::new();
    for item in &script.items {
        if let Item::Campaign(campaign) = &item.value {
            campaigns.push(compile_campaign(campaign, item.span, shards)?);
        }
    }
    Ok(CompiledScript {
        seeds,
        taper,
        shards,
        trace_dir,
        experiments,
        campaigns,
    })
}

fn resolve_seeds(spec: &SeedsSpec, span: Span) -> Result<Vec<u64>, ScriptError> {
    match spec {
        SeedsSpec::Quick => Ok(default_seeds()[..1].to_vec()),
        SeedsSpec::Default => Ok(default_seeds().to_vec()),
        SeedsSpec::List(list) => {
            if list.is_empty() {
                Err(ScriptError::compile(span, "empty seed list"))
            } else {
                Ok(list.clone())
            }
        }
    }
}

/// The per-run configuration sweeps mutate: plain data, cheap to clone,
/// turned into a [`Scenario`] only once the grid point is final.
#[derive(Clone)]
struct Cfg {
    cluster: Option<String>,
    workload: Option<String>,
    env: Execution,
    nodes: u32,
    rpn: Option<u32>,
    threads: u32,
    engine: EngineKind,
    /// DES shard count; starts at the script-level fallback, overridden
    /// by an `engine des ... shards N` directive.
    shards: u32,
    deploy: bool,
    placement: Placement,
    spine_taper: Option<f64>,
    degraded: Vec<(u32, f64)>,
    open: OpenCfg,
}

/// The open-system directives of a campaign, collected before validation
/// assembles them into an [`OpenSpec`] (or rejects the combination).
#[derive(Clone, Default)]
struct OpenCfg {
    arrivals: Option<f64>,
    horizon: Option<f64>,
    tenants: Option<u32>,
    node_mix: Option<(f64, Vec<u32>)>,
    workload_mix: Option<(f64, Vec<String>)>,
    env_mix: Option<(f64, Vec<Execution>)>,
}

impl Cfg {
    fn fresh(shards: u32) -> Cfg {
        Cfg {
            cluster: None,
            workload: None,
            env: Execution::bare_metal(),
            nodes: 1,
            rpn: None,
            threads: 1,
            engine: EngineKind::Analytic,
            shards,
            deploy: false,
            placement: Placement::Block,
            spine_taper: None,
            degraded: Vec::new(),
            open: OpenCfg::default(),
        }
    }
}

fn compile_campaign(
    campaign: &Campaign,
    span: Span,
    fallback_shards: u32,
) -> Result<CompiledCampaign, ScriptError> {
    let mut base = Cfg::fresh(fallback_shards);
    let mut seeds = None;
    let mut sweeps: Vec<(&Sweep, Span)> = Vec::new();
    for setting in &campaign.body {
        let at = setting.span;
        match &setting.value {
            Setting::Cluster(name) => {
                check_cluster(name, at)?;
                base.cluster = Some(name.clone());
            }
            Setting::Workload(name) => {
                check_workload(name, at)?;
                base.workload = Some(name.clone());
            }
            Setting::Env(env) => base.env = *env,
            Setting::Nodes(n) => base.nodes = checked_u32(*n, at, "nodes")?,
            Setting::Rpn(n) => base.rpn = Some(checked_u32(*n, at, "rpn")?),
            Setting::Threads(n) => base.threads = checked_u32(*n, at, "threads")?,
            Setting::Engine(spec) => {
                base.engine = engine_kind(spec, at)?;
                if let EngineSpec::Des { shards, .. } = spec {
                    if *shards != 0 {
                        base.shards = checked_shards(*shards, at)?;
                    }
                }
            }
            Setting::Deploy => base.deploy = true,
            Setting::Placement(p) => base.placement = placement(p),
            Setting::SpineTaper(t) => {
                check_fraction(*t, at, "spine-taper")?;
                base.spine_taper = Some(*t);
            }
            Setting::DegradeUplink(node, factor) => {
                let node = checked_u32(*node, at, "degraded node index")?;
                check_fraction(*factor, at, "degradation factor")?;
                if *factor < 1.0 {
                    base.degraded.push((node, *factor));
                }
            }
            Setting::Seeds(list) => {
                if list.is_empty() {
                    return Err(ScriptError::compile(at, "empty seed list"));
                }
                seeds = Some(list.clone());
            }
            Setting::Sweep(sweep) => sweeps.push((sweep, at)),
            Setting::Arrivals(rate) => {
                check_positive(*rate, at, "arrival rate")?;
                base.open.arrivals = Some(*rate);
            }
            Setting::Horizon(t) => {
                check_positive(*t, at, "horizon")?;
                base.open.horizon = Some(*t);
            }
            Setting::Tenants(n) => {
                base.open.tenants = Some(checked_u32(*n, at, "tenants")?);
            }
            Setting::Mix { s, knob, values } => apply_mix(&mut base.open, *s, knob, values, at)?,
        }
    }

    // expand each sweep to (label, [(knob, atoms)]) points
    let mut dims: Vec<SweepDim> = Vec::new();
    for (sweep, at) in &sweeps {
        for knob in &sweep.knobs {
            known_knob(&knob.value, knob.span)?;
        }
        let mut points = Vec::new();
        match &sweep.values {
            SweepValues::Range(lo, hi) => {
                let knob = &sweep.knobs[0];
                for n in *lo..=*hi {
                    points.push((
                        n.to_string(),
                        vec![(knob.value.clone(), vec![Atom::Int(n)], *at)],
                    ));
                }
            }
            SweepValues::List(list) => {
                for point in list {
                    let label = point
                        .value
                        .label
                        .clone()
                        .unwrap_or_else(|| point.value.default_label());
                    let binds = sweep
                        .knobs
                        .iter()
                        .zip(&point.value.parts)
                        .map(|(knob, atoms)| (knob.value.clone(), atoms.clone(), point.span))
                        .collect();
                    points.push((label, binds));
                }
            }
        }
        dims.push(points);
    }

    let sweep_lens: Vec<usize> = dims.iter().map(Vec::len).collect();
    let total: usize = sweep_lens.iter().product();
    let mut runs = Vec::with_capacity(total);
    for flat in 0..total {
        // odometer: first sweep outermost
        let mut rest = flat;
        let mut labels = Vec::with_capacity(dims.len());
        let mut cfg = base.clone();
        let mut picks = Vec::with_capacity(dims.len());
        for len in sweep_lens.iter().rev() {
            picks.push(rest % len);
            rest /= len;
        }
        picks.reverse();
        for (dim, &pick) in dims.iter().zip(&picks) {
            let (label, binds) = &dim[pick];
            labels.push(label.clone());
            for (knob, atoms, at) in binds {
                apply_knob(&mut cfg, knob, atoms, *at)?;
            }
        }
        runs.push(CompiledRun {
            labels,
            scenario: build_scenario(&cfg, span)?,
        });
    }
    Ok(CompiledCampaign {
        name: campaign.name.clone(),
        seeds,
        sweep_lens,
        runs,
    })
}

/// Knobs a sweep may vary.
const KNOBS: [&str; 9] = [
    "cluster",
    "workload",
    "env",
    "nodes",
    "rpn",
    "threads",
    "placement",
    "spine-taper",
    "degrade-uplink",
];

fn known_knob(knob: &str, span: Span) -> Result<(), ScriptError> {
    if KNOBS.contains(&knob) {
        Ok(())
    } else {
        Err(ScriptError::compile(
            span,
            format!("unknown sweep knob `{knob}` (known: {})", KNOBS.join(", ")),
        ))
    }
}

fn apply_knob(cfg: &mut Cfg, knob: &str, atoms: &[Atom], at: Span) -> Result<(), ScriptError> {
    match knob {
        "cluster" => {
            let name = one_word(atoms, at, "a cluster name")?;
            check_cluster(&name, at)?;
            cfg.cluster = Some(name);
        }
        "workload" => {
            let name = one_word(atoms, at, "a workload name")?;
            check_workload(&name, at)?;
            cfg.workload = Some(name);
        }
        "env" => cfg.env = env_from_atoms(atoms, at)?,
        "nodes" => cfg.nodes = one_u32(atoms, at, "nodes")?,
        "rpn" => cfg.rpn = Some(one_u32(atoms, at, "rpn")?),
        "threads" => cfg.threads = one_u32(atoms, at, "threads")?,
        "placement" => {
            cfg.placement = match one_word(atoms, at, "a placement")?.as_str() {
                "block" => Placement::Block,
                "round-robin" => Placement::RoundRobin,
                other => {
                    return Err(ScriptError::compile(
                        at,
                        format!("unknown placement `{other}` (expected block or round-robin)"),
                    ))
                }
            }
        }
        "spine-taper" => {
            let t = one_number(atoms, at, "a taper value")?;
            check_fraction(t, at, "spine-taper")?;
            cfg.spine_taper = Some(t);
        }
        "degrade-uplink" => {
            // a `(node, factor)` pair as two space-separated atoms; a
            // factor of 1.0 is the healthy fabric (no entry), so a sweep
            // can include the baseline as a grid point
            let [node, factor] = atoms else {
                return Err(ScriptError::compile(
                    at,
                    "degrade-uplink takes a node index and a capacity factor",
                ));
            };
            let node = match node {
                Atom::Int(n) => checked_u32(*n, at, "degraded node index")?,
                other => {
                    return Err(ScriptError::compile(
                        at,
                        format!("expected a node index, found `{other}`"),
                    ))
                }
            };
            let factor = atom_number(factor, at, "a capacity factor")?;
            check_fraction(factor, at, "degradation factor")?;
            cfg.degraded = if factor < 1.0 {
                vec![(node, factor)]
            } else {
                Vec::new()
            };
        }
        _ => unreachable!("knob names are checked by known_knob"),
    }
    Ok(())
}

fn build_scenario(cfg: &Cfg, span: Span) -> Result<Scenario, ScriptError> {
    let cluster_name = cfg.cluster.as_deref().ok_or_else(|| {
        ScriptError::compile(span, "campaign needs a `cluster` (set it or sweep it)")
    })?;
    let workload_name = cfg.workload.as_deref().ok_or_else(|| {
        ScriptError::compile(span, "campaign needs a `workload` (set it or sweep it)")
    })?;
    let cluster =
        presets::by_name(cluster_name).ok_or_else(|| unknown_cluster(cluster_name, span))?;
    let case =
        workloads::by_name(workload_name).ok_or_else(|| unknown_workload(workload_name, span))?;
    let ranks_per_node = cfg.rpn.unwrap_or_else(|| cluster.node.cores());
    for &(node, _) in &cfg.degraded {
        if node >= cfg.nodes {
            return Err(ScriptError::compile(
                span,
                format!(
                    "degraded node {node} is outside the job ({} node(s))",
                    cfg.nodes
                ),
            ));
        }
    }
    let open = open_spec(cfg, workload_name, span)?;
    // built as a struct literal: cluster and case are the registry's
    // shared values already
    Ok(Scenario {
        cluster,
        case,
        env: cfg.env,
        nodes: cfg.nodes,
        ranks_per_node,
        threads_per_rank: cfg.threads,
        engine: cfg.engine,
        deploy: cfg.deploy,
        placement: cfg.placement,
        spine_taper: cfg.spine_taper,
        degraded_uplinks: cfg.degraded.clone(),
        shards: cfg.shards,
        open,
    })
}

/// Apply one `mix` directive to the campaign's open configuration.
fn apply_mix(
    open: &mut OpenCfg,
    s: f64,
    knob: &str,
    values: &[Vec<Atom>],
    at: Span,
) -> Result<(), ScriptError> {
    check_positive(s, at, "zipf exponent")?;
    let duplicate =
        |knob: &str| ScriptError::compile(at, format!("this campaign already has a `{knob}` mix"));
    match knob {
        "nodes" => {
            if open.node_mix.is_some() {
                return Err(duplicate(knob));
            }
            let mut menu = Vec::with_capacity(values.len());
            for atoms in values {
                menu.push(one_u32(atoms, at, "nodes")?);
            }
            open.node_mix = Some((s, menu));
        }
        "workload" => {
            if open.workload_mix.is_some() {
                return Err(duplicate(knob));
            }
            let mut menu = Vec::with_capacity(values.len());
            for atoms in values {
                let name = one_word(atoms, at, "a workload name")?;
                check_workload(&name, at)?;
                menu.push(name);
            }
            open.workload_mix = Some((s, menu));
        }
        "env" => {
            if open.env_mix.is_some() {
                return Err(duplicate(knob));
            }
            let mut menu = Vec::with_capacity(values.len());
            for atoms in values {
                menu.push(env_from_atoms(atoms, at)?);
            }
            open.env_mix = Some((s, menu));
        }
        other => {
            return Err(ScriptError::compile(
                at,
                format!("unknown mix knob `{other}` (expected nodes, workload, or env)"),
            ))
        }
    }
    Ok(())
}

/// Ceiling on the expected job count (`rate × horizon`) of one open
/// campaign — far above any sensible study, low enough that a typo cannot
/// ask for millions of sampled jobs.
const MAX_EXPECTED_JOBS: f64 = 100_000.0;

/// Assemble the campaign's open directives into an [`OpenSpec`], filling
/// unmixed dimensions from the plain settings — or reject inconsistent
/// combinations.
fn open_spec(cfg: &Cfg, workload: &str, span: Span) -> Result<Option<OpenSpec>, ScriptError> {
    let o = &cfg.open;
    let Some(rate) = o.arrivals else {
        if o.horizon.is_some()
            || o.tenants.is_some()
            || o.node_mix.is_some()
            || o.workload_mix.is_some()
            || o.env_mix.is_some()
        {
            return Err(ScriptError::compile(
                span,
                "horizon/tenants/mix need `arrivals poisson rate=...` to open the campaign",
            ));
        }
        return Ok(None);
    };
    let Some(horizon) = o.horizon else {
        return Err(ScriptError::compile(
            span,
            "arrivals need a `horizon` (length of the submission window, seconds)",
        ));
    };
    if cfg.deploy {
        return Err(ScriptError::compile(
            span,
            "`deploy` and `arrivals` are mutually exclusive (open campaigns stage images themselves)",
        ));
    }
    let expected = rate * horizon;
    if expected > MAX_EXPECTED_JOBS {
        return Err(ScriptError::compile(
            span,
            format!(
                "arrivals sample {expected:.0} jobs on average (rate x horizon must stay at or below {MAX_EXPECTED_JOBS:.0})"
            ),
        ));
    }
    let node_mix = match &o.node_mix {
        Some((s, menu)) => MixSpec {
            s: *s,
            values: menu.clone(),
        },
        None => MixSpec::single(cfg.nodes),
    };
    let workload_mix = match &o.workload_mix {
        Some((s, menu)) => MixSpec {
            s: *s,
            values: menu.clone(),
        },
        None => MixSpec::single(workload.to_string()),
    };
    let env_mix = match &o.env_mix {
        Some((s, menu)) => MixSpec {
            s: *s,
            values: menu.clone(),
        },
        None => MixSpec::single(cfg.env),
    };
    Ok(Some(OpenSpec {
        rate_per_s: rate,
        horizon_s: horizon,
        tenants: o.tenants.unwrap_or(1),
        node_mix,
        workload_mix,
        env_mix,
    }))
}

fn check_cluster(name: &str, span: Span) -> Result<(), ScriptError> {
    match presets::canonical_name(name) {
        Some(_) => Ok(()),
        None => Err(unknown_cluster(name, span)),
    }
}

fn unknown_cluster(name: &str, span: Span) -> ScriptError {
    let known: Vec<&str> = presets::NAMED.iter().map(|&(n, _, _)| n).collect();
    ScriptError::compile(
        span,
        format!("unknown cluster `{name}` (known: {})", known.join(", ")),
    )
}

fn check_workload(name: &str, span: Span) -> Result<(), ScriptError> {
    if workloads::NAMED.iter().any(|&(n, _)| n == name) {
        Ok(())
    } else {
        Err(unknown_workload(name, span))
    }
}

fn unknown_workload(name: &str, span: Span) -> ScriptError {
    let known: Vec<&str> = workloads::NAMED.iter().map(|&(n, _)| n).collect();
    ScriptError::compile(
        span,
        format!("unknown workload `{name}` (known: {})", known.join(", ")),
    )
}

fn engine_kind(spec: &EngineSpec, span: Span) -> Result<EngineKind, ScriptError> {
    match spec {
        EngineSpec::Analytic => Ok(EngineKind::Analytic),
        EngineSpec::Des { steps, .. } => Ok(EngineKind::Des {
            max_steps_per_kind: checked_u32(*steps, span, "des steps")?,
        }),
    }
}

fn placement(spec: &PlacementSpec) -> Placement {
    match spec {
        PlacementSpec::Block => Placement::Block,
        PlacementSpec::RoundRobin => Placement::RoundRobin,
    }
}

fn env_from_atoms(atoms: &[Atom], span: Span) -> Result<Execution, ScriptError> {
    let words: Vec<&str> = atoms
        .iter()
        .map(|a| match a {
            Atom::Word(w) => Ok(w.as_str()),
            other => Err(ScriptError::compile(
                span,
                format!("expected a runtime name, found `{other}`"),
            )),
        })
        .collect::<Result<_, _>>()?;
    let name = words.join(" ");
    Execution::by_name(&name).ok_or_else(|| {
        let msg = match words[..] {
            [runtime] if needs_containment(runtime) => {
                format!("{runtime} needs a containment ({})", or_list(&env_words(1)))
            }
            _ => format!("unknown execution environment `{name}`"),
        };
        ScriptError::compile(span, msg)
    })
}

fn check_positive(x: f64, span: Span, what: &str) -> Result<(), ScriptError> {
    if x.is_finite() && x > 0.0 {
        Ok(())
    } else {
        Err(ScriptError::compile(
            span,
            format!("{what} must be positive and finite, got {x:?}"),
        ))
    }
}

fn check_fraction(x: f64, span: Span, what: &str) -> Result<(), ScriptError> {
    if x > 0.0 && x <= 1.0 {
        Ok(())
    } else {
        Err(ScriptError::compile(
            span,
            format!("{what} must be in (0, 1], got {x:?}"),
        ))
    }
}

fn checked_shards(n: u64, span: Span) -> Result<u32, ScriptError> {
    if n == 0 {
        return Err(ScriptError::compile(span, "shards must be at least 1"));
    }
    checked_u32(n, span, "shards")
}

fn checked_u32(n: u64, span: Span, what: &str) -> Result<u32, ScriptError> {
    if n == 0 && (what == "nodes" || what == "rpn" || what == "threads" || what == "tenants") {
        return Err(ScriptError::compile(
            span,
            format!("{what} must be at least 1"),
        ));
    }
    u32::try_from(n)
        .map_err(|_| ScriptError::compile(span, format!("{what} {n} does not fit in 32 bits")))
}

fn one_word(atoms: &[Atom], span: Span, what: &str) -> Result<String, ScriptError> {
    match atoms {
        [Atom::Word(w)] => Ok(w.clone()),
        _ => Err(ScriptError::compile(span, format!("expected {what}"))),
    }
}

fn one_u32(atoms: &[Atom], span: Span, what: &str) -> Result<u32, ScriptError> {
    match atoms {
        [Atom::Int(n)] => checked_u32(*n, span, what),
        _ => Err(ScriptError::compile(
            span,
            format!("expected a single integer for {what}"),
        )),
    }
}

fn one_number(atoms: &[Atom], span: Span, what: &str) -> Result<f64, ScriptError> {
    match atoms {
        [atom] => atom_number(atom, span, what),
        _ => Err(ScriptError::compile(span, format!("expected {what}"))),
    }
}

fn atom_number(atom: &Atom, span: Span, what: &str) -> Result<f64, ScriptError> {
    match atom {
        Atom::Float(x) => Ok(*x),
        Atom::Int(n) => Ok(*n as f64),
        Atom::Word(w) => Err(ScriptError::compile(
            span,
            format!("expected {what}, found `{w}`"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::ScriptStage;

    #[test]
    fn a_grid_expands_first_sweep_outermost() {
        let compiled = compile_str(
            r#"
            campaign "grid" {
              cluster cte-power
              workload cfd-cte
              rpn 40
              sweep env [bare-metal as "Bare", docker as "Docker"]
              sweep nodes [2, 4, 8]
            }
            "#,
        )
        .expect("compiles");
        let campaign = &compiled.campaigns[0];
        assert_eq!(campaign.sweep_lens, vec![2, 3]);
        assert_eq!(campaign.runs.len(), 6);
        let labels: Vec<&[String]> = campaign.runs.iter().map(|r| r.labels.as_slice()).collect();
        assert_eq!(labels[0], ["Bare".to_string(), "2".to_string()]);
        assert_eq!(labels[2], ["Bare".to_string(), "8".to_string()]);
        assert_eq!(labels[3], ["Docker".to_string(), "2".to_string()]);
        assert_eq!(campaign.runs[3].scenario.nodes, 2);
        assert_eq!(campaign.runs[5].scenario.nodes, 8);
        // every grid point fingerprints distinctly
        let prints = compiled.fingerprints();
        assert_eq!(prints.len(), 6);
        for (i, a) in prints.iter().enumerate() {
            assert_ne!(*a, 0);
            for b in &prints[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn defaults_match_the_scenario_builder() {
        let compiled =
            compile_str("campaign \"d\" { cluster lenox workload cfd-small }").expect("compiles");
        let scenario = &compiled.campaigns[0].runs[0].scenario;
        assert_eq!(scenario.nodes, 1);
        assert_eq!(scenario.ranks_per_node, 28, "rpn defaults to node cores");
        assert_eq!(scenario.threads_per_rank, 1);
        assert_eq!(compiled.seeds, default_seeds());
        let quick = compile_str("seeds quick").expect("compiles");
        assert_eq!(quick.seeds, default_seeds()[..1]);
    }

    #[test]
    fn degrade_factor_one_is_the_healthy_fabric() {
        let compiled = compile_str(
            r#"
            campaign "victim" {
              cluster cte-power workload cfd-cte nodes 16 rpn 40
              env singularity system-specific
              sweep degrade-uplink [3 1.0, 3 0.5]
            }
            "#,
        )
        .expect("compiles");
        let runs = &compiled.campaigns[0].runs;
        assert!(runs[0].scenario.degraded_uplinks.is_empty());
        assert_eq!(runs[1].scenario.degraded_uplinks, vec![(3, 0.5)]);

        let healthy = compile_str(
            r#"
            campaign "h" {
              cluster cte-power workload cfd-cte nodes 16 rpn 40
              env singularity system-specific
            }
            "#,
        )
        .expect("compiles");
        assert_eq!(
            runs[0].fingerprint(None),
            healthy.campaigns[0].runs[0].fingerprint(None),
            "factor 1.0 must be bit-identical to not degrading at all"
        );
    }

    #[test]
    fn aliases_resolve_to_the_same_cluster() {
        let a = compile_str("campaign \"a\" { cluster mn4 workload cfd-small }").unwrap();
        let b = compile_str("campaign \"b\" { cluster marenostrum4 workload cfd-small }").unwrap();
        assert_eq!(a.fingerprints(), b.fingerprints());
    }

    #[test]
    fn taper_fallback_feeds_the_fingerprint() {
        let src = "campaign \"t\" { cluster mn4 workload cfd-small nodes 2 }";
        let plain = compile_str(src).unwrap();
        let tapered = compile_str(&format!("taper 0.5\n{src}")).unwrap();
        assert_ne!(plain.fingerprints(), tapered.fingerprints());
        assert_eq!(tapered.taper, Some(0.5));
    }

    #[test]
    fn compile_rejections_are_spanned() {
        let cases = [
            ("campaign \"x\" { cluster nowhere }", "unknown cluster"),
            ("campaign \"x\" { workload nothing }", "unknown workload"),
            ("campaign \"x\" { cluster lenox }", "needs a `workload`"),
            ("campaign \"x\" { workload cfd-small }", "needs a `cluster`"),
            ("taper 1.5", "must be in (0, 1]"),
            ("taper 0.0", "must be in (0, 1]"),
            (
                "campaign \"x\" { cluster lenox workload cfd-small nodes 0 }",
                "at least 1",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small nodes 4294967296 }",
                "32 bits",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small degrade-uplink 4 0.5 }",
                "outside the job",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small sweep widgets [1, 2] }",
                "unknown sweep knob",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small sweep env [singularity] }",
                "needs a containment",
            ),
            ("experiments fig9", "unknown experiment"),
            ("shards 0", "shards must be at least 1"),
            (
                "campaign \"x\" { cluster lenox workload cfd-small engine des 5 shards 4294967296 }",
                "32 bits",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small horizon 100 }",
                "need `arrivals",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small arrivals poisson rate=0.1 }",
                "need a `horizon`",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small arrivals poisson rate=0.0 horizon 100 }",
                "must be positive",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small deploy arrivals poisson rate=0.1 horizon 100 }",
                "mutually exclusive",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small arrivals poisson rate=1000.0 horizon 1000 }",
                "at or below 100000",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small arrivals poisson rate=0.1 horizon 100 mix zipf s=1.1 over widgets [1, 2] }",
                "unknown mix knob",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small arrivals poisson rate=0.1 horizon 100 mix zipf s=1.1 over nodes [1] mix zipf s=1.2 over nodes [2] }",
                "already has a `nodes` mix",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small arrivals poisson rate=0.1 horizon 100 mix zipf s=1.1 over workload [nothing] }",
                "unknown workload",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small arrivals poisson rate=0.1 horizon 100 mix zipf s=1.1 over nodes [0] }",
                "at least 1",
            ),
            (
                "campaign \"x\" { cluster lenox workload cfd-small arrivals poisson rate=0.1 horizon 100 tenants 0 }",
                "at least 1",
            ),
        ];
        for (src, needle) in cases {
            let e = compile_str(src).unwrap_err();
            assert_eq!(e.stage, ScriptStage::Compile, "{src}");
            assert!(e.msg.contains(needle), "{src} -> {e}");
            assert_ne!(e.span, Span::ZERO, "{src} should carry a real span");
        }
    }

    #[test]
    fn an_open_campaign_compiles_with_defaults_for_unmixed_dimensions() {
        let compiled = compile_str(
            r#"
            campaign "open" {
              cluster lenox
              workload cfd-small
              nodes 2
              rpn 14
              arrivals poisson rate=0.05
              horizon 1200.0
              tenants 6
              mix zipf s=1.1 over env [docker, shifter]
            }
            "#,
        )
        .expect("compiles");
        let scenario = &compiled.campaigns[0].runs[0].scenario;
        let open = scenario.open.as_ref().expect("an open spec");
        assert_eq!(open.rate_per_s, 0.05);
        assert_eq!(open.horizon_s, 1200.0);
        assert_eq!(open.tenants, 6);
        // unmixed dimensions collapse to the plain settings
        assert_eq!(open.node_mix.values, vec![2]);
        assert_eq!(open.workload_mix.values, vec!["cfd-small".to_string()]);
        assert_eq!(open.env_mix.values.len(), 2);
        assert_eq!(open.env_mix.s, 1.1);

        // opening a campaign re-keys the plan
        let closed =
            compile_str("campaign \"c\" { cluster lenox workload cfd-small nodes 2 rpn 14 }")
                .expect("compiles");
        assert_ne!(compiled.fingerprints(), closed.fingerprints());
    }

    #[test]
    fn experiment_selection_is_validated_and_kept() {
        let compiled = compile_str("experiments fig1 ext-locality").unwrap();
        match compiled.experiments {
            Some(ExperimentsSpec::Named(names)) => {
                let names: Vec<_> = names.iter().map(|n| n.value.as_str()).collect();
                assert_eq!(names, ["fig1", "ext-locality"]);
            }
            other => panic!("expected named experiments, got {other:?}"),
        }
        let all = compile_str(&crate::script::flags_script(true, Some(1.0), 1)).unwrap();
        assert_eq!(all.experiments, Some(ExperimentsSpec::All));
        assert_eq!(all.taper, Some(1.0));
        assert_eq!(all.seeds, default_seeds()[..1]);
    }

    #[test]
    fn shards_directive_reaches_every_campaign_wherever_it_appears() {
        let src = r#"
            campaign "before" { cluster lenox workload cfd-small engine des 5 }
            shards 4
            campaign "after" { cluster lenox workload cfd-small engine des 5 }
            "#;
        let compiled = compile_str(src).unwrap();
        assert_eq!(compiled.shards, 4);
        for campaign in &compiled.campaigns {
            assert_eq!(
                campaign.runs[0].scenario.shards, 4,
                "{}: directive order must not matter",
                campaign.name
            );
        }
    }

    #[test]
    fn engine_pin_overrides_the_shards_fallback() {
        let compiled = compile_str(
            r#"
            shards 2
            campaign "inherit" { cluster lenox workload cfd-small engine des 5 }
            campaign "pinned" { cluster lenox workload cfd-small engine des 5 shards 8 }
            "#,
        )
        .unwrap();
        assert_eq!(compiled.campaigns[0].runs[0].scenario.shards, 2);
        assert_eq!(compiled.campaigns[1].runs[0].scenario.shards, 8);
        // no directive at all: the serial default
        let serial =
            compile_str("campaign \"s\" { cluster lenox workload cfd-small engine des 5 }")
                .unwrap();
        assert_eq!(serial.shards, 1);
        assert_eq!(serial.campaigns[0].runs[0].scenario.shards, 1);
    }

    #[test]
    fn shards_split_the_plan_key() {
        let serial =
            compile_str("campaign \"k\" { cluster lenox workload cfd-small engine des 5 }")
                .unwrap();
        let sharded = compile_str(
            "shards 4\ncampaign \"k\" { cluster lenox workload cfd-small engine des 5 }",
        )
        .unwrap();
        assert_ne!(
            serial.fingerprints(),
            sharded.fingerprints(),
            "shard count must re-key the plan"
        );
    }
}
