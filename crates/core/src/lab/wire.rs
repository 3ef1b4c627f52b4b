//! Versioned JSON wire format for the lab protocol.
//!
//! Serializes exactly the [`protocol`](super::protocol) types — there is
//! no separate wire schema to drift from the in-process API. Every
//! message is one JSON object with a version field (`"v": 1`) and a
//! `"kind"` discriminant matching the [`LabRequest`]/[`LabResponse`]
//! variant; the [`daemon`](super::daemon) speaks nothing else.
//!
//! Encoding conventions, chosen for determinism and exact round-trips:
//!
//! - **Field order is fixed**: every encoder streams its fields through
//!   one streaming `JsonWriter` in a fixed order, building no [`Json`]
//!   tree, so equal values encode to byte-identical strings — what the
//!   golden tests pin.
//! - **Requests decode without a tree**: [`decode_request`] checks the
//!   whole document in one pass of the JSON tokenizer, keeping the text
//!   of each field it knows (the last value where a key repeats), then
//!   decodes those in a fixed order. Responses decode through a [`Json`]
//!   tree built from the same tokenizer.
//! - **Durations travel as integer nanoseconds** (`*_ns`), the same
//!   `u64` the simulator counts in — no float rounding on the wire.
//! - **64-bit fingerprints travel as 16-digit hex strings** (JSON
//!   numbers are only exact to 2^53).
//! - **Clusters and workloads travel by registry name** (the same names
//!   the `.hsim` DSL resolves: `lenox`, `mn4`, `cfd-small`, ...); a
//!   scenario built on a hand-rolled cluster is not wire-encodable.
//! - **Errors round-trip typed**: script errors keep their stage,
//!   `line:col` span, and message exactly; runtime-unavailable keeps its
//!   runtime and cluster; placement/build errors travel as kind +
//!   rendered message and decode to [`HarborError::Remote`].

use super::protocol::{
    CampaignReport, CampaignResult, CampaignRow, CampaignRowKind, DaemonStats, EngineStats,
    LabRequest, LabResponse, PlanInfo,
};
use super::{CacheStats, Query};
use crate::error::HarborError;
use crate::json::{read_document, Fields, Items, Json, JsonWriter, Raw, Schema};
use crate::open::{MixSpec, OpenSpec};
use crate::scenario::{EngineKind, Execution, Outcome, Scenario};
use crate::script::{ScriptError, ScriptStage, Span};
use harborsim_des::SimDuration;
use harborsim_mpi::result::{CommBreakdown, LinkUsage, SimResult};
use harborsim_mpi::Placement;
use std::borrow::Cow;
use std::fmt;

/// The one protocol version this build speaks.
pub const WIRE_VERSION: u64 = 1;

/// Why a message cannot be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// One-line diagnostic.
    pub msg: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

impl From<crate::json::JsonError> for WireError {
    fn from(e: crate::json::JsonError) -> WireError {
        WireError { msg: e.to_string() }
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError { msg: msg.into() })
}

/// Encode a request to its canonical wire string.
///
/// # Errors
/// Only scenarios built from the cluster/workload registries are
/// encodable (the wire names them by registry name).
pub fn encode_request(req: &LabRequest) -> Result<String, WireError> {
    let scenarios = match req {
        LabRequest::Plan { .. } | LabRequest::Execute { .. } => 1,
        LabRequest::Batch { queries } => queries.len(),
        LabRequest::Campaign { .. } | LabRequest::Stats => 0,
    };
    let mut w = JsonWriter::with_capacity(64 + SCENARIO_BYTES * scenarios);
    w.begin_obj().key("v").u64(WIRE_VERSION).key("kind");
    match req {
        LabRequest::Plan { scenario } => {
            w.str("plan").key("scenario");
            encode_scenario(&mut w, scenario)?;
        }
        LabRequest::Execute { scenario, seed } => {
            w.str("execute").key("scenario");
            encode_scenario(&mut w, scenario)?;
            w.key("seed").u64(*seed);
        }
        LabRequest::Batch { queries } => {
            w.str("batch").key("queries").begin_arr();
            for q in queries {
                w.begin_obj().key("scenario");
                encode_scenario(&mut w, &q.scenario)?;
                w.key("seeds").begin_arr();
                for &seed in &q.seeds {
                    w.u64(seed);
                }
                w.end_arr().end_obj();
            }
            w.end_arr();
        }
        LabRequest::Campaign { script } => {
            w.str("campaign").key("script").str(script);
        }
        LabRequest::Stats => {
            w.str("stats");
        }
    }
    w.end_obj();
    Ok(w.finish())
}

/// Decode a request from its wire string.
///
/// The document is checked whole first, so a syntax error anywhere wins
/// over any field error; the fields are then read from their text in a
/// fixed order, with no tree built. A repeated key takes its last value.
///
/// # Errors
/// Malformed JSON, an unsupported version, an unknown kind, any
/// out-of-registry name, or an integer too large for its field.
pub fn decode_request(src: &str) -> Result<LabRequest, WireError> {
    let mut slots = [None; REQUEST.slots()];
    let doc = read_document(src, &REQUEST, &mut slots)?;
    let [v, kind, scenario, seed, queries, script] = doc.values();
    check_version(field_u64(v, "v")?)?;
    match &*field_str(kind, "kind")? {
        "plan" => {
            field(scenario, "scenario")?;
            Ok(LabRequest::plan(decode_scenario(doc.nested("scenario"))?))
        }
        "execute" => {
            field(scenario, "scenario")?;
            Ok(LabRequest::Execute {
                scenario: Box::new(decode_scenario(doc.nested("scenario"))?),
                seed: field_u64(seed, "seed")?,
            })
        }
        "batch" => {
            let mut decoded = Vec::new();
            for q in field_items(queries, "queries")? {
                let mut slots = [None; QUERY.slots()];
                let q = q.read(&QUERY, &mut slots);
                let [scenario, seeds] = q.values();
                field(scenario, "scenario")?;
                let scenario = decode_scenario(q.nested("scenario"))?;
                let mut decoded_seeds = Vec::new();
                for s in field_items(seeds, "seeds")? {
                    decoded_seeds.push(s.as_u64().ok_or_else(|| WireError {
                        msg: "seeds must be unsigned integers".into(),
                    })?);
                }
                decoded.push(Query {
                    scenario,
                    seeds: decoded_seeds,
                });
            }
            Ok(LabRequest::Batch { queries: decoded })
        }
        "campaign" => Ok(LabRequest::Campaign {
            script: field_str(script, "script")?.into_owned(),
        }),
        "stats" => Ok(LabRequest::Stats),
        other => err(format!("unknown request kind `{other}`")),
    }
}

/// Encode a response to its canonical wire string. Responses are always
/// encodable (they carry no open-world types).
pub fn encode_response(resp: &LabResponse) -> String {
    let bytes = match resp {
        LabResponse::Execute(outcome) => outcome_bytes(outcome),
        LabResponse::Batch(results) => results
            .iter()
            .map(|r| match r {
                Ok(outcomes) => outcomes.iter().map(outcome_bytes).sum(),
                Err(_) => SMALL_BYTES,
            })
            .sum(),
        _ => SMALL_BYTES,
    };
    let mut w = JsonWriter::with_capacity(64 + bytes);
    w.begin_obj().key("v").u64(WIRE_VERSION).key("kind");
    match resp {
        LabResponse::Plan(info) => {
            w.str("plan").key("plan").begin_obj().key("fingerprint");
            match info.fingerprint {
                Some(fp) => w.fingerprint(fp),
                None => w.null(),
            };
            w.key("engine")
                .str(&info.engine)
                .key("ranks")
                .u64(u64::from(info.ranks))
                .key("deployment")
                .bool(info.deployment)
                .end_obj();
        }
        LabResponse::Execute(outcome) => {
            w.str("execute").key("outcome");
            encode_outcome(&mut w, outcome);
        }
        LabResponse::Batch(results) => {
            w.str("batch").key("results").begin_arr();
            for r in results {
                w.begin_obj();
                match r {
                    Ok(outcomes) => {
                        w.key("ok").begin_arr();
                        for o in outcomes {
                            encode_outcome(&mut w, o);
                        }
                        w.end_arr();
                    }
                    Err(e) => {
                        w.key("err");
                        encode_error(&mut w, e);
                    }
                }
                w.end_obj();
            }
            w.end_arr();
        }
        LabResponse::Campaign(report) => {
            w.str("campaign").key("campaigns").begin_arr();
            for c in &report.campaigns {
                encode_campaign(&mut w, c);
            }
            w.end_arr();
        }
        LabResponse::Stats(stats) => {
            w.str("stats").key("cache");
            encode_cache_stats(&mut w, &stats.cache);
            w.key("per_shard").begin_arr();
            for s in &stats.per_shard {
                encode_cache_stats(&mut w, s);
            }
            w.end_arr()
                .key("batched_executes")
                .u64(stats.batched_executes);
            // The daemon field is optional on the wire: in-process
            // stats omit it entirely, keeping their bytes pinned.
            if let Some(d) = &stats.daemon {
                w.key("daemon");
                encode_daemon_stats(&mut w, d);
            }
        }
        LabResponse::Error(e) => {
            w.str("error").key("error");
            encode_error(&mut w, e);
        }
    }
    w.end_obj();
    w.finish()
}

/// Room reserved for one encoded scenario: the longest registry names
/// with every knob set fit with margin.
const SCENARIO_BYTES: usize = 512;

/// Room reserved for a reply with no outcome in it (plan, stats, error,
/// one campaign row set).
const SMALL_BYTES: usize = 512;

/// Room reserved for one encoded outcome: the fixed fields with a
/// deployment report, plus each link's label and three fields. A reply
/// written within it makes exactly one allocation.
fn outcome_bytes(outcome: &Outcome) -> usize {
    let links: usize = outcome
        .result
        .links
        .iter()
        .map(|l| 96 + l.label.len())
        .sum();
    640 + links
}

/// Decode a response from its wire string.
///
/// # Errors
/// Malformed JSON, an unsupported version, or an unknown kind.
pub fn decode_response(src: &str) -> Result<LabResponse, WireError> {
    let json = Json::parse(src)?;
    check_version(get_u64(&json, "v")?)?;
    match get_str(&json, "kind")? {
        "plan" => {
            let p = get(&json, "plan")?;
            Ok(LabResponse::Plan(PlanInfo {
                fingerprint: match get(p, "fingerprint")? {
                    Json::Null => None,
                    j => Some(decode_fingerprint(j)?),
                },
                engine: get_str(p, "engine")?.to_string(),
                ranks: get_u32(p, "ranks")?,
                deployment: get_bool(p, "deployment")?,
            }))
        }
        "execute" => Ok(LabResponse::Execute(Box::new(decode_outcome(get(
            &json, "outcome",
        )?)?))),
        "batch" => {
            let mut results = Vec::new();
            for r in get_arr(&json, "results")? {
                if let Some(ok) = r.get("ok") {
                    let mut outcomes = Vec::new();
                    for o in ok.as_arr().ok_or_else(|| WireError {
                        msg: "`ok` must be an array".into(),
                    })? {
                        outcomes.push(decode_outcome(o)?);
                    }
                    results.push(Ok(outcomes));
                } else {
                    results.push(Err(decode_error(get(r, "err")?)?));
                }
            }
            Ok(LabResponse::Batch(results))
        }
        "campaign" => {
            let mut campaigns = Vec::new();
            for c in get_arr(&json, "campaigns")? {
                campaigns.push(decode_campaign(c)?);
            }
            Ok(LabResponse::Campaign(CampaignReport { campaigns }))
        }
        "stats" => {
            let mut per_shard = Vec::new();
            for s in get_arr(&json, "per_shard")? {
                per_shard.push(decode_cache_stats(s)?);
            }
            let daemon = match json.get("daemon") {
                Some(d) => Some(decode_daemon_stats(d)?),
                None => None,
            };
            Ok(LabResponse::Stats(EngineStats {
                cache: decode_cache_stats(get(&json, "cache")?)?,
                per_shard,
                batched_executes: get_u64(&json, "batched_executes")?,
                daemon,
            }))
        }
        "error" => Ok(LabResponse::Error(decode_error(get(&json, "error")?)?)),
        other => err(format!("unknown response kind `{other}`")),
    }
}

// ---------------------------------------------------------------- helpers

fn check_version(v: u64) -> Result<(), WireError> {
    match v {
        WIRE_VERSION => Ok(()),
        v => err(format!(
            "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
        )),
    }
}

/// What a request decoder reads: every field of every object in a plan
/// or execute request, read in the pass that checks the document. A
/// batch's queries are read again from their text, one at a time.
static REQUEST: Schema = Schema::new(
    &["v", "kind", "scenario", "seed", "queries", "script"],
    &[(2, &SCENARIO)],
);

/// One query of a batch request.
static QUERY: Schema = Schema::new(&["scenario", "seeds"], &[(0, &SCENARIO)]);

static SCENARIO: Schema = Schema::new(
    &[
        "cluster",
        "workload",
        "env",
        "nodes",
        "rpn",
        "tpr",
        "engine",
        "deploy",
        "placement",
        "taper",
        "shards",
        "open",
        "degraded",
    ],
    &[(6, &ENGINE), (11, &OPEN)],
);

static ENGINE: Schema = Schema::new(&["kind", "max_steps_per_kind"], &[]);

static OPEN: Schema = Schema::new(
    &[
        "rate_per_s",
        "horizon_s",
        "tenants",
        "node_mix",
        "workload_mix",
        "env_mix",
    ],
    &[(3, &MIX), (4, &MIX), (5, &MIX)],
);

static MIX: Schema = Schema::new(&["s", "values"], &[]);

/// The value of request field `key`, if the document had it.
fn field<'a>(value: Option<Raw<'a>>, key: &str) -> Result<Raw<'a>, WireError> {
    value.ok_or_else(|| WireError {
        msg: format!("missing field `{key}`"),
    })
}

fn field_str<'a>(value: Option<Raw<'a>>, key: &str) -> Result<Cow<'a, str>, WireError> {
    match field(value, key)?.as_str() {
        Some(s) => Ok(s.to_cow()),
        None => err(format!("field `{key}` must be a string")),
    }
}

fn field_u64(value: Option<Raw<'_>>, key: &str) -> Result<u64, WireError> {
    field(value, key)?.as_u64().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be an unsigned integer"),
    })
}

/// A 32-bit scenario field: an unsigned integer that also fits `u32`.
fn field_u32(value: Option<Raw<'_>>, key: &str) -> Result<u32, WireError> {
    u32::try_from(field_u64(value, key)?).map_err(|_| WireError {
        msg: format!("field `{key}` must fit in 32 bits"),
    })
}

fn field_f64(value: Option<Raw<'_>>, key: &str) -> Result<f64, WireError> {
    field(value, key)?.as_f64().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be a number"),
    })
}

fn field_bool(value: Option<Raw<'_>>, key: &str) -> Result<bool, WireError> {
    field(value, key)?.as_bool().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be a boolean"),
    })
}

fn field_items<'a>(value: Option<Raw<'a>>, key: &str) -> Result<Items<'a>, WireError> {
    field(value, key)?.items().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be an array"),
    })
}

/// `x` narrowed to `u32`, or the error `msg`.
fn fit_u32(x: u64, msg: &str) -> Result<u32, WireError> {
    u32::try_from(x).map_err(|_| WireError { msg: msg.into() })
}

fn get<'a>(json: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    json.get(key).ok_or_else(|| WireError {
        msg: format!("missing field `{key}`"),
    })
}

fn get_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, WireError> {
    get(json, key)?.as_str().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be a string"),
    })
}

fn get_u64(json: &Json, key: &str) -> Result<u64, WireError> {
    get(json, key)?.as_u64().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be an unsigned integer"),
    })
}

/// A 32-bit reply field: an unsigned integer that also fits `u32`.
fn get_u32(json: &Json, key: &str) -> Result<u32, WireError> {
    u32::try_from(get_u64(json, key)?).map_err(|_| WireError {
        msg: format!("field `{key}` must fit in 32 bits"),
    })
}

fn get_f64(json: &Json, key: &str) -> Result<f64, WireError> {
    get(json, key)?.as_f64().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be a number"),
    })
}

fn get_bool(json: &Json, key: &str) -> Result<bool, WireError> {
    get(json, key)?.as_bool().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be a boolean"),
    })
}

fn get_arr<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], WireError> {
    get(json, key)?.as_arr().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be an array"),
    })
}

fn decode_fingerprint(json: &Json) -> Result<u64, WireError> {
    let s = json.as_str().ok_or_else(|| WireError {
        msg: "a fingerprint must be a hex string".into(),
    })?;
    if s.len() != 16 {
        return err("a fingerprint must be 16 hex digits");
    }
    u64::from_str_radix(s, 16).map_err(|_| WireError {
        msg: "a fingerprint must be 16 hex digits".into(),
    })
}

fn duration_ns(json: &Json, key: &str) -> Result<SimDuration, WireError> {
    Ok(SimDuration::from_nanos(get_u64(json, key)?))
}

// ------------------------------------------------------------- scenarios

fn env_name(env: Execution) -> Result<&'static str, WireError> {
    env.name().ok_or_else(|| WireError {
        msg: format!(
            "execution environment {:?}/{:?} has no wire name",
            env.runtime, env.containment
        ),
    })
}

fn env_by_name(name: &str) -> Result<Execution, WireError> {
    Execution::by_name(name).ok_or_else(|| WireError {
        msg: format!("unknown execution environment `{name}`"),
    })
}

fn encode_scenario(w: &mut JsonWriter, s: &Scenario) -> Result<(), WireError> {
    let cluster = harborsim_hw::presets::name_of(&s.cluster).ok_or_else(|| WireError {
        msg: "only the four paper-cluster presets are wire-encodable".into(),
    })?;
    let workload = crate::workloads::name_of(s.case.as_ref()).ok_or_else(|| WireError {
        msg: "only registry workloads are wire-encodable".into(),
    })?;
    w.begin_obj()
        .key("cluster")
        .str(cluster)
        .key("workload")
        .str(workload)
        .key("env")
        .str(env_name(s.env)?)
        .key("nodes")
        .u64(u64::from(s.nodes))
        .key("rpn")
        .u64(u64::from(s.ranks_per_node))
        .key("tpr")
        .u64(u64::from(s.threads_per_rank))
        .key("engine")
        .begin_obj()
        .key("kind");
    match s.engine {
        EngineKind::Analytic => w.str("analytic"),
        EngineKind::Des { max_steps_per_kind } => w
            .str("des")
            .key("max_steps_per_kind")
            .u64(u64::from(max_steps_per_kind)),
    };
    w.end_obj()
        .key("deploy")
        .bool(s.deploy)
        .key("placement")
        .str(match s.placement {
            Placement::Block => "block",
            Placement::RoundRobin => "round-robin",
        })
        .key("taper");
    match s.spine_taper {
        Some(t) => w.f64(t),
        None => w.null(),
    };
    w.key("degraded").begin_arr();
    for &(node, factor) in &s.degraded_uplinks {
        w.begin_arr().u64(u64::from(node)).f64(factor).end_arr();
    }
    w.end_arr()
        .key("shards")
        .u64(u64::from(s.shards))
        .key("open");
    match &s.open {
        Some(spec) => encode_open(w, spec)?,
        None => {
            w.null();
        }
    }
    w.end_obj();
    Ok(())
}

fn decode_scenario(json: Fields<'_, '_>) -> Result<Scenario, WireError> {
    let [cluster, workload, env, nodes, rpn, tpr, engine, deploy, placement, taper, shards, open, degraded] =
        json.values();
    let cluster_name = field_str(cluster, "cluster")?;
    let cluster = harborsim_hw::presets::by_name(&cluster_name).ok_or_else(|| WireError {
        msg: format!("unknown cluster `{cluster_name}`"),
    })?;
    let workload_name = field_str(workload, "workload")?;
    let case = crate::workloads::by_name(&workload_name).ok_or_else(|| WireError {
        msg: format!("unknown workload `{workload_name}`"),
    })?;
    let mut scenario = Scenario {
        cluster,
        case,
        env: env_by_name(&field_str(env, "env")?)?,
        nodes: field_u32(nodes, "nodes")?,
        ranks_per_node: field_u32(rpn, "rpn")?,
        threads_per_rank: field_u32(tpr, "tpr")?,
        engine: {
            field(engine, "engine")?;
            let [kind, steps] = json.nested("engine").values();
            match &*field_str(kind, "kind")? {
                "analytic" => EngineKind::Analytic,
                "des" => EngineKind::Des {
                    max_steps_per_kind: field_u32(steps, "max_steps_per_kind")?,
                },
                other => return err(format!("unknown engine kind `{other}`")),
            }
        },
        deploy: field_bool(deploy, "deploy")?,
        placement: match &*field_str(placement, "placement")? {
            "block" => Placement::Block,
            "round-robin" => Placement::RoundRobin,
            other => return err(format!("unknown placement `{other}`")),
        },
        spine_taper: match field(taper, "taper")? {
            t if t.is_null() => None,
            t => Some(t.as_f64().ok_or_else(|| WireError {
                msg: "`taper` must be a number".into(),
            })?),
        },
        degraded_uplinks: Vec::new(),
        shards: field_u32(shards, "shards")?,
        open: match field(open, "open")? {
            spec if spec.is_null() => None,
            _ => Some(decode_open(json.nested("open"))?),
        },
    };
    for pair in field_items(degraded, "degraded")? {
        let mut items = pair.items().into_iter().flatten();
        let (Some(node), Some(factor), None) = (items.next(), items.next(), items.next()) else {
            return err("`degraded` entries must be [node, factor] pairs");
        };
        let node = node.as_u64().ok_or_else(|| WireError {
            msg: "degraded node must be an unsigned integer".into(),
        })?;
        let node = fit_u32(node, "degraded node must fit in 32 bits")?;
        let factor = factor.as_f64().ok_or_else(|| WireError {
            msg: "degraded factor must be a number".into(),
        })?;
        scenario.degraded_uplinks.push((node, factor));
    }
    Ok(scenario)
}

fn encode_open(w: &mut JsonWriter, spec: &OpenSpec) -> Result<(), WireError> {
    w.begin_obj()
        .key("rate_per_s")
        .f64(spec.rate_per_s)
        .key("horizon_s")
        .f64(spec.horizon_s)
        .key("tenants")
        .u64(u64::from(spec.tenants))
        .key("node_mix")
        .begin_obj()
        .key("s")
        .f64(spec.node_mix.s)
        .key("values")
        .begin_arr();
    for &v in &spec.node_mix.values {
        w.u64(u64::from(v));
    }
    w.end_arr()
        .end_obj()
        .key("workload_mix")
        .begin_obj()
        .key("s")
        .f64(spec.workload_mix.s)
        .key("values")
        .begin_arr();
    for v in &spec.workload_mix.values {
        w.str(v);
    }
    w.end_arr()
        .end_obj()
        .key("env_mix")
        .begin_obj()
        .key("s")
        .f64(spec.env_mix.s)
        .key("values")
        .begin_arr();
    for &env in &spec.env_mix.values {
        w.str(env_name(env)?);
    }
    w.end_arr().end_obj().end_obj();
    Ok(())
}

fn decode_open(json: Fields<'_, '_>) -> Result<OpenSpec, WireError> {
    let [rate_per_s, horizon_s, tenants, node_mix, workload_mix, env_mix] = json.values();
    field(node_mix, "node_mix")?;
    field(workload_mix, "workload_mix")?;
    field(env_mix, "env_mix")?;
    let [node_s, node_values] = json.nested("node_mix").values();
    let [workload_s, workload_values] = json.nested("workload_mix").values();
    let [env_s, env_values] = json.nested("env_mix").values();
    let mut nodes = Vec::new();
    for v in field_items(node_values, "values")? {
        let v = v.as_u64().ok_or_else(|| WireError {
            msg: "node mix values must be unsigned integers".into(),
        })?;
        nodes.push(fit_u32(v, "node mix values must fit in 32 bits")?);
    }
    let mut workloads = Vec::new();
    for v in field_items(workload_values, "values")? {
        let name = v.as_str().ok_or_else(|| WireError {
            msg: "workload mix values must be strings".into(),
        })?;
        workloads.push(name.to_cow().into_owned());
    }
    let mut envs = Vec::new();
    for v in field_items(env_values, "values")? {
        let name = v.as_str().ok_or_else(|| WireError {
            msg: "env mix values must be strings".into(),
        })?;
        envs.push(env_by_name(&name.to_cow())?);
    }
    Ok(OpenSpec {
        rate_per_s: field_f64(rate_per_s, "rate_per_s")?,
        horizon_s: field_f64(horizon_s, "horizon_s")?,
        tenants: field_u32(tenants, "tenants")?,
        node_mix: MixSpec {
            s: field_f64(node_s, "s")?,
            values: nodes,
        },
        workload_mix: MixSpec {
            s: field_f64(workload_s, "s")?,
            values: workloads,
        },
        env_mix: MixSpec {
            s: field_f64(env_s, "s")?,
            values: envs,
        },
    })
}

// -------------------------------------------------------------- outcomes

fn encode_outcome(w: &mut JsonWriter, outcome: &Outcome) {
    let r = &outcome.result;
    w.begin_obj()
        .key("elapsed_ns")
        .u64(outcome.elapsed.as_nanos())
        .key("result")
        .begin_obj()
        .key("elapsed_ns")
        .u64(r.elapsed.as_nanos())
        .key("compute_ns")
        .u64(r.compute.as_nanos())
        .key("comm")
        .begin_obj()
        .key("halo_ns")
        .u64(r.comm.halo.as_nanos())
        .key("allreduce_ns")
        .u64(r.comm.allreduce.as_nanos())
        .key("pairs_ns")
        .u64(r.comm.pairs.as_nanos())
        .key("other_ns")
        .u64(r.comm.other.as_nanos())
        .end_obj()
        .key("inter_node_msgs")
        .u64(r.inter_node_msgs)
        .key("intra_node_msgs")
        .u64(r.intra_node_msgs)
        .key("inter_node_bytes")
        .u64(r.inter_node_bytes)
        .key("links")
        .begin_arr();
    for l in &r.links {
        w.begin_obj()
            .key("label")
            .str(&l.label)
            .key("busy_s")
            .f64(l.busy_s)
            .key("bytes")
            .u64(l.bytes)
            .end_obj();
    }
    w.end_arr()
        .key("engine")
        .str(r.engine)
        .end_obj()
        .key("deployment");
    match &outcome.deployment {
        Some(d) => w
            .begin_obj()
            .key("makespan_ns")
            .u64(d.makespan.as_nanos())
            .key("first_ready_ns")
            .u64(d.first_ready.as_nanos())
            .key("mean_ready_s")
            .f64(d.mean_ready_s)
            .key("gateway_seconds")
            .f64(d.gateway_seconds)
            .key("bytes_pulled")
            .u64(d.bytes_pulled)
            .key("bytes_from_pfs")
            .u64(d.bytes_from_pfs)
            .key("image_bytes")
            .u64(d.image_bytes)
            .end_obj(),
        None => w.null(),
    };
    w.end_obj();
}

fn decode_outcome(json: &Json) -> Result<Outcome, WireError> {
    let r = get(json, "result")?;
    let comm = get(r, "comm")?;
    let mut links = Vec::new();
    for l in get_arr(r, "links")? {
        links.push(LinkUsage {
            label: get_str(l, "label")?.to_string().into(),
            busy_s: get_f64(l, "busy_s")?,
            bytes: get_u64(l, "bytes")?,
        });
    }
    let engine = match get_str(r, "engine")? {
        "analytic" => "analytic",
        "des" => "des",
        other => return err(format!("unknown result engine `{other}`")),
    };
    Ok(Outcome {
        elapsed: duration_ns(json, "elapsed_ns")?,
        result: SimResult {
            elapsed: duration_ns(r, "elapsed_ns")?,
            compute: duration_ns(r, "compute_ns")?,
            comm: CommBreakdown {
                halo: duration_ns(comm, "halo_ns")?,
                allreduce: duration_ns(comm, "allreduce_ns")?,
                pairs: duration_ns(comm, "pairs_ns")?,
                other: duration_ns(comm, "other_ns")?,
            },
            inter_node_msgs: get_u64(r, "inter_node_msgs")?,
            intra_node_msgs: get_u64(r, "intra_node_msgs")?,
            inter_node_bytes: get_u64(r, "inter_node_bytes")?,
            links,
            engine,
        },
        deployment: match get(json, "deployment")? {
            Json::Null => None,
            d => Some(harborsim_container::deploy::DeploymentReport {
                makespan: duration_ns(d, "makespan_ns")?,
                first_ready: duration_ns(d, "first_ready_ns")?,
                mean_ready_s: get_f64(d, "mean_ready_s")?,
                gateway_seconds: get_f64(d, "gateway_seconds")?,
                bytes_pulled: get_u64(d, "bytes_pulled")?,
                bytes_from_pfs: get_u64(d, "bytes_from_pfs")?,
                image_bytes: get_u64(d, "image_bytes")?,
            }),
        },
    })
}

// ------------------------------------------------------------- campaigns

fn encode_campaign(w: &mut JsonWriter, c: &CampaignResult) {
    w.begin_obj()
        .key("name")
        .str(&c.name)
        .key("rows")
        .begin_arr();
    for row in &c.rows {
        w.begin_obj()
            .key("label")
            .str(&row.label)
            .key("fingerprint")
            .fingerprint(row.fingerprint);
        match &row.kind {
            CampaignRowKind::Closed { mean_elapsed_s } => w
                .key("closed")
                .begin_obj()
                .key("mean_elapsed_s")
                .f64(*mean_elapsed_s),
            CampaignRowKind::Open {
                jobs,
                utilization,
                wait_p50_s,
                wait_p99_s,
            } => w
                .key("open")
                .begin_obj()
                .key("jobs")
                .u64(*jobs)
                .key("utilization")
                .f64(*utilization)
                .key("wait_p50_s")
                .f64(*wait_p50_s)
                .key("wait_p99_s")
                .f64(*wait_p99_s),
        };
        w.end_obj().end_obj();
    }
    w.end_arr().end_obj();
}

fn decode_campaign(json: &Json) -> Result<CampaignResult, WireError> {
    let mut rows = Vec::new();
    for row in get_arr(json, "rows")? {
        let kind = if let Some(closed) = row.get("closed") {
            CampaignRowKind::Closed {
                mean_elapsed_s: get_f64(closed, "mean_elapsed_s")?,
            }
        } else {
            let open = get(row, "open")?;
            CampaignRowKind::Open {
                jobs: get_u64(open, "jobs")?,
                utilization: get_f64(open, "utilization")?,
                wait_p50_s: get_f64(open, "wait_p50_s")?,
                wait_p99_s: get_f64(open, "wait_p99_s")?,
            }
        };
        rows.push(CampaignRow {
            label: get_str(row, "label")?.to_string(),
            fingerprint: decode_fingerprint(get(row, "fingerprint")?)?,
            kind,
        });
    }
    Ok(CampaignResult {
        name: get_str(json, "name")?.to_string(),
        rows,
    })
}

// ----------------------------------------------------------------- stats

fn encode_cache_stats(w: &mut JsonWriter, s: &CacheStats) {
    w.begin_obj()
        .key("hits")
        .u64(s.hits)
        .key("misses")
        .u64(s.misses)
        .key("waits")
        .u64(s.waits)
        .key("uncached")
        .u64(s.uncached)
        .key("contended")
        .u64(s.contended)
        .key("entries")
        .u64(s.entries as u64)
        .end_obj();
}

fn decode_cache_stats(json: &Json) -> Result<CacheStats, WireError> {
    Ok(CacheStats {
        hits: get_u64(json, "hits")?,
        misses: get_u64(json, "misses")?,
        waits: get_u64(json, "waits")?,
        uncached: get_u64(json, "uncached")?,
        contended: get_u64(json, "contended")?,
        entries: get_u64(json, "entries")? as usize,
    })
}

fn encode_daemon_stats(w: &mut JsonWriter, d: &DaemonStats) {
    w.begin_obj()
        .key("mode")
        .str(&d.mode)
        .key("accept_errors")
        .u64(d.accept_errors)
        .key("late_503s")
        .u64(d.late_503s)
        .key("open_conns")
        .u64(d.open_conns)
        .end_obj();
}

fn decode_daemon_stats(json: &Json) -> Result<DaemonStats, WireError> {
    Ok(DaemonStats {
        mode: get_str(json, "mode")?.to_string(),
        accept_errors: get_u64(json, "accept_errors")?,
        late_503s: get_u64(json, "late_503s")?,
        open_conns: get_u64(json, "open_conns")?,
    })
}

// ---------------------------------------------------------------- errors

fn encode_error(w: &mut JsonWriter, e: &HarborError) {
    w.begin_obj().key("type");
    match e {
        HarborError::Script(se) => w
            .str("script")
            .key("stage")
            .str(&se.stage.to_string())
            .key("line")
            .u64(u64::from(se.span.line))
            .key("col")
            .u64(u64::from(se.span.col))
            .key("msg")
            .str(&se.msg),
        HarborError::RuntimeUnavailable { runtime, cluster } => w
            .str("runtime-unavailable")
            .key("runtime")
            .str(runtime)
            .key("cluster")
            .str(cluster),
        HarborError::Placement(p) => w.str("placement").key("msg").str(&p.to_string()),
        HarborError::Build(b) => w.str("build").key("msg").str(&b.to_string()),
        HarborError::Remote { kind, msg } => w.str(kind).key("msg").str(msg),
    };
    w.end_obj();
}

fn decode_error(json: &Json) -> Result<HarborError, WireError> {
    match get_str(json, "type")? {
        "script" => Ok(HarborError::Script(ScriptError {
            stage: match get_str(json, "stage")? {
                "lex" => ScriptStage::Lex,
                "parse" => ScriptStage::Parse,
                "compile" => ScriptStage::Compile,
                other => return err(format!("unknown script stage `{other}`")),
            },
            span: Span {
                line: get_u32(json, "line")?,
                col: get_u32(json, "col")?,
            },
            msg: get_str(json, "msg")?.to_string(),
        })),
        "runtime-unavailable" => Ok(HarborError::RuntimeUnavailable {
            runtime: get_str(json, "runtime")?.to_string(),
            cluster: get_str(json, "cluster")?.to_string(),
        }),
        kind => Ok(HarborError::Remote {
            kind: kind.to_string(),
            msg: get_str(json, "msg")?.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use harborsim_hw::presets;

    /// `s` encoded, and decoded back from that text.
    fn round_trip(s: &Scenario) -> Result<(String, Scenario), WireError> {
        let mut w = JsonWriter::new();
        encode_scenario(&mut w, s)?;
        let text = w.finish();
        let mut slots = [None; SCENARIO.slots()];
        let back = decode_scenario(read_document(&text, &SCENARIO, &mut slots)?)?;
        Ok((text, back))
    }

    fn error_json(e: &HarborError) -> Json {
        let mut w = JsonWriter::new();
        encode_error(&mut w, e);
        Json::parse(&w.finish()).unwrap()
    }

    fn scenario() -> Scenario {
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(4)
            .ranks_per_node(14)
    }

    #[test]
    fn scenarios_round_trip_every_knob() {
        let s = scenario()
            .threads_per_rank(2)
            .engine(EngineKind::Des {
                max_steps_per_kind: 50,
            })
            .with_deployment()
            .placement(Placement::RoundRobin)
            .spine_taper(0.66)
            .degrade_node_uplink(3, 0.1)
            .shards(4);
        let key = super::super::PlanKey::of(&s, None).unwrap();
        let (text, back) = round_trip(&s).unwrap();
        let back_key = super::super::PlanKey::of(&back, None).unwrap();
        assert_eq!(key, back_key, "wire round-trip must preserve the plan key");
        // and the encoding itself is deterministic
        assert_eq!(text, round_trip(&back).unwrap().0);
        let tree = Json::parse(&text).unwrap();
        assert_eq!(tree.write(), text, "the tree writer renders the same bytes");
    }

    #[test]
    fn open_specs_round_trip() {
        let s = scenario().open_campaign(OpenSpec {
            rate_per_s: 0.04,
            horizon_s: 900.0,
            tenants: 4,
            node_mix: MixSpec {
                s: 1.2,
                values: vec![1, 2],
            },
            workload_mix: MixSpec::single("cfd-small".to_string()),
            env_mix: MixSpec {
                s: 1.1,
                values: vec![Execution::docker(), Execution::shifter()],
            },
        });
        let key = super::super::PlanKey::of(&s, None).unwrap();
        let back = round_trip(&s).unwrap().1;
        assert_eq!(key, super::super::PlanKey::of(&back, None).unwrap());
    }

    #[test]
    fn custom_clusters_are_rejected_not_garbled() {
        let mut custom = presets::lenox();
        custom.node_count += 1;
        let s = Scenario::new(custom, workloads::artery_cfd_small());
        assert!(round_trip(&s).is_err());
    }

    #[test]
    fn errors_round_trip_typed() {
        let script = HarborError::Script(ScriptError {
            stage: ScriptStage::Compile,
            span: Span { line: 3, col: 11 },
            msg: "unknown cluster `atlantis`".into(),
        });
        let rt = HarborError::RuntimeUnavailable {
            runtime: "Docker".into(),
            cluster: "MareNostrum4".into(),
        };
        for e in [&script, &rt] {
            let back = decode_error(&error_json(e)).unwrap();
            assert_eq!(&back, e, "typed errors must round-trip exactly");
        }
        // placement errors degrade to Remote but keep the rendered text
        let placement = HarborError::Placement(harborsim_hw::PlacementError::ZeroDimension);
        let back = decode_error(&error_json(&placement)).unwrap();
        match &back {
            HarborError::Remote { kind, msg } => {
                assert_eq!(kind, "placement");
                assert_eq!(msg, &placement.to_string());
            }
            other => panic!("expected a remote error, got {other:?}"),
        }
        assert_eq!(back.to_string(), placement.to_string());
    }

    #[test]
    fn requests_survive_encode_decode() {
        let req = LabRequest::batch([scenario(), scenario().nodes(2)], &[1, 2, 3]);
        let wire = encode_request(&req).unwrap();
        let back = decode_request(&wire).unwrap();
        // re-encoding the decoded request is byte-identical
        assert_eq!(encode_request(&back).unwrap(), wire);
        let LabRequest::Batch { queries } = back else {
            panic!("kind must survive");
        };
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].seeds, vec![1, 2, 3]);
    }

    #[test]
    fn version_mismatches_are_rejected() {
        let msg = encode_request(&LabRequest::Stats).unwrap();
        let bumped = msg.replace("\"v\":1", "\"v\":2");
        // `Scenario` carries boxed workloads and has no `Debug`, so
        // requests don't either: match instead of `unwrap_err`
        let e = match decode_request(&bumped) {
            Err(e) => e,
            Ok(_) => panic!("a future wire version must be rejected"),
        };
        assert!(e.msg.contains("version"), "{e}");
    }

    /// The decode error of `wire`, which must not decode.
    fn decode_error_of(wire: &str) -> String {
        match decode_request(wire) {
            Err(e) => e.msg,
            Ok(req) => panic!("{wire} decoded to {}", encode_request(&req).unwrap()),
        }
    }

    #[test]
    fn integers_too_wide_for_their_field_are_rejected_not_truncated() {
        let s = scenario()
            .engine(EngineKind::Des {
                max_steps_per_kind: 5,
            })
            .degrade_node_uplink(3, 0.5)
            .open_campaign(OpenSpec {
                rate_per_s: 0.04,
                horizon_s: 900.0,
                tenants: 6,
                node_mix: MixSpec {
                    s: 1.2,
                    values: vec![1, 2],
                },
                workload_mix: MixSpec::single("cfd-small".to_string()),
                env_mix: MixSpec::single(Execution::docker()),
            });
        let wire = encode_request(&LabRequest::execute(s, 7)).unwrap();
        // each field's text, that text with `N` for the field's value,
        // and what the error for a value past 32 bits names
        let cases = [
            ("\"nodes\":4,", "\"nodes\":N,", "field `nodes`"),
            ("\"rpn\":14,", "\"rpn\":N,", "field `rpn`"),
            ("\"tpr\":1,", "\"tpr\":N,", "field `tpr`"),
            ("\"shards\":1,", "\"shards\":N,", "field `shards`"),
            ("_kind\":5}", "_kind\":N}", "field `max_steps_per_kind`"),
            ("[3,0.5]", "[N,0.5]", "degraded node"),
            ("\"tenants\":6,", "\"tenants\":N,", "field `tenants`"),
            ("\"values\":[1,2]", "\"values\":[1,N]", "node mix values"),
        ];
        for (field, template, what) in cases {
            assert_eq!(wire.matches(field).count(), 1, "{field} in {wire}");
            let with = |n: u64| wire.replacen(field, &template.replace('N', &n.to_string()), 1);
            // 2^32 + 2 once decoded as 2; 2^32 - 1 still fits
            assert_eq!(
                decode_error_of(&with((1 << 32) + 2)),
                format!("{what} must fit in 32 bits")
            );
            let widest = with(u64::from(u32::MAX));
            let back = decode_request(&widest).map(|r| encode_request(&r).unwrap());
            assert_eq!(back.as_deref(), Ok(widest.as_str()), "{field}");
        }
    }

    #[test]
    fn reply_integers_too_wide_for_their_field_are_rejected_not_truncated() {
        let plan = encode_response(&LabResponse::Plan(PlanInfo {
            fingerprint: Some(42),
            engine: "analytic".into(),
            ranks: 7,
            deployment: false,
        }));
        let script = encode_response(&LabResponse::Error(HarborError::Script(ScriptError {
            stage: ScriptStage::Parse,
            span: Span { line: 3, col: 11 },
            msg: "unexpected `}`".into(),
        })));
        // the reply, its field's text, and that text with `N` for the value
        let cases = [
            (&plan, "\"ranks\":7,", "\"ranks\":N,", "ranks"),
            (&script, "\"line\":3,", "\"line\":N,", "line"),
            (&script, "\"col\":11,", "\"col\":N,", "col"),
        ];
        for (wire, field, template, key) in cases {
            assert_eq!(wire.matches(field).count(), 1, "{field} in {wire}");
            let with = |n: u64| wire.replacen(field, &template.replace('N', &n.to_string()), 1);
            // 2^32 + 2 once decoded as 2; 2^32 - 1 still fits
            match decode_response(&with((1 << 32) + 2)) {
                Err(e) => assert_eq!(e.msg, format!("field `{key}` must fit in 32 bits")),
                Ok(r) => panic!("{key} past 32 bits decoded to {r:?}"),
            }
            let widest = with(u64::from(u32::MAX));
            let back = decode_response(&widest).map(|r| encode_response(&r));
            assert_eq!(back.as_deref(), Ok(widest.as_str()), "{field}");
        }
    }
}
