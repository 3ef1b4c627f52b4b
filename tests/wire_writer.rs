//! The streaming wire writer writes canonical JSON, and its bytes do not
//! drift.
//!
//! Every wire encoder streams its fields through one `JsonWriter`
//! instead of building a `Json` tree. Two properties keep that honest:
//!
//! 1. **Canonical text.** For a corpus of every request and response
//!    variant, with hostile strings (quotes, backslashes, control
//!    characters, multi-byte text), non-finite floats and integers on
//!    both sides of 2^53, the parser and the tree writer reproduce the
//!    stream byte for byte, and decoding then re-encoding is a fixed
//!    point.
//! 2. **Pinned bytes.** Digests of the replies to the daemon's menu
//!    (12 scenarios × 3 seeds) and of a sample shaped like the sweep
//!    workload (plan and execute on MareNostrum4 and CTE-POWER, every
//!    environment, both placements, tapers, deployments) were recorded
//!    from the tree-building encoder the stream replaced. A load test
//!    that compares replies against the same encoder cannot see a drift;
//!    these digests do.

use harborsim::container::deploy::DeploymentReport;
use harborsim::des::SimDuration;
use harborsim::hw::presets;
use harborsim::mpi::result::{CommBreakdown, LinkUsage, SimResult};
use harborsim::mpi::Placement;
use harborsim::study::json::Json;
use harborsim::study::lab::wire::{
    decode_request, decode_response, encode_request, encode_response,
};
use harborsim::study::lab::{
    CampaignReport, CampaignResult, CampaignRow, CampaignRowKind, DaemonStats, EngineStats,
    LabRequest, LabResponse, PlanInfo, Query, QueryEngine,
};
use harborsim::study::open::{MixSpec, OpenSpec};
use harborsim::study::scenario::{Execution, Outcome, Scenario};
use harborsim::study::script::{ScriptError, ScriptStage, Span};
use harborsim::study::{workloads, CacheStats, HarborError};
use harborsim_bench::loadgen::{menu_scenario, MENU_LEN};

/// Text that exercises every escape: quotes, backslashes, the named
/// control escapes, the `\u` ones, and multi-byte scalars next to them.
const HOSTILE: [&str; 6] = [
    "",
    "plain",
    "quote \" and back\\slash",
    "ctl \n\r\t\u{1}\u{8}\u{c}\u{1f} end",
    "é𝄞 und é\"𝄞\\",
    "\u{7f}\u{80}\u{2028}\u{fffd}",
];

/// Integers on both sides of 2^53, where `f64` stops being exact.
const EDGE_INTS: [u64; 5] = [0, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX];

const EXACT_LIMIT: u64 = 1 << 53;

fn outcome(label: &str, int: u64, float: f64, deployment: bool) -> Outcome {
    let ns = SimDuration::from_nanos;
    let small = int.min(EXACT_LIMIT);
    Outcome {
        elapsed: ns(small),
        result: SimResult {
            elapsed: ns(small),
            compute: ns(1),
            comm: CommBreakdown {
                halo: ns(2),
                allreduce: ns(3),
                pairs: ns(0),
                other: ns(small),
            },
            inter_node_msgs: int,
            intra_node_msgs: 5,
            inter_node_bytes: int,
            links: vec![
                LinkUsage {
                    label: label.to_string().into(),
                    busy_s: float,
                    bytes: int,
                },
                LinkUsage {
                    label: "node0:up".into(),
                    busy_s: 0.016_393_247_863_247_86,
                    bytes: 7,
                },
            ],
            engine: "analytic",
        },
        deployment: deployment.then(|| DeploymentReport {
            makespan: ns(small),
            first_ready: ns(9),
            mean_ready_s: float,
            gateway_seconds: -0.0,
            bytes_pulled: int,
            bytes_from_pfs: 0,
            image_bytes: 1_234_567_890,
        }),
    }
}

fn error(text: &str) -> Vec<HarborError> {
    vec![
        HarborError::Script(ScriptError {
            stage: ScriptStage::Parse,
            span: Span { line: 3, col: 11 },
            msg: text.to_string(),
        }),
        HarborError::RuntimeUnavailable {
            runtime: text.to_string(),
            cluster: "MareNostrum4".into(),
        },
        HarborError::Placement(harborsim::hw::PlacementError::TooManyNodes {
            cluster: text.to_string(),
            requested: 9,
            available: 4,
        }),
        HarborError::Build(harborsim::container::build::BuildError::UnknownBaseImage(
            text.to_string(),
        )),
        HarborError::Remote {
            kind: format!("kind {text}"),
            msg: text.to_string(),
        },
    ]
}

fn stats(int: u64, mode: Option<&str>) -> EngineStats {
    let cache = CacheStats {
        hits: int,
        misses: 1,
        waits: 2,
        uncached: 3,
        contended: 4,
        entries: 5,
    };
    EngineStats {
        cache,
        per_shard: vec![cache, CacheStats::default()],
        batched_executes: int,
        daemon: mode.map(|mode| DaemonStats {
            mode: mode.to_string(),
            accept_errors: int,
            late_503s: 0,
            open_conns: 1,
        }),
    }
}

fn campaign(text: &str, int: u64, float: f64) -> CampaignReport {
    CampaignReport {
        campaigns: vec![
            CampaignResult {
                name: text.to_string(),
                rows: vec![
                    CampaignRow {
                        label: text.to_string(),
                        fingerprint: int,
                        kind: CampaignRowKind::Closed {
                            mean_elapsed_s: float,
                        },
                    },
                    CampaignRow {
                        label: "(base)".into(),
                        fingerprint: u64::MAX,
                        kind: CampaignRowKind::Open {
                            jobs: int,
                            utilization: float,
                            wait_p50_s: 0.5,
                            wait_p99_s: 1e-300,
                        },
                    },
                ],
            },
            CampaignResult {
                name: "empty".into(),
                rows: Vec::new(),
            },
        ],
    }
}

/// Every response variant over each hostile string, edge integer and a
/// spread of finite floats (tiny, huge, negative zero).
fn finite_responses() -> Vec<LabResponse> {
    let floats = [
        0.0,
        -0.0,
        0.1,
        1e-7,
        1e21,
        -2.5,
        f64::MAX,
        f64::MIN_POSITIVE,
    ];
    let mut out = Vec::new();
    for (i, text) in HOSTILE.iter().enumerate() {
        let int = EDGE_INTS[i % 3];
        let float = floats[i % floats.len()];
        out.push(LabResponse::Plan(PlanInfo {
            fingerprint: (i % 2 == 0).then_some(int ^ u64::MAX),
            engine: text.to_string(),
            ranks: i as u32,
            deployment: i % 2 == 1,
        }));
        out.push(LabResponse::Execute(Box::new(outcome(
            text,
            int,
            float,
            i % 2 == 0,
        ))));
        out.push(LabResponse::Batch(vec![
            Ok(vec![
                outcome(text, int, float, false),
                outcome("x", 1, 2.0, true),
            ]),
            Ok(Vec::new()),
            Err(error(text).remove(i % 5)),
        ]));
        out.push(LabResponse::Campaign(campaign(text, int, float)));
        out.push(LabResponse::Stats(stats(
            int,
            (i % 2 == 0).then_some(*text),
        )));
        for e in error(text) {
            out.push(LabResponse::Error(e));
        }
    }
    out
}

fn sc() -> Scenario {
    Scenario::new(presets::lenox(), workloads::artery_cfd_small())
        .execution(Execution::singularity_self_contained())
        .nodes(2)
        .ranks_per_node(14)
}

/// Every request variant: hostile scripts, open menus with hostile
/// workload names, edge seeds, degraded links and tapers.
fn requests() -> Vec<LabRequest> {
    let mut out = vec![LabRequest::Stats];
    for (i, text) in HOSTILE.iter().enumerate() {
        let seed = EDGE_INTS[i % 3];
        out.push(LabRequest::Campaign {
            script: text.to_string(),
        });
        out.push(LabRequest::plan(sc().open_campaign(OpenSpec {
            rate_per_s: 0.04,
            horizon_s: 900.0,
            tenants: 4,
            node_mix: MixSpec {
                s: 1.2,
                values: vec![1, 2, 4],
            },
            workload_mix: MixSpec {
                s: 0.0,
                values: vec!["cfd-small".into(), text.to_string()],
            },
            env_mix: MixSpec {
                s: 1.1,
                values: vec![Execution::docker(), Execution::shifter()],
            },
        })));
        out.push(LabRequest::execute(
            sc().spine_taper(0.66)
                .placement(Placement::RoundRobin)
                .degrade_node_uplink(1, 0.1)
                .degrade_node_uplink(0, 1e-9),
            seed,
        ));
        out.push(LabRequest::Batch {
            queries: vec![
                Query::new(sc(), &[seed, 1, EXACT_LIMIT]),
                Query::new(sc().nodes(1).with_deployment(), &[]),
            ],
        });
    }
    out.push(LabRequest::Batch {
        queries: Vec::new(),
    });
    out
}

/// The stream is text the parser reads back and the tree writer renders
/// to the same bytes.
fn assert_canonical(wire: &str) {
    let tree = Json::parse(wire).unwrap_or_else(|e| panic!("{e}: {wire}"));
    assert_eq!(tree.write(), wire, "stream and tree writers disagree");
}

#[test]
fn every_response_is_canonical_and_a_decode_encode_fixed_point() {
    let corpus = finite_responses();
    assert!(corpus.len() > 50);
    for resp in &corpus {
        let wire = encode_response(resp);
        assert_canonical(&wire);
        let back = decode_response(&wire).unwrap_or_else(|e| panic!("{e}: {wire}"));
        assert_eq!(encode_response(&back), wire, "decode ∘ encode moved bytes");
        // a typed round trip too, except that placement and build errors
        // travel as text and come back remote
        let lossy = matches!(
            resp,
            LabResponse::Error(HarborError::Placement(_) | HarborError::Build(_))
        ) || matches!(resp, LabResponse::Batch(r) if r.iter().any(|r| matches!(
            r,
            Err(HarborError::Placement(_) | HarborError::Build(_))
        )));
        if !lossy {
            assert_eq!(format!("{back:?}"), format!("{resp:?}"), "{wire}");
        }
    }
}

#[test]
fn every_request_is_canonical_and_a_decode_encode_fixed_point() {
    for req in requests() {
        let wire = encode_request(&req).expect("registry scenarios encode");
        assert_canonical(&wire);
        let back = decode_request(&wire).unwrap_or_else(|e| panic!("{e}: {wire}"));
        assert_eq!(
            encode_request(&back).unwrap(),
            wire,
            "decode ∘ encode moved bytes"
        );
    }
}

#[test]
fn integers_are_written_as_their_f64() {
    // the stream writes an integer the way the tree writes `x as f64`:
    // exact through 2^53, rounded above, never in exponent form
    for int in EDGE_INTS {
        let wire = encode_response(&LabResponse::Stats(stats(int, None)));
        assert_canonical(&wire);
        let as_float = Json::Num(int as f64).write();
        assert!(
            wire.contains(&format!("\"hits\":{as_float},")),
            "{int} → {wire}"
        );
        let decoded = decode_response(&wire);
        if int as f64 <= EXACT_LIMIT as f64 {
            let LabResponse::Stats(back) = decoded.unwrap() else {
                panic!("kind survives");
            };
            assert_eq!(back.cache.hits, int as f64 as u64, "{wire}");
        } else {
            // past the exact range the decoder refuses rather than guess
            assert!(decoded.is_err(), "{wire}");
        }
    }
    assert_eq!(Json::Num((1u64 << 53) as f64).write(), "9007199254740992");
    assert_eq!(Json::Num(u64::MAX as f64).write(), "18446744073709552000");
}

#[test]
fn non_finite_floats_are_written_as_null() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN] {
        let resp = LabResponse::Execute(Box::new(outcome("node0:up", 7, x, true)));
        let wire = encode_response(&resp);
        assert_canonical(&wire);
        assert!(wire.contains("\"busy_s\":null"), "{wire}");
        assert!(wire.contains("\"mean_ready_s\":null"), "{wire}");
        assert!(decode_response(&wire).is_err(), "null is not a number");
        let campaign = encode_response(&LabResponse::Campaign(campaign("c", 1, x)));
        assert_canonical(&campaign);
        assert!(campaign.contains("\"mean_elapsed_s\":null"), "{campaign}");
        assert!(campaign.contains("\"utilization\":null"), "{campaign}");
    }
    // a non-finite taper on a request also goes out as null
    let mut s = sc();
    s.spine_taper = Some(f64::INFINITY);
    let wire = encode_request(&LabRequest::plan(s)).unwrap();
    assert_canonical(&wire);
    assert!(wire.contains("\"taper\":null"), "{wire}");
}

#[test]
fn hostile_strings_escape_to_pinned_text() {
    // the escapes the tree writer has always used: the five named ones,
    // `\u00xx` for the rest below 0x20 (so no `\b`/`\f`), and every
    // other scalar raw
    const ESCAPED: [&str; 6] = [
        r#""""#,
        r#""plain""#,
        r#""quote \" and back\\slash""#,
        r#""ctl \n\r\t\u0001\u0008\u000c\u001f end""#,
        "\"é𝄞 und é\\\"𝄞\\\\\"",
        "\"\u{7f}\u{80}\u{2028}\u{fffd}\"",
    ];
    for (text, escaped) in HOSTILE.into_iter().zip(ESCAPED) {
        let wire = encode_request(&LabRequest::Campaign {
            script: text.to_string(),
        })
        .unwrap();
        assert_eq!(
            wire,
            format!(r#"{{"v":1,"kind":"campaign","script":{escaped}}}"#)
        );
        let LabRequest::Campaign { script } = decode_request(&wire).unwrap() else {
            panic!("kind survives");
        };
        assert_eq!(script, text);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the encoded replies, newline-separated, with their total
/// length.
fn reply_digest(lab: &QueryEngine, requests: impl IntoIterator<Item = LabRequest>) -> (u64, usize) {
    let mut h = FNV_OFFSET;
    let mut bytes = 0;
    for req in requests {
        let wire = encode_response(&lab.handle(req));
        bytes += wire.len();
        h = fnv(fnv(h, wire.as_bytes()), b"\n");
    }
    (h, bytes)
}

/// The `i`-th (of 6) scenario shaped like the sweep workload's universe.
fn sweep_sample(i: usize) -> Scenario {
    let (cluster, nodes, rpn) = [
        (presets::marenostrum4 as fn() -> _, 1, 6),
        (presets::marenostrum4, 4, 24),
        (presets::marenostrum4, 16, 48),
        (presets::cte_power, 2, 10),
        (presets::cte_power, 8, 40),
        (presets::marenostrum4, 8, 12),
    ][i];
    let env = [
        Execution::bare_metal(),
        Execution::singularity_system_specific(),
        Execution::singularity_self_contained(),
    ][i % 3];
    let placement = [Placement::Block, Placement::RoundRobin][i % 2];
    let mut s = Scenario::new(cluster(), workloads::artery_cfd_small())
        .execution(env)
        .nodes(nodes)
        .ranks_per_node(rpn)
        .placement(placement);
    if let Some(t) = [None, Some(0.75), Some(0.5), Some(0.25), None, Some(0.5)][i] {
        s = s.spine_taper(t);
    }
    if i.is_multiple_of(3) {
        s = s.with_deployment();
    }
    s
}

#[test]
fn menu_replies_are_pinned() {
    let lab = QueryEngine::new();
    let requests = (0..MENU_LEN)
        .flat_map(|m| (0..3).map(move |seed| LabRequest::execute(menu_scenario(m), seed)));
    assert_eq!(
        reply_digest(&lab, requests),
        (0x0e65_4a8f_ea5b_5559, 21_795),
        "the 36 menu replies drifted"
    );
}

#[test]
fn warm_menu_replies_are_pinned() {
    // the same 36 requests, decoded from their wire bodies and answered
    // on the warm path the daemon's reactor takes: same bytes
    let lab = QueryEngine::new();
    for m in 0..MENU_LEN {
        lab.plan(&menu_scenario(m)).unwrap();
    }
    let mut h = FNV_OFFSET;
    let mut bytes = 0;
    for m in 0..MENU_LEN {
        for seed in 0..3 {
            let body = encode_request(&LabRequest::execute(menu_scenario(m), seed)).unwrap();
            let reply = lab
                .handle_warm(decode_request(&body).unwrap())
                .ok()
                .expect("every menu plan is resident, analytic and small");
            let wire = encode_response(&reply);
            bytes += wire.len();
            h = fnv(fnv(h, wire.as_bytes()), b"\n");
        }
    }
    assert_eq!(
        (h, bytes),
        (0x0e65_4a8f_ea5b_5559, 21_795),
        "the 36 warm menu replies drifted"
    );
}

#[test]
fn sweep_sample_replies_are_pinned() {
    let lab = QueryEngine::new();
    let requests = (0..6).flat_map(|i| {
        [
            LabRequest::plan(sweep_sample(i)),
            LabRequest::execute(sweep_sample(i), 1_000 + i as u64),
        ]
    });
    assert_eq!(
        reply_digest(&lab, requests),
        (0xfdfe_eda6_7fa9_fae7, 8_629),
        "the sweep-sample replies drifted"
    );
}
