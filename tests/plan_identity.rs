//! A plan key tells clusters apart by structure, never more coarsely than
//! by their rendering, and its fingerprint still digests that rendering.
//!
//! `PlanKey` once held each cluster as its `Debug` string. It now holds
//! the `ClusterSpec` and compares it through `ClusterSpec::identity()`:
//! every field, floats as bit patterns. Three properties keep that
//! change sound:
//!
//! 1. **Identity refines the rendering.** Over every preset and a corpus
//!    of one-field mutations (each float ±1 ulp, `0.0` against `-0.0`,
//!    two NaN payloads; each string and `Option` changed or cleared),
//!    equal identities imply equal renderings, and equal renderings of
//!    NaN-free specs imply equal identities.
//! 2. **Fingerprints did not move.** `PlanKey::fingerprint` of the
//!    daemon's 12 menu scenarios and of a deployment, degraded-link, open
//!    and DES sample are pinned as literals, recorded when keys still
//!    held the rendering.
//! 3. **The wire does not split keys.** Two independent decodes of one
//!    request build equal keys with equal hashes.

use harborsim::hw::{presets, ClusterSpec, CpuModel, StorageKind, StorageSpec};
use harborsim::mpi::Placement;
use harborsim::study::lab::wire::{decode_request, encode_request};
use harborsim::study::open::{MixSpec, OpenSpec};
use harborsim::study::scenario::{EngineKind, Execution, Scenario};
use harborsim::study::{workloads, LabRequest, PlanKey};
use harborsim_bench::loadgen::{menu_scenario, MENU_LEN};
use std::hash::BuildHasher;

/// A NaN with the default payload and one with a payload of its own.
const NANS: [u64; 2] = [0x7ff8_0000_0000_0000, 0x7ff8_0000_0000_beef];

/// Every float field of `spec`, by name.
fn floats(spec: &mut ClusterSpec) -> Vec<(&'static str, &mut f64)> {
    let mut out: Vec<(&'static str, &mut f64)> = vec![
        ("cpu.clock_ghz", &mut spec.node.cpu.clock_ghz),
        (
            "cpu.cg_gflops_per_core",
            &mut spec.node.cpu.cg_gflops_per_core,
        ),
        (
            "cpu.mem_bw_gbs_per_socket",
            &mut spec.node.cpu.mem_bw_gbs_per_socket,
        ),
        (
            "threading.serial_fraction",
            &mut spec.node.threading.serial_fraction,
        ),
        (
            "threading.barrier_base_us",
            &mut spec.node.threading.barrier_base_us,
        ),
        (
            "threading.regions_per_unit",
            &mut spec.node.threading.regions_per_unit,
        ),
        (
            "fabric.hop_latency_s",
            &mut spec.fabric_layout.hop_latency_s,
        ),
        ("fabric.spine_taper", &mut spec.fabric_layout.spine_taper),
    ];
    out.extend(storage_floats("shared", &mut spec.shared_storage));
    if let Some(local) = &mut spec.local_storage {
        out.extend(storage_floats("local", local));
    }
    out
}

fn storage_floats<'a>(
    which: &'static str,
    spec: &'a mut StorageSpec,
) -> Vec<(&'static str, &'a mut f64)> {
    match &mut spec.kind {
        StorageKind::ParallelFs {
            aggregate_bps,
            per_client_bps,
            metadata_op_s,
        } => vec![
            (which, aggregate_bps),
            (which, per_client_bps),
            (which, metadata_op_s),
        ],
        StorageKind::LocalDisk {
            read_bps,
            write_bps,
            op_latency_s,
        } => vec![(which, read_bps), (which, write_bps), (which, op_latency_s)],
        StorageKind::Nfs {
            server_bps,
            metadata_op_s,
        } => vec![(which, server_bps), (which, metadata_op_s)],
    }
}

/// One mutated copy of a preset: what changed, the spec, and whether a
/// float in it is NaN.
struct Mutant {
    what: String,
    spec: ClusterSpec,
    nan: bool,
}

/// `base` and every one-field mutation of it.
fn mutants(base: &ClusterSpec) -> Vec<Mutant> {
    let mut out = vec![Mutant {
        what: "preset".into(),
        spec: base.clone(),
        nan: false,
    }];
    let mut push = |what: String, edit: &dyn Fn(&mut ClusterSpec), nan: bool| {
        let mut spec = base.clone();
        edit(&mut spec);
        out.push(Mutant { what, spec, nan });
    };
    let n_floats = floats(&mut base.clone()).len();
    /// What an edit does, the edit, and whether it leaves a NaN.
    type FloatEdit = (&'static str, fn(f64) -> f64, bool);
    let float_edits: [FloatEdit; 6] = [
        (
            "+1 ulp",
            |x| f64::from_bits(x.to_bits().wrapping_add(1)),
            false,
        ),
        (
            "-1 ulp",
            |x| f64::from_bits(x.to_bits().wrapping_sub(1)),
            false,
        ),
        ("0.0", |_| 0.0, false),
        ("-0.0", |_| -0.0, false),
        ("NaN", |_| f64::from_bits(NANS[0]), true),
        ("NaN payload", |_| f64::from_bits(NANS[1]), true),
    ];
    for i in 0..n_floats {
        for (how, f, nan) in float_edits {
            let name = floats(&mut base.clone())[i].0;
            push(
                format!("{name}#{i} {how}"),
                &|s: &mut ClusterSpec| {
                    let (_, x) = floats(s).swap_remove(i);
                    *x = f(*x);
                },
                nan,
            );
        }
    }
    // strings changed, and cleared
    type Edit = (&'static str, fn(&mut ClusterSpec));
    let edits: [Edit; 24] = [
        ("name changed", |s| s.name.push('x')),
        ("name cleared", |s| s.name.clear()),
        ("cpu.name changed", |s| s.node.cpu.name.push('x')),
        ("cpu.name cleared", |s| s.node.cpu.name.clear()),
        ("cpu.uarch changed", |s| s.node.cpu.uarch.push('x')),
        ("cpu.uarch cleared", |s| s.node.cpu.uarch.clear()),
        ("shared.name changed", |s| s.shared_storage.name.push('x')),
        ("shared.name cleared", |s| s.shared_storage.name.clear()),
        ("local cleared", |s| s.local_storage = None),
        ("local replaced", |s| {
            s.local_storage = Some(match s.local_storage {
                Some(_) => StorageSpec::nfs_small(),
                None => StorageSpec::local_scratch(),
            })
        }),
        ("docker toggled", |s| {
            s.software.docker = match s.software.docker {
                Some(_) => None,
                None => Some("20.10".into()),
            }
        }),
        ("singularity toggled", |s| {
            s.software.singularity = match s.software.singularity {
                Some(_) => None,
                None => Some("3.5".into()),
            }
        }),
        ("shifter toggled", |s| {
            s.software.shifter = match s.software.shifter {
                Some(_) => None,
                None => Some("18.06".into()),
            }
        }),
        ("singularity version changed", |s| {
            s.software.singularity = Some(format!("{:?}", s.software.singularity))
        }),
        ("singularity version emptied", |s| {
            s.software.singularity = Some(String::new())
        }),
        ("nodes_per_leaf toggled", |s| {
            s.fabric_layout.nodes_per_leaf = match s.fabric_layout.nodes_per_leaf {
                Some(_) => None,
                None => Some(16),
            }
        }),
        ("nodes_per_leaf changed", |s| {
            s.fabric_layout.nodes_per_leaf = Some(s.fabric_layout.nodes_per_leaf.unwrap_or(0) + 1)
        }),
        ("node_count", |s| s.node_count += 1),
        ("sockets", |s| s.node.sockets += 1),
        ("mem_gib", |s| s.node.mem_gib += 1),
        ("cores_per_socket", |s| s.node.cpu.cores_per_socket += 1),
        ("isa_level", |s| s.node.cpu.isa_level += 1),
        ("arch", |s| {
            s.node.cpu.arch = match s.node.cpu.arch {
                harborsim::hw::CpuArch::X86_64 => harborsim::hw::CpuArch::Aarch64,
                _ => harborsim::hw::CpuArch::X86_64,
            }
        }),
        ("interconnect", |s| {
            s.interconnect = match s.interconnect {
                harborsim::hw::InterconnectKind::OmniPath100 => {
                    harborsim::hw::InterconnectKind::InfinibandEdr
                }
                _ => harborsim::hw::InterconnectKind::OmniPath100,
            }
        }),
    ];
    for (what, edit) in edits {
        push(what.to_string(), &edit, false);
    }
    out
}

/// Every preset with all its mutants, NaN ones twice (separately built,
/// so reflexivity is tested on distinct values).
fn corpus() -> Vec<Mutant> {
    let mut all = Vec::new();
    for preset in presets::all() {
        for m in mutants(&preset) {
            if m.nan {
                all.push(Mutant {
                    what: format!("{} (copy)", m.what),
                    spec: m.spec.clone(),
                    nan: true,
                });
            }
            all.push(m);
        }
    }
    all
}

#[test]
fn cluster_identity_refines_the_debug_rendering() {
    let corpus = corpus();
    assert!(corpus.len() > 300, "{} specs", corpus.len());
    let rendered: Vec<String> = corpus.iter().map(|m| format!("{:?}", m.spec)).collect();
    for (i, a) in corpus.iter().enumerate() {
        for (j, b) in corpus.iter().enumerate() {
            let same_identity = a.spec.identity() == b.spec.identity();
            let same_render = rendered[i] == rendered[j];
            if same_identity {
                assert!(same_render, "{} ~ {}: equal identities", a.what, b.what);
            }
            if same_render && !a.nan && !b.nan {
                assert!(same_identity, "{} ~ {}: equal renderings", a.what, b.what);
            }
        }
    }
}

#[test]
fn cpu_identity_refines_the_debug_rendering() {
    let cpus: Vec<(CpuModel, bool)> = corpus()
        .into_iter()
        .map(|m| (m.spec.node.cpu, m.nan))
        .collect();
    for (a, a_nan) in &cpus {
        for (b, b_nan) in &cpus {
            let same_render = format!("{a:?}") == format!("{b:?}");
            if a.identity() == b.identity() {
                assert!(same_render, "{a:?} ~ {b:?}");
            }
            if same_render && !a_nan && !b_nan {
                assert_eq!(a.identity(), b.identity(), "{a:?}");
            }
        }
    }
}

#[test]
fn identity_splits_signed_zeros_and_nan_payloads_and_is_reflexive_on_nan() {
    let mut pos = presets::marenostrum4();
    pos.fabric_layout.hop_latency_s = 0.0;
    let mut neg = pos.clone();
    neg.fabric_layout.hop_latency_s = -0.0;
    assert_eq!(pos, neg, "PartialEq merges the zeros");
    assert_ne!(pos.identity(), neg.identity(), "identity keeps them apart");

    let mut nan_a = presets::lenox();
    nan_a.node.cpu.clock_ghz = f64::from_bits(NANS[0]);
    let mut nan_b = nan_a.clone();
    nan_b.node.cpu.clock_ghz = f64::from_bits(NANS[1]);
    assert_ne!(nan_a, nan_a.clone(), "PartialEq is not reflexive on NaN");
    assert_eq!(nan_a.identity(), nan_a.clone().identity(), "identity is");
    assert_ne!(nan_a.identity(), nan_b.identity(), "payloads differ");
    assert_ne!(nan_a.node.cpu.identity(), nan_b.node.cpu.identity());

    // and so do plan keys built on such clusters
    let key = |c: &ClusterSpec| {
        PlanKey::of(
            &Scenario::new(c.clone(), workloads::artery_cfd_small()),
            None,
        )
        .unwrap()
    };
    assert_ne!(key(&pos), key(&neg));
    assert_eq!(key(&nan_a), key(&nan_a));
    assert_ne!(key(&nan_a), key(&nan_b));
}

/// The `i`-th (of 4) scenario exercising the key components the menu
/// leaves at their defaults.
fn key_sample(i: usize) -> Scenario {
    let cfd = workloads::artery_cfd_small;
    match i {
        0 => Scenario::new(presets::lenox(), cfd())
            .execution(Execution::singularity_self_contained())
            .nodes(2)
            .ranks_per_node(14)
            .with_deployment(),
        1 => Scenario::new(presets::marenostrum4(), cfd())
            .nodes(4)
            .ranks_per_node(48)
            .degrade_node_uplink(3, 0.25)
            .degrade_node_uplink(1, 0.5),
        2 => Scenario::new(presets::lenox(), cfd()).open_campaign(OpenSpec {
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
        }),
        _ => Scenario::new(presets::cte_power(), workloads::artery_fsi_small())
            .execution(Execution::singularity_system_specific())
            .nodes(2)
            .ranks_per_node(20)
            .engine(EngineKind::Des {
                max_steps_per_kind: 20,
            })
            .placement(Placement::RoundRobin)
            .spine_taper(0.5)
            .shards(2),
    }
}

#[test]
fn menu_fingerprints_are_pinned() {
    const PINNED: [u64; MENU_LEN] = [
        0x5182_f50e_5dba_e760,
        0xb3d3_ff24_0d02_ce2e,
        0xc728_5b77_26a5_dc23,
        0x0a41_836b_dfd8_0043,
        0xad63_1317_1d03_757a,
        0x623e_67a5_a39f_caf3,
        0x5f81_8a79_4b2f_ae9d,
        0x1fc9_7f85_b14d_96b2,
        0x0aca_956f_5d0d_7ebb,
        0xa048_fb8d_c5ec_a738,
        0x0c06_ef8e_f22a_0335,
        0xc75b_4f9f_9c34_d3bf,
    ];
    for (m, pinned) in PINNED.into_iter().enumerate() {
        let key = PlanKey::of(&menu_scenario(m), None).unwrap();
        assert_eq!(key.fingerprint(), pinned, "menu entry {m}");
    }
}

#[test]
fn sample_fingerprints_are_pinned() {
    const PINNED: [u64; 4] = [
        0x2b94_b8d9_9835_64af,
        0x8272_2140_2605_959f,
        0xad2d_adf8_9106_b97b,
        0xbb7b_5ed1_a289_9c58,
    ];
    for (i, pinned) in PINNED.into_iter().enumerate() {
        let key = PlanKey::of(&key_sample(i), None).unwrap();
        assert_eq!(key.fingerprint(), pinned, "sample {i}");
    }
    // an engine-level taper fallback is part of the key and the print
    let key = PlanKey::of(&menu_scenario(1), Some(0.5)).unwrap();
    assert_eq!(key.fingerprint(), 0x9109_0ff9_3ff5_e986);
}

#[test]
fn independently_decoded_requests_build_equal_keys() {
    let hasher = std::collections::hash_map::RandomState::new();
    let scenarios = (0..MENU_LEN)
        .map(menu_scenario)
        .chain((0..4).map(key_sample));
    let mut keys: Vec<PlanKey> = Vec::new();
    for s in scenarios {
        let wire = encode_request(&LabRequest::execute(s, 7)).unwrap();
        let [a, b] = [0, 1].map(|_| match decode_request(&wire) {
            Ok(LabRequest::Execute { scenario, .. }) => PlanKey::of(&scenario, None).unwrap(),
            _ => panic!("the request decodes to an execute: {wire}"),
        });
        assert_eq!(a, b, "{wire}");
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b), "{wire}");
        assert_eq!(a.fingerprint(), b.fingerprint());
        keys.push(a);
    }
    // and distinct scenarios keep distinct keys
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(a, b);
        }
    }
}
