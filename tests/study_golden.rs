//! Version-to-version goldens for the reproduction's artifacts.
//!
//! `des_golden` and `analytic_golden` pin the engines' results. These
//! tests pin what the study is for: every CSV that `reproduce_all`
//! writes into `target/study/`, under the paper's five-seed protocol and
//! under `--quick`. Each experiment runs in process through one
//! [`QueryEngine`], as `reproduce_all` runs it, and each CSV is folded
//! into an FNV-1a digest of its bytes.
//!
//! The shape checks accept wide bands, so a model change can move a
//! figure without failing one. Here it fails until the digests are
//! re-recorded on purpose; the change that re-records them names the
//! artifacts that moved and why. On a mismatch the test prints the whole
//! measured table, ready to paste.

use harborsim::study::experiments::{
    ext_breakdown, ext_campaign, ext_degraded, ext_io, ext_locality, ext_open_system, ext_oversub,
    ext_weak, fig1, fig2, fig3, tables, validation,
};
use harborsim::study::lab::QueryEngine;
use harborsim::study::script::{compile_str, flags_script};
use harborsim::study::{FigureData, TableData};

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every CSV `reproduce_all` writes without flags (`quick` false) or
/// with `--quick`, as `(artifact id, digest of its bytes)` in the order
/// it writes them. An id is the artifact's file stem in `target/study/`.
fn study(quick: bool) -> Vec<(String, u64)> {
    let compiled = compile_str(&flags_script(quick, None, 1)).expect("the flag script compiles");
    let seeds: &[u64] = &compiled.seeds;
    let lab = QueryEngine::new();
    let fig = |f: FigureData| (f.id.clone(), f.to_csv());
    let table = |t: TableData| (t.id.clone(), t.to_csv());
    let oversub = ext_oversub::run(&lab, seeds);
    let csvs = [
        fig(fig1::run(&lab, seeds)),
        fig(fig2::run(&lab, seeds)),
        fig(fig3::run(&lab, seeds)),
        table(tables::deployment(&lab, seeds)),
        table(tables::portability(&lab, seeds)),
        fig(ext_io::run()),
        table(ext_breakdown::table(&ext_breakdown::run(&lab, seeds[0]))),
        table(ext_campaign::table(&ext_campaign::run(&lab, seeds))),
        table(ext_open_system::table(&ext_open_system::run(&lab, seeds))),
        fig(ext_weak::run(&lab, seeds)),
        fig(oversub.fig.clone()),
        table(ext_oversub::table(&oversub)),
        fig(ext_degraded::run(&lab, seeds)),
        fig(ext_locality::run(&lab, seeds)),
        table(validation::table(&validation::run_with_shards(
            &lab,
            compiled.shards,
        ))),
    ];
    csvs.into_iter()
        .map(|(id, csv)| (id, fnv(csv.as_bytes())))
        .collect()
}

fn check(quick: bool, pinned: &[(&str, u64)]) {
    let measured = study(quick);
    let matches = measured.len() == pinned.len()
        && measured
            .iter()
            .zip(pinned)
            .all(|((id, h), (pid, ph))| id == pid && h == ph);
    if !matches {
        let table: String = measured
            .iter()
            .map(|(id, h)| format!("    (\"{id}\", 0x{h:016x}),\n"))
            .collect();
        panic!("study artifacts moved (quick = {quick}); measured:\n{table}");
    }
}

#[test]
fn quick_study_artifacts_are_pinned() {
    check(true, QUICK);
}

#[test]
fn five_seed_study_artifacts_are_pinned() {
    check(false, FIVE_SEED);
}

const QUICK: &[(&str, u64)] = &[
    ("fig1", 0x13dd_7b29_f672_bc0a),
    ("fig2", 0xadf5_134f_d4a9_c992),
    ("fig3", 0x7a84_b4f3_eaf8_ea02),
    ("table-deployment", 0x4833_d399_d8e3_8129),
    ("table-portability", 0x521b_d32e_f0f2_4d86),
    ("ext-io", 0x085d_cee4_081c_ee39),
    ("ext-breakdown", 0xd477_6270_cb0b_1995),
    ("ext-campaign", 0x6d11_7179_7d4a_ee9f),
    ("ext-open-system", 0xb2d0_0136_c4c8_4bbb),
    ("ext-weak", 0x0f95_7faf_cdb9_dd4d),
    ("ext-oversub", 0xb04d_0faf_fd80_5ca4),
    ("link-utilization", 0xc543_96f7_3b69_f21b),
    ("ext-degraded", 0x00f3_d6b2_5634_27da),
    ("ext-locality", 0x01e0_a985_04c5_cca6),
    ("ext-validation", 0x8367_e63d_b139_6353),
];

const FIVE_SEED: &[(&str, u64)] = &[
    ("fig1", 0x41fb_5a04_6f66_0014),
    ("fig2", 0xad17_d07c_6551_6095),
    ("fig3", 0x7a84_b4f3_eaf8_ea02),
    ("table-deployment", 0x4833_d399_d8e3_8129),
    ("table-portability", 0x4769_d8bb_8950_65fa),
    ("ext-io", 0x085d_cee4_081c_ee39),
    ("ext-breakdown", 0xd477_6270_cb0b_1995),
    ("ext-campaign", 0x6d11_7179_7d4a_ee9f),
    ("ext-open-system", 0x64fe_f147_eee8_3468),
    ("ext-weak", 0x0f95_7faf_cdb9_dd4d),
    ("ext-oversub", 0xb04d_0faf_fd80_5ca4),
    ("link-utilization", 0xc543_96f7_3b69_f21b),
    ("ext-degraded", 0x00f3_d6b2_5634_27da),
    ("ext-locality", 0xa60f_c38a_095c_503c),
    ("ext-validation", 0x8367_e63d_b139_6353),
];
