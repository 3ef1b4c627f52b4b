//! CPU models: instruction-set architecture plus sustained-throughput
//! parameters for solver-class kernels.

use std::fmt;

/// Instruction-set architecture of a CPU.
///
/// Architecture identity matters to the *portability* part of the study: a
/// container image built for one ISA cannot run on another, and an image
/// built with ISA-specific compiler flags (e.g. AVX-512) may be slower or
/// fail on older implementations of the same ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuArch {
    /// x86-64 (Intel/AMD).
    X86_64,
    /// IBM POWER (ppc64le).
    Ppc64le,
    /// 64-bit Arm (aarch64).
    Aarch64,
}

impl CpuArch {
    /// The conventional GNU triple-ish name for the architecture.
    pub fn name(self) -> &'static str {
        match self {
            CpuArch::X86_64 => "x86_64",
            CpuArch::Ppc64le => "ppc64le",
            CpuArch::Aarch64 => "aarch64",
        }
    }

    /// Whether a binary built for `self` can execute on `other` without
    /// emulation. HarborSim models no binary translation, so this is plain
    /// equality — exactly the wall the paper's portability section runs into.
    pub fn can_execute(self, other: CpuArch) -> bool {
        self == other
    }
}

impl fmt::Display for CpuArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A CPU model: identity plus sustained performance parameters.
///
/// `cg_gflops_per_core` is the sustained double-precision rate of one core on
/// conjugate-gradient-class kernels (sparse/stencil, memory-bound) — the
/// regime Alya's solvers live in. These sit at 4–8% of nominal peak, which is
/// what published HPCG-style measurements show for each of these chips.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Marketing name, e.g. "Intel Xeon Platinum 8160".
    pub name: String,
    /// Instruction-set architecture.
    pub arch: CpuArch,
    /// Microarchitecture label, e.g. "Skylake-SP" (informational, and used
    /// by ISA-feature compatibility checks, e.g. AVX-512 images on Haswell).
    pub uarch: String,
    /// Nominal clock in GHz.
    pub clock_ghz: f64,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Sustained per-core GFLOP/s on CG-class (memory-bound) kernels.
    pub cg_gflops_per_core: f64,
    /// Memory bandwidth per socket in GB/s (STREAM-like).
    pub mem_bw_gbs_per_socket: f64,
    /// ISA feature level, ordered: a binary compiled for level L runs only on
    /// CPUs with `isa_level >= L` *within the same arch* (e.g. x86-64-v3 vs
    /// v4). Models the paper's "tuned image vs portable image" trade-off.
    pub isa_level: u8,
}

impl CpuModel {
    /// Intel Xeon E5-2697 v3 (Haswell, 14 cores) — the Lenox cluster CPU.
    pub fn xeon_e5_2697v3() -> CpuModel {
        CpuModel {
            name: "Intel Xeon E5-2697 v3".into(),
            arch: CpuArch::X86_64,
            uarch: "Haswell".into(),
            clock_ghz: 2.6,
            cores_per_socket: 14,
            cg_gflops_per_core: 2.0,
            mem_bw_gbs_per_socket: 59.0,
            isa_level: 3, // x86-64-v3: AVX2
        }
    }

    /// Intel Xeon Platinum 8160 (Skylake-SP, 24 cores) — MareNostrum4.
    pub fn xeon_platinum_8160() -> CpuModel {
        CpuModel {
            name: "Intel Xeon Platinum 8160".into(),
            arch: CpuArch::X86_64,
            uarch: "Skylake-SP".into(),
            clock_ghz: 2.1,
            cores_per_socket: 24,
            cg_gflops_per_core: 2.6,
            mem_bw_gbs_per_socket: 107.0,
            isa_level: 4, // x86-64-v4: AVX-512
        }
    }

    /// IBM POWER9 8335-GTG (20 cores) — CTE-POWER.
    pub fn power9_8335gtg() -> CpuModel {
        CpuModel {
            name: "IBM POWER9 8335-GTG".into(),
            arch: CpuArch::Ppc64le,
            uarch: "POWER9".into(),
            clock_ghz: 3.0,
            cores_per_socket: 20,
            cg_gflops_per_core: 2.2,
            mem_bw_gbs_per_socket: 120.0,
            isa_level: 1,
        }
    }

    /// Cavium ThunderX CN8890 (48 cores) — Mont-Blanc ThunderX mini-cluster.
    pub fn thunderx_cn8890() -> CpuModel {
        CpuModel {
            name: "Cavium ThunderX CN8890".into(),
            arch: CpuArch::Aarch64,
            uarch: "ThunderX".into(),
            clock_ghz: 2.0,
            cores_per_socket: 48,
            // in-order cores, no SIMD FMA pipe to speak of: weak per-core DP
            cg_gflops_per_core: 0.55,
            mem_bw_gbs_per_socket: 40.0,
            isa_level: 1,
        }
    }

    /// Seconds for one core to execute `flops` floating-point operations at
    /// the sustained CG-class rate.
    pub fn core_seconds(&self, flops: f64) -> f64 {
        debug_assert!(flops >= 0.0);
        flops / (self.cg_gflops_per_core * 1e9)
    }

    /// This model's structural identity: every field, borrowed, with
    /// floats as bit patterns. Two models with equal identities have
    /// equal `Debug` renderings; the converse holds unless a field is
    /// NaN (bit patterns tell NaN payloads apart, and `-0.0` from `0.0`,
    /// where `PartialEq` would merge the zeros).
    pub fn identity(&self) -> CpuIdentity<'_> {
        // no `..`: a new field fails to compile until it is covered here
        let CpuModel {
            name,
            arch,
            uarch,
            clock_ghz,
            cores_per_socket,
            cg_gflops_per_core,
            mem_bw_gbs_per_socket,
            isa_level,
        } = self;
        CpuIdentity {
            name,
            arch: *arch,
            uarch,
            clock_ghz: clock_ghz.to_bits(),
            cores_per_socket: *cores_per_socket,
            cg_gflops_per_core: cg_gflops_per_core.to_bits(),
            mem_bw_gbs_per_socket: mem_bw_gbs_per_socket.to_bits(),
            isa_level: *isa_level,
        }
    }
}

/// A [`CpuModel`]'s structural identity (see [`CpuModel::identity`]):
/// compare or hash it wherever a model is a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuIdentity<'a> {
    name: &'a str,
    arch: CpuArch,
    uarch: &'a str,
    clock_ghz: u64,
    cores_per_socket: u32,
    cg_gflops_per_core: u64,
    mem_bw_gbs_per_socket: u64,
    isa_level: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_compat_is_equality() {
        assert!(CpuArch::X86_64.can_execute(CpuArch::X86_64));
        assert!(!CpuArch::X86_64.can_execute(CpuArch::Aarch64));
        assert!(!CpuArch::Ppc64le.can_execute(CpuArch::X86_64));
    }

    #[test]
    fn presets_have_sane_parameters() {
        for cpu in [
            CpuModel::xeon_e5_2697v3(),
            CpuModel::xeon_platinum_8160(),
            CpuModel::power9_8335gtg(),
            CpuModel::thunderx_cn8890(),
        ] {
            assert!(cpu.clock_ghz > 0.5 && cpu.clock_ghz < 5.0, "{}", cpu.name);
            assert!(cpu.cores_per_socket >= 14, "{}", cpu.name);
            assert!(
                cpu.cg_gflops_per_core > 0.1 && cpu.cg_gflops_per_core < 10.0,
                "{}",
                cpu.name
            );
            // sustained rate must be a small fraction of nominal peak
            let peak_ish = cpu.clock_ghz * 16.0; // generous upper bound GF/s/core
            assert!(cpu.cg_gflops_per_core < peak_ish, "{}", cpu.name);
        }
    }

    #[test]
    fn skylake_beats_thunderx_per_core() {
        let sky = CpuModel::xeon_platinum_8160();
        let tx = CpuModel::thunderx_cn8890();
        assert!(sky.cg_gflops_per_core > 3.0 * tx.cg_gflops_per_core);
    }

    #[test]
    fn core_seconds_scales_linearly() {
        let cpu = CpuModel::xeon_platinum_8160();
        let t1 = cpu.core_seconds(1e9);
        let t2 = cpu.core_seconds(2e9);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        // 1 GFLOP at 2.6 GF/s ~ 0.385 s
        assert!((t1 - 1.0 / 2.6).abs() < 1e-9);
    }

    #[test]
    fn arch_names() {
        assert_eq!(CpuArch::X86_64.to_string(), "x86_64");
        assert_eq!(CpuArch::Ppc64le.to_string(), "ppc64le");
        assert_eq!(CpuArch::Aarch64.to_string(), "aarch64");
    }
}
