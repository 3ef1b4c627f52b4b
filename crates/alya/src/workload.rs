//! Workload models: the two Alya use cases as [`JobProfile`] generators.
//!
//! Each model describes, for a given MPI rank count, what one timestep
//! costs (flops per rank, from the instrumented solver constants of
//! [`crate::cfd`]) and which communication phases it runs (halo bytes from
//! the partition's surface-to-volume ratio, CG dot-product allreduces,
//! coupling pair traffic). The *case presets* carry the mesh sizes and
//! step counts calibrated for each figure of the paper; see DESIGN.md §4.

use crate::cfd::{FLOPS_CG_ITER, FLOPS_CORRECTION, FLOPS_DIVERGENCE, FLOPS_MOMENTUM};
use harborsim_mpi::workload::{factor3, CommPhase, JobProfile, StepProfile};

/// A runnable Alya case: something that can describe itself to the engines.
pub trait AlyaCase {
    /// Case name for reports.
    fn name(&self) -> &str;
    /// The job profile at `ranks` MPI ranks.
    fn job_profile(&self, ranks: u32) -> JobProfile;
    /// A string uniquely identifying every parameter that influences
    /// [`AlyaCase::job_profile`]: the case's identity in plan-cache keys,
    /// and how a registry workload is recognised by name. The default
    /// (`None`) makes the case uncacheable; cases that return a key must
    /// include *all* profile-relevant state (floats by bit pattern), or
    /// two different cases would share cached plans.
    fn memo_key(&self) -> Option<String> {
        None
    }
}

/// Surface cells of a near-cubic subdomain of `cells` cells.
fn surface_cells(cells: f64) -> f64 {
    cells.max(1.0).powf(2.0 / 3.0)
}

/// The CFD artery case: single-physics Navier–Stokes.
#[derive(Debug, Clone, PartialEq)]
pub struct ArteryCfd {
    /// Case label.
    pub label: String,
    /// Active (fluid) mesh cells.
    pub active_cells: f64,
    /// Timesteps in the case.
    pub timesteps: u32,
    /// Mean CG iterations per pressure solve.
    pub cg_iters: u32,
}

impl ArteryCfd {
    /// A toy case for tests and the quickstart example.
    pub fn small() -> ArteryCfd {
        ArteryCfd {
            label: "artery-cfd-small".into(),
            active_cells: 5.0e4,
            timesteps: 5,
            cg_iters: 15,
        }
    }

    /// The Fig. 1 case: sized so the bare-metal run takes minutes on the
    /// 112 Haswell cores of Lenox.
    pub fn lenox_case() -> ArteryCfd {
        ArteryCfd {
            label: "artery-cfd-lenox".into(),
            active_cells: 20.0e6,
            timesteps: 300,
            cg_iters: 35,
        }
    }

    /// The Fig. 2 case on CTE-POWER (same mesh, longer run — the paper
    /// reports 2-node times near 90 s).
    pub fn cte_power_case() -> ArteryCfd {
        ArteryCfd {
            label: "artery-cfd-cte".into(),
            active_cells: 20.0e6,
            timesteps: 500,
            cg_iters: 35,
        }
    }

    /// Flops per active cell per timestep, from the instrumented solver.
    pub fn flops_per_cell_step(&self) -> f64 {
        FLOPS_MOMENTUM + FLOPS_DIVERGENCE + FLOPS_CORRECTION + self.cg_iters as f64 * FLOPS_CG_ITER
    }
}

impl AlyaCase for ArteryCfd {
    fn name(&self) -> &str {
        &self.label
    }

    fn memo_key(&self) -> Option<String> {
        Some(format!(
            "cfd:{}:{:x}:{}:{}",
            self.label,
            self.active_cells.to_bits(),
            self.timesteps,
            self.cg_iters
        ))
    }

    fn job_profile(&self, ranks: u32) -> JobProfile {
        assert!(ranks >= 1);
        let dims = factor3(ranks);
        let cells_per_rank = self.active_cells / ranks as f64;
        let halo_bytes = (surface_cells(cells_per_rank) * 8.0) as u64;
        let cg = self.cg_iters;
        let step = StepProfile {
            flops_per_rank: cells_per_rank * self.flops_per_cell_step(),
            imbalance: 1.04, // mask-induced partition imbalance
            regions: (6 + 2 * cg) as f64,
            comm: vec![
                // momentum + tentative-velocity halos: 3 fields each
                CommPhase::Halo3D {
                    dims,
                    bytes: halo_bytes * 3,
                    repeats: 2,
                },
                // CG pressure halos: warm start + one per iteration + final
                CommPhase::Halo3D {
                    dims,
                    bytes: halo_bytes,
                    repeats: cg + 2,
                },
                // CG dot products + residual norms
                CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 2 * cg + 2,
                },
                // residual monitoring at rank 0
                CommPhase::Gather { bytes_per_rank: 16 },
            ],
        };
        JobProfile::uniform(step, self.timesteps)
    }
}

/// The FSI artery case: fluid + wall codes, partitioned coupling.
#[derive(Debug, Clone, PartialEq)]
pub struct ArteryFsi {
    /// Case label.
    pub label: String,
    /// Active fluid cells.
    pub active_cells: f64,
    /// Timesteps.
    pub timesteps: u32,
    /// CG iterations per fluid solve.
    pub cg_iters: u32,
    /// Fraction of ranks running the solid code.
    pub solid_fraction: f64,
    /// Interface payload per fluid↔solid pair per coupling exchange.
    pub interface_bytes: u64,
}

impl ArteryFsi {
    /// A toy FSI case for tests and examples.
    pub fn small() -> ArteryFsi {
        ArteryFsi {
            label: "artery-fsi-small".into(),
            active_cells: 1.0e5,
            timesteps: 5,
            cg_iters: 15,
            solid_fraction: 0.25,
            interface_bytes: 4096,
        }
    }

    /// The Fig. 3 case: sized for strong scaling from 4 to 256 MareNostrum4
    /// nodes (192 → 12,288 cores).
    pub fn mn4_case() -> ArteryFsi {
        ArteryFsi {
            label: "artery-fsi-mn4".into(),
            active_cells: 260.0e6,
            timesteps: 90,
            cg_iters: 30,
            solid_fraction: 0.08,
            interface_bytes: 96 * 1024,
        }
    }

    /// How many ranks run the solid code at a given total.
    pub fn solid_ranks(&self, ranks: u32) -> u32 {
        if ranks < 4 {
            return 0;
        }
        ((ranks as f64 * self.solid_fraction) as u32).clamp(1, ranks / 2)
    }

    /// Fluid↔solid coupling pairs: each solid rank is paired with a fluid
    /// rank spread evenly across the fluid range.
    pub fn coupling_pairs(&self, ranks: u32) -> Vec<(u32, u32)> {
        let solid = self.solid_ranks(ranks);
        if solid == 0 {
            return Vec::new();
        }
        let fluid = ranks - solid;
        (0..solid)
            .map(|i| {
                let partner = (i as u64 * fluid as u64 / solid as u64) as u32;
                (partner, fluid + i)
            })
            .collect()
    }
}

impl AlyaCase for ArteryFsi {
    fn name(&self) -> &str {
        &self.label
    }

    fn memo_key(&self) -> Option<String> {
        Some(format!(
            "fsi:{}:{:x}:{}:{}:{:x}:{}",
            self.label,
            self.active_cells.to_bits(),
            self.timesteps,
            self.cg_iters,
            self.solid_fraction.to_bits(),
            self.interface_bytes
        ))
    }

    fn job_profile(&self, ranks: u32) -> JobProfile {
        assert!(ranks >= 1);
        let solid = self.solid_ranks(ranks);
        let fluid = (ranks - solid).max(1);
        let dims = factor3(ranks);
        let cells_per_fluid_rank = self.active_cells / fluid as f64;
        let halo_bytes = (surface_cells(cells_per_fluid_rank) * 8.0) as u64;
        let cg = self.cg_iters;
        let flops_per_cell =
            FLOPS_MOMENTUM + FLOPS_DIVERGENCE + FLOPS_CORRECTION + cg as f64 * FLOPS_CG_ITER;
        // mean over all ranks; solid work is negligible, so the max/mean
        // imbalance is the fluid/mean ratio
        let total_flops = self.active_cells * flops_per_cell;
        let mean_flops = total_flops / ranks as f64;
        let imbalance = (ranks as f64 / fluid as f64).max(1.0) * 1.04;
        let step = StepProfile {
            flops_per_rank: mean_flops,
            imbalance,
            regions: (8 + 2 * cg) as f64,
            comm: vec![
                // fluid halos: momentum + CG
                CommPhase::Halo3D {
                    dims,
                    bytes: halo_bytes * 3,
                    repeats: 2,
                },
                CommPhase::Halo3D {
                    dims,
                    bytes: halo_bytes,
                    repeats: cg + 2,
                },
                // CG dots + coupling-residual norms
                CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 2 * cg + 4,
                },
                // coupling: pressures out, areas back (two exchanges)
                CommPhase::Pairs {
                    pairs: self.coupling_pairs(ranks),
                    bytes: self.interface_bytes,
                },
                CommPhase::Pairs {
                    pairs: self.coupling_pairs(ranks),
                    bytes: self.interface_bytes,
                },
                // witness-point gather
                CommPhase::Gather { bytes_per_rank: 32 },
            ],
        };
        JobProfile::uniform(step, self.timesteps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_change_changes_key() {
        let a = ArteryCfd::small();
        let mut b = a.clone();
        b.cg_iters += 1;
        // same label, different profile: the keys must not collide
        assert_ne!(a.job_profile(8), b.job_profile(8));
        assert_ne!(a.memo_key(), b.memo_key());
    }

    #[test]
    fn cfd_total_flops_independent_of_ranks() {
        let case = ArteryCfd::lenox_case();
        let f8 = case.job_profile(8).total_flops(8);
        let f112 = case.job_profile(112).total_flops(112);
        let rel = (f8 - f112).abs() / f8;
        assert!(rel < 1e-9, "rel={rel}");
    }

    #[test]
    fn cfd_halo_bytes_shrink_with_ranks() {
        let case = ArteryCfd::lenox_case();
        let bytes = |ranks: u32| match &case.job_profile(ranks).steps[0].0.comm[1] {
            CommPhase::Halo3D { bytes, .. } => *bytes,
            _ => panic!("expected halo"),
        };
        assert!(bytes(8) > bytes(28));
        assert!(bytes(28) > bytes(112));
    }

    #[test]
    fn cfd_flops_match_solver_constants() {
        let case = ArteryCfd::small();
        // FLOPS_* constants are validated against the real solver's
        // counters in cfd.rs; here we pin the composition
        let expected = 117.0 + 12.0 + 18.0 + 15.0 * 27.0;
        assert_eq!(case.flops_per_cell_step(), expected);
    }

    #[test]
    fn cfd_profile_structure() {
        let job = ArteryCfd::small().job_profile(8);
        assert_eq!(job.total_steps(), 5);
        let step = &job.steps[0].0;
        assert_eq!(step.comm.len(), 4);
        assert!(step.messages_per_rank(8) > 0);
    }

    #[test]
    fn fsi_solid_rank_allocation() {
        let case = ArteryFsi::mn4_case();
        assert_eq!(case.solid_ranks(2), 0, "tiny jobs run fluid only");
        assert_eq!(case.solid_ranks(192), 15);
        assert_eq!(case.solid_ranks(12_288), 983);
        // pairs reference valid ranks and are unique per solid rank
        for ranks in [192u32, 768, 12_288] {
            let pairs = case.coupling_pairs(ranks);
            assert_eq!(pairs.len() as u32, case.solid_ranks(ranks));
            for &(f, s) in &pairs {
                assert!(f < ranks - case.solid_ranks(ranks), "fluid partner {f}");
                assert!(s >= ranks - case.solid_ranks(ranks) && s < ranks);
            }
        }
    }

    #[test]
    fn fsi_imbalance_reflects_solid_idleness() {
        let case = ArteryFsi::mn4_case();
        let step = &case.job_profile(192).steps[0].0;
        assert!(step.imbalance > 1.05, "imbalance={}", step.imbalance);
        assert!(step.imbalance < 1.30);
    }

    #[test]
    fn small_cases_are_cheap() {
        let cfd = ArteryCfd::small().job_profile(4);
        assert!(cfd.total_flops(4) < 1e10);
        let fsi = ArteryFsi::small().job_profile(4);
        assert!(fsi.total_flops(4) < 1e10);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ArteryCfd::lenox_case().name(), "artery-cfd-lenox");
        assert_eq!(ArteryFsi::mn4_case().name(), "artery-fsi-mn4");
    }
}
