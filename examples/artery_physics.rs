//! Artery physics: run the *real* mini-Alya solvers (not the performance
//! models) — the 3D CFD tube flow with its Poiseuille validation, the
//! slab-decomposed run over the functional thread MPI, and the coupled
//! FSI pulse propagation.
//!
//! ```sh
//! cargo run --release --example artery_physics
//! ```

use harborsim::alya::cfd::{CfdConfig, CfdSolver};
use harborsim::alya::dist::run_distributed;
use harborsim::alya::fsi::{CoupledFsi, FsiConfig};
use harborsim::alya::mesh::TubeMesh;
use harborsim::alya::pulse1d::{cardiac_inflow, PulseConfig};

fn main() {
    // ---- 3D CFD: develop Poiseuille flow in a tube ----
    println!("== CFD: 3D Navier-Stokes in a masked tube ==");
    let mesh = TubeMesh::cylinder(17, 17, 48, 7.0);
    println!(
        "mesh: {}x{}x{} cells, {} active ({} per cross-section)",
        mesh.nx,
        mesh.ny,
        mesh.nz,
        mesh.active_cells(),
        mesh.cross_section_cells()
    );
    let cfg = CfdConfig::stable(&mesh, 25.0, 0.08);
    let mut solver = CfdSolver::new(mesh.clone(), cfg.clone());
    for block in 1..=6 {
        solver.run(150);
        let mid = solver.mesh.nz / 2;
        println!(
            "  t={:.1}  mean axial velocity={:.4}  max|div u|={:.2e}  (CG {} iters so far)",
            solver.time,
            solver.mean_axial_velocity(mid),
            solver.max_divergence(),
            solver.stats.cg_iters
        );
        if block == 6 {
            let profile = solver.axial_profile(mid);
            let centre = profile
                .iter()
                .filter(|(r, _)| *r < 1.0)
                .map(|(_, w)| *w)
                .fold(0.0_f64, f64::max);
            let mean = solver.mean_axial_velocity(mid);
            println!(
                "  Poiseuille check: centreline/mean = {:.2} (ideal 2.0 on a fine grid)",
                centre / mean
            );
        }
    }
    println!(
        "  executed ~{:.2} GFLOP across {} steps",
        solver.stats.flops / 1e9,
        solver.stats.steps
    );

    // ---- the same case, slab-decomposed over the functional thread MPI ----
    println!("\n== Distributed CFD over in-process MPI (4 ranks) ==");
    let mut serial = CfdSolver::new(mesh.clone(), cfg.clone());
    serial.run(25);
    let dist = run_distributed(&mesh, &cfg, 4, 25);
    let rel: f64 = {
        let num: f64 = serial
            .w
            .iter()
            .zip(&dist.w)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let den: f64 = serial.w.iter().map(|x| x * x).sum();
        (num / den.max(1e-300)).sqrt()
    };
    println!(
        "  4-rank run: {} halo exchanges, {} CG iterations",
        dist.halo_exchanges, dist.cg_iters
    );
    println!("  relative L2 difference vs sequential solver: {rel:.2e}");
    assert!(rel < 1e-6, "decomposition must preserve the solution");

    // ---- FSI: two codes, partitioned coupling ----
    println!("\n== FSI: 1D pulse-wave fluid + wall mechanics (two codes) ==");
    let fluid_cfg = PulseConfig::artery(200);
    println!(
        "  vessel: 20 cm, {} stations, wave speed {:.0} cm/s",
        fluid_cfg.n,
        fluid_cfg.wave_speed(fluid_cfg.a0)
    );
    let mut fsi = CoupledFsi::new(
        fluid_cfg.clone(),
        40.0,
        FsiConfig::default(),
        cardiac_inflow,
    );
    let steps_per_tenth = (0.1 / fluid_cfg.dt) as usize;
    for tenth in 1..=5 {
        fsi.run(steps_per_tenth);
        let peak = fsi.fluid.a.iter().cloned().fold(f64::MIN, f64::max);
        println!(
            "  t={:.1}s  pulse peak area={:.3} cm^2 at station {}  (mean {:.1} subiters/step)",
            0.1 * tenth as f64,
            peak,
            fsi.fluid.peak_station(),
            fsi.mean_subiters()
        );
    }
    assert_eq!(fsi.stats.non_converged, 0);
    println!("  coupling converged at every step.");

    // ---- the same FSI pair as two codes on disjoint MPI rank groups ----
    println!("\n== Distributed FSI: fluid ranks + solid ranks (3 pairs) ==");
    let steps = (0.1 / fluid_cfg.dt) as usize;
    let mut serial = CoupledFsi::new(
        fluid_cfg.clone(),
        40.0,
        FsiConfig::default(),
        cardiac_inflow,
    );
    serial.run(steps);
    let dist = harborsim::alya::fsi_dist::run_coupled_distributed(
        &fluid_cfg,
        40.0,
        &FsiConfig::default(),
        cardiac_inflow,
        3,
        steps,
    );
    let rel_fsi: f64 = {
        let num: f64 = serial
            .fluid
            .a
            .iter()
            .zip(&dist.a)
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        let den: f64 = serial.fluid.a.iter().map(|x| x * x).sum();
        (num / den).sqrt()
    };
    println!(
        "  6 ranks (3 fluid + 3 solid), {} total sub-iterations",
        dist.subiters
    );
    println!("  relative L2 difference vs the sequential coupling: {rel_fsi:.2e}");
    assert!(rel_fsi < 1e-9);
}
