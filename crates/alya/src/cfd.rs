//! The CFD artery case: 3D incompressible Navier–Stokes in a masked tube.
//!
//! Chorin's fractional-step method on a collocated grid (spacing 1):
//!
//! 1. **Momentum**: explicit tentative velocity — first-order upwind
//!    advection + central diffusion (robust and positivity-preserving at
//!    the resolutions the mini-app runs).
//! 2. **Projection**: a pressure Poisson equation with mask-aware 7-point
//!    Laplacian — Neumann at walls and inlet, Dirichlet `p = 0` at the
//!    outlet — solved by conjugate gradients (warm-started from the
//!    previous step's pressure).
//! 3. **Correction**: project the velocity onto the divergence-free space.
//!
//! Boundary conditions: parabolic (Poiseuille) inflow at `z = 0`,
//! zero-gradient outflow at `z = nz-1`, no-slip at the tube wall (masked
//! cells read as zero velocity).
//!
//! # Kernel structure
//!
//! The hot kernels iterate the mesh's precomputed cross-section list
//! ([`TubeMesh::cross_cells`]) — only fluid cells, with in-plane neighbour
//! activity read from precomputed bits instead of mask probes, and the `z`
//! neighbours resolved structurally (the cylinder mask is z-invariant).
//! Masked cells of every field are **never written**: they are zero from
//! construction and stay zero, which is exactly what the old
//! write-zero-every-sweep kernels produced, so the full-array dot products
//! and axpy updates of the CG solve are untouched and every result is
//! bit-for-bit identical. Each momentum plane is fused with the divergence
//! of the plane below it so the tentative field is consumed while still in
//! cache.
//!
//! The solver counts its floating-point work; those counters are the ground
//! truth behind [`crate::workload`]'s flop constants.

use crate::mesh::{TubeMesh, NB_XM, NB_XP, NB_YM, NB_YP};

/// Flop cost per active interior cell of one momentum evaluation
/// (3 components × (upwind advection + diffusion + update)).
pub const FLOPS_MOMENTUM: f64 = 117.0;
/// Flop cost per active cell of the divergence/RHS evaluation.
pub const FLOPS_DIVERGENCE: f64 = 12.0;
/// Flop cost per unknown cell of one CG iteration (matvec + 2 dots + 3
/// axpy-likes).
pub const FLOPS_CG_ITER: f64 = 27.0;
/// Flop cost per active cell of the velocity correction.
pub const FLOPS_CORRECTION: f64 = 18.0;

/// Solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CfdConfig {
    /// Kinematic viscosity (grid units).
    pub nu: f64,
    /// Time step (grid units); see [`CfdConfig::stable_dt`].
    pub dt: f64,
    /// Peak inflow velocity on the tube axis.
    pub inflow_peak: f64,
    /// CG relative residual tolerance.
    pub cg_tol: f64,
    /// CG iteration cap per step.
    pub cg_max_iters: usize,
    /// Pulsatile inflow `(relative amplitude, period)`: the inflow peak is
    /// modulated as `1 + amp·sin(2πt/T)`. `None` = steady inflow.
    pub pulsatile: Option<(f64, f64)>,
}

impl CfdConfig {
    /// A stable configuration for a given mesh: viscosity from the target
    /// Reynolds number and a CFL-limited time step.
    pub fn stable(mesh: &TubeMesh, reynolds: f64, inflow_peak: f64) -> CfdConfig {
        let nu = inflow_peak * 2.0 * mesh.radius / reynolds;
        let dt = Self::stable_dt(nu, inflow_peak);
        CfdConfig {
            nu,
            dt,
            inflow_peak,
            cg_tol: 1e-8,
            cg_max_iters: 500,
            pulsatile: None,
        }
    }

    /// The advective/diffusive stability limit (h = 1).
    pub fn stable_dt(nu: f64, peak_velocity: f64) -> f64 {
        let adv = 1.0 / peak_velocity.abs().max(1e-12);
        let diff = 1.0 / (6.0 * nu.max(1e-12));
        0.35 * adv.min(diff)
    }
}

/// Work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Time steps taken.
    pub steps: u64,
    /// Total CG iterations.
    pub cg_iters: u64,
    /// Estimated floating-point operations executed.
    pub flops: f64,
}

/// The solver state.
#[derive(Debug, Clone)]
pub struct CfdSolver {
    /// Geometry.
    pub mesh: TubeMesh,
    /// Configuration.
    pub cfg: CfdConfig,
    /// x-velocity.
    pub u: Vec<f64>,
    /// y-velocity.
    pub v: Vec<f64>,
    /// z-velocity (axial).
    pub w: Vec<f64>,
    /// Pressure.
    pub p: Vec<f64>,
    /// Work counters.
    pub stats: SolverStats,
    /// Simulated physical time.
    pub time: f64,
    // Scratch fields. Invariant: masked cells of all of these are zero —
    // kernels only ever write fluid cells, so the zeros from construction
    // persist (and the wall boundary conditions depend on that).
    us: Vec<f64>,
    vs: Vec<f64>,
    ws: Vec<f64>,
    rhs: Vec<f64>,
    cg_r: Vec<f64>,
    cg_d: Vec<f64>,
    cg_ap: Vec<f64>,
}

impl CfdSolver {
    /// A solver at rest (zero velocity everywhere).
    pub fn new(mesh: TubeMesh, cfg: CfdConfig) -> CfdSolver {
        let n = mesh.total_cells();
        CfdSolver {
            mesh,
            cfg,
            u: vec![0.0; n],
            v: vec![0.0; n],
            w: vec![0.0; n],
            p: vec![0.0; n],
            stats: SolverStats::default(),
            time: 0.0,
            us: vec![0.0; n],
            vs: vec![0.0; n],
            ws: vec![0.0; n],
            rhs: vec![0.0; n],
            cg_r: vec![0.0; n],
            cg_d: vec![0.0; n],
            cg_ap: vec![0.0; n],
        }
    }

    /// Advance `steps` time steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// One fractional-step update.
    pub fn step(&mut self) {
        self.apply_inflow();
        self.apply_outflow_velocity();
        self.tentative_and_rhs();
        let iters = self.pressure_solve();
        self.correct();
        self.stats.steps += 1;
        self.stats.cg_iters += iters as u64;
        let active = self.mesh.active_cells() as f64;
        self.stats.flops += active
            * (FLOPS_MOMENTUM + FLOPS_DIVERGENCE + FLOPS_CORRECTION + FLOPS_CG_ITER * iters as f64);
        self.time += self.cfg.dt;
    }

    /// The inflow peak at the current time (pulsatile modulation applied).
    pub fn current_inflow_peak(&self) -> f64 {
        match self.cfg.pulsatile {
            None => self.cfg.inflow_peak,
            Some((amp, period)) => {
                self.cfg.inflow_peak
                    * (1.0 + amp * (2.0 * std::f64::consts::PI * self.time / period).sin())
            }
        }
    }

    /// Fix the inflow plane (`k = 0`): parabolic axial velocity.
    fn apply_inflow(&mut self) {
        let peak = self.current_inflow_peak();
        let nx = self.mesh.nx;
        let (u, v, w) = (&mut self.u, &mut self.v, &mut self.w);
        for c in self.mesh.cross_cells() {
            let o = c.o as usize;
            u[o] = 0.0;
            v[o] = 0.0;
            w[o] = peak * self.mesh.inflow_profile(o % nx, o / nx);
        }
    }

    /// Zero-gradient outflow (`k = nz-1` copies `nz-2`).
    fn apply_outflow_velocity(&mut self) {
        let (nx, ny, nz) = (self.mesh.nx, self.mesh.ny, self.mesh.nz);
        let plane = nx * ny;
        let (last, prev) = ((nz - 1) * plane, (nz - 2) * plane);
        for o in 0..plane {
            self.u[last + o] = self.u[prev + o];
            self.v[last + o] = self.v[prev + o];
            self.w[last + o] = self.w[prev + o];
        }
    }

    /// Tentative velocity for interior planes `1..nz-1` plus the Poisson
    /// RHS `div(u*)/dt` for planes `0..nz-1`, in one fused sweep: each
    /// momentum plane is followed immediately by the divergence of the
    /// plane below it (its last dependency), so the freshly written
    /// tentative planes are consumed while still hot.
    fn tentative_and_rhs(&mut self) {
        let (nz, plane) = (self.mesh.nz, self.mesh.nx * self.mesh.ny);
        // inlet plane of the tentative field: keep BC values
        self.us[..plane].copy_from_slice(&self.u[..plane]);
        self.vs[..plane].copy_from_slice(&self.v[..plane]);
        self.ws[..plane].copy_from_slice(&self.w[..plane]);
        for m in 1..nz - 1 {
            self.momentum_plane(m);
            self.divergence_plane(m - 1);
        }
        self.copy_outflow_tentative();
        self.divergence_plane(nz - 2);
    }

    /// Tentative velocity of interior plane `k`, over the fluid
    /// cross-section only.
    fn momentum_plane(&mut self, k: usize) {
        let nx = self.mesh.nx;
        let plane = nx * self.mesh.ny;
        let base = plane * k;
        let (nu, dt) = (self.cfg.nu, self.cfg.dt);
        let (u, v, w) = (&self.u, &self.v, &self.w);
        let (us, vs, ws) = (&mut self.us, &mut self.vs, &mut self.ws);
        for c in self.mesh.cross_cells() {
            let idx = base + c.o as usize;
            let nb = c.nb;
            let (uc, vc, wc) = (u[idx], v[idx], w[idx]);
            // neighbour fetch with no-slip (0) ghosts at walls; z-neighbours of
            // an interior-plane fluid cell are always fluid (z-invariant mask)
            let upd = |f: &[f64]| -> f64 {
                let cv = f[idx];
                let xm = if nb & NB_XM != 0 { f[idx - 1] } else { 0.0 };
                let xp = if nb & NB_XP != 0 { f[idx + 1] } else { 0.0 };
                let ym = if nb & NB_YM != 0 { f[idx - nx] } else { 0.0 };
                let yp = if nb & NB_YP != 0 { f[idx + nx] } else { 0.0 };
                let zm = f[idx - plane];
                let zp = f[idx + plane];
                // upwind advection
                let dfdx = if uc > 0.0 { cv - xm } else { xp - cv };
                let dfdy = if vc > 0.0 { cv - ym } else { yp - cv };
                let dfdz = if wc > 0.0 { cv - zm } else { zp - cv };
                let adv = uc * dfdx + vc * dfdy + wc * dfdz;
                let lap = xm + xp + ym + yp + zm + zp - 6.0 * cv;
                cv + dt * (nu * lap - adv)
            };
            us[idx] = upd(u);
            vs[idx] = upd(v);
            ws[idx] = upd(w);
        }
    }

    /// Zero-gradient outflow plane of the tentative field.
    fn copy_outflow_tentative(&mut self) {
        let plane = self.mesh.nx * self.mesh.ny;
        let last = (self.mesh.nz - 1) * plane;
        let prev = (self.mesh.nz - 2) * plane;
        let (lo, hi) = self.us.split_at_mut(last);
        hi.copy_from_slice(&lo[prev..prev + plane]);
        let (lo, hi) = self.vs.split_at_mut(last);
        hi.copy_from_slice(&lo[prev..prev + plane]);
        let (lo, hi) = self.ws.split_at_mut(last);
        hi.copy_from_slice(&lo[prev..prev + plane]);
    }

    /// Poisson RHS on the fluid cells of plane `k < nz-1`. Masked cells and
    /// the outlet plane keep their zero-from-construction RHS (they are
    /// not pressure unknowns).
    fn divergence_plane(&mut self, k: usize) {
        let nx = self.mesh.nx;
        let plane = nx * self.mesh.ny;
        let base = plane * k;
        let dt = self.cfg.dt;
        let (us, vs, ws) = (&self.us, &self.vs, &self.ws);
        let rhs = &mut self.rhs;
        for c in self.mesh.cross_cells() {
            let o = c.o as usize;
            let idx = base + o;
            let nb = c.nb;
            // central differences; wall neighbours contribute 0 velocity,
            // the upstream ghost repeats the inlet value
            let uxp = if nb & NB_XP != 0 { us[idx + 1] } else { 0.0 };
            let uxm = if nb & NB_XM != 0 { us[idx - 1] } else { 0.0 };
            let dudx = (uxp - uxm) / 2.0;
            let vyp = if nb & NB_YP != 0 { vs[idx + nx] } else { 0.0 };
            let vym = if nb & NB_YM != 0 { vs[idx - nx] } else { 0.0 };
            let dvdy = (vyp - vym) / 2.0;
            let wzm = if k == 0 { ws[idx] } else { ws[idx - plane] };
            let dwdz = (ws[idx + plane] - wzm) / 2.0;
            rhs[idx] = (dudx + dvdy + dwdz) / dt;
        }
    }

    /// Whether a cell is a pressure unknown.
    #[inline]
    fn is_unknown(&self, i: usize, j: usize, k: usize) -> bool {
        k < self.mesh.nz - 1 && self.mesh.active_flat(self.mesh.idx(i, j, k))
    }

    /// `y = A x` where `A` is the negated mask-aware Laplacian (SPD), over
    /// the fluid cells of the unknown planes only. Masked cells and the
    /// outlet plane of `y` are never written — zero from construction.
    fn apply_laplacian(mesh: &TubeMesh, x: &[f64], y: &mut [f64]) {
        let (nx, nz) = (mesh.nx, mesh.nz);
        let plane = nx * mesh.ny;
        for k in 0..nz - 1 {
            let base = plane * k;
            let outlet_above = k + 1 == nz - 1;
            for c in mesh.cross_cells() {
                let idx = base + c.o as usize;
                let nb = c.nb;
                let xc = x[idx];
                let mut acc = 0.0;
                // same neighbour order as the 7-point stencil sweep:
                // x−, x+, y−, y+, z−, z+; inactive / out of domain means
                // Neumann and contributes 0; in-plane unknowns are never
                // on the outlet plane, so only z+ can hit the Dirichlet
                // p = 0 ghost
                if nb & NB_XM != 0 {
                    acc += xc - x[idx - 1];
                }
                if nb & NB_XP != 0 {
                    acc += xc - x[idx + 1];
                }
                if nb & NB_YM != 0 {
                    acc += xc - x[idx - nx];
                }
                if nb & NB_YP != 0 {
                    acc += xc - x[idx + nx];
                }
                if k > 0 {
                    acc += xc - x[idx - plane];
                }
                if outlet_above {
                    acc += xc;
                } else {
                    acc += xc - x[idx + plane];
                }
                y[idx] = acc;
            }
        }
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// CG on `A p = -rhs`; returns iterations used.
    fn pressure_solve(&mut self) -> usize {
        // r = b - A p with b = -rhs, warm-started from the previous
        // pressure; the negation happens term-by-term, exactly as the
        // former explicit b vector
        Self::apply_laplacian(&self.mesh, &self.p, &mut self.cg_ap);
        for i in 0..self.cg_r.len() {
            self.cg_r[i] = -self.rhs[i] - self.cg_ap[i];
        }
        // mask r to unknowns (p may carry stale outlet values)
        let (nx, ny, nz) = (self.mesh.nx, self.mesh.ny, self.mesh.nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    if !self.is_unknown(i, j, k) {
                        let idx = self.mesh.idx(i, j, k);
                        self.cg_r[idx] = 0.0;
                    }
                }
            }
        }
        self.cg_d.copy_from_slice(&self.cg_r);
        // ‖b‖ = ‖−rhs‖ term-by-term: (−x)·(−x) ≡ x·x
        let bnorm = Self::dot(&self.rhs, &self.rhs).sqrt().max(1e-300);
        let mut rs = Self::dot(&self.cg_r, &self.cg_r);
        if rs.sqrt() <= self.cfg.cg_tol * bnorm {
            return 0;
        }
        for it in 1..=self.cfg.cg_max_iters {
            Self::apply_laplacian(&self.mesh, &self.cg_d, &mut self.cg_ap);
            let dad = Self::dot(&self.cg_d, &self.cg_ap);
            if dad <= 0.0 {
                return it; // numerically singular direction; accept current p
            }
            let alpha = rs / dad;
            for i in 0..self.p.len() {
                self.p[i] += alpha * self.cg_d[i];
                self.cg_r[i] -= alpha * self.cg_ap[i];
            }
            let rs_new = Self::dot(&self.cg_r, &self.cg_r);
            if rs_new.sqrt() <= self.cfg.cg_tol * bnorm {
                return it;
            }
            let beta = rs_new / rs;
            rs = rs_new;
            for i in 0..self.p.len() {
                self.cg_d[i] = self.cg_r[i] + beta * self.cg_d[i];
            }
        }
        self.cfg.cg_max_iters
    }

    /// Velocity correction `u = u* − dt ∇p` on interior fluid cells.
    fn correct(&mut self) {
        let nx = self.mesh.nx;
        let nz = self.mesh.nz;
        let plane = nx * self.mesh.ny;
        let dt = self.cfg.dt;
        let p = &self.p;
        let (us, vs, ws) = (&self.us, &self.vs, &self.ws);
        let (u, v, w) = (&mut self.u, &mut self.v, &mut self.w);
        for k in 1..nz - 1 {
            let base = plane * k;
            let outlet_above = k + 1 == nz - 1;
            for c in self.mesh.cross_cells() {
                let o = c.o as usize;
                let idx = base + o;
                let nb = c.nb;
                let pc = p[idx];
                // wall neighbours: Neumann ghost repeats the centre value;
                // outlet plane: Dirichlet p = 0
                let xp = if nb & NB_XP != 0 { p[idx + 1] } else { pc };
                let xm = if nb & NB_XM != 0 { p[idx - 1] } else { pc };
                let yp = if nb & NB_YP != 0 { p[idx + nx] } else { pc };
                let ym = if nb & NB_YM != 0 { p[idx - nx] } else { pc };
                let zp = if outlet_above { 0.0 } else { p[idx + plane] };
                let zm = p[idx - plane];
                u[idx] = us[idx] - dt * (xp - xm) / 2.0;
                v[idx] = vs[idx] - dt * (yp - ym) / 2.0;
                w[idx] = ws[idx] - dt * (zp - zm) / 2.0;
            }
        }
        self.apply_outflow_velocity();
    }

    /// Maximum |div u| over interior active cells — the projection quality.
    pub fn max_divergence(&self) -> f64 {
        let mesh = &self.mesh;
        let (nx, ny, nz) = (mesh.nx, mesh.ny, mesh.nz);
        let plane = nx * ny;
        let mut worst: f64 = 0.0;
        for k in 1..nz - 1 {
            for j in 1..ny - 1 {
                for i in 1..nx - 1 {
                    let idx = i + nx * j + plane * k;
                    if !mesh.active_flat(idx) {
                        continue;
                    }
                    let get = |f: &[f64], di: isize, dj: isize, dk: isize| -> f64 {
                        let (ii, jj, kk) = (i as isize + di, j as isize + dj, k as isize + dk);
                        if mesh.is_active(ii, jj, kk) {
                            f[(ii as usize) + nx * (jj as usize) + plane * (kk as usize)]
                        } else {
                            0.0
                        }
                    };
                    let div = (get(&self.u, 1, 0, 0) - get(&self.u, -1, 0, 0)) / 2.0
                        + (get(&self.v, 0, 1, 0) - get(&self.v, 0, -1, 0)) / 2.0
                        + (get(&self.w, 0, 0, 1) - get(&self.w, 0, 0, -1)) / 2.0;
                    worst = worst.max(div.abs());
                }
            }
        }
        worst
    }

    /// Mean axial velocity over the active cells of plane `k`.
    pub fn mean_axial_velocity(&self, k: usize) -> f64 {
        let (nx, ny) = (self.mesh.nx, self.mesh.ny);
        let mut sum = 0.0;
        let mut n = 0usize;
        for j in 0..ny {
            for i in 0..nx {
                let idx = self.mesh.idx(i, j, k);
                if self.mesh.active_flat(idx) {
                    sum += self.w[idx];
                    n += 1;
                }
            }
        }
        sum / n.max(1) as f64
    }

    /// `(r, w)` samples across plane `k` — the velocity profile.
    pub fn axial_profile(&self, k: usize) -> Vec<(f64, f64)> {
        let (nx, ny) = (self.mesh.nx, self.mesh.ny);
        let mut out = Vec::new();
        for j in 0..ny {
            for i in 0..nx {
                let idx = self.mesh.idx(i, j, k);
                if self.mesh.active_flat(idx) {
                    out.push((self.mesh.r2(i, j).sqrt(), self.w[idx]));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_case() -> CfdSolver {
        let mesh = TubeMesh::cylinder(13, 13, 24, 5.0);
        let cfg = CfdConfig::stable(&mesh, 50.0, 0.1);
        CfdSolver::new(mesh, cfg)
    }

    #[test]
    fn step_is_stable_and_counts_work() {
        let mut s = small_case();
        s.run(20);
        assert_eq!(s.stats.steps, 20);
        assert!(s.stats.cg_iters > 0);
        assert!(s.stats.flops > 1e6);
        // velocities bounded by a modest multiple of the inflow peak
        let wmax = s.w.iter().cloned().fold(0.0_f64, f64::max);
        assert!(wmax.is_finite() && wmax < 0.5, "wmax={wmax}");
    }

    #[test]
    fn projection_reduces_divergence() {
        let mut s = small_case();
        s.run(30);
        let div = s.max_divergence();
        // divergence should be tiny relative to velocity scale / h
        assert!(div < 5e-3, "div={div}");
    }

    #[test]
    fn masked_cells_stay_zero() {
        // the never-write-masked invariant the cross-cell kernels rely on
        let mut s = small_case();
        s.run(15);
        for idx in 0..s.mesh.total_cells() {
            if !s.mesh.active_flat(idx) {
                assert_eq!(s.u[idx], 0.0);
                assert_eq!(s.v[idx], 0.0);
                assert_eq!(s.w[idx], 0.0);
                assert_eq!(s.p[idx], 0.0);
                assert_eq!(s.us[idx], 0.0);
                assert_eq!(s.rhs[idx], 0.0);
                assert_eq!(s.cg_ap[idx], 0.0);
            }
        }
    }

    #[test]
    fn poiseuille_profile_develops() {
        let mesh = TubeMesh::cylinder(13, 13, 40, 5.0);
        let mut cfg = CfdConfig::stable(&mesh, 20.0, 0.08);
        cfg.cg_tol = 1e-9;
        let mut s = CfdSolver::new(mesh, cfg);
        // run long enough to reach steady state
        for _ in 0..40 {
            s.run(25);
        }
        let k = s.mesh.nz / 2;
        let mean = s.mean_axial_velocity(k);
        assert!(mean > 0.01, "flow must develop, mean={mean}");
        // centreline / mean ratio: 2.0 for ideal Poiseuille; coarse grids
        // and entrance effects leave a band
        let profile = s.axial_profile(k);
        let centre = profile
            .iter()
            .filter(|(r, _)| *r < 1.0)
            .map(|(_, w)| *w)
            .fold(0.0_f64, f64::max);
        let ratio = centre / mean;
        assert!(
            (1.5..2.5).contains(&ratio),
            "centre/mean = {ratio}, centre={centre}, mean={mean}"
        );
        // profile must decrease towards the wall
        let near_wall = profile
            .iter()
            .filter(|(r, _)| *r > 4.0)
            .map(|(_, w)| *w)
            .sum::<f64>()
            / profile.iter().filter(|(r, _)| *r > 4.0).count().max(1) as f64;
        assert!(
            near_wall < 0.6 * centre,
            "near_wall={near_wall} centre={centre}"
        );
    }

    #[test]
    fn mass_conservation_along_tube() {
        let mesh = TubeMesh::cylinder(13, 13, 40, 5.0);
        let cfg = CfdConfig::stable(&mesh, 20.0, 0.08);
        let mut s = CfdSolver::new(mesh, cfg);
        for _ in 0..40 {
            s.run(25);
        }
        // steady state: flux through two interior planes must match
        let q1 = s.mean_axial_velocity(10);
        let q2 = s.mean_axial_velocity(30);
        let rel = (q1 - q2).abs() / q1.abs().max(1e-12);
        assert!(rel < 0.08, "flux drift {rel}: q1={q1} q2={q2}");
    }

    #[test]
    fn warm_start_reduces_cg_iterations() {
        let mut s = small_case();
        s.step();
        let first = s.stats.cg_iters;
        let mut before = s.stats.cg_iters;
        let mut later = 0;
        for _ in 0..10 {
            s.step();
            later = s.stats.cg_iters - before;
            before = s.stats.cg_iters;
        }
        assert!(
            later <= first,
            "warm-started steps ({later}) should not exceed the cold start ({first})"
        );
    }

    #[test]
    fn pulsatile_inflow_oscillates_the_flux() {
        let mesh = TubeMesh::cylinder(11, 11, 20, 4.0);
        let mut cfg = CfdConfig::stable(&mesh, 30.0, 0.1);
        let period = 120.0 * cfg.dt;
        cfg.pulsatile = Some((0.5, period));
        let mut s = CfdSolver::new(mesh, cfg);
        // develop the flow, then sample the inflow-plane flux over a cycle
        s.run(240);
        let mut fluxes = Vec::new();
        for _ in 0..120 {
            s.step();
            fluxes.push(s.mean_axial_velocity(1));
        }
        let max = fluxes.iter().cloned().fold(f64::MIN, f64::max);
        let min = fluxes.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max > 1.2 * min.max(1e-9),
            "flux must oscillate over a cycle: min={min} max={max}"
        );
        assert!(fluxes.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn flops_formula_matches_counters() {
        let mut s = small_case();
        s.run(5);
        let active = s.mesh.active_cells() as f64;
        let expected =
            s.stats.steps as f64 * active * (FLOPS_MOMENTUM + FLOPS_DIVERGENCE + FLOPS_CORRECTION)
                + s.stats.cg_iters as f64 * active * FLOPS_CG_ITER;
        let rel = (s.stats.flops - expected).abs() / expected;
        assert!(rel < 1e-12, "rel={rel}");
    }
}
