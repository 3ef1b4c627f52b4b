//! The workload intermediate representation.
//!
//! Bulk-synchronous solvers — Alya's CFD and FSI cases included — run as a
//! sequence of *timesteps*, each composed of local compute plus a handful of
//! communication phases. The IR captures exactly that, at the granularity
//! both performance engines can consume:
//!
//! - the **analytic** engine turns each [`CommPhase`] into a closed-form
//!   LogGP cost;
//! - the **DES** engine expands each phase into individual wire messages
//!   (collective rounds, halo neighbours, coupling pairs).
//!
//! Solvers produce a [`JobProfile`] for a given rank count; the profile is
//! placement-independent (the engines combine it with a [`crate::RankMap`]).

/// One communication phase inside a step. Sizes are bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum CommPhase {
    /// 1D chain halo exchange: every rank swaps `bytes` with each existing
    /// neighbour (`rank-1`, `rank+1`), `repeats` times back-to-back.
    Halo1D {
        /// Payload per neighbour per exchange.
        bytes: u64,
        /// Number of back-to-back exchanges (e.g. one per solver iteration
        /// when iterations are otherwise identical).
        repeats: u32,
    },
    /// 3D Cartesian halo exchange: ranks form a `dims.0 × dims.1 × dims.2`
    /// grid (consecutive ranks vary along the first axis, so block node
    /// mapping keeps first-axis neighbours local) and swap `bytes` with each
    /// of up to six face neighbours. This is the communication shape of a
    /// graph-partitioned unstructured mesh like Alya's.
    Halo3D {
        /// Rank-grid dimensions; their product must equal the rank count.
        dims: (u32, u32, u32),
        /// Payload per neighbour per exchange.
        bytes: u64,
        /// Back-to-back exchanges.
        repeats: u32,
    },
    /// Global allreduce of `bytes`, `repeats` times (CG dot products).
    Allreduce {
        /// Payload of one allreduce (8 or 16 bytes for dot products).
        bytes: u64,
        /// How many allreduces in this phase.
        repeats: u32,
    },
    /// Explicit point-to-point pairs (coupling traffic): each `(a, b)` pair
    /// exchanges `bytes` in both directions.
    Pairs {
        /// The communicating rank pairs.
        pairs: Vec<(u32, u32)>,
        /// Payload per direction.
        bytes: u64,
    },
    /// Broadcast of `bytes` from rank 0 (solver settings, time-step size).
    Bcast {
        /// Payload.
        bytes: u64,
    },
    /// Gather of `bytes_per_rank` from every rank to rank 0 (residual
    /// monitoring, witness points).
    Gather {
        /// Contribution of each rank.
        bytes_per_rank: u64,
    },
    /// Full barrier (phase separations, I/O fences).
    Barrier,
}

/// One timestep profile: per-rank compute plus ordered communication phases.
#[derive(Debug, Clone, PartialEq)]
pub struct StepProfile {
    /// Mean floating-point work per rank in this step.
    pub flops_per_rank: f64,
    /// Load imbalance: max-over-ranks / mean (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// OpenMP parallel regions opened during the step (fork/join count).
    pub regions: f64,
    /// Communication phases, in program order.
    pub comm: Vec<CommPhase>,
}

impl StepProfile {
    /// A compute-only step.
    pub fn compute_only(flops_per_rank: f64, regions: f64) -> StepProfile {
        StepProfile {
            flops_per_rank,
            imbalance: 1.0,
            regions,
            comm: Vec::new(),
        }
    }

    /// Total point-to-point style messages one *interior* rank handles in
    /// this step (sends, counting collective rounds at `log2(p)`), used for
    /// sanity reporting.
    pub fn messages_per_rank(&self, ranks: u32) -> u64 {
        let logp = (ranks.max(2) as f64).log2().ceil() as u64;
        self.comm
            .iter()
            .map(|c| match c {
                CommPhase::Halo1D { repeats, .. } => 2 * *repeats as u64,
                CommPhase::Halo3D { repeats, .. } => 6 * *repeats as u64,
                CommPhase::Allreduce { repeats, .. } => logp * *repeats as u64,
                CommPhase::Pairs { pairs, .. } => {
                    // average over ranks
                    (2 * pairs.len() as u64).div_ceil(ranks.max(1) as u64)
                }
                CommPhase::Bcast { .. } => 1,
                CommPhase::Gather { .. } => 1,
                CommPhase::Barrier => logp,
            })
            .sum()
    }

    /// Total bytes an interior rank sends in this step (same conventions).
    pub fn bytes_per_rank(&self, ranks: u32) -> u64 {
        let logp = (ranks.max(2) as f64).log2().ceil() as u64;
        self.comm
            .iter()
            .map(|c| match c {
                CommPhase::Halo1D { bytes, repeats } => 2 * bytes * *repeats as u64,
                CommPhase::Halo3D { bytes, repeats, .. } => 6 * bytes * *repeats as u64,
                CommPhase::Allreduce { bytes, repeats } => logp * bytes * *repeats as u64,
                CommPhase::Pairs { pairs, bytes } => {
                    (2 * pairs.len() as u64 * bytes).div_ceil(ranks.max(1) as u64)
                }
                CommPhase::Bcast { bytes } => *bytes,
                CommPhase::Gather { bytes_per_rank } => *bytes_per_rank,
                CommPhase::Barrier => logp * 8,
            })
            .sum()
    }
}

/// Factor `p` ranks into a near-cubic 3D grid `(a, b, c)`, `a·b·c = p`,
/// with the largest extent on the first (fastest-varying, node-local) axis —
/// the layout `MPI_Dims_create` + block placement would give a 3D-partitioned
/// mesh.
pub fn factor3(p: u32) -> (u32, u32, u32) {
    assert!(p > 0);
    let mut best = (p, 1, 1);
    let mut best_score = u64::MAX;
    let mut a = 1u32;
    while a * a * a <= p {
        if p.is_multiple_of(a) {
            let rest = p / a;
            let mut b = a;
            while b * b <= rest {
                if rest.is_multiple_of(b) {
                    let c = rest / b;
                    // minimize surface ~ ab + bc + ca
                    let score =
                        (a as u64 * b as u64) + (b as u64 * c as u64) + (c as u64 * a as u64);
                    if score < best_score {
                        best_score = score;
                        // largest extent first
                        let mut dims = [a, b, c];
                        dims.sort_unstable_by(|x, y| y.cmp(x));
                        best = (dims[0], dims[1], dims[2]);
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// Coordinates of `rank` in a 3D rank grid (first axis fastest).
pub fn grid_coords(rank: u32, dims: (u32, u32, u32)) -> (u32, u32, u32) {
    let (a, b, _) = dims;
    (rank % a, (rank / a) % b, rank / (a * b))
}

/// The up-to-six face neighbours of `rank` in a 3D rank grid, in axis
/// order (x−, x+, y−, y+, z−, z+), held inline so a walk over the ranks
/// allocates nothing per rank.
pub fn grid_neighbors(rank: u32, dims: (u32, u32, u32)) -> Neighbors {
    let (a, b, c) = dims;
    let (x, y, z) = grid_coords(rank, dims);
    let idx = |x: u32, y: u32, z: u32| x + a * (y + b * z);
    let mut out = Neighbors {
        ranks: [0; 6],
        len: 0,
    };
    let mut push = |r: u32| {
        out.ranks[out.len as usize] = r;
        out.len += 1;
    };
    if x > 0 {
        push(idx(x - 1, y, z));
    }
    if x + 1 < a {
        push(idx(x + 1, y, z));
    }
    if y > 0 {
        push(idx(x, y - 1, z));
    }
    if y + 1 < b {
        push(idx(x, y + 1, z));
    }
    if z > 0 {
        push(idx(x, y, z - 1));
    }
    if z + 1 < c {
        push(idx(x, y, z + 1));
    }
    out
}

/// Call `f(rank, neighbour)` once for every face two ranks of a 3D rank
/// grid share, with `rank < neighbour`, walking the grid first axis
/// fastest so no rank's coordinates need a division. Both directions of
/// every face are exactly the messages [`grid_neighbors`] lists over all
/// ranks.
#[inline]
pub fn for_each_grid_face(dims: (u32, u32, u32), mut f: impl FnMut(u32, u32)) {
    let (a, b, c) = dims;
    let mut r = 0;
    for z in 0..c {
        for y in 0..b {
            for x in 0..a {
                if x + 1 < a {
                    f(r, r + 1);
                }
                if y + 1 < b {
                    f(r, r + a);
                }
                if z + 1 < c {
                    f(r, r + a * b);
                }
                r += 1;
            }
        }
    }
}

/// A rank's face neighbours: at most six, inline. Derefs to the slice of
/// the present ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbors {
    ranks: [u32; 6],
    len: u8,
}

impl std::ops::Deref for Neighbors {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.ranks[..self.len as usize]
    }
}

impl IntoIterator for Neighbors {
    type Item = u32;
    type IntoIter = std::iter::Take<std::array::IntoIter<u32, 6>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ranks.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a Neighbors {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A whole job: a run-length-encoded sequence of step profiles.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobProfile {
    /// `(step, repetitions)` in execution order.
    pub steps: Vec<(StepProfile, u32)>,
}

impl JobProfile {
    /// A job of `n` identical steps.
    pub fn uniform(step: StepProfile, n: u32) -> JobProfile {
        JobProfile {
            steps: vec![(step, n)],
        }
    }

    /// Total timesteps.
    pub fn total_steps(&self) -> u64 {
        self.steps.iter().map(|(_, n)| *n as u64).sum()
    }

    /// Total floating-point work across all ranks.
    pub fn total_flops(&self, ranks: u32) -> f64 {
        self.steps
            .iter()
            .map(|(s, n)| s.flops_per_rank * ranks as f64 * *n as f64)
            .sum()
    }

    /// Scale the job length by keeping only `n` representative steps of each
    /// kind (the engines multiply back) — used to keep DES event counts
    /// tractable. Returns `(shortened profile, time multiplier)`.
    pub fn truncated(&self, max_steps_per_kind: u32) -> (JobProfile, f64) {
        let mut shortened = JobProfile::default();
        let mut orig = 0.0;
        let mut kept = 0.0;
        for (s, n) in &self.steps {
            let keep = (*n).min(max_steps_per_kind);
            orig += *n as f64;
            kept += keep as f64;
            shortened.steps.push((s.clone(), keep));
        }
        let multiplier = if kept > 0.0 { orig / kept } else { 1.0 };
        (shortened, multiplier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_step() -> StepProfile {
        StepProfile {
            flops_per_rank: 1e9,
            imbalance: 1.05,
            regions: 40.0,
            comm: vec![
                CommPhase::Halo1D {
                    bytes: 160_000,
                    repeats: 1,
                },
                CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 30,
                },
            ],
        }
    }

    #[test]
    fn uniform_job_accounting() {
        let job = JobProfile::uniform(sample_step(), 100);
        assert_eq!(job.total_steps(), 100);
        let flops = job.total_flops(112);
        assert!((flops - 1e9 * 112.0 * 100.0).abs() / flops < 1e-12);
    }

    #[test]
    fn per_rank_message_counts() {
        let s = sample_step();
        // 2 halo sends + 30 allreduces x log2(112)=7 rounds
        assert_eq!(s.messages_per_rank(112), 2 + 30 * 7);
        assert_eq!(s.bytes_per_rank(112), 2 * 160_000 + 30 * 7 * 8);
    }

    #[test]
    fn truncation_preserves_total_work() {
        let job = JobProfile::uniform(sample_step(), 600);
        let (short, mult) = job.truncated(10);
        assert_eq!(short.total_steps(), 10);
        assert!((mult - 60.0).abs() < 1e-12);
        let full = job.total_flops(8);
        let scaled = short.total_flops(8) * mult;
        assert!((full - scaled).abs() / full < 1e-12);
    }

    #[test]
    fn truncation_of_short_jobs_is_identity() {
        let job = JobProfile::uniform(sample_step(), 5);
        let (short, mult) = job.truncated(10);
        assert_eq!(short, job);
        assert_eq!(mult, 1.0);
    }

    #[test]
    fn factor3_products_and_shapes() {
        for p in [1u32, 2, 8, 28, 48, 112, 192, 640, 12_288, 97] {
            let (a, b, c) = factor3(p);
            assert_eq!(a * b * c, p, "p={p}");
            assert!(a >= b && b >= c, "sorted descending: p={p} -> {a}x{b}x{c}");
        }
        assert_eq!(factor3(8), (2, 2, 2));
        assert_eq!(factor3(64), (4, 4, 4));
        // primes degrade to a chain
        assert_eq!(factor3(97), (97, 1, 1));
    }

    #[test]
    fn grid_neighbors_symmetric_and_bounded() {
        let dims = factor3(48);
        for r in 0..48 {
            let nbs = grid_neighbors(r, dims);
            assert!(nbs.len() <= 6);
            for nb in nbs {
                assert!(nb < 48);
                assert!(
                    grid_neighbors(nb, dims).contains(&r),
                    "neighbourhood must be symmetric: {r} <-> {nb}"
                );
            }
        }
    }

    #[test]
    fn grid_neighbors_come_in_axis_order() {
        // the centre of a 3x3x3 grid: x-, x+, y-, y+, z-, z+
        assert_eq!(*grid_neighbors(13, (3, 3, 3)), [12, 14, 10, 16, 4, 22]);
        // a corner has one neighbour per axis, and a chain has no y or z
        assert_eq!(*grid_neighbors(0, (3, 3, 3)), [1, 3, 9]);
        assert_eq!(
            grid_neighbors(4, (5, 1, 1)).into_iter().collect::<Vec<_>>(),
            [3]
        );
    }

    #[test]
    fn grid_faces_are_the_neighbour_lists_both_ways() {
        for dims in [
            (1, 1, 1),
            (5, 1, 1),
            (3, 3, 3),
            (4, 3, 2),
            factor3(48),
            factor3(97),
        ] {
            let p = dims.0 * dims.1 * dims.2;
            let mut listed: Vec<(u32, u32)> = (0..p)
                .flat_map(|r| grid_neighbors(r, dims).into_iter().map(move |nb| (r, nb)))
                .collect();
            let mut faces = Vec::new();
            for_each_grid_face(dims, |r, q| {
                assert!(r < q);
                faces.extend([(r, q), (q, r)]);
            });
            listed.sort_unstable();
            faces.sort_unstable();
            assert_eq!(faces, listed, "dims {dims:?}");
        }
    }

    #[test]
    fn grid_coords_roundtrip() {
        let dims = (4, 3, 2);
        for r in 0..24 {
            let (x, y, z) = grid_coords(r, dims);
            assert_eq!(x + 4 * (y + 3 * z), r);
        }
    }

    #[test]
    fn consecutive_ranks_are_x_neighbors() {
        let dims = factor3(64); // (4,4,4)
                                // ranks 0 and 1 differ only in x -> neighbours (node locality)
        assert!(grid_neighbors(0, dims).contains(&1));
    }

    #[test]
    fn pairs_phase_counts() {
        let s = StepProfile {
            flops_per_rank: 0.0,
            imbalance: 1.0,
            regions: 0.0,
            comm: vec![CommPhase::Pairs {
                pairs: vec![(0, 4), (1, 5)],
                bytes: 1000,
            }],
        };
        assert!(s.messages_per_rank(8) >= 1);
        assert!(s.bytes_per_rank(8) >= 500);
    }
}
