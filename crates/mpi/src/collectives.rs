//! Collective-operation algorithms: round structures shared by both engines.
//!
//! A collective is described as a list of *rounds*; within a round every
//! listed message can fly concurrently, and rounds execute back-to-back.
//! The DES engine materializes each message; the analytic engine costs each
//! round with a closed form. Keeping one source of truth for the round
//! structure is what makes the two engines cross-validate.

/// A directed message within a collective round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundMsg {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
}

/// One round: messages that may all be in flight simultaneously.
pub type Round = Vec<RoundMsg>;

/// Allreduce algorithm choice (the ablation of DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllreduceAlgo {
    /// Recursive doubling: `ceil(log2 p)` rounds of full-size pairwise
    /// exchanges. Optimal for small payloads (latency-bound) — MPI
    /// libraries pick it for the 8-byte dot products that dominate Alya.
    #[default]
    RecursiveDoubling,
    /// Ring: `2(p-1)` rounds of `bytes/p` neighbour messages. Bandwidth
    /// optimal for large payloads, latency-catastrophic for small ones.
    Ring,
    /// Rabenseifner: reduce-scatter + allgather, `2·ceil(log2 p)` rounds of
    /// geometrically shrinking/growing payloads. Good middle ground.
    Rabenseifner,
}

/// Messages of a full pairwise-exchange round at distance `2^k`
/// (both directions of every pair).
fn pairwise_round(p: u32, k: u32, bytes: u64) -> Round {
    let dist = 1u32 << k;
    let mut msgs = Vec::new();
    for r in 0..p {
        let partner = r ^ dist;
        if partner < p {
            msgs.push(RoundMsg {
                src: r,
                dst: partner,
                bytes,
            });
        }
    }
    msgs
}

/// Number of rounds of a log-structured collective over `p` ranks.
pub fn log2_rounds(p: u32) -> u32 {
    if p <= 1 {
        0
    } else {
        32 - (p - 1).leading_zeros()
    }
}

/// The round plan of one allreduce of `bytes` over `p` ranks.
pub fn allreduce_rounds(algo: AllreduceAlgo, p: u32, bytes: u64) -> Vec<Round> {
    if p <= 1 {
        return Vec::new();
    }
    match algo {
        AllreduceAlgo::RecursiveDoubling => (0..log2_rounds(p))
            .map(|k| pairwise_round(p, k, bytes))
            .collect(),
        AllreduceAlgo::Ring => {
            // reduce-scatter then allgather around the ring; 2(p-1) rounds
            // of bytes/p each, every rank sending to its right neighbour
            let chunk = bytes.div_ceil(p as u64).max(1);
            (0..2 * (p - 1))
                .map(|_| {
                    (0..p)
                        .map(|r| RoundMsg {
                            src: r,
                            dst: (r + 1) % p,
                            bytes: chunk,
                        })
                        .collect()
                })
                .collect()
        }
        AllreduceAlgo::Rabenseifner => {
            let rounds = log2_rounds(p);
            let mut plan = Vec::with_capacity(2 * rounds as usize);
            // reduce-scatter: volumes halve each round
            for k in 0..rounds {
                let vol = (bytes >> (k + 1)).max(1);
                plan.push(pairwise_round(p, k, vol));
            }
            // allgather: volumes double back
            for k in (0..rounds).rev() {
                let vol = (bytes >> (k + 1)).max(1);
                plan.push(pairwise_round(p, k, vol));
            }
            plan
        }
    }
}

/// Binomial-tree broadcast from rank 0: round `k` has ranks `< 2^k` sending
/// to `rank + 2^k`.
pub fn bcast_rounds(p: u32, bytes: u64) -> Vec<Round> {
    if p <= 1 {
        return Vec::new();
    }
    (0..log2_rounds(p))
        .map(|k| {
            let dist = 1u32 << k;
            (0..dist.min(p))
                .filter(|r| r + dist < p)
                .map(|r| RoundMsg {
                    src: r,
                    dst: r + dist,
                    bytes,
                })
                .collect()
        })
        .collect()
}

/// Dissemination barrier: round `k` has every rank sending 8 bytes to
/// `(rank + 2^k) mod p`.
pub fn barrier_rounds(p: u32) -> Vec<Round> {
    if p <= 1 {
        return Vec::new();
    }
    (0..log2_rounds(p))
        .map(|k| {
            let dist = 1u32 << k;
            (0..p)
                .map(|r| RoundMsg {
                    src: r,
                    dst: (r + dist) % p,
                    bytes: 8,
                })
                .collect()
        })
        .collect()
}

/// Linear gather to rank 0: a single "round" of everyone sending to root
/// (the root serializes reception on its NIC, which both engines model).
pub fn gather_rounds(p: u32, bytes_per_rank: u64) -> Vec<Round> {
    if p <= 1 {
        return Vec::new();
    }
    vec![(1..p)
        .map(|r| RoundMsg {
            src: r,
            dst: 0,
            bytes: bytes_per_rank,
        })
        .collect()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn log2_rounds_values() {
        assert_eq!(log2_rounds(1), 0);
        assert_eq!(log2_rounds(2), 1);
        assert_eq!(log2_rounds(8), 3);
        assert_eq!(log2_rounds(9), 4);
        assert_eq!(log2_rounds(112), 7);
        assert_eq!(log2_rounds(12_288), 14);
    }

    #[test]
    fn recursive_doubling_power_of_two_is_complete() {
        let rounds = allreduce_rounds(AllreduceAlgo::RecursiveDoubling, 8, 64);
        assert_eq!(rounds.len(), 3);
        for round in &rounds {
            // every rank appears exactly once as src and once as dst
            let srcs: HashSet<u32> = round.iter().map(|m| m.src).collect();
            let dsts: HashSet<u32> = round.iter().map(|m| m.dst).collect();
            assert_eq!(srcs.len(), 8);
            assert_eq!(dsts.len(), 8);
            for m in round {
                assert_eq!(m.bytes, 64);
            }
        }
    }

    #[test]
    fn recursive_doubling_nonpower_skips_out_of_range() {
        let rounds = allreduce_rounds(AllreduceAlgo::RecursiveDoubling, 6, 8);
        assert_eq!(rounds.len(), 3);
        for round in &rounds {
            for m in round {
                assert!(m.src < 6 && m.dst < 6);
            }
        }
    }

    #[test]
    fn ring_round_count_and_volume() {
        let p = 8;
        let bytes = 800;
        let rounds = allreduce_rounds(AllreduceAlgo::Ring, p, bytes);
        assert_eq!(rounds.len() as u32, 2 * (p - 1));
        let per_round_bytes = rounds[0][0].bytes;
        assert_eq!(per_round_bytes, 100);
        // total volume per rank: 2(p-1) * bytes/p ~ 2*bytes*(p-1)/p
        let total: u64 = rounds.iter().map(|r| r[0].bytes).sum();
        assert_eq!(total, 1400);
    }

    #[test]
    fn rabenseifner_volume_shrinks_then_grows() {
        let rounds = allreduce_rounds(AllreduceAlgo::Rabenseifner, 8, 1024);
        assert_eq!(rounds.len(), 6);
        let vols: Vec<u64> = rounds.iter().map(|r| r[0].bytes).collect();
        assert_eq!(vols, vec![512, 256, 128, 128, 256, 512]);
    }

    #[test]
    fn bcast_reaches_everyone_exactly_once() {
        for p in [2u32, 5, 8, 13, 48] {
            let rounds = bcast_rounds(p, 100);
            let mut reached: HashSet<u32> = HashSet::from([0]);
            for round in &rounds {
                for m in round {
                    assert!(
                        reached.contains(&m.src),
                        "p={p}: rank {} sends before it has the data",
                        m.src
                    );
                    assert!(
                        reached.insert(m.dst),
                        "p={p}: duplicate delivery to {}",
                        m.dst
                    );
                }
            }
            assert_eq!(reached.len() as u32, p, "p={p}");
        }
    }

    #[test]
    fn barrier_rounds_wrap_around() {
        let rounds = barrier_rounds(5);
        assert_eq!(rounds.len(), 3);
        for round in &rounds {
            assert_eq!(round.len(), 5);
        }
        // round 2: distance 4 wraps: rank 1 -> rank 0
        assert!(rounds[2].iter().any(|m| m.src == 1 && m.dst == 0));
    }

    #[test]
    fn gather_is_everyone_to_root() {
        let rounds = gather_rounds(6, 48);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].len(), 5);
        assert!(rounds[0].iter().all(|m| m.dst == 0 && m.bytes == 48));
    }

    /// The closed-form per-rank byte total each algorithm promises; the
    /// round plans must conserve it exactly. Pairwise algorithms exchange
    /// symmetrically (r sends to `r^2^k` iff that partner exists, which
    /// also sends back), so sent and received totals coincide per rank.
    fn closed_form_bytes(algo: AllreduceAlgo, p: u32, r: u32, bytes: u64) -> u64 {
        let partnered = |k: u32| r ^ (1u32 << k) < p;
        match algo {
            AllreduceAlgo::RecursiveDoubling => {
                bytes * (0..log2_rounds(p)).filter(|&k| partnered(k)).count() as u64
            }
            AllreduceAlgo::Ring => 2 * u64::from(p - 1) * bytes.div_ceil(u64::from(p)).max(1),
            AllreduceAlgo::Rabenseifner => {
                2 * (0..log2_rounds(p))
                    .filter(|&k| partnered(k))
                    .map(|k| (bytes >> (k + 1)).max(1))
                    .sum::<u64>()
            }
        }
    }

    #[test]
    fn per_rank_byte_totals_match_closed_forms() {
        for p in 2..=64u32 {
            for bytes in [8u64, 1000, 1 << 20] {
                for algo in [
                    AllreduceAlgo::RecursiveDoubling,
                    AllreduceAlgo::Ring,
                    AllreduceAlgo::Rabenseifner,
                ] {
                    let mut sent = vec![0u64; p as usize];
                    let mut recv = vec![0u64; p as usize];
                    for round in allreduce_rounds(algo, p, bytes) {
                        for m in round {
                            sent[m.src as usize] += m.bytes;
                            recv[m.dst as usize] += m.bytes;
                        }
                    }
                    for r in 0..p {
                        let want = closed_form_bytes(algo, p, r, bytes);
                        assert_eq!(
                            sent[r as usize], want,
                            "{algo:?} p={p} bytes={bytes} rank {r}: sent"
                        );
                        assert_eq!(
                            recv[r as usize], want,
                            "{algo:?} p={p} bytes={bytes} rank {r}: received"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_rank_collectives_are_free() {
        assert!(allreduce_rounds(AllreduceAlgo::RecursiveDoubling, 1, 8).is_empty());
        assert!(bcast_rounds(1, 8).is_empty());
        assert!(barrier_rounds(1).is_empty());
        assert!(gather_rounds(1, 8).is_empty());
    }
}
