//! Timing summaries: a median, plus the highest percentile the sample
//! supports, always with the sample count.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond its rank; p99 therefore needs 1000 samples. Where
//! a run has too few samples for any listed percentile (a handful of
//! multi-second campaigns), the tail is the maximum, and the printed
//! label says so.

/// Samples that must lie beyond a percentile's rank for it to count.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// Nearest-rank position (1-based) of percentile `pct` in `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // the epsilon keeps float noise (99.9% of 10 000 is 9990.000…02)
    // from pushing an exact rank up by one
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// The highest percentile of [`TAILS`] with at least [`MIN_BEYOND`]
/// samples beyond its rank, if any qualifies for `n` samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&pct| n >= 1 && n - rank(n, pct) >= MIN_BEYOND)
}

/// Median and tail of one set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value: the qualifying percentile, or the maximum.
    pub tail: f64,
    /// Which percentile `tail` is (`None` = the maximum, too few samples).
    pub tail_pct: Option<f64>,
}

impl Summary {
    /// Summarize `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len());
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail: match tail_pct {
                Some(pct) => percentile(&sorted, pct),
                None => sorted[sorted.len() - 1],
            },
            tail_pct,
        })
    }

    /// `p99` / `max` — how the tail was taken.
    pub fn tail_label(&self) -> String {
        match self.tail_pct {
            Some(pct) => format!("p{pct}"),
            None => "max".to_string(),
        }
    }
}

/// Median of `samples`, or 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond rank 990
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        // p99.9 needs 10 000
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        // p90 needs 100
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summaries_fall_back_to_the_maximum() {
        let few = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((few.n, few.p50, few.tail), (3, 2.0, 3.0));
        assert_eq!(few.tail_label(), "max");
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&many).expect("non-empty");
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.tail, 989.0);
        assert_eq!(s.tail_label(), "p99");
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }
}
