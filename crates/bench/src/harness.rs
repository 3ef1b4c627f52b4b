//! A self-contained micro-benchmark harness with a Criterion-shaped API.
//!
//! The benches only need a tiny slice of Criterion: named groups, a
//! per-group sample size, element throughput, and `Bencher::iter`. This
//! module provides exactly that over `std::time::Instant`, so the bench
//! targets build and run with no external crates. Each benchmark runs a
//! warm-up pass and then samples under a wall-clock budget, printing
//! `ns/iter` (and elements/s when a throughput was declared).
//!
//! Like Criterion, a bench binary takes a filter as its first argument
//! that does not start with `--`, and runs only the benchmarks whose
//! `group/function` name contains it:
//! `cargo bench -p harborsim-bench --bench engine_micro -- wire` times
//! the `wire` group alone.

use std::time::{Duration, Instant};

/// Wall-clock budget per benchmark function.
const BENCH_BUDGET: Duration = Duration::from_millis(300);

/// Entry point state; mirrors `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    /// Run only benchmarks whose `group/function` contains this.
    filter: Option<String>,
}

/// Declared work per iteration, for rate reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

impl Criterion {
    /// A harness filtered by a bench binary's arguments: the first one
    /// that does not start with `--` (cargo passes `--bench`), if any.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Criterion {
        Criterion {
            filter: args.into_iter().find(|a| !a.starts_with("--")),
        }
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            throughput: None,
            filter: self.filter.clone(),
        }
    }
}

/// A group of related benchmarks sharing sample-size and throughput
/// settings; mirrors `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    filter: Option<String>,
}

impl BenchmarkGroup {
    /// Cap the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare per-iteration work for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Time a benchmark function, reported as `group/name`; skipped
    /// unless that name contains the harness's filter.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !format!("{}/{name}", self.name).contains(filter.as_str()) {
                return self;
            }
        }
        let mut b = Bencher {
            max_samples: self.sample_size as u64,
            iters: 0,
            total: Duration::ZERO,
        };
        f(&mut b);
        self.report(name, &b);
        self
    }

    /// End the group (kept for API parity; reporting is per-function).
    pub fn finish(&mut self) {}

    fn report(&self, name: &str, b: &Bencher) {
        if b.iters == 0 {
            println!("bench {}/{name}: no samples", self.name);
            return;
        }
        let ns_per_iter = b.total.as_nanos() as f64 / b.iters as f64;
        match self.throughput {
            Some(Throughput::Elements(n)) => {
                let rate = n as f64 * b.iters as f64 / b.total.as_secs_f64();
                println!(
                    "bench {}/{name}: {ns_per_iter:.0} ns/iter ({} samples, {rate:.3e} elem/s)",
                    self.name, b.iters
                );
            }
            None => {
                println!(
                    "bench {}/{name}: {ns_per_iter:.0} ns/iter ({} samples)",
                    self.name, b.iters
                );
            }
        }
    }
}

/// Passed to each benchmark closure; mirrors `criterion::Bencher`.
pub struct Bencher {
    max_samples: u64,
    iters: u64,
    total: Duration,
}

impl Bencher {
    /// Run `f` once to warm up, then repeatedly under the sample cap and
    /// wall-clock budget, accumulating timing.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        std::hint::black_box(f());
        let started = Instant::now();
        loop {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.total += t0.elapsed();
            self.iters += 1;
            if self.iters >= self.max_samples || started.elapsed() >= BENCH_BUDGET {
                break;
            }
        }
    }

    /// Like [`Bencher::iter`], but each sample first builds a fresh input
    /// with `setup`, untimed, and times only `routine` on it. The routine's
    /// output is dropped after the clock stops, so a routine can hand its
    /// input back to keep that drop out of the timing.
    pub fn iter_with_setup<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
    ) {
        std::hint::black_box(routine(setup()));
        let started = Instant::now();
        loop {
            let input = setup();
            let t0 = Instant::now();
            let output = routine(input);
            self.total += t0.elapsed();
            drop(std::hint::black_box(output));
            self.iters += 1;
            if self.iters >= self.max_samples || started.elapsed() >= BENCH_BUDGET {
                break;
            }
        }
    }
}

/// Mirrors `criterion::criterion_group!`: bundles bench functions into one
/// runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::from_args(std::env::args().skip(1));
            $($target(&mut c);)+
        }
    };
}

/// Mirrors `criterion::criterion_main!`: the bench binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("selftest");
        g.sample_size(3);
        let mut runs = 0u64;
        g.bench_function("counting", |b| {
            b.iter(|| {
                runs += 1;
                runs
            });
        });
        g.finish();
        // one warm-up + at most three samples
        assert!((2..=4).contains(&runs), "runs={runs}");
    }

    #[test]
    fn the_filter_selects_by_group_and_function() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut c = Criterion::from_args(args(&["--bench", "test/al"]));
        let mut g = c.benchmark_group("selftest");
        g.sample_size(1);
        let mut ran = Vec::new();
        for name in ["alpha", "beta"] {
            g.bench_function(name, |b| b.iter(|| ran.push(name)));
        }
        assert!(
            ran.iter().all(|&n| n == "alpha") && !ran.is_empty(),
            "{ran:?}"
        );
        // no filter runs everything
        let mut c = Criterion::from_args(args(&["--bench"]));
        let mut g = c.benchmark_group("selftest");
        g.sample_size(1);
        let mut ran = 0;
        for name in ["alpha", "beta"] {
            g.bench_function(name, |b| b.iter(|| ran += 1));
        }
        assert_eq!(ran, 4, "a warm-up and one sample each");
    }

    #[test]
    fn bencher_with_setup_builds_one_input_per_run() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("selftest");
        g.sample_size(3);
        let (mut built, mut runs) = (0u64, 0u64);
        g.bench_function("with_setup", |b| {
            b.iter_with_setup(
                || {
                    built += 1;
                    built
                },
                |input| {
                    runs += 1;
                    assert_eq!(input, runs, "each run gets its own fresh input");
                },
            );
        });
        g.finish();
        assert_eq!(built, runs);
        assert!((2..=4).contains(&runs), "runs={runs}");
    }
}
