//! The host's pace: how fast a CPU runs a fixed piece of work right now,
//! relative to a fixed reference.
//!
//! On a shared host the same work can run 1.5 times slower, or more, for
//! minutes at a time, and every timing of a run moves with it. The
//! benchmark samples the pace between its timed operations and divides
//! each timing by the pace around it, so a timing reads what it would at
//! the reference pace. The probes are the benchmark's own code, so a
//! change to the program under test moves the scaled timings exactly as
//! it moves the raw ones.
//!
//! Each timing uses the probe that slows down the way its work does.
//! The daemon's time goes to syscalls and thread hand-offs, which a host
//! under contention slows far more than plain arithmetic: its CPU time
//! per request tracked a socket ping-pong between two threads, and not a
//! table walk. Starting the daemon is a process start, paced by starting
//! a process. The in-process campaigns are arithmetic and memory, which
//! the table walk tracks.

use crate::stats::median;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Table words the compute probe walks: 256 KiB, inside a core's L2, so
/// the probe sees both the core's speed and its cache.
const TABLE_WORDS: usize = 1 << 15;
/// Dependent steps of one compute probe.
const STEPS: usize = 60_000;
/// Round trips of one switch probe.
const ROUND_TRIPS: usize = 150;
/// Probes per sample; the sample is their median, so an interrupt or a
/// preemption inside one probe does not move it.
const PROBES: usize = 7;

/// What a probe measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// A chain of dependent reads and writes over a table in L2.
    Compute,
    /// One-byte round trips over a socket pair between this thread and
    /// one it starts on the same CPU: syscalls and context switches.
    Switch,
    /// Start this program with [`IDLE_FLAG`] and wait for it to exit:
    /// exec, page faults and process teardown.
    Spawn,
}

/// The flag that makes this program exit at once, for [`Probe::Spawn`].
pub const IDLE_FLAG: &str = "--exit-at-once";

impl Probe {
    /// What one probe takes at the reference pace, in ns: about what it
    /// took on the 2-vCPU host the benchmark was built on, when quiet.
    fn reference_ns(self) -> f64 {
        match self {
            Probe::Compute => 360_000.0,
            Probe::Switch => 4_500.0 * ROUND_TRIPS as f64,
            Probe::Spawn => 800_000.0,
        }
    }
}

/// A probe and its state.
pub struct Pace {
    probe: Probe,
    table: Vec<u64>,
}

impl Pace {
    /// A probe of kind `probe`, ready to sample.
    pub fn new(probe: Probe) -> Pace {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let words = if probe == Probe::Compute {
            TABLE_WORDS
        } else {
            0
        };
        let table = (0..words)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Pace { probe, table }
    }

    /// One table walk; its wall time in ns.
    fn walk(&mut self) -> f64 {
        let mask = TABLE_WORDS - 1;
        let mut x = black_box(self.table[0]) | 1;
        let t0 = Instant::now();
        for _ in 0..STEPS {
            let i = (x >> 17) as usize & mask;
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ self.table[i];
            self.table[i] = x.rotate_left(23);
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9;
        black_box(x);
        ns
    }

    /// [`PROBES`] ping-pong runs against an echo thread; their wall
    /// times in ns. The echo thread inherits this thread's CPU.
    fn ping_pong() -> std::io::Result<Vec<f64>> {
        let (mut near, mut far) = UnixStream::pair()?;
        let echo = std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            while far.read_exact(&mut byte).is_ok() && far.write_all(&byte).is_ok() {}
        });
        let mut byte = [1u8; 1];
        let mut runs = Vec::with_capacity(PROBES);
        let mut run = || -> std::io::Result<()> {
            for _ in 0..PROBES {
                let t0 = Instant::now();
                for _ in 0..ROUND_TRIPS {
                    near.write_all(&byte)?;
                    near.read_exact(&mut byte)?;
                }
                runs.push(t0.elapsed().as_secs_f64() * 1e9);
            }
            Ok(())
        };
        let result = run();
        // closing our end ends the echo loop
        drop(near);
        echo.join()
            .map_err(|_| std::io::Error::other("the echo thread panicked"))?;
        result.map(|()| runs)
    }

    /// [`PROBES`] starts of this program that exit at once; their wall
    /// times in ns.
    fn spawns() -> std::io::Result<Vec<f64>> {
        // the probe reads and writes nothing; its output is discarded
        let exe = std::env::current_exe()?;
        (0..PROBES)
            .map(|_| {
                let t0 = Instant::now();
                let status = std::process::Command::new(&exe)
                    .arg(IDLE_FLAG)
                    .stdin(std::process::Stdio::null())
                    .stdout(std::process::Stdio::null())
                    .status()?;
                if !status.success() {
                    return Err(std::io::Error::other(format!(
                        "the spawn probe exited {status}"
                    )));
                }
                Ok(t0.elapsed().as_secs_f64() * 1e9)
            })
            .collect()
    }

    /// The pace now: the median probe over the reference probe. Above 1
    /// the host runs slower than the reference.
    pub fn sample(&mut self) -> std::io::Result<f64> {
        let probes = match self.probe {
            Probe::Compute => (0..PROBES).map(|_| self.walk()).collect(),
            Probe::Switch => Pace::ping_pong()?,
            Probe::Spawn => Pace::spawns()?,
        };
        Ok(median(&probes) / self.probe.reference_ns())
    }
}

/// `timings[k]` at the reference pace, where `paces[k]` and
/// `paces[k + 1]` were sampled just before and just after it.
///
/// # Panics
/// Unless there is one more pace than timings.
pub fn scale(timings: &[f64], paces: &[f64]) -> Vec<f64> {
    assert_eq!(paces.len(), timings.len() + 1, "a pace around each timing");
    timings
        .iter()
        .zip(paces.windows(2))
        .map(|(t, p)| t / ((p[0] + p[1]) / 2.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_scale_by_the_pace_around_them() {
        let scaled = scale(&[10.0, 10.0, 30.0], &[1.0, 1.0, 2.0, 1.0]);
        assert_eq!(scaled, vec![10.0, 10.0 / 1.5, 20.0]);
    }

    #[test]
    fn both_probes_give_a_positive_pace() {
        for probe in [Probe::Compute, Probe::Switch] {
            let p = Pace::new(probe).sample().expect("the probe runs");
            assert!(p.is_finite() && p > 0.0, "{probe:?}: {p}");
        }
    }
}
