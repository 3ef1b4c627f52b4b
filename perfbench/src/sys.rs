//! What std has no wrapper for: `ppoll(2)`, so the load generator sleeps
//! until a reply arrives or a send falls due; `sched_{get,set}affinity(2)`,
//! to give the daemon and the load generator a CPU each and keep the
//! campaign workloads on one; and the peak resident set
//! of the process under test, from `/proc`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark declares the 64-bit Linux layouts of pollfd and timespec");

use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `SCHED_IDLE`: runs only when nothing else on the CPU wants to.
const SCHED_IDLE: i32 = 5;

/// Threads that keep CPUs busy at the lowest priority while held, so
/// the CPUs never go idle; anything else that wakes on one runs at
/// once. On a virtual machine an idle CPU is handed back to the host,
/// and a wake-up then waits for the host to schedule it again, a delay
/// that varies from minute to minute with the host's load.
pub struct Awake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Awake {
    /// Keep each of `cpus` awake until the guard drops.
    pub fn on(cpus: &[usize]) -> std::io::Result<Awake> {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let mut awake = Awake {
            stop: stop.clone(),
            threads: Vec::new(),
        };
        for &cpu in cpus {
            let (stop, (tx, rx)) = (stop.clone(), std::sync::mpsc::channel());
            awake.threads.push(std::thread::spawn(move || {
                let param = 0i32;
                // SAFETY: `param` is a valid `struct sched_param` (one int)
                // that outlives the call.
                let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                let ready = if idle {
                    pin_to(cpu)
                } else {
                    Err(std::io::Error::last_os_error())
                };
                let ok = ready.is_ok();
                let _ = tx.send(ready);
                while ok && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
            // dropping `awake` on an error stops the threads started so far
            rx.recv().map_err(std::io::Error::other)??;
        }
        Ok(awake)
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> std::io::Result<Vec<usize>> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpus: Vec<usize> = (0..size * 8)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect();
    if cpus.is_empty() {
        return Err(std::io::Error::other("an empty CPU affinity mask"));
    }
    Ok(cpus)
}

/// Restrict the calling thread, the threads it starts later and the
/// processes it spawns later to CPU `cpu`.
pub fn pin_to(cpu: usize) -> std::io::Result<()> {
    let mut one = [0u64; 16];
    let size = std::mem::size_of_val(&one);
    *one.get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other(format!("no CPU {cpu}")))? = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Restrict the calling thread, and the threads it starts later, to the
/// first CPU it may run on.
pub fn pin_to_one_cpu() -> std::io::Result<()> {
    pin_to(allowed_cpus()?[0])
}

/// Sleep until one of `socks` is readable (or writable, where its flag
/// is set), or `timeout` passes. Errors and signals end the wait early;
/// callers re-check their deadlines.
pub fn wait<S: AsRawFd>(socks: &[(&S, bool)], timeout: Duration) {
    let mut fds: Vec<PollFd> = socks
        .iter()
        .map(|(sock, write)| PollFd {
            fd: sock.as_raw_fd(),
            events: if *write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let limit = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` points to `fds.len()` initialized `struct pollfd`s the
    // call may write `revents` into, and `limit` is a valid `struct
    // timespec`; both outlive the call. A null signal mask leaves the
    // thread's mask unchanged.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &limit, std::ptr::null());
    }
}

/// Peak resident set (`VmHWM`) in MiB of process `pid`, or of this
/// process for `None`; 0 if it cannot be read.
///
/// `getrusage(RUSAGE_CHILDREN)` would not do for a spawned daemon: a
/// child started by `vfork` + `exec` inherits the parent's high-water
/// mark at the exec, so it would report the benchmark's own memory.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or("/proc/self/status".to_string(), |pid| {
        format!("/proc/{pid}/status")
    });
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_keeps_to_an_allowed_cpu() {
        let cpus = allowed_cpus().expect("readable mask");
        let last = *cpus.last().expect("at least one CPU");
        // a thread of its own, so the pin does not reach other tests
        std::thread::spawn(move || {
            pin_to(last).expect("an allowed CPU");
            assert_eq!(allowed_cpus().expect("readable mask"), vec![last]);
        })
        .join()
        .expect("the pinned thread ran");
        assert!(pin_to(usize::MAX).is_err());
    }

    #[test]
    fn peak_rss_reads_the_named_process() {
        let own = peak_rss_mb(None);
        assert!(own > 0.0);
        // other tests run alongside, so the mark may have risen since
        assert!(peak_rss_mb(Some(std::process::id())) >= own);
        assert_eq!(peak_rss_mb(Some(u32::MAX)), 0.0, "no such process");
    }
}
