//! The epoll reactor front end: one thread multiplexing every
//! connection, answering warm queries itself.
//!
//! ```text
//!                    epoll_wait
//!   listener ──────┐     │                     ┌──────────────────┐
//!   wake pipe ─────┤     ▼                     │  WorkerPool      │
//!   conn 0..N ─────┴─► reactor ───── Job ─────►│  one FIFO queue, │
//!                      │  ▲  parse/decode/     │  one worker per  │
//!                      │  │  flush             │  CPU (engine     │
//!       warm analytic  │  │                    │  runs off-thread)│
//!       execute: runs ─┘  │                    └────────┬─────────┘
//!       here, no hand-off └── completions ◄── response ─┘
//!                             (queue; a wake-pipe byte only when
//!                              the reactor has none undrained)
//! ```
//!
//! Per connection, a small state machine over two reused buffers:
//! `rbuf` accumulates reads until [`http::parse_head`] yields a full
//! head and the `Content-Length` body is present. Each request is
//! stamped with a sequence number and its method and path are
//! classified once into a `Route`. Then it is answered on one of two
//! paths:
//!
//! - **Here, on the reactor thread.** A `POST /v1/lab` body of at most
//!   `INLINE_MAX_BODY` (4 KiB; hot requests are about 250 bytes) is
//!   decoded here; a decode error is answered `400` here. A decoded
//!   `Execute` whose plan is resident, on the analytic engine, with at
//!   most [`INLINE_MAX_RANKS`](crate::lab::INLINE_MAX_RANKS) (256) ranks
//!   runs to completion here through
//!   [`QueryEngine::handle_warm`](crate::lab::QueryEngine::handle_warm).
//!   That skips both thread crossings of the pool path — a boxed job
//!   through the pool's queue, and the reply back through the
//!   completion queue, a wake-pipe byte and an epoll wake — which were
//!   most of a warm round trip while the execute itself takes
//!   microseconds. The two caps bound what this thread can spend on one
//!   request: a body at the 8 MiB cap would stall every connection for
//!   its decode, and the analytic engine's first execute of a plan
//!   costs its job, which grows with ranks (the largest plan on the
//!   benchmark's hot menu, 192 ranks, costs in about 41 µs and replays
//!   in about 1 µs after that; a 256-node FSI plan's costing takes
//!   milliseconds).
//! - **On the pool,** for everything else: cold, DES or large plans,
//!   plans, batches, campaigns, stats, shutdown, 404s and large bodies.
//!   A request decoded here travels as its `LabRequest`, so it is never
//!   decoded twice; a large body travels undecoded. The worker runs
//!   the job, renders the full HTTP response bytes, pushes them on the
//!   completion queue, and rings the wake pipe.
//!
//! The pool is as large as the daemon's caller makes it, and
//! `reproduce_all --serve` gives it one worker per CPU the process may
//! run on ([`harborsim_par::parallelism`]). A hand-off costs at most
//! one wake-up each way: a submit wakes a worker only if one is idle,
//! and a worker's ring writes a wake-pipe byte only if the reactor has
//! not yet drained the last one; it files every queued completion each
//! loop turn. The pool runs jobs first in, first out. So on a one-CPU
//! daemon a long campaign delays the cold requests queued behind it,
//! where more workers than CPUs would have time-sliced them with it on
//! the same CPU, at the cost of a thread, a malloc arena and a context
//! switch each. Warm executes never queue: they are answered here.
//!
//! Both paths render replies through the same `answer` function, so a
//! query's bytes do not depend on where it ran. The reactor files
//! every reply by sequence number, so pipelined requests are answered
//! strictly in request order: an answer given here waits in the reorder
//! buffer behind earlier pooled requests on its connection, and one
//! that is next in line renders straight into `wbuf`. `wbuf` drains to
//! the socket under `EPOLLOUT` when a write would block (partial writes
//! keep their position; interest is re-armed until the buffer empties).
//!
//! One write per readiness event: a parse pass handles every complete
//! request in `rbuf` and then flushes once, and a batch of completions
//! is filed whole before each connection it touched flushes once. So
//! replies to requests pipelined in one read share a `write(2)`, and
//! the first of them waits for the rest of that read's inline work —
//! at most one 16 KiB read's worth (see Fairness). A pass paused on
//! the write backlog runs again when its flush frees budget, so it
//! never stalls with an empty socket and nothing in flight. Framing
//! errors and close-after-drain flush through the same point.
//!
//! Fairness: once a read has produced answers given here, the reactor
//! stops reading that connection and returns to `epoll_wait`; the
//! epoll is level-triggered, so the connection is reported again while
//! it has bytes to read. One client pipelining thousands of warm
//! executes thus gets one read's worth (16 KiB) per turn, and a
//! depth-1 client on another connection is answered between turns.
//!
//! Backpressure is per connection: past `MAX_PIPELINE` outstanding
//! requests or `MAX_WRITE_BACKLOG` unflushed response bytes the
//! reactor drops `EPOLLIN` interest, letting TCP push back on the
//! client; parsing resumes from the already-buffered bytes as
//! completions drain or the write backlog flushes. A head (or body)
//! that stays incomplete past the daemon's read deadline is answered
//! `408` and the connection closed — the slow-loris budget — while
//! *idle* keep-alive connections with an empty `rbuf` are left open
//! indefinitely, which is what lets one reactor hold hundreds of parked
//! connections over a pool of one worker per CPU.
//!
//! Shutdown is cooperative and level-triggered: the stop flag goes up
//! and the wake pipe rings, buffered requests are answered `503`, every
//! connection is marked close-after-drain, accepts are answered `503`
//! and closed, and the loop exits when no work is in flight and every
//! write buffer has drained (with a bounded grace period for stuck
//! peers). The wake pipe lives in the daemon's shared state, which every
//! queued job holds, so a worker can never ring a closed fd.
//!
//! This is the daemon's only front end. Everything is raw
//! `epoll`/`pipe2` FFI — no new crates — and the module only exists on
//! Linux; elsewhere [`LabDaemon::bind`](super::LabDaemon::bind) fails
//! with `Unsupported`. The epoll instance and the wake pipe are created
//! at bind (`open`), so their failure is a bind error, never a
//! fallback.

use super::http;
use super::{answer, decode, run, wire_error, Job, Route, Shared};
use harborsim_par::WorkerPool;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Largest `POST /v1/lab` body the reactor decodes itself. Hot requests
/// are about 250 bytes, and a 4 KiB body decodes in microseconds; a
/// larger one goes to the pool undecoded, so a body at the 8 MiB cap
/// never stalls every connection.
const INLINE_MAX_BODY: usize = 4 * 1024;
/// Most outstanding (dispatched or reordering) responses per
/// connection before the reactor stops reading from it.
const MAX_PIPELINE: usize = 256;
/// Most unflushed response bytes per connection before the reactor
/// stops reading from it.
const MAX_WRITE_BACKLOG: usize = 256 * 1024;
/// epoll_wait tick: bounds deadline-sweep and backoff granularity.
const TICK_MS: i32 = 50;
/// How long a stopping reactor waits for write buffers to drain.
const STOP_GRACE: Duration = Duration::from_secs(5);
/// Accept-error backoff bounds (EMFILE must not spin the loop hot).
const BACKOFF_MIN: Duration = Duration::from_millis(1);
const BACKOFF_MAX: Duration = Duration::from_millis(100);

/// Raw epoll/pipe FFI — the only syscall surface this module adds.
mod sys {
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CLOEXEC: i32 = 0o2_000_000;
    pub const O_NONBLOCK: i32 = 0o4_000;
    pub const O_CLOEXEC: i32 = 0o2_000_000;

    /// `struct epoll_event`; packed on x86-64, where the kernel ABI has
    /// no padding between the 32-bit mask and the 64-bit payload.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn pipe2(fds: *mut i32, flags: i32) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
}

/// Token for the listener in epoll event payloads.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for the wake pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// An owned epoll instance, closed on drop.
pub(crate) struct Epoll(i32);

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: the fd came from a successful epoll_create1 and is
        // owned by this value alone, so it is closed exactly once.
        unsafe {
            sys::close(self.0);
        }
    }
}

/// The wakeup pipe: workers ring the write end after queueing a
/// completion, and shutdown rings it to get the stop flag seen; the
/// reactor drains the read end. Both ends nonblocking (a full pipe is
/// still a wake-up; a spurious byte is harmless).
///
/// One byte per reactor wake-up, not one per ring: `rung` is set by the
/// ring that writes and cleared only by `drain`, so the rings that
/// follow it before the reactor wakes write nothing. Every completion
/// queued before a ring is filed by the `drain_completions` that follows
/// the next `drain`.
pub(crate) struct WakePipe {
    r: i32,
    w: i32,
    /// A byte is in the pipe, or about to be, that the reactor has not
    /// drained.
    rung: AtomicBool,
}

/// Create the reactor's epoll instance and wake pipe.
///
/// # Errors
/// The OS error from `epoll_create1` or `pipe2`.
pub(crate) fn open() -> io::Result<(Epoll, WakePipe)> {
    // SAFETY: epoll_create1 takes no pointers; a negative result is
    // checked before the fd is used.
    let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
    if epfd < 0 {
        return Err(io::Error::last_os_error());
    }
    let epoll = Epoll(epfd);
    let mut fds = [0i32; 2];
    // SAFETY: `fds` is a live, writable array of the two ints pipe2
    // fills; a nonzero result is checked before they are used.
    let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let wake = WakePipe {
        r: fds[0],
        w: fds[1],
        rung: AtomicBool::new(false),
    };
    Ok((epoll, wake))
}

impl WakePipe {
    /// Wake the reactor: one byte down the pipe, unless an earlier ring's
    /// byte is still undrained. EAGAIN (pipe already full) is a wake-up
    /// too, so the write's result is ignored.
    pub(crate) fn ring(&self) {
        if self.rung.swap(true, Ordering::SeqCst) {
            return;
        }
        let byte = 1u8;
        // SAFETY: `w` is the pipe's open write end, owned by this value
        // until drop, and `byte` is a live one-byte buffer.
        unsafe {
            let _ = sys::write(self.w, &byte, 1);
        }
    }

    /// Swallow every pending wake byte, then let the next ring write
    /// again. The flag clears only after the pipe reads empty: a ring
    /// that finds it still set happened before this clear, so the
    /// completion it announces was queued before the reactor's next
    /// `drain_completions`, which takes it. A ring after the clear writes
    /// a fresh byte.
    fn drain(&self) {
        let mut buf = [0u8; 64];
        // SAFETY: `r` is the pipe's open read end, owned by this value
        // until drop, and `buf` is a live buffer of the length passed.
        while unsafe { sys::read(self.r, buf.as_mut_ptr(), buf.len()) } > 0 {}
        self.rung.store(false, Ordering::SeqCst);
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.r);
            sys::close(self.w);
        }
    }
}

/// A finished request on its way back from a worker.
struct Completion {
    slot: usize,
    gen: u64,
    seq: u64,
    bytes: Vec<u8>,
}

/// Per-connection state. `rbuf`/`wbuf` persist across requests on the
/// connection, so steady-state parsing reuses their capacity.
struct Conn {
    stream: TcpStream,
    gen: u64,
    /// Unparsed inbound bytes (partial head/body, pipelined successors).
    rbuf: Vec<u8>,
    /// Sequence number the next parsed request will get.
    next_seq: u64,
    /// Sequence number the next emitted response must have.
    next_write_seq: u64,
    /// Completed responses that arrived ahead of `next_write_seq`.
    reorder: Vec<(u64, Vec<u8>)>,
    /// In-order response bytes awaiting the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests dispatched to the pool, completion not yet seen.
    in_flight: usize,
    /// No further requests will be parsed; close once `wbuf` drains.
    close_after_drain: bool,
    /// Peer sent FIN; reads are done, writes may continue.
    eof: bool,
    /// When a partially received request must be complete (slow-loris
    /// budget). `None` while the connection is idle between requests.
    head_deadline: Option<Instant>,
    /// Event mask currently registered with epoll.
    armed: u32,
}

impl Conn {
    fn outstanding(&self) -> usize {
        self.in_flight + self.reorder.len()
    }

    fn write_backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Reading is paused while the connection is over its pipeline or
    /// write-backlog budget.
    fn over_budget(&self) -> bool {
        self.outstanding() >= MAX_PIPELINE || self.write_backlog() >= MAX_WRITE_BACKLOG
    }

    fn drained(&self) -> bool {
        self.outstanding() == 0 && self.write_backlog() == 0
    }

    /// File a reply given here. In sequence it renders straight into
    /// `wbuf`: every earlier reply is already there and no later request
    /// has been parsed, so the reorder buffer is empty. Out of sequence
    /// it waits, rendered, in the reorder buffer.
    fn file_reply(&mut self, seq: u64, status: u16, body: &str) {
        if seq == self.next_write_seq {
            debug_assert!(
                self.reorder.is_empty(),
                "nothing can follow the newest request"
            );
            http::render_response(&mut self.wbuf, status, body);
            self.next_write_seq += 1;
        } else {
            self.file_response(seq, rendered(status, body));
        }
    }

    /// File a completed response; contiguous sequence numbers flow into
    /// `wbuf` immediately, gaps wait in the reorder buffer.
    fn file_response(&mut self, seq: u64, bytes: Vec<u8>) {
        if seq == self.next_write_seq {
            self.wbuf.extend_from_slice(&bytes);
            self.next_write_seq += 1;
            while let Some(i) = self
                .reorder
                .iter()
                .position(|&(s, _)| s == self.next_write_seq)
            {
                let (_, ready) = self.reorder.swap_remove(i);
                self.wbuf.extend_from_slice(&ready);
                self.next_write_seq += 1;
            }
        } else {
            self.reorder.push((seq, bytes));
        }
    }
}

/// Where one framed request is answered.
enum Step {
    /// Here, on the reactor thread: the reply's status and body.
    Now(u16, String),
    /// On the pool.
    Pool(Job),
}

/// Route one framed request. A lab body of at most [`INLINE_MAX_BODY`]
/// bytes is decoded here: a decode error is answered here, and a warm,
/// small analytic execute ([`QueryEngine::handle_warm`]) runs to
/// completion here. Every other request becomes a pool job, a decoded
/// one travelling as its [`LabRequest`](crate::lab::LabRequest) so it is
/// never decoded twice.
///
/// [`QueryEngine::handle_warm`]: crate::lab::QueryEngine::handle_warm
fn step(shared: &Shared, head: &http::Head, body: &[u8]) -> Step {
    match Route::of(&head.method, &head.path) {
        Route::Lab if body.len() <= INLINE_MAX_BODY => match decode(body) {
            Ok(req) => match shared.engine.handle_warm(req) {
                Ok(resp) => {
                    shared.inline_answers.fetch_add(1, Ordering::Relaxed);
                    let (status, body) = answer(resp, shared);
                    Step::Now(status, body)
                }
                Err(req) => Step::Pool(Job::Lab(req)),
            },
            Err((status, body)) => Step::Now(status, body),
        },
        Route::Lab => Step::Pool(Job::LabBody(body.to_vec())),
        Route::Stats => Step::Pool(Job::Stats),
        Route::Shutdown => Step::Pool(Job::Shutdown),
        Route::NotFound => Step::Pool(Job::NotFound(format!(
            "no route {} {}",
            head.method, head.path
        ))),
    }
}

/// The full HTTP response bytes for one reply.
fn rendered(status: u16, body: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(body.len() + 128);
    http::render_response(&mut bytes, status, body);
    bytes
}

/// What one parse pass did.
struct Pass {
    /// Some request was answered here, on the reactor thread.
    answered_here: bool,
    /// The pass stopped on the connection's pipeline or write budget.
    paused: bool,
}

/// Hand one routed request to the pool; the worker runs it and rings
/// the wake pipe with the rendered response.
fn dispatch(
    pool: &WorkerPool,
    shared: &Arc<Shared>,
    completions: &Arc<Mutex<Vec<Completion>>>,
    slot: usize,
    gen: u64,
    seq: u64,
    job: Job,
) {
    let shared = Arc::clone(shared);
    let completions = Arc::clone(completions);
    pool.submit(move || {
        let (status, body) = run(job, &shared);
        let bytes = rendered(status, &body);
        completions
            .lock()
            .expect("completion queue")
            .push(Completion {
                slot,
                gen,
                seq,
                bytes,
            });
        shared.wake.ring();
    });
}

/// Serve the daemon through the reactor until it stops and drains.
/// `listener` is nonblocking and `epoll` fresh, both from
/// [`LabDaemon::bind`](super::LabDaemon::bind).
pub(crate) fn serve(listener: TcpListener, epoll: Epoll, shared: Arc<Shared>, workers: usize) {
    Reactor::new(listener, epoll, shared, workers).run();
}

struct Reactor {
    pool: WorkerPool,
    completions: Arc<Mutex<Vec<Completion>>>,
    listener: TcpListener,
    shared: Arc<Shared>,
    epoll: Epoll,
    conns: Vec<Option<Conn>>,
    /// Last generation seen per slot; bumped on close so stale
    /// completions for a recycled slot are dropped.
    gens: Vec<u64>,
    free: VecDeque<usize>,
    /// Dispatched-but-not-completed requests across all connections.
    total_in_flight: usize,
    listener_armed: bool,
    accept_backoff: Duration,
    /// When a paused (accept-error backoff) listener re-arms.
    accept_resume: Option<Instant>,
    /// Grace deadline once the stop flag is observed.
    stop_deadline: Option<Instant>,
}

impl Reactor {
    fn new(listener: TcpListener, epoll: Epoll, shared: Arc<Shared>, workers: usize) -> Reactor {
        let reactor = Reactor {
            pool: WorkerPool::new(workers),
            completions: Arc::new(Mutex::new(Vec::new())),
            listener,
            shared,
            epoll,
            conns: Vec::new(),
            gens: Vec::new(),
            free: VecDeque::new(),
            total_in_flight: 0,
            listener_armed: false,
            accept_backoff: BACKOFF_MIN,
            accept_resume: None,
            stop_deadline: None,
        };
        reactor.ctl(
            sys::EPOLL_CTL_ADD,
            reactor.shared.wake.r,
            sys::EPOLLIN,
            TOKEN_WAKE,
        );
        reactor
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        unsafe {
            let _ = sys::epoll_ctl(self.epoll.0, op, fd, &mut ev);
        }
    }

    fn arm_listener(&mut self) {
        if !self.listener_armed {
            self.ctl(
                sys::EPOLL_CTL_ADD,
                self.listener.as_raw_fd(),
                sys::EPOLLIN,
                TOKEN_LISTENER,
            );
            self.listener_armed = true;
        }
    }

    fn disarm_listener(&mut self) {
        if self.listener_armed {
            self.ctl(
                sys::EPOLL_CTL_DEL,
                self.listener.as_raw_fd(),
                0,
                TOKEN_LISTENER,
            );
            self.listener_armed = false;
        }
    }

    fn run(&mut self) {
        self.arm_listener();
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
        loop {
            let n = unsafe {
                sys::epoll_wait(
                    self.epoll.0,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    TICK_MS,
                )
            };
            if n < 0 {
                // EINTR or worse; either way a short sleep beats a
                // hot spin, and the tick keeps deadlines honest.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            for ev in &events[..n.max(0) as usize] {
                let copied = *ev;
                let (mask, token) = (copied.events, copied.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.shared.wake.drain(),
                    slot => self.conn_event(slot as usize, mask),
                }
            }
            self.drain_completions();
            self.sweep(Instant::now());
            if self.stopping_and_drained() {
                break;
            }
        }
        // Close every socket; dropping the reactor then joins the pool.
        self.conns.clear();
    }

    /// True once the stop flag is up and there is nothing left to
    /// drain — or the grace period for stuck peers has expired.
    fn stopping_and_drained(&mut self) -> bool {
        if !self.shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let now = Instant::now();
        let deadline = *self.stop_deadline.get_or_insert(now + STOP_GRACE);
        let idle = self.total_in_flight == 0 && self.conns.iter().flatten().count() == 0;
        idle || now >= deadline
    }

    // ------------------------------------------------------------ accept

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = BACKOFF_MIN;
                    self.admit(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // EMFILE and friends: count it and take the
                    // listener out of the set for a bounded backoff
                    // instead of spinning on a level-triggered event.
                    self.shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                    self.disarm_listener();
                    self.accept_resume = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(BACKOFF_MAX);
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop_front() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        let gen = self.gens[slot];
        let mut conn = Conn {
            stream,
            gen,
            rbuf: Vec::new(),
            next_seq: 0,
            next_write_seq: 0,
            reorder: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            in_flight: 0,
            close_after_drain: false,
            eof: false,
            head_deadline: None,
            armed: 0,
        };
        if self.shared.stop.load(Ordering::SeqCst) {
            // Accepted concurrently with shutdown: answer 503 and
            // drain out.
            self.shared.late_503s.fetch_add(1, Ordering::Relaxed);
            http::render_response(&mut conn.wbuf, 503, &wire_error("daemon is shutting down"));
            conn.next_seq = 1;
            conn.next_write_seq = 1;
            conn.close_after_drain = true;
        }
        let fd = conn.stream.as_raw_fd();
        self.ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLRDHUP, slot as u64);
        self.conns[slot] = Some(conn);
        self.shared.open_conns.fetch_add(1, Ordering::Relaxed);
        self.try_flush(slot);
        self.update_interest(slot);
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            self.ctl(sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, slot as u64);
            self.gens[slot] += 1;
            self.free.push_back(slot);
            self.shared.open_conns.fetch_sub(1, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------ conn IO

    fn conn_event(&mut self, slot: usize, mask: u32) {
        if slot >= self.conns.len() || self.conns[slot].is_none() {
            return;
        }
        if mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close_conn(slot);
            return;
        }
        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            self.read_ready(slot);
            if self.conns[slot].is_none() {
                return;
            }
        }
        if mask & sys::EPOLLOUT != 0 {
            // Flush through a parse pass: a connection paused on its
            // write backlog may hold requests that no completion will
            // come back to resume, since requests answered here leave
            // nothing in flight.
            self.pump_parse(slot);
        }
        self.update_interest(slot);
    }

    fn read_ready(&mut self, slot: usize) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let conn = self.conns[slot].as_mut().expect("live conn");
            if conn.eof || conn.close_after_drain || conn.over_budget() {
                break;
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    let answered_here = self.pump_parse(slot);
                    if self.conns[slot].is_none() {
                        return; // close-after-drain already flushed out
                    }
                    if answered_here {
                        // Answers given here cost this thread's time:
                        // let the other connections have their turn.
                        // Level-triggered epoll reports this one again
                        // while it has more to read.
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.eof {
            if conn.drained() {
                self.close_conn(slot);
            } else {
                // Peer half-closed; finish writing what it asked for.
                conn.rbuf.clear();
                conn.head_deadline = None;
                conn.close_after_drain = true;
            }
        }
    }

    /// Parse every complete request out of `rbuf`, then flush the
    /// replies given here in one write. A pass paused on the write
    /// backlog runs again if that flush freed budget: nothing else would
    /// resume it while nothing is in flight. True if any request was
    /// answered here.
    fn pump_parse(&mut self, slot: usize) -> bool {
        let mut answered_here = false;
        loop {
            let pass = self.parse_pass(slot);
            answered_here |= pass.answered_here;
            self.try_flush(slot);
            let resume = pass.paused
                && self.conns[slot]
                    .as_ref()
                    .is_some_and(|c| !c.over_budget() && !c.rbuf.is_empty());
            if !resume {
                return answered_here;
            }
        }
    }

    /// One pass over `rbuf`: answer each complete request here or
    /// dispatch it to the pool (see [`step`]; once stopping, every
    /// request is answered 503 here), until the bytes run out, the
    /// connection goes over budget, or it will parse no more. Consumes
    /// `rbuf` by offset and compacts it once; leaves partial bytes for
    /// the next read and manages the slow-loris deadline. Writes
    /// nothing.
    fn parse_pass(&mut self, slot: usize) -> Pass {
        let mut pass = Pass {
            answered_here: false,
            paused: false,
        };
        let conn = self.conns[slot].as_mut().expect("live conn");
        let mut pos = 0;
        loop {
            if conn.close_after_drain {
                conn.rbuf.clear();
                conn.head_deadline = None;
                return pass;
            }
            if conn.over_budget() {
                // Paused on purpose: the buffered partial is not the
                // peer's fault, so no slow-loris deadline.
                conn.head_deadline = None;
                pass.paused = true;
                break;
            }
            match http::parse_head(&conn.rbuf[pos..]) {
                Ok(Some((head, consumed))) => {
                    let (body, end) = (pos + consumed, pos + consumed + head.content_length);
                    if conn.rbuf.len() < end {
                        // Head complete, body still arriving.
                        let deadline = Instant::now() + self.shared.read_timeout;
                        conn.head_deadline.get_or_insert(deadline);
                        break;
                    }
                    conn.head_deadline = None;
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    if !head.keep_alive {
                        conn.close_after_drain = true;
                    }
                    let next = if self.shared.stop.load(Ordering::SeqCst) {
                        // Late arrival after the stop flag: 503, never
                        // the engine. (The shutdown request itself was
                        // dispatched before the flag went up.)
                        self.shared.late_503s.fetch_add(1, Ordering::Relaxed);
                        conn.close_after_drain = true;
                        Step::Now(503, wire_error("daemon is shutting down"))
                    } else {
                        step(&self.shared, &head, &conn.rbuf[body..end])
                    };
                    pos = end;
                    match next {
                        Step::Now(status, body) => {
                            conn.file_reply(seq, status, &body);
                            pass.answered_here = true;
                        }
                        Step::Pool(job) => {
                            conn.in_flight += 1;
                            self.total_in_flight += 1;
                            dispatch(
                                &self.pool,
                                &self.shared,
                                &self.completions,
                                slot,
                                conn.gen,
                                seq,
                                job,
                            );
                        }
                    }
                }
                Ok(None) => {
                    if conn.rbuf.len() == pos {
                        conn.head_deadline = None;
                    } else {
                        let deadline = Instant::now() + self.shared.read_timeout;
                        conn.head_deadline.get_or_insert(deadline);
                    }
                    break;
                }
                Err(e) => {
                    // Hostile framing: answer the mapped status (431/
                    // 413/400) in sequence, then drain and close.
                    let (status, msg) = e.status();
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.file_reply(seq, status, &wire_error(msg));
                    conn.close_after_drain = true;
                    conn.rbuf.clear();
                    conn.head_deadline = None;
                    pass.answered_here = true;
                    return pass;
                }
            }
        }
        conn.rbuf.drain(..pos);
        pass
    }

    /// File every completion the workers queued, then flush, resume
    /// parsing and re-arm interest once per connection the batch
    /// touched.
    fn drain_completions(&mut self) {
        let batch = std::mem::take(&mut *self.completions.lock().expect("completion queue"));
        let mut touched = Vec::new();
        for c in batch {
            self.total_in_flight -= 1;
            let Some(conn) = self.conns.get_mut(c.slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != c.gen {
                continue; // recycled slot; the response's conn is gone
            }
            conn.in_flight -= 1;
            conn.file_response(c.seq, c.bytes);
            touched.push(c.slot);
        }
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            // Capacity freed: resume parsing buffered pipeline, and
            // flush what the batch filed with what that answers here.
            self.pump_parse(slot);
            self.update_interest(slot);
        }
    }

    /// Write as much of `wbuf` as the socket takes; closes the
    /// connection on write error or once drained with
    /// `close_after_drain` set.
    fn try_flush(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        while conn.wpos < conn.wbuf.len() {
            match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => break,
                Ok(n) => {
                    conn.wpos += n;
                    self.shared.reply_writes.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            if conn.close_after_drain && conn.outstanding() == 0 {
                self.close_conn(slot);
            }
        }
    }

    /// Re-arm epoll interest to match the connection's state.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut want = sys::EPOLLRDHUP;
        if !conn.eof && !conn.close_after_drain && !conn.over_budget() {
            want |= sys::EPOLLIN;
        }
        if conn.write_backlog() > 0 {
            want |= sys::EPOLLOUT;
        }
        if want != conn.armed {
            conn.armed = want;
            let fd = conn.stream.as_raw_fd();
            self.ctl(sys::EPOLL_CTL_MOD, fd, want, slot as u64);
        }
    }

    // ------------------------------------------------------------ sweeps

    /// Periodic housekeeping: listener re-arm after backoff, slow-loris
    /// deadlines, and shutdown drain.
    fn sweep(&mut self, now: Instant) {
        if let Some(resume) = self.accept_resume {
            if now >= resume && !self.shared.stop.load(Ordering::SeqCst) {
                self.accept_resume = None;
                self.arm_listener();
                self.accept_ready();
            }
        }
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.head_deadline.is_some_and(|d| now >= d) {
                // Slow loris: a request has been partial for the whole
                // read budget. 408 in sequence, then drain and close.
                let (status, msg) = http::FrameError::Timeout.status();
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.file_reply(seq, status, &wire_error(msg));
                conn.close_after_drain = true;
                conn.rbuf.clear();
                conn.head_deadline = None;
                self.try_flush(slot);
                self.update_interest(slot);
            }
        }
        if self.shared.stop.load(Ordering::SeqCst) {
            self.disarm_listener();
            for slot in 0..self.conns.len() {
                if self.conns[slot].is_none() {
                    continue;
                }
                // Buffered requests get their 503s...
                self.pump_parse(slot);
                if let Some(conn) = self.conns[slot].as_mut() {
                    // ...then everything drains out and closes.
                    conn.close_after_drain = true;
                    self.try_flush(slot);
                    self.update_interest(slot);
                }
            }
        }
    }
}
