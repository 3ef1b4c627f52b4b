//! The resident lab daemon: a hand-rolled HTTP/1.1 front end over the
//! [`wire`] protocol, served by one epoll reactor.
//!
//! Fully in-tree like the rest of the vendored stack. Three routes:
//!
//! | route | body | answer |
//! |---|---|---|
//! | `POST /v1/lab` | a wire-encoded [`LabRequest`] | the wire-encoded [`LabResponse`] |
//! | `GET /v1/stats` | — | the wire-encoded stats response |
//! | `POST /v1/shutdown` | — | final stats; then the daemon drains and exits |
//!
//! One reactor thread multiplexes every connection over nonblocking
//! sockets, frames requests with [`http`], and classifies each once
//! into a `Route`. A warm, small analytic execute
//! ([`QueryEngine::handle_warm`](super::QueryEngine::handle_warm)) is
//! answered on the reactor thread itself; every other request goes to a
//! [`WorkerPool`](harborsim_par::WorkerPool) of engine workers as a
//! `Job`. Both paths render through one `answer` function, so a reply's
//! bytes do not depend on where it ran; see [`reactor`]. Hundreds of
//! idle keep-alive connections cost nothing.
//! There is no second serving model: the daemon needs epoll, so off
//! Linux [`LabDaemon::bind`] fails with [`io::ErrorKind::Unsupported`].
//!
//! Binding [`warm_starts`](super::QueryEngine::warm_start) the engine —
//! route tables and job profiles for the four paper clusters are
//! compiled before the first request arrives — and creates the epoll
//! instance and the wake pipe, so a platform that cannot provide them
//! fails at bind, not mid-serve. Shutdown is cooperative: the handler
//! sets a flag and rings the wake pipe, in-flight work drains, and late
//! arrivals are answered `503` rather than silently served or dropped.
//!
//! [`LabClient`] is the matching blocking client (one keep-alive
//! connection, with an explicit [pipelined](LabClient::query_pipelined)
//! mode); the integration tests drive the daemon through it, exercising
//! the same code path as any external HTTP client. perfbench's load
//! generator speaks the same wire protocol over its own sockets.

// Off Linux `bind` refuses, so the serving half of this module is never
// reached there.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

pub mod http;
#[cfg(target_os = "linux")]
pub mod reactor;

/// Off Linux there is no epoll: `open` refuses, so no
/// daemon is ever bound and these placeholders are never built.
#[cfg(not(target_os = "linux"))]
mod reactor {
    use super::Shared;
    use std::io;
    use std::net::TcpListener;
    use std::sync::Arc;

    pub(crate) struct Epoll;
    pub(crate) struct WakePipe;

    impl WakePipe {
        pub(crate) fn ring(&self) {}
    }

    pub(crate) fn open() -> io::Result<(Epoll, WakePipe)> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the lab daemon's reactor needs epoll (Linux only)",
        ))
    }

    pub(crate) fn serve(_: TcpListener, _: Epoll, _: Arc<Shared>, _: usize) {
        unreachable!("bind refuses off Linux")
    }
}

use super::protocol::{DaemonStats, LabRequest, LabResponse};
use super::{wire, QueryEngine};
use reactor::{Epoll, WakePipe};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default per-request read deadline (covers the whole head+body, so a
/// slow-loris dribbling one byte per read still hits it).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

pub(crate) struct Shared {
    pub(crate) engine: Arc<QueryEngine>,
    pub(crate) stop: AtomicBool,
    /// Workers ring it after queueing a completion; `request_stop`
    /// rings it to get the stop flag seen.
    pub(crate) wake: WakePipe,
    pub(crate) addr: SocketAddr,
    pub(crate) read_timeout: Duration,
    /// Accept-loop errors survived (EMFILE and friends).
    pub(crate) accept_errors: AtomicU64,
    /// Requests answered `503` because they arrived after the stop flag.
    pub(crate) late_503s: AtomicU64,
    /// Connections currently registered with the reactor.
    pub(crate) open_conns: AtomicU64,
    /// Warm executes the reactor answered itself, without the pool.
    pub(crate) inline_answers: AtomicU64,
    /// `write(2)` calls that carried reply bytes.
    pub(crate) reply_writes: AtomicU64,
}

impl Shared {
    /// Flag the reactor down and wake it.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.ring();
    }

    /// Snapshot of the daemon-side counters for `GET /v1/stats`.
    fn daemon_stats(&self) -> DaemonStats {
        DaemonStats {
            mode: "reactor".to_string(),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            late_503s: self.late_503s.load(Ordering::Relaxed),
            open_conns: self.open_conns.load(Ordering::Relaxed),
        }
    }
}

/// A bound-but-not-yet-serving lab daemon.
pub struct LabDaemon {
    listener: TcpListener,
    epoll: Epoll,
    wake: WakePipe,
    engine: Arc<QueryEngine>,
    workers: usize,
    read_timeout: Duration,
    addr: SocketAddr,
}

/// A handle to a daemon serving on a background thread.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<()>,
}

impl LabDaemon {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port),
    /// warm-start `engine`'s plan cache for the four paper clusters, and
    /// create the reactor's epoll instance and wake pipe. `workers` is
    /// the resident engine-worker pool size (min 1); a daemon that owns
    /// its process passes [`harborsim_par::parallelism`], one worker per
    /// CPU it may run on, as `reproduce_all --serve` does.
    ///
    /// # Errors
    /// Socket errors from bind; the OS error if epoll or the wake pipe
    /// cannot be created; [`io::ErrorKind::Unsupported`] off Linux.
    pub fn bind(addr: &str, engine: Arc<QueryEngine>, workers: usize) -> io::Result<LabDaemon> {
        let (epoll, wake) = reactor::open()?;
        engine.warm_start();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(LabDaemon {
            listener,
            epoll,
            wake,
            engine,
            workers,
            read_timeout: READ_TIMEOUT,
            addr,
        })
    }

    /// Override the per-request read deadline (builder-style). The
    /// deadline covers the whole request, not each read, so it also
    /// bounds slow-loris clients.
    #[must_use]
    pub fn read_timeout(mut self, timeout: Duration) -> LabDaemon {
        self.read_timeout = timeout;
        self
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn into_parts(self) -> (TcpListener, Epoll, Arc<Shared>, usize) {
        let shared = Arc::new(Shared {
            engine: self.engine,
            stop: AtomicBool::new(false),
            wake: self.wake,
            addr: self.addr,
            read_timeout: self.read_timeout,
            accept_errors: AtomicU64::new(0),
            late_503s: AtomicU64::new(0),
            open_conns: AtomicU64::new(0),
            inline_answers: AtomicU64::new(0),
            reply_writes: AtomicU64::new(0),
        });
        (self.listener, self.epoll, shared, self.workers)
    }

    /// Serve until a `POST /v1/shutdown` arrives (or
    /// [`DaemonHandle::shutdown`] is called on a spawned daemon).
    /// Consumes the daemon; queued requests drain before return.
    pub fn serve(self) {
        let (listener, epoll, shared, workers) = self.into_parts();
        reactor::serve(listener, epoll, shared, workers);
    }

    /// Serve on a background thread; the handle shuts it down.
    pub fn spawn(self) -> DaemonHandle {
        let (listener, epoll, shared, workers) = self.into_parts();
        let serving = Arc::clone(&shared);
        let thread = std::thread::spawn(move || reactor::serve(listener, epoll, serving, workers));
        DaemonHandle { shared, thread }
    }
}

impl DaemonHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The engine behind the daemon (for in-process counter assertions).
    pub fn engine(&self) -> &QueryEngine {
        &self.shared.engine
    }

    /// Warm executes answered on the reactor thread so far (see
    /// [`reactor`]). In process only: the wire stats do not carry it.
    pub fn inline_answers(&self) -> u64 {
        self.shared.inline_answers.load(Ordering::Relaxed)
    }

    /// `write(2)` calls that carried reply bytes so far: the reactor
    /// flushes once per readiness event, so pipelined replies share
    /// writes. In process only: the wire stats do not carry it.
    pub fn reply_writes(&self) -> u64 {
        self.shared.reply_writes.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain in-flight connections, and join.
    pub fn shutdown(self) {
        self.shared.request_stop();
        let _ = self.thread.join();
    }
}

/// What a request asks for, classified once from its method and path.
pub(crate) enum Route {
    /// `POST /v1/lab`: a wire-encoded [`LabRequest`] body.
    Lab,
    /// `GET /v1/stats`.
    Stats,
    /// `POST /v1/shutdown`.
    Shutdown,
    /// Anything else: `404`.
    NotFound,
}

impl Route {
    pub(crate) fn of(method: &str, path: &str) -> Route {
        match (method, path) {
            ("POST", "/v1/lab") => Route::Lab,
            ("GET", "/v1/stats") => Route::Stats,
            ("POST", "/v1/shutdown") => Route::Shutdown,
            _ => Route::NotFound,
        }
    }
}

/// A routed request on its way to a worker.
pub(crate) enum Job {
    /// A lab request the reactor already decoded.
    Lab(LabRequest),
    /// A lab body too large to decode on the reactor.
    LabBody(Vec<u8>),
    Stats,
    Shutdown,
    /// The `404` message.
    NotFound(String),
}

/// Decode a `POST /v1/lab` body, or give the `400` reply it earns.
pub(crate) fn decode(body: &[u8]) -> Result<LabRequest, (u16, String)> {
    let text =
        std::str::from_utf8(body).map_err(|_| (400, wire_error("request body is not UTF-8")))?;
    wire::decode_request(text).map_err(|e| (400, wire_error(&e.msg)))
}

/// Run one job on the engine and render its reply.
pub(crate) fn run(job: Job, shared: &Shared) -> (u16, String) {
    match job {
        Job::Lab(req) => answer(shared.engine.handle(req), shared),
        Job::LabBody(body) => match decode(&body) {
            Ok(req) => answer(shared.engine.handle(req), shared),
            Err(reply) => reply,
        },
        Job::Stats => answer(shared.engine.handle(LabRequest::Stats), shared),
        Job::Shutdown => {
            let reply = answer(shared.engine.handle(LabRequest::Stats), shared);
            shared.request_stop();
            reply
        }
        Job::NotFound(msg) => (404, wire_error(&msg)),
    }
}

/// The reply to an engine response, whichever thread produced it: the
/// body is the wire-encoded [`LabResponse`], and a stats response is
/// stamped with the daemon-side counters on the way out (the in-process
/// engine path leaves them `None`).
pub(crate) fn answer(mut resp: LabResponse, shared: &Shared) -> (u16, String) {
    if let LabResponse::Stats(ref mut stats) = resp {
        stats.daemon = Some(shared.daemon_stats());
    }
    (200, wire::encode_response(&resp))
}

/// A wire-encoded error response (decodes to
/// [`HarborError::Remote`](crate::error::HarborError::Remote) with kind
/// `"wire"`).
pub(crate) fn wire_error(msg: &str) -> String {
    wire::encode_response(&LabResponse::Error(crate::error::HarborError::Remote {
        kind: "wire".to_string(),
        msg: msg.to_string(),
    }))
}

/// A blocking lab client over one keep-alive connection — what the load
/// generator, the CI smoke probe, and the integration tests speak.
///
/// Besides the one-at-a-time [`query`](LabClient::query), the client
/// can pipeline: [`send`](LabClient::send) any number of requests
/// without waiting, then [`recv`](LabClient::recv) the responses, which
/// the daemon guarantees arrive in request order.
pub struct LabClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: SocketAddr,
}

impl LabClient {
    /// Connect to a serving daemon.
    ///
    /// # Errors
    /// Socket errors from connect.
    pub fn connect(addr: SocketAddr) -> io::Result<LabClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(LabClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            addr,
        })
    }

    /// Send one typed request and wait for the typed response.
    ///
    /// # Errors
    /// Socket errors, non-encodable requests, and undecodable responses
    /// (all as [`io::Error`] — a wire daemon is an I/O device).
    pub fn query(&mut self, req: &LabRequest) -> io::Result<LabResponse> {
        self.send(req)?;
        self.recv()
    }

    /// Write one request without waiting for its response (pipelining).
    ///
    /// # Errors
    /// Socket errors and non-encodable requests.
    pub fn send(&mut self, req: &LabRequest) -> io::Result<()> {
        let body = wire::encode_request(req).map_err(io::Error::other)?;
        write!(
            self.writer,
            "POST /v1/lab HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        )?;
        self.writer.flush()
    }

    /// Read the next pipelined response (in request order).
    ///
    /// # Errors
    /// As [`LabClient::query`].
    pub fn recv(&mut self) -> io::Result<LabResponse> {
        self.read_body()
    }

    /// Pipeline a batch: send every request back-to-back, then collect
    /// the responses, which arrive in request order.
    ///
    /// # Errors
    /// As [`LabClient::query`].
    pub fn query_pipelined(&mut self, reqs: &[LabRequest]) -> io::Result<Vec<LabResponse>> {
        for req in reqs {
            self.send(req)?;
        }
        reqs.iter().map(|_| self.recv()).collect()
    }

    /// Fetch engine statistics.
    ///
    /// # Errors
    /// As [`LabClient::query`].
    pub fn stats(&mut self) -> io::Result<LabResponse> {
        write!(
            self.writer,
            "GET /v1/stats HTTP/1.1\r\nHost: {}\r\n\r\n",
            self.addr
        )?;
        self.writer.flush()?;
        self.read_body()
    }

    /// Ask the daemon to shut down; returns its final stats response.
    ///
    /// # Errors
    /// As [`LabClient::query`].
    pub fn shutdown(mut self) -> io::Result<LabResponse> {
        self.post("/v1/shutdown", "")
    }

    fn post(&mut self, path: &str, body: &str) -> io::Result<LabResponse> {
        write!(
            self.writer,
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        )?;
        self.writer.flush()?;
        self.read_body()
    }

    fn read_body(&mut self) -> io::Result<LabResponse> {
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        let mut length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(io::Error::other)?;
                }
            }
        }
        if length > http::MAX_BODY_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let text = String::from_utf8(body).map_err(io::Error::other)?;
        wire::decode_response(&text).map_err(io::Error::other)
    }
}
