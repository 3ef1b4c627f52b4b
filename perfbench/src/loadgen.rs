//! The benchmark's own load generator: one thread, nonblocking sockets,
//! and `ppoll(2)` for readiness, so every reply is read as it arrives and
//! every request is timed from the instant it was due.
//!
//! Requests, and the exact replies they must produce, are bytes prepared
//! at set-up ([`Item`]). The timed loop does no JSON work, only HTTP
//! framing and a byte comparison, so the generator takes a small share
//! of the CPU the daemon under test needs.

use crate::sys;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request, and the reply the in-process engine gives to it.
pub struct Item {
    /// The full HTTP request.
    pub request: Vec<u8>,
    /// The full HTTP response expected back, byte for byte.
    pub expected: Vec<u8>,
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load<'a> {
    /// Closed loop: keep `depth` requests in flight on every connection
    /// until `run_for` has passed, then collect the outstanding replies.
    Closed {
        /// Requests in flight per connection.
        depth: usize,
        /// How long new requests are sent.
        run_for: Duration,
    },
    /// Open loop: request `k` is due `schedule[k]` after the phase
    /// starts, whatever is still outstanding.
    Open {
        /// Due offsets, ascending.
        schedule: &'a [Duration],
    },
}

/// How long outstanding replies are awaited once sending has stopped.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// Per-request accounting of one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent, plus open-loop requests no connection could take.
    pub attempted: u64,
    /// Requests answered wrongly or not at all.
    pub failed: u64,
    /// Latency of each correct reply in ms, from the instant it was due.
    pub latency_ms: Vec<f64>,
    /// Lag of each open-loop send in ms: sent minus due.
    pub lag_ms: Vec<f64>,
}

impl Tally {
    /// A request due at `due` went to the socket at `at`. Closed-loop
    /// requests are due when they are sent, so only open ones carry lag.
    pub fn sent(&mut self, due: Instant, at: Instant, open: bool) {
        self.attempted += 1;
        if open {
            self.lag_ms.push(ms(at.saturating_duration_since(due)));
        }
    }

    /// The reply to a request due at `due` was read at `at`.
    pub fn replied(&mut self, due: Instant, at: Instant, correct: bool) {
        if correct {
            self.latency_ms.push(ms(at.saturating_duration_since(due)));
        } else {
            self.failed += 1;
        }
    }

    /// `n` sent requests will get no reply.
    pub fn lost(&mut self, n: usize) {
        self.failed += n as u64;
    }

    /// `n` open-loop requests could not be sent at all.
    pub fn unsent(&mut self, n: usize) {
        self.attempted += n as u64;
        self.failed += n as u64;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One request's timeline (kept in traced phases only).
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    /// When it was due.
    pub due: Instant,
    /// When it was handed to the socket.
    pub sent: Instant,
    /// When its reply had been read.
    pub done: Instant,
}

/// What one phase measured.
#[derive(Debug)]
pub struct Phase {
    /// Per-request accounting.
    pub tally: Tally,
    /// Phase start to the last reply, seconds.
    pub wall_s: f64,
    /// Requests sent; a closed phase that sent its whole order stopped
    /// before `run_for` had passed.
    pub sent: usize,
    /// Request timelines, in reply order (empty unless traced).
    pub spans: Vec<RequestSpan>,
}

impl Phase {
    /// Correct replies per second.
    pub fn qps(&self) -> f64 {
        self.tally.latency_ms.len() as f64 / self.wall_s.max(1e-9)
    }
}

/// Length of the first complete HTTP response in `buf`: `Ok(None)`
/// while it is incomplete, `Err` when the bytes are not a response.
pub fn frame(buf: &[u8]) -> Result<Option<usize>, &'static str> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > 16 * 1024 {
            Err("response head too long")
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head is not UTF-8")?;
    if !head.starts_with("HTTP/1.1 ") {
        return Err("not an HTTP/1.1 response");
    }
    let length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .ok_or("response without a valid Content-Length")?;
    let total = head_end + 4 + length;
    Ok((buf.len() >= total).then_some(total))
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// `(item, due, sent)` of every request awaiting its reply, oldest
    /// first: the daemon answers each connection in request order.
    waiting: VecDeque<(u32, Instant, Instant)>,
    alive: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            waiting: VecDeque::new(),
            alive: true,
        })
    }

    /// Queue request `item`, due at `due` (open loop) or now (closed).
    fn queue(&mut self, items: &[Item], item: u32, due: Option<Instant>, tally: &mut Tally) {
        self.out.extend_from_slice(&items[item as usize].request);
        let at = Instant::now();
        tally.sent(due.unwrap_or(at), at, due.is_some());
        self.waiting.push_back((item, due.unwrap_or(at), at));
    }

    /// Write as much pending output as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        let mut done = 0;
        while done < self.out.len() {
            match self.stream.write(&self.out[done..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.drain(..done);
        Ok(())
    }

    /// Read every available byte; `Ok(false)` once the peer has closed.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Match every complete reply in the buffer to the oldest request
    /// awaiting one and check it byte for byte; `last` becomes the
    /// instant of the latest reply.
    fn harvest(
        &mut self,
        items: &[Item],
        tally: &mut Tally,
        mut spans: Option<&mut Vec<RequestSpan>>,
        last: &mut Instant,
    ) -> Result<(), &'static str> {
        let mut used = 0;
        let result = loop {
            match frame(&self.inbuf[used..]) {
                Ok(Some(len)) => {
                    let Some((item, due, sent)) = self.waiting.pop_front() else {
                        break Err("a reply with no request outstanding");
                    };
                    let done = Instant::now();
                    let reply = &self.inbuf[used..used + len];
                    tally.replied(due, done, reply == items[item as usize].expected.as_slice());
                    if let Some(spans) = spans.as_deref_mut() {
                        spans.push(RequestSpan { due, sent, done });
                    }
                    *last = done;
                    used += len;
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        self.inbuf.drain(..used);
        result
    }

    /// Give up on this connection: every request awaiting a reply is lost.
    fn kill(&mut self, tally: &mut Tally) {
        self.alive = false;
        tally.lost(self.waiting.len());
        self.waiting.clear();
    }
}

/// Drive one phase against the daemon at `addr` over `conns` fresh
/// connections. Request `k` is `items[order[k]]`: no request is sent
/// twice, so a closed phase stops early once it has sent all of `order`,
/// and an open phase needs an entry per scheduled arrival. `trace` keeps
/// every request's timeline.
///
/// # Errors
/// Only connecting fails the phase; later socket errors, bad framing and
/// wrong replies count as failed requests.
pub fn drive(
    addr: SocketAddr,
    conns: usize,
    items: &[Item],
    order: &[u32],
    load: Load<'_>,
    trace: bool,
) -> io::Result<Phase> {
    assert!(!order.is_empty(), "a phase needs requests to send");
    if let Load::Open { schedule } = load {
        assert!(
            order.len() >= schedule.len(),
            "an open phase needs a request per arrival"
        );
    }
    let mut conns = (0..conns.max(1))
        .map(|_| Conn::open(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let mut tally = Tally::default();
    let mut spans = Vec::new();
    let start = Instant::now();
    let mut last_reply = start;
    let send_until = match load {
        Load::Closed { run_for, .. } => start + run_for,
        Load::Open { schedule } => start + schedule.last().copied().unwrap_or_default(),
    };
    let give_up = send_until + DRAIN_LIMIT;
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        let sending = match load {
            Load::Closed { depth, .. } => {
                if now < send_until {
                    for c in conns.iter_mut().filter(|c| c.alive) {
                        while c.waiting.len() < depth && next < order.len() {
                            c.queue(items, order[next], None, &mut tally);
                            next += 1;
                        }
                    }
                }
                now < send_until && next < order.len()
            }
            Load::Open { schedule } => {
                while next < schedule.len() && start + schedule[next] <= now {
                    // the least-loaded live connection, ties rotating
                    let n = conns.len();
                    let Some(c) = (0..n)
                        .map(|i| (next + i) % n)
                        .filter(|&i| conns[i].alive)
                        .min_by_key(|&i| conns[i].waiting.len())
                    else {
                        break;
                    };
                    let due = start + schedule[next];
                    conns[c].queue(items, order[next], Some(due), &mut tally);
                    next += 1;
                }
                next < schedule.len()
            }
        };
        for c in conns.iter_mut().filter(|c| c.alive) {
            if c.flush().is_err() {
                c.kill(&mut tally);
            }
        }
        if !conns.iter().any(|c| c.alive) {
            if let Load::Open { schedule } = load {
                tally.unsent(schedule.len() - next);
            }
            break;
        }
        let outstanding: usize = conns.iter().map(|c| c.waiting.len()).sum();
        if !sending && outstanding == 0 {
            break;
        }
        if now >= give_up {
            for c in &mut conns {
                c.kill(&mut tally);
            }
            break;
        }
        let wake = match load {
            Load::Open { schedule } if sending => start + schedule[next],
            _ if sending => send_until,
            _ => give_up,
        };
        let live: Vec<(&TcpStream, bool)> = conns
            .iter()
            .filter(|c| c.alive)
            .map(|c| (&c.stream, !c.out.is_empty()))
            .collect();
        sys::wait(&live, wake.saturating_duration_since(now));
        for c in conns.iter_mut().filter(|c| c.alive) {
            let open = c.fill();
            let spans = trace.then_some(&mut spans);
            let framed = c.harvest(items, &mut tally, spans, &mut last_reply);
            if !matches!(open, Ok(true)) || framed.is_err() {
                c.kill(&mut tally);
            }
        }
    }
    Ok(Phase {
        tally,
        wall_s: (last_reply - start).as_secs_f64(),
        sent: next,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic;
    use harborsim_bench::loadgen::menu_scenario;
    use harborsim_core::lab::daemon::http::render_response;
    use harborsim_core::{DaemonHandle, LabDaemon, LabRequest, QueryEngine};
    use std::sync::Arc;

    #[test]
    fn replies_are_framed_by_content_length() {
        let mut reply = Vec::new();
        render_response(&mut reply, 200, "{\"v\":1}");
        assert_eq!(frame(&reply), Ok(Some(reply.len())));
        assert_eq!(frame(&reply[..reply.len() - 1]), Ok(None));
        assert_eq!(frame(&reply[..10]), Ok(None));
        let mut two = reply.clone();
        two.extend_from_slice(&reply);
        assert_eq!(frame(&two), Ok(Some(reply.len())));
        assert!(frame(b"GET / HTTP/1.1\r\n\r\n").is_err());
        assert!(frame(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn lag_and_latency_are_timed_from_the_due_instant() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(3);
        let done = due + Duration::from_millis(10);
        let mut t = Tally::default();
        t.sent(due, sent, true);
        t.replied(due, done, true);
        assert!((t.lag_ms[0] - 3.0).abs() < 1e-9);
        assert!(
            (t.latency_ms[0] - 10.0).abs() < 1e-9,
            "latency counts the send lag too"
        );
        // closed-loop sends are due when sent: no lag sample
        t.sent(due, sent, false);
        assert_eq!(t.lag_ms.len(), 1);
        // an early send never reads as negative lag
        t.sent(sent, due, true);
        assert_eq!(t.lag_ms[1], 0.0);
        t.replied(due, done, false);
        t.lost(2);
        t.unsent(1);
        assert_eq!((t.attempted, t.failed), (4, 4));
        assert_eq!(t.latency_ms.len(), 1, "failures carry no latency");
    }

    /// A live in-process daemon and three menu requests with their replies.
    fn live() -> (DaemonHandle, Vec<Item>) {
        let daemon = LabDaemon::bind("127.0.0.1:0", Arc::new(QueryEngine::new()), 2)
            .expect("bind loopback")
            .spawn();
        let reference = QueryEngine::new();
        let items = (0..3)
            .map(|seed| traffic::item(&reference, LabRequest::execute(menu_scenario(4), seed)).0)
            .collect();
        (daemon, items)
    }

    #[test]
    fn closed_and_open_phases_check_every_reply() {
        let (daemon, items) = live();
        let order: Vec<u32> = (0..60).map(|k| k % 3).collect();
        let closed = Load::Closed {
            depth: 2,
            run_for: Duration::from_millis(200),
        };
        let closed = drive(daemon.addr(), 2, &items, &order, closed, false).expect("connects");
        assert!(closed.tally.attempted >= 4);
        assert_eq!(closed.tally.attempted, closed.sent as u64);
        assert_eq!(closed.tally.failed, 0);
        assert_eq!(closed.tally.latency_ms.len() as u64, closed.tally.attempted);
        assert!(closed.tally.lag_ms.is_empty() && closed.spans.is_empty());
        assert!(closed.qps() > 0.0);
        let schedule: Vec<Duration> = (0..30).map(|k| Duration::from_millis(2 * k)).collect();
        let open = Load::Open {
            schedule: &schedule,
        };
        let open = drive(daemon.addr(), 2, &items, &order, open, true).expect("connects");
        assert_eq!(open.tally.attempted, 30);
        assert_eq!(open.tally.failed, 0);
        assert_eq!(open.tally.lag_ms.len(), 30);
        assert_eq!(open.spans.len(), 30);
        assert!(open
            .spans
            .iter()
            .all(|s| s.due <= s.sent && s.sent <= s.done));
        daemon.shutdown();
    }

    #[test]
    fn a_closed_phase_sends_its_order_once_and_stops() {
        let (daemon, items) = live();
        let closed = Load::Closed {
            depth: 4,
            run_for: Duration::from_secs(30),
        };
        let t = Instant::now();
        let phase =
            drive(daemon.addr(), 2, &items, &[0, 1, 2, 0, 1], closed, true).expect("connects");
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "it did not wait out run_for"
        );
        assert_eq!(
            (phase.sent, phase.tally.attempted, phase.tally.failed),
            (5, 5, 0)
        );
        assert_eq!(phase.spans.len(), 5);
        daemon.shutdown();
    }

    #[test]
    fn wrong_replies_count_as_failures() {
        let (daemon, mut items) = live();
        let last = items[1].expected.len() - 2;
        items[1].expected[last] ^= 1;
        let schedule: Vec<Duration> = (0..12).map(Duration::from_millis).collect();
        let open = Load::Open {
            schedule: &schedule,
        };
        let order: Vec<u32> = (0..12).map(|k| k % 3).collect();
        let open = drive(daemon.addr(), 1, &items, &order, open, false).expect("connects");
        assert_eq!(open.tally.attempted, 12);
        assert_eq!(open.tally.failed, 4, "item 1 is every third request");
        assert_eq!(open.tally.latency_ms.len(), 8);
        daemon.shutdown();
    }
}
