//! The serve engine: nonblocking connection state machines over a
//! readiness [`Poller`] — epoll where the host has it, `poll(2)` where it
//! does not ([`crate::poller`]); nothing below depends on which.
//!
//! ## Shape
//!
//! `threads` loop threads each own one [`Poller`] and a private set of
//! connections — no cross-loop locking on the hot path. Loop 0 also owns
//! the (nonblocking) listener and deals accepted sockets round-robin to
//! the other loops through per-loop inboxes, waking the target with its
//! [`Waker`]. A connection lives on one loop for its whole life.
//!
//! ## Connection state machine
//!
//! ```text
//!            read-ready                 request complete
//!   Reading ───────────▶ feed parser ─────────────────────▶ Writing
//!      ▲                                                      │ │
//!      │ response drained, keep-alive                         │ │ bucket
//!      └──────────────────────────────────────────────────────┘ │ empty
//!                                              Throttled ◀──────┘
//! ```
//!
//! * **Reading** holds an incremental [`wire::RequestParser`]; bytes are
//!   fed as they arrive, nothing blocks, pipelined tails stay buffered.
//! * **Writing** drains a head buffer then a [`BodyCursor`]: in-memory
//!   bytes go out in [`STREAM_CHUNK`] slices; file bodies move with
//!   `sendfile` (kernel file→socket, no userspace copy) or, on a backend
//!   without it, one bounded read+write per pass — either way a 2 GiB
//!   layer never transits a `Vec`. Each connection gets at most one
//!   [`STREAM_CHUNK`] quantum per loop pass; level-triggered readiness
//!   re-reports writability, so concurrent pullers drain round-robin
//!   instead of convoy-ing behind the largest response.
//! * **Throttled** parks a connection whose per-client token bucket ran
//!   dry, with *no* readiness interest (no busy loop); the periodic tick
//!   re-arms it once tokens accrue.
//!
//! Every state carries a deadline (read timeout while Reading, write
//! timeout while Writing — refreshed on progress, not per pass), swept on
//! the loop's tick: a peer that stalls mid-upload or reads at zero-window
//! forever is closed and its slot freed, so slow or dead clients can
//! never wedge the reactor.

use crate::http::{BodySource, HttpAction, HttpHandler, HttpOptions, STREAM_CHUNK};
use crate::poller::{Poller, Waker};
use crate::wire::{self, RequestParser};
use bytes::Bytes;
use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Loop tick: the longest a loop sleeps before sweeping deadlines and
/// re-arming throttled connections. Readiness events cut it short.
const TICK: Duration = Duration::from_millis(50);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// A running daemon (see [`crate::serve_http`]). Dropping it without
/// [`HttpServer::shutdown`] stops the loops but does not join them;
/// `shutdown` joins everything.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wakers: Vec<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer").field("addr", &self.addr).finish()
    }
}

impl HttpServer {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join all threads. After this returns, no thread
    /// holds a reference to the handler.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
    }
}

/// State shared by all loop threads.
struct Shared<H> {
    handler: Arc<H>,
    /// Open connections across all loops (the `max_conns` admission gate).
    live: AtomicUsize,
    /// Per-peer-IP token buckets (shared: one client may hit many loops).
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
    opts: HttpOptions,
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

impl<H> Shared<H> {
    /// Grant up to `want` egress bytes to `peer` from its token bucket.
    /// Rate 0 disables limiting (every request granted in full).
    fn grant(&self, peer: IpAddr, want: usize) -> usize {
        let rate = self.opts.client_rate as f64;
        if rate <= 0.0 {
            return want;
        }
        let burst = (rate / 8.0).max(STREAM_CHUNK as f64);
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let b = buckets.entry(peer).or_insert(Bucket {
            tokens: burst,
            last: now,
        });
        b.tokens = (b.tokens + rate * now.duration_since(b.last).as_secs_f64()).min(burst);
        b.last = now;
        let granted = (want as f64).min(b.tokens).floor();
        b.tokens -= granted;
        granted as usize
    }
}

/// Where a response body's remaining bytes come from.
enum BodyCursor {
    Bytes {
        data: Bytes,
        pos: usize,
    },
    File {
        file: std::fs::File,
        offset: u64,
        end: u64,
        /// Set after the first sendfile failure (the `poll(2)` backend has
        /// none; a seccomp sandbox may refuse it): fall back to a bounded
        /// read+write copy for the rest.
        buffered: bool,
    },
}

impl BodyCursor {
    fn remaining(&self) -> u64 {
        match self {
            BodyCursor::Bytes { data, pos } => (data.len() - pos) as u64,
            BodyCursor::File { offset, end, .. } => end - offset,
        }
    }
}

/// An in-flight response being drained to the socket.
struct WriteState {
    head: Vec<u8>,
    head_pos: usize,
    body: BodyCursor,
    close_after: bool,
}

enum State {
    Reading,
    Writing(WriteState),
    /// Token bucket ran dry; retry at the instant carried here.
    Throttled(WriteState, Instant),
}

struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    parser: RequestParser,
    state: State,
    deadline: Instant,
}

enum Pass {
    /// Response fully drained.
    Done,
    /// Socket (or quantum) limit hit; stay writable-interested.
    Blocked,
    /// Token bucket empty; park with no interest until `retry`.
    Throttled,
    /// Connection is broken; close it.
    Dead,
}

/// Serve `handler` on the already-bound listener.
pub fn serve_loop<H: HttpHandler>(
    handler: Arc<H>,
    listener: TcpListener,
    opts: &HttpOptions,
) -> io::Result<HttpServer> {
    serve_loop_on(handler, listener, opts, || Ok((Poller::new()?, Waker::new()?)))
}

/// [`serve_loop`] over pollers and wakers from `backend` — the seam that
/// lets tests drive the `poll(2)` backend on a host that has epoll.
fn serve_loop_on<H: HttpHandler>(
    handler: Arc<H>,
    listener: TcpListener,
    opts: &HttpOptions,
    backend: fn() -> io::Result<(Poller, Waker)>,
) -> io::Result<HttpServer> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let n = opts.threads.max(1);
    let prefix = handler.metrics_prefix();

    let shared = Arc::new(Shared {
        handler,
        live: AtomicUsize::new(0),
        buckets: Mutex::new(HashMap::new()),
        opts: opts.clone(),
    });
    let stop_flag = Arc::new(AtomicBool::new(false));

    // Build every loop's poller/waker/inbox up front so loop 0 can deal
    // connections to all of them from its first accept.
    let mut pollers = Vec::with_capacity(n);
    let mut wakers = Vec::with_capacity(n);
    let mut inboxes = Vec::with_capacity(n);
    for _ in 0..n {
        let (mut poller, waker) = backend()?;
        poller.add(waker.raw_fd(), TOKEN_WAKER, true, false)?;
        pollers.push(poller);
        wakers.push(waker);
        inboxes.push(Arc::new(Mutex::new(Vec::<TcpStream>::new())));
    }
    // Loop 0 owns the listener, so the fd registered here stays open for
    // as long as anything polls it: poll(2) watches the fd *number*, and a
    // number whose handle was dropped is a closed fd that never accepts.
    pollers[0].add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    let mut deal = Some((listener, inboxes.clone(), wakers.clone()));

    let mut threads = Vec::with_capacity(n);
    for (i, poller) in pollers.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop_flag);
        let inbox = Arc::clone(&inboxes[i]);
        let deal = deal.take();
        let waker = wakers[i].clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("{prefix}-loop-{i}"))
                .spawn(move || {
                    EventLoop {
                        shared,
                        stop,
                        poller,
                        waker,
                        inbox,
                        deal,
                        conns: HashMap::new(),
                        next_token: TOKEN_FIRST_CONN,
                        next_loop: 0,
                    }
                    .run()
                })?,
        );
    }

    Ok(HttpServer {
        addr,
        stop: stop_flag,
        wakers,
        threads,
    })
}

/// Accepted connections handed from loop 0 to their owning loop.
type Inbox = Arc<Mutex<Vec<TcpStream>>>;

struct EventLoop<H: HttpHandler> {
    shared: Arc<Shared<H>>,
    stop: Arc<AtomicBool>,
    poller: Poller,
    waker: Waker,
    inbox: Inbox,
    /// Loop 0 only: the listener plus every loop's inbox and waker.
    deal: Option<(TcpListener, Vec<Inbox>, Vec<Waker>)>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    next_loop: usize,
}

impl<H: HttpHandler> EventLoop<H> {
    fn prefix(&self) -> &'static str {
        self.shared.handler.metrics_prefix()
    }

    fn run(mut self) {
        let mut events = Vec::with_capacity(256);
        loop {
            events.clear();
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.waker.drain();
                        self.drain_inbox();
                    }
                    token => self.conn_event(token, ev.readable, ev.writable, ev.hangup),
                }
            }
            self.sweep();
        }
        // Drop every live connection on the way out.
        let remaining = self.conns.len();
        self.shared.live.fetch_sub(remaining, Ordering::SeqCst);
    }

    /// Accept everything pending, enforcing `max_conns`, and deal new
    /// sockets round-robin across loops (loop 0 only).
    fn accept_ready(&mut self) {
        let obs = comt_observe::global();
        let prefix = self.prefix();
        loop {
            let Some((listener, ..)) = &self.deal else { return };
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let live = self.shared.live.load(Ordering::SeqCst);
            if live >= self.shared.opts.max_conns {
                // Refuse loudly: drop the socket (RST/FIN) and count it.
                // Degrading at the edge beats wedging every open pull.
                obs.count(&format!("{prefix}.conns_rejected"), 1);
                drop(stream);
                continue;
            }
            self.shared.live.fetch_add(1, Ordering::SeqCst);
            obs.count(&format!("{prefix}.conns_accepted"), 1);
            let (_, inboxes, wakers) = self.deal.as_ref().expect("loop 0 deals");
            let target = self.next_loop % inboxes.len();
            self.next_loop = self.next_loop.wrapping_add(1);
            if target == 0 {
                self.adopt(stream);
            } else {
                inboxes[target]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(stream);
                wakers[target].wake();
            }
        }
    }

    fn drain_inbox(&mut self) {
        let pending = std::mem::take(&mut *self.inbox.lock().unwrap_or_else(|e| e.into_inner()));
        for stream in pending {
            self.adopt(stream);
        }
    }

    /// Take ownership of an accepted socket: nonblocking, registered for
    /// read readiness, state machine at Reading.
    fn adopt(&mut self, stream: TcpStream) {
        let peer = stream
            .peer_addr()
            .map(|a| a.ip())
            .unwrap_or(IpAddr::from([0u8, 0, 0, 0]));
        if stream.set_nonblocking(true).is_err() {
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self.poller.add(stream.as_raw_fd(), token, true, false).is_err() {
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                peer,
                parser: RequestParser::new(self.shared.opts.max_body),
                state: State::Reading,
                deadline: Instant::now() + self.shared.opts.read_timeout,
            },
        );
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
            // conn.stream drops (and closes) here.
        }
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool, hangup: bool) {
        if hangup {
            // ERR/HUP: the fd is dead — a mid-write disconnect lands here
            // and frees the slot immediately.
            self.close(token);
            return;
        }
        let state_is_reading = matches!(
            self.conns.get(&token).map(|c| &c.state),
            Some(State::Reading)
        );
        if state_is_reading && readable {
            self.on_readable(token);
        } else if writable {
            self.on_writable(token);
        } else if readable && !state_is_reading {
            // Bytes (or a FIN) arrived while a response drains. epoll's
            // RDHUP with no error lands here too: probe the socket so a peer
            // that vanished mid-write is detected instead of written to
            // forever. (poll(2) reports no read side while only write
            // interest is set; there the failing write finds it.)
            if let Some(conn) = self.conns.get_mut(&token) {
                let mut probe = [0u8; 1];
                match conn.stream.peek(&mut probe) {
                    Ok(0) => self.close(token),
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => self.close(token),
                }
            }
        }
    }

    /// Pump the socket into the parser; dispatch when a request completes.
    fn on_readable(&mut self, token: u64) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => {
                    conn.deadline = Instant::now() + self.shared.opts.read_timeout;
                    match conn.parser.feed(&buf[..n]) {
                        Ok(Some(req)) => {
                            self.dispatch(token, req);
                            return;
                        }
                        Ok(None) => continue,
                        Err(_) => {
                            // Protocol violation: drop the line.
                            self.close(token);
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
    }

    /// Route one complete request through the handler and start draining
    /// the response.
    fn dispatch(&mut self, token: u64, req: wire::Request) {
        let obs = comt_observe::global();
        let prefix = self.prefix();
        let close_requested = req.wants_close();
        obs.count(&format!("{prefix}.bytes_in"), req.body.len() as u64);
        let started = Instant::now();
        let (endpoint, action) = self.shared.handler.handle(&req);
        obs.count(&format!("{prefix}.req.{endpoint}"), 1);
        obs.record_value(
            &format!("{prefix}.{endpoint}.latency_us"),
            started.elapsed().as_micros() as u64,
        );
        // RFC 9110 §9.3.2: the answer to a HEAD is the GET answer's head,
        // `Content-Length` included, and no body — a keep-alive peer
        // reads the next response right after the blank line.
        let head_only = req.method == "HEAD";
        let ws = match action {
            HttpAction::Respond(resp) => {
                let head = wire::response_head_bytes(&resp, resp.body.len() as u64);
                let data = if head_only {
                    Bytes::new()
                } else {
                    Bytes::from(resp.body)
                };
                obs.count(&format!("{prefix}.bytes_out"), data.len() as u64);
                WriteState {
                    head,
                    head_pos: 0,
                    body: BodyCursor::Bytes { data, pos: 0 },
                    close_after: close_requested,
                }
            }
            HttpAction::RespondBody(resp, source) => {
                let head = wire::response_head_bytes(&resp, source.len());
                let source = if head_only {
                    BodySource::Bytes(Bytes::new())
                } else {
                    source
                };
                obs.count(&format!("{prefix}.bytes_out"), source.len());
                let body = match source {
                    BodySource::Bytes(data) => BodyCursor::Bytes { data, pos: 0 },
                    BodySource::File { path, offset, len } => {
                        match open_window(&path, offset) {
                            Ok(file) => BodyCursor::File {
                                file,
                                offset,
                                end: offset + len,
                                buffered: false,
                            },
                            Err(_) => {
                                // The file vanished between routing and
                                // serving; nothing sane to send under an
                                // already-chosen status. Drop the line.
                                self.close(token);
                                return;
                            }
                        }
                    }
                };
                WriteState {
                    head,
                    head_pos: 0,
                    body,
                    close_after: close_requested,
                }
            }
            HttpAction::RespondTruncated(resp, after) => {
                let cut = if head_only { 0 } else { after.min(resp.body.len()) };
                obs.count(&format!("{prefix}.chaos_truncations"), 1);
                obs.count(&format!("{prefix}.bytes_out"), cut as u64);
                // Advertise the full length, deliver only the prefix, then
                // hang up — the chaos hook for client Range-resume.
                let head = wire::response_head_bytes(&resp, resp.body.len() as u64);
                WriteState {
                    head,
                    head_pos: 0,
                    body: BodyCursor::Bytes {
                        data: Bytes::from(resp.body).slice(0..cut),
                        pos: 0,
                    },
                    close_after: true,
                }
            }
        };
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.state = State::Writing(ws);
            conn.deadline = Instant::now() + self.shared.opts.write_timeout;
        }
        // Optimistic pass: most responses fit the socket buffer whole.
        self.on_writable(token);
    }

    /// One fair write pass: at most one [`STREAM_CHUNK`] quantum, bucket
    /// permitting. Handles completion, throttling, and keep-alive.
    fn on_writable(&mut self, token: u64) {
        enum Next {
            Close,
            Stay,
            TryPipelined,
        }
        let next = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let ws = match std::mem::replace(&mut conn.state, State::Reading) {
                State::Writing(ws) => ws,
                // Spurious wakeup (e.g. OUT still armed after a state
                // change): restore and ignore.
                other => {
                    conn.state = other;
                    return;
                }
            };
            let (outcome, ws) = write_pass(conn, ws, &self.shared, &self.poller);
            match outcome {
                Pass::Dead => Next::Close,
                Pass::Blocked => {
                    conn.state = State::Writing(ws);
                    let _ = self
                        .poller
                        .modify(conn.stream.as_raw_fd(), token, false, true);
                    Next::Stay
                }
                Pass::Throttled => {
                    comt_observe::global().count(
                        &format!("{}.throttle_waits", self.shared.handler.metrics_prefix()),
                        1,
                    );
                    // Park with no interest; the sweep re-arms us. Rate
                    // limiting is intentional backpressure, so the write
                    // deadline is refreshed — only *peer* stalls kill conns.
                    conn.deadline = Instant::now() + self.shared.opts.write_timeout;
                    conn.state = State::Throttled(ws, Instant::now() + TICK);
                    let _ = self
                        .poller
                        .modify(conn.stream.as_raw_fd(), token, false, false);
                    Next::Stay
                }
                Pass::Done => {
                    if ws.close_after {
                        Next::Close
                    } else {
                        conn.state = State::Reading;
                        conn.deadline = Instant::now() + self.shared.opts.read_timeout;
                        let _ = self
                            .poller
                            .modify(conn.stream.as_raw_fd(), token, true, false);
                        Next::TryPipelined
                    }
                }
            }
        };
        match next {
            Next::Close => self.close(token),
            Next::Stay => {}
            Next::TryPipelined => {
                // A pipelined request may already be buffered in full.
                match self.conns.get_mut(&token).map(|c| c.parser.feed(&[])) {
                    Some(Ok(Some(req))) => self.dispatch(token, req),
                    Some(Err(_)) => self.close(token),
                    _ => {}
                }
            }
        }
    }

    /// Deadline sweep + throttled re-arm, run every tick.
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut expired = Vec::new();
        let mut rearm = Vec::new();
        for (&token, conn) in &self.conns {
            if now >= conn.deadline {
                expired.push(token);
            } else if matches!(&conn.state, State::Throttled(_, retry) if now >= *retry) {
                rearm.push(token);
            }
        }
        if !expired.is_empty() {
            comt_observe::global()
                .count(&format!("{}.conn_timeouts", self.prefix()), expired.len() as u64);
        }
        for token in expired {
            self.close(token);
        }
        for token in rearm {
            if let Some(conn) = self.conns.get_mut(&token) {
                if let State::Throttled(ws, _) = std::mem::replace(&mut conn.state, State::Reading)
                {
                    conn.state = State::Writing(ws);
                    let _ = self
                        .poller
                        .modify(conn.stream.as_raw_fd(), token, false, true);
                }
            }
        }
    }
}

fn open_window(path: &std::path::Path, offset: u64) -> io::Result<std::fs::File> {
    let mut f = std::fs::File::open(path)?;
    if offset > 0 {
        f.seek(SeekFrom::Start(offset))?;
    }
    Ok(f)
}

/// Drain head then body, bounded by one quantum and the peer's bucket.
fn write_pass<H: HttpHandler>(
    conn: &mut Conn,
    mut ws: WriteState,
    shared: &Shared<H>,
    poller: &Poller,
) -> (Pass, WriteState) {
    // Head first (tiny, not counted against the quantum).
    while ws.head_pos < ws.head.len() {
        match conn.stream.write(&ws.head[ws.head_pos..]) {
            Ok(0) => return (Pass::Dead, ws),
            Ok(n) => {
                ws.head_pos += n;
                conn.deadline = Instant::now() + shared.opts.write_timeout;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (Pass::Blocked, ws),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return (Pass::Dead, ws),
        }
    }
    if ws.body.remaining() == 0 {
        return (Pass::Done, ws);
    }
    let want = (ws.body.remaining() as usize).min(STREAM_CHUNK);
    let mut quantum = shared.grant(conn.peer, want);
    if quantum == 0 {
        return (Pass::Throttled, ws);
    }
    while quantum > 0 {
        let wrote = match &mut ws.body {
            BodyCursor::Bytes { data, pos } => {
                let end = (*pos + quantum).min(data.len());
                match conn.stream.write(&data[*pos..end]) {
                    Ok(0) => return (Pass::Dead, ws),
                    Ok(n) => {
                        *pos += n;
                        n
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (Pass::Blocked, ws),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return (Pass::Dead, ws),
                }
            }
            BodyCursor::File {
                file,
                offset,
                end,
                buffered,
            } => {
                let n = quantum.min((*end - *offset) as usize);
                if *buffered {
                    match copy_window(file, &mut conn.stream, offset, n) {
                        Ok(0) => return (Pass::Dead, ws),
                        Ok(n) => n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return (Pass::Blocked, ws)
                        }
                        Err(_) => return (Pass::Dead, ws),
                    }
                } else {
                    match poller.sendfile(conn.stream.as_raw_fd(), file.as_raw_fd(), offset, n) {
                        Ok(0) => return (Pass::Dead, ws), // file shorter than advertised
                        Ok(n) => {
                            comt_observe::global().count(
                                &format!("{}.sendfile_bytes", shared.handler.metrics_prefix()),
                                n as u64,
                            );
                            n
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return (Pass::Blocked, ws)
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            // No sendfile here (poll(2) backend, syscall
                            // filter, exotic fs): degrade to a bounded copy.
                            *buffered = true;
                            continue;
                        }
                    }
                }
            }
        };
        conn.deadline = Instant::now() + shared.opts.write_timeout;
        quantum -= wrote.min(quantum);
        if ws.body.remaining() == 0 {
            return (Pass::Done, ws);
        }
    }
    // Quantum spent with bytes left: yield the loop to other writers;
    // level-triggered readiness re-reports OUT next pass (round-robin).
    (Pass::Blocked, ws)
}

/// Buffered fallback for the sendfile window: seek is implicit (the file
/// cursor tracks `offset` once buffered mode starts), one bounded copy.
fn copy_window(
    file: &mut std::fs::File,
    sock: &mut TcpStream,
    offset: &mut u64,
    n: usize,
) -> io::Result<usize> {
    file.seek(SeekFrom::Start(*offset))?;
    let mut buf = vec![0u8; n.min(STREAM_CHUNK)];
    let got = file.read(&mut buf)?;
    if got == 0 {
        return Ok(0);
    }
    let wrote = sock.write(&buf[..got])?;
    *offset += wrote as u64;
    Ok(wrote)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_response_into, write_request, Request, Response};
    use std::io::BufReader;
    use std::path::PathBuf;

    const PREFIX: &str = "test.pollloop";
    const WINDOW: (u64, u64) = (1000, STREAM_CHUNK as u64 + 4321);

    /// Echoes request bodies; `/file` answers with a window of `file`.
    struct Echo {
        file: PathBuf,
    }

    impl HttpHandler for Echo {
        fn metrics_prefix(&self) -> &'static str {
            PREFIX
        }

        fn handle(&self, req: &Request) -> (&'static str, HttpAction) {
            if req.path == "/file" {
                let (offset, len) = WINDOW;
                let source = BodySource::File { path: self.file.clone(), offset, len };
                return ("file", HttpAction::RespondBody(Response::new(200), source));
            }
            ("echo", HttpAction::Respond(Response::new(200).with_body(req.body.clone())))
        }
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        // A server that never answers fails the test instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn read_body(reader: &mut BufReader<TcpStream>) -> Vec<u8> {
        let mut body = Vec::new();
        let (status, _) = read_response_into(reader, &mut body, 1 << 20).unwrap();
        assert_eq!(status, 200);
        body
    }

    /// The whole state machine over the `poll(2)` backend, on a host whose
    /// default is epoll. The first accept is the listener-fd regression:
    /// `poll(2)` watches fd numbers, so loop 0 must own the handle whose fd
    /// it registered.
    #[test]
    fn poll_backend_serves_the_whole_state_machine() {
        let dir = std::env::temp_dir().join(format!("comt-pollloop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let payload: Vec<u8> = (0..2 * STREAM_CHUNK).map(|i| (i % 251) as u8).collect();
        let file = dir.join("payload");
        std::fs::write(&file, &payload).unwrap();

        let opts = HttpOptions {
            threads: 2,
            max_conns: 2,
            read_timeout: Duration::from_secs(1),
            ..HttpOptions::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = serve_loop_on(Arc::new(Echo { file }), listener, &opts, || {
            Ok((Poller::new_poll(), Waker::new_pair()?))
        })
        .unwrap();
        let obs = comt_observe::global();

        // Keep-alive: two exchanges on one connection…
        let (mut a, mut a_in) = connect(server.addr());
        for body in [&b"one"[..], b"two"] {
            write_request(&mut a, "PUT", "/echo", &[], Some(body), false).unwrap();
            assert_eq!(read_body(&mut a_in), body);
        }
        // …then a pipelined pair in a single write, answered in order.
        let mut pair = Vec::new();
        write_request(&mut pair, "PUT", "/echo", &[], Some(b"three"), true).unwrap();
        write_request(&mut pair, "PUT", "/echo", &[], Some(b"four"), false).unwrap();
        a.write_all(&pair).unwrap();
        assert_eq!(read_body(&mut a_in), b"three");
        assert_eq!(read_body(&mut a_in), b"four");

        // A file window longer than one write quantum arrives byte-exact,
        // and through the bounded copy: this backend has no sendfile.
        write_request(&mut a, "GET", "/file", &[], None, false).unwrap();
        let (offset, len) = (WINDOW.0 as usize, WINDOW.1 as usize);
        assert_eq!(read_body(&mut a_in), &payload[offset..offset + len]);
        assert_eq!(obs.counter(&format!("{PREFIX}.sendfile_bytes")), 0);

        // A second connection (dealt to the other loop through the
        // socket-pair waker) fills `max_conns`; the third is refused.
        let (mut b, mut b_in) = connect(server.addr());
        write_request(&mut b, "PUT", "/echo", &[], Some(b"five"), false).unwrap();
        assert_eq!(read_body(&mut b_in), b"five");
        let (_c, mut c_in) = connect(server.addr());
        match c_in.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("third connection was not refused: {other:?}"),
        }
        assert_eq!(obs.counter(&format!("{PREFIX}.conns_rejected")), 1);

        // Idle past the read deadline: the sweep evicts and counts it.
        assert_eq!(b_in.read(&mut [0u8; 1]).unwrap(), 0);
        assert!(obs.counter(&format!("{PREFIX}.conn_timeouts")) >= 1);

        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
