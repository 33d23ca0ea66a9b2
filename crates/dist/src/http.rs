//! The shared HTTP/1.1 service core: one hardened serve-path
//! implementation behind every coMtainer daemon.
//!
//! Extracted from the registry server so `comt serve` (the distribution
//! registry) and `comt buildd` (the multi-tenant rebuild service) run the
//! same battle-tested plumbing and differ only in routing. A daemon
//! implements [`HttpHandler`] (pure request → response routing; the trait
//! never sees a socket) and calls [`serve_http`].
//!
//! One engine sits behind the API ([`crate::eventloop`]): `threads` loop
//! threads, each a readiness-driven reactor over its own
//! [`crate::poller::Poller`]. Connections are nonblocking state machines
//! with per-state deadlines, responses stream in bounded chunks, writes
//! are scheduled round-robin with a per-pass quantum, `max_conns` refuses
//! a connection flood at accept and per-client token buckets cap egress —
//! on every platform. Thousands of idle connections cost entries in a
//! poll set, not threads. What the platform decides is only how readiness
//! is learned and how a file body moves: epoll and `sendfile` on Linux,
//! `poll(2)` and a bounded copy elsewhere (see [`crate::poller`]).
//!
//! Handlers return bodies either materialized ([`HttpAction::Respond`])
//! or as a [`BodySource`] ([`HttpAction::RespondBody`]) that the engine
//! streams in [`STREAM_CHUNK`]-bounded pieces. Fault injection stays
//! available via [`HttpAction::RespondTruncated`], which lies about the
//! body length and drops the line — the chaos hook the registry uses to
//! exercise client Range-resume.

pub use crate::eventloop::HttpServer;
use crate::wire::{Request, Response};
use bytes::Bytes;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Bound on any single body copy on the serve path: streamed responses
/// move through the socket in pieces of at most this size.
pub const STREAM_CHUNK: usize = 256 * 1024;

/// Tuning knobs shared by every daemon built on [`serve_http`].
#[derive(Debug, Clone)]
pub struct HttpOptions {
    /// Event loop threads.
    pub threads: usize,
    /// Per-connection read deadline (idle keep-alive or stalled upload).
    pub read_timeout: Duration,
    /// Per-connection write deadline (stalled / zero-window reader).
    pub write_timeout: Duration,
    /// Largest accepted request body.
    pub max_body: usize,
    /// Open-connection cap. Accepts past the cap are refused immediately
    /// and counted, so a connection flood degrades loudly instead of
    /// wedging the reactor.
    pub max_conns: usize,
    /// Per-client (peer IP) egress cap in bytes/sec; 0 disables.
    pub client_rate: u64,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 16)),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body: 1 << 30,
            max_conns: 1024,
            client_rate: 0,
        }
    }
}

/// Where a streamed response body comes from.
#[derive(Debug)]
pub enum BodySource {
    /// Refcounted in-memory bytes (hot-cache hits, manifests): cloned
    /// per response, written in bounded chunks, never copied whole.
    Bytes(Bytes),
    /// A byte window of a file on disk: moved with `sendfile`
    /// (kernel-space file→socket, zero userspace copies) where the poller
    /// backend has it, through a [`STREAM_CHUNK`]-bounded buffer otherwise.
    File { path: PathBuf, offset: u64, len: u64 },
}

impl BodySource {
    pub fn len(&self) -> u64 {
        match self {
            BodySource::Bytes(b) => b.len() as u64,
            BodySource::File { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a handler wants done with the socket after routing one request.
pub enum HttpAction {
    /// A fully materialized response (status, headers, body).
    Respond(Response),
    /// `resp` carries status + headers; the body streams from `source`
    /// (its `Content-Length` is the source length, `resp.body` ignored).
    RespondBody(Response, BodySource),
    /// Fault injection: send only the first N body bytes of a response
    /// that advertises its full length, then close the connection.
    RespondTruncated(Response, usize),
}

/// A daemon's routing layer. Implementations are shared across serve
/// threads, so handlers synchronize their own state.
pub trait HttpHandler: Send + Sync + 'static {
    /// Namespace for this daemon's observe counters — e.g. `dist.server`
    /// yields `dist.server.req.<endpoint>`, `dist.server.bytes_in`, …
    /// Also names the daemon's threads.
    fn metrics_prefix(&self) -> &'static str;

    /// Route one request: returns the endpoint label (for counters) plus
    /// the action to take on the socket.
    fn handle(&self, req: &Request) -> (&'static str, HttpAction);
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
/// `handler` until shutdown.
pub fn serve_http<H: HttpHandler>(
    handler: Arc<H>,
    addr: &str,
    opts: HttpOptions,
) -> io::Result<HttpServer> {
    crate::eventloop::serve_loop(handler, TcpListener::bind(addr)?, &opts)
}
