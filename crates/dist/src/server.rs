//! The registry daemon: a TCP server speaking the distribution protocol,
//! generic over its storage backend.
//!
//! ## Shape
//!
//! The listener/loop/deadline plumbing lives in the shared
//! [`crate::http`] core ([`serve_http`]); this module is only the routing:
//! an [`HttpHandler`] that speaks the OCI distribution subset. All state
//! lives behind one mutex, but loop threads hold it only long enough to move
//! cheap [`comt_oci::BlobHandle`]s in or out — digest hashing, file reads
//! and socket I/O happen outside the lock, which is what lets concurrent
//! pullers scale.
//!
//! ## Backends
//!
//! The daemon serves `comt-oci`'s one tagged store, [`Layout`], over any
//! [`BlobBackend`]: the in-memory [`Registry`] (tests, benches) and the
//! crash-safe [`comt_oci::DiskRegistry`] (`comt serve` on a real layout,
//! each blob and tag committed durably at publish time) are that store at
//! its two blob backends. A failed mutation answers by whose fault it was
//! ([`StoreError::is_store_fault`]): the store's is a 500, the caller's a
//! 400.
//!
//! ## Atomicity
//!
//! Uploads are **staged**: the body accumulates in a per-request buffer,
//! it is hashed once into a [`Verified`] proof that borrows that buffer,
//! the proof's digest is compared with the address in the URL, and only
//! then is the blob published into the content-addressed store (for the
//! disk backend: write-to-temp → fsync → atomic rename, straight from the
//! request buffer). A connection killed mid-upload discards the stage; a
//! digest mismatch is a 400 and nothing becomes visible. Manifest PUTs
//! verify the *entire closure* (bytes, not just presence) before the tag
//! appears, so a pull can never observe a half-pushed image.

use crate::hotcache::HotBlobCache;
use crate::http::{serve_http, BodySource, HttpAction, HttpHandler, HttpOptions, HttpServer};
use crate::metrics::{report_response, with_process_counters};
use crate::wire::{self, Request, Response};
use crate::{tag_key, MEDIA_TYPE_MANIFEST};
use comt_digest::Digest;
use comt_oci::{BlobBackend, BlobHandle, Layout, Registry, StoreError, Verified};
use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Fault injection: truncate the next `truncate_blob_gets` blob GET
/// responses after `truncate_after` body bytes and drop the connection.
/// Exercises the client's Range-resume path deterministically.
///
/// `poison_range_gets` corrupts one byte in the body of the next N ranged
/// (206) blob GETs — the server still advertises the right Content-Range,
/// so only the client's per-chunk digest verification can catch it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chaos {
    pub truncate_blob_gets: u32,
    pub truncate_after: usize,
    pub poison_range_gets: u32,
}

/// Server tuning knobs: the shared [`HttpOptions`] plus what only the
/// registry has — its hot-blob cache and fault injection.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Threads, deadlines, body cap and admission limits of the serve core.
    pub http: HttpOptions,
    /// Byte budget for the hot-blob LRU in front of the backend; 0
    /// disables caching (every GET goes to the store).
    pub cache_bytes: u64,
    /// Optional fault injection.
    pub chaos: Option<Chaos>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            http: HttpOptions::default(),
            cache_bytes: 64 << 20,
            chaos: None,
        }
    }
}

/// The registry routing layer: store + chaos budget behind the shared
/// HTTP core. `R` is always a [`Layout`] over some [`BlobBackend`].
struct RegistryHandler<R> {
    registry: Mutex<R>,
    /// Byte-budgeted LRU of verified hot blobs: a layer every node in a
    /// cluster pulls is read and hashed once, then served as refcounted
    /// [`bytes::Bytes`] clones.
    cache: HotBlobCache,
    /// Digests whose on-disk content has been stream-verified this
    /// process lifetime — big blobs too large for the cache are checked
    /// once, then served straight off the file (sendfile where the
    /// poller has it) without re-hashing per GET.
    verified: Mutex<HashSet<Digest>>,
    chaos_budget: AtomicU32,
    chaos_after: usize,
    poison_budget: AtomicU32,
}

impl<B: BlobBackend + Send + 'static> HttpHandler for RegistryHandler<Layout<B>> {
    fn metrics_prefix(&self) -> &'static str {
        "dist.server"
    }

    fn handle(&self, req: &Request) -> (&'static str, HttpAction) {
        dispatch(req, self)
    }
}

/// A running daemon. Dropping it without [`DistServer::shutdown`] stops
/// accepting but does not join workers; call `shutdown` for a clean stop
/// that hands the store (with everything pushed to it) back. The type
/// parameter is the served [`Layout`] and defaults to the in-memory
/// [`Registry`].
pub struct DistServer<R = Registry> {
    http: HttpServer,
    state: Arc<RegistryHandler<R>>,
}

impl<R> std::fmt::Debug for DistServer<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistServer").field("addr", &self.addr()).finish()
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
/// `registry` until shutdown.
pub fn serve<B: BlobBackend + Send + 'static>(
    registry: Layout<B>,
    addr: &str,
    opts: ServerOptions,
) -> io::Result<DistServer<Layout<B>>> {
    let state = Arc::new(RegistryHandler {
        registry: Mutex::new(registry),
        cache: HotBlobCache::new(opts.cache_bytes),
        verified: Mutex::new(HashSet::new()),
        chaos_budget: AtomicU32::new(opts.chaos.map_or(0, |c| c.truncate_blob_gets)),
        chaos_after: opts.chaos.map_or(0, |c| c.truncate_after),
        poison_budget: AtomicU32::new(opts.chaos.map_or(0, |c| c.poison_range_gets)),
    });
    let http = serve_http(Arc::clone(&state), addr, opts.http)?;
    Ok(DistServer { http, state })
}

impl<R> DistServer<R> {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Stop accepting, join all threads and hand back the store with
    /// every successfully pushed image in it.
    pub fn shutdown(self) -> R {
        let DistServer { http, state } = self;
        http.shutdown();
        // Every thread that could hold a strong ref has been joined, so the
        // unwrap succeeds; stores are not required to be Clone (a disk
        // store holds the layout lock), so there is no fallback.
        match Arc::try_unwrap(state) {
            Ok(st) => st.registry.into_inner().unwrap_or_else(|e| e.into_inner()),
            Err(_) => unreachable!("server threads joined but state still shared"),
        }
    }
}

fn bad_request(detail: impl Into<String>) -> HttpAction {
    HttpAction::Respond(Response::new(400).with_body(detail.into()))
}

fn not_found() -> HttpAction {
    HttpAction::Respond(Response::new(404))
}

/// Split `/v2/<name…>/(blobs|manifests|chunkmaps)/<ref>`; the repository
/// name may itself contain `/`, so the kind marker is located from the end.
fn parse_path(path: &str) -> Option<(&str, &str, &str)> {
    let rest = path.strip_prefix("/v2/")?;
    let (head, reference) = rest.rsplit_once('/')?;
    let (name, kind) = head.rsplit_once('/')?;
    if name.is_empty() || reference.is_empty() {
        return None;
    }
    matches!(kind, "blobs" | "manifests" | "chunkmaps").then_some((name, kind, reference))
}

/// Route one request. Returns the endpoint label (for counters) plus the
/// action to take on the socket.
fn dispatch<B: BlobBackend>(
    req: &Request,
    state: &RegistryHandler<Layout<B>>,
) -> (&'static str, HttpAction) {
    if req.path == "/v2/" || req.path == "/v2" {
        return (
            "version",
            HttpAction::Respond(Response::new(200).with_body(&b"{}"[..])),
        );
    }
    if req.path == "/v2/_comt/stats" && req.method == "GET" {
        return ("stats", stats_response(state));
    }
    let Some((name, kind, reference)) = parse_path(&req.path) else {
        return ("unroutable", not_found());
    };
    match (req.method.as_str(), kind) {
        ("HEAD", "blobs") => ("blob_head", blob_head(name, reference, state)),
        ("GET", "blobs") => ("blob_get", blob_get(req, name, reference, state)),
        ("PUT", "blobs") => ("blob_put", blob_put(req, name, reference, state)),
        ("GET", "manifests") => ("manifest_get", manifest_get(name, reference, state)),
        ("HEAD", "manifests") => ("manifest_head", manifest_get(name, reference, state)),
        ("PUT", "manifests") => ("manifest_put", manifest_put(req, name, reference, state)),
        ("GET", "chunkmaps") => ("chunkmap_get", chunkmap_get(name, reference, state)),
        ("HEAD", "chunkmaps") => ("chunkmap_head", chunkmap_get(name, reference, state)),
        ("PUT", "chunkmaps") => ("chunkmap_put", chunkmap_put(req, name, reference, state)),
        _ => ("unroutable", HttpAction::Respond(Response::new(405))),
    }
}

fn parse_digest(reference: &str) -> Result<Digest, HttpAction> {
    reference
        .parse::<Digest>()
        .map_err(|e| bad_request(format!("bad digest {reference}: {e}")))
}

fn blob_head<B: BlobBackend>(
    _name: &str,
    reference: &str,
    state: &RegistryHandler<Layout<B>>,
) -> HttpAction {
    let digest = match parse_digest(reference) {
        Ok(d) => d,
        Err(a) => return a,
    };
    let len = {
        let reg = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        reg.blobs.handle(&digest).map(|h| h.len())
    };
    match len {
        Some(len) => HttpAction::Respond(
            Response::new(200)
                .with_header("Docker-Content-Digest", reference)
                .with_header("X-Content-Length", len.to_string()),
        ),
        None => not_found(),
    }
}

fn unservable(what: &str, e: impl std::fmt::Display) -> HttpAction {
    comt_observe::global().count("dist.server.verify_failures", 1);
    HttpAction::Respond(Response::new(500).with_body(format!("stored {what} unservable: {e}")))
}

/// Verify a blob too large for the cache — once per process lifetime.
/// The content is hashed in bounded chunks straight off its handle; after
/// the first clean check, GETs stream the file without re-hashing.
fn ensure_streamed_verified<B: BlobBackend>(
    state: &RegistryHandler<Layout<B>>,
    digest: &Digest,
    handle: &BlobHandle,
) -> Result<(), HttpAction> {
    if state
        .verified
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .contains(digest)
    {
        return Ok(());
    }
    let obs = comt_observe::global();
    let _span = obs.span("dist.server.verify");
    match handle.stream_verified(digest) {
        Ok(_) => {
            state
                .verified
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(*digest);
            Ok(())
        }
        Err(e) => Err(unservable("blob", e)),
    }
}

fn blob_get<B: BlobBackend>(
    req: &Request,
    _name: &str,
    reference: &str,
    state: &RegistryHandler<Layout<B>>,
) -> HttpAction {
    let digest = match parse_digest(reference) {
        Ok(d) => d,
        Err(a) => return a,
    };
    // Move a cheap handle out and release the lock before the expensive
    // part (file read for disk backends, hashing for all of them).
    let handle = {
        let reg = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        reg.blobs.handle(&digest)
    };
    let Some(handle) = handle else { return not_found() };
    let total = handle.len();
    let obs = comt_observe::global();
    let range_header = req.header("range");
    let (start, end, status) = match wire::parse_range(range_header, total) {
        Some((s, e)) => (s, e, 206),
        None if range_header.is_some() => {
            return HttpAction::Respond(
                Response::new(416).with_header("Content-Range", format!("bytes */{total}")),
            );
        }
        None => (0, total, 200),
    };

    let source = if status == 206 {
        // Range resume: touch only the requested window. A cache hit
        // slices the shared verified bytes zero-copy; a miss seeks into
        // the file and reads just `end - start` bytes — never the whole
        // blob, never a cache admission. The window itself cannot be
        // digest-checked in isolation; the client verifies the assembled
        // blob against its address, as the protocol requires anyway.
        match state.cache.get(&digest) {
            Some(b) => BodySource::Bytes(b.slice(start as usize..end as usize)),
            None => match handle.read_range(start, end) {
                Ok(b) => BodySource::Bytes(b),
                Err(e) => return unservable("blob", e),
            },
        }
    } else if state.cache.admits(total) {
        // Hot path: the LRU's single-flight loader reads + hashes the
        // blob at most once per admission (verify-on-admit); every
        // concurrent or later GET clones the refcounted bytes.
        let _span = obs.span("dist.server.verify");
        match state.cache.get_or_load(&digest, || handle.read_range(0, total)) {
            Ok(b) => BodySource::Bytes(b),
            Err(e) => return unservable("blob", e),
        }
    } else {
        // Too big to cache: stream off the store in bounded chunks
        // (sendfile or a bounded copy — the body never transits a Vec).
        if let Err(a) = ensure_streamed_verified(state, &digest, &handle) {
            return a;
        }
        match &handle {
            BlobHandle::File { path, .. } => BodySource::File {
                path: path.clone(),
                offset: 0,
                len: total,
            },
            BlobHandle::Resident(b) => BodySource::Bytes(b.clone()),
        }
    };

    let mut resp = Response::new(status).with_header("Docker-Content-Digest", reference);
    if status == 206 {
        resp = resp.with_header(
            "Content-Range",
            format!("bytes {}-{}/{}", start, end - 1, total),
        );
    }
    // Chaos: corrupt one byte of a ranged response. Headers stay truthful,
    // so nothing short of content verification can notice — exactly the
    // torn-chunk case the client's per-chunk digest check must catch.
    if status == 206 {
        let budget = state.poison_budget.load(Ordering::SeqCst);
        if budget > 0
            && state
                .poison_budget
                .compare_exchange(budget, budget - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            let mut body = match &source {
                BodySource::Bytes(b) => b.to_vec(),
                BodySource::File { .. } => match handle.read_range(start, end) {
                    Ok(b) => b.to_vec(),
                    Err(e) => return unservable("blob", e),
                },
            };
            if let Some(byte) = body.last_mut() {
                *byte ^= 0xFF;
            }
            return HttpAction::Respond(resp.with_body(body));
        }
    }
    // Chaos: pretend to serve the full range, cut the body short, hang up.
    // Truncation needs materialized bytes; chaos runs only in tests with
    // small payloads, so the materialization is bounded there.
    if state.chaos_after > 0 && source.len() as usize > state.chaos_after {
        let budget = state.chaos_budget.load(Ordering::SeqCst);
        if budget > 0
            && state
                .chaos_budget
                .compare_exchange(budget, budget - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            let body = match source {
                BodySource::Bytes(b) => b.to_vec(),
                BodySource::File { .. } => match handle.read_range(start, end) {
                    Ok(b) => b.to_vec(),
                    Err(e) => return unservable("blob", e),
                },
            };
            let after = state.chaos_after;
            return HttpAction::RespondTruncated(resp.with_body(body), after);
        }
    }
    HttpAction::RespondBody(resp, source)
}

/// `GET /v2/_comt/stats` — the metrics document ([`crate::metrics`]): the
/// global recorder's counters, spans and values, plus what this daemon
/// holds right now. The state gauges are set in the snapshot only, never
/// counted into the recorder.
fn stats_response<B: BlobBackend>(state: &RegistryHandler<Layout<B>>) -> HttpAction {
    let mut report = with_process_counters(comt_observe::global().report());
    let cache = state.cache.stats();
    let verified = state
        .verified
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .len();
    for (name, gauge) in [
        ("dist.cache.entries", cache.entries),
        ("dist.cache.bytes", cache.bytes),
        ("dist.cache.budget", cache.budget),
        ("dist.server.stream_verified", verified as u64),
    ] {
        report.counters.insert(name.into(), gauge);
    }
    report_response(&report)
}

fn blob_put<B: BlobBackend>(
    req: &Request,
    _name: &str,
    reference: &str,
    state: &RegistryHandler<Layout<B>>,
) -> HttpAction {
    let digest = match parse_digest(reference) {
        Ok(d) => d,
        Err(a) => return a,
    };
    // The staged body is hashed exactly once, off the registry lock; the
    // proof borrows it, so the backend stores it without a second hash (and
    // a disk backend without a copy). On mismatch the stage is dropped.
    let obs = comt_observe::global();
    let blob = {
        let _span = obs.span("dist.server.verify");
        Verified::hash(&req.body[..])
    };
    if blob.digest() != digest {
        obs.count("dist.server.rejected_uploads", 1);
        return bad_request(format!(
            "upload does not match its address: got {}, want {reference}",
            blob.digest()
        ));
    }
    let put = {
        let mut reg = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        reg.blobs.insert(blob)
    };
    match put {
        Ok(_) => HttpAction::Respond(
            Response::new(201).with_header("Docker-Content-Digest", reference),
        ),
        Err(e) => registry_failure("store blob", e),
    }
}

fn manifest_get<B: BlobBackend>(
    name: &str,
    reference: &str,
    state: &RegistryHandler<Layout<B>>,
) -> HttpAction {
    let key = tag_key(name, reference);
    let (digest, handle) = {
        let reg = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        match reg.resolve(&key).ok().and_then(|d| Some((d, reg.blobs.handle(&d)?))) {
            Some(found) => found,
            None => return not_found(),
        }
    };
    // Manifests ride the same digest-keyed LRU as blobs: verified once
    // on admission, served as refcounted clones after (get_or_load still
    // verifies when a manifest is over the admission bound).
    let body = {
        let _span = comt_observe::global().span("dist.server.verify");
        match state
            .cache
            .get_or_load(&digest, || handle.read_range(0, handle.len()))
        {
            Ok(b) => b,
            Err(e) => return unservable("manifest", e),
        }
    };
    HttpAction::RespondBody(
        Response::new(200)
            .with_header("Docker-Content-Digest", digest.to_oci_string())
            .with_header("Content-Type", MEDIA_TYPE_MANIFEST),
        BodySource::Bytes(body),
    )
}

fn manifest_put<B: BlobBackend>(
    req: &Request,
    name: &str,
    reference: &str,
    state: &RegistryHandler<Layout<B>>,
) -> HttpAction {
    let key = tag_key(name, reference);
    // Staged publish: the backend verifies closure completeness + content
    // before the tag appears (and, for disk backends, commits the manifest
    // blob and the new tag table durably). A half-pushed image can never
    // be pulled, and a rejected publish leaves no trace.
    let manifest = Verified::hash(&req.body[..]);
    let put = {
        let mut reg = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        reg.publish_manifest(&key, manifest)
    };
    match put {
        Ok(digest) => HttpAction::Respond(
            Response::new(201).with_header("Docker-Content-Digest", digest.to_oci_string()),
        ),
        Err(e) => {
            comt_observe::global().count("dist.server.rejected_manifests", 1);
            registry_failure("tag manifest", e)
        }
    }
}

/// `GET /v2/<name>/chunkmaps/<layer-digest>` — the chunk manifest the
/// server holds for a layer blob, or 404 (the client then falls back to a
/// full-blob pull). Chunkmaps are ordinary content-addressed blobs; they
/// ride the same verified hot cache as everything else. `HEAD` is this
/// answer without its body — the chunked push's "is this layer described
/// already?" probe.
fn chunkmap_get<B: BlobBackend>(
    _name: &str,
    reference: &str,
    state: &RegistryHandler<Layout<B>>,
) -> HttpAction {
    let layer = match parse_digest(reference) {
        Ok(d) => d,
        Err(a) => return a,
    };
    let obs = comt_observe::global();
    let found = {
        let reg = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        reg.chunkmap_for(&layer)
            .and_then(|md| reg.blobs.handle(&md).map(|h| (md, h)))
    };
    let Some((map_digest, handle)) = found else {
        obs.count("dist.server.chunkmap_misses", 1);
        return not_found();
    };
    let body = {
        let _span = obs.span("dist.server.verify");
        match state
            .cache
            .get_or_load(&map_digest, || handle.read_range(0, handle.len()))
        {
            Ok(b) => b,
            Err(e) => return unservable("chunkmap", e),
        }
    };
    obs.count("dist.server.chunkmap_hits", 1);
    HttpAction::RespondBody(
        Response::new(200)
            .with_header("Docker-Content-Digest", map_digest.to_oci_string())
            .with_header("Content-Type", comt_chunk::MEDIA_TYPE_CHUNKMAP),
        BodySource::Bytes(body),
    )
}

/// `PUT /v2/<name>/chunkmaps/<layer-digest>` — publish a chunk manifest
/// for a layer the server already holds. The body is validated
/// structurally (schema, contiguity, digest syntax) and cross-checked
/// against the stored layer's address and length before anything becomes
/// visible; deep per-chunk verification is `comt fsck`'s job.
fn chunkmap_put<B: BlobBackend>(
    req: &Request,
    _name: &str,
    reference: &str,
    state: &RegistryHandler<Layout<B>>,
) -> HttpAction {
    let layer = match parse_digest(reference) {
        Ok(d) => d,
        Err(a) => return a,
    };
    let map = match comt_chunk::ChunkMap::from_json(&req.body) {
        Ok(m) => m,
        Err(e) => return bad_request(format!("malformed chunkmap: {e}")),
    };
    if map.parsed_blob_digest().ok() != Some(layer) {
        return bad_request(format!(
            "chunkmap is for {}, not the addressed layer {reference}",
            map.blob_digest
        ));
    }
    let proof = Verified::hash(&req.body[..]);
    let put = {
        let mut reg = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        match reg.blobs.handle(&layer) {
            // Not a 404: the route exists (404 here would read as "old
            // daemon" to the client) — the request is simply invalid.
            None => return bad_request(format!("no layer {reference} to describe")),
            Some(h) if h.len() != map.blob_size => {
                return bad_request(format!(
                    "chunkmap covers {} bytes but the stored layer has {}",
                    map.blob_size,
                    h.len()
                ));
            }
            Some(_) => {}
        }
        reg.put_chunkmap(layer, proof)
    };
    match put {
        Ok(map_digest) => {
            comt_observe::global().count("dist.server.chunkmaps_published", 1);
            HttpAction::Respond(
                Response::new(201)
                    .with_header("Docker-Content-Digest", map_digest.to_oci_string()),
            )
        }
        Err(e) => registry_failure("store chunkmap", e),
    }
}

/// Map a store failure onto the wire: the caller's fault (corrupt or
/// incomplete push) is a 400, the store's own fault is a 500.
fn registry_failure(op: &str, e: StoreError) -> HttpAction {
    let status = if e.is_store_fault() { 500 } else { 400 };
    HttpAction::Respond(Response::new(status).with_body(format!("{op}: {e}")))
}
