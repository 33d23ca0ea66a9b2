//! The distribution client: dedupe on push, resume on pull, retry on
//! everything transient.
//!
//! Every operation runs under a bounded retry loop: exponential backoff
//! with deterministic-per-client jitter, a per-attempt socket deadline and
//! an overall operation deadline. Blob downloads keep the partial prefix
//! across attempts and continue with `Range: bytes=N-`, so a killed
//! connection costs only the un-received suffix. Every received blob is
//! re-hashed before it is admitted; a digest mismatch discards the buffer
//! and retries from scratch.

use crate::http::MAX_BODY;
use crate::wire;
use crate::{tag_key, DistError, MEDIA_TYPE_MANIFEST};
use bytes::Bytes;
use comt_chunk::{
    plan_delta, ChunkEntry, ChunkIndex, ChunkMap, ChunkParams, RangePlan, DEFAULT_COALESCE_GAP,
    MEDIA_TYPE_CHUNKMAP,
};
use comt_digest::Digest;
use comt_oci::store::{closure_digests, closure_of_manifest, BlobStore, Verified};
use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `(status, headers, body)` of one raw HTTP exchange.
pub type RawResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Wall-clock budget for one logical operation across all attempts.
const OP_DEADLINE: Duration = Duration::from_secs(60);

/// Per-attempt connect, read and write deadline.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Bounded exponential backoff with jitter. The deadlines are the
/// constants `OP_DEADLINE` per operation and `IO_TIMEOUT` per socket call.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before attempt 2 (doubles per attempt).
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(640),
        }
    }
}

impl RetryPolicy {
    /// Fail-fast policy for tests.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// Backoff before `attempt` (2-based), jittered into `[d/2, d]` by a
    /// cheap xorshift keyed on the seed and the attempt number.
    fn backoff(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt.saturating_sub(2)).min(16))
            .min(self.max_delay);
        let mut x = seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let half = exp.as_nanos() as u64 / 2;
        Duration::from_nanos(half + (x % half.max(1)))
    }
}

/// What a push or pull moved (and skipped via deduplication).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Blobs actually sent/received.
    pub blobs_moved: usize,
    /// Closure blobs skipped because the other side already had them.
    pub blobs_skipped: usize,
    /// Body bytes moved (blob payloads, both directions).
    pub bytes_moved: u64,
    /// Chunks reused from local blobs during delta pulls.
    pub chunks_hit: usize,
    /// Chunks actually fetched over the wire during delta pulls.
    pub chunks_fetched: usize,
    /// Layer bytes *not* transferred thanks to sub-layer dedupe.
    pub delta_bytes_saved: u64,
}

/// How a pull consumes the closure: whether to attempt chunk-level delta
/// transfer and with how many concurrent range fetches per layer.
#[derive(Debug, Clone, Copy)]
pub struct PullOptions {
    /// Ask the server for chunkmaps and fetch only missing chunks,
    /// falling back to full-blob GETs when it has none. Off forces the
    /// classic full-blob path.
    pub delta: bool,
    /// Concurrent range fetches while reassembling one layer.
    pub concurrency: usize,
}

impl Default for PullOptions {
    fn default() -> Self {
        PullOptions {
            delta: true,
            concurrency: 4,
        }
    }
}

/// A client bound to one registry address.
#[derive(Debug, Clone)]
pub struct DistClient {
    addr: String,
    policy: RetryPolicy,
    jitter_seed: u64,
}

impl DistClient {
    pub fn new(addr: impl Into<String>) -> Self {
        DistClient::with_policy(addr, RetryPolicy::default())
    }

    pub fn with_policy(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let addr = addr.into();
        // Deterministic per-address seed; spreads concurrent clients
        // without needing a randomness source.
        let jitter_seed = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            addr.hash(&mut h);
            std::process::id().hash(&mut h);
            h.finish() | 1
        };
        DistClient {
            addr,
            policy,
            jitter_seed,
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn connect(&self) -> Result<TcpStream, DistError> {
        let sockaddr: SocketAddr = self
            .addr
            .to_socket_addrs()
            .map_err(|e| DistError::io("resolve", e))?
            .next()
            .ok_or_else(|| DistError::protocol(format!("no address for {}", self.addr)))?;
        let stream = TcpStream::connect_timeout(&sockaddr, IO_TIMEOUT)
            .map_err(|e| DistError::io("connect", e))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|_| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|e| DistError::io("socket setup", e))?;
        Ok(stream)
    }

    /// One request/response exchange on a fresh connection. The body (if
    /// any) streams into `sink`; on transport death the partial prefix is
    /// preserved there.
    fn exchange(
        &self,
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: Option<&[u8]>,
        chunked: bool,
        sink: &mut Vec<u8>,
    ) -> Result<(u16, Vec<(String, String)>), DistError> {
        let stream = self.connect()?;
        let mut writer = stream.try_clone().map_err(|e| DistError::io("clone", e))?;
        let mut all_headers = vec![("Host".to_string(), self.addr.clone())];
        all_headers.extend_from_slice(headers);
        wire::write_request(&mut writer, method, path, &all_headers, body, chunked)
            .map_err(|e| DistError::io("send request", e))?;
        writer.flush().map_err(|e| DistError::io("flush", e))?;
        let mut reader = BufReader::new(stream);
        if method == "HEAD" {
            return wire::read_response_head(&mut reader)
                .map_err(|e| DistError::io("read response", e));
        }
        wire::read_response_into(&mut reader, sink, MAX_BODY)
            .map_err(|e| DistError::io("read response", e))
    }

    /// Run `attempt` under the retry loop. The closure decides what a
    /// non-transport failure means by returning `Err`; transport errors
    /// and 5xx are retried, 4xx are not.
    fn with_retries<T>(
        &self,
        op: &str,
        mut attempt_fn: impl FnMut() -> Result<T, DistError>,
    ) -> Result<T, DistError> {
        let started = Instant::now();
        let obs = comt_observe::global();
        let mut last: Option<DistError> = None;
        for attempt in 1..=self.policy.max_attempts {
            if attempt > 1 {
                obs.count("dist.client.retries", 1);
                std::thread::sleep(self.policy.backoff(attempt, self.jitter_seed));
            }
            match attempt_fn() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && started.elapsed() < OP_DEADLINE => {
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(DistError::RetriesExhausted {
            op: op.to_string(),
            attempts: self.policy.max_attempts,
            last: Box::new(last.unwrap_or_else(|| DistError::protocol("no attempt ran"))),
        })
    }

    /// One request/response exchange on a fresh connection, no retries:
    /// the transport building block for protocol clients layered on this
    /// one (the buildd job client). Returns status, headers and body.
    pub fn raw_exchange(
        &self,
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: Option<&[u8]>,
    ) -> Result<RawResponse, DistError> {
        let mut sink = Vec::new();
        let (status, resp_headers) = self.exchange(method, path, headers, body, false, &mut sink)?;
        Ok((status, resp_headers, sink))
    }

    /// Run an operation under this client's bounded retry loop — public
    /// for layered protocol clients. Transport errors, protocol hiccups
    /// and 5xx are retried; definitive answers (4xx) are not.
    pub fn retrying<T>(
        &self,
        op: &str,
        attempt_fn: impl FnMut() -> Result<T, DistError>,
    ) -> Result<T, DistError> {
        self.with_retries(op, attempt_fn)
    }

    /// Does the remote have this blob? Returns its size if so.
    pub fn head_blob(&self, name: &str, digest: &Digest) -> Result<Option<u64>, DistError> {
        let path = format!("/v2/{name}/blobs/{}", digest.to_oci_string());
        self.with_retries("head blob", || {
            let mut sink = Vec::new();
            let (status, headers) = self.exchange("HEAD", &path, &[], None, false, &mut sink)?;
            match status {
                200 => Ok(wire::find_header(&headers, "x-content-length")
                    .and_then(|v| v.parse().ok())),
                404 => Ok(None),
                s => Err(DistError::status("head blob", s, &sink)),
            }
        })
    }

    /// Download a blob, resuming across dropped connections and verifying
    /// the digest before returning.
    pub fn get_blob(&self, name: &str, digest: &Digest) -> Result<Bytes, DistError> {
        self.fetch_blob(name, digest).map(Verified::into_bytes)
    }

    /// [`DistClient::get_blob`], keeping the proof of the hash it took: the
    /// pull path admits the blob into the local store on it.
    fn fetch_blob(&self, name: &str, digest: &Digest) -> Result<Verified<'static>, DistError> {
        let path = format!("/v2/{name}/blobs/{}", digest.to_oci_string());
        let obs = comt_observe::global();
        let _span = obs.span("dist.client.get_blob");
        self.get_resumable("get blob", &path, 0, None, |buf| {
            // Taking the buffer also empties it: a corrupt transfer is
            // retried from scratch.
            let blob = Verified::hash(std::mem::take(buf));
            if blob.digest() != *digest {
                obs.count("dist.client.verify_failures", 1);
                return Err(DistError::DigestMismatch {
                    expected: digest.to_oci_string(),
                    got: blob.digest().to_oci_string(),
                });
            }
            Ok(blob)
        })
    }

    /// A resumable GET of the window `[start, end)` of the blob at `path`
    /// (`end: None`: to the blob's end), under the retry loop. A window
    /// always asks for its range; a whole blob sends no `Range` until it
    /// resumes. A dropped connection keeps the partial window for the next
    /// attempt; a confused resume empties it and retries. Each complete
    /// window goes to `verify`, which may empty the buffer to refetch it.
    fn get_resumable<T>(
        &self,
        op: &str,
        path: &str,
        start: u64,
        end: Option<u64>,
        mut verify: impl FnMut(&mut Vec<u8>) -> Result<T, DistError>,
    ) -> Result<T, DistError> {
        let obs = comt_observe::global();
        let mut buf = Vec::with_capacity(end.map_or(0, |end| (end - start) as usize));
        self.with_retries(op, || {
            let before = buf.len();
            if before > 0 {
                obs.count("dist.client.resumes", 1);
            }
            let from = start + before as u64;
            let ranged = end.is_some() || before > 0;
            let mut headers = Vec::new();
            if ranged {
                let last = end.map_or(String::new(), |end| (end - 1).to_string());
                headers.push(("Range".to_string(), format!("bytes={from}-{last}")));
            }
            let result = self.exchange("GET", path, &headers, None, false, &mut buf);
            obs.count("dist.client.bytes_in", (buf.len() - before) as u64);
            let (status, resp_headers) = result?; // partial window stays in buf
            match status {
                200 if !ranged => {}
                206 if ranged => {
                    // Cross-check the server's idea of the resume offset.
                    let ok = wire::find_header(&resp_headers, "content-range")
                        .and_then(|v| v.strip_prefix("bytes "))
                        .and_then(|v| v.split('-').next())
                        .and_then(|v| v.parse::<u64>().ok())
                        == Some(from);
                    if !ok {
                        buf.clear();
                        return Err(DistError::protocol("content-range offset mismatch"));
                    }
                }
                200 => {
                    // Server ignored the range: its body is the whole blob.
                    // Keep our window of it and discard the rest.
                    let whole = buf.split_off(before);
                    buf.clear();
                    let stop = end.map_or(whole.len(), |end| end as usize);
                    if whole.len() < stop {
                        return Err(DistError::protocol("full-blob body shorter than window"));
                    }
                    buf.extend_from_slice(&whole[start as usize..stop]);
                }
                416 if ranged => {
                    // Our offset confused the server — start over (a
                    // Protocol error is retryable, unlike a 4xx status).
                    buf.clear();
                    return Err(DistError::protocol("range not satisfiable, restarting"));
                }
                404 => return Err(DistError::status(op, 404, b"not found")),
                s => {
                    let body = buf.split_off(before);
                    return Err(DistError::status(op, s, &body));
                }
            }
            verify(&mut buf)
        })
    }

    /// Upload a blob as a chunked PUT. The server stages, verifies and
    /// atomically publishes; we retry the whole upload on transport death.
    pub fn put_blob(&self, name: &str, digest: &Digest, data: &[u8]) -> Result<(), DistError> {
        let path = format!("/v2/{name}/blobs/{}", digest.to_oci_string());
        let obs = comt_observe::global();
        let _span = obs.span("dist.client.put_blob");
        self.with_retries("put blob", || {
            let mut sink = Vec::new();
            let (status, _) = self.exchange("PUT", &path, &[], Some(data), true, &mut sink)?;
            match status {
                201 => {
                    obs.count("dist.client.bytes_out", data.len() as u64);
                    Ok(())
                }
                s => Err(DistError::status("put blob", s, &sink)),
            }
        })
    }

    /// Fetch the server's chunk manifest for a layer blob. `Ok(None)`
    /// means the server has none (or predates chunkmaps entirely — old
    /// servers 404 the route); the caller falls back to a full-blob pull.
    pub fn get_chunkmap(&self, name: &str, layer: &Digest) -> Result<Option<Bytes>, DistError> {
        let path = format!("/v2/{name}/chunkmaps/{}", layer.to_oci_string());
        self.with_retries("get chunkmap", || {
            let mut sink = Vec::new();
            let (status, headers) = self.exchange("GET", &path, &[], None, false, &mut sink)?;
            match status {
                200 => {
                    if let Some(advertised) = wire::find_header(&headers, "docker-content-digest")
                    {
                        let got = Digest::of(&sink);
                        if advertised != got.to_oci_string() {
                            return Err(DistError::DigestMismatch {
                                expected: advertised.to_string(),
                                got: got.to_oci_string(),
                            });
                        }
                    }
                    Ok(Some(Bytes::from(std::mem::take(&mut sink))))
                }
                404 | 405 => Ok(None),
                s => Err(DistError::status("get chunkmap", s, &sink)),
            }
        })
    }

    /// Does the server already hold a chunk manifest for this layer? 404
    /// and 405 (a daemon that predates the route holds none) are `false`.
    fn head_chunkmap(&self, name: &str, layer: &Digest) -> Result<bool, DistError> {
        let path = format!("/v2/{name}/chunkmaps/{}", layer.to_oci_string());
        self.with_retries("head chunkmap", || {
            let mut sink = Vec::new();
            let (status, _) = self.exchange("HEAD", &path, &[], None, false, &mut sink)?;
            match status {
                200 => Ok(true),
                404 | 405 => Ok(false),
                s => Err(DistError::status("head chunkmap", s, &sink)),
            }
        })
    }

    /// Publish a chunk manifest for a layer the server already holds.
    /// `Ok(false)` means the server does not speak the chunkmap route
    /// (old daemon) — the push simply proceeds unchunked.
    pub fn put_chunkmap(
        &self,
        name: &str,
        layer: &Digest,
        map_json: &[u8],
    ) -> Result<bool, DistError> {
        let path = format!("/v2/{name}/chunkmaps/{}", layer.to_oci_string());
        let headers = [("Content-Type".to_string(), MEDIA_TYPE_CHUNKMAP.to_string())];
        self.with_retries("put chunkmap", || {
            let mut sink = Vec::new();
            let (status, _) =
                self.exchange("PUT", &path, &headers, Some(map_json), false, &mut sink)?;
            match status {
                201 => Ok(true),
                404 | 405 => Ok(false),
                s => Err(DistError::status("put chunkmap", s, &sink)),
            }
        })
    }

    /// Fetch one byte window of a blob and verify every chunk inside it
    /// against its digest from the chunkmap. Resumes across dropped
    /// connections like [`DistClient::get_blob`]; a poisoned chunk (bytes
    /// that no longer hash to their address) clears the buffer and
    /// retries from the window start, so a transiently corrupting path
    /// heals and a persistently corrupting one fails closed.
    fn get_range_verified(
        &self,
        name: &str,
        blob: &Digest,
        range: &RangePlan,
        chunks: &[ChunkEntry],
    ) -> Result<Vec<u8>, DistError> {
        let path = format!("/v2/{name}/blobs/{}", blob.to_oci_string());
        let (start, end) = (range.start, range.end);
        let want = (end - start) as usize;
        let obs = comt_observe::global();
        self.get_resumable("get chunk range", &path, start, Some(end), |buf| {
            if buf.len() != want {
                return Err(DistError::protocol(format!(
                    "range window incomplete: {} of {want} bytes",
                    buf.len()
                )));
            }
            // Per-chunk verification: the only defense against a poisoned
            // window, because a byte span of a blob has no address of its
            // own to check against.
            for c in chunks {
                let off = (c.offset - start) as usize;
                let got = Digest::of(&buf[off..off + c.size as usize]);
                if got != c.parsed_digest().map_err(|e| DistError::protocol(e.to_string()))? {
                    obs.count("dist.client.verify_failures", 1);
                    buf.clear(); // poisoned — refetch the whole window
                    return Err(DistError::DigestMismatch {
                        expected: c.digest.clone(),
                        got: got.to_oci_string(),
                    });
                }
            }
            Ok(std::mem::take(buf))
        })
    }

    /// Reassemble one layer from local chunks plus fetched ranges.
    /// `Ok(None)` means the chunkmap could not be used (no chunk of it is
    /// held locally, a local source blob vanished, or the reassembled bytes
    /// do not hash to the layer's address because a map is stale or lies)
    /// — the caller falls back to a full-blob pull. Transport failures and
    /// persistently poisoned chunks propagate as errors: nothing torn is
    /// ever returned.
    #[allow(clippy::too_many_arguments)] // internal helper; mirrors the pull state it splices
    fn pull_blob_delta(
        &self,
        name: &str,
        digest: &Digest,
        map: &ChunkMap,
        index: &ChunkIndex,
        dst: &BlobStore,
        concurrency: usize,
        stats: &mut TransferStats,
    ) -> Result<Option<Verified<'static>>, DistError> {
        let obs = comt_observe::global();
        let _span = obs.span("dist.client.delta_pull");
        let plan = plan_delta(map, index, DEFAULT_COALESCE_GAP);
        if plan.chunks_hit() == 0 {
            // Nothing local to reuse: one plain GET beats ranged windows
            // that are each hashed and then hashed again as a whole.
            return Ok(None);
        }
        let mut out = vec![0u8; map.blob_size as usize];

        // Local chunks first: copy byte spans out of blobs already held.
        for (i, src) in plan.sources.iter().enumerate() {
            let Some(src) = src else { continue };
            let c = &map.chunks[i];
            let Some(data) = dst.get(&src.blob) else {
                return Ok(None); // index out of date with the store
            };
            let from = src.offset as usize..src.offset as usize + src.size as usize;
            out[c.offset as usize..c.offset as usize + c.size as usize]
                .copy_from_slice(&data[from]);
        }

        // Missing ranges: a small worker pool over coalesced windows, each
        // fetched with resume and per-chunk verification.
        let n = plan.ranges.len();
        type RangeSlot = Mutex<Option<Result<Vec<u8>, DistError>>>;
        let results: Vec<RangeSlot> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = concurrency.max(1).min(n.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    let r = &plan.ranges[i];
                    let window = self.get_range_verified(
                        name,
                        digest,
                        r,
                        &map.chunks[r.chunks.0..r.chunks.1],
                    );
                    *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(window);
                });
            }
        });
        for (r, slot) in plan.ranges.iter().zip(results) {
            let window = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| Err(DistError::protocol("range fetch never ran")))?;
            out[r.start as usize..r.end as usize].copy_from_slice(&window);
        }

        // The protocol's trust boundary: the assembled layer must hash to
        // its address before anything is committed.
        let Ok(blob) = Verified::check(*digest, out) else {
            obs.count("dist.client.verify_failures", 1);
            return Ok(None); // stale/contradictory chunkmap — pull it whole
        };
        stats.chunks_hit += plan.chunks_hit();
        stats.chunks_fetched += plan.chunks_missing();
        stats.delta_bytes_saved += plan.bytes_local;
        stats.bytes_moved += plan.bytes_fetched;
        obs.count("dist.client.chunks_hit", plan.chunks_hit() as u64);
        obs.count("dist.client.chunks_fetched", plan.chunks_missing() as u64);
        obs.count("dist.client.delta_bytes_saved", plan.bytes_local);
        obs.count("dist.client.delta_bytes_fetched", plan.bytes_fetched);
        Ok(Some(blob))
    }

    /// The chunk index over the blobs a pull started with. A held blob
    /// longer than one maximal chunk is indexed from the map the daemon
    /// publishes for it, when that map parses, names the blob, has its
    /// length and was cut with `params`; every other held blob is chunked
    /// and hashed. No trust is added: a map only says where chunks might
    /// be, every entry lies inside its blob, and a wrong one makes the
    /// assembled layer fail its whole-blob check, which pulls it whole.
    /// These map bodies are index lookups, not payload: the pull's
    /// `bytes_moved` does not count them (the daemon's `bytes_out` does).
    fn index_held(
        &self,
        name: &str,
        held: &BlobStore,
        blobs: &[Digest],
        params: ChunkParams,
    ) -> ChunkIndex {
        let obs = comt_observe::global();
        let mut index = ChunkIndex::new();
        for d in blobs {
            let Some(data) = held.get(d) else { continue };
            let len = data.len() as u64;
            let mapped = len > u64::from(params.max)
                && self
                    .get_chunkmap(name, d)
                    .ok()
                    .flatten()
                    .and_then(|raw| ChunkMap::from_json(&raw).ok())
                    .filter(|m| m.params == params)
                    .is_some_and(|m| index.add_map(*d, len, &m).is_ok());
            if mapped {
                obs.count("dist.client.index_blobs_mapped", 1);
            } else {
                index.add_blob(*d, &data, params);
                obs.count("dist.client.index_bytes_scanned", len);
            }
        }
        index
    }

    /// Fetch a manifest by tag, hashed on arrival: the proof carries its
    /// digest and bytes.
    pub fn get_manifest(
        &self,
        name: &str,
        reference: &str,
    ) -> Result<Verified<'static>, DistError> {
        let path = format!("/v2/{name}/manifests/{reference}");
        self.with_retries("get manifest", || {
            let mut sink = Vec::new();
            let (status, headers) = self.exchange("GET", &path, &[], None, false, &mut sink)?;
            match status {
                200 => {
                    let manifest = Verified::hash(sink);
                    let got = manifest.digest().to_oci_string();
                    match wire::find_header(&headers, "docker-content-digest") {
                        Some(advertised) if advertised != got => Err(DistError::DigestMismatch {
                            expected: advertised.to_string(),
                            got,
                        }),
                        _ => Ok(manifest),
                    }
                }
                404 => Err(DistError::status(
                    "get manifest",
                    404,
                    format!("unknown: {}", tag_key(name, reference)).as_bytes(),
                )),
                s => Err(DistError::status("get manifest", s, &sink)),
            }
        })
    }

    /// Upload a manifest under a tag. The tag only appears if the server
    /// verified the full closure.
    pub fn put_manifest(
        &self,
        name: &str,
        reference: &str,
        manifest: &[u8],
    ) -> Result<Digest, DistError> {
        let path = format!("/v2/{name}/manifests/{reference}");
        let headers = [("Content-Type".to_string(), MEDIA_TYPE_MANIFEST.to_string())];
        self.with_retries("put manifest", || {
            let mut sink = Vec::new();
            let (status, _) =
                self.exchange("PUT", &path, &headers, Some(manifest), false, &mut sink)?;
            match status {
                201 => Ok(Digest::of(manifest)),
                s => Err(DistError::status("put manifest", s, &sink)),
            }
        })
    }

    /// Push a manifest closure from `src`, deduplicating via HEAD: only
    /// blobs the remote does not already hold are transferred; the
    /// manifest goes last so the tag flips only onto a complete closure.
    pub fn push_image(
        &self,
        name: &str,
        reference: &str,
        manifest_digest: Digest,
        src: &BlobStore,
    ) -> Result<TransferStats, DistError> {
        self.push(name, reference, manifest_digest, src, None)
    }

    /// The one push body; `chunking` adds the chunkmaps.
    ///
    /// Every closure blob is HEADed first. A blob the daemon lacks is
    /// uploaded; a layer it holds is probed for a map it may already hold
    /// (a fresh upload cannot have one). Then one scoped worker chunks the
    /// layers the daemon has no map for — blob digest from `src`'s proof,
    /// so only the chunks are hashed — while this thread uploads the
    /// missing blobs and the manifest. After the join the maps go out in
    /// layer order; a daemon that predates chunkmaps (405 on the probe and
    /// on the PUT) gets exactly a classic push.
    fn push(
        &self,
        name: &str,
        reference: &str,
        manifest_digest: Digest,
        src: &BlobStore,
        chunking: Option<ChunkParams>,
    ) -> Result<TransferStats, DistError> {
        let obs = comt_observe::global();
        let _span = obs.span("dist.client.push");
        let proof = |d: &Digest| src.require_verified(d);
        let manifest = proof(&manifest_digest)?;
        let closure = closure_of_manifest(manifest.as_slice(), &manifest_digest)?;
        let mut stats = TransferStats::default();
        let (mut uploads, mut unmapped) = (Vec::new(), Vec::new());
        let mut seen = BTreeSet::new();
        for (i, d) in closure.iter().enumerate().skip(1) {
            let blob = proof(d)?;
            let first = seen.insert(*d);
            let present = !first || self.head_blob(name, d)?.is_some();
            // The closure is manifest, config, then the layers.
            let layer = first && i >= 2 && chunking.is_some();
            if layer && (!present || !self.head_chunkmap(name, d)?) {
                unmapped.push(proof(d)?);
            }
            if present {
                stats.blobs_skipped += 1;
                obs.count("dist.client.blobs_deduped", 1);
            } else {
                uploads.push(blob);
            }
        }
        let maps = std::thread::scope(|scope| {
            let chunker = chunking.filter(|_| !unmapped.is_empty()).map(|params| {
                scope.spawn(move || -> Result<Vec<(Digest, Vec<u8>)>, DistError> {
                    unmapped
                        .iter()
                        .map(|blob| {
                            let d = blob.digest();
                            let map = ChunkMap::build((d, blob.as_slice()), params)
                                .map_err(|e| {
                                    DistError::protocol(format!("chunking layer {d}: {e}"))
                                })?;
                            Ok((d, map.to_json()))
                        })
                        .collect()
                })
            });
            let uploaded = (|| -> Result<(), DistError> {
                for blob in &uploads {
                    self.put_blob(name, &blob.digest(), blob.as_slice())?;
                    stats.blobs_moved += 1;
                    stats.bytes_moved += blob.len() as u64;
                }
                self.put_manifest(name, reference, manifest.as_slice())?;
                stats.blobs_moved += 1;
                stats.bytes_moved += manifest.len() as u64;
                Ok(())
            })();
            let maps = match chunker {
                Some(worker) => worker
                    .join()
                    .unwrap_or_else(|_| Err(DistError::protocol("chunking worker panicked"))),
                None => Ok(Vec::new()),
            };
            uploaded.and(maps)
        })?;
        for (layer, json) in maps {
            if !self.put_chunkmap(name, &layer, &json)? {
                // Old server: no chunkmap route, nothing more to publish.
                break;
            }
            obs.count("dist.client.chunkmaps_pushed", 1);
        }
        Ok(stats)
    }

    /// Pull a tag's closure into `dst`, transferring only missing blobs,
    /// resuming interrupted downloads and verifying every digest. Delta
    /// transfer is on by default ([`PullOptions::default`]): when the
    /// server publishes a chunkmap for a missing layer and `dst` already
    /// holds related blobs, only the chunks `dst` lacks cross the wire.
    pub fn pull_image(
        &self,
        name: &str,
        reference: &str,
        dst: &mut BlobStore,
    ) -> Result<(Digest, TransferStats), DistError> {
        self.pull_image_with(name, reference, dst, &PullOptions::default())
    }

    /// [`DistClient::pull_image`] with explicit delta/concurrency knobs.
    pub fn pull_image_with(
        &self,
        name: &str,
        reference: &str,
        dst: &mut BlobStore,
        opts: &PullOptions,
    ) -> Result<(Digest, TransferStats), DistError> {
        let obs = comt_observe::global();
        let _span = obs.span("dist.client.pull");
        let manifest = self.get_manifest(name, reference)?;
        let manifest_digest = manifest.digest();
        let mut stats = TransferStats {
            blobs_moved: 1,
            blobs_skipped: 0,
            bytes_moved: manifest.len() as u64,
            ..TransferStats::default()
        };
        // Delta candidates come from what we held *before* this pull; the
        // chunk index over those blobs is built lazily, once, keyed to the
        // chunking parameters the server's first chunkmap declares
        // ([`DistClient::index_held`]).
        let preexisting: Vec<Digest> = if opts.delta {
            dst.iter()
                .map(|(d, _)| *d)
                .filter(|d| *d != manifest_digest)
                .collect()
        } else {
            Vec::new()
        };
        let mut local_index: Option<(ChunkParams, ChunkIndex)> = None;
        // Delta stays live only while the chunkmap round-trip can pay for
        // itself: a full pull (`--full`) never issues it, neither does a
        // pull into an empty store, and once the local chunk index over
        // the preexisting blobs proves empty no later layer can be
        // delta-assembled either — so the GET is skipped from then on.
        let mut delta_live = opts.delta && !preexisting.is_empty();
        dst.admit(manifest);
        let closure = closure_digests(dst, &manifest_digest)?;
        for d in &closure[1..] {
            if dst.contains(d) {
                stats.blobs_skipped += 1;
                obs.count("dist.client.blobs_deduped", 1);
                continue;
            }
            let mut assembled: Option<Verified<'static>> = None;
            if delta_live {
                // The map's wire cost is the body as received: parsed once,
                // never serialized again on this side.
                if let Some((map_wire_len, map)) = self
                    .get_chunkmap(name, d)
                    .ok()
                    .flatten()
                    .and_then(|raw| Some((raw.len(), ChunkMap::from_json(&raw).ok()?)))
                    .filter(|(_, m)| m.parsed_blob_digest().ok() == Some(*d))
                {
                    if local_index.as_ref().map(|(p, _)| *p) != Some(map.params) {
                        local_index = None;
                    }
                    let (_, index) = local_index.get_or_insert_with(|| {
                        (map.params, self.index_held(name, dst, &preexisting, map.params))
                    });
                    if index.is_empty() {
                        delta_live = false;
                    } else {
                        stats.bytes_moved += map_wire_len as u64;
                        assembled = self.pull_blob_delta(
                            name,
                            d,
                            &map,
                            index,
                            dst,
                            opts.concurrency,
                            &mut stats,
                        )?;
                    }
                }
            }
            let blob = match assembled {
                Some(b) => b, // wire bytes already accounted in the plan
                None => {
                    let b = self.fetch_blob(name, d)?;
                    stats.bytes_moved += b.len() as u64;
                    b
                }
            };
            dst.admit(blob);
            stats.blobs_moved += 1;
        }
        Ok((manifest_digest, stats))
    }

    /// [`DistClient::push_image`] plus a chunkmap for every layer of the
    /// manifest the daemon does not already describe, so later pulls can
    /// transfer deltas instead of whole layers. Each layer is chunked once
    /// per daemon, while the blobs are on the wire. Against a daemon that
    /// predates chunkmaps the push is exactly a classic one.
    pub fn push_image_chunked(
        &self,
        name: &str,
        reference: &str,
        manifest_digest: Digest,
        src: &BlobStore,
        params: ChunkParams,
    ) -> Result<TransferStats, DistError> {
        self.push(name, reference, manifest_digest, src, Some(params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let p = RetryPolicy::default();
        for attempt in 2..=10 {
            let d = p.backoff(attempt, 12345);
            assert!(d <= p.max_delay, "attempt {attempt}: {d:?}");
            assert!(d >= p.base_delay / 2, "attempt {attempt}: {d:?}");
        }
        // Different seeds give different jitter (almost surely).
        let a = p.backoff(3, 1);
        let b = p.backoff(3, 2);
        assert!(a != b || p.backoff(4, 1) != p.backoff(4, 2));
    }

    #[test]
    fn backoff_grows_with_attempts() {
        let p = RetryPolicy {
            base_delay: Duration::from_millis(8),
            max_delay: Duration::from_secs(1),
            ..Default::default()
        };
        // Jitter floor is half the exponential value, so attempt 6's floor
        // (64ms ⇒ ≥32ms) clears attempt 2's ceiling (8ms).
        assert!(p.backoff(6, 7) > p.backoff(2, 7));
    }

    /// A server that answers one connection per scripted raw reply, in
    /// order, and hands back the request heads it read.
    fn scripted(replies: Vec<Vec<u8>>) -> (String, std::thread::JoinHandle<Vec<String>>) {
        use std::io::BufRead;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut heads = Vec::new();
            for reply in replies {
                let (mut conn, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                let mut head = String::new();
                while reader.read_line(&mut head).unwrap() > 0 && !head.ends_with("\r\n\r\n") {}
                conn.write_all(&reply).unwrap();
                heads.push(head);
            }
            heads
        });
        (addr, server)
    }

    /// A raw response claiming `len` body bytes and sending `body`; a
    /// shorter body is a connection dropped mid-transfer.
    fn reply(status: &str, extra: &str, len: usize, body: &[u8]) -> Vec<u8> {
        let head = format!("HTTP/1.1 {status}\r\nContent-Length: {len}\r\n{extra}\r\n");
        [head.as_bytes(), body].concat()
    }

    fn get(addr: &str, start: u64, end: Option<u64>) -> Result<Vec<u8>, DistError> {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        };
        let client = DistClient::with_policy(addr, policy);
        client.get_resumable("get", "/v2/x/blobs/b", start, end, |buf| {
            Ok(std::mem::take(buf))
        })
    }

    #[test]
    fn resume_refuses_a_206_from_another_offset() {
        // The first transfer drops after 4 bytes; the resume is answered
        // from offset 0, which must be refused rather than spliced after
        // the kept prefix; the clean refetch then returns the blob.
        let blob = b"0123456789";
        let (addr, server) = scripted(vec![
            reply("200 OK", "", 10, &blob[..4]),
            reply(
                "206 Partial Content",
                "Content-Range: bytes 0-9/10\r\n",
                10,
                blob,
            ),
            reply("200 OK", "", 10, blob),
        ]);
        assert_eq!(get(&addr, 0, None).unwrap(), blob);
        let heads = server.join().unwrap();
        assert!(!heads[0].contains("Range:"), "{}", heads[0]);
        assert!(heads[1].contains("Range: bytes=4-\r\n"), "{}", heads[1]);
        assert!(
            !heads[2].contains("Range:"),
            "a refused resume restarts: {}",
            heads[2]
        );
    }

    #[test]
    fn a_200_to_a_window_is_carved_to_the_window() {
        let blob = b"0123456789";
        let short = reply("200 OK", "", 4, &blob[..4]);
        let (addr, server) = scripted(vec![
            reply("200 OK", "", 10, blob),
            reply("200 OK", "", 10, blob),
            // One per attempt: a short whole blob is retried, then refused.
            short.clone(),
            short.clone(),
            short,
        ]);
        assert_eq!(get(&addr, 2, Some(6)).unwrap(), b"2345");
        assert_eq!(get(&addr, 7, Some(10)).unwrap(), b"789");
        let err = get(&addr, 2, Some(6)).unwrap_err();
        assert!(err.to_string().contains("shorter than window"), "{err}");
        let heads = server.join().unwrap();
        assert!(heads[0].contains("Range: bytes=2-5\r\n"), "{}", heads[0]);
    }
}
