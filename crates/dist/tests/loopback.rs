//! Loopback integration: the daemon and the client against each other on
//! 127.0.0.1, including the failure modes the protocol exists to survive.

use bytes::Bytes;
use comt_digest::Digest;
use comt_dist::{
    serve, split_ref, tag_key, Chaos, DistClient, DistError, HttpOptions, RetryPolicy,
    ServerOptions,
};
use comt_oci::spec::ImageIndex;
use comt_oci::store::closure_digests;
use comt_oci::{
    BlobBackend, BlobHandle, BlobStore, ImageBuilder, Layout, Registry, StoreError, Verified,
};
use comt_vfs::Vfs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn sample_image(store: &mut BlobStore, payload: &[u8]) -> Digest {
    let mut fs = Vfs::new();
    fs.write_file_p("/app/bin", Bytes::from(payload.to_vec()), 0o755)
        .unwrap();
    fs.write_file_p("/app/data", Bytes::from_static(b"DATA"), 0o644)
        .unwrap();
    ImageBuilder::from_scratch("x86_64")
        .with_layer_from_fs(&Vfs::new(), &fs)
        .commit(store)
        .unwrap()
        .manifest_digest
}

fn start_server(opts: ServerOptions) -> comt_dist::DistServer {
    serve(Registry::new(), "127.0.0.1:0", opts).expect("bind loopback")
}

#[test]
fn push_pull_roundtrip_bit_identical() {
    let mut local = BlobStore::new();
    let md = sample_image(&mut local, b"ELF-bits");
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());

    let stats = client.push_image("app", "v1", md, &local).unwrap();
    assert_eq!(stats.blobs_moved, 3); // manifest + config + layer
    assert_eq!(stats.blobs_skipped, 0);

    let mut pulled = BlobStore::new();
    let (got_md, pstats) = client.pull_image("app", "v1", &mut pulled).unwrap();
    assert_eq!(got_md, md);
    assert_eq!(pstats.blobs_moved, 3);

    // Bit-identical closure.
    for d in closure_digests(&local, &md).unwrap() {
        assert_eq!(pulled.get(&d).unwrap(), local.get(&d).unwrap(), "{d}");
    }

    let reg = server.shutdown();
    assert_eq!(reg.resolve(&tag_key("app", "v1")).ok(), Some(md));
}

#[test]
fn second_push_dedupes_via_head() {
    let mut local = BlobStore::new();
    let md = sample_image(&mut local, b"dedupe-me");
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());

    client.push_image("app", "v1", md, &local).unwrap();
    let again = client.push_image("app", "v2", md, &local).unwrap();
    // Config + layer already exist remotely; only the manifest re-PUTs.
    assert_eq!(again.blobs_skipped, 2);
    assert_eq!(again.blobs_moved, 1);
    drop(server);
}

/// RFC 9110 §9.3.2 on one keep-alive connection: a HEAD is answered with
/// the headers its GET would carry, `Content-Length` included, and no
/// body — so the next response on the line parses where it starts.
#[test]
fn head_answers_carry_no_body_on_a_keep_alive_connection() {
    use comt_dist::wire::{find_header, read_response_head, read_response_into};
    let mut local = BlobStore::new();
    let md = sample_image(&mut local, b"head-me");
    let server = start_server(ServerOptions::default());
    DistClient::new(server.addr().to_string())
        .push_image_chunked("app", "v1", md, &local, Default::default())
        .unwrap();
    let manifest = local.get(&md).unwrap();
    let layer = closure_digests(&local, &md).unwrap()[2];
    let map = comt_chunk::ChunkMap::build(&local.get(&layer).unwrap(), Default::default())
        .unwrap()
        .to_json();

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut ask = |method: &str, path: &str| {
        let head = format!("{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
        writer.write_all(head.as_bytes()).unwrap();
    };
    let length = |headers: &[(String, String)]| {
        find_header(headers, "content-length").and_then(|v| v.parse::<usize>().ok())
    };

    ask("HEAD", "/v2/app/manifests/v1");
    let (status, headers) = read_response_head(&mut reader).unwrap();
    assert_eq!((status, length(&headers)), (200, Some(manifest.len())));
    ask("HEAD", &format!("/v2/app/chunkmaps/{layer}"));
    let (status, headers) = read_response_head(&mut reader).unwrap();
    assert_eq!((status, length(&headers)), (200, Some(map.len())));
    ask("GET", "/v2/app/manifests/v1");
    let mut body = Vec::new();
    let (status, _) = read_response_into(&mut reader, &mut body, 1 << 20).unwrap();
    assert_eq!((status, &body[..]), (200, &manifest[..]));
    drop(server);
}

#[test]
fn chaos_truncation_resumes_and_verifies() {
    let mut local = BlobStore::new();
    // A payload big enough that truncation at 256 bytes hits mid-layer.
    let payload = vec![0xA5u8; 64 * 1024];
    let md = sample_image(&mut local, &payload);
    let server = start_server(ServerOptions {
        chaos: Some(Chaos {
            truncate_blob_gets: 3,
            truncate_after: 256,
            ..Chaos::default()
        }),
        ..Default::default()
    });
    let client = DistClient::new(server.addr().to_string());
    client.push_image("app", "v1", md, &local).unwrap();

    comt_observe::global().reset();
    let mut pulled = BlobStore::new();
    let (got, _) = client.pull_image("app", "v1", &mut pulled).unwrap();
    assert_eq!(got, md);
    for d in closure_digests(&local, &md).unwrap() {
        assert_eq!(pulled.get(&d).unwrap(), local.get(&d).unwrap());
    }
    // The client really did resume (not just restart).
    assert!(
        comt_observe::global().counter("dist.client.resumes") >= 1,
        "expected at least one Range resume"
    );
    drop(server);
}

#[test]
fn truncated_upload_never_becomes_visible() {
    let mut local = BlobStore::new();
    let md = sample_image(&mut local, b"truncated-upload");
    let closure = closure_digests(&local, &md).unwrap();
    let layer = closure[2];
    let blob = local.get(&layer).unwrap();

    let server = start_server(ServerOptions::default());

    // Hand-rolled PUT that lies about Content-Length and dies mid-body.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let head = format!(
            "PUT /v2/app/blobs/{} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            layer.to_oci_string(),
            blob.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(&blob[..blob.len() / 2]).unwrap();
        s.flush().unwrap();
        // Drop the connection with half the body outstanding.
    }

    // And one that sends a full body under the wrong address.
    {
        let bogus = Digest::of(b"not the blob");
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let head = format!(
            "PUT /v2/app/blobs/{} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            bogus.to_oci_string(),
            blob.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(&blob).unwrap();
        s.flush().unwrap();
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    }

    let client = DistClient::with_policy(server.addr().to_string(), RetryPolicy::no_retries());
    assert_eq!(client.head_blob("app", &layer).unwrap(), None);
    assert_eq!(client.head_blob("app", &Digest::of(b"not the blob")).unwrap(), None);

    let reg = server.shutdown();
    assert!(!reg.store().contains(&layer), "staged upload leaked");
    assert_eq!(reg.store().len(), 0);
}

#[test]
fn manifest_put_without_closure_is_rejected_and_invisible() {
    let mut local = BlobStore::new();
    let md = sample_image(&mut local, b"no-closure");
    let manifest = local.get(&md).unwrap();

    let server = start_server(ServerOptions::default());
    let client = DistClient::with_policy(server.addr().to_string(), RetryPolicy::no_retries());

    // PUT the manifest without any of its blobs: 400, and neither the tag
    // nor the manifest blob survive.
    let err = client.put_manifest("app", "v1", &manifest).unwrap_err();
    match err {
        DistError::Status { status, .. } => assert_eq!(status, 400),
        other => panic!("expected Status(400), got {other}"),
    }
    let mut dst = BlobStore::new();
    let err = client.pull_image("app", "v1", &mut dst).unwrap_err();
    assert!(matches!(err, DistError::Status { status: 404, .. }), "{err}");

    let reg = server.shutdown();
    assert!(reg.resolve(&tag_key("app", "v1")).is_err());
    assert!(!reg.store().contains(&md), "failed manifest PUT leaked");
}

#[test]
fn deeply_nested_json_costs_a_400_not_the_daemon() {
    // 20 KB of `[` sent by anyone who can reach the port: the JSON parser
    // used to recurse once per bracket and overflow the event-loop thread's
    // stack, which aborts the process. It is one more malformed body.
    let server = start_server(ServerOptions::default());
    let body = "[".repeat(20_000);
    let layer = Digest::of(b"any layer").to_oci_string();
    for path in [
        "/v2/x/manifests/evil".to_string(),
        format!("/v2/x/chunkmaps/{layer}"),
    ] {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let head = format!(
            "PUT {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(body.as_bytes()).unwrap();
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.1 400"), "{path}: {resp}");

        // The daemon is still there for the next connection.
        let client = DistClient::with_policy(server.addr().to_string(), RetryPolicy::no_retries());
        assert_eq!(client.head_blob("x", &Digest::of(b"absent")).unwrap(), None);
    }
    let reg = server.shutdown();
    assert_eq!(reg.store().len(), 0);
}

#[test]
fn poisoned_server_blob_never_served() {
    // A corrupt blob in the server store must yield a 500, and the client
    // must not admit it.
    let mut local = BlobStore::new();
    let md = sample_image(&mut local, b"poison-me");
    let closure = closure_digests(&local, &md).unwrap();
    let layer = closure[2];

    let server = start_server(ServerOptions::default());
    let client = DistClient::with_policy(
        server.addr().to_string(),
        RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        },
    );
    client.push_image("app", "v1", md, &local).unwrap();

    // Poison the layer behind the server's back.
    let mut reg = server.shutdown();
    reg.store_mut()
        .insert_raw_for_tests(layer, Bytes::from_static(b"bitrot"));
    let server = serve(reg, "127.0.0.1:0", ServerOptions::default()).unwrap();
    let client = DistClient::with_policy(
        server.addr().to_string(),
        RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        },
    );

    let mut dst = BlobStore::new();
    let err = client.pull_image("app", "v1", &mut dst).unwrap_err();
    // Retried (500 is transient in general) and then gave up.
    assert!(matches!(err, DistError::RetriesExhausted { .. }), "{err}");
    assert!(!dst.contains(&layer), "corrupt blob admitted");
    drop(server);
}

#[test]
fn concurrent_pullers_all_verify() {
    let mut local = BlobStore::new();
    let payload = vec![0x5Au8; 32 * 1024];
    let md = sample_image(&mut local, &payload);
    let server = start_server(ServerOptions::default());
    let addr = server.addr().to_string();
    let client = DistClient::new(addr.clone());
    client.push_image("app", "v1", md, &local).unwrap();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let c = DistClient::new(addr);
                    let mut dst = BlobStore::new();
                    let (got, stats) = c.pull_image("app", "v1", &mut dst).unwrap();
                    (got, stats.blobs_moved, dst.total_size())
                })
            })
            .collect();
        for h in handles {
            let (got, moved, _) = h.join().unwrap();
            assert_eq!(got, md);
            assert_eq!(moved, 3);
        }
    });
    drop(server);
}

fn disk_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("comt-loopback-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn disk_backed_daemon_round_trips_and_survives_restart() {
    let mut local = BlobStore::new();
    let md = sample_image(&mut local, b"durable-bits");
    let dir = disk_dir("restart");

    // First daemon lifetime: push, then shut down (releases the lock).
    {
        let reg = comt_oci::DiskRegistry::open(&dir).unwrap();
        let server = serve(reg, "127.0.0.1:0", ServerOptions::default()).unwrap();
        let client = DistClient::new(server.addr().to_string());
        let stats = client.push_image("app", "v1", md, &local).unwrap();
        assert_eq!(stats.blobs_moved, 3);
        drop(server.shutdown());
    }

    // The layout on disk is fsck-clean between daemon lifetimes.
    let report =
        comt_oci::fsck(&dir, &comt_oci::FsckOptions { repair: false }).unwrap();
    assert!(report.is_clean(), "{}", report.render_human());

    // Second daemon lifetime: everything pulls bit-identically.
    {
        let reg = comt_oci::DiskRegistry::open(&dir).unwrap();
        assert_eq!(reg.resolve(&tag_key("app", "v1")).ok(), Some(md));
        let server = serve(reg, "127.0.0.1:0", ServerOptions::default()).unwrap();
        let client = DistClient::new(server.addr().to_string());
        let mut pulled = BlobStore::new();
        let (got, stats) = client.pull_image("app", "v1", &mut pulled).unwrap();
        assert_eq!(got, md);
        assert_eq!(stats.blobs_moved, 3);
        for d in closure_digests(&local, &md).unwrap() {
            assert_eq!(pulled.get(&d).unwrap(), local.get(&d).unwrap(), "{d}");
        }
        drop(server);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disk_backed_interrupted_push_is_fsck_clean_and_invisible() {
    // A push that dies after some blob PUTs but before the manifest PUT
    // models `kill -9` mid-publish: the layout keeps the durable blobs,
    // stays fsck-clean (unreachable-but-valid blobs are gc's job, not
    // damage), and the tag never becomes visible.
    let mut local = BlobStore::new();
    let md = sample_image(&mut local, b"interrupted-push");
    let closure = closure_digests(&local, &md).unwrap();
    let dir = disk_dir("interrupted");

    {
        let reg = comt_oci::DiskRegistry::open(&dir).unwrap();
        let server = serve(reg, "127.0.0.1:0", ServerOptions::default()).unwrap();
        let client = DistClient::new(server.addr().to_string());
        // Upload config + layer, then "die" before the manifest PUT.
        for d in closure.iter().skip(1) {
            client.put_blob("app", d, &local.get(d).unwrap()).unwrap();
        }
        drop(server.shutdown());
    }

    let report =
        comt_oci::fsck(&dir, &comt_oci::FsckOptions { repair: false }).unwrap();
    assert!(report.is_clean(), "{}", report.render_human());

    // Restart: the tag was never committed, the blobs dedupe, and a full
    // re-push completes the publish.
    let reg = comt_oci::DiskRegistry::open(&dir).unwrap();
    assert_eq!(reg.resolve(&tag_key("app", "v1")).ok(), None);
    let server = serve(reg, "127.0.0.1:0", ServerOptions::default()).unwrap();
    let client = DistClient::new(server.addr().to_string());
    let stats = client.push_image("app", "v1", md, &local).unwrap();
    assert_eq!(stats.blobs_skipped, 2, "durable blobs re-uploaded");
    assert_eq!(stats.blobs_moved, 1);
    let mut pulled = BlobStore::new();
    let (got, _) = client.pull_image("app", "v1", &mut pulled).unwrap();
    assert_eq!(got, md);
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A blob backend whose next `budget` mutations (inserts and index
/// commits) succeed and every one after fails as the store's own fault —
/// `crates/oci/tests/conformance.rs`'s `FailingStore`, with the budget
/// shared so the test can cut it while the daemon owns the store.
#[derive(Default)]
struct FailingStore {
    inner: BlobStore,
    budget: Arc<AtomicUsize>,
}

impl FailingStore {
    fn spend(&self) -> Result<(), StoreError> {
        self.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .map(drop)
            .map_err(|_| StoreError::Io(std::io::Error::other("injected fault")))
    }
}

impl BlobBackend for FailingStore {
    fn handle(&self, digest: &Digest) -> Option<BlobHandle> {
        self.inner.handle(digest)
    }
    fn insert(&mut self, blob: Verified<'_>) -> Result<bool, StoreError> {
        self.spend()?;
        self.inner.insert(blob)
    }
    fn remove(&mut self, digest: &Digest) -> Result<bool, StoreError> {
        self.inner.remove(digest)
    }
    fn digests(&self) -> Result<Vec<(Digest, u64)>, StoreError> {
        self.inner.digests()
    }
    fn commit_index(&mut self, _index: &ImageIndex) -> Result<(), StoreError> {
        self.spend()
    }
}

/// One request on a fresh connection; returns the status code.
fn status_of(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> u16 {
    let mut s = TcpStream::connect(addr).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    let mut resp = Vec::new();
    let _ = s.read_to_end(&mut resp);
    let line = String::from_utf8_lossy(&resp[..resp.len().min(12)]).into_owned();
    let code = line.get(9..12).and_then(|c| c.parse().ok());
    code.unwrap_or_else(|| panic!("{method} {path}: no status line in {line:?}"))
}

#[test]
fn store_faults_answer_500_and_caller_faults_400_on_every_mutating_route() {
    const HEALTHY: usize = usize::MAX;
    let budget = Arc::new(AtomicUsize::new(HEALTHY));
    let store = FailingStore {
        inner: BlobStore::new(),
        budget: Arc::clone(&budget),
    };
    let server = serve(
        Layout {
            index: ImageIndex::default(),
            blobs: store,
        },
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .unwrap();
    let addr = server.addr();
    let client = DistClient::with_policy(addr.to_string(), RetryPolicy::no_retries());

    // `app:v1` is published; v2's blobs are uploaded but not its manifest;
    // v3 exists only on the client.
    let mut local = BlobStore::new();
    let payload = vec![0x5Au8; 48 * 1024];
    let v1 = sample_image(&mut local, &payload);
    let v2 = sample_image(&mut local, b"second version");
    let v3 = sample_image(&mut local, b"never uploaded");
    client.push_image("app", "v1", v1, &local).unwrap();
    let v2_closure = closure_digests(&local, &v2).unwrap();
    for d in &v2_closure[1..] {
        client.put_blob("app", d, &local.get(d).unwrap()).unwrap();
    }
    let map_of = |layer: &[u8]| {
        comt_chunk::ChunkMap::build(layer, Default::default())
            .unwrap()
            .to_json()
    };
    let v1_layer = closure_digests(&local, &v1).unwrap()[2];
    let v1_map = map_of(&local.get(&v1_layer).unwrap());
    let fresh = b"a blob the store has not seen".to_vec();
    let absent = b"a layer the store does not hold".to_vec();
    let v2_manifest = local.get(&v2).unwrap().to_vec();
    let v3_manifest = local.get(&v3).unwrap().to_vec();

    let blob_path = format!("/v2/app/blobs/{}", Digest::of(&fresh).to_oci_string());
    let map_path = format!("/v2/app/chunkmaps/{}", v1_layer.to_oci_string());
    let absent_map_path = format!("/v2/app/chunkmaps/{}", Digest::of(&absent).to_oci_string());
    let (v2_path, v3_path) = ("/v2/app/manifests/v2", "/v2/app/manifests/v3");
    // (PUT path, body, mutations the store still allows, status, what must
    // stay invisible afterwards).
    let table: Vec<(&str, Vec<u8>, usize, u16, &str)> = vec![
        // The store's fault: its insert fails, or its index commit does.
        (&blob_path, fresh.clone(), 0, 500, &blob_path),
        (v2_path, v2_manifest.clone(), 0, 500, v2_path),
        (v2_path, v2_manifest, 1, 500, v2_path),
        (&map_path, v1_map.clone(), 0, 500, &map_path),
        (&map_path, v1_map, 1, 500, &map_path),
        // The caller's fault: address ≠ body, a closure missing its
        // layer, a chunkmap for a layer the store does not hold.
        (&blob_path, b"some other bytes".to_vec(), HEALTHY, 400, &blob_path),
        (v3_path, v3_manifest, HEALTHY, 400, v3_path),
        (&absent_map_path, map_of(&absent), HEALTHY, 400, &absent_map_path),
    ];
    for (path, body, allowed, want, invisible) in &table {
        budget.store(*allowed, Ordering::SeqCst);
        let got = status_of(addr, "PUT", path, body);
        budget.store(HEALTHY, Ordering::SeqCst);
        assert_eq!(got, *want, "PUT {path} with {allowed} mutations allowed");
        assert_eq!(status_of(addr, "GET", invisible, b""), 404, "after PUT {path}");
        assert_eq!(status_of(addr, "GET", "/v2/app/manifests/v1", b""), 200, "after PUT {path}");
    }

    // Nothing above was the request's fault in a way a retry cannot fix:
    // with the store healthy again the same bodies publish.
    for (path, body, _, want, _) in &table {
        if *want == 500 {
            assert_eq!(status_of(addr, "PUT", path, body), 201, "PUT {path}, store healthy");
        }
    }
    let reg = server.shutdown();
    assert_eq!(reg.resolve(&tag_key("app", "v1")).ok(), Some(v1));
    assert_eq!(reg.resolve(&tag_key("app", "v2")).ok(), Some(v2));
    assert!(reg.resolve(&tag_key("app", "v3")).is_err());
    assert!(reg.chunkmap_for(&v1_layer).is_some());
}

#[test]
fn mid_write_disconnects_free_their_slots() {
    // Clients that request a blob and vanish mid-transfer must release
    // their connection slots: with max_conns = 2, six hit-and-run pullers
    // in a row would wedge the daemon permanently if slots leaked.
    let mut local = BlobStore::new();
    let payload = vec![0xC3u8; 2 * 1024 * 1024];
    let md = sample_image(&mut local, &payload);
    let closure = closure_digests(&local, &md).unwrap();
    let layer = closure[2];
    let server = start_server(ServerOptions {
        http: HttpOptions {
            max_conns: 2,
            ..Default::default()
        },
        ..Default::default()
    });
    let client = DistClient::new(server.addr().to_string());
    client.push_image("app", "v1", md, &local).unwrap();

    for _ in 0..6 {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let req = format!(
            "GET /v2/app/blobs/{} HTTP/1.1\r\nHost: x\r\n\r\n",
            layer.to_oci_string()
        );
        s.write_all(req.as_bytes()).unwrap();
        // Read a little so the server is committed to the response, then
        // drop the socket with megabytes still in flight.
        let mut first = [0u8; 1024];
        s.read_exact(&mut first).unwrap();
        drop(s);
        // Give the reactor a beat to observe the hangup.
        std::thread::sleep(std::time::Duration::from_millis(30));
    }

    // Every slot came back: a full (retrying) pull succeeds and verifies.
    let mut pulled = BlobStore::new();
    let (got, _) = client.pull_image("app", "v1", &mut pulled).unwrap();
    assert_eq!(got, md);
    for d in &closure {
        assert_eq!(pulled.get(d).unwrap(), local.get(d).unwrap(), "{d}");
    }
    drop(server);
}

#[test]
fn stalled_zero_window_reader_is_timed_out_not_wedging() {
    // A peer that requests a large blob and then never reads — a
    // zero-window stall — must be closed by the write deadline while the
    // daemon keeps serving everyone else.
    let mut local = BlobStore::new();
    let payload = vec![0x3Cu8; 16 * 1024 * 1024];
    let md = sample_image(&mut local, &payload);
    let closure = closure_digests(&local, &md).unwrap();
    let layer = closure[2];
    let server = start_server(ServerOptions {
        http: HttpOptions {
            write_timeout: std::time::Duration::from_millis(500),
            ..Default::default()
        },
        ..Default::default()
    });
    let client = DistClient::new(server.addr().to_string());
    client.push_image("app", "v1", md, &local).unwrap();

    // The staller: request the 16 MiB layer, read nothing.
    let mut staller = TcpStream::connect(server.addr()).unwrap();
    let req = format!(
        "GET /v2/app/blobs/{} HTTP/1.1\r\nHost: x\r\n\r\n",
        layer.to_oci_string()
    );
    staller.write_all(req.as_bytes()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));

    // While the staller sits on a full socket buffer, the daemon still
    // serves a complete, verified pull on another connection.
    let mut pulled = BlobStore::new();
    let (got, _) = client.pull_image("app", "v1", &mut pulled).unwrap();
    assert_eq!(got, md);

    // Let the 500 ms write deadline lapse before draining, however fast
    // the pull above was: a release build finishes it well inside the
    // deadline, and a reader that resumes in time is rightly served whole.
    std::thread::sleep(std::time::Duration::from_millis(600));

    // The server must close the stalled line once its write deadline
    // lapses: draining the socket ends in EOF (or a reset), not a hang,
    // and well short of the full advertised body.
    staller
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut drained = 0u64;
    let mut buf = [0u8; 64 * 1024];
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
    loop {
        match staller.read(&mut buf) {
            Ok(0) => break,         // clean FIN: the server hung up
            Ok(n) => drained += n as u64,
            Err(_) => break,        // RST also proves the close
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never closed the stalled reader"
        );
    }
    assert!(
        drained < payload.len() as u64,
        "stalled reader received the whole body?"
    );
    drop(server);
}

#[test]
fn split_ref_matches_wire_addressing() {
    // The CLI's ref → (name, reference) mapping and the server's tag key
    // agree, so `comt push` and `comt pull` of the same ref round-trip.
    let (n, t) = split_ref("hpccg.dist+coM");
    assert_eq!(tag_key(n, t), "hpccg.dist+coM:latest");
    let (n, t) = split_ref("app:1.0");
    assert_eq!(tag_key(n, t), "app:1.0");
}
