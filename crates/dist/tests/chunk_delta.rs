//! Chunk-level delta distribution end to end: chunked push publishes
//! chunkmaps, delta pull moves only the chunks the client lacks, and
//! every failure mode (chaos truncation, poisoned windows, servers or
//! pushes that predate chunkmaps) either heals or fails closed.
//!
//! Counter-based assertions share the process-global observe recorder,
//! so every test serializes on [`obs_lock`].

use bytes::Bytes;
use comt_chunk::ChunkParams;
use comt_digest::Digest;
use comt_dist::{serve, Chaos, DistClient, PullOptions, RetryPolicy, ServerOptions};
use comt_oci::store::closure_digests;
use comt_oci::{BlobStore, ImageBuilder, ImageManifest, Registry};
use comt_vfs::Vfs;
use std::sync::{Mutex, MutexGuard};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic pseudo-random payload (xorshift64*), same generator the
/// chunking proptests use.
fn content(len: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = seed | 1;
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// One-layer image whose layer is dominated by `payload` — the "one big
/// object" whose mutation a delta pull should pay for proportionally.
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

fn layer_digests(store: &BlobStore, md: &Digest) -> Vec<(Digest, u64)> {
    let m: ImageManifest = serde_json::from_slice(&store.get(md).unwrap()).unwrap();
    m.layers
        .iter()
        .map(|l| (l.parsed_digest().unwrap(), l.size))
        .collect()
}

fn start_server(opts: ServerOptions) -> comt_dist::DistServer {
    serve(Registry::new(), "127.0.0.1:0", opts).expect("bind loopback")
}

/// Two versions of the image: v2 differs from v1 by one small in-place
/// object mutation inside an otherwise-identical 1 MiB payload.
fn two_versions(store: &mut BlobStore) -> (Digest, Digest) {
    let v1 = content(1 << 20, 7);
    let mut v2 = v1.clone();
    v2[100_000..100_200].copy_from_slice(&content(200, 99));
    let md1 = sample_image(store, &v1);
    let md2 = sample_image(store, &v2);
    (md1, md2)
}

fn assert_closure_identical(a: &BlobStore, b: &BlobStore, md: &Digest) {
    for d in closure_digests(a, md).unwrap() {
        assert_eq!(a.get(&d).unwrap(), b.get(&d).unwrap(), "{d}");
    }
}

#[test]
fn delta_pull_moves_a_fraction_of_the_layer() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let (md1, md2) = two_versions(&mut local);
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());
    let params = ChunkParams::default();

    client
        .push_image_chunked("app", "v1", md1, &local, params)
        .unwrap();
    client
        .push_image_chunked("app", "v2", md2, &local, params)
        .unwrap();

    // Seed the client with v1 the normal way.
    let mut dst = BlobStore::new();
    client.pull_image("app", "v1", &mut dst).unwrap();

    // Now pull v2: only the mutated chunks should cross the wire.
    comt_observe::global().reset();
    let (got, stats) = client.pull_image("app", "v2", &mut dst).unwrap();
    assert_eq!(got, md2);

    let layer_bytes: u64 = layer_digests(&local, &md2).iter().map(|(_, s)| *s).sum();
    let obs = comt_observe::global();
    let fetched = obs.counter("dist.client.delta_bytes_fetched");
    let wire_in = obs.counter("dist.client.bytes_in");
    assert!(stats.chunks_hit > 0, "delta path did not engage: {stats:?}");
    assert!(
        fetched <= layer_bytes * 30 / 100,
        "delta fetched {fetched} of {layer_bytes} layer bytes (> 30%)"
    );
    // The full-blob path never ran for the layer: everything that came in
    // over blob GETs (ranges + the small config blob) stays under the
    // same ceiling.
    assert!(
        wire_in <= layer_bytes * 30 / 100,
        "wire moved {wire_in} of {layer_bytes} layer bytes (> 30%)"
    );
    assert_eq!(stats.delta_bytes_saved, obs.counter("dist.client.delta_bytes_saved"));
    assert!(stats.delta_bytes_saved >= layer_bytes * 70 / 100);
    // The held layer was indexed from the map the daemon publishes for it;
    // only the small held blobs (manifest, config) were chunked locally.
    assert_eq!(obs.counter("dist.client.index_blobs_mapped"), 1);
    let small: u64 = closure_digests(&local, &md1).unwrap()[..2]
        .iter()
        .map(|d| local.get(d).unwrap().len() as u64)
        .sum();
    assert_eq!(obs.counter("dist.client.index_bytes_scanned"), small);

    // Bit-identical to a full pull of the same tag.
    let mut full = BlobStore::new();
    client
        .pull_image_with(
            "app",
            "v2",
            &mut full,
            &PullOptions {
                delta: false,
                ..PullOptions::default()
            },
        )
        .unwrap();
    assert_closure_identical(&full, &dst, &md2);
    assert_closure_identical(&local, &dst, &md2);
    drop(server);
}

#[test]
fn reassembly_is_identical_across_pull_concurrency() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let (md1, md2) = two_versions(&mut local);
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());

    client
        .push_image_chunked("app", "v1", md1, &local, ChunkParams::default())
        .unwrap();
    client
        .push_image_chunked("app", "v2", md2, &local, ChunkParams::default())
        .unwrap();
    let mut seeded = BlobStore::new();
    client.pull_image("app", "v1", &mut seeded).unwrap();

    for k in [1usize, 2, 8] {
        let mut dst = seeded.clone();
        let (got, stats) = client
            .pull_image_with(
                "app",
                "v2",
                &mut dst,
                &PullOptions {
                    delta: true,
                    concurrency: k,
                },
            )
            .unwrap();
        assert_eq!(got, md2, "concurrency {k}");
        assert!(stats.chunks_hit > 0, "concurrency {k}: {stats:?}");
        assert_closure_identical(&local, &dst, &md2);
    }
    drop(server);
}

#[test]
fn full_pull_issues_zero_chunkmap_requests() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let (md1, md2) = two_versions(&mut local);
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());
    client
        .push_image_chunked("app", "v1", md1, &local, ChunkParams::default())
        .unwrap();
    client
        .push_image_chunked("app", "v2", md2, &local, ChunkParams::default())
        .unwrap();

    // Seed v1 so related blobs exist locally — the delta path *would*
    // engage, making any chunkmap traffic on the --full pull a real bug,
    // not a vacuous pass.
    let mut dst = BlobStore::new();
    client.pull_image("app", "v1", &mut dst).unwrap();

    // The loopback server shares this process's observe recorder, so its
    // counters see every chunkmap route hit directly.
    comt_observe::global().reset();
    let (got, stats) = client
        .pull_image_with(
            "app",
            "v2",
            &mut dst,
            &PullOptions {
                delta: false,
                ..PullOptions::default()
            },
        )
        .unwrap();
    assert_eq!(got, md2);
    let obs = comt_observe::global();
    assert_eq!(
        obs.counter("dist.server.chunkmap_hits") + obs.counter("dist.server.chunkmap_misses"),
        0,
        "--full pull issued chunkmap GETs"
    );
    assert_eq!(stats.chunks_hit, 0);
    assert_eq!(stats.chunks_fetched, 0);
    assert_closure_identical(&local, &dst, &md2);

    // An empty local store can never delta either: even with delta on,
    // the chunkmap round-trip is skipped entirely.
    comt_observe::global().reset();
    let mut fresh = BlobStore::new();
    client.pull_image("app", "v2", &mut fresh).unwrap();
    assert_eq!(
        obs.counter("dist.server.chunkmap_hits") + obs.counter("dist.server.chunkmap_misses"),
        0,
        "pull into an empty store issued chunkmap GETs"
    );
    assert_closure_identical(&local, &fresh, &md2);
    drop(server);
}

#[test]
fn unchunked_push_falls_back_to_full_pull() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let (md1, md2) = two_versions(&mut local);
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());

    // Classic pushes: the server holds no chunkmaps at all.
    client.push_image("app", "v1", md1, &local).unwrap();
    client.push_image("app", "v2", md2, &local).unwrap();

    let mut dst = BlobStore::new();
    client.pull_image("app", "v1", &mut dst).unwrap();
    // Delta-enabled pull (the default) degrades to whole blobs, silently.
    let (got, stats) = client.pull_image("app", "v2", &mut dst).unwrap();
    assert_eq!(got, md2);
    assert_eq!(stats.chunks_hit, 0);
    assert_eq!(stats.chunks_fetched, 0);
    assert_closure_identical(&local, &dst, &md2);
    drop(server);
}

#[test]
fn a_layer_sharing_no_chunk_is_one_plain_get() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let md1 = sample_image(&mut local, &content(1 << 20, 7));
    let md2 = sample_image(&mut local, &content(1 << 20, 8));
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());
    for (tag, md) in [("v1", md1), ("v2", md2)] {
        client
            .push_image_chunked("app", tag, md, &local, ChunkParams::default())
            .unwrap();
    }
    let mut dst = BlobStore::new();
    client.pull_image("app", "v1", &mut dst).unwrap();

    comt_observe::global().reset();
    let (got, stats) = client.pull_image("app", "v2", &mut dst).unwrap();
    assert_eq!(got, md2);
    let obs = comt_observe::global();
    // The map was asked for and the index built, but with no chunk held
    // the layer came as one whole GET, not as ranged windows.
    assert_eq!(obs.counter("dist.client.index_blobs_mapped"), 1);
    assert_eq!(stats.chunks_hit, 0);
    assert_eq!(stats.chunks_fetched, 0, "{stats:?}");
    assert_eq!(obs.counter("dist.client.delta_bytes_fetched"), 0);
    let (layer, size) = layer_digests(&local, &md2)[0];
    assert!(
        obs.counter("dist.client.bytes_in") >= size,
        "{layer} was not fetched whole"
    );
    assert_closure_identical(&local, &dst, &md2);
    drop(server);
}

#[test]
fn a_held_layer_without_a_map_is_chunked_from_its_bytes() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let (md1, md2) = two_versions(&mut local);
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());
    // v1 pushed plain: the daemon has no map for the layer the site holds.
    client.push_image("app", "v1", md1, &local).unwrap();
    client
        .push_image_chunked("app", "v2", md2, &local, ChunkParams::default())
        .unwrap();
    let mut dst = BlobStore::new();
    client.pull_image("app", "v1", &mut dst).unwrap();

    comt_observe::global().reset();
    let (got, stats) = client.pull_image("app", "v2", &mut dst).unwrap();
    assert_eq!(got, md2);
    let obs = comt_observe::global();
    let (_, held) = layer_digests(&local, &md1)[0];
    assert_eq!(obs.counter("dist.client.index_blobs_mapped"), 0);
    assert!(obs.counter("dist.client.index_bytes_scanned") >= held);
    assert!(stats.chunks_hit > 0, "delta path did not engage: {stats:?}");
    assert_closure_identical(&local, &dst, &md2);
    drop(server);
}

#[test]
fn a_lying_map_of_a_held_layer_falls_back_to_a_full_get() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let (md1, md2) = two_versions(&mut local);
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());
    let params = ChunkParams::default();
    client.push_image("app", "v1", md1, &local).unwrap();
    client
        .push_image_chunked("app", "v2", md2, &local, params)
        .unwrap();

    // For the layer the site will hold, the daemon accepts a map that is
    // structurally valid, names that layer and has its length, but lists
    // v2's chunk digests: every chunk of v2 then seems to be held already.
    let (held, held_len) = layer_digests(&local, &md1)[0];
    let (pulled, _) = layer_digests(&local, &md2)[0];
    let mut lie = comt_chunk::ChunkMap::build(&local.get(&pulled).unwrap(), params).unwrap();
    assert_eq!(lie.blob_size, held_len);
    lie.blob_digest = held.to_oci_string();
    assert!(client.put_chunkmap("app", &held, &lie.to_json()).unwrap());

    let mut dst = BlobStore::new();
    client.pull_image("app", "v1", &mut dst).unwrap();
    comt_observe::global().reset();
    let (got, _) = client.pull_image("app", "v2", &mut dst).unwrap();
    assert_eq!(got, md2);
    let obs = comt_observe::global();
    assert_eq!(obs.counter("dist.client.index_blobs_mapped"), 1);
    // The assembled layer failed its address and was pulled whole.
    assert!(obs.counter("dist.client.verify_failures") >= 1);
    assert_closure_identical(&local, &dst, &md2);
    drop(server);
}

#[test]
fn mid_chunk_disconnect_resumes_inside_the_window() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let (md1, md2) = two_versions(&mut local);
    // Truncate ranged GETs after 1 KiB: every multi-KiB window dies
    // mid-chunk and must resume from its partial prefix.
    let server = start_server(ServerOptions {
        chaos: Some(Chaos {
            truncate_blob_gets: 3,
            truncate_after: 1024,
            ..Chaos::default()
        }),
        ..Default::default()
    });
    let client = DistClient::new(server.addr().to_string());
    client
        .push_image_chunked("app", "v1", md1, &local, ChunkParams::default())
        .unwrap();
    client
        .push_image_chunked("app", "v2", md2, &local, ChunkParams::default())
        .unwrap();
    // Seed v1 locally (not over the wire) so the whole truncation budget
    // lands on the delta pull's range windows.
    let mut dst = BlobStore::new();
    for d in closure_digests(&local, &md1).unwrap() {
        assert!(dst.fetch_from(&local, &d));
    }

    comt_observe::global().reset();
    let (got, stats) = client.pull_image("app", "v2", &mut dst).unwrap();
    assert_eq!(got, md2);
    assert!(stats.chunks_hit > 0, "delta path did not engage: {stats:?}");
    assert!(
        comt_observe::global().counter("dist.client.resumes") >= 1,
        "expected at least one mid-window Range resume"
    );
    assert_closure_identical(&local, &dst, &md2);
    drop(server);
}

#[test]
fn poisoned_chunk_fails_closed_without_committing() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let (md1, md2) = two_versions(&mut local);
    // Poison every ranged GET: per-chunk verification must reject each
    // attempt and the pull must fail without committing a torn layer.
    let server = start_server(ServerOptions {
        chaos: Some(Chaos {
            poison_range_gets: u32::MAX,
            ..Chaos::default()
        }),
        ..Default::default()
    });
    let client = DistClient::with_policy(
        server.addr().to_string(),
        RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        },
    );
    client
        .push_image_chunked("app", "v1", md1, &local, ChunkParams::default())
        .unwrap();
    client
        .push_image_chunked("app", "v2", md2, &local, ChunkParams::default())
        .unwrap();
    let mut dst = BlobStore::new();
    client.pull_image("app", "v1", &mut dst).unwrap();

    comt_observe::global().reset();
    let err = client.pull_image("app", "v2", &mut dst).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("gave up") || text.contains("corrupt"), "{text}");
    assert!(comt_observe::global().counter("dist.client.verify_failures") >= 1);
    // Fail closed: the v2 layer never became visible locally.
    for (layer, _) in layer_digests(&local, &md2) {
        let v1_layers = layer_digests(&local, &md1);
        if v1_layers.iter().any(|(d, _)| *d == layer) {
            continue; // shared with v1, legitimately present
        }
        assert!(
            !dst.contains(&layer),
            "torn layer {layer} committed despite poisoned chunks"
        );
    }
    drop(server);
}

#[test]
fn chunkmap_put_is_validated_against_the_stored_layer() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let payload = content(256 << 10, 3);
    let md = sample_image(&mut local, &payload);
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());
    client.push_image("app", "v1", md, &local).unwrap();

    let (layer, _) = layer_digests(&local, &md)[0];
    let blob = local.get(&layer).unwrap();
    let map = comt_chunk::ChunkMap::build(&blob, ChunkParams::default()).unwrap();

    // A chunkmap for a layer the server does not hold: rejected.
    let missing = Digest::of(b"not-there");
    let mut wrong = map.clone();
    wrong.blob_digest = missing.to_oci_string();
    assert!(client.put_chunkmap("app", &missing, &wrong.to_json()).is_err());
    // A chunkmap whose declared blob disagrees with the addressed layer.
    assert!(client.put_chunkmap("app", &layer, &wrong.to_json()).is_err());
    // The truthful one lands, and comes back bit-identical.
    assert!(client.put_chunkmap("app", &layer, &map.to_json()).unwrap());
    let raw = client.get_chunkmap("app", &layer).unwrap().unwrap();
    assert_eq!(&raw[..], &map.to_json()[..]);
    // No chunkmap for the config blob.
    let closure = closure_digests(&local, &md).unwrap();
    assert_eq!(client.get_chunkmap("app", &closure[1]).unwrap(), None);
    drop(server);
}

#[test]
fn stats_endpoint_reports_chunkmap_and_delta_counters() {
    let _g = obs_lock();
    let mut local = BlobStore::new();
    let (md1, md2) = two_versions(&mut local);
    let server = start_server(ServerOptions::default());
    let client = DistClient::new(server.addr().to_string());
    client
        .push_image_chunked("app", "v1", md1, &local, ChunkParams::default())
        .unwrap();
    client
        .push_image_chunked("app", "v2", md2, &local, ChunkParams::default())
        .unwrap();
    let mut dst = BlobStore::new();
    client.pull_image("app", "v1", &mut dst).unwrap();
    client.pull_image("app", "v2", &mut dst).unwrap();

    let (status, _, body) = client.raw_exchange("GET", "/v2/_comt/stats", &[], None).unwrap();
    assert_eq!(status, 200);
    let stats = comt_dist::decode_report(&body).unwrap();
    assert!(
        stats.counter("dist.server.chunkmaps_published") >= 2,
        "{stats}"
    );
    assert!(stats.counter("dist.server.chunkmap_hits") >= 1, "{stats}");
    assert!(stats.counter("dist.client.chunks_hit") >= 1, "{stats}");
    assert!(
        stats.counter("dist.client.delta_bytes_saved") > 0,
        "{stats}"
    );
    // The kernel the daemon verifies with: this process's, as it serves here.
    let head = format!(
        r#"{{"schema":"comt.metrics.v1","digest_backend":"{}","#,
        comt_digest::backend()
    );
    assert!(
        body.starts_with(head.as_bytes()),
        "{}",
        String::from_utf8_lossy(&body)
    );
    drop(server);
}
