//! Per-layer numbers of the traced pass that spans around public calls
//! cannot give: counters the crates already publish, and probes that put
//! the workload's own bytes through one public function at a time.
//! Probes run after the timed iterations.

use crate::inputs::{closure, mib_s, Rng};
use crate::trace::Analysis;
use crate::Env;
use bytes::Bytes;
use comt_chunk::{plan_delta, ChunkIndex, ChunkMap, ChunkParams, DEFAULT_COALESCE_GAP};
use comt_digest::Digest;
use comt_dist::DistClient;
use comt_observe::Report;
use comt_oci::layout::OciDir;
use comt_oci::{BlobStore, DiskStore, Image};
use comtainer::SystemSide;
use std::time::Instant;

/// gzip runs at tens of MiB/s; the probe compresses this much of a layer.
const FLATE_PROBE_BYTES: usize = 4 << 20;
/// Repetitions of each raw blob transfer.
const RAW_REPS: usize = 5;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// `a - b` over counters and spans.
pub fn report_diff(a: &Report, b: &Report) -> Report {
    let mut out = a.clone();
    for (k, v) in &mut out.counters {
        *v = v.saturating_sub(b.counter(k));
    }
    for (k, v) in &mut out.spans {
        let sub = b.span(k);
        v.count = v.count.saturating_sub(sub.count);
        v.total = v.total.saturating_sub(sub.total);
    }
    out
}

/// What the crates' own instrumentation saw during the iterations (the
/// benchmark's checks excluded), per iteration. The daemon runs in this
/// process, so one report covers both ends of the wire.
pub fn observed(env: &Env, spans: &Analysis) {
    let seen = report_diff(&comt_observe::global().report(), &env.excluded());
    let iters = (spans.iter_walls(true).len() + spans.iter_walls(false).len()).max(1) as f64;
    let span_s = |name: &str| seen.span(name).total.as_secs_f64() / iters;
    env.record("oci.store_verify_s", span_s("store.verify"));
    env.record("dist.server_verify_s", span_s("dist.server.verify"));
    env.record("oci.codec_encode_s", span_s("codec.encode"));
    env.record("oci.codec_decode_s", span_s("codec.decode"));
    let requests: u64 = seen
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("dist.server.req."))
        .map(|(_, v)| v)
        .sum();
    env.record("dist.requests", requests as f64 / iters);
    let wire = seen.counter("dist.server.bytes_in") + seen.counter("dist.server.bytes_out");
    env.record("dist.bytes_on_wire", wire as f64 / iters);
    env.record(
        "dist.retries",
        seen.counter("dist.client.retries") as f64 / iters,
    );
    let (hits, misses) = (
        seen.counter("dist.cache.hits"),
        seen.counter("dist.cache.misses"),
    );
    if hits + misses > 0 {
        env.record(
            "dist.hotcache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }
    let (hit, fetched) = (
        seen.counter("dist.client.chunks_hit"),
        seen.counter("dist.client.chunks_fetched"),
    );
    if hit + fetched > 0 {
        env.record("chunk.hit_ratio", hit as f64 / (hit + fetched) as f64);
    }
}

/// The closure of `manifest` through digest, flate, tar, chunk and the
/// disk store, one public function at a time.
pub fn substrates(env: &Env, store: &BlobStore, manifest: &Digest) {
    let blobs: Vec<(Digest, Bytes)> = closure(store, manifest)
        .into_iter()
        .map(|d| (d, store.get(&d).expect("closure blob")))
        .collect();
    let total: usize = blobs.iter().map(|(_, b)| b.len()).sum();
    let image = Image::load(store, *manifest).expect("image loads");

    let (_, s) = timed(|| {
        for (_, b) in &blobs {
            std::hint::black_box(Digest::of(b));
        }
    });
    env.record("digest.sha256_mib_s", mib_s(total as u64, s));

    // The largest layer as the tar it was built from.
    let layer = image
        .manifest
        .layers
        .iter()
        .max_by_key(|l| l.size)
        .expect("image has layers");
    let tar = comt_oci::layer_tar(store, layer).expect("layer decodes");
    let (entries, s) = timed(|| comt_tar::read_archive(&tar).expect("layer is a tar"));
    env.record("tar.read_mib_s", mib_s(tar.len() as u64, s));
    let (written, s) = timed(|| comt_tar::write_archive(&entries).expect("entries serialize"));
    env.record("tar.write_mib_s", mib_s(written.len() as u64, s));

    let sample = &tar[..tar.len().min(FLATE_PROBE_BYTES)];
    let (packed, s) = timed(|| comt_flate::gzip(sample));
    env.record("flate.gzip_mib_s", mib_s(sample.len() as u64, s));
    let (unpacked, s) = timed(|| comt_flate::gunzip(&packed).expect("gunzip"));
    env.record("flate.gunzip_mib_s", mib_s(unpacked.len() as u64, s));
    env.checks
        .that(unpacked == sample, "gunzip(gzip(layer)) is the layer");

    let params = ChunkParams::default();
    let layers: Vec<&(Digest, Bytes)> = blobs
        .iter()
        .filter(|(d, _)| {
            image
                .manifest
                .layers
                .iter()
                .any(|l| l.digest == d.to_oci_string())
        })
        .collect();
    let layer_bytes: usize = layers.iter().map(|(_, b)| b.len()).sum();
    let (_, s) = timed(|| {
        for (_, b) in &layers {
            std::hint::black_box(ChunkMap::build(b, params).expect("chunk map"));
        }
    });
    env.record("chunk.map_build_mib_s", mib_s(layer_bytes as u64, s));
    let (_, s) = timed(|| {
        let mut index = ChunkIndex::new();
        for (d, b) in &blobs {
            index.add_blob(*d, b, params);
        }
        std::hint::black_box(index.len())
    });
    env.record("chunk.index_build_s", s);

    let dir = env.fresh_dir("probe-disk");
    let disk = DiskStore::init(&dir).expect("init disk store");
    let (_, s) = timed(|| {
        for (d, b) in &blobs {
            disk.put_blob(d, b).expect("disk put");
        }
    });
    env.record("oci.disk_put_mib_s", mib_s(total as u64, s));
    let (read, s) = timed(|| {
        blobs
            .iter()
            .map(|(d, _)| disk.read_blob(d).expect("disk read").map_or(0, |b| b.len()))
            .sum::<usize>()
    });
    env.record("oci.disk_read_mib_s", mib_s(read as u64, s));
    env.checks
        .that(read == total, "disk store returns every byte it was given");

    let (_, s) =
        timed(|| std::hint::black_box(comt_oci::flatten(store, &image).expect("flatten").len()));
    env.record("oci.flatten_s", s);
}

/// `plan_delta` of `new_layer` against a client that holds `old_layer`.
pub fn delta_plan(env: &Env, old_layer: &Bytes, new_layer: &Bytes) {
    let params = ChunkParams::default();
    let mut index = ChunkIndex::new();
    index.add_blob(Digest::of(old_layer), old_layer, params);
    let map = ChunkMap::build(new_layer, params).expect("chunk map");
    let (plan, s) = timed(|| plan_delta(&map, &index, DEFAULT_COALESCE_GAP));
    env.record("chunk.plan_s", s);
    env.checks.that(
        plan.bytes_local + plan.bytes_fetched >= map.total_bytes(),
        "delta plan covers the layer",
    );
}

/// Decoding the cache layer, as rebuild and redirect each do first.
pub fn load_cache(env: &Env, oci: &OciDir, extended_ref: &str) {
    let (_, s) = timed(|| comtainer::load_cache(oci, extended_ref).expect("load cache"));
    env.record("core.load_cache_s", s);
}

/// Redirect's first step: the image's runtime dependencies resolved in
/// the system's repositories and installed onto the rebase rootfs.
pub fn pkg_install(env: &Env, oci: &OciDir, extended_ref: &str, side: &SystemSide) {
    let cache = comtainer::load_cache(oci, extended_ref).expect("load cache");
    let deps: Vec<comt_pkg::Dependency> = cache
        .models
        .image
        .runtime_deps
        .iter()
        .map(|(name, _)| name.parse().expect("dependency parses"))
        .collect();
    let mut fs = side.rebase_fs.clone();
    let (_, s) = timed(|| {
        let packages = comt_pkg::resolve_install(&side.repo, &deps).expect("resolve");
        comt_pkg::install_packages(&mut fs, &packages).expect("install");
    });
    env.record("pkg.install_s", s);
}

/// Raw blob transfers against a daemon that holds the image: GET of the
/// largest layer by `threads` clients at once, PUT of fresh bytes of the
/// same length, and publication of the layer's chunkmap. Returns the
/// aggregate GET rate in MiB/s.
pub fn raw_transfers(
    env: &Env,
    addr: &str,
    name: &str,
    store: &BlobStore,
    manifest: &Digest,
    threads: usize,
) -> f64 {
    let image = Image::load(store, *manifest).expect("image loads");
    let layer = image
        .manifest
        .layers
        .iter()
        .max_by_key(|l| l.size)
        .expect("image has layers");
    let digest = layer.parsed_digest().expect("layer digest");
    let blob = store.get(&digest).expect("layer blob");

    let mut get_rates = Vec::new();
    for _ in 0..RAW_REPS {
        let (_, s) = timed(|| {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let got = DistClient::new(addr)
                            .get_blob(name, &digest)
                            .expect("raw GET");
                        env.checks.that(got == blob, "raw GET returns the layer");
                    });
                }
            })
        });
        get_rates.push(mib_s((blob.len() * threads) as u64, s));
    }
    env.record_all("dist.get_blob_mib_s", get_rates.iter().copied());

    let client = DistClient::new(addr);
    let mut rng = Rng::new(env.seed ^ 0x70726f6265);
    for _ in 0..RAW_REPS {
        let fresh = rng.bytes(blob.len());
        let fresh_digest = Digest::of(&fresh);
        let (_, s) = timed(|| {
            client
                .put_blob(name, &fresh_digest, &fresh)
                .expect("raw PUT")
        });
        env.record("dist.put_blob_mib_s", mib_s(fresh.len() as u64, s));
    }

    let map = ChunkMap::build(&blob, ChunkParams::default())
        .expect("chunk map")
        .to_json();
    let (accepted, s) = timed(|| {
        client
            .put_chunkmap(name, &digest, &map)
            .expect("chunkmap PUT")
    });
    env.record("dist.chunkmap_put_s", s);
    env.checks
        .that(accepted, "daemon accepts the layer's chunkmap");
    crate::stats::median(&get_rates)
}
