//! Extension experiment — chunk-level delta pull vs full-blob pull (not a
//! paper figure).
//!
//! Models the paper's update cadence: an image whose single big layer
//! holds many object files, one of which is recompiled between v1 and v2.
//! A classic pull re-transfers the whole mutated layer; a delta pull
//! fetches the server's chunkmap, reuses every chunk it already holds
//! from v1, and moves only the windows around the mutated object. The
//! bench measures both paths — bytes on the wire and wall time — and
//! asserts the delta path moves at most 30% of the layer.
//!
//! ```text
//! delta_pull [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the object count and sizes (the CI configuration);
//! the pulled closures are still digest-verified bit-identical.

use bytes::Bytes;
use comt_bench::report::{json_report, json_row, table};
use comt_chunk::ChunkParams;
use comt_digest::Digest;
use comt_dist::{serve, DistClient, PullOptions, ServerOptions};
use comt_oci::store::closure_digests;
use comt_oci::{BlobStore, ImageBuilder, ImageManifest, Registry};
use comt_vfs::Vfs;
use serde::Value;
use std::time::Instant;

/// Deterministic incompressible-ish object bytes (xorshift64*, no RNG).
fn object_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.extend_from_slice(&x.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
    }
    v.truncate(len);
    v
}

/// One image whose single layer holds `objects` object files; the file at
/// `mutated` (if any) carries generation-2 content — the recompiled one.
fn build_version(
    store: &mut BlobStore,
    objects: usize,
    obj_len: usize,
    mutated: Option<usize>,
) -> Digest {
    let mut fs = Vfs::new();
    for i in 0..objects {
        let generation = if mutated == Some(i) { 2u64 } else { 1 };
        let seed = (i as u64 + 1) * 0x9e37 + generation * 0x7f4a_0000;
        fs.write_file_p(
            &format!("/app/obj/file_{i:03}.o"),
            Bytes::from(object_bytes(obj_len, seed)),
            0o644,
        )
        .expect("write object");
    }
    ImageBuilder::from_scratch("x86_64")
        .with_layer_from_fs(&Vfs::new(), &fs)
        .commit(store)
        .expect("commit image")
        .manifest_digest
}

fn layer_bytes(store: &BlobStore, md: &Digest) -> u64 {
    let m: ImageManifest =
        serde_json::from_slice(&store.get(md).expect("manifest")).expect("parse manifest");
    m.layers.iter().map(|l| l.size).sum()
}

fn seed_store(local: &BlobStore, md: &Digest) -> BlobStore {
    let mut dst = BlobStore::new();
    for d in closure_digests(local, md).expect("closure") {
        assert!(dst.fetch_from(local, &d), "closure blob");
    }
    dst
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_delta_pull.json".to_string());
    let (objects, obj_len) = if smoke { (24, 96 << 10) } else { (96, 256 << 10) };
    let iters = if smoke { 2 } else { 3 };

    println!("== Extension: chunk-level delta pull vs full pull ==\n");

    // v1 and v2 differ by one recompiled object inside one big layer.
    let mut local = BlobStore::new();
    let md1 = build_version(&mut local, objects, obj_len, None);
    let md2 = build_version(&mut local, objects, obj_len, Some(objects / 2));
    let v2_layer_bytes = layer_bytes(&local, &md2);

    let server =
        serve(Registry::new(), "127.0.0.1:0", ServerOptions::default()).expect("bind daemon");
    let client = DistClient::new(server.addr().to_string());
    let params = ChunkParams::default();
    client
        .push_image_chunked("bench", "v1", md1, &local, params)
        .expect("push v1");
    client
        .push_image_chunked("bench", "v2", md2, &local, params)
        .expect("push v2");

    // Both paths start from the same state: a client that already holds
    // v1 and wants v2.
    let v1_seed = seed_store(&local, &md1);
    let mut rows = Vec::new();
    let mut json_rows: Vec<Value> = Vec::new();
    let mut wire_at: Vec<(&str, u64, f64)> = Vec::new();

    for (case, delta) in [("full_pull", false), ("delta_pull", true)] {
        let mut best_wall = f64::INFINITY;
        let mut last_stats = None;
        for _ in 0..iters {
            let mut dst = v1_seed.clone();
            let t = Instant::now();
            let (got, stats) = client
                .pull_image_with(
                    "bench",
                    "v2",
                    &mut dst,
                    &PullOptions {
                        delta,
                        ..PullOptions::default()
                    },
                )
                .expect("pull v2");
            best_wall = best_wall.min(t.elapsed().as_secs_f64());
            assert_eq!(got, md2, "manifest digest drifted over the wire");
            for d in closure_digests(&local, &md2).expect("closure") {
                assert_eq!(
                    dst.get(&d).expect("pulled blob"),
                    local.get(&d).expect("local blob"),
                    "{case}: {d} not bit-identical"
                );
            }
            last_stats = Some(stats);
        }
        let stats = last_stats.unwrap();
        wire_at.push((case, stats.bytes_moved, best_wall));
        rows.push(vec![
            case.to_string(),
            format!("{:.3}", stats.bytes_moved as f64 / (1024.0 * 1024.0)),
            format!("{best_wall:.4}"),
            stats.chunks_hit.to_string(),
            stats.chunks_fetched.to_string(),
            format!("{:.3}", stats.delta_bytes_saved as f64 / (1024.0 * 1024.0)),
        ]);
        json_rows.push(json_row(vec![
            ("case", Value::Str(case.to_string())),
            ("layer_bytes", Value::Int(v2_layer_bytes as i64)),
            ("bytes_on_wire", Value::Int(stats.bytes_moved as i64)),
            ("wall_s", Value::Float(best_wall)),
            ("chunks_hit", Value::Int(stats.chunks_hit as i64)),
            ("chunks_fetched", Value::Int(stats.chunks_fetched as i64)),
            ("delta_bytes_saved", Value::Int(stats.delta_bytes_saved as i64)),
            ("manifest", Value::Str(md2.to_oci_string())),
        ]));
    }
    println!(
        "{}",
        table(
            &["case", "wire MiB", "wall s", "chunks hit", "chunks fetched", "saved MiB"],
            &rows
        )
    );

    let full = wire_at[0].1;
    let delta = wire_at[1].1;
    let ratio = delta as f64 / full.max(1) as f64;
    println!(
        "one recompiled object of {objects}: delta moved {:.1}% of the full pull's bytes",
        ratio * 100.0
    );
    json_rows.push(json_row(vec![
        ("case", Value::Str("summary".to_string())),
        ("objects", Value::Int(objects as i64)),
        ("object_bytes", Value::Int(obj_len as i64)),
        ("wire_ratio", Value::Float(ratio)),
    ]));
    // The acceptance bar, same as the loopback e2e test: a one-object
    // mutation must not cost more than 30% of the layer on the wire.
    assert!(
        delta <= v2_layer_bytes * 30 / 100,
        "delta pull moved {delta} of {v2_layer_bytes} layer bytes (> 30%)"
    );

    drop(server);
    let json = json_report("delta_pull", json_rows);
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
