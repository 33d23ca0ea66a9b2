//! Hash-once, pinned by the production counter (`digest.bytes_hashed`):
//! `save` re-hashes nothing, `load` hashes the closure exactly once, and a
//! chunked push hashes each byte only where a trust boundary or a chunk
//! digest needs it — a publish re-hashes none of the blobs the daemon
//! admitted.
//!
//! This file holds exactly one `#[test]`: the counter is process-global
//! and the tests of one binary run in parallel, so a second test here
//! would hash inside this one's windows.

use bytes::Bytes;
use comt_chunk::{ChunkMap, ChunkParams};
use comt_digest::{bytes_hashed, Digest};
use comt_dist::{serve, split_ref, DistClient, ServerOptions};
use comt_oci::store::closure_digests;
use comt_oci::{BlobStore, ImageBuilder, OciDir};
use comt_vfs::Vfs;
use std::collections::{BTreeMap, BTreeSet};

/// Incompressible, seeded bytes (xorshift64*).
fn filler(len: usize, seed: u64) -> Bytes {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    }
    out.truncate(len);
    Bytes::from(out)
}

/// `app.dist` (two layers) and `app.dist+coM` (the same two plus one), the
/// shape of the paper's pair: the extended ref shares every base layer.
fn fixture() -> OciDir {
    let mut store = BlobStore::new();
    let mut fs = vec![Vfs::new()];
    for (i, len) in [300_000, 200_000, 120_000].into_iter().enumerate() {
        let mut next = fs[i].clone();
        next.write_file_p(&format!("/app/part{i}"), filler(len, i as u64 + 7), 0o644)
            .unwrap();
        fs.push(next);
    }
    let dist = ImageBuilder::from_scratch("x86_64")
        .with_layer_from_fs(&fs[0], &fs[1])
        .with_layer_from_fs(&fs[1], &fs[2])
        .commit(&mut store)
        .unwrap();
    let ext = ImageBuilder::from_base(&store, &dist)
        .unwrap()
        .with_layer_from_fs(&fs[2], &fs[3])
        .commit(&mut store)
        .unwrap();
    let mut oci = OciDir::new();
    oci.export("app.dist", dist.manifest_digest, &store).unwrap();
    oci.export("app.dist+coM", ext.manifest_digest, &store).unwrap();
    oci
}

#[test]
fn save_hashes_nothing_load_hashes_once_and_a_chunked_push_keeps_its_budget() {
    let oci = fixture();
    let dir = std::env::temp_dir().join(format!("comt-hash-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let before = bytes_hashed();
    oci.save(&dir).unwrap();
    assert_eq!(bytes_hashed() - before, 0, "save re-hashed what its store proves");

    let before = bytes_hashed();
    let loaded = OciDir::load(&dir).unwrap();
    assert_eq!(
        bytes_hashed() - before,
        oci.blobs.total_size(),
        "load hashes every blob of the layout exactly once"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // Everything the budget is written from, computed before the window.
    let refs: Vec<(String, Digest)> = ["app.dist", "app.dist+coM"]
        .iter()
        .map(|r| (r.to_string(), loaded.resolve(r).unwrap()))
        .collect();
    let size = |d: &Digest| loaded.blobs.get(d).unwrap().len() as u64;
    let closures: Vec<Vec<Digest>> = refs
        .iter()
        .map(|(_, md)| closure_digests(&loaded.blobs, md).unwrap())
        .collect();
    let params = ChunkParams::default();
    // The parent's maps: `ChunkMap::build` over bare bytes.
    let parent_maps: BTreeMap<Digest, Vec<u8>> = closures
        .iter()
        .flat_map(|c| c[2..].iter().copied())
        .map(|l| {
            let map = ChunkMap::build(&loaded.blobs.get(&l).unwrap(), params).unwrap();
            (l, map.to_json())
        })
        .collect();
    let uploaded: BTreeSet<Digest> = closures.iter().flat_map(|c| c[1..].to_vec()).collect();
    let shared: BTreeSet<Digest> = closures[0][2..].iter().copied().collect();
    let map_len = |l: &Digest| parent_maps[l].len() as u64;
    // Publish hashes nothing: every closure member is a blob this daemon
    // admitted, and the store proves what it wrote.
    let budget = uploaded.iter().map(size).sum::<u64>() // admission of each upload
        + parent_maps.keys().map(size).sum::<u64>() // chunk digests, per fresh layer
        + refs.iter().map(|(_, md)| 2 * size(md)).sum::<u64>() // manifest: client + daemon
        + parent_maps.keys().map(map_len).sum::<u64>() // each map PUT, hashed on arrival
        + shared.iter().map(map_len).sum::<u64>(); // each probe's verify-on-admit load
    let smallest_layer = parent_maps.keys().map(size).min().unwrap();

    let server = serve(OciDir::new(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let client = DistClient::new(server.addr().to_string());
    let obs = comt_observe::global();
    let (maps_before, before) = (obs.counter("dist.client.chunkmaps_pushed"), bytes_hashed());
    for (r, md) in &refs {
        let (name, reference) = split_ref(r);
        client
            .push_image_chunked(name, reference, *md, &loaded.blobs, params)
            .unwrap();
    }
    let hashed = bytes_hashed() - before;
    let maps_pushed = obs.counter("dist.client.chunkmaps_pushed") - maps_before;
    let registry = server.shutdown();

    assert!(
        hashed <= budget,
        "chunked push hashed {hashed} bytes, budget {budget}"
    );
    // Tight enough that one more hash of any layer breaks it.
    assert!(
        budget - hashed < smallest_layer,
        "budget {budget} leaves {} bytes of slack, a whole layer is {smallest_layer}",
        budget - hashed
    );
    // Each layer chunked once: the extended push maps only what it adds.
    assert_eq!(maps_pushed, parent_maps.len() as u64);
    for (layer, want) in &parent_maps {
        let map = registry.chunkmap_for(layer).expect("every layer is described");
        assert_eq!(
            &registry.blobs.get(&map).unwrap()[..],
            &want[..],
            "map of {layer} differs from ChunkMap::build over its bytes"
        );
    }
}
