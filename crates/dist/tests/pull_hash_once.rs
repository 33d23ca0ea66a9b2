//! Hash-once on the pull side, pinned by the production counter
//! (`digest.bytes_hashed`): a delta pull indexes the layer the site
//! already holds from the daemon's published map, so it hashes none of
//! that layer's bytes.
//!
//! This file holds exactly one `#[test]`: the counter is process-global
//! and the tests of one binary run in parallel, so a second test here
//! would hash inside this one's window. The daemon runs in this process,
//! so the window sees both ends of the wire.

use bytes::Bytes;
use comt_chunk::{ChunkMap, ChunkParams};
use comt_digest::{bytes_hashed, Digest};
use comt_dist::{serve, DistClient, ServerOptions};
use comt_oci::store::closure_digests;
use comt_oci::{BlobStore, ImageBuilder, ImageManifest, Registry};
use comt_vfs::Vfs;

/// Incompressible, seeded bytes (xorshift64*).
fn filler(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    }
    out.truncate(len);
    out
}

fn image(store: &mut BlobStore, payload: &[u8]) -> Digest {
    let mut fs = Vfs::new();
    fs.write_file_p("/app/bin", Bytes::from(payload.to_vec()), 0o755)
        .unwrap();
    ImageBuilder::from_scratch("x86_64")
        .with_layer_from_fs(&Vfs::new(), &fs)
        .commit(store)
        .unwrap()
        .manifest_digest
}

fn layer(store: &BlobStore, manifest: &Digest) -> Digest {
    let m: ImageManifest = serde_json::from_slice(&store.get(manifest).unwrap()).unwrap();
    m.layers[0].parsed_digest().unwrap()
}

#[test]
fn a_delta_pull_hashes_none_of_the_layer_it_already_holds() {
    // v2 is v1 with one small in-place edit inside a 1 MiB object.
    let mut local = BlobStore::new();
    let v1 = filler(1 << 20, 7);
    let mut v2 = v1.clone();
    v2[300_000..300_200].copy_from_slice(&filler(200, 99));
    let md1 = image(&mut local, &v1);
    let md2 = image(&mut local, &v2);
    let params = ChunkParams::default();

    let server = serve(Registry::new(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let client = DistClient::new(server.addr().to_string());
    for (tag, md) in [("v1", md1), ("v2", md2)] {
        client
            .push_image_chunked("app", tag, md, &local, params)
            .unwrap();
    }
    let mut site = BlobStore::new();
    client.pull_image("app", "v1", &mut site).unwrap();

    // Everything the budget is written from, computed before the window.
    let size = |d: &Digest| local.get(d).unwrap().len() as u64;
    let (held, pulled) = (layer(&local, &md1), layer(&local, &md2));
    let config = |md: &Digest| closure_digests(&local, md).unwrap()[1];
    let map_len = |l: &Digest| {
        let map = ChunkMap::build(&local.get(l).unwrap(), params).unwrap();
        map.to_json().len() as u64
    };
    let obs = comt_observe::global();
    let fetched_before = obs.counter("dist.client.delta_bytes_fetched");

    let before = bytes_hashed();
    let (got, stats) = client.pull_image("app", "v2", &mut site).unwrap();
    let hashed = bytes_hashed() - before;
    assert_eq!(got, md2);
    assert!(stats.chunks_hit > 0, "delta path did not engage: {stats:?}");
    drop(server);

    let fetched = obs.counter("dist.client.delta_bytes_fetched") - fetched_before;
    let budget = size(&pulled) // the assembled layer, checked against its address
        + fetched // each fetched window, chunk by chunk
        + 2 * (size(&md2) + size(&config(&md2))) // manifest and config: daemon load + client
        + size(&md1) + size(&config(&md1)) // held blobs under one chunk, chunked locally
        + 2 * (map_len(&pulled) + map_len(&held)); // both maps: daemon load + client
    assert!(
        hashed <= budget,
        "delta pull hashed {hashed} bytes, budget {budget}"
    );
    // Tight enough that one hash of the held layer breaks it.
    assert!(
        budget - size(&pulled) < size(&held),
        "budget {budget} would fit a hash of the held {}-byte layer",
        size(&held)
    );
}
