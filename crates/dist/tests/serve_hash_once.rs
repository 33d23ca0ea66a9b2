//! Hash-once on the serve side, pinned by the production counter
//! (`digest.bytes_hashed`): a daemon serves the blobs it admitted itself
//! without hashing them again, on both of its serve paths — the hot cache
//! (blobs under its entry bound) and the file stream (blobs over it). The
//! client still checks every blob it receives against its address.
//!
//! This file holds exactly one `#[test]`: the counter is process-global
//! and the tests of one binary run in parallel, so a second test here
//! would hash inside this one's window. The daemon runs in this process,
//! so the window sees both ends of the wire.

use bytes::Bytes;
use comt_digest::{bytes_hashed, Digest};
use comt_dist::{serve, DistClient, ServerOptions};
use comt_oci::store::closure_digests;
use comt_oci::{BlobStore, DiskRegistry, ImageBuilder};
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

#[test]
fn a_pull_of_what_this_daemon_admitted_hashes_only_on_the_client() {
    let mut local = BlobStore::new();
    let mut fs = Vfs::new();
    fs.write_file_p("/app/bin", Bytes::from(filler(256 << 10, 11)), 0o755)
        .unwrap();
    let md = ImageBuilder::from_scratch("x86_64")
        .with_layer_from_fs(&Vfs::new(), &fs)
        .commit(&mut local)
        .unwrap()
        .manifest_digest;
    let closure = closure_digests(&local, &md).unwrap();
    let size = |d: &Digest| local.get(d).unwrap().len() as u64;

    // A 256 KiB budget admits entries up to 64 KiB: the manifest and
    // config take the hot-cache path, the layer the stream path.
    let opts = ServerOptions {
        cache_bytes: 256 << 10,
        ..Default::default()
    };
    let max_entry = opts.cache_bytes / 4;
    assert!(size(&closure[0]) <= max_entry && size(&closure[1]) <= max_entry);
    assert!(size(&closure[2]) > max_entry);

    let dir = std::env::temp_dir().join(format!("comt-serve-hash-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = serve(DiskRegistry::open(&dir).unwrap(), "127.0.0.1:0", opts).unwrap();
    let client = DistClient::new(server.addr().to_string());
    client.push_image("app", "v1", md, &local).unwrap();

    let mut site = BlobStore::new();
    let before = bytes_hashed();
    let (got, stats) = client.pull_image("app", "v1", &mut site).unwrap();
    let hashed = bytes_hashed() - before;
    assert_eq!(got, md);
    assert_eq!(stats.blobs_moved, 3);
    drop(server.shutdown());
    std::fs::remove_dir_all(&dir).unwrap();

    // The client's own check of each blob it received, and nothing more:
    // one daemon-side hash of the smallest blob would break it.
    let client_checks: u64 = closure.iter().map(size).sum();
    assert!(
        hashed <= client_checks,
        "pull hashed {hashed} bytes, the client's checks are {client_checks}"
    );
}
