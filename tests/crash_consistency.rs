//! Crash-consistency: a layout damaged the way a killed process (or bad
//! disk) leaves it must be refused by `OciDir::load`, diagnosed by fsck,
//! and after `--repair` serve every surviving tag bit-identically.

use bytes::Bytes;
use comt_dist::{serve, tag_key, DistClient, ServerOptions};
use comtainer_suite::oci::fsck::{fsck, FsckOptions};
use comtainer_suite::oci::layout::OciDir;
use comtainer_suite::oci::spec::{Descriptor, MediaType};
use comtainer_suite::oci::store::{closure_digests, BlobStore};
use comtainer_suite::oci::{DiskRegistry, DiskStore, ImageBuilder, StoreError};
use comt_digest::Digest;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn tmp_layout(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comt-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Build a layout with one published image and return (its ref's manifest
/// digest, a byte-for-byte copy of every blob).
fn published_layout(dir: &std::path::Path) -> (Digest, BTreeMap<Digest, Bytes>) {
    let mut oci = OciDir::new();
    let image = ImageBuilder::from_scratch("x86_64")
        .with_layer_tar(Bytes::from_static(b"app layer tar bytes"), "layer one")
        .with_layer_tar(Bytes::from_static(b"config layer tar bytes"), "layer two")
        .commit(&mut oci.blobs)
        .unwrap();
    let size = oci.blobs.get(&image.manifest_digest).unwrap().len() as u64;
    oci.index.set_ref(
        "app.dist",
        Descriptor::new(MediaType::ImageManifest, image.manifest_digest, size),
    );
    oci.save(dir).unwrap();
    let blobs = oci
        .blobs
        .iter()
        .map(|(d, b)| (*d, b.clone()))
        .collect::<BTreeMap<_, _>>();
    (image.manifest_digest, blobs)
}

#[test]
fn torn_layout_is_refused_diagnosed_repaired_and_serves_bit_identically() {
    let dir = tmp_layout("torn");
    let (manifest_digest, originals) = published_layout(&dir);
    let store = DiskStore::open(&dir).unwrap();

    // Damage the layout three ways a kill -9 (or external writer) can:
    // a stray tmp file from an interrupted commit, a half-written blob
    // under a digest name, and a foreign file in the blob directory.
    std::fs::write(store.blobs_dir().join(".tmp.999-0"), b"in-flight bytes").unwrap();
    let torn = Digest::of(b"a blob whose write was interrupted");
    std::fs::write(store.blob_path(&torn), b"only half of the").unwrap();
    std::fs::write(store.blobs_dir().join("not-a-digest"), b"???").unwrap();

    // The eager loader refuses torn state outright.
    match OciDir::load(&dir) {
        Err(StoreError::Torn { .. }) | Err(StoreError::DigestMismatch(_)) => {}
        other => panic!("load accepted a torn layout: {other:?}"),
    }

    // fsck without --repair diagnoses every damage shape and changes
    // nothing on disk.
    let report = fsck(&dir, &FsckOptions { repair: false }).unwrap();
    let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
    assert_eq!(codes, ["COMT-F001", "COMT-F003", "COMT-F005"], "{codes:?}");
    assert!(report.unrepaired_errors() > 0);
    assert!(store.blob_path(&torn).exists(), "dry run must not delete");

    // --repair restores a servable layout.
    let repaired = fsck(&dir, &FsckOptions { repair: true }).unwrap();
    assert_eq!(repaired.unrepaired_errors(), 0, "{}", repaired.render_human());
    let clean = fsck(&dir, &FsckOptions { repair: false }).unwrap();
    assert!(clean.is_clean(), "{}", clean.render_human());

    // The eager loader accepts it again, every original byte intact.
    let back = OciDir::load(&dir).unwrap();
    for (d, bytes) in &originals {
        assert_eq!(back.blobs.get(d).as_ref(), Some(bytes), "{d}");
    }

    // And the published tag pulls bit-identically over the wire.
    let reg = DiskRegistry::open(&dir).unwrap();
    let server = serve(reg, "127.0.0.1:0", ServerOptions::default()).unwrap();
    let client = DistClient::new(server.addr().to_string());
    let mut pulled = BlobStore::new();
    let (got, _) = client.pull_image("app.dist", "latest", &mut pulled).unwrap();
    assert_eq!(got, manifest_digest);
    let mut source = BlobStore::new();
    for b in originals.values() {
        source.put(b.clone());
    }
    for d in closure_digests(&source, &manifest_digest).unwrap() {
        assert_eq!(
            &pulled.get(&d).unwrap(),
            originals.get(&d).unwrap(),
            "pulled blob {d} differs from the originally published bytes"
        );
    }
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_index_is_refused_and_repair_preserves_blobs() {
    let dir = tmp_layout("index");
    let (_md, originals) = published_layout(&dir);

    // Truncate index.json mid-byte (external damage: the store's own
    // commits replace it atomically).
    let raw = std::fs::read(dir.join("index.json")).unwrap();
    std::fs::write(dir.join("index.json"), &raw[..raw.len() / 2]).unwrap();

    assert!(matches!(OciDir::load(&dir), Err(StoreError::Torn { .. })));

    let report = fsck(&dir, &FsckOptions { repair: false }).unwrap();
    assert!(report.findings.iter().any(|f| f.code == "COMT-F004"));

    let repaired = fsck(&dir, &FsckOptions { repair: true }).unwrap();
    assert_eq!(repaired.unrepaired_errors(), 0);

    // Tags in a torn index are unrecoverable, but every blob survives for
    // re-tagging / re-push.
    let back = OciDir::load(&dir).unwrap();
    assert!(back.index.ref_names().is_empty());
    assert_eq!(back.blobs.len(), originals.len());
    for (d, bytes) in &originals {
        assert_eq!(back.blobs.get(d).as_ref(), Some(bytes), "{d}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsck_passes_the_wire_tag_key_for_saved_refs() {
    // `split_ref`/`tag_key` addressing and a repaired layout agree: a ref
    // saved as a bare name answers to `name:latest` after reopen.
    let dir = tmp_layout("tagkey");
    let (md, _) = published_layout(&dir);
    let reg = DiskRegistry::open(&dir).unwrap();
    assert_eq!(reg.resolve(&tag_key("app.dist", "latest")).ok(), Some(md));
    drop(reg);
    std::fs::remove_dir_all(&dir).unwrap();
}
