//! A layout keeps each extended image's decoded cache layer and the
//! digests of its sources (`comt_oci::BlobStore::derived`). Three rules
//! keep that sound and bounded, one test each:
//!
//! 1. a hit needs every blob of the image's closure in the asking store;
//! 2. dropping a blob drops what was derived from it;
//! 3. the held digests cover only the image's own windows, never a run's
//!    extra files.

use bytes::Bytes;
use comt_bench::Lab;
use comtainer_suite::core::{
    comtainer_rebuild_with_report, load_cache, ArtifactCache, CacheMode, RebuildOptions,
};
use comtainer_suite::digest::Digest;
use comtainer_suite::oci::layout::OciDir;
use comtainer_suite::pkg::catalog;
use std::collections::BTreeMap;

const COMPILED_UNIT: &str = "hpccg_unit_0.cc";

fn extended() -> (Lab, OciDir, String) {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let (oci, ext) = lab.extended("hpccg", CacheMode::Source);
    (lab, oci, ext)
}

/// The digest of `ext`'s cache layer (its last layer).
fn cache_layer(oci: &OciDir, ext: &str) -> Digest {
    let image = oci.load_image(ext).unwrap();
    image
        .manifest
        .layers
        .last()
        .unwrap()
        .parsed_digest()
        .unwrap()
}

#[test]
fn a_clone_without_the_closure_never_hits_the_held_decode() {
    let (_lab, oci, ext) = extended();
    let layer = cache_layer(&oci, &ext);
    drop(load_cache(&oci, &ext).unwrap());
    let mut pruned = oci.clone();
    assert_eq!(pruned.blobs.derived_len(), 1, "a clone shares the held decode");

    // Dropping the layer from one clone ends the entry for all of them.
    assert_eq!(pruned.blobs.retain(|d| *d != layer), 1);
    assert_eq!(oci.blobs.derived_len(), 0);
    // The clone that still holds it decodes it again; the one that lacks
    // it shares that entry but misses, and its load fails.
    drop(load_cache(&oci, &ext).unwrap());
    assert_eq!(pruned.blobs.derived_len(), 1);
    assert!(load_cache(&pruned, &ext).is_err());
    assert_eq!(oci.blobs.derived_len(), 1);
}

#[test]
fn gc_drops_the_held_decode_with_the_image() {
    let (_lab, mut oci, ext) = extended();
    drop(load_cache(&oci, &ext).unwrap());
    assert_eq!(oci.blobs.derived_len(), 1);
    let layer = oci.blobs.get(&cache_layer(&oci, &ext)).unwrap();
    let address = layer.as_ptr();

    for name in oci.index.ref_names() {
        oci.index.remove_ref(&name);
    }
    let (removed, _) = oci.gc_apply().unwrap();
    assert!(removed > 0);
    assert_eq!(oci.blobs.derived_len(), 0);
    // Nothing else holds the layer now: handing it back as a `Vec`
    // reclaims the allocation instead of copying it.
    let reclaimed = Vec::from(layer);
    assert_eq!(reclaimed.as_ptr(), address);
}

#[test]
fn a_runs_extra_files_never_enter_the_held_digests() {
    let (lab, mut oci, ext) = extended();
    let side = lab.system_side();
    let cache = load_cache(&oci, &ext).unwrap();
    let held = cache.digests.held().clone();
    let shape = (held.len(), held.pinned_bytes());
    assert!(shape.0 > 0 && shape.0 == cache.sources.len());
    let (unit, content) = cache
        .sources
        .iter()
        .find(|(path, _)| path.ends_with(COMPILED_UNIT))
        .map(|(p, c)| (p.clone(), c.clone()))
        .unwrap();
    drop(cache);

    for i in 0..10u8 {
        // A fresh copy of a compiled source (so every compile key and the
        // compiler read a window of this run's own) and one file more.
        let mut extra_files = BTreeMap::new();
        extra_files.insert(unit.clone(), Bytes::copy_from_slice(&content));
        extra_files.insert(format!("/extra/{i}"), Bytes::from(vec![i; 64 + i as usize]));
        let opts = RebuildOptions {
            extra_files,
            artifact_cache: Some(ArtifactCache::new()),
            ..Default::default()
        };
        let (_, report) = comtainer_rebuild_with_report(&mut oci, &ext, &side, &opts).unwrap();
        assert!(
            report.counter("key.files_hashed") > 0,
            "run {i} hashed its own copy"
        );
        assert_eq!((held.len(), held.pinned_bytes()), shape, "after run {i}");
    }
}
