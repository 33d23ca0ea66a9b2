//! The artifact-cache keys, pinned end to end.
//!
//! For every generated application tree, in each cache mode (source, IR),
//! a cold rebuild over a fresh artifact cache must leave exactly the keys
//! written in `tests/golden/cache_keys.txt` and produce the `+coMre` layer
//! written there; so must one 3-target fan-out per mode. The keys are
//! `step_key`, or `object_key` over `ir_step_key`, of every compile step:
//! a change to how the engine computes a key — which inputs it reads, how
//! it digests them — fails here even when the rebuilt layer does not move.
//! Refreshing the golden is a reviewed diff:
//!
//! ```text
//! COMT_BLESS=1 cargo test --test cache_keys
//! ```

mod common;

use comt_bench::Lab;
use comt_oci::layout::OciDir;
use comtainer_suite::core::{
    comtainer_rebuild_with_report, comtainer_retarget, ArtifactCache, CacheMode, RebuildOptions,
};
use comtainer_suite::pkg::catalog;
use std::fmt::Write as _;
use std::sync::Arc;

const MODES: [(CacheMode, &str); 2] = [(CacheMode::Source, "source"), (CacheMode::Ir, "ir")];

/// Digest of the rebuild layer (the last layer) of the image at `name`.
fn rebuild_layer_digest(oci: &OciDir, name: &str) -> String {
    let image = oci.load_image(name).unwrap();
    image.manifest.layers.last().unwrap().digest.clone()
}

/// One `layer=` line per produced image, then one `key=` line per cached
/// step in key order.
fn record(text: &mut String, label: &str, layers: &[String], cache: &ArtifactCache) {
    for layer in layers {
        writeln!(text, "{label} layer={layer}").unwrap();
    }
    for key in cache.keys() {
        writeln!(text, "{label} key={}", key.to_oci_string()).unwrap();
    }
}

fn opts(cache: &Arc<ArtifactCache>) -> RebuildOptions {
    RebuildOptions {
        parallel: true,
        artifact_cache: Some(Arc::clone(cache)),
        ..Default::default()
    }
}

#[test]
fn cache_keys_golden() {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let side = lab.system_side();
    let mut text = String::new();
    for app in comt_workloads::apps() {
        for (mode, mode_name) in MODES {
            let (mut oci, ext) = lab.extended(app.name, mode);
            let cache = ArtifactCache::new();
            let (re, _) =
                comtainer_rebuild_with_report(&mut oci, &ext, &side, &opts(&cache)).unwrap();
            let layer = rebuild_layer_digest(&oci, &re);
            record(
                &mut text,
                &format!("{} {mode_name}", app.name),
                &[layer],
                &cache,
            );
        }
    }

    let targets: Vec<String> = ["x86-64-v3", "haswell", "x86-64-v4"]
        .iter()
        .map(|t| t.to_string())
        .collect();
    for (mode, mode_name) in MODES {
        let (mut oci, ext) = lab.extended("hpccg", mode);
        let cache = ArtifactCache::new();
        let fan = comtainer_retarget(&mut oci, &ext, &side, &targets, &opts(&cache)).unwrap();
        let layers: Vec<String> = fan
            .images
            .iter()
            .map(|(_, r)| rebuild_layer_digest(&oci, r))
            .collect();
        record(
            &mut text,
            &format!("hpccg {mode_name} fan-out"),
            &layers,
            &cache,
        );
    }

    common::golden("cache_keys.txt", &text);
}
