//! Hash-once on the site side, pinned by the production counter
//! (`digest.bytes_hashed`): every engine of a retarget fan-out replays the
//! same decoded cache layer, and the load's digest memo hashes each input
//! window once for all of them — for the cache keys and the compiler's
//! source digests alike. A cold 4-target fan-out therefore hashes no more
//! input bytes than a cold 1-target fan-out. What it may hash on top is
//! per target by nature: what it commits (three more rebuild layers, their
//! configs and their manifests) and its own cache keys, which fingerprint
//! argv, environment, paths and 32-byte digests but never file content.
//!
//! Each fan-out runs on a layout of its own. A layout keeps the digests
//! of the images it holds for every later load, clones included, so a
//! second fan-out over the first one's layout would hash no input at all
//! and the comparison would check nothing.
//!
//! This file holds exactly one `#[test]`: the counter is process-global
//! and the tests of one binary run in parallel, so a second test here
//! would hash inside this one's window.

use comt_bench::Lab;
use comt_digest::bytes_hashed;
use comt_oci::layout::OciDir;
use comtainer_suite::core::cache::{parse_ref, Stage};
use comtainer_suite::core::{comtainer_retarget, ArtifactCache, CacheMode, RebuildOptions};
use comtainer_suite::pkg::catalog;

const TARGETS: [&str; 4] = ["x86-64-v3", "haswell", "x86-64-v4", "icelake-server"];
/// Upper bound on the key material one compile step fingerprints.
const KEY_BYTES: u64 = 2048;

/// Bytes hashed by one cold fan-out over `targets`, on a freshly extended
/// hpccg layout (so nothing it holds has been loaded before) and a fresh
/// artifact cache; the compile steps of each target; the extended ref and
/// the layout the fan-out committed to.
fn cold_fan_out(lab: &mut Lab, mode: CacheMode, targets: &[&str]) -> (u64, u64, String, OciDir) {
    let (mut oci, ext) = lab.extended("hpccg", mode);
    let side = lab.system_side();
    let targets: Vec<String> = targets.iter().map(|t| t.to_string()).collect();
    let opts = RebuildOptions {
        parallel: true,
        artifact_cache: Some(ArtifactCache::new()),
        ..Default::default()
    };
    let before = bytes_hashed();
    let fan = comtainer_retarget(&mut oci, &ext, &side, &targets, &opts).unwrap();
    let hashed = bytes_hashed() - before;
    assert!(fan.report.counter("exec.compile") + fan.report.counter("exec.recodegen") > 0);
    let steps = fan.report.counter("steps.compile") / targets.len() as u64;
    (hashed, steps, ext, oci)
}

/// Bytes `write_rebuild` stores for `target`: the rebuild layer,
/// the image config and the manifest.
fn committed(oci: &OciDir, ext: &str, target: &str) -> u64 {
    let (base, ..) = parse_ref(ext).unwrap();
    let name = Stage::Rebuilt.of(base, Some(target));
    let image = oci.load_image(&name).unwrap();
    let manifest = oci.index.find_ref(&name).unwrap();
    image.manifest.layers.last().unwrap().size + image.manifest.config.size + manifest.size
}

#[test]
fn a_cold_fan_out_hashes_each_input_once_for_every_target() {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    for mode in [CacheMode::Source, CacheMode::Ir] {
        let (one, _, _, _) = cold_fan_out(&mut lab, mode, &TARGETS[..1]);
        let (four, steps, ext, fanned) = cold_fan_out(&mut lab, mode, &TARGETS);
        let commits: u64 = TARGETS[1..]
            .iter()
            .map(|t| committed(&fanned, &ext, t))
            .sum();
        let keys = 3 * steps * KEY_BYTES;
        assert!(
            four <= one + commits + keys,
            "{mode:?}: 4 targets hashed {four} bytes, 1 target {one}; the 3 extra \
             targets' commits allow {commits} more and their keys {keys}"
        );
    }
}
