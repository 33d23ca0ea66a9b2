//! A second retarget of a held image hashes no input byte, pinned by the
//! production counter (`digest.bytes_hashed`). The first fan-out's load
//! left the decoded cache layer and the digests of its sources in the
//! layout; the second one's load reuses both, so the only bytes it hashes
//! are what it commits (a rebuild layer, a config and a manifest per
//! target) and its cache keys, which fingerprint argv, environment, paths
//! and 32-byte digests but never file content. The second fan-out runs on
//! a fresh artifact cache, so its compiler asks for every source digest
//! too.
//!
//! This file holds exactly one `#[test]`: the counter is process-global
//! and the tests of one binary run in parallel, so a second test here
//! would hash inside this one's window.

use comt_bench::Lab;
use comt_digest::bytes_hashed;
use comtainer_suite::core::{comtainer_retarget, ArtifactCache, CacheMode, RebuildOptions};
use comtainer_suite::pkg::catalog;

const TARGETS: [&str; 4] = ["x86-64-v3", "haswell", "x86-64-v4", "icelake-server"];
/// Upper bound on the key material one compile step fingerprints.
const KEY_BYTES: u64 = 2048;

#[test]
fn a_second_retarget_of_a_held_image_hashes_only_its_commits() {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let side = lab.system_side();
    let targets: Vec<String> = TARGETS.iter().map(|t| t.to_string()).collect();
    let cold = || RebuildOptions {
        parallel: true,
        artifact_cache: Some(ArtifactCache::new()),
        ..Default::default()
    };
    for mode in [CacheMode::Source, CacheMode::Ir] {
        let (mut oci, ext) = lab.extended("hpccg", mode);
        let before = bytes_hashed();
        comtainer_retarget(&mut oci, &ext, &side, &targets, &cold()).unwrap();
        let first = bytes_hashed() - before;

        let before = bytes_hashed();
        let fan = comtainer_retarget(&mut oci, &ext, &side, &targets, &cold()).unwrap();
        let second = bytes_hashed() - before;

        let report = &fan.report;
        assert!(report.counter("exec.compile") + report.counter("exec.recodegen") > 0);
        assert_eq!(report.counter("key.files_hashed"), 0, "{mode:?}");
        assert!(report.counter("key.files_reused") > 0, "{mode:?}");

        let commits: u64 = fan
            .images
            .iter()
            .map(|(_, name)| {
                let image = oci.load_image(name).unwrap();
                let manifest = oci.index.find_ref(name).unwrap();
                image.manifest.layers.last().unwrap().size
                    + image.manifest.config.size
                    + manifest.size
            })
            .sum();
        let keys = report.counter("steps.compile") * KEY_BYTES;
        assert!(
            second <= commits + keys,
            "{mode:?}: the second fan-out hashed {second} bytes; its commits allow \
             {commits} and its keys {keys} (the first hashed {first})"
        );
    }
}
