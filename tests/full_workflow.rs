//! End-to-end integration: the complete coMtainer workflow on a real
//! workload, asserting the paper's artifact-description checks (B.2) and
//! the performance relations of §5.2.

use comt_bench::{Lab, Scheme};
use comtainer_suite::pkg::catalog;
use comt_workloads::WorkloadRef;

#[test]
fn artifact_description_checks() {
    // AD §B.2: after coMtainer-build a manifest tagged +coM appears in
    // index.json; after coMtainer-rebuild a +coMre manifest appears; the
    // final redirected image has a file-system layout compatible with the
    // original dist image.
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let art = lab.prepare_app("hpccg");

    let refs = art.oci.index.ref_names();
    assert!(refs.contains(&"hpccg.dist".to_string()), "{refs:?}");
    assert!(refs.contains(&"hpccg.dist+coM".to_string()), "{refs:?}");
    assert!(refs.contains(&"hpccg.dist+coMre".to_string()), "{refs:?}");
    assert!(refs.contains(&"hpccg.dist+opt".to_string()), "{refs:?}");

    // Layout compatibility: the app binary and data live at the original
    // paths in the redirected image.
    let orig_fs = comtainer_suite::oci::flatten(
        &art.oci.blobs,
        &art.oci.load_image("hpccg.dist").unwrap(),
    )
    .unwrap();
    let opt_fs = comtainer_suite::oci::flatten(&art.oci.blobs, &art.adapted).unwrap();
    assert!(orig_fs.exists("/app/hpccg") && opt_fs.exists("/app/hpccg"));
    assert!(orig_fs.exists("/app/hpccg.data") && opt_fs.exists("/app/hpccg.data"));
    assert_eq!(
        orig_fs.read("/app/hpccg.data").unwrap(),
        opt_fs.read("/app/hpccg.data").unwrap(),
        "data files carried verbatim"
    );
    // The binary itself was rebuilt (different content).
    assert_ne!(
        orig_fs.read("/app/hpccg").unwrap(),
        opt_fs.read("/app/hpccg").unwrap()
    );

    // The extended image's first layers are exactly the original's (layer
    // injection leaves the original untouched).
    let orig = art.oci.load_image("hpccg.dist").unwrap();
    let ext = art.oci.load_image("hpccg.dist+coM").unwrap();
    assert_eq!(ext.manifest.layers.len(), orig.manifest.layers.len() + 1);
    assert_eq!(
        &ext.manifest.layers[..orig.manifest.layers.len()],
        &orig.manifest.layers[..]
    );
}

#[test]
fn scheme_ordering_matches_paper() {
    // §5.2: adapted recovers the performance lost to the adaptability
    // issue (on most workloads original ≫ adapted ≈ native).
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let mut art = lab.prepare_app("comd");
    let w = WorkloadRef { app: "comd", input: "" };

    let orig = lab.run(&mut art, &w, Scheme::Original, 16);
    let native = lab.run(&mut art, &w, Scheme::Native, 16);
    let adapted = lab.run(&mut art, &w, Scheme::Adapted, 16);
    let optimized = lab.run(&mut art, &w, Scheme::Optimized, 16);

    assert!(orig > 1.4 * native, "adaptation gap exists: {orig} vs {native}");
    assert!(
        (adapted / native - 1.0).abs() < 0.08,
        "adapted ≈ native: {adapted} vs {native}"
    );
    assert!(optimized < adapted, "LTO+PGO help comd");
}

#[test]
fn adapted_binary_provenance() {
    // The adapted image's binary must show vendor provenance while the
    // original shows the generic one — the actual mechanism, not just the
    // timing.
    let mut lab = Lab::new("aarch64", catalog::MINI_SCALE);
    let art = lab.prepare_app("minimd");

    let orig_fs = comtainer_suite::oci::flatten(
        &art.oci.blobs,
        &art.oci.load_image("minimd.dist").unwrap(),
    )
    .unwrap();
    let orig_bin = comtainer_suite::toolchain::artifact::read_linked(
        &orig_fs.read("/app/minimd").unwrap(),
    )
    .unwrap();
    assert_eq!(orig_bin.opt.toolchain, "gcc-13");
    assert_eq!(orig_bin.target.as_ref().unwrap().march, "armv8-a");
    assert_eq!(orig_bin.opt.opt_level, "2");

    let opt_fs = comtainer_suite::oci::flatten(&art.oci.blobs, &art.adapted).unwrap();
    let opt_bin = comtainer_suite::toolchain::artifact::read_linked(
        &opt_fs.read("/app/minimd").unwrap(),
    )
    .unwrap();
    assert_eq!(opt_bin.opt.toolchain, "vendor-arm");
    assert_eq!(opt_bin.target.as_ref().unwrap().march, "ft2000plus");
    assert_eq!(opt_bin.opt.opt_level, "3");
    // Kernel characteristics survived the round trip through the cache.
    assert_eq!(
        orig_bin.kernel.get("vec_frac"),
        opt_bin.kernel.get("vec_frac")
    );

    // And the adapted image's package stack is the vendor one.
    let recs = comtainer_suite::pkg::detect(&opt_fs).installed(&opt_fs).unwrap();
    let mpich = recs.iter().find(|r| r.name == "mpich").unwrap();
    assert!(mpich.version.contains("vendor"));
    let libc = recs.iter().find(|r| r.name == "libc6").unwrap();
    assert!(libc.version.contains("vendor"), "libo upgraded libc");
}

#[test]
fn registry_transfer_of_extended_image() {
    // The extended image is OCI-compliant: it pushes/pulls through the
    // simulated registry like any other image (paper §4.1: "allowing it to
    // be pushed to OCI-compliant image registries").
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let art = lab.prepare_app("hpccg");
    let ext = art.oci.load_image("hpccg.dist+coM").unwrap();

    let mut registry = comtainer_suite::oci::OciDir::new();
    registry
        .push("hpccg:extended", ext.manifest_digest, &art.oci.blobs)
        .unwrap();

    let mut remote_store = comtainer_suite::oci::BlobStore::new();
    let (digest, _) = registry.pull("hpccg:extended", &mut remote_store).unwrap();
    let pulled = comtainer_suite::oci::Image::load(&remote_store, digest).unwrap();
    let fs = comtainer_suite::oci::flatten(&remote_store, &pulled).unwrap();
    assert!(fs.exists("/.coMtainer/cache/models.json"));
    assert!(fs.exists("/app/hpccg"));
}

#[test]
fn on_disk_oci_layout_roundtrip() {
    // The OCI layout directory written to disk is loadable and intact.
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let art = lab.prepare_app("hpccg");

    let tmp = std::env::temp_dir().join(format!("comt-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    art.oci.save(&tmp).unwrap();
    let back = comtainer_suite::oci::layout::OciDir::load(&tmp).unwrap();
    assert_eq!(back.index.ref_names(), art.oci.index.ref_names());
    let cache = comtainer_suite::core::load_cache(&back, "hpccg.dist+coM").unwrap();
    assert!(!cache.sources.is_empty());
    std::fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn image_lifetime_supports_repeated_rebuilds() {
    // "The rebuilding and redirecting can be performed many times during
    // the image's lifetime" (§4.1) — e.g. re-running PGO when the typical
    // input changes. Optimize the same extended image for two different
    // LAMMPS inputs back to back; both loops must succeed independently.
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let mut art = lab.prepare_app("lammps");

    let chain = WorkloadRef { app: "lammps", input: "chain" };
    let lj = WorkloadRef { app: "lammps", input: "lj" };

    let t_chain = lab.run(&mut art, &chain, Scheme::Optimized, 16);
    let t_lj = lab.run(&mut art, &lj, Scheme::Optimized, 16);
    // Second round did not corrupt the layout: refs still resolve and
    // another adapted run still works.
    let adapted_after = lab.run(&mut art, &chain, Scheme::Adapted, 16);
    assert!(t_chain > 0.0 && t_lj > 0.0 && adapted_after > 0.0);
    assert!(art.oci.index.find_ref("lammps.dist+coM").is_some());
    assert!(art.oci.index.find_ref("lammps.dist+coMre").is_some());

    // The per-input profiles steer opposite outcomes (chain regresses,
    // lj gains) — on the same extended image.
    let adapted_chain = lab.run(&mut art, &chain, Scheme::Adapted, 16);
    let adapted_lj = lab.run(&mut art, &lj, Scheme::Adapted, 16);
    assert!(t_chain > adapted_chain, "chain: PGO backfires");
    assert!(t_lj < adapted_lj, "lj: PGO pays off");
}
