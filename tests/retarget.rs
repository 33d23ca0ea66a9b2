//! `comt retarget`: the audit-gated multi-ISA fan-out. One extended image
//! rebuilds for N microarchitectures concurrently over one shared artifact
//! cache — the paper's adaptability claim (§4.2), pluralized for a
//! heterogeneous fleet — with the ISA-compatibility audit (COMT-A001/A005)
//! gating admission so an unsatisfiable target set never spends a compile.

use bytes::Bytes;
use comt_bench::Lab;
use comtainer_suite::buildsys::{Builder, Executor};
use comtainer_suite::core::cache::{load_rebuild, write_cache};
use comtainer_suite::core::models::{BuildGraph, FileOrigin, ImageModel, ProcessModels};
use comtainer_suite::core::{
    comtainer_build_mode, comtainer_rebuild, comtainer_redirect, comtainer_retarget, load_cache,
    ArtifactCache, CacheMode, RebuildOptions, SystemSide,
};
use comtainer_suite::oci::layout::OciDir;
use comtainer_suite::pkg::catalog;
use comtainer_suite::toolchain::Toolchain;
use comt_workloads::{containerfile, source_tree};
use std::collections::BTreeMap;

fn side() -> SystemSide {
    SystemSide::native("x86_64", catalog::MINI_SCALE).unwrap()
}

/// Build the minife extended image in the given cache mode; return the lab,
/// layout and extended ref, ready for a fan-out.
fn build_extended(mode: CacheMode) -> (Lab, OciDir, String) {
    let isa = "x86_64";
    let scale = catalog::MINI_SCALE;
    let mut lab = Lab::new(isa, scale);

    let context = source_tree("minife", isa, scale).unwrap();
    let cf = containerfile("minife", isa).unwrap();
    let executor = Executor::new(isa, vec![Toolchain::distro_gcc()])
        .with_repo(catalog::generic_repo_scaled(isa, scale));
    let env_image = lab.stock.env.clone();
    let base_image = lab.stock.base.clone();
    let mut builder = Builder::new(&mut lab.store, executor);
    builder.tag("comt:x86-64.env", &env_image);
    builder.tag("comt:x86-64.base", &base_image);
    let result = builder.build("minife", &cf, &context).unwrap();

    let mut oci = OciDir::new();
    oci.export(
        "minife.dist",
        result.images["dist"].manifest_digest,
        &lab.store,
    )
    .unwrap();
    let base_fs = comtainer_suite::oci::flatten(&lab.store, &lab.stock.base).unwrap();
    let ext = comtainer_build_mode(
        &mut oci,
        "minife.dist",
        &result.containers["build"],
        &result.traces["build"],
        &base_fs,
        mode,
    )
    .unwrap();
    (lab, oci, ext)
}

fn targets(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

#[test]
fn unsatisfiable_target_set_aborts_before_any_build() {
    // One object explicitly requires an x86 feature (avx2), another an
    // AArch64 one (neon): each passes one of the requested targets, no
    // single target passes both — COMT-A005, the ISSUE's mutually-
    // unsatisfiable set. The gate must refuse before any engine runs.
    let mut store = comtainer_suite::oci::BlobStore::new();
    let mut dist_fs = comtainer_suite::vfs::Vfs::new();
    dist_fs
        .write_file_p("/app/run", Bytes::from_static(b"BIN"), 0o755)
        .unwrap();
    let img = comtainer_suite::oci::ImageBuilder::from_scratch("x86_64")
        .with_layer_from_fs(&comtainer_suite::vfs::Vfs::new(), &dist_fs)
        .commit(&mut store)
        .unwrap();
    let mut oci = OciDir::new();
    oci.export("app.dist", img.manifest_digest, &store).unwrap();

    let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let trace = comtainer_suite::buildsys::BuildTrace {
        commands: vec![
            comtainer_suite::buildsys::RawCommand {
                argv: argv("gcc -O2 -mavx2 -c x.c -o x.o"),
                cwd: "/src".into(),
                env: vec![],
                inputs: vec![],
                outputs: vec![],
            },
            comtainer_suite::buildsys::RawCommand {
                argv: argv("gcc -O2 -mneon -c a.c -o a.o"),
                cwd: "/src".into(),
                env: vec![],
                inputs: vec![],
                outputs: vec![],
            },
        ],
    };
    let models = ProcessModels {
        image: ImageModel::default(),
        graph: BuildGraph::new(),
        isa: "x86_64".into(),
        cache_mode: Default::default(),
        targets: vec![],
    };
    write_cache(&mut oci, "app.dist", &models, &trace, &BTreeMap::new()).unwrap();

    let err = comtainer_suite::analyze::retarget_audited(
        &mut oci,
        "app.dist+coM",
        &side(),
        &targets(&["x86-64-v4", "armv8-a"]),
        &RebuildOptions::default(),
    )
    .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("COMT-A005"), "{text}");
    assert!(text.contains("unsatisfiable"), "{text}");
    // Aborted before any build: no per-target rebuilt ref ever appeared.
    assert!(
        oci.index.ref_names().iter().all(|r| !r.contains("+coMre@")),
        "{:?}",
        oci.index.ref_names()
    );
}

#[test]
fn clean_fanout_produces_per_target_images() {
    let (_lab, mut oci, ext) = build_extended(CacheMode::Source);
    let side = side();
    // minife carries an explicit -mavx2 step, so x86-64-v2 would (rightly)
    // fail the admission audit; fan out over the AVX2-capable tiers.
    let wanted = targets(&["x86-64-v3", "x86-64-v4", "icelake-server"]);
    let (outcome, audit) = comtainer_suite::analyze::retarget_audited(
        &mut oci,
        &ext,
        &side,
        &wanted,
        &RebuildOptions::default(),
    )
    .unwrap();
    assert!(!audit.has_errors());
    assert_eq!(outcome.report.counter("retarget.targets"), 3);

    // One registered image per target, named <base>+coMre@<target>.
    assert_eq!(outcome.images.len(), 3);
    let mut per_target: Vec<(String, BTreeMap<String, Bytes>)> = Vec::new();
    for (target, new_ref) in &outcome.images {
        assert_eq!(new_ref, &format!("minife.dist+coMre@{target}"));
        assert!(oci.index.find_ref(new_ref).is_some(), "{new_ref} registered");
        per_target.push((target.clone(), load_rebuild(&oci, new_ref).unwrap()));
    }

    // Every target rebuilt the same artifact set…
    let paths: Vec<Vec<&String>> = per_target
        .iter()
        .map(|(_, a)| a.keys().collect())
        .collect();
    assert!(paths.windows(2).all(|w| w[0] == w[1]), "same artifact sets");

    // …and the images differ only in target-dependent objects: each
    // binary carries its own march, while the symbol surface (the
    // target-invariant half) is identical across the fan-out.
    let mut defined = Vec::new();
    for (target, artifacts) in &per_target {
        let bin = comtainer_suite::toolchain::artifact::read_linked(&artifacts["/app/minife"])
            .unwrap();
        assert_eq!(
            bin.target.as_ref().unwrap().march.as_str(),
            target.as_str(),
            "binary pinned to its fan-out target"
        );
        defined.push(bin.defined.clone());
    }
    assert!(defined.windows(2).all(|w| w[0] == w[1]));
    // Distinct targets produced distinct bytes (the per-target split is
    // real, not three copies of one rebuild).
    let bins: Vec<&Bytes> = per_target.iter().map(|(_, a)| &a["/app/minife"]).collect();
    assert!(bins[0] != bins[1] && bins[1] != bins[2]);
}

#[test]
fn warm_fanout_over_shared_cache_executes_zero_compiles() {
    let (_lab, mut oci, ext) = build_extended(CacheMode::Source);
    let side = side();
    let wanted = targets(&["x86-64-v2", "x86-64-v3"]);
    let shared = ArtifactCache::new();
    let opts = RebuildOptions {
        artifact_cache: Some(std::sync::Arc::clone(&shared)),
        ..Default::default()
    };

    let cold = comtainer_retarget(&mut oci, &ext, &side, &wanted, &opts).unwrap();
    for t in &wanted {
        assert!(
            cold.report.counter(&format!("retarget.exec.compile.{t}")) > 0,
            "cold run compiles for {t}"
        );
    }

    let warm = comtainer_retarget(&mut oci, &ext, &side, &wanted, &opts).unwrap();
    for t in &wanted {
        assert_eq!(
            warm.report.counter(&format!("retarget.exec.compile.{t}")),
            0,
            "warm run reuses every step for {t}"
        );
        assert!(warm.report.counter(&format!("retarget.cache.hit.{t}")) > 0);
    }
    // Identical artifacts either way (⇒ identical layer digests).
    for (target, new_ref) in &warm.images {
        let a = load_rebuild(&oci, new_ref).unwrap();
        let b = load_rebuild(
            &oci,
            cold.images
                .iter()
                .find(|(t, _)| t == target)
                .map(|(_, r)| r.as_str())
                .unwrap(),
        )
        .unwrap();
        assert_eq!(a, b);
    }
}

#[test]
fn ir_mode_retarget_skips_frontend_and_warm_runs_skip_backend() {
    // IR-mode cache: the front-end never runs during a retarget (the IR
    // objects ship in the cache layer), and with the split IR/object keys
    // a warm fan-out skips the back-end too.
    let (_lab, mut oci, ext) = build_extended(CacheMode::Ir);
    let side = side();
    let wanted = targets(&["x86-64-v2", "icelake-server"]);
    let shared = ArtifactCache::new();
    let opts = RebuildOptions {
        artifact_cache: Some(std::sync::Arc::clone(&shared)),
        ..Default::default()
    };

    let cold = comtainer_retarget(&mut oci, &ext, &side, &wanted, &opts).unwrap();
    // Zero front-end executions in IR mode — ever.
    assert_eq!(cold.report.counter("exec.compile"), 0);
    for t in &wanted {
        assert!(cold.report.counter(&format!("retarget.exec.recodegen.{t}")) > 0);
        assert_eq!(cold.report.counter(&format!("retarget.ir_hits.{t}")), 0);
    }

    let warm = comtainer_retarget(&mut oci, &ext, &side, &wanted, &opts).unwrap();
    assert_eq!(warm.report.counter("exec.compile"), 0);
    for t in &wanted {
        assert_eq!(
            warm.report.counter(&format!("retarget.exec.recodegen.{t}")),
            0,
            "warm IR retarget executes zero back-end steps for {t}"
        );
    }
    assert!(warm.report.counter("retarget.ir_hits") > 0);

    // Each target's binary really is retargeted off the shared IR.
    for (target, new_ref) in &warm.images {
        let artifacts = load_rebuild(&oci, new_ref).unwrap();
        let bin = comtainer_suite::toolchain::artifact::read_linked(&artifacts["/app/minife"])
            .unwrap();
        assert_eq!(bin.target.as_ref().unwrap().march.as_str(), target.as_str());
    }
}

#[test]
fn redirecting_each_retarget_registers_its_own_optimized_image() {
    let (_lab, mut oci, ext) = build_extended(CacheMode::Source);
    let side = side();
    let opts = RebuildOptions::default();
    let wanted = targets(&["x86-64-v3", "x86-64-v4"]);
    let fan = comtainer_retarget(&mut oci, &ext, &side, &wanted, &opts).unwrap();
    let rebuilt = comtainer_rebuild(&mut oci, &ext, &side, &opts).unwrap();

    // The files redirect carries verbatim from the dist image.
    let models = load_cache(&oci, &ext).unwrap().models;
    let carried_paths: Vec<&String> = models
        .image
        .files
        .iter()
        .filter(|(_, origin)| matches!(origin, FileOrigin::Data | FileOrigin::Unknown))
        .map(|(path, _)| path)
        .collect();
    assert!(!carried_paths.is_empty(), "minife carries data files");
    let redirect = |oci: &mut OciDir, rebuilt_ref: &str| {
        let opt_ref = comtainer_redirect(oci, rebuilt_ref, &side).unwrap();
        let image = oci.load_image(&opt_ref).unwrap();
        let fs = comtainer_suite::oci::flatten(&oci.blobs, &image).unwrap();
        let carried: BTreeMap<String, _> = carried_paths
            .iter()
            .map(|path| (path.to_string(), fs.lstat(path).cloned()))
            .collect();
        let origin = image.manifest.annotations["comtainer.origin"].clone();
        let bin =
            comtainer_suite::toolchain::artifact::read_linked(&fs.read("/app/minife").unwrap())
                .unwrap();
        (opt_ref, origin, carried, bin)
    };

    let (plain_ref, plain_origin, plain_carried, _) = redirect(&mut oci, &rebuilt);
    assert_eq!(plain_ref, "minife.dist+opt");
    assert_eq!(plain_origin, "minife.dist");
    assert!(plain_carried.values().all(Option::is_some));

    let mut opt_refs = Vec::new();
    for (target, retarget_ref) in &fan.images {
        let (opt_ref, origin, carried, bin) = redirect(&mut oci, retarget_ref);
        assert_eq!(opt_ref, format!("minife.dist+opt@{target}"));
        assert_eq!(origin, "minife.dist", "{opt_ref} names the dist image");
        assert_eq!(
            carried, plain_carried,
            "{opt_ref} carries the dist image's data"
        );
        assert_eq!(bin.target.as_ref().unwrap().march.as_str(), target.as_str());
        opt_refs.push(opt_ref);
    }
    assert_ne!(opt_refs[0], opt_refs[1]);
    // Each redirect registered a ref of its own; the plain one stands.
    assert!(oci.index.find_ref("minife.dist+opt").is_some());
}
