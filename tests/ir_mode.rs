//! The LLVM-IR distribution alternative (paper §4.6 discussion):
//! "we can use other higher-level IRs, such as LLVM IR as alternatives to
//! source code. But this approach limits package replacement flexibility …
//! Once compiled, the application becomes tightly coupled with specific
//! package versions."
//!
//! These tests exercise the `CacheMode::Ir` pipeline and verify the
//! tradeoff: IR mode still gets toolchain retargeting (`cxxo`) but
//! forfeits package replacement (`libo`), so the source-mode adapted image
//! outruns the IR-mode one.

use comt_bench::Lab;
use comtainer_suite::buildsys::{Builder, Executor};
use comtainer_suite::core::{
    comtainer_build_mode, comtainer_rebuild, comtainer_redirect, CacheMode, RebuildOptions,
};
use comtainer_suite::oci::layout::OciDir;
use comtainer_suite::perfsim::{execute_with_deck, lib_env_from_image};
use comtainer_suite::pkg::catalog;
use comtainer_suite::toolchain::Toolchain;
use comt_workloads::{containerfile, deck, source_tree};

/// Build the minife extended image in the given cache mode and rebuild it
/// on the system side; return the lab, layout, extended ref and rebuilt
/// ref so each test can drive the deployment step it cares about.
fn build_and_rebuild(mode: CacheMode) -> (Lab, OciDir, String, String) {
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

    let side = lab.system_side();
    let re = comtainer_rebuild(&mut oci, &ext, &side, &RebuildOptions::default()).unwrap();
    (lab, oci, ext, re)
}

/// Adapt the minife image in the given cache mode and measure it; return
/// the adapted run time plus the cache contents summary.
fn adapt_with_mode(mode: CacheMode) -> (f64, usize, bool, String) {
    let isa = "x86_64";
    let scale = catalog::MINI_SCALE;
    let (lab, mut oci, ext, re) = build_and_rebuild(mode);

    let cache = comtainer_suite::core::load_cache(&oci, &ext).unwrap();
    let has_sources = cache
        .sources
        .keys()
        .any(|p| p.ends_with(".cc") || p.ends_with(".h"));
    let n_cache_files = cache.sources.len();

    let side = lab.system_side();
    let fs = match mode {
        CacheMode::Source => {
            let opt = comtainer_redirect(&mut oci, &re, &side).unwrap();
            let image = oci.load_image(&opt).unwrap();
            comtainer_suite::oci::flatten(&oci.blobs, &image).unwrap()
        }
        CacheMode::Ir => {
            // The redirect refuses IR-mode package replacement outright
            // (see ir_redirect_refuses_package_replacement), so an
            // IR-mode deployment keeps the original image's pinned
            // package stack and only swaps in the retargeted binaries.
            let artifacts = comtainer_suite::core::cache::load_rebuild(&oci, &re).unwrap();
            let image = oci.load_image("minife.dist").unwrap();
            let mut fs = comtainer_suite::oci::flatten(&oci.blobs, &image).unwrap();
            for (path, content) in &artifacts {
                fs.write_file_p(path, content.clone(), 0o755).unwrap();
            }
            fs
        }
    };
    let bin =
        comtainer_suite::toolchain::artifact::read_linked(&fs.read("/app/minife").unwrap())
            .unwrap();
    let env = lib_env_from_image(
        &fs,
        &[
            &catalog::system_repo_scaled(isa, scale),
            &catalog::generic_repo_scaled(isa, scale),
        ],
    );
    let d = deck("minife", "", isa, 16);
    let seconds = execute_with_deck(&bin, &d, &env, &lab.system, 16).seconds;

    let blas = comtainer_suite::pkg::detect(&fs)
        .installed(&fs)
        .unwrap()
        .into_iter()
        .find(|r| r.name == "libopenblas0")
        .map(|r| r.version)
        .unwrap_or_default();
    (seconds, n_cache_files, has_sources, blas)
}

#[test]
fn ir_mode_trades_libo_for_privacy() {
    let (src_time, src_files, src_has_sources, src_blas) = adapt_with_mode(CacheMode::Source);
    let (ir_time, ir_files, ir_has_sources, ir_blas) = adapt_with_mode(CacheMode::Ir);

    // Source mode ships sources; IR mode ships only .o artifacts.
    assert!(src_has_sources);
    assert!(!ir_has_sources, "no source text in the IR cache");
    assert!(src_files > 0 && ir_files > 0);

    // Source mode gets the vendor BLAS (libo); IR mode stays pinned to
    // the generic build-time version.
    assert!(src_blas.contains("vendor"), "source mode: {src_blas}");
    assert!(!ir_blas.contains("vendor"), "IR mode pinned: {ir_blas}");

    // Both get the toolchain retarget (cxxo)… and therefore IR mode is
    // slower overall, but not catastrophically: the paper's tradeoff.
    assert!(
        ir_time > src_time * 1.03,
        "libo loss shows: src {src_time:.2}s vs ir {ir_time:.2}s"
    );
    assert!(
        ir_time < src_time * 2.0,
        "retargeting still recovered most of the gap: {ir_time:.2} vs {src_time:.2}"
    );
}

#[test]
fn ir_redirect_refuses_package_replacement() {
    // §4.6: the IR-mode binary is ABI-coupled to its build-time package
    // versions. The system repo carries a newer vendor BLAS, so the
    // redirect implies a libo replacement — it must hard-error naming the
    // coupled package instead of silently rebuilding against stale IR.
    let (lab, mut oci, _ext, re) = build_and_rebuild(CacheMode::Ir);
    let side = lab.system_side();
    let err = comtainer_redirect(&mut oci, &re, &side).unwrap_err();
    assert!(
        matches!(err, comtainer_suite::core::ComtError::IrCoupled(_)),
        "expected IrCoupled, got: {err}"
    );
    assert_eq!(err.failure().artifact.as_deref(), Some("libopenblas0"));
    let text = err.to_string();
    assert!(text.starts_with("ir-coupled:"), "{text}");
    assert!(text.contains("libopenblas0"), "{text}");
    // The image was never committed: no +opt ref appeared.
    assert!(oci.index.find_ref("minife.dist+opt").is_none());
}

#[test]
fn ir_mode_binary_is_retargeted() {
    let isa = "x86_64";
    let scale = catalog::MINI_SCALE;
    let mut lab = Lab::new(isa, scale);
    let context = source_tree("hpccg", isa, scale).unwrap();
    let cf = containerfile("hpccg", isa).unwrap();
    let executor = Executor::new(isa, vec![Toolchain::distro_gcc()])
        .with_repo(catalog::generic_repo_scaled(isa, scale));
    let env_image = lab.stock.env.clone();
    let base_image = lab.stock.base.clone();
    let mut builder = Builder::new(&mut lab.store, executor);
    builder.tag("comt:x86-64.env", &env_image);
    builder.tag("comt:x86-64.base", &base_image);
    let result = builder.build("hpccg", &cf, &context).unwrap();

    let mut oci = OciDir::new();
    oci.export("hpccg.dist", result.images["dist"].manifest_digest, &lab.store)
        .unwrap();
    let base_fs = comtainer_suite::oci::flatten(&lab.store, &lab.stock.base).unwrap();
    let ext = comtainer_build_mode(
        &mut oci,
        "hpccg.dist",
        &result.containers["build"],
        &result.traces["build"],
        &base_fs,
        CacheMode::Ir,
    )
    .unwrap();
    let side = lab.system_side();
    let re = comtainer_rebuild(&mut oci, &ext, &side, &RebuildOptions::default()).unwrap();
    let artifacts = comtainer_suite::core::cache::load_rebuild(&oci, &re).unwrap();
    let bin =
        comtainer_suite::toolchain::artifact::read_linked(&artifacts["/app/hpccg"]).unwrap();
    // Re-codegen from IR: vendor toolchain, native march, wider vectors.
    assert_eq!(bin.opt.toolchain, "vendor-x86");
    assert_eq!(bin.target.as_ref().unwrap().march, "icelake-server");
    assert_eq!(bin.opt.vector_width, 8);
    // Symbols and kernel metadata survived from the IR.
    assert!(bin.defined.contains(&"main".to_string()));
    assert!(bin.kernel.get("vec_frac") > 0.0);
}
