//! The coMtainer workflow entry points (§4.1).
//!
//! The three commands mirror the paper's buildah sequences:
//!
//! ```text
//! user side:    buildah run xxx.build -- coMtainer-build
//! system side:  buildah run xxx.rebuild -- coMtainer-rebuild
//!               buildah run xxx.redirect -- coMtainer-redirect
//! ```
//!
//! with the OCI layout directory (`xxx.dist.oci`) mounted at
//! `/.coMtainer/io` playing the role of the shared medium — here an
//! [`OciDir`] value passed by reference.

use crate::backend::RebuildOptions;
use crate::cache::{load_cache, write_cache, write_rebuild};
use crate::engine::RebuildEngine;
use crate::frontend::AnalysisInputs;
use crate::images::{add_dev_stack, add_vendor_libraries, base_rootfs};
use crate::{ComtError, Phase, SystemAdapter};
use comt_buildsys::{BuildTrace, Container};
use comt_oci::layout::OciDir;
use comt_pkg::catalog;
use comt_toolchain::{features, Toolchain};
use comt_vfs::Vfs;

/// Everything the system side brings to rebuild/redirect: its identity,
/// software stack, native toolchain, stock rootfs and adapter pipeline.
pub struct SystemSide {
    pub isa: String,
    /// The system's package repositories (distro overlaid with vendor).
    pub repo: comt_pkg::Repository,
    /// The system's native toolchain.
    pub toolchain: Toolchain,
    /// Adapter pipeline applied to every compilation model.
    pub adapters: Vec<Box<dyn SystemAdapter>>,
    /// Flattened Sysenv rootfs (rebuild containers start here).
    pub sysenv_fs: Vfs,
    /// Flattened Rebase rootfs (redirect containers start here).
    pub rebase_fs: Vfs,
}

/// Refuse an ISA outside the architecture×feature matrix's canonical tags
/// ([`features::ISAS`]); aliases such as `arm64` are refused too. A system
/// side names one of them, and so does every buildd job and the `--isa`
/// of every command that builds a side (`rebuild`, `adapt`, `redirect`,
/// `retarget`).
pub fn check_isa(isa: &str) -> Result<(), ComtError> {
    if features::ISAS.contains(&isa) {
        return Ok(());
    }
    Err(ComtError::cross_isa(format!(
        "unknown ISA {isa:?}: expected one of {}",
        features::ISAS.join(", ")
    ))
    .with_phase(Phase::Frontend))
}

impl SystemSide {
    /// A native system side for an ISA: vendor toolchain + system repo +
    /// the [`crate::NativeToolchainAdapter`], at the given payload scale.
    /// Fails on an ISA [`check_isa`] refuses.
    pub fn native(isa: &str, scale: f64) -> Result<Self, ComtError> {
        check_isa(isa)?;
        let mut sysenv_fs = base_rootfs(isa, scale)?;
        // Sysenv = base + dev stack + system toolchains (same recipe as
        // the stock image, rebuilt here directly as a rootfs).
        let materialize = |e: ComtError| e.with_phase(Phase::Materialize);
        add_dev_stack(&mut sysenv_fs, isa, scale).map_err(materialize)?;
        let repo = catalog::system_repo_scaled(isa, scale);
        add_vendor_libraries(&mut sysenv_fs, &repo).map_err(materialize)?;

        let vendor = Toolchain::vendor_for(isa);
        for name in vendor.drivers().chain(Toolchain::llvm().drivers()) {
            sysenv_fs
                .write_file_p(
                    &format!("/usr/bin/{name}"),
                    catalog::synth_bytes(&format!("tc:{name}:{isa}"), 64),
                    0o755,
                )
                .map_err(|e| {
                    ComtError::fs(e.to_string())
                        .with_phase(Phase::Materialize)
                        .with_artifact(format!("/usr/bin/{name}"))
                })?;
        }

        let rebase_fs = base_rootfs(isa, scale)?;
        Ok(SystemSide {
            isa: isa.to_string(),
            repo,
            toolchain: vendor,
            adapters: crate::site_adapters(false),
            sysenv_fs,
            rebase_fs,
        })
    }

    /// Add an adapter to the pipeline (builder style).
    pub fn with_adapter(mut self, adapter: Box<dyn SystemAdapter>) -> Self {
        self.adapters.push(adapter);
        self
    }
}

/// `coMtainer-build` (user side): analyze the build container + trace,
/// attach the cache layer, register `<dist_ref>+coM`. Returns the new ref.
pub fn comtainer_build(
    oci: &mut OciDir,
    dist_ref: &str,
    build_container: &Container,
    trace: &BuildTrace,
    base_fs: &Vfs,
) -> Result<String, ComtError> {
    comtainer_build_mode(
        oci,
        dist_ref,
        build_container,
        trace,
        base_fs,
        crate::models::CacheMode::Source,
    )
}

/// `coMtainer-build` with an explicit cache mode — `CacheMode::Ir` ships
/// compiled IR objects instead of sources (paper §4.6's alternative
/// distribution level, trading package-replacement freedom for source
/// privacy).
pub fn comtainer_build_mode(
    oci: &mut OciDir,
    dist_ref: &str,
    build_container: &Container,
    trace: &BuildTrace,
    base_fs: &Vfs,
    mode: crate::models::CacheMode,
) -> Result<String, ComtError> {
    let dist_image = oci
        .load_image(dist_ref)
        .map_err(|e| ComtError::oci(e.to_string()).with_phase(Phase::Frontend))?;
    let dist_fs = comt_oci::flatten(&oci.blobs, &dist_image)
        .map_err(|e| ComtError::oci(e.to_string()).with_phase(Phase::Frontend))?;
    let analysis = crate::frontend::analyze_mode(
        &AnalysisInputs {
            build_fs: &build_container.fs,
            trace,
            dist_fs: &dist_fs,
            base_fs,
            isa: &build_container.isa,
        },
        mode,
    )?;
    let _span = comt_observe::global().span("cache.write");
    write_cache(oci, dist_ref, &analysis.models, trace, &analysis.cache_files)
}

/// `coMtainer-rebuild` (system side). Returns the `+coMre` ref.
pub fn comtainer_rebuild(
    oci: &mut OciDir,
    extended_ref: &str,
    side: &SystemSide,
    opts: &RebuildOptions,
) -> Result<String, ComtError> {
    comtainer_rebuild_with_report(oci, extended_ref, side, opts)
        .map(|(rebuilt_ref, _)| rebuilt_ref)
}

/// [`comtainer_rebuild`], additionally returning the engine's
/// observability report (stage spans, cache hit/miss counters, scheduler
/// stats): load the cache layer, run the engine, register `+coMre`. Backs
/// `comt rebuild --stats` and the bench harness.
pub fn comtainer_rebuild_with_report(
    oci: &mut OciDir,
    extended_ref: &str,
    side: &SystemSide,
    opts: &RebuildOptions,
) -> Result<(String, comt_observe::Report), ComtError> {
    let cache = load_cache(oci, extended_ref)?;
    let engine = RebuildEngine::new(side, opts);
    let artifacts = engine.run(&cache)?;
    let rebuilt_ref = write_rebuild(oci, extended_ref, None, &artifacts)?;
    Ok((rebuilt_ref, engine.report()))
}

/// `coMtainer-redirect` (system side). Returns the `+opt` ref.
pub fn comtainer_redirect(
    oci: &mut OciDir,
    rebuilt_ref: &str,
    side: &SystemSide,
) -> Result<String, ComtError> {
    crate::redirect::redirect(oci, rebuilt_ref, side)
}
