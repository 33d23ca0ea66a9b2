//! # coMtainer — compilation-assisted HPC container images
//!
//! Reproduction of the SC '25 paper's core contribution: a framework that
//! embeds build-time data into container images so that remote HPC systems
//! can *rebuild* and *redirect* them with their native toolchains and
//! libraries, resolving the adaptability issue while keeping the
//! distributed image generic.
//!
//! The crate follows the paper's three-phase toolset architecture (§4.2):
//!
//! * **Process models** ([`models`]) — the IR: the *image model* (file
//!   origins and package dependencies), the *build graph model* (a typed
//!   DAG of every data transformation recorded during the build) and the
//!   *compilation models* (parsed compiler command lines).
//! * **Front-end** ([`frontend`]) — runs on the user side inside the build
//!   container: parses the raw build trace and the exported `dist` OCI
//!   image into process models, collects sources from the build
//!   environment, and writes everything into the **cache layer**
//!   ([`cache`]), producing the *extended image* (`<ref>+coM`).
//! * **Engine** ([`engine`]) — the instrumented rebuild pipeline: a staged
//!   [`engine::RebuildEngine`] threads a shared [`engine::EngineCtx`]
//!   (system identity, toolchain, adapter chain, stats recorder) through
//!   materialize → adapt → replay → collect, schedules independent compile
//!   steps on a ready-queue over the build DAG, and consults a
//!   content-addressed [`engine::ArtifactCache`] so warm rebuilds skip
//!   already-adapted compile steps entirely.
//! * **Back-end** ([`backend`], [`redirect`]) — the system-side entry
//!   points over the engine: produce the *rebuild layer* (`<ref>+coMre`),
//!   then set up a redirect container on the `Rebase` image, install the
//!   (optimized) runtime dependencies and commit the fully adapted image.
//! * **System adapters** ([`adapters`]) — the pluggable transformation
//!   passes: native-toolchain retargeting, LLVM substitution, LTO, PGO.
//!   Each adapter exposes a [`SystemAdapter::fingerprint`] feeding the
//!   artifact-cache key.
//! * **Workflow** ([`workflow`]) — the `coMtainer-build` /
//!   `coMtainer-rebuild` / `coMtainer-redirect` entry points mirroring the
//!   buildah command sequences of §4.1, plus a one-call full pipeline.
//! * **Cross-ISA** ([`crossisa`]) — the §5.5 exploration: feasibility
//!   analysis of an extended image against a different ISA and the
//!   build-script porting cost accounting of Figure 11.
//! * **Stock images** ([`images`]) — the `Base`, `Env`, `Sysenv` and
//!   `Rebase` images that anchor the workflow.

#![forbid(unsafe_code)]

pub mod adapters;
pub mod backend;
pub mod cache;
pub mod crossisa;
pub mod engine;
pub mod frontend;
pub mod images;
pub mod minify;
pub mod models;
pub mod redirect;
pub mod retarget;
pub mod workflow;

pub use adapters::{
    site_adapters, AdapterContext, LlvmAdapter, LtoAdapter, LtoScope, NativeToolchainAdapter,
    PgoAdapter, SystemAdapter,
};
pub use backend::{rebuild_artifacts, RebuildOptions};
pub use cache::{load_cache, CacheContents};
pub use engine::{
    ArtifactCache, BuildService, EngineCtx, JobSpec, JobState, JobStatus, RebuildEngine,
    ServiceOptions,
};
pub use frontend::analyze;
pub use images::StockImages;
pub use models::{
    BuildGraph, CacheMode, CompilationModel, FileOrigin, ImageModel, NodeId, NodeKind,
    ProcessModels,
};
#[doc(inline)]
pub use redirect::redirect;
pub use retarget::{comtainer_retarget, validate_targets, RetargetOutcome};
pub use workflow::{
    check_isa, comtainer_build, comtainer_build_mode, comtainer_rebuild,
    comtainer_rebuild_with_report, comtainer_redirect, SystemSide,
};

/// Pipeline phase in which a failure occurred (error context).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Frontend,
    Materialize,
    Adapt,
    Replay,
    Collect,
    Redirect,
    Storage,
    /// Registry transfer (push/pull, in-process or over the wire).
    Distribute,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Phase::Frontend => "frontend",
            Phase::Materialize => "materialize",
            Phase::Adapt => "adapt",
            Phase::Replay => "replay",
            Phase::Collect => "collect",
            Phase::Redirect => "redirect",
            Phase::Storage => "storage",
            Phase::Distribute => "distribute",
        };
        f.write_str(s)
    }
}

/// The payload every [`ComtError`] variant carries: what went wrong plus
/// where in the pipeline it happened.
#[derive(Debug)]
pub struct Failure {
    /// Human-readable description of the failure.
    pub detail: String,
    /// Pipeline phase, when known.
    pub phase: Option<Phase>,
    /// The replayed step (command line) that failed, when applicable.
    pub step: Option<String>,
    /// The artifact (image path) involved, when applicable.
    pub artifact: Option<String>,
    /// Underlying error, preserved for [`std::error::Error::source`].
    pub source: Option<Box<dyn std::error::Error + Send + Sync + 'static>>,
}

impl Failure {
    fn new(detail: String) -> Self {
        Failure {
            detail,
            phase: None,
            step: None,
            artifact: None,
            source: None,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.detail)?;
        if let Some(phase) = &self.phase {
            write!(f, " [phase: {phase}]")?;
        }
        if let Some(step) = &self.step {
            write!(f, " [step: {step}]")?;
        }
        if let Some(artifact) = &self.artifact {
            write!(f, " [artifact: {artifact}]")?;
        }
        Ok(())
    }
}

/// Errors across the coMtainer pipeline. Each variant carries a
/// [`Failure`] with the detail plus optional phase / step / artifact
/// context and a chained source error.
#[derive(Debug)]
pub enum ComtError {
    /// OCI-level failure.
    Oci(Failure),
    /// Filesystem failure.
    Fs(Failure),
    /// Build/compile failure during rebuild.
    Build(Failure),
    /// Cache layer missing or malformed.
    Cache(Failure),
    /// Package resolution failure during redirect.
    Pkg(Failure),
    /// Cross-ISA rebuild blocked.
    CrossIsa(Failure),
    /// IR-mode cache is ABI-coupled to a build-time package the redirect
    /// would replace (§4.6: IR caching forfeits `libo`). The coupled
    /// package is named in the detail and carried as the artifact.
    IrCoupled(Failure),
}

impl ComtError {
    pub fn oci(detail: String) -> Self {
        ComtError::Oci(Failure::new(detail))
    }

    pub fn fs(detail: String) -> Self {
        ComtError::Fs(Failure::new(detail))
    }

    pub fn build(detail: String) -> Self {
        ComtError::Build(Failure::new(detail))
    }

    pub fn cache(detail: String) -> Self {
        ComtError::Cache(Failure::new(detail))
    }

    pub fn pkg(detail: String) -> Self {
        ComtError::Pkg(Failure::new(detail))
    }

    pub fn cross_isa(detail: String) -> Self {
        ComtError::CrossIsa(Failure::new(detail))
    }

    pub fn ir_coupled(detail: String) -> Self {
        ComtError::IrCoupled(Failure::new(detail))
    }

    /// The failure payload, regardless of variant.
    pub fn failure(&self) -> &Failure {
        match self {
            ComtError::Oci(f)
            | ComtError::Fs(f)
            | ComtError::Build(f)
            | ComtError::Cache(f)
            | ComtError::Pkg(f)
            | ComtError::CrossIsa(f)
            | ComtError::IrCoupled(f) => f,
        }
    }

    fn failure_mut(&mut self) -> &mut Failure {
        match self {
            ComtError::Oci(f)
            | ComtError::Fs(f)
            | ComtError::Build(f)
            | ComtError::Cache(f)
            | ComtError::Pkg(f)
            | ComtError::CrossIsa(f)
            | ComtError::IrCoupled(f) => f,
        }
    }

    /// Attach the pipeline phase (kept if already set by a deeper layer).
    pub fn with_phase(mut self, phase: Phase) -> Self {
        let f = self.failure_mut();
        f.phase.get_or_insert(phase);
        self
    }

    /// Attach the failing step's command line.
    pub fn with_step(mut self, step: impl Into<String>) -> Self {
        let f = self.failure_mut();
        f.step.get_or_insert_with(|| step.into());
        self
    }

    /// Attach the artifact (image path) involved.
    pub fn with_artifact(mut self, artifact: impl Into<String>) -> Self {
        let f = self.failure_mut();
        f.artifact.get_or_insert_with(|| artifact.into());
        self
    }

    /// Chain the underlying error for `source()`.
    pub fn with_source(
        mut self,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> Self {
        self.failure_mut().source = Some(Box::new(source));
        self
    }
}

impl std::fmt::Display for ComtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let class = match self {
            ComtError::Oci(_) => "oci",
            ComtError::Fs(_) => "fs",
            ComtError::Build(_) => "build",
            ComtError::Cache(_) => "cache",
            ComtError::Pkg(_) => "pkg",
            ComtError::CrossIsa(_) => "cross-isa",
            ComtError::IrCoupled(_) => "ir-coupled",
        };
        write!(f, "{class}: {}", self.failure())
    }
}

impl std::error::Error for ComtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.failure()
            .source
            .as_deref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// Registry failures surface as OCI errors in the distribute phase with
/// the transport-level cause chained for `source()` — so `--stats` and
/// error output can show *why* a transfer failed, matching the PR 1
/// error-context convention.
impl From<comt_oci::StoreError> for ComtError {
    fn from(e: comt_oci::StoreError) -> Self {
        ComtError::oci(format!("registry transfer failed: {e}"))
            .with_phase(Phase::Distribute)
            .with_source(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_context_renders_and_chains() {
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err = ComtError::build("replay failed".into())
            .with_phase(Phase::Replay)
            .with_step("gcc -c a.c")
            .with_artifact("/app/run")
            .with_source(inner);
        let text = err.to_string();
        assert!(text.starts_with("build: replay failed"), "{text}");
        assert!(text.contains("[phase: replay]"), "{text}");
        assert!(text.contains("[step: gcc -c a.c]"), "{text}");
        assert!(text.contains("[artifact: /app/run]"), "{text}");
        let src = std::error::Error::source(&err).expect("source chained");
        assert_eq!(src.to_string(), "gone");
    }

    #[test]
    fn registry_error_chains_into_comt_error() {
        let reg_err = comt_oci::StoreError::DigestMismatch("sha256:abcd".into());
        let cause = reg_err.to_string();
        let err: ComtError = reg_err.into();
        assert!(matches!(err, ComtError::Oci(_)));
        assert_eq!(err.failure().phase, Some(Phase::Distribute));
        let text = err.to_string();
        assert!(text.contains("[phase: distribute]"), "{text}");
        // The transport-level cause is reachable through source().
        let src = std::error::Error::source(&err).expect("source chained");
        assert_eq!(src.to_string(), cause);
    }

    #[test]
    fn first_context_wins() {
        let err = ComtError::cache("missing".into())
            .with_phase(Phase::Frontend)
            .with_phase(Phase::Redirect);
        assert_eq!(err.failure().phase, Some(Phase::Frontend));
        assert!(matches!(err, ComtError::Cache(_)));
    }
}
