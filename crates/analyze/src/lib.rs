//! `comt-analyze` — the static verifier behind `comt check`.
//!
//! coMtainer's premise is that a recorded build-process model plus the
//! cache layer suffices to rebuild an application on a foreign system.
//! This crate *proves a model safe to replay before the engine spends any
//! compile time*: four passes run over the decoded cache, the adapter
//! chain and the image's layer stack without executing anything.
//!
//! 1. [`hazards`] — write-write / read-write pairs left unordered by the
//!    dependency edges the ready-queue scheduler derives (`COMT-E00x`);
//! 2. [`lints`] — portability and reproducibility lints over the
//!    recorded compiler invocations and sources (`COMT-W00x`);
//! 3. [`layers`] — manifest/diff_id consistency, duplicate entries and
//!    whiteouts shadowing replay inputs (`COMT-E10x`/`COMT-W101`);
//! 4. [`chain`] — adapter-chain soundness: every recorded flag passes
//!    through or is explicitly rewritten (`COMT-W20x`);
//! 5. [`features`] — the `comt audit` ISA-compatibility audit: per-object
//!    effective target configurations folded through the architecture×
//!    feature matrix and checked against declared deployment targets
//!    (`COMT-A00x`).
//!
//! All passes emit [`Diagnostic`]s with stable codes from the
//! [`registry`]; [`CheckReport`] renders them human-readable or as JSON.
//! [`rebuild_checked`] is the `comt rebuild --check` gate: it refuses to
//! replay a model with error-severity findings.

pub mod chain;
pub mod diag;
pub mod features;
pub mod hazards;
pub mod layers;
pub mod lints;
pub mod registry;

pub use diag::{CheckReport, Diagnostic, Severity, Span};
pub use features::{audit_cache_contents, audit_extended_image, AuditReport, TargetVerdict};
pub use registry::{lookup, render_explain, CodeInfo, REGISTRY};

use comtainer::backend::RebuildOptions;
use comtainer::workflow::SystemSide;
use comtainer::{AdapterContext, CacheContents, ComtError, SystemAdapter};
use comt_oci::layout::OciDir;
use comt_toolchain::Toolchain;

/// Run the cache-level passes (hazards, lints, adapter chain) over
/// decoded cache contents. Layer checks need the image and live in
/// [`check_extended_image`].
pub fn check_cache_contents(
    cache: &CacheContents,
    target_isa: &str,
    toolchain: &Toolchain,
    adapters: &[Box<dyn SystemAdapter>],
) -> Vec<Diagnostic> {
    let ctx = AdapterContext {
        isa: target_isa.to_string(),
        toolchain: *toolchain,
    };
    let mut diags = hazards::check_hazards(&cache.trace);
    diags.extend(lints::check_lints(cache, target_isa));
    diags.extend(chain::check_chain(cache, adapters, &ctx));
    diags
}

/// Run all four passes over an extended (`+coM`/`+coMre`) image in an OCI
/// layout. Fails only if the cache layer itself cannot be decoded; every
/// other problem becomes a diagnostic in the report.
pub fn check_extended_image(
    oci: &OciDir,
    image_ref: &str,
    target_isa: &str,
    toolchain: &Toolchain,
    adapters: &[Box<dyn SystemAdapter>],
) -> Result<CheckReport, ComtError> {
    let cache = comtainer::load_cache(oci, image_ref)?;
    let mut diags = check_cache_contents(&cache, target_isa, toolchain, adapters);
    diags.extend(layers::check_layers(oci, image_ref, &cache));
    Ok(CheckReport::new(image_ref, diags))
}

/// [`check_extended_image`] with the verifier configured exactly like a
/// [`SystemSide`] — the same ISA, toolchain and adapter pipeline the
/// rebuild would use.
pub fn check_for_side(
    oci: &OciDir,
    image_ref: &str,
    side: &SystemSide,
) -> Result<CheckReport, ComtError> {
    check_extended_image(oci, image_ref, &side.isa, &side.toolchain, &side.adapters)
}

/// The `comt rebuild --check` gate: verify first, then replay. A model
/// with error-severity findings is refused with a [`ComtError`] carrying
/// the rendered report; warnings do not block.
pub fn rebuild_checked(
    oci: &mut OciDir,
    extended_ref: &str,
    side: &SystemSide,
    opts: &RebuildOptions,
) -> Result<(String, CheckReport), ComtError> {
    let report = check_for_side(oci, extended_ref, side)?;
    if report.has_errors() {
        return Err(ComtError::build(format!(
            "refusing to rebuild {extended_ref}: {} error-severity finding(s)\n{}",
            report.error_count(),
            report.render_human()
        )));
    }
    let new_ref = comtainer::comtainer_rebuild(oci, extended_ref, side, opts)?;
    Ok((new_ref, report))
}

/// The `comt retarget` admission gate: run the ISA-compatibility audit
/// (`COMT-A001`/`COMT-A005`) over the cache for the *whole* requested
/// target set before any engine runs. An unsatisfiable set — an object
/// that no requested target can execute, or a stack whose objects only
/// run on disjoint targets — aborts the entire fan-out before a single
/// compile executes; the error carries the rendered audit so the operator
/// sees exactly which target rejected which object.
pub fn retarget_audited(
    oci: &mut OciDir,
    extended_ref: &str,
    side: &SystemSide,
    targets: &[String],
    opts: &RebuildOptions,
) -> Result<(comtainer::RetargetOutcome, AuditReport), ComtError> {
    // Audit first: it accepts cross-ISA target sets (each foreign target
    // gets its own adapter replay), so an operator mixing ISAs hears about
    // feature-level unsatisfiability (A005) rather than just the
    // single-side restriction validate_targets enforces below.
    let cache = comtainer::load_cache(oci, extended_ref)?;
    let (diags, verdicts) =
        audit_cache_contents(&cache, targets, &side.toolchain, &side.adapters)?;
    let audit = AuditReport {
        report: CheckReport::new(extended_ref, diags),
        verdicts,
    };
    if audit.has_errors() || audit.verdicts.iter().any(|v| !v.pass) {
        let failed: Vec<&str> = audit
            .verdicts
            .iter()
            .filter(|v| !v.pass)
            .map(|v| v.target.as_str())
            .collect();
        return Err(ComtError::build(format!(
            "refusing to retarget {extended_ref}: target set unsatisfiable \
             ({} error-severity finding(s); failing targets: {})\n{}",
            audit.report.error_count(),
            if failed.is_empty() {
                "none".to_string()
            } else {
                failed.join(", ")
            },
            audit.render_human()
        )));
    }
    comtainer::validate_targets(side, targets)?;
    let outcome = comtainer::comtainer_retarget(oci, extended_ref, side, targets, opts)?;
    Ok((outcome, audit))
}
