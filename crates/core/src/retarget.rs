//! `coMtainer-retarget`: one extended image, N deployment targets.
//!
//! The paper's adaptability claim (§1, §4.2) is that one distributed image
//! rebuilds for whatever system it lands on. A site operating a
//! heterogeneous fleet needs the plural form: rebuild the *same* extended
//! image for several ISAs/microarchitectures at once. This module fans the
//! rebuild out over the targets on the engine's own ready-queue scheduler,
//! with every per-target engine sharing one [`ArtifactCache`]:
//!
//! * **source mode** — each target's compile steps get `-march` pinned
//!   ([`crate::RebuildOptions::target`]), so their step keys split per
//!   target while shared inputs (sources, non-compile steps) dedupe;
//! * **IR mode** — the cached IR objects are target-invariant, keyed by
//!   [`crate::engine::ir_step_key`]; only the back-end
//!   ([`crate::engine::object_key`]) replays per target, and a warm
//!   retarget executes zero front-end *and* zero back-end steps.
//!
//! Each target's artifacts are committed as `<base>+coMre@<target>`
//! ([`crate::cache::write_rebuild`]); the merged report carries
//! `retarget.targets` plus per-target `retarget.<counter>.<target>`
//! entries so `comt retarget --stats` shows exactly what each target
//! executed versus reused.

use crate::backend::RebuildOptions;
use crate::cache::{load_cache, write_rebuild};
use crate::engine::{scheduler, RebuildEngine};
use crate::workflow::SystemSide;
use crate::ComtError;
use comt_observe::{Recorder, Report};
use comt_oci::layout::OciDir;
use comt_toolchain::features;

/// The result of one multi-target fan-out.
#[derive(Debug)]
pub struct RetargetOutcome {
    /// `(target, registered ref)` pairs in request order; every ref is
    /// `<base>+coMre@<target>` and loads like any rebuilt image.
    pub images: Vec<(String, String)>,
    /// Merged observability report: fan-out totals plus per-target
    /// `retarget.exec.compile.<t>` / `retarget.exec.recodegen.<t>` /
    /// `retarget.cache.hit.<t>` counters (recorded even when zero, so a
    /// warm run's zeros are visible) and the absorbed engine reports.
    pub report: Report,
}

/// Per-target counters lifted out of each engine report into the merged
/// one, namespaced as `retarget.<counter>.<target>`.
const PER_TARGET_COUNTERS: &[&str] =
    &["exec.compile", "exec.recodegen", "cache.hit", "cache.miss", "retarget.ir_hits"];

/// Check the requested target set against the system side before any
/// engine runs: every target must be known to the feature matrix and
/// belong to the side's ISA. Returns the error for the first bad target.
pub fn validate_targets(side: &SystemSide, targets: &[String]) -> Result<(), ComtError> {
    if targets.is_empty() {
        return Err(ComtError::build(
            "retarget needs at least one --target".into(),
        ));
    }
    let isa = features::normalize_isa(&side.isa);
    let mut seen = std::collections::BTreeSet::new();
    for target in targets {
        if !seen.insert(target.as_str()) {
            return Err(ComtError::build(format!(
                "duplicate target {target}: each target may appear once"
            ))
            .with_artifact(target.clone()));
        }
        match features::target_arch(target) {
            None => {
                return Err(ComtError::build(format!(
                    "unknown target {target}; known targets: {}",
                    features::known_targets().join(", ")
                ))
                .with_artifact(target.clone()));
            }
            Some((target_isa, _)) if target_isa != isa => {
                return Err(ComtError::cross_isa(format!(
                    "target {target} is {target_isa} but the system side is {isa}; \
                     run the fan-out per ISA"
                ))
                .with_artifact(target.clone()));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Run `coMtainer-retarget`: rebuild the extended image `extended_ref`
/// once per entry of `targets`, concurrently, over one shared artifact
/// cache, and register each result as `<base>+coMre@<target>`.
///
/// `opts.target` and `opts.artifact_cache` are per-fan-out concerns and
/// are overridden here; the remaining options (parallelism within each
/// engine, extra files, post-link layout) apply to every target alike.
pub fn comtainer_retarget(
    oci: &mut OciDir,
    extended_ref: &str,
    side: &SystemSide,
    targets: &[String],
    opts: &RebuildOptions,
) -> Result<RetargetOutcome, ComtError> {
    validate_targets(side, targets)?;

    // One decode, one cache: every target rebuilds from the same layer.
    let cache = load_cache(oci, extended_ref)?;
    let shared = opts.artifact_cache.clone().unwrap_or_default();

    // The fan-out is embarrassingly parallel (targets never depend on each
    // other), so it rides the same ready-queue scheduler the replay stage
    // uses — with a flat, edge-free graph, like the collect stage.
    let graph = scheduler::StepGraph::new(vec![Vec::new(); targets.len()]);
    let outcome = scheduler::run(&graph, |idx| {
        let target = &targets[idx];
        let topts = RebuildOptions {
            parallel: opts.parallel,
            extra_files: opts.extra_files.clone(),
            post_link_layout: opts.post_link_layout,
            artifact_cache: Some(std::sync::Arc::clone(&shared)),
            target: Some(target.clone()),
        };
        let engine = RebuildEngine::new(side, &topts);
        let artifacts = engine.run(&cache)?;
        Ok::<_, ComtError>((artifacts, engine.report()))
    });

    let recorder = Recorder::new();
    recorder.count("retarget.targets", targets.len() as u64);
    recorder.count("retarget.workers.max", outcome.workers as u64);
    let mut report = recorder.report();

    // Commit serially (the OCI layout is single-writer) in request order,
    // so ref registration is deterministic regardless of scheduling.
    let mut images = Vec::with_capacity(targets.len());
    for (target, result) in targets.iter().zip(outcome.results) {
        let (artifacts, engine_report) = result.map_err(|e| e.with_artifact(target.clone()))?;
        let new_ref = write_rebuild(oci, extended_ref, Some(target), &artifacts)?;
        for counter in PER_TARGET_COUNTERS {
            // "retarget.ir_hits" lifts to "retarget.ir_hits.<t>", not
            // "retarget.retarget.ir_hits.<t>".
            let stem = counter.trim_start_matches("retarget.");
            report
                .counters
                .entry(format!("retarget.{stem}.{target}"))
                .and_modify(|v| *v += engine_report.counter(counter))
                .or_insert_with(|| engine_report.counter(counter));
        }
        report.absorb(&engine_report);
        images.push((target.clone(), new_ref));
    }
    Ok(RetargetOutcome { images, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comt_pkg::catalog;

    fn side() -> SystemSide {
        SystemSide::native("x86_64", catalog::MINI_SCALE).unwrap()
    }

    #[test]
    fn empty_target_set_is_rejected() {
        let err = validate_targets(&side(), &[]).unwrap_err();
        assert!(err.to_string().contains("at least one"));
    }

    #[test]
    fn unknown_target_names_the_matrix() {
        let err =
            validate_targets(&side(), &["pentium-pro".to_string()]).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("pentium-pro"), "{text}");
        assert!(text.contains("x86-64-v3"), "lists known targets: {text}");
        assert_eq!(err.failure().artifact.as_deref(), Some("pentium-pro"));
    }

    #[test]
    fn cross_isa_target_is_a_typed_error() {
        let err = validate_targets(
            &side(),
            &["x86-64-v2".to_string(), "armv8-a".to_string()],
        )
        .unwrap_err();
        assert!(matches!(err, ComtError::CrossIsa(_)), "{err}");
        assert_eq!(err.failure().artifact.as_deref(), Some("armv8-a"));
    }

    #[test]
    fn duplicate_targets_are_rejected() {
        let err = validate_targets(
            &side(),
            &["x86-64-v2".to_string(), "x86-64-v2".to_string()],
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn mixed_valid_set_passes() {
        let targets: Vec<String> = ["x86-64-v2", "x86-64-v3", "icelake-server"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        validate_targets(&side(), &targets).unwrap();
    }
}
