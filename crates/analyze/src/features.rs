//! Pass 5: ISA-compatibility audit over the architecture×feature matrix
//! (`comt audit`).
//!
//! For every recorded compile step the pass folds the *effective* target
//! configuration — `-march`/`-mcpu`/`-mtune`/`-m<feature>` flags, left to
//! right, through the recorded invocation **and** through the adapter-chain
//! rewrites — into a [`TargetConfig`] (see
//! [`comt_toolchain::features::fold_invocation`]), then checks the
//! resulting per-object feature sets against one or more declared
//! deployment targets:
//!
//! * `COMT-A001` — an object requires a feature the target lacks;
//! * `COMT-A002` — the adapter chain silently downgrades a requested
//!   feature;
//! * `COMT-A003` — conflicting feature flags within one invocation
//!   (last-one-wins ambiguity);
//! * `COMT-A004` — mixed-feature objects linked into one artifact (the
//!   binary's floor is the max of its objects);
//! * `COMT-A005` — the layer stack mixes objects audited for disjoint
//!   targets: no single declared target runs the whole image.
//!
//! The audit is pure static analysis: nothing is compiled, the adapter
//! chain runs over *copies* of the compilation models exactly like the
//! [`chain`](crate::chain) pass.

use crate::diag::{CheckReport, Diagnostic, Span};
use comtainer::{AdapterContext, CacheContents, CompilationModel, ComtError, SystemAdapter};
use comt_oci::layout::OciDir;
use comt_toolchain::features::{
    apply_events, arch_features, known_targets, normalize_isa, target_arch, FeatureSet,
    TargetConfig,
};
use comt_toolchain::{CompilerInvocation, DriverMode, Toolchain};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Codes this pass emits, with their severities — mirrored into the
/// registry the way `comt_oci::fsck::FSCK_CODES` is.
pub const AUDIT_CODES: &[(&str, &str)] = &[
    ("COMT-A001", "error"),
    ("COMT-A002", "warning"),
    ("COMT-A003", "error"),
    ("COMT-A004", "warning"),
    ("COMT-A005", "error"),
];

/// One audited compile step: the recorded and the adapter-effective target
/// configuration of the object it produces.
#[derive(Debug, Clone)]
pub struct ObjectAudit {
    pub step: usize,
    pub command: String,
    /// Absolute output path of the object, when derivable.
    pub output: Option<String>,
    pub recorded: TargetConfig,
    pub effective: TargetConfig,
}

/// Per-target verdict row of an [`AuditReport`].
#[derive(Debug, Clone, Serialize)]
pub struct TargetVerdict {
    pub target: String,
    pub isa: String,
    pub objects_checked: usize,
    pub incompatible_objects: usize,
    pub pass: bool,
}

/// The result of one `comt audit` run: the findings plus one verdict per
/// declared deployment target.
#[derive(Debug, Clone)]
pub struct AuditReport {
    pub report: CheckReport,
    pub verdicts: Vec<TargetVerdict>,
}

impl AuditReport {
    pub fn has_errors(&self) -> bool {
        self.report.has_errors()
    }

    /// Human rendering: the findings followed by the per-target verdict
    /// table.
    pub fn render_human(&self) -> String {
        let mut out = self.report.render_human();
        out.push_str("deployment targets:\n");
        out.push_str(&format!(
            "  {:<18} {:<8} {:>7} {:>12}  verdict\n",
            "target", "isa", "objects", "incompatible"
        ));
        for v in &self.verdicts {
            out.push_str(&format!(
                "  {:<18} {:<8} {:>7} {:>12}  {}\n",
                v.target,
                v.isa,
                v.objects_checked,
                v.incompatible_objects,
                if v.pass { "PASS" } else { "FAIL" }
            ));
        }
        out
    }

    /// Structured JSON rendering (one object per report).
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Wire {
            target: String,
            errors: usize,
            warnings: usize,
            verdicts: Vec<TargetVerdict>,
            diagnostics: Vec<Diagnostic>,
        }
        serde_json::to_string_pretty(&Wire {
            target: self.report.target.clone(),
            errors: self.report.error_count(),
            warnings: self.report.warning_count(),
            verdicts: self.verdicts.clone(),
            diagnostics: self.report.diagnostics.clone(),
        })
        .unwrap_or_else(|_| "{}".to_string())
    }
}

fn join_cwd(cwd: &str, path: &str) -> String {
    if path.starts_with('/') {
        path.to_string()
    } else {
        format!("{}/{}", cwd.trim_end_matches('/'), path)
    }
}

/// Fold every toolchain-claimed compile step under `fold_isa`: recorded
/// configuration from the raw argv, effective configuration after running
/// the adapter chain (with the same ISA in its context) over a copy.
fn collect_objects(
    cache: &CacheContents,
    fold_isa: &str,
    toolchain: &Toolchain,
    adapters: &[Box<dyn SystemAdapter>],
) -> Vec<ObjectAudit> {
    let ctx = AdapterContext {
        isa: fold_isa.to_string(),
        toolchain: *toolchain,
    };
    let mut objects = Vec::new();
    for (idx, cmd) in cache.trace.commands.iter().enumerate() {
        let Ok(recorded_inv) = CompilerInvocation::parse(&cmd.argv) else {
            continue; // the chain pass reports unparseable toolchain steps
        };
        if recorded_inv.mode() != DriverMode::Compile {
            continue;
        }
        let mut model = CompilationModel::classify(&cmd.argv, &cmd.cwd, &cmd.env, &cmd.inputs);
        if !model.is_compilation() {
            continue;
        }
        comtainer::adapters::apply_adapters(&mut model, adapters, &ctx);
        let Some(adapted_inv) = model.invocation() else {
            continue;
        };
        let output = adapted_inv
            .output()
            .map(|o| join_cwd(&cmd.cwd, o))
            .or_else(|| cmd.outputs.iter().find(|p| p.ends_with(".o")).cloned());
        objects.push(ObjectAudit {
            step: idx,
            command: cmd.argv.join(" "),
            output,
            recorded: comt_toolchain::features::fold_invocation(fold_isa, &recorded_inv),
            effective: comt_toolchain::features::fold_invocation(fold_isa, &adapted_inv),
        });
    }
    objects
}

/// The feature set an object needs from a deployment target. A `native`
/// base re-resolves on the target itself, so only the explicit toggles on
/// top of the target's own features can exceed it.
fn required_for_target(cfg: &TargetConfig, target_set: &FeatureSet) -> FeatureSet {
    if cfg.native {
        apply_events(target_set, &cfg.requested)
    } else {
        cfg.enabled.clone()
    }
}

/// Why an object cannot run on a target, if it cannot.
fn object_incompatibility(cfg: &TargetConfig, t_isa: &str, t_set: &FeatureSet) -> Option<String> {
    // A `-march` the fold could not resolve under the target's ISA but the
    // matrix knows under another ISA: the object explicitly targets a
    // different architecture.
    if let Some(m) = &cfg.unknown_march {
        if let Some((m_isa, _)) = target_arch(m) {
            if m_isa != t_isa {
                return Some(format!(
                    "the object is built for -march={m} ({m_isa}), not {t_isa}"
                ));
            }
        }
    }
    let required = required_for_target(cfg, t_set);
    let missing: Vec<&str> = required.difference(t_set).copied().collect();
    if missing.is_empty() {
        None
    } else {
        Some(format!(
            "the object requires {{{}}} which the target lacks",
            missing.join(", ")
        ))
    }
}

fn object_label(obj: &ObjectAudit) -> &str {
    obj.output.as_deref().unwrap_or("<object>")
}

/// Run the audit over decoded cache contents against the declared
/// deployment targets. Fails only on an unknown target name; every
/// compatibility problem becomes a diagnostic.
pub fn audit_cache_contents(
    cache: &CacheContents,
    targets: &[String],
    toolchain: &Toolchain,
    adapters: &[Box<dyn SystemAdapter>],
) -> Result<(Vec<Diagnostic>, Vec<TargetVerdict>), ComtError> {
    let mut resolved = Vec::new();
    for t in targets {
        let (isa, set) = target_arch(t).ok_or_else(|| {
            ComtError::build(format!(
                "unknown deployment target {t}; known targets: {}",
                known_targets().join(", ")
            ))
        })?;
        resolved.push((t.clone(), isa, set));
    }

    let home_isa = normalize_isa(&cache.models.isa).to_string();
    let home_objects = collect_objects(cache, &home_isa, toolchain, adapters);
    let mut diags = Vec::new();

    // A003: conflicting feature flags within one recorded invocation.
    for obj in &home_objects {
        let mut seen = BTreeSet::new();
        for c in &obj.recorded.conflicts {
            if seen.insert((c.first.clone(), c.second.clone())) {
                diags.push(
                    Diagnostic::new(
                        "COMT-A003",
                        format!(
                            "{} and {} conflict within one invocation: the effective \
                             feature set depends on flag order",
                            c.first, c.second
                        ),
                        Span::step(obj.step, &obj.command),
                    )
                    .with_hint("drop one of the flags so the request is unambiguous".to_string()),
                );
            }
        }
    }

    // A002: the adapter chain downgrades a feature the recorded command
    // explicitly requested (a flag, or the base of a known -march). A
    // native effective base re-resolves on the deployment host, so only
    // explicit flags count against it.
    for obj in &home_objects {
        let mut requested = obj.recorded.explicit_enables();
        if !obj.effective.native && !obj.recorded.native {
            if let Some(m) = &obj.recorded.march {
                if let Some(base) = arch_features(&home_isa, m) {
                    requested.extend(base);
                }
            }
        }
        let missing: Vec<&str> = requested
            .difference(&obj.effective.enabled)
            .copied()
            .collect();
        if !missing.is_empty() {
            diags.push(
                Diagnostic::new(
                    "COMT-A002",
                    format!(
                        "the adapter chain downgrades {{{}}} requested by the recorded \
                         command",
                        missing.join(", ")
                    ),
                    Span::step(obj.step, &obj.command),
                )
                .with_hint(
                    "check the adapter pipeline order, or declare a weaker feature in the \
                     build script"
                        .to_string(),
                ),
            );
        }
    }

    // A004: one link step pulling in objects with differing feature
    // requirements — the binary's floor is the union (max) of its objects.
    let by_output: BTreeMap<&str, &ObjectAudit> = home_objects
        .iter()
        .filter_map(|o| o.output.as_deref().map(|p| (p, o)))
        .collect();
    for (idx, cmd) in cache.trace.commands.iter().enumerate() {
        let Ok(inv) = CompilerInvocation::parse(&cmd.argv) else {
            continue;
        };
        if inv.mode() != DriverMode::Link {
            continue;
        }
        let mut linked: Vec<&ObjectAudit> = Vec::new();
        let mut paths: BTreeSet<String> = cmd.inputs.iter().cloned().collect();
        for (path, kind) in inv.inputs() {
            if kind == comt_toolchain::InputKind::Object {
                paths.insert(join_cwd(&cmd.cwd, path));
            }
        }
        for p in &paths {
            if let Some(obj) = by_output.get(p.as_str()) {
                linked.push(obj);
            }
        }
        let distinct: BTreeSet<&FeatureSet> = linked.iter().map(|o| &o.effective.enabled).collect();
        if distinct.len() > 1 {
            let floor: FeatureSet = linked
                .iter()
                .flat_map(|o| o.effective.enabled.iter().copied())
                .collect();
            let members = linked
                .iter()
                .map(|o| object_label(o))
                .collect::<Vec<_>>()
                .join(", ");
            diags.push(
                Diagnostic::new(
                    "COMT-A004",
                    format!(
                        "links objects with differing feature requirements ({members}); \
                         the binary's floor is the max of its objects: {{{}}}",
                        floor.iter().copied().collect::<Vec<_>>().join(", ")
                    ),
                    Span::step(idx, &cmd.argv.join(" ")),
                )
                .with_hint(
                    "compile every object of one artifact with the same machine flags"
                        .to_string(),
                ),
            );
        }
    }

    // A001 + verdicts, per declared target. Targets of a foreign ISA get
    // their own adapter replay: the chain retargets for that ISA exactly
    // as a rebuild on such a system side would.
    let mut foreign: BTreeMap<&str, Vec<ObjectAudit>> = BTreeMap::new();
    let mut verdicts = Vec::new();
    let mut compatible_targets: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (t_idx, (t_name, t_isa, t_set)) in resolved.iter().enumerate() {
        let objects: &[ObjectAudit] = if *t_isa == home_isa {
            &home_objects
        } else {
            foreign
                .entry(t_isa)
                .or_insert_with(|| collect_objects(cache, t_isa, toolchain, adapters))
        };
        let mut incompatible = 0usize;
        for obj in objects {
            match object_incompatibility(&obj.effective, t_isa, t_set) {
                Some(reason) => {
                    incompatible += 1;
                    diags.push(
                        Diagnostic::new(
                            "COMT-A001",
                            format!("{} cannot run on target {t_name}: {reason}", object_label(obj)),
                            Span::step(obj.step, &obj.command),
                        )
                        .with_hint(format!(
                            "retarget the step at or below {t_name}, or declare a target \
                             that has the features"
                        )),
                    );
                }
                None => {
                    compatible_targets.entry(obj.step).or_default().insert(t_idx);
                }
            }
        }
        verdicts.push(TargetVerdict {
            target: t_name.clone(),
            isa: t_isa.to_string(),
            objects_checked: objects.len(),
            incompatible_objects: incompatible,
            pass: incompatible == 0,
        });
    }

    // A005: every object runs somewhere, but no single declared target
    // runs them all — the image serves no one fleet.
    if resolved.len() >= 2 && !compatible_targets.is_empty() {
        let every_object_runs = home_objects
            .iter()
            .all(|o| compatible_targets.get(&o.step).is_some_and(|s| !s.is_empty()));
        let mut common: Option<BTreeSet<usize>> = None;
        for set in compatible_targets.values() {
            common = Some(match common {
                None => set.clone(),
                Some(acc) => acc.intersection(set).copied().collect(),
            });
        }
        if every_object_runs && common.is_some_and(|c| c.is_empty()) {
            diags.push(
                Diagnostic::new(
                    "COMT-A005",
                    format!(
                        "the layer stack mixes objects audited for disjoint targets: each \
                         object passes some declared target ({}), but no single target \
                         passes them all",
                        resolved
                            .iter()
                            .map(|(t, _, _)| t.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    Span::default(),
                )
                .with_hint(
                    "split the image per target, or rebuild the outlier objects for a \
                     common level"
                        .to_string(),
                ),
            );
        }
    }

    Ok((diags, verdicts))
}

/// Run `comt audit` over an extended (`+coM`/`+coMre`) image in an OCI
/// layout. `targets` overrides the layout's declared `targets` list; at
/// least one of the two must be non-empty.
pub fn audit_extended_image(
    oci: &OciDir,
    image_ref: &str,
    targets: &[String],
    toolchain: &Toolchain,
    adapters: &[Box<dyn SystemAdapter>],
) -> Result<AuditReport, ComtError> {
    let cache = comtainer::load_cache(oci, image_ref)?;
    let targets: Vec<String> = if targets.is_empty() {
        cache.models.targets.clone()
    } else {
        targets.to_vec()
    };
    if targets.is_empty() {
        return Err(ComtError::build(format!(
            "no deployment targets declared for {image_ref}: pass --target, or record a \
             targets list in the layout"
        )));
    }
    let (diags, verdicts) = audit_cache_contents(&cache, &targets, toolchain, adapters)?;
    Ok(AuditReport {
        report: CheckReport::new(image_ref, diags),
        verdicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comtainer::models::{BuildGraph, ImageModel, ProcessModels};
    use comtainer::NativeToolchainAdapter;
    use comt_buildsys::{BuildTrace, RawCommand};
    use comt_toolchain::OptionCategory;
    use std::collections::BTreeMap;

    fn cache_with(cmds: &[&str]) -> CacheContents {
        CacheContents {
            models: ProcessModels {
                image: ImageModel::default(),
                graph: BuildGraph::new(),
                isa: "x86_64".into(),
                cache_mode: Default::default(),
                targets: vec![],
            },
            trace: BuildTrace {
                commands: cmds
                    .iter()
                    .map(|c| RawCommand {
                        argv: c.split_whitespace().map(String::from).collect(),
                        cwd: "/src".into(),
                        env: vec![],
                        inputs: vec![],
                        outputs: vec![],
                    })
                    .collect(),
            },
            sources: BTreeMap::new(),
            digests: Default::default(),
        }
    }

    fn audit(
        cache: &CacheContents,
        targets: &[&str],
        adapters: &[Box<dyn SystemAdapter>],
    ) -> (Vec<Diagnostic>, Vec<TargetVerdict>) {
        let targets: Vec<String> = targets.iter().map(|t| t.to_string()).collect();
        audit_cache_contents(cache, &targets, &Toolchain::vendor_x86(), adapters).unwrap()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn avx512_object_fails_v2_passes_v4() {
        let cache = cache_with(&["gcc -O2 -mavx512f -c kern.c -o kern.o"]);
        let (diags, verdicts) = audit(&cache, &["x86-64-v2"], &[]);
        assert_eq!(codes(&diags), vec!["COMT-A001"]);
        assert!(diags[0].message.contains("avx512f"));
        assert!(!verdicts[0].pass);
        assert_eq!(verdicts[0].incompatible_objects, 1);

        let (diags, verdicts) = audit(&cache, &["x86-64-v4"], &[]);
        assert!(diags.is_empty());
        assert!(verdicts[0].pass);
        assert_eq!(verdicts[0].objects_checked, 1);
    }

    #[test]
    fn march_exceeding_the_target_is_a001() {
        let cache = cache_with(&["gcc -O2 -march=x86-64-v3 -c a.c -o a.o"]);
        let (diags, _) = audit(&cache, &["x86-64-v2"], &[]);
        assert_eq!(codes(&diags), vec!["COMT-A001"]);
        let (diags, _) = audit(&cache, &["x86-64-v3"], &[]);
        assert!(diags.is_empty());
    }

    #[test]
    fn native_resolves_to_the_declared_target() {
        // -march=native re-resolves on the deployment host, so a native
        // object is compatible with any target of its ISA — the
        // NativeToolchainAdapter keeps the audit quiet, not noisy.
        let cache = cache_with(&["gcc -O3 -march=native -c a.c -o a.o"]);
        let adapters: Vec<Box<dyn SystemAdapter>> = vec![Box::new(NativeToolchainAdapter)];
        let (diags, verdicts) = audit(&cache, &["x86-64-v2"], &adapters);
        assert!(codes(&diags).is_empty());
        assert!(verdicts[0].pass);
        // …but explicit flags on top of native still floor the target.
        let cache = cache_with(&["gcc -O3 -march=native -mavx512f -c a.c -o a.o"]);
        let (diags, _) = audit(&cache, &["x86-64-v2"], &adapters);
        assert_eq!(codes(&diags), vec!["COMT-A001"]);
    }

    #[test]
    fn adapter_downgrade_is_a002() {
        struct StripMachine;
        impl SystemAdapter for StripMachine {
            fn name(&self) -> &str {
                "strip-machine"
            }
            fn transform(&self, model: &mut CompilationModel, _ctx: &AdapterContext) {
                if let Some(mut inv) = model.invocation() {
                    inv.remove_category(OptionCategory::Machine);
                    model.set_argv(inv.to_argv());
                }
            }
        }
        let cache = cache_with(&["gcc -O2 -mavx512f -c a.c -o a.o"]);
        let adapters: Vec<Box<dyn SystemAdapter>> = vec![Box::new(StripMachine)];
        let (diags, _) = audit(&cache, &["x86-64-v4"], &adapters);
        assert!(codes(&diags).contains(&"COMT-A002"), "{:?}", codes(&diags));
        assert!(diags
            .iter()
            .any(|d| d.code == "COMT-A002" && d.message.contains("avx512f")));
    }

    #[test]
    fn conflicting_flags_are_a003() {
        let cache = cache_with(&["gcc -mavx2 -mno-avx2 -c a.c -o a.o"]);
        let (diags, _) = audit(&cache, &["x86-64-v3"], &[]);
        assert!(codes(&diags).contains(&"COMT-A003"));
        let a3 = diags.iter().find(|d| d.code == "COMT-A003").unwrap();
        assert!(a3.message.contains("-mavx2") && a3.message.contains("-mno-avx2"));
    }

    #[test]
    fn mixed_link_is_a004() {
        let cache = cache_with(&[
            "gcc -O2 -mavx512f -c hot.c -o hot.o",
            "gcc -O2 -c cold.c -o cold.o",
            "gcc hot.o cold.o -o app",
        ]);
        let (diags, _) = audit(&cache, &["x86-64-v4"], &[]);
        assert_eq!(codes(&diags), vec!["COMT-A004"]);
        assert!(diags[0].message.contains("avx512f"));
        // Uniform objects link quietly.
        let cache = cache_with(&[
            "gcc -O2 -c hot.c -o hot.o",
            "gcc -O2 -c cold.c -o cold.o",
            "gcc hot.o cold.o -o app",
        ]);
        let (diags, _) = audit(&cache, &["x86-64-v4"], &[]);
        assert!(diags.is_empty());
    }

    #[test]
    fn disjoint_targets_are_a005() {
        // One object pinned to an x86 level, one to an AArch64 tier: each
        // passes one declared target, none passes both.
        let cache = cache_with(&[
            "gcc -O2 -march=x86-64-v2 -c x.c -o x.o",
            "gcc -O2 -march=armv8.2-a -c a.c -o a.o",
        ]);
        let (diags, verdicts) = audit(&cache, &["x86-64-v2", "armv8.2-a"], &[]);
        assert!(codes(&diags).contains(&"COMT-A005"), "{:?}", codes(&diags));
        assert!(verdicts.iter().all(|v| !v.pass));
    }

    #[test]
    fn unknown_target_is_an_error() {
        let cache = cache_with(&["gcc -O2 -c a.c -o a.o"]);
        let err = audit_cache_contents(
            &cache,
            &["warp-drive".to_string()],
            &Toolchain::vendor_x86(),
            &[],
        )
        .unwrap_err();
        assert!(err.to_string().contains("warp-drive"));
    }

    #[test]
    fn cross_isa_target_replays_adapters_for_that_isa() {
        // A plain portable compile passes an AArch64 tier: the per-target
        // replay folds under aarch64 and the default base is armv8-a.
        let cache = cache_with(&["gcc -O2 -c a.c -o a.o"]);
        let (diags, verdicts) = audit(&cache, &["armv8.2-a"], &[]);
        assert!(diags.is_empty());
        assert!(verdicts[0].pass);
        // An x86 feature flag does not.
        let cache = cache_with(&["gcc -O2 -mavx2 -c a.c -o a.o"]);
        let (diags, _) = audit(&cache, &["armv8.2-a"], &[]);
        assert_eq!(codes(&diags), vec!["COMT-A001"]);
    }

    #[test]
    fn audit_codes_match_emissions() {
        // Every code in the mirror table is audit-prefixed and the table
        // stays in sync with what the pass can emit.
        let names: Vec<&str> = AUDIT_CODES.iter().map(|(c, _)| *c).collect();
        assert_eq!(
            names,
            vec!["COMT-A001", "COMT-A002", "COMT-A003", "COMT-A004", "COMT-A005"]
        );
    }
}
