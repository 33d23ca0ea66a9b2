//! Architecture×feature matrix — the queryable table behind `comt audit`.
//!
//! The paper's adaptability story assumes someone knows which ISA features a
//! deployment fleet actually has; this module is that knowledge, modeled on
//! the gccarch idea: a real table mapping micro-architecture levels
//! (`x86-64-v1..v4`, AArch64 `armv8.x` tiers, concrete CPU names) to the
//! feature sets they guarantee, plus `implied_by` / `conflicts_with` edges
//! between individual feature flags.
//!
//! It is the repo's one machine vocabulary: no other module lists `-march`
//! names or `-m` flag spellings. Its consumers:
//!
//! * [`arch_features`] / [`target_arch`] answer "what does `-march=X` (or a
//!   declared deployment target) guarantee?" — used by the audit pass and by
//!   the multi-ISA fan-out.
//! * [`fold_invocation`] performs the flow-sensitive left-to-right fold of a
//!   parsed [`CompilerInvocation`]'s machine flags (`-march=`/`-mcpu=` reset
//!   the base, `-m<feature>`/`-mno-<feature>` refine it, implications are
//!   closed at every step) into a [`TargetConfig`] — the *effective* target
//!   configuration of one compile step.
//! * [`flag_isa`] names the ISA a flag spelling belongs to: the simulated
//!   compiler rejects a foreign one, and the cross-ISA port, its
//!   feasibility report and lint W004 drop or flag exactly those.
//! * [`vector_width`] reads the codegen width of a `-march` from the table,
//!   and [`ISAS`] is what a system side may be built for.

use crate::invocation::{Arg, CompilerInvocation};
use crate::options::OptionCategory;
use std::collections::BTreeSet;

/// A set of ISA feature names (entries of the [`FEATURES`] table).
pub type FeatureSet = BTreeSet<&'static str>;

/// One row of the feature table.
#[derive(Debug, Clone, Copy)]
pub struct FeatureInfo {
    /// Canonical feature name as spelled in `-m<name>` (x86) or a `+<name>`
    /// march suffix (AArch64).
    pub name: &'static str,
    /// The ISA the feature belongs to (`x86_64` or `aarch64`).
    pub isa: &'static str,
    /// Features this one directly implies (enabling `avx2` enables `avx`).
    pub implies: &'static [&'static str],
}

/// Every feature the matrix knows about. Implication edges are direct; use
/// [`implied_by`] for the edge list and the closure helpers for transitive
/// queries.
pub const FEATURES: &[FeatureInfo] = &[
    // x86-64 SIMD ladder.
    FeatureInfo { name: "sse2", isa: "x86_64", implies: &[] },
    FeatureInfo { name: "sse3", isa: "x86_64", implies: &["sse2"] },
    FeatureInfo { name: "ssse3", isa: "x86_64", implies: &["sse3"] },
    FeatureInfo { name: "sse4.1", isa: "x86_64", implies: &["ssse3"] },
    FeatureInfo { name: "sse4.2", isa: "x86_64", implies: &["sse4.1"] },
    FeatureInfo { name: "avx", isa: "x86_64", implies: &["sse4.2"] },
    FeatureInfo { name: "avx2", isa: "x86_64", implies: &["avx"] },
    FeatureInfo { name: "avx512f", isa: "x86_64", implies: &["avx2"] },
    FeatureInfo { name: "avx512cd", isa: "x86_64", implies: &["avx512f"] },
    FeatureInfo { name: "avx512bw", isa: "x86_64", implies: &["avx512f"] },
    FeatureInfo { name: "avx512dq", isa: "x86_64", implies: &["avx512f"] },
    FeatureInfo { name: "avx512vl", isa: "x86_64", implies: &["avx512f"] },
    // x86-64 scalar/bit-manipulation extensions.
    FeatureInfo { name: "fma", isa: "x86_64", implies: &["avx"] },
    FeatureInfo { name: "f16c", isa: "x86_64", implies: &["avx"] },
    FeatureInfo { name: "popcnt", isa: "x86_64", implies: &[] },
    FeatureInfo { name: "bmi1", isa: "x86_64", implies: &[] },
    FeatureInfo { name: "bmi2", isa: "x86_64", implies: &[] },
    FeatureInfo { name: "lzcnt", isa: "x86_64", implies: &[] },
    FeatureInfo { name: "movbe", isa: "x86_64", implies: &[] },
    // ABI width (the `-m32`/`-m64` pair; mutually exclusive).
    FeatureInfo { name: "abi32", isa: "x86_64", implies: &[] },
    FeatureInfo { name: "abi64", isa: "x86_64", implies: &[] },
    // AArch64.
    FeatureInfo { name: "neon", isa: "aarch64", implies: &[] },
    FeatureInfo { name: "lse", isa: "aarch64", implies: &[] },
    FeatureInfo { name: "fp16", isa: "aarch64", implies: &["neon"] },
    FeatureInfo { name: "dotprod", isa: "aarch64", implies: &["neon"] },
    FeatureInfo { name: "crypto", isa: "aarch64", implies: &["neon"] },
    FeatureInfo { name: "sve", isa: "aarch64", implies: &["neon"] },
    FeatureInfo { name: "sve2", isa: "aarch64", implies: &["sve"] },
];

/// Explicitly conflicting feature pairs (beyond the implicit cross-ISA
/// conflicts). Order within a pair is irrelevant.
pub const CONFLICT_PAIRS: &[(&str, &str)] = &[("abi32", "abi64")];

// Shared per-tier feature lists (pre-closure). The x86-64-vN levels are the
// psABI micro-architecture levels; CPU names map onto the level they sit in.
const X86_V1: &[&str] = &["sse2"];
const X86_V2: &[&str] = &["sse4.2", "popcnt"];
const X86_V3: &[&str] = &[
    "sse4.2", "popcnt", "avx2", "bmi1", "bmi2", "f16c", "fma", "lzcnt", "movbe",
];
const X86_V4: &[&str] = &[
    "sse4.2", "popcnt", "avx2", "bmi1", "bmi2", "f16c", "fma", "lzcnt", "movbe", "avx512f",
    "avx512bw", "avx512cd", "avx512dq", "avx512vl",
];
const ARM_V8: &[&str] = &["neon"];
const ARM_V8_1: &[&str] = &["neon", "lse"];
const ARM_V8_2: &[&str] = &["neon", "lse", "fp16"];
const ARM_V8_4: &[&str] = &["neon", "lse", "fp16", "dotprod"];

/// One row of the architecture table: a `-march=` value (or deployment
/// target name), the features it guarantees and the vector width the
/// simulated codegen gives it.
#[derive(Debug, Clone, Copy)]
pub struct ArchEntry {
    pub name: &'static str,
    pub isa: &'static str,
    /// Guaranteed features, pre-closure ([`arch_features`] closes them).
    pub features: &'static [&'static str],
    /// f64 SIMD lanes of code generated for this `-march` ([`vector_width`]).
    /// A model value, not a hardware fact: it is baked into object bytes
    /// and the paper-figure goldens, which is why `x86-64-v4`, `skylake`
    /// and `neoverse-v1` read 2.
    pub lanes: u32,
}

/// The two ISAs the table covers, in their canonical spelling.
pub const ISAS: &[&str] = &["x86_64", "aarch64"];

/// The architecture table. Micro-architecture levels first, then the CPU
/// names the workload catalog and adapters actually emit. It is the one
/// list of `-march` names: the compiler's foreign-flag rejection, the
/// cross-ISA port, lint W004 and the vector width all read it.
pub const ARCHES: &[ArchEntry] = &[
    ArchEntry { name: "x86-64", isa: "x86_64", features: X86_V1, lanes: 2 },
    ArchEntry { name: "x86-64-v1", isa: "x86_64", features: X86_V1, lanes: 2 },
    ArchEntry { name: "x86-64-v2", isa: "x86_64", features: X86_V2, lanes: 2 },
    ArchEntry { name: "x86-64-v3", isa: "x86_64", features: X86_V3, lanes: 4 },
    ArchEntry { name: "x86-64-v4", isa: "x86_64", features: X86_V4, lanes: 2 },
    ArchEntry { name: "nehalem", isa: "x86_64", features: X86_V2, lanes: 2 },
    ArchEntry { name: "westmere", isa: "x86_64", features: X86_V2, lanes: 2 },
    ArchEntry { name: "haswell", isa: "x86_64", features: X86_V3, lanes: 4 },
    ArchEntry { name: "skylake", isa: "x86_64", features: X86_V3, lanes: 2 },
    ArchEntry { name: "znver3", isa: "x86_64", features: X86_V3, lanes: 4 },
    ArchEntry { name: "alderlake", isa: "x86_64", features: X86_V3, lanes: 4 },
    ArchEntry { name: "skylake-avx512", isa: "x86_64", features: X86_V4, lanes: 8 },
    ArchEntry { name: "icelake-server", isa: "x86_64", features: X86_V4, lanes: 8 },
    ArchEntry { name: "sapphirerapids", isa: "x86_64", features: X86_V4, lanes: 8 },
    ArchEntry { name: "znver4", isa: "x86_64", features: X86_V4, lanes: 8 },
    ArchEntry { name: "armv8-a", isa: "aarch64", features: ARM_V8, lanes: 2 },
    ArchEntry { name: "armv8.1-a", isa: "aarch64", features: ARM_V8_1, lanes: 2 },
    ArchEntry { name: "armv8.2-a", isa: "aarch64", features: ARM_V8_2, lanes: 2 },
    ArchEntry { name: "armv8.3-a", isa: "aarch64", features: ARM_V8_2, lanes: 2 },
    ArchEntry { name: "armv8.4-a", isa: "aarch64", features: ARM_V8_4, lanes: 2 },
    ArchEntry { name: "armv8.5-a", isa: "aarch64", features: ARM_V8_4, lanes: 2 },
    // The FT-2000+ vendor toolchain fills both ASIMD pipes.
    ArchEntry { name: "ft2000plus", isa: "aarch64", features: ARM_V8, lanes: 3 },
    ArchEntry { name: "neoverse-n1", isa: "aarch64", features: ARM_V8_2, lanes: 2 },
    ArchEntry {
        name: "a64fx",
        isa: "aarch64",
        features: &["neon", "lse", "fp16", "sve"],
        lanes: 8,
    },
    ArchEntry {
        name: "neoverse-v1",
        isa: "aarch64",
        features: &["neon", "lse", "fp16", "dotprod", "sve"],
        lanes: 2,
    },
];

/// Normalize the ISA spellings used across the repo (`x86_64`, `x86-64`,
/// `amd64` / `aarch64`, `arm64`) to the two canonical tags.
pub fn normalize_isa(isa: &str) -> &str {
    match isa {
        "x86_64" | "x86-64" | "amd64" => "x86_64",
        "aarch64" | "arm64" => "aarch64",
        other => other,
    }
}

/// The implicit `-march` base when a command line carries none.
pub fn default_march(isa: &str) -> Option<&'static str> {
    match normalize_isa(isa) {
        "x86_64" => Some("x86-64"),
        "aarch64" => Some("armv8-a"),
        _ => None,
    }
}

fn feature_info(name: &str) -> Option<&'static FeatureInfo> {
    FEATURES.iter().find(|f| f.name == name)
}

/// The ISA a feature belongs to, if known.
pub fn feature_isa(name: &str) -> Option<&'static str> {
    feature_info(name).map(|f| f.isa)
}

/// Direct implication edges of a feature (`implied_by("avx2") == ["avx"]`).
pub fn implied_by(name: &str) -> &'static [&'static str] {
    feature_info(name).map(|f| f.implies).unwrap_or(&[])
}

/// A feature plus everything it transitively implies.
pub fn feature_closure(name: &str) -> FeatureSet {
    let mut out = FeatureSet::new();
    let mut stack = vec![name];
    while let Some(f) = stack.pop() {
        if let Some(info) = feature_info(f) {
            if out.insert(info.name) {
                stack.extend(info.implies);
            }
        }
    }
    out
}

fn close(features: &mut FeatureSet) {
    let seeds: Vec<&'static str> = features.iter().copied().collect();
    for f in seeds {
        features.extend(feature_closure(f));
    }
}

/// Whether two features cannot coexist in one effective configuration:
/// either an explicit [`CONFLICT_PAIRS`] edge, or the features belong to
/// different ISAs.
pub fn conflicts_with(a: &str, b: &str) -> bool {
    if a == b {
        return false;
    }
    if CONFLICT_PAIRS
        .iter()
        .any(|(x, y)| (*x == a && *y == b) || (*x == b && *y == a))
    {
        return true;
    }
    match (feature_isa(a), feature_isa(b)) {
        (Some(ia), Some(ib)) => ia != ib,
        _ => false,
    }
}

/// The implication-closed feature set guaranteed by `-march=<march>` on
/// `isa`. AArch64 `+ext` / `+noext` suffixes (`armv8.2-a+sve`) are folded
/// in. `None` when the arch name is unknown or belongs to a different ISA.
///
/// x86-64 entries always include both ABI-width features — a 64-bit CPU
/// runs 32-bit objects, so ABI width never causes a target mismatch on its
/// own (only an intra-invocation `-m32`/`-m64` conflict).
pub fn arch_features(isa: &str, march: &str) -> Option<FeatureSet> {
    let isa = normalize_isa(isa);
    let mut parts = march.split('+');
    let base = parts.next().unwrap_or(march);
    let entry = ARCHES.iter().find(|e| e.name == base && e.isa == isa)?;
    let mut set: FeatureSet = entry.features.iter().copied().collect();
    for ext in parts {
        // GCC spells NEON as `simd` in march suffixes.
        fn alias(name: &str) -> &str {
            if name == "simd" {
                "neon"
            } else {
                name
            }
        }
        let (name, enable) = match ext.strip_prefix("no") {
            Some(rest) if feature_info(alias(rest)).is_some() => (alias(rest), false),
            _ => (alias(ext), true),
        };
        let info = feature_info(name)?;
        if enable {
            set.insert(info.name);
        } else {
            set.remove(info.name);
        }
    }
    close(&mut set);
    if isa == "x86_64" {
        set.insert("abi32");
        set.insert("abi64");
    }
    Some(set)
}

/// Resolve a declared deployment target name (`x86-64-v2`, `armv8.2-a+sve`,
/// a CPU name) to its ISA and implication-closed feature set.
pub fn target_arch(target: &str) -> Option<(&'static str, FeatureSet)> {
    let base = target.split('+').next().unwrap_or(target);
    let entry = ARCHES.iter().find(|e| e.name == base)?;
    arch_features(entry.isa, target).map(|set| (entry.isa, set))
}

/// Every target name the matrix accepts (for CLI error messages).
pub fn known_targets() -> Vec<&'static str> {
    ARCHES.iter().map(|e| e.name).collect()
}

/// Map a parsed machine-flag token (`mavx512f`, `mno-avx`, `m32`) to the
/// feature it toggles. Valued machine options (`march=`, `mtune=`,
/// `mprefer-vector-width=`) and unknown `-m` flags return `None`.
pub fn flag_feature(token: &str) -> Option<(&'static str, bool)> {
    if token.contains('=') {
        return None;
    }
    match token {
        "m32" => return Some(("abi32", true)),
        "m64" => return Some(("abi64", true)),
        _ => {}
    }
    let body = token.strip_prefix('m')?;
    let (name, enable) = match body.strip_prefix("no-") {
        Some(rest) => (rest, false),
        None => (body, true),
    };
    feature_info(name).map(|info| (info.name, enable))
}

/// The ISA an argv spelling (`-march=haswell`, `-mavx2`, `-mno-sve`)
/// exists on. `-march=` / `-mtune=` / `-mcpu=` values map through
/// [`ARCHES`], `-m<feature>` / `-mno-<feature>` through [`FEATURES`], and
/// `-mfpu=` is ARM's. `None` for everything valid on either ISA
/// (`native`, `generic`, `-O2`) and for names the table does not know.
pub fn flag_isa(token: &str) -> Option<&'static str> {
    let body = token.strip_prefix('-')?;
    if let Some(value) = ["march=", "mtune=", "mcpu="]
        .iter()
        .find_map(|p| body.strip_prefix(p))
    {
        let base = value.split('+').next().unwrap_or(value);
        return ARCHES.iter().find(|e| e.name == base).map(|e| e.isa);
    }
    if body.starts_with("mfpu=") {
        return Some("aarch64");
    }
    flag_feature(body).and_then(|(feature, _)| feature_isa(feature))
}

/// Effective SIMD width in f64 lanes for `-march=<march>` on `isa`: the
/// row's [`ArchEntry::lanes`]; 2 for a name the table lacks on a known
/// ISA, 1 on any other ISA.
pub fn vector_width(isa: &str, march: &str) -> u32 {
    match ARCHES.iter().find(|e| e.isa == isa && e.name == march) {
        Some(entry) => entry.lanes,
        None if ISAS.contains(&isa) => 2,
        None => 1,
    }
}

/// Whether a `-march` value names a concrete CPU of the table, as opposed
/// to a generic level (`x86-64-v3`, an `armv8.x-a` tier).
pub fn is_cpu_name(march: &str) -> bool {
    let base = march.split('+').next().unwrap_or(march);
    ARCHES.iter().any(|e| e.name == base)
        && !base.starts_with("x86-64")
        && !base.starts_with("armv8")
}

/// One explicit feature toggle seen while folding an invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureEvent {
    /// The flag spelling as written (`-mavx512f`, `-mno-avx`, `-m32`).
    pub flag: String,
    /// The canonical feature it toggles.
    pub feature: &'static str,
    pub enabled: bool,
}

/// A pair of flags that fight within one invocation (last-one-wins
/// ambiguity or a [`conflicts_with`] edge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagConflict {
    pub first: String,
    pub second: String,
}

/// The effective target configuration of one compile step, produced by
/// [`fold_invocation`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TargetConfig {
    /// Canonical ISA the fold ran under.
    pub isa: String,
    /// Last `-march=`/`-mcpu=` value, if any.
    pub march: Option<String>,
    /// Last `-mtune=` value, if any.
    pub tune: Option<String>,
    /// The base arch is `native` — unresolved until a host (or declared
    /// target) is chosen.
    pub native: bool,
    /// The tune target is `native` — like [`Self::native`], it pins the
    /// invocation to the build host and stays unresolved until one is
    /// chosen, but it never changes the feature set.
    pub tune_native: bool,
    /// A `-march`/`-mcpu` value the matrix does not know.
    pub unknown_march: Option<String>,
    /// Implication-closed effective feature set.
    pub enabled: FeatureSet,
    /// Explicit `-m<feature>` toggles in command-line order (march resets
    /// the enabled set but never erases this log).
    pub requested: Vec<FeatureEvent>,
    /// Intra-invocation conflicts detected during the fold.
    pub conflicts: Vec<FlagConflict>,
}

impl TargetConfig {
    /// Features explicitly requested (enabled and never re-disabled later).
    pub fn explicit_enables(&self) -> FeatureSet {
        let mut out = FeatureSet::new();
        for ev in &self.requested {
            if ev.enabled {
                out.insert(ev.feature);
            } else {
                out.remove(ev.feature);
            }
        }
        out
    }
}

fn base_features(isa: &str, march: Option<&str>) -> FeatureSet {
    march
        .or_else(|| default_march(isa))
        .and_then(|m| arch_features(isa, m))
        .unwrap_or_default()
}

/// Apply explicit feature toggles, in order, on top of a base set:
/// enabling adds the implication closure (and evicts conflicting
/// features), disabling removes the feature and everything that needs it.
pub fn apply_events(base: &FeatureSet, events: &[FeatureEvent]) -> FeatureSet {
    let mut set = base.clone();
    for ev in events {
        if ev.enabled {
            let losers: Vec<&'static str> = set
                .iter()
                .copied()
                .filter(|g| conflicts_with(g, ev.feature))
                .collect();
            for g in losers {
                set.remove(g);
            }
            set.extend(feature_closure(ev.feature));
        } else {
            let dependents: Vec<&'static str> = set
                .iter()
                .copied()
                .filter(|g| feature_closure(g).contains(ev.feature))
                .collect();
            for g in dependents {
                set.remove(g);
            }
        }
    }
    set
}

/// Fold a parsed invocation's machine flags left-to-right into its
/// effective [`TargetConfig`].
///
/// GCC semantics: the **base** obeys last-`-march`/`-mcpu`-wins, while
/// explicit `-m<feature>`/`-mno-<feature>` toggles always beat the march
/// defaults — so the fold resolves the final base first and then applies
/// the toggle sequence (in order, with implication closure) on top of it.
/// `-mtune=` is recorded but never changes the feature set. Conflicts
/// (same feature toggled both ways, or a [`conflicts_with`] pair both
/// enabled) are collected, not resolved — the audit pass turns them into
/// COMT-A003.
pub fn fold_invocation(isa: &str, inv: &CompilerInvocation) -> TargetConfig {
    let isa = normalize_isa(isa).to_string();
    let mut cfg = TargetConfig {
        isa: isa.clone(),
        ..TargetConfig::default()
    };
    for arg in &inv.args {
        let Arg::Opt {
            token,
            value,
            category,
            ..
        } = arg
        else {
            continue;
        };
        if *category != OptionCategory::Machine {
            continue;
        }
        match token.as_str() {
            "march=" | "mcpu=" => {
                let v = value.clone().unwrap_or_default();
                cfg.native = v == "native";
                cfg.unknown_march = if !cfg.native && arch_features(&isa, &v).is_none() {
                    Some(v.clone())
                } else {
                    None
                };
                cfg.march = Some(v);
            }
            "mtune=" => {
                cfg.tune = value.clone();
                // `-mtune=native` is not a CPU name: like `-march=native`
                // it binds the invocation to the build host and stays
                // unresolved until a concrete target is chosen.
                cfg.tune_native = value.as_deref() == Some("native");
            }
            _ => {
                let Some((feature, enable)) = flag_feature(token) else {
                    continue;
                };
                let flag = format!("-{token}");
                for prior in &cfg.requested {
                    let fights = if enable {
                        // Re-enabling after an explicit disable (or enabling
                        // something a conflicting flag rules out).
                        (!prior.enabled && prior.feature == feature)
                            || (prior.enabled && conflicts_with(prior.feature, feature))
                    } else {
                        // Disabling a feature an earlier flag asked for,
                        // directly or via its implication closure.
                        prior.enabled && feature_closure(prior.feature).contains(feature)
                    };
                    if fights {
                        cfg.conflicts.push(FlagConflict {
                            first: prior.flag.clone(),
                            second: flag.clone(),
                        });
                    }
                }
                cfg.requested.push(FeatureEvent {
                    flag,
                    feature,
                    enabled: enable,
                });
            }
        }
    }
    let base = match &cfg.march {
        Some(m) if !cfg.native && cfg.unknown_march.is_none() => base_features(&isa, Some(m)),
        _ => base_features(&isa, None),
    };
    cfg.enabled = apply_events(&base, &cfg.requested);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn fold(isa: &str, cmd: &str) -> TargetConfig {
        fold_invocation(isa, &CompilerInvocation::parse(&argv(cmd)).unwrap())
    }

    #[test]
    fn microarch_levels_nest() {
        let v1 = arch_features("x86_64", "x86-64").unwrap();
        let v2 = arch_features("x86_64", "x86-64-v2").unwrap();
        let v3 = arch_features("x86_64", "x86-64-v3").unwrap();
        let v4 = arch_features("x86_64", "x86-64-v4").unwrap();
        assert!(v1.is_subset(&v2) && v2.is_subset(&v3) && v3.is_subset(&v4));
        assert!(v2.contains("sse4.2") && !v2.contains("avx"));
        assert!(v3.contains("avx2") && v3.contains("fma") && !v3.contains("avx512f"));
        assert!(v4.contains("avx512vl") && v4.contains("avx512f"));
    }

    #[test]
    fn implication_closure_is_transitive() {
        let c = feature_closure("avx512f");
        for f in ["avx512f", "avx2", "avx", "sse4.2", "sse4.1", "ssse3", "sse3", "sse2"] {
            assert!(c.contains(f), "closure missing {f}");
        }
        assert_eq!(implied_by("avx2"), &["avx"]);
    }

    #[test]
    fn cpu_names_resolve_to_their_level() {
        assert_eq!(
            arch_features("x86_64", "icelake-server"),
            arch_features("x86_64", "x86-64-v4")
        );
        assert_eq!(
            arch_features("aarch64", "ft2000plus"),
            arch_features("aarch64", "armv8-a")
        );
        assert!(arch_features("x86_64", "armv8.2-a").is_none());
        assert!(arch_features("x86_64", "tachyon9000").is_none());
    }

    #[test]
    fn aarch64_march_suffixes() {
        let sve = arch_features("aarch64", "armv8.2-a+sve").unwrap();
        assert!(sve.contains("sve") && sve.contains("neon") && sve.contains("fp16"));
        let nosimd = arch_features("aarch64", "armv8-a+nosimd").unwrap();
        assert!(!nosimd.contains("neon"));
        let a64fx = arch_features("aarch64", "a64fx").unwrap();
        assert!(a64fx.contains("sve"));
    }

    #[test]
    fn target_arch_resolves_isa() {
        let (isa, set) = target_arch("x86-64-v2").unwrap();
        assert_eq!(isa, "x86_64");
        assert!(set.contains("sse4.2"));
        let (isa, set) = target_arch("armv8.2-a+sve").unwrap();
        assert_eq!(isa, "aarch64");
        assert!(set.contains("sve"));
        assert!(target_arch("not-an-arch").is_none());
    }

    #[test]
    fn conflict_edges() {
        assert!(conflicts_with("abi32", "abi64"));
        assert!(conflicts_with("avx2", "sve")); // cross-ISA
        assert!(!conflicts_with("avx2", "fma"));
        assert!(!conflicts_with("avx2", "avx2"));
    }

    #[test]
    fn flag_feature_parses_machine_flags() {
        assert_eq!(flag_feature("mavx512f"), Some(("avx512f", true)));
        assert_eq!(flag_feature("mno-avx"), Some(("avx", false)));
        assert_eq!(flag_feature("m32"), Some(("abi32", true)));
        assert_eq!(flag_feature("march="), None);
        assert_eq!(flag_feature("mprefer-vector-width="), None);
        assert_eq!(flag_feature("mbranch-protection"), None);
    }

    #[test]
    fn fold_march_plus_feature_flags() {
        let cfg = fold("x86_64", "gcc -O2 -march=x86-64-v2 -mavx512f -c a.c -o a.o");
        assert_eq!(cfg.march.as_deref(), Some("x86-64-v2"));
        assert!(cfg.enabled.contains("avx512f"));
        assert!(cfg.enabled.contains("avx2")); // implied by avx512f
        assert!(cfg.enabled.contains("sse4.2")); // from the march base
        assert!(cfg.conflicts.is_empty());
        assert_eq!(cfg.explicit_enables(), FeatureSet::from(["avx512f"]));
    }

    #[test]
    fn fold_explicit_toggles_beat_march_defaults() {
        // GCC semantics: -march picks the base, explicit -m toggles win
        // over it regardless of position — so avx512f survives a later
        // -march (adapters append -march at the end of argv).
        let cfg = fold("x86_64", "gcc -mavx512f -march=x86-64-v2 -c a.c");
        assert!(cfg.enabled.contains("avx512f"));
        assert!(cfg.enabled.contains("sse4.2")); // from the march base
        assert_eq!(cfg.requested.len(), 1);
        // The base itself obeys last-march-wins.
        let cfg = fold("x86_64", "gcc -march=x86-64-v4 -march=x86-64-v2 -c a.c");
        assert!(!cfg.enabled.contains("avx512f"));
        assert_eq!(cfg.march.as_deref(), Some("x86-64-v2"));
    }

    #[test]
    fn fold_disable_removes_dependents() {
        let cfg = fold("x86_64", "gcc -march=x86-64-v4 -mno-avx -c a.c");
        for gone in ["avx", "avx2", "avx512f", "fma"] {
            assert!(!cfg.enabled.contains(gone), "{gone} should be disabled");
        }
        assert!(cfg.enabled.contains("sse4.2"));
    }

    #[test]
    fn fold_records_toggle_conflicts() {
        let cfg = fold("x86_64", "gcc -mavx2 -mno-avx2 -c a.c");
        assert_eq!(cfg.conflicts.len(), 1);
        assert_eq!(cfg.conflicts[0].first, "-mavx2");
        assert_eq!(cfg.conflicts[0].second, "-mno-avx2");
        assert!(!cfg.enabled.contains("avx2"));
        // Disabling an implied base also fights the flag that needed it.
        let cfg = fold("x86_64", "gcc -mavx512f -mno-avx -c a.c");
        assert_eq!(cfg.conflicts.len(), 1);
        // The ABI pair conflicts both ways.
        let cfg = fold("x86_64", "gcc -m32 -m64 -c a.c");
        assert_eq!(cfg.conflicts.len(), 1);
    }

    #[test]
    fn fold_native_is_marked_unresolved() {
        let cfg = fold("x86_64", "gcc -O3 -march=native -c a.c");
        assert!(cfg.native);
        assert_eq!(cfg.march.as_deref(), Some("native"));
        let cfg = fold("x86_64", "gcc -O3 -march=x86-64-v3 -c a.c");
        assert!(!cfg.native);
    }

    #[test]
    fn fold_unknown_march_is_flagged_not_fatal() {
        let cfg = fold("x86_64", "gcc -march=quantum99 -c a.c");
        assert_eq!(cfg.unknown_march.as_deref(), Some("quantum99"));
        assert!(cfg.enabled.contains("sse2")); // falls back to the ISA default
    }

    #[test]
    fn fold_mtune_never_changes_features() {
        let a = fold("x86_64", "gcc -march=x86-64-v2 -c a.c");
        let b = fold("x86_64", "gcc -march=x86-64-v2 -mtune=icelake-server -c a.c");
        assert_eq!(a.enabled, b.enabled);
        assert_eq!(b.tune.as_deref(), Some("icelake-server"));
        assert!(!b.tune_native);
    }

    #[test]
    fn fold_tune_native_is_marked_unresolved() {
        let cfg = fold("x86_64", "gcc -O3 -march=x86-64-v3 -mtune=native -c a.c");
        assert!(cfg.tune_native);
        assert_eq!(cfg.tune.as_deref(), Some("native"));
        assert!(!cfg.native); // the march base itself resolved fine
        // Tune-native never touches the feature set either.
        let plain = fold("x86_64", "gcc -O3 -march=x86-64-v3 -c a.c");
        assert_eq!(cfg.enabled, plain.enabled);
    }

    #[test]
    fn fold_last_mtune_wins_for_native_marking() {
        let cfg = fold("x86_64", "gcc -mtune=native -mtune=generic -c a.c");
        assert!(!cfg.tune_native);
        assert_eq!(cfg.tune.as_deref(), Some("generic"));
        let cfg = fold("x86_64", "gcc -mtune=generic -mtune=native -c a.c");
        assert!(cfg.tune_native);
    }

    #[test]
    fn abi_width_is_always_target_compatible() {
        let v2 = arch_features("x86_64", "x86-64-v2").unwrap();
        assert!(v2.contains("abi32") && v2.contains("abi64"));
        let arm = arch_features("aarch64", "armv8-a").unwrap();
        assert!(!arm.contains("abi32"));
    }

    /// Every row's lanes, as the simulated codegen has always given them:
    /// they are in object bytes and goldens, quirks included.
    #[test]
    fn vector_widths() {
        for entry in ARCHES {
            let want = match entry.name {
                "x86-64-v3" | "haswell" | "znver3" | "alderlake" => 4,
                "skylake-avx512" | "icelake-server" | "sapphirerapids" | "znver4" | "a64fx" => 8,
                "ft2000plus" => 3,
                _ => 2,
            };
            assert_eq!(entry.lanes, want, "{}", entry.name);
            assert_eq!(vector_width(entry.isa, entry.name), want, "{}", entry.name);
        }
        for (isa, march) in [
            ("x86_64", "x86-64-v4"),
            ("x86_64", "skylake"),
            ("aarch64", "neoverse-v1"),
        ] {
            assert_eq!(vector_width(isa, march), 2, "{march}");
        }
        // Looked up by exact (isa, name): a foreign or suffixed name falls
        // back to 2 on a known ISA, and any name to 1 elsewhere.
        assert_eq!(vector_width("aarch64", "icelake-server"), 2);
        assert_eq!(vector_width("aarch64", "a64fx+sve"), 2);
        assert_eq!(vector_width("riscv64", "x86-64-v3"), 1);
    }

    #[test]
    fn flag_isa_maps_spellings_through_the_table() {
        assert_eq!(flag_isa("-march=x86-64-v3"), Some("x86_64"));
        assert_eq!(flag_isa("-mtune=alderlake"), Some("x86_64"));
        assert_eq!(flag_isa("-mcpu=armv8.2-a+sve"), Some("aarch64"));
        assert_eq!(flag_isa("-mavx"), Some("x86_64"));
        assert_eq!(flag_isa("-mno-sve"), Some("aarch64"));
        assert_eq!(flag_isa("-m32"), Some("x86_64"));
        assert_eq!(flag_isa("-mfpu=neon"), Some("aarch64"));
        for everywhere in [
            "-march=native",
            "-mtune=generic",
            "-march=quantum99",
            "-O2",
            "-mcmodel=large",
            "mavx",
        ] {
            assert_eq!(flag_isa(everywhere), None, "{everywhere}");
        }
    }

    #[test]
    fn cpu_names_are_rows_that_are_not_levels() {
        assert!(is_cpu_name("icelake-server") && is_cpu_name("a64fx+sve"));
        assert!(!is_cpu_name("x86-64-v3") && !is_cpu_name("armv8.2-a"));
        assert!(!is_cpu_name("tachyon9000") && !is_cpu_name("native"));
    }
}
