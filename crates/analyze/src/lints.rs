//! Pass 2: portability and reproducibility lints over the recorded
//! compiler invocations and cached sources.
//!
//! * `COMT-W001` — host-coupled machine flags: `-march=native` /
//!   `-mtune=native` / `-mcpu=native`, the Intel-style `-xHost`, and a
//!   CPU-specific `-march` with no resolved `-mtune` — absent or
//!   `-mtune=native` (the schedule tunes to the build host's pipeline).
//! * `COMT-W002` — `__DATE__`/`__TIME__`/`__TIMESTAMP__` in a cached
//!   source or a `-D` define: rebuilds can never be bit-identical.
//! * `COMT-W003` — absolute host paths (`/home/…`, `/tmp/…`) in the
//!   command line: the rebuild container will not have them.
//! * `COMT-W004` — ISA-specific flags the check target cannot map
//!   (shared logic with [`comtainer::crossisa`]).
//! * `COMT-W005` — `-Ofast`/`-ffast-math`: value-changing optimization,
//!   not just host-coupled — rebuilt numerics can differ.

use crate::diag::{Diagnostic, Span};
use comtainer::crossisa::flag_is_isa_specific;
use comtainer::CacheContents;
use comt_toolchain::invocation::Arg;
use comt_toolchain::CompilerInvocation;

/// Codes this pass can emit (registry-consistency contract).
pub const EMITTED: &[&str] = &[
    "COMT-W001",
    "COMT-W002",
    "COMT-W003",
    "COMT-W004",
    "COMT-W005",
];

/// Path prefixes that only exist on the machine that recorded the build.
const HOST_PREFIXES: &[&str] = &["/home/", "/root/", "/Users/", "/tmp/", "/var/tmp/"];

const TIMESTAMP_MACROS: &[&str] = &["__DATE__", "__TIME__", "__TIMESTAMP__"];

fn is_host_path(path: &str) -> bool {
    HOST_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Run every lint over the cache contents against one target ISA.
pub fn check_lints(cache: &CacheContents, target_isa: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    for (idx, cmd) in cache.trace.commands.iter().enumerate() {
        let command = cmd.argv.join(" ");

        // W004 needs only raw tokens, no parse.
        for token in &cmd.argv {
            if flag_is_isa_specific(token, target_isa) {
                diags.push(
                    Diagnostic::new(
                        "COMT-W004",
                        format!("{token} is specific to another ISA than {target_isa}"),
                        Span::step(idx, &command),
                    )
                    .with_hint(
                        "run `comt cross-check` for the full feasibility report".to_string(),
                    ),
                );
            }
        }

        let Ok(inv) = CompilerInvocation::parse(&cmd.argv) else {
            continue;
        };

        // W001: host-resolved machine flags.
        for (flag, value) in [
            ("-march", inv.march()),
            ("-mtune", inv.mtune()),
            ("-mcpu", machine_value(&inv, "mcpu=")),
        ] {
            if value == Some("native") {
                diags.push(
                    Diagnostic::new(
                        "COMT-W001",
                        format!("{flag}=native resolves on the build host, not in the model"),
                        Span::step(idx, &command),
                    )
                    .with_hint(format!(
                        "record an explicit {flag} value, or rely on the system-side adapter"
                    )),
                );
            }
        }

        // W001, Intel spelling: -xHost probes the build host like
        // -march=native does.
        if inv.args.iter().any(|a| {
            matches!(a, Arg::Opt { token, value: Some(v), .. } if token == "x" && v == "Host")
        }) {
            diags.push(
                Diagnostic::new(
                    "COMT-W001",
                    "-xHost resolves on the build host, not in the model".to_string(),
                    Span::step(idx, &command),
                )
                .with_hint(
                    "record an explicit -x<arch> (or -march) value, or rely on the \
                     system-side adapter"
                        .to_string(),
                ),
            );
        }

        // W001, tuning variant: a CPU-specific -march whose tuning is
        // unresolved pins the instruction schedule to the recording
        // host's pipeline. "Unresolved" means no -mtune at all, or
        // -mtune=native — the fold marks the latter like -march=native,
        // so it cannot pass for an ordinary CPU name here.
        let cfg = comt_toolchain::features::fold_invocation(target_isa, &inv);
        if let Some(march) = inv.march() {
            if is_specific_cpu(march) && (inv.mtune().is_none() || cfg.tune_native) {
                diags.push(
                    Diagnostic::new(
                        "COMT-W001",
                        format!(
                            "-march={march} names a specific CPU with no resolved -mtune: \
                             the schedule is tuned to the build host"
                        ),
                        Span::step(idx, &command),
                    )
                    .with_hint("add -mtune=generic to decouple tuning from the host".to_string()),
                );
            }
        }

        // W005: fast-math changes values, not just host-coupling.
        if inv.fast_math() {
            diags.push(
                Diagnostic::new(
                    "COMT-W005",
                    "-Ofast/-ffast-math licenses value-changing optimizations: rebuilt \
                     numerics can differ"
                        .to_string(),
                    Span::step(idx, &command),
                )
                .with_hint(
                    "use -O3 with selective -f options for reproducible numerics".to_string(),
                ),
            );
        }

        // W002 in defines: -DSTAMP=__DATE__ and friends.
        for def in inv.defines() {
            if TIMESTAMP_MACROS.iter().any(|m| def.contains(m)) {
                diags.push(
                    Diagnostic::new(
                        "COMT-W002",
                        format!("define -D{def} embeds the build timestamp"),
                        Span::step(idx, &command),
                    )
                    .with_hint("pass a fixed value instead of a timestamp macro".to_string()),
                );
            }
        }

        // W003: absolute host paths anywhere a path can appear.
        let mut host_paths: Vec<String> = Vec::new();
        for arg in &inv.args {
            match arg {
                Arg::Input { path, .. } if is_host_path(path) => {
                    host_paths.push(path.clone());
                }
                Arg::Opt {
                    value: Some(v), ..
                } if is_host_path(v) => {
                    host_paths.push(v.clone());
                }
                _ => {}
            }
        }
        host_paths.sort();
        host_paths.dedup();
        for path in host_paths {
            diags.push(
                Diagnostic::new(
                    "COMT-W003",
                    format!("absolute host path {path} will not exist in the rebuild container"),
                    Span::step(idx, &command).with_file(&path),
                )
                .with_hint("use container-relative paths in the build script".to_string()),
            );
        }
    }

    // W002 in cached sources.
    for (path, content) in &cache.sources {
        let text = comt_vfs::text_lossy(content);
        for m in TIMESTAMP_MACROS {
            if text.contains(m) {
                diags.push(
                    Diagnostic::new(
                        "COMT-W002",
                        format!("{path} uses {m}: rebuilds embed their own build time"),
                        Span::file(path),
                    )
                    .with_hint(
                        "replace the macro with a configure-time constant".to_string(),
                    ),
                );
                break; // one diagnostic per file
            }
        }
    }

    diags
}

/// Whether a `-march` value names a concrete CPU (as opposed to a generic
/// micro-architecture level like `x86-64-v3` or an `armv8.x-a` tier) in
/// the architecture×feature matrix.
fn is_specific_cpu(march: &str) -> bool {
    let base = march.split('+').next().unwrap_or(march);
    comt_toolchain::features::target_arch(base).is_some()
        && !base.starts_with("x86-64")
        && !base.starts_with("armv8")
}

/// Last `-mcpu=` value, mirroring the march/mtune accessors.
fn machine_value<'a>(inv: &'a CompilerInvocation, token: &str) -> Option<&'a str> {
    inv.args.iter().rev().find_map(|a| match a {
        Arg::Opt {
            token: t,
            value: Some(v),
            ..
        } if t == token => Some(v.as_str()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use comtainer::models::{BuildGraph, ImageModel, ProcessModels};
    use comt_buildsys::{BuildTrace, RawCommand};
    use std::collections::BTreeMap;

    fn cache_with(sources: &[(&str, &str)], cmds: &[&str]) -> CacheContents {
        let mut src = BTreeMap::new();
        for (p, c) in sources {
            src.insert(p.to_string(), Bytes::from(c.as_bytes().to_vec()));
        }
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
            sources: src,
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn march_native_is_w001() {
        let cache = cache_with(&[], &["gcc -O2 -march=native -c a.c -o a.o"]);
        let diags = check_lints(&cache, "x86_64");
        assert_eq!(codes(&diags), vec!["COMT-W001"]);
        assert_eq!(diags[0].span.step, Some(0));
    }

    #[test]
    fn mtune_and_mcpu_native_also_flagged() {
        let cache = cache_with(
            &[],
            &[
                "gcc -mtune=native -c a.c -o a.o",
                "gcc -mcpu=native -c b.c -o b.o",
            ],
        );
        assert_eq!(check_lints(&cache, "x86_64").len(), 2);
    }

    #[test]
    fn timestamp_macros_in_source_and_define() {
        let cache = cache_with(
            &[("/src/version.c", "const char *b = __DATE__ \" \" __TIME__;\n")],
            &["gcc -DBUILD_STAMP=__TIMESTAMP__ -c version.c -o version.o"],
        );
        let diags = check_lints(&cache, "x86_64");
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == "COMT-W002"));
    }

    #[test]
    fn absolute_host_paths_are_w003() {
        let cache = cache_with(
            &[],
            &["gcc -I/home/alice/include -c /tmp/scratch/a.c -o a.o"],
        );
        let diags = check_lints(&cache, "x86_64");
        assert_eq!(codes(&diags), vec!["COMT-W003", "COMT-W003"]);
    }

    #[test]
    fn container_paths_are_clean() {
        let cache = cache_with(&[], &["gcc -I/usr/include -c /src/a.c -o a.o"]);
        assert!(check_lints(&cache, "x86_64").is_empty());
    }

    #[test]
    fn xhost_is_w001() {
        let cache = cache_with(&[], &["icc -O3 -xHost -c a.c -o a.o"]);
        let diags = check_lints(&cache, "x86_64");
        assert_eq!(codes(&diags), vec!["COMT-W001"]);
        assert!(diags[0].message.contains("-xHost"));
    }

    #[test]
    fn specific_cpu_without_mtune_is_w001() {
        let cache = cache_with(&[], &["gcc -O2 -march=icelake-server -c a.c -o a.o"]);
        let diags = check_lints(&cache, "x86_64");
        assert_eq!(codes(&diags), vec!["COMT-W001"]);
        assert!(diags[0].message.contains("-mtune"));
        // An explicit -mtune (any value) silences it…
        let cache = cache_with(
            &[],
            &["gcc -O2 -march=icelake-server -mtune=generic -c a.c -o a.o"],
        );
        assert!(check_lints(&cache, "x86_64").is_empty());
        // …and generic micro-architecture levels never fire it.
        let cache = cache_with(&[], &["gcc -O2 -march=x86-64-v3 -c a.c -o a.o"]);
        assert!(check_lints(&cache, "x86_64").is_empty());
    }

    #[test]
    fn specific_cpu_with_tune_native_still_fires_tuning_w001() {
        // -mtune=native does not decouple the schedule from the host, so
        // the tuning variant must fire alongside the mtune=native finding
        // instead of being silenced by the flag's mere presence.
        let cache = cache_with(
            &[],
            &["gcc -O2 -march=icelake-server -mtune=native -c a.c -o a.o"],
        );
        let diags = check_lints(&cache, "x86_64");
        assert_eq!(codes(&diags), vec!["COMT-W001", "COMT-W001"]);
        assert!(diags.iter().any(|d| d.message.contains("-mtune=native")));
        assert!(diags
            .iter()
            .any(|d| d.message.contains("no resolved -mtune")));
    }

    #[test]
    fn tune_native_on_generic_level_is_one_w001() {
        // The generic level itself is portable; only the native tune is
        // host-coupled, so exactly one finding.
        let cache = cache_with(&[], &["gcc -O2 -march=x86-64-v3 -mtune=native -c a.c -o a.o"]);
        let diags = check_lints(&cache, "x86_64");
        assert_eq!(codes(&diags), vec!["COMT-W001"]);
        assert!(diags[0].message.contains("-mtune=native"));
    }

    #[test]
    fn fast_math_is_w005() {
        let cache = cache_with(&[], &["gcc -Ofast -c a.c -o a.o"]);
        assert_eq!(codes(&check_lints(&cache, "x86_64")), vec!["COMT-W005"]);
        let cache = cache_with(&[], &["gcc -O3 -ffast-math -c a.c -o a.o"]);
        assert_eq!(codes(&check_lints(&cache, "x86_64")), vec!["COMT-W005"]);
        // -fno-fast-math wins over both spellings.
        let cache = cache_with(&[], &["gcc -Ofast -fno-fast-math -c a.c -o a.o"]);
        assert!(check_lints(&cache, "x86_64").is_empty());
    }

    #[test]
    fn cross_isa_flag_is_w004() {
        let cache = cache_with(&[], &["gcc -mavx512f -c a.c -o a.o"]);
        assert!(check_lints(&cache, "x86_64").is_empty());
        let diags = check_lints(&cache, "aarch64");
        assert_eq!(codes(&diags), vec!["COMT-W004"]);
    }
}
