//! Cross-ISA image transformation (paper §5.5).
//!
//! "If all the sources involved in building a container image are
//! ISA-agnostic, and the application's direct dependencies have
//! implementations across different ISAs, then coMtainer should … be able
//! to leverage the data in the cache layer to rebuild and redirect a
//! container image from one ISA to another."
//!
//! This module provides the feasibility analysis over the cache contents,
//! the minimal build-script port the paper allows ("minor modifications to
//! their build scripts"), and the traditional cross-compilation
//! (`xbuild`) script generator used as the Figure 11 comparison baseline.

use crate::cache::CacheContents;
use comt_buildsys::{Containerfile, Instruction};
use comt_toolchain::features::flag_isa;
use comt_toolchain::{parse_source, Toolchain};

/// One thing preventing a straight cross-ISA rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Blocker {
    /// A translation unit contains ISA-specific code (inline assembly,
    /// intrinsics) for a different ISA.
    IsaSpecificSource { path: String, isa: String },
    /// A recorded command carries an ISA-specific flag.
    IsaSpecificFlag { argv: String, flag: String },
}

/// Cross-ISA feasibility report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CrossIsaReport {
    pub blockers: Vec<Blocker>,
}

impl CrossIsaReport {
    /// Whether the image can cross without any modification.
    pub fn portable(&self) -> bool {
        self.blockers.is_empty()
    }

    /// Whether only build-script edits (not source edits) are needed.
    pub fn portable_with_script_edits(&self) -> bool {
        self.blockers
            .iter()
            .all(|b| matches!(b, Blocker::IsaSpecificFlag { .. }))
    }
}

/// The canonical GNU target triple for an ISA. Part of the artifact-cache
/// step fingerprint (cross-ISA rebuilds of identical sources must never
/// alias) and of the `xbuild` script generator's tool names.
pub fn target_triple(isa: &str) -> String {
    match isa {
        "aarch64" => "aarch64-linux-gnu".to_string(),
        "x86_64" => "x86_64-linux-gnu".to_string(),
        other => format!("{other}-linux-gnu"),
    }
}

/// Analyze an extended image's cache for cross-ISA feasibility.
pub fn analyze_cross(cache: &CacheContents, target_isa: &str) -> CrossIsaReport {
    let mut report = CrossIsaReport::default();

    for (path, content) in &cache.sources {
        let text = comt_vfs::text_lossy(content);
        let info = parse_source(&text);
        if let Some(isa) = info.isa {
            if isa != target_isa {
                report.blockers.push(Blocker::IsaSpecificSource {
                    path: path.clone(),
                    isa,
                });
            }
        }
    }

    for cmd in &cache.trace.commands {
        for token in &cmd.argv {
            if flag_isa(token).is_some_and(|isa| isa != target_isa) {
                report.blockers.push(Blocker::IsaSpecificFlag {
                    argv: cmd.argv.join(" "),
                    flag: token.clone(),
                });
            }
        }
    }

    report
}

/// The coMtainer port: the *minor* build-script edits §5.5 allows — drop
/// the flags the architecture×feature matrix files under another ISA
/// ([`flag_isa`]) from `RUN` lines and retag the stage bases for the
/// target ISA. Returns the ported script.
pub fn port_containerfile(cf: &Containerfile, from_isa: &str, to_isa: &str) -> Containerfile {
    let mut out = cf.clone();
    for stage in &mut out.stages {
        stage.base = stage.base.replace(from_isa, to_isa).replace(
            match from_isa {
                "x86_64" => "x86-64",
                other => other,
            },
            match to_isa {
                "x86_64" => "x86-64",
                other => other,
            },
        );
        for inst in &mut stage.instructions {
            if let Instruction::Run(argv) = inst {
                argv.retain(|t| flag_isa(t).is_none_or(|isa| isa == to_isa));
            }
        }
    }
    out
}

/// The traditional cross-compilation baseline: generate the `xbuild`
/// variant of a build script the way a user would have to, without
/// coMtainer — install the cross toolchain and sysroot, re-point every
/// compiler invocation at triple-prefixed tools, thread cross flags
/// through, and fix the runtime stage. This is deliberately the *manual*
/// path whose edit distance Figure 11 contrasts with coMtainer's.
pub fn xbuild_containerfile(cf: &Containerfile, to_isa: &str) -> Containerfile {
    let triple = target_triple(to_isa);
    let triple = triple.as_str();
    let mut out = cf.clone();
    for stage in &mut out.stages {
        let is_build_stage = stage
            .instructions
            .iter()
            .any(|i| matches!(i, Instruction::Run(_)));
        if !is_build_stage {
            // Runtime stage must switch to the target-ISA base + foreign
            // arch enablement.
            stage.base = format!("{}--{to_isa}", stage.base);
            stage.instructions.insert(
                0,
                Instruction::Run(
                    "apt-get install -y qemu-user-static binfmt-support".to_string()
                        .split_whitespace()
                        .map(String::from)
                        .collect(),
                ),
            );
            continue;
        }
        // Cross-toolchain setup preamble.
        let preamble: Vec<Instruction> = vec![
            Instruction::Run(
                format!("apt-get install -y gcc-{triple} g++-{triple} gfortran-{triple}")
                    .split_whitespace()
                    .map(String::from)
                    .collect(),
            ),
            Instruction::Run(
                format!("apt-get install -y libc6-dev-{to_isa}-cross libstdc++-13-dev-{to_isa}-cross")
                    .split_whitespace()
                    .map(String::from)
                    .collect(),
            ),
            Instruction::Env("CROSS_COMPILE".into(), format!("{triple}-")),
            Instruction::Env("SYSROOT".into(), format!("/usr/{triple}")),
            Instruction::Env("CC".into(), format!("{triple}-gcc")),
            Instruction::Env("CXX".into(), format!("{triple}-g++")),
            Instruction::Env("FC".into(), format!("{triple}-gfortran")),
            Instruction::Env(
                "PKG_CONFIG_PATH".into(),
                format!("/usr/{triple}/lib/pkgconfig"),
            ),
            Instruction::Env("AR".into(), format!("{triple}-ar")),
            Instruction::Env("RANLIB".into(), format!("{triple}-ranlib")),
            Instruction::Env("STRIP".into(), format!("{triple}-strip")),
            Instruction::Env("LD".into(), format!("{triple}-ld")),
            Instruction::Run(
                "apt-get install -y qemu-user-static binfmt-support".to_string()
                    .split_whitespace()
                    .map(String::from)
                    .collect(),
            ),
            Instruction::Run(
                "mkdir -p /opt/sysroot/etc".split_whitespace().map(String::from).collect(),
            ),
            Instruction::Run(
                format!("ln -s /usr/{triple}/lib /opt/sysroot/lib")
                    .split_whitespace()
                    .map(String::from)
                    .collect(),
            ),
        ];
        let mut new_instructions = preamble;
        for inst in &stage.instructions {
            match inst {
                Instruction::Run(argv) => {
                    let mut argv = argv.clone();
                    // Re-point compilers, `ar` and `ranlib` at the cross
                    // tools: an MPI wrapper keeps its name, a distro-GCC
                    // driver becomes the language's GCC driver.
                    let gcc = Toolchain::distro_gcc();
                    let prog = &argv[0];
                    let base = prog.rsplit('/').next().unwrap_or(prog);
                    let wrapper = Toolchain::lookup(prog).is_some_and(|d| d.toolchain.is_none());
                    let compiler = match gcc.language_of(prog) {
                        Some(_) if wrapper => Some(base),
                        language => language.map(|l| gcc.driver(l)),
                    };
                    let cross_compiler = compiler.is_some();
                    let tool = compiler
                        .or_else(|| Toolchain::is_archiver(prog).then_some("ar"))
                        .or_else(|| Toolchain::is_ranlib(prog).then_some("ranlib"));
                    if let Some(tool) = tool {
                        argv[0] = format!("{triple}-{tool}");
                    }
                    // Strip host-ISA flags, add sysroot threading.
                    argv.retain(|t| flag_isa(t).is_none_or(|isa| isa == to_isa));
                    if cross_compiler {
                        argv.push(format!("--sysroot=/usr/{triple}"));
                    }
                    new_instructions.push(Instruction::Run(argv));
                }
                other => new_instructions.push(other.clone()),
            }
        }
        stage.instructions = new_instructions;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{BuildGraph, ImageModel, ProcessModels};
    use bytes::Bytes;
    use comt_buildsys::{BuildTrace, RawCommand};
    use std::collections::BTreeMap;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

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
                        argv: argv(c),
                        cwd: "/src".into(),
                        env: vec![],
                        inputs: vec![],
                        outputs: vec![],
                    })
                    .collect(),
            },
            sources: src,
            digests: Default::default(),
        }
    }

    #[test]
    fn portable_image_has_no_blockers() {
        let cache = cache_with(
            &[("/src/a.c", "#pragma comt provides(main)\n")],
            &["gcc -O2 -c a.c", "gcc a.o -o app"],
        );
        let report = analyze_cross(&cache, "aarch64");
        assert!(report.portable());
    }

    #[test]
    fn isa_source_blocks() {
        let cache = cache_with(
            &[("/src/simd.c", "#pragma comt isa(x86_64)\n")],
            &["gcc -c simd.c"],
        );
        let report = analyze_cross(&cache, "aarch64");
        assert!(!report.portable());
        assert!(!report.portable_with_script_edits());
        assert!(matches!(
            report.blockers[0],
            Blocker::IsaSpecificSource { .. }
        ));
    }

    #[test]
    fn isa_flag_blocks_but_script_fixable() {
        let cache = cache_with(
            &[("/src/a.c", "int x;\n")],
            &["gcc -O2 -mavx512f -c a.c"],
        );
        let report = analyze_cross(&cache, "aarch64");
        assert!(!report.portable());
        assert!(report.portable_with_script_edits());
    }

    #[test]
    fn march_native_is_portable() {
        let cache = cache_with(&[], &["gcc -march=native -c a.c"]);
        assert!(analyze_cross(&cache, "aarch64").portable());
    }

    #[test]
    fn same_isa_never_blocked_by_own_flags() {
        let cache = cache_with(&[], &["gcc -march=icelake-server -c a.c"]);
        assert!(analyze_cross(&cache, "x86_64").portable());
        assert!(!analyze_cross(&cache, "aarch64").portable());
    }

    #[test]
    fn xbuild_repoints_every_compiler_spelling() {
        let cf = Containerfile::parse(
            r#"
FROM comt:x86-64.env AS build
RUN mpif90 -O2 -c solver.f90 -o solver.o
RUN /usr/bin/g++-13 -O2 -c main.cc -o main.o
RUN mpic++ main.o solver.o -o app
RUN ar rcs libx.a solver.o
RUN cp app /app/run
"#,
        )
        .unwrap();
        let triple = target_triple("aarch64");
        let runs: Vec<String> = xbuild_containerfile(&cf, "aarch64").stages[0]
            .instructions
            .iter()
            .filter_map(|i| match i {
                Instruction::Run(argv) => Some(argv.join(" ")),
                _ => None,
            })
            .collect();
        let sysroot = format!("--sysroot=/usr/{triple}");
        for want in [
            format!("{triple}-mpif90 -O2 -c solver.f90 -o solver.o {sysroot}"),
            format!("{triple}-g++ -O2 -c main.cc -o main.o {sysroot}"),
            format!("{triple}-mpic++ main.o solver.o -o app {sysroot}"),
            format!("{triple}-ar rcs libx.a solver.o"),
            "cp app /app/run".to_string(),
        ] {
            assert!(runs.contains(&want), "no `{want}` in {runs:#?}");
        }
    }

    #[test]
    fn port_is_small_and_xbuild_is_large() {
        let cf = Containerfile::parse(
            r#"
FROM comt:x86-64.env AS build
WORKDIR /src
COPY . /src
RUN gcc -O2 -mavx2 -c kernel.c -o kernel.o
RUN gcc -O2 -c main.c -o main.o
RUN gcc main.o kernel.o -lm -o app

FROM comt:x86-64.base AS dist
COPY --from=build /src/app /app/run
"#,
        )
        .unwrap();

        let ported = port_containerfile(&cf, "x86_64", "aarch64");
        let (added_p, deleted_p) = Containerfile::line_diff(&cf, &ported);
        let xbuild = xbuild_containerfile(&cf, "aarch64");
        let (added_x, deleted_x) = Containerfile::line_diff(&cf, &xbuild);

        // coMtainer: a handful of lines; xbuild: an order of magnitude more.
        assert!(added_p + deleted_p <= 8, "port diff {added_p}+{deleted_p}");
        assert!(
            added_x + deleted_x >= 2 * (added_p + deleted_p)
                && added_x + deleted_x >= added_p + deleted_p + 8,
            "xbuild diff {added_x}+{deleted_x} vs port {added_p}+{deleted_p}"
        );
        // Ported script dropped the AVX flag and retargeted bases.
        let text = ported.render();
        assert!(!text.contains("-mavx2"));
        assert!(text.contains("aarch64"));
    }
}
