//! GCC-style toolchain model and simulated compilation.
//!
//! The heart of coMtainer's *compilation model* is "structural data
//! representing GCC command lines" (paper §4.3) — the paper's authors
//! "manually extract\[ed\] it by systematically reviewing the entire GCC user
//! manual". This crate reproduces that model and the build-tool behaviour
//! the rest of the system needs:
//!
//! * [`options`] — the GCC option database: option names, argument shapes
//!   (flag / joined / separate / joined-or-separate), and semantic
//!   categories (codegen, machine, preprocessor, linker, …). The paper's
//!   GCC has 2314 options; we model the ~150 families that carry build
//!   semantics and fold the rest through a generic `-f`/`-m`/`-W` scheme,
//!   so any real-world command line still parses and round-trips.
//! * [`invocation`] — parse `argv` → [`CompilerInvocation`] and unparse it
//!   back; this is the transformable IR the system adapters rewrite
//!   (retarget `-march`, swap toolchains, inject `-flto` / PGO flags).
//! * [`artifact`] — the simulated binary formats: object files, archives,
//!   shared objects and executables are structured records (symbol tables,
//!   target info, optimization provenance, kernel metadata) serialized into
//!   the virtual filesystem.
//! * [`source`] — the annotated-source conventions (`#pragma comt …`)
//!   through which synthetic workloads declare symbols, external library
//!   requirements, ISA-specific code and performance kernels.
//! * [`compiler`] — the simulated driver: compiling sources to objects,
//!   archiving, and full Unix linking (archive member pull-in fixpoint,
//!   namespaced external symbols resolved against `-l` libraries).
//! * [`toolchains`] — the one toolchain vocabulary: the four personalities
//!   (distro GCC, LLVM, vendor compilers) with their driver names,
//!   target ISAs and codegen-quality factors, and the MPI wrappers every
//!   personality accepts. [`Toolchain::lookup`] says which personality
//!   runs a program, in which language; every layer that classifies or
//!   rewrites a command line asks it.
//! * [`features`] — the architecture×feature matrix (x86-64-v1..v4 levels,
//!   AArch64 armv8.x/SVE tiers, implication and conflict edges) and the
//!   flow-sensitive flag fold behind `comt audit`.
//! * [`memo`] — [`DigestMemo`], content digests of byte windows computed
//!   once per window, shared by the rebuild engine's cache keys and the
//!   compiler's source digests; [`HeldDigests`], the same for a held
//!   image's own windows across every load of it.

pub mod artifact;
pub mod compiler;
pub mod features;
pub mod invocation;
pub mod memo;
pub mod options;
pub mod source;
pub mod toolchains;

pub use artifact::{Archive, Artifact, KernelParams, LinkedBinary, ObjectFile, PgoMode};
pub use compiler::{recodegen, CommandOutcome, CompileError, SimCompiler};
pub use features::{
    arch_features, conflicts_with, flag_feature, fold_invocation, implied_by, known_targets,
    target_arch, FeatureSet, TargetConfig,
};
pub use invocation::{CompilerInvocation, DriverMode, InputKind, ParseError};
pub use memo::{DigestMemo, HeldDigests};
pub use options::{lookup, OptionCategory, OptionShape};
pub use source::{parse_source, SourceInfo};
pub use toolchains::{Toolchain, ToolchainKind};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use comt_vfs::Vfs;

    /// Full mini-pipeline: compile two sources, archive one, link, inspect.
    #[test]
    fn compile_archive_link_end_to_end() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/src").unwrap();
        fs.mkdir_p("/usr/lib").unwrap();
        fs.write_file(
            "/src/main.c",
            Bytes::from(
                "#pragma comt provides(main)\n#pragma comt requires(helper)\n#pragma comt extern(m:sqrt)\nint main(){}\n",
            ),
            0o644,
        )
        .unwrap();
        fs.write_file(
            "/src/helper.c",
            Bytes::from("#pragma comt provides(helper)\nvoid helper(){}\n"),
            0o644,
        )
        .unwrap();
        // Opaque system math library (a vendor blob, not a COMT artifact).
        fs.write_file("/usr/lib/libm.so.6", Bytes::from_static(b"\x7fELF-m"), 0o644)
            .unwrap();

        let tc = Toolchain::distro_gcc();
        let sim = SimCompiler::new(tc, "x86_64");

        let o1 = sim
            .run(&mut fs, "/src", &argv("gcc -O2 -c main.c -o main.o"))
            .unwrap();
        assert_eq!(o1.outputs, vec!["/src/main.o".to_string()]);
        let o2 = sim
            .run(&mut fs, "/src", &argv("gcc -O2 -c helper.c -o helper.o"))
            .unwrap();
        assert_eq!(o2.outputs, vec!["/src/helper.o".to_string()]);

        sim.run(&mut fs, "/src", &argv("ar rcs libhelper.a helper.o"))
            .unwrap();

        let link = sim
            .run(&mut fs, "/src", &argv("gcc main.o -L. -lhelper -lm -o app"))
            .unwrap();
        assert!(link.outputs.contains(&"/src/app".to_string()));

        let bin = artifact::read_linked(&fs.read("/src/app").unwrap()).unwrap();
        assert!(bin.defined.contains(&"main".to_string()));
        assert!(bin.needed_libs.iter().any(|l| l.contains("m")));
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }
}
