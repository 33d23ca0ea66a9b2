//! Cross-ISA integration (paper §5.5): extended images built on x86-64
//! processed on the AArch64 system side.

use bytes::Bytes;
use comt_bench::Lab;
use comtainer_suite::analyze::lints::check_lints;
use comtainer_suite::buildsys::{BuildTrace, Containerfile, Instruction, RawCommand, Stage};
use comtainer_suite::core::crossisa::{analyze_cross, port_containerfile, Blocker};
use comtainer_suite::core::models::{BuildGraph, ImageModel, ProcessModels};
use comtainer_suite::core::{
    load_cache, rebuild_artifacts, CacheContents, RebuildOptions, SystemSide,
};
use comtainer_suite::pkg::catalog;
use comtainer_suite::toolchain::features::{flag_feature, ARCHES, FEATURES};
use comtainer_suite::toolchain::{CompileError, SimCompiler, Toolchain};
use comtainer_suite::vfs::Vfs;

#[test]
fn isa_locked_app_is_blocked() {
    // comd carries ISA-specific source (its SIMD force loops): the
    // analysis flags it and the rebuild genuinely fails.
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let art = lab.prepare_app("comd");
    let cache = load_cache(&art.oci, "comd.dist+coM").unwrap();

    let report = analyze_cross(&cache, "aarch64");
    assert!(!report.portable());
    assert!(!report.portable_with_script_edits());
    assert!(report
        .blockers
        .iter()
        .any(|b| matches!(b, Blocker::IsaSpecificSource { isa, .. } if isa == "x86_64")));

    let arm = SystemSide::native("aarch64", catalog::MINI_SCALE).unwrap();
    let err = rebuild_artifacts(&cache, &arm, &RebuildOptions::default()).unwrap_err();
    assert!(err.to_string().contains("ISA-specific"), "{err}");
}

#[test]
fn flag_blocked_app_crosses_with_script_edits() {
    // minimd's only x86-ism is a `-mfma` flag: analysis says
    // script-fixable, and dropping the flag makes the rebuild succeed on
    // the AArch64 system with its native toolchain.
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let art = lab.prepare_app("minimd");
    let cache = load_cache(&art.oci, "minimd.dist+coM").unwrap();

    let report = analyze_cross(&cache, "aarch64");
    assert!(!report.portable());
    assert!(report.portable_with_script_edits());

    let arm = SystemSide::native("aarch64", catalog::MINI_SCALE).unwrap();
    // Unmodified: fails (the flag would mean nothing / break on aarch64 —
    // our model rejects the foreign-ISA flag via the compile).
    assert!(rebuild_artifacts(&cache, &arm, &RebuildOptions::default()).is_err());

    // The "minor modification": strip the flag from the recorded commands.
    let mut ported = load_cache(&art.oci, "minimd.dist+coM").unwrap();
    for cmd in &mut ported.trace.commands {
        cmd.argv.retain(|t| t != "-mfma");
    }
    let artifacts = rebuild_artifacts(&ported, &arm, &RebuildOptions::default()).unwrap();
    let bin =
        comtainer_suite::toolchain::artifact::read_linked(&artifacts["/app/minimd"]).unwrap();
    assert_eq!(bin.target.as_ref().unwrap().isa, "aarch64");
    assert_eq!(bin.opt.toolchain, "vendor-arm");
}

#[test]
fn same_isa_rebuild_never_blocked() {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let art = lab.prepare_app("comd");
    let cache = load_cache(&art.oci, "comd.dist+coM").unwrap();
    assert!(analyze_cross(&cache, "x86_64").portable());
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// A recorded trace of `commands`, nothing else.
fn trace_only(commands: &[Vec<String>]) -> CacheContents {
    CacheContents {
        models: ProcessModels {
            image: ImageModel::default(),
            graph: BuildGraph::new(),
            isa: "x86_64".into(),
            cache_mode: Default::default(),
            targets: vec![],
        },
        trace: BuildTrace {
            commands: commands
                .iter()
                .map(|argv| RawCommand {
                    argv: argv.clone(),
                    cwd: "/src".into(),
                    env: vec![],
                    inputs: vec![],
                    outputs: vec![],
                })
                .collect(),
        },
        sources: Default::default(),
        digests: Default::default(),
    }
}

/// A one-stage script with one `RUN` per command.
fn script_of(commands: &[Vec<String>]) -> Containerfile {
    Containerfile {
        stages: vec![Stage {
            name: "build".into(),
            base: "comt:x86-64.env".into(),
            instructions: commands.iter().cloned().map(Instruction::Run).collect(),
        }],
    }
}

/// Every spelling the per-module lists carried before the matrix became
/// the one machine vocabulary (compiler, cross-ISA port, W004).
const FORMER_LISTS: &[&str] = &[
    "-mavx2",
    "-mavx512f",
    "-msse4.2",
    "-mfma",
    "-m32",
    "-m64",
    "-mfpu=",
    "-march=x86-64",
    "-march=x86-64-v3",
    "-march=haswell",
    "-march=icelake-server",
    "-march=skylake-avx512",
    "-march=sapphirerapids",
    "-march=znver3",
    "-march=znver4",
    "-march=alderlake",
    "-march=native",
    "-march=armv8-a",
    "-march=armv8.2-a",
    "-march=ft2000plus",
    "-march=a64fx",
    "-mtune=icelake-server",
    "-mcpu=native",
    "-mcpu=a64fx",
];

/// The four places that decide whether a machine flag crosses ISAs agree on
/// every spelling the matrix knows: the compiler rejects it, the
/// feasibility report blocks on it, W004 fires and the port drops it — or
/// none of them does.
#[test]
fn one_vocabulary_decides_every_machine_flag() {
    let mut tokens: Vec<String> = FORMER_LISTS.iter().map(|t| t.to_string()).collect();
    for arch in ARCHES {
        for opt in ["march", "mtune", "mcpu"] {
            tokens.push(format!("-{opt}={}", arch.name));
        }
    }
    for feature in FEATURES {
        for body in [
            format!("m{}", feature.name),
            format!("mno-{}", feature.name),
        ] {
            if flag_feature(&body).is_some() {
                tokens.push(format!("-{body}"));
            }
        }
    }
    tokens.extend(["-mfpu=neon", "-mtune=generic", "-mcmodel=large"].map(String::from));

    let mut fs = Vfs::new();
    fs.write_file_p(
        "/work/a.c",
        Bytes::from_static(b"#pragma comt provides(main)\n"),
        0o644,
    )
    .unwrap();
    let mut foreign_pairs = 0;
    for isa in ["x86_64", "aarch64"] {
        let other = if isa == "x86_64" { "aarch64" } else { "x86_64" };
        let cc = SimCompiler::new(Toolchain::distro_gcc(), isa);
        for token in &tokens {
            let cmd = argv(&format!("gcc -O2 {token} -c a.c -o a.o"));
            let rejected = match cc.run(&mut fs.clone(), "/work", &cmd) {
                Ok(_) => false,
                Err(CompileError::UnrecognizedOption { option, .. }) => {
                    assert_eq!(&option, token);
                    true
                }
                Err(e) => panic!("{token} on {isa}: {e}"),
            };
            let cache = trace_only(std::slice::from_ref(&cmd));
            let blocked = analyze_cross(&cache, isa)
                .blockers
                .iter()
                .any(|b| matches!(b, Blocker::IsaSpecificFlag { flag, .. } if flag == token));
            let w004 = check_lints(&cache, isa)
                .iter()
                .any(|d| d.code == "COMT-W004");
            let ported = port_containerfile(&script_of(&[cmd]), other, isa);
            let dropped = !ported.render().contains(&format!(" {token} "));
            assert_eq!(
                [blocked, w004, dropped],
                [rejected; 3],
                "{token} on {isa}: compiler rejects={rejected}, report blocks={blocked}, \
                 W004={w004}, port drops={dropped}"
            );
            foreign_pairs += rejected as usize;
        }
    }
    assert!(
        foreign_pairs > tokens.len() / 2,
        "{foreign_pairs} foreign pairs"
    );
    // The pairs the separate lists used to disagree on.
    let arm = SimCompiler::new(Toolchain::distro_gcc(), "aarch64");
    for token in ["-march=x86-64-v3", "-march=skylake", "-mavx"] {
        let cmd = argv(&format!("gcc -O2 {token} -c a.c -o a.o"));
        assert!(arm.run(&mut fs.clone(), "/work", &cmd).is_err(), "{token}");
    }
}

/// §5.5's "minor modification" covers a level name too: a script pinned to
/// `-march=x86-64-v3` ports to AArch64, and the ported build rebuilds there
/// with the recorded `-march` kept (no adapter rewrites it).
#[test]
fn script_pinned_to_an_x86_level_ports_and_rebuilds_on_aarch64() {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let (oci, ext_ref) = lab.extended("hpccg", Default::default());
    let mut cache = load_cache(&oci, &ext_ref).unwrap();
    let mut pinned = 0;
    for cmd in &mut cache.trace.commands {
        if cmd.argv.iter().any(|t| t == "-c") {
            cmd.argv.insert(1, "-march=x86-64-v3".to_string());
            pinned += 1;
        }
    }
    assert!(pinned > 0);
    let mut arm = SystemSide::native("aarch64", catalog::MINI_SCALE).unwrap();
    arm.adapters.clear();
    let err = rebuild_artifacts(&cache, &arm, &RebuildOptions::default()).unwrap_err();
    assert!(err.to_string().contains("-march=x86-64-v3"), "{err}");

    let script: Vec<Vec<String>> = cache
        .trace
        .commands
        .iter()
        .map(|c| c.argv.clone())
        .collect();
    let ported = port_containerfile(&script_of(&script), "x86_64", "aarch64");
    let runs = ported.stages[0].instructions.iter().map(|i| match i {
        Instruction::Run(argv) => argv.clone(),
        other => panic!("not a RUN: {other:?}"),
    });
    for (cmd, argv) in cache.trace.commands.iter_mut().zip(runs) {
        cmd.argv = argv;
    }
    assert!(!ported.render().contains("-march=x86-64-v3"));
    let artifacts = rebuild_artifacts(&cache, &arm, &RebuildOptions::default()).unwrap();
    let bin = comtainer_suite::toolchain::artifact::read_linked(&artifacts["/app/hpccg"]).unwrap();
    assert_eq!(bin.target.as_ref().unwrap().isa, "aarch64");
}
