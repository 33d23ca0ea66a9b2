//! Cheap scheme-ordering invariants over the whole workload roster.
//!
//! Instead of running the full pipeline for all 18 workloads (that's the
//! fig9 binary's job), these tests construct the scheme-characteristic
//! binaries directly and check the paper's qualitative relations hold for
//! *every* workload on *both* systems.

use comtainer_suite::perfsim::{execute_with_deck, systems::system_for, LibEnv};
use comtainer_suite::toolchain::artifact::{
    BinKind, KernelParams, LinkedBinary, OptProvenance, TargetInfo,
};
use comtainer_suite::toolchain::features::{default_march, vector_width};
use comtainer_suite::toolchain::Toolchain;
use comt_workloads::{app, deck, workloads};

/// Construct the binary a given scheme would produce for a workload.
fn scheme_binary(app_name: &str, isa: &str, native: bool) -> LinkedBinary {
    let spec = app(app_name).unwrap();
    let mut kernel = KernelParams::default();
    for (k, v) in spec.fracs {
        kernel.0.insert(k.to_string(), *v);
    }
    let tc = if native {
        Toolchain::vendor_for(isa)
    } else {
        Toolchain::distro_gcc()
    };
    let march = if native {
        tc.native_march(isa).to_string()
    } else {
        default_march(isa).unwrap().to_string()
    };
    let quality = tc.codegen_quality * if native { 1.07 } else { 1.0 }; // O3 vs O2
    let mut libs: Vec<String> = spec.libs.iter().map(|l| l.to_string()).collect();
    libs.push("mpi".into());
    libs.push("c".into());
    LinkedBinary {
        kind: BinKind::Executable,
        defined: vec!["main".into()],
        externs: vec![],
        needed_libs: libs,
        objects: vec![],
        target: Some(TargetInfo {
            isa: isa.into(),
            march: march.clone(),
        }),
        opt: OptProvenance {
            toolchain: tc.name.clone(),
            codegen_quality: quality,
            opt_level: if native { "3".into() } else { "2".into() },
            vector_width: vector_width(isa, &march),
            fast_math: false,
            openmp: spec.openmp,
            lto_ir: false,
            pgo: Default::default(),
        },
        lto_applied: false,
        layout_optimized: false,
        kernel,
    }
}

fn vendor_env(isa: &str) -> LibEnv {
    use comtainer_suite::pkg::catalog;
    let repo = catalog::system_repo(isa);
    let mut fs = comtainer_suite::vfs::Vfs::new();
    let names = ["libc6", "libstdc++6", "libopenblas0", "mpich", "libfftw3-double3", "libgomp1"];
    let deps: Vec<comtainer_suite::pkg::Dependency> =
        names.iter().map(|n| n.parse().unwrap()).collect();
    let pkgs = comtainer_suite::pkg::resolve_install(&repo, &deps).unwrap();
    comtainer_suite::pkg::install_packages(&mut fs, &pkgs).unwrap();
    comtainer_suite::perfsim::lib_env_from_image(&fs, &[&repo])
}

#[test]
fn native_beats_original_everywhere_except_hpccg() {
    for isa in ["x86_64", "aarch64"] {
        let system = system_for(isa);
        let vendor = vendor_env(isa);
        for w in workloads() {
            let d = deck(w.app, w.input, isa, 16);
            let orig = scheme_binary(w.app, isa, false);
            let nat = scheme_binary(w.app, isa, true);
            let t_orig = execute_with_deck(&orig, &d, &LibEnv::generic(), &system, 16).seconds;
            let t_nat = execute_with_deck(&nat, &d, &vendor, &system, 16).seconds;
            if w.app == "hpccg" {
                assert!(
                    t_nat > t_orig * 0.95,
                    "{isa}/{}: hpccg must not improve meaningfully ({t_orig:.1} vs {t_nat:.1})",
                    w.label()
                );
            } else {
                assert!(
                    t_orig > t_nat * 1.05,
                    "{isa}/{}: native must win ({t_orig:.1} vs {t_nat:.1})",
                    w.label()
                );
            }
        }
    }
}

#[test]
fn improvements_are_bounded() {
    // No workload improves by more than ~5× — the model must not produce
    // absurd gaps that would dwarf the paper's ranges.
    for isa in ["x86_64", "aarch64"] {
        let system = system_for(isa);
        let vendor = vendor_env(isa);
        for w in workloads() {
            let d = deck(w.app, w.input, isa, 16);
            let orig = scheme_binary(w.app, isa, false);
            let nat = scheme_binary(w.app, isa, true);
            let t_orig = execute_with_deck(&orig, &d, &LibEnv::generic(), &system, 16).seconds;
            let t_nat = execute_with_deck(&nat, &d, &vendor, &system, 16).seconds;
            let ratio = t_orig / t_nat;
            assert!(
                ratio < 5.0,
                "{isa}/{}: improbable {ratio:.1}x gap",
                w.label()
            );
            // And every run is in a sane absolute range.
            assert!(
                (1.0..1000.0).contains(&t_nat),
                "{isa}/{}: {t_nat:.1}s",
                w.label()
            );
        }
    }
}

#[test]
fn arm_runs_slower_than_x86() {
    // The FT-2000+ system is the weaker machine: every workload's native
    // time is higher there (Figure 9a vs 9b).
    let x86 = system_for("x86_64");
    let arm = system_for("aarch64");
    let env_x = vendor_env("x86_64");
    let env_a = vendor_env("aarch64");
    for w in workloads() {
        let tx = execute_with_deck(
            &scheme_binary(w.app, "x86_64", true),
            &deck(w.app, w.input, "x86_64", 16),
            &env_x,
            &x86,
            16,
        )
        .seconds;
        let ta = execute_with_deck(
            &scheme_binary(w.app, "aarch64", true),
            &deck(w.app, w.input, "aarch64", 16),
            &env_a,
            &arm,
            16,
        )
        .seconds;
        assert!(ta > tx, "{}: arm {ta:.1}s vs x86 {tx:.1}s", w.label());
    }
}
