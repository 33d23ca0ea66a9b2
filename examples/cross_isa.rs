//! Cross-ISA image transformation (paper §5.5).
//!
//! Takes the x86-64 extended image of a portable application, analyzes its
//! cache for ISA blockers, ports the build script with minimal edits, and
//! rebuilds + redirects it on the AArch64 system — contrasted with the
//! traditional cross-compilation (`xbuild`) script whose edit distance is
//! an order of magnitude larger (Figure 11).
//!
//! Run with: `cargo run --release --example cross_isa`

use comt_bench::Lab;
use comtainer_suite::core::crossisa::{analyze_cross, port_containerfile, xbuild_containerfile};
use comtainer_suite::core::{comtainer_rebuild, comtainer_redirect, RebuildOptions, SystemSide};
use comtainer_suite::buildsys::Containerfile;
use comtainer_suite::pkg::catalog;
use comtainer_suite::toolchain::features::flag_isa;
use comt_workloads::containerfile;

fn main() {
    // Build the x86-64 extended image of minife (an ISA-portable app whose
    // only blockers are script-level flags).
    println!("building minife on x86-64 and extending it…");
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let mut art = lab.prepare_app("minife");
    let cache = comtainer_suite::core::load_cache(&art.oci, "minife.dist+coM").unwrap();

    // Feasibility analysis against aarch64.
    let report = analyze_cross(&cache, "aarch64");
    println!("cross-ISA analysis → {} blocker(s):", report.blockers.len());
    for b in &report.blockers {
        println!("  - {b:?}");
    }
    assert!(
        report.portable_with_script_edits(),
        "minife should be fixable via script edits"
    );

    // Port the build script (coMtainer path) vs generate the xbuild script.
    let cf = containerfile("minife", "x86_64").unwrap();
    let ported = port_containerfile(&cf, "x86_64", "aarch64");
    let xbuild = xbuild_containerfile(&cf, "aarch64");
    let (pa, pd) = Containerfile::line_diff(&cf, &ported);
    let (xa, xd) = Containerfile::line_diff(&cf, &xbuild);
    println!("\nbuild-script edit distance (Figure 11 metric):");
    println!("  coMtainer port : +{pa} / -{pd} lines");
    println!("  xbuild         : +{xa} / -{xd} lines");

    // Execute the ported rebuild on the aarch64 system side: drop the
    // ISA-specific flags from the *cached trace* the same way the ported
    // script would, then rebuild + redirect.
    println!("\nrebuilding the x86-64 extended image on the aarch64 system…");
    let arm_side = SystemSide::native("aarch64", catalog::MINI_SCALE).unwrap();

    // First show that the unmodified image fails (the -mavx2 flag).
    let direct = comtainer_rebuild(
        &mut art.oci,
        "minife.dist+coM",
        &arm_side,
        &RebuildOptions::default(),
    );
    match direct {
        Err(e) => println!("  unmodified rebuild fails as expected: {e}"),
        Ok(_) => println!("  unmodified rebuild unexpectedly succeeded"),
    }

    // Apply the minor modification: strip the x86 flags from the cached
    // trace (the ported build script).
    let mut cache2 = comtainer_suite::core::load_cache(&art.oci, "minife.dist+coM").unwrap();
    for cmd in &mut cache2.trace.commands {
        cmd.argv
            .retain(|t| flag_isa(t).is_none_or(|isa| isa == "aarch64"));
    }
    let artifacts =
        comtainer_suite::core::rebuild_artifacts(&cache2, &arm_side, &RebuildOptions::default())
            .expect("ported rebuild succeeds");
    comtainer_suite::core::cache::write_rebuild(&mut art.oci, "minife.dist+coM", None, &artifacts)
        .unwrap();
    let opt_ref = comtainer_redirect(&mut art.oci, "minife.dist+coMre", &arm_side).unwrap();
    let image = art.oci.load_image(&opt_ref).unwrap();
    let fs = comtainer_suite::oci::flatten(&art.oci.blobs, &image).unwrap();
    let bin =
        comtainer_suite::toolchain::artifact::read_linked(&fs.read("/app/minife").unwrap())
            .unwrap();
    println!(
        "  ported rebuild OK: binary now targets {} / {} via {}",
        bin.target.as_ref().unwrap().isa,
        bin.target.as_ref().unwrap().march,
        bin.opt.toolchain,
    );
    println!("\nAn x86-64 user image, redirected into a native AArch64 image — the\ncross-ISA workflow of §5.5.");
}
