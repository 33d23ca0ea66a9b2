//! The replay contract, pinned end to end.
//!
//! For `hpccg`, `comd` and `lulesh`, each cache mode (source, IR) and each
//! worker count (serial, `parallel`), a cold and then a warm rebuild over
//! one fresh artifact cache must produce the `+coMre` layer digest and the
//! `exec.*`, `cache.*`, `retarget.ir_hits` and `steps.*` counters written
//! in `tests/golden/replay_<app>.txt`. A change to the engine that moves a
//! layer or a counter fails here; refreshing a golden is a reviewed diff:
//!
//! ```text
//! COMT_BLESS=1 cargo test --test replay_contract
//! ```

mod common;

use bytes::Bytes;
use comt_bench::Lab;
use comt_buildsys::{BuildTrace, RawCommand};
use comt_oci::layout::OciDir;
use comt_oci::{BlobStore, ImageBuilder};
use comt_vfs::Vfs;
use comtainer_suite::core::cache::{load_rebuild, write_cache};
use comtainer_suite::core::{
    comtainer_rebuild_with_report, ArtifactCache, CacheMode, FileOrigin, ImageModel, ProcessModels,
    RebuildOptions, SystemSide,
};
use comtainer_suite::pkg::catalog;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Digest of the rebuild layer (the last layer) of the image at `name`.
fn rebuild_layer_digest(oci: &OciDir, name: &str) -> String {
    let image = oci.load_image(name).unwrap();
    image.manifest.layers.last().unwrap().digest.clone()
}

/// One line per rebuild: what ran, the layer it produced, and the counters
/// the contract names.
fn replay_lines(app: &'static str) -> String {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let side = lab.system_side();
    let mut text = String::new();
    for (mode, mode_name) in [(CacheMode::Source, "source"), (CacheMode::Ir, "ir")] {
        let (mut oci, ext) = lab.extended(app, mode);
        for (parallel, workers) in [(false, "serial"), (true, "parallel")] {
            let opts = RebuildOptions {
                parallel,
                artifact_cache: Some(ArtifactCache::new()),
                ..Default::default()
            };
            for run in ["cold", "warm"] {
                let (re, report) =
                    comtainer_rebuild_with_report(&mut oci, &ext, &side, &opts).unwrap();
                write!(
                    text,
                    "{app} {mode_name} {workers} {run} layer={}",
                    rebuild_layer_digest(&oci, &re)
                )
                .unwrap();
                for (name, value) in &report.counters {
                    let pinned = ["exec.", "cache.", "steps."]
                        .iter()
                        .any(|p| name.starts_with(p))
                        || name == "retarget.ir_hits";
                    if pinned {
                        write!(text, " {name}={value}").unwrap();
                    }
                }
                text.push('\n');
                if run == "warm" {
                    assert_eq!(report.counter("exec.compile"), 0, "{}", report.render());
                    assert_eq!(report.counter("exec.recodegen"), 0, "{}", report.render());
                }
            }
        }
    }
    text
}

#[test]
fn hpccg_replay_golden() {
    common::golden("replay_hpccg.txt", &replay_lines("hpccg"));
}

#[test]
fn comd_replay_golden() {
    common::golden("replay_comd.txt", &replay_lines("comd"));
}

#[test]
fn lulesh_replay_golden() {
    common::golden("replay_lulesh.txt", &replay_lines("lulesh"));
}

/// IR mode schedules its code generations like source-mode compiles: the
/// layer does not depend on the worker count.
#[test]
fn ir_mode_layer_is_independent_of_workers() {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let side = lab.system_side();
    let (mut oci, ext) = lab.extended("hpccg", CacheMode::Ir);
    let mut digests = Vec::new();
    for parallel in [false, true] {
        let opts = RebuildOptions {
            parallel,
            ..Default::default()
        };
        let (re, report) = comtainer_rebuild_with_report(&mut oci, &ext, &side, &opts).unwrap();
        assert!(report.counter("exec.recodegen") > 0, "{}", report.render());
        digests.push(rebuild_layer_digest(&oci, &re));
    }
    assert_eq!(digests[0], digests[1]);
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// The seeded write-write race of `tests/check_gate.rs`, moved onto the
/// object both steps emit: two compile steps write `/src/gen.o` with no
/// ordering edge between them.
fn racy_trace() -> BuildTrace {
    let compile = |src: &str| RawCommand {
        argv: argv(&format!("gcc -O2 -c {src} -o gen.o")),
        cwd: "/src".into(),
        env: vec![],
        inputs: vec![format!("/src/{src}")],
        outputs: vec!["/src/gen.o".into()],
    };
    BuildTrace {
        commands: vec![compile("main.c"), compile("util.c")],
    }
}

/// An extended image carrying [`racy_trace`].
fn racy_layout() -> OciDir {
    let mut sources = BTreeMap::new();
    sources.insert(
        "/src/main.c".to_string(),
        Bytes::from("#pragma comt provides(main)\n"),
    );
    sources.insert(
        "/src/util.c".to_string(),
        Bytes::from("#pragma comt provides(util)\n"),
    );
    let mut image = ImageModel::default();
    image
        .files
        .insert("/app/gen.o".into(), FileOrigin::Build("/src/gen.o".into()));
    let models = ProcessModels {
        image,
        graph: Default::default(),
        isa: "x86_64".into(),
        cache_mode: Default::default(),
        targets: vec![],
    };

    let mut store = BlobStore::new();
    let mut fs = Vfs::new();
    fs.write_file_p("/app/gen.o", Bytes::from_static(b"OBJ"), 0o644)
        .unwrap();
    let img = ImageBuilder::from_scratch("x86_64")
        .with_layer_from_fs(&Vfs::new(), &fs)
        .commit(&mut store)
        .unwrap();
    let mut oci = OciDir::new();
    oci.export("app.dist", img.manifest_digest, &store).unwrap();
    write_cache(&mut oci, "app.dist", &models, &racy_trace(), &sources).unwrap();
    oci
}

/// A serial rebuild replays in recorded order, unordered races included:
/// the later writer of `/src/gen.o` wins. A parallel rebuild merges in the
/// same order and agrees.
#[test]
fn serial_replay_keeps_the_later_writer() {
    // The hazard pass checks the segment the engine schedules and sees
    // the race.
    let hazards = comtainer_suite::analyze::hazards::check_hazards(&racy_trace());
    assert!(hazards.iter().any(|d| d.code == "COMT-E001"), "{hazards:?}");

    let side = SystemSide::native("x86_64", catalog::MINI_SCALE).unwrap();
    let mut oci = racy_layout();
    let mut objects = Vec::new();
    for parallel in [false, true] {
        let opts = RebuildOptions {
            parallel,
            artifact_cache: Some(ArtifactCache::new()),
            ..Default::default()
        };
        let (re, _) = comtainer_rebuild_with_report(&mut oci, "app.dist+coM", &side, &opts).unwrap();
        let rebuilt = load_rebuild(&oci, &re).unwrap();
        let obj = comtainer_suite::toolchain::artifact::read_object(&rebuilt["/app/gen.o"]).unwrap();
        objects.push(obj.defined);
    }
    assert_eq!(objects[0], vec!["util".to_string()], "serial replay: later writer wins");
    assert_eq!(objects[0], objects[1]);
}
