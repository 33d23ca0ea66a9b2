//! Integration: the static verifier as a rebuild gate.
//!
//! Seeds an extended image whose recorded trace contains an unordered
//! write-write pair (two compile steps emitting the same scratch file with
//! no dependency edge between them) plus a `-march=native` invocation,
//! and proves:
//!
//! * `comt_analyze::rebuild_checked` (the `comt rebuild --check` gate)
//!   refuses the racy model with a COMT-E001 finding;
//! * adding the missing edge (declaring the scratch file as an input of
//!   the second step) makes the same gate rebuild successfully, with the
//!   portability warning still reported but not blocking;
//! * a site-modified image whose extra layer whiteouts a replay input is
//!   flagged COMT-E101 by the layer pass.

use bytes::Bytes;
use comt_buildsys::{BuildTrace, RawCommand};
use comt_oci::layout::OciDir;
use comt_oci::{BlobStore, ImageBuilder};
use comt_tar::Entry;
use comt_vfs::Vfs;
use comtainer::cache::write_cache;
use comtainer::{FileOrigin, ImageModel, ProcessModels, RebuildOptions, SystemSide};
use std::collections::BTreeMap;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Two compile steps that both write `/src/gen.tmp`. With `fixed` the
/// second step declares the scratch file as an input, which gives the
/// scheduler (and the hazard pass) the ordering edge; without it the pair
/// is an unordered write-write race.
fn trace(fixed: bool) -> BuildTrace {
    let mut util_inputs = vec!["/src/util.c".to_string()];
    if fixed {
        util_inputs.push("/src/gen.tmp".to_string());
    }
    BuildTrace {
        commands: vec![
            RawCommand {
                argv: argv("apt-get install -y libopenblas0"),
                cwd: "/".into(),
                env: vec![],
                inputs: vec![],
                outputs: vec![],
            },
            RawCommand {
                argv: argv("gcc -O2 -march=native -c main.c -o main.o"),
                cwd: "/src".into(),
                env: vec![],
                inputs: vec!["/src/main.c".into()],
                outputs: vec!["/src/main.o".into(), "/src/gen.tmp".into()],
            },
            RawCommand {
                argv: argv("gcc -O2 -c util.c -o util.o"),
                cwd: "/src".into(),
                env: vec![],
                inputs: util_inputs,
                outputs: vec!["/src/util.o".into(), "/src/gen.tmp".into()],
            },
            RawCommand {
                argv: argv("gcc main.o util.o -lopenblas -lm -o app"),
                cwd: "/src".into(),
                env: vec![],
                inputs: vec!["/src/main.o".into(), "/src/util.o".into()],
                outputs: vec!["/src/app".into()],
            },
        ],
    }
}

fn sources() -> BTreeMap<String, Bytes> {
    let mut sources = BTreeMap::new();
    sources.insert(
        "/src/main.c".to_string(),
        Bytes::from(
            "#pragma comt provides(main)\n#pragma comt requires(util)\n\
             #pragma comt extern(openblas:dgemm, m:sqrt)\n",
        ),
    );
    sources.insert(
        "/src/util.c".to_string(),
        Bytes::from("#pragma comt provides(util)\n"),
    );
    sources
}

fn models() -> ProcessModels {
    let mut image = ImageModel::default();
    image
        .files
        .insert("/app/run".into(), FileOrigin::Build("/src/app".into()));
    image.runtime_deps = vec![("libopenblas0".into(), "0.3.26+ds-1".into())];
    ProcessModels {
        image,
        graph: Default::default(),
        isa: "x86_64".into(),
        cache_mode: Default::default(),
        targets: vec![],
    }
}

/// An on-layout extended image carrying the given trace.
fn extended_layout(fixed: bool) -> OciDir {
    let mut store = BlobStore::new();
    let mut fs = Vfs::new();
    fs.write_file_p("/app/run", Bytes::from_static(b"BIN"), 0o755)
        .unwrap();
    let img = ImageBuilder::from_scratch("x86_64")
        .with_layer_from_fs(&Vfs::new(), &fs)
        .commit(&mut store)
        .unwrap();
    let mut oci = OciDir::new();
    oci.export("app.dist", img.manifest_digest, &store).unwrap();
    let new_ref = write_cache(&mut oci, "app.dist", &models(), &trace(fixed), &sources()).unwrap();
    assert_eq!(new_ref, "app.dist+coM");
    oci
}

fn side() -> SystemSide {
    SystemSide::native("x86_64", comt_pkg::catalog::MINI_SCALE).unwrap()
}

#[test]
fn check_gate_blocks_seeded_race() {
    let mut oci = extended_layout(false);
    let side = side();

    // The verifier sees the unordered write-write pair…
    let report =
        comt_analyze::check_for_side(&oci, "app.dist+coM", &side).unwrap();
    assert!(report.has_errors());
    assert!(report.diagnostics.iter().any(|d| d.code == "COMT-E001"));
    // …and the portability lint rides along as a warning.
    assert!(report.diagnostics.iter().any(|d| d.code == "COMT-W001"));
    // Both codes surface in the machine-readable output.
    let json = report.to_json();
    assert!(json.contains("\"COMT-E001\""), "{json}");
    assert!(json.contains("\"COMT-W001\""), "{json}");
    assert!(json.contains("\"/src/gen.tmp\""), "{json}");

    // The gate refuses to spend any rebuild time on the racy model.
    let err = comt_analyze::rebuild_checked(&mut oci, "app.dist+coM", &side, &RebuildOptions::default())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("COMT-E001"), "{msg}");
    assert!(msg.contains("refusing to rebuild"), "{msg}");
    // Nothing was rebuilt.
    assert!(oci.index.find_ref("app.dist+coMre").is_none());
}

#[test]
fn check_gate_passes_after_adding_edge() {
    let mut oci = extended_layout(true);
    let side = side();

    let (new_ref, report) =
        comt_analyze::rebuild_checked(&mut oci, "app.dist+coM", &side, &RebuildOptions::default())
            .unwrap();
    assert_eq!(new_ref, "app.dist+coMre");
    assert!(oci.index.find_ref("app.dist+coMre").is_some());

    // The race is gone but the -march=native warning still reports —
    // warnings inform, they do not block.
    assert!(!report.has_errors());
    assert!(report.diagnostics.iter().any(|d| d.code == "COMT-W001"));
    assert!(report.diagnostics.iter().all(|d| d.code != "COMT-E001"));

    // The rebuilt artifact actually landed in the rebuild layer.
    let artifacts = comtainer::cache::load_rebuild(&oci, "app.dist+coMre").unwrap();
    assert!(artifacts.contains_key("/app/run"));
}

#[test]
fn whiteout_shadowing_replay_input_is_flagged() {
    let mut oci = extended_layout(true);

    // A downstream site appends a "cleanup" layer whiteing out /src/main.c
    // — a path the recorded rebuild reads — through the public OCI APIs.
    let image = oci.load_image("app.dist+coM").unwrap();
    let whiteout = Entry::file("src/.wh.main.c", Bytes::new(), 0o644);
    let site = ImageBuilder::from_base(&oci.blobs, &image)
        .unwrap()
        .with_layer_entries(vec![whiteout], "site cleanup")
        .commit(&mut oci.blobs)
        .unwrap();
    oci.tag("app.dist+site", site.manifest_digest).unwrap();

    let side = side();
    let report = comt_analyze::check_for_side(&oci, "app.dist+site", &side).unwrap();
    let e101: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "COMT-E101")
        .collect();
    assert!(!e101.is_empty(), "{}", report.render_human());
    assert_eq!(e101[0].span.file.as_deref(), Some("/src/main.c"));
    assert!(report.has_errors());
    assert!(report.to_json().contains("\"COMT-E101\""));

    // The untouched extended image in the same layout still checks clean
    // of layer errors.
    let clean = comt_analyze::check_for_side(&oci, "app.dist+coM", &side).unwrap();
    assert!(!clean.has_errors(), "{}", clean.render_human());
}
