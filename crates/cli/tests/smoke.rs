//! Smoke tests that drive the built `comt` binary end to end.
//!
//! `fsck_fails_on_a_torn_layout_repairs_it_and_passes_after` tears a saved
//! layout the way a crashed writer plus bit rot leaves it (an orphan
//! `.tmp.*` file and a truncated blob), checks that `comt fsck` fails on
//! it naming both faults, repairs it, and passes afterwards. The JSON
//! reports are kept under `$CARGO_TARGET_TMPDIR/fsck-reports/`.

use bytes::Bytes;
use comt_oci::layout::OciDir;
use comt_oci::ImageBuilder;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn comt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_comt"))
        .args(args)
        .output()
        .expect("the comt binary starts")
}

/// Run `comt fsck <dir> --format json`, keep the report as `reports/<name>`
/// and return (exit success, report text).
fn fsck_json(dir: &Path, reports: &Path, name: &str) -> (bool, String) {
    let out = comt(&["fsck", dir.to_str().unwrap(), "--format", "json"]);
    let json = String::from_utf8(out.stdout).unwrap();
    std::fs::write(reports.join(name), &json).unwrap();
    (out.status.success(), json)
}

#[test]
fn fsck_fails_on_a_torn_layout_repairs_it_and_passes_after() {
    let dir = scratch("fsck-layout.oci");
    let reports = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fsck-reports");
    std::fs::create_dir_all(&reports).unwrap();

    let mut oci = OciDir::new();
    let image = ImageBuilder::from_scratch("x86_64")
        .with_layer_tar(Bytes::from_static(b"app layer tar bytes"), "layer one")
        .with_layer_tar(Bytes::from_static(b"lib layer tar bytes"), "layer two")
        .commit(&mut oci.blobs)
        .unwrap();
    oci.tag("app.dist", image.manifest_digest).unwrap();
    oci.save(&dir).unwrap();

    // An in-flight commit's tmp file, and the first blob cut to 10 bytes.
    let blobs = dir.join("blobs").join("sha256");
    std::fs::write(blobs.join(".tmp.12345-0"), b"in-flight bytes\n").unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&blobs)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| !n.starts_with('.'))
        .collect();
    names.sort();
    let first = std::fs::OpenOptions::new()
        .write(true)
        .open(blobs.join(&names[0]))
        .unwrap();
    first.set_len(10).unwrap();
    drop(first);

    let (ok, torn) = fsck_json(&dir, &reports, "torn.json");
    assert!(!ok, "fsck accepted a torn layout:\n{torn}");
    for code in ["COMT-F001", "COMT-F003"] {
        assert!(torn.contains(&format!("\"code\": \"{code}\"")), "{code} missing:\n{torn}");
    }

    let repair = comt(&["fsck", dir.to_str().unwrap(), "--repair"]);
    assert!(
        repair.status.success(),
        "fsck --repair failed:\n{}{}",
        String::from_utf8_lossy(&repair.stdout),
        String::from_utf8_lossy(&repair.stderr)
    );

    let (ok, repaired) = fsck_json(&dir, &reports, "repaired.json");
    assert!(ok, "fsck failed after --repair:\n{repaired}");
    OciDir::load(&dir).expect("a repaired layout loads");
    std::fs::remove_dir_all(&dir).unwrap();
}
