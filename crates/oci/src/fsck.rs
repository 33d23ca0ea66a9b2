//! `comt fsck` — diagnose and repair torn on-disk layouts.
//!
//! The commit protocol in [`crate::disk`] guarantees that a crash leaves
//! only a bounded set of artifacts; `fsck` enumerates exactly those, with
//! one stable code per failure shape (same `COMT-xxxx` discipline as
//! `comt check`):
//!
//! | code        | severity | meaning                                   | `--repair` action            |
//! |-------------|----------|-------------------------------------------|------------------------------|
//! | `COMT-F001` | error    | blob content does not hash to its name    | delete the corrupt blob      |
//! | `COMT-F002` | error    | ref whose closure is missing or corrupt   | drop the ref, commit index   |
//! | `COMT-F003` | warning  | orphan `.tmp.*` from an interrupted commit| delete the tmp file          |
//! | `COMT-F004` | error    | `index.json` missing or unparseable       | commit an empty index        |
//! | `COMT-F005` | warning  | foreign file in the blob directory        | delete it, with a dir's tree |
//! | `COMT-F006` | warning  | `oci-layout` marker missing or invalid    | rewrite the marker           |
//! | `COMT-F007` | error    | chunkmap disagrees with its stored layer  | quarantine map, drop entry   |
//!
//! Valid-but-unreachable blobs are *not* findings — that is garbage, not
//! damage, and `comt gc` owns it. Repair is conservative: it only ever
//! removes artifacts that can no longer serve a bit-correct pull, so a
//! repaired layout always loads and every surviving tag pulls exactly the
//! bytes that were originally published.
//!
//! `fsck` is a pass over [`DiskStore`]'s own primitives and touches no file
//! itself: the blob directory comes from the store's one walk
//! (`DiskStore::walk`, the one `OciDir::load` and gc read), the index
//! from its one reader, blob bytes through its handles. Every repair goes
//! through `disk.rs`: deletions and quarantine moves through
//! `disk::Repairs`, which fsyncs each directory it changed once before the
//! repaired index is committed, and the marker and index through the
//! commit protocol. A finding's severity is its code's row in
//! [`FSCK_CODES`].

use crate::backend::BlobBackend;
use crate::disk::{BlobEntry, DiskStore, LayoutLock, Repairs, FOREIGN_FILE, ORPHAN_TMP};
use crate::spec::{ImageIndex, MediaType};
use crate::store::{closure_of_manifest, StoreError};
use comt_digest::Digest;
use serde::Serialize;
use std::collections::BTreeSet;
use std::path::Path;

/// Finding severity. Only unrepaired `Error`s make a layout unservable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum FsckSeverity {
    #[serde(rename = "warning")]
    Warning,
    #[serde(rename = "error")]
    Error,
}

impl std::fmt::Display for FsckSeverity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckSeverity::Warning => write!(f, "warning"),
            FsckSeverity::Error => write!(f, "error"),
        }
    }
}

/// One diagnosed defect in a layout.
#[derive(Debug, Clone, Serialize)]
pub struct FsckFinding {
    pub code: &'static str,
    pub severity: FsckSeverity,
    /// Layout-relative path of the damaged artifact (or the ref name for
    /// `COMT-F002`).
    pub path: String,
    pub detail: String,
    /// Whether `--repair` fixed it in this run.
    pub repaired: bool,
}

/// Options for a fsck pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsckOptions {
    /// Repair findings in place (requires the layout lock either way; a
    /// scan of a layout being served fails fast with `Locked`).
    pub repair: bool,
}

/// The result of scanning (and optionally repairing) one layout.
#[derive(Debug, Clone, Serialize)]
pub struct FsckReport {
    pub root: String,
    pub blobs_scanned: usize,
    pub refs_checked: usize,
    pub findings: Vec<FsckFinding>,
}

impl FsckReport {
    /// Unrepaired error-severity findings — the exit-code signal.
    pub fn unrepaired_errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == FsckSeverity::Error && !f.repaired)
            .count()
    }

    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human rendering, one rustc-style line per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}[{}]: {} ({}){}\n",
                f.severity,
                f.code,
                f.detail,
                f.path,
                if f.repaired { " [repaired]" } else { "" },
            ));
        }
        let errors = self
            .findings
            .iter()
            .filter(|f| f.severity == FsckSeverity::Error)
            .count();
        let warnings = self.findings.len() - errors;
        let repaired = self.findings.iter().filter(|f| f.repaired).count();
        out.push_str(&format!(
            "fsck {}: {} blob(s), {} ref(s): {} error(s), {} warning(s), {} repaired\n",
            self.root, self.blobs_scanned, self.refs_checked, errors, warnings, repaired,
        ));
        out
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fsck report serializes")
    }
}

/// The findings of one pass and, under `--repair`, the repairs that fix
/// them.
struct Findings<'a> {
    list: Vec<FsckFinding>,
    repairs: Option<Repairs<'a>>,
}

impl<'a> Findings<'a> {
    /// Record a finding of `code`, with the severity [`FSCK_CODES`] gives
    /// it; under `--repair`, apply `fix` first.
    fn record(
        &mut self,
        code: &'static str,
        path: String,
        detail: String,
        fix: impl FnOnce(&mut Repairs<'a>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let repaired = match self.repairs.as_mut() {
            Some(repairs) => {
                fix(repairs)?;
                true
            }
            None => false,
        };
        self.list.push(FsckFinding {
            code,
            severity: row(code).0,
            path,
            detail,
            repaired,
        });
        Ok(())
    }
}

/// Scan a layout for torn/corrupt state, optionally repairing it.
///
/// Always runs under the layout lock: a concurrent `comt serve` or `gc
/// --apply` would make in-flight tmp files look like damage, so contention
/// is surfaced as [`StoreError::Locked`] instead of a false report.
pub fn fsck(dir: &Path, opts: &FsckOptions) -> Result<FsckReport, StoreError> {
    let store = DiskStore::open(dir)?;
    let _lock = LayoutLock::acquire(dir)?;
    let mut findings = Findings {
        list: Vec::new(),
        repairs: opts.repair.then(|| Repairs::new(&store)),
    };

    // Pass 1: the oci-layout version marker.
    if !store.has_marker() {
        findings.record(
            "COMT-F006",
            "oci-layout".into(),
            row("COMT-F006").1.into(),
            |_| Ok(store.write_marker()?),
        )?;
    }

    // Pass 2: the blob directory. Build the set of digests whose content
    // verifies; everything else is a finding.
    let mut valid: BTreeSet<Digest> = BTreeSet::new();
    let entries = store.walk()?;
    for entry in &entries {
        let path = format!("blobs/sha256/{}", entry.name());
        let (code, detail) = match entry {
            BlobEntry::Tmp(_) => ("COMT-F003", ORPHAN_TMP.to_string()),
            BlobEntry::Foreign(_) => ("COMT-F005", FOREIGN_FILE.to_string()),
            BlobEntry::Blob { digest, len } => {
                // Streaming digest check: a multi-GiB layer is hashed in
                // bounded chunks, never materialized.
                let checked = match store.handle(digest) {
                    Some(handle) => handle.stream_verified(digest),
                    None => Err(StoreError::MissingBlob(digest.to_string())),
                };
                match checked {
                    Ok(_) => {
                        valid.insert(*digest);
                        continue;
                    }
                    Err(StoreError::DigestMismatch(_)) => (
                        "COMT-F001",
                        format!(
                            "{} (torn or corrupt write, {len} bytes)",
                            row("COMT-F001").1
                        ),
                    ),
                    Err(other) => ("COMT-F001", format!("blob unreadable: {other}")),
                }
            }
        };
        findings.record(code, path, detail, |r| r.remove(entry))?;
    }

    // Pass 3: the index and every ref's closure.
    let mut refs_checked = 0usize;
    let mut next_index = None;
    let index = match store.parse_index() {
        Ok(index) => index,
        Err(StoreError::Torn { detail, .. }) => {
            findings.record("COMT-F004", "index.json".into(), detail, |_| {
                next_index = Some(ImageIndex::default());
                Ok(())
            })?;
            ImageIndex::default()
        }
        Err(e) => return Err(e),
    };
    // Bytes of a blob pass 2 verified, read without hashing them again.
    let read = |d: &Digest| {
        let handle = store
            .handle(d)
            .ok_or_else(|| StoreError::MissingBlob(d.to_string()))?;
        handle.read_range(0, handle.len())
    };
    let mut kept = index.clone();
    for desc in &index.manifests {
        if desc.media_type == MediaType::Chunkmap {
            continue; // not a ref; validated in pass 4 below
        }
        refs_checked += 1;
        let name = desc
            .ref_name()
            .map(String::from)
            .unwrap_or_else(|| format!("(unnamed {})", desc.digest));
        let broken: Option<String> = match desc.parsed_digest() {
            Err(e) => Some(format!("unparseable manifest digest: {e}")),
            Ok(md) if !valid.contains(&md) => {
                Some(format!("manifest blob {md} is missing or corrupt"))
            }
            // Manifest blob verified in pass 2; walk its closure.
            Ok(md) => match read(&md) {
                Ok(raw) => match closure_of_manifest(&raw, &md) {
                    Err(e) => Some(format!("manifest does not parse: {e}")),
                    Ok(closure) => closure
                        .iter()
                        .find(|d| !valid.contains(d))
                        .map(|d| format!("closure blob {d} is missing or corrupt")),
                },
                Err(_) => Some(format!("manifest blob {md} is missing or corrupt")),
            },
        };
        if let Some(why) = broken {
            let detail = format!("ref cannot serve a complete image: {why}");
            findings.record("COMT-F002", name, detail, |_| {
                match desc.ref_name() {
                    Some(n) => {
                        kept.remove_ref(n);
                    }
                    None => kept.manifests.retain(|d| d != desc),
                }
                Ok(())
            })?;
        }
    }

    // Pass 4: chunkmap entries. A chunkmap must parse, name a layer that
    // exists, and agree with the stored layer bytes offset-for-offset and
    // digest-for-digest — a stale or tampered map would make delta pulls
    // assemble garbage (caught client-side, but every such pull fails).
    // Repair quarantines the map blob (moved aside, not destroyed) and
    // drops the association; the layer itself is untouched and full-blob
    // pulls keep working.
    for desc in index.chunkmap_entries() {
        let checked = (|| -> Result<(), String> {
            let layer = desc
                .chunkmap_layer()
                .ok_or("chunkmap entry has no layer annotation")?;
            let md = desc
                .parsed_digest()
                .map_err(|_| format!("unparseable chunkmap digest {}", desc.digest))?;
            if !valid.contains(&md) {
                return Err(format!("chunkmap blob {md} is missing or corrupt"));
            }
            if !valid.contains(&layer) {
                return Err(format!("described layer {layer} is missing or corrupt"));
            }
            let raw = read(&md).map_err(|e| format!("chunkmap blob unreadable: {e}"))?;
            let map = comt_chunk::ChunkMap::from_json(&raw).map_err(|e| e.to_string())?;
            if map.parsed_blob_digest().ok() != Some(layer) {
                return Err(format!(
                    "chunkmap describes {} but is recorded for layer {layer}",
                    map.blob_digest
                ));
            }
            let layer_bytes = read(&layer).map_err(|e| format!("layer blob unreadable: {e}"))?;
            map.verify_layer(&layer_bytes).map_err(|e| e.to_string())
        })();
        if let Err(why) = checked {
            let path = format!("chunkmap {}", desc.digest);
            let detail = format!("{}: {why}", row("COMT-F007").1);
            findings.record("COMT-F007", path, detail, |r| {
                if let Ok(md) = desc.parsed_digest() {
                    r.quarantine(&md)?;
                }
                kept.manifests.retain(|d| d != desc);
                Ok(())
            })?;
        }
    }

    if kept != index {
        next_index = Some(kept);
    }
    if let Some(repairs) = findings.repairs {
        repairs.finish(next_index.as_ref())?;
    }
    let mut findings = findings.list;
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.path.cmp(&b.path))
    });
    Ok(FsckReport {
        root: dir.display().to_string(),
        blobs_scanned: entries.len(),
        refs_checked,
        findings,
    })
}

/// Stable fsck code table (code, severity, title) — mirrored into the
/// `comt-analyze` explain registry so `comt check --explain COMT-F001`
/// works from the CLI. A finding's severity is read from here.
pub const FSCK_CODES: &[(&str, &str, &str)] = &[
    (
        "COMT-F001",
        "error",
        "blob content does not hash to its name",
    ),
    (
        "COMT-F002",
        "error",
        "ref whose manifest closure is missing or corrupt",
    ),
    ("COMT-F003", "warning", ORPHAN_TMP),
    ("COMT-F004", "error", "index.json missing or unparseable"),
    ("COMT-F005", "warning", FOREIGN_FILE),
    (
        "COMT-F006",
        "warning",
        "oci-layout version marker missing or invalid",
    ),
    (
        "COMT-F007",
        "error",
        "chunkmap disagrees with its stored layer",
    ),
];

/// A code's severity and title: its row in [`FSCK_CODES`].
fn row(code: &str) -> (FsckSeverity, &'static str) {
    let (_, severity, title) = FSCK_CODES
        .iter()
        .find(|(c, _, _)| *c == code)
        .expect("every emitted code is in FSCK_CODES");
    let severity = match *severity {
        "error" => FsckSeverity::Error,
        _ => FsckSeverity::Warning,
    };
    (severity, title)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::OciDir;
    use crate::store::BlobStore;
    use crate::ImageBuilder;
    use bytes::Bytes;
    use comt_vfs::Vfs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_layout(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "comt-fsck-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn saved_layout(tag: &str) -> (PathBuf, Digest) {
        let mut store = BlobStore::new();
        let mut fs = Vfs::new();
        fs.write_file_p("/app/bin", Bytes::from_static(b"ELF"), 0o755)
            .unwrap();
        let md = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(&mut store)
            .unwrap()
            .manifest_digest;
        let mut oci = OciDir::new();
        oci.export("app.dist+coM", md, &store).unwrap();
        let dir = tmp_layout(tag);
        oci.save(&dir).unwrap();
        (dir, md)
    }

    #[test]
    fn clean_layout_is_clean() {
        let (dir, _) = saved_layout("clean");
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.refs_checked, 1);
        assert_eq!(report.blobs_scanned, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diagnoses_and_repairs_each_damage_shape() {
        let (dir, md) = saved_layout("damage");
        let blobs = dir.join("blobs").join("sha256");
        // F003: orphan tmp file.
        std::fs::write(blobs.join(".tmp.9999-0"), b"partial").unwrap();
        // F005: foreign file.
        std::fs::write(blobs.join("README"), b"not a blob").unwrap();
        // F001: corrupt a non-manifest blob (the manifest stays valid so
        // the ref is broken only through its closure).
        let config_digest = {
            let raw = std::fs::read(blobs.join(md.hex())).unwrap();
            let m: crate::spec::ImageManifest = serde_json::from_slice(&raw).unwrap();
            m.config.parsed_digest().unwrap()
        };
        std::fs::write(blobs.join(config_digest.hex()), b"torn write").unwrap();

        // Loading refuses the torn state outright.
        assert!(OciDir::load(&dir).is_err());

        // Scan-only: all four findings (F001 + F002-from-F001 + F003 + F005).
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
        assert_eq!(
            codes,
            vec!["COMT-F001", "COMT-F002", "COMT-F003", "COMT-F005"],
            "{}",
            report.render_human()
        );
        assert_eq!(report.unrepaired_errors(), 2);
        assert!(report.findings.iter().all(|f| !f.repaired));
        // Scanning changed nothing.
        assert!(blobs.join("README").exists());

        // Repair: everything fixed, layout loads again (ref dropped).
        let report = fsck(&dir, &FsckOptions { repair: true }).unwrap();
        assert!(report.findings.iter().all(|f| f.repaired));
        assert_eq!(report.unrepaired_errors(), 0);
        let clean = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(clean.is_clean(), "{}", clean.render_human());
        let back = OciDir::load(&dir).unwrap();
        assert!(back.index.ref_names().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_removes_a_foreign_directory_tree() {
        let (dir, _) = saved_layout("foreign-dir");
        let blobs = dir.join("blobs").join("sha256");
        // A directory under a digest's name holding a tree, and a symlink
        // to a directory outside the layout.
        let tree = blobs.join("0".repeat(64));
        std::fs::create_dir_all(tree.join("nested")).unwrap();
        std::fs::write(tree.join("nested").join("file"), b"x").unwrap();
        let outside = tmp_layout("foreign-dir-target");
        std::fs::create_dir_all(&outside).unwrap();
        std::fs::write(outside.join("kept"), b"kept").unwrap();
        std::os::unix::fs::symlink(&outside, blobs.join("link")).unwrap();
        assert!(OciDir::load(&dir).is_err());

        let report = fsck(&dir, &FsckOptions { repair: true }).unwrap();
        let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
        assert_eq!(
            codes,
            ["COMT-F005", "COMT-F005"],
            "{}",
            report.render_human()
        );
        assert!(report.findings.iter().all(|f| f.repaired));
        assert!(!tree.exists());
        assert!(std::fs::symlink_metadata(blobs.join("link")).is_err());
        assert!(
            outside.join("kept").is_file(),
            "the repair followed the symlink"
        );
        let clean = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(clean.is_clean(), "{}", clean.render_human());
        assert_eq!(OciDir::load(&dir).unwrap().index.ref_names().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&outside).unwrap();
    }

    #[test]
    fn torn_index_is_f004_and_repairable() {
        let (dir, _) = saved_layout("index");
        let full = std::fs::read(dir.join("index.json")).unwrap();
        std::fs::write(dir.join("index.json"), &full[..full.len() / 2]).unwrap();

        assert!(OciDir::load(&dir).is_err());
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].code, "COMT-F004");
        assert_eq!(report.unrepaired_errors(), 1);

        let report = fsck(&dir, &FsckOptions { repair: true }).unwrap();
        assert!(report.findings[0].repaired);
        let back = OciDir::load(&dir).unwrap();
        assert!(back.index.ref_names().is_empty());
        // Blobs survive for gc to reclaim; fsck does not touch valid data.
        assert_eq!(back.blobs.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_chunkmap_is_f007_and_quarantined() {
        use crate::disk::DiskRegistry;

        let (dir, md) = saved_layout("chunkmap");
        let layer = {
            let raw = std::fs::read(dir.join("blobs").join("sha256").join(md.hex())).unwrap();
            let m: crate::spec::ImageManifest = serde_json::from_slice(&raw).unwrap();
            m.layers[0].parsed_digest().unwrap()
        };
        // Record a chunkmap that is structurally fine and names the right
        // layer, but whose chunk digests describe different bytes — the
        // shape a stale map takes after a layer blob is regenerated.
        let map_digest = {
            let mut reg = DiskRegistry::open(&dir).unwrap();
            let layer_bytes = reg.store().read_blob(&layer).unwrap().unwrap();
            let mut map =
                comt_chunk::ChunkMap::build(&layer_bytes, comt_chunk::ChunkParams::default())
                    .unwrap();
            map.chunks[0].digest = Digest::of(b"bytes from another life").to_oci_string();
            reg.put_chunkmap(layer, crate::Verified::hash(map.to_json())).unwrap()
        };

        // Scan-only: exactly one F007, nothing touched.
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, vec!["COMT-F007"], "{}", report.render_human());
        assert_eq!(report.unrepaired_errors(), 1);

        // Repair: map quarantined (preserved, not destroyed), association
        // dropped, layout clean, and the image still pulls bit-correctly.
        let report = fsck(&dir, &FsckOptions { repair: true }).unwrap();
        assert!(report.findings.iter().all(|f| f.repaired));
        assert!(dir.join("quarantine").join(map_digest.hex()).is_file());
        assert!(!dir
            .join("blobs")
            .join("sha256")
            .join(map_digest.hex())
            .exists());
        let clean = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(clean.is_clean(), "{}", clean.render_human());
        let back = OciDir::load(&dir).unwrap();
        assert!(back.index.chunkmap_entries().next().is_none());
        assert!(back.load_image("app.dist+coM").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn valid_chunkmap_is_not_a_finding() {
        use crate::disk::DiskRegistry;

        let (dir, md) = saved_layout("chunkmap-ok");
        let layer = {
            let raw = std::fs::read(dir.join("blobs").join("sha256").join(md.hex())).unwrap();
            let m: crate::spec::ImageManifest = serde_json::from_slice(&raw).unwrap();
            m.layers[0].parsed_digest().unwrap()
        };
        {
            let mut reg = DiskRegistry::open(&dir).unwrap();
            let layer_bytes = reg.store().read_blob(&layer).unwrap().unwrap();
            let map =
                comt_chunk::ChunkMap::build(&layer_bytes, comt_chunk::ChunkParams::default())
                    .unwrap();
            reg.put_chunkmap(layer, crate::Verified::hash(map.to_json())).unwrap();
        }
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render_human());
        // The chunkmap descriptor is not counted as a ref.
        assert_eq!(report.refs_checked, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_report_is_stable_shape() {
        let (dir, _) = saved_layout("json");
        std::fs::write(
            dir.join("blobs").join("sha256").join(".tmp.1-2"),
            b"x",
        )
        .unwrap();
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        let json = report.to_json();
        // Round-trips through the JSON parser and carries the stable keys.
        serde_json::parse_value(&json).unwrap();
        for key in [
            "\"code\": \"COMT-F003\"",
            "\"severity\": \"warning\"",
            "\"repaired\": false",
            "\"blobs_scanned\": 4",
            "\"refs_checked\": 1",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
