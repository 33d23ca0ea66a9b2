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
//! | `COMT-F005` | warning  | foreign file in the blob directory        | delete the file              |
//! | `COMT-F006` | warning  | `oci-layout` marker missing or invalid    | rewrite the marker           |
//! | `COMT-F007` | error    | chunkmap disagrees with its stored layer  | quarantine map, drop entry   |
//!
//! Valid-but-unreachable blobs are *not* findings — that is garbage, not
//! damage, and `comt gc` owns it. Repair is conservative: it only ever
//! removes artifacts that can no longer serve a bit-correct pull, so a
//! repaired layout always loads and every surviving tag pulls exactly the
//! bytes that were originally published.

use crate::disk::{commit_file, DiskStore, LayoutLock, OCI_LAYOUT_MARKER, TMP_PREFIX};
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

/// Scan a layout for torn/corrupt state, optionally repairing it.
///
/// Always runs under the layout lock: a concurrent `comt serve` or `gc
/// --apply` would make in-flight tmp files look like damage, so contention
/// is surfaced as [`StoreError::Locked`] instead of a false report.
pub fn fsck(dir: &Path, opts: &FsckOptions) -> Result<FsckReport, StoreError> {
    if !dir.join("index.json").is_file() && !dir.join("blobs").is_dir() {
        return Err(StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("not an OCI layout: {}", dir.display()),
        )));
    }
    let _lock = LayoutLock::acquire(dir)?;
    let store = DiskStore::open(dir)?;
    let mut findings = Vec::new();
    let rel = |p: &Path| {
        p.strip_prefix(dir)
            .unwrap_or(p)
            .display()
            .to_string()
    };

    // Pass 1: the oci-layout version marker.
    let marker = dir.join("oci-layout");
    let marker_ok = std::fs::read_to_string(&marker)
        .ok()
        .and_then(|raw| serde_json::parse_value(&raw).ok())
        .and_then(|v| {
            v.as_object()
                .map(|o| o.iter().any(|(k, _)| k == "imageLayoutVersion"))
        })
        .unwrap_or(false);
    if !marker_ok {
        let mut repaired = false;
        if opts.repair {
            commit_file(&marker, OCI_LAYOUT_MARKER)?;
            repaired = true;
        }
        findings.push(FsckFinding {
            code: "COMT-F006",
            severity: FsckSeverity::Warning,
            path: rel(&marker),
            detail: "oci-layout version marker is missing or invalid".into(),
            repaired,
        });
    }

    // Pass 2: the blob directory. Build the set of digests whose content
    // verifies; everything else is a finding.
    let blobs_dir = store.blobs_dir();
    let mut valid: BTreeSet<Digest> = BTreeSet::new();
    let mut blobs_scanned = 0usize;
    if blobs_dir.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&blobs_dir)?
            .collect::<Result<Vec<_>, _>>()?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            blobs_scanned += 1;
            if name.starts_with(TMP_PREFIX) {
                let mut repaired = false;
                if opts.repair {
                    std::fs::remove_file(&path)?;
                    repaired = true;
                }
                findings.push(FsckFinding {
                    code: "COMT-F003",
                    severity: FsckSeverity::Warning,
                    path: rel(&path),
                    detail: "orphan temp file from an interrupted commit".into(),
                    repaired,
                });
                continue;
            }
            let Ok(digest) = format!("sha256:{name}").parse::<Digest>() else {
                let mut repaired = false;
                if opts.repair {
                    std::fs::remove_file(&path)?;
                    repaired = true;
                }
                findings.push(FsckFinding {
                    code: "COMT-F005",
                    severity: FsckSeverity::Warning,
                    path: rel(&path),
                    detail: "foreign file in the blob directory".into(),
                    repaired,
                });
                continue;
            };
            // Streaming digest check: a multi-GiB layer is hashed in
            // bounded chunks, never materialized (see
            // `BlobHandle::stream_verified`).
            let handle = crate::backend::BlobHandle::File {
                path: path.clone(),
                len: entry.metadata()?.len(),
            };
            match handle.stream_verified(&digest) {
                Ok(_) => {
                    valid.insert(digest);
                }
                Err(e) => {
                    let mut repaired = false;
                    if opts.repair {
                        std::fs::remove_file(&path)?;
                        repaired = true;
                    }
                    let size = handle.len();
                    let detail = match e {
                        StoreError::DigestMismatch(_) => format!(
                            "blob content does not hash to its name (torn or corrupt write, {size} bytes)"
                        ),
                        other => format!("blob unreadable: {other}"),
                    };
                    findings.push(FsckFinding {
                        code: "COMT-F001",
                        severity: FsckSeverity::Error,
                        path: rel(&path),
                        detail,
                        repaired,
                    });
                    continue;
                }
            }
        }
    }

    // Pass 3: the index and every ref's closure.
    let mut refs_checked = 0usize;
    let index_path = dir.join("index.json");
    let index: Option<ImageIndex> = match std::fs::read(&index_path) {
        Ok(raw) => match serde_json::from_slice(&raw) {
            Ok(idx) => Some(idx),
            Err(e) => {
                let mut repaired = false;
                if opts.repair {
                    store.commit_index(&ImageIndex::default())?;
                    repaired = true;
                }
                findings.push(FsckFinding {
                    code: "COMT-F004",
                    severity: FsckSeverity::Error,
                    path: rel(&index_path),
                    detail: format!(
                        "index.json does not parse ({e}); its tags cannot be recovered"
                    ),
                    repaired,
                });
                if repaired {
                    Some(ImageIndex::default())
                } else {
                    None
                }
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let mut repaired = false;
            if opts.repair {
                store.commit_index(&ImageIndex::default())?;
                repaired = true;
            }
            findings.push(FsckFinding {
                code: "COMT-F004",
                severity: FsckSeverity::Error,
                path: rel(&index_path),
                detail: "index.json is missing".into(),
                repaired,
            });
            if repaired {
                Some(ImageIndex::default())
            } else {
                None
            }
        }
        Err(e) => return Err(e.into()),
    };

    if let Some(index) = index {
        let mut kept = index.clone();
        let mut dropped_any = false;
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
                Ok(md) => {
                    // Manifest blob verified in pass 2; walk its closure.
                    let raw = std::fs::read(store.blob_path(&md))?;
                    match closure_of_manifest(&raw, &md) {
                        Err(e) => Some(format!("manifest does not parse: {e}")),
                        Ok(closure) => closure
                            .iter()
                            .find(|d| !valid.contains(d))
                            .map(|d| format!("closure blob {d} is missing or corrupt")),
                    }
                }
            };
            if let Some(why) = broken {
                let mut repaired = false;
                if opts.repair {
                    if let Some(n) = desc.ref_name() {
                        kept.remove_ref(n);
                    } else {
                        kept.manifests.retain(|d| d != desc);
                    }
                    dropped_any = true;
                    repaired = true;
                }
                findings.push(FsckFinding {
                    code: "COMT-F002",
                    severity: FsckSeverity::Error,
                    path: name,
                    detail: format!("ref cannot serve a complete image: {why}"),
                    repaired,
                });
            }
        }
        // Pass 4: chunkmap entries. A chunkmap must parse, name a layer
        // that exists, and agree with the stored layer bytes offset-for-
        // offset and digest-for-digest — a stale or tampered map would make
        // delta pulls assemble garbage (caught client-side, but every such
        // pull fails). Repair quarantines the map blob (moved aside, not
        // destroyed) and drops the association; the layer itself is
        // untouched and full-blob pulls keep working.
        for desc in index.chunkmap_entries() {
            let path_label = format!("chunkmap {}", desc.digest);
            let broken: Option<String> = (|| {
                let Some(layer) = desc.chunkmap_layer() else {
                    return Some("chunkmap entry has no layer annotation".to_string());
                };
                let Ok(md) = desc.parsed_digest() else {
                    return Some(format!("unparseable chunkmap digest {}", desc.digest));
                };
                if !valid.contains(&md) {
                    return Some(format!("chunkmap blob {md} is missing or corrupt"));
                }
                if !valid.contains(&layer) {
                    return Some(format!("described layer {layer} is missing or corrupt"));
                }
                let raw = match std::fs::read(store.blob_path(&md)) {
                    Ok(r) => r,
                    Err(e) => return Some(format!("chunkmap blob unreadable: {e}")),
                };
                let map = match comt_chunk::ChunkMap::from_json(&raw) {
                    Ok(m) => m,
                    Err(e) => return Some(format!("{e}")),
                };
                if map.parsed_blob_digest().ok() != Some(layer) {
                    return Some(format!(
                        "chunkmap describes {} but is recorded for layer {layer}",
                        map.blob_digest
                    ));
                }
                let layer_bytes = match std::fs::read(store.blob_path(&layer)) {
                    Ok(r) => r,
                    Err(e) => return Some(format!("layer blob unreadable: {e}")),
                };
                map.verify_layer(&layer_bytes).err().map(|e| format!("{e}"))
            })();
            if let Some(why) = broken {
                let mut repaired = false;
                if opts.repair {
                    if let Ok(md) = desc.parsed_digest() {
                        let blob_path = store.blob_path(&md);
                        if blob_path.is_file() {
                            let qdir = dir.join("quarantine");
                            std::fs::create_dir_all(&qdir)?;
                            std::fs::rename(&blob_path, qdir.join(md.hex()))?;
                        }
                    }
                    kept.manifests.retain(|d| d != desc);
                    dropped_any = true;
                    repaired = true;
                }
                findings.push(FsckFinding {
                    code: "COMT-F007",
                    severity: FsckSeverity::Error,
                    path: path_label,
                    detail: format!("chunkmap disagrees with its stored layer: {why}"),
                    repaired,
                });
            }
        }
        if dropped_any {
            store.commit_index(&kept)?;
        }
    }

    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.path.cmp(&b.path))
    });
    Ok(FsckReport {
        root: dir.display().to_string(),
        blobs_scanned,
        refs_checked,
        findings,
    })
}

/// Stable fsck code table (code, severity, title) — mirrored into the
/// `comt-analyze` explain registry so `comt check --explain COMT-F001`
/// works from the CLI.
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
    (
        "COMT-F003",
        "warning",
        "orphan temp file from an interrupted commit",
    ),
    ("COMT-F004", "error", "index.json missing or unparseable"),
    ("COMT-F005", "warning", "foreign file in the blob directory"),
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
