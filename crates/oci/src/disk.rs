//! Disk-backed content-addressed storage with a crash-safe commit protocol.
//!
//! Every mutation of an on-disk layout follows the same discipline:
//!
//! ```text
//! write payload → .tmp.<pid>-<seq> (same directory)
//! fsync the tmp file
//! rename(tmp, final)              # atomic on POSIX
//! fsync the directory             # persist the rename itself
//! ```
//!
//! Blobs are immutable once renamed into `blobs/sha256/<hex>`; `index.json`
//! and the `oci-layout` marker are replaced atomically the same way. A
//! process killed at any instant therefore leaves either the old file, the
//! new file, or an orphan `.tmp.*` — never a half-written final path.
//! `comt fsck` diagnoses (and `--repair` sweeps) the orphans.
//!
//! Writers coordinate through [`LayoutLock`], an advisory OS lock on
//! `.comt.lock` in the layout root. The lock dies with the process (even
//! `kill -9`), so a crashed daemon never wedges the layout.

use crate::backend::{BlobBackend, BlobHandle};
use crate::layout::Layout;
use crate::spec::ImageIndex;
use crate::store::{StoreError, Verified};
use bytes::Bytes;
use comt_digest::Digest;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Advisory lock file name, in the layout root (not under `blobs/`).
pub const LOCK_FILE: &str = ".comt.lock";

/// Prefix of in-flight commit files. Anything carrying it is an orphan of
/// a crashed writer once no process holds the layout lock.
pub const TMP_PREFIX: &str = ".tmp.";

/// Contents of the `oci-layout` version marker.
pub const OCI_LAYOUT_MARKER: &[u8] = b"{\"imageLayoutVersion\": \"1.0.0\"}";

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_name() -> String {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{TMP_PREFIX}{}-{}", std::process::id(), seq)
}

/// fsync one open file or directory: every fsync of the store is counted
/// and timed as `store.fsync`.
fn fsync(f: &File) -> std::io::Result<()> {
    let obs = comt_observe::global();
    obs.count("store.fsync", 1);
    let _span = obs.span("store.fsync");
    f.sync_all()
}

/// fsync a directory so a just-committed rename survives power loss.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    fsync(&File::open(dir)?)
}

/// Write `data` to a fresh tmp file in `path`'s directory, fsync it, and
/// atomically rename it over `path`, fsyncing the directory after.
pub(crate) fn commit_file(path: &Path, data: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().ok_or(std::io::ErrorKind::InvalidInput)?;
    let tmp = dir.join(tmp_name());
    let mut f = File::create(&tmp)?;
    f.write_all(data)?;
    fsync(&f)?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    fsync_dir(dir)
}

/// An exclusive advisory lock on one on-disk layout.
///
/// `comt serve` holds it for the daemon's lifetime; `save`, `gc --apply`
/// and `fsck --repair` hold it for the duration of their mutation. The OS
/// releases it when the holding process exits by any means, so no stale
/// lock survives a crash.
#[derive(Debug)]
pub struct LayoutLock {
    _file: File,
    path: PathBuf,
}

impl LayoutLock {
    /// Acquire the layout's exclusive lock, creating the directory and the
    /// lock file as needed. Fails fast with [`StoreError::Locked`] if
    /// another live process holds it.
    pub fn acquire(dir: &Path) -> Result<LayoutLock, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOCK_FILE);
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {
                // Record the holder's pid — purely diagnostic; the OS lock
                // is the actual mutual exclusion.
                let _ = file.set_len(0);
                let _ = writeln!(&file, "{}", std::process::id());
                Ok(LayoutLock { _file: file, path })
            }
            Err(TryLockError::WouldBlock) => {
                let holder = std::fs::read_to_string(&path)
                    .ok()
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty());
                Err(StoreError::Locked {
                    path: path.display().to_string(),
                    holder,
                })
            }
            Err(TryLockError::Error(e)) => Err(e.into()),
        }
    }

    /// Path of the lock file (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A disk-backed content-addressed blob store rooted at an OCI layout
/// directory. Reads are lazy and digest-verified; writes follow the
/// tmp → fsync → rename commit protocol, so a blob path either holds the
/// complete verified content or does not exist.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Held for the store's lifetime when it backs a [`DiskRegistry`].
    _lock: Option<LayoutLock>,
}

impl DiskStore {
    /// Open a layout directory for writing, creating the skeleton
    /// (`blobs/sha256/`, `oci-layout` marker) if absent.
    pub fn init(root: &Path) -> Result<DiskStore, StoreError> {
        let store = DiskStore {
            root: root.to_path_buf(),
            _lock: None,
        };
        std::fs::create_dir_all(store.blobs_dir())?;
        let marker = root.join("oci-layout");
        if !marker.exists() {
            commit_file(&marker, OCI_LAYOUT_MARKER)?;
        }
        Ok(store)
    }

    /// Open an existing layout directory without creating anything.
    pub fn open(root: &Path) -> Result<DiskStore, StoreError> {
        if !root.join("index.json").is_file() && !root.join("blobs").is_dir() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("not an OCI layout: {}", root.display()),
            )));
        }
        Ok(DiskStore {
            root: root.to_path_buf(),
            _lock: None,
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn blobs_dir(&self) -> PathBuf {
        self.root.join("blobs").join("sha256")
    }

    /// Final on-disk path of a blob.
    pub fn blob_path(&self, digest: &Digest) -> PathBuf {
        self.blobs_dir().join(digest.hex())
    }

    /// Read a blob and verify its content against its address
    /// ([`BlobHandle::read_verified`]). `Ok(None)` means absent; a
    /// present-but-corrupt blob is [`StoreError::DigestMismatch`] — torn
    /// state, never silently served.
    pub fn read_verified(&self, digest: &Digest) -> Result<Option<Verified<'static>>, StoreError> {
        self.handle(digest)
            .map(|h| h.read_verified(digest))
            .transpose()
    }

    /// [`DiskStore::read_verified`], as plain bytes.
    pub fn read_blob(&self, digest: &Digest) -> Result<Option<Bytes>, StoreError> {
        Ok(self.read_verified(digest)?.map(Verified::into_bytes))
    }

    /// Commit a blob under its claimed digest, for a caller that holds
    /// bytes without a proof (one holding a [`Verified`] — `OciDir::save`
    /// — calls [`DiskStore::admit`]): a blob that is written is hashed
    /// against its claim first. One the layout already holds is not —
    /// nothing would be written whatever the hash said, and
    /// [`DiskStore::read_verified`] checks it on every read. Returns `true`
    /// if the blob was newly written, `false` if already present.
    pub fn put_blob(&self, digest: &Digest, data: &[u8]) -> Result<bool, StoreError> {
        if self.blob_path(digest).is_file() {
            return Ok(false);
        }
        self.admit(Verified::check(*digest, data)?)
    }

    /// Commit a blob on the strength of its proof — no second hash, and no
    /// copy of a borrowed payload. Returns `true` if newly written.
    pub fn admit(&self, blob: Verified<'_>) -> Result<bool, StoreError> {
        let path = self.blob_path(&blob.digest());
        if path.is_file() {
            return Ok(false);
        }
        commit_file(&path, blob.as_slice())?;
        Ok(true)
    }

    /// The one walk over the blob directory: every well-formed blob file
    /// with its size, in digest order. Tmp orphans and foreign files are
    /// skipped — `comt fsck` is the pass that reports them — unless
    /// `strict`, the eager loader's view, where either is
    /// [`StoreError::Torn`].
    pub(crate) fn scan(&self, strict: bool) -> Result<Vec<(Digest, u64)>, StoreError> {
        let dir = self.blobs_dir();
        let mut out = Vec::new();
        if !dir.is_dir() {
            return Ok(out);
        }
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Ok(d) = format!("sha256:{name}").parse::<Digest>() else {
                if strict {
                    let detail = if name.starts_with(TMP_PREFIX) {
                        "orphan temp file from an interrupted commit"
                    } else {
                        "foreign file in the blob directory"
                    };
                    return Err(StoreError::Torn {
                        path: entry.path().display().to_string(),
                        detail: detail.into(),
                    });
                }
                continue;
            };
            let meta = entry.metadata()?;
            if meta.is_file() {
                out.push((d, meta.len()));
            }
        }
        out.sort_by_key(|(d, _)| *d);
        Ok(out)
    }

    /// Parse `index.json`, refusing torn or missing state — a descriptor
    /// whose digest does not parse included — with an error that points at
    /// `comt fsck`.
    pub fn read_index(&self) -> Result<ImageIndex, StoreError> {
        let path = self.root.join("index.json");
        let torn = |detail: String| StoreError::Torn {
            path: path.display().to_string(),
            detail,
        };
        let raw = match std::fs::read(&path) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(torn("index.json is missing".into()))
            }
            Err(e) => return Err(e.into()),
        };
        let index: ImageIndex = serde_json::from_slice(&raw)
            .map_err(|e| torn(format!("index.json does not parse: {e}")))?;
        if let Some(bad) = index.manifests.iter().find(|d| d.parsed_digest().is_err()) {
            return Err(torn(format!("index.json names a malformed digest: {}", bad.digest)));
        }
        Ok(index)
    }

    /// Atomically replace `index.json` (and refresh the `oci-layout`
    /// marker). This is the commit point of every layout mutation: the tag
    /// table flips from old to new in one rename.
    pub fn commit_index(&self, index: &ImageIndex) -> Result<(), StoreError> {
        let marker = self.root.join("oci-layout");
        if !marker.is_file() {
            commit_file(&marker, OCI_LAYOUT_MARKER)?;
        }
        let json = serde_json::to_vec_pretty(index).map_err(std::io::Error::other)?;
        commit_file(&self.root.join("index.json"), &json)?;
        Ok(())
    }
}

impl BlobBackend for DiskStore {
    fn handle(&self, digest: &Digest) -> Option<BlobHandle> {
        let path = self.blob_path(digest);
        let meta = std::fs::metadata(&path).ok().filter(|m| m.is_file())?;
        Some(BlobHandle::File {
            path,
            len: meta.len(),
        })
    }

    fn insert(&mut self, blob: Verified<'_>) -> Result<bool, StoreError> {
        self.admit(blob)
    }

    fn remove(&mut self, digest: &Digest) -> Result<bool, StoreError> {
        match std::fs::remove_file(self.blob_path(digest)) {
            Ok(()) => {
                fsync_dir(&self.blobs_dir())?;
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    fn digests(&self) -> Result<Vec<(Digest, u64)>, StoreError> {
        self.scan(false)
    }

    fn commit_index(&mut self, index: &ImageIndex) -> Result<(), StoreError> {
        DiskStore::commit_index(self, index)
    }
}

/// A registry whose blobs and tag table live on disk, held open under the
/// layout lock: the one tagged store ([`Layout`]) over a [`DiskStore`].
/// Each published manifest is committed durably before its tag becomes
/// visible, so a `kill -9` of the daemon loses at most the in-flight
/// stage: every previously visible tag still resolves and pulls
/// bit-identically after restart.
pub type DiskRegistry = Layout<DiskStore>;

impl Layout<DiskStore> {
    /// Lock and open a layout directory as a live registry. An empty or
    /// absent directory becomes an empty registry; an existing layout's
    /// tags are served as `name:tag` keys (bare ref names answer to
    /// `name:latest`).
    pub fn open(dir: &Path) -> Result<DiskRegistry, StoreError> {
        let lock = LayoutLock::acquire(dir)?;
        let blobs = DiskStore {
            _lock: Some(lock),
            ..DiskStore::init(dir)?
        };
        let index = if blobs.root().join("index.json").is_file() {
            blobs.read_index()?
        } else {
            // Commit the empty tag table now so the layout is complete
            // (fsck-clean) from the first instant, however the daemon dies.
            let index = ImageIndex::default();
            blobs.commit_index(&index)?;
            index
        };
        Ok(Layout { index, blobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Descriptor, MediaType};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "comt-disk-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_read_roundtrip_and_dedupe() {
        let dir = tmp_dir("rt");
        let store = DiskStore::init(&dir).unwrap();
        let data = b"blob payload";
        let d = Digest::of(data);
        assert!(store.put_blob(&d, data).unwrap());
        assert!(!store.put_blob(&d, data).unwrap()); // dedupe
        assert_eq!(store.read_blob(&d).unwrap().unwrap(), Bytes::from_static(data));
        assert_eq!(store.handle(&d).map(|h| h.len()), Some(data.len() as u64));
        // No tmp residue after a clean commit.
        let residue: Vec<_> = std::fs::read_dir(store.blobs_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(TMP_PREFIX))
            .collect();
        assert!(residue.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_blob_rejects_claim_mismatch() {
        let dir = tmp_dir("claim");
        let store = DiskStore::init(&dir).unwrap();
        let wrong = Digest::of(b"other content");
        let err = store.put_blob(&wrong, b"actual content").unwrap_err();
        assert!(matches!(err, StoreError::DigestMismatch(_)));
        assert!(store.handle(&wrong).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_blob_looks_before_it_hashes() {
        let dir = tmp_dir("present");
        let store = DiskStore::init(&dir).unwrap();
        let d = Digest::of(b"held");
        assert!(store.put_blob(&d, b"held").unwrap());
        // Present: nothing is written, so nothing is hashed — observable as
        // a wrong payload under a held address being a no-op, not an error,
        // and the held bytes staying what they were.
        assert!(!store.put_blob(&d, b"not what d names").unwrap());
        assert_eq!(store.read_blob(&d).unwrap().unwrap(), Bytes::from_static(b"held"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_blob_detects_corruption() {
        let dir = tmp_dir("corrupt");
        let store = DiskStore::init(&dir).unwrap();
        let d = Digest::of(b"original");
        store.put_blob(&d, b"original").unwrap();
        std::fs::write(store.blob_path(&d), b"tampered").unwrap();
        assert!(matches!(
            store.read_blob(&d),
            Err(StoreError::DigestMismatch(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_excludes_second_holder() {
        let dir = tmp_dir("lock");
        let first = LayoutLock::acquire(&dir).unwrap();
        // Same-process second handle: advisory OS locks are per-open-file,
        // so this models a second process contending for the layout.
        match LayoutLock::acquire(&dir) {
            Err(StoreError::Locked { holder, .. }) => {
                assert_eq!(holder.as_deref(), Some(std::process::id().to_string().as_str()));
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(first);
        LayoutLock::acquire(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_commit_is_atomic_replace() {
        let dir = tmp_dir("index");
        let store = DiskStore::init(&dir).unwrap();
        let mut index = ImageIndex::default();
        index.set_ref(
            "app:1",
            Descriptor::new(MediaType::ImageManifest, Digest::of(b"m"), 1),
        );
        store.commit_index(&index).unwrap();
        assert_eq!(store.read_index().unwrap(), index);
        // Torn JSON refuses with a Torn error pointing at fsck.
        std::fs::write(dir.join("index.json"), &serde_json::to_vec(&index).unwrap()[..10])
            .unwrap();
        assert!(matches!(store.read_index(), Err(StoreError::Torn { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
