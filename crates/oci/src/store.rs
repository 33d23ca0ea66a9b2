//! Content-addressed blob storage, the admission proof every store
//! demands ([`Verified`]), the one error every store operation returns
//! ([`StoreError`]) and the walk from manifest bytes to closure.

use crate::backend::{BlobBackend, BlobHandle};
use crate::layout::Layout;
use crate::spec::ImageIndex;
use bytes::Bytes;
use comt_digest::Digest;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

/// The one error of every store operation — layout I/O, publish, transfer,
/// gc — whatever the backend. [`StoreError::is_store_fault`] says whose
/// fault it is, which is what the wire surface turns into 5xx vs 4xx.
#[derive(Debug)]
pub enum StoreError {
    /// No ref (or wire tag) of that name in the index.
    UnknownRef(String),
    /// A blob the operation needs is not in the store it was asked of.
    MissingBlob(String),
    /// A manifest that does not parse, or a descriptor naming a malformed
    /// digest.
    CorruptManifest(String),
    /// Bytes that do not hash to the address they are claimed (or stored)
    /// under.
    DigestMismatch(String),
    /// The backing storage failed.
    Io(io::Error),
    /// Another live process holds the layout's advisory lock.
    Locked {
        path: String,
        /// Pid recorded by the holder, when readable (diagnostic only).
        holder: Option<String>,
    },
    /// The on-disk layout is torn (interrupted commit: orphan tmp file,
    /// truncated `index.json`, foreign file in the blob directory).
    Torn { path: String, detail: String },
}

impl StoreError {
    /// `true` when the store itself failed (I/O, torn layout, lock held) —
    /// a 5xx on the wire; `false` when the request was wrong (unknown ref,
    /// incomplete or corrupt closure, address ≠ bytes) — a 4xx.
    pub fn is_store_fault(&self) -> bool {
        matches!(
            self,
            StoreError::Io(_) | StoreError::Locked { .. } | StoreError::Torn { .. }
        )
    }

    /// An I/O failure with the file it happened on in the message; the
    /// `io::Error` (and its kind) stays reachable through `source()`.
    pub(crate) fn io_at(path: &Path, e: io::Error) -> Self {
        StoreError::Io(io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownRef(r) => write!(f, "unknown ref: {r}"),
            StoreError::MissingBlob(d) => write!(f, "missing blob: {d}"),
            StoreError::CorruptManifest(e) => write!(f, "corrupt manifest: {e}"),
            StoreError::DigestMismatch(d) => {
                write!(f, "blob content does not match digest {d}")
            }
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Locked { path, holder } => {
                write!(f, "layout is locked by another process ({path}")?;
                if let Some(pid) = holder {
                    write!(f, ", held by pid {pid}")?;
                }
                write!(f, ")")
            }
            StoreError::Torn { path, detail } => {
                write!(
                    f,
                    "torn layout: {detail} ({path}); run `comt fsck` to diagnose and `comt fsck --repair` to recover"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Blob bytes on their way into a store: shared, or borrowed from a buffer
/// the caller keeps (a request body). A disk store writes either form to a
/// file without copying; a memory store copies a borrowed payload once,
/// because it keeps the bytes.
#[derive(Debug)]
pub enum Payload<'a> {
    Shared(Bytes),
    Borrowed(&'a [u8]),
}

impl Payload<'_> {
    fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Shared(b) => b,
            Payload::Borrowed(s) => s,
        }
    }
}

impl From<Bytes> for Payload<'_> {
    fn from(b: Bytes) -> Self {
        Payload::Shared(b)
    }
}

impl From<Vec<u8>> for Payload<'_> {
    fn from(v: Vec<u8>) -> Self {
        Payload::Shared(Bytes::from(v))
    }
}

impl<'a> From<&'a [u8]> for Payload<'a> {
    fn from(s: &'a [u8]) -> Self {
        Payload::Borrowed(s)
    }
}

/// A blob together with the digest its bytes hash to — the admission proof
/// every store demands. It is built by hashing — [`Verified::hash`]
/// computes the address, [`Verified::check`] additionally refuses a claimed
/// address the bytes do not have, as a hard error in every build profile —
/// or borrowed back from a store of proofs ([`BlobStore::verified`]).
/// "These bytes were hashed before they were stored" is therefore checked
/// by the compiler, not asserted by a comment at the call site.
#[derive(Debug)]
pub struct Verified<'a> {
    digest: Digest,
    payload: Payload<'a>,
}

impl<'a> Verified<'a> {
    /// Hash `bytes`; the proof carries the address they really have.
    pub fn hash(bytes: impl Into<Payload<'a>>) -> Self {
        let payload = bytes.into();
        let digest = Digest::of(payload.as_slice());
        Verified { digest, payload }
    }

    /// Hash `bytes` and refuse them unless they hash to `claimed` — the
    /// check for an address somebody else supplied (a wire upload, a file
    /// name, a chunkmap).
    pub fn check(claimed: Digest, bytes: impl Into<Payload<'a>>) -> Result<Self, StoreError> {
        let blob = Verified::hash(bytes);
        if blob.digest != claimed {
            return Err(StoreError::DigestMismatch(claimed.to_string()));
        }
        Ok(blob)
    }

    /// The fused layer codec's own proof: it hashed the stream while
    /// producing it, in this process, so the re-hash is a `debug_assert`.
    /// Crate-private — bytes from outside the process never come this way.
    pub(crate) fn from_codec(digest: Digest, blob: Bytes) -> Verified<'static> {
        debug_assert_eq!(digest, Digest::of(&blob), "codec digest mismatch");
        Verified {
            digest,
            payload: Payload::Shared(blob),
        }
    }

    pub fn digest(&self) -> Digest {
        self.digest
    }

    pub fn as_slice(&self) -> &[u8] {
        self.payload.as_slice()
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The bytes as a shared buffer (copies a borrowed payload).
    pub fn into_bytes(self) -> Bytes {
        match self.payload {
            Payload::Shared(b) => b,
            Payload::Borrowed(s) => Bytes::copy_from_slice(s),
        }
    }
}

/// Content-addressed blob store. Blobs are immutable; storing the same
/// content twice is a no-op (deduplication by digest).
#[derive(Debug, Clone, Default)]
pub struct BlobStore {
    blobs: BTreeMap<Digest, Bytes>,
}

impl BlobStore {
    pub fn new() -> Self {
        BlobStore::default()
    }

    /// Hash a blob and store it, returning its digest.
    pub fn put(&mut self, data: impl Into<Bytes>) -> Digest {
        self.admit(Verified::hash(data.into()))
    }

    /// Store a blob on the strength of its proof — no second hash.
    pub fn admit(&mut self, blob: Verified<'_>) -> Digest {
        let digest = blob.digest();
        self.blobs
            .entry(digest)
            .or_insert_with(|| blob.into_bytes());
        digest
    }

    /// The proof of a blob this store holds, borrowed and not re-hashed: a
    /// `BlobStore` is a set of proofs, because every entry arrived through
    /// [`BlobStore::admit`] (which takes a [`Verified`]) or was shared from
    /// another store by [`BlobStore::fetch_from`]. The one other door is
    /// [`BlobStore::insert_raw_for_tests`]; see there.
    pub fn verified(&self, digest: &Digest) -> Option<Verified<'_>> {
        self.blobs.get(digest).map(|b| Verified {
            digest: *digest,
            payload: Payload::Borrowed(b),
        })
    }

    /// Fetch a blob by digest.
    pub fn get(&self, digest: &Digest) -> Option<Bytes> {
        self.blobs.get(digest).cloned()
    }

    /// [`BlobStore::get`], where absence is an error.
    pub fn require(&self, digest: &Digest) -> Result<Bytes, StoreError> {
        self.get(digest)
            .ok_or_else(|| StoreError::MissingBlob(digest.to_string()))
    }

    pub fn contains(&self, digest: &Digest) -> bool {
        self.blobs.contains_key(digest)
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Total stored bytes (deduplicated).
    pub fn total_size(&self) -> u64 {
        self.blobs.values().map(|b| b.len() as u64).sum()
    }

    /// Iterate all `(digest, blob)` pairs in digest order.
    pub fn iter(&self) -> impl Iterator<Item = (&Digest, &Bytes)> {
        self.blobs.iter()
    }

    /// Keep only blobs whose digest satisfies the predicate; returns how
    /// many were dropped (garbage collection support).
    pub fn retain(&mut self, keep: impl Fn(&Digest) -> bool) -> usize {
        let before = self.blobs.len();
        self.blobs.retain(|d, _| keep(d));
        before - self.blobs.len()
    }

    /// Insert a blob under an arbitrary digest, bypassing hashing — only
    /// for corruption/fault-injection tests (hence the name and the
    /// `#[doc(hidden)]`). It is the one way to store bytes without a
    /// [`Verified`], so after it [`BlobStore::verified`] can hand out a
    /// proof its bytes do not honour. That is what those tests are for:
    /// each shows a trust boundary that re-hashes what it did not admit
    /// itself — [`Layout::push`]'s `Verified::check`, the daemon's PUT
    /// hash, publish's stream-verify — refusing the lie.
    #[doc(hidden)]
    pub fn insert_raw_for_tests(&mut self, digest: Digest, data: Bytes) {
        self.blobs.insert(digest, data);
    }

    /// Share a blob another in-memory store already admitted, if missing
    /// here (a refcount bump, not a copy).
    pub fn fetch_from(&mut self, other: &BlobStore, digest: &Digest) -> bool {
        if self.contains(digest) {
            return true;
        }
        match other.get(digest) {
            Some(b) => {
                self.blobs.insert(*digest, b);
                true
            }
            None => false,
        }
    }
}

impl BlobBackend for BlobStore {
    fn handle(&self, digest: &Digest) -> Option<BlobHandle> {
        self.get(digest).map(BlobHandle::Resident)
    }

    fn insert(&mut self, blob: Verified<'_>) -> Result<bool, StoreError> {
        let fresh = !self.contains(&blob.digest());
        self.admit(blob);
        Ok(fresh)
    }

    fn remove(&mut self, digest: &Digest) -> Result<bool, StoreError> {
        Ok(self.blobs.remove(digest).is_some())
    }

    fn digests(&self) -> Result<Vec<(Digest, u64)>, StoreError> {
        Ok(self.iter().map(|(d, b)| (*d, b.len() as u64)).collect())
    }

    /// Nothing to commit: the index a memory layout holds is the table.
    fn commit_index(&mut self, _index: &ImageIndex) -> Result<(), StoreError> {
        Ok(())
    }
}

/// Recursively collect the digests reachable from a manifest in `src`: the
/// manifest itself first, then its config, then every layer in order. This
/// is the transfer unit of both the in-process [`Registry`] and the wire
/// protocol (`comt-dist`): a push/pull moves exactly this closure.
pub fn closure_digests(
    src: &BlobStore,
    manifest_digest: &Digest,
) -> Result<Vec<Digest>, StoreError> {
    closure_of_manifest(&src.require(manifest_digest)?, manifest_digest)
}

/// Collect the closure digests from already-fetched manifest bytes: the
/// manifest itself first, then its config, then every layer in order. The
/// one walk from manifest bytes to closure — export, push, pull, publish,
/// liveness and fsck all go through it.
pub fn closure_of_manifest(
    raw: &[u8],
    manifest_digest: &Digest,
) -> Result<Vec<Digest>, StoreError> {
    let corrupt = |e: &dyn fmt::Display| StoreError::CorruptManifest(e.to_string());
    let manifest: crate::spec::ImageManifest =
        serde_json::from_slice(raw).map_err(|e| corrupt(&e))?;
    let mut out = vec![*manifest_digest];
    for desc in std::iter::once(&manifest.config).chain(&manifest.layers) {
        out.push(desc.parsed_digest().map_err(|e| corrupt(&e))?);
    }
    Ok(out)
}

/// The in-memory registry: the one tagged store ([`Layout`]) over a
/// [`BlobStore`] — the same type as [`crate::layout::OciDir`], under the
/// name the transfer side of the workflow uses. [`Layout::push`] and
/// [`Layout::pull`] move closures between it and local stores, mirroring
/// real registry cross-repo behaviour (only missing blobs move); it is the
/// transport between the user side and the HPC system side in the
/// coMtainer workflow.
pub type Registry = Layout<BlobStore>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use bytes::Bytes;
    use comt_vfs::Vfs;

    #[test]
    fn put_dedupes() {
        let mut s = BlobStore::new();
        let d1 = s.put(Bytes::from_static(b"same"));
        let d2 = s.put(Bytes::from_static(b"same"));
        assert_eq!(d1, d2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_size(), 4);
    }

    #[test]
    fn get_missing() {
        let s = BlobStore::new();
        assert!(s.get(&Digest::of(b"nope")).is_none());
    }

    #[test]
    fn fetch_from_copies_once() {
        let mut a = BlobStore::new();
        let d = a.put(Bytes::from_static(b"blob"));
        let mut b = BlobStore::new();
        assert!(b.fetch_from(&a, &d));
        assert!(b.fetch_from(&a, &d)); // idempotent
        assert!(!b.fetch_from(&a, &Digest::of(b"missing")));
    }

    fn tiny_image(store: &mut BlobStore) -> Digest {
        let mut fs = Vfs::new();
        fs.write_file_p("/bin/x", Bytes::from_static(b"X"), 0o755)
            .unwrap();
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(store)
            .unwrap();
        img.manifest_digest
    }

    #[test]
    fn push_pull_transfers_closure() {
        let mut local = BlobStore::new();
        let md = tiny_image(&mut local);

        let mut reg = Registry::new();
        let n = reg.push("app:1.0", md, &local).unwrap();
        assert_eq!(n, 3); // manifest + config + 1 layer

        // Second push transfers nothing.
        assert_eq!(reg.push("app:dup", md, &local).unwrap(), 0);

        let mut remote = BlobStore::new();
        let (got, n2) = reg.pull("app:1.0", &mut remote).unwrap();
        assert_eq!(got, md);
        assert_eq!(n2, 3);
        assert!(remote.contains(&md));
    }

    #[test]
    fn pull_unknown_tag() {
        let reg = Registry::new();
        let mut dst = BlobStore::new();
        assert!(matches!(
            reg.pull("ghost:latest", &mut dst),
            Err(StoreError::UnknownRef(_))
        ));
    }

    #[test]
    fn pull_of_a_ref_with_a_bad_digest_is_not_unknown_tag() {
        // The tag exists; what it names is malformed. That is a corrupt
        // table, and reporting it as "unknown tag" would send the operator
        // looking for a push that never happened.
        let mut local = BlobStore::new();
        let md = tiny_image(&mut local);
        let mut reg = Registry::new();
        reg.push("app:1", md, &local).unwrap();
        reg.index.manifests[0].digest = "sha256:not-hex".into();
        let mut dst = BlobStore::new();
        match reg.pull("app:1", &mut dst) {
            Err(StoreError::CorruptManifest(why)) => assert!(why.contains("app:1"), "{why}"),
            other => panic!("expected CorruptManifest, got {other:?}"),
        }
        assert!(dst.is_empty());
        assert!(matches!(reg.live_set(), Err(StoreError::CorruptManifest(_))));
    }

    #[test]
    fn push_detects_corrupt_blob() {
        let mut local = BlobStore::new();
        let md = tiny_image(&mut local);
        // Corrupt the first layer blob in place (content no longer hashes
        // to its address).
        let layer_digest = {
            let raw = local.get(&md).unwrap();
            let manifest: crate::spec::ImageManifest = serde_json::from_slice(&raw).unwrap();
            manifest.layers[0].parsed_digest().unwrap()
        };
        local.insert_raw_for_tests(layer_digest, Bytes::from_static(b"tampered"));
        let mut reg = Registry::new();
        assert!(matches!(
            reg.push("bad:1", md, &local),
            Err(StoreError::DigestMismatch(_))
        ));
    }

    #[test]
    fn push_detects_poisoned_preexisting_remote_blob() {
        // Regression: a blob that already exists on the remote used to be
        // deduplicated away without ever re-hashing the remote's bytes, so
        // a poisoned/truncated remote copy silently survived. The second
        // push must now surface it as DigestMismatch.
        let mut local = BlobStore::new();
        let md = tiny_image(&mut local);
        let mut reg = Registry::new();
        reg.push("app:1", md, &local).unwrap();

        let layer_digest = {
            let raw = local.get(&md).unwrap();
            let manifest: crate::spec::ImageManifest = serde_json::from_slice(&raw).unwrap();
            manifest.layers[0].parsed_digest().unwrap()
        };
        // Poison the REMOTE copy; the local source stays pristine.
        reg.store_mut()
            .insert_raw_for_tests(layer_digest, Bytes::from_static(b"truncated"));

        assert!(matches!(
            reg.push("app:2", md, &local),
            Err(StoreError::DigestMismatch(_))
        ));
        // The poisoned blob was not re-tagged as a fresh ref either.
        assert!(reg.resolve("app:2").is_err());
    }

    #[test]
    fn closure_digests_orders_manifest_config_layers() {
        let mut local = BlobStore::new();
        let md = tiny_image(&mut local);
        let closure = closure_digests(&local, &md).unwrap();
        assert_eq!(closure.len(), 3);
        assert_eq!(closure[0], md);
        let raw = local.get(&md).unwrap();
        let manifest: crate::spec::ImageManifest = serde_json::from_slice(&raw).unwrap();
        assert_eq!(closure[1], manifest.config.parsed_digest().unwrap());
        assert_eq!(closure[2], manifest.layers[0].parsed_digest().unwrap());
    }

    #[test]
    fn a_proof_is_built_only_by_hashing() {
        let data = Bytes::from_static(b"layer blob");
        let d = Digest::of(&data);
        // Shared and borrowed payloads prove the same address; a borrowed
        // one is copied only when a memory store keeps it.
        assert_eq!(Verified::hash(data.clone()).digest(), d);
        let borrowed = Verified::check(d, &data[..]).unwrap();
        assert_eq!((borrowed.digest(), borrowed.len()), (d, data.len()));
        let mut s = BlobStore::new();
        assert_eq!(s.admit(borrowed), d);
        assert_eq!(s.get(&d).unwrap(), data);
        // A claim the bytes do not have is refused in every build profile.
        assert!(matches!(
            Verified::check(Digest::of(b"other"), data),
            Err(StoreError::DigestMismatch(_))
        ));
    }

    #[test]
    fn a_store_hands_back_the_proofs_it_admitted() {
        let mut s = BlobStore::new();
        let d = s.put(Bytes::from_static(b"admitted"));
        let proof = s.verified(&d).unwrap();
        assert_eq!(proof.digest(), d);
        assert_eq!(proof.as_slice(), b"admitted");
        // Borrowed from the store, so it is the store's own buffer.
        assert_eq!(proof.as_slice().as_ptr(), s.get(&d).unwrap().as_ptr());
        assert!(s.verified(&Digest::of(b"absent")).is_none());
    }

    #[test]
    fn push_with_missing_blob_fails() {
        let local = BlobStore::new();
        let mut reg = Registry::new();
        let err = reg.push("x", Digest::of(b"not-a-manifest"), &local);
        assert!(matches!(err, Err(StoreError::MissingBlob(_))));
    }
}
