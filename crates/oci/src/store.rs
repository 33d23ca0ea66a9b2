//! Content-addressed blob storage, the admission proof every store
//! demands ([`Verified`]), and the in-process registry transfer.

use crate::backend::{BlobBackend, BlobHandle};
use crate::layout::{Layout, LayoutError};
use crate::spec::{Descriptor, ImageIndex, MediaType};
use bytes::Bytes;
use comt_digest::Digest;
use std::collections::BTreeMap;

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
/// every store demands. It can only be built by hashing: [`Verified::hash`]
/// computes the address, [`Verified::check`] additionally refuses a claimed
/// address the bytes do not have, as a hard error in every build profile.
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
    pub fn check(claimed: Digest, bytes: impl Into<Payload<'a>>) -> Result<Self, RegistryError> {
        let blob = Verified::hash(bytes);
        if blob.digest != claimed {
            return Err(RegistryError::DigestMismatch(claimed.to_string()));
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

    /// Fetch a blob by digest.
    pub fn get(&self, digest: &Digest) -> Option<Bytes> {
        self.blobs.get(digest).cloned()
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
    /// [`Verified`].
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

    fn insert(&mut self, blob: Verified<'_>) -> Result<bool, LayoutError> {
        let fresh = !self.contains(&blob.digest());
        self.admit(blob);
        Ok(fresh)
    }

    fn remove(&mut self, digest: &Digest) -> Result<bool, LayoutError> {
        Ok(self.blobs.remove(digest).is_some())
    }

    fn digests(&self) -> Result<Vec<(Digest, u64)>, LayoutError> {
        Ok(self.iter().map(|(d, b)| (*d, b.len() as u64)).collect())
    }

    /// Nothing to commit: the index a memory layout holds is the table.
    fn commit_index(&mut self, _index: &ImageIndex) -> Result<(), LayoutError> {
        Ok(())
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No manifest tagged with the requested name.
    UnknownTag(String),
    /// A referenced blob is missing from the source store.
    MissingBlob(String),
    /// Manifest blob failed to parse.
    CorruptManifest(String),
    /// A blob's content does not hash to its digest.
    DigestMismatch(String),
    /// The backing storage failed (disk I/O, torn layout). Unlike the
    /// other variants this is the *store's* fault, not the caller's: the
    /// wire surface maps it to a 5xx, never a 4xx.
    Storage(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownTag(t) => write!(f, "unknown tag: {t}"),
            RegistryError::MissingBlob(d) => write!(f, "missing blob: {d}"),
            RegistryError::CorruptManifest(e) => write!(f, "corrupt manifest: {e}"),
            RegistryError::DigestMismatch(d) => {
                write!(f, "blob content does not match digest {d}")
            }
            RegistryError::Storage(e) => write!(f, "storage failure: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Re-hash each closure blob in `src` and check it against its address.
///
/// Blobs are independent, so verification fans out across threads (real
/// registries do the same on push/pull: digest checks dominate transfer CPU
/// time). Runs under the `store.verify` span with a `store.verify.blobs`
/// counter.
fn verify_blobs(src: &BlobStore, digests: &[Digest]) -> Result<(), RegistryError> {
    let obs = comt_observe::global();
    let _span = obs.span("store.verify");
    let verify_one = |d: &Digest| -> Result<(), RegistryError> {
        let blob = src
            .get(d)
            .ok_or_else(|| RegistryError::MissingBlob(d.to_string()))?;
        Verified::check(*d, blob).map(drop)
    };
    obs.count("store.verify.blobs", digests.len() as u64);
    if digests.len() > 1 {
        std::thread::scope(|s| {
            let handles: Vec<_> = digests
                .iter()
                .map(|d| s.spawn(move || verify_one(d)))
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("verify worker panicked"))
        })
    } else {
        digests.iter().try_for_each(verify_one)
    }
}

/// Recursively collect the digests reachable from a manifest in `src`: the
/// manifest itself first, then its config, then every layer in order. This
/// is the transfer unit of both the in-process [`Registry`] and the wire
/// protocol (`comt-dist`): a push/pull moves exactly this closure.
pub fn closure_digests(
    src: &BlobStore,
    manifest_digest: &Digest,
) -> Result<Vec<Digest>, RegistryError> {
    let raw = src
        .get(manifest_digest)
        .ok_or_else(|| RegistryError::MissingBlob(manifest_digest.to_string()))?;
    closure_of_manifest(&raw, manifest_digest)
}

/// Collect the closure digests from already-fetched manifest bytes: the
/// manifest itself first, then its config, then every layer in order. The
/// one walk from manifest bytes to closure — export, push, publish,
/// liveness and fsck all go through it.
pub fn closure_of_manifest(
    raw: &[u8],
    manifest_digest: &Digest,
) -> Result<Vec<Digest>, RegistryError> {
    let manifest: crate::spec::ImageManifest = serde_json::from_slice(raw)
        .map_err(|e| RegistryError::CorruptManifest(e.to_string()))?;
    let mut out = vec![*manifest_digest];
    let cfg = manifest
        .config
        .parsed_digest()
        .map_err(|e| RegistryError::CorruptManifest(e.to_string()))?;
    out.push(cfg);
    for layer in &manifest.layers {
        out.push(
            layer
                .parsed_digest()
                .map_err(|e| RegistryError::CorruptManifest(e.to_string()))?,
        );
    }
    Ok(out)
}

/// Copy the blobs of `closure` that `dst` lacks from `src`; returns how
/// many moved.
fn copy_closure(
    dst: &mut BlobStore,
    src: &BlobStore,
    closure: &[Digest],
) -> Result<usize, RegistryError> {
    let mut moved = 0;
    for d in closure {
        if !dst.contains(d) {
            if !dst.fetch_from(src, d) {
                return Err(RegistryError::MissingBlob(d.to_string()));
            }
            moved += 1;
        }
    }
    Ok(moved)
}

/// The in-memory registry: the one tagged store ([`Layout`]) over a
/// [`BlobStore`] — the same type as [`crate::layout::OciDir`], under the
/// name the transfer side of the workflow uses.
///
/// `push`/`pull` between stores transfer only missing blobs, mirroring
/// real registry cross-repo behaviour. The registry is also the transport
/// between the user side and the HPC system side in the coMtainer workflow.
pub type Registry = Layout<BlobStore>;

impl Layout<BlobStore> {
    /// Copy an already-walked manifest closure (manifest first) from `src`
    /// and point `name` at it, without re-hashing. Returns how many blobs
    /// moved.
    pub(crate) fn import(
        &mut self,
        name: &str,
        closure: &[Digest],
        src: &BlobStore,
    ) -> Result<usize, RegistryError> {
        let moved = copy_closure(&mut self.blobs, src, closure)?;
        let manifest = closure[0];
        let size = self.blobs.get(&manifest).expect("copied above").len() as u64;
        self.index.set_ref(
            name,
            Descriptor::new(MediaType::ImageManifest, manifest, size),
        );
        Ok(moved)
    }

    /// Push a manifest (and its blob closure) from a local store under
    /// `tag`: verify, then the same closure copy `export` does.
    pub fn push(
        &mut self,
        tag: &str,
        manifest_digest: Digest,
        src: &BlobStore,
    ) -> Result<usize, RegistryError> {
        let closure = closure_digests(src, &manifest_digest)?;
        // Verify content-addressing before admitting blobs (concurrently —
        // layers are independent).
        verify_blobs(src, &closure)?;
        // Blobs the remote already holds are re-verified too: deduplication
        // must not mask a poisoned or truncated pre-existing blob — that is
        // a `DigestMismatch`, not a free skip.
        let present: Vec<Digest> = closure
            .iter()
            .filter(|d| self.blobs.contains(d))
            .copied()
            .collect();
        verify_blobs(&self.blobs, &present)?;
        self.import(tag, &closure, src)
    }

    /// Pull a tag's manifest closure into a local store; returns the
    /// manifest digest and how many blobs were transferred.
    pub fn pull(&self, tag: &str, dst: &mut BlobStore) -> Result<(Digest, usize), RegistryError> {
        let manifest_digest = self
            .resolve(tag)
            .map_err(|_| RegistryError::UnknownTag(tag.to_string()))?;
        let closure = closure_digests(&self.blobs, &manifest_digest)?;
        verify_blobs(&self.blobs, &closure)?;
        Ok((manifest_digest, copy_closure(dst, &self.blobs, &closure)?))
    }
}

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
            Err(RegistryError::UnknownTag(_))
        ));
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
            Err(RegistryError::DigestMismatch(_))
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
            Err(RegistryError::DigestMismatch(_))
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
            Err(RegistryError::DigestMismatch(_))
        ));
    }

    #[test]
    fn push_with_missing_blob_fails() {
        let local = BlobStore::new();
        let mut reg = Registry::new();
        let err = reg.push("x", Digest::of(b"not-a-manifest"), &local);
        assert!(matches!(err, Err(RegistryError::MissingBlob(_))));
    }
}
