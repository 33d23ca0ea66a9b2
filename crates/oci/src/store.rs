//! Content-addressed blob storage, the admission proof every store
//! demands ([`Verified`]), the one error every store operation returns
//! ([`StoreError`]) and the walk from manifest bytes to closure.
//!
//! A [`BlobStore`] holds only bytes it hashed, or shared from another
//! in-memory store that did: inside one process a digest names its bytes,
//! so every entry is proven and nothing it lends out is hashed again.
//! Bytes that lie about their address arise only on disk
//! ([`crate::DiskStore`]) or on the wire, and tests inject them there.

use crate::backend::{BlobBackend, BlobHandle};
use crate::spec::ImageIndex;
use bytes::Bytes;
use comt_digest::Digest;
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

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
/// or lent back by a store of proofs ([`BlobStore::verified`]).
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
///
/// Every entry is proven ([`BlobBackend::proven`]): it arrives through
/// [`BlobStore::admit`] (a [`Verified`]) or is shared from another
/// in-memory store, which holds only proofs too. Within one process a
/// digest here always names its bytes.
#[derive(Debug, Clone, Default)]
pub struct BlobStore {
    blobs: BTreeMap<Digest, Bytes>,
    derived: DerivedTable,
}

/// Values derived from a store's blobs — a decoded cache layer and its
/// digests — keyed by the manifest whose closure they were computed from.
/// Type-erased, so this crate need not know what its callers derive, and
/// shared by a store's clones just as they share its blob allocations.
#[derive(Clone, Default)]
struct DerivedTable(Arc<Mutex<HashMap<Digest, Derived>>>);

struct Derived {
    /// The closure the value was derived from: a hit needs every one held.
    closure: Vec<Digest>,
    value: Arc<dyn Any + Send + Sync>,
}

impl DerivedTable {
    fn lock(&self) -> MutexGuard<'_, HashMap<Digest, Derived>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drop every entry derived from a blob `gone` names.
    fn forget(&self, gone: impl Fn(&Digest) -> bool) {
        self.lock()
            .retain(|_, entry| !entry.closure.iter().any(&gone));
    }
}

impl fmt::Debug for DerivedTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DerivedTable({} entries)", self.lock().len())
    }
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

    /// The proof of a held blob, not re-hashed: every entry arrived with
    /// one. It shares the store's buffer (a refcount bump, not a copy).
    /// `None` exactly when the store lacks `digest`.
    pub fn verified(&self, digest: &Digest) -> Option<Verified<'static>> {
        self.blobs.get(digest).map(|b| Verified {
            digest: *digest,
            payload: Payload::Shared(b.clone()),
        })
    }

    /// [`BlobStore::verified`], where absence is
    /// [`StoreError::MissingBlob`].
    pub fn require_verified(&self, digest: &Digest) -> Result<Verified<'static>, StoreError> {
        self.verified(digest)
            .ok_or_else(|| StoreError::MissingBlob(digest.to_string()))
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
    /// many were dropped (garbage collection support). Values derived from
    /// a dropped blob go with it.
    pub fn retain(&mut self, keep: impl Fn(&Digest) -> bool) -> usize {
        let before = self.blobs.len();
        self.blobs.retain(|d, _| keep(d));
        let dropped = before - self.blobs.len();
        if dropped > 0 {
            self.derived.forget(|d| !keep(d));
        }
        dropped
    }

    /// The value [`BlobStore::keep_derived`] recorded for `manifest`, if
    /// this store holds every blob of its closure — an O(closure) lookup,
    /// no hashing. A held digest names the bytes the value was derived
    /// from, because every entry is proven. A missing blob or another
    /// type `T` is a miss.
    pub fn derived<T: Any + Send + Sync>(&self, manifest: &Digest) -> Option<Arc<T>> {
        let table = self.derived.lock();
        let entry = table.get(manifest)?;
        if !entry.closure.iter().all(|d| self.contains(d)) {
            return None;
        }
        Arc::clone(&entry.value).downcast().ok()
    }

    /// Record `value` as derived from `manifest`'s closure as this store
    /// holds it now, replacing any earlier entry for `manifest`. A closure
    /// this store does not hold whole records nothing. The entry lives
    /// until a store sharing it drops one of its blobs
    /// ([`BlobStore::retain`], [`BlobBackend::remove`]), or the last clone
    /// of the store goes.
    pub fn keep_derived<T: Any + Send + Sync>(&self, manifest: &Digest, value: Arc<T>) {
        let Ok(closure) = closure_digests(self, manifest) else {
            return;
        };
        if !closure.iter().all(|d| self.contains(d)) {
            return;
        }
        self.derived
            .lock()
            .insert(*manifest, Derived { closure, value });
    }

    /// Number of derived values held (shared with this store's clones).
    pub fn derived_len(&self) -> usize {
        self.derived.lock().len()
    }

    /// Share a blob another in-memory store already admitted, if missing
    /// here (a refcount bump, not a copy), on that store's proof.
    pub fn fetch_from(&mut self, other: &BlobStore, digest: &Digest) -> bool {
        if self.contains(digest) {
            return true;
        }
        match other.verified(digest) {
            Some(proof) => {
                self.admit(proof);
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
        let removed = self.blobs.remove(digest).is_some();
        if removed {
            self.derived.forget(|d| d == digest);
        }
        Ok(removed)
    }

    fn digests(&self) -> Result<Vec<(Digest, u64)>, StoreError> {
        Ok(self.iter().map(|(d, b)| (*d, b.len() as u64)).collect())
    }

    /// Nothing to commit: the index a memory layout holds is the table.
    fn commit_index(&mut self, _index: &ImageIndex) -> Result<(), StoreError> {
        Ok(())
    }

    /// Every entry is proven.
    fn proven(&self, digest: &Digest) -> bool {
        self.contains(digest)
    }

    fn proof_count(&self) -> usize {
        self.len()
    }
}

/// Recursively collect the digests reachable from a manifest in `src`: the
/// manifest itself first, then its config, then every layer in order. This
/// is the transfer unit of both the in-process [`crate::OciDir`] and the wire
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BlobBackend;
    use crate::image::ImageBuilder;
    use crate::layout::OciDir;
    use bytes::Bytes;
    use comt_vfs::Vfs;
    use proptest::prelude::*;

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

        let mut reg = OciDir::new();
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
        let reg = OciDir::new();
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
        let mut reg = OciDir::new();
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
        // Lent by the store, so it shares the store's own buffer.
        assert_eq!(proof.as_slice().as_ptr(), s.get(&d).unwrap().as_ptr());
        assert!(s.verified(&Digest::of(b"absent")).is_none());
    }

    #[test]
    fn push_with_missing_blob_fails() {
        let local = BlobStore::new();
        let mut reg = OciDir::new();
        let err = reg.push("x", Digest::of(b"not-a-manifest"), &local);
        assert!(matches!(err, Err(StoreError::MissingBlob(_))));
    }

    #[test]
    fn a_derived_value_needs_its_closure_present() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        store.keep_derived(&md, Arc::new(7u32));
        assert_eq!(store.derived::<u32>(&md).as_deref(), Some(&7));
        // Another type is a miss, not a wrong answer.
        assert!(store.derived::<u64>(&md).is_none());

        // A clone shares the table and the blobs, so it hits too.
        let twin = store.clone();
        assert_eq!(twin.derived::<u32>(&md).as_deref(), Some(&7));

        // A clone that never held a later image's closure shares the
        // entry for it but misses.
        let mut later = BlobStore::new();
        let other = ImageBuilder::from_scratch("x86_64")
            .with_layer_tar(Bytes::from_static(b"another layer"), "layer")
            .commit(&mut later)
            .unwrap()
            .manifest_digest;
        for d in closure_digests(&later, &other).unwrap() {
            assert!(store.fetch_from(&later, &d));
        }
        store.keep_derived(&other, Arc::new(8u32));
        assert_eq!(store.derived::<u32>(&other).as_deref(), Some(&8));
        assert!(twin.derived::<u32>(&other).is_none());
        assert_eq!(twin.derived::<u32>(&md).as_deref(), Some(&7));
    }

    /// One step of the invariant test: an operation on store 0 or 1.
    #[derive(Debug)]
    enum Op {
        Put(usize, usize),
        Admit(usize, usize),
        FetchFrom(usize, usize),
        Retain(usize, usize),
        Remove(usize, usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0..5u8, 0..2usize, 0..8usize).prop_map(|(kind, store, blob)| match kind {
            0 => Op::Put(store, blob),
            1 => Op::Admit(store, blob),
            2 => Op::FetchFrom(store, blob),
            3 => Op::Retain(store, blob),
            _ => Op::Remove(store, blob),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn every_entry_is_proven_and_a_derived_value_dies_with_its_closure(
            ops in prop::collection::vec(op(), 1..40),
        ) {
            // A pool of eight blobs: an image's closure, then five more.
            let mut first = BlobStore::new();
            let md = tiny_image(&mut first);
            let closure = closure_digests(&first, &md).unwrap();
            let mut pool: Vec<Bytes> = closure.iter().map(|d| first.get(d).unwrap()).collect();
            pool.extend((0..5u8).map(|i| Bytes::from(vec![i; 3 + i as usize])));
            let digests: Vec<Digest> = pool.iter().map(|b| Digest::of(b)).collect();

            first.keep_derived(&md, Arc::new(()));
            let mut stores = [first.clone(), first];
            let mut closure_dropped = false;
            for op in ops {
                match op {
                    Op::Put(s, b) => {
                        stores[s].put(pool[b].clone());
                    }
                    Op::Admit(s, b) => {
                        stores[s].admit(Verified::hash(&pool[b][..]));
                    }
                    Op::FetchFrom(s, b) => {
                        let other = stores[1 - s].clone();
                        let held = other.contains(&digests[b]) || stores[s].contains(&digests[b]);
                        prop_assert_eq!(stores[s].fetch_from(&other, &digests[b]), held);
                    }
                    Op::Retain(s, b) | Op::Remove(s, b) => {
                        let gone = digests[b];
                        closure_dropped |= stores[s].contains(&gone) && closure.contains(&gone);
                        if matches!(op, Op::Retain(..)) {
                            stores[s].retain(|d| *d != gone);
                        } else {
                            stores[s].remove(&gone).unwrap();
                        }
                    }
                }
                for store in &stores {
                    for d in &digests {
                        prop_assert_eq!(store.proven(d), store.contains(d));
                        prop_assert_eq!(store.verified(d).is_some(), store.contains(d));
                    }
                    prop_assert_eq!(store.proof_count(), store.len());
                    prop_assert_eq!(store.derived::<()>(&md).is_some(), !closure_dropped);
                }
            }
        }
    }

    #[test]
    fn dropping_a_blob_drops_what_was_derived_from_it() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        let layer = closure_digests(&store, &md).unwrap()[2];
        store.keep_derived(&md, Arc::new(()));
        assert_eq!(store.derived_len(), 1);
        // Dropping a blob outside the closure keeps the entry.
        let other = store.put(Bytes::from_static(b"unrelated"));
        assert_eq!(store.retain(|d| *d != other), 1);
        assert_eq!(store.derived_len(), 1);
        assert!(store.remove(&layer).unwrap());
        assert_eq!(store.derived_len(), 0);

        let md = tiny_image(&mut store);
        store.keep_derived(&md, Arc::new(()));
        store.retain(|d| *d != md);
        assert_eq!(store.derived_len(), 0);
        // A closure the store does not hold whole records nothing.
        store.keep_derived(&md, Arc::new(()));
        assert_eq!(store.derived_len(), 0);
    }
}
