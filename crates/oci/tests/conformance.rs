//! One conformance suite for the one tagged store: every property below is
//! one generic body, run over `Layout<BlobStore>` and `Layout<DiskStore>`.
//! A second section drives the same publish path over a blob backend that
//! fails on demand; a third feeds hostile bytes to the store's JSON doors
//! (`closure_of_manifest`, `DiskStore::read_index`, `Layout::live_set`)
//! from the vendored `proptest`'s fixed-seed generator, so a failure
//! reproduces.
//!
//! Run it with `--release` too: the poison test is only meaningful where
//! `debug_assert` is compiled out.
//!
//! One pair of tests reads the process-global hash counter
//! (`comt_digest::bytes_hashed`). They hold [`COUNTER`] for writing and
//! every other test of this binary holds it for reading, so nothing else
//! hashes inside their windows.

use bytes::Bytes;
use comt_digest::Digest;
use comt_oci::layout::Layout;
use comt_oci::spec::{Descriptor, ImageIndex, ImageManifest, MediaType};
use comt_oci::{
    closure_digests, closure_of_manifest, BlobBackend, BlobHandle, BlobStore, DiskStore,
    ImageBuilder, StoreError, Verified,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

static COUNTER: RwLock<()> = RwLock::new(());

/// Held by every test that may hash: it shares the counter's windows.
fn shared() -> RwLockReadGuard<'static, ()> {
    COUNTER.read().unwrap_or_else(|e| e.into_inner())
}

/// Held by a test that reads the counter: nothing else hashes meanwhile.
fn exclusive() -> RwLockWriteGuard<'static, ()> {
    COUNTER.write().unwrap_or_else(|e| e.into_inner())
}

/// What the suite needs from a backend beyond the trait: a way to make one,
/// and to come back after a restart.
trait Fixture: BlobBackend + Send + Sized + 'static {
    /// Whether the store after [`Fixture::reopen`] still holds the proofs
    /// it held before: a memory store is the same store, a disk store is a
    /// new process's view of the directory.
    const REOPEN_KEEPS_PROOFS: bool;
    fn fresh(tag: &str) -> Layout<Self>;
    fn reopen(layout: Layout<Self>) -> Layout<Self>;
    fn discard(layout: Layout<Self>);
}

impl Fixture for BlobStore {
    const REOPEN_KEEPS_PROOFS: bool = true;
    fn fresh(_tag: &str) -> Layout<Self> {
        Layout::new()
    }
    fn reopen(layout: Layout<Self>) -> Layout<Self> {
        layout
    }
    fn discard(_layout: Layout<Self>) {}
}

impl Fixture for DiskStore {
    const REOPEN_KEEPS_PROOFS: bool = false;
    fn fresh(tag: &str) -> Layout<Self> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "comt-conformance-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Layout::open(&dir).unwrap()
    }
    fn reopen(layout: Layout<Self>) -> Layout<Self> {
        let dir = layout.blobs.root().to_path_buf();
        drop(layout); // releases the layout lock
        Layout::open(&dir).unwrap()
    }
    fn discard(layout: Layout<Self>) {
        let dir = layout.blobs.root().to_path_buf();
        drop(layout);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Damage a blob behind the store's back: rewrite its file with bytes of
/// another length. Only a disk store can hold bytes it did not hash; an
/// in-memory store holds proven entries alone.
fn rot(layout: &mut Layout<DiskStore>, digest: &Digest) {
    std::fs::write(layout.blobs.blob_path(digest), b"bitrot").unwrap();
}

macro_rules! on_both_backends {
    ($($body:ident),* $(,)?; disk only: $($disk:ident),* $(,)?) => {
        mod mem {
            $( #[test] fn $body() {
                let _shared = super::shared();
                super::$body::<comt_oci::BlobStore>()
            } )*
        }
        mod disk {
            $( #[test] fn $body() {
                let _shared = super::shared();
                super::$body::<comt_oci::DiskStore>()
            } )*
            $( #[test] fn $disk() {
                let _shared = super::shared();
                super::$disk()
            } )*
        }
    };
}

on_both_backends!(
    poisoned_claim_is_rejected_in_every_build_profile,
    rejected_publish_leaves_no_blob_and_no_tag,
    tag_is_invisible_until_its_closure_is_complete_and_verified,
    bare_ref_names_answer_to_latest,
    chunkmap_lifetime_is_slaved_to_its_layer,
    gc_reclaims_only_unreachable_blobs_and_shared_layers_survive,
    a_broken_ref_stops_gc_instead_of_shrinking_the_live_set,
    a_proof_lives_as_long_as_the_bytes_it_was_taken_on;
    disk only:
    publish_refuses_a_member_rotted_on_disk,
    a_manifest_rotted_on_disk_stops_gc,
    a_blob_rewritten_on_disk_loses_its_proof,
);

mod counted {
    #[test]
    fn mem_push_hashes_only_what_it_moves() {
        let _exclusive = super::exclusive();
        super::an_in_process_push_hashes_only_what_it_moves::<comt_oci::BlobStore>()
    }
    #[test]
    fn disk_push_hashes_only_what_it_moves() {
        let _exclusive = super::exclusive();
        super::an_in_process_push_hashes_only_what_it_moves::<comt_oci::DiskStore>()
    }
}

/// A committed image in a scratch store: (store, closure digests — manifest,
/// config, then layers).
fn image(layers: &[&'static [u8]]) -> (BlobStore, Vec<Digest>) {
    let mut blobs = BlobStore::new();
    let mut builder = ImageBuilder::from_scratch("x86_64");
    for tar in layers {
        builder = builder.with_layer_tar(Bytes::from_static(tar), "layer");
    }
    let md = builder.commit(&mut blobs).unwrap().manifest_digest;
    let closure = closure_digests(&blobs, &md).unwrap();
    (blobs, closure)
}

/// Upload every closure blob but the manifest, the way a wire push does.
fn upload<B: BlobBackend + Send + 'static>(
    reg: &mut Layout<B>,
    src: &BlobStore,
    closure: &[Digest],
) {
    for d in &closure[1..] {
        let blob = Verified::check(*d, src.get(d).unwrap()).unwrap();
        reg.blobs.insert(blob).unwrap();
    }
}

fn publish<B: BlobBackend + Send + 'static>(
    reg: &mut Layout<B>,
    key: &str,
    src: &BlobStore,
    closure: &[Digest],
) -> Result<Digest, StoreError> {
    reg.publish_manifest(key, Verified::hash(src.get(&closure[0]).unwrap()))
        .map(|(d, _)| d)
}

fn holds<B: BlobBackend + Send + 'static>(reg: &Layout<B>, d: &Digest) -> bool {
    reg.blobs.handle(d).is_some()
}

fn poisoned_claim_is_rejected_in_every_build_profile<B: Fixture>() {
    // The trust boundary is a type: a store takes only a `Verified`, and a
    // `Verified` for a claimed address exists only if the bytes hash to it
    // — in release builds too, where a `debug_assert` is compiled out.
    let mut reg = B::fresh("poison");
    let claimed = Digest::of(b"what the client promised");
    let err = Verified::check(claimed, &b"poison"[..]).unwrap_err();
    assert!(matches!(err, StoreError::DigestMismatch(_)));
    // Hashing the poison yields a proof for the poison's own address only.
    let honest = Verified::hash(&b"poison"[..]);
    assert_eq!(honest.digest(), Digest::of(b"poison"));
    assert!(reg.blobs.insert(honest).unwrap());
    assert!(!holds(&reg, &claimed));
    assert_eq!(reg.blob_count().unwrap(), 1);
    // A borrowed proof and a shared one admit the same bytes.
    let again = Verified::check(Digest::of(b"poison"), Bytes::from_static(b"poison")).unwrap();
    assert!(!reg.blobs.insert(again).unwrap(), "dedupe by digest");
    let stored = reg.blobs.handle(&Digest::of(b"poison")).unwrap();
    assert_eq!(
        stored.read_verified(&Digest::of(b"poison")).unwrap().as_slice(),
        b"poison"
    );
    B::discard(reg);
}

fn rejected_publish_leaves_no_blob_and_no_tag<B: Fixture>() {
    let (src, closure) = image(&[b"layer tar bytes"]);
    let md = closure[0];

    // Closure missing a layer.
    let mut reg = B::fresh("reject-missing");
    let cfg = Verified::check(closure[1], src.get(&closure[1]).unwrap()).unwrap();
    reg.blobs.insert(cfg).unwrap();
    assert!(matches!(
        publish(&mut reg, "app:1", &src, &closure),
        Err(StoreError::MissingBlob(_))
    ));
    assert!(reg.resolve("app:1").is_err());
    assert!(!holds(&reg, &md), "rejected manifest was stored");
    assert_eq!(reg.blob_count().unwrap(), 1);

    // Garbage in place of a manifest is the caller's fault, and stores nothing.
    assert!(matches!(
        reg.publish_manifest("app:1", Verified::hash(&b"not json"[..])),
        Err(StoreError::CorruptManifest(_))
    ));
    assert_eq!(reg.blob_count().unwrap(), 1);
    assert!(reg.index.ref_names().is_empty());
    B::discard(reg);
}

fn publish_refuses_a_member_rotted_on_disk() {
    let (src, closure) = image(&[b"layer tar bytes"]);
    let mut reg = DiskStore::fresh("reject-corrupt");
    upload(&mut reg, &src, &closure);
    rot(&mut reg, &closure[2]);
    assert!(matches!(
        publish(&mut reg, "app:1", &src, &closure),
        Err(StoreError::DigestMismatch(_))
    ));
    assert!(reg.resolve("app:1").is_err());
    assert!(reg.index.ref_names().is_empty());
    assert!(!holds(&reg, &closure[0]), "rejected manifest was stored");
    DiskStore::discard(reg);
}

fn tag_is_invisible_until_its_closure_is_complete_and_verified<B: Fixture>() {
    let (src, closure) = image(&[b"first layer", b"second layer"]);
    let mut reg = B::fresh("staged");
    for d in &closure[1..] {
        assert!(reg.resolve("app:1").is_err(), "tag visible mid-upload");
        assert!(publish(&mut reg, "app:1", &src, &closure).is_err());
        let blob = Verified::check(*d, src.get(d).unwrap()).unwrap();
        reg.blobs.insert(blob).unwrap();
    }
    assert_eq!(
        publish(&mut reg, "app:1", &src, &closure).unwrap(),
        closure[0]
    );
    assert_eq!(reg.resolve("app:1").unwrap(), closure[0]);
    assert_eq!(reg.resolve("app:1").ok(), Some(closure[0]));
    for d in &closure {
        let handle = reg.blobs.handle(d).unwrap();
        assert_eq!(handle.read_verified(d).unwrap().as_slice(), &src.get(d).unwrap()[..]);
    }
    // Republishing is idempotent, and the tag table survives a restart.
    assert_eq!(
        publish(&mut reg, "app:1", &src, &closure).unwrap(),
        closure[0]
    );
    let reg = B::reopen(reg);
    assert_eq!(reg.resolve("app:1").unwrap(), closure[0]);
    assert_eq!(reg.index.ref_names(), ["app:1"]);
    B::discard(reg);
}

fn bare_ref_names_answer_to_latest<B: Fixture>() {
    // A layout ref saved as a bare name (`app.dist+coM`) is what the wire
    // asks for as `app.dist+coM:latest`; an explicit tag matches exactly.
    let (src, closure) = image(&[b"layer"]);
    let mut reg = B::fresh("latest");
    upload(&mut reg, &src, &closure);
    // Both tags name one manifest blob: only the first publish writes it.
    let manifest = || Verified::hash(src.get(&closure[0]).unwrap());
    assert_eq!(
        reg.publish_manifest("app.dist+coM", manifest()).unwrap(),
        (closure[0], true)
    );
    assert_eq!(
        reg.publish_manifest("app:v1", manifest()).unwrap(),
        (closure[0], false)
    );
    assert_eq!(reg.resolve("app.dist+coM").unwrap(), closure[0]);
    assert_eq!(reg.resolve("app.dist+coM:latest").unwrap(), closure[0]);
    assert_eq!(reg.resolve("app:v1").unwrap(), closure[0]);
    assert!(matches!(
        reg.resolve("app"),
        Err(StoreError::UnknownRef(_))
    ));
    assert_eq!(reg.resolve("app:latest").ok(), None);
    B::discard(reg);
}

fn chunkmap_lifetime_is_slaved_to_its_layer<B: Fixture>() {
    static LAYER: [u8; 64 * 1024] = [7u8; 64 * 1024];
    let (src, closure) = image(&[&LAYER[..]]);
    let layer = closure[2];
    let mut reg = B::fresh("chunkmap");
    upload(&mut reg, &src, &closure);
    publish(&mut reg, "app:1", &src, &closure).unwrap();

    let map = comt_chunk::ChunkMap::build(&src.get(&layer).unwrap(), Default::default()).unwrap();
    let map_digest = reg
        .put_chunkmap(layer, Verified::hash(map.to_json()))
        .unwrap();
    let held = reg.blob_count().unwrap();
    assert_eq!(
        reg.put_chunkmap(layer, Verified::hash(map.to_json())).unwrap(),
        map_digest
    );
    assert_eq!(reg.blob_count().unwrap(), held, "a held map is stored once");
    assert_eq!(reg.chunkmap_for(&layer), Some(map_digest));
    assert!(holds(&reg, &map_digest));

    // A chunkmap for a blob the store does not hold is refused.
    assert!(matches!(
        reg.put_chunkmap(Digest::of(b"ghost layer"), Verified::hash(&b"{}"[..])),
        Err(StoreError::MissingBlob(_))
    ));

    // Layer live → chunkmap live: nothing to collect. The association is
    // in the committed index, so it survives a restart.
    let (dead, _) = reg.gc_plan().unwrap();
    assert!(dead.is_empty(), "{dead:?}");
    let mut reg = B::reopen(reg);
    assert_eq!(reg.chunkmap_for(&layer), Some(map_digest));

    // Drop the ref: the layer dies, and the chunkmap must die with it —
    // blob swept, association gone from the index.
    let mut next = reg.index.clone();
    assert!(next.remove_ref("app:1"));
    reg.blobs.commit_index(&next).unwrap();
    reg.index = next;
    let (dead, _) = reg.gc_plan().unwrap();
    assert!(dead.contains(&map_digest), "orphan chunkmap not planned");
    let (removed, _) = reg.gc_apply().unwrap();
    assert_eq!(removed, 4); // manifest + config + layer + chunkmap
    assert!(!holds(&reg, &map_digest));
    assert_eq!(reg.chunkmap_for(&layer), None);
    assert!(reg.index.chunkmap_entries().next().is_none());
    let reg = B::reopen(reg);
    assert!(reg.index.chunkmap_entries().next().is_none());
    B::discard(reg);
}

fn gc_reclaims_only_unreachable_blobs_and_shared_layers_survive<B: Fixture>() {
    // Two tags sharing a base layer: dropping one must prune only the
    // blobs unique to it (reachability is the refcount).
    let (base_src, base) = image(&[b"shared base layer"]);
    let (app_src, app) = image(&[b"shared base layer", b"app-only layer"]);
    let (shared, app_only) = (base[2], app[3]);
    assert_eq!(app[2], shared);

    let mut reg = B::fresh("gc");
    upload(&mut reg, &base_src, &base);
    publish(&mut reg, "base:1", &base_src, &base).unwrap();
    upload(&mut reg, &app_src, &app);
    publish(&mut reg, "app:1", &app_src, &app).unwrap();
    let orphan = Verified::hash(&b"unreferenced bytes"[..]);
    let (orphan_digest, orphan_len) = (orphan.digest(), orphan.len() as u64);
    reg.blobs.insert(orphan).unwrap();

    // Both tags present: only the stray blob is collectable.
    assert_eq!(reg.gc_plan().unwrap(), (vec![orphan_digest], orphan_len));
    assert_eq!(reg.gc_apply().unwrap(), (1, orphan_len));
    assert!(!holds(&reg, &orphan_digest));
    assert_eq!(reg.gc_plan().unwrap(), (vec![], 0));

    // Drop the app tag: exactly its manifest, config and unique layer die.
    let mut next = reg.index.clone();
    assert!(next.remove_ref("app:1"));
    reg.blobs.commit_index(&next).unwrap();
    reg.index = next;
    let (dead, bytes) = reg.gc_plan().unwrap();
    assert_eq!(dead.len(), 3, "{dead:?}");
    assert!(dead.contains(&app[0]) && dead.contains(&app_only));
    assert!(!dead.contains(&shared));
    assert!(bytes > 0);
    assert_eq!(reg.gc_apply().unwrap(), (3, bytes));
    assert!(holds(&reg, &shared) && !holds(&reg, &app_only));

    // The surviving tag still resolves and every blob of it verifies.
    assert_eq!(reg.resolve("base:1").unwrap(), base[0]);
    for d in &base {
        reg.blobs.handle(d).unwrap().read_verified(d).unwrap();
    }
    assert_eq!(reg.gc_apply().unwrap(), (0, 0));
    B::discard(reg);
}

fn a_broken_ref_stops_gc_instead_of_shrinking_the_live_set<B: Fixture>() {
    // gc must not call blobs dead because a closure could not be walked:
    // here the manifest a ref names is gone.
    let (src, closure) = image(&[b"layer"]);
    let mut reg = B::fresh("broken-ref");
    upload(&mut reg, &src, &closure);
    publish(&mut reg, "app:1", &src, &closure).unwrap();
    assert!(reg.blobs.remove(&closure[0]).unwrap());
    assert!(matches!(reg.live_set(), Err(StoreError::MissingBlob(_))));
    assert!(reg.gc_plan().is_err());
    assert!(reg.gc_apply().is_err());
    assert!(holds(&reg, &closure[2]), "gc swept under a broken ref");
    B::discard(reg);
}

fn a_manifest_rotted_on_disk_stops_gc() {
    let (src, closure) = image(&[b"layer"]);
    let mut reg = DiskStore::fresh("rotted-ref");
    upload(&mut reg, &src, &closure);
    publish(&mut reg, "app:1", &src, &closure).unwrap();
    rot(&mut reg, &closure[0]);
    assert!(matches!(
        reg.live_set(),
        Err(StoreError::DigestMismatch(_))
    ));
    assert!(reg.gc_plan().is_err());
    assert!(reg.gc_apply().is_err());
    assert!(holds(&reg, &closure[2]), "gc swept under a broken ref");
    DiskStore::discard(reg);
}

fn a_proof_lives_as_long_as_the_bytes_it_was_taken_on<B: Fixture>() {
    let (src, closure) = image(&[b"proven layer"]);
    let layer = closure[2];
    let mut reg = B::fresh("proofs");
    assert!(!reg.blobs.proven(&layer), "a store proves nothing it lacks");
    upload(&mut reg, &src, &closure);
    assert!(reg.blobs.proven(&layer), "a blob the store wrote is proven");
    assert_eq!(reg.blobs.proof_count(), 2);

    // A second insert of a held blob writes nothing and keeps the proof.
    let again = Verified::check(layer, src.get(&layer).unwrap()).unwrap();
    assert!(!reg.blobs.insert(again).unwrap());
    assert!(reg.blobs.proven(&layer));

    // Removal takes the proof with the blob; a fresh write brings it back.
    assert!(reg.blobs.remove(&layer).unwrap());
    assert!(!reg.blobs.proven(&layer), "a removed blob kept its proof");
    assert_eq!(reg.blobs.proof_count(), 1);
    upload(&mut reg, &src, &closure);
    assert!(reg.blobs.proven(&layer));
    B::discard(reg);
}

fn a_blob_rewritten_on_disk_loses_its_proof() {
    let (src, closure) = image(&[b"proven layer"]);
    let layer = closure[2];
    let mut reg = DiskStore::fresh("rewritten");
    upload(&mut reg, &src, &closure);
    assert!(reg.blobs.proven(&layer));
    // Bytes written behind the store's back are not what it proved.
    rot(&mut reg, &layer);
    assert!(!reg.blobs.proven(&layer), "a rewritten blob kept its proof");
    assert_eq!(reg.blobs.proof_count(), 1);
    DiskStore::discard(reg);
}

fn an_in_process_push_hashes_only_what_it_moves<B: Fixture>() {
    let (src, closure) = image(&[b"first pushed layer", b"second pushed layer"]);
    let size = |d: &Digest| src.get(d).unwrap().len() as u64;
    let members: u64 = closure[1..].iter().map(size).sum();
    let obs = comt_observe::global();
    let mut reg = B::fresh("push-hashes");
    // One push: bytes hashed, publish's re-hashed members, its proven ones.
    let push = |reg: &mut Layout<B>, tag: &str| {
        let before = (
            comt_digest::bytes_hashed(),
            obs.counter("store.verify.blobs"),
            obs.counter("store.verify.proven"),
        );
        reg.push(tag, closure[0], &src).unwrap();
        (
            comt_digest::bytes_hashed() - before.0,
            obs.counter("store.verify.blobs") - before.1,
            obs.counter("store.verify.proven") - before.2,
        )
    };

    // The source holds only proofs, so a push borrows them: nothing is
    // hashed, whether blobs move or not, and publish finds every member
    // proven.
    assert_eq!(push(&mut reg, "app:1"), (0, 0, 3));
    assert_eq!(push(&mut reg, "app:2"), (0, 0, 3));

    // After a restart a disk store proves nothing it did not write: its
    // first publish re-hashes each member once, and proves it from then on.
    let mut reg = B::reopen(reg);
    assert_eq!(reg.blobs.proven(&closure[2]), B::REOPEN_KEEPS_PROOFS);
    let expect = if B::REOPEN_KEEPS_PROOFS {
        (0, 0, 3)
    } else {
        (members, 3, 0)
    };
    assert_eq!(push(&mut reg, "app:3"), expect);
    assert_eq!(push(&mut reg, "app:4"), (0, 0, 3));
    B::discard(reg);
}

// ---- a backend that fails on demand -----------------------------------

/// A blob backend that lets `budget` mutations (inserts and index commits)
/// succeed and fails every one after. `committed` is the tag table a
/// reopen would read: only a successful `commit_index` changes it.
#[derive(Default)]
struct FailingStore {
    inner: BlobStore,
    committed: ImageIndex,
    budget: usize,
}

impl FailingStore {
    fn spend(&mut self) -> Result<(), StoreError> {
        if self.budget == 0 {
            return Err(StoreError::Io(std::io::Error::other("injected fault")));
        }
        self.budget -= 1;
        Ok(())
    }
}

impl BlobBackend for FailingStore {
    fn handle(&self, digest: &Digest) -> Option<BlobHandle> {
        self.inner.handle(digest)
    }
    fn insert(&mut self, blob: Verified<'_>) -> Result<bool, StoreError> {
        self.spend()?;
        self.inner.insert(blob)
    }
    fn remove(&mut self, digest: &Digest) -> Result<bool, StoreError> {
        self.inner.remove(digest)
    }
    fn digests(&self) -> Result<Vec<(Digest, u64)>, StoreError> {
        self.inner.digests()
    }
    fn commit_index(&mut self, index: &ImageIndex) -> Result<(), StoreError> {
        self.spend()?;
        self.committed = index.clone();
        Ok(())
    }
}

#[test]
fn a_failing_backend_never_tears_the_tag_table() {
    let _shared = shared();
    let (v1_src, v1) = image(&[b"base layer", b"v1 layer"]);
    let (v2_src, v2) = image(&[b"base layer", b"v2 layer"]);
    let map = |src: &BlobStore, layer: &Digest| {
        comt_chunk::ChunkMap::build(&src.get(layer).unwrap(), Default::default())
            .unwrap()
            .to_json()
    };

    // The update: upload v2's new blobs, move `app:1` onto it, describe its
    // new layer. Returns at the first failure.
    let update = |reg: &mut Layout<FailingStore>| -> Result<(), StoreError> {
        for d in &v2[1..] {
            reg.blobs.insert(Verified::check(*d, v2_src.get(d).unwrap())?)?;
        }
        reg.publish_manifest("app:1", Verified::hash(v2_src.get(&v2[0]).unwrap()))?;
        reg.put_chunkmap(v2[3], Verified::hash(map(&v2_src, &v2[3])))?;
        Ok(())
    };

    let mut mutations = 0;
    for budget in 0.. {
        // A healthy registry serving v1 under two names, with a chunkmap.
        let mut reg = Layout {
            index: ImageIndex::default(),
            blobs: FailingStore {
                budget: usize::MAX,
                ..Default::default()
            },
        };
        upload(&mut reg, &v1_src, &v1);
        publish(&mut reg, "app:1", &v1_src, &v1).unwrap();
        publish(&mut reg, "app.dist", &v1_src, &v1).unwrap();
        reg.put_chunkmap(v1[3], Verified::hash(map(&v1_src, &v1[3])))
            .unwrap();
        let before = reg.index.clone();
        let held = reg.blobs.digests().unwrap();

        reg.blobs.budget = budget;
        match update(&mut reg) {
            Ok(()) => {
                assert_eq!(reg.resolve("app:1").unwrap(), v2[0]);
                assert_eq!(reg.blobs.committed, reg.index);
                mutations = budget;
                break;
            }
            Err(e) => assert!(e.is_store_fault(), "cut {budget}: {e}"),
        }

        // The cut left a table that is entirely the old one or has exactly
        // the completed flips in it — and memory agrees with "disk".
        assert_eq!(
            reg.index, reg.blobs.committed,
            "cut {budget}: memory ahead of commit"
        );
        let flipped = reg.resolve("app:1").unwrap() == v2[0];
        if !flipped {
            assert_eq!(
                reg.index, before,
                "cut {budget}: failed publish changed the table"
            );
        }
        // Every previous answer that the update does not replace still holds.
        assert_eq!(reg.resolve("app.dist").unwrap(), v1[0], "cut {budget}");
        assert_eq!(
            reg.resolve("app.dist:latest").unwrap(),
            v1[0],
            "cut {budget}"
        );
        assert!(reg.chunkmap_for(&v1[3]).is_some(), "cut {budget}");
        // Whatever `app:1` names is complete and verifies.
        let live = if flipped {
            (&v2_src, &v2)
        } else {
            (&v1_src, &v1)
        };
        for d in live.1 {
            let got = reg.blobs.handle(d).unwrap().read_verified(d).unwrap();
            assert_eq!(got.as_slice(), &live.0.get(d).unwrap()[..], "cut {budget}");
        }
        // No previously committed blob was touched.
        for (d, len) in &held {
            assert_eq!(
                reg.blobs.handle(d).map(|h| h.len()),
                Some(*len),
                "cut {budget}"
            );
            reg.blobs.handle(d).unwrap().read_verified(d).unwrap();
        }
    }
    // Three blob inserts (the shared base layer is still an insert call),
    // then manifest, flip, chunkmap, flip: cuts before each of the seven.
    assert_eq!(mutations, 7);
}

// ---- hostile bytes at the store's JSON doors ---------------------------

/// Run `body` on `n` values of `strategy`, seeded by `name` alone.
fn for_cases<S: Strategy>(name: &str, n: usize, strategy: S, mut body: impl FnMut(S::Value)) {
    let mut rng = TestRng::deterministic(name);
    for _ in 0..n {
        body(strategy.sample(&mut rng));
    }
}

fn all_parse<'a>(mut descs: impl Iterator<Item = &'a Descriptor>) -> bool {
    descs.all(|d| d.parsed_digest().is_ok())
}

/// Whether `raw` is a manifest whose every digest parses — what
/// `closure_of_manifest` must accept, and all it may accept.
fn sound_manifest(raw: &[u8]) -> bool {
    serde_json::from_slice::<ImageManifest>(raw)
        .is_ok_and(|m| all_parse(std::iter::once(&m.config).chain(&m.layers)))
}

/// The three doors over one (manifest, index) pair of byte strings: none
/// panics, each says `Ok` only when every digest it relies on parses, and
/// otherwise answers with the corrupt-manifest (or, on disk, torn) variant.
fn knock(store: &DiskStore, src: &BlobStore, manifest: Vec<u8>, index: Vec<u8>) {
    let md = Digest::of(&manifest);
    match closure_of_manifest(&manifest, &md) {
        Ok(closure) => assert!(sound_manifest(&manifest) && closure[0] == md),
        Err(e) => {
            assert!(matches!(e, StoreError::CorruptManifest(_)), "{e}");
            assert!(!sound_manifest(&manifest), "sound manifest refused: {e}");
        }
    }

    std::fs::write(store.root().join("index.json"), &index).unwrap();
    let parsed = serde_json::from_slice::<ImageIndex>(&index).ok();
    match store.read_index() {
        Ok(read) => {
            assert_eq!(Some(&read), parsed.as_ref());
            assert!(all_parse(read.manifests.iter()));
        }
        Err(e) => {
            assert!(matches!(e, StoreError::Torn { .. }), "{e}");
            let sound = parsed.as_ref().is_some_and(|i| all_parse(i.manifests.iter()));
            assert!(!sound, "sound index refused: {e}");
        }
    }

    // Whatever index did parse, over a store that holds the hostile
    // manifest under its true address and a ref that names it.
    let mut layout = Layout {
        index: parsed.unwrap_or_default(),
        blobs: src.clone(),
    };
    layout.blobs.put(manifest.clone());
    let desc = Descriptor::new(MediaType::ImageManifest, md, manifest.len() as u64);
    layout.index.set_ref("hostile", desc);
    let walked = |d: &&Descriptor| d.ref_name().is_some() || d.media_type == MediaType::Chunkmap;
    let sound = sound_manifest(&manifest) && all_parse(layout.index.manifests.iter().filter(walked));
    match layout.live_set() {
        Ok(live) => assert!(sound && live.contains(&md)),
        // A digest damaged into another well-formed one names nothing.
        Err(StoreError::MissingBlob(_)) => {}
        Err(e) => {
            assert!(matches!(e, StoreError::CorruptManifest(_)), "{e}");
            assert!(!sound, "sound layout refused: {e}");
        }
    }
    assert_eq!(layout.gc_plan().is_ok(), layout.live_set().is_ok());
}

#[test]
fn hostile_json_never_panics_and_is_never_half_accepted() {
    let _shared = shared();
    // A valid manifest and a valid `index.json` (two refs and a chunkmap
    // entry), as `commit_index` writes it.
    let (src, closure) = image(&[b"first layer", b"second layer"]);
    let manifest = src.get(&closure[0]).unwrap().to_vec();
    let mut index = ImageIndex::default();
    let desc = Descriptor::new(MediaType::ImageManifest, closure[0], manifest.len() as u64);
    index.set_ref("app:1", desc.clone());
    index.set_ref("app.dist+coM", desc);
    let map = Descriptor::new(MediaType::Chunkmap, Digest::of(b"a chunkmap"), 10);
    index.set_chunkmap(&closure[2], map);
    let index = serde_json::to_vec_pretty(&index).unwrap();

    let dir = std::env::temp_dir().join(format!("comt-conformance-doors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::init(&dir).unwrap();
    knock(&store, &src, manifest.clone(), index.clone());

    let garbage = || prop::collection::vec(any::<u8>(), 0..256);
    for_cases("random_bytes", 128, (garbage(), garbage()), |(m, i)| {
        knock(&store, &src, m, i)
    });

    // 1–3 edits, each an overwrite, an insert or a cut of 1–3 bytes.
    let edits = || prop::collection::vec((0..3u8, any::<usize>(), any::<u8>(), 1..4usize), 1..4);
    let damage = |mut bytes: Vec<u8>, edits: Vec<(u8, usize, u8, usize)>| {
        for (kind, at, byte, len) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => drop(bytes.drain(at..(at + len).min(bytes.len()))),
            }
        }
        bytes
    };
    for_cases("damaged_json", 256, (edits(), edits()), |(m, i)| {
        knock(&store, &src, damage(manifest.clone(), m), damage(index.clone(), i))
    });
    std::fs::remove_dir_all(&dir).unwrap();
}
