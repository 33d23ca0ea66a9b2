//! The OCI image layout — an image index over content-addressed blobs —
//! and the one tagged store written over it.
//!
//! In the coMtainer workflow the `dist` image is exported as an OCI layout
//! directory (`buildah push xxx.dist oci:./xxx.dist.oci`) which is then
//! bind-mounted into the build/rebuild/redirect containers, pushed, pulled
//! and served. All of those are one type, [`Layout`]: an [`ImageIndex`]
//! plus a [`BlobBackend`]. In memory it is [`OciDir`] (the form "mounted"
//! into simulated containers; `save`/`load` move it to and from disk) and
//! [`crate::Registry`]; over a [`crate::DiskStore`] it is
//! [`crate::DiskRegistry`], the directory itself held open under its lock:
//!
//! ```text
//! oci-layout          # {"imageLayoutVersion": "1.0.0"}
//! index.json          # ImageIndex with ref.name annotations
//! blobs/sha256/<hex>  # content-addressed blobs
//! ```
//!
//! Tag → manifest, layer → chunkmap, publish-only-after-verify, in-process
//! push and pull, liveness and gc are written here once, for every backend,
//! and all of it fails with the one [`StoreError`].

use crate::backend::{BlobBackend, BlobHandle};
use crate::disk::{DiskStore, LayoutLock};
use crate::image::ImageError;
use crate::spec::{Descriptor, ImageIndex, MediaType};
use crate::store::{closure_of_manifest, BlobStore, StoreError, Verified};
use comt_digest::Digest;
use std::collections::BTreeSet;
use std::path::Path;

/// The one tagged store: an image index over a blob backend. `blobs` says
/// where bytes live and how an index flip is committed; everything else —
/// which tag names which manifest, which chunkmap describes which layer,
/// what is live — is `index`.
#[derive(Debug, Clone, Default)]
pub struct Layout<B> {
    pub index: ImageIndex,
    pub blobs: B,
}

/// An OCI layout held in memory: the unit mounted at `/.coMtainer/io`.
pub type OciDir = Layout<BlobStore>;

impl<B: BlobBackend> Layout<B> {
    pub fn store(&self) -> &B {
        &self.blobs
    }

    pub fn store_mut(&mut self) -> &mut B {
        &mut self.blobs
    }

    /// Resolve a ref name — or a wire tag key (`name:reference`) — to its
    /// manifest digest. Names match exactly; a bare ref name
    /// (`app.dist+coM`) also answers to its `latest` reference.
    pub fn resolve(&self, name: &str) -> Result<Digest, StoreError> {
        let bare = || self.index.find_ref(name.strip_suffix(":latest")?);
        let desc = self
            .index
            .find_ref(name)
            .or_else(bare)
            .ok_or_else(|| StoreError::UnknownRef(name.to_string()))?;
        desc.parsed_digest()
            .map_err(|e| StoreError::CorruptManifest(format!("ref {name}: {e}")))
    }

    /// Committed blob count (startup banner, `comt gc`).
    pub fn blob_count(&self) -> Result<usize, StoreError> {
        Ok(self.blobs.digests()?.len())
    }

    fn committed(&self, digest: &Digest) -> Result<BlobHandle, StoreError> {
        self.blobs
            .handle(digest)
            .ok_or_else(|| StoreError::MissingBlob(digest.to_string()))
    }

    /// Commit `next` as the tag table, then adopt it: a failed commit
    /// leaves both the backend's table and `self.index` as they were.
    fn flip(&mut self, next: ImageIndex) -> Result<(), StoreError> {
        self.blobs.commit_index(&next)?;
        self.index = next;
        Ok(())
    }

    /// Stage-and-commit a manifest publish: verify every closure blob is
    /// already committed and bit-correct (streamed, never materialized),
    /// commit the manifest blob, then flip the tag table. A publish whose
    /// closure is missing or corrupt leaves no blob and no tag; a storage
    /// failure at any step leaves the previous tag table and every
    /// previously committed blob untouched.
    pub fn publish_manifest(
        &mut self,
        key: &str,
        manifest: Verified<'_>,
    ) -> Result<Digest, StoreError> {
        let (digest, size) = (manifest.digest(), manifest.len() as u64);
        let closure = closure_of_manifest(manifest.as_slice(), &digest)?;
        {
            let obs = comt_observe::global();
            let _span = obs.span("store.verify");
            obs.count("store.verify.blobs", closure.len() as u64);
            for d in &closure[1..] {
                self.committed(d)?.stream_verified(d)?;
            }
        }
        self.blobs.insert(manifest)?;
        let mut next = self.index.clone();
        next.set_ref(key, Descriptor::new(MediaType::ImageManifest, digest, size));
        self.flip(next)?;
        Ok(digest)
    }

    /// Push a manifest (and its blob closure) from a local store under
    /// `tag`, the way a wire push does: admit each closure blob this store
    /// lacks on a [`Verified::check`] of the source's bytes, then
    /// [`Layout::publish_manifest`] — which re-verifies the whole closure,
    /// so deduplication never masks a poisoned or truncated blob this
    /// store already held, and flips the tag only on success. Returns how
    /// many blobs moved.
    pub fn push(
        &mut self,
        tag: &str,
        manifest_digest: Digest,
        src: &BlobStore,
    ) -> Result<usize, StoreError> {
        let manifest = Verified::check(manifest_digest, src.require(&manifest_digest)?)?;
        let closure = closure_of_manifest(manifest.as_slice(), &manifest_digest)?;
        let mut moved = usize::from(self.blobs.handle(&manifest_digest).is_none());
        for d in &closure[1..] {
            if self.blobs.handle(d).is_none() {
                self.blobs.insert(Verified::check(*d, src.require(d)?)?)?;
                moved += 1;
            }
        }
        self.publish_manifest(tag, manifest)?;
        Ok(moved)
    }

    /// Pull a tag's manifest closure into a local store, verifying every
    /// blob on the way out; returns the manifest digest and how many blobs
    /// `dst` did not already hold.
    pub fn pull(&self, tag: &str, dst: &mut BlobStore) -> Result<(Digest, usize), StoreError> {
        let digest = self.resolve(tag)?;
        let obs = comt_observe::global();
        let _span = obs.span("store.verify");
        let manifest = self.committed(&digest)?.read_verified(&digest)?;
        let closure = closure_of_manifest(manifest.as_slice(), &digest)?;
        obs.count("store.verify.blobs", closure.len() as u64);
        let mut moved = usize::from(dst.insert(manifest)?);
        for d in &closure[1..] {
            moved += usize::from(dst.insert(self.committed(d)?.read_verified(d)?)?);
        }
        Ok((digest, moved))
    }

    /// Chunkmap blob digest recorded for a layer blob, if any.
    pub fn chunkmap_for(&self, layer: &Digest) -> Option<Digest> {
        self.index.chunkmap_for(layer)?.parsed_digest().ok()
    }

    /// Record `map` as the chunkmap of `layer`: commit the map bytes as a
    /// normal blob, then flip the index with the association descriptor.
    /// The layer blob must already be committed — a chunkmap for bytes the
    /// store does not hold could never serve a chunk GET. A failure between
    /// the two steps leaves an unreferenced blob for gc, never a torn
    /// association.
    pub fn put_chunkmap(
        &mut self,
        layer: Digest,
        map: Verified<'_>,
    ) -> Result<Digest, StoreError> {
        self.committed(&layer)?;
        let (digest, size) = (map.digest(), map.len() as u64);
        self.blobs.insert(map)?;
        let mut next = self.index.clone();
        next.set_chunkmap(&layer, Descriptor::new(MediaType::Chunkmap, digest, size));
        self.flip(next)?;
        Ok(digest)
    }

    /// Digests reachable from any index ref (the union of every tagged
    /// closure — reachability is the refcount). Only manifest blobs are
    /// read (and verified); layer and config blobs are never loaded. A
    /// broken ref (missing/corrupt manifest, bad digest) is an error: gc
    /// must not treat blobs as dead because a closure could not be
    /// enumerated. A chunkmap blob is live iff the layer it describes is.
    pub fn live_set(&self) -> Result<BTreeSet<Digest>, StoreError> {
        let mut live = BTreeSet::new();
        for name in self.index.ref_names() {
            let digest = self.resolve(&name)?;
            if !live.contains(&digest) {
                let raw = self.committed(&digest)?.read_verified(&digest)?;
                live.extend(closure_of_manifest(raw.as_slice(), &digest)?);
            }
        }
        for desc in self.index.chunkmap_entries() {
            let map = desc
                .parsed_digest()
                .map_err(|e| StoreError::CorruptManifest(format!("chunkmap entry: {e}")))?;
            if desc.chunkmap_layer().is_some_and(|l| live.contains(&l)) {
                live.insert(map);
            }
        }
        Ok(live)
    }

    /// The committed blobs outside `live` (in digest order) with the bytes
    /// they hold — a metadata-only scan.
    fn dead_outside(&self, live: &BTreeSet<Digest>) -> Result<(Vec<Digest>, u64), StoreError> {
        let mut dead = Vec::new();
        let mut bytes = 0u64;
        for (d, len) in self.blobs.digests()? {
            if !live.contains(&d) {
                bytes += len;
                dead.push(d);
            }
        }
        Ok((dead, bytes))
    }

    /// GC plan: committed blobs unreachable from every ref (in digest
    /// order) with the bytes they hold. No blob content is read except the
    /// manifests of live refs.
    pub fn gc_plan(&self) -> Result<(Vec<Digest>, u64), StoreError> {
        self.dead_outside(&self.live_set()?)
    }

    /// Delete every unreachable blob — repeated rebuild/redirect rounds
    /// replace `+coMre`/`+opt` manifests and orphan their old layers.
    /// Chunkmap entries whose layer is no longer live are swept from the
    /// index first (one commit), so the sweep never leaves a descriptor
    /// pointing at a deleted blob. The live set is walked once. Returns
    /// (blobs removed, bytes reclaimed).
    pub fn gc_apply(&mut self) -> Result<(usize, u64), StoreError> {
        let live = self.live_set()?;
        let keeps = |d: &Descriptor| {
            d.media_type != MediaType::Chunkmap
                || d.parsed_digest().is_ok_and(|m| live.contains(&m))
        };
        if !self.index.manifests.iter().all(keeps) {
            let mut next = self.index.clone();
            next.manifests.retain(keeps);
            self.flip(next)?;
        }
        let (dead, bytes) = self.dead_outside(&live)?;
        let mut removed = 0usize;
        for d in &dead {
            if self.blobs.remove(d)? {
                removed += 1;
            }
        }
        Ok((removed, bytes))
    }
}

impl Layout<BlobStore> {
    pub fn new() -> Self {
        Layout::default()
    }

    /// Export an image (manifest closure) from `src` into this layout under
    /// the ref name `name` — the `buildah push … oci:./dir` step. Both
    /// stores are in this process and hold only proofs, so the copy is a
    /// refcount bump per blob and hashes nothing.
    pub fn export(
        &mut self,
        name: &str,
        manifest_digest: Digest,
        src: &BlobStore,
    ) -> Result<(), StoreError> {
        let manifest = src.require(&manifest_digest)?;
        for d in closure_of_manifest(&manifest, &manifest_digest)? {
            if !self.blobs.fetch_from(src, &d) {
                return Err(StoreError::MissingBlob(d.to_string()));
            }
        }
        let size = manifest.len() as u64;
        let desc = Descriptor::new(MediaType::ImageManifest, manifest_digest, size);
        self.index.set_ref(name, desc);
        Ok(())
    }

    /// Load an [`crate::Image`] by ref name.
    pub fn load_image(&self, name: &str) -> Result<crate::Image, StoreError> {
        crate::Image::load(&self.blobs, self.resolve(name)?).map_err(|e| match e {
            ImageError::MissingBlob(d) => StoreError::MissingBlob(d),
            other => StoreError::CorruptManifest(other.to_string()),
        })
    }

    /// Persist to a real directory in standard OCI layout form, under the
    /// layout lock and with the crash-safe commit protocol: blobs are
    /// committed incrementally (only the missing ones are written, each
    /// via tmp → fsync → atomic rename), and `index.json` is replaced
    /// atomically last, so a kill mid-save leaves either the old or the
    /// new tag table — never a torn one. Nothing is hashed: each blob goes
    /// in on the proof this store already holds for it.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let _lock = LayoutLock::acquire(dir)?;
        let store = DiskStore::init(dir)?;
        let proofs = self.blobs.iter().filter_map(|(d, _)| self.blobs.verified(d));
        for blob in proofs {
            store.admit(blob)?;
        }
        store.commit_index(&self.index)
    }

    /// Load from a real directory, verifying every blob against its name
    /// and refusing torn state: an orphan tmp file, a foreign file in the
    /// blob directory, or an unparseable `index.json` all fail with an
    /// error pointing at `comt fsck` instead of being silently skipped.
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let store = DiskStore::open(dir)?;
        let index = store.read_index()?;
        let mut blobs = BlobStore::new();
        for (digest, _) in store.scan(true)? {
            if let Some(blob) = store.read_verified(&digest)? {
                blobs.admit(blob);
            }
        }
        Ok(Layout { index, blobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use crate::image::ImageBuilder;
    use crate::store::closure_digests;
    use comt_vfs::Vfs;

    fn tiny_image(store: &mut BlobStore) -> Digest {
        let mut fs = Vfs::new();
        fs.write_file_p("/app/bin", Bytes::from_static(b"B"), 0o755)
            .unwrap();
        ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(store)
            .unwrap()
            .manifest_digest
    }

    #[test]
    fn export_and_resolve() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        let mut dir = OciDir::new();
        dir.export("app.dist", md, &store).unwrap();
        assert_eq!(dir.resolve("app.dist").unwrap(), md);
        assert_eq!(dir.blobs.len(), 3);
        assert!(dir.load_image("app.dist").is_ok());
    }

    #[test]
    fn export_of_an_incomplete_closure_names_the_missing_blob() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        let layer = closure_digests(&store, &md).unwrap()[2];
        store.retain(|d| *d != layer);
        let mut dir = OciDir::new();
        match dir.export("app.dist", md, &store) {
            Err(StoreError::MissingBlob(d)) => assert_eq!(d, layer.to_string()),
            other => panic!("expected MissingBlob({layer}), got {other:?}"),
        }
        assert!(dir.index.ref_names().is_empty(), "failed export left a ref");
        // A blob that is not a manifest is a corrupt manifest, not bad JSON
        // from nowhere; a digest the source does not hold is missing.
        let config = closure_digests(&store, &md).unwrap()[1];
        let not_a_manifest = store.put(Bytes::from_static(b"not a manifest"));
        assert!(matches!(
            dir.export("x", not_a_manifest, &store),
            Err(StoreError::CorruptManifest(_))
        ));
        store.retain(|d| *d != config && *d != md);
        assert!(matches!(
            dir.export("x", md, &store),
            Err(StoreError::MissingBlob(_))
        ));
    }

    #[test]
    fn resolve_unknown_ref() {
        let dir = OciDir::new();
        assert!(matches!(
            dir.resolve("ghost"),
            Err(StoreError::UnknownRef(_))
        ));
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        let mut dir = OciDir::new();
        dir.export("app.dist", md, &store).unwrap();

        let tmp = std::env::temp_dir().join(format!("comt-oci-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        dir.save(&tmp).unwrap();

        assert!(tmp.join("oci-layout").exists());
        assert!(tmp.join("index.json").exists());

        let back = OciDir::load(&tmp).unwrap();
        assert_eq!(back.index, dir.index);
        assert_eq!(back.blobs.len(), dir.blobs.len());
        assert_eq!(back.resolve("app.dist").unwrap(), md);

        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn load_detects_corrupt_blob() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        let mut dir = OciDir::new();
        dir.export("app.dist", md, &store).unwrap();

        let tmp = std::env::temp_dir().join(format!("comt-oci-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        dir.save(&tmp).unwrap();

        // Corrupt one blob file.
        let blob_dir = tmp.join("blobs").join("sha256");
        let victim = std::fs::read_dir(&blob_dir).unwrap().next().unwrap().unwrap();
        std::fs::write(victim.path(), b"corrupted!").unwrap();

        assert!(matches!(
            OciDir::load(&tmp),
            Err(StoreError::DigestMismatch(_))
        ));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn multiple_refs_share_blobs() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        let mut dir = OciDir::new();
        dir.export("app:1", md, &store).unwrap();
        dir.export("app:1+coM", md, &store).unwrap();
        assert_eq!(dir.blobs.len(), 3); // shared closure
        assert_eq!(dir.index.ref_names(), vec!["app:1", "app:1+coM"]);
    }
}
