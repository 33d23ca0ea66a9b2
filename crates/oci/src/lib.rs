//! OCI image substrate: content-addressed blobs, manifests, layers,
//! registries and on-disk image layouts.
//!
//! coMtainer operates purely on OCI data structures: the user side exports
//! the `dist` image as an OCI layout directory, mounts it into the build
//! container, and appends a *cache layer* plus a new manifest tagged
//! `<ref>+coM`; the system side appends a *rebuild layer* (`+coMre`) and
//! finally commits a redirected image. This crate reproduces the OCI
//! mechanics those steps rely on:
//!
//! * [`spec`] — manifests, configs, image index (serde, OCI field names),
//! * [`Image`] / [`ImageBuilder`] — building images from layer changesets,
//!   flattening an image to a filesystem ([`flatten`]),
//! * [`Layout`] — the one tagged store: an image index over a
//!   [`BlobBackend`], with resolve, staged publish, `push`/`pull`,
//!   chunkmaps, liveness and gc written once. [`layout::OciDir`] and
//!   [`Registry`] are it in memory (`export`, `save`/`load`),
//!   [`DiskRegistry`] is it on disk under the layout lock, and it is what
//!   `comt-dist`'s daemon serves, whatever the backend,
//! * [`BlobStore`] / [`DiskStore`] — the two blob backends: in memory, and
//!   the crash-safe directory (tmp → fsync → atomic-rename commits, lazy
//!   digest-verified reads, [`LayoutLock`]),
//! * [`Verified`] — the one admission proof: a blob enters either backend
//!   only with the digest its bytes were hashed to,
//! * [`StoreError`] — the one error every store operation returns, with
//!   "whose fault" ([`StoreError::is_store_fault`]) as a method,
//! * [`backend`] — [`BlobBackend`] and [`BlobHandle`],
//! * [`fsck`] — torn-layout diagnosis and repair (`comt fsck`).

pub mod backend;
pub mod codec;
pub mod disk;
pub mod fsck;
pub mod image;
pub mod layout;
pub mod spec;
pub mod store;

pub use backend::{BlobBackend, BlobHandle, BlobReader, BLOB_STREAM_CHUNK, FILE_BYTES_READ};
pub use codec::{EncodedLayer, LayerCodec};
pub use disk::{DiskRegistry, DiskStore, LayoutLock};
pub use fsck::{fsck, FsckFinding, FsckOptions, FsckReport};
pub use image::{flatten, layer_tar, Image, ImageBuilder, ImageError};
pub use layout::Layout;
pub use spec::{
    Descriptor, ImageConfig, ImageIndex, ImageManifest, MediaType, Platform, RuntimeConfig,
};
pub use store::{closure_digests, closure_of_manifest, BlobStore, Registry, StoreError, Verified};

/// Serialize a manifest to its canonical JSON bytes (exposed for tests and
/// tools that need to hand-craft manifests).
pub fn manifest_to_json(m: &spec::ImageManifest) -> Vec<u8> {
    serde_json::to_vec(m).expect("manifest serializes")
}

/// Serialize an image config to JSON bytes (companion to
/// [`manifest_to_json`], for the same hand-crafting use cases).
pub fn config_to_json(c: &spec::ImageConfig) -> Vec<u8> {
    serde_json::to_vec(c).expect("config serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use comt_vfs::Vfs;

    #[test]
    fn build_flatten_roundtrip() {
        let mut store = BlobStore::new();

        // Base rootfs as layer 0.
        let mut base_fs = Vfs::new();
        base_fs.mkdir_p("/bin").unwrap();
        base_fs
            .write_file("/bin/sh", Bytes::from_static(b"sh"), 0o755)
            .unwrap();

        let base = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &base_fs)
            .commit(&mut store)
            .unwrap();

        // App layer on top.
        let mut app_fs = base_fs.clone();
        app_fs.mkdir_p("/app").unwrap();
        app_fs
            .write_file("/app/run", Bytes::from_static(b"ELF"), 0o755)
            .unwrap();

        let app = ImageBuilder::from_base(&store, &base)
            .unwrap()
            .with_layer_from_fs(&base_fs, &app_fs)
            .with_entrypoint(vec!["/app/run".into()])
            .commit(&mut store)
            .unwrap();

        let fs = flatten(&store, &app).unwrap();
        assert_eq!(fs, app_fs);
        assert_eq!(app.config.config.entrypoint, vec!["/app/run".to_string()]);
        assert_eq!(app.manifest.layers.len(), 2);
    }
}
