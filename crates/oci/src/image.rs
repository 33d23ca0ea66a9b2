//! Image assembly and flattening.

use crate::codec::{EncodedLayer, LayerCodec};
use crate::spec::{
    Descriptor, HistoryEntry, ImageConfig, ImageManifest, MediaType, RuntimeConfig,
};
use crate::store::{BlobStore, Verified};
use bytes::Bytes;
use comt_digest::Digest;
use comt_tar::Entry;
use comt_vfs::Vfs;
use std::collections::BTreeMap;
use std::fmt;

/// Errors during image assembly or flattening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    MissingBlob(String),
    CorruptJson(String),
    BadLayer(String),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::MissingBlob(d) => write!(f, "missing blob {d}"),
            ImageError::CorruptJson(e) => write!(f, "corrupt json blob: {e}"),
            ImageError::BadLayer(e) => write!(f, "bad layer: {e}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// A loaded image: its manifest digest plus parsed manifest and config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    pub manifest_digest: Digest,
    pub manifest: ImageManifest,
    pub config: ImageConfig,
}

impl Image {
    /// Load an image from a store by manifest digest.
    pub fn load(store: &BlobStore, manifest_digest: Digest) -> Result<Self, ImageError> {
        let raw = store
            .get(&manifest_digest)
            .ok_or_else(|| ImageError::MissingBlob(manifest_digest.to_string()))?;
        let manifest: ImageManifest =
            serde_json::from_slice(&raw).map_err(|e| ImageError::CorruptJson(e.to_string()))?;
        let cfg_digest = manifest
            .config
            .parsed_digest()
            .map_err(|e| ImageError::CorruptJson(e.to_string()))?;
        let raw_cfg = store
            .get(&cfg_digest)
            .ok_or_else(|| ImageError::MissingBlob(cfg_digest.to_string()))?;
        let config: ImageConfig = serde_json::from_slice(&raw_cfg)
            .map_err(|e| ImageError::CorruptJson(e.to_string()))?;
        Ok(Image {
            manifest_digest,
            manifest,
            config,
        })
    }

    /// Total size of all layer blobs (the "image size" users see).
    pub fn layers_size(&self) -> u64 {
        self.manifest.layers.iter().map(|l| l.size).sum()
    }

    /// Architecture from the config.
    pub fn architecture(&self) -> &str {
        &self.config.architecture
    }
}

/// A layer queued on the builder, encoded at commit time so serialization,
/// hashing and compression run fused (and layers encode concurrently).
enum PendingLayer {
    /// Pre-serialized tar bytes.
    Tar(Bytes),
    /// A changeset whose tar serialization is deferred into the fused
    /// encode pass (never materialized separately).
    Entries(Vec<Entry>),
}

impl PendingLayer {
    fn encode(&self, codec: &LayerCodec) -> Result<EncodedLayer, ImageError> {
        match self {
            PendingLayer::Tar(tar) => Ok(codec.encode_tar(tar.clone())),
            PendingLayer::Entries(entries) => codec
                .encode_entries(entries)
                .map_err(|e| ImageError::BadLayer(e.to_string())),
        }
    }
}

/// Builder assembling a new image into a [`BlobStore`].
pub struct ImageBuilder {
    arch: String,
    /// Existing layer descriptors inherited from a base image.
    layers: Vec<Descriptor>,
    diff_ids: Vec<String>,
    history: Vec<HistoryEntry>,
    /// Layers added by this builder (encoded and stored at commit).
    new_layers: Vec<(PendingLayer, String)>,
    runtime: RuntimeConfig,
    annotations: BTreeMap<String, String>,
    /// Store new layers gzip-compressed (`tar+gzip` media type).
    compress: bool,
}

impl ImageBuilder {
    /// Start from an empty image.
    pub fn from_scratch(arch: &str) -> Self {
        ImageBuilder {
            arch: arch.to_string(),
            layers: Vec::new(),
            diff_ids: Vec::new(),
            history: Vec::new(),
            new_layers: Vec::new(),
            runtime: RuntimeConfig::default(),
            annotations: BTreeMap::new(),
            compress: false,
        }
    }

    /// Start from an existing base image (inherits layers, env, history).
    pub fn from_base(store: &BlobStore, base: &Image) -> Result<Self, ImageError> {
        // Ensure all base layers exist so commit cannot dangle.
        for l in &base.manifest.layers {
            let d = l
                .parsed_digest()
                .map_err(|e| ImageError::CorruptJson(e.to_string()))?;
            if !store.contains(&d) {
                return Err(ImageError::MissingBlob(l.digest.clone()));
            }
        }
        Ok(ImageBuilder {
            arch: base.config.architecture.clone(),
            layers: base.manifest.layers.clone(),
            diff_ids: base.config.rootfs.diff_ids.clone(),
            history: base.config.history.clone(),
            new_layers: Vec::new(),
            runtime: base.config.config.clone(),
            annotations: BTreeMap::new(),
            compress: false,
        })
    }

    /// Store the layers this builder adds gzip-compressed, the common
    /// production media type (`…layer.v1.tar+gzip`).
    pub fn with_compression(mut self) -> Self {
        self.compress = true;
        self
    }

    /// Add a raw tar changeset as the next layer.
    pub fn with_layer_tar(mut self, tar: impl Into<Bytes>, created_by: &str) -> Self {
        self.new_layers
            .push((PendingLayer::Tar(tar.into()), created_by.to_string()));
        self
    }

    /// Add a layer computed as the diff between two filesystem states. The
    /// changeset's tar serialization is deferred to commit, where it fuses
    /// with hashing and compression in a single streaming pass.
    pub fn with_layer_from_fs(mut self, from: &Vfs, to: &Vfs) -> Self {
        let entries = comt_vfs::diff_layers(from, to);
        self.new_layers
            .push((PendingLayer::Entries(entries), "layer-from-fs".to_string()));
        self
    }

    pub fn with_env(mut self, var: &str, value: &str) -> Self {
        self.runtime.env.retain(|e| !e.starts_with(&format!("{var}=")));
        self.runtime.env.push(format!("{var}={value}"));
        self
    }

    pub fn with_entrypoint(mut self, entrypoint: Vec<String>) -> Self {
        self.runtime.entrypoint = entrypoint;
        self
    }

    pub fn with_cmd(mut self, cmd: Vec<String>) -> Self {
        self.runtime.cmd = cmd;
        self
    }

    pub fn with_label(mut self, key: &str, value: &str) -> Self {
        self.runtime.labels.insert(key.to_string(), value.to_string());
        self
    }

    pub fn with_annotation(mut self, key: &str, value: &str) -> Self {
        self.annotations.insert(key.to_string(), value.to_string());
        self
    }

    /// Write config + layers + manifest blobs and return the loaded image.
    ///
    /// Pending layers are independent, so they encode concurrently (one
    /// fused serialize+hash+compress pass each); results land in the
    /// manifest in the order the layers were added.
    pub fn commit(mut self, store: &mut BlobStore) -> Result<Image, ImageError> {
        let pending = std::mem::take(&mut self.new_layers);
        let codec = LayerCodec::new(self.compress);
        let encoded: Vec<(EncodedLayer, String)> = if pending.len() > 1 {
            comt_observe::global().count("codec.layers.concurrent", pending.len() as u64);
            std::thread::scope(|s| {
                let handles: Vec<_> = pending
                    .iter()
                    .map(|(layer, _)| s.spawn(move || layer.encode(&codec)))
                    .collect();
                handles
                    .into_iter()
                    .zip(pending.iter())
                    .map(|(h, (_, created_by))| {
                        Ok((h.join().expect("layer encode panicked")?, created_by.clone()))
                    })
                    .collect::<Result<Vec<_>, ImageError>>()
            })?
        } else {
            pending
                .iter()
                .map(|(layer, created_by)| Ok((layer.encode(&codec)?, created_by.clone())))
                .collect::<Result<Vec<_>, ImageError>>()?
        };

        for (enc, created_by) in encoded {
            let size = enc.blob.len() as u64;
            let digest = store.admit(Verified::from_codec(enc.blob_digest, enc.blob));
            self.layers.push(Descriptor::new(enc.media_type, digest, size));
            self.diff_ids.push(enc.diff_id.to_oci_string());
            self.history.push(HistoryEntry {
                created_by,
                empty_layer: false,
            });
        }

        let mut config = ImageConfig::new(&self.arch);
        config.config = self.runtime;
        config.rootfs.diff_ids = self.diff_ids;
        config.history = self.history;
        let cfg_json =
            serde_json::to_vec(&config).map_err(|e| ImageError::CorruptJson(e.to_string()))?;
        let cfg_size = cfg_json.len() as u64;
        let cfg_digest = store.put(Bytes::from(cfg_json));

        let manifest = ImageManifest {
            schema_version: 2,
            media_type: MediaType::ImageManifest,
            config: Descriptor::new(MediaType::ImageConfig, cfg_digest, cfg_size),
            layers: self.layers,
            annotations: self.annotations,
        };
        let man_json =
            serde_json::to_vec(&manifest).map_err(|e| ImageError::CorruptJson(e.to_string()))?;
        let manifest_digest = store.put(Bytes::from(man_json));

        Ok(Image {
            manifest_digest,
            manifest,
            config,
        })
    }
}

/// Fetch one layer blob and return its *uncompressed* tar bytes (the form
/// the config's `diff_ids` describe). Shared by [`flatten`] and the layer
/// verifier in `comt-analyze`.
pub fn layer_tar(store: &BlobStore, layer: &crate::spec::Descriptor) -> Result<Bytes, ImageError> {
    let d = layer
        .parsed_digest()
        .map_err(|e| ImageError::CorruptJson(e.to_string()))?;
    let blob = store
        .get(&d)
        .ok_or_else(|| ImageError::MissingBlob(layer.digest.clone()))?;
    LayerCodec::decode(blob, &layer.media_type).map_err(|e| ImageError::BadLayer(e.to_string()))
}

/// Compute the final filesystem state of an image by applying all layers in
/// order — the "POSIX file system simulator" step of the paper (§4.5).
///
/// No file content is copied: every file in the result is a window onto the
/// tar of the layer that wrote it (for an uncompressed layer, onto the blob
/// in `store` itself), so the filesystem keeps those buffers alive.
pub fn flatten(store: &BlobStore, image: &Image) -> Result<Vfs, ImageError> {
    // Layer decode (gunzip + tar parse) is independent per layer, so it
    // fans out; application must stay sequential — changesets stack.
    let layers = &image.manifest.layers;
    let decoded: Vec<Result<Vec<comt_tar::Entry>, ImageError>> = if layers.len() > 1 {
        std::thread::scope(|s| {
            let handles: Vec<_> = layers
                .iter()
                .map(|layer| {
                    s.spawn(move || {
                        let tar = layer_tar(store, layer)?;
                        comt_tar::read_archive(&tar)
                            .map_err(|e| ImageError::BadLayer(e.to_string()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("layer decode panicked"))
                .collect()
        })
    } else {
        layers
            .iter()
            .map(|layer| {
                let tar = layer_tar(store, layer)?;
                comt_tar::read_archive(&tar).map_err(|e| ImageError::BadLayer(e.to_string()))
            })
            .collect()
    };

    let mut fs = Vfs::new();
    for entries in decoded {
        comt_vfs::apply_layer(&mut fs, &entries?)
            .map_err(|e| ImageError::BadLayer(e.to_string()))?;
    }
    Ok(fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with(files: &[(&str, &str)]) -> Vfs {
        let mut v = Vfs::new();
        for (p, c) in files {
            v.write_file_p(p, Bytes::from(c.as_bytes().to_vec()), 0o644)
                .unwrap();
        }
        v
    }

    #[test]
    fn builder_from_scratch_single_layer() {
        let mut store = BlobStore::new();
        let fs = fs_with(&[("/a", "1")]);
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(&mut store)
            .unwrap();
        assert_eq!(img.manifest.layers.len(), 1);
        assert_eq!(img.config.rootfs.diff_ids.len(), 1);
        assert_eq!(flatten(&store, &img).unwrap(), fs);
    }

    #[test]
    fn diff_ids_match_uncompressed_layer_digests() {
        let mut store = BlobStore::new();
        let fs = fs_with(&[("/a", "1")]);
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(&mut store)
            .unwrap();
        // Uncompressed layers: diff_id == layer blob digest.
        assert_eq!(
            img.config.rootfs.diff_ids[0],
            img.manifest.layers[0].digest
        );
    }

    #[test]
    fn layered_build_on_base() {
        let mut store = BlobStore::new();
        let base_fs = fs_with(&[("/bin/sh", "sh")]);
        let base = ImageBuilder::from_scratch("aarch64")
            .with_layer_from_fs(&Vfs::new(), &base_fs)
            .with_env("PATH", "/bin")
            .commit(&mut store)
            .unwrap();

        let app_fs = {
            let mut f = base_fs.clone();
            f.write_file_p("/app/x", Bytes::from_static(b"X"), 0o755)
                .unwrap();
            f
        };
        let app = ImageBuilder::from_base(&store, &base)
            .unwrap()
            .with_layer_from_fs(&base_fs, &app_fs)
            .commit(&mut store)
            .unwrap();

        assert_eq!(app.manifest.layers.len(), 2);
        assert_eq!(app.config.config.env, vec!["PATH=/bin"]);
        assert_eq!(app.architecture(), "aarch64");
        assert_eq!(flatten(&store, &app).unwrap(), app_fs);
    }

    #[test]
    fn env_replacement_not_duplication() {
        let mut store = BlobStore::new();
        let img = ImageBuilder::from_scratch("x86_64")
            .with_env("CC", "gcc")
            .with_env("CC", "clang")
            .commit(&mut store)
            .unwrap();
        assert_eq!(img.config.config.env, vec!["CC=clang"]);
    }

    #[test]
    fn image_reload_identical() {
        let mut store = BlobStore::new();
        let fs = fs_with(&[("/f", "x")]);
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .with_label("app", "demo")
            .commit(&mut store)
            .unwrap();
        let reloaded = Image::load(&store, img.manifest_digest).unwrap();
        assert_eq!(reloaded, img);
    }

    #[test]
    fn from_base_missing_layer_fails() {
        let mut store = BlobStore::new();
        let fs = fs_with(&[("/f", "x")]);
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(&mut store)
            .unwrap();
        let empty = BlobStore::new();
        assert!(matches!(
            ImageBuilder::from_base(&empty, &img),
            Err(ImageError::MissingBlob(_))
        ));
    }

    #[test]
    fn flatten_missing_layer_fails() {
        let mut store = BlobStore::new();
        let fs = fs_with(&[("/f", "x")]);
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(&mut store)
            .unwrap();
        let empty = BlobStore::new();
        assert!(matches!(
            flatten(&empty, &img),
            Err(ImageError::MissingBlob(_))
        ));
    }

    #[test]
    fn compressed_layers_roundtrip() {
        let mut store = BlobStore::new();
        // Repetitive payload so compression actually shrinks the blob.
        let fs = fs_with(&[("/data/table", &"row 1;row 2;row 3;".repeat(500))]);
        let plain = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(&mut store)
            .unwrap();
        let gz = ImageBuilder::from_scratch("x86_64")
            .with_compression()
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(&mut store)
            .unwrap();
        assert_eq!(
            gz.manifest.layers[0].media_type,
            crate::spec::MediaType::LayerTarGzip
        );
        assert!(gz.layers_size() < plain.layers_size() / 2);
        // diff_ids describe the uncompressed tar: identical across forms.
        assert_eq!(gz.config.rootfs.diff_ids, plain.config.rootfs.diff_ids);
        assert_eq!(flatten(&store, &gz).unwrap(), fs);
    }

    #[test]
    fn mixed_plain_and_gzip_layers() {
        let mut store = BlobStore::new();
        let base_fs = fs_with(&[("/base", "B")]);
        let base = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &base_fs)
            .commit(&mut store)
            .unwrap();
        let mut upper = base_fs.clone();
        upper
            .write_file_p("/app/x", Bytes::from_static(b"X"), 0o755)
            .unwrap();
        let img = ImageBuilder::from_base(&store, &base)
            .unwrap()
            .with_compression()
            .with_layer_from_fs(&base_fs, &upper)
            .commit(&mut store)
            .unwrap();
        assert_eq!(img.manifest.layers[0].media_type, crate::spec::MediaType::LayerTar);
        assert_eq!(
            img.manifest.layers[1].media_type,
            crate::spec::MediaType::LayerTarGzip
        );
        assert_eq!(flatten(&store, &img).unwrap(), upper);
    }

    #[test]
    fn layers_size_sums() {
        let mut store = BlobStore::new();
        let fs = fs_with(&[("/f", "x")]);
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(&mut store)
            .unwrap();
        assert_eq!(img.layers_size(), img.manifest.layers[0].size);
        assert!(img.layers_size() > 0);
    }
}
