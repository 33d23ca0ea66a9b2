//! OCI image-spec data structures (manifest, config, index).
//!
//! Field names and casing follow the OCI image specification so the JSON we
//! emit is recognizable OCI JSON. Only the subset container layers need is
//! modeled; extension points live in `annotations`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Media types used by this implementation (uncompressed layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MediaType {
    #[serde(rename = "application/vnd.oci.image.manifest.v1+json")]
    ImageManifest,
    #[serde(rename = "application/vnd.oci.image.config.v1+json")]
    ImageConfig,
    #[serde(rename = "application/vnd.oci.image.layer.v1.tar")]
    LayerTar,
    #[serde(rename = "application/vnd.oci.image.layer.v1.tar+gzip")]
    LayerTarGzip,
    #[serde(rename = "application/vnd.oci.image.index.v1+json")]
    ImageIndex,
    /// Chunk manifest of one layer blob (sub-layer dedupe, see `comt-chunk`).
    #[serde(rename = "application/vnd.comt.chunkmap.v1+json")]
    Chunkmap,
}

/// Target platform of a manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Platform {
    pub architecture: String,
    pub os: String,
}

impl Platform {
    pub fn linux(arch: &str) -> Self {
        Platform {
            architecture: arch.to_string(),
            os: "linux".to_string(),
        }
    }
}

/// A content descriptor: typed, sized reference to a blob by digest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Descriptor {
    #[serde(rename = "mediaType")]
    pub media_type: MediaType,
    /// `sha256:<hex>` string form (kept as string for spec fidelity).
    pub digest: String,
    pub size: u64,
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub annotations: BTreeMap<String, String>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub platform: Option<Platform>,
}

impl Descriptor {
    pub fn new(media_type: MediaType, digest: comt_digest::Digest, size: u64) -> Self {
        Descriptor {
            media_type,
            digest: digest.to_oci_string(),
            size,
            annotations: BTreeMap::new(),
            platform: None,
        }
    }

    /// Parse the digest string back into a typed digest.
    pub fn parsed_digest(&self) -> Result<comt_digest::Digest, comt_digest::DigestParseError> {
        self.digest.parse()
    }

    /// The `org.opencontainers.image.ref.name` annotation, if present.
    pub fn ref_name(&self) -> Option<&str> {
        self.annotations
            .get("org.opencontainers.image.ref.name")
            .map(String::as_str)
    }

    /// Set the ref-name annotation (builder style).
    pub fn with_ref_name(mut self, name: &str) -> Self {
        self.annotations.insert(
            "org.opencontainers.image.ref.name".to_string(),
            name.to_string(),
        );
        self
    }

    /// For a chunkmap descriptor: the digest of the layer blob it describes
    /// (the `org.comtainer.chunkmap.layer` annotation).
    pub fn chunkmap_layer(&self) -> Option<comt_digest::Digest> {
        self.annotations
            .get(comt_chunk::ANNOTATION_CHUNKMAP_LAYER)?
            .parse()
            .ok()
    }

    /// Annotate this descriptor as the chunkmap of `layer` (builder style).
    pub fn with_chunkmap_layer(mut self, layer: &comt_digest::Digest) -> Self {
        self.annotations.insert(
            comt_chunk::ANNOTATION_CHUNKMAP_LAYER.to_string(),
            layer.to_oci_string(),
        );
        self
    }
}

/// An image manifest: config descriptor plus ordered layer descriptors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageManifest {
    #[serde(rename = "schemaVersion")]
    pub schema_version: u32,
    #[serde(rename = "mediaType")]
    pub media_type: MediaType,
    pub config: Descriptor,
    pub layers: Vec<Descriptor>,
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub annotations: BTreeMap<String, String>,
}

/// Runtime configuration stored in the image config.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct RuntimeConfig {
    #[serde(rename = "Env", default, skip_serializing_if = "Vec::is_empty")]
    pub env: Vec<String>,
    #[serde(rename = "Entrypoint", default, skip_serializing_if = "Vec::is_empty")]
    pub entrypoint: Vec<String>,
    #[serde(rename = "Cmd", default, skip_serializing_if = "Vec::is_empty")]
    pub cmd: Vec<String>,
    #[serde(rename = "WorkingDir", default, skip_serializing_if = "String::is_empty")]
    pub working_dir: String,
    #[serde(rename = "Labels", default, skip_serializing_if = "BTreeMap::is_empty")]
    pub labels: BTreeMap<String, String>,
}

/// One history record per layer-producing step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct HistoryEntry {
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub created_by: String,
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub empty_layer: bool,
}

/// Rootfs section: the uncompressed-layer digest chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RootFs {
    #[serde(rename = "type")]
    pub fs_type: String,
    pub diff_ids: Vec<String>,
}

impl Default for RootFs {
    fn default() -> Self {
        RootFs {
            fs_type: "layers".to_string(),
            diff_ids: Vec::new(),
        }
    }
}

/// The image configuration blob.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageConfig {
    pub architecture: String,
    pub os: String,
    #[serde(default)]
    pub config: RuntimeConfig,
    pub rootfs: RootFs,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub history: Vec<HistoryEntry>,
}

impl ImageConfig {
    pub fn new(arch: &str) -> Self {
        ImageConfig {
            architecture: arch.to_string(),
            os: "linux".to_string(),
            config: RuntimeConfig::default(),
            rootfs: RootFs::default(),
            history: Vec::new(),
        }
    }
}

/// The image index (`index.json`): the entry point of an OCI layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageIndex {
    #[serde(rename = "schemaVersion")]
    pub schema_version: u32,
    pub manifests: Vec<Descriptor>,
}

impl Default for ImageIndex {
    fn default() -> Self {
        ImageIndex {
            schema_version: 2,
            manifests: Vec::new(),
        }
    }
}

impl ImageIndex {
    /// Find the manifest descriptor annotated with `ref.name == name`.
    pub fn find_ref(&self, name: &str) -> Option<&Descriptor> {
        self.manifests.iter().find(|d| d.ref_name() == Some(name))
    }

    /// Add or replace a manifest entry for `name`.
    pub fn set_ref(&mut self, name: &str, desc: Descriptor) {
        self.manifests.retain(|d| d.ref_name() != Some(name));
        self.manifests.push(desc.with_ref_name(name));
    }

    /// Remove the manifest entry for `name`; returns whether it existed.
    /// Blobs are untouched — run [`crate::Layout::gc_apply`] afterwards
    /// to drop whatever the remaining refs no longer reach.
    pub fn remove_ref(&mut self, name: &str) -> bool {
        let before = self.manifests.len();
        self.manifests.retain(|d| d.ref_name() != Some(name));
        self.manifests.len() != before
    }

    /// Add or replace the chunkmap entry for one layer blob. The descriptor
    /// is stored alongside the manifest entries (chunkmaps carry no
    /// `ref.name` annotation, so they never appear in [`Self::ref_names`]).
    pub fn set_chunkmap(&mut self, layer: &comt_digest::Digest, desc: Descriptor) {
        self.manifests.retain(|d| {
            d.media_type != MediaType::Chunkmap || d.chunkmap_layer() != Some(*layer)
        });
        self.manifests.push(desc.with_chunkmap_layer(layer));
    }

    /// The chunkmap descriptor for a layer blob, if one is recorded.
    pub fn chunkmap_for(&self, layer: &comt_digest::Digest) -> Option<&Descriptor> {
        self.manifests.iter().find(|d| {
            d.media_type == MediaType::Chunkmap && d.chunkmap_layer() == Some(*layer)
        })
    }

    /// All chunkmap descriptors in the index.
    pub fn chunkmap_entries(&self) -> impl Iterator<Item = &Descriptor> {
        self.manifests
            .iter()
            .filter(|d| d.media_type == MediaType::Chunkmap)
    }

    /// All ref names present in the index, sorted.
    pub fn ref_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .manifests
            .iter()
            .filter_map(|d| d.ref_name().map(String::from))
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comt_digest::Digest;

    #[test]
    fn manifest_json_shape() {
        let m = ImageManifest {
            schema_version: 2,
            media_type: MediaType::ImageManifest,
            config: Descriptor::new(MediaType::ImageConfig, Digest::of(b"cfg"), 3),
            layers: vec![Descriptor::new(MediaType::LayerTar, Digest::of(b"l0"), 2)],
            annotations: BTreeMap::new(),
        };
        let json = serde_json::to_string_pretty(&m).unwrap();
        assert!(json.contains("\"schemaVersion\": 2"));
        assert!(json.contains("application/vnd.oci.image.manifest.v1+json"));
        assert!(json.contains("application/vnd.oci.image.layer.v1.tar"));
        let back: ImageManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn config_json_roundtrip() {
        let mut c = ImageConfig::new("aarch64");
        c.config.env.push("PATH=/usr/bin".into());
        c.config.entrypoint.push("/app/run".into());
        c.rootfs.diff_ids.push(Digest::of(b"layer").to_oci_string());
        c.history.push(HistoryEntry {
            created_by: "RUN make".into(),
            empty_layer: false,
        });
        let json = serde_json::to_string(&c).unwrap();
        let back: ImageConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn descriptor_digest_parses_back() {
        let d = Descriptor::new(MediaType::LayerTar, Digest::of(b"x"), 1);
        assert_eq!(d.parsed_digest().unwrap(), Digest::of(b"x"));
    }

    #[test]
    fn index_ref_management() {
        let mut idx = ImageIndex::default();
        let d1 = Descriptor::new(MediaType::ImageManifest, Digest::of(b"m1"), 10);
        let d2 = Descriptor::new(MediaType::ImageManifest, Digest::of(b"m2"), 11);
        idx.set_ref("app:latest", d1);
        idx.set_ref("app:latest+coM", d2.clone());
        assert_eq!(idx.ref_names(), vec!["app:latest", "app:latest+coM"]);
        assert_eq!(
            idx.find_ref("app:latest+coM").unwrap().digest,
            d2.digest
        );
        // Replacing a ref drops the old entry.
        let d3 = Descriptor::new(MediaType::ImageManifest, Digest::of(b"m3"), 12);
        idx.set_ref("app:latest", d3.clone());
        assert_eq!(idx.manifests.len(), 2);
        assert_eq!(idx.find_ref("app:latest").unwrap().digest, d3.digest);
    }

    #[test]
    fn index_missing_ref() {
        let idx = ImageIndex::default();
        assert!(idx.find_ref("nope").is_none());
    }
}
