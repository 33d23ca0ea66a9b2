//! Cache storage: encoding process models + sources into an OCI layer.
//!
//! "The cache storage provides directory services to system adapters,
//! encodes their data into new layer tarballs, generates new config.json
//! and manifest.json files to mark the tarballs as new images … Thanks to
//! the layered nature of OCI images, the injection of additional data
//! introduces no changes to the original image" (§4.5).
//!
//! Layout inside the cache layer:
//!
//! ```text
//! /.coMtainer/cache/models.json      — serialized ProcessModels
//! /.coMtainer/cache/trace            — serialized raw build trace
//! /.coMtainer/cache/src/<abs path>   — minified sources/headers/data
//! ```
//!
//! The extended image manifest is registered in the OCI layout index under
//! `<ref>+coM`; the rebuild layer (produced by the back-end) extends it
//! further to `<ref>+coMre` with:
//!
//! ```text
//! /.coMtainer/rebuild/<abs image path>   — rebuilt artifact content
//! ```

use crate::models::ProcessModels;
use crate::{ComtError, Phase};
use bytes::Bytes;
use comt_buildsys::BuildTrace;
use comt_oci::layout::OciDir;
use comt_oci::spec::{Descriptor, MediaType};
use comt_tar::Entry;
use std::collections::BTreeMap;

/// Tar-relative root of the cache layer (`/.coMtainer/cache` in an image).
pub const CACHE_PREFIX: &str = ".coMtainer/cache";
/// Tar-relative root of the rebuild layer.
pub const REBUILD_PREFIX: &str = ".coMtainer/rebuild";

/// Decoded contents of a cache layer.
#[derive(Debug)]
pub struct CacheContents {
    pub models: ProcessModels,
    pub trace: BuildTrace,
    /// Build-container path → content.
    pub sources: BTreeMap<String, Bytes>,
}

/// Append a cache layer to the image referenced by `dist_ref` inside the
/// OCI layout, registering the extended manifest as `<dist_ref>+coM`.
/// Returns the new ref name.
pub fn write_cache(
    oci: &mut OciDir,
    dist_ref: &str,
    models: &ProcessModels,
    trace: &BuildTrace,
    sources: &BTreeMap<String, Bytes>,
) -> Result<String, ComtError> {
    let image = oci
        .load_image(dist_ref)
        .map_err(|e| ComtError::oci(e.to_string()))?;

    let mut entries = Vec::new();
    let models_json =
        serde_json::to_vec_pretty(models).map_err(|e| ComtError::cache(e.to_string()))?;
    entries.push(Entry::file(
        format!("{CACHE_PREFIX}/models.json"),
        models_json,
        0o644,
    ));
    entries.push(Entry::file(
        format!("{CACHE_PREFIX}/trace"),
        trace.serialize().into_bytes(),
        0o644,
    ));
    for (path, content) in sources {
        entries.push(Entry::file(
            format!("{CACHE_PREFIX}/src{path}"),
            content.to_vec(),
            0o644,
        ));
    }
    let layer_tar =
        comt_tar::write_archive(&entries).map_err(|e| ComtError::cache(e.to_string()))?;

    let new_ref = format!("{dist_ref}+coM");
    append_layer(oci, &image, layer_tar, &new_ref, "coMtainer-build cache layer")?;
    Ok(new_ref)
}

/// Append a rebuild layer to the extended image `<ref>+coM`, registering
/// `<ref>+coMre`. `artifacts` maps image paths to rebuilt content.
pub fn write_rebuild(
    oci: &mut OciDir,
    extended_ref: &str,
    artifacts: &BTreeMap<String, Bytes>,
) -> Result<String, ComtError> {
    let image = oci
        .load_image(extended_ref)
        .map_err(|e| ComtError::oci(e.to_string()))?;
    let mut entries = Vec::new();
    for (path, content) in artifacts {
        entries.push(Entry::file(
            format!("{REBUILD_PREFIX}{path}"),
            content.to_vec(),
            0o755,
        ));
    }
    let layer_tar =
        comt_tar::write_archive(&entries).map_err(|e| ComtError::cache(e.to_string()))?;
    let base = extended_ref.trim_end_matches("+coM");
    let new_ref = format!("{base}+coMre");
    append_layer(oci, &image, layer_tar, &new_ref, "coMtainer-rebuild layer")?;
    Ok(new_ref)
}

/// Append a rebuild layer for one retarget of the extended image
/// `<ref>+coM`, registering `<ref>+coMre@<target>`. The `@<target>` suffix
/// keeps an N-target fan-out's images side by side in one layout; each is
/// an ordinary rebuilt image ([`load_rebuild`] and the redirect work on it
/// unchanged) whose rebuild layer holds that target's artifacts.
pub fn write_rebuild_target(
    oci: &mut OciDir,
    extended_ref: &str,
    target: &str,
    artifacts: &BTreeMap<String, Bytes>,
) -> Result<String, ComtError> {
    let image = oci
        .load_image(extended_ref)
        .map_err(|e| ComtError::oci(e.to_string()))?;
    let mut entries = Vec::new();
    for (path, content) in artifacts {
        entries.push(Entry::file(
            format!("{REBUILD_PREFIX}{path}"),
            content.to_vec(),
            0o755,
        ));
    }
    let layer_tar =
        comt_tar::write_archive(&entries).map_err(|e| ComtError::cache(e.to_string()))?;
    let base = extended_ref.trim_end_matches("+coM");
    let new_ref = format!("{base}+coMre@{target}");
    append_layer(
        oci,
        &image,
        layer_tar,
        &new_ref,
        &format!("coMtainer-retarget layer ({target})"),
    )?;
    Ok(new_ref)
}

/// Append one layer blob to an existing image's manifest under a new ref.
fn append_layer(
    oci: &mut OciDir,
    image: &comt_oci::Image,
    layer_tar: Vec<u8>,
    new_ref: &str,
    note: &str,
) -> Result<(), ComtError> {
    let size = layer_tar.len() as u64;
    // The layer is stored uncompressed, so the blob digest `put` computes
    // is the diff_id too: one hash of the tar, not two.
    let digest = oci.blobs.put(Bytes::from(layer_tar));
    let diff_id = digest.to_oci_string();

    let mut manifest = image.manifest.clone();
    manifest
        .layers
        .push(Descriptor::new(MediaType::LayerTar, digest, size));
    manifest
        .annotations
        .insert("comtainer.note".to_string(), note.to_string());

    let mut config = image.config.clone();
    config.rootfs.diff_ids.push(diff_id);
    config.history.push(comt_oci::spec::HistoryEntry {
        created_by: note.to_string(),
        empty_layer: false,
    });
    let cfg_json = serde_json::to_vec(&config).map_err(|e| ComtError::oci(e.to_string()))?;
    let cfg_size = cfg_json.len() as u64;
    let cfg_digest = oci.blobs.put(Bytes::from(cfg_json));
    manifest.config = Descriptor::new(MediaType::ImageConfig, cfg_digest, cfg_size);

    let man_json = serde_json::to_vec(&manifest).map_err(|e| ComtError::oci(e.to_string()))?;
    let man_size = man_json.len() as u64;
    let man_digest = oci.blobs.put(Bytes::from(man_json));
    oci.index.set_ref(
        new_ref,
        Descriptor::new(MediaType::ImageManifest, man_digest, man_size),
    );
    Ok(())
}

/// Load the cache layer contents from an extended image.
pub fn load_cache(oci: &OciDir, extended_ref: &str) -> Result<CacheContents, ComtError> {
    let image = oci
        .load_image(extended_ref)
        .map_err(|e| ComtError::oci(e.to_string()))?;
    let fs = comt_oci::flatten(&oci.blobs, &image).map_err(|e| ComtError::oci(e.to_string()))?;

    let models_raw = fs
        .read(&format!("/{CACHE_PREFIX}/models.json"))
        .map_err(|_| {
            ComtError::cache("missing models.json (not an extended image?)".into())
                .with_phase(Phase::Storage)
        })?;
    let models: ProcessModels =
        serde_json::from_slice(&models_raw).map_err(|e| ComtError::cache(e.to_string()))?;

    let trace_raw = fs
        .read_string(&format!("/{CACHE_PREFIX}/trace"))
        .map_err(|_| ComtError::cache("missing trace".into()).with_phase(Phase::Storage))?;
    let trace = BuildTrace::parse(&trace_raw).map_err(|e| ComtError::cache(e.to_string()))?;

    let src_prefix = format!("/{CACHE_PREFIX}/src");
    let mut sources = BTreeMap::new();
    for (path, node) in fs.walk_prefix(&src_prefix) {
        if node.is_file() {
            let original = path[src_prefix.len()..].to_string();
            let content = fs.read(path).map_err(|e| {
                ComtError::cache(format!("cache layer source unreadable: {e}"))
                    .with_phase(Phase::Storage)
                    .with_artifact(path.to_string())
            })?;
            sources.insert(original, content);
        }
    }

    Ok(CacheContents {
        models,
        trace,
        sources,
    })
}

/// Read the rebuild-layer artifacts from a `+coMre` image: image path →
/// rebuilt content.
pub fn load_rebuild(oci: &OciDir, rebuilt_ref: &str) -> Result<BTreeMap<String, Bytes>, ComtError> {
    let image = oci
        .load_image(rebuilt_ref)
        .map_err(|e| ComtError::oci(e.to_string()))?;
    let fs = comt_oci::flatten(&oci.blobs, &image).map_err(|e| ComtError::oci(e.to_string()))?;
    let prefix = format!("/{REBUILD_PREFIX}");
    let mut out = BTreeMap::new();
    for (path, node) in fs.walk_prefix(&prefix) {
        if node.is_file() {
            let content = fs.read(path).map_err(|e| {
                ComtError::cache(format!("rebuild layer artifact unreadable: {e}"))
                    .with_phase(Phase::Storage)
                    .with_artifact(path.to_string())
            })?;
            out.insert(path[prefix.len()..].to_string(), content);
        }
    }
    Ok(out)
}

/// Size in bytes of the cache layer attached to `<ref>+coM` (Table 3).
pub fn cache_layer_size(oci: &OciDir, extended_ref: &str) -> Result<u64, ComtError> {
    let image = oci
        .load_image(extended_ref)
        .map_err(|e| ComtError::oci(e.to_string()))?;
    image
        .manifest
        .layers
        .last()
        .map(|l| l.size)
        .ok_or_else(|| ComtError::cache("image has no layers".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{BuildGraph, ImageModel};
    use comt_oci::{BlobStore, ImageBuilder};
    use comt_vfs::Vfs;

    fn dist_in_layout() -> OciDir {
        let mut store = BlobStore::new();
        let mut fs = Vfs::new();
        fs.write_file_p("/app/run", Bytes::from_static(b"BIN"), 0o755)
            .unwrap();
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(&mut store)
            .unwrap();
        let mut oci = OciDir::new();
        oci.export("app.dist", img.manifest_digest, &store).unwrap();
        oci
    }

    fn sample_models() -> ProcessModels {
        ProcessModels {
            image: ImageModel::default(),
            graph: BuildGraph::new(),
            isa: "x86_64".into(),
            cache_mode: Default::default(),
            targets: vec![],
        }
    }

    #[test]
    fn cache_roundtrip() {
        let mut oci = dist_in_layout();
        let mut sources = BTreeMap::new();
        sources.insert(
            "/src/main.c".to_string(),
            Bytes::from_static(b"#pragma comt provides(main)\n"),
        );
        let trace = BuildTrace::default();
        let new_ref =
            write_cache(&mut oci, "app.dist", &sample_models(), &trace, &sources).unwrap();
        assert_eq!(new_ref, "app.dist+coM");

        // The paper's artifact check: a new manifest tagged +coM appears
        // in index.json.
        assert!(oci.index.find_ref("app.dist+coM").is_some());
        // Original image untouched.
        assert!(oci.index.find_ref("app.dist").is_some());
        let orig = oci.load_image("app.dist").unwrap();
        let ext = oci.load_image("app.dist+coM").unwrap();
        assert_eq!(ext.manifest.layers.len(), orig.manifest.layers.len() + 1);
        assert_eq!(ext.manifest.layers[0], orig.manifest.layers[0]);
        // The appended layer is uncompressed: its diff_id is the blob
        // digest, and both are the digest of the bytes the store holds.
        let appended = ext.manifest.layers.last().unwrap();
        let diff_id = ext.config.rootfs.diff_ids.last().unwrap();
        assert_eq!(&appended.digest, diff_id);
        let stored = oci.blobs.get(&diff_id.parse().unwrap()).unwrap();
        assert_eq!(&comt_digest::Digest::of(&stored).to_oci_string(), diff_id);

        let cache = load_cache(&oci, "app.dist+coM").unwrap();
        assert_eq!(cache.models.isa, "x86_64");
        assert_eq!(
            cache.sources["/src/main.c"],
            Bytes::from_static(b"#pragma comt provides(main)\n")
        );
    }

    #[test]
    fn extended_image_rootfs_unchanged_outside_comtainer_dir() {
        let mut oci = dist_in_layout();
        let trace = BuildTrace::default();
        write_cache(&mut oci, "app.dist", &sample_models(), &trace, &BTreeMap::new()).unwrap();
        let ext = oci.load_image("app.dist+coM").unwrap();
        let fs = comt_oci::flatten(&oci.blobs, &ext).unwrap();
        assert_eq!(fs.read_string("/app/run").unwrap(), "BIN");
        assert!(fs.exists("/.coMtainer/cache/models.json"));
    }

    #[test]
    fn rebuild_layer_roundtrip() {
        let mut oci = dist_in_layout();
        let trace = BuildTrace::default();
        write_cache(&mut oci, "app.dist", &sample_models(), &trace, &BTreeMap::new()).unwrap();
        let mut artifacts = BTreeMap::new();
        artifacts.insert("/app/run".to_string(), Bytes::from_static(b"REBUILT"));
        let re_ref = write_rebuild(&mut oci, "app.dist+coM", &artifacts).unwrap();
        assert_eq!(re_ref, "app.dist+coMre");
        let back = load_rebuild(&oci, "app.dist+coMre").unwrap();
        assert_eq!(back["/app/run"], Bytes::from_static(b"REBUILT"));
    }

    #[test]
    fn load_cache_on_plain_image_fails() {
        let oci = dist_in_layout();
        assert!(matches!(
            load_cache(&oci, "app.dist"),
            Err(ComtError::Cache(_))
        ));
    }

    #[test]
    fn cache_layer_size_reported() {
        let mut oci = dist_in_layout();
        let mut sources = BTreeMap::new();
        sources.insert("/src/big.c".to_string(), Bytes::from(vec![7u8; 40_000]));
        write_cache(
            &mut oci,
            "app.dist",
            &sample_models(),
            &BuildTrace::default(),
            &sources,
        )
        .unwrap();
        let size = cache_layer_size(&oci, "app.dist+coM").unwrap();
        assert!(size > 40_000);
    }
}
