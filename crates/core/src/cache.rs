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
use comt_oci::ImageBuilder;
use comt_tar::Entry;
use comt_toolchain::{DigestMemo, HeldDigests};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tar-relative root of the cache layer (`/.coMtainer/cache` in an image).
pub const CACHE_PREFIX: &str = ".coMtainer/cache";
/// Tar-relative root of the rebuild layer.
pub const REBUILD_PREFIX: &str = ".coMtainer/rebuild";

/// The stages of the coMtainer ref grammar, `<base>+<stage>[@<target>]`:
/// `<base>` names the dist image, and only a rebuilt or redirected image
/// carries a retarget's `@<target>`. [`Stage::of`] formats a ref,
/// [`parse_ref`] parses one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `+coM`: the dist image plus its cache layer.
    Extended,
    /// `+coMre`: the extended image plus a rebuild layer.
    Rebuilt,
    /// `+opt`: the redirected, system-optimized image.
    Redirected,
}

impl Stage {
    const ALL: [Stage; 3] = [Stage::Extended, Stage::Rebuilt, Stage::Redirected];

    fn suffix(self) -> &'static str {
        match self {
            Stage::Extended => "coM",
            Stage::Rebuilt => "coMre",
            Stage::Redirected => "opt",
        }
    }

    /// The ref of `base`'s image at this stage, for one retarget if
    /// `target` is set.
    pub fn of(self, base: &str, target: Option<&str>) -> String {
        let suffix = self.suffix();
        match target {
            Some(target) => format!("{base}+{suffix}@{target}"),
            None => format!("{base}+{suffix}"),
        }
    }
}

/// Split a ref of the grammar into base, stage and target; `None` for any
/// other ref.
pub fn parse_ref(name: &str) -> Option<(&str, Stage, Option<&str>)> {
    let (base, tail) = name.rsplit_once('+')?;
    let (suffix, target) = match tail.split_once('@') {
        Some((suffix, target)) => (suffix, Some(target)),
        None => (tail, None),
    };
    let stage = Stage::ALL.into_iter().find(|s| s.suffix() == suffix)?;
    let valid_target = target.is_none_or(|t| !t.is_empty() && stage != Stage::Extended);
    (!base.is_empty() && valid_target).then_some((base, stage, target))
}

/// Decoded contents of a cache layer.
#[derive(Debug)]
pub struct CacheContents {
    pub models: ProcessModels,
    pub trace: BuildTrace,
    /// Build-container path → content.
    pub sources: BTreeMap<String, Bytes>,
    /// Digests of the file windows the rebuild reads, shared by every
    /// engine that replays this load (all targets of a fan-out). After
    /// [`load_cache`] it answers the image's own sources from the digests
    /// its layout holds for them — hashed once for every load of the image
    /// — and memoizes every other window for this load only.
    pub digests: Arc<DigestMemo>,
}

/// What a layout's store keeps for a cache layer it has decoded: the
/// contents, and the digests of the image's own windows (its sources and
/// IR objects, all slices of the store's blobs). Per-load windows — extra
/// files, step outputs, system-side files — never enter it.
struct HeldCache {
    models: ProcessModels,
    trace: BuildTrace,
    sources: BTreeMap<String, Bytes>,
    digests: Arc<HeldDigests>,
}

impl HeldCache {
    /// One load's contents: the held decode, and a memo of its own over
    /// the held digests.
    fn contents(&self) -> CacheContents {
        CacheContents {
            models: self.models.clone(),
            trace: self.trace.clone(),
            sources: self.sources.clone(),
            digests: Arc::new(DigestMemo::over(Arc::clone(&self.digests))),
        }
    }
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
    let models_json =
        serde_json::to_vec_pretty(models).map_err(|e| ComtError::cache(e.to_string()))?;
    let mut entries = vec![
        Entry::file(format!("{CACHE_PREFIX}/models.json"), models_json, 0o644),
        Entry::file(format!("{CACHE_PREFIX}/trace"), trace.serialize(), 0o644),
    ];
    for (path, content) in sources {
        entries.push(Entry::file(
            format!("{CACHE_PREFIX}/src{path}"),
            content.clone(),
            0o644,
        ));
    }
    let new_ref = Stage::Extended.of(dist_ref, None);
    commit_layer(oci, dist_ref, entries, new_ref, "coMtainer-build cache layer")
}

/// Append a rebuild layer to the extended image `<ref>+coM`, registering
/// `<ref>+coMre`, or `<ref>+coMre@<target>` for one retarget. The
/// `@<target>` suffix keeps an N-target fan-out's images side by side in
/// one layout; each is an ordinary rebuilt image ([`load_rebuild`] and the
/// redirect work on it unchanged). `artifacts` maps image paths to rebuilt
/// content.
pub fn write_rebuild(
    oci: &mut OciDir,
    extended_ref: &str,
    target: Option<&str>,
    artifacts: &BTreeMap<String, Bytes>,
) -> Result<String, ComtError> {
    let entries = artifacts
        .iter()
        .map(|(path, content)| {
            Entry::file(format!("{REBUILD_PREFIX}{path}"), content.clone(), 0o755)
        })
        .collect();
    let base = parse_ref(extended_ref).map_or(extended_ref, |(base, ..)| base);
    let new_ref = Stage::Rebuilt.of(base, target);
    let note = match target {
        None => "coMtainer-rebuild layer".to_string(),
        Some(target) => format!("coMtainer-retarget layer ({target})"),
    };
    commit_layer(oci, extended_ref, entries, new_ref, &note)
}

/// Commit the image at `base` plus one layer of `entries` through the OCI
/// crate's one image writer, noted in the layer's history entry and the
/// manifest's `comtainer.note`, and register it as `new_ref`, which it
/// returns.
fn commit_layer(
    oci: &mut OciDir,
    base: &str,
    entries: Vec<Entry>,
    new_ref: String,
    note: &str,
) -> Result<String, ComtError> {
    let image = oci
        .load_image(base)
        .map_err(|e| ComtError::oci(e.to_string()))?;
    let image = ImageBuilder::from_base(&oci.blobs, &image)
        .map_err(|e| ComtError::oci(e.to_string()))?
        .with_layer_entries(entries, note)
        .with_annotation("comtainer.note", note)
        .commit(&mut oci.blobs)
        .map_err(|e| ComtError::cache(e.to_string()))?;
    oci.tag(&new_ref, image.manifest_digest)
        .map_err(|e| ComtError::oci(e.to_string()))?;
    Ok(new_ref)
}

/// Load the cache layer contents from an extended image.
///
/// The layout's store keeps what this decodes, keyed by the image's
/// manifest ([`comt_oci::BlobStore::derived`]): only a manifest's first
/// load flattens the image, and every later load of it — a rebuild, warm
/// re-run, retarget, audit or buildd job, on the layout or any clone of it
/// — gets the held contents and the held digests of its sources. The store
/// drops the entry with the image's blobs (gc), and serves it only to a
/// store that holds the image's whole closure.
pub fn load_cache(oci: &OciDir, extended_ref: &str) -> Result<CacheContents, ComtError> {
    let manifest = oci
        .resolve(extended_ref)
        .map_err(|e| ComtError::oci(e.to_string()))?;
    let held = match oci.blobs.derived::<HeldCache>(&manifest) {
        Some(held) => {
            comt_observe::global().count("cache.load.reused", 1);
            held
        }
        None => {
            let held = Arc::new(decode_cache(oci, extended_ref)?);
            oci.blobs.keep_derived(&manifest, Arc::clone(&held));
            comt_observe::global().count("cache.load.decoded", 1);
            held
        }
    };
    Ok(held.contents())
}

/// Flatten an extended image and decode its cache layer.
fn decode_cache(oci: &OciDir, extended_ref: &str) -> Result<HeldCache, ComtError> {
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

    let digests = Arc::new(HeldDigests::new(sources.values()));
    Ok(HeldCache {
        models,
        trace,
        sources,
        digests,
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
    use comt_oci::BlobStore;
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
    fn a_later_load_gets_the_held_decode_and_a_memo_of_its_own() {
        let mut oci = dist_in_layout();
        let mut sources = BTreeMap::new();
        sources.insert(
            "/src/main.c".to_string(),
            Bytes::from_static(b"int main;\n"),
        );
        write_cache(
            &mut oci,
            "app.dist",
            &sample_models(),
            &BuildTrace::default(),
            &sources,
        )
        .unwrap();
        let first = load_cache(&oci, "app.dist+coM").unwrap();
        // Writing more images leaves this one's blobs, and its entry, alone;
        // a clone shares both.
        write_rebuild(&mut oci, "app.dist+coM", None, &BTreeMap::new()).unwrap();
        let reused = comt_observe::global().counter("cache.load.reused");
        let second = load_cache(&oci.clone(), "app.dist+coM").unwrap();
        assert!(comt_observe::global().counter("cache.load.reused") > reused);

        let window = |c: &CacheContents| c.sources["/src/main.c"].as_ptr();
        assert_eq!(window(&first), window(&second));
        assert!(Arc::ptr_eq(first.digests.held(), second.digests.held()));
        assert!(!Arc::ptr_eq(&first.digests, &second.digests));
        assert_eq!(first.digests.held().len(), 1);
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
        // The manifest digests pin the refs and the notes (a manifest
        // annotation and a config history entry).
        for (target, want_ref, want) in [
            (
                None,
                "app.dist+coMre",
                "sha256:6cfe3eb6cb2714ebd869193d54ef8012f86f66b5eaa6d954d564de73b4bda05b",
            ),
            (
                Some("x86-64-v3"),
                "app.dist+coMre@x86-64-v3",
                "sha256:8b814751097b79a078b1a58a0b2b31938563bc412416352cb15ce03f2de4f0db",
            ),
        ] {
            let re_ref = write_rebuild(&mut oci, "app.dist+coM", target, &artifacts).unwrap();
            assert_eq!(re_ref, want_ref);
            assert_eq!(oci.resolve(&re_ref).unwrap().to_oci_string(), want);
            let back = load_rebuild(&oci, &re_ref).unwrap();
            assert_eq!(back["/app/run"], Bytes::from_static(b"REBUILT"));
        }
    }

    #[test]
    fn refs_format_and_parse_back() {
        for (stage, target) in [
            (Stage::Extended, None),
            (Stage::Rebuilt, None),
            (Stage::Rebuilt, Some("x86-64-v3")),
            (Stage::Redirected, Some("icelake-server")),
        ] {
            let name = stage.of("a+b.dist", target);
            assert_eq!(parse_ref(&name), Some(("a+b.dist", stage, target)));
        }
        for name in [
            "app.dist",
            "app.dist+coM@v3",
            "app.dist+coMre@",
            "+coM",
            "app.dist+opts",
        ] {
            assert_eq!(parse_ref(name), None, "{name}");
        }
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
