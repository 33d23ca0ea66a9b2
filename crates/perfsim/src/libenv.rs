//! The library environment of an image: per-domain quality factors.
//!
//! coMtainer's `libo` optimization replaces generic libraries with the
//! system's optimized stack. The performance effect is determined by which
//! packages an image actually contains, so this module extracts a
//! [`LibEnv`] from an image filesystem: it reads the image's package
//! database (dpkg or rpm, whichever [`comt_pkg::detect`] finds) and
//! resolves each installed `(name, version)` back to the catalog package
//! carrying its [`comt_pkg::PerfTraits`].

use comt_pkg::{LibDomain, Repository};
use comt_vfs::Vfs;
use std::collections::BTreeMap;

/// Per-domain library quality for one image.
#[derive(Debug, Clone, PartialEq)]
pub struct LibEnv {
    qualities: BTreeMap<LibDomainKey, f64>,
    /// Whether the installed MPI can drive the high-speed interconnect.
    pub mpi_native: bool,
}

/// `LibDomain` lacks `Ord`; mirror it with a sortable key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LibDomainKey {
    StdC,
    StdCxx,
    Blas,
    Mpi,
    Compression,
    Fft,
}

fn key_of(d: LibDomain) -> Option<LibDomainKey> {
    match d {
        LibDomain::StdC => Some(LibDomainKey::StdC),
        LibDomain::StdCxx => Some(LibDomainKey::StdCxx),
        LibDomain::Blas => Some(LibDomainKey::Blas),
        LibDomain::Mpi => Some(LibDomainKey::Mpi),
        LibDomain::Compression => Some(LibDomainKey::Compression),
        LibDomain::Fft => Some(LibDomainKey::Fft),
        LibDomain::None => None,
    }
}

impl LibEnv {
    /// All-generic environment (quality 1.0 everywhere, no HSN plugins).
    pub fn generic() -> Self {
        LibEnv {
            qualities: BTreeMap::new(),
            mpi_native: false,
        }
    }

    /// A vendor-x86-like environment, for tests and model exploration.
    pub fn vendor_x86_like() -> Self {
        let mut qualities = BTreeMap::new();
        qualities.insert(LibDomainKey::StdC, 1.30);
        qualities.insert(LibDomainKey::StdCxx, 1.20);
        qualities.insert(LibDomainKey::Blas, 1.70);
        qualities.insert(LibDomainKey::Mpi, 1.6);
        qualities.insert(LibDomainKey::Fft, 1.65);
        LibEnv {
            qualities,
            mpi_native: true,
        }
    }

    /// Quality factor for a domain (1.0 when generic / unknown).
    pub fn quality(&self, domain: LibDomain) -> f64 {
        key_of(domain)
            .and_then(|k| self.qualities.get(&k).copied())
            .unwrap_or(1.0)
    }

    fn set(&mut self, domain: LibDomain, quality: f64) {
        if let Some(k) = key_of(domain) {
            let q = self.qualities.entry(k).or_insert(1.0);
            // Several packages may share a domain (BLAS + LAPACK); the
            // strongest installed implementation wins.
            if quality > *q {
                *q = quality;
            }
        }
    }
}

/// Extract the library environment from an image's filesystem by resolving
/// its package-database records against the given repositories (checked in order; the
/// first repository knowing the exact `(name, version)` wins).
pub fn lib_env_from_image(fs: &Vfs, repos: &[&Repository]) -> LibEnv {
    let mut env = LibEnv::generic();
    let db = comt_pkg::detect(fs);
    let records = match db.installed(fs) {
        Ok(r) => r,
        Err(_) => return env,
    };
    for rec in records {
        for repo in repos {
            if let Some(pkg) = repo
                .versions(&rec.name)
                .iter()
                .find(|p| db.version_cmp(&p.version.to_string(), &rec.version).is_eq())
            {
                env.set(pkg.perf.domain, pkg.perf.quality);
                if pkg.perf.domain == LibDomain::Mpi && pkg.perf.native_interconnect {
                    env.mpi_native = true;
                }
                break;
            }
        }
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use comt_pkg::catalog;

    fn image_with(repo: &Repository, names: &[&str]) -> Vfs {
        install_into(Vfs::new(), repo, names)
    }

    fn install_into(mut fs: Vfs, repo: &Repository, names: &[&str]) -> Vfs {
        let deps: Vec<comt_pkg::Dependency> = names.iter().map(|n| n.parse().unwrap()).collect();
        comt_pkg::install_missing(&mut fs, repo, &deps).unwrap();
        fs
    }

    #[test]
    fn generic_image_is_all_ones() {
        let repo = catalog::generic_repo("x86_64");
        let fs = image_with(&repo, &["libopenblas0", "mpich", "libc6"]);
        let env = lib_env_from_image(&fs, &[&repo]);
        assert_eq!(env.quality(LibDomain::Blas), 1.0);
        assert_eq!(env.quality(LibDomain::StdC), 1.0);
        assert!(!env.mpi_native);
    }

    #[test]
    fn vendor_image_carries_quality() {
        let repo = catalog::system_repo("x86_64");
        let fs = image_with(&repo, &["libopenblas0", "mpich", "libc6"]);
        let env = lib_env_from_image(&fs, &[&repo]);
        assert!(env.quality(LibDomain::Blas) > 1.5);
        assert!(env.quality(LibDomain::StdC) > 1.2);
        assert!(env.mpi_native);
    }

    #[test]
    fn unknown_packages_ignored() {
        let repo = catalog::generic_repo("x86_64");
        let mut fs = image_with(&repo, &["libc6"]);
        // A package no repo knows about.
        comt_pkg::install_packages(
            &mut fs,
            &[comt_pkg::Package::new("mystery", "9.9", "amd64")],
        )
        .unwrap();
        let env = lib_env_from_image(&fs, &[&repo]);
        assert_eq!(env.quality(LibDomain::Blas), 1.0);
    }

    #[test]
    fn image_without_dpkg_is_generic() {
        let repo = catalog::generic_repo("x86_64");
        let env = lib_env_from_image(&Vfs::new(), &[&repo]);
        assert_eq!(env, LibEnv::generic());
    }

    #[test]
    fn rpm_vendor_image_carries_quality() {
        use comt_pkg::PackageDb;
        let repo = catalog::system_repo("x86_64");
        // An empty rpm database is what makes the rootfs an rpm image.
        let mut fs = Vfs::new();
        comt_pkg::Rpm.install(&mut fs, &[]).unwrap();
        let fs = install_into(fs, &repo, &["libopenblas0", "mpich", "libc6"]);
        assert_eq!(comt_pkg::detect(&fs).kind(), "rpm");
        let env = lib_env_from_image(&fs, &[&repo]);
        assert!(env.quality(LibDomain::Blas) > 1.5);
        assert!(env.quality(LibDomain::StdC) > 1.2);
        assert!(env.mpi_native);
    }

    #[test]
    fn strongest_domain_package_wins() {
        let repo = catalog::system_repo("x86_64");
        // Both openblas (2.9) and lapack (2.9) map to Blas; installing the
        // generic lapack alongside vendor openblas must keep 2.9.
        let fs = image_with(&repo, &["libopenblas0", "liblapack3"]);
        let env = lib_env_from_image(&fs, &[&repo]);
        assert!(env.quality(LibDomain::Blas) >= 1.7);
    }
}
