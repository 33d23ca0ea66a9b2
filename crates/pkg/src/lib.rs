//! Package management simulation: one database interface, two managers.
//!
//! coMtainer "relies on the package manager of the base image to analyze the
//! application software stack" (paper §4.6): the image model learns which
//! files belong to which package from the package database inside the
//! image, and the system side substitutes generic packages with optimized
//! equivalents from the target system's repositories. This crate reproduces
//! the data model those steps need:
//!
//! * [`PackageDb`] — what every caller talks to: `installed`,
//!   `owner_index`, `install`, `version_cmp`, `is_metadata`. [`detect`]
//!   picks the implementation once per rootfs; [`install_missing`] and
//!   [`perf_upgrades`] are the two sequences callers share, written once,
//! * [`status`] — [`Dpkg`]: the `/var/lib/dpkg/status` +
//!   `info/<pkg>.list` database, ordered by [`version`] — the Debian
//!   version-ordering algorithm (epoch, `~`, digit runs),
//! * [`rpm`] — [`Rpm`]: the `/var/lib/rpm/Packages` database, ordered by
//!   `rpmvercmp` (§4.6: "equally applicable to other package managers"),
//! * [`dep`] — dependency expressions (`libfoo (>= 1.2), libbar | libbaz`),
//! * [`Package`] / [`Repository`] — package metadata, file payloads and the
//!   per-system repositories (generic distro, x86-64 vendor, AArch64 vendor),
//! * [`resolver`] — install-closure resolution with virtual packages.
//!
//! Optimized packages carry a [`PerfTraits`] record (library domain and a
//! quality factor) consumed by the performance model when a rebuilt image
//! links against them.

pub mod catalog;
pub mod db;
pub mod dep;
pub mod package;
pub mod repo;
pub mod resolver;
pub mod rpm;
pub mod status;
pub mod version;

pub use db::{detect, install_missing, install_packages, perf_upgrades, InstallError, Installed, PackageDb};
pub use dep::{DepError, Dependency, DependencyList, VersionConstraint};
pub use package::{LibDomain, Package, PackageFile, PerfTraits};
pub use repo::Repository;
pub use resolver::{resolve_install, ResolveError};
pub use rpm::{rpm_evr_cmp, rpmvercmp, Rpm};
pub use status::Dpkg;
pub use version::{cmp_versions, Version};

#[cfg(test)]
mod tests {
    use super::*;
    use comt_vfs::Vfs;

    #[test]
    fn end_to_end_install_and_introspect() {
        let repo = catalog::generic_repo("x86_64");
        let names = resolve_install(&repo, &["gcc-13".parse::<Dependency>().unwrap()]).unwrap();
        assert!(names.iter().any(|p| p.name == "gcc-13"));
        assert!(names.iter().any(|p| p.name == "libc6"));

        let mut fs = Vfs::new();
        install_packages(&mut fs, &names).unwrap();

        // The dpkg database can be read back from the filesystem.
        let db = detect(&fs);
        assert_eq!(db.kind(), "dpkg");
        let installed = db.installed(&fs).unwrap();
        assert!(installed.iter().any(|r| r.name == "gcc-13"));

        // And the owner index maps files back to packages.
        let owners = db.owner_index(&fs).unwrap();
        let (_path, owner) = owners
            .iter()
            .find(|(p, _)| p.contains("gcc-13"))
            .expect("gcc files present");
        assert_eq!(owner, "gcc-13");
    }
}
