//! The one package-database interface.
//!
//! coMtainer "relies on the package manager of the base image to analyze
//! the application software stack" and the approach is "equally applicable
//! to other package managers, such as RPM" (§4.6). Which manager an image
//! uses is a property of its rootfs, so it is decided once — by [`detect`]
//! — and everything else (classification, install, vendor upgrade, the
//! perf model) talks to the [`PackageDb`] it returns. A third distro is one
//! more `impl`.

use crate::dep::Dependency;
use crate::package::{LibDomain, Package};
use crate::repo::Repository;
use crate::resolver::{resolve_install, ResolveError};
use comt_vfs::{Vfs, VfsError};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// One installed package as its database records it. The version is the
/// database's own spelling; order it with [`PackageDb::version_cmp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Installed {
    pub name: String,
    pub version: String,
}

/// Package resolution, installation or database-parse failure.
#[derive(Debug)]
pub enum InstallError {
    Fs(VfsError),
    /// The package database in an image is malformed.
    CorruptStatus(String),
    /// The requested packages have no install closure in the repository.
    Resolve(ResolveError),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Fs(e) => write!(f, "filesystem error: {e}"),
            InstallError::CorruptStatus(e) => write!(f, "corrupt package database: {e}"),
            InstallError::Resolve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InstallError {}

impl From<VfsError> for InstallError {
    fn from(e: VfsError) -> Self {
        InstallError::Fs(e)
    }
}

impl From<ResolveError> for InstallError {
    fn from(e: ResolveError) -> Self {
        InstallError::Resolve(e)
    }
}

/// A package manager's on-disk database inside an image rootfs.
pub trait PackageDb: Sync {
    /// `"dpkg"` or `"rpm"`.
    fn kind(&self) -> &'static str;
    /// The installed-package records; an image without the database has none.
    fn installed(&self, fs: &Vfs) -> Result<Vec<Installed>, InstallError>;
    /// The `(file path, owning package)` index.
    fn owner_index(&self, fs: &Vfs) -> Result<Vec<(String, String)>, InstallError>;
    /// Write payload files and database records. Installing a package
    /// already present *replaces* its record and payload (upgrade
    /// semantics) — this is how the redirect step swaps generic base
    /// libraries for vendor builds.
    fn install(&self, fs: &mut Vfs, packages: &[Package]) -> Result<(), InstallError>;
    /// This manager's version ordering (the two disagree: see
    /// `rpm::tests::rpmvercmp_differs_from_debian`).
    fn version_cmp(&self, a: &str, b: &str) -> Ordering;
    /// Whether `path` is the manager's own bookkeeping, which an install
    /// regenerates and a redirect must therefore not carry over.
    fn is_metadata(&self, path: &str) -> bool;
}

/// The package database of a rootfs: an rpm database wins, and a rootfs
/// with no database at all is dpkg (what a first install then creates).
pub fn detect(fs: &Vfs) -> &'static dyn PackageDb {
    if fs.exists(crate::rpm::DB_PATH) {
        &crate::rpm::Rpm
    } else {
        &crate::status::Dpkg
    }
}

/// Install into whichever database `fs` has.
pub fn install_packages(fs: &mut Vfs, packages: &[Package]) -> Result<(), InstallError> {
    detect(fs).install(fs, packages)
}

/// `apt-get install` / `dnf install`: resolve `deps` against `repo`, drop
/// what the database already names, install the rest.
pub fn install_missing(
    fs: &mut Vfs,
    repo: &Repository,
    deps: &[Dependency],
) -> Result<(), InstallError> {
    let closure = resolve_install(repo, deps)?;
    let db = detect(fs);
    let installed: BTreeSet<String> = db.installed(fs)?.into_iter().map(|r| r.name).collect();
    let fresh: Vec<Package> = closure
        .into_iter()
        .filter(|p| !installed.contains(&p.name))
        .collect();
    db.install(fs, &fresh)
}

/// The package-replacement (`libo`) candidates: every installed record for
/// which `repo` carries a performance-relevant build that is newer by the
/// database's own ordering, in database order.
pub fn perf_upgrades<'r>(
    fs: &Vfs,
    repo: &'r Repository,
) -> Result<Vec<(Installed, &'r Package)>, InstallError> {
    let db = detect(fs);
    Ok(db
        .installed(fs)?
        .into_iter()
        .filter_map(|rec| {
            let latest = repo.latest(&rec.name)?;
            let newer =
                db.version_cmp(&latest.version.to_string(), &rec.version) == Ordering::Greater;
            (latest.perf.domain != LibDomain::None && newer).then_some((rec, latest))
        })
        .collect())
}
