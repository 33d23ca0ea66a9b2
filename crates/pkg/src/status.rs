//! The dpkg on-disk database: `/var/lib/dpkg/status` and
//! `/var/lib/dpkg/info/<pkg>.list`.
//!
//! coMtainer's image model parses this database *out of the final image* to
//! classify files by owning package (paper §4.5: "dpkg/apt data inside the
//! image are parsed further to get the dependency list needed by the image
//! model"). We therefore implement both directions: installing packages
//! writes the database into the [`Vfs`], and analysis parses it back.

use crate::db::{InstallError, Installed, PackageDb};
use crate::dep;
use crate::package::Package;
use crate::version::{cmp_versions, Version};
use bytes::Bytes;
use comt_vfs::Vfs;
use std::cmp::Ordering;
use std::collections::BTreeMap;

const STATUS_PATH: &str = "/var/lib/dpkg/status";
const INFO_DIR: &str = "/var/lib/dpkg/info";

/// The dpkg/apt [`PackageDb`].
pub struct Dpkg;

fn status_paragraph(pkg: &Package) -> String {
    let mut s = String::new();
    s.push_str(&format!("Package: {}\n", pkg.name));
    s.push_str("Status: install ok installed\n");
    if pkg.essential {
        s.push_str("Essential: yes\n");
    }
    s.push_str(&format!("Architecture: {}\n", pkg.architecture));
    s.push_str(&format!("Version: {}\n", pkg.version));
    if !pkg.provides.is_empty() {
        s.push_str(&format!("Provides: {}\n", pkg.provides.join(", ")));
    }
    if !pkg.depends.is_empty() {
        s.push_str(&format!("Depends: {}\n", dep::format_list(&pkg.depends)));
    }
    if !pkg.description.is_empty() {
        s.push_str(&format!("Description: {}\n", pkg.description));
    }
    s
}

impl PackageDb for Dpkg {
    fn kind(&self) -> &'static str {
        "dpkg"
    }

    /// Write payload files, the `.list` file-ownership records, and the
    /// status paragraphs (replacing those of packages already present).
    fn install(&self, fs: &mut Vfs, packages: &[Package]) -> Result<(), InstallError> {
        fs.mkdir_p(INFO_DIR)?;
        let mut status = fs.read_string(STATUS_PATH).unwrap_or_default();
        // Drop records for packages being (re)installed.
        let names: std::collections::BTreeSet<&str> =
            packages.iter().map(|p| p.name.as_str()).collect();
        if !status.is_empty() {
            let kept: Vec<&str> = status
                .split("\n\n")
                .filter(|para| {
                    let name = para
                        .lines()
                        .find_map(|l| l.strip_prefix("Package:"))
                        .map(str::trim);
                    !matches!(name, Some(n) if names.contains(n))
                })
                .filter(|p| !p.trim().is_empty())
                .collect();
            status = kept.join("\n\n");
            if !status.is_empty() && !status.ends_with('\n') {
                status.push('\n');
            }
        }

        for pkg in packages {
            let mut list = String::new();
            for f in &pkg.files {
                fs.write_file_p(&f.path, f.content.clone(), f.mode)?;
                list.push_str(&f.path);
                list.push('\n');
            }
            fs.write_file_p(
                &format!("{INFO_DIR}/{}.list", pkg.name),
                Bytes::from(list.into_bytes()),
                0o644,
            )?;
            if !status.is_empty() && !status.ends_with("\n\n") {
                status.push('\n');
            }
            status.push_str(&status_paragraph(pkg));
        }

        fs.write_file_p(STATUS_PATH, Bytes::from(status.into_bytes()), 0o644)?;
        Ok(())
    }

    fn installed(&self, fs: &Vfs) -> Result<Vec<Installed>, InstallError> {
        let raw = match fs.read_string(STATUS_PATH) {
            Ok(r) => r,
            Err(_) => return Ok(Vec::new()), // no dpkg database: not a Debian-ish image
        };
        let mut out = Vec::new();
        for para in raw.split("\n\n").filter(|p| !p.trim().is_empty()) {
            let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
            for line in para.lines() {
                if let Some((k, v)) = line.split_once(':') {
                    fields.insert(k.trim(), v.trim());
                }
            }
            let name = fields
                .get("Package")
                .ok_or_else(|| InstallError::CorruptStatus(format!("missing Package in: {para:?}")))?
                .to_string();
            let version = fields
                .get("Version")
                .ok_or_else(|| InstallError::CorruptStatus(format!("missing Version for {name}")))?
                .to_string();
            out.push(Installed { name, version });
        }
        Ok(out)
    }

    /// One `(path, package)` per line of every `info/<package>.list`.
    fn owner_index(&self, fs: &Vfs) -> Result<Vec<(String, String)>, InstallError> {
        let mut out = Vec::new();
        let lists = fs.find_files(|p| p.starts_with(INFO_DIR) && p.ends_with(".list"));
        for list_path in lists {
            let pkg = comt_vfs::file_name(&list_path)
                .trim_end_matches(".list")
                .to_string();
            let content = fs.read_string(&list_path)?;
            for line in content.lines().filter(|l| !l.is_empty()) {
                out.push((line.to_string(), pkg.clone()));
            }
        }
        Ok(out)
    }

    fn version_cmp(&self, a: &str, b: &str) -> Ordering {
        cmp_versions(&Version::new(a), &Version::new(b))
    }

    fn is_metadata(&self, path: &str) -> bool {
        path.starts_with("/var/lib/dpkg/") || path.starts_with("/var/lib/apt/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::PackageFile;

    fn libfoo() -> Package {
        Package::new("libfoo", "1.2-3", "amd64")
            .with_depends("libc6 (>= 2.30)")
            .with_provides(&["libfoo-abi1"])
            .with_description("Example shared library")
            .with_file(PackageFile::new(
                "/usr/lib/libfoo.so.1",
                Bytes::from_static(b"FOO"),
                0o644,
            ))
    }

    // What both databases promise (round trips, reinstall, no database,
    // hostile bytes) is `tests/conformance.rs`; these are the dpkg format.

    #[test]
    fn install_writes_payload_and_db() {
        let mut fs = Vfs::new();
        Dpkg.install(&mut fs, &[libfoo()]).unwrap();
        assert_eq!(fs.read_string("/usr/lib/libfoo.so.1").unwrap(), "FOO");
        assert!(fs.exists("/var/lib/dpkg/status"));
        assert!(fs.exists("/var/lib/dpkg/info/libfoo.list"));
    }

    #[test]
    fn status_roundtrip() {
        let mut fs = Vfs::new();
        Dpkg.install(&mut fs, &[libfoo()]).unwrap();
        let recs = Dpkg.installed(&fs).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "libfoo");
        assert_eq!(recs[0].version, "1.2-3");
        let status = fs.read_string(STATUS_PATH).unwrap();
        assert!(status.contains("Architecture: amd64\n"));
        assert!(status.contains("Provides: libfoo-abi1\n"));
        let depends = status.lines().find_map(|l| l.strip_prefix("Depends: ")).unwrap();
        let deps = dep::parse_list(depends).unwrap();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].alternatives[0].name, "libc6");
    }

    #[test]
    fn incremental_installs_append() {
        let mut fs = Vfs::new();
        Dpkg.install(&mut fs, &[libfoo()]).unwrap();
        Dpkg.install(&mut fs, &[Package::new("bar", "2.0", "amd64").essential()]).unwrap();
        let recs = Dpkg.installed(&fs).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().any(|r| r.name == "bar"));
        let status = fs.read_string(STATUS_PATH).unwrap();
        assert!(status.contains("Package: bar\nStatus: install ok installed\nEssential: yes\n"));
    }

    #[test]
    fn corrupt_status_reported() {
        let mut fs = Vfs::new();
        fs.write_file_p(
            STATUS_PATH,
            Bytes::from_static(b"Version: 1.0\n"),
            0o644,
        )
        .unwrap();
        assert!(matches!(
            Dpkg.installed(&fs),
            Err(InstallError::CorruptStatus(_))
        ));
    }
}
