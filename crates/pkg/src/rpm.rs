//! RPM package-manager support.
//!
//! The paper's prototype "only implements parsing for dpkg/apt and supports
//! Debian-based distributions only. However, our approach is equally
//! applicable to other package managers, such as RPM" (§4.6). This module
//! makes that claim concrete:
//!
//! * [`rpmvercmp`] — RPM's version comparison algorithm (segment-wise
//!   alpha/numeric comparison, `~` pre-release, `^` post-release), which
//!   differs from Debian's in several observable ways,
//! * the RPM database at `/var/lib/rpm/Packages` (a simplified textual
//!   rendering of the header store) with per-package file lists,
//! * [`Rpm`], the [`PackageDb`] over both, so everything that works on a
//!   Debian image (classification, install, vendor upgrade, the perf
//!   model) works on an RPM-based one.

use crate::db::{InstallError, Installed, PackageDb};
use crate::package::Package;
use bytes::Bytes;
use comt_vfs::Vfs;
use std::cmp::Ordering;

pub(crate) const DB_PATH: &str = "/var/lib/rpm/Packages";

/// The rpm [`PackageDb`].
pub struct Rpm;

/// One record parsed back from the RPM database.
struct RpmRecord {
    name: String,
    /// `[epoch:]version[-release]`.
    evr: String,
    files: Vec<String>,
}

// ---- rpmvercmp -----------------------------------------------------------

/// Segment type in rpmvercmp.
#[derive(PartialEq)]
enum Seg {
    Num(String),
    Alpha(String),
    Tilde,
    Caret,
}

fn segments(s: &str) -> Vec<Seg> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c == '~' {
            out.push(Seg::Tilde);
            chars.next();
        } else if c == '^' {
            out.push(Seg::Caret);
            chars.next();
        } else if c.is_ascii_digit() {
            let mut seg = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_digit() {
                    seg.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            out.push(Seg::Num(seg));
        } else if c.is_ascii_alphabetic() {
            let mut seg = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphabetic() {
                    seg.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            out.push(Seg::Alpha(seg));
        } else {
            // Separators are skipped (any run counts as one boundary).
            chars.next();
        }
    }
    out
}

/// RPM's `rpmvercmp`: compare two version strings.
///
/// Rules (matching rpm's implementation): versions split into numeric and
/// alphabetic segments at non-alphanumeric boundaries; numeric segments
/// compare as numbers and always beat alphabetic segments; `~` sorts
/// before everything including end-of-string (pre-release); `^` sorts
/// after end-of-string but before ordinary segments (post-release);
/// a longer version wins a tie.
pub fn rpmvercmp(a: &str, b: &str) -> Ordering {
    let sa = segments(a);
    let sb = segments(b);
    let mut i = 0;
    loop {
        match (sa.get(i), sb.get(i)) {
            (None, None) => return Ordering::Equal,
            // Tilde: less than end-of-string.
            (Some(Seg::Tilde), None) => return Ordering::Less,
            (None, Some(Seg::Tilde)) => return Ordering::Greater,
            // Caret: greater than end-of-string…
            (Some(Seg::Caret), None) => return Ordering::Greater,
            (None, Some(Seg::Caret)) => return Ordering::Less,
            // …but less than any normal segment.
            (Some(Seg::Caret), Some(Seg::Caret)) | (Some(Seg::Tilde), Some(Seg::Tilde)) => {}
            (Some(Seg::Tilde), Some(_)) => return Ordering::Less,
            (Some(_), Some(Seg::Tilde)) => return Ordering::Greater,
            (Some(Seg::Caret), Some(_)) => return Ordering::Less,
            (Some(_), Some(Seg::Caret)) => return Ordering::Greater,
            // Longer version wins once one side runs out.
            (Some(_), None) => return Ordering::Greater,
            (None, Some(_)) => return Ordering::Less,
            (Some(Seg::Num(x)), Some(Seg::Num(y))) => {
                let x = x.trim_start_matches('0');
                let y = y.trim_start_matches('0');
                match x.len().cmp(&y.len()).then_with(|| x.cmp(y)) {
                    Ordering::Equal => {}
                    ord => return ord,
                }
            }
            // Numeric beats alphabetic.
            (Some(Seg::Num(_)), Some(Seg::Alpha(_))) => return Ordering::Greater,
            (Some(Seg::Alpha(_)), Some(Seg::Num(_))) => return Ordering::Less,
            (Some(Seg::Alpha(x)), Some(Seg::Alpha(y))) => match x.cmp(y) {
                Ordering::Equal => {}
                ord => return ord,
            },
        }
        i += 1;
    }
}

/// Compare full `[epoch:]version-release` strings.
pub fn rpm_evr_cmp(a: &str, b: &str) -> Ordering {
    fn split(evr: &str) -> (u32, &str, &str) {
        let (epoch, rest) = match evr.find(':') {
            Some(i) if evr[..i].chars().all(|c| c.is_ascii_digit()) && i > 0 => {
                (evr[..i].parse().unwrap_or(0), &evr[i + 1..])
            }
            _ => (0, evr),
        };
        match rest.rfind('-') {
            Some(i) => (epoch, &rest[..i], &rest[i + 1..]),
            None => (epoch, rest, ""),
        }
    }
    let (ea, va, ra) = split(a);
    let (eb, vb, rb) = split(b);
    ea.cmp(&eb)
        .then_with(|| rpmvercmp(va, vb))
        .then_with(|| rpmvercmp(ra, rb))
}

// ---- the database --------------------------------------------------------

fn record_text(pkg: &Package) -> String {
    let mut s = String::new();
    s.push_str(&format!("Name        : {}\n", pkg.name));
    s.push_str(&format!("Version     : {}\n", pkg.version.upstream));
    if !pkg.version.revision.is_empty() {
        s.push_str(&format!("Release     : {}\n", pkg.version.revision));
    }
    if pkg.version.epoch != 0 {
        s.push_str(&format!("Epoch       : {}\n", pkg.version.epoch));
    }
    s.push_str(&format!("Architecture: {}\n", rpm_arch(&pkg.architecture)));
    if !pkg.description.is_empty() {
        s.push_str(&format!("Summary     : {}\n", pkg.description));
    }
    s.push_str("Files       :\n");
    for f in &pkg.files {
        s.push_str(&format!("  {}\n", f.path));
    }
    s
}

/// dpkg arch → rpm arch spelling.
fn rpm_arch(dpkg_arch: &str) -> &str {
    match dpkg_arch {
        "amd64" => "x86_64",
        "arm64" => "aarch64",
        other => other,
    }
}

/// Parse the database; an image without one has no records.
fn records(fs: &Vfs) -> Result<Vec<RpmRecord>, InstallError> {
    let raw = match fs.read_string(DB_PATH) {
        Ok(r) => r,
        Err(_) => return Ok(Vec::new()),
    };
    let mut out = Vec::new();
    for rec in raw.split("\n\n").filter(|r| !r.trim().is_empty()) {
        fn colon_or_space(c: char) -> bool {
            c == ':' || c == ' '
        }
        let field = |key: &str| -> Option<String> {
            rec.lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim_start_matches(colon_or_space).trim().to_string())
        };
        let name = field("Name        ")
            .ok_or_else(|| InstallError::CorruptStatus(format!("missing Name in {rec:?}")))?;
        let mut evr = field("Version     ").unwrap_or_default();
        if let Some(release) = field("Release     ") {
            evr = format!("{evr}-{release}");
        }
        if let Some(epoch) = field("Epoch       ") {
            evr = format!("{epoch}:{evr}");
        }
        let mut files = Vec::new();
        let mut in_files = false;
        for line in rec.lines() {
            if line.starts_with("Files") {
                in_files = true;
                continue;
            }
            if in_files {
                if let Some(f) = line.strip_prefix("  ") {
                    files.push(f.to_string());
                } else {
                    in_files = false;
                }
            }
        }
        out.push(RpmRecord { name, evr, files });
    }
    Ok(out)
}

impl PackageDb for Rpm {
    fn kind(&self) -> &'static str {
        "rpm"
    }

    /// Write payload files and the `/var/lib/rpm/Packages` records
    /// (replacing those of packages already present).
    fn install(&self, fs: &mut Vfs, packages: &[Package]) -> Result<(), InstallError> {
        let mut db = fs.read_string(DB_PATH).unwrap_or_default();
        let names: std::collections::BTreeSet<&str> =
            packages.iter().map(|p| p.name.as_str()).collect();
        if !db.is_empty() {
            let kept: Vec<&str> = db
                .split("\n\n")
                .filter(|rec| {
                    let name = rec
                        .lines()
                        .find_map(|l| l.strip_prefix("Name        :"))
                        .map(str::trim);
                    !matches!(name, Some(n) if names.contains(n))
                })
                .filter(|r| !r.trim().is_empty())
                .collect();
            db = kept.join("\n\n");
            if !db.is_empty() && !db.ends_with('\n') {
                db.push('\n');
            }
        }
        for pkg in packages {
            for f in &pkg.files {
                fs.write_file_p(&f.path, f.content.clone(), f.mode)?;
            }
            if !db.is_empty() && !db.ends_with("\n\n") {
                db.push('\n');
            }
            db.push_str(&record_text(pkg));
        }
        fs.write_file_p(DB_PATH, Bytes::from(db.into_bytes()), 0o644)?;
        Ok(())
    }

    fn installed(&self, fs: &Vfs) -> Result<Vec<Installed>, InstallError> {
        Ok(records(fs)?
            .into_iter()
            .map(|r| Installed { name: r.name, version: r.evr })
            .collect())
    }

    fn owner_index(&self, fs: &Vfs) -> Result<Vec<(String, String)>, InstallError> {
        let mut out = Vec::new();
        for rec in records(fs)? {
            for f in rec.files {
                out.push((f, rec.name.clone()));
            }
        }
        Ok(out)
    }

    fn version_cmp(&self, a: &str, b: &str) -> Ordering {
        rpm_evr_cmp(a, b)
    }

    fn is_metadata(&self, path: &str) -> bool {
        path.starts_with("/var/lib/rpm/") || path.starts_with("/var/lib/dnf/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::PackageFile;

    fn v(a: &str, b: &str) -> Ordering {
        rpmvercmp(a, b)
    }

    // Vectors from rpm's own test suite (rpmvercmp.at).
    #[test]
    fn rpmvercmp_basics() {
        assert_eq!(v("1.0", "1.0"), Ordering::Equal);
        assert_eq!(v("1.0", "2.0"), Ordering::Less);
        assert_eq!(v("2.0.1", "2.0"), Ordering::Greater);
        assert_eq!(v("5.5p1", "5.5p2"), Ordering::Less);
        assert_eq!(v("10xyz", "10.1xyz"), Ordering::Less);
        assert_eq!(v("xyz10", "xyz10.1"), Ordering::Less);
    }

    #[test]
    fn rpmvercmp_numeric_beats_alpha() {
        assert_eq!(v("1.0.1", "1.0a"), Ordering::Greater);
        assert_eq!(v("a", "1"), Ordering::Less);
    }

    #[test]
    fn rpmvercmp_leading_zeros() {
        assert_eq!(v("1.05", "1.5"), Ordering::Equal);
        assert_eq!(v("1.010", "1.10"), Ordering::Equal);
        assert_eq!(v("1.2", "1.10"), Ordering::Less);
    }

    #[test]
    fn rpmvercmp_tilde() {
        assert_eq!(v("1.0~rc1", "1.0"), Ordering::Less);
        assert_eq!(v("1.0~rc1", "1.0~rc2"), Ordering::Less);
        assert_eq!(v("1.0~rc1~git123", "1.0~rc1"), Ordering::Less);
    }

    #[test]
    fn rpmvercmp_caret() {
        assert_eq!(v("1.0^", "1.0"), Ordering::Greater);
        assert_eq!(v("1.0^git1", "1.0"), Ordering::Greater);
        assert_eq!(v("1.0^git1", "1.01"), Ordering::Less);
        assert_eq!(v("1.0^20160101", "1.0.1"), Ordering::Less);
    }

    #[test]
    fn rpmvercmp_separators_collapse() {
        assert_eq!(v("1..0", "1.0"), Ordering::Equal);
        assert_eq!(v("1.0", "1-0"), Ordering::Equal);
    }

    #[test]
    fn rpmvercmp_differs_from_debian() {
        // Debian: "1.0a" < "1.0+" (letters before symbols);
        // RPM drops separators, so "1.0+" == "1.0" and "1.0a" > "1.0".
        assert_eq!(v("1.0a", "1.0+"), Ordering::Greater);
        // Longer wins in RPM; Debian compares char classes.
        assert_eq!(v("1.0.1", "1.0"), Ordering::Greater);
    }

    #[test]
    fn evr_with_epoch_and_release() {
        assert_eq!(rpm_evr_cmp("1:1.0-1", "2.0-1"), Ordering::Greater);
        assert_eq!(rpm_evr_cmp("1.0-1", "1.0-2"), Ordering::Less);
        assert_eq!(rpm_evr_cmp("1.0-1.el9", "1.0-1.el8"), Ordering::Greater);
    }

    fn sample_pkg() -> Package {
        Package::new("openblas", "0.3.26-2.el9", "amd64")
            .with_description("Optimized BLAS")
            .with_file(PackageFile::new(
                "/usr/lib64/libopenblas.so.0",
                Bytes::from_static(b"BLAS"),
                0o644,
            ))
    }

    // What both databases promise (round trips, ownership, no database,
    // hostile bytes) is `tests/conformance.rs`; these are the rpm format.

    #[test]
    fn rpmdb_roundtrip() {
        let mut fs = Vfs::new();
        Rpm.install(&mut fs, &[sample_pkg()]).unwrap();
        assert_eq!(crate::detect(&fs).kind(), "rpm");
        assert!(fs.exists("/usr/lib64/libopenblas.so.0"));
        let recs = records(&fs).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "openblas");
        assert_eq!(recs[0].evr, "0.3.26-2.el9");
        assert!(fs.read_string(DB_PATH).unwrap().contains("Architecture: x86_64\n"));
        assert_eq!(recs[0].files, vec!["/usr/lib64/libopenblas.so.0"]);
    }

    #[test]
    fn rpm_reinstall_replaces() {
        let mut fs = Vfs::new();
        Rpm.install(&mut fs, &[sample_pkg()]).unwrap();
        let upgraded = Package::new("openblas", "0.3.27-1.el9", "amd64").with_file(
            PackageFile::new("/usr/lib64/libopenblas.so.0", Bytes::from_static(b"NEW"), 0o644),
        );
        Rpm.install(&mut fs, &[upgraded]).unwrap();
        let recs = records(&fs).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].evr, "0.3.27-1.el9");
        assert_eq!(fs.read_string("/usr/lib64/libopenblas.so.0").unwrap(), "NEW");
    }
}
