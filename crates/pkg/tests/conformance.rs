//! One conformance suite for the one package-database interface: every
//! property below is one generic body, run over [`Dpkg`] and [`Rpm`]
//! (ROADMAP 5b's pattern; `crates/oci/tests/conformance.rs` is the shape).
//!
//! The first half is the contract callers lean on — what `install` writes,
//! `installed` / `owner_index` read back, and a reinstall replaces. The
//! second half feeds the parsers what an image pulled from anywhere may
//! hold: random bytes and damaged databases must come back as `Ok` or
//! `Err`, never a panic. Cases come from the vendored `proptest`'s
//! fixed-seed generator, so a failure reproduces.

use bytes::Bytes;
use comt_pkg::{detect, Dependency, Dpkg, Package, PackageDb, PackageFile, Rpm};
use comt_vfs::Vfs;
use proptest::prelude::*;
use proptest::TestRng;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A backend and every file its database parser reads.
struct Backend {
    db: &'static dyn PackageDb,
    files: &'static [&'static str],
}

const DPKG: Backend = Backend {
    db: &Dpkg,
    files: &["/var/lib/dpkg/status", "/var/lib/dpkg/info/victim.list"],
};

const RPM: Backend = Backend {
    db: &Rpm,
    files: &["/var/lib/rpm/Packages"],
};

macro_rules! on_both_backends {
    ($($body:ident),* $(,)?) => {
        mod dpkg {
            $( #[test] fn $body() { super::$body(&super::DPKG) } )*
        }
        mod rpm {
            $( #[test] fn $body() { super::$body(&super::RPM) } )*
        }
    };
}

on_both_backends!(
    install_round_trips,
    reinstall_replaces,
    no_database_is_empty_not_error,
    version_cmp_is_an_ordering_on_any_string,
    random_bytes_never_panic,
    damaged_databases_never_panic,
);

/// Run `body` on `n` values of `strategy`, seeded by `name` alone.
fn for_cases<S: Strategy>(name: &str, n: usize, strategy: S, mut body: impl FnMut(S::Value)) {
    let mut rng = TestRng::deterministic(name);
    for _ in 0..n {
        body(strategy.sample(&mut rng));
    }
}

/// Package sets with distinct names and distinct file paths: versions with
/// and without epoch, `~` and revision; names with `+` and `-`.
fn arb_packages() -> impl Strategy<Value = Vec<Package>> {
    let files = prop::collection::btree_map(
        "[a-z0-9_][a-z0-9_.]{0,7}",
        prop::collection::vec(any::<u8>(), 0..16),
        0..4,
    );
    let version = "([1-9]:)?[0-9][a-z0-9.+~]{0,6}(-[a-z0-9.+~]{1,4})?";
    prop::collection::btree_map(
        "[a-z][a-z0-9+-]{1,8}",
        (version, "[A-Za-z ]{0,12}", files),
        0..6,
    )
    .prop_map(|set| {
        set.into_iter()
            .map(|(name, (version, description, files))| {
                files.into_iter().fold(
                    Package::new(&name, &version, "amd64").with_description(description.trim()),
                    |p, (file, content)| {
                        p.with_file(PackageFile::new(
                            format!("/opt/{name}/{file}"),
                            content,
                            0o644,
                        ))
                    },
                )
            })
            .collect()
    })
}

/// The samples the per-backend unit tests used to carry, as first cases.
fn sample_packages() -> Vec<Package> {
    vec![
        Package::new("libfoo", "1.2-3", "amd64")
            .with_depends("libc6 (>= 2.30)")
            .with_provides(&["libfoo-abi1"])
            .with_description("Example shared library")
            .with_file(PackageFile::new(
                "/usr/lib/libfoo.so.1",
                Bytes::from_static(b"FOO"),
                0o644,
            )),
        Package::new("openblas", "0.3.26-2.el9", "amd64")
            .with_description("Optimized BLAS")
            .with_file(PackageFile::new(
                "/usr/lib64/libopenblas.so.0",
                Bytes::from_static(b"BLAS"),
                0o644,
            )),
    ]
}

fn names_and_versions(packages: &[Package]) -> Vec<(String, String)> {
    packages
        .iter()
        .map(|p| (p.name.clone(), p.version.to_string()))
        .collect()
}

fn installed_pairs(b: &Backend, fs: &Vfs) -> Vec<(String, String)> {
    b.db.installed(fs)
        .unwrap()
        .into_iter()
        .map(|r| (r.name, r.version))
        .collect()
}

/// `path → owner`, asserting no path is listed twice.
fn owners(b: &Backend, fs: &Vfs) -> BTreeMap<String, String> {
    let index = b.db.owner_index(fs).unwrap();
    let map: BTreeMap<String, String> = index.iter().cloned().collect();
    assert_eq!(map.len(), index.len(), "a path is owned once: {index:?}");
    map
}

fn expected_owners(packages: &[Package]) -> BTreeMap<String, String> {
    packages
        .iter()
        .flat_map(|p| p.files.iter().map(|f| (f.path.clone(), p.name.clone())))
        .collect()
}

fn install_round_trips(b: &Backend) {
    let check = |packages: Vec<Package>| {
        let mut fs = Vfs::new();
        b.db.install(&mut fs, &packages).unwrap();
        assert_eq!(
            detect(&fs).kind(),
            b.db.kind(),
            "the rootfs is now this backend's"
        );
        assert_eq!(installed_pairs(b, &fs), names_and_versions(&packages));
        let owned = expected_owners(&packages);
        assert_eq!(owners(b, &fs), owned);
        for p in &packages {
            for f in &p.files {
                assert_eq!(fs.read(&f.path).unwrap(), f.content);
            }
        }
        // Everything install wrote beyond the payload is bookkeeping.
        for (path, node) in fs.walk() {
            if node.is_file() && !owned.contains_key(path) {
                assert!(
                    b.db.is_metadata(path),
                    "{path} is neither payload nor metadata"
                );
            }
        }
        for path in owned.keys() {
            assert!(!b.db.is_metadata(path));
        }
    };
    check(sample_packages());
    for_cases("install_round_trips", 64, arb_packages(), check);
}

fn reinstall_replaces(b: &Backend) {
    let check = |(packages, picks): (Vec<Package>, Vec<bool>)| {
        let mut fs = Vfs::new();
        b.db.install(&mut fs, &packages).unwrap();
        // Upgrade the picked ones: new version, new payload bytes.
        let upgraded: Vec<Package> = packages
            .iter()
            .zip(&picks)
            .filter(|(_, pick)| **pick)
            .map(|(p, _)| {
                p.files.iter().fold(
                    Package::new(&p.name, &format!("9:{}", p.version.upstream), "amd64"),
                    |q, f| {
                        q.with_file(PackageFile::new(
                            f.path.clone(),
                            Bytes::from_static(b"NEW"),
                            f.mode,
                        ))
                    },
                )
            })
            .collect();
        b.db.install(&mut fs, &upgraded).unwrap();

        // Still one record per name, the upgraded ones at the new version.
        let mut expected: BTreeMap<String, String> =
            names_and_versions(&packages).into_iter().collect();
        expected.extend(names_and_versions(&upgraded));
        let got = installed_pairs(b, &fs);
        assert_eq!(got.len(), packages.len(), "replaced, not appended: {got:?}");
        assert_eq!(got.into_iter().collect::<BTreeMap<_, _>>(), expected);
        assert_eq!(owners(b, &fs), expected_owners(&packages));
        for f in upgraded.iter().flat_map(|p| &p.files) {
            assert_eq!(fs.read_string(&f.path).unwrap(), "NEW");
        }
    };
    check((sample_packages(), vec![false, true]));
    let picks = prop::collection::vec(any::<bool>(), 6);
    for_cases("reinstall_replaces", 64, (arb_packages(), picks), check);
}

fn no_database_is_empty_not_error(b: &Backend) {
    let fs = Vfs::new();
    assert!(b.db.installed(&fs).unwrap().is_empty());
    assert!(b.db.owner_index(&fs).unwrap().is_empty());
    // No database at all is a dpkg image in the making.
    assert_eq!(detect(&fs).kind(), "dpkg");
}

fn version_cmp_is_an_ordering_on_any_string(b: &Backend) {
    // Version-shaped and arbitrary text (multi-byte, stray `:` and `-`)
    // alike: the epoch / revision split slices at searched indices.
    let text = || prop_oneof!["[0-9a-z.:~^+-]{0,12}", "[ -~é→\\n]{0,12}"];
    for_cases(
        "version_cmp",
        512,
        (text(), text()),
        |(x, y): (String, String)| {
            assert_eq!(b.db.version_cmp(&x, &x), Ordering::Equal, "{x:?}");
            assert_eq!(
                b.db.version_cmp(&x, &y),
                b.db.version_cmp(&y, &x).reverse(),
                "{x:?} vs {y:?}"
            );
        },
    );
}

/// Both readers return — `Ok` with at most one record per input line, or
/// `Err` — and an install over whatever is there returns too.
fn assert_survives(b: &Backend, fs: &Vfs) {
    let lines: usize = b
        .files
        .iter()
        .filter_map(|path| fs.read(path).ok())
        .map(|bytes| bytes.iter().filter(|&&c| c == b'\n').count() + 1)
        .sum();
    if let Ok(records) = b.db.installed(fs) {
        assert!(
            records.len() <= lines,
            "{} records from {lines} lines",
            records.len()
        );
    }
    if let Ok(index) = b.db.owner_index(fs) {
        assert!(
            index.len() <= lines,
            "{} owners from {lines} lines",
            index.len()
        );
    }
    let mut fs = fs.clone();
    let _ = b.db.install(&mut fs, &sample_packages());
    let _ = b.db.installed(&fs);
    let _ = b.db.owner_index(&fs);
}

fn random_bytes_never_panic(b: &Backend) {
    let garbage = prop::collection::vec(any::<u8>(), 0..256);
    for_cases(
        "random_bytes",
        128,
        (garbage, 0..b.files.len()),
        |(bytes, which)| {
            let mut fs = Vfs::new();
            fs.write_file_p(b.files[which], Bytes::from(bytes), 0o644)
                .unwrap();
            assert_survives(b, &fs);
        },
    );
}

fn damaged_databases_never_panic(b: &Backend) {
    // 1–3 edits, each an overwrite, an insert or a cut of 1–3 bytes.
    let edits = prop::collection::vec((0..3u8, any::<usize>(), any::<u8>(), 1..4usize), 1..4);
    for_cases(
        "damaged_databases",
        128,
        (arb_packages(), 0..b.files.len(), edits),
        |(mut packages, which, edits)| {
            // `victim` owns the `.list` the dpkg fixture damages.
            packages.push(
                Package::new("victim", "1.0-1", "amd64").with_file(PackageFile::new(
                    "/opt/victim/file",
                    Bytes::from_static(b"V"),
                    0o644,
                )),
            );
            let mut fs = Vfs::new();
            b.db.install(&mut fs, &packages).unwrap();
            let mut bytes = fs.read(b.files[which]).unwrap().to_vec();
            for (kind, at, byte, len) in edits {
                let at = at % (bytes.len() + 1);
                match kind {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ => drop(bytes.drain(at..(at + len).min(bytes.len()))),
                }
            }
            fs.write_file_p(b.files[which], Bytes::from(bytes), 0o644)
                .unwrap();
            assert_survives(b, &fs);
        },
    );
}

/// `apt-get install <spec>` parses text from a Containerfile: any string
/// is a dependency or an error (`a)(` used to slice backwards).
#[test]
fn dependency_specs_never_panic() {
    assert!("a)(".parse::<Dependency>().is_err());
    let spec = prop_oneof!["[a-z()<>=|, .0-9]{0,16}", "[ -~é]{0,16}"];
    for_cases("dependency_specs", 2048, spec, |s: String| {
        let _ = s.parse::<Dependency>();
        let _ = comt_pkg::dep::parse_list(&s);
    });
}
