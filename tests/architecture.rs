//! Architecture guards over the repository's sources and manifests.
//!
//! Each guard reads the files itself (no nested `cargo`) and names every
//! offending file, so a copy that creeps back fails the tier-1 suite. Some
//! read the production sources of `crates/*/src`; the repository-wide ones
//! read everything under `crates/`, `src/`, `tests/` and `examples/`, as a
//! `grep -rn` over those directories would; the dependency guards read
//! `Cargo.lock` and the `[dependencies]` tables of `crates/*/Cargo.toml`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `crates/*/src`, sorted.
fn crate_sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut out = Vec::new();
    for krate in fs::read_dir(&crates).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            walk(&src, &mut out);
        }
    }
    out.sort();
    assert!(
        out.len() > 50,
        "found only {} sources under {}",
        out.len(),
        crates.display()
    );
    out
}

/// A source without its `#[cfg(test)]` items: each runs from the attribute
/// to the first line that closes at the attribute's own indentation (or to
/// its first line ending in `;` for a one-line item).
fn non_test_part(text: &str) -> String {
    let mut out = String::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let indent = &line[..line.len() - line.trim_start().len()];
        let close = format!("{indent}}}");
        for item in lines.by_ref() {
            let own_level = item.len() - item.trim_start().len() == indent.len();
            if item == close || (own_level && item.ends_with(';')) {
                break;
            }
        }
    }
    out
}

fn relative(path: &Path) -> String {
    path.strip_prefix(env!("CARGO_MANIFEST_DIR"))
        .unwrap_or(path)
        .display()
        .to_string()
}

const PERSONALITY_CONSTRUCTORS: [&str; 4] =
    ["distro_gcc()", "::llvm()", "vendor_x86()", "vendor_arm()"];

/// Problems with one production source against the one-toolchain-table
/// rule. `names_drivers` is false for a crate that may spell driver names
/// (`comt-workloads` writes build scripts).
fn toolchain_copies(non_test: &str, names_drivers: bool) -> Vec<String> {
    let mut found = Vec::new();
    let named: Vec<&str> = PERSONALITY_CONSTRUCTORS
        .into_iter()
        .filter(|c| non_test.contains(c))
        .collect();
    if named.len() >= 2 {
        found.push(format!("lists personalities {named:?}"));
    }
    for copy in ["fn toolchain_claims", "starts_with(\"mpi\")"] {
        if non_test.contains(copy) {
            found.push(format!("has `{copy}`"));
        }
    }
    if !names_drivers {
        for wrapper in ["\"mpicxx\"", "\"mpif90\""] {
            if non_test.contains(wrapper) {
                found.push(format!("spells the MPI wrapper {wrapper}"));
            }
        }
    }
    found
}

/// `comt_toolchain::toolchains` is the only list of personalities and MPI
/// wrappers: no other production source names two personality
/// constructors, keeps its own "is this a compiler" list, spells the
/// MPI-wrapper rule as a prefix test, or (outside `comt-workloads`, which
/// writes build scripts) names the `mpicxx` or `mpif90` wrapper.
#[test]
fn one_toolchain_table() {
    let table = Path::new("crates/toolchain/src/toolchains.rs");
    let mut offenders = Vec::new();
    for path in crate_sources() {
        let name = relative(&path);
        if Path::new(&name) == table {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        let names_drivers = name.starts_with("crates/workloads/src/");
        for problem in toolchain_copies(&non_test_part(&text), names_drivers) {
            offenders.push(format!("{name}: {problem}"));
        }
    }
    assert!(
        offenders.is_empty(),
        "ask comt_toolchain::toolchains (Toolchain::lookup, language_of, drivers) instead:\n{}",
        offenders.join("\n")
    );
}

/// No test hooks in the store or the daemon: a `BlobStore` holds only bytes
/// it hashed, and wire faults come from `crates/dist/tests/common/proxy.rs`.
/// Reads whole files, test modules included.
#[test]
fn no_test_hooks_in_production_code() {
    const HOOKS: [&str; 4] = [
        "insert_raw_for_tests",
        "RespondTruncated",
        "struct Chaos",
        "chaos_truncations",
    ];
    let mut offenders = Vec::new();
    for path in crate_sources() {
        let text = fs::read_to_string(&path).unwrap();
        for (n, line) in text.lines().enumerate() {
            if HOOKS.iter().any(|h| line.contains(h)) {
                offenders.push(format!("{}:{}: {line}", relative(&path), n + 1));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a test hook is back in production code: plant faults on disk or through the test proxy:\n{}",
        offenders.join("\n")
    );
}

/// The directories the repository-wide guards read, as `grep -rn` would.
const REPO_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Every file under `roots` (relative to the repository root), sorted;
/// with `rust_only`, only `.rs` files.
fn files_under(roots: &[&str], rust_only: bool) -> Vec<PathBuf> {
    fn walk(dir: &Path, rust_only: bool, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, rust_only, out);
            } else if !rust_only || path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in roots {
        walk(&root.join(dir), rust_only, &mut out);
    }
    out.sort();
    out
}

/// `file:line: text` for every line of `files` that contains one of
/// `needles`. Whole files are read, test modules included.
fn grep(files: &[PathBuf], needles: &[&str]) -> Vec<String> {
    let mut hits = Vec::new();
    for path in files {
        let text = String::from_utf8_lossy(&fs::read(path).unwrap()).into_owned();
        for (n, line) in text.lines().enumerate() {
            if needles.iter().any(|needle| line.contains(needle)) {
                hits.push(format!("{}:{}: {line}", relative(path), n + 1));
            }
        }
    }
    hits
}

fn assert_none(offenders: &[String], why: &str) {
    assert!(offenders.is_empty(), "{why}:\n{}", offenders.join("\n"));
}

// The names each guard forbids are spelled with `concat!` wherever the
// guard also reads `tests/`, so that this file does not match itself.

/// The workspace is hermetic: every package in `Cargo.lock` is path-local,
/// so it has no `source =` line (only registry and git packages carry one).
#[test]
fn workspace_has_no_registry_dependencies() {
    let lock = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock");
    let text = fs::read_to_string(&lock).unwrap();
    let sourced: Vec<String> = text
        .lines()
        .filter(|l| l.starts_with("source = "))
        .map(String::from)
        .collect();
    assert_none(&sourced, "Cargo.lock contains non-workspace packages");
}

/// Blobs enter a store only as a `Verified` proof: the unchecked door does
/// not come back under the name it had.
#[test]
fn blobs_enter_a_store_only_verified() {
    let hits = grep(
        &files_under(&REPO_ROOTS, false),
        &[concat!("put_", "prehashed")],
    );
    assert_none(
        &hits,
        "the unchecked blob door is back: admit blobs through comt_oci::Verified",
    );
}

/// dpkg-or-rpm is decided by `comt_pkg::detect`, nowhere else:
/// backend-specific package-database calls stay inside `crates/pkg/`.
#[test]
fn package_db_is_chosen_by_detect() {
    let needles = [
        concat!("is_rpm", "_image"),
        concat!("rpm_installed", "_packages"),
        concat!("rpm_install", "_packages"),
        concat!("rpm_owner", "_index"),
        concat!("comt_pkg::", "installed_packages"),
        concat!("comt_pkg::", "owner_index"),
    ];
    let hits: Vec<String> = grep(&files_under(&REPO_ROOTS, true), &needles)
        .into_iter()
        .filter(|hit| !hit.starts_with("crates/pkg/"))
        .collect();
    assert_none(
        &hits,
        "a backend-specific package-DB call is back: go through comt_pkg::detect(fs)",
    );
}

/// One store surface: `Layout<B>` over a `BlobBackend`, one `StoreError`.
#[test]
fn one_store_surface() {
    let needles = [
        concat!("Registry", "Backend"),
        concat!("Layout", "Error"),
        concat!("Registry", "Error"),
        concat!("verify", "_blobs"),
    ];
    let hits = grep(&files_under(&REPO_ROOTS, false), &needles);
    assert_none(
        &hits,
        "a second store error or the forwarding trait is back: use comt_oci::{Layout, StoreError}",
    );
}

/// One replay path: one cache probe, one segment runner, one rebuild
/// sequence (`comtainer_rebuild_with_report`).
#[test]
fn one_replay_path() {
    let needles = [
        concat!("rebuild_artifacts", "_with_report"),
        concat!("fn recodegen", "_step"),
        concat!("run_segment", "_parallel"),
    ];
    let hits = grep(&files_under(&REPO_ROOTS, false), &needles);
    assert_none(
        &hits,
        "a second replay path is back: compile steps go through engine::cached_step and run_segment",
    );
}

/// One job type: buildd's wire carries `comtainer::JobSpec` itself.
#[test]
fn one_job_type() {
    let hits = grep(
        &files_under(&REPO_ROOTS, false),
        &[concat!("Job", "Request")],
    );
    assert_none(
        &hits,
        "a second job type is back: submit a comtainer::JobSpec",
    );
}

/// One machine vocabulary: `-march` names and `-m` flags are listed in
/// `comt_toolchain::features` only (`flag_isa`, `vector_width`).
#[test]
fn one_machine_vocabulary() {
    let needles = [
        concat!("flag_is", "_isa_specific"),
        concat!("foreign", "_machine_flag"),
        concat!("fn default", "_march(&self"),
    ];
    let hits = grep(&files_under(&REPO_ROOTS, true), &needles);
    assert_none(
        &hits,
        "a second list of machine flags is back: ask comt_toolchain::features::flag_isa",
    );
}

/// One perf instrument: `benchmark/` times the workflow end to end and per
/// layer. The criterion microbenches and their stub stay retired.
#[test]
fn no_criterion_microbenches() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found: Vec<String> = Vec::new();
    if root.join("vendor/criterion").exists() {
        found.push("vendor/criterion".into());
    }
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let benches = krate.unwrap().path().join("benches");
        if benches.is_dir() {
            found.push(relative(&benches));
        }
    }
    assert_none(
        &found,
        "a criterion microbench is back: measure through benchmark/",
    );
}

/// One gzip encoder: compressed layers are `comt_flate::gzip(&tar)`. The
/// block-parallel encoder, its sweep bin and snapshot stay retired.
#[test]
fn one_gzip_encoder() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found: Vec<String> = [
        "crates/flate/src/parallel.rs",
        "crates/bench/src/bin/codec_scaling.rs",
        "bench-snapshots",
    ]
    .into_iter()
    .filter(|p| root.join(p).exists())
    .map(String::from)
    .collect();
    found.extend(grep(
        &files_under(&["crates"], false),
        &["GzipEncoder", "gzip_parallel", "crc32_combine"],
    ));
    assert_none(
        &found,
        "a second gzip encoder is back: compress through comt_flate::gzip",
    );
}

/// One image writer: images are committed by `comt_oci::ImageBuilder` over
/// `LayerCodec`, and an in-memory layout gains a ref by `OciDir::tag`.
#[test]
fn one_image_writer() {
    let writers = [
        "crates/core/src",
        "crates/cli/src",
        "crates/buildsys/src",
        "crates/dist/src",
        "crates/analyze/src",
    ];
    let mut hits = grep(
        &files_under(&writers, false),
        &[
            "diff_ids.push",
            "MediaType::ImageConfig",
            "MediaType::ImageManifest",
        ],
    );
    hits.extend(grep(
        &files_under(&REPO_ROOTS, false),
        &[concat!("fn append", "_layer")],
    ));
    assert_none(
        &hits,
        "a second image writer is back: commit through comt_oci::ImageBuilder and register with OciDir::tag",
    );
}

/// One proof set: whether a stored blob needs a hash is its store's answer
/// (`BlobBackend::proven` / `prove`); the daemon keeps no set.
#[test]
fn the_daemon_keeps_no_digest_set() {
    let hits = grep(
        &files_under(&["crates/dist/src"], false),
        &["HashSet<Digest>", "BTreeSet<Digest>"],
    );
    assert_none(
        &hits,
        "the daemon declares a digest set of its own: ask the store (BlobBackend::proven)",
    );
}

/// Knobs nobody sets stay constants: the shared artifact cache has no
/// capacity bound or eviction, the client's deadlines and the body bound
/// are fixed, and the in-memory layout has one name.
#[test]
fn unset_knobs_stay_constants() {
    let needles = [
        concat!("cache", "_capacity"),
        concat!("shard", "_capacity"),
        concat!("fn ", "evictions"),
        concat!("op", "_deadline"),
        concat!("io", "_timeout"),
        concat!("pub type ", "Registry"),
    ];
    let mut hits = grep(&files_under(&REPO_ROOTS, false), &needles);
    let http = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/dist/src/http.rs");
    hits.extend(grep(&[http], &["max_body:"]));
    assert_none(
        &hits,
        "an unset knob or the old layout alias is back: keep it a constant, name the layout OciDir",
    );
}

/// The normal (`[dependencies]`) edges between the packages under
/// `crates/`, by package name.
fn normal_dependencies() -> BTreeMap<String, Vec<String>> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut graph = BTreeMap::new();
    for krate in fs::read_dir(&crates).unwrap() {
        let manifest = krate.unwrap().path().join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        let (mut section, mut name, mut deps) = ("", None, Vec::new());
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if line.is_empty() || line.starts_with('#') {
                continue;
            } else if section == "[package]" && line.starts_with("name") {
                name = line.split('"').nth(1).map(String::from);
            } else if section == "[dependencies]" {
                let key = line.split(['.', '=']).next().unwrap().trim();
                deps.push(key.to_string());
            }
        }
        let name = name.unwrap_or_else(|| panic!("{}: no package name", manifest.display()));
        graph.insert(name, deps);
    }
    assert!(
        graph.contains_key("comt-oci"),
        "no comt-oci under {}",
        crates.display()
    );
    graph
}

/// The store crate stays below the engine: `BlobStore`'s table of derived
/// values (the held cache-layer decode) is type-erased, so `comt-oci`
/// reaches neither `comtainer` nor `comt-toolchain` through its normal
/// dependencies.
#[test]
fn the_store_crate_stays_below_the_engine() {
    let graph = normal_dependencies();
    let mut reached = BTreeSet::new();
    let mut stack = vec!["comt-oci".to_string()];
    while let Some(package) = stack.pop() {
        for dep in graph.get(&package).into_iter().flatten() {
            if reached.insert(dep.clone()) {
                stack.push(dep.clone());
            }
        }
    }
    let engine: Vec<String> = ["comtainer", "comt-toolchain"]
        .into_iter()
        .filter(|p| reached.contains(*p))
        .map(String::from)
        .collect();
    assert_none(
        &engine,
        "comt-oci depends on the engine: keep BlobStore::derived type-erased",
    );
}

/// `comt fsck` is a pass over `DiskStore`'s primitives: its non-test part
/// touches no file itself and builds no file handle.
#[test]
fn fsck_goes_through_the_disk_store() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/oci/src/fsck.rs");
    let text = non_test_part(&fs::read_to_string(&path).unwrap());
    let hits: Vec<String> = text
        .lines()
        .filter(|l| l.contains("std::fs") || l.contains("BlobHandle::File"))
        .map(String::from)
        .collect();
    assert_none(
        &hits,
        "crates/oci/src/fsck.rs reads or writes the layout itself: go through comt_oci::disk",
    );
}

/// One HTTP/1.1 parser: the daemon and the client read requests and
/// responses through `wire::Parser`. No blocking line, header or chunked
/// reader and no second incremental parser comes back in the non-test part
/// of `crates/dist/src`, and no other type in `wire.rs` has a `feed`.
#[test]
fn one_http_parser() {
    let needles = [
        concat!("fn read", "_line"),
        concat!("fn read", "_headers"),
        concat!("fn read", "_chunked"),
        concat!("struct Request", "Parser"),
    ];
    let mut hits = Vec::new();
    let mut feeders = BTreeMap::new();
    for path in files_under(&["crates/dist/src"], true) {
        let text = non_test_part(&fs::read_to_string(&path).unwrap());
        let mut impl_of = String::new();
        for (n, line) in text.lines().enumerate() {
            let at = format!("{}:{}: {line}", relative(&path), n + 1);
            if needles.iter().any(|needle| line.contains(needle)) {
                hits.push(at.clone());
            }
            if let Some(header) = line.strip_prefix("impl") {
                // The implementing type: after `for` in a trait impl,
                // else after the impl's own generics.
                let ty = match header.split_once(" for ") {
                    Some((_, ty)) => ty,
                    None => header.trim_start_matches(|c| c != ' '),
                };
                impl_of = ty
                    .trim()
                    .split(['<', ' ', '{'])
                    .next()
                    .unwrap_or("")
                    .to_string();
            }
            if path.ends_with("wire.rs") && line.contains(concat!("fn ", "feed")) {
                feeders.insert(impl_of.clone(), at);
            }
        }
    }
    if feeders.len() > 1 {
        hits.extend(feeders.into_values());
    }
    assert_none(
        &hits,
        "a second HTTP parser is back: read requests and responses through wire::Parser",
    );
}
