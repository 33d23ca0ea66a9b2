//! Architecture guards over the production sources of `crates/*/src`.
//!
//! Each guard reads the source files itself (no nested `cargo`) and names
//! every offending file, so a copy that creeps back fails the tier-1 suite.

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

/// Problems with one production source against the one-toolchain-table rule.
fn toolchain_copies(non_test: &str) -> Vec<String> {
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
    found
}

/// `comt_toolchain::toolchains` is the only list of personalities and MPI
/// wrappers: no other production source names two personality
/// constructors, keeps its own "is this a compiler" list, or spells the
/// MPI-wrapper rule as a prefix test.
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
        for problem in toolchain_copies(&non_test_part(&text)) {
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
