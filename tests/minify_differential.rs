//! The one-pass minifier against the line-by-line one it replaced.
//!
//! `reference` is the earlier `comtainer::minify::minify_source`, kept
//! verbatim. The cache layer's bytes (and so every `+coM` digest) depend
//! on the minifier's output, so the two must agree byte for byte: on every
//! source and header of every `comt-workloads` tree, on a table of hostile
//! lines, and on random strings drawn from the characters those lines are
//! made of.

use comtainer_suite::core::minify::minify_source;
use comtainer_suite::pkg::catalog;
use comtainer_suite::vfs::{text_lossy, NodeKind};
use comtainer_suite::workloads::{apps, source_tree};
use proptest::prelude::*;

/// The line-by-line minifier, as it was.
fn reference(text: &str) -> String {
    let mut out = String::with_capacity(text.len() / 4);
    let mut pending: Vec<&str> = Vec::new();
    let flush = |pending: &mut Vec<&str>, out: &mut String| {
        if !pending.is_empty() {
            for (i, code) in pending.iter().enumerate() {
                if i > 0 && !out.ends_with(';') && !out.ends_with('}') && !out.ends_with('{') {
                    out.push(';');
                }
                out.push_str(code);
            }
            out.push('\n');
            pending.clear();
        }
    };
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // Comment-only lines vanish.
        if trimmed.starts_with("//") || trimmed.starts_with("/*") || trimmed.starts_with('*')
            || trimmed.starts_with("!") && !trimmed.starts_with("!=")
        {
            continue;
        }
        // Semantics-bearing lines survive verbatim on their own line.
        if trimmed.starts_with("#pragma comt") || trimmed.starts_with("#include") {
            flush(&mut pending, &mut out);
            out.push_str(trimmed);
            out.push('\n');
            continue;
        }
        // Other preprocessor lines must stay alone too.
        if trimmed.starts_with('#') {
            flush(&mut pending, &mut out);
            out.push_str(trimmed);
            out.push('\n');
            continue;
        }
        // Code lines: strip trailing // comments, batch-join.
        let code = match trimmed.find("//") {
            Some(i) => trimmed[..i].trim_end(),
            None => trimmed,
        };
        if code.is_empty() {
            continue;
        }
        pending.push(code);
        if pending.len() >= 24 {
            flush(&mut pending, &mut out);
        }
    }
    let mut tail = pending;
    flush(&mut tail, &mut out);
    out
}

fn assert_same(text: &str, what: &str) {
    let (want, got) = (reference(text), minify_source(text));
    assert!(
        got == want,
        "{what}: input {text:?}\n  want {want:?}\n   got {got:?}"
    );
}

#[test]
fn every_workload_source_and_header_minifies_as_before() {
    let mut files = 0;
    for spec in apps() {
        let tree = source_tree(spec.name, "x86_64", catalog::MINI_SCALE).unwrap();
        for (path, node) in tree.walk_prefix("/src") {
            if let NodeKind::File(content) = &node.kind {
                assert_same(&text_lossy(content), path);
                files += 1;
            }
        }
    }
    assert!(files > apps().len(), "only {files} files");
}

/// Lines that sit on an edge of one of the rules, one per entry.
const HOSTILE: &[&str] = &[
    "",
    "\n",
    "\n\n\n",
    // Whitespace at the edges: `\x0B` is `char::is_whitespace` but not
    // `u8::is_ascii_whitespace`; the non-ASCII ones only `str::trim` knows.
    "\x0Bint a = 1;\x0B\n",
    "\x0Cint b = 2;\x0C\nc\n",
    "\x0B\x0C\t \r\n",
    "\u{85}int c = 3;\u{85}\nd\n",
    "\u{A0}x = 1\u{A0}\ny\n",
    "\u{3000}y = 2\u{3000}\nz\n",
    " \u{A0} \tw = 1; \u{3000} \r\nv\n",
    "\u{85}\u{A0}\u{3000}\n",
    "\u{A0}// comment\n",
    "\u{3000}#define X 1\u{3000}\n",
    "\u{A0}a // b\u{A0}\n",
    "a\u{A0}// b\n",
    "x = \"é\"\ny = é\nz\n",
    // Line ends.
    "a = 1;\r\nb = 2\r\nc\r\n",
    "a\rb = 3;\nc\r",
    "a = 1\r",
    // `!` is a comment marker, `!=` is not.
    "!comment\n!= x\n!\n!=\nx != y\n",
    // `//` and `/`.
    "//\n",
    "/ /\n",
    "a / b\n/\n",
    "a // b // c\n",
    "a///b\n",
    "x = 1; //\n",
    "*p = 1;\n",
    "/* block\n * more\n */\nint after;\n",
    "a = \"http://x\";\n",
    // `//` across an 8-byte word boundary.
    "abcdef//x\n",
    "abcdefg//x\n",
    "abcdefgh//x\n",
    "abcdefghijklmno//x\n",
    "abcdefg/\n/x\n",
    "       a//b\n",
    // `#` lines, alone and inside a batch.
    "#include \"app.h\"\n#pragma comt provides(f)\n  #define N 4  \n",
    "a;\nb\n#define X\nc\nd\n",
    "a\n#\nb\n",
    // Joins.
    "f() {\nx\n}\ny;\nz\nw\n",
    "{\n{\n}\n}\n;\n;\nq\n",
    // No final newline.
    "a = 1",
    "#x",
    "x // y",
];

fn code_lines(n: usize) -> String {
    (0..n).map(|i| format!("  v{i} = {i}\n")).collect()
}

#[test]
fn hostile_lines_minify_as_before() {
    for (i, text) in HOSTILE.iter().enumerate() {
        assert_same(text, &format!("hostile #{i}"));
    }
    for n in [23, 24, 25, 48, 49] {
        assert_same(&code_lines(n), &format!("{n} code lines"));
        assert_same(
            &format!("{}#x\n{}", code_lines(n), code_lines(3)),
            &format!("{n} + #"),
        );
    }
    // The batch limit is what the reference says it is.
    assert_eq!(minify_source(&code_lines(24)).lines().count(), 1);
    assert_eq!(minify_source(&code_lines(25)).lines().count(), 2);
}

/// The pieces the random inputs are made of.
const ALPHABET: &[&str] = &[
    "a", "x = 1", ";", "{", "}", "/", "//", "/*", "*/", "*", "!", "!=", "#", "#include \"h\"",
    " ", "\t", "\x0B", "\x0C", "\r", "\n", "\n", "\r\n", "\u{85}", "\u{A0}", "\u{3000}", "é",
    "abcdefg",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_inputs_minify_as_before(picks in prop::collection::vec(0..ALPHABET.len(), 0..96)) {
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        prop_assert_eq!(minify_source(&text), reference(&text));
    }
}
