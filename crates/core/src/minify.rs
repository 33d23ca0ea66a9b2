//! Source minification for the cache layer.
//!
//! The paper argues embedding sources is acceptable because "the included
//! sources don't have to be in their original form — they can be obfuscated
//! to protect intellectual property while still enabling all the
//! system-side adaptation and optimizations" (§4.6). This minifier is that
//! transformation. It keeps what the rebuild needs — `#pragma comt …`
//! annotations, `#include` and every other preprocessor line, and the code
//! — and drops the human-oriented remainder. The whole rule set, applied to
//! each line (a line ends at `\n`):
//!
//! 1. The line is trimmed exactly as [`str::trim`] trims it. An empty line
//!    is dropped.
//! 2. A line that starts with `//`, `/*` or `*`, or with `!` but not `!=`,
//!    is a comment and is dropped.
//! 3. A line that starts with `#` is written alone on its own output line.
//! 4. Any other line is code. Its first `//`, everything after it and the
//!    whitespace before it are dropped. Up to 24 consecutive code lines are
//!    joined onto one output line, with a `;` between two of them unless
//!    the first ends in `;`, `{` or `}`. A `#` line or the end of the input
//!    ends the joined line early.
//!
//! Each line is scanned once: one word-at-a-time pass finds its end and
//! its first `//` together.

/// Code lines joined onto one output line.
const BATCH: usize = 24;

const ONES: u64 = u64::from_le_bytes([0x01; 8]);
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);

/// Whether any byte of `word` equals `byte`: the "has a zero byte" test on
/// `word ^ byte…byte`.
fn has_byte(word: u64, byte: u8) -> bool {
    let x = word ^ (ONES * u64::from(byte));
    x.wrapping_sub(ONES) & !x & HIGHS != 0
}

/// The line that starts at `from`: the index of its `\n` (or the input's
/// length) and the offset of its first `//` within it. Words without a
/// `\n` or `/` are skipped whole; only a word holding one is looked at
/// byte by byte.
fn scan_line(bytes: &[u8], from: usize) -> (usize, Option<usize>) {
    let mut slash = None;
    let mut at = from;
    while at < bytes.len() {
        if let Some(word) = bytes[at..].first_chunk::<8>() {
            let word = u64::from_le_bytes(*word);
            if !has_byte(word, b'\n') && !has_byte(word, b'/') {
                at += 8;
                continue;
            }
        }
        let stop = (at + 8).min(bytes.len());
        for (i, &b) in bytes[at..stop].iter().enumerate() {
            let i = at + i;
            if b == b'\n' {
                return (i, slash);
            }
            if b == b'/' && slash.is_none() && bytes.get(i + 1) == Some(&b'/') {
                slash = Some(i - from);
            }
        }
        at = stop;
    }
    (bytes.len(), slash)
}

/// The ASCII bytes [`char::is_whitespace`] accepts: space, `\t`, `\n`,
/// `\x0B`, `\x0C` and `\r` (`u8::is_ascii_whitespace` lacks `\x0B`).
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The bounds of `line.trim()` within `line`. A line with printable
/// non-space ASCII at both edges, most code lines, has nothing to trim.
/// Other ASCII edges are trimmed on bytes; where a non-ASCII byte sits at
/// an edge, [`str::trim`] decides, because U+0085, U+00A0, U+3000 and
/// others are whitespace too.
fn trim_bounds(line: &str) -> (usize, usize) {
    let b = line.as_bytes();
    if b.first().is_some_and(u8::is_ascii_graphic) && b.last().is_some_and(u8::is_ascii_graphic) {
        return (0, b.len());
    }
    let start = b.iter().position(|&c| !is_space(c)).unwrap_or(b.len());
    let end = b
        .iter()
        .rposition(|&c| !is_space(c))
        .map_or(start, |i| i + 1);
    if start < end && (b[start] >= 0x80 || b[end - 1] >= 0x80) {
        let tail = line.trim_start();
        let start = line.len() - tail.len();
        return (start, start + tail.trim_end().len());
    }
    (start, end)
}

/// Minify one source file by the rules in the module doc.
pub fn minify_source(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() / 2);
    // Code lines on the open output line, and the last byte of the last
    // one written.
    let mut batch = 0;
    let mut last = b'\n';
    let mut at = 0;
    while at < bytes.len() {
        let (end, slash) = scan_line(bytes, at);
        let line = &text[at..end];
        at = end + 1;
        let (start, stop) = trim_bounds(line);
        let trimmed = &line[start..stop];
        match trimmed.as_bytes() {
            [] | [b'/', b'/' | b'*', ..] | [b'*', ..] => continue,
            [b'!', b'=', ..] => {}
            [b'!', ..] => continue,
            [b'#', ..] => {
                if batch > 0 {
                    out.push('\n');
                    batch = 0;
                }
                out.push_str(trimmed);
                out.push('\n');
                continue;
            }
            _ => {}
        }
        let code = match slash {
            Some(cut) => line[start..cut].trim_end(),
            None => trimmed,
        };
        let Some(&tail) = code.as_bytes().last() else {
            continue;
        };
        if batch > 0 && !matches!(last, b';' | b'{' | b'}') {
            out.push(';');
        }
        out.push_str(code);
        last = tail;
        batch += 1;
        if batch == BATCH {
            out.push('\n');
            batch = 0;
        }
    }
    if batch > 0 {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use comt_toolchain::parse_source;

    const SRC: &str = r#"// LULESH-like kernel
#pragma comt provides(CalcForce)
#pragma comt extern(m:sqrt)
#pragma comt kernel(flops=1e9)
#include "app.h"

/* block comment
 * continues */
void CalcForce(double* x, int n) {
    // hot loop
    for (int i = 0; i < n; ++i) {
        x[i] = x[i] * 2.0;   // scale
    }
}
"#;

    #[test]
    fn pragmas_and_includes_survive() {
        let min = minify_source(SRC);
        let orig_info = parse_source(SRC);
        let min_info = parse_source(&min);
        assert_eq!(min_info.provides, orig_info.provides);
        assert_eq!(min_info.externs, orig_info.externs);
        assert_eq!(min_info.kernel, orig_info.kernel);
        assert_eq!(min_info.includes_quoted, orig_info.includes_quoted);
    }

    #[test]
    fn comments_and_blanks_removed() {
        let min = minify_source(SRC);
        assert!(!min.contains("LULESH-like"));
        assert!(!min.contains("hot loop"));
        assert!(!min.contains("block comment"));
        assert!(!min.contains("// scale"));
        assert!(min.len() < SRC.len());
    }

    #[test]
    fn code_lines_joined() {
        let min = minify_source(SRC);
        // Function body compacted onto fewer lines than the original.
        assert!(min.lines().count() < SRC.lines().count());
        assert!(min.contains("x[i] = x[i] * 2.0;"));
    }

    #[test]
    fn idempotent_for_semantics() {
        let once = minify_source(SRC);
        let twice = minify_source(&once);
        assert_eq!(parse_source(&once).provides, parse_source(&twice).provides);
        assert_eq!(parse_source(&once).kernel, parse_source(&twice).kernel);
    }

    #[test]
    fn empty_input() {
        assert_eq!(minify_source(""), "");
    }

    #[test]
    fn ratio_reports_shrinkage() {
        let padded = format!("{}{}", SRC, "// filler comment line\n".repeat(200));
        let min = minify_source(&padded);
        assert!(padded.len() > 3 * min.len());
    }
}
