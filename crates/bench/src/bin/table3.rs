//! EXP-T3 — Table 3: size of original images and cache layers, at full
//! payload scale (MiB).
//!
//! Paper headlines: x86-64 images 170–441 MiB, AArch64 images 95–359 MiB
//! ("x86-64 has a more bloated software stack"); cache layers 0.59–23.99
//! MiB — at most 7.1 % (x86-64) / 11.3 % (AArch64) of the image.
//!
//! `--raw-cache` additionally reports the cache-minification ablation
//! (DESIGN.md §4.2): what the cache layer would weigh without the
//! obfuscating minifier.

use comt_bench::paper::{raw_cache_text, table3_rows, table3_text};

fn main() {
    let raw_ablation = std::env::args().any(|a| a == "--raw-cache");
    let rows = table3_rows(raw_ablation);
    print!("{}", table3_text(&rows));
    if raw_ablation {
        print!("{}", raw_cache_text(&rows));
    }
}
