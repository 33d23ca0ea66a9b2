//! EXP-F11 — Figure 11: cross-ISA build-script line changes, coMtainer vs
//! traditional cross-compilation (`xbuild`).
//!
//! Paper headline: with coMtainer users change ~5 lines on average — about
//! 10 % of the ~47 lines cross-compilation demands. Only applications
//! without ISA-specific *source* can cross (script-level flags are fixable;
//! inline assembly is not).

use comt_bench::paper::{fig11_rows, fig11_text};

fn main() {
    print!("{}", fig11_text(&fig11_rows()));
}
