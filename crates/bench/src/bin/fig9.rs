//! EXP-F9 — Figure 9: execution time of all 18 workloads under the four
//! schemes (original / native / adapted / optimized) on both systems,
//! 16 nodes.
//!
//! Paper headline numbers this reproduces in shape:
//! * native improves on original by 96.3 % (x86-64) and 66.5 % (AArch64)
//!   on average;
//! * adapted ≈ native (22.0 s vs 21.35 s on x86-64; 69.7 s vs 67.0 s on
//!   AArch64 average execution time);
//! * LULESH improves 231 % on AArch64 but only ~15.6 % on x86-64;
//! * LAMMPS improves up to 253 % and OpenMX up to 99.7 % on x86-64;
//! * HPCCG is the only workload where native/adapted degrade.

use comt_bench::paper::{fig9_text, scheme_times, SYSTEMS};

fn main() {
    for isa in SYSTEMS {
        print!("{}", fig9_text(&scheme_times(isa)));
    }
}
