//! Run every experiment of the evaluation in sequence (Tables 1–3,
//! Figures 3, 9, 10, 11). Figures 9–11 and Table 3 are printed from
//! `comt_bench::paper`'s rows, Figures 9 and 10 from one run of every
//! scheme; the rest run as their own binaries. Each experiment is also
//! available as its own binary for targeted runs.

use comt_bench::paper::{
    fig10_text, fig11_rows, fig11_text, fig9_text, scheme_times, table3_rows, table3_text, SYSTEMS,
};
use std::process::Command;

fn section(name: &str) {
    println!("\n######## {name} ########\n");
}

fn run_bin(bin: &str) {
    let exe_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    section(bin);
    let status = Command::new(exe_dir.join(bin))
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(status.success(), "{bin} failed");
}

fn main() {
    for bin in ["table1", "table2", "fig3"] {
        run_bin(bin);
    }
    let systems = SYSTEMS.map(scheme_times);
    section("fig9");
    systems.iter().for_each(|s| print!("{}", fig9_text(s)));
    section("fig10");
    systems.iter().for_each(|s| print!("{}", fig10_text(s)));
    section("fig11");
    print!("{}", fig11_text(&fig11_rows()));
    run_bin("scaling");
    section("table3");
    print!("{}", table3_text(&table3_rows(false)));
    println!("\nAll experiments completed.");
}
