//! The paper's numbers, pinned where tier-1 runs them. For each of
//! Figures 9, 10, 11 and Table 3, one test compares the text its binary
//! prints with a checked-in golden (`tests/golden/*.txt`), and one checks
//! the rows against the paper: scheme ordering, and averages within the
//! tolerances written below. A change to any model coefficient the
//! figures depend on fails the golden; refreshing it is a reviewed diff:
//!
//! ```text
//! COMT_BLESS=1 cargo test -p comt-bench --test paper_figures
//! ```

use comt_bench::paper::{
    fig10_text, fig11_averages, fig11_rows, fig11_text, fig9_text, scheme_times,
    table3_max_cache_pct, table3_rows, table3_text, CrossOutcome, SchemeTimes, SizeRow,
    SystemTimes, SYSTEMS, TABLE3_PAPER,
};
use comt_bench::report::improvement_pct;
use comt_bench::Scheme;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// Figures 9 and 10 share one run of every scheme on both systems, and
/// Table 3 builds full-scale images: one heavy computation at a time.
fn heavy<T>(cell: &'static OnceLock<T>, compute: impl FnOnce() -> T) -> &'static T {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    cell.get_or_init(|| {
        let _g = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        compute()
    })
}

fn systems() -> &'static [SystemTimes; 2] {
    static RUNS: OnceLock<[SystemTimes; 2]> = OnceLock::new();
    heavy(&RUNS, || {
        std::thread::scope(|s| {
            SYSTEMS
                .map(|isa| s.spawn(move || scheme_times(isa)))
                .map(|h| h.join().expect("scheme run"))
        })
    })
}

fn sizes() -> &'static Vec<SizeRow> {
    static ROWS: OnceLock<Vec<SizeRow>> = OnceLock::new();
    heavy(&ROWS, || table3_rows(false))
}

/// `text` must equal `tests/golden/<name>`, or, under `COMT_BLESS`,
/// becomes it.
fn golden(name: &str, text: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("COMT_BLESS").is_some() {
        std::fs::write(&path, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some((i, (got, want))) = text
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!(
            "{name} line {}:\n  golden: {want}\n  now:    {got}\n{text}",
            i + 1
        );
    }
    assert_eq!(text, want, "{name}: line count differs");
}

/// `measured` within `tol` of `paper`, in the unit both are in.
fn near(what: &str, measured: f64, paper: f64, tol: f64) {
    assert!(
        (measured - paper).abs() <= tol,
        "{what}: measured {measured:.2}, paper {paper}, tolerance ±{tol}"
    );
}

fn row<'a>(sys: &'a SystemTimes, workload: &str) -> &'a SchemeTimes {
    sys.rows
        .iter()
        .find(|r| r.workload == workload)
        .unwrap_or_else(|| panic!("no workload {workload}"))
}

#[test]
fn fig9_matches_its_golden() {
    let text: String = systems().iter().map(fig9_text).collect();
    golden("fig9.txt", &text);
}

#[test]
fn fig10_matches_its_golden() {
    let text: String = systems().iter().map(fig10_text).collect();
    golden("fig10.txt", &text);
}

#[test]
fn fig11_matches_its_golden() {
    golden("fig11.txt", &fig11_text(&fig11_rows()));
}

#[test]
fn table3_matches_its_golden() {
    golden("table3.txt", &table3_text(sizes()));
}

/// Figure 9: native beats original by about the paper's average, adapted
/// tracks native, and the named anomalies fall where the paper has them.
#[test]
fn fig9_holds_the_papers_shape() {
    // (isa, native-vs-original %, adapted avg s, native avg s)
    let paper = [("x86_64", 96.3, 22.0, 21.35), ("aarch64", 66.5, 69.7, 67.0)];
    for (sys, (isa, improvement, adapted, native)) in systems().iter().zip(paper) {
        assert_eq!(sys.isa, isa);
        assert_eq!(sys.rows.len(), 18, "Table 2's 18 workloads");
        let [o, n, a, opt] = Scheme::ALL.map(|s| sys.mean(s));
        assert!(
            o > a && a > n && n > opt,
            "{isa}: scheme order {o} {a} {n} {opt}"
        );
        near(
            &format!("{isa} native-vs-original %"),
            improvement_pct(o, n),
            improvement,
            15.0,
        );
        // Averages within 5 % of the paper's seconds.
        near(&format!("{isa} adapted avg"), a, adapted, adapted * 0.05);
        near(&format!("{isa} native avg"), n, native, native * 0.05);
        for r in &sys.rows {
            let overhead = r.adapted / r.native;
            assert!(
                (1.0..=1.06).contains(&overhead),
                "{isa} {}: adapted/native {overhead:.3}",
                r.workload
            );
        }
        // HPCCG is the only workload the vendor stack makes slower.
        let degraded: Vec<&str> = sys
            .rows
            .iter()
            .filter(|r| r.native > r.original)
            .map(|r| r.workload.as_str())
            .collect();
        assert_eq!(degraded, ["hpccg"], "{isa}");
    }
    let [x86, arm] = systems();
    let lulesh = |sys| {
        let r = row(sys, "lulesh");
        improvement_pct(r.original, r.native)
    };
    near("lulesh on aarch64 %", lulesh(arm), 231.0, 30.0);
    near("lulesh on x86_64 %", lulesh(x86), 15.6, 10.0);
    let best = |prefix: &str| {
        x86.rows
            .iter()
            .filter(|r| r.workload.starts_with(prefix))
            .map(|r| improvement_pct(r.original, r.native))
            .fold(f64::MIN, f64::max)
    };
    near("best lammps on x86_64 %", best("lammps."), 253.0, 25.0);
    near("best openmx on x86_64 %", best("openmx."), 99.7, 20.0);
}

/// Figure 10: LTO+PGO beats adapted and native by about the paper's
/// margins, and the same four workloads are the extremes.
#[test]
fn fig10_holds_the_papers_shape() {
    // (isa, opt-vs-adapted %, opt-vs-native %, best, worst)
    let paper = [
        (
            "x86_64",
            8.0,
            3.4,
            ("openmx.pt13", 30.4),
            ("lammps.chain", -12.1),
        ),
        ("aarch64", 5.6, 3.0, ("lammps.lj", 17.7), ("hpcg", -14.9)),
    ];
    for (sys, (isa, vs_adapted, vs_native, best, worst)) in systems().iter().zip(paper) {
        let [_, n, a, opt] = Scheme::ALL.map(|s| sys.mean(s));
        near(
            &format!("{isa} optimized-vs-adapted %"),
            improvement_pct(a, opt),
            vs_adapted,
            3.0,
        );
        near(
            &format!("{isa} optimized-vs-native %"),
            improvement_pct(n, opt),
            vs_native,
            2.0,
        );
        let effects = sys.by_lto_pgo();
        let (lo, hi) = (effects[0], effects[effects.len() - 1]);
        assert_eq!((hi.0, lo.0), (best.0, worst.0), "{isa}: extremes");
        near(&format!("{isa} best lto+pgo %"), hi.1, best.1, 5.0);
        near(&format!("{isa} worst lto+pgo %"), lo.1, worst.1, 5.0);
    }
}

/// Figure 11: only apps without ISA-specific source cross, and coMtainer
/// needs about a tenth of a cross-build's script edits.
#[test]
fn fig11_holds_the_papers_shape() {
    let rows = fig11_rows();
    for r in &rows {
        let app = comt_workloads::app(r.app).expect("app");
        match r.outcome {
            CrossOutcome::Blocked { isa_specific_units } => {
                assert_eq!(isa_specific_units, app.isa_specific_units);
                assert!(isa_specific_units > 0);
            }
            CrossOutcome::Crosses { comt, xbuild } => {
                assert_eq!(app.isa_specific_units, 0, "{}", r.app);
                assert!(comt.0 + comt.1 < xbuild.0 + xbuild.1, "{}", r.app);
            }
        }
    }
    let (comt, xbuild, crossed) = fig11_averages(&rows);
    assert_eq!((crossed, rows.len()), (6, 11));
    near("coMtainer lines", comt, 5.0, 1.5);
    near("xbuild lines", xbuild, 47.0, 5.0);
    near("effort %", comt / xbuild * 100.0, 10.0, 3.0);
}

/// Table 3: every image and cache layer within 10 % of the paper's size,
/// x86-64 images heavier than AArch64 ones, and the cache layer a small
/// share of the image.
#[test]
fn table3_holds_the_papers_shape() {
    let rows = sizes();
    assert_eq!(rows.len(), TABLE3_PAPER.len());
    for (r, &(app, x86, arm, cache)) in rows.iter().zip(TABLE3_PAPER) {
        assert_eq!(r.app, app);
        near(&format!("{app} x86-64 image MiB"), r.x86, x86, x86 * 0.10);
        near(&format!("{app} AArch64 image MiB"), r.arm, arm, arm * 0.10);
        near(&format!("{app} cache MiB"), r.cache, cache, cache * 0.10);
        assert!(r.x86 > r.arm, "{app}: the x86-64 stack is the heavier one");
    }
    let (x86, arm) = table3_max_cache_pct(rows);
    near("largest cache share of an x86-64 image %", x86, 7.1, 1.0);
    near("largest cache share of an AArch64 image %", arm, 11.3, 1.5);
}
