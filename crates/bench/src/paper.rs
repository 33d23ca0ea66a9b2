//! The paper's evaluation numbers as rows: Figures 9 and 10 (every
//! workload under every scheme), Figure 11 (cross-ISA script edits) and
//! Table 3 (image and cache-layer sizes). Each figure is a function that
//! computes its rows and one that renders them as the text its binary
//! prints; `tests/paper_figures.rs` pins that text against checked-in
//! goldens and checks the rows against the paper's values.

use crate::harness::{Lab, Scheme};
use crate::report::{improvement_pct, mean, secs, table};
use comt_buildsys::{Builder, Containerfile, Executor};
use comt_oci::layout::OciDir;
use comt_oci::BlobStore;
use comt_pkg::catalog;
use comt_toolchain::Toolchain;
use comt_workloads::{apps, containerfile, source_tree, workloads};
use comtainer::crossisa::{port_containerfile, xbuild_containerfile};
use comtainer::{comtainer_build, StockImages};
use std::collections::BTreeMap;
use std::fmt::Write;

/// The two systems of the evaluation, in the paper's order.
pub const SYSTEMS: [&str; 2] = ["x86_64", "aarch64"];

/// Nodes every Figure 9 / 10 run uses.
const NODES: u32 = 16;

const MIB: f64 = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Figures 9 and 10
// ---------------------------------------------------------------------------

/// One workload's execution time, in seconds, under each scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeTimes {
    pub workload: String,
    pub original: f64,
    pub native: f64,
    pub adapted: f64,
    pub optimized: f64,
}

impl SchemeTimes {
    pub fn time(&self, scheme: Scheme) -> f64 {
        match scheme {
            Scheme::Original => self.original,
            Scheme::Native => self.native,
            Scheme::Adapted => self.adapted,
            Scheme::Optimized => self.optimized,
        }
    }

    /// Figure 10's "lto+pgo effect": optimized over adapted, in percent.
    pub fn lto_pgo_pct(&self) -> f64 {
        improvement_pct(self.adapted, self.optimized)
    }
}

/// Every workload of Table 2 under every scheme on one system: the rows
/// of Figure 9, and (relative to native) of Figure 10.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemTimes {
    pub isa: &'static str,
    pub rows: Vec<SchemeTimes>,
}

impl SystemTimes {
    /// Mean time of one scheme over every workload.
    pub fn mean(&self, scheme: Scheme) -> f64 {
        let times: Vec<f64> = self.rows.iter().map(|r| r.time(scheme)).collect();
        mean(&times)
    }

    /// Workloads by Figure 10's lto+pgo effect, worst first (ties keep
    /// workload order).
    pub fn by_lto_pgo(&self) -> Vec<(&str, f64)> {
        let mut effects: Vec<(&str, f64)> = self
            .rows
            .iter()
            .map(|r| (r.workload.as_str(), r.lto_pgo_pct()))
            .collect();
        effects.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        effects
    }

    fn is_x86(&self) -> bool {
        self.isa == "x86_64"
    }

    fn panel(&self) -> &'static str {
        if self.is_x86() {
            "a"
        } else {
            "b"
        }
    }
}

/// Build every application once on `isa` and run every workload under
/// the four schemes.
pub fn scheme_times(isa: &'static str) -> SystemTimes {
    let mut lab = Lab::new(isa, catalog::MINI_SCALE);
    let mut arts = BTreeMap::new();
    let rows = workloads()
        .into_iter()
        .map(|w| {
            let art = arts.entry(w.app).or_insert_with(|| lab.prepare_app(w.app));
            let mut run = |scheme| lab.run(art, &w, scheme, NODES);
            SchemeTimes {
                workload: w.label(),
                original: run(Scheme::Original),
                native: run(Scheme::Native),
                adapted: run(Scheme::Adapted),
                optimized: run(Scheme::Optimized),
            }
        })
        .collect();
    SystemTimes { isa, rows }
}

/// Figure 9 for one system: the time table and its averages against the
/// paper's.
pub fn fig9_text(sys: &SystemTimes) -> String {
    let x86 = sys.is_x86();
    let mut out = format!(
        "== Figure 9{}: execution time on the {} system (16 nodes) ==\n\n",
        sys.panel(),
        sys.isa
    );
    let rows: Vec<Vec<String>> = sys
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.workload.clone()];
            row.extend(Scheme::ALL.iter().map(|&s| secs(r.time(s))));
            row
        })
        .collect();
    let headers = ["workload", "original", "native", "adapted", "optimized"];
    out += &table(&headers, &rows);
    let [orig, native, adapted, optimized] = Scheme::ALL.map(|s| sys.mean(s));
    let paper = |on_x86: &'static str, on_arm: &'static str| if x86 { on_x86 } else { on_arm };
    let _ = writeln!(
        out,
        "\naverages: original {orig:.2}s  native {native:.2}s  adapted {adapted:.2}s  optimized {optimized:.2}s"
    );
    let _ = writeln!(
        out,
        "native-vs-original improvement: {:.1}% (paper: {}%)",
        improvement_pct(orig, native),
        paper("96.3", "66.5")
    );
    let _ = writeln!(
        out,
        "adapted avg {adapted:.2}s vs native avg {native:.2}s (paper: {} vs {})",
        paper("22.0", "69.7"),
        paper("21.35", "67.0")
    );
    let _ = writeln!(
        out,
        "optimized-vs-adapted: {:.1}%  optimized-vs-native: {:.1}% (paper: {}% / {}%)\n",
        improvement_pct(adapted, optimized),
        improvement_pct(native, optimized),
        paper("8", "5.6"),
        paper("3.4", "3"),
    );
    out
}

/// Figure 10 for one system: adapted and optimized relative to native,
/// and the strongest and weakest LTO+PGO response against the paper's.
pub fn fig10_text(sys: &SystemTimes) -> String {
    let x86 = sys.is_x86();
    let mut out = format!(
        "== Figure 10{}: relative execution time vs native on {} ==\n\n",
        sys.panel(),
        sys.isa
    );
    let rows: Vec<Vec<String>> = sys
        .rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                format!("{:.3}", r.adapted / r.native),
                format!("{:.3}", r.optimized / r.native),
                format!("{:+.1}%", r.lto_pgo_pct()),
            ]
        })
        .collect();
    let headers = [
        "workload",
        "adapted/native",
        "optimized/native",
        "lto+pgo effect",
    ];
    out += &table(&headers, &rows);
    let relative = |scheme| {
        let r: Vec<f64> = sys.rows.iter().map(|r| r.time(scheme) / r.native).collect();
        mean(&r)
    };
    let _ = writeln!(
        out,
        "\nmean relative time: adapted {:.3}, optimized {:.3}",
        relative(Scheme::Adapted),
        relative(Scheme::Optimized)
    );
    let effects = sys.by_lto_pgo();
    let paper = |on_x86: &'static str, on_arm: &'static str| if x86 { on_x86 } else { on_arm };
    if let (Some(worst), Some(best)) = (effects.first(), effects.last()) {
        let _ = writeln!(
            out,
            "best lto+pgo: {} {:+.1}% (paper: {}), worst: {} {:+.1}% (paper: {})\n",
            best.0,
            best.1,
            paper("openmx.pt13 +30.4%", "lammps.lj +17.7%"),
            worst.0,
            worst.1,
            paper("lammps.chain -12.1%", "hpcg -14.9%"),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------------

/// Script lines added and deleted to move one app's build to AArch64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossOutcome {
    /// The app has ISA-specific source units: no script edit crosses it.
    Blocked { isa_specific_units: usize },
    /// coMtainer's port and a traditional cross-build, as (added, deleted).
    Crosses {
        comt: (usize, usize),
        xbuild: (usize, usize),
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossRow {
    pub app: &'static str,
    pub outcome: CrossOutcome,
}

/// Edit counts of every app's x86-64 → AArch64 build script.
pub fn fig11_rows() -> Vec<CrossRow> {
    apps()
        .iter()
        .map(|app| {
            let outcome = if app.isa_specific_units > 0 {
                CrossOutcome::Blocked {
                    isa_specific_units: app.isa_specific_units,
                }
            } else {
                let cf = containerfile(app.name, "x86_64").expect("containerfile");
                let ported = port_containerfile(&cf, "x86_64", "aarch64");
                let xb = xbuild_containerfile(&cf, "aarch64");
                CrossOutcome::Crosses {
                    comt: Containerfile::line_diff(&cf, &ported),
                    xbuild: Containerfile::line_diff(&cf, &xb),
                }
            };
            CrossRow {
                app: app.name,
                outcome,
            }
        })
        .collect()
}

/// Mean edited lines (added + deleted) over the apps that cross:
/// `(coMtainer, xbuild, crossable apps)`.
pub fn fig11_averages(rows: &[CrossRow]) -> (f64, f64, usize) {
    let (mut comt, mut xbuild, mut crossed) = (0, 0, 0usize);
    for r in rows {
        if let CrossOutcome::Crosses { comt: c, xbuild: x } = r.outcome {
            comt += c.0 + c.1;
            xbuild += x.0 + x.1;
            crossed += 1;
        }
    }
    (
        comt as f64 / crossed as f64,
        xbuild as f64 / crossed as f64,
        crossed,
    )
}

pub fn fig11_text(rows: &[CrossRow]) -> String {
    let mut out = "== Figure 11: cross-ISA line changes (x86-64 → AArch64) ==\n\n".to_string();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| match r.outcome {
            CrossOutcome::Blocked { isa_specific_units } => vec![
                r.app.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("blocked: {isa_specific_units} ISA-specific unit(s)"),
            ],
            CrossOutcome::Crosses { comt, xbuild } => vec![
                r.app.to_string(),
                format!("+{}", comt.0),
                format!("-{}", comt.1),
                format!("+{}", xbuild.0),
                format!("-{}", xbuild.1),
                "crosses with script edits".into(),
            ],
        })
        .collect();
    let headers = [
        "app",
        "coMt add",
        "coMt del",
        "xbuild add",
        "xbuild del",
        "status",
    ];
    out += &table(&headers, &cells);
    let (comt_avg, xbuild_avg, crossed) = fig11_averages(rows);
    let _ = writeln!(
        out,
        "\naverages over the {crossed} crossable apps: coMtainer {comt_avg:.1} lines, xbuild {xbuild_avg:.1} lines"
    );
    let _ = writeln!(
        out,
        "coMtainer effort = {:.0}% of cross-building (paper: ~5 vs ~47 lines, 10%)",
        comt_avg / xbuild_avg * 100.0
    );
    out
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// The paper's Table 3, MiB: (app, x86-64 image, AArch64 image, cache layer).
pub const TABLE3_PAPER: &[(&str, f64, f64, f64)] = &[
    ("comd", 170.36, 94.87, 0.75),
    ("hpccg", 170.40, 94.77, 0.59),
    ("hpcg", 170.04, 95.37, 0.80),
    ("hpl", 170.76, 94.86, 1.32),
    ("lulesh", 170.29, 96.12, 0.66),
    ("miniaero", 170.12, 94.63, 0.62),
    ("miniamr", 170.10, 94.62, 0.80),
    ("lammps", 203.30, 127.23, 14.42),
    ("openmx", 440.97, 359.14, 23.99),
];

/// One app's sizes at full payload scale, MiB.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeRow {
    pub app: &'static str,
    pub x86: f64,
    pub arm: f64,
    /// The x86-64 cache layer.
    pub cache: f64,
    /// The same leaf sources without minification; 0 unless asked for.
    pub raw_cache: f64,
}

/// Build every Table 3 app on both systems at full payload scale; with
/// `raw_cache`, also weigh the x86-64 cache layer's sources unminified.
pub fn table3_rows(raw_cache: bool) -> Vec<SizeRow> {
    let scale = 1.0;
    let mut rows: Vec<SizeRow> = TABLE3_PAPER
        .iter()
        .map(|&(app, ..)| SizeRow {
            app,
            x86: 0.0,
            arm: 0.0,
            cache: 0.0,
            raw_cache: 0.0,
        })
        .collect();
    for isa in SYSTEMS {
        let x86 = isa == "x86_64";
        let mut store = BlobStore::new();
        let stock = StockImages::build(&mut store, isa, scale).expect("stock");
        let base_fs = comt_oci::flatten(&store, &stock.base).expect("base fs");
        let arch_tag = if x86 { "x86-64" } else { "aarch64" };
        for row in &mut rows {
            let app = row.app;
            let context = source_tree(app, isa, scale).expect("tree");
            let cf = containerfile(app, isa).expect("cf");
            let executor = Executor::new(isa, vec![Toolchain::distro_gcc()])
                .with_repo(catalog::generic_repo_scaled(isa, scale));
            let mut builder = Builder::new(&mut store, executor);
            builder.tag(&format!("comt:{arch_tag}.env"), &stock.env);
            builder.tag(&format!("comt:{arch_tag}.base"), &stock.base);
            let result = builder.build(app, &cf, &context).expect("build");
            let dist = &result.images["dist"];
            let image_mib = dist.layers_size() as f64 / MIB;
            if !x86 {
                row.arm = image_mib;
                continue;
            }
            row.x86 = image_mib;

            let mut oci = OciDir::new();
            let dist_ref = format!("{app}.dist");
            oci.export(&dist_ref, dist.manifest_digest, &store)
                .expect("export dist");
            let build = &result.containers["build"];
            let ext = comtainer_build(
                &mut oci,
                &dist_ref,
                build,
                &result.traces["build"],
                &base_fs,
            )
            .expect("coMtainer-build");
            row.cache =
                comtainer::cache::cache_layer_size(&oci, &ext).expect("cache size") as f64 / MIB;
            if raw_cache {
                let cache = comtainer::load_cache(&oci, &ext).expect("cache");
                row.raw_cache = cache
                    .sources
                    .keys()
                    .filter_map(|p| build.fs.read(p).ok())
                    .map(|b| b.len() as f64)
                    .sum::<f64>()
                    / MIB;
            }
        }
    }
    rows
}

/// The largest cache layer as a share of its image, percent:
/// `(of the x86-64 image, of the AArch64 image)`.
pub fn table3_max_cache_pct(rows: &[SizeRow]) -> (f64, f64) {
    rows.iter().fold((0.0f64, 0.0f64), |(x, a), r| {
        (
            x.max(r.cache / r.x86 * 100.0),
            a.max(r.cache / r.arm * 100.0),
        )
    })
}

pub fn table3_text(rows: &[SizeRow]) -> String {
    let mut out =
        "== Table 3: size (in MiB) of original images and cache layers ==\n\n".to_string();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let paper = TABLE3_PAPER
                .iter()
                .find(|(n, ..)| *n == r.app)
                .map_or((0.0, 0.0, 0.0), |&(_, x, a, c)| (x, a, c));
            vec![
                r.app.to_string(),
                format!("{:.2}", r.x86),
                format!("({:.2})", paper.0),
                format!("{:.2}", r.arm),
                format!("({:.2})", paper.1),
                format!("{:.2}", r.cache),
                format!("({:.2})", paper.2),
            ]
        })
        .collect();
    let headers = [
        "app", "img x86", "(paper)", "img arm", "(paper)", "cache", "(paper)",
    ];
    out += &table(&headers, &cells);
    let (x86, arm) = table3_max_cache_pct(rows);
    let _ = writeln!(
        out,
        "\ncache layer at most {x86:.1}% of the x86-64 image (paper: 7.1%), {arm:.1}% of the AArch64 image (paper: 11.3%)"
    );
    out
}

/// The cache-minification ablation: minified against raw cache sources.
pub fn raw_cache_text(rows: &[SizeRow]) -> String {
    let mut out = "\n-- cache minification ablation (x86-64) --\n".to_string();
    for r in rows.iter().filter(|r| r.raw_cache > 0.0) {
        let _ = writeln!(
            out,
            "  {:9} minified {:7.2} MiB vs raw {:7.2} MiB ({:.0}% saved)",
            r.app,
            r.cache,
            r.raw_cache,
            (1.0 - r.cache / r.raw_cache) * 100.0
        );
    }
    out
}
