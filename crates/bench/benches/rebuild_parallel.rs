//! Ablation bench: parallel vs serial vs cache-warm system-side rebuild.
//!
//! The paper motivates moving expensive compilation (LTO in particular) to
//! the system side because "on HPC clusters, computation resources are
//! often abundant" (§4.4). The engine exploits that with a ready-queue
//! scheduler across independent compile steps; this bench measures the win
//! over a serial replay for a 64-unit application, plus the incremental
//! win of a warm content-addressed artifact cache (zero compile
//! executions on repeat rebuilds).

use bytes::Bytes;
use comt_buildsys::{BuildTrace, RawCommand};
use comt_pkg::catalog;
use comtainer::models::{BuildGraph, FileOrigin, ImageModel, ProcessModels};
use comtainer::{ArtifactCache, CacheContents, RebuildOptions, SystemSide};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::sync::Arc;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// A synthetic cache: N independent compiles + one link.
fn cache(units: usize) -> CacheContents {
    let mut commands = Vec::new();
    let mut sources = BTreeMap::new();
    let mut objs = String::new();
    for i in 0..units {
        commands.push(RawCommand {
            argv: argv(&format!("gcc -O2 -c u{i}.c -o u{i}.o")),
            cwd: "/src".into(),
            env: vec![],
            inputs: vec![format!("/src/u{i}.c")],
            outputs: vec![format!("/src/u{i}.o")],
        });
        let provides = if i == 0 {
            "main".to_string()
        } else {
            format!("fn_{i}")
        };
        // Substantial translation units: per-unit compile cost is what the
        // parallel schedule amortizes (LTO-sized workloads in the paper).
        let mut src = format!("#pragma comt provides({provides})\n");
        for l in 0..20_000 {
            src.push_str(&format!("x[{l}] += a{}*b{};\n", l % 97, l % 89));
        }
        sources.insert(format!("/src/u{i}.c"), Bytes::from(src));
        objs.push_str(&format!("u{i}.o "));
    }
    commands.push(RawCommand {
        argv: argv(&format!("gcc {objs} -o app")),
        cwd: "/src".into(),
        env: vec![],
        inputs: (0..units).map(|i| format!("/src/u{i}.o")).collect(),
        outputs: vec!["/src/app".into()],
    });

    let mut image = ImageModel::default();
    image
        .files
        .insert("/app/app".into(), FileOrigin::Build("/src/app".into()));
    CacheContents {
        models: ProcessModels {
            image,
            graph: BuildGraph::new(),
            isa: "x86_64".into(),
            cache_mode: Default::default(),
            targets: vec![],
        },
        trace: BuildTrace { commands },
        sources,
        digests: Default::default(),
    }
}

fn bench_rebuild(c: &mut Criterion) {
    let cache = cache(64);
    let side = SystemSide::native("x86_64", catalog::MINI_SCALE).expect("side");
    let mut g = c.benchmark_group("rebuild");
    g.sample_size(10);
    g.bench_function("serial_64_units", |b| {
        b.iter(|| {
            comtainer::rebuild_artifacts(&cache, &side, &RebuildOptions::default()).unwrap()
        });
    });
    g.bench_function("parallel_64_units", |b| {
        b.iter(|| {
            comtainer::rebuild_artifacts(
                &cache,
                &side,
                &RebuildOptions {
                    parallel: true,
                    ..Default::default()
                },
            )
            .unwrap()
        });
    });
    // Cold vs warm ablation: one shared artifact cache, pre-warmed by a
    // single rebuild. Every measured iteration then hits the cache for all
    // 64 compile steps, isolating the non-compile replay cost.
    let warm = ArtifactCache::new();
    let warm_opts = RebuildOptions {
        artifact_cache: Some(Arc::clone(&warm)),
        ..Default::default()
    };
    comtainer::rebuild_artifacts(&cache, &side, &warm_opts).expect("warm-up rebuild");
    g.bench_function("warm_cache_64_units", |b| {
        b.iter(|| comtainer::rebuild_artifacts(&cache, &side, &warm_opts).unwrap());
    });
    g.finish();
    println!(
        "artifact cache after warm runs: {} entries, {} hits, {} misses",
        warm.len(),
        warm.hits(),
        warm.misses()
    );
}

criterion_group!(benches, bench_rebuild);
criterion_main!(benches);
