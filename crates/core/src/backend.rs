//! The back-end: system-side rebuild (§4.2, right half of Figure 5).
//!
//! The rebuild container starts from the `Sysenv` image, materializes the
//! cached sources at their recorded paths, and replays the recorded build
//! process with every toolchain command transformed by the configured
//! adapter pipeline. Package installations replay against the *system's*
//! repositories, so build dependencies resolve to vendor-optimized
//! versions automatically.
//!
//! The replay machinery lives in [`crate::engine`]: a staged pipeline
//! (materialize → adapt → replay → collect) with a ready-queue scheduler
//! for independent compile steps and a content-addressed artifact cache
//! for warm rebuilds. This module keeps the option set and the artifact
//! map entry point; `+coMre` registration is
//! [`crate::workflow::comtainer_rebuild_with_report`].

use crate::cache::CacheContents;
use crate::engine::{ArtifactCache, RebuildEngine};
use crate::workflow::SystemSide;
use crate::ComtError;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Rebuild options.
#[derive(Default)]
pub struct RebuildOptions {
    /// Execute independent compile steps on parallel threads (ready-queue
    /// scheduled over the recorded input/output dependency DAG).
    pub parallel: bool,
    /// Extra files materialized into the rebuild container before the
    /// replay (e.g. PGO profiles referenced by `-fprofile-use=`).
    pub extra_files: BTreeMap<String, Bytes>,
    /// Run a BOLT-style post-link layout optimizer over the rebuilt
    /// binaries — one of the "binary-level layout optimization" passes the
    /// paper lists as further head-room (§3). Requires a profile, so it is
    /// only effective combined with the PGO feedback loop.
    pub post_link_layout: bool,
    /// Shared content-addressed cache of adapted compile-step outputs.
    /// When set, compile steps whose key (adapted command ⊕ adapter-chain
    /// fingerprint ⊕ toolchain identity ⊕ input contents) is already
    /// cached skip execution; a fully warm rebuild performs zero compile
    /// executions and yields a byte-identical rebuild layer.
    pub artifact_cache: Option<Arc<ArtifactCache>>,
    /// Rebuild for this microarchitecture instead of the system side's
    /// native one: every compile step's `-march` is rewritten to the
    /// target before adaptation fingerprinting, so cache keys split per
    /// target while target-invariant inputs (sources, IR) stay shared.
    /// `None` keeps the adapter pipeline's own march selection.
    pub target: Option<String>,
}

/// The rebuild computation without the OCI bookkeeping: returns the
/// rebuilt artifact map (image path → content), for a caller that edits
/// the decoded cache before it rebuilds (`examples/cross_isa.rs` ports the
/// build script this way).
pub fn rebuild_artifacts(
    cache: &CacheContents,
    side: &SystemSide,
    opts: &RebuildOptions,
) -> Result<BTreeMap<String, Bytes>, ComtError> {
    RebuildEngine::new(side, opts).run(cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{BuildGraph, FileOrigin, ImageModel, ProcessModels};
    use comt_buildsys::{BuildTrace, RawCommand};
    use comt_pkg::catalog;

    /// A hand-built cache: two compile steps + a link, sources embedded.
    fn fixture_cache() -> CacheContents {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let trace = BuildTrace {
            commands: vec![
                RawCommand {
                    argv: argv("apt-get install -y libopenblas0"),
                    cwd: "/".into(),
                    env: vec![],
                    inputs: vec![],
                    outputs: vec![],
                },
                RawCommand {
                    argv: argv("gcc -O2 -c main.c -o main.o"),
                    cwd: "/src".into(),
                    env: vec![],
                    inputs: vec!["/src/main.c".into()],
                    outputs: vec!["/src/main.o".into()],
                },
                RawCommand {
                    argv: argv("gcc -O2 -c util.c -o util.o"),
                    cwd: "/src".into(),
                    env: vec![],
                    inputs: vec!["/src/util.c".into()],
                    outputs: vec!["/src/util.o".into()],
                },
                RawCommand {
                    argv: argv("gcc main.o util.o -lopenblas -lm -o app"),
                    cwd: "/src".into(),
                    env: vec![],
                    inputs: vec!["/src/main.o".into(), "/src/util.o".into()],
                    outputs: vec!["/src/app".into()],
                },
            ],
        };
        let mut sources = BTreeMap::new();
        sources.insert(
            "/src/main.c".to_string(),
            Bytes::from(
                "#pragma comt provides(main)\n#pragma comt requires(util)\n#pragma comt extern(openblas:dgemm, m:sqrt)\n#pragma comt kernel(flops=1e12, blas_frac=0.5)\n",
            ),
        );
        sources.insert(
            "/src/util.c".to_string(),
            Bytes::from("#pragma comt provides(util)\n"),
        );
        let mut image = ImageModel::default();
        image
            .files
            .insert("/app/run".into(), FileOrigin::Build("/src/app".into()));
        image.runtime_deps = vec![("libopenblas0".into(), "0.3.26+ds-1".into())];
        CacheContents {
            models: ProcessModels {
                image,
                graph: BuildGraph::new(),
                isa: "x86_64".into(),
                cache_mode: Default::default(),
                targets: vec![],
            },
            trace,
            sources,
            digests: Default::default(),
        }
    }

    fn side() -> SystemSide {
        SystemSide::native("x86_64", catalog::MINI_SCALE).unwrap()
    }

    /// One rebuild, with its run's artifact-cache `(hits, misses)`.
    fn probed(
        cache: &CacheContents,
        side: &SystemSide,
        opts: &RebuildOptions,
    ) -> (BTreeMap<String, Bytes>, (u64, u64)) {
        let engine = RebuildEngine::new(side, opts);
        let artifacts = engine.run(cache).unwrap();
        let report = engine.report();
        let probes = (report.counter("cache.hit"), report.counter("cache.miss"));
        (artifacts, probes)
    }

    #[test]
    fn rebuild_replays_with_vendor_toolchain() {
        let cache = fixture_cache();
        let side = side();
        let artifacts =
            rebuild_artifacts(&cache, &side, &RebuildOptions::default()).unwrap();
        let bin = comt_toolchain::artifact::read_linked(&artifacts["/app/run"]).unwrap();
        // Adapted: vendor toolchain, native march, O3.
        assert_eq!(bin.opt.toolchain, "vendor-x86");
        assert_eq!(bin.target.as_ref().unwrap().march, "icelake-server");
        assert_eq!(bin.opt.vector_width, 8);
        assert!(bin.opt.codegen_quality > 1.2);
        assert!(bin.needed_libs.contains(&"openblas".to_string()));
        // Kernel metadata survived the source cache.
        assert_eq!(bin.kernel.get("flops"), 1e12);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let cache = fixture_cache();
        let side = side();
        let serial = rebuild_artifacts(&cache, &side, &RebuildOptions::default()).unwrap();
        let parallel = rebuild_artifacts(
            &cache,
            &side,
            &RebuildOptions {
                parallel: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial, parallel);
        // The ready-queue scheduler with a live artifact cache must also
        // agree — both on a cold cache and a warm one.
        let shared = ArtifactCache::new();
        let cached_opts = RebuildOptions {
            parallel: true,
            artifact_cache: Some(Arc::clone(&shared)),
            ..Default::default()
        };
        let cold = rebuild_artifacts(&cache, &side, &cached_opts).unwrap();
        let (warm, (hits, _)) = probed(&cache, &side, &cached_opts);
        assert_eq!(serial, cold);
        assert_eq!(serial, warm);
        assert!(hits > 0);
    }

    #[test]
    fn warm_rebuild_executes_zero_compiles() {
        let cache = fixture_cache();
        let side = side();
        let shared = ArtifactCache::new();
        let opts = RebuildOptions {
            artifact_cache: Some(Arc::clone(&shared)),
            ..Default::default()
        };
        let engine = RebuildEngine::new(&side, &opts);
        let cold = engine.run(&cache).unwrap();
        let cold_report = engine.report();
        // Cold run: both compile steps miss and execute.
        assert_eq!(cold_report.counter("cache.hit"), 0);
        assert_eq!(cold_report.counter("cache.miss"), 2);
        assert_eq!(cold_report.counter("exec.compile"), 2);

        let engine = RebuildEngine::new(&side, &opts);
        let warm = engine.run(&cache).unwrap();
        let warm_report = engine.report();
        // Warm run: every compile step is a cache hit; zero executions.
        assert_eq!(warm_report.counter("cache.hit"), 2);
        assert_eq!(warm_report.counter("cache.miss"), 0);
        assert_eq!(warm_report.counter("exec.compile"), 0);
        // And the artifacts are byte-identical (⇒ identical layer digest).
        assert_eq!(cold, warm);
    }

    #[test]
    fn adapter_fingerprint_invalidates_cache() {
        let cache = fixture_cache();
        let shared = ArtifactCache::new();
        let opts = RebuildOptions {
            artifact_cache: Some(Arc::clone(&shared)),
            ..Default::default()
        };

        let mut whole = side();
        whole
            .adapters
            .push(Box::new(crate::LtoAdapter::whole_graph()));
        let (_, (_, cold_misses)) = probed(&cache, &whole, &opts);
        assert!(cold_misses > 0);

        // Same argv-visible configuration, different adapter scope: the
        // chain fingerprint must change the cache key, so nothing hits.
        let mut scoped = side();
        scoped.adapters.push(Box::new(crate::LtoAdapter {
            scope: crate::adapters::LtoScope::Binaries(vec!["app".into()]),
        }));
        let (_, (hits, misses)) = probed(&cache, &scoped, &opts);
        assert_eq!(hits, 0, "scoped run must not hit");
        assert!(misses > 0);

        // Re-running the first configuration still hits.
        let (_, (hits, _)) = probed(&cache, &whole, &opts);
        assert!(hits > 0);
    }

    #[test]
    fn engine_report_covers_stages_and_steps() {
        let cache = fixture_cache();
        let side = side();
        let opts = RebuildOptions {
            parallel: true,
            ..Default::default()
        };
        let engine = RebuildEngine::new(&side, &opts);
        engine.run(&cache).unwrap();
        let report = engine.report();
        assert_eq!(report.counter("steps.total"), 4);
        assert_eq!(report.counter("steps.compile"), 2);
        assert_eq!(report.counter("sched.segments"), 1);
        assert_eq!(report.counter("sched.critical_path.max"), 1);
        for stage in ["stage.materialize", "stage.adapt", "stage.replay", "stage.collect"] {
            assert!(report.span(stage).count > 0, "missing span {stage}");
        }
        let rendered = report.render();
        assert!(rendered.contains("steps.total"));
    }

    #[test]
    fn lto_adapter_takes_effect() {
        let cache = fixture_cache();
        let mut side = side();
        side.adapters.push(Box::new(crate::LtoAdapter::whole_graph()));
        let artifacts = rebuild_artifacts(&cache, &side, &RebuildOptions::default()).unwrap();
        let bin = comt_toolchain::artifact::read_linked(&artifacts["/app/run"]).unwrap();
        assert!(bin.lto_applied);
    }

    #[test]
    fn pgo_generate_then_use_via_extra_files() {
        let cache = fixture_cache();
        let mut gen_side = side();
        gen_side.adapters.push(Box::new(crate::PgoAdapter::generate()));
        let instrumented =
            rebuild_artifacts(&cache, &gen_side, &RebuildOptions::default()).unwrap();
        let bin = comt_toolchain::artifact::read_linked(&instrumented["/app/run"]).unwrap();
        assert_eq!(bin.opt.pgo, comt_toolchain::artifact::PgoMode::Instrumented);

        let mut use_side = side();
        use_side
            .adapters
            .push(Box::new(crate::PgoAdapter::use_profile("/prof/app.prof")));
        // Without the profile the rebuild must fail…
        assert!(rebuild_artifacts(&cache, &use_side, &RebuildOptions::default()).is_err());
        // …and succeed once it is provided.
        let mut extra = BTreeMap::new();
        extra.insert(
            "/prof/app.prof".to_string(),
            Bytes::from_static(b"comt-profile 1\nhot main 99\n"),
        );
        let optimized = rebuild_artifacts(
            &cache,
            &use_side,
            &RebuildOptions {
                extra_files: extra,
                ..Default::default()
            },
        )
        .unwrap();
        let bin2 = comt_toolchain::artifact::read_linked(&optimized["/app/run"]).unwrap();
        assert_eq!(bin2.opt.pgo, comt_toolchain::artifact::PgoMode::Optimized);
    }

    #[test]
    fn post_link_layout_marks_binaries() {
        let cache = fixture_cache();
        let mut side = side();
        side.adapters.push(Box::new(crate::LtoAdapter::whole_graph()));
        let plain = rebuild_artifacts(&cache, &side, &RebuildOptions::default()).unwrap();
        let bolted = rebuild_artifacts(
            &cache,
            &side,
            &RebuildOptions {
                post_link_layout: true,
                ..Default::default()
            },
        )
        .unwrap();
        let b0 = comt_toolchain::artifact::read_linked(&plain["/app/run"]).unwrap();
        let b1 = comt_toolchain::artifact::read_linked(&bolted["/app/run"]).unwrap();
        assert!(!b0.layout_optimized);
        assert!(b1.layout_optimized);
        // Everything else identical.
        assert_eq!(b0.defined, b1.defined);
        assert_eq!(b0.opt, b1.opt);
    }

    #[test]
    fn missing_artifact_is_an_error() {
        let mut cache = fixture_cache();
        cache
            .models
            .image
            .files
            .insert("/app/other".into(), FileOrigin::Build("/src/ghost".into()));
        let err = rebuild_artifacts(&cache, &side(), &RebuildOptions::default()).unwrap_err();
        assert!(matches!(err, ComtError::Build(_)));
        // The new error carries its phase and artifact context.
        let msg = err.to_string();
        assert!(msg.contains("collect"), "{msg}");
        assert!(msg.contains("/app/other"), "{msg}");
    }
}
