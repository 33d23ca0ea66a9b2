//! The metric names: the contract later issues measure against.
//! `BENCHMARK.json` lists the same names, units, directions and bounds.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen. Per-layer metrics carry none.
    pub bound: f64,
    /// A function of the seed alone: two runs of the same code on the
    /// same seed must print the same value.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Printed by every workload with `--trace 0`.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", 0.25),
    e2e("iteration_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("peak_rss_mib", "MiB", 0.25),
];

/// Printed by every workload with `--trace 1`; 0 where the workload does
/// not exercise the layer.
pub const PER_LAYER: &[Def] = &[
    // What each user pays, by phase of the workload.
    layer("workflow_s", "s", Lower),
    layer("publish_s", "s", Lower),
    layer("adapt_s", "s", Lower),
    layer("push_mib_s", "MiB/s", Higher),
    layer("pull_mib_s", "MiB/s", Higher),
    layer("update_s", "s", Lower),
    layer("delta_pull_s", "s", Lower),
    exact("wire_ratio", "ratio", Lower),
    layer("rebuild_cold_s", "s", Lower),
    layer("rebuild_warm_s", "s", Lower),
    layer("retarget_s", "s", Lower),
    exact("cache_layer_share", "ratio", Lower),
    exact("fail_share", "ratio", Lower),
    // digest
    layer("digest.sha256_mib_s", "MiB/s", Higher),
    layer("oci.store_verify_s", "s", Lower),
    layer("dist.server_verify_s", "s", Lower),
    // flate and the layer codec
    layer("flate.gzip_mib_s", "MiB/s", Higher),
    layer("flate.gunzip_mib_s", "MiB/s", Higher),
    layer("oci.codec_encode_s", "s", Lower),
    layer("oci.codec_decode_s", "s", Lower),
    // tar
    layer("tar.write_mib_s", "MiB/s", Higher),
    layer("tar.read_mib_s", "MiB/s", Higher),
    // chunk
    layer("chunk.map_build_mib_s", "MiB/s", Higher),
    layer("chunk.index_build_s", "s", Lower),
    layer("chunk.plan_s", "s", Lower),
    layer("chunk.hit_ratio", "ratio", Higher),
    // oci: image commit, layout and disk store
    layer("oci.commit_s", "s", Lower),
    layer("oci.layout_save_mib_s", "MiB/s", Higher),
    layer("oci.layout_load_mib_s", "MiB/s", Higher),
    layer("oci.disk_put_mib_s", "MiB/s", Higher),
    layer("oci.disk_read_mib_s", "MiB/s", Higher),
    layer("oci.flatten_s", "s", Lower),
    // user side
    layer("buildsys.build_s", "s", Lower),
    layer("core.extend_s", "s", Lower),
    layer("core.load_cache_s", "s", Lower),
    // rebuild engine
    layer("core.stage_materialize_s", "s", Lower),
    layer("core.stage_adapt_s", "s", Lower),
    layer("core.stage_replay_s", "s", Lower),
    layer("core.stage_collect_s", "s", Lower),
    exact("core.exec_compile", "count", Lower),
    exact("core.cache_hit", "count", Higher),
    exact("core.cache_miss", "count", Lower),
    layer("core.sched_critical_path_max", "count", Lower),
    exact("core.retarget_ir_hits", "count", Higher),
    exact("core.cache_hit_ratio", "ratio", Higher),
    layer("toolchain.compile_steps_per_s", "1/s", Higher),
    layer("core.redirect_s", "s", Lower),
    layer("pkg.install_s", "s", Lower),
    // dist
    layer("dist.push_s", "s", Lower),
    layer("dist.pull_s", "s", Lower),
    layer("dist.plain_push_s", "s", Lower),
    layer("dist.put_blob_mib_s", "MiB/s", Higher),
    layer("dist.get_blob_mib_s", "MiB/s", Higher),
    layer("dist.full_pull_s", "s", Lower),
    layer("dist.chunkmap_put_s", "s", Lower),
    layer("dist.requests", "count", Lower),
    layer("dist.bytes_on_wire", "bytes", Lower),
    layer("dist.retries", "count", Lower),
    layer("dist.hotcache_hit_ratio", "ratio", Higher),
    layer("dist.pull_gap", "ratio", Lower),
    // the budget: each crate's share of the traced iterations
    layer("share.buildsys", "ratio", Lower),
    layer("share.core", "ratio", Lower),
    layer("share.oci", "ratio", Lower),
    layer("share.dist", "ratio", Lower),
    layer("share.bench", "ratio", Lower),
    layer("bench.unattributed_share", "ratio", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
];
