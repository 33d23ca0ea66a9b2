//! The four workloads. Each stresses different crates, so that a change
//! to one layer has a workload that exercises it and one that bypasses it.

mod fleet_pull;
mod paper_workflow;
mod site_rebuild;
mod update_cycle;

pub use fleet_pull::FleetPull;
pub use paper_workflow::PaperWorkflow;
pub use site_rebuild::SiteRebuild;
pub use update_cycle::UpdateCycle;

use crate::Env;
use comt_observe::Report;
use comt_oci::layout::OciDir;

/// Digest of the top layer of `name`: the `+coMre` layer after a rebuild.
fn top_layer(oci: &OciDir, name: &str) -> String {
    let image = oci.load_image(name).expect("rebuilt image loads");
    image
        .manifest
        .layers
        .last()
        .expect("image has layers")
        .digest
        .clone()
}

/// Rebuild-engine counters of one iteration, summed over its rebuilds.
#[derive(Default)]
struct EngineTally {
    stage_s: [f64; 4],
    exec_compile: u64,
    cache_miss: u64,
    cache_hit: u64,
    warm_probes: u64,
    critical_path_max: u64,
}

const STAGES: [(&str, &str); 4] = [
    ("stage.materialize", "core.stage_materialize_s"),
    ("stage.adapt", "core.stage_adapt_s"),
    ("stage.replay", "core.stage_replay_s"),
    ("stage.collect", "core.stage_collect_s"),
];

impl EngineTally {
    fn add(&mut self, cold: &Report, warm: &Report) {
        for (i, (span, _)) in STAGES.iter().enumerate() {
            self.stage_s[i] += cold.span(span).total.as_secs_f64();
        }
        self.exec_compile += cold.counter("exec.compile");
        self.cache_miss += cold.counter("cache.miss");
        self.cache_hit += warm.counter("cache.hit");
        self.warm_probes += warm.counter("cache.hit") + warm.counter("cache.miss");
        self.critical_path_max = self
            .critical_path_max
            .max(cold.counter("sched.critical_path.max"));
    }

    fn record(&self, env: &Env) {
        for (i, (_, metric)) in STAGES.iter().enumerate() {
            env.record(metric, self.stage_s[i]);
        }
        env.record("core.exec_compile", self.exec_compile as f64);
        env.record("core.cache_miss", self.cache_miss as f64);
        env.record("core.cache_hit", self.cache_hit as f64);
        env.record(
            "core.cache_hit_ratio",
            self.cache_hit as f64 / self.warm_probes.max(1) as f64,
        );
        env.record(
            "core.sched_critical_path_max",
            self.critical_path_max as f64,
        );
        let replay_s = self.stage_s[2];
        if replay_s > 0.0 {
            env.record(
                "toolchain.compile_steps_per_s",
                self.exec_compile as f64 / replay_s,
            );
        }
    }
}
