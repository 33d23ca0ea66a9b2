//! `site_rebuild`: a site re-adapts six extended images it already holds,
//! in process. The engine, scheduler, artifact cache and toolchain do
//! the work and no socket is opened: a data-plane change must read "no
//! change" here.

use super::{top_layer, EngineTally};
use crate::inputs::{AppSource, Rng, UserSide, ISA};
use crate::trace::Analysis;
use crate::{probes, Env, Workload};
use comt_oci::layout::OciDir;
use comtainer::{
    comtainer_rebuild_with_report, comtainer_retarget, ArtifactCache, RebuildOptions, SystemSide,
};

const APPS: [&str; 6] = ["hpccg", "lulesh", "comd", "minimd", "lammps", "openmx"];
const SCALE: f64 = 1.0 / 16.0;
/// AVX2-capable x86-64 tiers, so every workload passes the target audit.
const TARGETS: [&str; 4] = ["x86-64-v3", "haswell", "x86-64-v4", "icelake-server"];

pub struct SiteRebuild {
    side: SystemSide,
    /// Per app: the layout holding `<app>.dist+coM`.
    layouts: Vec<(&'static str, OciDir)>,
    order: Rng,
}

fn cached(cache: &std::sync::Arc<ArtifactCache>) -> RebuildOptions {
    RebuildOptions {
        parallel: true,
        artifact_cache: Some(cache.clone()),
        ..Default::default()
    }
}

impl Workload for SiteRebuild {
    const NAME: &'static str = "site_rebuild";
    const MIN_ITERS: u32 = 5;

    fn sizes() -> String {
        format!(
            "{} at scale 1/{}, retarget to {}",
            APPS.join(" "),
            1.0 / SCALE,
            TARGETS.join(" ")
        )
    }

    fn setup(env: &Env) -> Self {
        let user = UserSide::new(SCALE);
        let mut rng = Rng::new(env.seed);
        let layouts = APPS
            .iter()
            .map(|app| {
                let src = AppSource::new(app, SCALE, &mut rng);
                let (store, built) = user.build(&src);
                (*app, user.extend(app, &store, &built, &env.tracer))
            })
            .collect();
        SiteRebuild {
            side: SystemSide::native(ISA, SCALE).expect("system side"),
            layouts,
            order: rng,
        }
    }

    fn iteration(&mut self, env: &Env, _it: u32) {
        let tr = &env.tracer;
        let targets: Vec<String> = TARGETS.iter().map(|t| t.to_string()).collect();
        let mut order: Vec<usize> = (0..self.layouts.len()).collect();
        self.order.shuffle(&mut order);
        let mut tally = EngineTally::default();
        let mut ir_hits = 0;
        for i in order {
            let (app, layout) = &self.layouts[i];
            let ext_ref = format!("{app}.dist+coM");
            let mut oci = layout.clone();
            tr.phase("core.load_cache", || comtainer::load_cache(&oci, &ext_ref))
                .expect("load cache");

            let opts = cached(&ArtifactCache::new());
            let (rebuilt_ref, cold) = tr
                .phase("core.rebuild_cold", || {
                    comtainer_rebuild_with_report(&mut oci, &ext_ref, &self.side, &opts)
                })
                .expect("cold rebuild");
            let cold_layer = top_layer(&oci, &rebuilt_ref);
            let (_, warm) = tr
                .phase("core.rebuild_warm", || {
                    comtainer_rebuild_with_report(&mut oci, &ext_ref, &self.side, &opts)
                })
                .expect("warm rebuild");
            env.checks.that(
                warm.counter("exec.compile") == 0 && top_layer(&oci, &rebuilt_ref) == cold_layer,
                &format!("{app}: warm rebuild compiles nothing and reproduces the +coMre layer"),
            );
            tally.add(&cold, &warm);

            let opts = cached(&ArtifactCache::new());
            let fan_cold = tr
                .phase("core.retarget_cold", || {
                    comtainer_retarget(&mut oci, &ext_ref, &self.side, &targets, &opts)
                })
                .expect("cold retarget");
            let cold_layers: Vec<String> = fan_cold
                .images
                .iter()
                .map(|(_, r)| top_layer(&oci, r))
                .collect();
            let fan_warm = tr
                .phase("core.retarget_warm", || {
                    comtainer_retarget(&mut oci, &ext_ref, &self.side, &targets, &opts)
                })
                .expect("warm retarget");
            let warm_layers: Vec<String> = fan_warm
                .images
                .iter()
                .map(|(_, r)| top_layer(&oci, r))
                .collect();
            env.checks.that(
                fan_warm.report.counter("exec.compile") == 0
                    && fan_warm.report.counter("exec.recodegen") == 0
                    && warm_layers == cold_layers,
                &format!("{app}: warm retarget runs no compile and no recodegen, bit-identically"),
            );
            ir_hits += fan_warm.report.counter("retarget.ir_hits");
        }
        tally.record(env);
        env.record("core.retarget_ir_hits", ir_hits as f64);
    }

    fn report(&mut self, env: &Env, spans: &Analysis) {
        env.record_all("rebuild_cold_s", spans.phase_secs(&["core.rebuild_cold"]));
        env.record_all("rebuild_warm_s", spans.phase_secs(&["core.rebuild_warm"]));
        env.record_all("retarget_s", spans.phase_secs(&["core.retarget_cold"]));
        env.record_all("core.load_cache_s", spans.phase_secs(&["core.load_cache"]));
        if env.trace {
            probes::observed(env, spans);
            let seen = comt_observe::global().report();
            env.checks.that(
                !seen.counters.keys().any(|k| k.starts_with("dist.")),
                "no request reached a daemon during a rebuild cycle",
            );
            // The largest app stands for the six in the per-step probes.
            let (app, layout) = self
                .layouts
                .iter()
                .find(|(a, _)| *a == "lammps")
                .expect("lammps layout");
            probes::pkg_install(env, layout, &format!("{app}.dist+coM"), &self.side);
        }
    }
}
