//! `paper_workflow`: the paper's own workflow, one publisher then one site
//! per iteration. Every layer does some of the work, so the shares of
//! the budget are comparable.

use super::{top_layer, EngineTally};
use crate::inputs::{self, closure_bytes, mib_s, same_closure, AppSource, Rng, UserSide, ISA};
use crate::trace::Analysis;
use crate::{probes, stats, Env, Workload};
use comt_chunk::ChunkParams;
use comt_dist::{split_ref, DistClient, DistServer, PullOptions, ServerOptions};
use comt_oci::layout::OciDir;
use comt_oci::DiskRegistry;
use comtainer::{
    comtainer_rebuild_with_report, comtainer_redirect, ArtifactCache, RebuildOptions, SystemSide,
};
use std::path::PathBuf;

const APP: &str = "lammps";
/// Package and data payloads at 1/16 of the paper's: a 27 MiB extended
/// closure, of which the 15 MiB cache layer does not scale.
const SCALE: f64 = 1.0 / 16.0;

pub struct PaperWorkflow {
    user: UserSide,
    src: AppSource,
    side: SystemSide,
    /// The last iteration's published layout and daemon, kept for the probes.
    last: Option<Published>,
    pushed_bytes: u64,
    pulled_bytes: u64,
}

struct Published {
    oci: OciDir,
    server: DistServer<DiskRegistry>,
    dirs: [PathBuf; 3],
}

impl Published {
    fn discard(self) {
        drop(self.server.shutdown());
        for dir in self.dirs {
            std::fs::remove_dir_all(dir).expect("remove iteration directories");
        }
    }
}

impl Workload for PaperWorkflow {
    const NAME: &'static str = "paper_workflow";
    const MIN_ITERS: u32 = 9;

    fn sizes() -> String {
        format!("{APP}/{ISA} at scale 1/{}", 1.0 / SCALE)
    }

    fn setup(env: &Env) -> Self {
        PaperWorkflow {
            user: UserSide::new(SCALE),
            src: AppSource::new(APP, SCALE, &mut Rng::new(env.seed)),
            side: SystemSide::native(ISA, SCALE).expect("system side"),
            last: None,
            pushed_bytes: 0,
            pulled_bytes: 0,
        }
    }

    fn iteration(&mut self, env: &Env, _it: u32) {
        let tr = &env.tracer;
        if let Some(previous) = self.last.take() {
            previous.discard();
        }
        let dist_ref = format!("{APP}.dist");
        let ext_ref = format!("{APP}.dist+coM");

        // --- the image publisher ---------------------------------------
        let (store, built) = tr.phase("buildsys.build", || self.user.build(&self.src));
        let oci = tr.phase("core.extend", || self.user.extend(APP, &store, &built, tr));
        let pub_dir = env.fresh_dir("publisher");
        tr.phase("oci.publisher_save", || {
            oci.save(&pub_dir).expect("save published layout")
        });

        let reg_dir = env.fresh_dir("registry");
        let server = tr.call("bench.daemon_start", || {
            inputs::start_daemon(&reg_dir, ServerOptions::default())
        });
        let client = DistClient::new(server.addr().to_string());
        let refs = [&dist_ref, &ext_ref];
        self.pushed_bytes = tr.phase("dist.push", || {
            refs.iter()
                .map(|r| {
                    let (name, reference) = split_ref(r);
                    let digest = oci.resolve(r).expect("published ref");
                    tr.call("dist.push_image_chunked", || {
                        client.push_image_chunked(
                            name,
                            reference,
                            digest,
                            &oci.blobs,
                            ChunkParams::default(),
                        )
                    })
                    .expect("push")
                    .bytes_moved
                })
                .sum()
        });

        // --- the HPC site ----------------------------------------------
        let mut site = OciDir::new();
        self.pulled_bytes = tr.phase("dist.pull", || {
            refs.iter()
                .map(|r| {
                    let (name, reference) = split_ref(r);
                    let (digest, stats) = tr
                        .call("dist.pull_image", || {
                            client.pull_image_with(
                                name,
                                reference,
                                &mut site.blobs,
                                &PullOptions::default(),
                            )
                        })
                        .expect("pull");
                    inputs::set_ref(&mut site, r, digest);
                    stats.bytes_moved
                })
                .sum()
        });
        env.check_block(|| {
            for r in refs {
                let digest = oci.resolve(r).expect("published ref");
                let same = site.resolve(r).ok() == Some(digest)
                    && same_closure(&oci.blobs, &site.blobs, &digest);
                env.checks.that(
                    same,
                    &format!("pulled closure of {r} equals the published one"),
                );
            }
        });

        let site_dir = env.fresh_dir("site");
        let mut site = tr.phase("oci.site_save_load", || {
            tr.call("oci.layout_save", || site.save(&site_dir))
                .expect("save pulled layout");
            tr.call("oci.layout_load", || OciDir::load(&site_dir))
                .expect("load pulled layout")
        });

        let opts = RebuildOptions {
            parallel: true,
            artifact_cache: Some(ArtifactCache::new()),
            ..Default::default()
        };
        let (rebuilt_ref, cold) = tr
            .phase("core.rebuild_cold", || {
                comtainer_rebuild_with_report(&mut site, &ext_ref, &self.side, &opts)
            })
            .expect("cold rebuild");
        let cold_layer = top_layer(&site, &rebuilt_ref);
        let (_, warm) = tr
            .phase("core.rebuild_warm", || {
                comtainer_rebuild_with_report(&mut site, &ext_ref, &self.side, &opts)
            })
            .expect("warm rebuild");
        env.checks.that(
            warm.counter("exec.compile") == 0 && top_layer(&site, &rebuilt_ref) == cold_layer,
            "warm rebuild compiles nothing and reproduces the +coMre layer",
        );
        let mut tally = EngineTally::default();
        tally.add(&cold, &warm);
        tally.record(env);

        let opt_ref = tr
            .phase("core.redirect", || {
                comtainer_redirect(&mut site, &rebuilt_ref, &self.side)
            })
            .expect("redirect");
        tr.phase("oci.final_save", || {
            site.save(&site_dir).expect("save adapted layout")
        });
        env.check_block(|| {
            let fs = |name: &str| {
                comt_oci::flatten(&site.blobs, &site.load_image(name).expect("image"))
                    .expect("flatten")
            };
            let (orig, opt) = (fs(&dist_ref), fs(&opt_ref));
            let (bin, data) = (format!("/app/{APP}"), format!("/app/{APP}.data"));
            env.checks.that(
                opt.read(&bin).is_ok() && opt.read(&bin).ok() != orig.read(&bin).ok(),
                "redirected image carries a rebuilt binary at the original path",
            );
            env.checks.that(
                opt.read(&data).is_ok() && opt.read(&data).ok() == orig.read(&data).ok(),
                "redirected image carries the data file verbatim",
            );
        });

        self.last = Some(Published {
            oci,
            server,
            dirs: [pub_dir, reg_dir, site_dir],
        });
    }

    fn teardown(self) {
        if let Some(last) = self.last {
            last.discard();
        }
    }

    fn report(&mut self, env: &Env, spans: &Analysis) {
        let secs = |names: &[&str]| spans.phase_secs(names);
        env.record_all("workflow_s", secs(&[]));
        env.record_all(
            "publish_s",
            secs(&["core.extend", "oci.publisher_save", "dist.push"]),
        );
        env.record_all(
            "adapt_s",
            secs(&[
                "dist.pull",
                "oci.site_save_load",
                "core.rebuild_cold",
                "core.redirect",
                "oci.final_save",
            ]),
        );
        env.record_all("rebuild_cold_s", secs(&["core.rebuild_cold"]));
        env.record_all("rebuild_warm_s", secs(&["core.rebuild_warm"]));
        let rates = |bytes: u64, secs: Vec<f64>| secs.into_iter().map(move |s| mib_s(bytes, s));
        env.record_all("push_mib_s", rates(self.pushed_bytes, secs(&["dist.push"])));
        env.record_all("pull_mib_s", rates(self.pulled_bytes, secs(&["dist.pull"])));
        env.record_all("buildsys.build_s", secs(&["buildsys.build"]));
        env.record_all("core.extend_s", secs(&["core.extend"]));
        env.record_all("core.redirect_s", secs(&["core.redirect"]));
        env.record_all("dist.push_s", secs(&["dist.push"]));
        env.record_all("dist.pull_s", secs(&["dist.pull"]));

        let Published { oci, server, .. } = self.last.as_ref().expect("ran at least one iteration");
        let ext_ref = format!("{APP}.dist+coM");
        let dist = oci.resolve(&format!("{APP}.dist")).expect("dist ref");
        let cache_layer = comtainer::cache::cache_layer_size(oci, &ext_ref).expect("cache layer");
        env.record(
            "cache_layer_share",
            cache_layer as f64 / closure_bytes(&oci.blobs, &dist) as f64,
        );

        if env.trace {
            let total = oci.blobs.total_size();
            env.record_all(
                "oci.layout_save_mib_s",
                rates(total, secs(&["oci.publisher_save"])),
            );
            env.record_all(
                "oci.layout_load_mib_s",
                rates(total, spans.call_secs("oci.layout_load")),
            );
            let extended = oci.resolve(&ext_ref).expect("extended ref");
            probes::observed(env, spans);
            probes::substrates(env, &oci.blobs, &extended);
            probes::load_cache(env, oci, &ext_ref);
            probes::pkg_install(env, oci, &ext_ref, &self.side);
            let raw_get = probes::raw_transfers(
                env,
                &server.addr().to_string(),
                &ext_ref,
                &oci.blobs,
                &extended,
                1,
            );
            let pull = stats::median(&secs(&["dist.pull"]));
            env.record("dist.pull_gap", raw_get / mib_s(self.pulled_bytes, pull));

            // The same two refs pushed without chunkmaps, into a daemon of their own.
            let dir = env.fresh_dir("probe-registry");
            let plain = inputs::start_daemon(&dir, ServerOptions::default());
            let client = DistClient::new(plain.addr().to_string());
            let t = std::time::Instant::now();
            for r in [format!("{APP}.dist"), ext_ref.clone()] {
                let (name, reference) = split_ref(&r);
                client
                    .push_image(name, reference, oci.resolve(&r).expect("ref"), &oci.blobs)
                    .expect("plain push");
            }
            env.record("dist.plain_push_s", t.elapsed().as_secs_f64());
            drop(plain.shutdown());
        }
    }
}
