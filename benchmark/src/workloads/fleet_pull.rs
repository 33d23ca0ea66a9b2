//! `fleet_pull`: a crowd of nodes pulls one extended image at once.
//! `digest`, `dist` and the disk store do nearly all the work and the
//! rebuild engine none: an engine change must read "no change" here, a
//! hashing, hot-cache or wire change shows here first.

use crate::inputs::{self, closure, closure_bytes, mib_s, same_closure, AppSource, Rng, UserSide};
use crate::trace::Analysis;
use crate::{probes, stats, Env, Workload};
use comt_digest::Digest;
use comt_dist::{DistClient, DistServer, PullOptions, ServerOptions};
use comt_oci::{BlobStore, DiskRegistry};

const APP: &str = "lammps";
/// A 40 MiB extended closure.
const SCALE: f64 = 1.0 / 8.0;
/// The daemon's hot-blob cache, sized so that the base layer (21 MiB) is
/// larger than it and streams from disk while every other blob fits:
/// both serve paths run in every pull. (The default, 64 MiB, would hold
/// this workload's whole closure.)
const HOT_CACHE_BYTES: u64 = 16 << 20;
const NAME: &str = "fleet";

pub struct FleetPull {
    source: BlobStore,
    manifest: Digest,
    server: DistServer<DiskRegistry>,
}

impl Workload for FleetPull {
    const NAME: &'static str = "fleet_pull";
    const MIN_ITERS: u32 = 7;

    fn sizes() -> String {
        format!(
            "{APP}.dist+coM at scale 1/{}, hot cache {} MiB",
            1.0 / SCALE,
            HOT_CACHE_BYTES >> 20
        )
    }

    fn setup(env: &Env) -> Self {
        let user = UserSide::new(SCALE);
        let src = AppSource::new(APP, SCALE, &mut Rng::new(env.seed));
        let (store, built) = user.build(&src);
        let oci = user.extend(APP, &store, &built, &env.tracer);
        let manifest = oci
            .resolve(&format!("{APP}.dist+coM"))
            .expect("extended ref");

        let mut sizes: Vec<u64> = closure(&oci.blobs, &manifest)
            .iter()
            .map(|d| oci.blobs.get(d).map_or(0, |b| b.len() as u64))
            .collect();
        sizes.sort_unstable();
        let (largest, second) = (sizes[sizes.len() - 1], sizes[sizes.len() - 2]);
        assert!(
            largest > HOT_CACHE_BYTES && second < HOT_CACHE_BYTES,
            "hot cache of {HOT_CACHE_BYTES} bytes must sit between the two largest blobs ({second}, {largest})"
        );

        let opts = ServerOptions {
            cache_bytes: HOT_CACHE_BYTES,
            ..ServerOptions::default()
        };
        let server = inputs::start_daemon(&env.fresh_dir("registry"), opts);
        // A plain push: no chunkmaps, so every pull takes the full-blob path.
        DistClient::new(server.addr().to_string())
            .push_image(NAME, "latest", manifest, &oci.blobs)
            .expect("push");
        FleetPull {
            source: oci.blobs,
            manifest,
            server,
        }
    }

    fn iteration(&mut self, env: &Env, _it: u32) {
        let tr = &env.tracer;
        let addr = self.server.addr().to_string();
        let pulled: Vec<BlobStore> = tr.phase("dist.pull_round", || {
            let round = tr.current();
            std::thread::scope(|scope| {
                let nodes: Vec<_> = (0..env.threads)
                    .map(|_| {
                        scope.spawn(|| {
                            tr.adopt(round);
                            let mut node = BlobStore::new();
                            let (digest, _) = tr
                                .call("dist.pull_image", || {
                                    DistClient::new(addr.as_str()).pull_image_with(
                                        NAME,
                                        "latest",
                                        &mut node,
                                        &PullOptions::default(),
                                    )
                                })
                                .expect("pull");
                            assert_eq!(
                                digest, self.manifest,
                                "manifest digest changed on the wire"
                            );
                            node
                        })
                    })
                    .collect();
                nodes
                    .into_iter()
                    .map(|n| n.join().expect("puller thread"))
                    .collect()
            })
        });
        env.check_block(|| {
            for node in &pulled {
                env.checks.that(
                    same_closure(&self.source, node, &self.manifest),
                    "pulled closure equals the pushed one",
                );
            }
        });
    }

    fn report(&mut self, env: &Env, spans: &Analysis) {
        let bytes = closure_bytes(&self.source, &self.manifest) * env.threads as u64;
        let rounds = spans.phase_secs(&["dist.pull_round"]);
        env.record_all("pull_mib_s", rounds.iter().map(|s| mib_s(bytes, *s)));
        env.record_all("dist.full_pull_s", rounds.iter().copied());
        if env.trace {
            // Per client: the calls of one round overlap.
            let per_client = spans
                .call_secs("dist.pull_image")
                .into_iter()
                .map(|s| s / env.threads as f64);
            env.record_all("dist.pull_s", per_client);
            probes::observed(env, spans);
            env.checks.that(
                ["core", "buildsys", "toolchain"]
                    .iter()
                    .all(|l| spans.calls_in_layer(l) == 0),
                "no call into the rebuild engine during a pull round",
            );
            probes::substrates(env, &self.source, &self.manifest);
            let addr = self.server.addr().to_string();
            let raw_get =
                probes::raw_transfers(env, &addr, NAME, &self.source, &self.manifest, env.threads);
            env.record(
                "dist.pull_gap",
                raw_get / mib_s(bytes, stats::median(&rounds)),
            );
        }
    }

    fn teardown(self) {
        drop(self.server.shutdown());
    }
}
