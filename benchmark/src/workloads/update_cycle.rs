//! `update_cycle`: a publisher recompiles one object per version and a
//! site takes each update. The data-plane layers of `fleet_pull` used
//! the other way — writes, fsync'd commits, chunkmap publication and
//! Range reads beside plain reads — so a pull gain bought by moving work
//! into push, or the reverse, shows.

use crate::inputs::{self, closure_store, mib_s, same_closure, Rng, ISA};
use crate::trace::Analysis;
use crate::{probes, stats, Env, Workload};
use bytes::Bytes;
use comt_chunk::ChunkParams;
use comt_digest::Digest;
use comt_dist::{DistClient, DistServer, PullOptions, ServerOptions, TransferStats};
use comt_oci::{BlobStore, DiskRegistry, Image, ImageBuilder};
use comt_vfs::Vfs;

/// One image with a single layer of this many object files.
const OBJECTS: usize = 256;
const OBJECT_LEN: usize = 64 << 10;
const NAME: &str = "update";

pub struct UpdateCycle {
    rng: Rng,
    fs: Vfs,
    /// The publisher's store, and the two sites that take each update:
    /// one by delta pull, one by full pull. Each holds one version.
    publisher: BlobStore,
    site_delta: BlobStore,
    site_full: BlobStore,
    current: Image,
    previous_layer: Bytes,
    server: DistServer<DiskRegistry>,
    pushed_bytes: u64,
    full_bytes: u64,
}

fn object_path(i: usize) -> String {
    format!("/app/obj/file_{i:03}.o")
}

fn commit(fs: &Vfs, store: &mut BlobStore) -> Image {
    ImageBuilder::from_scratch(ISA)
        .with_layer_from_fs(&Vfs::new(), fs)
        .commit(store)
        .expect("commit image")
}

fn layer_of(store: &BlobStore, image: &Image) -> Bytes {
    let digest = image.manifest.layers[0]
        .parsed_digest()
        .expect("layer digest");
    store.get(&digest).expect("layer blob")
}

/// Keep only the closure of `manifest`, so that every version is taken
/// by a site that holds exactly the previous one.
fn keep_only(store: &mut BlobStore, manifest: &Digest) {
    let live = inputs::closure(store, manifest);
    store.retain(|d| live.contains(d));
}

impl UpdateCycle {
    fn pull(&self, tag: &str, into: &mut BlobStore, delta: bool) -> TransferStats {
        let opts = PullOptions {
            delta,
            ..PullOptions::default()
        };
        let (digest, stats) = DistClient::new(self.server.addr().to_string())
            .pull_image_with(NAME, tag, into, &opts)
            .expect("pull");
        assert_eq!(
            digest, self.current.manifest_digest,
            "manifest digest changed on the wire"
        );
        stats
    }
}

impl Workload for UpdateCycle {
    const NAME: &'static str = "update_cycle";
    const MIN_ITERS: u32 = 8;

    fn sizes() -> String {
        format!("one layer of {OBJECTS} objects of {} KiB", OBJECT_LEN >> 10)
    }

    fn setup(env: &Env) -> Self {
        let mut rng = Rng::new(env.seed);
        let mut fs = Vfs::new();
        for i in 0..OBJECTS {
            fs.write_file_p(&object_path(i), rng.bytes(OBJECT_LEN), 0o644)
                .expect("write object");
        }
        let mut publisher = BlobStore::new();
        let current = commit(&fs, &mut publisher);
        let server = inputs::start_daemon(&env.fresh_dir("registry"), ServerOptions::default());
        DistClient::new(server.addr().to_string())
            .push_image_chunked(
                NAME,
                "v0",
                current.manifest_digest,
                &publisher,
                ChunkParams::default(),
            )
            .expect("push v0");
        UpdateCycle {
            rng,
            fs,
            site_delta: closure_store(&publisher, &current.manifest_digest),
            site_full: closure_store(&publisher, &current.manifest_digest),
            previous_layer: layer_of(&publisher, &current),
            publisher,
            current,
            server,
            pushed_bytes: 0,
            full_bytes: 0,
        }
    }

    fn iteration(&mut self, env: &Env, it: u32) {
        let tr = &env.tracer;
        let tag = format!("v{}", it + 1);
        // The recompiled object: which one, and its new bytes, from the seed.
        let recompiled = self.rng.below(OBJECTS);
        let bytes = self.rng.bytes(OBJECT_LEN);
        self.fs
            .write_file_p(&object_path(recompiled), bytes, 0o644)
            .expect("rewrite object");
        self.previous_layer = layer_of(&self.publisher, &self.current);

        self.current = tr.phase("oci.commit", || commit(&self.fs, &mut self.publisher));
        let manifest = self.current.manifest_digest;
        let client = DistClient::new(self.server.addr().to_string());
        self.pushed_bytes = tr
            .phase("dist.push", || {
                client.push_image_chunked(
                    NAME,
                    &tag,
                    manifest,
                    &self.publisher,
                    ChunkParams::default(),
                )
            })
            .expect("push")
            .bytes_moved;

        let mut site_delta = std::mem::take(&mut self.site_delta);
        let delta = tr.phase("dist.delta_pull", || self.pull(&tag, &mut site_delta, true));
        let mut site_full = std::mem::take(&mut self.site_full);
        let full = tr.phase("dist.full_pull", || self.pull(&tag, &mut site_full, false));
        self.full_bytes = full.bytes_moved;

        env.check_block(|| {
            env.checks.that(
                same_closure(&self.publisher, &site_full, &manifest),
                "fully pulled closure equals the published one",
            );
            env.checks.that(
                same_closure(&site_full, &site_delta, &manifest),
                "delta-pulled closure is bit-identical to the full pull",
            );
            env.checks
                .that(delta.chunks_hit > 0, "delta pull reused local chunks");
        });
        // Exact only over a fixed set of versions, whatever the run length.
        if it < Self::MIN_ITERS {
            let layer = self.current.manifest.layers[0].size;
            env.record("wire_ratio", delta.bytes_moved as f64 / layer as f64);
        }
        for store in [&mut self.publisher, &mut site_delta, &mut site_full] {
            keep_only(store, &manifest);
        }
        self.site_delta = site_delta;
        self.site_full = site_full;
    }

    fn report(&mut self, env: &Env, spans: &Analysis) {
        let secs = |names: &[&str]| spans.phase_secs(names);
        env.record_all("publish_s", secs(&["oci.commit", "dist.push"]));
        env.record_all("update_s", secs(&["dist.push", "dist.delta_pull"]));
        env.record_all("delta_pull_s", secs(&["dist.delta_pull"]));
        env.record_all("dist.full_pull_s", secs(&["dist.full_pull"]));
        env.record_all("oci.commit_s", secs(&["oci.commit"]));
        env.record_all("dist.push_s", secs(&["dist.push"]));
        let rates = |bytes: u64, secs: Vec<f64>| secs.into_iter().map(move |s| mib_s(bytes, s));
        env.record_all("push_mib_s", rates(self.pushed_bytes, secs(&["dist.push"])));
        env.record_all(
            "pull_mib_s",
            rates(self.full_bytes, secs(&["dist.full_pull"])),
        );
        if env.trace {
            env.record_all("dist.pull_s", secs(&["dist.delta_pull", "dist.full_pull"]));
            probes::observed(env, spans);
            let manifest = self.current.manifest_digest;
            probes::substrates(env, &self.publisher, &manifest);
            probes::delta_plan(
                env,
                &self.previous_layer,
                &layer_of(&self.publisher, &self.current),
            );
            let addr = self.server.addr().to_string();
            let raw_get = probes::raw_transfers(env, &addr, NAME, &self.publisher, &manifest, 1);
            let full = mib_s(self.full_bytes, stats::median(&secs(&["dist.full_pull"])));
            env.record("dist.pull_gap", raw_get / full);
        }
    }

    fn teardown(self) {
        drop(self.server.shutdown());
    }
}
