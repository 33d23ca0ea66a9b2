//! Seeded inputs and the fixtures the workloads share. The code under
//! test never sees the seed, only the bytes generated from it.

use crate::trace::Tracer;
use bytes::Bytes;
use comt_buildsys::{BuildResult, Builder, Containerfile, Executor};
use comt_digest::Digest;
use comt_dist::{serve, DistServer, ServerOptions};
use comt_oci::layout::OciDir;
use comt_oci::spec::{Descriptor, MediaType};
use comt_oci::store::closure_digests;
use comt_oci::{BlobStore, DiskRegistry};
use comt_pkg::catalog;
use comt_toolchain::Toolchain;
use comt_vfs::Vfs;
use comtainer::{comtainer_build, StockImages};
use std::path::Path;

pub const ISA: &str = "x86_64";
pub const MIB: f64 = 1024.0 * 1024.0;

pub fn mib_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / MIB / secs.max(1e-9)
}

/// xorshift64*, seeded through splitmix64 so that seed 0 works.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `len` incompressible bytes.
    pub fn bytes(&mut self, len: usize) -> Bytes {
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            v.extend_from_slice(&self.next().to_le_bytes());
        }
        v.truncate(len);
        Bytes::from(v)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The image publisher's machine: stock images in a store, and the
/// flattened base image `coMtainer-build` classifies files against.
pub struct UserSide {
    pub scale: f64,
    pub store: BlobStore,
    pub stock: StockImages,
    pub base_fs: Vfs,
}

/// One application's build inputs, with seeded contents.
pub struct AppSource {
    pub app: &'static str,
    pub containerfile: Containerfile,
    pub context: Vfs,
}

impl AppSource {
    /// The workload's source tree with its data payload replaced by
    /// seeded bytes of the same length and a seeded constant in the
    /// shared header, so every image digest depends on the seed while
    /// every size stays fixed.
    pub fn new(app: &'static str, scale: f64, rng: &mut Rng) -> Self {
        let mut context = comt_workloads::source_tree(app, ISA, scale).expect("source tree");
        let data_len = context.read("/data.bin").expect("data payload").len();
        context
            .write_file_p("/data.bin", rng.bytes(data_len), 0o644)
            .expect("seeded data payload");
        let mut header = context
            .read_string("/src/constants.h")
            .expect("shared header");
        header.push_str(&format!("s0=0x{:016x};\n", rng.next()));
        context
            .write_file_p("/src/constants.h", Bytes::from(header), 0o644)
            .expect("seeded header");
        AppSource {
            app,
            containerfile: comt_workloads::containerfile(app, ISA).expect("containerfile"),
            context,
        }
    }
}

impl UserSide {
    pub fn new(scale: f64) -> Self {
        let mut store = BlobStore::new();
        let stock = StockImages::build(&mut store, ISA, scale).expect("stock images");
        let base_fs = comt_oci::flatten(&store, &stock.base).expect("base rootfs");
        UserSide {
            scale,
            store,
            stock,
            base_fs,
        }
    }

    /// The conventional two-stage build, recorded. The images land in a
    /// copy of the store, so repeated builds start from the same state.
    pub fn build(&self, src: &AppSource) -> (BlobStore, BuildResult) {
        let mut store = self.store.clone();
        let executor = Executor::new(ISA, vec![Toolchain::distro_gcc()])
            .with_repo(catalog::generic_repo_scaled(ISA, self.scale));
        let mut builder = Builder::new(&mut store, executor);
        builder.tag("comt:x86-64.env", &self.stock.env);
        builder.tag("comt:x86-64.base", &self.stock.base);
        let result = builder
            .build(src.app, &src.containerfile, &src.context)
            .expect("user-side build");
        (store, result)
    }

    /// Export the dist image as a layout and attach the cache layer.
    /// Returns the layout holding `<app>.dist` and `<app>.dist+coM`.
    pub fn extend(&self, app: &str, store: &BlobStore, built: &BuildResult, tr: &Tracer) -> OciDir {
        let mut oci = OciDir::new();
        let dist_ref = format!("{app}.dist");
        tr.call("oci.export", || {
            oci.export(&dist_ref, built.images["dist"].manifest_digest, store)
        })
        .expect("export dist");
        tr.call("core.comtainer_build", || {
            comtainer_build(
                &mut oci,
                &dist_ref,
                &built.containers["build"],
                &built.traces["build"],
                &self.base_fs,
            )
        })
        .expect("coMtainer-build");
        oci
    }
}

/// A disk-backed registry daemon on an ephemeral loopback port.
pub fn start_daemon(dir: &Path, opts: ServerOptions) -> DistServer<DiskRegistry> {
    let registry = DiskRegistry::open(dir).expect("open disk registry");
    serve(registry, "127.0.0.1:0", opts).expect("bind loopback daemon")
}

/// Register a pulled manifest under `name`, as `comt pull` does.
pub fn set_ref(oci: &mut OciDir, name: &str, manifest: Digest) {
    let size = oci.blobs.get(&manifest).map_or(0, |b| b.len() as u64);
    oci.index.set_ref(
        name,
        Descriptor::new(MediaType::ImageManifest, manifest, size),
    );
}

pub fn closure(store: &BlobStore, manifest: &Digest) -> Vec<Digest> {
    closure_digests(store, manifest).expect("closure")
}

pub fn closure_bytes(store: &BlobStore, manifest: &Digest) -> u64 {
    closure(store, manifest)
        .iter()
        .map(|d| store.get(d).map_or(0, |b| b.len() as u64))
        .sum()
}

/// Whether `got` holds the closure of `manifest` byte for byte as `want` does.
pub fn same_closure(want: &BlobStore, got: &BlobStore, manifest: &Digest) -> bool {
    closure(want, manifest)
        .iter()
        .all(|d| want.get(d).is_some() && want.get(d) == got.get(d))
}

/// A store holding exactly the closure of `manifest`.
pub fn closure_store(src: &BlobStore, manifest: &Digest) -> BlobStore {
    let mut dst = BlobStore::new();
    for d in closure(src, manifest) {
        dst.fetch_from(src, &d);
    }
    dst
}
