//! End-to-end scheme driver.

use bytes::Bytes;
use comt_buildsys::{Builder, Containerfile, Executor};
use comt_oci::layout::OciDir;
use comt_oci::{BlobStore, Image};
use comt_perfsim::{execute_with_deck, lib_env_from_image, LibEnv, SystemConfig};
use comt_pkg::catalog;
use comt_toolchain::artifact::LinkedBinary;
use comt_toolchain::Toolchain;
use comt_vfs::Vfs;
use comtainer::{
    comtainer_build, comtainer_build_mode, comtainer_rebuild, comtainer_rebuild_with_report,
    comtainer_redirect, CacheMode, LtoAdapter, PgoAdapter, RebuildOptions, StockImages, SystemSide,
};
use comt_workloads::{containerfile, deck, source_tree, WorkloadRef};

/// The four evaluation schemes of §5.1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Original,
    Native,
    Adapted,
    Optimized,
}

impl Scheme {
    pub const ALL: [Scheme; 4] = [
        Scheme::Original,
        Scheme::Native,
        Scheme::Adapted,
        Scheme::Optimized,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Original => "original",
            Scheme::Native => "native",
            Scheme::Adapted => "adapted",
            Scheme::Optimized => "optimized",
        }
    }
}

/// One target system's full environment.
pub struct Lab {
    pub isa: String,
    pub scale: f64,
    pub store: BlobStore,
    pub stock: StockImages,
    pub system: SystemConfig,
}

/// An application carried through the schemes on one system.
pub struct AppArtifacts {
    pub app: &'static str,
    /// The OCI layout holding dist / +coM / +coMre refs.
    pub oci: OciDir,
    /// The original (generic) dist image.
    pub original: Image,
    /// Natively built binary + the rootfs it runs in.
    pub native_binary: LinkedBinary,
    pub native_env: LibEnv,
    /// The adapted image (rebuild + redirect, no LTO/PGO).
    pub adapted: Image,
    /// Cache layer size in bytes (Table 3).
    pub cache_layer_size: u64,
    /// Engine observability report from the adapted rebuild (stage spans,
    /// step/cache counters, scheduler stats).
    pub rebuild_report: comt_observe::Report,
}

impl Lab {
    /// Set up a lab for one ISA at the given payload scale (use
    /// `catalog::MINI_SCALE` for fast runs, 1.0 for Table 3 sizes).
    pub fn new(isa: &str, scale: f64) -> Self {
        let mut store = BlobStore::new();
        let stock = StockImages::build(&mut store, isa, scale).expect("stock images");
        Lab {
            isa: isa.to_string(),
            scale,
            store,
            stock,
            system: comt_perfsim::systems::system_for(isa),
        }
    }

    fn arch_tag(&self) -> &'static str {
        if self.isa == "aarch64" {
            "aarch64"
        } else {
            "x86-64"
        }
    }

    /// A fresh system side with the default (native toolchain) pipeline.
    pub fn system_side(&self) -> SystemSide {
        SystemSide::native(&self.isa, self.scale).expect("system side")
    }

    /// User-side build of `app` plus `coMtainer-build` in `mode`: a layout
    /// holding `<app>.dist` and the extended ref it returns,
    /// `<app>.dist+coM`. The starting point of the rebuild tests.
    pub fn extended(&mut self, app: &str, mode: CacheMode) -> (OciDir, String) {
        let context = source_tree(app, &self.isa, self.scale).expect("source tree");
        let cf = containerfile(app, &self.isa).expect("containerfile");
        let executor = Executor::new(&self.isa, vec![Toolchain::distro_gcc()])
            .with_repo(catalog::generic_repo_scaled(&self.isa, self.scale));
        let env_image = self.stock.env.clone();
        let base_image = self.stock.base.clone();
        let arch_tag = self.arch_tag();
        let mut builder = Builder::new(&mut self.store, executor);
        builder.tag(&format!("comt:{arch_tag}.env"), &env_image);
        builder.tag(&format!("comt:{arch_tag}.base"), &base_image);
        let result = builder.build(app, &cf, &context).expect("user-side build");

        let mut oci = OciDir::new();
        let dist_ref = format!("{app}.dist");
        oci.export(
            &dist_ref,
            result.images["dist"].manifest_digest,
            &self.store,
        )
        .expect("export dist");
        let base_fs = comt_oci::flatten(&self.store, &self.stock.base).expect("base fs");
        let extended_ref = comtainer_build_mode(
            &mut oci,
            &dist_ref,
            &result.containers["build"],
            &result.traces["build"],
            &base_fs,
            mode,
        )
        .expect("coMtainer-build");
        (oci, extended_ref)
    }

    /// User-side build of the original image, coMtainer-build analysis,
    /// plus the native and adapted variants. One call per app per system.
    pub fn prepare_app(&mut self, app: &'static str) -> AppArtifacts {
        let context = source_tree(app, &self.isa, self.scale).expect("source tree");
        let cf = containerfile(app, &self.isa).expect("containerfile");

        // --- user side: conventional two-stage build (recorded) ---------
        let executor = Executor::new(&self.isa, vec![Toolchain::distro_gcc()])
            .with_repo(catalog::generic_repo_scaled(&self.isa, self.scale));
        let env_image = self.stock.env.clone();
        let base_image = self.stock.base.clone();
        let arch_tag = self.arch_tag();
        let mut builder = Builder::new(&mut self.store, executor);
        builder.tag(&format!("comt:{arch_tag}.env"), &env_image);
        builder.tag(&format!("comt:{arch_tag}.base"), &base_image);
        let result = builder.build(app, &cf, &context).expect("user-side build");
        let original = result.images["dist"].clone();
        let build_container = &result.containers["build"];
        let trace = &result.traces["build"];

        // --- export dist as an OCI layout & run coMtainer-build ---------
        let mut oci = OciDir::new();
        let dist_ref = format!("{app}.dist");
        oci.export(&dist_ref, original.manifest_digest, &self.store)
            .expect("export dist");
        let base_fs = comt_oci::flatten(&self.store, &self.stock.base).expect("base fs");
        let extended_ref = comtainer_build(&mut oci, &dist_ref, build_container, trace, &base_fs)
            .expect("coMtainer-build");
        let cache_layer_size =
            comtainer::cache::cache_layer_size(&oci, &extended_ref).expect("cache size");

        // --- system side: rebuild + redirect (adapted) -------------------
        let side = self.system_side();
        let (rebuilt_ref, rebuild_report) =
            comtainer_rebuild_with_report(&mut oci, &extended_ref, &side, &RebuildOptions::default())
                .expect("coMtainer-rebuild");
        let opt_ref = comtainer_redirect(&mut oci, &rebuilt_ref, &side).expect("redirect");
        let adapted = oci.load_image(&opt_ref).expect("adapted image");

        // --- native: built directly on the system -------------------------
        let (native_binary, native_env) = self.native_build(app, &cf, &context);

        AppArtifacts {
            app,
            oci,
            original,
            native_binary,
            native_env,
            adapted,
            cache_layer_size,
            rebuild_report,
        }
    }

    /// Build the application natively on the system (no containers): the
    /// vendor toolchain, `-O3 -march=native`, the system software stack.
    fn native_build(
        &mut self,
        app: &str,
        cf: &Containerfile,
        context: &Vfs,
    ) -> (LinkedBinary, LibEnv) {
        let vendor = Toolchain::vendor_for(&self.isa);
        // Rewrite the build stage: native flags (the compiler program names
        // stay — mpicc resolves to the system compiler underneath).
        let mut native_cf = cf.clone();
        native_cf.stages.truncate(1);
        native_cf.stages[0].base = format!("comt:{}.sysenv", self.arch_tag());
        for inst in &mut native_cf.stages[0].instructions {
            if let comt_buildsys::Instruction::Run(argv) = inst {
                if argv.first().is_some_and(|p| Toolchain::lookup(p).is_some()) {
                    argv.retain(|t| !t.starts_with("-O"));
                    argv.insert(1, "-march=native".to_string());
                    argv.insert(1, "-O3".to_string());
                }
            }
        }

        let executor = Executor::new(&self.isa, vec![vendor, Toolchain::distro_gcc()])
            .with_repo(catalog::system_repo_scaled(&self.isa, self.scale));
        let sysenv_image = self.stock.sysenv.clone();
        let arch_tag = self.arch_tag();
        let mut builder = Builder::new(&mut self.store, executor);
        builder.tag(&format!("comt:{arch_tag}.sysenv"), &sysenv_image);
        let result = builder
            .build(&format!("{app}-native"), &native_cf, context)
            .expect("native build");
        let container = &result.containers[&native_cf.stages[0].name];
        let binary_path = format!("/src/{app}");
        let raw = container.fs.read(&binary_path).expect("native binary");
        let binary = comt_toolchain::artifact::read_linked(&raw).expect("native artifact");
        let env = lib_env_from_image(
            &container.fs,
            &[
                &catalog::system_repo_scaled(&self.isa, self.scale),
                &catalog::generic_repo_scaled(&self.isa, self.scale),
            ],
        );
        (binary, env)
    }

    /// Build the optimized image for one workload: LTO plus the full PGO
    /// feedback loop (instrument → run with this input → profile →
    /// re-optimize). Returns the optimized image.
    pub fn optimize(&mut self, art: &mut AppArtifacts, input: &str, nodes: u32) -> Image {
        let extended_ref = format!("{}.dist+coM", art.app);

        // Phase 1: instrumented rebuild + redirect.
        let gen_side = self
            .system_side()
            .with_adapter(Box::new(LtoAdapter::whole_graph()))
            .with_adapter(Box::new(PgoAdapter::generate()));
        let re_ref = comtainer_rebuild(
            &mut art.oci,
            &extended_ref,
            &gen_side,
            &RebuildOptions::default(),
        )
        .expect("pgo instrument rebuild");
        let inst_ref = comtainer_redirect(&mut art.oci, &re_ref, &gen_side).expect("redirect");
        let inst_image = art.oci.load_image(&inst_ref).expect("instrumented image");

        // Phase 2: trial run of the instrumented image collects a profile.
        let (binary, env) = self.image_binary(&art.oci, &inst_image, art.app);
        let d = deck(art.app, input, &self.isa, nodes);
        let run = execute_with_deck(&binary, &d, &env, &self.system, nodes);
        let profile = run.profile.expect("instrumented run emits profile");

        // Phase 3: profile-guided rebuild + redirect.
        let profile_path = format!("/prof/{}.prof", art.app);
        let use_side = self
            .system_side()
            .with_adapter(Box::new(LtoAdapter::whole_graph()))
            .with_adapter(Box::new(PgoAdapter::use_profile(&profile_path)));
        let mut extra = std::collections::BTreeMap::new();
        extra.insert(profile_path, Bytes::from(profile.into_bytes()));
        let re_ref2 = comtainer_rebuild(
            &mut art.oci,
            &extended_ref,
            &use_side,
            &RebuildOptions {
                extra_files: extra,
                ..Default::default()
            },
        )
        .expect("pgo use rebuild");
        let opt_ref = comtainer_redirect(&mut art.oci, &re_ref2, &use_side).expect("redirect");
        art.oci.load_image(&opt_ref).expect("optimized image")
    }

    /// Extract the application binary and library environment of an image.
    fn image_binary(&self, oci: &OciDir, image: &Image, app: &str) -> (LinkedBinary, LibEnv) {
        let fs = comt_oci::flatten(&oci.blobs, image).expect("image fs");
        let raw = fs.read(&format!("/app/{app}")).expect("app binary");
        let binary = comt_toolchain::artifact::read_linked(&raw).expect("binary artifact");
        let env = lib_env_from_image(
            &fs,
            &[
                &catalog::system_repo_scaled(&self.isa, self.scale),
                &catalog::generic_repo_scaled(&self.isa, self.scale),
            ],
        );
        (binary, env)
    }

    /// Execute one workload under one scheme; returns seconds.
    pub fn run(
        &mut self,
        art: &mut AppArtifacts,
        w: &WorkloadRef,
        scheme: Scheme,
        nodes: u32,
    ) -> f64 {
        // Containerized runs carry a small runtime overhead relative to the
        // bare-metal native build (HPC engines are near-zero but not zero;
        // the paper's Figure 9 averages show adapted ≈ 3 % behind native).
        const CONTAINER_OVERHEAD: f64 = 1.03;
        let overhead = match scheme {
            Scheme::Native => 1.0,
            _ => CONTAINER_OVERHEAD,
        };
        let d = deck(w.app, w.input, &self.isa, nodes);
        let (binary, env) = match scheme {
            Scheme::Original => {
                let mut oci_view = OciDir::new();
                oci_view
                    .export("orig", art.original.manifest_digest, &self.store)
                    .expect("export original");
                self.image_binary(&oci_view, &art.original.clone(), w.app)
            }
            Scheme::Native => (art.native_binary.clone(), art.native_env.clone()),
            Scheme::Adapted => {
                let image = art.adapted.clone();
                self.image_binary(&art.oci, &image, w.app)
            }
            Scheme::Optimized => {
                let image = self.optimize(art, w.input, nodes);
                self.image_binary(&art.oci, &image, w.app)
            }
        };
        execute_with_deck(&binary, &d, &env, &self.system, nodes).seconds * overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_one_app() {
        let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
        let mut art = lab.prepare_app("hpccg");
        let w = WorkloadRef {
            app: "hpccg",
            input: "",
        };

        // The adapted rebuild went through the instrumented engine.
        assert!(art.rebuild_report.counter("steps.total") > 0);
        assert!(art.rebuild_report.counter("steps.compile") > 0);
        assert!(art.rebuild_report.span("stage.replay").count > 0);

        let orig = lab.run(&mut art, &w, Scheme::Original, 16);
        let native = lab.run(&mut art, &w, Scheme::Native, 16);
        let adapted = lab.run(&mut art, &w, Scheme::Adapted, 16);
        let optimized = lab.run(&mut art, &w, Scheme::Optimized, 16);

        assert!(orig > 0.0 && native > 0.0 && adapted > 0.0 && optimized > 0.0);
        // Adapted tracks native closely.
        assert!((adapted / native - 1.0).abs() < 0.1, "{adapted} vs {native}");
        // hpccg is the paper's anomaly: native/adapted *degrade*.
        assert!(native > orig, "hpccg degrades under the vendor toolchain");
    }

    #[test]
    fn adaptation_recovers_performance_lulesh_arm() {
        let mut lab = Lab::new("aarch64", catalog::MINI_SCALE);
        let mut art = lab.prepare_app("lulesh");
        let w = WorkloadRef {
            app: "lulesh",
            input: "",
        };
        let orig = lab.run(&mut art, &w, Scheme::Original, 16);
        let adapted = lab.run(&mut art, &w, Scheme::Adapted, 16);
        // The 231 % anomaly: generic MPI on the fallback transport.
        assert!(
            orig / adapted > 2.0,
            "lulesh on aarch64: {orig:.1}s vs {adapted:.1}s"
        );
    }
}
