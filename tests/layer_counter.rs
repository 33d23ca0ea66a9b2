//! `codec.layers.encoded` counts every layer the paper's workflow writes.
//!
//! Every image the system commits goes through `ImageBuilder::commit` and
//! `LayerCodec`, so after each step of build → extend (`+coM`) → rebuild
//! (`+coMre`) → redirect (`+opt`) the counter must have grown by exactly
//! the number of layers that step's images added over their bases. The
//! counter lives on the process-wide recorder, so this binary holds this
//! one test and nothing runs beside it.

use comt_bench::Lab;
use comtainer_suite::buildsys::{Builder, Executor};
use comtainer_suite::core::{
    comtainer_build_mode, comtainer_rebuild, comtainer_redirect, CacheMode, RebuildOptions,
};
use comtainer_suite::oci::layout::OciDir;
use comtainer_suite::oci::Image;
use comtainer_suite::pkg::catalog;
use comtainer_suite::toolchain::Toolchain;
use comt_workloads::{containerfile, source_tree};

/// Run `step` and return how many layers the codec encoded during it.
fn encoded_by<T>(step: impl FnOnce() -> T) -> (T, u64) {
    let before = comt_observe::global().counter("codec.layers.encoded");
    let out = step();
    (out, comt_observe::global().counter("codec.layers.encoded") - before)
}

fn added(image: &Image, base: Option<&Image>) -> u64 {
    let base_layers = base.map_or(0, |b| b.manifest.layers.len());
    (image.manifest.layers.len() - base_layers) as u64
}

#[test]
fn every_layer_the_workflow_writes_is_encoded_by_the_codec() {
    let (isa, scale, app) = ("x86_64", catalog::MINI_SCALE, "hpccg");
    let mut lab = Lab::new(isa, scale);
    let context = source_tree(app, isa, scale).unwrap();
    let cf = containerfile(app, isa).unwrap();
    let executor = Executor::new(isa, vec![Toolchain::distro_gcc()])
        .with_repo(catalog::generic_repo_scaled(isa, scale));
    let (env_image, base_image) = (lab.stock.env.clone(), lab.stock.base.clone());
    let mut builder = Builder::new(&mut lab.store, executor);
    builder.tag("comt:x86-64.env", &env_image);
    builder.tag("comt:x86-64.base", &base_image);

    // User build: one image per stage, each over a stock image or an
    // earlier stage.
    let (result, encoded) = encoded_by(|| builder.build(app, &cf, &context).unwrap());
    let stage_base = |name: &str| match name {
        "comt:x86-64.env" => &env_image,
        "comt:x86-64.base" => &base_image,
        stage => &result.images[stage],
    };
    let built: u64 = cf
        .stages
        .iter()
        .map(|s| added(&result.images[&s.name], Some(stage_base(&s.base))))
        .sum();
    assert!(built > 0);
    assert_eq!(encoded, built, "user build");

    let mut oci = OciDir::new();
    let dist_ref = format!("{app}.dist");
    oci.export(&dist_ref, result.images["dist"].manifest_digest, &lab.store)
        .unwrap();
    let load = |oci: &OciDir, name: &str| oci.load_image(name).unwrap();
    let base_fs = comtainer_suite::oci::flatten(&lab.store, &base_image).unwrap();

    let (ext, encoded) = encoded_by(|| {
        comtainer_build_mode(
            &mut oci,
            &dist_ref,
            &result.containers["build"],
            &result.traces["build"],
            &base_fs,
            CacheMode::Source,
        )
        .unwrap()
    });
    let want = added(&load(&oci, &ext), Some(&load(&oci, &dist_ref)));
    assert_eq!(want, 1);
    assert_eq!(encoded, want, "extend ({ext})");
    let report = comt_observe::global().report();
    for span in ["frontend.graph", "frontend.cache_files", "cache.write"] {
        assert!(report.span(span).count > 0, "extend recorded no {span} span");
    }

    let side = lab.system_side();
    let opts = RebuildOptions::default();
    let (re, encoded) = encoded_by(|| comtainer_rebuild(&mut oci, &ext, &side, &opts).unwrap());
    let want = added(&load(&oci, &re), Some(&load(&oci, &ext)));
    assert_eq!(want, 1);
    assert_eq!(encoded, want, "rebuild ({re})");

    // The redirected image starts from scratch: every layer is new.
    let (opt, encoded) = encoded_by(|| comtainer_redirect(&mut oci, &re, &side).unwrap());
    let want = added(&load(&oci, &opt), None);
    assert!(want > 0);
    assert_eq!(encoded, want, "redirect ({opt})");
}
