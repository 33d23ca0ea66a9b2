//! The images the workflow writes, pinned byte for byte.
//!
//! For every generated application tree, in each cache mode (source, IR),
//! the manifest and config digests of `+coM`, `+coMre` and `+opt` must
//! equal `tests/golden/image_digests.txt`; so must hpccg's
//! `+coMre@x86-64-v3` and `+opt@x86-64-v3`. A redirect that refuses (an
//! IR-mode cache coupled to a package the system replaces) records its
//! error instead. Any change to how an image is assembled — layer order,
//! config keys, history, annotations — fails here. Refreshing the golden
//! is a reviewed diff:
//!
//! ```text
//! COMT_BLESS=1 cargo test --test image_digests
//! ```

mod common;

use comt_bench::Lab;
use comt_oci::layout::OciDir;
use comtainer_suite::core::{
    comtainer_rebuild, comtainer_redirect, comtainer_retarget, CacheMode, RebuildOptions,
    SystemSide,
};
use comtainer_suite::pkg::catalog;
use std::fmt::Write as _;

const MODES: [(CacheMode, &str); 2] = [(CacheMode::Source, "source"), (CacheMode::Ir, "ir")];

/// One line: the manifest and config digests of the image at `name`.
fn record(text: &mut String, label: &str, oci: &OciDir, name: &str) {
    let image = oci.load_image(name).unwrap();
    writeln!(
        text,
        "{label} {name} manifest={} config={}",
        image.manifest_digest.to_oci_string(),
        image.manifest.config.digest
    )
    .unwrap();
}

/// Redirect `rebuilt` and record the `+opt` image, or the refusal.
fn redirect_and_record(
    text: &mut String,
    label: &str,
    oci: &mut OciDir,
    rebuilt: &str,
    side: &SystemSide,
) {
    match comtainer_redirect(oci, rebuilt, side) {
        Ok(opt) => record(text, label, oci, &opt),
        Err(e) => writeln!(text, "{label} {rebuilt} redirect error={e}").unwrap(),
    }
}

#[test]
fn image_digests_golden() {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let side = lab.system_side();
    let opts = RebuildOptions::default();
    let mut text = String::new();
    for app in comt_workloads::apps() {
        for (mode, mode_name) in MODES {
            let label = format!("{} {mode_name}", app.name);
            let (mut oci, ext) = lab.extended(app.name, mode);
            record(&mut text, &label, &oci, &ext);
            let re = comtainer_rebuild(&mut oci, &ext, &side, &opts).unwrap();
            record(&mut text, &label, &oci, &re);
            redirect_and_record(&mut text, &label, &mut oci, &re, &side);
            if app.name == "hpccg" {
                let targets = vec!["x86-64-v3".to_string()];
                let fan = comtainer_retarget(&mut oci, &ext, &side, &targets, &opts).unwrap();
                for (_, re) in &fan.images {
                    record(&mut text, &label, &oci, re);
                    redirect_and_record(&mut text, &label, &mut oci, re, &side);
                }
            }
        }
    }
    common::golden("image_digests.txt", &text);
}
