//! A `tar+gzip` layer through the distribution path: an image whose top
//! layer is compressed, over an uncompressed extended base, is pushed
//! chunked to a loopback daemon and delta-pulled into a fresh store. The
//! pulled image must flatten to the filesystem it was built from, and the
//! verifier's layer pass must find its manifest, `diff_ids` and blobs in
//! agreement.

use bytes::Bytes;
use comt_bench::Lab;
use comt_dist::{serve, split_ref, DistClient, PullOptions, ServerOptions};
use comt_oci::{flatten, ImageBuilder, MediaType, OciDir};
use comtainer_suite::pkg::catalog;

const GZ_REF: &str = "hpccg.site:gz";

fn noise(len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

#[test]
fn compressed_layer_survives_chunked_push_and_delta_pull() {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let mut oci = lab.prepare_app("hpccg").oci;

    // The base is the uncompressed extended image; the site layer on top
    // of it is gzip-compressed.
    let base = oci.load_image("hpccg.dist+coM").unwrap();
    let base_fs = flatten(&oci.blobs, &base).unwrap();
    let mut fs = base_fs.clone();
    let notes = b"site module: openmpi/4.1 ucx/1.15 -- tuned for the local fabric\n".repeat(4096);
    fs.write_file_p("/usr/local/site/notes.txt", Bytes::from(notes), 0o644)
        .unwrap();
    fs.write_file_p("/usr/local/site/calib.bin", Bytes::from(noise(256 << 10)), 0o644)
        .unwrap();
    let image = ImageBuilder::from_base(&oci.blobs, &base)
        .unwrap()
        .with_compression()
        .with_layer_from_fs(&base_fs, &fs)
        .commit(&mut oci.blobs)
        .unwrap();
    let md = image.manifest_digest;
    let top = image.manifest.layers.last().unwrap();
    assert_eq!(top.media_type, MediaType::LayerTarGzip);
    assert!(base
        .manifest
        .layers
        .iter()
        .all(|l| l.media_type == MediaType::LayerTar));
    assert_eq!(flatten(&oci.blobs, &image).unwrap(), fs);

    let server = serve(OciDir::new(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let client = DistClient::new(server.addr().to_string());
    let (name, tag) = split_ref(GZ_REF);
    client
        .push_image_chunked(name, tag, md, &oci.blobs, Default::default())
        .unwrap();

    let mut pulled = OciDir::new();
    let opts = PullOptions {
        delta: true,
        ..PullOptions::default()
    };
    let (got, _) = client
        .pull_image_with(name, tag, &mut pulled.blobs, &opts)
        .unwrap();
    assert_eq!(got, md);
    pulled.tag(GZ_REF, md).unwrap();

    let pulled_image = pulled.load_image(GZ_REF).unwrap();
    assert_eq!(flatten(&pulled.blobs, &pulled_image).unwrap(), fs);

    let cache = comtainer::load_cache(&pulled, GZ_REF).unwrap();
    let diags = comt_analyze::layers::check_layers(&pulled, GZ_REF, &cache);
    let structural: Vec<_> = diags
        .iter()
        .filter(|d| ["COMT-E102", "COMT-E103", "COMT-E104"].contains(&d.code))
        .collect();
    assert!(structural.is_empty(), "{structural:?}");
    drop(server);
}
