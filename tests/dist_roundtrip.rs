//! End-to-end distribution: a real coMtainer extended image over the
//! loopback wire, with injected mid-blob disconnects. The workflow the
//! subsystem exists for — `comt push --remote` on the build host, `comt
//! pull --remote` on the compute site — must deliver a bit-identical
//! closure even when connections die partway through a blob.

use comt_bench::Lab;
use comt_dist::{serve, split_ref, tag_key, Chaos, DistClient, ServerOptions};
use comt_oci::store::closure_digests;
use comt_oci::{BlobStore, Registry};
use comtainer_suite::pkg::catalog;

#[test]
fn extended_image_survives_mid_blob_disconnects() {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let art = lab.prepare_app("hpccg");
    let r = "hpccg.dist+coM";
    let md = art.oci.resolve(r).unwrap();
    let (name, tag) = split_ref(r);

    // The daemon truncates the first 4 blob GET responses after 512 bytes
    // and drops the connection — the client must resume, not restart.
    let server = serve(
        Registry::new(),
        "127.0.0.1:0",
        ServerOptions {
            chaos: Some(Chaos {
                truncate_blob_gets: 4,
                truncate_after: 512,
                ..Chaos::default()
            }),
            ..Default::default()
        },
    )
    .unwrap();
    let client = DistClient::new(server.addr().to_string());

    let pushed = client.push_image(name, tag, md, &art.oci.blobs).unwrap();
    assert!(pushed.blobs_moved >= 3, "manifest + config + layers");

    comt_observe::global().reset();
    let mut pulled = BlobStore::new();
    let (got, stats) = client.pull_image(name, tag, &mut pulled).unwrap();
    assert_eq!(got, md);
    assert_eq!(stats.blobs_moved, pushed.blobs_moved);

    // Bit-identical closure on the pull side, every blob digest-checked
    // against the build host's bytes.
    for d in closure_digests(&art.oci.blobs, &md).unwrap() {
        assert_eq!(
            pulled.get(&d).unwrap(),
            art.oci.blobs.get(&d).unwrap(),
            "blob {d} corrupted in transit"
        );
    }
    // The kills really happened and were survived by Range resume.
    assert!(
        comt_observe::global().counter("dist.client.resumes") >= 1,
        "expected at least one mid-blob resume"
    );

    let reg = server.shutdown();
    assert_eq!(reg.resolve(&tag_key(name, tag)).ok(), Some(md));
}

#[test]
fn shared_layers_dedupe_across_pushed_refs() {
    // The extended image shares every original layer with the dist image;
    // pushing both must move the shared blobs once, and pulling the
    // extended image into a store that already has the dist closure must
    // only fetch the delta (the cache layer + new manifest/config).
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let art = lab.prepare_app("hpccg");
    let dist_md = art.oci.resolve("hpccg.dist").unwrap();
    let ext_md = art.oci.resolve("hpccg.dist+coM").unwrap();

    let server = serve(Registry::new(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let client = DistClient::new(server.addr().to_string());

    let first = client
        .push_image("hpccg.dist", "latest", dist_md, &art.oci.blobs)
        .unwrap();
    assert_eq!(first.blobs_skipped, 0);
    let second = client
        .push_image("hpccg.dist+coM", "latest", ext_md, &art.oci.blobs)
        .unwrap();
    assert!(
        second.blobs_skipped >= first.blobs_moved - 2,
        "original layers should dedupe via HEAD: {second:?}"
    );

    // Pull the dist image, then the extended one into the same store: the
    // second pull only moves what the first didn't deliver.
    let mut site = BlobStore::new();
    client.pull_image("hpccg.dist", "latest", &mut site).unwrap();
    let (got, delta) = client
        .pull_image("hpccg.dist+coM", "latest", &mut site)
        .unwrap();
    assert_eq!(got, ext_md);
    assert!(
        delta.blobs_skipped >= 1,
        "shared layers should not transfer twice: {delta:?}"
    );
    for d in closure_digests(&art.oci.blobs, &ext_md).unwrap() {
        assert_eq!(site.get(&d).unwrap(), art.oci.blobs.get(&d).unwrap());
    }
    drop(server);
}
