//! Integration: the ISA-compatibility audit as a buildd admission gate.
//!
//! Seeds an extended image whose recorded build pins `-mavx512f` and
//! proves:
//!
//! * `comt_analyze::audit_extended_image` fails it against a declared
//!   `x86-64-v2` deployment target with COMT-A001, and passes it against
//!   `x86-64-v4` — without executing a single compile step;
//! * a buildd job declaring `x86-64-v2` is rejected *at submit time* with
//!   HTTP 422 and the findings in the JSON error body;
//! * the same job declaring `x86-64-v4`, or declaring no targets at all,
//!   is admitted and rebuilds to completion — the gate is strictly
//!   opt-in.

use bytes::Bytes;
use comt_dist::{serve_buildd, BuilddClient, DistClient, HttpOptions};
use comt_buildsys::{BuildTrace, RawCommand};
use comt_oci::layout::OciDir;
use comt_oci::{BlobStore, ImageBuilder};
use comt_toolchain::Toolchain;
use comt_vfs::Vfs;
use comtainer::cache::write_cache;
use comtainer::{
    BuildService, FileOrigin, ImageModel, JobSpec, NativeToolchainAdapter, ProcessModels,
    ServiceOptions, SystemAdapter,
};
use std::collections::BTreeMap;
use std::time::Duration;

const EXT_REF: &str = "simd.dist+coM";
const DEADLINE: Duration = Duration::from_secs(120);

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// An extended image whose one compile step requires AVX-512.
fn simd_layout() -> OciDir {
    let mut store = BlobStore::new();
    let mut fs = Vfs::new();
    fs.write_file_p("/app/run", Bytes::from_static(b"BIN"), 0o755)
        .unwrap();
    let img = ImageBuilder::from_scratch("x86_64")
        .with_layer_from_fs(&Vfs::new(), &fs)
        .commit(&mut store)
        .unwrap();
    let mut oci = OciDir::new();
    oci.export("simd.dist", img.manifest_digest, &store).unwrap();

    let trace = BuildTrace {
        commands: vec![
            RawCommand {
                argv: argv("gcc -O2 -mavx512f -c kernel.c -o kernel.o"),
                cwd: "/src".into(),
                env: vec![],
                inputs: vec!["/src/kernel.c".into()],
                outputs: vec!["/src/kernel.o".into()],
            },
            RawCommand {
                argv: argv("gcc kernel.o -o app"),
                cwd: "/src".into(),
                env: vec![],
                inputs: vec!["/src/kernel.o".into()],
                outputs: vec!["/src/app".into()],
            },
        ],
    };
    let mut sources = BTreeMap::new();
    sources.insert(
        "/src/kernel.c".to_string(),
        Bytes::from("#pragma comt provides(main)\n"),
    );
    let mut image = ImageModel::default();
    image
        .files
        .insert("/app/run".into(), FileOrigin::Build("/src/app".into()));
    let models = ProcessModels {
        image,
        graph: Default::default(),
        isa: "x86_64".into(),
        cache_mode: Default::default(),
        targets: vec![],
    };
    let new_ref = write_cache(&mut oci, "simd.dist", &models, &trace, &sources).unwrap();
    assert_eq!(new_ref, EXT_REF);
    oci
}

fn adapters() -> Vec<Box<dyn SystemAdapter>> {
    vec![Box::new(NativeToolchainAdapter)]
}

#[test]
fn avx512_image_fails_v2_passes_v4() {
    let oci = simd_layout();
    let toolchain = Toolchain::vendor_for("x86_64");

    let report = comt_analyze::audit_extended_image(
        &oci,
        EXT_REF,
        &["x86-64-v2".to_string()],
        &toolchain,
        &adapters(),
    )
    .unwrap();
    assert!(report.has_errors(), "{}", report.render_human());
    assert!(report
        .report
        .diagnostics
        .iter()
        .any(|d| d.code == "COMT-A001"));
    assert_eq!(report.verdicts.len(), 1);
    assert!(!report.verdicts[0].pass);
    assert_eq!(report.verdicts[0].incompatible_objects, 1);
    let json = report.to_json();
    assert!(json.contains("\"COMT-A001\""), "{json}");
    assert!(json.contains("avx512f"), "{json}");

    let report = comt_analyze::audit_extended_image(
        &oci,
        EXT_REF,
        &["x86-64-v4".to_string()],
        &toolchain,
        &adapters(),
    )
    .unwrap();
    assert!(!report.has_errors(), "{}", report.render_human());
    assert!(report.verdicts[0].pass);
}

#[test]
fn buildd_gate_rejects_declared_v2_at_submit() {
    let svc = BuildService::start(
        simd_layout(),
        ServiceOptions {
            workers: 1,
            ..Default::default()
        },
    );
    let server = serve_buildd(
        std::sync::Arc::clone(&svc),
        "127.0.0.1:0",
        HttpOptions::default(),
    )
    .unwrap();
    let client = BuilddClient::new(server.addr().to_string());

    // Declared x86-64-v2: rejected before the job ever queues.
    let mut jr = JobSpec::new("alice", EXT_REF);
    jr.targets = vec!["x86-64-v2".to_string()];
    let err = client.submit(&jr).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("422"), "{msg}");
    assert!(msg.contains("COMT-A001"), "{msg}");
    assert!(svc.list(None).is_empty(), "rejected job must not queue");

    // The raw 422 body carries the findings, machine-consumable.
    let raw = DistClient::new(server.addr().to_string());
    let body = format!(
        r#"{{"tenant":"alice","ref":"{EXT_REF}","targets":["x86-64-v2"]}}"#
    );
    let (status, _, resp) = raw
        .raw_exchange(
            "POST",
            "/buildd/jobs",
            &[("Content-Type".to_string(), "application/json".to_string())],
            Some(body.as_bytes()),
        )
        .unwrap();
    assert_eq!(status, 422);
    let text = std::str::from_utf8(&resp).unwrap();
    assert!(text.contains("\"findings\""), "{text}");
    assert!(text.contains("COMT-A001"), "{text}");
    assert!(text.contains("avx512f"), "{text}");

    // An unknown target is a 400 — the audit itself cannot run.
    jr.targets = vec!["pentium-pro".to_string()];
    let msg = client.submit(&jr).unwrap_err().to_string();
    assert!(msg.contains("400"), "{msg}");
    assert!(msg.contains("unknown deployment target"), "{msg}");

    // Declared x86-64-v4: the same image is compatible, so it is admitted
    // and rebuilds to completion.
    jr.targets = vec!["x86-64-v4".to_string()];
    let accepted = client.submit(&jr).unwrap();
    let fin = client.wait(accepted.id, DEADLINE).unwrap();
    assert_eq!(fin.state, "done", "{:?}", fin.error);
    assert_eq!(fin.result_ref.as_deref(), Some("simd.dist+coMre"));

    server.shutdown();
    svc.stop();
}

#[test]
fn gate_is_opt_in_without_declared_targets() {
    let svc = BuildService::start(
        simd_layout(),
        ServiceOptions {
            workers: 1,
            ..Default::default()
        },
    );
    let server = serve_buildd(
        std::sync::Arc::clone(&svc),
        "127.0.0.1:0",
        HttpOptions::default(),
    )
    .unwrap();
    let client = BuilddClient::new(server.addr().to_string());

    // No targets declared: the incompatible-with-v2 image still builds.
    let status = client.submit(&JobSpec::new("bob", EXT_REF)).unwrap();
    let fin = client.wait(status.id, DEADLINE).unwrap();
    assert_eq!(fin.state, "done", "{:?}", fin.error);
    assert_eq!(fin.result_ref.as_deref(), Some("simd.dist+coMre"));

    server.shutdown();
    svc.stop();
}
