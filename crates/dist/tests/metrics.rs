//! The `comt.metrics.v1` document as a contract: its bytes are pinned by a
//! golden string, both daemons serve it, and the decoder answers `Ok` or
//! `Err` — never a panic — to anything a peer can send.

use comt_dist::{
    decode_report, encode_report, serve, serve_buildd, with_process_counters, DistClient,
};
use comt_observe::{Recorder, Report};
use comtainer::{BuildService, ServiceOptions};
use proptest::prelude::*;
use proptest::TestRng;
use std::time::Duration;

/// The two keys every document leads with, as this process writes them.
fn head() -> String {
    format!(
        r#"{{"schema":"comt.metrics.v1","digest_backend":"{}","#,
        comt_digest::backend()
    )
}

fn fixed_report() -> Report {
    let r = Recorder::new();
    r.count("cache.hit", 7);
    r.count("weird \"name\"\n", 1);
    r.record_span("stage.replay", Duration::from_nanos(1_234_567));
    r.record_value("job.latency_us", 30);
    r.record_value("job.latency_us", 10);
    r.report()
}

/// A change of shape fails here instead of on a dashboard.
#[test]
fn golden_document_round_trips() {
    let report = fixed_report();
    let golden = head()
        + r#""counters":{"cache.hit":7,"weird \"name\"\n":1},"#
        + r#""spans":{"stage.replay":{"count":1,"total_ns":1234567}},"#
        + r#""values":{"job.latency_us":{"count":2,"samples":[10,30]}}}"#;
    assert_eq!(encode_report(&report), golden);
    let back = decode_report(golden.as_bytes()).unwrap();
    assert_eq!(back, report);
    // The process's own totals ride the stats routes as plain counters,
    // sorted in among the recorder's.
    let stamped = with_process_counters(report.clone());
    let hashed = stamped.counter("digest.bytes_hashed");
    let with_hashed = format!(r#""cache.hit":7,"digest.bytes_hashed":{hashed},"#);
    assert_eq!(
        encode_report(&stamped),
        golden.replace(r#""cache.hit":7,"#, &with_hashed)
    );
    // What `comt submit --stats` prints is what a local `--stats` would.
    assert_eq!(back.render(), report.render());
    let empty = Report::default();
    assert_eq!(decode_report(encode_report(&empty).as_bytes()), Ok(empty));
    // The vendored `Value::Int` is an `i64`: a larger count reads back as
    // `i64::MAX`, not as a wrapped negative the decoder would then refuse.
    let mut huge = Report::default();
    huge.counters.insert("huge".into(), u64::MAX);
    let back = decode_report(encode_report(&huge).as_bytes()).unwrap();
    assert_eq!(back.counter("huge"), i64::MAX as u64);
}

#[test]
fn both_daemons_serve_the_one_document() {
    let registry = serve(comt_oci::Registry::new(), "127.0.0.1:0", Default::default()).unwrap();
    let svc = BuildService::start(comt_oci::layout::OciDir::new(), ServiceOptions::default());
    let buildd = serve_buildd(svc, "127.0.0.1:0", Default::default()).unwrap();
    for (addr, route) in [
        (registry.addr(), "/v2/_comt/stats"),
        (buildd.addr(), "/buildd/stats"),
    ] {
        let client = DistClient::new(addr.to_string());
        let (status, _, body) = client.raw_exchange("GET", route, &[], None).unwrap();
        assert_eq!(status, 200, "{route}");
        let text = String::from_utf8_lossy(&body);
        assert!(text.starts_with(&head()), "{route}: {text}");
        // Both carry state gauges, so neither document is empty, and
        // both the process's hashed-byte total.
        let report = decode_report(&body).unwrap_or_else(|e| panic!("{route}: {e} in {text}"));
        assert!(!report.counters.is_empty(), "{route}: {text}");
        assert!(report.counters.contains_key("digest.bytes_hashed"), "{route}: {text}");
    }
    drop(registry);
    buildd.shutdown().stop();
}

/// A delta pull against a disk-backed daemon publishes the index counters
/// and the store's fsyncs, under the names `docs/METRICS.md` lists.
#[test]
fn index_and_fsync_counters_are_served_under_their_documented_names() {
    let dir = std::env::temp_dir().join(format!("comt-metrics-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = serve(
        comt_oci::DiskRegistry::open(&dir).unwrap(),
        "127.0.0.1:0",
        Default::default(),
    )
    .unwrap();
    let client = DistClient::new(registry.addr().to_string());
    // Two versions of a 256 KiB object, one byte apart, pushed with maps.
    let mut local = comt_oci::BlobStore::new();
    let mut payload: Vec<u8> = (0..256u32 << 10)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    for tag in ["v1", "v2"] {
        let mut fs = comt_vfs::Vfs::new();
        fs.write_file_p("/app/bin", bytes::Bytes::from(payload.clone()), 0o755)
            .unwrap();
        let md = comt_oci::ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&comt_vfs::Vfs::new(), &fs)
            .commit(&mut local)
            .unwrap()
            .manifest_digest;
        let params = comt_chunk::ChunkParams::default();
        client
            .push_image_chunked("app", tag, md, &local, params)
            .unwrap();
        payload[100_000] ^= 0xff;
    }
    let mut site = comt_oci::BlobStore::new();
    for tag in ["v1", "v2"] {
        client.pull_image("app", tag, &mut site).unwrap();
    }

    let (status, _, body) = client
        .raw_exchange("GET", "/v2/_comt/stats", &[], None)
        .unwrap();
    assert_eq!(status, 200);
    let report = decode_report(&body).unwrap();
    let documented = include_str!("../../../docs/METRICS.md");
    for name in [
        "dist.client.index_blobs_mapped",
        "dist.client.index_bytes_scanned",
        "store.fsync",
    ] {
        assert!(report.counter(name) >= 1, "{name} not counted");
        assert!(
            documented.contains(&format!("`{name}`")),
            "{name} not in docs/METRICS.md"
        );
    }
    assert!(report.span("store.fsync").count >= 1);
    drop(registry);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn decoder_rejects_what_the_encoder_never_writes() {
    let body = |rest: &str| head() + rest;
    let samples = |n: usize| {
        let list = vec!["1"; n].join(",");
        body(&format!(
            r#""values":{{"v":{{"count":{n},"samples":[{list}]}}}}}}"#
        ))
    };
    assert!(decode_report(samples(8 * 2048).as_bytes()).is_ok());
    let whole = encode_report(&fixed_report());
    let rejected = [
        // The cases `Report::from_json`'s own test held.
        String::new(),
        body(r#""counters":{"#),
        body(r#""bogus":{}}"#),
        body(r#""counters":{}} trailing"#),
        whole[..whole.len() - 1].to_string(),
        // Schema: absent, another version, not a string; not an object.
        r#"{"counters":{}}"#.to_string(),
        r#"{"schema":"comt.metrics.v2","counters":{}}"#.to_string(),
        r#"{"schema":["comt.metrics.v1"]}"#.to_string(),
        "[]".to_string(),
        // Shape.
        body(r#""digest_backend":7}"#),
        body(r#""counters":[]}"#),
        body(r#""counters":{"n":-1}}"#),
        body(r#""counters":{"n":1.5}}"#),
        body(r#""counters":{"n":18446744073709551615}}"#),
        body(r#""counters":{"n":"1"}}"#),
        body(r#""counters":{"n":1,"n":2}}"#),
        body(r#""spans":{"s":{"count":1}}}"#),
        body(r#""spans":{"s":{"count":1,"total_ns":2,"extra":3}}}"#),
        body(r#""spans":{"s":{"count":1,"total_ns":-2}}}"#),
        body(r#""values":{"v":{"count":1,"samples":7}}}"#),
        body(r#""values":{"v":{"count":1,"samples":[1,null]}}}"#),
        samples(8 * 2048 + 1),
    ];
    for doc in &rejected {
        let shown = &doc[..doc.len().min(120)];
        assert!(decode_report(doc.as_bytes()).is_err(), "accepted {shown}");
    }
    assert!(decode_report(b"\xff\xfe{}").is_err(), "accepted non-UTF-8");
}

/// Names that take every path through the string writer and reader.
const NAME_CHARS: &str = "az.09_ \"\\/\n\t\u{0}\u{1f}é𝄞{}[]:,";

/// Random reports of a few entries per section, every number in the range
/// the document can carry exactly.
struct Reports;

impl Strategy for Reports {
    type Value = Report;

    fn sample(&self, rng: &mut TestRng) -> Report {
        let chars: Vec<char> = NAME_CHARS.chars().collect();
        let name = |rng: &mut TestRng| -> String {
            (0..1 + rng.below(8))
                .map(|_| chars[rng.below(chars.len() as u64) as usize])
                .collect()
        };
        let number = |rng: &mut TestRng| (rng.next_u64() >> 1) >> rng.below(63);
        let mut report = Report::default();
        for _ in 0..rng.below(4) {
            report.counters.insert(name(rng), number(rng));
        }
        for _ in 0..rng.below(3) {
            let span = report.spans.entry(name(rng)).or_default();
            span.count = number(rng);
            span.total = Duration::from_nanos(number(rng));
        }
        for _ in 0..rng.below(3) {
            let value = report.values.entry(name(rng)).or_default();
            value.count = number(rng);
            value.samples = (0..rng.below(5)).map(|_| number(rng)).collect();
        }
        report
    }
}

/// `Ok` or `Err`; and what decodes re-encodes to a document that decodes
/// to the same report.
fn decodes_to_a_fixed_point_or_errs(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(report) = decode_report(bytes) {
        prop_assert_eq!(decode_report(encode_report(&report).as_bytes()), Ok(report));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn reports_round_trip_and_hostile_bytes_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        report in Reports,
        edits in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>(), 0u8..3), 1..4),
    ) {
        decodes_to_a_fixed_point_or_errs(&noise)?;
        let mut doc = encode_report(&report).into_bytes();
        let back = decode_report(&doc);
        prop_assert_eq!(back.as_ref().map(Report::render), Ok(report.render()));
        prop_assert_eq!(back, Ok(report));
        // The same document with a few bytes overwritten, inserted or cut.
        for (at, byte, kind) in edits {
            let at = at.index(doc.len());
            match kind {
                0 => doc[at] = byte,
                1 => doc.insert(at, byte),
                _ => drop(doc.remove(at)),
            }
        }
        decodes_to_a_fixed_point_or_errs(&doc)?;
    }
}
