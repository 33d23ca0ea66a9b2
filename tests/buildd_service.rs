//! End-to-end multi-tenant rebuild service: a real coMtainer extended
//! image served by `comt buildd` over the loopback wire. Multiple tenants
//! submit concurrent rebuild jobs through one shared engine; the shared
//! content-addressed artifact cache must make a repeat workload compile
//! nothing, per-tenant quotas must hold under contention, and every
//! remote submitter must receive the same observe report a local
//! `comt rebuild --stats` run would print.

use comt_bench::Lab;
use comt_dist::{serve_buildd, BuilddClient, HttpOptions};
use comtainer::{
    load_cache, BuildService, JobSpec, RebuildEngine, RebuildOptions, ServiceOptions,
    SystemSide,
};
use comtainer_suite::pkg::catalog;
use std::time::Duration;

const EXT_REF: &str = "hpccg.dist+coM";
const DEADLINE: Duration = Duration::from_secs(120);

#[test]
fn concurrent_tenants_share_cache_over_the_wire() {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let art = lab.prepare_app("hpccg");

    // Reference run: what a *local* `comt rebuild --stats` would report
    // for this workload. Captured before the layout moves into the
    // daemon, against the same cache contents the daemon will load.
    let contents = load_cache(&art.oci, EXT_REF).expect("extended image has cache layers");
    let side = SystemSide::native("x86_64", catalog::MINI_SCALE).unwrap();
    let opts = RebuildOptions::default();
    let engine = RebuildEngine::new(&side, &opts);
    let local_artifacts = engine.run(&contents).unwrap();
    let local_report = engine.report();
    assert!(local_report.counter("steps.total") > 0);

    // Daemon: 2 workers, quota 1 job per tenant, paused so all four jobs
    // are queued before any dispatch — maximum contention for the
    // fairness and quota checks below.
    let svc = BuildService::start(
        art.oci,
        ServiceOptions {
            workers: 2,
            default_quota: 1,
            paused: true,
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

    // Four concurrent jobs from two tenants, all for the same workload.
    let mut ids = Vec::new();
    for tenant in ["alice", "alice", "bob", "bob"] {
        let status = client.submit(&JobSpec::new(tenant, EXT_REF)).unwrap();
        assert_eq!(status.state, "queued");
        assert_eq!(status.tenant, tenant);
        ids.push(status.id);
    }
    let listed = client.list(None).unwrap();
    assert_eq!(listed.len(), 4);
    assert_eq!(client.list(Some("alice")).unwrap().len(), 2);
    svc.resume();

    let mut finals = Vec::new();
    for &id in &ids {
        let fin = client.wait(id, DEADLINE).unwrap();
        assert_eq!(fin.state, "done", "job {id}: {:?}", fin.error);
        assert_eq!(fin.result_ref.as_deref(), Some("hpccg.dist+coMre"));
        finals.push(fin);
    }

    // Per-tenant quota held under contention: with quota 1 and 2 workers,
    // no tenant ever had two jobs running at once.
    let stats = client.stats().unwrap();
    for tenant in ["alice", "bob"] {
        let peak = stats.counter(&format!("service.tenant.{tenant}.running_max"));
        assert_eq!(peak, 1, "tenant {tenant} exceeded its quota");
    }
    assert_eq!(stats.counter("service.jobs.done"), 4);

    // The first wave ran against a cold shared cache. Which job pays for
    // a given compile depends on which worker reaches the cache first, so
    // the contract is over the wave: every job probed the cache once per
    // compile step, and every step was compiled at least once.
    let mut wave_compiles = 0;
    for &id in &ids {
        let report = client.report(id).unwrap().expect("done job report");
        assert_eq!(
            report.counter("cache.hit") + report.counter("cache.miss"),
            local_report.counter("steps.compile"),
            "job {id} must probe the cache once per compile step:\n{}",
            report.render()
        );
        wave_compiles += report.counter("exec.compile");
    }
    assert!(
        wave_compiles >= local_report.counter("steps.compile"),
        "a cold first wave must compile every step at least once: {wave_compiles} compiles"
    );

    // Every submitter's streamed report matches the local --stats run on
    // the engine's deterministic dimensions: same step counts, same
    // artifact count, same pipeline stages.
    for (&id, fin) in ids.iter().zip(&finals) {
        let report = client
            .report(id)
            .unwrap()
            .expect("done job streams its report");
        for counter in [
            "steps.total",
            "steps.compile",
            "steps.other",
            "collect.artifacts",
            "materialize.files",
        ] {
            assert_eq!(
                report.counter(counter),
                local_report.counter(counter),
                "job {id} ({}) diverged from local --stats on {counter}",
                fin.tenant
            );
        }
        for stage in ["stage.materialize", "stage.replay", "stage.collect"] {
            assert_eq!(
                report.span(stage).count,
                local_report.span(stage).count,
                "job {id} missing pipeline stage {stage}"
            );
        }
        assert_eq!(
            report.counter("collect.artifacts"),
            local_artifacts.len() as u64
        );
    }

    // A fifth job from a new tenant, after the cache is fully warm:
    // the shared artifact cache must satisfy every compile step, so the
    // engine execs zero compiles.
    let warm = client.submit(&JobSpec::new("carol", EXT_REF)).unwrap();
    let fin = client.wait(warm.id, DEADLINE).unwrap();
    assert_eq!(fin.state, "done", "warm job: {:?}", fin.error);
    let warm_report = client.report(warm.id).unwrap().expect("warm job report");
    assert_eq!(
        warm_report.counter("exec.compile"),
        0,
        "warm repeat workload must compile nothing:\n{}",
        warm_report.render()
    );
    assert!(
        warm_report.counter("cache.hit") >= 1,
        "warm job should hit the shared cache:\n{}",
        warm_report.render()
    );
    // Same workload, same outputs — only the cache path differs.
    assert_eq!(
        warm_report.counter("collect.artifacts"),
        local_report.counter("collect.artifacts")
    );
    // The service's layout holds the image's decoded cache layer and the
    // digests of its sources: a job over a held image hashes no input.
    assert_eq!(
        warm_report.counter("key.files_hashed"),
        0,
        "a job over a held image must hash no input file:\n{}",
        warm_report.render()
    );
    assert!(warm_report.counter("key.files_reused") > 0);
    assert!(client.stats().unwrap().counter("cache.load.reused") >= 1);

    // Log streaming is resumable: fetching from a mid-stream offset
    // returns exactly the suffix of the full log.
    let (full, next, done) = client.log(warm.id, 0).unwrap();
    assert!(done, "terminal job log is complete");
    assert_eq!(next, full.len());
    assert!(full.contains("engine finished"), "{full}");
    let mid = full.len() / 2;
    let (suffix, _, _) = client.log(warm.id, mid).unwrap();
    assert_eq!(suffix, full[mid..], "offset fetch must resume, not restart");

    // A tenant name must survive the `?tenant=` query and the metric
    // names: one that would not is refused at submit, naming the rule.
    for tenant in ["a&b", "a b"] {
        let msg = client
            .submit(&JobSpec::new(tenant, EXT_REF))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("400"), "{tenant:?}: {msg}");
        assert!(msg.contains("[A-Za-z0-9._-]{1,64}"), "{tenant:?}: {msg}");
    }
    assert!(client.list(Some("a")).unwrap().is_empty());
    assert_eq!(client.list(None).unwrap().len(), 5);

    let svc = server.shutdown();
    let report = svc.stats();
    assert_eq!(report.counter("service.jobs.done"), 5);
    assert!(report.counter("service.cache.hits") >= 1);
}
