//! `comt buildd` on the wire: job endpoints over the shared HTTP core,
//! plus the resumable client.
//!
//! The daemon side ([`serve_buildd`]) is a thin routing layer over
//! [`comtainer::BuildService`] — the multi-tenant scheduler, quota
//! accounting and shared artifact cache all live in the core engine; this
//! module only translates jobs to and from JSON. The wire surface:
//!
//! ```text
//! POST /buildd/jobs                    submit {tenant, ref, isa, lto,
//!                                      parallel, priority, targets} → 202
//!                                      + status; 422 + findings when the
//!                                      admission audit fails
//! GET  /buildd/jobs[?tenant=T]         list job statuses
//! GET  /buildd/jobs/<id>               one job status
//! POST /buildd/jobs/<id>/cancel        cancel (idempotent)
//! GET  /buildd/jobs/<id>/report        the job's metrics document
//!                                      ([`crate::metrics`]; 404 until the
//!                                      job is done)
//! GET  /buildd/jobs/<id>/log?offset=N  log suffix from byte N + done flag
//! GET  /buildd/stats                   service-level metrics document
//! ```
//!
//! [`BuilddClient`] rides [`DistClient`]'s transport — the same bounded
//! retry loop, per-attempt deadlines and jittered backoff the registry
//! client uses — so a flaky network between submitter and build farm is
//! survived, not surfaced. Log streaming is **resumable by construction**:
//! the client tracks its byte offset and re-requests the suffix, so a
//! dropped poll never loses or duplicates log lines. Completed jobs stream
//! their engine [`Report`] back, letting a remote submitter print exactly
//! what a local `--stats` run would.
//!
//! **Admission gate.** A submission that declares deployment `targets`
//! is statically audited (`comt_analyze::audit_extended_image`) before it
//! may queue: error-severity findings reject the job with HTTP 422 and
//! the findings in the JSON error body, so a submitter learns their image
//! cannot run on a declared target *at submit time*, not after a rebuild.
//! Jobs with no targets skip the gate — it is strictly opt-in.

use crate::http::{serve_http, HttpAction, HttpHandler, HttpOptions, HttpServer};
use crate::metrics::{decode_report, report_response, with_process_counters};
use crate::wire::{Request, Response};
use crate::DistClient;
use crate::DistError;
use comt_observe::Report;
use comtainer::{BuildService, JobSpec, JobStatus};
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Decode a job submission: the engine's own [`JobSpec`] in its serde
/// form, with the tenant name checked before the admission audit runs.
fn decode_job(body: &[u8]) -> Result<JobSpec, String> {
    let spec: JobSpec = serde_json::from_slice(body).map_err(|e| format!("bad job: {e}"))?;
    spec.check_tenant().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// A job status snapshot as it travels over the wire: `{id, tenant, ref,
/// state, priority, result_ref, error, started_seq}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobStatusWire {
    pub id: u64,
    pub tenant: String,
    #[serde(rename = "ref")]
    pub extended_ref: String,
    /// `queued | running | done | failed | cancelled`.
    pub state: String,
    pub priority: u8,
    pub result_ref: Option<String>,
    pub error: Option<String>,
    pub started_seq: Option<u64>,
}

impl JobStatusWire {
    pub fn is_terminal(&self) -> bool {
        matches!(self.state.as_str(), "done" | "failed" | "cancelled")
    }

    fn decode(v: &Value) -> Result<JobStatusWire, DistError> {
        JobStatusWire::from_value(v)
            .map_err(|e| DistError::protocol(format!("bad job status: {e}")))
    }

    fn from_status(s: &JobStatus) -> JobStatusWire {
        JobStatusWire {
            id: s.id,
            tenant: s.spec.tenant.clone(),
            extended_ref: s.spec.extended_ref.clone(),
            state: s.state.as_str().to_string(),
            priority: s.spec.priority,
            result_ref: s.result_ref.clone(),
            error: s.error.clone(),
            started_seq: s.started_seq,
        }
    }
}

/// The buildd routing layer over the shared HTTP core.
struct BuilddHandler {
    svc: Arc<BuildService>,
}

impl HttpHandler for BuilddHandler {
    fn metrics_prefix(&self) -> &'static str {
        "buildd.server"
    }

    fn handle(&self, req: &Request) -> (&'static str, HttpAction) {
        dispatch(req, &self.svc)
    }
}

fn json_response(status: u16, v: &Value) -> HttpAction {
    HttpAction::Respond(
        Response::new(status)
            .with_header("Content-Type", "application/json")
            .with_body(serde_json::to_string(v).expect("a Value tree serializes")),
    )
}

fn json_error(status: u16, detail: impl Into<String>) -> HttpAction {
    json_response(
        status,
        &Value::Object(vec![("error".into(), Value::Str(detail.into()))]),
    )
}

/// Route one buildd request.
fn dispatch(req: &Request, svc: &BuildService) -> (&'static str, HttpAction) {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    match (req.method.as_str(), path) {
        ("POST", "/buildd/jobs") => ("job_submit", job_submit(req, svc)),
        ("GET", "/buildd/jobs") => ("job_list", job_list(query, svc)),
        ("GET", "/buildd/stats") => (
            "stats",
            report_response(&with_process_counters(svc.stats())),
        ),
        (method, path) => {
            let Some(rest) = path.strip_prefix("/buildd/jobs/") else {
                return ("unroutable", json_error(404, format!("no route {path}")));
            };
            let (id_part, action) = match rest.split_once('/') {
                Some((id, action)) => (id, Some(action)),
                None => (rest, None),
            };
            let Ok(id) = id_part.parse::<u64>() else {
                return ("unroutable", json_error(400, format!("bad job id {id_part:?}")));
            };
            match (method, action) {
                ("GET", None) => ("job_status", job_status(id, svc)),
                ("POST", Some("cancel")) => ("job_cancel", job_cancel(id, svc)),
                ("GET", Some("report")) => ("job_report", job_report(id, svc)),
                ("GET", Some("log")) => ("job_log", job_log(id, query, svc)),
                _ => ("unroutable", json_error(404, format!("no route {path}"))),
            }
        }
    }
}

fn job_submit(req: &Request, svc: &BuildService) -> HttpAction {
    let spec = match decode_job(&req.body) {
        Ok(spec) => spec,
        Err(e) => return json_error(400, e),
    };
    if let Err(e) = comtainer::check_isa(&spec.isa) {
        return json_error(400, e.to_string());
    }
    if !spec.targets.is_empty() {
        if let Some(rejection) = admission_audit(&spec, svc) {
            return rejection;
        }
    }
    match svc.submit(spec) {
        Ok(id) => {
            let status = svc.status(id).expect("submitted job exists");
            json_response(202, &JobStatusWire::from_status(&status).to_value())
        }
        Err(e) => json_error(400, e.to_string()),
    }
}

/// The admission gate: a submission declaring deployment targets is
/// statically audited against them before it may queue. `None` admits;
/// `Some(response)` rejects — 400 when the audit itself cannot run
/// (unknown target, not an extended image), 422 with the error-severity
/// findings in the JSON body when the image fails the audit.
fn admission_audit(spec: &JobSpec, svc: &BuildService) -> Option<HttpAction> {
    use comtainer::{LtoAdapter, NativeToolchainAdapter, SystemAdapter};
    let audit = svc.with_layout(|oci| {
        let mut adapters: Vec<Box<dyn SystemAdapter>> = vec![Box::new(NativeToolchainAdapter)];
        if spec.lto {
            adapters.push(Box::new(LtoAdapter::whole_graph()));
        }
        let toolchain = comt_toolchain::Toolchain::vendor_for(&spec.isa);
        comt_analyze::audit_extended_image(oci, &spec.extended_ref, &spec.targets, &toolchain, &adapters)
    });
    let report = match audit {
        Ok(report) => report,
        Err(e) => {
            return Some(json_error(
                400,
                format!("admission audit of {:?}: {e}", spec.extended_ref),
            ))
        }
    };
    if !report.has_errors() {
        return None;
    }
    let errors: Vec<&comt_analyze::Diagnostic> = report
        .report
        .diagnostics
        .iter()
        .filter(|d| d.severity == comt_analyze::Severity::Error)
        .collect();
    let mut codes: Vec<&str> = errors.iter().map(|d| d.code).collect();
    codes.dedup();
    let findings: Vec<Value> = errors
        .iter()
        .map(|d| {
            Value::Object(vec![
                ("code".into(), Value::Str(d.code.to_string())),
                ("severity".into(), Value::Str("error".into())),
                ("message".into(), Value::Str(d.message.clone())),
            ])
        })
        .collect();
    let summary = format!(
        "admission audit rejected {:?} for targets [{}]: {} finding(s) ({})",
        spec.extended_ref,
        spec.targets.join(", "),
        errors.len(),
        codes.join(", "),
    );
    Some(json_response(
        422,
        &Value::Object(vec![
            ("error".into(), Value::Str(summary)),
            ("findings".into(), Value::Array(findings)),
        ]),
    ))
}

fn job_list(query: Option<&str>, svc: &BuildService) -> HttpAction {
    let tenant = query.and_then(|q| {
        q.split('&')
            .find_map(|kv| kv.strip_prefix("tenant=").map(String::from))
    });
    let jobs: Vec<Value> = svc
        .list(tenant.as_deref())
        .iter()
        .map(|s| JobStatusWire::from_status(s).to_value())
        .collect();
    json_response(200, &Value::Array(jobs))
}

fn job_status(id: u64, svc: &BuildService) -> HttpAction {
    match svc.status(id) {
        Some(s) => json_response(200, &JobStatusWire::from_status(&s).to_value()),
        None => json_error(404, format!("no job {id}")),
    }
}

fn job_cancel(id: u64, svc: &BuildService) -> HttpAction {
    match svc.cancel(id) {
        Some(s) => json_response(200, &JobStatusWire::from_status(&s).to_value()),
        None => json_error(404, format!("no job {id}")),
    }
}

fn job_report(id: u64, svc: &BuildService) -> HttpAction {
    if svc.status(id).is_none() {
        return json_error(404, format!("no job {id}"));
    }
    match svc.report(id) {
        Some(report) => report_response(&report),
        None => json_error(404, format!("job {id} has no report yet")),
    }
}

fn job_log(id: u64, query: Option<&str>, svc: &BuildService) -> HttpAction {
    let offset = query
        .and_then(|q| {
            q.split('&')
                .find_map(|kv| kv.strip_prefix("offset="))
                .and_then(|v| v.parse::<usize>().ok())
        })
        .unwrap_or(0);
    match svc.log(id, offset) {
        Some((chunk, done)) => json_response(
            200,
            &Value::Object(vec![
                ("offset".into(), Value::Int(offset as i64)),
                ("next".into(), Value::Int((offset + chunk.len()) as i64)),
                ("data".into(), Value::Str(chunk)),
                ("done".into(), Value::Bool(done)),
            ]),
        ),
        None => json_error(404, format!("no job {id}")),
    }
}

/// A running buildd daemon. [`shutdown`](BuilddServer::shutdown) joins the
/// HTTP threads and hands the service back (running jobs keep running
/// until [`BuildService::stop`]).
pub struct BuilddServer {
    http: HttpServer,
    svc: Arc<BuildService>,
}

impl BuilddServer {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Stop serving the wire and hand the service back.
    pub fn shutdown(self) -> Arc<BuildService> {
        let BuilddServer { http, svc } = self;
        http.shutdown();
        svc
    }
}

/// Serve `svc` on `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
pub fn serve_buildd(
    svc: Arc<BuildService>,
    addr: &str,
    opts: HttpOptions,
) -> io::Result<BuilddServer> {
    let handler = Arc::new(BuilddHandler {
        svc: Arc::clone(&svc),
    });
    let http = serve_http(handler, addr, opts)?;
    Ok(BuilddServer { http, svc })
}

/// Client for a remote buildd, in [`DistClient`] style: every call runs
/// under the bounded retry loop, and log streaming resumes from the last
/// received byte across dropped connections.
#[derive(Debug, Clone)]
pub struct BuilddClient {
    http: DistClient,
    /// Poll cadence for [`wait`](Self::wait) / [`stream_logs`](Self::stream_logs).
    pub poll_interval: Duration,
}

impl BuilddClient {
    pub fn new(addr: impl Into<String>) -> Self {
        BuilddClient {
            http: DistClient::new(addr),
            poll_interval: Duration::from_millis(50),
        }
    }

    pub fn addr(&self) -> &str {
        self.http.addr()
    }

    /// One JSON exchange under the retry loop; parses the response body.
    fn exchange_json(
        &self,
        op: &'static str,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Value), DistError> {
        self.http.retrying(op, || {
            let headers = [("Content-Type".to_string(), "application/json".to_string())];
            let (status, _, resp) =
                self.http
                    .raw_exchange(method, path, &headers, body.map(str::as_bytes))?;
            if status >= 500 {
                return Err(DistError::status(op, status, &resp));
            }
            let text = std::str::from_utf8(&resp)
                .map_err(|e| DistError::protocol(format!("{op}: body not UTF-8: {e}")))?;
            let v = serde_json::parse_value(text)
                .map_err(|e| DistError::protocol(format!("{op}: bad JSON: {e}")))?;
            Ok((status, v))
        })
    }

    fn expect_status(op: &'static str, status: u16, v: &Value) -> Result<(), DistError> {
        if (200..300).contains(&status) {
            return Ok(());
        }
        let detail = v
            .as_object()
            .and_then(|o| Value::field(o, "error"))
            .and_then(|e| e.as_str())
            .unwrap_or("unknown error");
        Err(DistError::status(op, status, detail.as_bytes()))
    }

    /// Submit a job; returns its status snapshot (with the assigned id).
    pub fn submit(&self, spec: &JobSpec) -> Result<JobStatusWire, DistError> {
        let body = serde_json::to_string(spec).expect("a JobSpec serializes");
        let (status, v) = self.exchange_json("submit job", "POST", "/buildd/jobs", Some(&body))?;
        Self::expect_status("submit job", status, &v)?;
        JobStatusWire::decode(&v)
    }

    /// One job's status.
    pub fn status(&self, id: u64) -> Result<JobStatusWire, DistError> {
        let (status, v) =
            self.exchange_json("job status", "GET", &format!("/buildd/jobs/{id}"), None)?;
        Self::expect_status("job status", status, &v)?;
        JobStatusWire::decode(&v)
    }

    /// All jobs, optionally filtered by tenant.
    pub fn list(&self, tenant: Option<&str>) -> Result<Vec<JobStatusWire>, DistError> {
        let path = match tenant {
            Some(t) => format!("/buildd/jobs?tenant={t}"),
            None => "/buildd/jobs".to_string(),
        };
        let (status, v) = self.exchange_json("list jobs", "GET", &path, None)?;
        Self::expect_status("list jobs", status, &v)?;
        match v {
            Value::Array(items) => items.iter().map(JobStatusWire::decode).collect(),
            other => Err(DistError::protocol(format!(
                "job list must be an array, got {other:?}"
            ))),
        }
    }

    /// Cancel a job (idempotent); returns its post-cancel status.
    pub fn cancel(&self, id: u64) -> Result<JobStatusWire, DistError> {
        let (status, v) = self.exchange_json(
            "cancel job",
            "POST",
            &format!("/buildd/jobs/{id}/cancel"),
            None,
        )?;
        Self::expect_status("cancel job", status, &v)?;
        JobStatusWire::decode(&v)
    }

    /// GET one metrics document ([`crate::metrics`]); `Ok(None)` on a 404.
    fn metrics(&self, op: &'static str, path: &str) -> Result<Option<Report>, DistError> {
        self.http.retrying(op, || {
            let (status, _, body) = self.http.raw_exchange("GET", path, &[], None)?;
            match status {
                200 => decode_report(&body)
                    .map(Some)
                    .map_err(|e| DistError::protocol(format!("{op}: {e}"))),
                404 => Ok(None),
                s => Err(DistError::status(op, s, &body)),
            }
        })
    }

    /// The engine report for a completed job — `Ok(None)` while the job
    /// has not produced one yet.
    pub fn report(&self, id: u64) -> Result<Option<Report>, DistError> {
        self.metrics("job report", &format!("/buildd/jobs/{id}/report"))
    }

    /// Fetch the log suffix starting at byte `offset`. Returns the chunk,
    /// the next offset, and whether the job is terminal.
    pub fn log(&self, id: u64, offset: usize) -> Result<(String, usize, bool), DistError> {
        let (status, v) = self.exchange_json(
            "job log",
            "GET",
            &format!("/buildd/jobs/{id}/log?offset={offset}"),
            None,
        )?;
        Self::expect_status("job log", status, &v)?;
        let obj = v
            .as_object()
            .ok_or_else(|| DistError::protocol("log response must be an object"))?;
        let data = Value::field(obj, "data")
            .and_then(|d| d.as_str())
            .ok_or_else(|| DistError::protocol("log response missing data"))?
            .to_string();
        let next = match Value::field(obj, "next") {
            Some(Value::Int(n)) if *n >= 0 => *n as usize,
            _ => offset + data.len(),
        };
        let done = matches!(Value::field(obj, "done"), Some(Value::Bool(true)));
        Ok((data, next, done))
    }

    /// Stream the job log into `sink` until the job is terminal, resuming
    /// from the last received byte on every poll (and therefore across
    /// retried connections). Returns the terminal status.
    pub fn stream_logs(
        &self,
        id: u64,
        mut sink: impl FnMut(&str),
    ) -> Result<JobStatusWire, DistError> {
        let mut offset = 0usize;
        loop {
            let (chunk, next, done) = self.log(id, offset)?;
            if !chunk.is_empty() {
                sink(&chunk);
            }
            offset = next;
            if done {
                return self.status(id);
            }
            std::thread::sleep(self.poll_interval);
        }
    }

    /// Poll until the job is terminal or `deadline` elapses.
    pub fn wait(&self, id: u64, deadline: Duration) -> Result<JobStatusWire, DistError> {
        let started = Instant::now();
        loop {
            let status = self.status(id)?;
            if status.is_terminal() {
                return Ok(status);
            }
            if started.elapsed() > deadline {
                return Err(DistError::protocol(format!(
                    "job {id} still {} after {deadline:?}",
                    status.state
                )));
            }
            std::thread::sleep(self.poll_interval);
        }
    }

    /// The daemon's service-level stats report.
    pub fn stats(&self) -> Result<Report, DistError> {
        self.metrics("buildd stats", "/buildd/stats")?
            .ok_or_else(|| DistError::status("buildd stats", 404, b""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn job_request_round_trips() {
        let mut jr = JobSpec::new("alice", "app.dist+coM");
        jr.lto = true;
        jr.priority = 7;
        jr.targets = vec!["x86-64-v2".into(), "armv8.2-a".into()];
        let body = serde_json::to_string(&jr).unwrap();
        // The submission bytes predate the derive; they must not drift.
        assert_eq!(
            body,
            r#"{"tenant":"alice","ref":"app.dist+coM","isa":"x86_64","lto":true,"parallel":false,"priority":7,"targets":["x86-64-v2","armv8.2-a"]}"#
        );
        let back = decode_job(body.as_bytes()).unwrap();
        assert_eq!(back, jr);
    }

    #[test]
    fn job_request_defaults_and_rejects() {
        let jr = decode_job(br#"{"tenant":"t","ref":"a.dist+coM"}"#.as_ref()).unwrap();
        assert_eq!(jr.isa, "x86_64");
        assert!(!jr.lto && !jr.parallel);
        assert_eq!(jr.priority, 0);
        assert!(jr.targets.is_empty());
        assert!(
            decode_job(br#"{"tenant":"t","ref":"x","targets":[1]}"#.as_ref()).is_err(),
            "non-string target rejected"
        );
        assert!(decode_job(b"not json").is_err());
        assert!(decode_job(br#"{"ref":"x"}"#.as_ref()).is_err());
        assert!(
            decode_job(br#"{"tenant":"","ref":"x"}"#.as_ref()).is_err(),
            "empty tenant rejected"
        );
        assert!(decode_job(br#"{"tenant":"t","ref":"x","priority":999}"#.as_ref()).is_err());
    }

    #[test]
    fn job_decoder_refuses_a_non_string_isa_and_unlistable_tenants() {
        let err = decode_job(br#"{"tenant":"t","ref":"x","isa":7}"#.as_ref()).unwrap_err();
        assert!(err.contains("string"), "{err}");
        for tenant in ["a&b", "a b", "a?b", "a%26b"] {
            let body = format!(r#"{{"tenant":"{tenant}","ref":"x"}}"#);
            let err = decode_job(body.as_bytes()).unwrap_err();
            assert!(err.contains("[A-Za-z0-9._-]{1,64}"), "{tenant:?}: {err}");
        }
    }

    #[test]
    fn job_status_wire_round_trips() {
        let s = JobStatusWire {
            id: 42,
            tenant: "alice".into(),
            extended_ref: "app.dist+coM".into(),
            state: "done".into(),
            priority: 3,
            result_ref: Some("app.dist+coMre".into()),
            error: None,
            started_seq: Some(7),
        };
        // The bytes a status travels as.
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"id":42,"tenant":"alice","ref":"app.dist+coM","state":"done","priority":3,"result_ref":"app.dist+coMre","error":null,"started_seq":7}"#
        );
        let back = JobStatusWire::decode(&s.to_value()).unwrap();
        assert_eq!(back, s);
        assert!(back.is_terminal());
        let queued = JobStatusWire {
            state: "queued".into(),
            result_ref: None,
            started_seq: None,
            ..s
        };
        let back = JobStatusWire::decode(&queued.to_value()).unwrap();
        assert!(!back.is_terminal());
        assert_eq!(back.result_ref, None);
    }

    #[test]
    fn job_status_priority_out_of_range_is_a_protocol_error() {
        let v = serde_json::parse_value(
            r#"{"id":1,"tenant":"alice","ref":"app.dist+coM","state":"queued","priority":300,"result_ref":null,"error":null,"started_seq":null}"#,
        )
        .unwrap();
        let err = JobStatusWire::decode(&v).unwrap_err();
        assert!(matches!(err, DistError::Protocol { .. }), "{err:?}");
    }

    /// Random jobs whose strings take every path through the JSON writer,
    /// tenants inside and outside the rule.
    struct Jobs;

    impl Strategy for Jobs {
        type Value = JobSpec;

        fn sample(&self, rng: &mut TestRng) -> JobSpec {
            let chars: Vec<char> = "aZ09._-&= \"\\/\n\u{0}é".chars().collect();
            let text = |rng: &mut TestRng, max: u64| -> String {
                (0..rng.below(max))
                    .map(|_| chars[rng.below(chars.len() as u64) as usize])
                    .collect()
            };
            let mut spec = JobSpec::new(&text(rng, 10), &text(rng, 24));
            spec.isa = text(rng, 8);
            spec.lto = rng.below(2) == 1;
            spec.parallel = rng.below(2) == 1;
            spec.priority = rng.below(256) as u8;
            spec.targets = (0..rng.below(3)).map(|_| text(rng, 12)).collect();
            spec
        }
    }

    /// `Ok` only for a body whose `tenant` and `ref` are strings and whose
    /// `priority`, if given, fits a `u8`; and what decodes re-encodes to a
    /// body that decodes to the same job.
    fn decodes_to_a_fixed_point_or_errs(body: &[u8]) -> Result<(), TestCaseError> {
        let Ok(spec) = decode_job(body) else {
            return Ok(());
        };
        let v = serde_json::from_slice::<Value>(body).map_err(TestCaseError::fail)?;
        let obj = v.as_object().ok_or_else(|| TestCaseError::fail("Ok for a non-object"))?;
        prop_assert!(matches!(Value::field(obj, "tenant"), Some(Value::Str(_))));
        prop_assert!(matches!(Value::field(obj, "ref"), Some(Value::Str(_))));
        prop_assert!(matches!(
            Value::field(obj, "priority"),
            None | Some(Value::Int(0..=255))
        ));
        let again = serde_json::to_string(&spec).unwrap();
        prop_assert_eq!(decode_job(again.as_bytes()), Ok(spec));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn job_bodies_round_trip_and_hostile_bytes_never_panic(
            noise in prop::collection::vec(any::<u8>(), 0..96),
            spec in Jobs,
            edits in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>(), 0u8..3), 1..4),
        ) {
            decodes_to_a_fixed_point_or_errs(&noise)?;
            let mut body = serde_json::to_string(&spec).unwrap().into_bytes();
            decodes_to_a_fixed_point_or_errs(&body)?;
            prop_assert_eq!(decode_job(&body).is_ok(), spec.check_tenant().is_ok());
            // The same body with a few bytes overwritten, inserted or cut.
            for (at, byte, kind) in edits {
                let at = at.index(body.len());
                match kind {
                    0 => body[at] = byte,
                    1 => body.insert(at, byte),
                    _ => drop(body.remove(at)),
                }
            }
            decodes_to_a_fixed_point_or_errs(&body)?;
        }
    }
}
