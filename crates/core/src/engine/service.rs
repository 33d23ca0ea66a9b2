//! `comt buildd`'s multi-tenant rebuild service: the staged engine owned by
//! a long-lived daemon instead of a one-shot CLI process.
//!
//! [`BuildService`] turns rebuilds into first-class **jobs**: a
//! [`JobSpec`] (tenant, extended ref, ISA, adapter knobs, priority) is
//! submitted, queued, and executed by a fixed pool of worker threads, each
//! running the ordinary [`crate::engine::RebuildEngine`] pipeline. What the
//! service adds over `comt rebuild` in a loop:
//!
//! * **tenant-fair scheduling** — the dispatcher round-robins across
//!   tenants that have queued work and are under their running-job quota,
//!   so one tenant flooding the queue cannot starve another; within a
//!   tenant, higher [`JobSpec::priority`] wins, FIFO breaks ties;
//! * **per-tenant quotas** — at most N jobs of one tenant run at once
//!   ([`ServiceOptions::default_quota`], overridable per tenant); excess
//!   jobs queue without blocking other tenants' slots;
//! * **a shared artifact cache** — every job probes and fills one sharded
//!   [`ArtifactCache`], so a warm rebuild of a popular workload is nearly
//!   free *across* tenants (content addressing makes sharing safe: equal
//!   keys imply equal adapted inputs);
//! * **cancellation** — a queued job cancels immediately and releases its
//!   queue slot; a running job is cancelled cooperatively (its outputs are
//!   discarded at completion, and its running slot frees for the tenant);
//! * **per-job observability** — each job keeps the engine's
//!   [`Report`] so a remote submitter can see the same `--stats` output a
//!   local run would print, plus an append-only log streamed over the wire.
//!
//! The service owns the OCI layout. Reads (loading the cache layers) and
//! writes (registering `+coMre` result refs) take a short layout lock; the
//! engine run itself — the expensive part — holds no service-wide lock, so
//! jobs genuinely overlap. With [`ServiceOptions::persist`] set, the layout
//! is saved crash-safely after every completed job, so a `kill -9` of the
//! daemon never tears the on-disk state (`comt fsck` stays clean).

use crate::backend::RebuildOptions;
use crate::cache::{load_cache, write_rebuild};
use crate::engine::{ArtifactCache, RebuildEngine};
use crate::workflow::SystemSide;
use crate::{ComtError, LtoAdapter, Phase};
use comt_observe::{Recorder, Report};
use comt_oci::layout::OciDir;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker threads = max jobs in flight across all tenants.
    pub workers: usize,
    /// Max running jobs per tenant unless overridden (`0` = unlimited).
    pub default_quota: usize,
    /// Per-tenant quota overrides.
    pub quotas: HashMap<String, usize>,
    /// Payload scale for [`SystemSide::native`] construction.
    pub scale: f64,
    /// When set, the layout is crash-safely saved here after every job
    /// that registers a result ref.
    pub persist: Option<PathBuf>,
    /// Bound on shared artifact-cache residency (entries); `None` keeps
    /// every step output for the daemon's lifetime.
    pub cache_capacity: Option<usize>,
    /// Start with dispatch paused; jobs queue until [`BuildService::resume`].
    /// Lets tests build a deterministic queue before any worker picks.
    pub paused: bool,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 2,
            default_quota: 2,
            quotas: HashMap::new(),
            scale: comt_pkg::catalog::MINI_SCALE,
            persist: None,
            cache_capacity: None,
            paused: false,
        }
    }
}

/// What to rebuild, for whom, and how urgently. Its JSON form is the body
/// of a buildd submission: `{tenant, ref, isa, lto, parallel, priority,
/// targets}`, where only `tenant` and `ref` are required.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Submitting tenant; the unit of quota accounting and fairness.
    /// Checked by [`JobSpec::check_tenant`].
    pub tenant: String,
    /// Extended image ref (`…+coM`) in the service's layout.
    #[serde(rename = "ref")]
    pub extended_ref: String,
    /// Target ISA for the system side.
    #[serde(default = "default_isa")]
    pub isa: String,
    /// Apply the whole-graph LTO adapter.
    #[serde(default)]
    pub lto: bool,
    /// Ready-queue parallel replay within the job.
    #[serde(default)]
    pub parallel: bool,
    /// Within-tenant priority; higher dispatches first.
    #[serde(default)]
    pub priority: u8,
    /// Declared deployment targets (`x86-64-v2`, …). Non-empty opts the
    /// job into the admission audit at the buildd wire layer.
    #[serde(default)]
    pub targets: Vec<String>,
}

fn default_isa() -> String {
    "x86_64".to_string()
}

/// The tenant names a job may carry. A tenant travels as a query
/// parameter (`GET /buildd/jobs?tenant=…`) and inside metric names
/// (`service.tenant.<name>.running_max`), so nothing that needs escaping
/// in either is admitted.
const TENANT_RULE: &str = "[A-Za-z0-9._-]{1,64}";

impl JobSpec {
    /// A default-shaped job: native x86-64, serial replay, priority 0.
    pub fn new(tenant: &str, extended_ref: &str) -> Self {
        JobSpec {
            tenant: tenant.to_string(),
            extended_ref: extended_ref.to_string(),
            isa: default_isa(),
            lto: false,
            parallel: false,
            priority: 0,
            targets: vec![],
        }
    }

    /// Refuse a tenant name outside `[A-Za-z0-9._-]{1,64}`.
    pub fn check_tenant(&self) -> Result<(), ComtError> {
        let t = &self.tenant;
        let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
        if (1..=64).contains(&t.len()) && t.chars().all(allowed) {
            return Ok(());
        }
        Err(
            ComtError::oci(format!("tenant {t:?} must match {TENANT_RULE}"))
                .with_phase(Phase::Frontend),
        )
    }
}

/// Job lifecycle: `Queued → Running → Done | Failed | Cancelled` (queued
/// jobs may also go straight to `Cancelled`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Point-in-time snapshot of one job, as returned by
/// [`BuildService::status`] / [`BuildService::list`].
#[derive(Debug, Clone)]
pub struct JobStatus {
    pub id: u64,
    pub spec: JobSpec,
    pub state: JobState,
    /// The registered `+coMre` ref once the job is `Done`.
    pub result_ref: Option<String>,
    /// Failure detail once the job is `Failed`.
    pub error: Option<String>,
    /// Global dispatch sequence number (1-based) — jobs that started
    /// earlier have smaller values. Lets tests assert fairness ordering.
    pub started_seq: Option<u64>,
    pub finished_seq: Option<u64>,
}

/// Mutable record behind one job id.
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    result_ref: Option<String>,
    error: Option<String>,
    report: Option<Report>,
    log: String,
    cancel_requested: bool,
    started_seq: Option<u64>,
    finished_seq: Option<u64>,
}

impl JobRecord {
    fn snapshot(&self, id: u64) -> JobStatus {
        JobStatus {
            id,
            spec: self.spec.clone(),
            state: self.state,
            result_ref: self.result_ref.clone(),
            error: self.error.clone(),
            started_seq: self.started_seq,
            finished_seq: self.finished_seq,
        }
    }

    fn log_line(&mut self, line: &str) {
        self.log.push_str(line);
        self.log.push('\n');
    }
}

/// Scheduler + job-table state under the service mutex.
#[derive(Default)]
struct SvcState {
    jobs: BTreeMap<u64, JobRecord>,
    /// Queued job ids in submission order.
    queue: Vec<u64>,
    next_id: u64,
    /// Global start/finish sequence counter.
    seq: u64,
    /// Tenant → currently running job count.
    running: HashMap<String, usize>,
    /// Tenant → max running observed (quota-enforcement evidence).
    running_max: HashMap<String, usize>,
    /// Tenant → tick of its most recent dispatch (round-robin clock).
    last_pick: HashMap<String, u64>,
    pick_tick: u64,
    paused: bool,
    stopping: bool,
}

struct Inner {
    state: Mutex<SvcState>,
    /// Workers wait here for dispatchable jobs; also notified on every job
    /// completion so [`BuildService::wait`] can observe transitions.
    wake: Condvar,
    cache: Arc<ArtifactCache>,
    oci: Mutex<OciDir>,
    opts: ServiceOptions,
    recorder: Recorder,
    /// Constructed system sides, keyed by `(isa, lto)` — building one is
    /// far more expensive than any lookup, and sides are immutable.
    sides: Mutex<HashMap<(String, bool), Arc<SystemSide>>>,
}

impl Inner {
    fn quota(&self, tenant: &str) -> usize {
        let q = self
            .opts
            .quotas
            .get(tenant)
            .copied()
            .unwrap_or(self.opts.default_quota);
        if q == 0 {
            usize::MAX
        } else {
            q
        }
    }

    /// Pick the next dispatchable job under tenant fairness, mark it
    /// Running, and return its id + spec. Caller holds the state lock.
    fn pick(&self, st: &mut SvcState) -> Option<(u64, JobSpec)> {
        // Tenants with queued work and a free quota slot.
        let mut eligible: Vec<&str> = Vec::new();
        for id in &st.queue {
            let tenant = st.jobs[id].spec.tenant.as_str();
            if eligible.contains(&tenant) {
                continue;
            }
            if st.running.get(tenant).copied().unwrap_or(0) < self.quota(tenant) {
                eligible.push(tenant);
            }
        }
        // Round-robin: least-recently dispatched tenant first; tenant name
        // breaks ties so dispatch order is deterministic.
        let tenant = eligible
            .into_iter()
            .min_by_key(|t| (st.last_pick.get(*t).copied().unwrap_or(0), t.to_string()))?
            .to_string();
        // Within the tenant: highest priority, then FIFO by id.
        let (qidx, id) = st
            .queue
            .iter()
            .enumerate()
            .filter(|(_, id)| st.jobs[id].spec.tenant == tenant)
            .max_by_key(|(_, id)| (st.jobs[*id].spec.priority, u64::MAX - **id))
            .map(|(i, id)| (i, *id))?;
        st.queue.remove(qidx);
        st.seq += 1;
        st.pick_tick += 1;
        let seq = st.seq;
        let tick = st.pick_tick;
        st.last_pick.insert(tenant.clone(), tick);
        let slot = st.running.entry(tenant.clone()).or_insert(0);
        *slot += 1;
        let now = *slot;
        let max = st.running_max.entry(tenant).or_insert(0);
        *max = (*max).max(now);
        let job = st.jobs.get_mut(&id).expect("queued job exists");
        job.state = JobState::Running;
        job.started_seq = Some(seq);
        job.log_line(&format!("started (dispatch seq {seq})"));
        Some((id, job.spec.clone()))
    }

    /// Get-or-build the system side for a job's `(isa, lto)` shape.
    fn side_for(&self, spec: &JobSpec) -> Result<Arc<SystemSide>, ComtError> {
        let key = (spec.isa.clone(), spec.lto);
        if let Some(side) = self
            .sides
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            return Ok(Arc::clone(side));
        }
        let mut side = SystemSide::native(&spec.isa, self.opts.scale)?;
        if spec.lto {
            side = side.with_adapter(Box::new(LtoAdapter::whole_graph()));
        }
        let side = Arc::new(side);
        self.sides
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert_with(|| Arc::clone(&side));
        Ok(side)
    }

    fn lock_state(&self) -> MutexGuard<'_, SvcState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One worker's dispatch-execute loop.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let picked = {
                let mut st = self.lock_state();
                loop {
                    if st.stopping {
                        return;
                    }
                    if !st.paused {
                        if let Some(picked) = self.pick(&mut st) {
                            break picked;
                        }
                    }
                    st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.recorder.count("service.jobs.dispatched", 1);
            self.run_job(picked.0, &picked.1);
        }
    }

    /// Execute one job end to end and record its terminal state.
    fn run_job(&self, id: u64, spec: &JobSpec) {
        let started = Instant::now();
        let outcome = self.execute(id, spec);
        let mut st = self.lock_state();
        st.seq += 1;
        let seq = st.seq;
        if let Some(n) = st.running.get_mut(&spec.tenant) {
            *n = n.saturating_sub(1);
        }
        let job = st.jobs.get_mut(&id).expect("running job exists");
        job.finished_seq = Some(seq);
        if job.cancel_requested {
            // Cooperative cancellation: the engine ran to completion but
            // the result is discarded and never registered.
            job.state = JobState::Cancelled;
            job.log_line("cancelled (result discarded)");
            self.recorder.count("service.jobs.cancelled", 1);
        } else {
            match outcome {
                Ok((result_ref, report)) => {
                    job.state = JobState::Done;
                    job.log_line(&format!("done: registered {result_ref}"));
                    job.result_ref = Some(result_ref);
                    job.report = Some(report);
                    self.recorder.count("service.jobs.done", 1);
                }
                Err(e) => {
                    job.state = JobState::Failed;
                    job.error = Some(e.to_string());
                    job.log_line(&format!("failed: {e}"));
                    self.recorder.count("service.jobs.failed", 1);
                }
            }
        }
        self.recorder
            .record_value("service.job.run_us", started.elapsed().as_micros() as u64);
        drop(st);
        self.wake.notify_all();
    }

    /// The actual pipeline: load cache layers → engine run → register the
    /// result ref → optional crash-safe persist. Only the short load and
    /// register sections hold the layout lock.
    fn execute(&self, id: u64, spec: &JobSpec) -> Result<(String, Report), ComtError> {
        let side = self.side_for(spec)?;
        let contents = {
            let oci = self.oci.lock().unwrap_or_else(|e| e.into_inner());
            load_cache(&oci, &spec.extended_ref)?
        };
        self.job_log(id, "cache layers loaded, engine starting");
        let opts = RebuildOptions {
            parallel: spec.parallel,
            artifact_cache: Some(Arc::clone(&self.cache)),
            ..RebuildOptions::default()
        };
        let engine = RebuildEngine::new(&side, &opts);
        let artifacts = engine.run(&contents)?;
        let report = engine.report();
        self.job_log(
            id,
            &format!(
                "engine finished: {} artifacts, {} compile execs",
                artifacts.len(),
                report.counter("exec.compile")
            ),
        );
        if self.lock_state().jobs[&id].cancel_requested {
            // Don't register or persist a cancelled job's output.
            return Ok((String::new(), report));
        }
        let mut oci = self.oci.lock().unwrap_or_else(|e| e.into_inner());
        let result_ref = write_rebuild(&mut oci, &spec.extended_ref, &artifacts)?;
        if let Some(dir) = &self.opts.persist {
            oci.save(dir).map_err(|e| {
                ComtError::oci(format!("persist to {} failed: {e}", dir.display()))
                    .with_phase(Phase::Storage)
            })?;
            self.job_log(id, "layout persisted");
        }
        Ok((result_ref, report))
    }

    fn job_log(&self, id: u64, line: &str) {
        if let Some(job) = self.lock_state().jobs.get_mut(&id) {
            job.log_line(line);
        }
    }
}

/// The long-lived multi-tenant rebuild service. See the module docs.
pub struct BuildService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl BuildService {
    /// Take ownership of a layout and start the worker pool.
    pub fn start(oci: OciDir, opts: ServiceOptions) -> Arc<BuildService> {
        let cache = match opts.cache_capacity {
            Some(n) => ArtifactCache::with_capacity(n),
            None => ArtifactCache::new(),
        };
        let workers = opts.workers.max(1);
        let paused = opts.paused;
        let inner = Arc::new(Inner {
            state: Mutex::new(SvcState {
                paused,
                next_id: 1,
                ..SvcState::default()
            }),
            wake: Condvar::new(),
            cache,
            oci: Mutex::new(oci),
            opts,
            recorder: Recorder::new(),
            sides: Mutex::new(HashMap::new()),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("buildd-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn buildd worker")
            })
            .collect();
        Arc::new(BuildService {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// Queue a job. Fails fast if [`JobSpec::check_tenant`] refuses the
    /// tenant or the ref doesn't resolve in the layout — a submitter
    /// learns about a typo at submit time, not minutes later.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ComtError> {
        spec.check_tenant()?;
        self.inner
            .oci
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .resolve(&spec.extended_ref)
            .map_err(|e| {
                ComtError::oci(format!(
                    "cannot submit {:?} for tenant {:?}: {e}",
                    spec.extended_ref, spec.tenant
                ))
                .with_phase(Phase::Frontend)
            })?;
        let mut st = self.inner.lock_state();
        if st.stopping {
            return Err(ComtError::oci("service is shutting down".to_string())
                .with_phase(Phase::Frontend));
        }
        let id = st.next_id;
        st.next_id += 1;
        let mut job = JobRecord {
            spec,
            state: JobState::Queued,
            result_ref: None,
            error: None,
            report: None,
            log: String::new(),
            cancel_requested: false,
            started_seq: None,
            finished_seq: None,
        };
        job.log_line(&format!(
            "queued as job {id} (tenant {}, ref {})",
            job.spec.tenant, job.spec.extended_ref
        ));
        st.jobs.insert(id, job);
        st.queue.push(id);
        drop(st);
        self.inner.recorder.count("service.jobs.submitted", 1);
        self.inner.wake.notify_all();
        Ok(id)
    }

    /// Run a read-only closure against the service's layout under the
    /// layout lock — how wire-layer gates (the buildd admission audit)
    /// inspect an extended image without taking ownership of the `OciDir`.
    pub fn with_layout<R>(&self, f: impl FnOnce(&OciDir) -> R) -> R {
        let oci = self.inner.oci.lock().unwrap_or_else(|e| e.into_inner());
        f(&oci)
    }

    /// Snapshot one job.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let st = self.inner.lock_state();
        st.jobs.get(&id).map(|j| j.snapshot(id))
    }

    /// Snapshot all jobs, optionally restricted to one tenant.
    pub fn list(&self, tenant: Option<&str>) -> Vec<JobStatus> {
        let st = self.inner.lock_state();
        st.jobs
            .iter()
            .filter(|(_, j)| tenant.is_none_or(|t| j.spec.tenant == t))
            .map(|(id, j)| j.snapshot(*id))
            .collect()
    }

    /// Cancel a job. Queued jobs cancel immediately (the queue slot frees
    /// right away); running jobs are cancelled cooperatively — the slot
    /// frees when the engine run completes and the result is discarded.
    pub fn cancel(&self, id: u64) -> Option<JobStatus> {
        let mut st = self.inner.lock_state();
        let state = st.jobs.get(&id)?.state;
        match state {
            JobState::Queued => {
                st.seq += 1;
                let seq = st.seq;
                st.queue.retain(|q| *q != id);
                let job = st.jobs.get_mut(&id).expect("job exists");
                job.state = JobState::Cancelled;
                job.finished_seq = Some(seq);
                job.log_line("cancelled while queued");
                self.inner.recorder.count("service.jobs.cancelled", 1);
            }
            JobState::Running => {
                let job = st.jobs.get_mut(&id).expect("job exists");
                job.cancel_requested = true;
                job.log_line("cancellation requested");
            }
            _ => {}
        }
        let snap = st.jobs.get(&id).map(|j| j.snapshot(id));
        drop(st);
        self.inner.wake.notify_all();
        snap
    }

    /// The engine's observability report for a completed job — the same
    /// counters and spans `comt rebuild --stats` prints locally.
    pub fn report(&self, id: u64) -> Option<Report> {
        self.inner.lock_state().jobs.get(&id)?.report.clone()
    }

    /// Append-only job log from `offset`; returns the chunk and whether
    /// the job is terminal (no more output will ever arrive). `None` for
    /// unknown ids.
    pub fn log(&self, id: u64, offset: usize) -> Option<(String, bool)> {
        let st = self.inner.lock_state();
        let job = st.jobs.get(&id)?;
        let chunk = job.log.get(offset..).unwrap_or("").to_string();
        Some((chunk, job.state.is_terminal()))
    }

    /// Block until the job reaches a terminal state (or the service stops).
    pub fn wait(&self, id: u64) -> Option<JobStatus> {
        let mut st = self.inner.lock_state();
        loop {
            let job = st.jobs.get(&id)?;
            if job.state.is_terminal() || st.stopping {
                return Some(job.snapshot(id));
            }
            st = self
                .inner
                .wake
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pause dispatch: running jobs finish, queued jobs stay queued.
    pub fn pause(&self) {
        self.inner.lock_state().paused = true;
    }

    /// Resume dispatch after [`ServiceOptions::paused`] or [`Self::pause`].
    pub fn resume(&self) {
        self.inner.lock_state().paused = false;
        self.inner.wake.notify_all();
    }

    /// The shared cross-tenant artifact cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.inner.cache
    }

    /// Service-level stats: job counters, dispatch latencies, shared-cache
    /// hit/miss/evict totals, and per-tenant running-job high-water marks
    /// (`service.tenant.<name>.running_max` — the quota evidence).
    pub fn stats(&self) -> Report {
        let mut report = self.inner.recorder.report();
        report
            .counters
            .insert("service.cache.entries".into(), self.inner.cache.len() as u64);
        report
            .counters
            .insert("service.cache.hits".into(), self.inner.cache.hits());
        report
            .counters
            .insert("service.cache.misses".into(), self.inner.cache.misses());
        report
            .counters
            .insert("service.cache.evictions".into(), self.inner.cache.evictions());
        let st = self.inner.lock_state();
        for (tenant, max) in &st.running_max {
            report
                .counters
                .insert(format!("service.tenant.{tenant}.running_max"), *max as u64);
        }
        report
    }

    /// Stop dispatching, let running jobs finish, and join the workers.
    /// Queued jobs stay queued (visible via [`Self::status`]) but will
    /// never run.
    pub fn stop(&self) {
        {
            let mut st = self.inner.lock_state();
            st.stopping = true;
        }
        self.inner.wake.notify_all();
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for BuildService {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::write_cache;
    use crate::models::{BuildGraph, FileOrigin, ImageModel, ProcessModels};
    use bytes::Bytes;
    use comt_buildsys::{BuildTrace, RawCommand};
    use comt_oci::{BlobStore, ImageBuilder};
    use comt_vfs::Vfs;

    /// A layout holding `app.dist+coM`: a two-compile-step build (matching
    /// the backend fixture) whose cache layer carries trace + sources, so
    /// service jobs exercise the real engine including the artifact cache.
    fn fixture_layout() -> OciDir {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let mut store = BlobStore::new();
        let mut dist_fs = Vfs::new();
        dist_fs
            .write_file_p("/app/run", Bytes::from_static(b"ORIGINAL-BIN"), 0o755)
            .unwrap();
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &dist_fs)
            .with_entrypoint(vec!["/app/run".into()])
            .commit(&mut store)
            .unwrap();
        let mut oci = OciDir::new();
        oci.export("app.dist", img.manifest_digest, &store).unwrap();

        let trace = BuildTrace {
            commands: vec![
                RawCommand {
                    argv: argv("gcc -O2 -c main.c -o main.o"),
                    cwd: "/src".into(),
                    env: vec![],
                    inputs: vec!["/src/main.c".into()],
                    outputs: vec!["/src/main.o".into()],
                },
                RawCommand {
                    argv: argv("gcc -O2 -c util.c -o util.o"),
                    cwd: "/src".into(),
                    env: vec![],
                    inputs: vec!["/src/util.c".into()],
                    outputs: vec!["/src/util.o".into()],
                },
                RawCommand {
                    argv: argv("gcc main.o util.o -lm -o app"),
                    cwd: "/src".into(),
                    env: vec![],
                    inputs: vec!["/src/main.o".into(), "/src/util.o".into()],
                    outputs: vec!["/src/app".into()],
                },
            ],
        };
        let mut sources = std::collections::BTreeMap::new();
        sources.insert(
            "/src/main.c".to_string(),
            Bytes::from("#pragma comt provides(main)\n#pragma comt requires(util)\n"),
        );
        sources.insert(
            "/src/util.c".to_string(),
            Bytes::from("#pragma comt provides(util)\n"),
        );
        let mut image = ImageModel::default();
        image
            .files
            .insert("/app/run".into(), FileOrigin::Build("/src/app".into()));
        let models = ProcessModels {
            image,
            graph: BuildGraph::new(),
            isa: "x86_64".into(),
            cache_mode: Default::default(),
            targets: vec![],
        };
        write_cache(&mut oci, "app.dist", &models, &trace, &sources).unwrap();
        oci
    }

    fn opts() -> ServiceOptions {
        ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        }
    }

    #[test]
    fn jobs_run_and_share_cache_across_tenants() {
        let svc = BuildService::start(fixture_layout(), opts());
        let a = svc.submit(JobSpec::new("alice", "app.dist+coM")).unwrap();
        let done = svc.wait(a).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.result_ref.as_deref(), Some("app.dist+coMre"));
        let cold = svc.report(a).expect("done job has a report");
        assert_eq!(cold.counter("exec.compile"), 2);
        assert_eq!(cold.counter("cache.miss"), 2);

        // A different tenant rebuilding the same workload rides the shared
        // content-addressed cache: zero compile executions.
        let b = svc.submit(JobSpec::new("bob", "app.dist+coM")).unwrap();
        let done = svc.wait(b).unwrap();
        assert_eq!(done.state, JobState::Done);
        let warm = svc.report(b).expect("done job has a report");
        assert_eq!(warm.counter("exec.compile"), 0);
        assert_eq!(warm.counter("cache.hit"), 2);

        let (log, terminal) = svc.log(b, 0).unwrap();
        assert!(terminal);
        assert!(log.contains("queued as job"), "{log}");
        assert!(log.contains("registered app.dist+coMre"), "{log}");

        let stats = svc.stats();
        assert_eq!(stats.counter("service.jobs.done"), 2);
        assert_eq!(stats.counter("service.cache.hits"), 2);
        assert!(stats.counter("service.cache.entries") >= 2);
        svc.stop();
    }

    #[test]
    fn over_quota_tenant_queues_without_starving_others() {
        let mut o = opts();
        o.workers = 4;
        o.paused = true;
        o.quotas.insert("alice".into(), 1);
        let svc = BuildService::start(fixture_layout(), o);
        let a1 = svc.submit(JobSpec::new("alice", "app.dist+coM")).unwrap();
        let a2 = svc.submit(JobSpec::new("alice", "app.dist+coM")).unwrap();
        let a3 = svc.submit(JobSpec::new("alice", "app.dist+coM")).unwrap();
        let b1 = svc.submit(JobSpec::new("bob", "app.dist+coM")).unwrap();
        svc.resume();
        for id in [a1, a2, a3, b1] {
            assert_eq!(svc.wait(id).unwrap().state, JobState::Done);
        }
        // Bob dispatched while alice's queued jobs waited on her quota of 1:
        // his start seq beats alice's 2nd and 3rd jobs.
        let start =
            |id: u64| svc.status(id).unwrap().started_seq.expect("job ran");
        assert!(start(b1) < start(a2), "bob must not starve behind alice");
        assert!(start(b1) < start(a3));
        // Quota evidence: alice never ran two jobs at once.
        let stats = svc.stats();
        assert_eq!(stats.counter("service.tenant.alice.running_max"), 1);
        svc.stop();
    }

    #[test]
    fn within_tenant_priority_beats_fifo() {
        let mut o = opts();
        o.paused = true;
        let svc = BuildService::start(fixture_layout(), o);
        let low = svc.submit(JobSpec::new("alice", "app.dist+coM")).unwrap();
        let mut urgent = JobSpec::new("alice", "app.dist+coM");
        urgent.priority = 9;
        let high = svc.submit(urgent).unwrap();
        svc.resume();
        svc.wait(low).unwrap();
        svc.wait(high).unwrap();
        let start = |id: u64| svc.status(id).unwrap().started_seq.unwrap();
        assert!(start(high) < start(low), "priority 9 dispatches first");
        svc.stop();
    }

    #[test]
    fn cancelled_queued_job_releases_its_slot() {
        let mut o = opts();
        o.paused = true;
        let svc = BuildService::start(fixture_layout(), o);
        let a1 = svc.submit(JobSpec::new("alice", "app.dist+coM")).unwrap();
        let a2 = svc.submit(JobSpec::new("alice", "app.dist+coM")).unwrap();
        let snap = svc.cancel(a2).unwrap();
        assert_eq!(snap.state, JobState::Cancelled);
        assert!(snap.started_seq.is_none(), "cancelled before dispatch");
        svc.resume();
        assert_eq!(svc.wait(a1).unwrap().state, JobState::Done);
        assert_eq!(svc.wait(a2).unwrap().state, JobState::Cancelled);
        // The freed slot schedules new work normally.
        let a3 = svc.submit(JobSpec::new("alice", "app.dist+coM")).unwrap();
        assert_eq!(svc.wait(a3).unwrap().state, JobState::Done);
        assert!(svc.cancel(9999).is_none());
        // Cancelling a terminal job is a no-op.
        assert_eq!(svc.cancel(a1).unwrap().state, JobState::Done);
        svc.stop();
    }

    #[test]
    fn submit_unknown_ref_fails_fast() {
        let svc = BuildService::start(fixture_layout(), opts());
        let err = svc
            .submit(JobSpec::new("alice", "no-such-ref"))
            .unwrap_err();
        assert!(err.to_string().contains("no-such-ref"), "{err}");
        assert!(svc.list(None).is_empty());
        svc.stop();
    }

    #[test]
    fn submit_refuses_tenant_names_outside_the_rule() {
        let mut o = opts();
        o.paused = true;
        let svc = BuildService::start(fixture_layout(), o);
        let long = "t".repeat(65);
        for bad in ["", "a&b", "a b", "a=b", "a/b", "é", long.as_str()] {
            let err = svc
                .submit(JobSpec::new(bad, "app.dist+coM"))
                .unwrap_err();
            assert!(err.to_string().contains("[A-Za-z0-9._-]{1,64}"), "{bad:?}: {err}");
        }
        assert!(svc.list(None).is_empty(), "a refused job must not queue");
        let longest = "t".repeat(64);
        for good in ["a", "team.A_1-x", longest.as_str()] {
            svc.submit(JobSpec::new(good, "app.dist+coM")).unwrap();
            assert_eq!(svc.list(Some(good)).len(), 1, "{good:?}");
        }
        svc.stop();
    }

    #[test]
    fn list_filters_by_tenant() {
        let mut o = opts();
        o.paused = true;
        let svc = BuildService::start(fixture_layout(), o);
        svc.submit(JobSpec::new("alice", "app.dist+coM")).unwrap();
        svc.submit(JobSpec::new("bob", "app.dist+coM")).unwrap();
        assert_eq!(svc.list(None).len(), 2);
        assert_eq!(svc.list(Some("alice")).len(), 1);
        assert_eq!(svc.list(Some("carol")).len(), 0);
        svc.stop();
    }

    #[test]
    fn persist_saves_result_refs_crash_safely() {
        let dir = std::env::temp_dir().join(format!(
            "comt-svc-persist-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut o = opts();
        o.persist = Some(dir.clone());
        let svc = BuildService::start(fixture_layout(), o);
        let id = svc.submit(JobSpec::new("alice", "app.dist+coM")).unwrap();
        assert_eq!(svc.wait(id).unwrap().state, JobState::Done);
        svc.stop();
        let reloaded = OciDir::load(&dir).unwrap();
        assert!(reloaded.resolve("app.dist+coMre").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
