//! Zero-dependency observability primitives for the coMtainer engine.
//!
//! The rebuild engine, the step scheduler and the performance simulator all
//! want to answer the same questions — how long did each stage take, how
//! many steps ran, how many cache probes hit — without dragging a tracing
//! framework into a hermetic workspace. [`Recorder`] collects three kinds
//! of events:
//!
//! * **counters** — monotonically increasing named tallies
//!   ([`Recorder::count`]), e.g. `cache.hit` or `sched.steps`;
//! * **spans** — named wall-clock intervals ([`Recorder::span`]) recorded
//!   on guard drop, aggregated per name (total time + activations);
//! * **values** — sampled distributions ([`Recorder::record_value`]),
//!   e.g. request latencies.
//!
//! A [`Report`] snapshot renders everything as a stable, alphabetically
//! sorted human-readable table (see [`Report::render`]) which the `comt`
//! CLI prints under `--stats` and the bench harness embeds in ablation
//! output. Recorders are `Sync`, so scheduler and codec worker threads
//! share one by reference; internally events land in per-thread *shards*
//! (selected by thread id, merged at snapshot time), so hot counters bumped
//! from many workers don't serialize on one mutex.
//!
//! The crate has no dependencies because it owns no wire format: a
//! `Report` crosses a process boundary as the `comt.metrics.v1` document
//! `comt_dist::metrics` writes and reads through the workspace's one JSON
//! path (`docs/METRICS.md`), so recording here costs a crate `std` alone.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shard count: enough to spread codec/scheduler worker threads without
/// noticeably slowing the merge at snapshot time.
const SHARDS: usize = 8;

/// Per-shard, per-name cap on retained value samples. Past the cap new
/// samples overwrite a rotating slot, so memory stays bounded while the
/// retained set keeps drawing from the whole stream.
const VALUE_SAMPLE_CAP: usize = 2048;

/// Aggregated timing for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of times a span with this name was closed.
    pub count: u64,
    /// Total wall time across all activations.
    pub total: Duration,
}

/// Sampled distribution of a recorded value (latencies, sizes). Samples
/// are kept raw so a [`Report`] can answer arbitrary quantiles; the vector
/// is bounded by [`VALUE_SAMPLE_CAP`] per shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueStats {
    /// Number of values ever recorded (may exceed `samples.len()`).
    pub count: u64,
    /// Retained samples, sorted ascending in a [`Report`] snapshot.
    pub samples: Vec<u64>,
}

impl ValueStats {
    /// Quantile over the retained samples (`q` in `0.0..=1.0`); zero when
    /// nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let idx = ((self.samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.samples[idx]
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn max(&self) -> u64 {
        self.samples.last().copied().unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStats>,
    values: BTreeMap<String, ValueStats>,
}

/// Collects counters and spans from one engine run (or globally, via
/// [`global`]). Thread-safe; share by reference across workers.
///
/// Events are accumulated into [`SHARDS`] independently locked states; a
/// recording thread only ever touches the shard its thread id hashes to,
/// so concurrent workers bumping hot counters (`flate.bytes_in`, scheduler
/// step tallies) don't contend. Reads ([`counter`](Recorder::counter),
/// [`report`](Recorder::report)) merge all shards into one snapshot.
#[derive(Debug)]
pub struct Recorder {
    shards: [Mutex<State>; SHARDS],
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            shards: std::array::from_fn(|_| Mutex::new(State::default())),
        }
    }
}

/// Shard index for the calling thread (computed once per thread).
fn shard_index() -> usize {
    use std::hash::{Hash, Hasher};
    thread_local! {
        static IDX: usize = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            h.finish() as usize % SHARDS
        };
    }
    IDX.with(|i| *i)
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    fn my_shard(&self) -> &Mutex<State> {
        &self.shards[shard_index()]
    }

    /// Add `n` to the named counter (creating it at zero first).
    pub fn count(&self, name: &str, n: u64) {
        let mut st = self.my_shard().lock().unwrap_or_else(|e| e.into_inner());
        *st.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Open a named span; the returned guard records elapsed wall time into
    /// this recorder when dropped.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            name: name.to_string(),
            started: Instant::now(),
        }
    }

    /// Record one observation of a named value distribution — request
    /// latencies in microseconds, transfer sizes in bytes; the name carries
    /// the unit by convention (`….latency_us`, `….bytes`). Reports expose
    /// p50/p99/max over the retained samples.
    pub fn record_value(&self, name: &str, value: u64) {
        let mut st = self.my_shard().lock().unwrap_or_else(|e| e.into_inner());
        let v = st.values.entry(name.to_string()).or_default();
        v.count += 1;
        if v.samples.len() < VALUE_SAMPLE_CAP {
            v.samples.push(value);
        } else {
            // Rotating overwrite keeps the buffer bounded while still
            // admitting late samples.
            let slot = (v.count as usize) % VALUE_SAMPLE_CAP;
            v.samples[slot] = value;
        }
    }

    /// Record an externally measured interval under a span name. Used when
    /// the duration is simulated rather than wall-clock (perfsim).
    pub fn record_span(&self, name: &str, elapsed: Duration) {
        let mut st = self.my_shard().lock().unwrap_or_else(|e| e.into_inner());
        let s = st.spans.entry(name.to_string()).or_default();
        s.count += 1;
        s.total += elapsed;
    }

    /// Current value of a counter (zero if never touched), summed across
    /// all shards.
    pub fn counter(&self, name: &str) -> u64 {
        self.shards
            .iter()
            .map(|sh| {
                sh.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .counters
                    .get(name)
                    .copied()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Snapshot everything recorded so far (all shards merged).
    pub fn report(&self) -> Report {
        let mut report = Report::default();
        for sh in &self.shards {
            let st = sh.lock().unwrap_or_else(|e| e.into_inner());
            for (k, v) in &st.counters {
                *report.counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, v) in &st.spans {
                let s = report.spans.entry(k.clone()).or_default();
                s.count += v.count;
                s.total += v.total;
            }
            for (k, v) in &st.values {
                let s = report.values.entry(k.clone()).or_default();
                s.count += v.count;
                s.samples.extend_from_slice(&v.samples);
            }
        }
        for v in report.values.values_mut() {
            v.samples.sort_unstable();
        }
        report
    }

    /// Drop all recorded events (mainly for the global recorder in tests).
    pub fn reset(&self) {
        for sh in &self.shards {
            let mut st = sh.lock().unwrap_or_else(|e| e.into_inner());
            st.counters.clear();
            st.spans.clear();
            st.values.clear();
        }
    }
}

/// RAII guard returned by [`Recorder::span`].
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    name: String,
    started: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.recorder.record_span(&self.name, self.started.elapsed());
    }
}

/// An immutable snapshot of a [`Recorder`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub counters: BTreeMap<String, u64>,
    pub spans: BTreeMap<String, SpanStats>,
    pub values: BTreeMap<String, ValueStats>,
}

impl Report {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty() && self.values.is_empty()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn span(&self, name: &str) -> SpanStats {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Distribution snapshot for a name recorded via
    /// [`Recorder::record_value`] (empty stats if never touched).
    pub fn value(&self, name: &str) -> ValueStats {
        self.values.get(name).cloned().unwrap_or_default()
    }

    /// Merge another report into this one (summing counters and spans,
    /// pooling value samples).
    pub fn absorb(&mut self, other: &Report) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.spans {
            let s = self.spans.entry(k.clone()).or_default();
            s.count += v.count;
            s.total += v.total;
        }
        for (k, v) in &other.values {
            let s = self.values.entry(k.clone()).or_default();
            s.count += v.count;
            s.samples.extend_from_slice(&v.samples);
            s.samples.sort_unstable();
        }
    }

    /// Render as an aligned human-readable table, sorted by name.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no events recorded)");
        }
        let width = self
            .counters
            .keys()
            .chain(self.spans.keys())
            .chain(self.values.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, v) in &self.counters {
                writeln!(f, "  {name:<width$}  {v}")?;
            }
        }
        if !self.spans.is_empty() {
            writeln!(f, "spans:")?;
            for (name, s) in &self.spans {
                writeln!(
                    f,
                    "  {name:<width$}  {:>10}  x{}",
                    fmt_duration(s.total),
                    s.count
                )?;
            }
        }
        if !self.values.is_empty() {
            writeln!(f, "values:")?;
            for (name, v) in &self.values {
                writeln!(
                    f,
                    "  {name:<width$}  n={} p50={} p99={} max={}",
                    v.count,
                    v.p50(),
                    v.p99(),
                    v.max()
                )?;
            }
        }
        Ok(())
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// The process-wide recorder. Components without an engine context (e.g.
/// the performance simulator) record here; callers snapshot via
/// `global().report()`.
pub fn global() -> &'static Recorder {
    static GLOBAL: std::sync::OnceLock<Recorder> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Recorder::new();
        r.count("cache.hit", 2);
        r.count("cache.hit", 3);
        r.count("cache.miss", 1);
        assert_eq!(r.counter("cache.hit"), 5);
        assert_eq!(r.counter("cache.miss"), 1);
        assert_eq!(r.counter("absent"), 0);
    }

    #[test]
    fn spans_record_on_drop() {
        let r = Recorder::new();
        {
            let _g = r.span("stage.rebuild");
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            let _g = r.span("stage.rebuild");
        }
        let rep = r.report();
        let s = rep.span("stage.rebuild");
        assert_eq!(s.count, 2);
        assert!(s.total >= Duration::from_millis(1));
    }

    #[test]
    fn report_renders_sorted_table() {
        let r = Recorder::new();
        r.count("b.second", 7);
        r.count("a.first", 1);
        r.record_span("z.span", Duration::from_micros(1500));
        let text = r.report().render();
        let a = text.find("a.first").unwrap();
        let b = text.find("b.second").unwrap();
        assert!(a < b, "counters must be sorted:\n{text}");
        assert!(text.contains("1.5 ms"), "{text}");
        assert!(text.contains("x1"), "{text}");
    }

    #[test]
    fn absorb_merges() {
        let r1 = Recorder::new();
        r1.count("n", 1);
        r1.record_span("s", Duration::from_nanos(10));
        let r2 = Recorder::new();
        r2.count("n", 2);
        r2.record_span("s", Duration::from_nanos(5));
        let mut rep = r1.report();
        rep.absorb(&r2.report());
        assert_eq!(rep.counter("n"), 3);
        assert_eq!(rep.span("s").count, 2);
        assert_eq!(rep.span("s").total, Duration::from_nanos(15));
    }

    #[test]
    fn shared_across_threads() {
        let r = Recorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        r.count("hits", 1);
                    }
                });
            }
        });
        assert_eq!(r.counter("hits"), 400);
    }

    #[test]
    fn values_report_quantiles() {
        let r = Recorder::new();
        for v in 1..=100u64 {
            r.record_value("dist.server.latency_us", v);
        }
        let rep = r.report();
        let v = rep.value("dist.server.latency_us");
        assert_eq!(v.count, 100);
        // Nearest-rank on 100 samples: the median index rounds to 50.
        assert_eq!(v.p50(), 51);
        assert_eq!(v.p99(), 99);
        assert_eq!(v.max(), 100);
        assert_eq!(rep.value("absent").count, 0);
        assert_eq!(rep.value("absent").p99(), 0);
        let text = rep.render();
        assert!(text.contains("values:"), "{text}");
        assert!(text.contains("p99=99"), "{text}");
    }

    #[test]
    fn values_cap_is_bounded_but_count_exact() {
        let r = Recorder::new();
        // All from one thread → one shard → cap applies.
        for v in 0..(VALUE_SAMPLE_CAP as u64 * 3) {
            r.record_value("big", v);
        }
        let rep = r.report();
        let v = rep.value("big");
        assert_eq!(v.count, VALUE_SAMPLE_CAP as u64 * 3);
        assert_eq!(v.samples.len(), VALUE_SAMPLE_CAP);
        // Samples stay sorted and in range.
        assert!(v.samples.windows(2).all(|w| w[0] <= w[1]));
        assert!(v.max() < VALUE_SAMPLE_CAP as u64 * 3);
    }

    #[test]
    fn absorb_pools_value_samples() {
        let r1 = Recorder::new();
        r1.record_value("lat", 10);
        let r2 = Recorder::new();
        r2.record_value("lat", 30);
        let mut rep = r1.report();
        rep.absorb(&r2.report());
        let v = rep.value("lat");
        assert_eq!(v.count, 2);
        assert_eq!(v.samples, vec![10, 30]);
    }

    #[test]
    fn sharded_events_merge_into_one_report() {
        // More threads than shards: counters, spans and the rendered table
        // must still aggregate as if there were a single state.
        let r = Recorder::new();
        std::thread::scope(|s| {
            for _ in 0..(SHARDS * 3) {
                s.spawn(|| {
                    r.count("flate.bytes_in", 10);
                    r.record_span("codec.encode", Duration::from_micros(5));
                });
            }
        });
        let rep = r.report();
        assert_eq!(rep.counter("flate.bytes_in"), (SHARDS as u64 * 3) * 10);
        assert_eq!(rep.span("codec.encode").count, SHARDS as u64 * 3);
        let text = rep.render();
        assert!(text.contains("flate.bytes_in"), "{text}");
        r.reset();
        assert!(r.report().is_empty());
    }
}
