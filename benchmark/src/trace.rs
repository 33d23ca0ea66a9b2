//! Spans recorded by the benchmark around its calls into the crates.
//!
//! Three kinds: an `Iter` root per iteration, `Phase` spans (the
//! user-visible steps; always recorded, they are the end-to-end timers)
//! and `Call` spans (one per call into a crate's public function; only
//! on traced iterations). A span's layer is the part of its name before
//! the first dot, which is the crate it calls into. Spans stay in memory
//! until the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Iter,
    Phase,
    Call,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u32,
    /// Whether call spans were being recorded on this iteration.
    pub traced: bool,
    /// Process CPU time spent while the span was open, in seconds
    /// (phases only; 0 elsewhere).
    pub cpu_s: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    epoch: Instant,
    iter: AtomicU32,
    calls: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            iter: AtomicU32::new(0),
            calls: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record<T>(&self, kind: Kind, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("tracer lock poisoned");
            spans.push(Span {
                name,
                kind,
                start_ns: 0,
                end_ns: 0,
                parent: OPEN.with(|o| o.borrow().last().copied()),
                iter: self.iter.load(Ordering::Relaxed),
                traced: self.calls.load(Ordering::Relaxed),
                cpu_s: 0.0,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let cpu = || {
            if kind == Kind::Phase {
                process_cpu_s()
            } else {
                0.0
            }
        };
        let cpu0 = cpu();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let cpu_s = cpu() - cpu0;
        OPEN.with(|o| o.borrow_mut().pop());
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        let s = &mut spans[id];
        s.start_ns = start_ns;
        s.end_ns = end_ns;
        s.cpu_s = cpu_s;
        out
    }

    /// One iteration of the workload; `traced` turns call spans on for it.
    pub fn iteration<T>(&self, iter: u32, traced: bool, f: impl FnOnce() -> T) -> T {
        self.iter.store(iter, Ordering::Relaxed);
        self.calls.store(traced, Ordering::Relaxed);
        let out = self.record(Kind::Iter, "bench.iter", f);
        self.calls.store(false, Ordering::Relaxed);
        out
    }

    /// A user-visible step. Always timed.
    pub fn phase<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(Kind::Phase, name, f)
    }

    /// One call into a crate's public function. Timed on traced
    /// iterations only.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.calls.load(Ordering::Relaxed) {
            self.record(Kind::Call, name, f)
        } else {
            f()
        }
    }

    /// The innermost open span of this thread, to hand to a worker.
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Make `parent` (a span of another thread) the parent of this
    /// thread's spans. Call once, first thing in a worker thread.
    pub fn adopt(&self, parent: Option<usize>) {
        OPEN.with(|o| *o.borrow_mut() = parent.into_iter().collect());
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`. Linux reports it in USER_HZ ticks, 100 per second.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Per-iteration sums and the per-layer budget, computed from the spans.
pub struct Analysis {
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
}

impl Analysis {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        Analysis { spans, children }
    }

    /// Time of span `i` not covered by its children. Children of worker
    /// threads may overlap, so the union of their intervals is taken.
    fn self_secs(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        let mut kids: Vec<(u64, u64)> = self.children[i]
            .iter()
            .map(|&c| {
                (
                    self.spans[c].start_ns.max(s.start_ns),
                    self.spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        ((s.end_ns - s.start_ns) - covered) as f64 / 1e9
    }

    /// Per iteration, `f` summed over the spans of `kind` that `pick` accepts.
    fn sums(&self, kind: Kind, pick: impl Fn(&str) -> bool, f: impl Fn(&Span) -> f64) -> Vec<f64> {
        let mut by_iter: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.kind == kind && pick(s.name) {
                *by_iter.entry(s.iter).or_default() += f(s);
            }
        }
        by_iter.into_values().collect()
    }

    /// Seconds per iteration in the named phases (all phases if empty).
    pub fn phase_secs(&self, names: &[&str]) -> Vec<f64> {
        self.sums(
            Kind::Phase,
            |n| names.is_empty() || names.contains(&n),
            Span::secs,
        )
    }

    /// CPU seconds per iteration over all phases.
    pub fn phase_cpu(&self) -> Vec<f64> {
        self.sums(Kind::Phase, |_| true, |s| s.cpu_s)
    }

    /// Seconds per traced iteration in call spans of this name.
    pub fn call_secs(&self, name: &str) -> Vec<f64> {
        self.sums(Kind::Call, |n| n == name, Span::secs)
    }

    /// How many call spans of a layer were recorded.
    pub fn calls_in_layer(&self, layer: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == Kind::Call && s.layer() == layer)
            .count()
    }

    /// Self time per layer over the traced iterations, as a share of the
    /// summed self time of every span in them. The iteration roots' own
    /// self time is what no named span covers: `unattributed`.
    pub fn budget(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !s.traced {
                continue;
            }
            let layer = if s.kind == Kind::Iter {
                "unattributed"
            } else {
                s.layer()
            };
            *by_layer.entry(layer).or_default() += self.self_secs(i);
        }
        let total: f64 = by_layer.values().sum();
        if total > 0.0 {
            for v in by_layer.values_mut() {
                *v /= total;
            }
        }
        by_layer
    }

    /// Wall seconds per iteration, split by whether it was traced.
    pub fn iter_walls(&self, traced: bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == Kind::Iter && s.traced == traced)
            .map(Span::secs)
            .collect()
    }

    /// The spans as JSON lines, for the `--spans` file.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iter\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.iter
            ));
        }
        out
    }
}
