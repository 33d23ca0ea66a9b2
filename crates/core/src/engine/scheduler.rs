//! Ready-queue scheduler over a step dependency DAG.
//!
//! The previous back-end ran independent compile steps with
//! level-synchronous barriers: slice the step list into batches, run each
//! batch to completion, synchronize, continue. A straggler in one batch
//! idles every worker. This scheduler replaces the barrier with a classic
//! ready queue: a step becomes runnable the moment its last dependency
//! completes, and a fixed pool of workers drains the queue until the DAG
//! is exhausted. Results are collected by step index, so callers merge
//! outputs in recorded order and the outcome is deterministic regardless
//! of the interleaving.
//!
//! The ready queue always hands out the lowest ready index. With one
//! worker the run stays on the calling thread and is therefore exactly the
//! recorded order: step `i` is ready once every earlier step has run.

use crate::{ComtError, Phase};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::{Condvar, Mutex};

/// Maximal runs of consecutive compile steps, in recorded order: the
/// segments the replay stage schedules and the static hazard pass checks.
/// Steps outside every segment run one at a time between them.
pub fn segments(is_compile: impl IntoIterator<Item = bool>) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for (i, compile) in is_compile.into_iter().enumerate() {
        if !compile {
            continue;
        }
        match runs.last_mut() {
            Some(run) if run.end == i => run.end = i + 1,
            _ => runs.push(i..i + 1),
        }
    }
    runs
}

/// Dependency edges for a set of steps: `deps[i]` lists the step indices
/// that must complete before step `i` may run. Indices must be `< n` and
/// the graph must be acyclic (recorded build traces are, by construction:
/// a step can only consume outputs that already existed).
pub struct StepGraph {
    deps: Vec<Vec<usize>>,
}

impl StepGraph {
    pub fn new(deps: Vec<Vec<usize>>) -> Self {
        StepGraph { deps }
    }

    /// Build the edge list for a step slice from recorded inputs/outputs:
    /// step `j` depends on the *latest* earlier step `i` producing any of
    /// `j`'s inputs (later writers shadow earlier ones, matching replay
    /// order).
    pub fn from_io(io: &[(&[String], &[String])]) -> Self {
        let deps = io
            .iter()
            .enumerate()
            .map(|(j, (inputs, _))| {
                let mut d: Vec<usize> = inputs
                    .iter()
                    .filter_map(|input| {
                        (0..j)
                            .rev()
                            .find(|&i| io[i].1.iter().any(|out| out == input))
                    })
                    .collect();
                d.sort_unstable();
                d.dedup();
                d
            })
            .collect();
        StepGraph { deps }
    }

    pub fn len(&self) -> usize {
        self.deps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// The dependency indices of step `i`.
    pub fn deps_of(&self, i: usize) -> &[usize] {
        &self.deps[i]
    }

    /// Length of the longest dependency chain (1 for a flat graph).
    pub fn critical_path_depth(&self) -> usize {
        let mut depth = vec![0usize; self.deps.len()];
        for i in 0..self.deps.len() {
            // deps point strictly backwards, so one forward pass suffices.
            depth[i] = 1 + self.deps[i].iter().map(|&d| depth[d]).max().unwrap_or(0);
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

struct SchedState {
    ready: BTreeSet<usize>,
    /// Unresolved dependency count per step.
    pending_deps: Vec<usize>,
    /// Steps not yet completed (running or waiting).
    unfinished: usize,
}

/// Outcome of one scheduled run.
pub struct ScheduleOutcome<T> {
    /// Per-step results in step-index (= recorded) order.
    pub results: Vec<Result<T, ComtError>>,
    /// Worker threads used.
    pub workers: usize,
    /// Critical-path depth of the scheduled graph.
    pub critical_path: usize,
}

/// The worker count of a parallel run: the host's available parallelism.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// [`run_with`] on [`available_workers`] workers.
pub fn run<T, F>(graph: &StepGraph, job: F) -> ScheduleOutcome<T>
where
    T: Send,
    F: Fn(usize) -> Result<T, ComtError> + Sync,
{
    run_with(graph, available_workers(), job)
}

/// Execute every step of `graph` by calling `job(step_index)`, honoring
/// dependency order, with up to `workers` workers (one runs on the calling
/// thread). All steps run even if some fail (matching the replay
/// contract: the caller reports the first failure in recorded order).
/// Panicking jobs become [`ComtError::Build`] results instead of
/// poisoning the pool.
pub fn run_with<T, F>(graph: &StepGraph, workers: usize, job: F) -> ScheduleOutcome<T>
where
    T: Send,
    F: Fn(usize) -> Result<T, ComtError> + Sync,
{
    let n = graph.len();
    let critical_path = graph.critical_path_depth();
    if n == 0 {
        return ScheduleOutcome {
            results: Vec::new(),
            workers: 0,
            critical_path,
        };
    }

    // Invert the edges once: who becomes runnable when i completes.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pending_deps = vec![0usize; n];
    for (i, deps) in graph.deps.iter().enumerate() {
        pending_deps[i] = deps.len();
        for &d in deps {
            dependents[d].push(i);
        }
    }
    let ready: BTreeSet<usize> = (0..n).filter(|&i| pending_deps[i] == 0).collect();
    let workers = workers.clamp(1, n);

    let state = Mutex::new(SchedState {
        ready,
        pending_deps,
        unfinished: n,
    });
    let wake = Condvar::new();
    let results: Mutex<Vec<Option<Result<T, ComtError>>>> =
        Mutex::new((0..n).map(|_| None).collect());

    let work = || loop {
        let idx = {
            let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(idx) = st.ready.pop_first() {
                    break idx;
                }
                if st.unfinished == 0 {
                    return;
                }
                st = wake.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(idx)))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_string());
                Err(ComtError::build(format!("step worker panicked: {msg}"))
                    .with_phase(Phase::Replay))
            });
        results.lock().unwrap_or_else(|e| e.into_inner())[idx] = Some(result);

        let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
        st.unfinished -= 1;
        for &dep in &dependents[idx] {
            st.pending_deps[dep] -= 1;
            if st.pending_deps[dep] == 0 {
                st.ready.insert(dep);
            }
        }
        drop(st);
        wake.notify_all();
    };
    if workers == 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }

    let results = results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                // Unreachable for an acyclic graph; defensive for a cyclic
                // one (every unscheduled step reports instead of hanging).
                Err(ComtError::build(
                    "step never became ready (dependency cycle in recorded trace?)".into(),
                )
                .with_phase(Phase::Replay))
            })
        })
        .collect();

    ScheduleOutcome {
        results,
        workers,
        critical_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn flat_graph_runs_everything() {
        let graph = StepGraph::new(vec![vec![]; 16]);
        assert_eq!(graph.critical_path_depth(), 1);
        let ran = AtomicUsize::new(0);
        let out = run(&graph, |i| {
            ran.fetch_add(1, Ordering::SeqCst);
            Ok(i * 2)
        });
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        let values: Vec<usize> = out.results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn dependencies_complete_before_dependents_start() {
        // Chain 0 -> 1 -> 2 plus an independent 3.
        let graph = StepGraph::new(vec![vec![], vec![0], vec![1], vec![]]);
        assert_eq!(graph.critical_path_depth(), 3);
        let done: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let out = run(&graph, |i| {
            let order = {
                let mut d = done.lock().unwrap();
                d.push(i);
                d.clone()
            };
            if i == 2 {
                assert!(order.contains(&0) && order.contains(&1), "{order:?}");
            }
            Ok(())
        });
        assert!(out.results.iter().all(|r| r.is_ok()));
        let order = done.into_inner().unwrap();
        let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(2));
    }

    #[test]
    fn io_edges_resolve_producers() {
        let a_out = vec!["/a.o".to_string()];
        let b_out = vec!["/b.o".to_string()];
        let link_in = vec!["/a.o".to_string(), "/b.o".to_string()];
        let none: Vec<String> = vec![];
        let io: Vec<(&[String], &[String])> = vec![
            (&none, &a_out),
            (&none, &b_out),
            (&link_in, &none),
        ];
        let graph = StepGraph::from_io(&io);
        assert_eq!(graph.deps[0], Vec::<usize>::new());
        assert_eq!(graph.deps[1], Vec::<usize>::new());
        assert_eq!(graph.deps[2], vec![0, 1]);
        assert_eq!(graph.critical_path_depth(), 2);
    }

    #[test]
    fn argv_implied_reads_create_edges() {
        // A step with zero *declared* inputs whose command line reads a
        // sibling's output must not be treated as always-ready: the shared
        // StepIo extraction supplies the implicit read-edge.
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let gen = comt_buildsys::StepIo::extract(
            &argv("gcc -c gen.c -o config.h"),
            "/src",
            &["/src/gen.c".to_string()],
            &["/src/config.h".to_string()],
        );
        // No declared IO at all — only the argv names its files.
        let user = comt_buildsys::StepIo::extract(
            &argv("gcc -include config.h -c a.c -o a.o"),
            "/src",
            &[],
            &[],
        );
        let io: Vec<(&[String], &[String])> = [&gen, &user]
            .iter()
            .map(|s| (s.reads.as_slice(), s.writes.as_slice()))
            .collect();
        let graph = StepGraph::from_io(&io);
        assert_eq!(graph.deps[1], vec![0], "implicit read-edge missing");
        assert_eq!(graph.critical_path_depth(), 2);
    }

    #[test]
    fn one_worker_runs_in_recorded_order() {
        // FIFO would run 0, 2, 1: step 2 is ready from the start, step 1
        // only once 0 completes. The lowest ready index runs first.
        let graph = StepGraph::new(vec![vec![], vec![0], vec![]]);
        let caller = std::thread::current().id();
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let out = run_with(&graph, 1, |i| {
            assert_eq!(std::thread::current().id(), caller, "one worker stays on the caller");
            order.lock().unwrap().push(i);
            Ok(())
        });
        assert_eq!(out.workers, 1);
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn segments_are_maximal_compile_runs() {
        let runs = segments([false, true, true, false, true, false, false, true, true, true]);
        assert_eq!(runs, vec![1..3, 4..5, 7..10]);
        assert!(segments([false, false]).is_empty());
        assert!(segments(std::iter::empty()).is_empty());
    }

    #[test]
    fn errors_and_panics_are_localized() {
        let graph = StepGraph::new(vec![vec![]; 3]);
        let out = run(&graph, |i| match i {
            0 => Ok(0usize),
            1 => Err(ComtError::build("boom".into())),
            _ => panic!("kaboom {i}"),
        });
        assert!(out.results[0].is_ok());
        let e1 = out.results[1].as_ref().unwrap_err();
        assert!(matches!(e1, ComtError::Build(_)));
        let e2 = out.results[2].as_ref().unwrap_err();
        assert!(e2.to_string().contains("kaboom"), "{e2}");
    }
}
