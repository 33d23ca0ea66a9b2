//! The instrumented rebuild pipeline engine.
//!
//! [`RebuildEngine`] is the system-side replay machine behind
//! `coMtainer-rebuild`. One engine run threads a shared [`EngineCtx`] —
//! system identity, toolchain, adapter-chain fingerprint, stats recorder —
//! through four stages:
//!
//! 1. **materialize** — start a container on the `Sysenv` rootfs and place
//!    the cached sources (plus any extra files such as PGO profiles);
//! 2. **adapt** — classify every recorded command into a compilation model
//!    and run the configured adapter pipeline over it;
//! 3. **replay** — execute the adapted steps. Consecutive compile steps
//!    (source compiles, or IR-mode code generations) form segments
//!    scheduled on a ready-queue over their input/output dependency DAG
//!    ([`scheduler`]); each compile step first probes the
//!    content-addressed [`ArtifactCache`] and only executes on a miss;
//! 4. **collect** — gather the artifacts named by the image model.
//!
//! Every stage emits spans and counters into the context's
//! [`comt_observe::Recorder`]; [`RebuildEngine::report`] snapshots them
//! for the CLI (`comt rebuild --stats`) and the bench harness.

pub mod artifact_cache;
pub mod scheduler;
pub mod service;

pub use artifact_cache::{ir_step_key, object_key, step_key, ArtifactCache, StepKeyInputs, StepOutputs};
pub use service::{BuildService, JobSpec, JobState, JobStatus, ServiceOptions};

use crate::adapters::chain_fingerprint;
use crate::backend::RebuildOptions;
use crate::cache::CacheContents;
use crate::models::CompilationModel;
use crate::workflow::SystemSide;
use crate::{AdapterContext, ComtError, Phase};
use bytes::Bytes;
use comt_buildsys::{BuildTrace, Container, Executor};
use comt_digest::Digest;
use comt_observe::{Recorder, Report};
use comt_toolchain::DigestMemo;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Shared context threaded through every engine stage.
pub struct EngineCtx<'a> {
    /// The target system (identity, toolchain, rootfs, adapters).
    pub side: &'a SystemSide,
    /// Rebuild options (parallelism, extra files, artifact cache).
    pub opts: &'a RebuildOptions,
    /// Context handed to each adapter.
    pub adapter_ctx: AdapterContext,
    /// Order-sensitive fingerprint of the adapter pipeline.
    pub chain_fp: String,
    /// Identity of the toolchain set the replay executes under.
    pub toolchain_id: String,
    /// Canonical GNU target triple of the system side (cache-key input).
    pub target_triple: String,
    /// Stats recorder: spans per stage, counters for steps and cache
    /// probes. Deterministic per run (not global).
    pub recorder: Recorder,
}

/// What the replay stage does with one step, decided once in
/// [`RebuildEngine::adapt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// Compile sources with the simulated compiler.
    Compile,
    /// A compile step of an IR-mode cache (paper §4.6): re-generate code
    /// from the cached IR object at the step's output path.
    Recodegen,
    /// Everything else, run through the full executor.
    Other,
}

/// One adapted replay step.
struct AdaptedStep {
    kind: StepKind,
    model: CompilationModel,
    env: Vec<String>,
    /// Input paths recorded in the original trace (cache key + DAG edges).
    inputs: Vec<String>,
    /// Output paths recorded in the original trace (DAG edges).
    outputs: Vec<String>,
}

/// The cached IR object a [`StepKind::Recodegen`] step starts from.
struct IrObject {
    inv: comt_toolchain::CompilerInvocation,
    path: String,
    raw: Bytes,
}

impl AdaptedStep {
    fn is_compile(&self) -> bool {
        self.kind != StepKind::Other
    }

    fn command_line(&self) -> String {
        self.model.argv().join(" ")
    }
}

/// The staged, instrumented rebuild pipeline.
pub struct RebuildEngine<'a> {
    pub ctx: EngineCtx<'a>,
}

impl<'a> RebuildEngine<'a> {
    /// Build an engine for one system side and option set.
    pub fn new(side: &'a SystemSide, opts: &'a RebuildOptions) -> Self {
        let adapter_ctx = AdapterContext {
            isa: side.isa.clone(),
            toolchain: side.toolchain,
        };
        RebuildEngine {
            ctx: EngineCtx {
                side,
                opts,
                adapter_ctx,
                chain_fp: chain_fingerprint(&side.adapters),
                toolchain_id: format!("{}@{}", side.toolchain.name, side.isa),
                target_triple: crate::crossisa::target_triple(&side.isa),
                recorder: Recorder::new(),
            },
        }
    }

    /// Snapshot of everything recorded so far.
    pub fn report(&self) -> Report {
        self.ctx.recorder.report()
    }

    /// Run the full pipeline over one decoded cache layer, returning the
    /// rebuilt artifact map (image path → content).
    pub fn run(&self, cache: &CacheContents) -> Result<BTreeMap<String, Bytes>, ComtError> {
        let mut container = {
            let _span = self.ctx.recorder.span("stage.materialize");
            self.materialize(cache)?
        };
        let steps = {
            let _span = self.ctx.recorder.span("stage.adapt");
            self.adapt(cache)
        };
        {
            let _span = self.ctx.recorder.span("stage.replay");
            self.replay(&steps, &mut container, &cache.digests)?;
        }
        let _span = self.ctx.recorder.span("stage.collect");
        self.collect(cache, &container)
    }

    /// Stage 1: the rebuild container with sources and extra files placed.
    fn materialize(&self, cache: &CacheContents) -> Result<Container, ComtError> {
        let side = self.ctx.side;
        let mut container = Container {
            fs: side.sysenv_fs.clone(),
            env: BTreeMap::new(),
            workdir: "/".to_string(),
            isa: side.isa.clone(),
        };
        container
            .env
            .insert("PATH".into(), "/usr/local/bin:/usr/bin:/bin".into());
        for (path, content) in cache.sources.iter().chain(self.ctx.opts.extra_files.iter()) {
            container
                .fs
                .write_file_p(path, content.clone(), 0o644)
                .map_err(|e| {
                    ComtError::fs(e.to_string())
                        .with_phase(Phase::Materialize)
                        .with_artifact(path.clone())
                })?;
        }
        self.ctx
            .recorder
            .count("materialize.files", (cache.sources.len() + self.ctx.opts.extra_files.len()) as u64);
        Ok(container)
    }

    /// Stage 2: classify + adapter-transform every recorded command, and
    /// decide each step's [`StepKind`] — the one place the cache mode is
    /// read.
    fn adapt(&self, cache: &CacheContents) -> Vec<AdaptedStep> {
        let ir_mode = cache.models.cache_mode == crate::models::CacheMode::Ir;
        let steps: Vec<AdaptedStep> = cache
            .trace
            .commands
            .iter()
            .map(|cmd| {
                let mut model =
                    CompilationModel::classify(&cmd.argv, &cmd.cwd, &cmd.env, &cmd.inputs);
                crate::adapters::apply_adapters(&mut model, &self.ctx.side.adapters, &self.ctx.adapter_ctx);
                // Retarget override: pin every compile step's -march to the
                // requested microarchitecture. Rewriting the argv (rather
                // than special-casing downstream) makes the per-target
                // split fall out of the ordinary cache keys.
                if let Some(target) = &self.ctx.opts.target {
                    if model.is_compilation() {
                        if let Some(mut inv) = model.invocation() {
                            inv.set_march(target);
                            model.set_argv(inv.to_argv());
                        }
                    }
                }
                let kind = match model {
                    CompilationModel::Compile { .. } if ir_mode => StepKind::Recodegen,
                    CompilationModel::Compile { .. } => StepKind::Compile,
                    _ => StepKind::Other,
                };
                AdaptedStep {
                    kind,
                    model,
                    env: cmd.env.clone(),
                    inputs: cmd.inputs.clone(),
                    outputs: cmd.outputs.clone(),
                }
            })
            .collect();
        let compiles = steps.iter().filter(|s| s.is_compile()).count();
        self.ctx.recorder.count("steps.total", steps.len() as u64);
        self.ctx.recorder.count("steps.compile", compiles as u64);
        self.ctx
            .recorder
            .count("steps.other", (steps.len() - compiles) as u64);
        steps
    }

    /// Stage 3: execute the adapted steps against the container. Every
    /// maximal run of compile steps is one segment on the scheduler; the
    /// other steps run one at a time between segments, in recorded order.
    fn replay(
        &self,
        steps: &[AdaptedStep],
        container: &mut Container,
        digests: &DigestMemo,
    ) -> Result<(), ComtError> {
        let side = self.ctx.side;
        let executor = Executor::new(&side.isa, side.toolchain.with_fallbacks())
            .with_repo(side.repo.clone());

        let mut trace_sink = BuildTrace::default();
        let mut max_critical_path = 0u64;
        let mut next = 0usize;
        for segment in scheduler::segments(steps.iter().map(AdaptedStep::is_compile)) {
            for step in &steps[next..segment.start] {
                self.run_other(&executor, container, step, &mut trace_sink)?;
            }
            let depth = self.run_segment(&executor, container, &steps[segment.clone()], digests)?;
            max_critical_path = max_critical_path.max(depth as u64);
            next = segment.end;
        }
        for step in &steps[next..] {
            self.run_other(&executor, container, step, &mut trace_sink)?;
        }
        if max_critical_path > 0 {
            self.ctx
                .recorder
                .count("sched.critical_path.max", max_critical_path);
        }
        Ok(())
    }

    /// Stage 4: gather the rebuilt artifacts named by the image model.
    ///
    /// Artifacts are independent reads (plus an optional post-link layout
    /// rewrite each), so collection fans out on the same ready-queue
    /// scheduler and worker count the replay stage uses — here with a
    /// flat, edge-free graph.
    fn collect(
        &self,
        cache: &CacheContents,
        container: &Container,
    ) -> Result<BTreeMap<String, Bytes>, ComtError> {
        let wanted: Vec<(&str, &str)> = cache.models.image.build_files();
        let collect_one = |&(image_path, build_path): &(&str, &str)| {
            let mut content = container.fs.read(build_path).map_err(|_| {
                ComtError::build(format!(
                    "rebuild did not produce {build_path} (needed for {image_path})"
                ))
                .with_phase(Phase::Collect)
                .with_artifact(image_path.to_string())
            })?;
            // Post-link layout optimization over linked binaries.
            if self.ctx.opts.post_link_layout {
                if let Ok(comt_toolchain::Artifact::Linked(mut bin)) =
                    comt_toolchain::artifact::read_artifact(&content)
                {
                    bin.layout_optimized = true;
                    content = Bytes::from(comt_toolchain::artifact::write_linked(&bin));
                }
            }
            Ok((image_path.to_string(), content))
        };

        let graph = scheduler::StepGraph::new(vec![Vec::new(); wanted.len()]);
        let outcome =
            scheduler::run_with(&graph, self.workers(), |idx| collect_one(&wanted[idx]));
        if wanted.len() > 1 {
            self.ctx
                .recorder
                .count("collect.workers.max", outcome.workers as u64);
        }
        let mut artifacts = BTreeMap::new();
        for result in outcome.results {
            let (path, content) = result?;
            artifacts.insert(path, content);
        }
        self.ctx
            .recorder
            .count("collect.artifacts", artifacts.len() as u64);
        Ok(artifacts)
    }

    /// The scheduler's worker count: the option `parallel` selects the
    /// host's available parallelism, otherwise one worker replays in
    /// recorded order.
    fn workers(&self) -> usize {
        if self.ctx.opts.parallel {
            scheduler::available_workers()
        } else {
            1
        }
    }

    /// Run one compile step of either kind against a filesystem snapshot,
    /// consulting the artifact cache first. Returns the produced output
    /// files. The one probe → count → execute → put sequence of the
    /// engine, and the only count of artifact-cache probes (a service sums
    /// its jobs' `cache.hit` / `cache.miss`). Every content digest it needs
    /// comes from `digests`, the load's memo over the digests the layout
    /// holds for the image.
    fn cached_step(
        &self,
        executor: &Executor,
        fs: &comt_vfs::Vfs,
        step: &AdaptedStep,
        digests: &DigestMemo,
    ) -> Result<StepOutputs, ComtError> {
        let ir = match step.kind {
            StepKind::Recodegen => Some(ir_object(fs, step)?),
            _ => None,
        };
        let cache = self.ctx.opts.artifact_cache.as_ref();
        let key = cache.and_then(|_| self.cache_key(fs, step, ir.as_ref(), digests));
        if let (Some(cache), Some(key)) = (cache, &key) {
            if let Some(hit) = cache.get(key) {
                self.ctx.recorder.count("cache.hit", 1);
                if ir.is_some() {
                    self.ctx.recorder.count("retarget.ir_hits", 1);
                }
                return Ok(hit.as_ref().clone());
            }
            self.ctx.recorder.count("cache.miss", 1);
        }

        let outputs = match ir {
            Some(ir) => self.recodegen(step, ir)?,
            None => self.execute_compile(executor, fs, step, digests)?,
        };
        if let (Some(cache), Some(key)) = (cache, key) {
            cache.put(key, outputs.clone());
        }
        Ok(outputs)
    }

    /// The content-addressed cache key for one compile step, or `None`
    /// when any contributing input is unreadable (then the step simply
    /// executes uncached and fails loudly if it must).
    ///
    /// A source compile keys on its read set from
    /// [`comt_buildsys::StepIo`] — the same extraction the scheduler and
    /// the static analyzer use — so recorded inputs, positional sources
    /// and `-fprofile-use=` profiles all contribute content digests.
    ///
    /// A code generation keys on its IR object under a split key: the
    /// target-invariant [`ir_step_key`] (adapted invocation ⊕ IR object
    /// content) specialized per target by [`object_key`] (toolchain, ISA,
    /// triple, march). Retargets of the same image share the IR half, so
    /// an N-target fan-out pays the front-end once and a warm retarget
    /// executes zero code generations.
    ///
    /// Content digests come from the load's memo, so a file window is
    /// hashed once however many steps and targets read it, and a window
    /// of the image's own (a source or IR object) once however many loads
    /// of the held image read it (`key.files_hashed` / `key.files_reused`).
    fn cache_key(
        &self,
        fs: &comt_vfs::Vfs,
        step: &AdaptedStep,
        ir: Option<&IrObject>,
        digests: &DigestMemo,
    ) -> Option<Digest> {
        let digest_of = |content: &Bytes| {
            let (digest, computed) = digests.lookup(content);
            let counter = if computed {
                "key.files_hashed"
            } else {
                "key.files_reused"
            };
            self.ctx.recorder.count(counter, 1);
            digest
        };
        if let Some(ir) = ir {
            let half = ir_step_key(
                step.model.argv(),
                step.model.cwd(),
                &step.env,
                &self.ctx.chain_fp,
                &digest_of(&ir.raw),
            );
            return Some(object_key(
                &half,
                &self.ctx.toolchain_id,
                &self.ctx.side.isa,
                &self.ctx.target_triple,
                ir.inv.march().unwrap_or("default"),
            ));
        }
        let io = comt_buildsys::StepIo::extract(
            step.model.argv(),
            step.model.cwd(),
            &step.inputs,
            &[],
        );
        let mut files = Vec::with_capacity(io.reads.len());
        for path in io.reads {
            let content = fs.read(&path).ok()?;
            files.push((path, digest_of(&content)));
        }
        Some(step_key(
            &StepKeyInputs {
                argv: step.model.argv(),
                cwd: step.model.cwd(),
                env: &step.env,
                chain_fp: &self.ctx.chain_fp,
                toolchain_id: &self.ctx.toolchain_id,
                isa: &self.ctx.side.isa,
                target_triple: &self.ctx.target_triple,
            },
            &files,
        ))
    }

    /// Run the simulated compiler for one compile step (cache miss path).
    fn execute_compile(
        &self,
        executor: &Executor,
        fs: &comt_vfs::Vfs,
        step: &AdaptedStep,
        digests: &DigestMemo,
    ) -> Result<StepOutputs, ComtError> {
        let argv = step.model.argv();
        let program = argv.first().map(String::as_str).unwrap_or("");
        let base = program.rsplit('/').next().unwrap_or(program);
        let sim = executor.compiler_for(base).ok_or_else(|| {
            ComtError::build(format!("no toolchain handles {base}"))
                .with_phase(Phase::Replay)
                .with_step(step.command_line())
        })?;
        let (_outcome, outputs) = sim
            .compile_only(fs, step.model.cwd(), argv, digests)
            .map_err(|e| {
                ComtError::build(format!("{}: {e}", step.command_line()))
                    .with_phase(Phase::Replay)
                    .with_step(step.command_line())
            })?;
        self.ctx.recorder.count("exec.compile", 1);
        Ok(outputs)
    }

    /// Run one non-compile step through the full executor.
    fn run_other(
        &self,
        executor: &Executor,
        container: &mut Container,
        step: &AdaptedStep,
        trace_sink: &mut BuildTrace,
    ) -> Result<(), ComtError> {
        prepare(container, step)?;
        executor
            .run(container, step.model.argv(), trace_sink)
            .map_err(|e| {
                ComtError::build(format!("{}: {e}", step.command_line()))
                    .with_phase(Phase::Replay)
                    .with_step(step.command_line())
            })?;
        self.ctx.recorder.count("exec.other", 1);
        Ok(())
    }

    /// Execute one compile segment on the ready-queue scheduler and merge
    /// its outputs into the container in recorded order. Returns the
    /// segment's critical-path depth.
    fn run_segment(
        &self,
        executor: &Executor,
        container: &mut Container,
        segment: &[AdaptedStep],
        digests: &DigestMemo,
    ) -> Result<usize, ComtError> {
        // Shared IO extraction (declared + argv-implied paths): a step with
        // no recorded inputs whose command line reads a sibling's output
        // still gets its edge, instead of being treated as always-ready.
        let step_io: Vec<comt_buildsys::StepIo> = segment
            .iter()
            .map(|s| {
                comt_buildsys::StepIo::extract(
                    s.model.argv(),
                    s.model.cwd(),
                    &s.inputs,
                    &s.outputs,
                )
            })
            .collect();
        let io: Vec<(&[String], &[String])> = step_io
            .iter()
            .map(|s| (s.reads.as_slice(), s.writes.as_slice()))
            .collect();
        let graph = scheduler::StepGraph::from_io(&io);
        let base_fs = &container.fs;
        // Outputs of completed steps, for the (rare) compile that consumes
        // another compile's output within the same segment.
        let overlay: Mutex<HashMap<String, Vec<u8>>> = Mutex::new(HashMap::new());

        let outcome = scheduler::run_with(&graph, self.workers(), |idx| {
            let step = &segment[idx];
            let outputs = if graph.deps_of(idx).is_empty() {
                self.cached_step(executor, base_fs, step, digests)?
            } else {
                let mut fs = base_fs.clone();
                for (path, content) in overlay.lock().unwrap_or_else(|e| e.into_inner()).iter() {
                    fs.write_file_p(path, Bytes::from(content.clone()), 0o644)
                        .map_err(|e| {
                            ComtError::fs(e.to_string()).with_phase(Phase::Replay)
                        })?;
                }
                self.cached_step(executor, &fs, step, digests)?
            };
            let mut ov = overlay.lock().unwrap_or_else(|e| e.into_inner());
            for (path, content) in &outputs {
                ov.insert(path.clone(), content.clone());
            }
            Ok(outputs)
        });

        // A one-step segment has nothing to schedule around.
        if segment.len() > 1 {
            self.ctx.recorder.count("sched.segments", 1);
            self.ctx.recorder.count("sched.steps", segment.len() as u64);
            self.ctx
                .recorder
                .count("sched.workers.max", outcome.workers as u64);
        }
        // Merge in recorded order: deterministic regardless of scheduling.
        for result in outcome.results {
            apply_outputs(container, result?.iter())?;
        }
        Ok(outcome.critical_path)
    }

    /// IR-mode "compile" (cache miss path): re-generate code from the
    /// cached IR object for the adapter-transformed flags.
    fn recodegen(&self, step: &AdaptedStep, ir: IrObject) -> Result<StepOutputs, ComtError> {
        let side = self.ctx.side;
        let mut obj = comt_toolchain::artifact::read_object(&ir.raw).map_err(|e| {
            ComtError::build(format!("{}: {e}", ir.path))
                .with_phase(Phase::Replay)
                .with_artifact(ir.path.clone())
        })?;
        comt_toolchain::recodegen(&mut obj, &side.toolchain, &side.isa, &ir.inv)
            .map_err(|e| {
                ComtError::build(e.to_string())
                    .with_phase(Phase::Replay)
                    .with_step(step.command_line())
            })?;
        self.ctx.recorder.count("exec.recodegen", 1);
        Ok(vec![(ir.path, comt_toolchain::artifact::write_object(&obj))])
    }
}

/// The IR object a code-generation step starts from: the cached object at
/// the step's output path.
fn ir_object(fs: &comt_vfs::Vfs, step: &AdaptedStep) -> Result<IrObject, ComtError> {
    let inv = step.model.invocation().ok_or_else(|| {
        ComtError::build("unparseable compile step".into())
            .with_phase(Phase::Replay)
            .with_step(step.command_line())
    })?;
    let out_rel = inv.output().map(String::from).ok_or_else(|| {
        ComtError::build("IR compile step without -o".into())
            .with_phase(Phase::Replay)
            .with_step(step.command_line())
    })?;
    let path = comt_vfs::join(step.model.cwd(), &out_rel);
    let raw = fs.read(&path).map_err(|_| {
        ComtError::build(format!("IR object missing from cache: {path}"))
            .with_phase(Phase::Replay)
            .with_artifact(path.clone())
    })?;
    Ok(IrObject { inv, path, raw })
}

/// Write one step's output files into the container filesystem.
fn apply_outputs<'o>(
    container: &mut Container,
    outputs: impl Iterator<Item = &'o (String, Vec<u8>)>,
) -> Result<(), ComtError> {
    for (path, content) in outputs {
        container
            .fs
            .write_file_p(path, Bytes::from(content.clone()), 0o644)
            .map_err(|e| {
                ComtError::fs(e.to_string())
                    .with_phase(Phase::Replay)
                    .with_artifact(path.clone())
            })?;
    }
    Ok(())
}

/// Position the container for one step (workdir + environment).
fn prepare(container: &mut Container, step: &AdaptedStep) -> Result<(), ComtError> {
    container
        .fs
        .mkdir_p(step.model.cwd())
        .map_err(|e| ComtError::fs(e.to_string()).with_phase(Phase::Replay))?;
    container.workdir = step.model.cwd().to_string();
    container.env = step
        .env
        .iter()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    container
        .env
        .entry("PATH".into())
        .or_insert_with(|| "/usr/local/bin:/usr/bin:/bin".into());
    Ok(())
}
