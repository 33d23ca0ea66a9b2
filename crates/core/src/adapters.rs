//! System adapters: the pluggable transformation passes.
//!
//! "System adapters, akin to compiler optimization passes, operate on
//! independent copies of the process models, tailoring transformations to
//! specific HPC systems" (§4.2). Each adapter rewrites compilation models
//! (parsed command lines); the back-end applies the configured adapter
//! pipeline to every toolchain command before replaying it.

use crate::models::CompilationModel;
use comt_toolchain::invocation::PgoFlag;
use comt_toolchain::toolchains::Driver;
use comt_toolchain::{CompilerInvocation, Toolchain, ToolchainKind};

/// Context adapters see: the target system's identity.
#[derive(Debug, Clone)]
pub struct AdapterContext {
    /// Target ISA.
    pub isa: String,
    /// The system's native toolchain.
    pub toolchain: Toolchain,
}

/// A system adapter: transforms one compilation model in place.
pub trait SystemAdapter: Send + Sync {
    /// Adapter name for diagnostics.
    fn name(&self) -> &str;

    /// Transform a compilation model (no-op for models it doesn't target).
    fn transform(&self, model: &mut CompilationModel, ctx: &AdapterContext);

    /// Configuration fingerprint feeding the engine's artifact-cache key.
    ///
    /// Must change whenever the adapter would transform any model
    /// differently — stateless adapters keep the default (their name);
    /// parameterized adapters (LTO scope, PGO phase) append their
    /// configuration so a reconfigured pipeline never reuses stale cached
    /// compile outputs.
    fn fingerprint(&self) -> String {
        self.name().to_string()
    }
}

/// Fingerprint of an ordered adapter pipeline (order-sensitive).
pub fn chain_fingerprint(adapters: &[Box<dyn SystemAdapter>]) -> String {
    adapters
        .iter()
        .map(|a| a.fingerprint())
        .collect::<Vec<_>>()
        .join("|")
}

/// A site's adapter pipeline: swap in its native toolchain, then enable
/// LTO over the whole graph when `lto` is set.
pub fn site_adapters(lto: bool) -> Vec<Box<dyn SystemAdapter>> {
    let mut adapters: Vec<Box<dyn SystemAdapter>> = vec![Box::new(NativeToolchainAdapter)];
    if lto {
        adapters.push(Box::new(LtoAdapter::whole_graph()));
    }
    adapters
}

/// Apply an invocation-level rewrite to compile/link models.
fn rewrite_invocation(
    model: &mut CompilationModel,
    f: impl FnOnce(&mut CompilerInvocation),
) {
    if !model.is_compilation() {
        return;
    }
    if let Some(mut inv) = model.invocation() {
        f(&mut inv);
        model.set_argv(inv.to_argv());
    }
}

/// Swap a recorded driver of one of the `from` personalities for `target`'s
/// driver of the same language. MPI wrappers keep their name: the wrapper
/// resolves to the system compiler underneath.
fn swap_driver(inv: &mut CompilerInvocation, from: &[ToolchainKind], target: &Toolchain) {
    if let Some(Driver {
        toolchain: Some(kind),
        language,
    }) = Toolchain::lookup(&inv.program)
    {
        if from.contains(&kind) {
            inv.program = target.driver(language).to_string();
        }
    }
}

/// The core adaptation (`cxxo` of Figure 3): swap the recorded compiler for
/// the system's native toolchain, retarget to the native microarchitecture
/// and raise the optimization level.
pub struct NativeToolchainAdapter;

impl SystemAdapter for NativeToolchainAdapter {
    fn name(&self) -> &str {
        "native-toolchain"
    }

    fn transform(&self, model: &mut CompilationModel, ctx: &AdapterContext) {
        rewrite_invocation(model, |inv| {
            // Map gcc and clang programs by source language.
            swap_driver(inv, &[ToolchainKind::DistroGcc, ToolchainKind::Llvm], &ctx.toolchain);
            inv.set_march("native");
            inv.set_opt_level("3");
        });
    }
}

/// The artifact-evaluation substitute: retarget onto the free LLVM
/// toolchain instead of a proprietary vendor compiler.
pub struct LlvmAdapter;

impl SystemAdapter for LlvmAdapter {
    fn name(&self) -> &str {
        "llvm"
    }

    fn transform(&self, model: &mut CompilationModel, _ctx: &AdapterContext) {
        rewrite_invocation(model, |inv| {
            swap_driver(inv, &[ToolchainKind::DistroGcc], &Toolchain::llvm());
            inv.set_march("native");
        });
    }
}

/// Scope of link-time optimization — "coMtainer seamlessly enables LTO and
/// can flexibly control its scope since the whole build process is
/// represented as an explicit graph" (§4.4).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum LtoScope {
    /// Every compile and link step.
    #[default]
    WholeGraph,
    /// Only the compilation sub-graph feeding the named output binaries.
    Binaries(Vec<String>),
}

/// Enables LTO: `-flto` on compiles (emit IR) and links (whole-program
/// optimize).
pub struct LtoAdapter {
    pub scope: LtoScope,
}

impl LtoAdapter {
    pub fn whole_graph() -> Self {
        LtoAdapter {
            scope: LtoScope::WholeGraph,
        }
    }

    /// Whether a model falls inside the configured scope. Binary scoping
    /// is decided by the back-end (which knows the graph); here a
    /// best-effort check on the link output path is applied.
    fn in_scope(&self, model: &CompilationModel) -> bool {
        match &self.scope {
            LtoScope::WholeGraph => true,
            LtoScope::Binaries(targets) => match model {
                CompilationModel::Link { argv, .. } => {
                    CompilerInvocation::parse(argv)
                        .ok()
                        .and_then(|inv| inv.output().map(String::from))
                        .map(|o| targets.iter().any(|t| o.ends_with(t.as_str())))
                        .unwrap_or(false)
                }
                // Compiles always emit IR under binary scoping; fat objects
                // cost nothing in the simulation and non-LTO links ignore
                // the IR.
                CompilationModel::Compile { .. } => true,
                _ => false,
            },
        }
    }
}

impl SystemAdapter for LtoAdapter {
    fn name(&self) -> &str {
        "lto"
    }

    fn transform(&self, model: &mut CompilationModel, _ctx: &AdapterContext) {
        if !self.in_scope(model) {
            return;
        }
        rewrite_invocation(model, |inv| inv.enable_lto());
    }

    fn fingerprint(&self) -> String {
        match &self.scope {
            LtoScope::WholeGraph => "lto[whole-graph]".to_string(),
            LtoScope::Binaries(targets) => format!("lto[binaries:{}]", targets.join(",")),
        }
    }
}

/// PGO phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PgoPhase {
    /// Instrument: `-fprofile-generate`.
    Generate,
    /// Optimize with a collected profile at the given container path.
    Use(String),
}

/// Enables profile-guided optimization on compile steps; the back-end's
/// feedback loop runs Generate → (simulated run) → Use.
pub struct PgoAdapter {
    pub phase: PgoPhase,
}

impl PgoAdapter {
    pub fn generate() -> Self {
        PgoAdapter {
            phase: PgoPhase::Generate,
        }
    }

    pub fn use_profile(path: &str) -> Self {
        PgoAdapter {
            phase: PgoPhase::Use(path.to_string()),
        }
    }
}

impl SystemAdapter for PgoAdapter {
    fn name(&self) -> &str {
        "pgo"
    }

    fn transform(&self, model: &mut CompilationModel, _ctx: &AdapterContext) {
        if !matches!(model, CompilationModel::Compile { .. }) {
            return;
        }
        let flag = match &self.phase {
            PgoPhase::Generate => PgoFlag::Generate(None),
            PgoPhase::Use(path) => PgoFlag::Use(Some(path.clone())),
        };
        rewrite_invocation(model, |inv| inv.set_pgo(flag));
    }

    fn fingerprint(&self) -> String {
        match &self.phase {
            PgoPhase::Generate => "pgo[generate]".to_string(),
            PgoPhase::Use(path) => format!("pgo[use:{path}]"),
        }
    }
}

/// Apply an adapter pipeline to one model.
pub fn apply_adapters(
    model: &mut CompilationModel,
    adapters: &[Box<dyn SystemAdapter>],
    ctx: &AdapterContext,
) {
    for a in adapters {
        a.transform(model, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn compile_model(s: &str) -> CompilationModel {
        CompilationModel::classify(&argv(s), "/src", &[], &[])
    }

    fn ctx_x86() -> AdapterContext {
        AdapterContext {
            isa: "x86_64".into(),
            toolchain: Toolchain::vendor_x86(),
        }
    }

    #[test]
    fn native_toolchain_swaps_program_and_march() {
        let mut m = compile_model("g++ -O2 -march=x86-64 -c k.cc -o k.o");
        NativeToolchainAdapter.transform(&mut m, &ctx_x86());
        let s = m.argv().join(" ");
        assert!(s.starts_with("vcx "), "{s}");
        assert!(s.contains("-march=native"));
        assert!(s.contains("-O3"));
        assert!(!s.contains("-O2"));
        assert!(!s.contains("-march=x86-64"));
    }

    #[test]
    fn native_toolchain_keeps_mpi_wrappers() {
        let mut m = compile_model("mpicc -O2 -c a.c");
        NativeToolchainAdapter.transform(&mut m, &ctx_x86());
        assert_eq!(m.argv()[0], "mpicc");
        assert!(m.argv().join(" ").contains("-march=native"));
    }

    #[test]
    fn native_toolchain_arm_variant() {
        let ctx = AdapterContext {
            isa: "aarch64".into(),
            toolchain: Toolchain::vendor_arm(),
        };
        let mut m = compile_model("gcc -c a.c");
        NativeToolchainAdapter.transform(&mut m, &ctx);
        assert_eq!(m.argv()[0], "ftcc");
    }

    #[test]
    fn llvm_adapter_maps_to_clang() {
        let mut m = compile_model("gfortran -O2 -c solve.f90");
        LlvmAdapter.transform(&mut m, &ctx_x86());
        assert_eq!(m.argv()[0], "flang");
    }

    #[test]
    fn lto_whole_graph() {
        let mut c = compile_model("gcc -O2 -c a.c");
        let mut l = compile_model("gcc a.o -o app");
        let lto = LtoAdapter::whole_graph();
        lto.transform(&mut c, &ctx_x86());
        lto.transform(&mut l, &ctx_x86());
        assert!(c.argv().contains(&"-flto".to_string()));
        assert!(l.argv().contains(&"-flto".to_string()));
    }

    #[test]
    fn lto_binary_scope_filters_links() {
        let lto = LtoAdapter {
            scope: LtoScope::Binaries(vec!["app".into()]),
        };
        let mut in_scope = compile_model("gcc a.o -o app");
        let mut out_scope = compile_model("gcc b.o -o tool");
        lto.transform(&mut in_scope, &ctx_x86());
        lto.transform(&mut out_scope, &ctx_x86());
        assert!(in_scope.argv().contains(&"-flto".to_string()));
        assert!(!out_scope.argv().contains(&"-flto".to_string()));
    }

    #[test]
    fn pgo_phases_on_compiles_only() {
        let gen = PgoAdapter::generate();
        let mut c = compile_model("gcc -O2 -c a.c");
        let mut l = compile_model("gcc a.o -o app");
        gen.transform(&mut c, &ctx_x86());
        gen.transform(&mut l, &ctx_x86());
        assert!(c.argv().contains(&"-fprofile-generate".to_string()));
        assert!(!l.argv().iter().any(|t| t.contains("profile")));

        let use_ = PgoAdapter::use_profile("/prof/app.prof");
        let mut c2 = compile_model("gcc -fprofile-generate -O2 -c a.c");
        use_.transform(&mut c2, &ctx_x86());
        let s = c2.argv().join(" ");
        assert!(s.contains("-fprofile-use=/prof/app.prof"));
        assert!(!s.contains("generate"));
    }

    #[test]
    fn adapters_ignore_non_compilations() {
        let mut ar = CompilationModel::classify(&argv("ar rcs lib.a a.o"), "/", &[], &[]);
        let before = ar.clone();
        NativeToolchainAdapter.transform(&mut ar, &ctx_x86());
        LtoAdapter::whole_graph().transform(&mut ar, &ctx_x86());
        assert_eq!(ar, before);
        let mut cp = CompilationModel::classify(&argv("cp a b"), "/", &[], &[]);
        let before_cp = cp.clone();
        PgoAdapter::generate().transform(&mut cp, &ctx_x86());
        assert_eq!(cp, before_cp);
    }

    #[test]
    fn fingerprints_reflect_configuration() {
        // Default: the adapter name.
        assert_eq!(NativeToolchainAdapter.fingerprint(), "native-toolchain");
        // LTO scope is part of the identity.
        let whole = LtoAdapter::whole_graph().fingerprint();
        let scoped = LtoAdapter {
            scope: LtoScope::Binaries(vec!["app".into()]),
        }
        .fingerprint();
        assert_ne!(whole, scoped);
        // PGO phase (and profile path) is part of the identity.
        let gen = PgoAdapter::generate().fingerprint();
        let use_a = PgoAdapter::use_profile("/prof/a").fingerprint();
        let use_b = PgoAdapter::use_profile("/prof/b").fingerprint();
        assert_ne!(gen, use_a);
        assert_ne!(use_a, use_b);
        // Chain fingerprint is order-sensitive.
        let ab: Vec<Box<dyn SystemAdapter>> = vec![
            Box::new(NativeToolchainAdapter),
            Box::new(LtoAdapter::whole_graph()),
        ];
        let ba: Vec<Box<dyn SystemAdapter>> = vec![
            Box::new(LtoAdapter::whole_graph()),
            Box::new(NativeToolchainAdapter),
        ];
        assert_ne!(chain_fingerprint(&ab), chain_fingerprint(&ba));
    }

    #[test]
    fn pipeline_composes() {
        let adapters: Vec<Box<dyn SystemAdapter>> = vec![
            Box::new(NativeToolchainAdapter),
            Box::new(LtoAdapter::whole_graph()),
            Box::new(PgoAdapter::generate()),
        ];
        let mut m = compile_model("gcc -O2 -c a.c");
        apply_adapters(&mut m, &adapters, &ctx_x86());
        let s = m.argv().join(" ");
        assert!(s.starts_with("vcc "));
        assert!(s.contains("-flto"));
        assert!(s.contains("-fprofile-generate"));
        assert!(s.contains("-march=native"));
    }
}
