//! The simulated compiler driver: compile, archive, link.
//!
//! [`SimCompiler::run`] executes one toolchain command line against a
//! virtual filesystem, producing artifact files and reporting exactly which
//! paths were read and written — the information the build recorder
//! captures for the build-graph model.
//!
//! The linker implements the classic Unix model: objects are included
//! unconditionally; archive members are pulled in only when they define a
//! currently-undefined symbol (iterated to a fixpoint); external namespaced
//! symbols (`ns:name`) are satisfied by `-l` libraries whose name matches
//! the namespace (`-lm` ⇒ `m:*`), with the driver's implicit libraries
//! (`c`, `stdc++`/`gfortran` per language, `gomp` under `-fopenmp`) added
//! the way real drivers do.

use crate::artifact::{
    self, Archive, BinKind, KernelParams, LinkedBinary, ObjectFile, OptProvenance, PgoMode,
    TargetInfo,
};
use crate::features::{self, flag_isa, vector_width};
use crate::invocation::{Arg, CompilerInvocation, DriverMode, InputKind, ParseError, PgoFlag};
use crate::memo::DigestMemo;
use crate::options::OptionCategory;
use crate::source::parse_source;
use crate::toolchains::{Language, Toolchain};
use bytes::Bytes;
use comt_vfs::Vfs;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

/// Output of a dry compile: the outcome plus `(path, bytes)` objects.
pub type CompileOutputs = (CommandOutcome, Vec<(String, Vec<u8>)>);

/// Result of executing one command.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommandOutcome {
    /// Absolute paths read (sources, headers, objects, libraries, profiles).
    pub inputs: Vec<String>,
    /// Absolute paths written.
    pub outputs: Vec<String>,
}

/// Compilation/linking failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Program name not handled by this toolchain.
    UnknownProgram(String),
    /// Command line did not parse.
    Parse(ParseError),
    /// The toolchain cannot target this ISA (vendor compilers are
    /// single-ISA).
    UnsupportedIsa { toolchain: String, isa: String },
    /// An input file is missing.
    MissingInput(String),
    /// `gcc -c a.c b.c -o x.o` is rejected like the real driver.
    MultipleSourcesWithOutput,
    /// No input files.
    NoInputs,
    /// A translation unit contains code for a different ISA — the failure
    /// mode of the cross-ISA experiment (paper §5.5).
    IsaMismatch {
        unit: String,
        unit_isa: String,
        target_isa: String,
    },
    /// Link failed: symbol not defined by any object/archive/library.
    Unresolved { symbol: String, context: String },
    /// `-lfoo` found no library.
    MissingLibrary(String),
    /// A file that should be a COMT artifact is not.
    BadArtifact(String),
    /// `-fprofile-use=<path>` pointed at a missing profile.
    MissingProfile(String),
    /// A machine option from another ISA (`-mavx2` on aarch64, …) — real
    /// drivers reject these, and this is the §5.5 cross-ISA failure mode.
    UnrecognizedOption { option: String, isa: String },
    /// Filesystem error.
    Fs(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownProgram(p) => write!(f, "unknown program: {p}"),
            CompileError::Parse(e) => write!(f, "command line: {e}"),
            CompileError::UnsupportedIsa { toolchain, isa } => {
                write!(f, "toolchain {toolchain} cannot target {isa}")
            }
            CompileError::MissingInput(p) => write!(f, "no such file: {p}"),
            CompileError::MultipleSourcesWithOutput => {
                write!(f, "cannot specify -o with -c and multiple files")
            }
            CompileError::NoInputs => write!(f, "no input files"),
            CompileError::IsaMismatch {
                unit,
                unit_isa,
                target_isa,
            } => write!(
                f,
                "{unit}: ISA-specific code for {unit_isa} cannot compile for {target_isa}"
            ),
            CompileError::Unresolved { symbol, context } => {
                write!(f, "undefined reference to `{symbol}' while linking {context}")
            }
            CompileError::MissingLibrary(l) => write!(f, "cannot find -l{l}"),
            CompileError::BadArtifact(p) => write!(f, "file format not recognized: {p}"),
            CompileError::MissingProfile(p) => write!(f, "profile data not found: {p}"),
            CompileError::UnrecognizedOption { option, isa } => {
                write!(f, "unrecognized command-line option '{option}' for {isa} (ISA-specific flag)")
            }
            CompileError::Fs(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

/// Default library search directories, after `-L` paths.
const DEFAULT_LIB_DIRS: &[&str] = &["/usr/local/lib", "/usr/lib", "/lib"];
/// Default system include directories.
const DEFAULT_INCLUDE_DIRS: &[&str] = &["/usr/local/include", "/usr/include"];

/// The simulated driver for one toolchain targeting one ISA.
#[derive(Debug, Clone)]
pub struct SimCompiler {
    pub toolchain: Toolchain,
    pub isa: String,
}

impl SimCompiler {
    pub fn new(toolchain: Toolchain, isa: &str) -> Self {
        SimCompiler {
            toolchain,
            isa: isa.to_string(),
        }
    }

    /// Execute a command line in `cwd`.
    pub fn run(
        &self,
        fs: &mut Vfs,
        cwd: &str,
        argv: &[String],
    ) -> Result<CommandOutcome, CompileError> {
        let program = argv.first().ok_or(CompileError::NoInputs)?;
        if Toolchain::is_archiver(program) {
            return self.run_ar(fs, cwd, argv);
        }
        if Toolchain::is_ranlib(program) {
            // ranlib regenerates the symbol index; COMT archives carry it
            // inherently, so this only validates the target exists.
            let target = argv.get(1).ok_or(CompileError::NoInputs)?;
            let path = comt_vfs::join(cwd, target);
            if !fs.exists(&path) {
                return Err(CompileError::MissingInput(path));
            }
            return Ok(CommandOutcome {
                inputs: vec![path],
                outputs: vec![],
            });
        }
        let (language, mut inv) = self.parse_compiler_argv(argv)?;
        // MPI wrappers (the drivers no one personality owns) implicitly add
        // the MPI library to link steps.
        let mpi_wrapper = Toolchain::lookup(program).is_some_and(|d| d.toolchain.is_none());
        if mpi_wrapper
            && inv.mode() == DriverMode::Link
            && !inv.libs().contains(&"mpi")
        {
            inv.args.push(Arg::Opt {
                token: "l".into(),
                value: Some("mpi".into()),
                joined: true,
                category: OptionCategory::LibLink,
                shape: crate::options::OptionShape::JoinedOrSeparate,
            });
        }

        match inv.mode() {
            DriverMode::Compile => self.run_compile(fs, cwd, &inv, language),
            DriverMode::Link => self.run_link(fs, cwd, &inv, language),
            DriverMode::Preprocess | DriverMode::Assemble => {
                self.run_passthrough(fs, cwd, &inv)
            }
        }
    }

    /// What every compiler command checks first: the program is one of
    /// this toolchain's drivers, the toolchain targets this ISA, and the
    /// command line parses.
    fn parse_compiler_argv(
        &self,
        argv: &[String],
    ) -> Result<(Language, CompilerInvocation), CompileError> {
        let program = argv.first().ok_or(CompileError::NoInputs)?;
        let language = self
            .toolchain
            .language_of(program)
            .ok_or_else(|| CompileError::UnknownProgram(program.clone()))?;
        if !self.toolchain.supported_isas.iter().any(|i| *i == self.isa) {
            return Err(CompileError::UnsupportedIsa {
                toolchain: self.toolchain.name.to_string(),
                isa: self.isa.clone(),
            });
        }
        Ok((language, CompilerInvocation::parse(argv)?))
    }

    // ---- compile ---------------------------------------------------------

    fn run_compile(
        &self,
        fs: &mut Vfs,
        cwd: &str,
        inv: &CompilerInvocation,
        language: Language,
    ) -> Result<CommandOutcome, CompileError> {
        let (outcome, outputs) = self.compile_only_inv(fs, cwd, inv, language, None)?;
        for (path, data) in outputs {
            fs.write_file_p(&path, Bytes::from(data), 0o644)
                .map_err(|e| CompileError::Fs(e.to_string()))?;
        }
        Ok(outcome)
    }

    /// Compile without mutating the filesystem: returns the outcome plus
    /// the object files as `(path, bytes)` pairs. This is the thread-safe
    /// entry point the parallel system-side rebuild uses — many threads
    /// share one immutable snapshot and outputs are merged afterwards.
    /// Source digests come from `digests`, which the rebuild's cache keys
    /// have usually filled already.
    pub fn compile_only(
        &self,
        fs: &Vfs,
        cwd: &str,
        argv: &[String],
        digests: &DigestMemo,
    ) -> Result<CompileOutputs, CompileError> {
        let (language, inv) = self.parse_compiler_argv(argv)?;
        if inv.mode() != DriverMode::Compile {
            return Err(CompileError::UnknownProgram(format!(
                "compile_only only handles -c steps, got {:?}",
                inv.mode()
            )));
        }
        self.compile_only_inv(fs, cwd, &inv, language, Some(digests))
    }

    fn compile_only_inv(
        &self,
        fs: &Vfs,
        cwd: &str,
        inv: &CompilerInvocation,
        language: Language,
        digests: Option<&DigestMemo>,
    ) -> Result<CompileOutputs, CompileError> {
        let sources: Vec<&str> = inv
            .inputs()
            .iter()
            .filter(|(_, k)| k.is_source())
            .map(|(p, _)| *p)
            .collect();
        if sources.is_empty() {
            return Err(CompileError::NoInputs);
        }
        if sources.len() > 1 && inv.output().is_some() {
            return Err(CompileError::MultipleSourcesWithOutput);
        }

        let mut outcome = CommandOutcome::default();
        let mut outputs = Vec::new();
        for src in sources {
            let (obj, reads) = self.compile_unit(fs, cwd, inv, src, language, digests)?;
            outcome.inputs.extend(reads);
            let out_path = match inv.output() {
                Some(o) => comt_vfs::join(cwd, o),
                None => {
                    let stem = comt_vfs::file_name(&comt_vfs::join(cwd, src));
                    let stem = stem.rsplit_once('.').map(|(s, _)| s.to_string()).unwrap_or(stem);
                    comt_vfs::join(cwd, &format!("{stem}.o"))
                }
            };
            outcome.outputs.push(out_path.clone());
            outputs.push((out_path, artifact::write_object(&obj)));
        }
        Ok((outcome, outputs))
    }

    /// Compile one translation unit to an in-memory object.
    fn compile_unit(
        &self,
        fs: &Vfs,
        cwd: &str,
        inv: &CompilerInvocation,
        src: &str,
        language: Language,
        digests: Option<&DigestMemo>,
    ) -> Result<(ObjectFile, Vec<String>), CompileError> {
        let src_path = comt_vfs::join(cwd, src);
        let raw = fs
            .read(&src_path)
            .map_err(|_| CompileError::MissingInput(src_path.clone()))?;
        let text = comt_vfs::text_lossy(&raw);
        // The object records the digest of the source as text. Only valid
        // UTF-8 is its own text; a lossy decode digests other bytes.
        let source_digest = match (&text, digests) {
            (Cow::Borrowed(_), Some(memo)) => memo.of(&raw),
            _ => comt_digest::Digest::of(text.as_bytes()),
        };
        let info = parse_source(&text);
        let mut reads = vec![src_path.clone()];

        // Header dependency scan (transitive, tolerant of missing system
        // headers the way `-MG` is).
        let mut include_dirs: Vec<String> = inv
            .include_dirs()
            .iter()
            .map(|d| comt_vfs::join(cwd, d))
            .collect();
        include_dirs.extend(DEFAULT_INCLUDE_DIRS.iter().map(|d| d.to_string()));
        let mut visited = BTreeSet::new();
        let mut queue: Vec<(String, String)> = Vec::new();
        let src_dir = comt_vfs::parent(&src_path);
        for inc in &info.includes_quoted {
            queue.push((src_dir.clone(), inc.clone()));
        }
        for inc in &info.includes_system {
            queue.push((String::new(), inc.clone()));
        }
        while let Some((from_dir, inc)) = queue.pop() {
            let mut candidates = Vec::new();
            if !from_dir.is_empty() {
                candidates.push(comt_vfs::join(&from_dir, &inc));
            }
            for d in &include_dirs {
                candidates.push(comt_vfs::join(d, &inc));
            }
            if let Some(found) = candidates.into_iter().find(|c| fs.exists(c)) {
                if visited.insert(found.clone()) {
                    reads.push(found.clone());
                    if let Ok(header_text) = fs.read_string(&found) {
                        let hinfo = parse_source(&header_text);
                        let hdir = comt_vfs::parent(&found);
                        for i in hinfo.includes_quoted {
                            queue.push((hdir.clone(), i));
                        }
                        for i in hinfo.includes_system {
                            queue.push((String::new(), i));
                        }
                    }
                }
            }
        }

        // Machine flags from another ISA are rejected like real drivers
        // reject them ("unrecognized command-line option").
        for arg in &inv.args {
            if let Arg::Opt {
                token,
                value,
                category: OptionCategory::Machine,
                ..
            } = arg
            {
                let spelling = format!("-{token}{}", value.as_deref().unwrap_or(""));
                if flag_isa(&spelling).is_some_and(|isa| isa != self.isa) {
                    return Err(CompileError::UnrecognizedOption {
                        option: spelling,
                        isa: self.isa.clone(),
                    });
                }
            }
        }

        // ISA-specific units refuse to compile for another ISA.
        if let Some(unit_isa) = &info.isa {
            if unit_isa != &self.isa {
                return Err(CompileError::IsaMismatch {
                    unit: src_path,
                    unit_isa: unit_isa.clone(),
                    target_isa: self.isa.clone(),
                });
            }
        }

        let march = effective_march(&self.toolchain, &self.isa, inv, None);
        let vw = vector_width(&self.isa, &march);

        // PGO.
        let pgo = match inv.pgo() {
            PgoFlag::None => PgoMode::None,
            PgoFlag::Generate(_) => PgoMode::Instrumented,
            PgoFlag::Use(Some(path)) => {
                let p = comt_vfs::join(cwd, &path);
                if !fs.exists(&p) {
                    return Err(CompileError::MissingProfile(p));
                }
                reads.push(p);
                PgoMode::Optimized
            }
            PgoFlag::Use(None) => PgoMode::Optimized,
        };

        let opt_level = inv.opt_level().unwrap_or_else(|| "0".to_string());
        let quality = self.toolchain.codegen_quality * opt_level_factor(&opt_level);

        let obj = ObjectFile {
            source_path: src_path,
            source_digest: source_digest.to_oci_string(),
            lang: language.as_str().to_string(),
            defined: info.provides.clone(),
            undefined: info.requires.clone(),
            externs: info.externs.clone(),
            target: Some(TargetInfo {
                isa: self.isa.clone(),
                march,
            }),
            opt: OptProvenance {
                toolchain: self.toolchain.name.to_string(),
                codegen_quality: quality,
                opt_level,
                vector_width: vw,
                fast_math: inv.fast_math(),
                openmp: inv.openmp(),
                lto_ir: inv.lto(),
                pgo,
            },
            kernel: KernelParams(info.kernel.clone()),
        };
        Ok((obj, reads))
    }

    // ---- archive ---------------------------------------------------------

    fn run_ar(
        &self,
        fs: &mut Vfs,
        cwd: &str,
        argv: &[String],
    ) -> Result<CommandOutcome, CompileError> {
        // `ar <flags> <archive> <members...>`; we accept the common rcs/crs
        // spellings and treat them all as create/replace.
        if argv.len() < 3 {
            return Err(CompileError::NoInputs);
        }
        let out = comt_vfs::join(cwd, &argv[2]);
        let mut archive = Archive::default();
        let mut outcome = CommandOutcome::default();
        for member in &argv[3..] {
            let path = comt_vfs::join(cwd, member);
            let bytes = fs
                .read(&path)
                .map_err(|_| CompileError::MissingInput(path.clone()))?;
            let obj = artifact::read_object(&bytes)
                .map_err(|_| CompileError::BadArtifact(path.clone()))?;
            outcome.inputs.push(path.clone());
            archive
                .members
                .push((comt_vfs::file_name(&path), obj));
        }
        fs.write_file_p(
            &out,
            Bytes::from(artifact::write_archive_artifact(&archive)),
            0o644,
        )
        .map_err(|e| CompileError::Fs(e.to_string()))?;
        outcome.outputs.push(out);
        Ok(outcome)
    }

    // ---- link ------------------------------------------------------------

    fn run_link(
        &self,
        fs: &mut Vfs,
        cwd: &str,
        inv: &CompilerInvocation,
        language: Language,
    ) -> Result<CommandOutcome, CompileError> {
        let mut outcome = CommandOutcome::default();
        let mut objects: Vec<ObjectFile> = Vec::new();
        let mut archives: Vec<(String, Archive)> = Vec::new();
        /// A library visible to the link: its name (namespace) and, when it
        /// is a COMT artifact, its symbol table.
        struct LinkedLib {
            namespace: String,
            comt_defined: Vec<String>,
        }
        let mut libs: Vec<LinkedLib> = Vec::new();
        let mut needed_libs: Vec<String> = Vec::new();

        let mut lib_dirs: Vec<String> = inv
            .lib_dirs()
            .iter()
            .map(|d| comt_vfs::join(cwd, d))
            .collect();
        lib_dirs.extend(DEFAULT_LIB_DIRS.iter().map(|d| d.to_string()));

        for arg in &inv.args {
            match arg {
                Arg::Input { path, kind } => {
                    let abs = comt_vfs::join(cwd, path);
                    match kind {
                        k if k.is_source() => {
                            let (obj, reads) =
                                self.compile_unit(fs, cwd, inv, path, language, None)?;
                            outcome.inputs.extend(reads);
                            objects.push(obj);
                        }
                        InputKind::Object => {
                            let bytes = fs
                                .read(&abs)
                                .map_err(|_| CompileError::MissingInput(abs.clone()))?;
                            let obj = artifact::read_object(&bytes)
                                .map_err(|_| CompileError::BadArtifact(abs.clone()))?;
                            outcome.inputs.push(abs);
                            objects.push(obj);
                        }
                        InputKind::Archive => {
                            let bytes = fs
                                .read(&abs)
                                .map_err(|_| CompileError::MissingInput(abs.clone()))?;
                            let ar = artifact::read_archive_artifact(&bytes)
                                .map_err(|_| CompileError::BadArtifact(abs.clone()))?;
                            outcome.inputs.push(abs.clone());
                            archives.push((abs, ar));
                        }
                        InputKind::SharedObject => {
                            let bytes = fs
                                .read(&abs)
                                .map_err(|_| CompileError::MissingInput(abs.clone()))?;
                            outcome.inputs.push(abs.clone());
                            let ns = lib_namespace(&comt_vfs::file_name(&abs));
                            let defined = match artifact::read_artifact(&bytes) {
                                Ok(artifact::Artifact::Linked(b)) => b.defined,
                                _ => Vec::new(),
                            };
                            needed_libs.push(ns.clone());
                            libs.push(LinkedLib {
                                namespace: ns,
                                comt_defined: defined,
                            });
                        }
                        _ => {}
                    }
                }
                Arg::Opt { token, value, .. } if token == "l" => {
                    let name = value.clone().unwrap_or_default();
                    let (path, bytes) = find_library(fs, &lib_dirs, &name, inv.is_static())
                        .ok_or_else(|| CompileError::MissingLibrary(name.clone()))?;
                    outcome.inputs.push(path.clone());
                    match artifact::read_artifact(&bytes) {
                        Ok(artifact::Artifact::Archive(ar)) => {
                            archives.push((path, ar));
                            needed_libs.push(name.clone());
                        }
                        Ok(artifact::Artifact::Linked(b)) => {
                            needed_libs.push(name.clone());
                            libs.push(LinkedLib {
                                namespace: name.clone(),
                                comt_defined: b.defined,
                            });
                        }
                        _ => {
                            // Opaque system library: provides its namespace.
                            needed_libs.push(name.clone());
                            libs.push(LinkedLib {
                                namespace: name.clone(),
                                comt_defined: Vec::new(),
                            });
                        }
                    }
                }
                _ => {}
            }
        }

        if objects.is_empty() && archives.is_empty() {
            return Err(CompileError::NoInputs);
        }

        // Implicit driver libraries.
        let mut implicit: Vec<&str> = vec!["c"];
        match language {
            Language::Cxx => implicit.push("stdc++"),
            Language::Fortran => implicit.push("gfortran"),
            Language::C => {}
        }
        if inv.openmp() || objects.iter().any(|o| o.opt.openmp) {
            implicit.push("gomp");
        }
        for ns in implicit {
            if !needed_libs.iter().any(|l| l == ns) {
                needed_libs.push(ns.to_string());
                libs.push(LinkedLib {
                    namespace: ns.to_string(),
                    comt_defined: Vec::new(),
                });
            }
        }

        // Symbol resolution with archive pull-in fixpoint.
        let mut included: Vec<ObjectFile> = objects;
        let mut defined: BTreeSet<String> = included
            .iter()
            .flat_map(|o| o.defined.iter().cloned())
            .collect();
        for lib in &libs {
            defined.extend(lib.comt_defined.iter().cloned());
        }
        let mut pulled: BTreeSet<(usize, usize)> = BTreeSet::new();
        loop {
            let undefined: BTreeSet<String> = included
                .iter()
                .flat_map(|o| o.undefined.iter().cloned())
                .filter(|s| !defined.contains(s))
                .collect();
            if undefined.is_empty() {
                break;
            }
            let mut progressed = false;
            for (ai, (_, ar)) in archives.iter().enumerate() {
                for (mi, (_, member)) in ar.members.iter().enumerate() {
                    if pulled.contains(&(ai, mi)) {
                        continue;
                    }
                    if member.defined.iter().any(|d| undefined.contains(d)) {
                        pulled.insert((ai, mi));
                        defined.extend(member.defined.iter().cloned());
                        included.push(member.clone());
                        progressed = true;
                    }
                }
            }
            if !progressed {
                // Whatever is still undefined cannot be resolved.
                let sym = undefined.into_iter().next().unwrap();
                let out_name = inv.output().unwrap_or("a.out").to_string();
                if !inv.is_shared() {
                    return Err(CompileError::Unresolved {
                        symbol: sym,
                        context: out_name,
                    });
                }
                break; // shared objects may keep undefined internals
            }
        }

        // External namespaced symbols must have a providing library.
        let externs: BTreeSet<String> = included
            .iter()
            .flat_map(|o| o.externs.iter().cloned())
            .collect();
        for ext in &externs {
            if let Some((ns, _)) = ext.split_once(':') {
                let have = libs.iter().any(|l| {
                    l.namespace == ns || l.comt_defined.iter().any(|d| d == ext)
                });
                if !have && !inv.is_shared() {
                    return Err(CompileError::Unresolved {
                        symbol: ext.clone(),
                        context: format!("missing -l{ns}"),
                    });
                }
            }
        }

        // Executables need an entry point.
        let all_defined: BTreeSet<String> = included
            .iter()
            .flat_map(|o| o.defined.iter().cloned())
            .collect();
        if !inv.is_shared() && !all_defined.contains("main") {
            return Err(CompileError::Unresolved {
                symbol: "main".into(),
                context: "(entry point)".into(),
            });
        }

        // Aggregate provenance conservatively.
        let mut kernel = KernelParams::default();
        for o in &included {
            kernel.absorb(&o.kernel);
        }
        let quality = included
            .iter()
            .map(|o| o.opt.codegen_quality)
            .fold(f64::INFINITY, f64::min);
        let vw = included.iter().map(|o| o.opt.vector_width).min().unwrap_or(2);
        let fast_math = included.iter().all(|o| o.opt.fast_math);
        let openmp = included.iter().any(|o| o.opt.openmp);
        let any_instrumented = included.iter().any(|o| o.opt.pgo == PgoMode::Instrumented);
        let all_optimized =
            !included.is_empty() && included.iter().all(|o| o.opt.pgo == PgoMode::Optimized);
        let pgo = if any_instrumented {
            PgoMode::Instrumented
        } else if all_optimized {
            PgoMode::Optimized
        } else {
            PgoMode::None
        };
        let lto_applied = inv.lto() && included.iter().all(|o| o.opt.lto_ir);
        let opt_level = included
            .iter()
            .map(|o| o.opt.opt_level.clone())
            .next()
            .unwrap_or_else(|| "0".to_string());
        let target = included.iter().find_map(|o| o.target.clone());

        needed_libs.dedup();
        let binary = LinkedBinary {
            kind: if inv.is_shared() {
                BinKind::SharedObject
            } else {
                BinKind::Executable
            },
            defined: all_defined.into_iter().collect(),
            externs: externs.into_iter().collect(),
            needed_libs,
            objects: included.iter().map(|o| o.source_path.clone()).collect(),
            target,
            opt: OptProvenance {
                toolchain: self.toolchain.name.to_string(),
                codegen_quality: if quality.is_finite() { quality } else { 1.0 },
                opt_level,
                vector_width: vw,
                fast_math,
                openmp,
                lto_ir: false,
                pgo,
            },
            lto_applied,
            layout_optimized: false,
            kernel,
        };

        let out_path = comt_vfs::join(cwd, inv.output().unwrap_or("a.out"));
        fs.write_file_p(&out_path, Bytes::from(artifact::write_linked(&binary)), 0o755)
            .map_err(|e| CompileError::Fs(e.to_string()))?;
        outcome.outputs.push(out_path);
        Ok(outcome)
    }

    fn run_passthrough(
        &self,
        fs: &mut Vfs,
        cwd: &str,
        inv: &CompilerInvocation,
    ) -> Result<CommandOutcome, CompileError> {
        // `-E` / `-S`: read the sources; if `-o` is given, copy the first
        // source's text there (enough for build graphs that stash
        // preprocessed output).
        let mut outcome = CommandOutcome::default();
        let sources: Vec<&str> = inv
            .inputs()
            .iter()
            .filter(|(_, k)| k.is_source())
            .map(|(p, _)| *p)
            .collect();
        if sources.is_empty() {
            return Err(CompileError::NoInputs);
        }
        for s in &sources {
            let p = comt_vfs::join(cwd, s);
            if !fs.exists(&p) {
                return Err(CompileError::MissingInput(p));
            }
            outcome.inputs.push(p);
        }
        if let Some(out) = inv.output() {
            let text = fs
                .read(&outcome.inputs[0])
                .map_err(|e| CompileError::Fs(e.to_string()))?;
            let out_path = comt_vfs::join(cwd, out);
            fs.write_file_p(&out_path, text, 0o644)
                .map_err(|e| CompileError::Fs(e.to_string()))?;
            outcome.outputs.push(out_path);
        }
        Ok(outcome)
    }
}

/// Re-generate code for an IR-carrying object under a new toolchain and
/// flags — the LLVM-IR distribution alternative of paper §4.6. The IR
/// keeps symbols and kernel metadata; codegen provenance (toolchain,
/// quality, vector width, LTO/PGO state) is recomputed from the
/// transformed invocation. IR embeds the target triple, so re-codegen is
/// only possible for the ISA the IR was produced for.
pub fn recodegen(
    obj: &mut crate::artifact::ObjectFile,
    toolchain: &Toolchain,
    isa: &str,
    inv: &CompilerInvocation,
) -> Result<(), CompileError> {
    if let Some(t) = &obj.target {
        if t.isa != isa {
            return Err(CompileError::IsaMismatch {
                unit: obj.source_path.clone(),
                unit_isa: t.isa.clone(),
                target_isa: isa.to_string(),
            });
        }
    }
    let recorded = obj.target.as_ref().map(|t| t.march.as_str());
    let march = effective_march(toolchain, isa, inv, recorded);
    let opt_level = inv
        .opt_level()
        .unwrap_or_else(|| obj.opt.opt_level.clone());
    obj.opt.toolchain = toolchain.name.to_string();
    obj.opt.codegen_quality = toolchain.codegen_quality * opt_level_factor(&opt_level);
    obj.opt.opt_level = opt_level;
    obj.opt.vector_width = vector_width(isa, &march);
    obj.opt.lto_ir = inv.lto() || obj.opt.lto_ir;
    obj.opt.fast_math = inv.fast_math() || obj.opt.fast_math;
    obj.opt.pgo = match inv.pgo() {
        PgoFlag::None => obj.opt.pgo,
        PgoFlag::Generate(_) => PgoMode::Instrumented,
        PgoFlag::Use(_) => PgoMode::Optimized,
    };
    obj.target = Some(TargetInfo {
        isa: isa.to_string(),
        march,
    });
    Ok(())
}

/// `-O` level → codegen speed factor.
fn opt_level_factor(level: &str) -> f64 {
    match level {
        "0" => 0.55,
        "1" | "" => 0.8,
        "2" => 1.0,
        "3" => 1.07,
        "fast" => 1.12,
        "s" | "z" | "g" => 0.9,
        _ => 1.0,
    }
}

/// The `-march` a compile step generates code for: `native` is what the
/// toolchain picks on the target system, and a command line without one
/// keeps `recorded` (an IR object's own target), else the ISA's default.
fn effective_march(
    toolchain: &Toolchain,
    isa: &str,
    inv: &CompilerInvocation,
    recorded: Option<&str>,
) -> String {
    match inv.march() {
        Some("native") => toolchain.native_march(isa),
        Some(m) => m,
        None => recorded
            .or_else(|| features::default_march(isa))
            .unwrap_or_default(),
    }
    .to_string()
}

/// Library namespace from a file name: `libm.so.6` → `m`.
fn lib_namespace(file_name: &str) -> String {
    let stem = file_name.strip_prefix("lib").unwrap_or(file_name);
    match stem.find(".so").or_else(|| stem.find(".a")) {
        Some(i) => stem[..i].to_string(),
        None => stem.to_string(),
    }
}

/// Search `-L` dirs then defaults for `-lname`. Accepts `libN.so`,
/// versioned `libN.so.X` (packages install sonames without dev symlinks in
/// this simulation), and `libN.a`; `-static` prefers the archive.
fn find_library(fs: &Vfs, dirs: &[String], name: &str, prefer_static: bool) -> Option<(String, Bytes)> {
    for dir in dirs {
        let so_exact = comt_vfs::join(dir, &format!("lib{name}.so"));
        let a_exact = comt_vfs::join(dir, &format!("lib{name}.a"));
        let mut candidates: Vec<String> = Vec::new();
        if prefer_static {
            candidates.push(a_exact.clone());
            candidates.push(so_exact.clone());
        } else {
            candidates.push(so_exact.clone());
        }
        // Versioned sonames.
        if let Ok(children) = fs.list_dir(dir) {
            let prefix = format!("lib{name}.so.");
            let mut versioned: Vec<String> = children
                .into_iter()
                .filter(|c| c.starts_with(&prefix))
                .map(|c| comt_vfs::join(dir, &c))
                .collect();
            versioned.sort();
            candidates.extend(versioned);
        }
        if !prefer_static {
            candidates.push(a_exact);
        }
        for c in candidates {
            if let Ok(bytes) = fs.read(&c) {
                return Some((c, bytes));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn base_fs() -> Vfs {
        let mut fs = Vfs::new();
        fs.mkdir_p("/work").unwrap();
        fs.mkdir_p("/usr/lib").unwrap();
        fs.mkdir_p("/usr/include").unwrap();
        fs.write_file("/usr/lib/libm.so.6", Bytes::from_static(b"ELF m"), 0o644)
            .unwrap();
        fs.write_file("/usr/lib/libc.so.6", Bytes::from_static(b"ELF c"), 0o644)
            .unwrap();
        fs.write_file(
            "/usr/lib/libstdc++.so.6",
            Bytes::from_static(b"ELF s"),
            0o644,
        )
        .unwrap();
        fs
    }

    fn write_src(fs: &mut Vfs, path: &str, text: &str) {
        fs.write_file_p(path, Bytes::from(text.to_string()), 0o644)
            .unwrap();
    }

    fn sim() -> SimCompiler {
        SimCompiler::new(Toolchain::distro_gcc(), "x86_64")
    }

    #[test]
    fn compile_records_reads_and_writes() {
        let mut fs = base_fs();
        write_src(
            &mut fs,
            "/work/a.c",
            "#pragma comt provides(main)\n#include \"a.h\"\nint main(){}\n",
        );
        write_src(&mut fs, "/work/a.h", "#include \"b.h\"\n");
        write_src(&mut fs, "/work/b.h", "// leaf header\n");
        let out = sim().run(&mut fs, "/work", &argv("gcc -O2 -c a.c")).unwrap();
        assert!(out.inputs.contains(&"/work/a.c".to_string()));
        assert!(out.inputs.contains(&"/work/a.h".to_string()));
        assert!(out.inputs.contains(&"/work/b.h".to_string()));
        assert_eq!(out.outputs, vec!["/work/a.o".to_string()]);
        let obj = artifact::read_object(&fs.read("/work/a.o").unwrap()).unwrap();
        assert_eq!(obj.defined, vec!["main"]);
        assert_eq!(obj.opt.opt_level, "2");
        assert_eq!(obj.opt.vector_width, 2); // default x86-64 march
    }

    /// The memo digests raw bytes; the object records the digest of the
    /// source as text. They agree for UTF-8 only, so a non-UTF-8 source
    /// keeps the text digest with or without a memo.
    #[test]
    fn source_digest_is_the_same_with_and_without_a_memo() {
        for source in [
            b"#pragma comt provides(main)\nint main(){}\n".to_vec(),
            b"#pragma comt provides(main)\n// caf\xe9 \xff\nint main(){}\n".to_vec(),
        ] {
            let mut fs = base_fs();
            fs.write_file_p("/work/a.c", Bytes::from(source.clone()), 0o644)
                .unwrap();
            let digest = |memo: Option<&DigestMemo>| {
                let (_, outputs) = match memo {
                    Some(memo) => sim().compile_only(&fs, "/work", &argv("gcc -c a.c"), memo),
                    None => {
                        let mut fs = fs.clone();
                        sim()
                            .run(&mut fs, "/work", &argv("gcc -c a.c"))
                            .map(|outcome| {
                                let obj = fs.read("/work/a.o").unwrap().to_vec();
                                (outcome, vec![("/work/a.o".to_string(), obj)])
                            })
                    }
                }
                .unwrap();
                artifact::read_object(&outputs[0].1).unwrap().source_digest
            };
            let memo = DigestMemo::default();
            // A filled memo must not change the answer either.
            memo.of(&fs.read("/work/a.c").unwrap());
            let text = String::from_utf8_lossy(&source).into_owned();
            let want = comt_digest::Digest::of(text.as_bytes()).to_oci_string();
            assert_eq!(digest(None), want);
            assert_eq!(digest(Some(&memo)), want);
        }
    }

    #[test]
    fn march_native_widens_vectors() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/k.c", "#pragma comt provides(main)\n");
        sim()
            .run(&mut fs, "/work", &argv("gcc -O3 -march=native -c k.c"))
            .unwrap();
        let obj = artifact::read_object(&fs.read("/work/k.o").unwrap()).unwrap();
        assert_eq!(obj.target.unwrap().march, "icelake-server");
        assert_eq!(obj.opt.vector_width, 8);
        assert!(obj.opt.codegen_quality > 1.0);
    }

    #[test]
    fn isa_mismatch_rejected() {
        let mut fs = base_fs();
        write_src(
            &mut fs,
            "/work/simd.c",
            "#pragma comt provides(main)\n#pragma comt isa(x86_64)\n",
        );
        let arm = SimCompiler::new(Toolchain::distro_gcc(), "aarch64");
        let err = arm.run(&mut fs, "/work", &argv("gcc -c simd.c")).unwrap_err();
        assert!(matches!(err, CompileError::IsaMismatch { .. }));
    }

    #[test]
    fn vendor_toolchain_rejects_foreign_isa() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/a.c", "#pragma comt provides(main)\n");
        let cross = SimCompiler::new(Toolchain::vendor_x86(), "aarch64");
        let err = cross.run(&mut fs, "/work", &argv("vcc -c a.c")).unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedIsa { .. }));
    }

    #[test]
    fn link_pulls_archive_members_on_demand() {
        let mut fs = base_fs();
        write_src(
            &mut fs,
            "/work/main.c",
            "#pragma comt provides(main)\n#pragma comt requires(used)\n",
        );
        write_src(&mut fs, "/work/used.c", "#pragma comt provides(used)\n#pragma comt requires(dep)\n");
        write_src(&mut fs, "/work/dep.c", "#pragma comt provides(dep)\n");
        write_src(&mut fs, "/work/unused.c", "#pragma comt provides(unused)\n");
        let s = sim();
        for f in ["main.c", "used.c", "dep.c", "unused.c"] {
            s.run(&mut fs, "/work", &argv(&format!("gcc -c {f}"))).unwrap();
        }
        s.run(&mut fs, "/work", &argv("ar rcs libapp.a used.o dep.o unused.o"))
            .unwrap();
        s.run(&mut fs, "/work", &argv("gcc main.o -L. -lapp -o app"))
            .unwrap();
        let bin = artifact::read_linked(&fs.read("/work/app").unwrap()).unwrap();
        // Pull-in semantics: used + transitive dep linked, unused not.
        assert!(bin.objects.iter().any(|o| o.ends_with("used.c")));
        assert!(bin.objects.iter().any(|o| o.ends_with("dep.c")));
        assert!(!bin.objects.iter().any(|o| o.ends_with("unused.c")));
    }

    #[test]
    fn unresolved_symbol_fails_link() {
        let mut fs = base_fs();
        write_src(
            &mut fs,
            "/work/main.c",
            "#pragma comt provides(main)\n#pragma comt requires(ghost)\n",
        );
        let s = sim();
        s.run(&mut fs, "/work", &argv("gcc -c main.c")).unwrap();
        let err = s
            .run(&mut fs, "/work", &argv("gcc main.o -o app"))
            .unwrap_err();
        assert!(matches!(err, CompileError::Unresolved { symbol, .. } if symbol == "ghost"));
    }

    #[test]
    fn missing_extern_library_fails() {
        let mut fs = base_fs();
        write_src(
            &mut fs,
            "/work/main.c",
            "#pragma comt provides(main)\n#pragma comt extern(openblas:dgemm)\n",
        );
        let s = sim();
        s.run(&mut fs, "/work", &argv("gcc -c main.c")).unwrap();
        let err = s
            .run(&mut fs, "/work", &argv("gcc main.o -o app"))
            .unwrap_err();
        assert!(
            matches!(err, CompileError::Unresolved { ref symbol, .. } if symbol == "openblas:dgemm"),
            "{err:?}"
        );
    }

    #[test]
    fn extern_resolved_by_versioned_soname() {
        let mut fs = base_fs();
        write_src(
            &mut fs,
            "/work/main.c",
            "#pragma comt provides(main)\n#pragma comt extern(m:sqrt)\n",
        );
        let s = sim();
        s.run(&mut fs, "/work", &argv("gcc -c main.c")).unwrap();
        let out = s
            .run(&mut fs, "/work", &argv("gcc main.o -lm -o app"))
            .unwrap();
        assert!(out.inputs.contains(&"/usr/lib/libm.so.6".to_string()));
    }

    #[test]
    fn missing_library_reported() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/main.c", "#pragma comt provides(main)\n");
        let s = sim();
        s.run(&mut fs, "/work", &argv("gcc -c main.c")).unwrap();
        let err = s
            .run(&mut fs, "/work", &argv("gcc main.o -lnope -o app"))
            .unwrap_err();
        assert!(matches!(err, CompileError::MissingLibrary(n) if n == "nope"));
    }

    #[test]
    fn executable_requires_main() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/lib.c", "#pragma comt provides(helper)\n");
        let s = sim();
        s.run(&mut fs, "/work", &argv("gcc -c lib.c")).unwrap();
        let err = s.run(&mut fs, "/work", &argv("gcc lib.o -o app")).unwrap_err();
        assert!(matches!(err, CompileError::Unresolved { symbol, .. } if symbol == "main"));
        // …but a shared object is fine.
        s.run(&mut fs, "/work", &argv("gcc -shared lib.o -o libhelper.so"))
            .unwrap();
        let so = artifact::read_linked(&fs.read("/work/libhelper.so").unwrap()).unwrap();
        assert_eq!(so.kind, BinKind::SharedObject);
    }

    #[test]
    fn cxx_driver_adds_stdcxx() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/m.cc", "#pragma comt provides(main)\n");
        let s = sim();
        s.run(&mut fs, "/work", &argv("g++ m.cc -o app")).unwrap();
        let bin = artifact::read_linked(&fs.read("/work/app").unwrap()).unwrap();
        assert!(bin.needed_libs.contains(&"stdc++".to_string()));
        assert!(bin.needed_libs.contains(&"c".to_string()));
    }

    #[test]
    fn mpicc_wrapper_links_mpi() {
        let mut fs = base_fs();
        fs.write_file("/usr/lib/libmpi.so.12", Bytes::from_static(b"ELF mpi"), 0o644)
            .unwrap();
        write_src(
            &mut fs,
            "/work/m.c",
            "#pragma comt provides(main)\n#pragma comt extern(mpi:MPI_Init)\n",
        );
        let s = sim();
        s.run(&mut fs, "/work", &argv("mpicc m.c -o app")).unwrap();
        let bin = artifact::read_linked(&fs.read("/work/app").unwrap()).unwrap();
        assert!(bin.needed_libs.contains(&"mpi".to_string()));
    }

    #[test]
    fn link_directly_from_sources() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/a.c", "#pragma comt provides(main)\n#pragma comt kernel(flops=5)\n");
        write_src(&mut fs, "/work/b.c", "#pragma comt provides(aux)\n#pragma comt kernel(flops=7)\n");
        let s = sim();
        s.run(&mut fs, "/work", &argv("gcc a.c b.c -o app")).unwrap();
        let bin = artifact::read_linked(&fs.read("/work/app").unwrap()).unwrap();
        assert_eq!(bin.kernel.get("flops"), 12.0);
        assert_eq!(bin.objects.len(), 2);
    }

    #[test]
    fn lto_applied_only_with_ir_objects() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/a.c", "#pragma comt provides(main)\n");
        let s = sim();
        s.run(&mut fs, "/work", &argv("gcc -flto -c a.c")).unwrap();
        s.run(&mut fs, "/work", &argv("gcc -flto a.o -o app")).unwrap();
        let bin = artifact::read_linked(&fs.read("/work/app").unwrap()).unwrap();
        assert!(bin.lto_applied);

        // Without IR in the object, link-time -flto does nothing.
        s.run(&mut fs, "/work", &argv("gcc -c a.c")).unwrap();
        s.run(&mut fs, "/work", &argv("gcc -flto a.o -o app2")).unwrap();
        let bin2 = artifact::read_linked(&fs.read("/work/app2").unwrap()).unwrap();
        assert!(!bin2.lto_applied);
    }

    #[test]
    fn pgo_instrumented_then_optimized() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/a.c", "#pragma comt provides(main)\n");
        let s = sim();
        s.run(&mut fs, "/work", &argv("gcc -fprofile-generate -c a.c"))
            .unwrap();
        s.run(&mut fs, "/work", &argv("gcc a.o -o app")).unwrap();
        let bin = artifact::read_linked(&fs.read("/work/app").unwrap()).unwrap();
        assert_eq!(bin.opt.pgo, PgoMode::Instrumented);

        // -fprofile-use requires the profile to exist.
        let err = s
            .run(&mut fs, "/work", &argv("gcc -fprofile-use=app.prof -c a.c"))
            .unwrap_err();
        assert!(matches!(err, CompileError::MissingProfile(_)));
        write_src(&mut fs, "/work/app.prof", "hot:main 99\n");
        s.run(&mut fs, "/work", &argv("gcc -fprofile-use=app.prof -c a.c"))
            .unwrap();
        s.run(&mut fs, "/work", &argv("gcc a.o -o app")).unwrap();
        let bin2 = artifact::read_linked(&fs.read("/work/app").unwrap()).unwrap();
        assert_eq!(bin2.opt.pgo, PgoMode::Optimized);
    }

    #[test]
    fn multiple_sources_with_output_rejected() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/a.c", "");
        write_src(&mut fs, "/work/b.c", "");
        let err = sim()
            .run(&mut fs, "/work", &argv("gcc -c a.c b.c -o x.o"))
            .unwrap_err();
        assert_eq!(err, CompileError::MultipleSourcesWithOutput);
    }

    #[test]
    fn ar_requires_objects() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/notobj.o", "just text");
        let err = sim()
            .run(&mut fs, "/work", &argv("ar rcs lib.a notobj.o"))
            .unwrap_err();
        assert!(matches!(err, CompileError::BadArtifact(_)));
    }

    #[test]
    fn quality_reflects_opt_level_and_toolchain() {
        let mut fs = base_fs();
        write_src(&mut fs, "/work/a.c", "#pragma comt provides(main)\n");
        let gcc = sim();
        gcc.run(&mut fs, "/work", &argv("gcc -O0 -c a.c -o o0.o")).unwrap();
        gcc.run(&mut fs, "/work", &argv("gcc -O3 -c a.c -o o3.o")).unwrap();
        let q0 = artifact::read_object(&fs.read("/work/o0.o").unwrap()).unwrap().opt.codegen_quality;
        let q3 = artifact::read_object(&fs.read("/work/o3.o").unwrap()).unwrap().opt.codegen_quality;
        assert!(q3 > q0);

        let vendor = SimCompiler::new(Toolchain::vendor_x86(), "x86_64");
        vendor.run(&mut fs, "/work", &argv("vcc -O3 -c a.c -o v3.o")).unwrap();
        let qv = artifact::read_object(&fs.read("/work/v3.o").unwrap()).unwrap().opt.codegen_quality;
        assert!(qv > q3);
    }

    #[test]
    fn lib_namespace_extraction() {
        assert_eq!(lib_namespace("libm.so.6"), "m");
        assert_eq!(lib_namespace("libopenblas.so.0"), "openblas");
        assert_eq!(lib_namespace("libapp.a"), "app");
        assert_eq!(lib_namespace("libstdc++.so.6"), "stdc++");
    }
}
