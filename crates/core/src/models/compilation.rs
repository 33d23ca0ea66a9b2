//! Compilation models: how an individual build-graph node was generated.
//!
//! "The compilation model of .a nodes represents the archive contents,
//! while those of .o/.so nodes are structural data representing GCC command
//! lines" (§4.3). The structured command-line form lives in
//! [`comt_toolchain::CompilerInvocation`]; this wrapper adds the recorded
//! execution context (cwd, env) and classifies the command, while keeping
//! a lossless argv for serialization — re-parsing on the system side is
//! exactly what lets adapters transform it.

use comt_toolchain::{CompilerInvocation, DriverMode, Toolchain};
use serde::{Deserialize, Serialize};

/// How a node's producing command is modeled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompilationModel {
    /// A compiler invocation producing object code (`-c`).
    Compile {
        argv: Vec<String>,
        cwd: String,
        env: Vec<String>,
    },
    /// A linking invocation producing an executable or shared object.
    Link {
        argv: Vec<String>,
        cwd: String,
        env: Vec<String>,
    },
    /// An archiver invocation (`ar`): the model is the member list.
    ArchiveCmd {
        argv: Vec<String>,
        cwd: String,
        members: Vec<String>,
    },
    /// Any other recorded command (file utilities, package installs);
    /// replayed verbatim by the back-end.
    Other {
        argv: Vec<String>,
        cwd: String,
        env: Vec<String>,
    },
}

impl CompilationModel {
    /// Classify a recorded command.
    pub fn classify(argv: &[String], cwd: &str, env: &[String], inputs: &[String]) -> Self {
        let program = argv.first().map(String::as_str).unwrap_or("");
        let base = program.rsplit('/').next().unwrap_or(program);
        if Toolchain::is_archiver(base) {
            return CompilationModel::ArchiveCmd {
                argv: argv.to_vec(),
                cwd: cwd.to_string(),
                members: inputs.to_vec(),
            };
        }
        // Any known toolchain personality may claim the program name.
        if Toolchain::lookup(base).is_some() {
            if let Ok(inv) = CompilerInvocation::parse(argv) {
                let model = match inv.mode() {
                    DriverMode::Compile => CompilationModel::Compile {
                        argv: argv.to_vec(),
                        cwd: cwd.to_string(),
                        env: env.to_vec(),
                    },
                    DriverMode::Link => CompilationModel::Link {
                        argv: argv.to_vec(),
                        cwd: cwd.to_string(),
                        env: env.to_vec(),
                    },
                    _ => CompilationModel::Other {
                        argv: argv.to_vec(),
                        cwd: cwd.to_string(),
                        env: env.to_vec(),
                    },
                };
                return model;
            }
        }
        CompilationModel::Other {
            argv: argv.to_vec(),
            cwd: cwd.to_string(),
            env: env.to_vec(),
        }
    }

    /// The raw argv.
    pub fn argv(&self) -> &[String] {
        match self {
            CompilationModel::Compile { argv, .. }
            | CompilationModel::Link { argv, .. }
            | CompilationModel::ArchiveCmd { argv, .. }
            | CompilationModel::Other { argv, .. } => argv,
        }
    }

    /// The recorded working directory.
    pub fn cwd(&self) -> &str {
        match self {
            CompilationModel::Compile { cwd, .. }
            | CompilationModel::Link { cwd, .. }
            | CompilationModel::ArchiveCmd { cwd, .. }
            | CompilationModel::Other { cwd, .. } => cwd,
        }
    }

    /// Parse the argv into the transformable invocation form (compile/link
    /// models only).
    pub fn invocation(&self) -> Option<CompilerInvocation> {
        match self {
            CompilationModel::Compile { argv, .. } | CompilationModel::Link { argv, .. } => {
                CompilerInvocation::parse(argv).ok()
            }
            _ => None,
        }
    }

    /// Replace the argv (after an adapter transformed the invocation).
    pub fn set_argv(&mut self, new_argv: Vec<String>) {
        match self {
            CompilationModel::Compile { argv, .. }
            | CompilationModel::Link { argv, .. }
            | CompilationModel::ArchiveCmd { argv, .. }
            | CompilationModel::Other { argv, .. } => *argv = new_argv,
        }
    }

    /// Whether this is a compiler/linker step adapters should transform.
    pub fn is_compilation(&self) -> bool {
        matches!(
            self,
            CompilationModel::Compile { .. } | CompilationModel::Link { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn classify_compile_and_link() {
        let c = CompilationModel::classify(&argv("gcc -O2 -c a.c"), "/src", &[], &[]);
        assert!(matches!(c, CompilationModel::Compile { .. }));
        assert!(c.is_compilation());
        let l = CompilationModel::classify(&argv("g++ a.o -o app"), "/src", &[], &[]);
        assert!(matches!(l, CompilationModel::Link { .. }));
    }

    #[test]
    fn classify_vendor_and_mpi_programs() {
        let v = CompilationModel::classify(&argv("vcc -O3 -c a.c"), "/", &[], &[]);
        assert!(matches!(v, CompilationModel::Compile { .. }));
        let m = CompilationModel::classify(&argv("mpicc a.o -o app"), "/", &[], &[]);
        assert!(matches!(m, CompilationModel::Link { .. }));
    }

    #[test]
    fn classify_archive_keeps_members() {
        let inputs = vec!["/src/a.o".to_string(), "/src/b.o".to_string()];
        let a = CompilationModel::classify(&argv("ar rcs lib.a a.o b.o"), "/src", &[], &inputs);
        match a {
            CompilationModel::ArchiveCmd { members, .. } => assert_eq!(members, inputs),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn classify_other() {
        let o = CompilationModel::classify(&argv("cp a b"), "/", &[], &[]);
        assert!(matches!(o, CompilationModel::Other { .. }));
        assert!(!o.is_compilation());
        // Unparseable compiler line degrades to Other.
        let bad = CompilationModel::classify(&argv("gcc -o"), "/", &[], &[]);
        assert!(matches!(bad, CompilationModel::Other { .. }));
    }

    #[test]
    fn invocation_roundtrip_through_set_argv() {
        let mut c = CompilationModel::classify(&argv("gcc -O2 -c a.c"), "/src", &[], &[]);
        let mut inv = c.invocation().unwrap();
        inv.set_march("icelake-server");
        c.set_argv(inv.to_argv());
        assert!(c.argv().iter().any(|t| t == "-march=icelake-server"));
        assert_eq!(c.cwd(), "/src");
    }

    #[test]
    fn serde_roundtrip() {
        let c = CompilationModel::classify(&argv("gcc -O2 -c a.c"), "/src", &["CC=gcc".into()], &[]);
        let json = serde_json::to_string(&c).unwrap();
        let back: CompilationModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
