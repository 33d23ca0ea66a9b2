//! The build executor: command dispatch inside a simulated container.
//!
//! The executor is the recorder's host — every command it runs is appended
//! to the build trace with the files it read and wrote, which is exactly
//! the data the coMtainer front-end parses into the build graph.

use crate::trace::{BuildTrace, RawCommand};
use bytes::Bytes;
use comt_pkg::{Dependency, Repository};
use comt_toolchain::{SimCompiler, Toolchain};
use comt_vfs::Vfs;
use std::collections::BTreeMap;
use std::fmt;

/// A running container: a root filesystem plus process state.
#[derive(Debug, Clone)]
pub struct Container {
    pub fs: Vfs,
    pub env: BTreeMap<String, String>,
    pub workdir: String,
    pub isa: String,
}

/// Errors executing a command in a container.
#[derive(Debug)]
pub enum ExecError {
    /// Empty command line.
    Empty,
    /// No toolchain nor built-in utility handles the program.
    UnknownProgram(String),
    /// `apt-get install` without a configured repository.
    NoRepository,
    /// A dependency spec failed to parse.
    BadDependency(String, comt_pkg::DepError),
    /// Package resolution or installation failed.
    Install(comt_pkg::InstallError),
    /// A toolchain command failed.
    Compile(comt_toolchain::CompileError),
    /// A file utility failed.
    Fs(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Empty => write!(f, "empty command"),
            ExecError::UnknownProgram(p) => write!(f, "unknown program {p:?}"),
            ExecError::NoRepository => write!(f, "apt-get: no repository configured"),
            ExecError::BadDependency(spec, e) => write!(f, "bad dependency {spec:?}: {e}"),
            ExecError::Install(e) => write!(f, "{e}"),
            ExecError::Compile(e) => write!(f, "{e}"),
            ExecError::Fs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::BadDependency(_, e) => Some(e),
            ExecError::Install(e) => Some(e),
            ExecError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

/// Command dispatch over a set of toolchains and a package repository.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Candidate toolchains, in dispatch priority order.
    pub toolchains: Vec<Toolchain>,
    /// Target ISA of the containers this executor drives.
    pub isa: String,
    /// Repository `apt-get install` resolves against.
    pub repo: Option<Repository>,
}

impl Executor {
    pub fn new(isa: &str, toolchains: Vec<Toolchain>) -> Self {
        Executor {
            toolchains,
            isa: isa.to_string(),
            repo: None,
        }
    }

    /// Attach the package repository (builder style).
    pub fn with_repo(mut self, repo: Repository) -> Self {
        self.repo = Some(repo);
        self
    }

    /// Execute one command in the container and record it into the trace.
    pub fn run(
        &self,
        container: &mut Container,
        argv: &[String],
        trace: &mut BuildTrace,
    ) -> Result<(), ExecError> {
        let program = argv.first().ok_or(ExecError::Empty)?;
        let base = program.rsplit('/').next().unwrap_or(program);

        let (inputs, outputs) = match base {
            "apt-get" | "apt" => self.run_apt(container, argv)?,
            _ => {
                if let Some(tc) = self
                    .toolchains
                    .iter()
                    .find(|t| SimCompiler::new((*t).clone(), &self.isa).handles(base))
                {
                    let sim = SimCompiler::new(tc.clone(), &self.isa);
                    let outcome = sim
                        .run(&mut container.fs, &container.workdir, argv)
                        .map_err(ExecError::Compile)?;
                    (outcome.inputs, outcome.outputs)
                } else {
                    run_utility(container, base, argv)?
                }
            }
        };

        trace.record(RawCommand {
            argv: argv.to_vec(),
            cwd: container.workdir.clone(),
            env: container
                .env
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect(),
            inputs,
            outputs,
        });
        Ok(())
    }

    /// `apt-get install -y pkgs…` — resolve against the repository and
    /// install whatever is not already present. `apt-get update` is a
    /// no-op.
    fn run_apt(
        &self,
        container: &mut Container,
        argv: &[String],
    ) -> Result<(Vec<String>, Vec<String>), ExecError> {
        let rest: Vec<&String> = argv.iter().skip(1).collect();
        if rest.first().map(|s| s.as_str()) == Some("update") {
            return Ok((Vec::new(), Vec::new()));
        }
        let specs: Vec<&str> = rest
            .iter()
            .skip_while(|t| t.as_str() != "install")
            .skip(1)
            .filter(|t| !t.starts_with('-'))
            .map(|t| t.as_str())
            .collect();
        if specs.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        let repo = self.repo.as_ref().ok_or(ExecError::NoRepository)?;
        let deps: Vec<Dependency> = specs
            .iter()
            .map(|s| {
                s.parse()
                    .map_err(|e| ExecError::BadDependency((*s).to_string(), e))
            })
            .collect::<Result<_, _>>()?;
        comt_pkg::install_missing(&mut container.fs, repo, &deps).map_err(ExecError::Install)?;
        Ok((Vec::new(), Vec::new()))
    }
}

/// The mini coreutils the build scripts may invoke besides the toolchain.
fn run_utility(
    container: &mut Container,
    base: &str,
    argv: &[String],
) -> Result<(Vec<String>, Vec<String>), ExecError> {
    let cwd = container.workdir.clone();
    let operands: Vec<String> = argv
        .iter()
        .skip(1)
        .filter(|t| !t.starts_with('-'))
        .map(|t| comt_vfs::join(&cwd, t))
        .collect();
    match base {
        "mkdir" => {
            for dir in &operands {
                container
                    .fs
                    .mkdir_p(dir)
                    .map_err(|e| ExecError::Fs(format!("mkdir {dir}: {e}")))?;
            }
            Ok((Vec::new(), operands))
        }
        "cp" | "install" => {
            let [src, dst] = operands.as_slice() else {
                return Err(ExecError::Fs(format!("{base}: expected src dst")));
            };
            let content = container
                .fs
                .read(src)
                .map_err(|e| ExecError::Fs(format!("cp {src}: {e}")))?;
            let mode = if base == "install" { 0o755 } else { 0o644 };
            container
                .fs
                .write_file_p(dst, Bytes::from(content.to_vec()), mode)
                .map_err(|e| ExecError::Fs(format!("cp {dst}: {e}")))?;
            Ok((vec![src.clone()], vec![dst.clone()]))
        }
        "ln" => {
            let [target, link] = operands.as_slice() else {
                return Err(ExecError::Fs("ln: expected target link".into()));
            };
            container
                .fs
                .mkdir_p(&comt_vfs::parent(link))
                .map_err(|e| ExecError::Fs(format!("ln {link}: {e}")))?;
            container
                .fs
                .symlink(link, target)
                .map_err(|e| ExecError::Fs(format!("ln {link}: {e}")))?;
            Ok((Vec::new(), vec![link.clone()]))
        }
        "true" | ":" | "echo" => Ok((Vec::new(), Vec::new())),
        other => Err(ExecError::UnknownProgram(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn container() -> Container {
        Container {
            fs: Vfs::new(),
            env: BTreeMap::new(),
            workdir: "/src".to_string(),
            isa: "x86_64".to_string(),
        }
    }

    #[test]
    fn compile_records_io() {
        let executor = Executor::new("x86_64", vec![Toolchain::distro_gcc()]);
        let mut c = container();
        c.fs.write_file_p("/src/main.c", Bytes::from_static(b"int main(){}\n"), 0o644)
            .unwrap();
        let mut trace = BuildTrace::default();
        executor
            .run(&mut c, &argv("gcc -O2 -c main.c -o main.o"), &mut trace)
            .unwrap();
        assert!(c.fs.exists("/src/main.o"));
        assert_eq!(trace.commands.len(), 1);
        assert!(trace.commands[0].inputs.contains(&"/src/main.c".to_string()));
        assert!(trace.commands[0].outputs.contains(&"/src/main.o".to_string()));
    }

    #[test]
    fn apt_install_resolves_against_repo() {
        let repo = comt_pkg::catalog::generic_repo_scaled("x86_64", comt_pkg::catalog::MINI_SCALE);
        let executor = Executor::new("x86_64", vec![Toolchain::distro_gcc()]).with_repo(repo);
        let mut c = container();
        let mut trace = BuildTrace::default();
        executor
            .run(&mut c, &argv("apt-get install -y libopenblas0"), &mut trace)
            .unwrap();
        let names: Vec<String> = comt_pkg::detect(&c.fs)
            .installed(&c.fs)
            .unwrap()
            .into_iter()
            .map(|r| r.name)
            .collect();
        assert!(names.contains(&"libopenblas0".to_string()), "{names:?}");
    }

    #[test]
    fn apt_without_repo_fails() {
        let executor = Executor::new("x86_64", vec![]);
        let mut c = container();
        let mut trace = BuildTrace::default();
        let err = executor
            .run(&mut c, &argv("apt-get install -y libfoo"), &mut trace)
            .unwrap_err();
        assert!(matches!(err, ExecError::NoRepository));
    }

    #[test]
    fn unknown_program_rejected() {
        let executor = Executor::new("x86_64", vec![Toolchain::distro_gcc()]);
        let mut c = container();
        let mut trace = BuildTrace::default();
        let err = executor
            .run(&mut c, &argv("cmake --build ."), &mut trace)
            .unwrap_err();
        assert!(matches!(err, ExecError::UnknownProgram(_)));
    }

    #[test]
    fn utilities_work() {
        let executor = Executor::new("x86_64", vec![]);
        let mut c = container();
        let mut trace = BuildTrace::default();
        executor
            .run(&mut c, &argv("mkdir -p /opt/sysroot/etc"), &mut trace)
            .unwrap();
        assert!(c.fs.exists("/opt/sysroot/etc"));
        c.fs.write_file_p("/src/a", Bytes::from_static(b"x"), 0o644)
            .unwrap();
        executor.run(&mut c, &argv("cp a b"), &mut trace).unwrap();
        assert_eq!(c.fs.read_string("/src/b").unwrap(), "x");
    }
}
