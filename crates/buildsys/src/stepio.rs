//! Per-step file-set extraction: the shared source of truth for which
//! absolute paths one recorded command reads and writes.
//!
//! Both the engine's ready-queue scheduler (edge derivation) and the
//! `comt-analyze` hazard detector consume the same [`StepIo`] so they can
//! never disagree about the dependency structure of a segment. The file
//! sets merge two sources:
//!
//! * the paths the recorder observed (`RawCommand::inputs`/`outputs`), and
//! * paths *implied by the command line itself* — positional input files,
//!   the `-o` output and the `-fprofile-use=` / `-include` reads of a
//!   parseable compiler invocation.
//!
//! The second source matters because a trace produced outside the hijacker
//! (hand-written models, partial records) may declare no IO at all; the
//! scheduler previously treated such steps as always-ready even when their
//! argv plainly reads a sibling's output.

use crate::trace::RawCommand;
use comt_toolchain::invocation::Arg;
use comt_toolchain::{CompilerInvocation, Toolchain};

/// The absolute read/write file sets of one build step (sorted, deduped).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepIo {
    /// Absolute paths the step reads.
    pub reads: Vec<String>,
    /// Absolute paths the step writes.
    pub writes: Vec<String>,
}

impl StepIo {
    /// Extract the file sets from an argv plus the recorder-declared IO.
    /// Relative paths are resolved against `cwd`.
    pub fn extract(
        argv: &[String],
        cwd: &str,
        declared_inputs: &[String],
        declared_outputs: &[String],
    ) -> StepIo {
        let mut reads: Vec<String> = declared_inputs
            .iter()
            .map(|p| comt_vfs::join(cwd, p))
            .collect();
        let mut writes: Vec<String> = declared_outputs
            .iter()
            .map(|p| comt_vfs::join(cwd, p))
            .collect();

        // A compiler's or the archiver's argv is worth parsing for IO.
        let program = argv.first().map(String::as_str).unwrap_or("");
        if Toolchain::lookup(program).is_some() || Toolchain::is_archiver(program) {
            if let Ok(inv) = CompilerInvocation::parse(argv) {
                for (path, _kind) in inv.inputs() {
                    if path != "-" {
                        reads.push(comt_vfs::join(cwd, path));
                    }
                }
                if let Some(out) = inv.output() {
                    writes.push(comt_vfs::join(cwd, out));
                }
                for arg in &inv.args {
                    if let Arg::Opt {
                        token,
                        value: Some(v),
                        ..
                    } = arg
                    {
                        // Flags that name a file the compiler *reads*.
                        if token == "fprofile-use=" || token == "include" {
                            reads.push(comt_vfs::join(cwd, v));
                        }
                    }
                }
            }
        }

        reads.sort();
        reads.dedup();
        writes.sort();
        writes.dedup();
        StepIo { reads, writes }
    }

    /// [`StepIo::extract`] over a recorded command.
    pub fn of_command(cmd: &RawCommand) -> StepIo {
        StepIo::extract(&cmd.argv, &cmd.cwd, &cmd.inputs, &cmd.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn declared_io_is_resolved_against_cwd() {
        let io = StepIo::extract(
            &argv("true"),
            "/src",
            &["main.c".into(), "/abs/x.h".into()],
            &["main.o".into()],
        );
        assert_eq!(io.reads, vec!["/abs/x.h", "/src/main.c"]);
        assert_eq!(io.writes, vec!["/src/main.o"]);
    }

    #[test]
    fn argv_implies_io_for_compiler_commands() {
        let io = StepIo::extract(&argv("gcc -O2 -c main.c -o main.o"), "/src", &[], &[]);
        assert_eq!(io.reads, vec!["/src/main.c"]);
        assert_eq!(io.writes, vec!["/src/main.o"]);
    }

    #[test]
    fn profile_and_preinclude_are_reads() {
        let io = StepIo::extract(
            &argv("gcc -fprofile-use=/pgo/app.profdata -include config.h -c a.c -o a.o"),
            "/src",
            &[],
            &[],
        );
        assert!(io.reads.contains(&"/pgo/app.profdata".to_string()));
        assert!(io.reads.contains(&"/src/config.h".to_string()));
        assert!(io.reads.contains(&"/src/a.c".to_string()));
    }

    #[test]
    fn declared_and_implied_io_dedupe() {
        let io = StepIo::extract(
            &argv("gcc -c main.c -o main.o"),
            "/src",
            &["/src/main.c".into()],
            &["/src/main.o".into()],
        );
        assert_eq!(io.reads, vec!["/src/main.c"]);
        assert_eq!(io.writes, vec!["/src/main.o"]);
    }

    #[test]
    fn non_compiler_argv_contributes_nothing() {
        // `cp a b` must not imply that `b` is *read*.
        let io = StepIo::extract(&argv("cp a b"), "/src", &[], &["/src/b".into()]);
        assert!(io.reads.is_empty());
        assert_eq!(io.writes, vec!["/src/b"]);
    }
}
