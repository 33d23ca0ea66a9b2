//! Pass 1: DAG hazard detection over the recorded build trace.
//!
//! The engine replays maximal runs of consecutive compile steps as
//! *segments* ([`scheduler::segments`], the function the engine itself
//! calls) scheduled over dependency edges derived from
//! [`comt_buildsys::StepIo`]. Any pair of steps in one segment that is
//! left unordered by those edges and touches a common path is a race the
//! ready-queue scheduler could interleave — exactly what this pass flags.
//! Steps in different segments (or non-compile steps) execute serially in
//! recorded order and cannot race.

use crate::diag::{Diagnostic, Span};
use comt_buildsys::{BuildTrace, StepIo};
use comtainer::engine::scheduler::{self, StepGraph};
use comtainer::CompilationModel;

/// Codes this pass can emit (registry-consistency contract).
pub const EMITTED: &[&str] = &["COMT-E001", "COMT-E002"];

/// Transitive-ancestor sets for every node of a segment graph.
fn ancestor_sets(graph: &StepGraph) -> Vec<Vec<bool>> {
    let n = graph.len();
    let mut anc = vec![vec![false; n]; n];
    for j in 0..n {
        // deps point strictly backwards, so ancestors of deps are complete.
        for &d in graph.deps_of(j) {
            anc[j][d] = true;
            let (left, right) = anc.split_at_mut(j);
            for (i, flag) in left[d].iter().enumerate() {
                if *flag {
                    right[0][i] = true;
                }
            }
        }
    }
    anc
}

fn intersects<'a>(a: &'a [String], b: &[String]) -> Option<&'a String> {
    a.iter().find(|p| b.contains(p))
}

/// Detect unordered write-write (`COMT-E001`) and read-write
/// (`COMT-E002`) pairs inside each compile segment.
pub fn check_hazards(trace: &BuildTrace) -> Vec<Diagnostic> {
    let is_compile = trace.commands.iter().map(|cmd| {
        matches!(
            CompilationModel::classify(&cmd.argv, &cmd.cwd, &cmd.env, &cmd.inputs),
            CompilationModel::Compile { .. }
        )
    });
    scheduler::segments(is_compile)
        .into_iter()
        .flat_map(|segment| check_segment(trace, segment.start, segment.end))
        .collect()
}

/// Hazards within one segment `[start, end)` of the trace.
fn check_segment(trace: &BuildTrace, start: usize, end: usize) -> Vec<Diagnostic> {
    let segment = &trace.commands[start..end];
    let step_io: Vec<StepIo> = segment.iter().map(StepIo::of_command).collect();
    let io: Vec<(&[String], &[String])> = step_io
        .iter()
        .map(|s| (s.reads.as_slice(), s.writes.as_slice()))
        .collect();
    let graph = StepGraph::from_io(&io);
    let anc = ancestor_sets(&graph);

    let mut diags = Vec::new();
    for a in 0..segment.len() {
        for b in (a + 1)..segment.len() {
            if anc[b][a] || anc[a][b] {
                continue; // ordered by an edge chain
            }
            let (sa, sb) = (start + a, start + b);
            let cmd_a = segment[a].argv.join(" ");
            let cmd_b = segment[b].argv.join(" ");
            if let Some(path) = intersects(&step_io[a].writes, &step_io[b].writes) {
                diags.push(
                    Diagnostic::new(
                        "COMT-E001",
                        format!(
                            "steps {sa} and {sb} both write {path} with no ordering edge"
                        ),
                        Span::step(sa, &cmd_a).with_file(path),
                    )
                    .with_hint(format!(
                        "declare {path} as an input of step {sb} ({cmd_b}) or give the steps \
                         distinct outputs"
                    )),
                );
                continue; // one diagnostic per unordered pair
            }
            let rw = intersects(&step_io[a].writes, &step_io[b].reads)
                .map(|p| (p, sb, &cmd_b))
                .or_else(|| intersects(&step_io[b].writes, &step_io[a].reads).map(|p| (p, sa, &cmd_a)));
            if let Some((path, reader, reader_cmd)) = rw {
                diags.push(
                    Diagnostic::new(
                        "COMT-E002",
                        format!(
                            "step {reader} reads {path} which step {} writes, with no \
                             ordering edge",
                            if reader == sb { sa } else { sb }
                        ),
                        Span::step(reader, reader_cmd).with_file(path),
                    )
                    .with_hint(format!(
                        "declare {path} as an input of step {reader} so the scheduler derives \
                         the edge"
                    )),
                );
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use comt_buildsys::RawCommand;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn compile(cmd: &str, inputs: &[&str], outputs: &[&str]) -> RawCommand {
        RawCommand {
            argv: argv(cmd),
            cwd: "/src".into(),
            env: vec![],
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn trace(cmds: Vec<RawCommand>) -> BuildTrace {
        BuildTrace { commands: cmds }
    }

    #[test]
    fn independent_compiles_are_clean() {
        let t = trace(vec![
            compile("gcc -c a.c -o a.o", &["/src/a.c"], &["/src/a.o"]),
            compile("gcc -c b.c -o b.o", &["/src/b.c"], &["/src/b.o"]),
        ]);
        assert!(check_hazards(&t).is_empty());
    }

    #[test]
    fn unordered_write_write_is_e001() {
        let t = trace(vec![
            compile("gcc -c a.c -o shared.o", &["/src/a.c"], &["/src/shared.o"]),
            compile("gcc -c b.c -o shared.o", &["/src/b.c"], &["/src/shared.o"]),
        ]);
        let diags = check_hazards(&t);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "COMT-E001");
        assert_eq!(diags[0].span.file.as_deref(), Some("/src/shared.o"));
    }

    #[test]
    fn ordered_write_write_is_clean() {
        // The second step *declares* the first's output as an input: the
        // edge orders the pair, so rewriting the same path is fine.
        let t = trace(vec![
            compile("gcc -c a.c -o shared.o", &["/src/a.c"], &["/src/shared.o"]),
            compile(
                "gcc -c b.c -o shared.o",
                &["/src/b.c", "/src/shared.o"],
                &["/src/shared.o"],
            ),
        ]);
        assert!(check_hazards(&t).is_empty());
    }

    #[test]
    fn unordered_read_write_is_e002() {
        let t = trace(vec![
            compile("gcc -c gen.c -o gen.h", &["/src/gen.c"], &["/src/gen.h"]),
            // Reads gen.h per its own argv but declares no inputs — except
            // that StepIo *does* see the -include, so seed the race through
            // a path the argv does not mention.
            compile("gcc -c b.c -o b.o", &["/src/b.c"], &["/src/b.o", "/src/gen.h"]),
            compile("gcc -c c.c -o c.o", &["/src/c.c", "/src/gen.h"], &["/src/c.o"]),
        ]);
        // Step 2 reads gen.h; both 0 and 1 write it. 2 is ordered after the
        // *latest* writer (1) but not after 0 — and 0/1 form a WW pair.
        let diags = check_hazards(&t);
        assert!(diags.iter().any(|d| d.code == "COMT-E001"));
        assert!(diags.iter().any(|d| d.code == "COMT-E002"));
    }

    #[test]
    fn diamond_is_ordered() {
        // gen writes two headers; two compiles each read one; the archive-
        // feeding step reads both objects: everything transitively ordered.
        let t = trace(vec![
            compile(
                "gcc -c gen.c -o conf.h",
                &["/src/gen.c"],
                &["/src/conf.h", "/src/vers.h"],
            ),
            compile(
                "gcc -c a.c -o a.o",
                &["/src/a.c", "/src/conf.h"],
                &["/src/a.o"],
            ),
            compile(
                "gcc -c b.c -o b.o",
                &["/src/b.c", "/src/vers.h"],
                &["/src/b.o"],
            ),
            compile(
                "gcc -c all.c -o all.o",
                &["/src/all.c", "/src/a.o", "/src/b.o"],
                &["/src/all.o"],
            ),
        ]);
        assert!(check_hazards(&t).is_empty());
    }

    #[test]
    fn serial_steps_cannot_race() {
        // Same WW pair, but a non-compile step splits the segment: the two
        // halves replay serially, so no hazard.
        let t = trace(vec![
            compile("gcc -c a.c -o shared.o", &["/src/a.c"], &["/src/shared.o"]),
            RawCommand {
                argv: argv("mkdir -p build"),
                cwd: "/src".into(),
                env: vec![],
                inputs: vec![],
                outputs: vec![],
            },
            compile("gcc -c b.c -o shared.o", &["/src/b.c"], &["/src/shared.o"]),
        ]);
        assert!(check_hazards(&t).is_empty());
    }

    #[test]
    fn implicit_argv_reads_count() {
        // Step 1 declares nothing, but its argv reads gen.pch via -include;
        // step 0 writes it. from_io orders them — clean. Removing the edge
        // source (step 2 writes the same path) creates the hazard.
        let t = trace(vec![
            compile("gcc -c gen.c -o gen.pch", &["/src/gen.c"], &["/src/gen.pch"]),
            compile("gcc -include gen.pch -c a.c -o a.o", &[], &[]),
        ]);
        assert!(check_hazards(&t).is_empty());
    }
}
