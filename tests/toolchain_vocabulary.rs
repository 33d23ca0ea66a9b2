//! The engine's classifier and the scheduler's IO extractor agree on the
//! toolchain vocabulary: one program table runs through
//! `CompilationModel::classify` and `StepIo::extract`, and each must treat
//! exactly the compilers as compilers and `ar` as the archiver.

use comt_buildsys::StepIo;
use comtainer::CompilationModel;

/// Every program name some personality compiles with, MPI wrappers and
/// path-qualified spellings included.
const COMPILERS: &[&str] = &[
    "gcc", "cc", "gcc-13", "g++", "c++", "g++-13", "gfortran", "gfortran-13",
    "clang", "clang-18", "clang++", "clang++-18", "flang", "flang-new",
    "vcc", "icx", "vcx", "icpx", "vfc", "ifx",
    "ftcc", "ftcxx", "ftfc",
    "mpicc", "mpicxx", "mpic++", "mpif90", "mpifort",
    "/usr/bin/gcc", "/opt/vendor/bin/icpx", "/usr/lib64/mpi/bin/mpicc",
];

/// Programs that are neither a compiler nor the archiver.
const OTHERS: &[&str] = &[
    "ranlib", "cp", "apt-get", "/usr/bin/python3", "mpirun", "mpiexec", "make",
];

fn argv(program: &str, rest: &str) -> Vec<String> {
    std::iter::once(program.to_string())
        .chain(rest.split_whitespace().map(String::from))
        .collect()
}

fn compile_argv(program: &str) -> Vec<String> {
    argv(program, "-O2 -c a.c -o a.o")
}

#[test]
fn classify_models_compilers_and_only_compilers() {
    for &program in COMPILERS {
        let compile = CompilationModel::classify(&compile_argv(program), "/w", &[], &[]);
        assert!(
            matches!(compile, CompilationModel::Compile { .. }),
            "{program}: {compile:?}"
        );
        let link = CompilationModel::classify(&argv(program, "a.o b.o -o app"), "/w", &[], &[]);
        assert!(matches!(link, CompilationModel::Link { .. }), "{program}: {link:?}");
    }
    for &program in OTHERS {
        let model = CompilationModel::classify(&compile_argv(program), "/w", &[], &[]);
        assert!(matches!(model, CompilationModel::Other { .. }), "{program}: {model:?}");
    }
    for program in ["ar", "/usr/bin/ar"] {
        let members = vec!["/w/a.o".to_string()];
        let model = CompilationModel::classify(&argv(program, "rcs libx.a a.o"), "/w", &[], &members);
        assert!(
            matches!(&model, CompilationModel::ArchiveCmd { members: m, .. } if *m == members),
            "{program}: {model:?}"
        );
    }
}

#[test]
fn step_io_parses_compiler_and_archiver_argv_only() {
    for &program in COMPILERS {
        let io = StepIo::extract(&compile_argv(program), "/w", &[], &[]);
        assert_eq!(io.reads, vec!["/w/a.c"], "{program}");
        assert_eq!(io.writes, vec!["/w/a.o"], "{program}");
    }
    for &program in OTHERS {
        let io = StepIo::extract(&compile_argv(program), "/w", &[], &[]);
        assert!(io.reads.is_empty() && io.writes.is_empty(), "{program}: {io:?}");
    }
    // The archiver's argv is parsed too: its operands are reads.
    for program in ["ar", "/usr/bin/ar"] {
        let io = StepIo::extract(&argv(program, "rcs libx.a a.o"), "/w", &[], &[]);
        assert!(io.reads.contains(&"/w/a.o".to_string()), "{program}: {io:?}");
    }
}
