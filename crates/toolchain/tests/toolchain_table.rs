//! The toolchain vocabulary, pinned: which program name each personality
//! answers to and in which language, the MPI wrappers every personality
//! accepts, and the program names no personality claims.

use comt_toolchain::toolchains::Language;
use comt_toolchain::{Toolchain, ToolchainKind};

const PERSONALITIES: [fn() -> Toolchain; 4] = [
    Toolchain::distro_gcc,
    Toolchain::llvm,
    Toolchain::vendor_x86,
    Toolchain::vendor_arm,
];

/// Every driver name, with the personality that owns it and its language.
const DRIVERS: &[(&str, ToolchainKind, Language)] = &[
    ("gcc", ToolchainKind::DistroGcc, Language::C),
    ("cc", ToolchainKind::DistroGcc, Language::C),
    ("gcc-13", ToolchainKind::DistroGcc, Language::C),
    ("g++", ToolchainKind::DistroGcc, Language::Cxx),
    ("c++", ToolchainKind::DistroGcc, Language::Cxx),
    ("g++-13", ToolchainKind::DistroGcc, Language::Cxx),
    ("gfortran", ToolchainKind::DistroGcc, Language::Fortran),
    ("gfortran-13", ToolchainKind::DistroGcc, Language::Fortran),
    ("clang", ToolchainKind::Llvm, Language::C),
    ("clang-18", ToolchainKind::Llvm, Language::C),
    ("clang++", ToolchainKind::Llvm, Language::Cxx),
    ("clang++-18", ToolchainKind::Llvm, Language::Cxx),
    ("flang", ToolchainKind::Llvm, Language::Fortran),
    ("flang-new", ToolchainKind::Llvm, Language::Fortran),
    ("vcc", ToolchainKind::VendorX86, Language::C),
    ("icx", ToolchainKind::VendorX86, Language::C),
    ("vcx", ToolchainKind::VendorX86, Language::Cxx),
    ("icpx", ToolchainKind::VendorX86, Language::Cxx),
    ("vfc", ToolchainKind::VendorX86, Language::Fortran),
    ("ifx", ToolchainKind::VendorX86, Language::Fortran),
    ("ftcc", ToolchainKind::VendorArm, Language::C),
    ("ftcxx", ToolchainKind::VendorArm, Language::Cxx),
    ("ftfc", ToolchainKind::VendorArm, Language::Fortran),
];

/// MPI compiler wrappers: accepted by every personality.
const MPI_WRAPPERS: &[(&str, Language)] = &[
    ("mpicc", Language::C),
    ("mpicxx", Language::Cxx),
    ("mpic++", Language::Cxx),
    ("mpif90", Language::Fortran),
    ("mpifort", Language::Fortran),
];

/// Programs no personality claims as a compiler.
const NOT_COMPILERS: &[&str] = &[
    "ar",
    "ranlib",
    "cp",
    "apt-get",
    "/usr/bin/python3",
    "mpirun",
    "mpiexec",
    "",
];

#[test]
fn each_driver_name_belongs_to_one_personality() {
    for &(program, kind, language) in DRIVERS {
        for personality in PERSONALITIES {
            let tc = personality();
            let want = (tc.kind == kind).then_some(language);
            for spelling in [program.to_string(), format!("/usr/bin/{program}")] {
                assert_eq!(
                    tc.language_of(&spelling),
                    want,
                    "{:?}.language_of({spelling:?})",
                    tc.kind
                );
            }
        }
    }
}

#[test]
fn mpi_wrappers_are_accepted_by_every_personality() {
    for &(program, language) in MPI_WRAPPERS {
        for personality in PERSONALITIES {
            let tc = personality();
            assert_eq!(tc.language_of(program), Some(language), "{:?}: {program}", tc.kind);
            let path = format!("/opt/mpi/bin/{program}");
            assert_eq!(tc.language_of(&path), Some(language), "{:?}: {path}", tc.kind);
        }
    }
}

#[test]
fn tools_and_interpreters_are_not_compilers() {
    for &program in NOT_COMPILERS {
        for personality in PERSONALITIES {
            let tc = personality();
            assert_eq!(tc.language_of(program), None, "{:?}: {program:?}", tc.kind);
        }
    }
    assert!(Toolchain::is_archiver("ar"));
    assert!(Toolchain::is_archiver("/usr/bin/ar"));
    assert!(Toolchain::is_ranlib("ranlib"));
    for program in ["ranlib", "cp", "apt-get", "/usr/bin/python3", "tar"] {
        assert!(!Toolchain::is_archiver(program), "{program}");
    }
}

#[test]
fn vendor_for_picks_the_site_personality() {
    assert_eq!(Toolchain::vendor_for("x86_64").kind, ToolchainKind::VendorX86);
    assert_eq!(Toolchain::vendor_for("aarch64").kind, ToolchainKind::VendorArm);
}
