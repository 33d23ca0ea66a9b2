//! Toolchain personalities: the one toolchain vocabulary.
//!
//! [`PERSONALITIES`] is the only list of toolchain families, and
//! [`MPI_WRAPPERS`] the only list of MPI compiler wrappers. A [`Toolchain`]
//! holds the program names it answers to per language, the ISAs it can
//! target and a codegen-quality factor used by the performance model. The
//! quality ordering encodes the paper's observation that the x86 distro
//! toolchain is "more mature" (its defaults already resemble LTO/PGO
//! output) while the AArch64 system benefits more from the vendor compiler
//! (Figure 3: `cxxo` is worth more on ARM).
//!
//! Every layer that classifies or rewrites a command line asks this table:
//! [`Toolchain::lookup`] says which personality runs a program and in which
//! language (the engine's classifier, the scheduler's IO extractor, the
//! adapter-chain audit, the driver swap of the system adapters), and
//! [`Toolchain::language_of`] answers the same for one personality (the
//! simulated driver). Whether `ar` counts is each caller's own rule.

/// Identity of a toolchain family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ToolchainKind {
    /// The distro's default GCC — what generic user-side images use.
    DistroGcc,
    /// Free LLVM/Clang — the artifact-evaluation substitute toolchain.
    Llvm,
    /// The x86-64 system's proprietary vendor compiler (ICC-like).
    VendorX86,
    /// The AArch64 system's proprietary vendor compiler.
    VendorArm,
}

/// A toolchain personality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Toolchain {
    pub kind: ToolchainKind,
    /// Identity string recorded in artifacts (e.g. `gcc-13`).
    pub name: &'static str,
    /// C compiler program names; the first is the driver an adapter swaps in.
    pub cc_names: &'static [&'static str],
    /// C++ compiler program names.
    pub cxx_names: &'static [&'static str],
    /// Fortran compiler program names.
    pub fc_names: &'static [&'static str],
    /// Codegen quality multiplier (distro GCC = 1.0).
    pub codegen_quality: f64,
    /// ISAs this toolchain can target (vendor compilers are single-ISA;
    /// that restriction is what the cross-ISA workflow must respect).
    pub supported_isas: &'static [&'static str],
}

/// Every toolchain personality, in lookup order. Their program names are
/// disjoint, so a name belongs to at most one of them.
pub const PERSONALITIES: [Toolchain; 4] = [
    Toolchain {
        kind: ToolchainKind::DistroGcc,
        name: "gcc-13",
        cc_names: &["gcc", "cc", "gcc-13"],
        cxx_names: &["g++", "c++", "g++-13"],
        fc_names: &["gfortran", "gfortran-13"],
        codegen_quality: 1.0,
        supported_isas: &["x86_64", "aarch64"],
    },
    Toolchain {
        kind: ToolchainKind::Llvm,
        name: "llvm-18",
        cc_names: &["clang", "clang-18"],
        cxx_names: &["clang++", "clang++-18"],
        fc_names: &["flang", "flang-new"],
        codegen_quality: 1.06,
        supported_isas: &["x86_64", "aarch64"],
    },
    Toolchain {
        kind: ToolchainKind::VendorX86,
        name: "vendor-x86",
        cc_names: &["vcc", "icx"],
        cxx_names: &["vcx", "icpx"],
        fc_names: &["vfc", "ifx"],
        codegen_quality: 1.17,
        supported_isas: &["x86_64"],
    },
    Toolchain {
        kind: ToolchainKind::VendorArm,
        name: "vendor-arm",
        cc_names: &["ftcc"],
        cxx_names: &["ftcxx"],
        fc_names: &["ftfc"],
        codegen_quality: 1.26,
        supported_isas: &["aarch64"],
    },
];

/// MPI compiler wrappers and the language each compiles. Every personality
/// accepts them: the wrapper resolves to the site's compiler underneath,
/// so adapters keep the name, and it adds `-lmpi` to link steps.
pub const MPI_WRAPPERS: [(&str, Language); 5] = [
    ("mpicc", Language::C),
    ("mpicxx", Language::Cxx),
    ("mpic++", Language::Cxx),
    ("mpif90", Language::Fortran),
    ("mpifort", Language::Fortran),
];

/// What [`Toolchain::lookup`] knows about a compiler program name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Driver {
    /// The personality that answers to the name; `None` for an MPI
    /// wrapper, which every personality accepts.
    pub toolchain: Option<ToolchainKind>,
    /// The language it compiles.
    pub language: Language,
}

fn basename(program: &str) -> &str {
    program.rsplit('/').next().unwrap_or(program)
}

fn mpi_language(base: &str) -> Option<Language> {
    MPI_WRAPPERS.iter().find(|(n, _)| *n == base).map(|&(_, l)| l)
}

impl Toolchain {
    pub fn distro_gcc() -> Self {
        PERSONALITIES[0]
    }

    pub fn llvm() -> Self {
        PERSONALITIES[1]
    }

    pub fn vendor_x86() -> Self {
        PERSONALITIES[2]
    }

    pub fn vendor_arm() -> Self {
        PERSONALITIES[3]
    }

    /// The toolchain for a target system's native stack.
    pub fn vendor_for(isa: &str) -> Self {
        match isa {
            "aarch64" => Self::vendor_arm(),
            _ => Self::vendor_x86(),
        }
    }

    /// This toolchain, then the LLVM and distro GCC a site also ships: the
    /// order in which a system-side replay dispatches a program.
    pub fn with_fallbacks(self) -> Vec<Toolchain> {
        vec![self, Self::llvm(), Self::distro_gcc()]
    }

    /// What `-march=native` resolves to on the named ISA's target machine.
    pub fn native_march(&self, isa: &str) -> &'static str {
        match isa {
            "aarch64" => "ft2000plus",
            _ => "icelake-server",
        }
    }

    /// Which personality runs a program, in which language; `None` when
    /// the program is no compiler. Takes a bare name or a path.
    pub fn lookup(program: &str) -> Option<Driver> {
        let base = basename(program);
        PERSONALITIES
            .iter()
            .find_map(|tc| {
                tc.own_language(base).map(|language| Driver {
                    toolchain: Some(tc.kind),
                    language,
                })
            })
            .or_else(|| {
                mpi_language(base).map(|language| Driver {
                    toolchain: None,
                    language,
                })
            })
    }

    /// Language a program name compiles, if it belongs to this toolchain.
    /// MPI wrappers map onto the underlying language and are accepted for
    /// every toolchain.
    pub fn language_of(&self, program: &str) -> Option<Language> {
        let base = basename(program);
        self.own_language(base).or_else(|| mpi_language(base))
    }

    fn own_language(&self, base: &str) -> Option<Language> {
        Language::ALL
            .into_iter()
            .find(|&l| self.names(l).contains(&base))
    }

    fn names(&self, language: Language) -> &'static [&'static str] {
        match language {
            Language::C => self.cc_names,
            Language::Cxx => self.cxx_names,
            Language::Fortran => self.fc_names,
        }
    }

    /// The driver an adapter swaps in for a language: its first name.
    pub fn driver(&self, language: Language) -> &'static str {
        self.names(language)[0]
    }

    /// Every program name: C, then C++, then Fortran.
    pub fn drivers(self) -> impl Iterator<Item = &'static str> {
        Language::ALL.into_iter().flat_map(move |l| self.names(l).iter().copied())
    }

    /// Whether a program name is the archiver.
    pub fn is_archiver(program: &str) -> bool {
        basename(program) == "ar"
    }

    /// Whether a program name is `ranlib` (a no-op for COMT archives).
    pub fn is_ranlib(program: &str) -> bool {
        basename(program) == "ranlib"
    }

    /// Whether this toolchain's simulated driver runs the program: one of
    /// its compilers, the archiver or ranlib.
    pub fn handles(&self, program: &str) -> bool {
        self.language_of(program).is_some()
            || Self::is_archiver(program)
            || Self::is_ranlib(program)
    }
}

/// Source language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    C,
    Cxx,
    Fortran,
}

impl Language {
    /// Every language, in driver-name order.
    pub const ALL: [Language; 3] = [Language::C, Language::Cxx, Language::Fortran];

    pub fn as_str(&self) -> &'static str {
        match self {
            Language::C => "c",
            Language::Cxx => "c++",
            Language::Fortran => "fortran",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn language_dispatch() {
        let g = Toolchain::distro_gcc();
        assert_eq!(g.language_of("gcc"), Some(Language::C));
        assert_eq!(g.language_of("/usr/bin/g++-13"), Some(Language::Cxx));
        assert_eq!(g.language_of("gfortran"), Some(Language::Fortran));
        assert_eq!(g.language_of("mpicc"), Some(Language::C));
        assert_eq!(g.language_of("mpicxx"), Some(Language::Cxx));
        assert_eq!(g.language_of("clang"), None);
        let l = Toolchain::llvm();
        assert_eq!(l.language_of("clang++"), Some(Language::Cxx));
    }

    #[test]
    fn archiver_names() {
        assert!(Toolchain::is_archiver("/usr/bin/ar"));
        assert!(Toolchain::is_ranlib("ranlib"));
        assert!(!Toolchain::is_archiver("tar"));
    }

    #[test]
    fn quality_ordering_matches_paper_story() {
        let gcc = Toolchain::distro_gcc().codegen_quality;
        let llvm = Toolchain::llvm().codegen_quality;
        let vx = Toolchain::vendor_x86().codegen_quality;
        let va = Toolchain::vendor_arm().codegen_quality;
        assert!(gcc < llvm && llvm < vx && vx < va);
    }

    #[test]
    fn vendor_single_isa() {
        assert_eq!(Toolchain::vendor_x86().supported_isas, ["x86_64"]);
        assert_eq!(Toolchain::vendor_for("aarch64").kind, ToolchainKind::VendorArm);
    }

    #[test]
    fn lookup_agrees_with_each_personality() {
        for tc in PERSONALITIES {
            for name in tc.drivers() {
                let want = tc.language_of(name).map(|language| Driver {
                    toolchain: Some(tc.kind),
                    language,
                });
                assert!(want.is_some(), "{name}");
                assert_eq!(Toolchain::lookup(name), want, "{name}");
                assert_eq!(Toolchain::lookup(&format!("/usr/bin/{name}")), want, "{name}");
            }
        }
        for (name, language) in MPI_WRAPPERS {
            let want = Some(Driver { toolchain: None, language });
            assert_eq!(Toolchain::lookup(name), want);
            assert_eq!(Toolchain::lookup(&format!("/opt/mpi/bin/{name}")), want);
        }
        for name in ["ar", "ranlib", "mpirun", "cp", ""] {
            assert_eq!(Toolchain::lookup(name), None, "{name:?}");
        }
    }

    #[test]
    fn driver_names_in_table_order() {
        let g = Toolchain::distro_gcc();
        assert_eq!(g.driver(Language::C), "gcc");
        assert_eq!(g.driver(Language::Cxx), "g++");
        assert_eq!(g.driver(Language::Fortran), "gfortran");
        assert_eq!(Toolchain::vendor_arm().driver(Language::Cxx), "ftcxx");
        assert_eq!(
            Toolchain::llvm().drivers().collect::<Vec<_>>(),
            ["clang", "clang-18", "clang++", "clang++-18", "flang", "flang-new"]
        );
        let kinds = |tcs: &[Toolchain]| tcs.iter().map(|t| t.kind).collect::<Vec<_>>();
        use ToolchainKind::*;
        assert_eq!(kinds(&PERSONALITIES), [DistroGcc, Llvm, VendorX86, VendorArm]);
        let constructed = [
            Toolchain::distro_gcc(),
            Toolchain::llvm(),
            Toolchain::vendor_x86(),
            Toolchain::vendor_arm(),
        ];
        assert_eq!(kinds(&constructed), kinds(&PERSONALITIES));
        assert_eq!(kinds(&Toolchain::vendor_x86().with_fallbacks()), [VendorX86, Llvm, DistroGcc]);
    }

    #[test]
    fn handles_compilers_archiver_and_ranlib() {
        let v = Toolchain::vendor_x86();
        for program in ["icx", "mpicc", "/usr/bin/ar", "ranlib"] {
            assert!(v.handles(program), "{program}");
        }
        for program in ["gcc", "cp", "mpirun"] {
            assert!(!v.handles(program), "{program}");
        }
    }
}
