//! Toolchain personalities.
//!
//! A [`Toolchain`] bundles the program names it answers to, the `-march`
//! that `native` resolves to per ISA, and a codegen-quality factor used by the
//! performance model. The quality ordering encodes the paper's observation
//! that the x86 distro toolchain is "more mature" (its defaults already
//! resemble LTO/PGO output) while the AArch64 system benefits more from the
//! vendor compiler (Figure 3: `cxxo` is worth more on ARM).

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
#[derive(Debug, Clone, PartialEq)]
pub struct Toolchain {
    pub kind: ToolchainKind,
    /// Identity string recorded in artifacts (e.g. `gcc-13`).
    pub name: String,
    /// C compiler program names.
    pub cc_names: Vec<String>,
    /// C++ compiler program names.
    pub cxx_names: Vec<String>,
    /// Fortran compiler program names.
    pub fc_names: Vec<String>,
    /// Codegen quality multiplier (distro GCC = 1.0).
    pub codegen_quality: f64,
    /// ISAs this toolchain can target (vendor compilers are single-ISA;
    /// that restriction is what the cross-ISA workflow must respect).
    pub supported_isas: Vec<String>,
}

impl Toolchain {
    pub fn distro_gcc() -> Self {
        Toolchain {
            kind: ToolchainKind::DistroGcc,
            name: "gcc-13".into(),
            cc_names: strv(&["gcc", "cc", "gcc-13"]),
            cxx_names: strv(&["g++", "c++", "g++-13"]),
            fc_names: strv(&["gfortran", "gfortran-13"]),
            codegen_quality: 1.0,
            supported_isas: strv(&["x86_64", "aarch64"]),
        }
    }

    pub fn llvm() -> Self {
        Toolchain {
            kind: ToolchainKind::Llvm,
            name: "llvm-18".into(),
            cc_names: strv(&["clang", "clang-18"]),
            cxx_names: strv(&["clang++", "clang++-18"]),
            fc_names: strv(&["flang", "flang-new"]),
            codegen_quality: 1.06,
            supported_isas: strv(&["x86_64", "aarch64"]),
        }
    }

    pub fn vendor_x86() -> Self {
        Toolchain {
            kind: ToolchainKind::VendorX86,
            name: "vendor-x86".into(),
            cc_names: strv(&["vcc", "icx"]),
            cxx_names: strv(&["vcx", "icpx"]),
            fc_names: strv(&["vfc", "ifx"]),
            codegen_quality: 1.17,
            supported_isas: strv(&["x86_64"]),
        }
    }

    pub fn vendor_arm() -> Self {
        Toolchain {
            kind: ToolchainKind::VendorArm,
            name: "vendor-arm".into(),
            cc_names: strv(&["ftcc"]),
            cxx_names: strv(&["ftcxx"]),
            fc_names: strv(&["ftfc"]),
            codegen_quality: 1.26,
            supported_isas: strv(&["aarch64"]),
        }
    }

    /// The toolchain for a target system's native stack.
    pub fn vendor_for(isa: &str) -> Self {
        match isa {
            "aarch64" => Self::vendor_arm(),
            _ => Self::vendor_x86(),
        }
    }

    /// What `-march=native` resolves to on the named ISA's target machine.
    pub fn native_march(&self, isa: &str) -> &'static str {
        match isa {
            "aarch64" => "ft2000plus",
            _ => "icelake-server",
        }
    }

    /// Language a program name compiles, if it belongs to this toolchain.
    /// MPI wrappers (`mpicc`/`mpicxx`/`mpif90`) map onto the underlying
    /// language and are accepted for every toolchain.
    pub fn language_of(&self, program: &str) -> Option<Language> {
        let base = program.rsplit('/').next().unwrap_or(program);
        if self.cc_names.iter().any(|n| n == base) || base == "mpicc" {
            Some(Language::C)
        } else if self.cxx_names.iter().any(|n| n == base) || base == "mpicxx" || base == "mpic++" {
            Some(Language::Cxx)
        } else if self.fc_names.iter().any(|n| n == base) || base == "mpif90" || base == "mpifort" {
            Some(Language::Fortran)
        } else {
            None
        }
    }

    /// Whether a program name is the archiver.
    pub fn is_archiver(program: &str) -> bool {
        let base = program.rsplit('/').next().unwrap_or(program);
        base == "ar"
    }

    /// Whether a program name is `ranlib` (a no-op for COMT archives).
    pub fn is_ranlib(program: &str) -> bool {
        let base = program.rsplit('/').next().unwrap_or(program);
        base == "ranlib"
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
    pub fn as_str(&self) -> &'static str {
        match self {
            Language::C => "c",
            Language::Cxx => "c++",
            Language::Fortran => "fortran",
        }
    }
}

fn strv(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
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
        assert_eq!(Toolchain::vendor_x86().supported_isas, vec!["x86_64"]);
        assert_eq!(Toolchain::vendor_for("aarch64").kind, ToolchainKind::VendorArm);
    }
}
