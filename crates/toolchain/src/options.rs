//! The GCC option database.
//!
//! Each entry describes an option's *shape* (how it consumes arguments) and
//! *category* (what it means for the build). The categories drive the
//! system-side transformations: retargeting rewrites `Machine` options,
//! toolchain swaps must preserve `Preprocessor`/`IncludePath` options,
//! LTO/PGO adapters add `Lto`/`Pgo` options, and so on.
//!
//! GCC 13 has 2314 options; modeling every one adds no information for the
//! reproduction, so this table covers the option *families* with build
//! semantics, and three prefix fallbacks (`-f`, `-m`, `-W`) absorb the long
//! tail exactly the way GCC's own option machinery treats unknown
//! `-f`/`-m`/`-W` spellings: as single-token flags. Every command line
//! therefore parses, and parsing is lossless (see `unparse`).

/// How an option consumes its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionShape {
    /// No argument: `-c`, `-v`, `-shared`.
    Flag,
    /// Argument glued to the option: `-O2`, `-std=c++17`, `-Wl,...`.
    Joined,
    /// Argument in the next token: `-Xlinker foo`.
    Separate,
    /// Either glued or next token: `-o out`, `-I dir`, `-Iinclude`.
    JoinedOrSeparate,
}

/// Build semantics of an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionCategory {
    /// Driver mode selection: `-c`, `-S`, `-E`.
    Mode,
    /// Output file: `-o`.
    Output,
    /// Optimization level: `-O*`.
    OptLevel,
    /// Code generation (`-f...` that changes emitted code).
    Codegen,
    /// Machine/target selection: `-march`, `-mtune`, `-mcpu`, `-m*`.
    Machine,
    /// Preprocessor: `-D`, `-U`, `-E`-related.
    Preprocessor,
    /// Header search path: `-I`, `-isystem`, `-include`.
    IncludePath,
    /// Library search path: `-L`.
    LibPath,
    /// Library link request: `-l`.
    LibLink,
    /// Warnings: `-W*` (except `-Wl,`/`-Wa,`/`-Wp,`).
    Warning,
    /// Debug info: `-g*`.
    Debug,
    /// Link-time optimization: `-flto*`.
    Lto,
    /// Profile-guided optimization: `-fprofile-*`.
    Pgo,
    /// Language standard: `-std=`, `-ansi`.
    Standard,
    /// Linker pass-through and link behaviour: `-Wl,`, `-static`, `-shared`.
    Linker,
    /// OpenMP and other parallel runtimes: `-fopenmp`.
    Parallel,
    /// Everything else (harmless for transformations).
    Other,
}

/// One database entry.
#[derive(Debug, Clone, Copy)]
pub struct OptionSpec {
    /// Option spelling without the leading dash(es), e.g. `o`, `march=`.
    /// A trailing `=` means the argument is joined after the `=`.
    pub name: &'static str,
    pub shape: OptionShape,
    pub category: OptionCategory,
}

use OptionCategory as C;
use OptionShape as S;

/// The option table, longest-match-first semantics applied by [`lookup`].
pub const OPTION_TABLE: &[OptionSpec] = &[
    // Driver modes.
    OptionSpec { name: "c", shape: S::Flag, category: C::Mode },
    OptionSpec { name: "S", shape: S::Flag, category: C::Mode },
    OptionSpec { name: "E", shape: S::Flag, category: C::Mode },
    // Output.
    OptionSpec { name: "o", shape: S::JoinedOrSeparate, category: C::Output },
    // Optimization levels.
    OptionSpec { name: "O0", shape: S::Flag, category: C::OptLevel },
    OptionSpec { name: "O1", shape: S::Flag, category: C::OptLevel },
    OptionSpec { name: "O2", shape: S::Flag, category: C::OptLevel },
    OptionSpec { name: "O3", shape: S::Flag, category: C::OptLevel },
    OptionSpec { name: "Os", shape: S::Flag, category: C::OptLevel },
    OptionSpec { name: "Oz", shape: S::Flag, category: C::OptLevel },
    OptionSpec { name: "Ofast", shape: S::Flag, category: C::OptLevel },
    OptionSpec { name: "Og", shape: S::Flag, category: C::OptLevel },
    OptionSpec { name: "O", shape: S::Joined, category: C::OptLevel },
    // Machine.
    OptionSpec { name: "march=", shape: S::Joined, category: C::Machine },
    OptionSpec { name: "mtune=", shape: S::Joined, category: C::Machine },
    OptionSpec { name: "mcpu=", shape: S::Joined, category: C::Machine },
    OptionSpec { name: "mabi=", shape: S::Joined, category: C::Machine },
    OptionSpec { name: "mfpu=", shape: S::Joined, category: C::Machine },
    // `-m<feature>` flags (`-mavx2`, `-m32`) take the `-m` prefix rule: the
    // feature matrix (`features`) is their one list.
    // Preprocessor.
    OptionSpec { name: "D", shape: S::JoinedOrSeparate, category: C::Preprocessor },
    OptionSpec { name: "U", shape: S::JoinedOrSeparate, category: C::Preprocessor },
    OptionSpec { name: "M", shape: S::Flag, category: C::Preprocessor },
    OptionSpec { name: "MM", shape: S::Flag, category: C::Preprocessor },
    OptionSpec { name: "MD", shape: S::Flag, category: C::Preprocessor },
    OptionSpec { name: "MMD", shape: S::Flag, category: C::Preprocessor },
    OptionSpec { name: "MF", shape: S::JoinedOrSeparate, category: C::Preprocessor },
    OptionSpec { name: "MT", shape: S::JoinedOrSeparate, category: C::Preprocessor },
    OptionSpec { name: "MP", shape: S::Flag, category: C::Preprocessor },
    // Include paths.
    OptionSpec { name: "I", shape: S::JoinedOrSeparate, category: C::IncludePath },
    OptionSpec { name: "isystem", shape: S::JoinedOrSeparate, category: C::IncludePath },
    OptionSpec { name: "iquote", shape: S::JoinedOrSeparate, category: C::IncludePath },
    OptionSpec { name: "include", shape: S::JoinedOrSeparate, category: C::IncludePath },
    OptionSpec { name: "idirafter", shape: S::JoinedOrSeparate, category: C::IncludePath },
    OptionSpec { name: "nostdinc", shape: S::Flag, category: C::IncludePath },
    // Library paths and links.
    OptionSpec { name: "L", shape: S::JoinedOrSeparate, category: C::LibPath },
    OptionSpec { name: "l", shape: S::JoinedOrSeparate, category: C::LibLink },
    // Standards.
    OptionSpec { name: "std=", shape: S::Joined, category: C::Standard },
    OptionSpec { name: "ansi", shape: S::Flag, category: C::Standard },
    OptionSpec { name: "pedantic", shape: S::Flag, category: C::Standard },
    // Debug.
    OptionSpec { name: "g0", shape: S::Flag, category: C::Debug },
    OptionSpec { name: "g1", shape: S::Flag, category: C::Debug },
    OptionSpec { name: "g3", shape: S::Flag, category: C::Debug },
    OptionSpec { name: "ggdb", shape: S::Flag, category: C::Debug },
    OptionSpec { name: "gdwarf", shape: S::Joined, category: C::Debug },
    OptionSpec { name: "g", shape: S::Flag, category: C::Debug },
    // LTO family.
    OptionSpec { name: "flto=", shape: S::Joined, category: C::Lto },
    OptionSpec { name: "flto", shape: S::Flag, category: C::Lto },
    OptionSpec { name: "fno-lto", shape: S::Flag, category: C::Lto },
    OptionSpec { name: "ffat-lto-objects", shape: S::Flag, category: C::Lto },
    OptionSpec { name: "fuse-linker-plugin", shape: S::Flag, category: C::Lto },
    // PGO family.
    OptionSpec { name: "fprofile-generate=", shape: S::Joined, category: C::Pgo },
    OptionSpec { name: "fprofile-generate", shape: S::Flag, category: C::Pgo },
    OptionSpec { name: "fprofile-use=", shape: S::Joined, category: C::Pgo },
    OptionSpec { name: "fprofile-use", shape: S::Flag, category: C::Pgo },
    OptionSpec { name: "fprofile-correction", shape: S::Flag, category: C::Pgo },
    OptionSpec { name: "fprofile-dir=", shape: S::Joined, category: C::Pgo },
    OptionSpec { name: "fauto-profile=", shape: S::Joined, category: C::Pgo },
    // Parallel runtimes.
    OptionSpec { name: "fopenmp", shape: S::Flag, category: C::Parallel },
    OptionSpec { name: "fopenacc", shape: S::Flag, category: C::Parallel },
    OptionSpec { name: "pthread", shape: S::Flag, category: C::Parallel },
    // Common codegen -f flags (representative subset; prefix rule absorbs
    // the rest).
    OptionSpec { name: "ffast-math", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-fast-math", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "funroll-loops", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "ftree-vectorize", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-tree-vectorize", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fomit-frame-pointer", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fstack-protector-strong", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fPIC", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fpic", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fPIE", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fvisibility=", shape: S::Joined, category: C::Codegen },
    OptionSpec { name: "fexceptions", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-exceptions", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "frtti", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-rtti", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "ffunction-sections", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fdata-sections", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fsigned-char", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "funsigned-char", shape: S::Flag, category: C::Codegen },
    // Linker behaviour.
    OptionSpec { name: "static", shape: S::Flag, category: C::Linker },
    OptionSpec { name: "shared", shape: S::Flag, category: C::Linker },
    OptionSpec { name: "rdynamic", shape: S::Flag, category: C::Linker },
    OptionSpec { name: "nostdlib", shape: S::Flag, category: C::Linker },
    OptionSpec { name: "nodefaultlibs", shape: S::Flag, category: C::Linker },
    OptionSpec { name: "pie", shape: S::Flag, category: C::Linker },
    OptionSpec { name: "no-pie", shape: S::Flag, category: C::Linker },
    OptionSpec { name: "Wl,", shape: S::Joined, category: C::Linker },
    OptionSpec { name: "Wa,", shape: S::Joined, category: C::Other },
    OptionSpec { name: "Wp,", shape: S::Joined, category: C::Preprocessor },
    OptionSpec { name: "Xlinker", shape: S::Separate, category: C::Linker },
    OptionSpec { name: "Xassembler", shape: S::Separate, category: C::Other },
    OptionSpec { name: "Xpreprocessor", shape: S::Separate, category: C::Preprocessor },
    OptionSpec { name: "T", shape: S::Separate, category: C::Linker },
    // Language override.
    OptionSpec { name: "x", shape: S::JoinedOrSeparate, category: C::Other },
    // Optimization fine-tuning (-f family, real GCC 13 spellings).
    OptionSpec { name: "finline-functions", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-inline", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "finline-limit=", shape: S::Joined, category: C::Codegen },
    OptionSpec { name: "fipa-pta", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fgcse", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fgcse-after-reload", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fivopts", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "floop-interchange", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "floop-unroll-and-jam", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fpeel-loops", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fpredictive-commoning", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fprefetch-loop-arrays", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "freciprocal-math", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "frename-registers", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fsched-pressure", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fschedule-insns", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fschedule-insns2", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fsplit-loops", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fstrict-aliasing", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-strict-aliasing", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "ftree-loop-distribution", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "ftree-loop-vectorize", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "ftree-slp-vectorize", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "ftree-partial-pre", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "funswitch-loops", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fvect-cost-model=", shape: S::Joined, category: C::Codegen },
    OptionSpec { name: "fassociative-math", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "ffinite-math-only", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-math-errno", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-signed-zeros", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-trapping-math", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "funsafe-math-optimizations", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fexcess-precision=", shape: S::Joined, category: C::Codegen },
    OptionSpec { name: "ffp-contract=", shape: S::Joined, category: C::Codegen },
    OptionSpec { name: "frounding-math", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fsignaling-nans", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fsingle-precision-constant", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fcx-limited-range", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "falign-functions=", shape: S::Joined, category: C::Codegen },
    OptionSpec { name: "falign-loops=", shape: S::Joined, category: C::Codegen },
    OptionSpec { name: "falign-jumps=", shape: S::Joined, category: C::Codegen },
    OptionSpec { name: "fbranch-probabilities", shape: S::Flag, category: C::Pgo },
    OptionSpec { name: "fprofile-values", shape: S::Flag, category: C::Pgo },
    OptionSpec { name: "fprofile-reorder-functions", shape: S::Flag, category: C::Pgo },
    OptionSpec { name: "fprofile-partial-training", shape: S::Flag, category: C::Pgo },
    OptionSpec { name: "fprofile-update=", shape: S::Joined, category: C::Pgo },
    OptionSpec { name: "flto-partition=", shape: S::Joined, category: C::Lto },
    OptionSpec { name: "flto-compression-level=", shape: S::Joined, category: C::Lto },
    OptionSpec { name: "fwhole-program", shape: S::Flag, category: C::Lto },
    OptionSpec { name: "fdevirtualize-at-ltrans", shape: S::Flag, category: C::Lto },
    // Hardening / ABI / storage-layout -f flags.
    OptionSpec { name: "fstack-protector", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fstack-protector-all", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fstack-clash-protection", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fcf-protection", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fpie", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-plt", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fshort-enums", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fpack-struct", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fwrapv", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "ftrapv", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fno-common", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fcommon", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fkeep-inline-functions", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "fvisibility-inlines-hidden", shape: S::Flag, category: C::Codegen },
    OptionSpec { name: "ftls-model=", shape: S::Joined, category: C::Codegen },
    OptionSpec { name: "fsanitize=", shape: S::Joined, category: C::Codegen },
    OptionSpec { name: "fdiagnostics-color=", shape: S::Joined, category: C::Other },
    OptionSpec { name: "fmax-errors=", shape: S::Joined, category: C::Other },
    OptionSpec { name: "fpermissive", shape: S::Flag, category: C::Other },
    OptionSpec { name: "fmodules-ts", shape: S::Flag, category: C::Other },
    OptionSpec { name: "fcoroutines", shape: S::Flag, category: C::Other },
    OptionSpec { name: "fchar8_t", shape: S::Flag, category: C::Other },
    OptionSpec { name: "fstack-usage", shape: S::Flag, category: C::Other },
    OptionSpec { name: "fverbose-asm", shape: S::Flag, category: C::Other },
    OptionSpec { name: "fdump-tree-all", shape: S::Flag, category: C::Other },
    OptionSpec { name: "fopt-info", shape: S::Flag, category: C::Other },
    OptionSpec { name: "fopt-info-vec=", shape: S::Joined, category: C::Other },
    OptionSpec { name: "frecord-gcc-switches", shape: S::Flag, category: C::Other },
    // Machine fine-tuning (-m family).
    OptionSpec { name: "mprefer-vector-width=", shape: S::Joined, category: C::Machine },
    OptionSpec { name: "mcmodel=", shape: S::Joined, category: C::Machine },
    OptionSpec { name: "mtls-dialect=", shape: S::Joined, category: C::Machine },
    OptionSpec { name: "momit-leaf-frame-pointer", shape: S::Flag, category: C::Machine },
    OptionSpec { name: "mno-red-zone", shape: S::Flag, category: C::Machine },
    OptionSpec { name: "mbranch-protection=", shape: S::Joined, category: C::Machine },
    OptionSpec { name: "moutline-atomics", shape: S::Flag, category: C::Machine },
    OptionSpec { name: "mstrict-align", shape: S::Flag, category: C::Machine },
    OptionSpec { name: "mlittle-endian", shape: S::Flag, category: C::Machine },
    OptionSpec { name: "mbig-endian", shape: S::Flag, category: C::Machine },
    OptionSpec { name: "mtune-ctrl=", shape: S::Joined, category: C::Machine },
    // Warnings (-W family beyond -Wall/-Wextra).
    OptionSpec { name: "Wpedantic", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wshadow", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wconversion", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wsign-compare", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wunused-variable", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wuninitialized", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wformat=", shape: S::Joined, category: C::Warning },
    OptionSpec { name: "Werror=", shape: S::Joined, category: C::Warning },
    OptionSpec { name: "Wno-error", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wno-unused-result", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wcast-align", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wdouble-promotion", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wvla", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wpadded", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wrestrict", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wnull-dereference", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wstack-usage=", shape: S::Joined, category: C::Warning },
    OptionSpec { name: "Waggregate-return", shape: S::Flag, category: C::Warning },
    // Preprocessor extras.
    OptionSpec { name: "MG", shape: S::Flag, category: C::Preprocessor },
    OptionSpec { name: "MQ", shape: S::JoinedOrSeparate, category: C::Preprocessor },
    OptionSpec { name: "C", shape: S::Flag, category: C::Preprocessor },
    OptionSpec { name: "P", shape: S::Flag, category: C::Preprocessor },
    OptionSpec { name: "H", shape: S::Flag, category: C::Preprocessor },
    OptionSpec { name: "trigraphs", shape: S::Flag, category: C::Preprocessor },
    OptionSpec { name: "undef", shape: S::Flag, category: C::Preprocessor },
    OptionSpec { name: "imacros", shape: S::JoinedOrSeparate, category: C::IncludePath },
    OptionSpec { name: "iprefix", shape: S::JoinedOrSeparate, category: C::IncludePath },
    OptionSpec { name: "iwithprefix", shape: S::JoinedOrSeparate, category: C::IncludePath },
    OptionSpec { name: "nostdinc++", shape: S::Flag, category: C::IncludePath },
    // Diagnostics / misc flags.
    OptionSpec { name: "v", shape: S::Flag, category: C::Other },
    OptionSpec { name: "###", shape: S::Flag, category: C::Other },
    OptionSpec { name: "pipe", shape: S::Flag, category: C::Other },
    OptionSpec { name: "save-temps", shape: S::Flag, category: C::Other },
    OptionSpec { name: "w", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Werror", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wall", shape: S::Flag, category: C::Warning },
    OptionSpec { name: "Wextra", shape: S::Flag, category: C::Warning },
];

/// Prefix fallbacks for the long tail, mirroring GCC's own treatment of
/// unrecognized `-f`/`-m`/`-W` spellings as flags.
const PREFIX_FALLBACKS: &[(&str, OptionCategory)] = &[
    ("f", C::Codegen),
    ("m", C::Machine),
    ("W", C::Warning),
];

/// Look up an option token (without the leading dash). Returns the matched
/// spec and, for `Joined` shapes, the split point of the value.
pub fn lookup(token: &str) -> Option<(OptionSpec, Option<usize>)> {
    // Longest exact/prefix match from the table.
    let mut best: Option<(OptionSpec, Option<usize>)> = None;
    for spec in OPTION_TABLE {
        let hit = match spec.shape {
            OptionShape::Flag | OptionShape::Separate => {
                if token == spec.name {
                    Some(None)
                } else {
                    None
                }
            }
            OptionShape::Joined => {
                if let Some(stripped) = spec.name.strip_suffix('=') {
                    // `-march=native`: need the `=` present.
                    if token.starts_with(stripped)
                        && token.len() > stripped.len()
                        && token.as_bytes()[stripped.len()] == b'='
                    {
                        Some(Some(stripped.len() + 1))
                    } else {
                        None
                    }
                } else if token.starts_with(spec.name) {
                    Some(Some(spec.name.len()))
                } else {
                    None
                }
            }
            OptionShape::JoinedOrSeparate => {
                if token == spec.name {
                    Some(None) // value in next token
                } else if token.starts_with(spec.name) {
                    Some(Some(spec.name.len()))
                } else {
                    None
                }
            }
        };
        if let Some(split) = hit {
            let better = match &best {
                None => true,
                Some((b, _)) => spec.name.len() > b.name.len(),
            };
            if better {
                best = Some((*spec, split));
            }
        }
    }
    if best.is_some() {
        return best;
    }
    // Prefix fallbacks: whole token is a flag.
    for (prefix, category) in PREFIX_FALLBACKS {
        if token.starts_with(prefix) && token.len() > prefix.len() {
            return Some((
                OptionSpec {
                    name: "",
                    shape: OptionShape::Flag,
                    category: *category,
                },
                None,
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_lookup() {
        let (spec, split) = lookup("c").unwrap();
        assert_eq!(spec.category, C::Mode);
        assert!(split.is_none());
    }

    #[test]
    fn joined_with_equals() {
        let (spec, split) = lookup("march=native").unwrap();
        assert_eq!(spec.category, C::Machine);
        assert_eq!(split, Some(6));
        assert_eq!(&"march=native"[6..], "native");
    }

    #[test]
    fn joined_without_value_missing() {
        // `-march` alone (no `=`) falls through to the `-m` prefix rule.
        let (spec, split) = lookup("march").unwrap();
        assert_eq!(spec.category, C::Machine);
        assert!(split.is_none());
    }

    #[test]
    fn joined_or_separate_both_forms() {
        let (spec, split) = lookup("I/usr/include").unwrap();
        assert_eq!(spec.category, C::IncludePath);
        assert_eq!(split, Some(1));
        let (spec2, split2) = lookup("I").unwrap();
        assert_eq!(spec2.category, C::IncludePath);
        assert!(split2.is_none());
    }

    #[test]
    fn longest_match_wins() {
        // `-MF x` must match MF (separate-ish), not `-M` flag.
        let (spec, _) = lookup("MF").unwrap();
        assert_eq!(spec.name, "MF");
        // `-Os` matches the level flag, not `-O` joined.
        let (spec2, split2) = lookup("Os").unwrap();
        assert_eq!(spec2.name, "Os");
        assert!(split2.is_none());
        // `-Wl,-rpath` matches the linker passthrough, not the W prefix.
        let (spec3, split3) = lookup("Wl,-rpath,/x").unwrap();
        assert_eq!(spec3.category, C::Linker);
        assert_eq!(split3, Some(3));
    }

    #[test]
    fn lto_and_pgo_families() {
        assert_eq!(lookup("flto").unwrap().0.category, C::Lto);
        assert_eq!(lookup("flto=auto").unwrap().0.category, C::Lto);
        assert_eq!(lookup("fprofile-generate").unwrap().0.category, C::Pgo);
        assert_eq!(lookup("fprofile-use=app.prof").unwrap().0.category, C::Pgo);
    }

    #[test]
    fn unknown_f_m_w_fall_back_to_flags() {
        assert_eq!(lookup("fstrict-aliasing").unwrap().0.category, C::Codegen);
        assert_eq!(lookup("mbranch-protection").unwrap().0.category, C::Machine);
        assert_eq!(lookup("Wshadow").unwrap().0.category, C::Warning);
    }

    #[test]
    fn machine_feature_flags_take_the_m_rule() {
        for token in ["m32", "m64", "mavx2", "msse4.2", "mno-avx", "msve"] {
            let (spec, split) = lookup(token).unwrap();
            assert_eq!(
                (spec.shape, spec.category, split),
                (S::Flag, C::Machine, None),
                "{token}"
            );
        }
    }

    #[test]
    fn expanded_table_coverage() {
        assert!(OPTION_TABLE.len() > 200, "{}", OPTION_TABLE.len());
        // Spot-check spellings across the new families.
        assert_eq!(lookup("funroll-loops").unwrap().0.category, C::Codegen);
        assert_eq!(lookup("fvect-cost-model=dynamic").unwrap().0.category, C::Codegen);
        assert_eq!(lookup("flto-partition=none").unwrap().0.category, C::Lto);
        assert_eq!(lookup("fprofile-update=atomic").unwrap().0.category, C::Pgo);
        assert_eq!(lookup("mprefer-vector-width=512").unwrap().0.category, C::Machine);
        assert_eq!(lookup("mbranch-protection=standard").unwrap().0.category, C::Machine);
        assert_eq!(lookup("Werror=format-security").unwrap().0.category, C::Warning);
        assert_eq!(lookup("Wstack-usage=4096").unwrap().0.category, C::Warning);
        assert_eq!(lookup("nostdinc++").unwrap().0.category, C::IncludePath);
        // `-Werror=` (joined) beats the `-Werror` flag when a value follows.
        let (spec, split) = lookup("Werror=all").unwrap();
        assert_eq!(spec.name, "Werror=");
        assert!(split.is_some());
    }

    #[test]
    fn isystem_joined_and_separate() {
        // GCC accepts both spellings.
        let (spec, split) = lookup("isystem/opt/include").unwrap();
        assert_eq!(spec.category, C::IncludePath);
        assert_eq!(split, Some(7));
        let (spec2, split2) = lookup("isystem").unwrap();
        assert_eq!(spec2.category, C::IncludePath);
        assert!(split2.is_none());
    }

    #[test]
    fn unknown_option_is_none() {
        assert!(lookup("zzz").is_none());
        assert!(lookup("qwhatever").is_none());
    }

    #[test]
    fn optimization_levels() {
        for lvl in ["O0", "O1", "O2", "O3", "Os", "Ofast", "Og"] {
            assert_eq!(lookup(lvl).unwrap().0.category, C::OptLevel, "{lvl}");
        }
    }
}
