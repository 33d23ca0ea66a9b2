//! Parsed compiler command lines — the transformable compilation model.
//!
//! A [`CompilerInvocation`] preserves the full argument sequence (options
//! *and* inputs, in order — link order is semantics) so that `to_argv()`
//! round-trips losslessly, while exposing typed accessors and mutators used
//! by the system adapters.

use crate::options::{lookup, OptionCategory, OptionShape};
use std::fmt;

/// Driver mode derived from the mode flags present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverMode {
    /// `-E`: stop after preprocessing.
    Preprocess,
    /// `-S`: stop after codegen to assembly.
    Assemble,
    /// `-c`: compile each source to an object.
    Compile,
    /// default: compile as needed and link.
    Link,
}

/// Classification of an input path by extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    CSource,
    CxxSource,
    FortranSource,
    Assembly,
    Object,
    Archive,
    SharedObject,
    Other,
}

impl InputKind {
    /// Classify a path the way the GCC driver does, by suffix.
    pub fn classify(path: &str) -> InputKind {
        let name = path.rsplit('/').next().unwrap_or(path);
        // `.C` (capital) is C++ in GCC; check before lowercasing.
        if name.ends_with(".C") || name.ends_with(".cc") || name.ends_with(".cpp")
            || name.ends_with(".cxx") || name.ends_with(".c++")
        {
            return InputKind::CxxSource;
        }
        let lower = name.to_ascii_lowercase();
        if lower.ends_with(".c") {
            InputKind::CSource
        } else if lower.ends_with(".f") || lower.ends_with(".f77") || lower.ends_with(".f90")
            || lower.ends_with(".f95") || lower.ends_with(".f03") || lower.ends_with(".for")
        {
            InputKind::FortranSource
        } else if lower.ends_with(".s") {
            InputKind::Assembly
        } else if lower.ends_with(".o") {
            InputKind::Object
        } else if lower.ends_with(".a") {
            InputKind::Archive
        } else if lower.ends_with(".so") || lower.contains(".so.") {
            InputKind::SharedObject
        } else {
            InputKind::Other
        }
    }

    /// Whether this is a source file needing compilation.
    pub fn is_source(&self) -> bool {
        matches!(
            self,
            InputKind::CSource | InputKind::CxxSource | InputKind::FortranSource
        )
    }
}

/// One parsed argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arg {
    /// A positional input file.
    Input { path: String, kind: InputKind },
    /// An option, possibly with a value.
    Opt {
        /// Option spelling without the leading dash; for table entries this
        /// is the canonical name (`march=`, `I`, `Wl,`), for prefix-fallback
        /// flags it is the whole token.
        token: String,
        value: Option<String>,
        /// Whether the value was glued to the option (one argv token).
        joined: bool,
        category: OptionCategory,
        shape: OptionShape,
    },
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// An option that requires a value ended the command line.
    MissingValue(String),
    /// A token that is neither a known option nor a plausible input.
    UnknownOption(String),
    /// Empty argv.
    Empty,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingValue(t) => write!(f, "option -{t} requires a value"),
            ParseError::UnknownOption(t) => write!(f, "unknown option: {t}"),
            ParseError::Empty => write!(f, "empty command line"),
        }
    }
}

impl std::error::Error for ParseError {}

/// PGO state encoded in the flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PgoFlag {
    #[default]
    None,
    /// `-fprofile-generate[=dir]`
    Generate(Option<String>),
    /// `-fprofile-use[=file]`
    Use(Option<String>),
}

/// A parsed compiler command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompilerInvocation {
    /// argv\[0\] as invoked (e.g. `gcc`, `g++-13`, `mpicc`, `clang`).
    pub program: String,
    /// Full argument sequence, order preserved.
    pub args: Vec<Arg>,
}

impl CompilerInvocation {
    /// Parse a full argv (including the program at index 0).
    pub fn parse(argv: &[String]) -> Result<Self, ParseError> {
        let (program, rest) = argv.split_first().ok_or(ParseError::Empty)?;
        let mut args = Vec::with_capacity(rest.len());
        let mut i = 0usize;
        while i < rest.len() {
            let tok = &rest[i];
            i += 1;
            if let Some(body) = tok.strip_prefix('-') {
                if body.is_empty() {
                    // Bare `-` is stdin input; treat as other input.
                    args.push(Arg::Input {
                        path: tok.clone(),
                        kind: InputKind::Other,
                    });
                    continue;
                }
                let (spec, split) =
                    lookup(body).ok_or_else(|| ParseError::UnknownOption(tok.clone()))?;
                let canonical = if spec.name.is_empty() {
                    body.to_string()
                } else {
                    spec.name.to_string()
                };
                match (spec.shape, split) {
                    (OptionShape::Flag, _) => args.push(Arg::Opt {
                        token: canonical,
                        value: None,
                        joined: false,
                        category: spec.category,
                        shape: spec.shape,
                    }),
                    (OptionShape::Joined, Some(at)) => args.push(Arg::Opt {
                        token: canonical,
                        value: Some(body[at..].to_string()),
                        joined: true,
                        category: spec.category,
                        shape: spec.shape,
                    }),
                    (OptionShape::Joined, None) => {
                        return Err(ParseError::MissingValue(body.to_string()))
                    }
                    (OptionShape::Separate, _) | (OptionShape::JoinedOrSeparate, None) => {
                        let value = rest
                            .get(i)
                            .cloned()
                            .ok_or_else(|| ParseError::MissingValue(body.to_string()))?;
                        i += 1;
                        args.push(Arg::Opt {
                            token: canonical,
                            value: Some(value),
                            joined: false,
                            category: spec.category,
                            shape: spec.shape,
                        });
                    }
                    (OptionShape::JoinedOrSeparate, Some(at)) => args.push(Arg::Opt {
                        token: canonical,
                        value: Some(body[at..].to_string()),
                        joined: true,
                        category: spec.category,
                        shape: spec.shape,
                    }),
                }
            } else {
                args.push(Arg::Input {
                    path: tok.clone(),
                    kind: InputKind::classify(tok),
                });
            }
        }
        Ok(CompilerInvocation {
            program: program.clone(),
            args,
        })
    }

    /// Reconstruct the argv (lossless for parsed command lines).
    pub fn to_argv(&self) -> Vec<String> {
        let mut out = vec![self.program.clone()];
        for a in &self.args {
            match a {
                Arg::Input { path, .. } => out.push(path.clone()),
                Arg::Opt {
                    token,
                    value,
                    joined,
                    ..
                } => match value {
                    None => out.push(format!("-{token}")),
                    Some(v) if *joined => {
                        // Joined-table names carry their `=`; joined
                        // prefixes (`I`, `O`, `Wl,`) glue directly.
                        out.push(format!("-{token}{v}"));
                    }
                    Some(v) => {
                        out.push(format!("-{token}"));
                        out.push(v.clone());
                    }
                },
            }
        }
        out
    }

    /// Driver mode implied by mode flags.
    pub fn mode(&self) -> DriverMode {
        for a in &self.args {
            if let Arg::Opt { token, .. } = a {
                match token.as_str() {
                    "E" => return DriverMode::Preprocess,
                    "S" => return DriverMode::Assemble,
                    "c" => return DriverMode::Compile,
                    _ => {}
                }
            }
        }
        DriverMode::Link
    }

    /// The `-o` value, if any.
    pub fn output(&self) -> Option<&str> {
        self.opt_value("o")
    }

    /// All positional inputs in order.
    pub fn inputs(&self) -> Vec<(&str, InputKind)> {
        self.args
            .iter()
            .filter_map(|a| match a {
                Arg::Input { path, kind } => Some((path.as_str(), *kind)),
                _ => None,
            })
            .collect()
    }

    fn opt_value(&self, name: &str) -> Option<&str> {
        self.args.iter().rev().find_map(|a| match a {
            Arg::Opt { token, value, .. } if token == name => value.as_deref(),
            _ => None,
        })
    }

    fn has_flag(&self, name: &str) -> bool {
        self.args
            .iter()
            .any(|a| matches!(a, Arg::Opt { token, .. } if token == name))
    }

    /// Optimization level as the suffix string (`"2"`, `"3"`, `"fast"`,
    /// `"s"`); last one wins like GCC.
    pub fn opt_level(&self) -> Option<String> {
        self.args.iter().rev().find_map(|a| match a {
            Arg::Opt {
                token,
                value,
                category: OptionCategory::OptLevel,
                ..
            } => Some(match value {
                Some(v) => v.clone(),
                None => token.trim_start_matches('O').to_string(),
            }),
            _ => None,
        })
    }

    pub fn march(&self) -> Option<&str> {
        self.opt_value("march=")
    }

    pub fn mtune(&self) -> Option<&str> {
        self.opt_value("mtune=")
    }

    pub fn std(&self) -> Option<&str> {
        self.opt_value("std=")
    }

    pub fn include_dirs(&self) -> Vec<&str> {
        self.values_of("I")
    }

    pub fn lib_dirs(&self) -> Vec<&str> {
        self.values_of("L")
    }

    pub fn libs(&self) -> Vec<&str> {
        self.values_of("l")
    }

    pub fn defines(&self) -> Vec<&str> {
        self.values_of("D")
    }

    fn values_of(&self, name: &str) -> Vec<&str> {
        self.args
            .iter()
            .filter_map(|a| match a {
                Arg::Opt { token, value, .. } if token == name => value.as_deref(),
                _ => None,
            })
            .collect()
    }

    pub fn is_shared(&self) -> bool {
        self.has_flag("shared")
    }

    pub fn is_static(&self) -> bool {
        self.has_flag("static")
    }

    pub fn openmp(&self) -> bool {
        self.has_flag("fopenmp")
    }

    pub fn fast_math(&self) -> bool {
        (self.has_flag("ffast-math") || self.opt_level().as_deref() == Some("fast"))
            && !self.has_flag("fno-fast-math")
    }

    /// Whether LTO is requested (`-flto` / `-flto=…`, not negated later).
    pub fn lto(&self) -> bool {
        let mut on = false;
        for a in &self.args {
            if let Arg::Opt { token, .. } = a {
                match token.as_str() {
                    "flto" | "flto=" => on = true,
                    "fno-lto" => on = false,
                    _ => {}
                }
            }
        }
        on
    }

    /// The PGO state encoded in the flags (last relevant flag wins).
    pub fn pgo(&self) -> PgoFlag {
        let mut state = PgoFlag::None;
        for a in &self.args {
            if let Arg::Opt { token, value, .. } = a {
                match token.as_str() {
                    "fprofile-generate" => state = PgoFlag::Generate(None),
                    "fprofile-generate=" => state = PgoFlag::Generate(value.clone()),
                    "fprofile-use" => state = PgoFlag::Use(None),
                    "fprofile-use=" => state = PgoFlag::Use(value.clone()),
                    _ => {}
                }
            }
        }
        state
    }

    // ---- mutators used by system adapters -------------------------------

    /// Remove every option of a category.
    pub fn remove_category(&mut self, category: OptionCategory) {
        self.args.retain(|a| !matches!(a, Arg::Opt { category: c, .. } if *c == category));
    }

    /// Append a bare flag.
    pub fn push_flag(&mut self, token: &str, category: OptionCategory) {
        self.args.push(Arg::Opt {
            token: token.to_string(),
            value: None,
            joined: false,
            category,
            shape: OptionShape::Flag,
        });
    }

    /// Append a joined option (`-name=value` style; `name` must carry its
    /// `=` when the table spells it that way).
    pub fn push_joined(&mut self, token: &str, value: &str, category: OptionCategory) {
        self.args.push(Arg::Opt {
            token: token.to_string(),
            value: Some(value.to_string()),
            joined: true,
            category,
            shape: OptionShape::Joined,
        });
    }

    /// Set (replacing any existing) the `-march=` value.
    pub fn set_march(&mut self, value: &str) {
        self.args.retain(|a| !matches!(a, Arg::Opt { token, .. } if token == "march="));
        self.push_joined("march=", value, OptionCategory::Machine);
    }

    /// Set the optimization level, replacing existing `-O*`.
    pub fn set_opt_level(&mut self, level: &str) {
        self.remove_category(OptionCategory::OptLevel);
        self.push_flag(&format!("O{level}"), OptionCategory::OptLevel);
    }

    /// Enable LTO (idempotent).
    pub fn enable_lto(&mut self) {
        if !self.lto() {
            self.push_flag("flto", OptionCategory::Lto);
        }
    }

    /// Clear PGO flags then set the requested state.
    pub fn set_pgo(&mut self, pgo: PgoFlag) {
        self.args.retain(|a| {
            !matches!(a, Arg::Opt { token, .. } if token.starts_with("fprofile-generate") || token.starts_with("fprofile-use"))
        });
        match pgo {
            PgoFlag::None => {}
            PgoFlag::Generate(None) => self.push_flag("fprofile-generate", OptionCategory::Pgo),
            PgoFlag::Generate(Some(d)) => {
                self.push_joined("fprofile-generate=", &d, OptionCategory::Pgo)
            }
            PgoFlag::Use(None) => self.push_flag("fprofile-use", OptionCategory::Pgo),
            PgoFlag::Use(Some(p)) => self.push_joined("fprofile-use=", &p, OptionCategory::Pgo),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse(s: &str) -> CompilerInvocation {
        CompilerInvocation::parse(&argv(s)).unwrap()
    }

    #[test]
    fn roundtrip_typical_compile() {
        let cmd = "gcc -O2 -march=x86-64 -Ivendor/include -DNDEBUG -c lulesh.cc -o lulesh.o";
        let inv = parse(cmd);
        assert_eq!(inv.to_argv().join(" "), cmd);
    }

    #[test]
    fn roundtrip_separate_forms() {
        let cmd = "g++ -I include -D FOO=1 -L /opt/lib -o app main.o -l m";
        let inv = parse(cmd);
        assert_eq!(inv.to_argv().join(" "), cmd);
    }

    #[test]
    fn mode_detection() {
        assert_eq!(parse("gcc -c a.c").mode(), DriverMode::Compile);
        assert_eq!(parse("gcc -E a.c").mode(), DriverMode::Preprocess);
        assert_eq!(parse("gcc -S a.c").mode(), DriverMode::Assemble);
        assert_eq!(parse("gcc a.o -o app").mode(), DriverMode::Link);
    }

    #[test]
    fn typed_accessors() {
        let inv = parse(
            "g++ -O3 -march=native -mtune=native -std=c++17 -fopenmp -Iinc -I inc2 -DX=1 -L/l1 -lm -lmpi main.cc -o out",
        );
        assert_eq!(inv.opt_level().as_deref(), Some("3"));
        assert_eq!(inv.march(), Some("native"));
        assert_eq!(inv.mtune(), Some("native"));
        assert_eq!(inv.std(), Some("c++17"));
        assert!(inv.openmp());
        assert_eq!(inv.include_dirs(), vec!["inc", "inc2"]);
        assert_eq!(inv.defines(), vec!["X=1"]);
        assert_eq!(inv.lib_dirs(), vec!["/l1"]);
        assert_eq!(inv.libs(), vec!["m", "mpi"]);
        assert_eq!(inv.output(), Some("out"));
    }

    #[test]
    fn last_opt_level_wins() {
        assert_eq!(parse("gcc -O0 -O3 -c a.c").opt_level().as_deref(), Some("3"));
        assert_eq!(parse("gcc -O -c a.c").opt_level().as_deref(), Some(""));
    }

    #[test]
    fn lto_negation() {
        assert!(parse("gcc -flto a.o").lto());
        assert!(parse("gcc -flto=auto a.o").lto());
        assert!(!parse("gcc -flto -fno-lto a.o").lto());
        assert!(!parse("gcc a.o").lto());
    }

    #[test]
    fn pgo_states() {
        assert_eq!(parse("gcc a.c").pgo(), PgoFlag::None);
        assert_eq!(
            parse("gcc -fprofile-generate a.c").pgo(),
            PgoFlag::Generate(None)
        );
        assert_eq!(
            parse("gcc -fprofile-use=x.prof a.c").pgo(),
            PgoFlag::Use(Some("x.prof".into()))
        );
    }

    #[test]
    fn input_classification() {
        assert_eq!(InputKind::classify("a.c"), InputKind::CSource);
        assert_eq!(InputKind::classify("b.cc"), InputKind::CxxSource);
        assert_eq!(InputKind::classify("b.C"), InputKind::CxxSource);
        assert_eq!(InputKind::classify("f.f90"), InputKind::FortranSource);
        assert_eq!(InputKind::classify("x.o"), InputKind::Object);
        assert_eq!(InputKind::classify("libx.a"), InputKind::Archive);
        assert_eq!(InputKind::classify("libm.so.6"), InputKind::SharedObject);
        assert_eq!(InputKind::classify("README"), InputKind::Other);
    }

    #[test]
    fn link_order_preserved() {
        let inv = parse("gcc main.o -lfirst other.o -lsecond -o app");
        let order: Vec<String> = inv
            .args
            .iter()
            .filter_map(|a| match a {
                Arg::Input { path, .. } => Some(path.clone()),
                Arg::Opt { token, value, .. } if token == "l" => {
                    Some(format!("-l{}", value.clone().unwrap()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(order, vec!["main.o", "-lfirst", "other.o", "-lsecond"]);
    }

    #[test]
    fn missing_value_errors() {
        assert!(matches!(
            CompilerInvocation::parse(&argv("gcc -o")),
            Err(ParseError::MissingValue(_))
        ));
        assert!(matches!(
            CompilerInvocation::parse(&argv("gcc -I")),
            Err(ParseError::MissingValue(_))
        ));
    }

    #[test]
    fn unknown_option_errors() {
        assert!(matches!(
            CompilerInvocation::parse(&argv("gcc -zmagic a.c")),
            Err(ParseError::UnknownOption(_))
        ));
    }

    #[test]
    fn mutators_retarget() {
        let mut inv = parse("g++ -O2 -march=x86-64 -c a.cc -o a.o");
        inv.set_march("icelake-server");
        inv.set_opt_level("3");
        inv.enable_lto();
        inv.enable_lto(); // idempotent
        let out = inv.to_argv().join(" ");
        assert!(out.contains("-march=icelake-server"));
        assert!(out.contains("-O3"));
        assert!(!out.contains("-O2"));
        assert_eq!(out.matches("-flto").count(), 1);
    }

    #[test]
    fn mutators_pgo_replace() {
        let mut inv = parse("gcc -fprofile-generate -c a.c");
        inv.set_pgo(PgoFlag::Use(Some("/prof/app.prof".into())));
        assert_eq!(inv.pgo(), PgoFlag::Use(Some("/prof/app.prof".into())));
        let s = inv.to_argv().join(" ");
        assert!(!s.contains("profile-generate"));
        assert!(s.contains("-fprofile-use=/prof/app.prof"));
    }

    #[test]
    fn wl_passthrough_roundtrip() {
        let cmd = "gcc a.o -Wl,-rpath,/opt/lib -Wl,--as-needed -o app";
        assert_eq!(parse(cmd).to_argv().join(" "), cmd);
    }

    #[test]
    fn fallback_flags_roundtrip() {
        let cmd = "gcc -fstrict-aliasing -mbranch-protection -Wshadow -c a.c";
        assert_eq!(parse(cmd).to_argv().join(" "), cmd);
    }
}
