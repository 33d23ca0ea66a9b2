//! Annotated synthetic sources.
//!
//! Workload source files are ordinary-looking C/C++/Fortran text whose
//! build-relevant facts are declared in `#pragma comt …` lines, the
//! structured stand-in for what a real compiler frontend extracts by
//! parsing:
//!
//! ```c
//! #pragma comt provides(CalcForceForNodes, main)
//! #pragma comt requires(CalcVolumeDerivatives)
//! #pragma comt extern(m:sqrt, mpi:MPI_Allreduce)
//! #pragma comt isa(x86_64)
//! #pragma comt kernel(flops=1.2e12, bytes=4.0e11, blas_frac=0.35)
//! #include "lulesh.h"
//! ```
//!
//! * `provides` / `requires` — internal symbols defined/used,
//! * `extern` — namespaced external symbols (`namespace:name`) satisfied by
//!   system libraries (`libm.so.*` provides `m:*`, `libmpi.so.*` provides
//!   `mpi:*`, …),
//! * `isa(<isa>)` — the translation unit contains ISA-specific code
//!   (inline assembly / intrinsics); compiling for another ISA fails,
//! * `kernel(k=v, …)` — performance characteristics that flow through
//!   objects into the linked binary and drive the performance model,
//! * `#include` lines are scanned for header dependencies.

use std::collections::BTreeMap;

/// Facts extracted from one source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceInfo {
    /// Symbols this translation unit defines.
    pub provides: Vec<String>,
    /// Internal symbols it references.
    pub requires: Vec<String>,
    /// External namespaced symbols (`ns:name`).
    pub externs: Vec<String>,
    /// Set when the unit contains ISA-specific code.
    pub isa: Option<String>,
    /// Performance kernel parameters.
    pub kernel: BTreeMap<String, f64>,
    /// `#include "…"` dependencies (searched in quote dirs + `-I`).
    pub includes_quoted: Vec<String>,
    /// `#include <…>` dependencies (searched in `-I` + system dirs).
    pub includes_system: Vec<String>,
    /// Number of source lines (for Table 2 accounting).
    pub loc: usize,
}

fn parse_args(body: &str) -> Vec<String> {
    body.split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// The directive names `#pragma comt` carries. No name is a prefix of
/// another, so at most one matches a line.
const DIRECTIVES: [&str; 5] = ["provides", "requires", "extern", "isa", "kernel"];

/// Split `#pragma comt name(args)` — given what follows `#pragma comt ` —
/// into the directive name and its argument body, up to the last `)`.
fn directive(rest: &str) -> Option<(&'static str, &str)> {
    let rest = rest.trim_start();
    let name = DIRECTIVES.into_iter().find(|n| rest.starts_with(n))?;
    let rest = rest[name.len()..].trim_start().strip_prefix('(')?;
    let close = rest.rfind(')')?;
    Some((name, &rest[..close]))
}

/// Parse an annotated source file. Each line is scanned once: one that
/// does not start with `#` (after leading whitespace) is done.
pub fn parse_source(text: &str) -> SourceInfo {
    let mut info = SourceInfo::default();
    for line in text.lines() {
        info.loc += 1;
        let trimmed = line.trim_start();
        if !trimmed.starts_with('#') {
            continue;
        }
        if let Some(pragma) = trimmed.strip_prefix("#pragma comt ") {
            match directive(pragma) {
                Some(("provides", body)) => info.provides.extend(parse_args(body)),
                Some(("requires", body)) => info.requires.extend(parse_args(body)),
                Some(("extern", body)) => info.externs.extend(parse_args(body)),
                Some(("isa", body)) => info.isa = parse_args(body).into_iter().next(),
                Some(("kernel", body)) => {
                    for kv in parse_args(body) {
                        if let Some((k, v)) = kv.split_once('=') {
                            if let Ok(val) = v.trim().parse::<f64>() {
                                info.kernel.insert(k.trim().to_string(), val);
                            }
                        }
                    }
                }
                _ => {}
            }
        } else if let Some(rest) = trimmed.strip_prefix("#include") {
            let rest = rest.trim();
            if let Some(inner) = rest.strip_prefix('"').and_then(|r| r.split('"').next()) {
                info.includes_quoted.push(inner.to_string());
            } else if let Some(inner) = rest
                .strip_prefix('<')
                .and_then(|r| r.split('>').next())
            {
                info.includes_system.push(inner.to_string());
            }
        }
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"#pragma comt provides(main, init_mesh)
#pragma comt requires(calc_forces)
#pragma comt extern(m:sqrt, mpi:MPI_Init)
#pragma comt kernel(flops=1.5e9, bytes=2e8)
#include "app.h"
#include <stdio.h>
int main(int argc, char** argv) {
  init_mesh();
  return 0;
}
"#;

    #[test]
    fn parses_all_directives() {
        let info = parse_source(SAMPLE);
        assert_eq!(info.provides, vec!["main", "init_mesh"]);
        assert_eq!(info.requires, vec!["calc_forces"]);
        assert_eq!(info.externs, vec!["m:sqrt", "mpi:MPI_Init"]);
        assert_eq!(info.kernel["flops"], 1.5e9);
        assert_eq!(info.kernel["bytes"], 2e8);
        assert_eq!(info.includes_quoted, vec!["app.h"]);
        assert_eq!(info.includes_system, vec!["stdio.h"]);
        assert_eq!(info.loc, 10);
        assert!(info.isa.is_none());
    }

    #[test]
    fn isa_directive() {
        let info = parse_source("#pragma comt isa(x86_64)\nasm(\"vfmadd231pd\");\n");
        assert_eq!(info.isa.as_deref(), Some("x86_64"));
    }

    #[test]
    fn plain_source_is_neutral() {
        let info = parse_source("int x;\nint y;\n");
        assert!(info.provides.is_empty());
        assert!(info.externs.is_empty());
        assert_eq!(info.loc, 2);
    }

    #[test]
    fn malformed_pragmas_ignored() {
        let info = parse_source("#pragma comt provides\n#pragma comt kernel(flops=abc)\n#pragma omp parallel\n");
        assert!(info.provides.is_empty());
        assert!(info.kernel.is_empty());
    }

    /// The parser as it was before it scanned each line once — every line
    /// trimmed, then trimmed and `#pragma comt `-stripped again by each of
    /// five `directive` calls. Kept as the reference the one-pass parser
    /// is held to.
    mod reference {
        use super::super::{parse_args, SourceInfo};

        fn directive<'a>(line: &'a str, name: &str) -> Option<&'a str> {
            let rest = line.trim().strip_prefix("#pragma comt ")?.trim_start();
            let rest = rest.strip_prefix(name)?.trim_start();
            let rest = rest.strip_prefix('(')?;
            let close = rest.rfind(')')?;
            Some(&rest[..close])
        }

        pub fn parse_source(text: &str) -> SourceInfo {
            let mut info = SourceInfo::default();
            for line in text.lines() {
                info.loc += 1;
                let trimmed = line.trim();
                if let Some(body) = directive(trimmed, "provides") {
                    info.provides.extend(parse_args(body));
                } else if let Some(body) = directive(trimmed, "requires") {
                    info.requires.extend(parse_args(body));
                } else if let Some(body) = directive(trimmed, "extern") {
                    info.externs.extend(parse_args(body));
                } else if let Some(body) = directive(trimmed, "isa") {
                    info.isa = parse_args(body).into_iter().next();
                } else if let Some(body) = directive(trimmed, "kernel") {
                    for kv in parse_args(body) {
                        if let Some((k, v)) = kv.split_once('=') {
                            if let Ok(val) = v.trim().parse::<f64>() {
                                info.kernel.insert(k.trim().to_string(), val);
                            }
                        }
                    }
                } else if let Some(rest) = trimmed.strip_prefix("#include") {
                    let rest = rest.trim();
                    if let Some(inner) = rest.strip_prefix('"').and_then(|r| r.split('"').next())
                    {
                        info.includes_quoted.push(inner.to_string());
                    } else if let Some(inner) =
                        rest.strip_prefix('<').and_then(|r| r.split('>').next())
                    {
                        info.includes_system.push(inner.to_string());
                    }
                }
            }
            info
        }
    }

    #[test]
    fn one_pass_parser_matches_the_reference_on_every_workload_tree() {
        let mut files = 0;
        for spec in comt_workloads::apps() {
            let tree = comt_workloads::source_tree(spec.name, "x86_64", 1.0 / 1024.0).unwrap();
            for (path, node) in tree.walk_prefix("/src") {
                if node.is_file() {
                    let text = tree.read_string(path).unwrap();
                    assert_eq!(parse_source(&text), reference::parse_source(&text), "{path}");
                    files += 1;
                }
            }
        }
        assert!(files > 100, "only {files} source files seen");
    }

    #[test]
    fn one_pass_parser_matches_the_reference_on_hostile_lines() {
        let lines = [
            "#pragma comt provides",
            "#pragma comt provides(a, b",
            "#pragma comt provides (a) trailing )",
            "#pragma comt providesx(a)",
            "#pragma comt requires(x)\r",
            "\t\t#pragma comt extern(m:sqrt)",
            "  #pragma comt isa( aarch64 )  ",
            "#pragma comt kernel(flops=1e9, bytes=x, =3, k=)",
            "#pragma comt  kernel (flops=2)",
            "#pragma comt",
            "#pragma comt \t",
            "#pragma comt\tprovides(tab)",
            "#pragma  comt provides(two_spaces)",
            "#pragma omp parallel for",
            "#include",
            "#include   ",
            "#include \"unterminated",
            "#include <sys/x.h",
            "#include<tight.h>",
            "\u{a0}#include \"nbsp.h\"\u{a0}",
            "# include \"spaced.h\"",
            "#",
            "",
            "   ",
            "int x; // #pragma comt provides(no)",
        ];
        for line in lines {
            assert_eq!(parse_source(line), reference::parse_source(line), "{line:?}");
        }
        for sep in ["\n", "\r\n"] {
            let text = lines.join(sep);
            assert_eq!(parse_source(&text), reference::parse_source(&text), "{sep:?}");
        }
    }
}
