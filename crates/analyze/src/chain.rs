//! Pass 4: adapter-chain soundness.
//!
//! Runs the configured adapter pipeline over a *copy* of every
//! compilation model and verifies that each recorded flag either survives
//! or is rewritten to another option of the same category. Two findings:
//!
//! * `COMT-W201` — a toolchain-claimed command line the option model
//!   cannot parse: the step replays verbatim and no adapter can touch it.
//! * `COMT-W202` — the chain removed a flag without introducing any
//!   replacement of its category: requested behavior is silently lost.

use crate::diag::{Diagnostic, Span};
use comtainer::{AdapterContext, CacheContents, CompilationModel, SystemAdapter};
use comt_toolchain::invocation::Arg;
use comt_toolchain::{CompilerInvocation, OptionCategory, Toolchain};

/// Codes this pass can emit (registry-consistency contract).
pub const EMITTED: &[&str] = &["COMT-W201", "COMT-W202"];

/// Render one parsed option for matching and display.
fn render_opt(token: &str, value: &Option<String>) -> String {
    match value {
        Some(v) => format!("-{token}{v}"),
        None => format!("-{token}"),
    }
}

/// Check every recorded command against the adapter chain.
pub fn check_chain(
    cache: &CacheContents,
    adapters: &[Box<dyn SystemAdapter>],
    ctx: &AdapterContext,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (idx, cmd) in cache.trace.commands.iter().enumerate() {
        let command = cmd.argv.join(" ");
        let program = cmd.argv.first().map(String::as_str).unwrap_or("");

        let parsed = CompilerInvocation::parse(&cmd.argv);
        if Toolchain::lookup(program).is_some() {
            if let Err(e) = &parsed {
                diags.push(
                    Diagnostic::new(
                        "COMT-W201",
                        format!("cannot model this command line ({e}): adapters are skipped"),
                        Span::step(idx, &command),
                    )
                    .with_hint(
                        "spell the flag in a standard form, or extend the option table"
                            .to_string(),
                    ),
                );
                continue;
            }
        }
        let Ok(recorded) = parsed else { continue };

        let mut model = CompilationModel::classify(&cmd.argv, &cmd.cwd, &cmd.env, &cmd.inputs);
        if !model.is_compilation() {
            continue;
        }
        comtainer::adapters::apply_adapters(&mut model, adapters, ctx);
        let Some(adapted) = model.invocation() else {
            continue;
        };

        diags.extend(diff_invocations(&recorded, &adapted, idx, &command));
    }
    diags
}

/// Compare recorded vs adapted options: every recorded option must either
/// survive verbatim or have a same-category replacement in the adapted
/// command line.
fn diff_invocations(
    recorded: &CompilerInvocation,
    adapted: &CompilerInvocation,
    idx: usize,
    command: &str,
) -> Vec<Diagnostic> {
    let adapted_opts: Vec<(String, OptionCategory)> = adapted
        .args
        .iter()
        .filter_map(|a| match a {
            Arg::Opt {
                token,
                value,
                category,
                ..
            } => Some((render_opt(token, value), *category)),
            _ => None,
        })
        .collect();

    let mut diags = Vec::new();
    for arg in &recorded.args {
        let Arg::Opt {
            token,
            value,
            category,
            ..
        } = arg
        else {
            continue;
        };
        let rendered = render_opt(token, value);
        let survives = adapted_opts.iter().any(|(r, _)| r == &rendered);
        if survives {
            continue;
        }
        let rewritten = adapted_opts.iter().any(|(_, c)| c == category);
        if rewritten {
            continue; // explicit rewrite: e.g. -march=haswell → -march=native
        }
        diags.push(
            Diagnostic::new(
                "COMT-W202",
                format!("the adapter chain drops {rendered} without a replacement"),
                Span::step(idx, command),
            )
            .with_hint(format!(
                "no adapted option has category {category:?}; check the pipeline order or \
                 add an adapter that maps the flag"
            )),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use comtainer::models::{BuildGraph, ImageModel, ProcessModels};
    use comtainer::NativeToolchainAdapter;
    use comt_buildsys::{BuildTrace, RawCommand};
    use std::collections::BTreeMap;

    fn cache_with(cmds: &[&str]) -> CacheContents {
        CacheContents {
            models: ProcessModels {
                image: ImageModel::default(),
                graph: BuildGraph::new(),
                isa: "x86_64".into(),
                cache_mode: Default::default(),
                targets: vec![],
            },
            trace: BuildTrace {
                commands: cmds
                    .iter()
                    .map(|c| RawCommand {
                        argv: c.split_whitespace().map(String::from).collect(),
                        cwd: "/src".into(),
                        env: vec![],
                        inputs: vec![],
                        outputs: vec![],
                    })
                    .collect(),
            },
            sources: BTreeMap::new(),
            digests: Default::default(),
        }
    }

    fn ctx() -> AdapterContext {
        AdapterContext {
            isa: "x86_64".into(),
            toolchain: Toolchain::vendor_x86(),
        }
    }

    #[test]
    fn native_adapter_chain_is_sound() {
        // The NativeToolchainAdapter swaps program / -march / -O — all
        // same-category rewrites, so no diagnostics.
        let cache = cache_with(&["gcc -O2 -march=haswell -c a.c -o a.o"]);
        let adapters: Vec<Box<dyn SystemAdapter>> = vec![Box::new(NativeToolchainAdapter)];
        assert!(check_chain(&cache, &adapters, &ctx()).is_empty());
    }

    #[test]
    fn unknown_flag_is_w201() {
        let cache = cache_with(&["gcc -zmagic -c a.c -o a.o"]);
        let diags = check_chain(&cache, &[], &ctx());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "COMT-W201");
        assert!(diags[0].message.contains("-zmagic"));
    }

    #[test]
    fn unknown_program_is_not_w201() {
        // `cp` is no compiler; replaying it verbatim is fine.
        let cache = cache_with(&["cp --weird-flag a b"]);
        assert!(check_chain(&cache, &[], &ctx()).is_empty());
    }

    #[test]
    fn dropping_adapter_is_w202() {
        struct DropDefines;
        impl SystemAdapter for DropDefines {
            fn name(&self) -> &str {
                "drop-defines"
            }
            fn transform(&self, model: &mut CompilationModel, _ctx: &AdapterContext) {
                if let Some(mut inv) = model.invocation() {
                    inv.remove_category(OptionCategory::Preprocessor);
                    model.set_argv(inv.to_argv());
                }
            }
        }
        let cache = cache_with(&["gcc -DNDEBUG -O2 -c a.c -o a.o"]);
        let adapters: Vec<Box<dyn SystemAdapter>> = vec![Box::new(DropDefines)];
        let diags = check_chain(&cache, &adapters, &ctx());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "COMT-W202");
        assert!(diags[0].message.contains("-DNDEBUG"));
    }
}
