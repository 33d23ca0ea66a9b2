//! The diagnostic code registry: one table backing `comt check --explain`,
//! the docs and severity resolution for every pass.
//!
//! Codes are stable: `COMT-Exxx` are error-severity (they gate
//! `comt rebuild --check`), `COMT-Wxxx` are warnings. The hundreds digit
//! groups by pass: 0xx hazards/lints on the build model, 1xx layer stack,
//! 2xx adapter chain. `COMT-Fxxx` codes are emitted by `comt fsck` (the
//! on-disk layout checker in `comt-oci`); `COMT-Axxx` codes by the
//! `comt audit` ISA-compatibility pass. F and A severities are per-code,
//! not prefix-derived, and mirror [`comt_oci::fsck::FSCK_CODES`] /
//! [`crate::features::AUDIT_CODES`].

use crate::diag::Severity;

/// One registry entry, rendered by `comt check --explain <code>`.
#[derive(Debug, Clone, Copy)]
pub struct CodeInfo {
    pub code: &'static str,
    pub severity: Severity,
    /// One-line title.
    pub title: &'static str,
    /// Longer explanation of why this is a problem.
    pub explanation: &'static str,
    /// Generic fix guidance.
    pub hint: &'static str,
}

/// Every diagnostic `comt check` can emit.
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: "COMT-E001",
        severity: Severity::Error,
        title: "unordered write-write hazard between build steps",
        explanation: "Two steps in the same parallel compile segment write the same path and \
                      no dependency edge orders them. The ready-queue scheduler may run them \
                      in either order (or concurrently), so the replayed image content depends \
                      on scheduling.",
        hint: "declare the earlier step's output as an input of the later step, or give the \
               steps distinct output paths",
    },
    CodeInfo {
        code: "COMT-E002",
        severity: Severity::Error,
        title: "unordered read-write hazard between build steps",
        explanation: "One step reads a path another step in the same parallel compile segment \
                      writes, with no dependency edge between them. Depending on scheduling \
                      the reader sees the file before or after the write.",
        hint: "declare the written path as an input of the reading step so the scheduler \
               derives the edge",
    },
    CodeInfo {
        code: "COMT-E101",
        severity: Severity::Error,
        title: "whiteout shadows a file the rebuild reads",
        explanation: "A layer contains a whiteout entry deleting a path that a recorded build \
                      step reads or that belongs to the cache layer. After the layer stack is \
                      flattened the rebuild cannot see the file and replay fails or silently \
                      diverges.",
        hint: "drop the whiteout or re-record the build so the deleted path is not an input",
    },
    CodeInfo {
        code: "COMT-E102",
        severity: Severity::Error,
        title: "manifest layers and config diff_ids disagree",
        explanation: "The image manifest lists a different number of layers than the config's \
                      rootfs.diff_ids. The image violates the OCI spec and runtimes will \
                      reject or mis-apply it.",
        hint: "rebuild the image with a writer that appends the diff_id alongside every layer",
    },
    CodeInfo {
        code: "COMT-E103",
        severity: Severity::Error,
        title: "layer diff_id does not match blob content",
        explanation: "The digest of a layer's uncompressed tar differs from the diff_id the \
                      config records at the same index: the blob was modified, truncated or \
                      mis-ordered after the config was written.",
        hint: "re-export the layout; if the corruption persists, the blob store is damaged",
    },
    CodeInfo {
        code: "COMT-E104",
        severity: Severity::Error,
        title: "layer blob missing or undecodable",
        explanation: "A layer descriptor points at a blob that is absent from the store or \
                      cannot be decompressed/parsed as a tar stream.",
        hint: "re-export the layout from a store that holds every referenced blob",
    },
    CodeInfo {
        code: "COMT-W001",
        severity: Severity::Warning,
        title: "machine flag resolves on the build host",
        explanation: "`-march=native`/`-mtune=native`/`-mcpu=native` make the compiler probe \
                      the machine it runs on, so the recorded flags do not describe the code \
                      that a rebuild on different hardware will generate. coMtainer's \
                      adapters re-resolve `native` on the system side, but the recorded model \
                      is not self-describing.",
        hint: "record with an explicit -march value, or rely on the system-side adapter and \
               ignore this warning",
    },
    CodeInfo {
        code: "COMT-W002",
        severity: Severity::Warning,
        title: "timestamp macro embeds build time",
        explanation: "A cached source (or a -D define) uses __DATE__/__TIME__/__TIMESTAMP__, \
                      so every rebuild embeds its own wall-clock time and the rebuilt \
                      artifacts can never be bit-identical to the originals.",
        hint: "replace the macro with a configure-time constant to keep rebuilds reproducible",
    },
    CodeInfo {
        code: "COMT-W003",
        severity: Severity::Warning,
        title: "absolute host path recorded in command line",
        explanation: "The command line references an absolute path under a host-specific \
                      prefix (/home, /root, /Users, /tmp, …). The rebuild container will not \
                      have that path unless the cache layer happens to carry it.",
        hint: "build from container-relative paths so the model replays anywhere",
    },
    CodeInfo {
        code: "COMT-W004",
        severity: Severity::Warning,
        title: "ISA-specific flag the target cannot map",
        explanation: "A recorded flag names a CPU or feature of a different ISA than the \
                      check target (e.g. -mavx2 when targeting aarch64). The adapter chain \
                      has no rewrite for it, so a cross-ISA rebuild would pass a flag the \
                      target compiler rejects.",
        hint: "run `comt cross-check` for the full feasibility report, or drop the flag from \
               the build script",
    },
    CodeInfo {
        code: "COMT-W005",
        severity: Severity::Warning,
        title: "value-changing fast-math optimization recorded",
        explanation: "The step uses -Ofast or -ffast-math, which licenses the compiler to \
                      break IEEE semantics (reassociation, flush-to-zero, no NaN checks). \
                      The rebuilt binary can produce different numeric results than a \
                      rebuild without the flag — the flag changes values, not just \
                      host-coupling.",
        hint: "use -O3 with selective -f options, or accept that results are only \
               reproducible with the identical flag set",
    },
    CodeInfo {
        code: "COMT-W101",
        severity: Severity::Warning,
        title: "duplicate conflicting entries in one layer",
        explanation: "A single layer tar contains the same path twice with different content. \
                      Appliers keep the last entry, but duplicate paths usually indicate a \
                      corrupted or hand-assembled layer.",
        hint: "regenerate the layer from a filesystem diff",
    },
    CodeInfo {
        code: "COMT-W201",
        severity: Severity::Warning,
        title: "unparseable flag blocks adaptation",
        explanation: "A toolchain-claimed command line has a flag the option model cannot \
                      parse, so the step falls back to verbatim replay: no adapter (native \
                      toolchain swap, LTO, PGO) can transform it.",
        hint: "spell the flag in a standard form, or extend the option table",
    },
    CodeInfo {
        code: "COMT-W202",
        severity: Severity::Warning,
        title: "adapter chain drops a flag without rewrite",
        explanation: "Running the configured adapter chain over this step removes a recorded \
                      flag without introducing a replacement of the same category. The \
                      rebuilt step silently loses behavior the original build requested.",
        hint: "check the adapter pipeline order, or add an adapter that maps the flag",
    },
    CodeInfo {
        code: "COMT-A001",
        severity: Severity::Error,
        title: "object requires a feature the deployment target lacks",
        explanation: "Folding the step's effective -march/-mcpu/-m<feature> flags through \
                      the architecture×feature matrix yields a feature set that is not a \
                      subset of what the declared deployment target guarantees. The built \
                      object would fault (SIGILL) or refuse to load on that fleet.",
        hint: "retarget the step at or below the declared level, or declare a target that \
               has the features",
    },
    CodeInfo {
        code: "COMT-A002",
        severity: Severity::Warning,
        title: "adapter chain silently downgrades a requested feature",
        explanation: "The recorded command explicitly requests a feature (a -m flag or the \
                      base of its -march level) that is no longer in the effective feature \
                      set after the configured adapter chain rewrites the step. The rebuild \
                      quietly produces slower code than the original build asked for.",
        hint: "check the adapter pipeline order, or declare a weaker feature in the build \
               script so record and rebuild agree",
    },
    CodeInfo {
        code: "COMT-A003",
        severity: Severity::Error,
        title: "conflicting feature flags within one invocation",
        explanation: "One command line both enables and disables the same feature (or two \
                      mutually exclusive features, like -m32/-m64): the effective \
                      configuration depends on flag order, and last-one-wins resolution \
                      makes the recorded intent ambiguous for every later rewrite.",
        hint: "drop one of the flags so the request is unambiguous",
    },
    CodeInfo {
        code: "COMT-A004",
        severity: Severity::Warning,
        title: "mixed-feature objects linked into one artifact",
        explanation: "A link step combines objects whose effective feature sets differ. The \
                      binary's hardware floor is the max (union) of its objects — the \
                      portable-looking objects do not make the artifact portable, and one \
                      hot file compiled with a wider vector set decides where the whole \
                      binary can run.",
        hint: "compile every object of one artifact with the same machine flags",
    },
    CodeInfo {
        code: "COMT-A005",
        severity: Severity::Error,
        title: "layer stack mixes objects audited for disjoint targets",
        explanation: "With several declared deployment targets, every object is compatible \
                      with at least one of them, but no single target is compatible with \
                      all objects: the image as a whole can run on none of the declared \
                      fleets, even though each finding taken alone looks benign.",
        hint: "split the image per target, or rebuild the outlier objects for a common \
               level",
    },
    CodeInfo {
        code: "COMT-F001",
        severity: Severity::Error,
        title: "blob content does not hash to its name",
        explanation: "A file under blobs/sha256/ no longer hashes to the digest in its file \
                      name: it was truncated by a crash mid-write (outside the store's \
                      tmp+rename commit protocol) or corrupted at rest. Every ref whose \
                      closure includes the blob serves wrong bytes.",
        hint: "run `comt fsck --repair` to delete the corrupt blob, then re-push or re-pull \
               the affected refs to restore the content",
    },
    CodeInfo {
        code: "COMT-F002",
        severity: Severity::Error,
        title: "ref whose manifest closure is missing or corrupt",
        explanation: "An index.json ref points at a manifest that is absent, unparseable, or \
                      references config/layer blobs that are missing or corrupt. Pulling the \
                      ref would fail partway through.",
        hint: "run `comt fsck --repair` to drop the broken ref from the index (valid blobs \
               are kept), then re-publish the image",
    },
    CodeInfo {
        code: "COMT-F003",
        severity: Severity::Warning,
        title: "orphan temp file from an interrupted commit",
        explanation: "A `.tmp.*` staging file was left in the blob directory by a process \
                      that died between writing and renaming. The committed data is \
                      unaffected — renames are atomic — but the orphan wastes space and \
                      makes `OciDir::load` refuse the layout until it is removed.",
        hint: "run `comt fsck --repair` to delete it; this loses nothing that was committed",
    },
    CodeInfo {
        code: "COMT-F004",
        severity: Severity::Error,
        title: "index.json missing or unparseable",
        explanation: "The layout has blobs but its index.json is absent or not valid JSON, \
                      so no ref can be resolved. Because the index is committed atomically, \
                      this indicates external damage rather than a crashed `comt` process.",
        hint: "run `comt fsck --repair` to write an empty index (blobs are preserved), then \
               re-tag or re-push the images to restore the refs",
    },
    CodeInfo {
        code: "COMT-F005",
        severity: Severity::Warning,
        title: "foreign file in the blob directory",
        explanation: "blobs/sha256/ contains a file whose name is not a 64-hex-digit digest \
                      and not a recognized staging file. The store never creates such names; \
                      something else wrote into the layout.",
        hint: "run `comt fsck --repair` to delete it, or move the file out by hand if it is \
               yours",
    },
    CodeInfo {
        code: "COMT-F006",
        severity: Severity::Warning,
        title: "oci-layout version marker missing or invalid",
        explanation: "The `oci-layout` marker file that identifies the directory as an OCI \
                      image layout is missing or does not carry an imageLayoutVersion. \
                      External tools may refuse the directory.",
        hint: "run `comt fsck --repair` to rewrite the standard marker",
    },
    CodeInfo {
        code: "COMT-F007",
        severity: Severity::Error,
        title: "chunkmap disagrees with its stored layer",
        explanation: "A chunkmap blob recorded for a layer no longer describes the stored \
                      layer bytes: its offsets or per-chunk digests disagree, it is \
                      unparseable, or the layer it names is gone. Delta pulls that consult \
                      it will fail their per-chunk digest verification and fall back (or \
                      abort), so every such pull wastes a round trip.",
        hint: "run `comt fsck --repair` to quarantine the chunkmap and drop the \
               association; re-push with --chunked to regenerate it. Full-blob pulls are \
               unaffected",
    },
];

/// Look up a code (exact match).
pub fn lookup(code: &str) -> Option<&'static CodeInfo> {
    REGISTRY.iter().find(|c| c.code == code)
}

/// Rustc-style `--explain` rendering for one code.
pub fn render_explain(code: &str) -> Option<String> {
    let info = lookup(code)?;
    Some(format!(
        "{} ({}): {}\n\n{}\n\nhelp: {}\n",
        info.code, info.severity, info.title, info.explanation, info.hint
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_severity_matches_prefix() {
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.code, b.code, "duplicate code");
            }
            // F- and A-series severity is per-code (checked against the
            // fsck/audit tables below); E/W severity follows the prefix.
            if a.code.starts_with("COMT-F") || a.code.starts_with("COMT-A") {
                continue;
            }
            let expect = if a.code.starts_with("COMT-E") {
                Severity::Error
            } else {
                Severity::Warning
            };
            assert_eq!(a.severity, expect, "{}", a.code);
        }
    }

    #[test]
    fn fsck_codes_mirror_the_fsck_table() {
        // Every code `comt fsck` can emit must be explainable, with the
        // severity the fsck module declares.
        for (code, severity, _title) in comt_oci::fsck::FSCK_CODES {
            let info = lookup(code).unwrap_or_else(|| panic!("{code} not in REGISTRY"));
            let expect = match *severity {
                "error" => Severity::Error,
                "warning" => Severity::Warning,
                other => panic!("unknown fsck severity {other}"),
            };
            assert_eq!(info.severity, expect, "{code}");
        }
    }

    #[test]
    fn audit_codes_mirror_the_audit_table() {
        for (code, severity) in crate::features::AUDIT_CODES {
            let info = lookup(code).unwrap_or_else(|| panic!("{code} not in REGISTRY"));
            let expect = match *severity {
                "error" => Severity::Error,
                "warning" => Severity::Warning,
                other => panic!("unknown audit severity {other}"),
            };
            assert_eq!(info.severity, expect, "{code}");
        }
    }

    #[test]
    fn every_emitted_code_is_registered_and_explainable() {
        // The registry-consistency contract: each pass declares the codes
        // it can emit; every one must be registered with non-empty explain
        // text, and no registered code may be orphaned (emitted by no
        // pass). F-codes come from the fsck table in comt-oci.
        let mut emitted: Vec<&str> = Vec::new();
        emitted.extend(crate::hazards::EMITTED);
        emitted.extend(crate::lints::EMITTED);
        emitted.extend(crate::layers::EMITTED);
        emitted.extend(crate::chain::EMITTED);
        emitted.extend(crate::features::AUDIT_CODES.iter().map(|(c, _)| *c));
        emitted.extend(comt_oci::fsck::FSCK_CODES.iter().map(|(c, _, _)| *c));

        for code in &emitted {
            let info = lookup(code).unwrap_or_else(|| panic!("{code} emitted but unregistered"));
            assert!(!info.title.is_empty(), "{code} has an empty title");
            assert!(!info.explanation.is_empty(), "{code} has an empty explanation");
            assert!(!info.hint.is_empty(), "{code} has an empty hint");
            let text = render_explain(code).unwrap();
            assert!(text.contains(*code));
        }
        let mut sorted = emitted.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), emitted.len(), "a code is declared twice");
        for info in REGISTRY {
            assert!(
                emitted.contains(&info.code),
                "{} is registered but emitted by no pass",
                info.code
            );
        }
    }

    #[test]
    fn explain_renders_registry_entry() {
        let text = render_explain("COMT-W001").expect("registered");
        assert!(text.contains("COMT-W001"));
        assert!(text.contains("march=native"));
        assert!(text.contains("help:"));
        assert!(render_explain("COMT-X999").is_none());
    }
}
