//! The front-end: raw build process → process models (user side).
//!
//! "The front-end works on the user side, records and parses the complete
//! build workflow to generate the three models" (§4.2). It consumes the
//! recorded [`BuildTrace`], the final build-container filesystem, and the
//! flattened `dist` image, producing [`ProcessModels`] plus the source
//! files the cache layer must embed.

use crate::minify::minify_source;
use crate::models::{BuildGraph, CompilationModel, ImageModel, NodeKind, ProcessModels};
use crate::{ComtError, Phase};
use bytes::Bytes;
use comt_buildsys::BuildTrace;
use comt_vfs::Vfs;
use std::collections::{BTreeMap, BTreeSet};

/// Everything the front-end looks at.
pub struct AnalysisInputs<'a> {
    /// Final state of the `build` container (sources + intermediates).
    pub build_fs: &'a Vfs,
    /// The recorded raw build process.
    pub trace: &'a BuildTrace,
    /// Flattened `dist` image.
    pub dist_fs: &'a Vfs,
    /// Flattened base image the dist stage started from.
    pub base_fs: &'a Vfs,
    /// ISA of the build.
    pub isa: &'a str,
}

/// Front-end result: the models and the files to embed in the cache layer
/// (`build-container path → minified content`).
pub struct Analysis {
    pub models: ProcessModels,
    pub cache_files: BTreeMap<String, Bytes>,
}

/// Whether a command is environment setup (package installation) rather
/// than a data transformation belonging in the build graph.
fn is_env_setup(argv: &[String]) -> bool {
    matches!(
        argv.first().map(String::as_str),
        Some("apt-get") | Some("apt")
    )
}

/// Run the front-end analysis with the default (source) cache mode.
pub fn analyze(inputs: &AnalysisInputs<'_>) -> Result<Analysis, ComtError> {
    analyze_mode(inputs, crate::models::CacheMode::Source)
}

/// Run the front-end analysis for a chosen cache mode. `CacheMode::Ir`
/// embeds the compiled IR objects of the needed sub-graph instead of the
/// sources (paper §4.6's alternative distribution level).
pub fn analyze_mode(
    inputs: &AnalysisInputs<'_>,
    mode: crate::models::CacheMode,
) -> Result<Analysis, ComtError> {
    // 1. Build graph from the trace.
    let mut graph = BuildGraph::new();
    for cmd in &inputs.trace.commands {
        if is_env_setup(&cmd.argv) {
            continue;
        }
        let model = CompilationModel::classify(&cmd.argv, &cmd.cwd, &cmd.env, &cmd.inputs);
        for output in &cmd.outputs {
            graph.record_production(output, &cmd.inputs, model.clone());
        }
    }

    // 2. Content index of build outputs (digest → build path), used to
    //    trace `COPY --from=build` files in the dist image back to their
    //    producing node.
    let mut build_outputs: BTreeMap<String, String> = BTreeMap::new();
    for cmd in &inputs.trace.commands {
        if is_env_setup(&cmd.argv) {
            continue;
        }
        for out in &cmd.outputs {
            if let Ok(content) = inputs.build_fs.read(out) {
                build_outputs.insert(
                    comt_digest::Digest::of(&content).to_oci_string(),
                    out.clone(),
                );
            }
        }
    }

    // 3. Package-manager introspection of the dist image and the base
    //    image, each through whichever database (dpkg, or rpm — the §4.6
    //    extension) its rootfs carries.
    let db_err = |e: comt_pkg::InstallError| ComtError::cache(e.to_string()).with_phase(Phase::Frontend);
    let dist_db = comt_pkg::detect(inputs.dist_fs);
    let owner: BTreeMap<String, String> = dist_db
        .owner_index(inputs.dist_fs)
        .map_err(db_err)?
        .into_iter()
        .collect();
    let base_packages: BTreeSet<String> = comt_pkg::detect(inputs.base_fs)
        .installed(inputs.base_fs)
        .map_err(db_err)?
        .into_iter()
        .map(|rec| rec.name)
        .collect();

    let mut image =
        ImageModel::classify(inputs.dist_fs, inputs.base_fs, &owner, &base_packages, &build_outputs);

    // 4. Runtime dependencies: packages in the dist image beyond the base.
    image.runtime_deps = dist_db
        .installed(inputs.dist_fs)
        .map_err(db_err)?
        .into_iter()
        .filter(|rec| !base_packages.contains(&rec.name))
        .map(|rec| (rec.name, rec.version))
        .collect();

    // 5. Collect cache sources: the leaves of the sub-graph that rebuilds
    //    the dist image's build files, excluding files the build
    //    environment's packages own (the system side provides its own
    //    toolchain headers/libraries).
    let build_env_owner: BTreeSet<String> = comt_pkg::detect(inputs.build_fs)
        .owner_index(inputs.build_fs)
        .map_err(db_err)?
        .into_iter()
        .map(|(path, _)| path)
        .collect();

    let targets: Vec<crate::models::NodeId> = image
        .build_files()
        .iter()
        .filter_map(|(_, build_path)| graph.by_path(build_path).map(|n| n.id))
        .collect();
    let mut cache_files: BTreeMap<String, Bytes> = BTreeMap::new();
    match mode {
        crate::models::CacheMode::Source => {
            for leaf in graph.required_leaves(&targets) {
                if build_env_owner.contains(&leaf.path) {
                    continue;
                }
                let Ok(content) = inputs.build_fs.read(&leaf.path) else {
                    continue;
                };
                let bytes = match leaf.kind {
                    NodeKind::Source | NodeKind::Header => {
                        let text = comt_vfs::text_lossy(&content);
                        Bytes::from(minify_source(&text).into_bytes())
                    }
                    _ => content,
                };
                cache_files.insert(leaf.path.clone(), bytes);
            }
        }
        crate::models::CacheMode::Ir => {
            // Embed the compiled IR objects of the needed sub-graph; no
            // sources leave the user side.
            let needed = graph.ancestors_of(&targets);
            for id in needed {
                let Some(node) = graph.node(id) else { continue };
                if node.kind == NodeKind::Object && node.cmd.is_some() {
                    if let Ok(content) = inputs.build_fs.read(&node.path) {
                        cache_files.insert(node.path.clone(), content);
                    }
                }
            }
            // The non-compile replay steps (link, archive, scripts) may
            // also consume leaf inputs that are neither source text nor a
            // compile output — linker scripts, version files, pre-built
            // blobs. Carry those too (still no Source/Header text: the
            // privacy property IR mode exists for), skipping anything the
            // build environment's packages own.
            for leaf in graph.required_leaves(&targets) {
                if matches!(leaf.kind, NodeKind::Source | NodeKind::Header)
                    || build_env_owner.contains(&leaf.path)
                    || cache_files.contains_key(&leaf.path)
                {
                    continue;
                }
                if let Ok(content) = inputs.build_fs.read(&leaf.path) {
                    cache_files.insert(leaf.path.clone(), content);
                }
            }
        }
    }

    Ok(Analysis {
        models: ProcessModels {
            image,
            graph,
            isa: inputs.isa.to_string(),
            cache_mode: mode,
            targets: vec![],
        },
        cache_files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::FileOrigin;
    use comt_buildsys::RawCommand;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Minimal end-to-end front-end fixture: one compile + one link,
    /// binary copied into the dist image.
    fn fixture() -> (Vfs, BuildTrace, Vfs, Vfs) {
        let mut build_fs = Vfs::new();
        build_fs
            .write_file_p(
                "/src/main.c",
                Bytes::from("#pragma comt provides(main)\n// a comment\nint main(){}\n"),
                0o644,
            )
            .unwrap();
        build_fs
            .write_file_p("/src/app.h", Bytes::from("// header\n"), 0o644)
            .unwrap();
        build_fs
            .write_file_p("/src/main.o", Bytes::from_static(b"COMT-OBJ 1\n"), 0o644)
            .unwrap();
        build_fs
            .write_file_p("/src/app", Bytes::from_static(b"COMT-BIN 1\nkind=exe\n"), 0o755)
            .unwrap();

        let trace = BuildTrace {
            commands: vec![
                RawCommand {
                    argv: argv("gcc -O2 -c main.c -o main.o"),
                    cwd: "/src".into(),
                    env: vec![],
                    inputs: vec!["/src/main.c".into(), "/src/app.h".into()],
                    outputs: vec!["/src/main.o".into()],
                },
                RawCommand {
                    argv: argv("gcc main.o -o app"),
                    cwd: "/src".into(),
                    env: vec![],
                    inputs: vec!["/src/main.o".into()],
                    outputs: vec!["/src/app".into()],
                },
            ],
        };

        let base_fs = Vfs::new();
        let mut dist_fs = Vfs::new();
        dist_fs
            .write_file_p("/app/run", Bytes::from_static(b"COMT-BIN 1\nkind=exe\n"), 0o755)
            .unwrap();
        (build_fs, trace, dist_fs, base_fs)
    }

    #[test]
    fn analysis_builds_models_and_cache() {
        let (build_fs, trace, dist_fs, base_fs) = fixture();
        let analysis = analyze(&AnalysisInputs {
            build_fs: &build_fs,
            trace: &trace,
            dist_fs: &dist_fs,
            base_fs: &base_fs,
            isa: "x86_64",
        })
        .unwrap();

        // Image model traced the dist binary back to /src/app.
        assert_eq!(
            analysis.models.image.files["/app/run"],
            FileOrigin::Build("/src/app".into())
        );

        // Graph has the full chain.
        let g = &analysis.models.graph;
        assert!(g.by_path("/src/main.c").is_some());
        assert!(g.by_path("/src/app").is_some());
        assert_eq!(g.products().count(), 2);

        // Cache embeds the minified source + header.
        assert!(analysis.cache_files.contains_key("/src/main.c"));
        assert!(analysis.cache_files.contains_key("/src/app.h"));
        let cached = String::from_utf8_lossy(&analysis.cache_files["/src/main.c"]).into_owned();
        assert!(cached.contains("#pragma comt provides(main)"));
        assert!(!cached.contains("a comment"));
    }

    #[test]
    fn package_owned_leaves_not_cached() {
        let (mut build_fs, mut trace, dist_fs, base_fs) = fixture();
        // A system header owned by a package in the build env.
        build_fs
            .write_file_p("/usr/include/stdio.h", Bytes::from_static(b"//h"), 0o644)
            .unwrap();
        comt_pkg::install_packages(
            &mut build_fs,
            &[comt_pkg::Package::new("libc6-dev", "2.39", "amd64").with_file(
                comt_pkg::PackageFile::new("/usr/include/stdio.h", Bytes::from_static(b"//h"), 0o644),
            )],
        )
        .unwrap();
        trace.commands[0].inputs.push("/usr/include/stdio.h".into());

        let analysis = analyze(&AnalysisInputs {
            build_fs: &build_fs,
            trace: &trace,
            dist_fs: &dist_fs,
            base_fs: &base_fs,
            isa: "x86_64",
        })
        .unwrap();
        assert!(!analysis.cache_files.contains_key("/usr/include/stdio.h"));
        assert!(analysis.cache_files.contains_key("/src/main.c"));
    }

    #[test]
    fn apt_commands_stay_out_of_graph() {
        let (build_fs, mut trace, dist_fs, base_fs) = fixture();
        trace.commands.insert(
            0,
            RawCommand {
                argv: argv("apt-get install -y libopenblas0"),
                cwd: "/".into(),
                env: vec![],
                inputs: vec![],
                outputs: vec!["/usr/lib/libopenblas.so.0".into()],
            },
        );
        let analysis = analyze(&AnalysisInputs {
            build_fs: &build_fs,
            trace: &trace,
            dist_fs: &dist_fs,
            base_fs: &base_fs,
            isa: "x86_64",
        })
        .unwrap();
        assert!(analysis
            .models
            .graph
            .by_path("/usr/lib/libopenblas.so.0")
            .is_none());
    }

    #[test]
    fn rpm_based_image_classified() {
        // The §4.6 extension: an RPM-based dist image gets the same
        // five-way classification through the rpm database.
        let (build_fs, trace, mut dist_fs, base_fs) = fixture();
        use comt_pkg::PackageDb;
        comt_pkg::Rpm.install(
            &mut dist_fs,
            &[comt_pkg::Package::new("openblas", "0.3.26-2.el9", "amd64").with_file(
                comt_pkg::PackageFile::new(
                    "/usr/lib64/libopenblas.so.0",
                    Bytes::from_static(b"BLAS"),
                    0o644,
                ),
            )],
        )
        .unwrap();
        let analysis = analyze(&AnalysisInputs {
            build_fs: &build_fs,
            trace: &trace,
            dist_fs: &dist_fs,
            base_fs: &base_fs,
            isa: "x86_64",
        })
        .unwrap();
        assert_eq!(
            analysis.models.image.files["/usr/lib64/libopenblas.so.0"],
            FileOrigin::Package("openblas".into())
        );
        assert_eq!(
            analysis.models.image.runtime_deps,
            vec![("openblas".to_string(), "0.3.26-2.el9".to_string())]
        );
        // The rpm database is the redirect container's to regenerate:
        // carrying the generic image's copy would shadow its installs.
        assert_eq!(
            analysis.models.image.files["/var/lib/rpm/Packages"],
            FileOrigin::BaseImage
        );
        assert!(!analysis
            .models
            .image
            .carried_files()
            .contains(&"/var/lib/rpm/Packages"));
    }

    #[test]
    fn runtime_deps_exclude_base_packages() {
        let (build_fs, trace, mut dist_fs, mut base_fs) = fixture();
        comt_pkg::install_packages(
            &mut base_fs,
            &[comt_pkg::Package::new("libc6", "2.39", "amd64").essential()],
        )
        .unwrap();
        comt_pkg::install_packages(
            &mut dist_fs,
            &[
                comt_pkg::Package::new("libc6", "2.39", "amd64").essential(),
                comt_pkg::Package::new("libopenblas0", "0.3.26", "amd64"),
            ],
        )
        .unwrap();
        let analysis = analyze(&AnalysisInputs {
            build_fs: &build_fs,
            trace: &trace,
            dist_fs: &dist_fs,
            base_fs: &base_fs,
            isa: "x86_64",
        })
        .unwrap();
        assert_eq!(
            analysis.models.image.runtime_deps,
            vec![("libopenblas0".to_string(), "0.3.26".to_string())]
        );
    }
}
