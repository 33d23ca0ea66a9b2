//! `comt` — a command-line front door to the coMtainer toolset, operating
//! on on-disk OCI image layout directories (the `xxx.dist.oci` directories
//! of the paper's workflow).
//!
//! ```text
//! comt refs        <layout-dir>                     list image refs
//! comt inspect     <layout-dir> <ref>               image + model summary
//! comt check       <layout-dir> [ref] [--isa x86_64] [--lto] [--deny-warnings] [--format json]
//! comt check       --explain <CODE>                 describe a diagnostic code
//! comt audit       <layout-dir> [ref] [--target ARCH]... [--lto] [--format json]
//! comt rebuild     <layout-dir> <ext-ref>  [--isa x86_64] [--lto] [--parallel] [--bolt] [--stats] [--check]
//! comt retarget    <layout-dir> <ext-ref>  --target ARCH [--target ARCH]... [--isa x86_64] [--lto] [--parallel] [--bolt] [--warm] [--stats]
//! comt redirect    <layout-dir> <coMre-ref> [--isa x86_64]
//! comt adapt       <layout-dir> <ext-ref>  [--isa x86_64] [--lto] [--stats]
//! comt cross-check <layout-dir> <ext-ref>  <target-isa>
//! comt serve       <layout-dir> [--addr HOST:PORT] [--threads N] [--cache-bytes SIZE] [--max-conns N] [--client-rate BYTES/S]
//! comt buildd      <layout-dir> [--addr HOST:PORT] [--workers N] [--quota N]
//! comt submit      <ext-ref> --remote HOST:PORT --tenant NAME [--isa ISA] [--lto] [--parallel] [--priority N] [--wait] [--stats]
//! comt jobs        --remote HOST:PORT [--tenant NAME] [--cancel ID]
//! comt push        <layout-dir> <ref> --remote HOST:PORT [--chunked] [--stats]
//! comt pull        <layout-dir> <ref> --remote HOST:PORT [--full] [--stats]
//! comt gc          <layout-dir> [--apply] [--format json]
//! comt fsck        <layout-dir> [--repair] [--format json]
//! ```
//!
//! The system side (`--isa`) is synthesized with
//! [`comtainer::SystemSide::native`]; payloads use the test scale. The
//! static verifier (`comt check`, `comt rebuild --check`) needs no system
//! rootfs and configures itself from the ISA alone.

use comtainer::crossisa::analyze_cross;
use comtainer::{
    comtainer_rebuild, comtainer_rebuild_with_report, comtainer_redirect, comtainer_retarget,
    load_cache, ArtifactCache, BuildService, ComtError, JobSpec, LtoAdapter,
    NativeToolchainAdapter, Phase, RebuildOptions, ServiceOptions, SystemAdapter, SystemSide,
};
use comt_dist::{
    serve, serve_buildd, split_ref, BuilddClient, DistClient, DistError, HttpOptions,
    JobStatusWire, PullOptions, ServerOptions,
};
use comt_digest::Digest;
use comt_oci::layout::OciDir;
use comt_oci::spec::{Descriptor, MediaType};
use comt_oci::DiskRegistry;
use comt_toolchain::Toolchain;
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  comt refs <layout-dir>\n  comt inspect <layout-dir> <ref>\n  comt check <layout-dir> [ref] [--isa ISA] [--lto] [--deny-warnings] [--format json]\n  comt check --explain <CODE>\n  comt audit <layout-dir> [ref] [--target ARCH]... [--lto] [--format json]\n  comt rebuild <layout-dir> <ext-ref> [--isa ISA] [--lto] [--parallel] [--bolt] [--stats] [--check]\n  comt retarget <layout-dir> <ext-ref> --target ARCH [--target ARCH]... [--isa ISA] [--lto] [--parallel] [--bolt] [--warm] [--stats]\n  comt redirect <layout-dir> <coMre-ref> [--isa ISA]\n  comt adapt <layout-dir> <ext-ref> [--isa ISA] [--lto] [--stats]\n  comt cross-check <layout-dir> <ext-ref> <target-isa>\n  comt serve <layout-dir> [--addr HOST:PORT] [--threads N] [--cache-bytes SIZE] [--max-conns N] [--client-rate BYTES/S]\n  comt buildd <layout-dir> [--addr HOST:PORT] [--workers N] [--quota N]\n  comt submit <ext-ref> --remote HOST:PORT --tenant NAME [--isa ISA] [--lto] [--parallel] [--target ARCH]... [--priority N] [--wait] [--stats]\n  comt jobs --remote HOST:PORT [--tenant NAME] [--cancel ID]\n  comt push <layout-dir> <ref> --remote HOST:PORT [--chunked] [--stats]\n  comt pull <layout-dir> <ref> --remote HOST:PORT [--full] [--stats]\n  comt gc <layout-dir> [--apply] [--format json]\n  comt fsck <layout-dir> [--repair] [--format json]"
    );
    ExitCode::from(2)
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt_value(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Every value of a repeatable option (`--target x86-64-v2 --target armv8.2-a`).
fn opt_values(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .cloned()
        .collect()
}

fn load_layout(dir: &str) -> Result<OciDir, String> {
    OciDir::load(Path::new(dir)).map_err(|e| format!("cannot load layout {dir}: {e}"))
}

fn save_layout(oci: &OciDir, dir: &str) -> Result<(), String> {
    oci.save(Path::new(dir))
        .map_err(|e| format!("cannot save layout {dir}: {e}"))
}

fn system_side(args: &[String]) -> Result<SystemSide, String> {
    let isa = opt_value(args, "--isa", "x86_64");
    let mut side = SystemSide::native(&isa, comt_pkg::catalog::MINI_SCALE)
        .map_err(|e| format!("system side: {e}"))?;
    if flag(args, "--lto") {
        side = side.with_adapter(Box::new(LtoAdapter::whole_graph()));
    }
    Ok(side)
}

/// The verifier's adapter pipeline: what [`system_side`] would use, minus
/// the rootfs work the static checks never need.
fn check_adapters(args: &[String]) -> Vec<Box<dyn SystemAdapter>> {
    let mut adapters: Vec<Box<dyn SystemAdapter>> = vec![Box::new(NativeToolchainAdapter)];
    if flag(args, "--lto") {
        adapters.push(Box::new(LtoAdapter::whole_graph()));
    }
    adapters
}

fn cmd_refs(dir: &str) -> Result<(), String> {
    let oci = load_layout(dir)?;
    for r in oci.index.ref_names() {
        let image = oci.load_image(&r).map_err(|e| e.to_string())?;
        println!(
            "{r}  {}  {} layers  {:.2} MiB",
            image.manifest_digest.short(),
            image.manifest.layers.len(),
            image.layers_size() as f64 / (1024.0 * 1024.0)
        );
    }
    Ok(())
}

fn cmd_inspect(dir: &str, r: &str) -> Result<(), String> {
    let oci = load_layout(dir)?;
    let image = oci.load_image(r).map_err(|e| e.to_string())?;
    println!("ref          : {r}");
    println!("manifest     : {}", image.manifest_digest);
    println!("architecture : {}", image.architecture());
    println!("layers       : {}", image.manifest.layers.len());
    println!(
        "size         : {:.2} MiB",
        image.layers_size() as f64 / (1024.0 * 1024.0)
    );
    if !image.config.config.entrypoint.is_empty() {
        println!("entrypoint   : {:?}", image.config.config.entrypoint);
    }
    match load_cache(&oci, r) {
        Ok(cache) => {
            println!("\ncoMtainer extended image:");
            println!("  cache mode  : {:?}", cache.models.cache_mode);
            println!("  trace       : {} commands", cache.trace.commands.len());
            println!(
                "  build graph : {} nodes ({} products)",
                cache.models.graph.len(),
                cache.models.graph.products().count()
            );
            println!("  cached files: {}", cache.sources.len());
            println!("  file origins:");
            for (class, count) in cache.models.image.origin_counts() {
                println!("    {class:8} {count}");
            }
            println!("  runtime deps:");
            for (name, version) in &cache.models.image.runtime_deps {
                println!("    {name} {version}");
            }
        }
        Err(_) => println!("\n(not a coMtainer extended image: no cache layer)"),
    }
    Ok(())
}

/// `comt check`: run the static verifier over one ref, or over every
/// extended image in the layout when no ref is given.
fn cmd_check(dir: &str, r: Option<&str>, args: &[String]) -> Result<(), String> {
    let oci = load_layout(dir)?;
    let isa = opt_value(args, "--isa", "x86_64");
    let toolchain = Toolchain::vendor_for(&isa);
    let adapters = check_adapters(args);
    let json = opt_value(args, "--format", "human") == "json";

    let refs: Vec<String> = match r {
        Some(r) => vec![r.to_string()],
        None => oci
            .index
            .ref_names()
            .into_iter()
            .filter(|name| load_cache(&oci, name).is_ok())
            .collect(),
    };
    if refs.is_empty() {
        return Err(format!("{dir}: no coMtainer extended images to check"));
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut reports = Vec::new();
    for name in &refs {
        let report = comt_analyze::check_extended_image(&oci, name, &isa, &toolchain, &adapters)
            .map_err(|e| format!("check {name}: {e}"))?;
        errors += report.error_count();
        warnings += report.warning_count();
        reports.push(report);
    }

    if json {
        // One JSON array over all checked refs, machine-consumable.
        let bodies: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        println!("[{}]", bodies.join(",\n"));
    } else {
        for report in &reports {
            print!("{}", report.render_human());
        }
    }
    check_verdict(errors, warnings, flag(args, "--deny-warnings"))
}

/// Map finding counts to `comt check`'s exit verdict: errors always fail,
/// warnings fail only under `--deny-warnings`.
fn check_verdict(errors: usize, warnings: usize, deny_warnings: bool) -> Result<(), String> {
    if errors > 0 {
        return Err(format!("{errors} error-severity finding(s)"));
    }
    if deny_warnings && warnings > 0 {
        return Err(format!(
            "{warnings} warning(s) with --deny-warnings in force"
        ));
    }
    Ok(())
}

/// `comt audit`: ISA-compatibility verdict of one ref (or every extended
/// image) against the declared deployment targets. Pure static analysis —
/// nothing is compiled or executed.
fn cmd_audit(dir: &str, r: Option<&str>, args: &[String]) -> Result<(), String> {
    let oci = load_layout(dir)?;
    let targets = opt_values(args, "--target");
    let adapters = check_adapters(args);
    let json = opt_value(args, "--format", "human") == "json";

    let refs: Vec<String> = match r {
        Some(r) => vec![r.to_string()],
        None => oci
            .index
            .ref_names()
            .into_iter()
            .filter(|name| load_cache(&oci, name).is_ok())
            .collect(),
    };
    if refs.is_empty() {
        return Err(format!("{dir}: no coMtainer extended images to audit"));
    }

    let mut errors = 0usize;
    let mut reports = Vec::new();
    for name in &refs {
        // The audit folds flags under the image's own recorded ISA; the
        // vendor toolchain drives the adapter-chain replay per target.
        let cache = load_cache(&oci, name).map_err(|e| format!("audit {name}: {e}"))?;
        let toolchain = Toolchain::vendor_for(&cache.models.isa);
        let report =
            comt_analyze::audit_extended_image(&oci, name, &targets, &toolchain, &adapters)
                .map_err(|e| format!("audit {name}: {e}"))?;
        if report.has_errors() {
            errors += 1;
        }
        reports.push(report);
    }

    if json {
        let bodies: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        println!("[{}]", bodies.join(",\n"));
    } else {
        for report in &reports {
            print!("{}", report.render_human());
        }
    }
    if errors > 0 {
        return Err(format!("{errors} image(s) failed the audit"));
    }
    Ok(())
}

fn cmd_explain(code: &str) -> Result<(), String> {
    match comt_analyze::render_explain(code) {
        Some(text) => {
            print!("{text}");
            Ok(())
        }
        None => Err(format!(
            "unknown diagnostic code {code} (codes look like COMT-W001)"
        )),
    }
}

fn cmd_rebuild(dir: &str, r: &str, args: &[String]) -> Result<(), String> {
    let mut oci = load_layout(dir)?;
    let side = system_side(args)?;
    let opts = RebuildOptions {
        parallel: flag(args, "--parallel"),
        post_link_layout: flag(args, "--bolt"),
        ..Default::default()
    };
    let new_ref = if flag(args, "--check") {
        let (new_ref, report) = comt_analyze::rebuild_checked(&mut oci, r, &side, &opts)
            .map_err(|e| format!("rebuild: {e}"))?;
        if report.warning_count() > 0 {
            eprint!("{}", report.render_human());
        }
        new_ref
    } else if flag(args, "--stats") {
        let (new_ref, mut report) = comtainer_rebuild_with_report(&mut oci, r, &side, &opts)
            .map_err(|e| format!("rebuild: {e}"))?;
        // Data-plane events (layer codec, blob verification) land in the
        // global recorder; merge them so --stats shows the whole pipeline.
        report.absorb(&comt_observe::global().report());
        print_stats(report);
        new_ref
    } else {
        comtainer_rebuild(&mut oci, r, &side, &opts).map_err(|e| format!("rebuild: {e}"))?
    };
    save_layout(&oci, dir)?;
    println!("rebuilt: {new_ref}");
    Ok(())
}

/// `comt retarget`: one extended image rebuilt for N microarchitectures
/// concurrently over a shared artifact cache, each registered as
/// `<base>+coMre@<target>`. The ISA-compatibility audit gates admission:
/// an unsatisfiable target set aborts before any compile executes.
/// `--warm` fans out twice over one shared artifact cache and reports
/// the second run, proving the zero-execution contract in `--stats`.
fn cmd_retarget(dir: &str, r: &str, args: &[String]) -> Result<(), String> {
    let mut oci = load_layout(dir)?;
    let side = system_side(args)?;
    let targets = opt_values(args, "--target");
    if targets.is_empty() {
        return Err("retarget needs --target ARCH (repeatable); try `comt retarget <dir> <ref> --target x86-64-v3`".into());
    }
    let opts = RebuildOptions {
        parallel: flag(args, "--parallel"),
        post_link_layout: flag(args, "--bolt"),
        // Keep the cache across `--warm`'s second pass.
        artifact_cache: Some(ArtifactCache::new()),
        ..Default::default()
    };
    let (outcome, audit) = comt_analyze::retarget_audited(&mut oci, r, &side, &targets, &opts)
        .map_err(|e| format!("retarget: {e}"))?;
    if audit.report.warning_count() > 0 {
        eprint!("{}", audit.render_human());
    }
    // `--warm`: fan out a second time over the now-populated artifact
    // cache and report *that* run, so the zero-execution contract
    // (`retarget.exec.compile.<target>  0`) is visible in `--stats`.
    let outcome = if flag(args, "--warm") {
        comtainer_retarget(&mut oci, r, &side, &targets, &opts)
            .map_err(|e| format!("retarget (warm): {e}"))?
    } else {
        outcome
    };
    save_layout(&oci, dir)?;
    if flag(args, "--stats") {
        let mut report = outcome.report;
        report.absorb(&comt_observe::global().report());
        print_stats(report);
    }
    for (target, new_ref) in &outcome.images {
        println!("retargeted {target}: {new_ref}");
    }
    Ok(())
}

/// `--stats` for a command that ran in this process: the report, then the
/// SHA-256 kernel behind its verify/codec spans — the first thing to
/// compare when two sites hash at different rates. (`comt submit --stats`
/// prints the daemon's report; the daemon names its own kernel at start-up.)
fn print_stats(report: comt_observe::Report) {
    print!("{}", comt_dist::with_process_counters(report));
    println!("digest backend: {}", comt_digest::backend());
}

fn cmd_redirect(dir: &str, r: &str, args: &[String]) -> Result<(), String> {
    let mut oci = load_layout(dir)?;
    let side = system_side(args)?;
    let new_ref = comtainer_redirect(&mut oci, r, &side).map_err(|e| format!("redirect: {e}"))?;
    save_layout(&oci, dir)?;
    println!("redirected: {new_ref}");
    Ok(())
}

fn cmd_adapt(dir: &str, r: &str, args: &[String]) -> Result<(), String> {
    let mut oci = load_layout(dir)?;
    let side = system_side(args)?;
    let rebuilt = if flag(args, "--stats") {
        let (rebuilt, mut report) =
            comtainer_rebuild_with_report(&mut oci, r, &side, &RebuildOptions::default())
                .map_err(|e| format!("rebuild: {e}"))?;
        report.absorb(&comt_observe::global().report());
        print_stats(report);
        rebuilt
    } else {
        comtainer_rebuild(&mut oci, r, &side, &RebuildOptions::default())
            .map_err(|e| format!("rebuild: {e}"))?
    };
    let opt =
        comtainer_redirect(&mut oci, &rebuilt, &side).map_err(|e| format!("redirect: {e}"))?;
    save_layout(&oci, dir)?;
    println!("adapted: {opt}");
    Ok(())
}

/// Render an error with its full `source()` chain, one `caused by:` line
/// per link, so transport failures show the socket-level reason.
fn render_error_chain(e: &dyn std::error::Error) -> String {
    let mut out = e.to_string();
    let mut src = e.source();
    while let Some(s) = src {
        out.push_str("\n  caused by: ");
        out.push_str(&s.to_string());
        src = s.source();
    }
    out
}

/// Wrap a transport failure into the pipeline's error convention
/// (oci class, distribute phase, cause chained) and render it.
fn dist_failure(op: &str, r: &str, e: DistError) -> String {
    let err = ComtError::oci(format!("{op} of {r} failed"))
        .with_phase(Phase::Distribute)
        .with_artifact(r.to_string())
        .with_source(e);
    render_error_chain(&err)
}

fn remote_addr(args: &[String]) -> Result<String, String> {
    let addr = opt_value(args, "--remote", "");
    if addr.is_empty() {
        return Err("missing --remote HOST:PORT".into());
    }
    Ok(addr)
}

fn cmd_serve(dir: &str, args: &[String]) -> Result<(), String> {
    // Disk-backed daemon: holds the layout lock for its lifetime and
    // serves lazily — blobs stream from disk on demand (digest-verified),
    // uploads commit durably before their tag becomes visible. Nothing is
    // slurped into memory at startup, and a `kill -9` at any instant
    // loses at most the in-flight publish.
    let reg =
        DiskRegistry::open(Path::new(dir)).map_err(|e| format!("open layout {dir}: {e}"))?;
    let nrefs = reg.index.ref_names().len();
    let nblobs = reg
        .blob_count()
        .map_err(|e| format!("scan layout {dir}: {e}"))?;
    let addr = opt_value(args, "--addr", "127.0.0.1:7070");
    let mut opts = ServerOptions::default();
    if let Ok(n) = opt_value(args, "--threads", "").parse::<usize>() {
        opts.http.threads = n.max(1);
    }
    // Sizes accept a K/M/G binary suffix: `--cache-bytes 256M`.
    let parse_size = |s: &str| -> Option<u64> {
        let s = s.trim();
        let (num, shift) = match s.as_bytes().last()? {
            b'K' | b'k' => (&s[..s.len() - 1], 10),
            b'M' | b'm' => (&s[..s.len() - 1], 20),
            b'G' | b'g' => (&s[..s.len() - 1], 30),
            _ => (s, 0),
        };
        num.parse::<u64>().ok().map(|n| n << shift)
    };
    let cache_arg = opt_value(args, "--cache-bytes", "");
    if !cache_arg.is_empty() {
        opts.cache_bytes = parse_size(&cache_arg)
            .ok_or_else(|| format!("--cache-bytes: bad size {cache_arg:?}"))?;
    }
    if let Ok(n) = opt_value(args, "--max-conns", "").parse::<usize>() {
        opts.http.max_conns = n.max(1);
    }
    let rate_arg = opt_value(args, "--client-rate", "");
    if !rate_arg.is_empty() {
        opts.http.client_rate = parse_size(&rate_arg)
            .ok_or_else(|| format!("--client-rate: bad rate {rate_arg:?}"))?;
    }
    let server = serve(reg, addr.as_str(), opts).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "serving {dir} on {} ({nrefs} refs, {nblobs} blobs, sha256 {})",
        server.addr(),
        comt_digest::backend()
    );
    // Serve until killed; the daemon threads own the registry and the
    // layout lock dies with the process.
    loop {
        std::thread::park();
    }
}

fn cmd_buildd(dir: &str, args: &[String]) -> Result<(), String> {
    // Multi-tenant rebuild daemon: one shared engine and artifact cache
    // behind the wire. Results persist back into the layout crash-safely
    // after every job, so a restarted daemon picks up where it left off.
    let oci = load_layout(dir)?;
    let mut opts = ServiceOptions {
        persist: Some(Path::new(dir).to_path_buf()),
        ..Default::default()
    };
    if let Ok(n) = opt_value(args, "--workers", "").parse::<usize>() {
        opts.workers = n.max(1);
    }
    if let Ok(n) = opt_value(args, "--quota", "").parse::<usize>() {
        opts.default_quota = n;
    }
    let nrefs = oci.index.ref_names().len();
    let addr = opt_value(args, "--addr", "127.0.0.1:7071");
    let svc = BuildService::start(oci, opts.clone());
    let server = serve_buildd(svc, addr.as_str(), HttpOptions::default())
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "buildd serving {dir} on {} ({nrefs} refs, {} workers, quota {}/tenant, sha256 {})",
        server.addr(),
        opts.workers,
        opts.default_quota,
        comt_digest::backend()
    );
    loop {
        std::thread::park();
    }
}

/// Wrap a buildd transport failure into the pipeline's error convention.
fn buildd_failure(op: &str, e: DistError) -> String {
    let err = ComtError::oci(format!("{op} failed"))
        .with_phase(Phase::Distribute)
        .with_source(e);
    render_error_chain(&err)
}

fn render_job(s: &JobStatusWire) -> String {
    let mut line = format!("job {} [{}] {} state={}", s.id, s.tenant, s.extended_ref, s.state);
    if let Some(r) = &s.result_ref {
        line.push_str(&format!(" result={r}"));
    }
    if let Some(e) = &s.error {
        line.push_str(&format!(" error={e}"));
    }
    line
}

fn cmd_submit(r: &str, args: &[String]) -> Result<(), String> {
    let addr = remote_addr(args)?;
    let tenant = opt_value(args, "--tenant", "");
    if tenant.is_empty() {
        return Err("missing --tenant NAME".into());
    }
    let mut spec = JobSpec::new(&tenant, r);
    spec.isa = opt_value(args, "--isa", "x86_64");
    spec.lto = flag(args, "--lto");
    spec.parallel = flag(args, "--parallel");
    spec.targets = opt_values(args, "--target");
    let prio = opt_value(args, "--priority", "0");
    spec.priority = prio
        .parse::<u8>()
        .map_err(|_| format!("bad --priority {prio}: expected 0-255"))?;

    let client = BuilddClient::new(addr.clone());
    let status = client
        .submit(&spec)
        .map_err(|e| buildd_failure(&format!("submit of {r}"), e))?;
    let id = status.id;
    println!("submitted to {addr}: {}", render_job(&status));
    if !flag(args, "--wait") && !flag(args, "--stats") {
        return Ok(());
    }

    // Follow the job to completion, relaying its log lines as they land.
    // `--stats` additionally fetches the per-job observe report the daemon
    // captured — the same output a local `comt rebuild --stats` prints.
    let mut at_line_start = true;
    let fin = client
        .stream_logs(id, |chunk| {
            for line in chunk.split_inclusive('\n') {
                if at_line_start {
                    print!("job {id} | ");
                }
                print!("{line}");
                at_line_start = line.ends_with('\n');
            }
        })
        .map_err(|e| buildd_failure(&format!("wait for job {id}"), e))?;
    if !at_line_start {
        println!();
    }
    println!("{}", render_job(&fin));
    if flag(args, "--stats") {
        match client
            .report(id)
            .map_err(|e| buildd_failure(&format!("report for job {id}"), e))?
        {
            Some(report) => print!("{}", report.render()),
            None => println!("(no report: job did not complete a rebuild)"),
        }
    }
    if fin.state == "done" {
        Ok(())
    } else {
        Err(format!(
            "job {id} {}: {}",
            fin.state,
            fin.error.as_deref().unwrap_or("(no error detail)")
        ))
    }
}

fn cmd_jobs(args: &[String]) -> Result<(), String> {
    let addr = remote_addr(args)?;
    let client = BuilddClient::new(addr);
    let cancel = opt_value(args, "--cancel", "");
    if !cancel.is_empty() {
        let id = cancel
            .parse::<u64>()
            .map_err(|_| format!("bad --cancel {cancel}: expected a job id"))?;
        let status = client
            .cancel(id)
            .map_err(|e| buildd_failure(&format!("cancel of job {id}"), e))?;
        println!("{}", render_job(&status));
        return Ok(());
    }
    let tenant = opt_value(args, "--tenant", "");
    let tenant = (!tenant.is_empty()).then_some(tenant);
    let jobs = client
        .list(tenant.as_deref())
        .map_err(|e| buildd_failure("job listing", e))?;
    if jobs.is_empty() {
        println!("no jobs");
        return Ok(());
    }
    println!(
        "{:>4}  {:12}  {:9}  {:4}  {:28}  RESULT",
        "ID", "TENANT", "STATE", "PRIO", "REF"
    );
    for j in &jobs {
        println!(
            "{:>4}  {:12}  {:9}  {:4}  {:28}  {}",
            j.id,
            j.tenant,
            j.state,
            j.priority,
            j.extended_ref,
            j.result_ref.as_deref().unwrap_or("-")
        );
    }
    Ok(())
}

fn cmd_push(dir: &str, r: &str, args: &[String]) -> Result<(), String> {
    let oci = load_layout(dir)?;
    let addr = remote_addr(args)?;
    let digest = oci.resolve(r).map_err(|e| e.to_string())?;
    let (name, reference) = split_ref(r);
    let client = DistClient::new(addr.clone());
    let chunked = flag(args, "--chunked");
    let stats = if chunked {
        client.push_image_chunked(
            name,
            reference,
            digest,
            &oci.blobs,
            comt_chunk::ChunkParams::default(),
        )
    } else {
        client.push_image(name, reference, digest, &oci.blobs)
    }
    .map_err(|e| dist_failure("push", r, e))?;
    println!(
        "pushed {r} to {addr}: {} blob(s) moved, {} deduped, {:.2} MiB{}",
        stats.blobs_moved,
        stats.blobs_skipped,
        stats.bytes_moved as f64 / (1024.0 * 1024.0),
        if chunked {
            format!(
                ", {} chunkmap(s) published",
                comt_observe::global().counter("dist.client.chunkmaps_pushed")
            )
        } else {
            String::new()
        }
    );
    if flag(args, "--stats") {
        print_stats(comt_observe::global().report());
    }
    Ok(())
}

fn cmd_pull(dir: &str, r: &str, args: &[String]) -> Result<(), String> {
    let addr = remote_addr(args)?;
    let mut oci = if Path::new(dir).exists() {
        load_layout(dir)?
    } else {
        OciDir::new()
    };
    let (name, reference) = split_ref(r);
    let client = DistClient::new(addr.clone());
    // Delta pull is the default; `--full` forces whole-blob transfers
    // (and is the escape hatch if a server's chunkmaps are suspect).
    let opts = PullOptions {
        delta: !flag(args, "--full"),
        ..PullOptions::default()
    };
    let (digest, stats) = client
        .pull_image_with(name, reference, &mut oci.blobs, &opts)
        .map_err(|e| dist_failure("pull", r, e))?;
    let size = oci.blobs.get(&digest).map(|b| b.len() as u64).unwrap_or(0);
    oci.index
        .set_ref(r, Descriptor::new(MediaType::ImageManifest, digest, size));
    save_layout(&oci, dir)?;
    println!(
        "pulled {r} from {addr}: {} blob(s) moved, {} already present, {:.2} MiB",
        stats.blobs_moved,
        stats.blobs_skipped,
        stats.bytes_moved as f64 / (1024.0 * 1024.0)
    );
    if stats.chunks_hit > 0 || stats.chunks_fetched > 0 {
        println!(
            "delta: {} chunk(s) reused locally, {} fetched, {:.2} MiB saved",
            stats.chunks_hit,
            stats.chunks_fetched,
            stats.delta_bytes_saved as f64 / (1024.0 * 1024.0)
        );
    }
    if flag(args, "--stats") {
        print_stats(comt_observe::global().report());
    }
    Ok(())
}

/// The `gc --format json` body: a machine-consumable sweep summary,
/// mirroring `fsck --format json`. `applied` carries what a sweep removed.
fn gc_json(
    dir: &str,
    dead: &[Digest],
    bytes: u64,
    apply: bool,
    applied: Option<(usize, u64)>,
) -> String {
    let int = |n: u64| Value::Int(i64::try_from(n).unwrap_or(i64::MAX));
    let unreachable = dead.iter().map(|d| Value::Str(d.to_string())).collect();
    let mut body = vec![
        ("layout".to_string(), Value::Str(dir.to_string())),
        ("unreachable".to_string(), Value::Array(unreachable)),
        ("reclaimable_bytes".to_string(), int(bytes)),
        ("applied".to_string(), Value::Bool(apply)),
    ];
    if let Some((n, reclaimed)) = applied {
        body.push(("removed".to_string(), int(n as u64)));
        body.push(("reclaimed_bytes".to_string(), int(reclaimed)));
    }
    serde_json::to_string(&Value::Object(body)).expect("a Value tree serializes")
}

fn cmd_gc(dir: &str, args: &[String]) -> Result<(), String> {
    if !Path::new(dir).exists() {
        return Err(format!("no such layout: {dir}"));
    }
    let json = opt_value(args, "--format", "human") == "json";
    // Disk-aware sweep under the layout lock: the closure walk reads only
    // manifest blobs, and dead blob *files* are actually deleted (the old
    // in-memory gc dropped them from a copy that was then re-saved whole).
    let mut reg =
        DiskRegistry::open(Path::new(dir)).map_err(|e| format!("open layout {dir}: {e}"))?;
    let (dead, bytes) = reg.gc_plan().map_err(|e| format!("gc {dir}: {e}"))?;
    let apply = flag(args, "--apply");
    let applied = if apply && !dead.is_empty() {
        Some(reg.gc_apply().map_err(|e| format!("gc {dir}: {e}"))?)
    } else {
        None
    };

    if json {
        println!("{}", gc_json(dir, &dead, bytes, apply, applied));
        return Ok(());
    }

    let mib = bytes as f64 / (1024.0 * 1024.0);
    if dead.is_empty() {
        let total = reg
            .blob_count()
            .map_err(|e| format!("scan layout {dir}: {e}"))?;
        println!("{dir}: nothing to collect ({total} blobs, all reachable)");
        return Ok(());
    }
    for d in &dead {
        println!("unreachable {d}");
    }
    match applied {
        Some((n, reclaimed)) => println!(
            "removed {n} blob(s), reclaimed {:.2} MiB",
            reclaimed as f64 / (1024.0 * 1024.0)
        ),
        None => println!(
            "{} unreachable blob(s), {mib:.2} MiB reclaimable (dry run; pass --apply to delete)",
            dead.len()
        ),
    }
    Ok(())
}

fn cmd_fsck(dir: &str, args: &[String]) -> Result<(), String> {
    let opts = comt_oci::FsckOptions {
        repair: flag(args, "--repair"),
    };
    let report =
        comt_oci::fsck(Path::new(dir), &opts).map_err(|e| format!("fsck {dir}: {e}"))?;
    if opt_value(args, "--format", "human") == "json" {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }
    let errors = report.unrepaired_errors();
    if errors > 0 {
        return Err(if opts.repair {
            format!("{errors} error(s) could not be repaired")
        } else {
            format!("{errors} error(s); run `comt fsck {dir} --repair` to recover")
        });
    }
    Ok(())
}

fn cmd_cross_check(dir: &str, r: &str, target_isa: &str) -> Result<(), String> {
    let oci = load_layout(dir)?;
    let cache = load_cache(&oci, r).map_err(|e| e.to_string())?;
    let report = analyze_cross(&cache, target_isa);
    if report.portable() {
        println!("portable to {target_isa}: yes, no modifications needed");
    } else if report.portable_with_script_edits() {
        println!("portable to {target_isa}: with build-script edits:");
        for b in &report.blockers {
            println!("  - {b:?}");
        }
    } else {
        println!("NOT portable to {target_isa}:");
        for b in &report.blockers {
            println!("  - {b:?}");
        }
        return Err("ISA-specific source content blocks the rebuild".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, dir] if cmd == "refs" => cmd_refs(dir),
        [cmd, dir, r, ..] if cmd == "inspect" => cmd_inspect(dir, r),
        [cmd, explain, code] if cmd == "check" && explain == "--explain" => cmd_explain(code),
        [cmd, dir, rest @ ..] if cmd == "check" => {
            // The ref is the first non-flag operand, if any.
            let r = rest
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .map(String::as_str)
                .next();
            cmd_check(dir, r, rest)
        }
        [cmd, dir, rest @ ..] if cmd == "audit" => {
            let r = rest
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .map(String::as_str)
                .next();
            cmd_audit(dir, r, rest)
        }
        [cmd, dir, r, rest @ ..] if cmd == "rebuild" => cmd_rebuild(dir, r, rest),
        [cmd, dir, r, rest @ ..] if cmd == "retarget" => cmd_retarget(dir, r, rest),
        [cmd, dir, r, rest @ ..] if cmd == "redirect" => cmd_redirect(dir, r, rest),
        [cmd, dir, r, rest @ ..] if cmd == "adapt" => cmd_adapt(dir, r, rest),
        [cmd, dir, r, isa] if cmd == "cross-check" => cmd_cross_check(dir, r, isa),
        [cmd, dir, rest @ ..] if cmd == "serve" => cmd_serve(dir, rest),
        [cmd, dir, rest @ ..] if cmd == "buildd" => cmd_buildd(dir, rest),
        [cmd, r, rest @ ..] if cmd == "submit" => cmd_submit(r, rest),
        [cmd, rest @ ..] if cmd == "jobs" => cmd_jobs(rest),
        [cmd, dir, r, rest @ ..] if cmd == "push" => cmd_push(dir, r, rest),
        [cmd, dir, r, rest @ ..] if cmd == "pull" => cmd_pull(dir, r, rest),
        [cmd, dir, rest @ ..] if cmd == "gc" => cmd_gc(dir, rest),
        [cmd, dir, rest @ ..] if cmd == "fsck" => cmd_fsck(dir, rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_failure_renders_full_cause_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer reset");
        let rendered = dist_failure("pull", "app.dist+coM", DistError::io("read response", io));
        assert!(rendered.contains("distribute"), "{rendered}");
        assert!(rendered.contains("pull of app.dist+coM failed"), "{rendered}");
        assert!(rendered.contains("caused by: read response"), "{rendered}");
        assert!(rendered.contains("caused by: peer reset"), "{rendered}");
    }

    #[test]
    fn gc_json_carries_any_layout_path_intact() {
        let dir = "a\"b\\c\n\u{1}.oci";
        let body = gc_json(dir, &[Digest::of(b"orphan")], 6, true, Some((1, 6)));
        let parsed = serde_json::parse_value(&body).unwrap();
        let obj = parsed.as_object().unwrap();
        assert_eq!(
            Value::field(obj, "layout"),
            Some(&Value::Str(dir.to_string()))
        );
        // The keys of an applied sweep, in order; a dry run stops at `applied`.
        assert!(body.ends_with(
            r#"],"reclaimable_bytes":6,"applied":true,"removed":1,"reclaimed_bytes":6}"#
        ));
        assert_eq!(
            gc_json("p.oci", &[], 0, false, None),
            r#"{"layout":"p.oci","unreachable":[],"reclaimable_bytes":0,"applied":false}"#
        );
    }

    #[test]
    fn render_job_shows_result_and_error() {
        let mut s = JobStatusWire {
            id: 7,
            tenant: "alice".into(),
            extended_ref: "app.dist+coM".into(),
            state: "done".into(),
            priority: 0,
            result_ref: Some("app.dist+coMre".into()),
            error: None,
            started_seq: Some(1),
        };
        let line = render_job(&s);
        assert!(line.contains("job 7 [alice]"), "{line}");
        assert!(line.contains("result=app.dist+coMre"), "{line}");
        s.state = "failed".into();
        s.result_ref = None;
        s.error = Some("boom".into());
        let line = render_job(&s);
        assert!(line.contains("error=boom"), "{line}");
    }

    #[test]
    fn check_verdict_denies_warnings_only_on_request() {
        assert!(check_verdict(0, 0, false).is_ok());
        assert!(check_verdict(0, 3, false).is_ok());
        assert!(check_verdict(1, 0, false).is_err());
        assert!(check_verdict(0, 3, true).is_err());
        assert!(check_verdict(0, 0, true).is_ok());
        let msg = check_verdict(0, 2, true).unwrap_err();
        assert!(msg.contains("--deny-warnings"), "{msg}");
    }

    #[test]
    fn opt_values_collects_every_occurrence() {
        let args: Vec<String> = ["--target", "x86-64-v2", "--lto", "--target", "armv8.2-a"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(opt_values(&args, "--target"), vec!["x86-64-v2", "armv8.2-a"]);
        assert!(opt_values(&args, "--isa").is_empty());
    }

    #[test]
    fn remote_addr_is_required() {
        let args = vec!["--stats".to_string()];
        assert!(remote_addr(&args).is_err());
        let args = vec!["--remote".to_string(), "127.0.0.1:7070".to_string()];
        assert_eq!(remote_addr(&args).unwrap(), "127.0.0.1:7070");
    }

    #[test]
    fn disk_registry_serves_saved_layout_refs() {
        // A layout written by `OciDir::save` must answer wire tag keys
        // (`name:latest`) when opened as the serving disk registry — and
        // the in-memory layout answers the same keys the same way.
        let dir = std::env::temp_dir().join(format!("comt-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut oci = OciDir::new();
        let image = comt_oci::ImageBuilder::from_scratch("x86_64")
            .with_layer_tar(bytes::Bytes::from_static(b"tarbits"), "test layer")
            .commit(&mut oci.blobs)
            .unwrap();
        oci.index.set_ref(
            "app.dist+coM",
            Descriptor::new(
                MediaType::ImageManifest,
                image.manifest_digest,
                oci.blobs.get(&image.manifest_digest).unwrap().len() as u64,
            ),
        );
        oci.save(&dir).unwrap();
        let reg = DiskRegistry::open(&dir).unwrap();
        let key = comt_dist::tag_key("app.dist+coM", "latest");
        assert_eq!(reg.resolve(&key).ok(), Some(image.manifest_digest));
        assert_eq!(oci.resolve(&key).ok(), Some(image.manifest_digest));
        assert_eq!(reg.blob_count().unwrap(), oci.blobs.len());
        drop(reg);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
