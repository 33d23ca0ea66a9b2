//! Extension experiment — distribution throughput sweep (not a paper
//! figure).
//!
//! Serves a workload image from the `comt-dist` loopback daemon and
//! measures aggregate pull throughput as concurrent clients scale, with
//! digest verification active on both ends of every transfer (the server
//! verifies before serving, the client verifies before admitting). Emits
//! the results as `BENCH_dist_throughput.json` so the perf trajectory is
//! machine-diffable across runs.
//!
//! ```text
//! dist_throughput [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the payload and iteration count (the CI
//! configuration); every pulled closure is still digest-verified
//! bit-identical against the pushed one.

use bytes::Bytes;
use comt_bench::report::{json_report, json_row, table};
use comt_dist::{serve, DistClient, HttpOptions, ServerOptions};
use comt_oci::store::closure_digests;
use comt_oci::{BlobStore, ImageBuilder, Registry};
use comt_pkg::catalog;
use comt_vfs::Vfs;
use comt_workloads::source_tree;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Deterministic incompressible-ish filler so the wire moves real bytes
/// even in smoke mode (no RNG: xorshift from a fixed seed).
fn filler(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(len);
    v
}

/// One image: each workload source tree as a layer, plus a bulk filler
/// layer that dominates the closure size.
fn build_image(apps: &[&str], bulk: usize, store: &mut BlobStore) -> comt_digest::Digest {
    let mut b = ImageBuilder::from_scratch("x86_64");
    for app in apps {
        let tree = source_tree(app, "x86_64", catalog::MINI_SCALE).expect("workload tree");
        b = b.with_layer_from_fs(&Vfs::new(), &tree);
    }
    b = b.with_layer_tar(Bytes::from(filler(bulk)), "bulk filler");
    b.commit(store).expect("commit image").manifest_digest
}

/// Best-of-N wall time for one closure, in seconds.
fn time_best<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.unwrap())
}

fn mib_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / secs.max(1e-9)
}

/// Peak resident set of this process (VmHWM), in bytes. Linux only;
/// `None` elsewhere, which skips the flatness assertion.
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

fn connect_retry(addr: SocketAddr) -> TcpStream {
    let mut last = None;
    for _ in 0..200 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    panic!("mass puller could not connect: {:?}", last);
}

/// `pullers` threads each hold an open connection, then GET `path`
/// simultaneously (barrier-released) and read-discard the body in a small
/// heap buffer — no retention, tiny stacks, so a thousand of them model a
/// flash crowd without the *client* side dominating the process RSS.
/// Returns wall seconds measured from barrier release to last byte.
fn mass_get(addr: SocketAddr, path: &str, pullers: usize, expect: u64) -> f64 {
    let barrier = Arc::new(Barrier::new(pullers + 1));
    let handles: Vec<_> = (0..pullers)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let path = path.to_string();
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || {
                    let mut s = connect_retry(addr);
                    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
                    barrier.wait();
                    write!(
                        s,
                        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
                    )
                    .expect("send mass GET");
                    let mut buf = vec![0u8; 16 * 1024];
                    let mut head: Vec<u8> = Vec::new();
                    let mut total = 0u64;
                    loop {
                        match s.read(&mut buf) {
                            Ok(0) => break,
                            Ok(n) => {
                                if head.len() < 4096 {
                                    let take = n.min(4096 - head.len());
                                    head.extend_from_slice(&buf[..take]);
                                }
                                total += n as u64;
                            }
                            Err(e) => panic!("mass puller read: {e}"),
                        }
                    }
                    assert!(
                        head.starts_with(b"HTTP/1.1 200"),
                        "mass GET not a 200: {:?}",
                        String::from_utf8_lossy(&head[..head.len().min(64)])
                    );
                    let header_len = head
                        .windows(4)
                        .position(|w| w == b"\r\n\r\n")
                        .expect("header terminator")
                        + 4;
                    assert_eq!(total - header_len as u64, expect, "short body");
                })
                .expect("spawn mass puller")
        })
        .collect();
    barrier.wait();
    let t = Instant::now();
    for h in handles {
        h.join().expect("mass puller");
    }
    t.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_dist_throughput.json".to_string());
    let iters = if smoke { 2 } else { 3 };
    let apps: &[&str] = if smoke {
        &["lulesh"]
    } else {
        &["lulesh", "hpl", "minimd"]
    };
    let bulk = if smoke { 2 << 20 } else { 16 << 20 };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== Extension: distribution pull throughput ({cores} cores available) ==\n");

    // Build the workload image locally and push it to a loopback daemon.
    let mut local = BlobStore::new();
    let md = build_image(apps, bulk, &mut local);
    let closure = closure_digests(&local, &md).expect("closure");
    let closure_bytes: u64 = closure
        .iter()
        .map(|d| local.get(d).expect("closure blob").len() as u64)
        .sum();

    let server = serve(Registry::new(), "127.0.0.1:0", ServerOptions::default())
        .expect("bind loopback daemon");
    let addr = server.addr().to_string();
    let pusher = DistClient::new(addr.clone());
    let (push_s, _) = time_best(1, || {
        pusher.push_image("bench", "v1", md, &local).expect("push")
    });
    println!(
        "pushed {} blobs, {:.2} MiB in {push_s:.3}s ({:.1} MiB/s)\n",
        closure.len(),
        closure_bytes as f64 / (1024.0 * 1024.0),
        mib_s(closure_bytes, push_s)
    );

    let mut clients_sweep = vec![1usize, 2, 4, cores.min(8)];
    clients_sweep.sort_unstable();
    clients_sweep.dedup();

    let mut rows = Vec::new();
    let mut json_rows: Vec<Value> = Vec::new();
    // aggregate throughput per client count, for the scaling check.
    let mut agg_at: Vec<(usize, f64)> = Vec::new();

    for &n in &clients_sweep {
        let (wall_s, moved) = time_best(iters, || {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|_| {
                        let addr = addr.clone();
                        s.spawn(move || {
                            let c = DistClient::new(addr);
                            let mut dst = BlobStore::new();
                            let (got, stats) = c.pull_image("bench", "v1", &mut dst).expect("pull");
                            assert_eq!(got, md, "manifest digest drifted over the wire");
                            stats.blobs_moved as u64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("puller"))
                    .sum::<u64>()
            })
        });
        assert_eq!(moved, closure.len() as u64 * n as u64, "partial pull");
        let agg = mib_s(closure_bytes * n as u64, wall_s);
        let per = mib_s(closure_bytes, wall_s);
        agg_at.push((n, agg));
        rows.push(vec![
            n.to_string(),
            format!("{wall_s:.3}"),
            format!("{agg:.1}"),
            format!("{per:.1}"),
        ]);
        json_rows.push(json_row(vec![
            ("case", Value::Str("pull_sweep".to_string())),
            ("clients", Value::Int(n as i64)),
            ("closure_bytes", Value::Int(closure_bytes as i64)),
            ("blobs", Value::Int(closure.len() as i64)),
            ("wall_s", Value::Float(wall_s)),
            ("aggregate_mib_s", Value::Float(agg)),
            ("per_client_mib_s", Value::Float(per)),
            ("manifest", Value::Str(md.to_oci_string())),
        ]));
    }
    println!(
        "{}",
        table(&["clients", "wall s", "agg MiB/s", "per-client MiB/s"], &rows)
    );

    // The acceptance bar: >= 2x aggregate pull throughput at 4 clients vs
    // 1 — only meaningful when the machine has the cores to scale onto.
    let tp = |k: usize| {
        agg_at
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, t)| *t)
            .unwrap_or(0.0)
    };
    if cores >= 4 && clients_sweep.contains(&4) {
        let speedup = tp(4) / tp(1);
        println!("aggregate pull speedup @4 clients: {speedup:.2}x");
        assert!(
            speedup >= 2.0,
            "expected >=2x aggregate pull throughput at 4 clients, got {speedup:.2}x"
        );
    } else {
        println!("pull speedup check skipped: {cores} core(s) available (needs >=4)");
    }

    drop(server);

    // ── Flash-crowd case: 8 vs 1k concurrent raw-GET pullers ─────────
    //
    // Every puller streams the bulk layer through the readiness-driven
    // serve path. The layer is cache-resident (shared `Bytes` clones), so
    // a thousand in-flight responses must NOT multiply server memory —
    // each connection holds a refcount and a cursor, never a private copy
    // of the blob. VmHWM is monotone, so reading it after the 8-puller
    // run and again after the 1k run attributes any growth to the crowd.
    let bulk_digest = *closure
        .iter()
        .max_by_key(|d| local.get(d).map_or(0, |b| b.len()))
        .expect("bulk layer");
    let bulk_len = local.get(&bulk_digest).expect("bulk blob").len() as u64;
    let blob_path = format!("/v2/bench/blobs/{}", bulk_digest.to_oci_string());
    let crowd = 1024usize;
    let loop_threads = cores.min(4);

    println!("\n== Flash crowd: raw blob GETs, {loop_threads} loop thread(s) ==\n");
    let mass_server = serve(
        Registry::new(),
        "127.0.0.1:0",
        ServerOptions {
            http: HttpOptions {
                threads: loop_threads,
                max_conns: crowd + 64,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("bind mass daemon");
    DistClient::new(mass_server.addr().to_string())
        .push_image("bench", "v1", md, &local)
        .expect("push to mass daemon");

    let mut mass_rows = Vec::new();
    let mut hwm_after: Vec<(usize, Option<u64>)> = Vec::new();
    let mut wall_at_crowd = 0.0f64;
    for &pullers in &[8usize, crowd] {
        let wall_s = mass_get(mass_server.addr(), &blob_path, pullers, bulk_len);
        if pullers == crowd {
            wall_at_crowd = wall_s;
        }
        let hwm = vm_hwm_bytes();
        hwm_after.push((pullers, hwm));
        let agg = mib_s(bulk_len * pullers as u64, wall_s);
        mass_rows.push(vec![
            pullers.to_string(),
            format!("{wall_s:.3}"),
            format!("{agg:.1}"),
            hwm.map_or("n/a".to_string(), |b| format!("{:.1}", b as f64 / (1024.0 * 1024.0))),
        ]);
        json_rows.push(json_row(vec![
            ("case", Value::Str("mass_get".to_string())),
            ("pullers", Value::Int(pullers as i64)),
            ("loop_threads", Value::Int(loop_threads as i64)),
            ("blob_bytes", Value::Int(bulk_len as i64)),
            ("wall_s", Value::Float(wall_s)),
            ("aggregate_mib_s", Value::Float(agg)),
            ("vm_hwm_bytes", Value::Int(hwm.map_or(-1, |b| b as i64))),
        ]));
    }
    println!(
        "{}",
        table(&["pullers", "wall s", "agg MiB/s", "peak RSS MiB"], &mass_rows)
    );
    drop(mass_server);

    // Peak-RSS flatness: the 1k-puller crowd may not push peak RSS past
    // 2x of where the 8-puller run left it. A serve path that buffers
    // whole blobs per connection fails this by an order of magnitude
    // (1k x blob vs one shared cache entry).
    match (hwm_after[0].1, hwm_after[1].1) {
        (Some(small), Some(big)) => {
            let ratio = big as f64 / small.max(1) as f64;
            println!("peak RSS growth 8 -> {crowd} pullers: {ratio:.2}x");
            assert!(
                big <= small.saturating_mul(2),
                "peak RSS grew {ratio:.2}x between 8 and {crowd} pullers \
                 ({small} -> {big} bytes); per-connection buffering regression"
            );
        }
        _ => println!("peak RSS flatness check skipped: VmHWM unavailable"),
    }

    // Loop-thread scaling: the same 1k-puller crowd against a single-loop
    // server must be at least 2x slower than against four loops — only
    // meaningful with >= 4 cores to put the loops on.
    if cores >= 4 {
        let one_loop = serve(
            Registry::new(),
            "127.0.0.1:0",
            ServerOptions {
                http: HttpOptions {
                    threads: 1,
                    max_conns: crowd + 64,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("bind single-loop daemon");
        DistClient::new(one_loop.addr().to_string())
            .push_image("bench", "v1", md, &local)
            .expect("push to single-loop daemon");
        let wall_one = mass_get(one_loop.addr(), &blob_path, crowd, bulk_len);
        drop(one_loop);
        let speedup = wall_one / wall_at_crowd.max(1e-9);
        println!("{crowd}-puller speedup, 1 -> {loop_threads} loop threads: {speedup:.2}x");
        json_rows.push(json_row(vec![
            ("case", Value::Str("mass_get_scaling".to_string())),
            ("pullers", Value::Int(crowd as i64)),
            ("wall_s_1_thread", Value::Float(wall_one)),
            ("wall_s_n_threads", Value::Float(wall_at_crowd)),
            ("speedup", Value::Float(speedup)),
        ]));
        assert!(
            speedup >= 2.0,
            "expected >=2x {crowd}-puller throughput from 1 -> {loop_threads} loop \
             threads, got {speedup:.2}x"
        );
    } else {
        println!("loop-thread scaling check skipped: {cores} core(s) available (needs >=4)");
    }

    let json = json_report("dist_throughput", json_rows);
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
