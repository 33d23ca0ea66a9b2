//! A flash crowd on one cache-resident blob must not multiply the daemon's
//! memory: every in-flight response holds a refcount on the hot cache's
//! shared bytes and a cursor, never a private copy of the blob.
//!
//! Peak RSS (VmHWM) is read after 8 raw-GET pullers and again after a
//! crowd of [`CROWD`]; the crowd may at most double it. A serve path that
//! copies the blob per response pays about [`CROWD`] × 1 MiB instead.
//! VmHWM is process-wide, so this binary holds exactly one test.

use bytes::Bytes;
use comt_dist::{serve, DistClient, HttpOptions, ServerOptions};
use comt_oci::store::closure_digests;
use comt_oci::{BlobStore, ImageBuilder, OciDir};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Pullers in the crowd, sized for a 2-core host.
const CROWD: usize = 256;
/// The blob every puller fetches: well under the hot cache's entry cap.
const BLOB_LEN: usize = 1 << 20;

/// Deterministic incompressible-ish bytes (xorshift from a fixed seed).
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

/// Peak resident set of this process in bytes; `None` without procfs.
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

fn connect(addr: SocketAddr) -> TcpStream {
    for _ in 0..200 {
        if let Ok(s) = TcpStream::connect(addr) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("puller could not connect to {addr}");
}

/// `pullers` connections opened up front, then one GET of `path` each,
/// released together by a barrier. Each thread has a 128 KiB stack and
/// reads through a 4 KiB buffer on it, keeping only the response head and
/// allocating nothing, so the client side adds little to the process RSS.
fn crowd_get(addr: SocketAddr, path: &str, pullers: usize, body_len: usize) {
    let barrier = Arc::new(Barrier::new(pullers));
    let handles: Vec<_> = (0..pullers)
        .map(|_| {
            let mut s = connect(addr);
            s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            let barrier = Arc::clone(&barrier);
            let request = format!("GET {path} HTTP/1.1\r\nHost: crowd\r\nConnection: close\r\n\r\n");
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || {
                    barrier.wait();
                    s.write_all(request.as_bytes()).expect("send GET");
                    let mut buf = [0u8; 4096];
                    let mut head = [0u8; 512];
                    let (mut kept, mut total) = (0usize, 0usize);
                    loop {
                        let n = s.read(&mut buf).expect("read response");
                        if n == 0 {
                            break;
                        }
                        let take = n.min(head.len() - kept);
                        head[kept..kept + take].copy_from_slice(&buf[..take]);
                        kept += take;
                        total += n;
                    }
                    let head = &head[..kept];
                    assert!(
                        head.starts_with(b"HTTP/1.1 200"),
                        "not a 200: {:?}",
                        String::from_utf8_lossy(&head[..kept.min(64)])
                    );
                    let head_len = head
                        .windows(4)
                        .position(|w| w == b"\r\n\r\n")
                        .expect("response head ends")
                        + 4;
                    assert_eq!(total - head_len, body_len, "short body");
                })
                .expect("spawn puller")
        })
        .collect();
    for h in handles {
        h.join().expect("puller");
    }
}

#[test]
fn a_flash_crowd_leaves_peak_rss_flat() {
    if vm_hwm_bytes().is_none() {
        println!("flash crowd skipped: no VmHWM in /proc/self/status");
        return;
    }
    let mut local = BlobStore::new();
    let md = ImageBuilder::from_scratch("x86_64")
        .with_layer_tar(Bytes::from(filler(BLOB_LEN)), "crowd blob")
        .commit(&mut local)
        .unwrap()
        .manifest_digest;
    let blob = closure_digests(&local, &md)
        .unwrap()
        .into_iter()
        .max_by_key(|d| local.get(d).map_or(0, |b| b.len()))
        .unwrap();
    let blob_len = local.get(&blob).unwrap().len();
    assert!(blob_len >= BLOB_LEN);

    let server = serve(
        OciDir::new(),
        "127.0.0.1:0",
        ServerOptions {
            http: HttpOptions {
                threads: 2,
                max_conns: CROWD + 64,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    DistClient::new(server.addr().to_string())
        .push_image("crowd", "v1", md, &local)
        .unwrap();
    let path = format!("/v2/crowd/blobs/{}", blob.to_oci_string());

    crowd_get(server.addr(), &path, 8, blob_len);
    let small = vm_hwm_bytes().unwrap();
    crowd_get(server.addr(), &path, CROWD, blob_len);
    let big = vm_hwm_bytes().unwrap();
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    println!(
        "VmHWM after 8 pullers {:.1} MiB, after {CROWD} {:.1} MiB",
        mib(small),
        mib(big)
    );
    assert!(
        big <= 2 * small,
        "peak RSS grew from {:.1} to {:.1} MiB between 8 and {CROWD} pullers: \
         the serve path holds a copy of the blob per response",
        mib(small),
        mib(big)
    );
    drop(server);
}
