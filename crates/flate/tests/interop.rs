//! Interoperability with the system gzip: our output must decode with
//! real gunzip and we must decode real gzip output (which uses dynamic
//! Huffman blocks our compressor never emits).

use std::io::Write;
use std::process::{Command, Stdio};

fn have_system_gzip() -> bool {
    Command::new("gzip").arg("--version").output().is_ok()
}

fn pipe(cmd: &str, args: &[&str], input: &[u8]) -> Vec<u8> {
    let mut child = Command::new(cmd)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn");
    child.stdin.as_mut().unwrap().write_all(input).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{cmd} failed");
    out.stdout
}

#[test]
fn system_gunzip_reads_our_output() {
    if !have_system_gzip() {
        eprintln!("skipping: no system gzip");
        return;
    }
    let data = b"coMtainer layer payload ".repeat(500);
    let ours = comt_flate::gzip(&data);
    let decoded = pipe("gzip", &["-dc"], &ours);
    assert_eq!(decoded, data);
}

#[test]
fn we_read_system_gzip_output() {
    if !have_system_gzip() {
        eprintln!("skipping: no system gzip");
        return;
    }
    // gzip -9 emits dynamic-Huffman blocks: exercises the full inflate path.
    let data: Vec<u8> = (0..40_000u32)
        .flat_map(|i| format!("record {} field {}\n", i % 97, i % 13).into_bytes())
        .collect();
    let theirs = pipe("gzip", &["-9c"], &data);
    let decoded = comt_flate::gunzip(&theirs).expect("decode real gzip");
    assert_eq!(decoded, data);
}

#[test]
fn we_read_system_gzip_of_incompressible() {
    if !have_system_gzip() {
        eprintln!("skipping: no system gzip");
        return;
    }
    let mut data = Vec::new();
    let mut s: u64 = 0x1234_5678_9abc_def0;
    while data.len() < 100_000 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        data.extend_from_slice(&s.to_le_bytes());
    }
    let theirs = pipe("gzip", &["-1c"], &data);
    let decoded = comt_flate::gunzip(&theirs).expect("decode real gzip");
    assert_eq!(decoded, data);
}
