//! Microbenchmarks for the substrate crates: SHA-256, tar round trips,
//! and OCI layer changeset application/diffing.

use bytes::Bytes;
use comt_vfs::Vfs;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_sha256(c: &mut Criterion) {
    // The group is named after the kernel in use, so a line from a host
    // with the SHA extensions is never compared against one without.
    let mut g = c.benchmark_group(format!("sha256[{}]", comt_digest::backend()));
    for size in [4 * 1024usize, 256 * 1024, 4 * 1024 * 1024] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| comt_digest::Digest::of(d));
        });
    }
    g.finish();
}

fn bench_tar_roundtrip(c: &mut Criterion) {
    let entries: Vec<comt_tar::Entry> = (0..256)
        .map(|i| comt_tar::Entry::file(format!("dir{}/file{}", i % 16, i), vec![7u8; 1000], 0o644))
        .collect();
    let archive = comt_tar::write_archive(&entries).expect("bench entries are representable");
    let mut g = c.benchmark_group("tar");
    g.throughput(Throughput::Bytes(archive.len() as u64));
    g.bench_function("write_256_files", |b| {
        b.iter(|| comt_tar::write_archive(&entries).expect("bench entries are representable"));
    });
    let archive = comt_tar::Bytes::from(archive);
    g.bench_function("read_256_files", |b| {
        b.iter(|| comt_tar::read_archive(&archive).unwrap());
    });
    g.finish();
}

fn rootfs(files: usize) -> Vfs {
    let mut fs = Vfs::new();
    for i in 0..files {
        fs.write_file_p(
            &format!("/usr/lib/pkg{}/file{}", i % 32, i),
            Bytes::from(vec![1u8; 512]),
            0o644,
        )
        .unwrap();
    }
    fs
}

fn bench_layers(c: &mut Criterion) {
    let base = rootfs(2000);
    let mut upper = base.clone();
    for i in 0..200 {
        upper
            .write_file_p(&format!("/opt/new/file{i}"), Bytes::from(vec![2u8; 512]), 0o644)
            .unwrap();
    }
    for i in 0..100 {
        upper.remove(&format!("/usr/lib/pkg{}/file{}", i % 32, i)).unwrap();
    }
    let changeset = comt_vfs::diff_layers(&base, &upper);

    let mut g = c.benchmark_group("layers");
    g.bench_function("diff_2000_files", |b| {
        b.iter(|| comt_vfs::diff_layers(&base, &upper));
    });
    g.bench_function("apply_300_changes", |b| {
        b.iter(|| {
            let mut fs = base.clone();
            comt_vfs::apply_layer(&mut fs, &changeset).unwrap();
            fs
        });
    });
    g.finish();
}

fn bench_flate(c: &mut Criterion) {
    // A layer-like payload: repetitive synthetic package bytes.
    let tar = {
        let entries: Vec<comt_tar::Entry> = (0..64)
            .map(|i| {
                comt_tar::Entry::file(
                    format!("usr/lib/lib{i}.so"),
                    format!("symbol table {i};").repeat(200).into_bytes(),
                    0o644,
                )
            })
            .collect();
        comt_tar::write_archive(&entries).expect("bench entries are representable")
    };
    let gz = comt_flate::gzip(&tar);
    let mut g = c.benchmark_group("flate");
    g.throughput(Throughput::Bytes(tar.len() as u64));
    g.bench_function("gzip_layer", |b| b.iter(|| comt_flate::gzip(&tar)));
    g.bench_function("gunzip_layer", |b| b.iter(|| comt_flate::gunzip(&gz).unwrap()));
    g.finish();
}

criterion_group!(benches, bench_sha256, bench_tar_roundtrip, bench_layers, bench_flate);
criterion_main!(benches);
