//! Fused layer encode/decode — the image data plane.
//!
//! Producing an OCI layer needs two passes over the tar bytes: the
//! serialization and the uncompressed `diff_id` SHA-256. [`LayerCodec`]
//! fuses them: the tar writer streams into a sink that tees every chunk
//! into the `diff_id` hasher and into a buffer reserved once at the
//! archive's final size. That tar is the blob of an uncompressed layer,
//! the form every layer on the paper's path takes. A compressed layer is
//! the same tar through [`comt_flate::gzip`], the one encoder, and its
//! blob is hashed once; its bytes are a pure function of the tar.
//!
//! Throughput is observable under `--stats` via the global
//! [`comt_observe`] recorder: `flate.bytes_in` / `flate.bytes_out`,
//! `codec.layers.*`, and the `codec.encode` / `codec.decode` spans.

use crate::spec::MediaType;
use bytes::Bytes;
use comt_digest::{Digest, Sha256};
use comt_tar::{Entry, FnSink, HeaderError, Writer};

/// A fully encoded layer: the blob to store plus every identity the
/// manifest/config needs, computed in the same pass that produced it.
#[derive(Debug, Clone)]
pub struct EncodedLayer {
    /// Blob bytes as stored (compressed when the codec compresses).
    pub blob: Bytes,
    /// Digest of `blob` (the manifest `layers[].digest`).
    pub blob_digest: Digest,
    /// Digest of the uncompressed tar (the config `diff_ids[]` entry).
    pub diff_id: Digest,
    /// Media type matching the blob encoding.
    pub media_type: MediaType,
    /// Uncompressed tar size in bytes.
    pub uncompressed_len: u64,
}

/// Streaming encoder/decoder for layer blobs.
#[derive(Debug, Clone, Copy)]
pub struct LayerCodec {
    compress: bool,
}

impl LayerCodec {
    /// Codec that stores `tar+gzip` blobs when `compress` is set, plain
    /// `tar` blobs otherwise.
    pub fn new(compress: bool) -> Self {
        LayerCodec { compress }
    }

    /// Encode a layer changeset: serialize and hash in one pass.
    ///
    /// Fails when an entry cannot be represented in a tar header (path or
    /// link target too long, payload ≥ 8 GiB) — see [`HeaderError`].
    pub fn encode_entries(&self, entries: &[Entry]) -> Result<EncodedLayer, HeaderError> {
        let _span = comt_observe::global().span("codec.encode");
        // Tee the serialization into the hasher so the archive is produced
        // in one pass, into a buffer allocated once at its final size.
        let mut hasher = Sha256::new();
        let mut out: Vec<u8> = Vec::with_capacity(comt_tar::archive_len(entries));
        let mut w = Writer::with_sink(FnSink(|chunk: &[u8]| {
            hasher.update(chunk);
            out.extend_from_slice(chunk);
        }));
        for e in entries {
            w.append(e)?;
        }
        w.finish();
        let diff_id = Digest::from_raw(hasher.finalize());
        Ok(self.seal(Bytes::from(out), diff_id))
    }

    /// Encode an already-serialized tar (the `with_layer_tar` path): the
    /// tar is hashed, not re-serialized.
    pub fn encode_tar(&self, tar: impl Into<Bytes>) -> EncodedLayer {
        let tar = tar.into();
        let _span = comt_observe::global().span("codec.encode");
        let diff_id = Digest::of(&tar);
        self.seal(tar, diff_id)
    }

    /// Turn a tar and its `diff_id` into the stored blob: the tar itself,
    /// or its gzip member hashed once.
    fn seal(&self, tar: Bytes, diff_id: Digest) -> EncodedLayer {
        let obs = comt_observe::global();
        obs.count("codec.layers.encoded", 1);
        let uncompressed_len = tar.len() as u64;
        if !self.compress {
            return EncodedLayer {
                blob: tar,
                blob_digest: diff_id,
                diff_id,
                media_type: MediaType::LayerTar,
                uncompressed_len,
            };
        }
        let blob = comt_flate::gzip(&tar);
        obs.count("flate.bytes_in", uncompressed_len);
        obs.count("flate.bytes_out", blob.len() as u64);
        EncodedLayer {
            blob_digest: Digest::of(&blob),
            diff_id,
            media_type: MediaType::LayerTarGzip,
            uncompressed_len,
            blob: Bytes::from(blob),
        }
    }

    /// Decode a layer blob back to its uncompressed tar bytes.
    pub fn decode(blob: Bytes, media_type: &MediaType) -> Result<Bytes, comt_flate::FlateError> {
        let obs = comt_observe::global();
        let _span = obs.span("codec.decode");
        match media_type {
            MediaType::LayerTarGzip => {
                let tar = comt_flate::gunzip(&blob)?;
                obs.count("flate.bytes_in", blob.len() as u64);
                obs.count("flate.bytes_out", tar.len() as u64);
                obs.count("codec.layers.decoded", 1);
                Ok(Bytes::from(tar))
            }
            _ => {
                obs.count("codec.layers.decoded", 1);
                Ok(blob)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<Entry> {
        vec![
            Entry::dir("app", 0o755),
            Entry::file("app/main.c", "int main(void) { return 0; }\n".repeat(200), 0o644),
            Entry::symlink("app/link", "main.c"),
        ]
    }

    #[test]
    fn fused_encode_matches_separate_passes() {
        let entries = sample_entries();
        let tar = comt_tar::write_archive(&entries).unwrap();
        for compress in [false, true] {
            let enc = LayerCodec::new(compress).encode_entries(&entries).unwrap();
            assert_eq!(enc.diff_id, Digest::of(&tar), "compress={compress}");
            assert_eq!(enc.uncompressed_len, tar.len() as u64);
            assert_eq!(enc.blob_digest, Digest::of(&enc.blob));
            let back = LayerCodec::decode(enc.blob.clone(), &enc.media_type).unwrap();
            assert_eq!(&back[..], &tar[..], "compress={compress}");
        }
    }

    #[test]
    fn encode_tar_matches_encode_entries() {
        let entries = sample_entries();
        let tar = comt_tar::write_archive(&entries).unwrap();
        let a = LayerCodec::new(true).encode_entries(&entries).unwrap();
        let b = LayerCodec::new(true).encode_tar(tar);
        assert_eq!(a.blob, b.blob);
        assert_eq!(a.diff_id, b.diff_id);
        assert_eq!(a.blob_digest, b.blob_digest);
    }

    #[test]
    fn compressed_blob_matches_serial_gzip_of_tar() {
        // One encoder: the blob is `gzip(tar)`, byte for byte.
        let entries = sample_entries();
        let tar = comt_tar::write_archive(&entries).unwrap();
        let enc = LayerCodec::new(true).encode_entries(&entries).unwrap();
        assert_eq!(&enc.blob[..], &comt_flate::gzip(&tar)[..]);
        assert_eq!(comt_flate::gunzip(&enc.blob).unwrap(), tar);
    }

    #[test]
    fn system_gunzip_reads_a_compressed_layer() {
        use std::io::Write;
        use std::process::{Command, Stdio};
        if Command::new("gzip").arg("--version").output().is_err() {
            eprintln!("skipping: no system gzip");
            return;
        }
        // Repetitive text runs the match path, noise the stored blocks.
        let text = b"module load gcc/12 openmpi; srun ./app --steps 400\n".repeat(16_000);
        let mut noise = Vec::with_capacity(1 << 20);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        while noise.len() < 1 << 20 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            noise.extend_from_slice(&x.to_le_bytes());
        }
        let entries = vec![
            Entry::dir("opt", 0o755),
            Entry::file("opt/run.sh", text, 0o644),
            Entry::file("opt/weights.bin", noise, 0o644),
        ];
        let tar = comt_tar::write_archive(&entries).unwrap();
        let enc = LayerCodec::new(true).encode_entries(&entries).unwrap();
        assert!(
            enc.blob.len() >= 1 << 20,
            "blob is {} bytes",
            enc.blob.len()
        );

        let mut child = Command::new("gzip")
            .arg("-dc")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn gzip");
        let mut stdin = child.stdin.take().unwrap();
        let blob = enc.blob.clone();
        let feeder = std::thread::spawn(move || stdin.write_all(&blob).unwrap());
        let out = child.wait_with_output().unwrap();
        feeder.join().unwrap();
        assert!(out.status.success(), "gzip -dc failed");
        assert_eq!(out.stdout, tar);
        assert_eq!(Digest::of(&out.stdout), enc.diff_id);
    }
}
