//! Fused layer encode/decode — the image data plane.
//!
//! Producing an OCI layer needs three passes over the same bytes: tar
//! serialization, the uncompressed diff_id SHA-256, and gzip (plus a hash of
//! the compressed blob). Done naively that materializes the tar several
//! times and runs each pass back-to-back. [`LayerCodec`] fuses them: the
//! tar writer streams into a sink that tees every chunk into the diff_id
//! hasher and the block-parallel [`GzipEncoder`](comt_flate::GzipEncoder)
//! in one pass, and the compressed-blob hash is computed while fragments
//! are assembled. Compression itself fans out across worker threads, with
//! output bytes bit-identical for any worker count (see `comt-flate`).
//!
//! Throughput is observable under `--stats` via the global
//! [`comt_observe`] recorder: `flate.bytes_in` / `flate.bytes_out`,
//! `codec.workers`, and the `codec.encode` / `codec.decode` spans.

use crate::spec::MediaType;
use bytes::Bytes;
use comt_digest::{Digest, Sha256};
use comt_flate::GzipEncoder;
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
    workers: usize,
}

impl LayerCodec {
    /// Codec with the host's worker count ([`comt_flate::default_workers`]).
    pub fn new(compress: bool) -> Self {
        Self::with_workers(compress, comt_flate::default_workers())
    }

    /// Codec with an explicit compression worker count (clamped to ≥ 1).
    /// Output bytes do not depend on this value.
    pub fn with_workers(compress: bool, workers: usize) -> Self {
        LayerCodec {
            compress,
            workers: workers.max(1),
        }
    }

    /// Whether this codec emits `tar+gzip` blobs.
    pub fn compresses(&self) -> bool {
        self.compress
    }

    /// Encode a layer changeset: serialize, hash and compress in one pass.
    ///
    /// Fails when an entry cannot be represented in a tar header (path or
    /// link target too long, payload ≥ 8 GiB) — see [`HeaderError`].
    pub fn encode_entries(&self, entries: &[Entry]) -> Result<EncodedLayer, HeaderError> {
        let obs = comt_observe::global();
        let _span = obs.span("codec.encode");

        if !self.compress {
            // Uncompressed: tar bytes are the blob; tee the serialization
            // into the hasher so the archive is still produced in one pass,
            // into a buffer allocated once at the archive's final size.
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
            let len = out.len() as u64;
            obs.count("codec.layers.encoded", 1);
            return Ok(EncodedLayer {
                blob: Bytes::from(out),
                blob_digest: diff_id,
                diff_id,
                media_type: MediaType::LayerTar,
                uncompressed_len: len,
            });
        }

        let mut hasher = Sha256::new();
        let mut enc = GzipEncoder::new(self.workers);
        let mut w = Writer::with_sink(FnSink(|chunk: &[u8]| {
            hasher.update(chunk);
            enc.write(chunk);
        }));
        for e in entries {
            w.append(e)?;
        }
        w.finish();
        let diff_id = Digest::from_raw(hasher.finalize());
        Ok(self.finish_compressed(enc, diff_id))
    }

    /// Encode an already-serialized tar (the `with_layer_tar` path): hashing
    /// and compression still overlap, the tar is just not re-serialized.
    pub fn encode_tar(&self, tar: impl Into<Bytes>) -> EncodedLayer {
        let tar = tar.into();
        let obs = comt_observe::global();
        let _span = obs.span("codec.encode");
        let diff_id = Digest::of(&tar);
        if !self.compress {
            obs.count("codec.layers.encoded", 1);
            return EncodedLayer {
                blob_digest: diff_id,
                diff_id,
                media_type: MediaType::LayerTar,
                uncompressed_len: tar.len() as u64,
                blob: tar,
            };
        }
        let mut enc = GzipEncoder::new(self.workers);
        enc.write(&tar);
        self.finish_compressed(enc, diff_id)
    }

    /// Drain the encoder, hashing the compressed stream while fragments are
    /// assembled, and record throughput counters.
    fn finish_compressed(&self, enc: GzipEncoder, diff_id: Digest) -> EncodedLayer {
        let obs = comt_observe::global();
        let uncompressed_len = enc.total_in();
        let mut blob_hasher = Sha256::new();
        let mut blob: Vec<u8> = Vec::new();
        enc.finish_into(|chunk| {
            blob_hasher.update(chunk);
            blob.extend_from_slice(chunk);
        });
        obs.count("flate.bytes_in", uncompressed_len);
        obs.count("flate.bytes_out", blob.len() as u64);
        obs.count("codec.workers", self.workers as u64);
        obs.count("codec.layers.encoded", 1);
        EncodedLayer {
            blob_digest: Digest::from_raw(blob_hasher.finalize()),
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
            let enc = LayerCodec::with_workers(compress, 2).encode_entries(&entries).unwrap();
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
        let a = LayerCodec::with_workers(true, 2).encode_entries(&entries).unwrap();
        let b = LayerCodec::with_workers(true, 2).encode_tar(tar);
        assert_eq!(a.blob, b.blob);
        assert_eq!(a.diff_id, b.diff_id);
        assert_eq!(a.blob_digest, b.blob_digest);
    }

    #[test]
    fn worker_count_never_changes_blob_bytes() {
        let entries = sample_entries();
        let one = LayerCodec::with_workers(true, 1).encode_entries(&entries).unwrap();
        let four = LayerCodec::with_workers(true, 4).encode_entries(&entries).unwrap();
        assert_eq!(one.blob, four.blob);
        assert_eq!(one.blob_digest, four.blob_digest);
    }

    #[test]
    fn compressed_blob_matches_serial_gzip_of_tar() {
        // The parallel codec is a different encoder than `comt_flate::gzip`
        // (block joins), so bytes differ — but the decoded content must not.
        let entries = sample_entries();
        let tar = comt_tar::write_archive(&entries).unwrap();
        let enc = LayerCodec::new(true).encode_entries(&entries).unwrap();
        assert_eq!(comt_flate::gunzip(&enc.blob).unwrap(), tar);
    }
}
