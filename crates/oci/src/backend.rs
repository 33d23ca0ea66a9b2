//! The storage seam: where a layout's bytes live ([`BlobBackend`]), and the
//! handle a committed blob is read through ([`BlobHandle`]).
//!
//! There is one tagged store, [`crate::Layout`]: an image index over a
//! [`BlobBackend`]. The trait says only where bytes live and how an index
//! flip is committed, and has two implementations — the in-memory
//! [`crate::BlobStore`] (commit is a no-op) and the crash-safe
//! [`crate::DiskStore`] (tmp → fsync → rename → dir-fsync). Everything
//! above it — resolve, staged publish, push/pull, chunkmaps, liveness, gc —
//! is written once in [`crate::layout`], and `comt-dist`'s daemon serves a
//! `Layout<B>` directly, whatever `B` is. The contract encodes the
//! durability story:
//!
//! * [`BlobBackend::insert`] takes a [`Verified`] blob, so the bytes were
//!   hashed **in every build profile** before they got here; a disk backend
//!   makes the blob durable before returning — a killed daemon never
//!   forgets an acknowledged blob.
//! * [`BlobBackend::commit_index`] is the commit point of every mutation:
//!   [`crate::Layout::publish_manifest`] reaches it only after the whole
//!   closure is present and each member is either proven
//!   ([`BlobBackend::proven`]) or bit-verified, and a rejected publish
//!   leaves no trace.
//! * A store keeps the one proof set of its process: the digests it wrote
//!   itself from a [`Verified`], plus those a caller checked and recorded
//!   with [`BlobBackend::prove`]. Removing a blob takes it out. An
//!   in-memory store can hold nothing else, so its set is all it holds; a
//!   disk store also holds files an earlier process (or bit rot) wrote,
//!   and its set covers a file only while the file is unchanged.
//! * [`BlobBackend::handle`] returns a cheap handle so the server can drop
//!   its lock before the expensive part (file read + re-hash) happens in
//!   [`BlobHandle::read_verified`].

use crate::spec::ImageIndex;
use crate::store::{StoreError, Verified};
use bytes::Bytes;
use comt_digest::{Digest, Sha256};
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;

/// Chunk size for streaming reads of file-backed blobs. Large enough to
/// amortize syscalls, small enough that a streaming verify or copy never
/// holds more than this much of the blob in memory.
pub const BLOB_STREAM_CHUNK: usize = 256 * 1024;

/// Observe counter: bytes read from disk by file-backed blob handles.
/// The Range-GET regression test asserts on this — a ranged read must
/// cost ~the range, never the whole blob.
pub const FILE_BYTES_READ: &str = "oci.blob.file_bytes_read";

/// A cheap reference to a stored blob, resolvable to verified bytes
/// outside any registry lock.
#[derive(Debug, Clone)]
pub enum BlobHandle {
    /// The blob lives in memory; cloning `Bytes` is refcount-cheap.
    Resident(Bytes),
    /// The blob lives on disk; reading is deferred to the caller.
    File { path: PathBuf, len: u64 },
}

impl BlobHandle {
    pub fn len(&self) -> u64 {
        match self {
            BlobHandle::Resident(b) => b.len() as u64,
            BlobHandle::File { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the blob and verify its content against `want`. This is
    /// where the re-hash (and for disk handles, the file read) happens —
    /// call it after releasing the registry lock. Use only where the whole
    /// blob is genuinely needed in memory (LRU admission, manifest reads);
    /// the serve path streams via [`BlobHandle::stream_verified`] and
    /// [`BlobHandle::read_range`] instead.
    pub fn read_verified(&self, want: &Digest) -> Result<Verified<'static>, StoreError> {
        let data = match self {
            BlobHandle::Resident(b) => b.clone(),
            BlobHandle::File { path, .. } => {
                let data = std::fs::read(path).map_err(|e| StoreError::io_at(path, e))?;
                comt_observe::global().count(FILE_BYTES_READ, data.len() as u64);
                Bytes::from(data)
            }
        };
        Verified::check(*want, data)
    }

    /// A chunked [`Read`] over the blob. Resident handles read from the
    /// shared buffer; file handles read from disk in whatever chunk size
    /// the caller brings — nothing is slurped up front.
    pub fn reader(&self) -> Result<BlobReader, StoreError> {
        match self {
            BlobHandle::Resident(b) => Ok(BlobReader::Resident {
                data: b.clone(),
                pos: 0,
            }),
            BlobHandle::File { path, .. } => std::fs::File::open(path)
                .map(BlobReader::File)
                .map_err(|e| StoreError::io_at(path, e)),
        }
    }

    /// Verify the blob's content against `want` without materializing it:
    /// hash in [`BLOB_STREAM_CHUNK`]-sized pieces and discard. Peak memory
    /// is one chunk regardless of blob size. Returns the byte count hashed.
    pub fn stream_verified(&self, want: &Digest) -> Result<u64, StoreError> {
        let mut reader = self.reader()?;
        let mut hasher = Sha256::new();
        let mut buf = vec![0u8; BLOB_STREAM_CHUNK.min(self.len().max(1) as usize)];
        let mut total = 0u64;
        loop {
            let n = reader.read(&mut buf)?;
            if n == 0 {
                break;
            }
            hasher.update(&buf[..n]);
            total += n as u64;
        }
        if Digest::from_raw(hasher.finalize()) != *want {
            return Err(StoreError::DigestMismatch(want.to_string()));
        }
        Ok(total)
    }

    /// Read only the half-open byte window `[start, end)`. Resident handles
    /// slice the shared buffer (zero-copy); file handles seek and read
    /// exactly the window — a ranged request for 1 KiB of a 2 GiB layer
    /// costs 1 KiB of I/O, not 2 GiB. The window is unverified by itself
    /// (a partial body cannot be checked against a whole-blob digest);
    /// clients verify the assembled blob.
    pub fn read_range(&self, start: u64, end: u64) -> Result<Bytes, StoreError> {
        let total = self.len();
        if start > end || end > total {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("range {start}..{end} out of bounds for {total}-byte blob"),
            )));
        }
        match self {
            BlobHandle::Resident(b) => Ok(b.slice(start as usize..end as usize)),
            BlobHandle::File { path, .. } => {
                let mut out = vec![0u8; (end - start) as usize];
                std::fs::File::open(path)
                    .and_then(|mut f| {
                        f.seek(SeekFrom::Start(start))?;
                        f.read_exact(&mut out)
                    })
                    .map_err(|e| StoreError::io_at(path, e))?;
                comt_observe::global().count(FILE_BYTES_READ, out.len() as u64);
                Ok(Bytes::from(out))
            }
        }
    }
}

/// Chunked reader over a [`BlobHandle`] (see [`BlobHandle::reader`]).
#[derive(Debug)]
pub enum BlobReader {
    Resident { data: Bytes, pos: usize },
    File(std::fs::File),
}

impl Read for BlobReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            BlobReader::Resident { data, pos } => {
                let rest = &data[(*pos).min(data.len())..];
                let n = rest.len().min(buf.len());
                buf[..n].copy_from_slice(&rest[..n]);
                *pos += n;
                Ok(n)
            }
            BlobReader::File(f) => {
                let n = f.read(buf)?;
                comt_observe::global().count(FILE_BYTES_READ, n as u64);
                Ok(n)
            }
        }
    }
}

/// Where a layout's bytes live and how an index flip is committed — the
/// whole difference between an in-memory and an on-disk [`Layout`].
pub trait BlobBackend {
    /// Cheap handle to a committed blob, if present.
    fn handle(&self, digest: &Digest) -> Option<BlobHandle>;

    /// Commit a blob on the strength of its proof (durably, for a
    /// persistent backend). Returns `true` if newly stored.
    fn insert(&mut self, blob: Verified<'_>) -> Result<bool, StoreError>;

    /// Delete a committed blob (gc); returns whether it existed.
    fn remove(&mut self, digest: &Digest) -> Result<bool, StoreError>;

    /// Every committed blob with its size, in digest order.
    fn digests(&self) -> Result<Vec<(Digest, u64)>, StoreError>;

    /// Make `index` the layout's tag table. This is the commit point of
    /// every mutation: on error the previous table is still the one a
    /// reopen would read.
    fn commit_index(&mut self, index: &ImageIndex) -> Result<(), StoreError>;

    /// Whether this store holds its own proof that the blob stored under
    /// `digest` hashes to it: the store wrote it from a [`Verified`]
    /// ([`BlobBackend::insert`] answered `true`), or a check was recorded
    /// with [`BlobBackend::prove`] since. A proven blob is published and
    /// served without a re-hash. A backend that keeps no proofs answers
    /// `false`, and everything it holds is re-hashed where it is trusted.
    fn proven(&self, _digest: &Digest) -> bool {
        false
    }

    /// Record a proof for a committed blob the caller has just hashed
    /// against `digest` (a stream verify that ran off the registry lock).
    fn prove(&mut self, _digest: &Digest) {}

    /// How many digests this store holds a proof for.
    fn proof_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_handle_verifies() {
        let data = Bytes::from_static(b"payload");
        let d = Digest::of(&data);
        let h = BlobHandle::Resident(data.clone());
        assert_eq!(h.len(), 7);
        assert_eq!(h.read_verified(&d).unwrap().into_bytes(), data);
        assert!(matches!(
            h.read_verified(&Digest::of(b"other")),
            Err(StoreError::DigestMismatch(_))
        ));
    }

    #[test]
    fn file_handle_streams_and_ranges() {
        let dir = std::env::temp_dir().join(format!("comt-backend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let payload: Vec<u8> = (0..BLOB_STREAM_CHUNK * 2 + 77).map(|i| (i % 241) as u8).collect();
        let d = Digest::of(&payload);
        let path = dir.join("blob");
        std::fs::write(&path, &payload).unwrap();
        let h = BlobHandle::File {
            path: path.clone(),
            len: payload.len() as u64,
        };

        // Streaming verify hashes every byte without materializing.
        assert_eq!(h.stream_verified(&d).unwrap(), payload.len() as u64);
        assert!(matches!(
            h.stream_verified(&Digest::of(b"other")),
            Err(StoreError::DigestMismatch(_))
        ));

        // Ranged reads return exactly the window.
        let w = h.read_range(100, 612).unwrap();
        assert_eq!(&w[..], &payload[100..612]);
        assert!(h.read_range(10, 5).is_err());
        assert!(h.read_range(0, payload.len() as u64 + 1).is_err());

        // The chunked reader round-trips the full content.
        let mut via_reader = Vec::new();
        std::io::Read::read_to_end(&mut h.reader().unwrap(), &mut via_reader).unwrap();
        assert_eq!(via_reader, payload);

        // Resident handles slice zero-copy and stream-verify too.
        let r = BlobHandle::Resident(Bytes::from(payload.clone()));
        assert_eq!(r.stream_verified(&d).unwrap(), payload.len() as u64);
        assert_eq!(&r.read_range(7, 19).unwrap()[..], &payload[7..19]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
