//! In-memory USTAR (POSIX.1-1988 + GNU long-name) archives.
//!
//! OCI layers are tar changesets; this crate provides the archive substrate
//! used by `comt-oci` to serialize layer diffs and by `comtainer` to encode
//! the cache layer. It is a from-scratch implementation covering exactly the
//! feature set container layers need:
//!
//! * regular files, directories, symlinks, hardlinks,
//! * `mode`/`uid`/`gid`/`mtime` metadata,
//! * header checksum generation and validation,
//! * `name`+`prefix` splitting, with GNU `L` long-name records as fallback
//!   for paths that do not fit the USTAR fields.
//!
//! Archives live fully in memory, matching the simulated blob store in
//! `comt-oci`, and payload bytes are never copied to change their type.
//! File payloads are reference-counted [`Bytes`]:
//!
//! * **Reading** — [`read_archive`] takes the archive as `&Bytes` and
//!   yields each file payload as a [`Bytes::slice`] of it: a window onto
//!   the archive's own allocation. Parsing a layer costs header decoding
//!   only; the price is that every file read out of an archive keeps that
//!   archive's buffer alive.
//! * **Writing** — an entry lifted out of a VFS (or a reader) shares its
//!   payload with its source, [`Entry::encoded_len`] is the exact size of
//!   the records it serializes to, so [`write_archive`] allocates the
//!   archive once at its final size ([`archive_len`]), and the [`Writer`] is
//!   generic over a [`TarSink`] so serialization can stream straight into a
//!   hasher/compressor without materializing the archive.

mod header;
mod reader;
mod writer;

pub use bytes::Bytes;
pub use header::HeaderError;
pub use reader::{read_archive, ReadError};
pub use writer::{FnSink, TarSink, Writer};

/// Type of an archive member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// Regular file with its content (cheaply cloneable, shared storage).
    File(Bytes),
    /// Directory.
    Dir,
    /// Symbolic link to `target` (not resolved by the archive layer).
    Symlink(String),
    /// Hard link to a previously-archived path.
    Hardlink(String),
}

/// One archive member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Slash-separated path, no leading `/` (tar convention).
    pub path: String,
    /// Member type and payload.
    pub kind: EntryKind,
    /// POSIX permission bits (e.g. `0o644`).
    pub mode: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Modification time, seconds since the epoch.
    pub mtime: u64,
}

impl Entry {
    /// Regular file with default root ownership.
    pub fn file(path: impl Into<String>, content: impl Into<Bytes>, mode: u32) -> Self {
        Entry {
            path: path.into(),
            kind: EntryKind::File(content.into()),
            mode,
            uid: 0,
            gid: 0,
            mtime: 0,
        }
    }

    /// Directory entry.
    pub fn dir(path: impl Into<String>, mode: u32) -> Self {
        Entry {
            path: path.into(),
            kind: EntryKind::Dir,
            mode,
            uid: 0,
            gid: 0,
            mtime: 0,
        }
    }

    /// Symlink entry.
    pub fn symlink(path: impl Into<String>, target: impl Into<String>) -> Self {
        Entry {
            path: path.into(),
            kind: EntryKind::Symlink(target.into()),
            mode: 0o777,
            uid: 0,
            gid: 0,
            mtime: 0,
        }
    }

    /// Size of the payload (files only; other kinds are zero).
    pub fn size(&self) -> u64 {
        match &self.kind {
            EntryKind::File(c) => c.len() as u64,
            _ => 0,
        }
    }

    /// Exact number of bytes [`Writer::append`] emits for this entry: its
    /// header, its payload padded to a block, and — for a path that does
    /// not fit the USTAR `name`/`prefix` fields — the GNU long-name record
    /// in front of it.
    pub fn encoded_len(&self) -> usize {
        let long_name = match header::split_path(&self.path) {
            Some(_) => 0,
            None => header::BLOCK + header::padded_len(self.path.len() + 1),
        };
        long_name + header::BLOCK + header::padded_len(self.size() as usize)
    }
}

/// Exact length of the archive [`write_archive`] produces for `entries`:
/// every entry's records plus the two-block terminator.
pub fn archive_len(entries: &[Entry]) -> usize {
    entries.iter().map(Entry::encoded_len).sum::<usize>() + 2 * header::BLOCK
}

/// Serialize entries into a complete archive (convenience over [`Writer`]).
/// Fails if any entry cannot be represented (see [`Writer::append`]).
pub fn write_archive(entries: &[Entry]) -> Result<Vec<u8>, HeaderError> {
    let mut w = Writer::with_sink(Vec::with_capacity(archive_len(entries)));
    for e in entries {
        w.append(e)?;
    }
    Ok(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(entries: Vec<Entry>) -> Vec<Entry> {
        read_archive(&write_archive(&entries).expect("writable entries").into())
            .expect("roundtrip read")
    }

    #[test]
    fn roundtrip_simple_file() {
        let e = vec![Entry::file("hello.txt", b"hi".to_vec(), 0o644)];
        assert_eq!(roundtrip(e.clone()), e);
    }

    #[test]
    fn roundtrip_mixed_kinds() {
        let e = vec![
            Entry::dir("usr", 0o755),
            Entry::dir("usr/bin", 0o755),
            Entry::file("usr/bin/app", vec![1, 2, 3, 4, 5], 0o755),
            Entry::symlink("usr/bin/app-link", "app"),
            Entry {
                path: "usr/bin/app-hard".into(),
                kind: EntryKind::Hardlink("usr/bin/app".into()),
                mode: 0o755,
                uid: 0,
                gid: 0,
                mtime: 0,
            },
        ];
        assert_eq!(roundtrip(e.clone()), e);
    }

    #[test]
    fn roundtrip_metadata() {
        let e = vec![Entry {
            path: "data.bin".into(),
            kind: EntryKind::File(vec![0u8; 1000].into()),
            mode: 0o600,
            uid: 1000,
            gid: 100,
            mtime: 1_700_000_000,
        }];
        assert_eq!(roundtrip(e.clone()), e);
    }

    #[test]
    fn roundtrip_content_not_block_aligned() {
        for len in [0usize, 1, 511, 512, 513, 1024, 1025] {
            let e = vec![Entry::file("f", vec![7u8; len], 0o644)];
            assert_eq!(roundtrip(e.clone()), e, "len {len}");
        }
    }

    #[test]
    fn roundtrip_long_path_gnu_extension() {
        let long = format!("{}/deep/file.txt", "component-with-a-long-name/".repeat(12));
        let e = vec![Entry::file(long, b"x".to_vec(), 0o644)];
        assert_eq!(roundtrip(e.clone()), e);
    }

    #[test]
    fn roundtrip_path_using_ustar_prefix() {
        // Longer than 100 but splittable into prefix+name.
        let long = format!("{}end", "abcdefgh/".repeat(14));
        assert!(long.len() > 100 && long.len() < 255);
        let e = vec![Entry::file(long, b"y".to_vec(), 0o644)];
        assert_eq!(roundtrip(e.clone()), e);
    }

    #[test]
    fn empty_archive() {
        let bytes = write_archive(&[]).unwrap();
        assert_eq!(bytes.len(), 1024); // two zero end blocks
        assert!(read_archive(&bytes.into()).unwrap().is_empty());
    }

    #[test]
    fn archive_is_block_aligned() {
        let bytes = write_archive(&[Entry::file("a", vec![9u8; 700], 0o644)]).unwrap();
        assert_eq!(bytes.len() % 512, 0);
    }

    #[test]
    fn unrepresentable_entry_fails_whole_archive() {
        // >100-byte symlink target: hard error in every build profile
        // (used to be a debug_assert + silent truncation in release).
        let err = write_archive(&[Entry::symlink("l", "t".repeat(200))]).unwrap_err();
        assert!(matches!(err, HeaderError::FieldOverflow { field: "linkname", .. }));
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut bytes = write_archive(&[Entry::file("a", b"z".to_vec(), 0o644)]).unwrap();
        bytes[0] ^= 0xff; // clobber first name byte
        assert!(matches!(
            read_archive(&bytes.into()),
            Err(ReadError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncated_archive_rejected() {
        let bytes = write_archive(&[Entry::file("a", vec![1u8; 600], 0o644)]).unwrap();
        assert!(matches!(
            read_archive(&Bytes::from(bytes).slice(..700)),
            Err(ReadError::UnexpectedEof)
        ));
    }
}
