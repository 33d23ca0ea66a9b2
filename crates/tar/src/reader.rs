//! Archive reader with checksum validation and GNU long-name support.

use crate::header::{
    self, BLOCK, TYPE_DIR, TYPE_FILE, TYPE_GNU_LONGNAME, TYPE_HARDLINK, TYPE_SYMLINK,
};
use crate::{Entry, EntryKind};
use bytes::Bytes;
use std::fmt;

/// Error while reading an archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// Archive ended mid-header or mid-payload.
    UnexpectedEof,
    /// A header failed checksum validation.
    BadChecksum {
        /// Byte offset of the offending header block.
        offset: usize,
    },
    /// An entry type we do not support (e.g. character devices).
    UnsupportedType {
        /// The raw typeflag byte.
        typeflag: u8,
        /// Path from the header, for diagnostics.
        path: String,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::UnexpectedEof => write!(f, "unexpected end of archive"),
            ReadError::BadChecksum { offset } => {
                write!(f, "bad header checksum at offset {offset}")
            }
            ReadError::UnsupportedType { typeflag, path } => {
                write!(f, "unsupported entry type {typeflag:#x} for {path:?}")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// Parse a complete archive into entries.
///
/// File payloads are [`Bytes::slice`]s of `archive` — windows onto its
/// allocation, not copies — so every returned file keeps the archive's
/// buffer alive. A caller holding a `Vec<u8>` wraps it first
/// (`Bytes::from(vec)` is a move).
///
/// Stops at the first zero block (archive terminator) or at end of input;
/// a missing terminator is tolerated, truncation inside a record is not.
pub fn read_archive(archive: &Bytes) -> Result<Vec<Entry>, ReadError> {
    let bytes: &[u8] = archive;
    let mut entries = Vec::new();
    let mut pos = 0usize;
    let mut pending_longname: Option<String> = None;

    loop {
        if pos == bytes.len() {
            break; // tolerated: no terminator
        }
        if pos + BLOCK > bytes.len() {
            return Err(ReadError::UnexpectedEof);
        }
        let block = &bytes[pos..pos + BLOCK];
        if header::is_zero_block(block) {
            break;
        }
        if !header::checksum_ok(block) {
            return Err(ReadError::BadChecksum { offset: pos });
        }
        let hdr = header::decode(block);
        pos += BLOCK;

        let payload_len = hdr.size as usize;
        let padded = header::padded_len(payload_len);
        if pos + padded > bytes.len() {
            return Err(ReadError::UnexpectedEof);
        }
        let payload = pos..pos + payload_len;
        pos += padded;

        if hdr.typeflag == TYPE_GNU_LONGNAME {
            let name = &bytes[payload];
            let end = name.iter().position(|&b| b == 0).unwrap_or(name.len());
            pending_longname = Some(String::from_utf8_lossy(&name[..end]).into_owned());
            continue;
        }

        let path = pending_longname.take().unwrap_or_else(|| hdr.full_path());
        let kind = match hdr.typeflag {
            TYPE_FILE | 0 => EntryKind::File(archive.slice(payload)),
            TYPE_DIR => EntryKind::Dir,
            TYPE_SYMLINK => EntryKind::Symlink(hdr.linkname.clone()),
            TYPE_HARDLINK => EntryKind::Hardlink(hdr.linkname.clone()),
            other => {
                return Err(ReadError::UnsupportedType {
                    typeflag: other,
                    path,
                })
            }
        };

        entries.push(Entry {
            path,
            kind,
            mode: hdr.mode,
            uid: hdr.uid,
            gid: hdr.gid,
            mtime: hdr.mtime,
        });
    }

    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_archive;

    #[test]
    fn missing_terminator_tolerated() {
        let bytes = write_archive(&[Entry::file("a", b"x".to_vec(), 0o644)]).unwrap();
        let bytes_len = bytes.len();
        // Strip the two terminator blocks.
        let stripped = Bytes::from(bytes).slice(..bytes_len - 1024);
        let entries = read_archive(&stripped).unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn file_payloads_are_windows_of_the_archive() {
        // Zero-copy pinned by address: every non-empty payload lies inside
        // the archive's own allocation, at its record's offset.
        let long = format!("{}/deep/file.txt", "component-with-a-long-name/".repeat(12));
        let entries = vec![
            Entry::dir("d", 0o755),
            Entry::file("d/small", b"x".to_vec(), 0o644),
            Entry::file("d/empty", Vec::new(), 0o644),
            Entry::file("d/big", vec![5u8; 70_000], 0o644),
            Entry::symlink("d/l", "big"),
            Entry::file(long, vec![6u8; 513], 0o644),
        ];
        let archive = Bytes::from(write_archive(&entries).unwrap());
        let back = read_archive(&archive).unwrap();
        assert_eq!(back, entries);
        let range = archive.as_ptr_range();
        let mut files = 0;
        for e in &back {
            let EntryKind::File(payload) = &e.kind else { continue };
            if payload.is_empty() {
                continue;
            }
            files += 1;
            let p = payload.as_ptr_range();
            assert!(
                range.start <= p.start && p.end <= range.end,
                "{} was copied out of the archive",
                e.path
            );
        }
        assert_eq!(files, 3);
        // The payloads are refcounted windows, not borrows.
        drop(archive);
        assert_eq!(back, entries);
    }

    #[test]
    fn unsupported_type_reported_with_path() {
        let hdr = crate::header::encode("dev", "", 0o644, 0, 0, 0, 0, b'3', "").unwrap();
        let mut bytes = hdr.to_vec();
        bytes.extend_from_slice(&[0u8; 1024]);
        match read_archive(&bytes.into()) {
            Err(ReadError::UnsupportedType { typeflag, path }) => {
                assert_eq!(typeflag, b'3');
                assert_eq!(path, "dev");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn garbage_input_rejected() {
        let bytes = Bytes::from(vec![0xabu8; 512]);
        assert!(matches!(
            read_archive(&bytes),
            Err(ReadError::BadChecksum { offset: 0 })
        ));
    }
}
