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
    /// A link target that is not UTF-8 and outgrows its 100-byte field
    /// once decoded: it could not be written back.
    BadLinkname {
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
            ReadError::BadLinkname { offset } => {
                write!(f, "link target at offset {offset} is not UTF-8 and overflows its field")
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
        let at = pos;
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
            TYPE_SYMLINK | TYPE_HARDLINK if hdr.linkname.len() > 100 => {
                return Err(ReadError::BadLinkname { offset: at })
            }
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
    use proptest::prelude::*;

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

    /// Re-seal a mutated header so the reader looks past its checksum.
    fn reseal(block: &mut [u8]) {
        block[148..156].fill(b' ');
        let sum: u64 = block.iter().map(|&b| b as u64).sum();
        block[148..155].copy_from_slice(format!("{sum:06o}\0").as_bytes());
    }

    /// What a hostile archive may do: fail, or decode to entries that
    /// write back and read back unchanged.
    fn errs_or_round_trips(archive: &Bytes) -> Result<(), TestCaseError> {
        let Ok(entries) = read_archive(archive) else {
            return Ok(());
        };
        let again = write_archive(&entries).map_err(TestCaseError::fail)?;
        prop_assert_eq!(read_archive(&again.into()), Ok(entries));
        Ok(())
    }

    #[test]
    fn non_utf8_link_target_is_refused_not_widened() {
        // Found by the loop below: decoded lossily, these 100 bytes become
        // a 300-byte target that no header can carry back.
        let mut block = header::encode("l", "", 0o777, 0, 0, 0, 0, TYPE_SYMLINK, "").unwrap();
        block[157..257].fill(0xff);
        reseal(&mut block);
        let archive = Bytes::from([&block[..], &[0u8; 1024]].concat());
        assert_eq!(
            read_archive(&archive),
            Err(ReadError::BadLinkname { offset: 0 })
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn hostile_headers_never_panic(
            typeflag in any::<u8>(),
            size in 0u64..1200,
            edits in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..8),
            sealed in any::<bool>(),
            noise in prop::collection::vec(any::<u8>(), 0..BLOCK),
            tail in prop::collection::vec(any::<u8>(), 0..1600),
        ) {
            // A real header, then a few bytes overwritten anywhere in it.
            let flag = [TYPE_FILE, TYPE_DIR, TYPE_SYMLINK, TYPE_HARDLINK, TYPE_GNU_LONGNAME, typeflag]
                [typeflag as usize % 6];
            let mut block = header::encode("d/f", "", 0o644, 0, 0, size, 0, flag, "t").unwrap();
            for (at, byte) in edits {
                block[at.index(BLOCK)] = byte;
            }
            if sealed {
                reseal(&mut block);
            }
            header::decode(&block);
            let mut archive = block.to_vec();
            archive.extend_from_slice(&tail);
            errs_or_round_trips(&Bytes::from(archive))?;
            // A block of pure noise, sealed or not.
            let mut raw = noise;
            raw.resize(BLOCK, 0);
            header::decode(&raw);
            if sealed {
                reseal(&mut raw);
            }
            errs_or_round_trips(&Bytes::from(raw))?;
        }

        #[test]
        fn truncated_archives_fail_or_keep_a_prefix(
            sizes in prop::collection::vec(0usize..1100, 1..5),
            long in any::<bool>(),
            cut in any::<prop::sample::Index>(),
        ) {
            let mut entries: Vec<Entry> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| Entry::file(format!("f{i}"), vec![i as u8; n], 0o644))
                .collect();
            if long {
                entries.push(Entry::symlink("deep/".repeat(30) + "l", "f0"));
            }
            let full = write_archive(&entries).unwrap();
            let cut = cut.index(full.len());
            let archive = Bytes::from(full).slice(..cut);
            match read_archive(&archive) {
                Ok(read) => prop_assert!(entries.starts_with(&read), "{} of {}", read.len(), entries.len()),
                Err(e) => prop_assert_eq!(e, ReadError::UnexpectedEof),
            }
            errs_or_round_trips(&archive)?;
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
