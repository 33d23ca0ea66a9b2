//! Streaming archive writer.

use crate::header::{
    self, HeaderError, BLOCK, TYPE_DIR, TYPE_FILE, TYPE_GNU_LONGNAME, TYPE_HARDLINK, TYPE_SYMLINK,
};
use crate::{Entry, EntryKind};

/// Destination for serialized archive bytes.
///
/// The writer pushes headers and padded payloads through this trait as it
/// goes, so a sink can tee the stream into a hasher and a compressor and the
/// archive never has to exist as one contiguous buffer. `Vec<u8>` implements
/// it for the buffered [`write_archive`](crate::write_archive) path.
pub trait TarSink {
    /// Absorb the next run of archive bytes.
    fn write(&mut self, data: &[u8]);
}

impl TarSink for Vec<u8> {
    fn write(&mut self, data: &[u8]) {
        self.extend_from_slice(data);
    }
}

/// Adapter turning any `FnMut(&[u8])` closure into a [`TarSink`].
pub struct FnSink<F: FnMut(&[u8])>(pub F);

impl<F: FnMut(&[u8])> TarSink for FnSink<F> {
    fn write(&mut self, data: &[u8]) {
        (self.0)(data);
    }
}

/// Incremental USTAR writer emitting into a [`TarSink`].
///
/// `Writer::new()` targets a `Vec<u8>` (the original in-memory API);
/// [`Writer::with_sink`] streams into any sink.
pub struct Writer<S: TarSink = Vec<u8>> {
    sink: S,
    written: usize,
}

impl Default for Writer<Vec<u8>> {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer<Vec<u8>> {
    /// Empty in-memory archive under construction.
    pub fn new() -> Self {
        Writer::with_sink(Vec::new())
    }
}

impl<S: TarSink> Writer<S> {
    /// Writer streaming into `sink`.
    pub fn with_sink(sink: S) -> Self {
        Writer { sink, written: 0 }
    }

    /// Bytes emitted so far (headers + padded payloads, no terminator).
    pub fn len(&self) -> usize {
        self.written
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    fn emit(&mut self, data: &[u8]) {
        self.sink.write(data);
        self.written += data.len();
    }

    /// Append one entry. Fails — without emitting anything — when a field
    /// cannot be represented (payload ≥ 8 GiB, link target > 100 bytes):
    /// the caller gets a [`HeaderError`] instead of a silently corrupt
    /// archive.
    pub fn append(&mut self, entry: &Entry) -> Result<(), HeaderError> {
        let (typeflag, linkname, content): (u8, &str, Option<&[u8]>) = match &entry.kind {
            EntryKind::File(c) => (TYPE_FILE, "", Some(c)),
            EntryKind::Dir => (TYPE_DIR, "", None),
            EntryKind::Symlink(t) => (TYPE_SYMLINK, t, None),
            EntryKind::Hardlink(t) => (TYPE_HARDLINK, t, None),
        };
        let size = content.map(|c| c.len() as u64).unwrap_or(0);

        // Encode every header before emitting any byte, so a failed append
        // leaves the archive exactly as it was.
        let long_record = match header::split_path(&entry.path) {
            Some(split) => {
                let hdr = self.entry_header(entry, split.1, split.0, size, typeflag, linkname)?;
                self.emit(&hdr);
                None
            }
            None => {
                // GNU long-name record: payload is the path + NUL. The real
                // header carries a truncated name (at most 100 *bytes*, cut
                // on a char boundary — `chars().take(100)` could exceed the
                // field with multibyte paths); readers use the L record.
                let mut payload = entry.path.clone().into_bytes();
                payload.push(0);
                let long_hdr = header::encode(
                    "././@LongLink",
                    "",
                    0o644,
                    0,
                    0,
                    payload.len() as u64,
                    0,
                    TYPE_GNU_LONGNAME,
                    "",
                )?;
                let mut cut = entry.path.len().min(100);
                while !entry.path.is_char_boundary(cut) {
                    cut -= 1;
                }
                let hdr = self.entry_header(
                    entry,
                    &entry.path[..cut],
                    "",
                    size,
                    typeflag,
                    linkname,
                )?;
                Some((long_hdr, payload, hdr))
            }
        };
        if let Some((long_hdr, payload, hdr)) = long_record {
            self.emit(&long_hdr);
            self.append_padded(&payload);
            self.emit(&hdr);
        }
        if let Some(c) = content {
            self.append_padded(c);
        }
        Ok(())
    }

    fn entry_header(
        &self,
        entry: &Entry,
        name: &str,
        prefix: &str,
        size: u64,
        typeflag: u8,
        linkname: &str,
    ) -> Result<[u8; BLOCK], HeaderError> {
        header::encode(
            name,
            prefix,
            entry.mode,
            entry.uid,
            entry.gid,
            size,
            entry.mtime,
            typeflag,
            linkname,
        )
    }

    fn append_padded(&mut self, data: &[u8]) {
        self.emit(data);
        let rem = data.len() % BLOCK;
        if rem != 0 {
            self.emit(&[0u8; BLOCK][..BLOCK - rem]);
        }
    }

    /// Terminate with two zero blocks and return the sink.
    pub fn finish(mut self) -> S {
        self.emit(&[0u8; 2 * BLOCK]);
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_len_tracks_blocks() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.append(&Entry::file("a", vec![1u8; 10], 0o644)).unwrap();
        assert_eq!(w.len(), 1024); // header + one padded block
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2048);
    }

    #[test]
    fn dir_has_no_payload() {
        let mut w = Writer::new();
        w.append(&Entry::dir("d", 0o755)).unwrap();
        assert_eq!(w.len(), 512);
    }

    #[test]
    fn sink_stream_matches_buffered() {
        let entries = vec![
            Entry::dir("d", 0o755),
            Entry::file("d/f", vec![3u8; 777], 0o644),
            Entry::symlink("d/l", "f"),
        ];
        let mut buffered = Writer::new();
        let mut streamed: Vec<u8> = Vec::new();
        let mut w = Writer::with_sink(FnSink(|chunk: &[u8]| streamed.extend_from_slice(chunk)));
        for e in &entries {
            buffered.append(e).unwrap();
            w.append(e).unwrap();
        }
        w.finish();
        assert_eq!(buffered.finish(), streamed);
    }

    #[test]
    fn failed_append_emits_nothing() {
        let mut w = Writer::new();
        w.append(&Entry::dir("d", 0o755)).unwrap();
        let before = w.len();
        // Unrepresentable link target: no fallback record exists for
        // linkname, so this is a hard error — and the archive must be
        // byte-for-byte what it was before the attempt.
        let bad = Entry::symlink("d/l", "t".repeat(101));
        assert!(w.append(&bad).is_err());
        assert_eq!(w.len(), before);
        let bytes = w.finish();
        assert_eq!(bytes.len(), before + 1024);
    }

    #[test]
    fn long_multibyte_path_truncates_on_char_boundary() {
        // 99 ASCII bytes + 'é' (2 bytes) + more: the naive chars().take(100)
        // would emit 101 bytes into the 100-byte name field.
        let path = format!("{}é{}", "a".repeat(99), "b".repeat(120));
        let mut w = Writer::new();
        w.append(&Entry::file(path.clone(), b"x".to_vec(), 0o644))
            .unwrap();
        let bytes = w.finish();
        let back = crate::read_archive(&bytes.into()).unwrap();
        assert_eq!(back[0].path, path); // the L record carries the full path
    }
}
