//! Content digests memoized by buffer identity.
//!
//! A rebuild reads the same windows of one decoded cache layer many times:
//! every compile step's cache key digests the files it reads, the compiler
//! digests the source it compiles, and every engine of an N-target fan-out
//! does both over the same layer. [`DigestMemo`] hashes each window once.
//!
//! The key is the window's identity — its address and length — not its
//! content, so a lookup costs no hashing. That is sound because the memo
//! keeps a clone of every window it has seen: the allocation stays alive
//! (its address cannot be reused by other bytes) and shared (so
//! `Vec::from(Bytes)` can never reclaim it for writing). One identity
//! therefore always names the same bytes for as long as the memo lives.
//! A buffer written later — a step's output, an overlay file — is a new
//! allocation with a new identity, so nothing needs invalidating.
//!
//! Two scopes share that rule. [`HeldDigests`] covers a fixed set of
//! windows — a held image's own files — and outlives any one load: every
//! rebuild of the image asks it, so each of those windows is hashed once
//! for as long as the image is held. Its window set is closed when it is
//! built, so it pins nothing beyond the image it was built from. A
//! [`DigestMemo`] is one load's memo (one rebuild, or every target of a
//! fan-out): it answers a held window from its [`HeldDigests`] and
//! memoizes every other window (extra files, sibling outputs, system-side
//! files) for itself, and goes when the load does.
//!
//! The digest itself is computed outside any lock, once per entry: two
//! threads asking for the same window at once hash it once.

use bytes::Bytes;
use comt_digest::Digest;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A window's identity: its address and length.
fn identity(bytes: &Bytes) -> (usize, usize) {
    (bytes.as_ptr() as usize, bytes.len())
}

/// One window seen by a memo, and its digest once computed.
#[derive(Debug)]
struct Entry {
    /// Pins the allocation (see the module docs).
    bytes: Bytes,
    digest: OnceLock<Digest>,
}

impl Entry {
    fn new(bytes: &Bytes) -> Self {
        Entry {
            bytes: bytes.clone(),
            digest: OnceLock::new(),
        }
    }

    /// The digest, and whether this call computed it.
    fn digest(&self) -> (Digest, bool) {
        let mut computed = false;
        let digest = *self.digest.get_or_init(|| {
            computed = true;
            Digest::of(&self.bytes)
        });
        (digest, computed)
    }
}

/// Digests of a fixed set of windows — a held image's own files — each
/// computed on first ask and shared by every [`DigestMemo`] built over it.
#[derive(Debug, Default)]
pub struct HeldDigests {
    entries: HashMap<(usize, usize), Entry>,
}

impl HeldDigests {
    /// A table of exactly `windows`; it never grows.
    pub fn new<'a>(windows: impl IntoIterator<Item = &'a Bytes>) -> Self {
        let entries = windows
            .into_iter()
            .map(|w| (identity(w), Entry::new(w)))
            .collect();
        HeldDigests { entries }
    }

    /// Number of windows held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes the table keeps alive: the sum of its windows' lengths.
    pub fn pinned_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes.len() as u64).sum()
    }
}

/// SHA-256 digests of [`Bytes`] windows, computed once per window: once
/// per held image for the windows of its [`HeldDigests`], once per memo
/// for every other window.
#[derive(Debug, Default)]
pub struct DigestMemo {
    held: Arc<HeldDigests>,
    entries: Mutex<HashMap<(usize, usize), Arc<Entry>>>,
}

impl DigestMemo {
    /// A memo for one load of a held image: the windows of `held` are
    /// answered there, every other window here.
    pub fn over(held: Arc<HeldDigests>) -> Self {
        DigestMemo {
            held,
            entries: Mutex::default(),
        }
    }

    /// The held table this memo answers the image's own windows from.
    pub fn held(&self) -> &Arc<HeldDigests> {
        &self.held
    }

    /// `Digest::of(bytes)`, hashed at most once per window.
    pub fn of(&self, bytes: &Bytes) -> Digest {
        self.lookup(bytes).0
    }

    /// `Digest::of(bytes)` and whether this call computed it (`false`: the
    /// digest was already known, or another thread computed it while this
    /// one waited).
    pub fn lookup(&self, bytes: &Bytes) -> (Digest, bool) {
        let key = identity(bytes);
        if let Some(entry) = self.held.entries.get(&key) {
            return entry.digest();
        }
        let entry = {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            entries
                .entry(key)
                .or_insert_with(|| Arc::new(Entry::new(bytes)))
                .clone()
        };
        entry.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_each_window_once() {
        let memo = DigestMemo::default();
        let buf = Bytes::from(b"0123456789".to_vec());
        let (whole, fresh) = memo.lookup(&buf);
        assert!(fresh);
        assert_eq!(whole, Digest::of(b"0123456789"));
        assert_eq!(memo.lookup(&buf.clone()), (whole, false));

        // A narrower window of the same allocation is another identity.
        let head = buf.slice(..4);
        assert_eq!(memo.lookup(&head), (Digest::of(b"0123"), true));
        // Equal content in another allocation is hashed on its own.
        let twin = Bytes::from(b"0123456789".to_vec());
        assert_eq!(memo.lookup(&twin), (whole, true));
    }

    #[test]
    fn a_pinned_window_is_never_reclaimed() {
        let memo = DigestMemo::default();
        let buf = Bytes::from(vec![7u8; 64]);
        let ptr = buf.as_ptr();
        memo.of(&buf);
        // The memo's clone keeps the buffer shared: handing it back as a
        // `Vec` copies instead of reclaiming the pinned allocation.
        let reclaimed = Vec::from(buf);
        assert_ne!(reclaimed.as_ptr(), ptr);
    }

    #[test]
    fn concurrent_lookups_hash_once() {
        let memo = DigestMemo::default();
        let buf = Bytes::from(vec![1u8; 1 << 20]);
        let start = std::sync::Barrier::new(4);
        let fresh: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        memo.lookup(&buf).1
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap() as usize)
                .sum()
        });
        assert_eq!(fresh, 1);
    }

    #[test]
    fn held_windows_are_hashed_once_across_memos_and_others_per_memo() {
        let own = Bytes::from(b"image source".to_vec());
        let held = Arc::new(HeldDigests::new([&own]));
        let (first, second) = (
            DigestMemo::over(held.clone()),
            DigestMemo::over(held.clone()),
        );
        assert_eq!(first.lookup(&own), (Digest::of(b"image source"), true));
        assert_eq!(
            second.lookup(&own.clone()),
            (Digest::of(b"image source"), false)
        );

        // A window outside the held set is one memo's own: hashed again by
        // the next memo, and never added to the held table.
        let extra = Bytes::from(b"profile".to_vec());
        assert!(first.lookup(&extra).1);
        assert!(!first.lookup(&extra).1);
        assert!(second.lookup(&extra).1);
        assert_eq!((held.len(), held.pinned_bytes()), (1, 12));
    }
}
