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
//! The digest itself is computed outside the map's lock, once per entry:
//! two threads asking for the same window at once hash it once.

use bytes::Bytes;
use comt_digest::Digest;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One window seen by the memo, and its digest once computed.
#[derive(Debug)]
struct Entry {
    /// Pins the allocation (see the module docs).
    bytes: Bytes,
    digest: OnceLock<Digest>,
}

/// SHA-256 digests of [`Bytes`] windows, computed once per window.
#[derive(Debug, Default)]
pub struct DigestMemo {
    entries: Mutex<HashMap<(usize, usize), Arc<Entry>>>,
}

impl DigestMemo {
    /// `Digest::of(bytes)`, hashed at most once per window.
    pub fn of(&self, bytes: &Bytes) -> Digest {
        self.lookup(bytes).0
    }

    /// `Digest::of(bytes)` and whether this call computed it (`false`: the
    /// digest was already known, or another thread computed it while this
    /// one waited).
    pub fn lookup(&self, bytes: &Bytes) -> (Digest, bool) {
        let entry = {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            entries
                .entry((bytes.as_ptr() as usize, bytes.len()))
                .or_insert_with(|| {
                    Arc::new(Entry {
                        bytes: bytes.clone(),
                        digest: OnceLock::new(),
                    })
                })
                .clone()
        };
        let mut computed = false;
        let digest = *entry.digest.get_or_init(|| {
            computed = true;
            Digest::of(&entry.bytes)
        });
        (digest, computed)
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
}
