//! Byte-budgeted hot-blob LRU in front of the registry backend.
//!
//! Pull traffic on a registry is wildly skewed: every node in a cluster
//! fetches the same handful of layer blobs. The serve path consults this
//! cache before touching the backend store, so a hot layer is read (and
//! digest-verified) from disk **once** and every concurrent GET afterwards
//! clones a refcounted [`Bytes`] — no file I/O, no re-hash, no copies.
//!
//! Properties:
//!
//! * **Byte budget.** Total cached bytes never exceed the configured
//!   budget; admission evicts least-recently-used entries to make room.
//!   Entries larger than [`HotBlobCache::max_entry`] are never admitted —
//!   huge layers stream from disk instead of monopolizing the cache.
//! * **Verify-on-admit.** The loader's bytes are hashed against the
//!   digest key before becoming visible; a poisoned disk blob is rejected
//!   (and counted), never cached, never served. A caller whose store
//!   holds a proof for the digest (the store wrote the blob itself)
//!   loads without the re-hash.
//! * **Single-flight loads.** Concurrent misses on one digest coalesce:
//!   one caller runs the loader, the rest block on a condvar and share
//!   the result. A thousand first-touch pullers cost one disk read.

use bytes::Bytes;
use comt_digest::Digest;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use comt_oci::{StoreError, Verified};

/// What the cache holds now; its events are the `dist.cache.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub entries: u64,
    pub bytes: u64,
    pub budget: u64,
}

#[derive(Default)]
struct Lru {
    /// digest → (bytes, recency stamp)
    map: HashMap<Digest, (Bytes, u64)>,
    /// recency stamp → digest (BTreeMap iteration order = LRU order)
    order: std::collections::BTreeMap<u64, Digest>,
    bytes: u64,
    next_stamp: u64,
}

impl Lru {
    fn touch(&mut self, d: &Digest) -> Option<Bytes> {
        let stamp = self.next_stamp;
        let (data, old) = self.map.get_mut(d).map(|(b, s)| {
            let old = *s;
            *s = stamp;
            (b.clone(), old)
        })?;
        self.next_stamp += 1;
        self.order.remove(&old);
        self.order.insert(stamp, *d);
        Some(data)
    }

    fn insert(&mut self, d: Digest, data: Bytes, budget: u64) -> u64 {
        if self.map.contains_key(&d) {
            // Lost a race with another loader; keep the existing entry.
            return 0;
        }
        let mut evicted = 0u64;
        while self.bytes + data.len() as u64 > budget {
            let Some((&stamp, &victim)) = self.order.iter().next() else {
                break;
            };
            self.order.remove(&stamp);
            if let Some((b, _)) = self.map.remove(&victim) {
                self.bytes -= b.len() as u64;
                evicted += 1;
            }
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.bytes += data.len() as u64;
        self.order.insert(stamp, d);
        self.map.insert(d, (data, stamp));
        evicted
    }
}

/// One in-flight load, shared by the leader and any waiting followers.
struct Flight {
    /// The leader's verified bytes, or whether its failure was the store's
    /// fault (followers retry) rather than corrupt bytes (they fail too).
    done: Mutex<Option<Result<Bytes, bool>>>,
    cv: Condvar,
}

/// The cache. All methods take `&self`; shared across loop/worker threads
/// behind an `Arc`.
pub struct HotBlobCache {
    budget: u64,
    lru: Mutex<Lru>,
    inflight: Mutex<HashMap<Digest, Arc<Flight>>>,
}

impl std::fmt::Debug for HotBlobCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("HotBlobCache")
            .field("budget", &s.budget)
            .field("bytes", &s.bytes)
            .field("entries", &s.entries)
            .finish()
    }
}

impl HotBlobCache {
    /// A cache holding at most `budget` bytes. A budget of 0 disables
    /// caching entirely (every lookup is a miss, nothing is admitted).
    pub fn new(budget: u64) -> HotBlobCache {
        HotBlobCache {
            budget,
            lru: Mutex::new(Lru::default()),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Largest blob the cache will admit: a quarter of the budget, so one
    /// giant layer cannot wipe the whole working set. Anything bigger
    /// streams from its backing file instead.
    pub fn max_entry(&self) -> u64 {
        self.budget / 4
    }

    /// Whether a blob of `len` bytes is cache-eligible.
    pub fn admits(&self, len: u64) -> bool {
        len <= self.max_entry() && len > 0
    }

    /// Cache-only lookup (no load). Counts a hit or nothing — `get` is
    /// used on paths (range GETs) that must not trigger whole-blob loads.
    pub fn get(&self, d: &Digest) -> Option<Bytes> {
        let found = self.lru.lock().unwrap_or_else(|e| e.into_inner()).touch(d);
        if found.is_some() {
            comt_observe::global().count("dist.cache.hits", 1);
        }
        found
    }

    /// Look up `d`, or load it with `loader` under single-flight: however
    /// many callers race here, the loader runs once and its verified bytes
    /// are shared. Unless `proven` — the caller's store holds its own
    /// proof that the stored bytes hash to `d` — the loaded content is
    /// hashed against `d` before admission or return (verify-on-admit): a
    /// loader that produces corrupt bytes yields `DigestMismatch` for every
    /// waiter.
    pub fn get_or_load(
        &self,
        d: &Digest,
        proven: bool,
        loader: impl FnOnce() -> Result<Bytes, StoreError>,
    ) -> Result<Bytes, StoreError> {
        if let Some(b) = self.get(d) {
            return Ok(b);
        }
        comt_observe::global().count("dist.cache.misses", 1);
        loop {
            // Join an existing flight or become the leader.
            let (flight, leader) = {
                let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
                match inflight.get(d) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        // Re-check under the lock: a flight that loaded
                        // between our miss and here admitted its bytes
                        // *before* retiring (same thread, and this mutex
                        // orders us after the retire) — take them instead
                        // of loading the blob a second time.
                        if let Some(b) =
                            self.lru.lock().unwrap_or_else(|e| e.into_inner()).touch(d)
                        {
                            return Ok(b);
                        }
                        let f = Arc::new(Flight {
                            done: Mutex::new(None),
                            cv: Condvar::new(),
                        });
                        inflight.insert(*d, Arc::clone(&f));
                        (f, true)
                    }
                }
            };
            if !leader {
                let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
                while done.is_none() {
                    done = flight.cv.wait(done).unwrap_or_else(|e| e.into_inner());
                }
                match done.as_ref().expect("flight resolved") {
                    Ok(b) => return Ok(b.clone()),
                    // The leader failed; surface the same mismatch. (A
                    // storage error retries as a fresh flight instead.)
                    Err(false) => return Err(StoreError::DigestMismatch(d.to_string())),
                    Err(true) => continue,
                }
            }
            // Leader: run the loader outside every lock.
            let result = loader().and_then(|data| {
                if proven {
                    return Ok(data);
                }
                Verified::check(*d, data)
                    .map(Verified::into_bytes)
                    .inspect_err(|_| comt_observe::global().count("dist.cache.rejected", 1))
            });
            if let Ok(data) = &result {
                if self.admits(data.len() as u64) {
                    let evicted = self
                        .lru
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(*d, data.clone(), self.budget);
                    if evicted > 0 {
                        comt_observe::global().count("dist.cache.evictions", evicted);
                    }
                }
            }
            // Publish to followers, then retire the flight.
            {
                let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
                *done = Some(match &result {
                    Ok(b) => Ok(b.clone()),
                    Err(e) => Err(e.is_store_fault()),
                });
                flight.cv.notify_all();
            }
            self.inflight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(d);
            return result;
        }
    }

    pub fn stats(&self) -> CacheStats {
        let lru = self.lru.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            entries: lru.map.len() as u64,
            bytes: lru.bytes,
            budget: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn blob(seed: u8, len: usize) -> (Digest, Bytes) {
        let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add((i % 251) as u8)).collect();
        let b = Bytes::from(data);
        (Digest::of(&b), b)
    }

    #[test]
    fn byte_budget_evicts_in_lru_order() {
        // Budget 4000, max entry 1000: four 900-byte blobs fit, a fifth
        // evicts the least recently *used* (not least recently inserted).
        let cache = HotBlobCache::new(4000);
        assert_eq!(cache.max_entry(), 1000);
        let blobs: Vec<_> = (0..5).map(|i| blob(i as u8, 900)).collect();
        for (d, b) in blobs.iter().take(4) {
            cache.get_or_load(d, false, || Ok(b.clone())).unwrap();
        }
        // Touch blob 0 so blob 1 becomes the LRU victim.
        assert!(cache.get(&blobs[0].0).is_some());
        cache
            .get_or_load(&blobs[4].0, false, || Ok(blobs[4].1.clone()))
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert!(cache.get(&blobs[1].0).is_none(), "LRU victim survived");
        for i in [0usize, 2, 3, 4] {
            assert!(cache.get(&blobs[i].0).is_some(), "blob {i} evicted wrongly");
        }
        assert!(stats.bytes <= stats.budget);
    }

    #[test]
    fn oversized_entries_stream_instead_of_caching() {
        let cache = HotBlobCache::new(4000);
        let (d, b) = blob(7, 2000); // > max_entry (1000)
        assert!(!cache.admits(b.len() as u64));
        let got = cache.get_or_load(&d, false, || Ok(b.clone())).unwrap();
        assert_eq!(got, b);
        assert_eq!(cache.stats().entries, 0, "oversized blob admitted");
        // Zero budget disables caching entirely.
        let off = HotBlobCache::new(0);
        assert!(!off.admits(1));
        off.get_or_load(&d, false, || Ok(b.clone())).unwrap();
        assert_eq!(off.stats().entries, 0);
    }

    #[test]
    fn verify_on_admit_rejects_poisoned_loader() {
        let cache = HotBlobCache::new(1 << 20);
        let (d, _) = blob(1, 512);
        let err = cache
            .get_or_load(&d, false, || Ok(Bytes::from_static(b"bitrot")))
            .unwrap_err();
        assert!(matches!(err, StoreError::DigestMismatch(_)));
        assert_eq!(cache.stats().entries, 0, "poisoned bytes cached");
        assert!(cache.get(&d).is_none());
    }

    #[test]
    fn concurrent_misses_single_flight_one_load() {
        let cache = Arc::new(HotBlobCache::new(1 << 20));
        let (d, b) = blob(3, 4096);
        let loads = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let loads = Arc::clone(&loads);
                    let b = b.clone();
                    s.spawn(move || {
                        cache
                            .get_or_load(&d, false, || {
                                loads.fetch_add(1, Ordering::SeqCst);
                                // Widen the race window so followers pile up.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                Ok(b.clone())
                            })
                            .unwrap()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), b);
            }
        });
        assert_eq!(loads.load(Ordering::SeqCst), 1, "loader ran more than once");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn storage_errors_are_not_sticky() {
        let cache = HotBlobCache::new(1 << 20);
        let (d, b) = blob(9, 256);
        let err = cache
            .get_or_load(&d, false, || Err(StoreError::Io(std::io::Error::other("disk on fire"))))
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        // A later attempt with a healthy loader succeeds and caches.
        assert_eq!(cache.get_or_load(&d, false, || Ok(b.clone())).unwrap(), b);
        assert_eq!(cache.stats().entries, 1);
    }
}
