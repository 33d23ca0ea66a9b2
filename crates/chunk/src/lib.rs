//! Content-defined chunking for sub-layer dedupe.
//!
//! Layer blobs are split at content-defined boundaries found by a gear
//! rolling hash, so an edit in the middle of a tar moves at most a bounded
//! neighborhood of boundaries (locality) while everything before and after
//! re-aligns to the same chunks. A [`ChunkMap`] records the ordered chunk
//! spans of one blob and travels as a normal content-addressed blob under
//! [`MEDIA_TYPE_CHUNKMAP`]; a client that already holds related blobs builds
//! a [`ChunkIndex`] over them (from their maps where it has them) and a
//! [`DeltaPlan`] that names exactly which byte ranges it still needs from
//! the wire.
//!
//! Everything here is pure integer arithmetic over fixed tables — no RNG, no
//! floats, no platform-dependent behavior — so the same bytes chunk the same
//! way on every host, which is what makes chunk digests a cross-machine
//! dedupe currency.

use comt_digest::Digest;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Media type of a serialized [`ChunkMap`] blob.
pub const MEDIA_TYPE_CHUNKMAP: &str = "application/vnd.comt.chunkmap.v1+json";

/// Schema version emitted and accepted by this implementation.
pub const CHUNKMAP_VERSION: u32 = 1;

/// Index-descriptor annotation naming the layer blob a chunkmap describes.
pub const ANNOTATION_CHUNKMAP_LAYER: &str = "org.comtainer.chunkmap.layer";

// ---------------------------------------------------------------------------
// Gear table
// ---------------------------------------------------------------------------

/// splitmix64 step — const-evaluable, so the gear table is baked into the
/// binary and identical on every platform.
const fn splitmix64(state: u64) -> (u64, u64) {
    let state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (state, z ^ (z >> 31))
}

const GEAR_SEED: u64 = 0x636f_4d74_6169_6e65; // "coMtaine"

const fn build_gear() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state = GEAR_SEED;
    let mut i = 0;
    while i < 256 {
        let (next, value) = splitmix64(state);
        state = next;
        table[i] = value;
        i += 1;
    }
    table
}

/// 256-entry mixing table for the gear hash, derived from a fixed seed.
pub const GEAR: [u64; 256] = build_gear();

// ---------------------------------------------------------------------------
// Parameters
// ---------------------------------------------------------------------------

/// Chunking bounds. `avg_bits` sets the cut-point density: a boundary is
/// declared where the low `avg_bits` bits of the rolling hash are zero, so
/// the expected chunk size is roughly `min + 2^avg_bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkParams {
    /// No chunk (except the final one) is smaller than this.
    pub min: u32,
    /// Boundary mask width; expected chunk size ≈ `min + 2^avg_bits`.
    pub avg_bits: u32,
    /// Hard upper bound; a cut is forced at this length.
    pub max: u32,
}

impl Default for ChunkParams {
    fn default() -> Self {
        ChunkParams {
            min: 4 * 1024,
            avg_bits: 14, // ~16 KiB beyond min
            max: 64 * 1024,
        }
    }
}

impl ChunkParams {
    pub fn validate(&self) -> Result<(), ChunkError> {
        if self.min == 0 || self.max < self.min || self.avg_bits == 0 || self.avg_bits > 30 {
            return Err(ChunkError::BadParams(*self));
        }
        Ok(())
    }

    fn mask(&self) -> u64 {
        (1u64 << self.avg_bits) - 1
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub enum ChunkError {
    BadParams(ChunkParams),
    BadJson(String),
    /// Structural invariant broken: version/media-type mismatch, spans not
    /// contiguous from zero, span larger than `max`, digest unparseable.
    Malformed(String),
    /// The map is structurally fine but disagrees with the actual bytes.
    Mismatch(String),
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::BadParams(p) => write!(f, "invalid chunk params: {p:?}"),
            ChunkError::BadJson(e) => write!(f, "chunkmap is not valid JSON: {e}"),
            ChunkError::Malformed(e) => write!(f, "malformed chunkmap: {e}"),
            ChunkError::Mismatch(e) => write!(f, "chunkmap disagrees with blob: {e}"),
        }
    }
}

impl std::error::Error for ChunkError {}

// ---------------------------------------------------------------------------
// Boundary finder
// ---------------------------------------------------------------------------

/// Split `data` into contiguous half-open spans at content-defined
/// boundaries. Deterministic, single pass, no allocation beyond the output.
///
/// The rolling hash restarts at each chunk start, so a boundary depends only
/// on the bytes of its own chunk — an edit can invalidate the chunk it lands
/// in (and, through the moved start position, a bounded run after it), but
/// never chunks that end before it.
///
/// Only offsets from `min - 1` on are tested, and each step shifts the
/// 64-bit hash left by one, so a byte more than 63 positions back has left
/// it by then: the hash starts 64 bytes before the first tested offset,
/// never at the chunk start, and finds the same boundaries.
pub fn chunk_spans(data: &[u8], params: ChunkParams) -> Vec<(usize, usize)> {
    debug_assert!(params.validate().is_ok());
    let (min, max) = (params.min as usize, params.max as usize);
    let mask = params.mask();
    let mut spans = Vec::with_capacity(data.len() / (min + (1usize << params.avg_bits)) + 1);
    let mut start = 0usize;
    while start < data.len() {
        let remaining = data.len() - start;
        let end = if remaining <= min {
            data.len()
        } else {
            let chunk = &data[start..start + remaining.min(max)];
            let first_test = (min.max(1) - 1).min(chunk.len());
            let mut h: u64 = 0;
            for &b in &chunk[first_test.saturating_sub(u64::BITS as usize - 1)..first_test] {
                h = (h << 1).wrapping_add(GEAR[b as usize]);
            }
            let mut cut = chunk.len();
            for (i, &b) in chunk.iter().enumerate().skip(first_test) {
                h = (h << 1).wrapping_add(GEAR[b as usize]);
                if (h & mask) == 0 {
                    cut = i + 1;
                    break;
                }
            }
            start + cut
        };
        spans.push((start, end));
        start = end;
    }
    spans
}

// ---------------------------------------------------------------------------
// Chunk manifest
// ---------------------------------------------------------------------------

/// One chunk: a byte span of the layer blob plus its content digest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkEntry {
    pub offset: u64,
    pub size: u32,
    /// `sha256:<hex>` string form (kept as string for spec fidelity).
    pub digest: String,
}

impl ChunkEntry {
    pub fn parsed_digest(&self) -> Result<Digest, ChunkError> {
        self.digest
            .parse()
            .map_err(|_| ChunkError::Malformed(format!("bad chunk digest {:?}", self.digest)))
    }

    /// Half-open byte range of this chunk within the blob.
    pub fn span(&self) -> (u64, u64) {
        (self.offset, self.offset + self.size as u64)
    }
}

/// The chunk manifest of one blob: ordered chunk digests + offsets, plus the
/// identity of the blob they reassemble into. Serialized as
/// [`MEDIA_TYPE_CHUNKMAP`] JSON and stored as a normal content-addressed
/// blob.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkMap {
    #[serde(rename = "schemaVersion")]
    pub schema_version: u32,
    #[serde(rename = "mediaType")]
    pub media_type: String,
    /// Digest of the (uncompressed-on-the-wire) layer blob the chunks span.
    #[serde(rename = "blobDigest")]
    pub blob_digest: String,
    #[serde(rename = "blobSize")]
    pub blob_size: u64,
    pub params: ChunkParams,
    pub chunks: Vec<ChunkEntry>,
}

/// The blob a [`ChunkMap`] describes: its bytes and the address they have.
/// From bare bytes (`&data`) the address is computed; a caller that already
/// holds a proof of it — a store admission — passes `(digest, &data[..])`
/// so the layer is not hashed a second time.
#[derive(Debug, Clone, Copy)]
pub struct Blob<'a> {
    digest: Digest,
    data: &'a [u8],
}

impl<'a, T: AsRef<[u8]> + ?Sized> From<&'a T> for Blob<'a> {
    fn from(data: &'a T) -> Self {
        let data = data.as_ref();
        Blob {
            digest: Digest::of(data),
            data,
        }
    }
}

impl<'a> From<(Digest, &'a [u8])> for Blob<'a> {
    fn from((digest, data): (Digest, &'a [u8])) -> Self {
        Blob { digest, data }
    }
}

impl ChunkMap {
    /// Chunk a blob and record every span's digest. The map's
    /// `blobDigest` is the blob's address as [`Blob`] carries it; the only
    /// bytes hashed here are the chunks.
    pub fn build<'a>(
        blob: impl Into<Blob<'a>>,
        params: ChunkParams,
    ) -> Result<ChunkMap, ChunkError> {
        params.validate()?;
        let Blob { digest, data } = blob.into();
        let chunks = chunk_spans(data, params)
            .into_iter()
            .map(|(s, e)| ChunkEntry {
                offset: s as u64,
                size: (e - s) as u32,
                digest: Digest::of(&data[s..e]).to_oci_string(),
            })
            .collect();
        Ok(ChunkMap {
            schema_version: CHUNKMAP_VERSION,
            media_type: MEDIA_TYPE_CHUNKMAP.to_string(),
            blob_digest: digest.to_oci_string(),
            blob_size: data.len() as u64,
            params,
            chunks,
        })
    }

    pub fn parsed_blob_digest(&self) -> Result<Digest, ChunkError> {
        self.blob_digest
            .parse()
            .map_err(|_| ChunkError::Malformed(format!("bad blob digest {:?}", self.blob_digest)))
    }

    pub fn to_json(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("chunkmap serialization is infallible")
            .into_bytes()
    }

    /// Parse and structurally validate a chunkmap blob. Guarantees: known
    /// version and media type, valid params, spans contiguous from zero
    /// covering exactly `blob_size`, every span within `max`, every digest
    /// parseable. Does NOT compare against blob bytes — see
    /// [`ChunkMap::verify_layer`].
    pub fn from_json(bytes: &[u8]) -> Result<ChunkMap, ChunkError> {
        let text =
            std::str::from_utf8(bytes).map_err(|e| ChunkError::BadJson(e.to_string()))?;
        let map: ChunkMap =
            serde_json::from_str(text).map_err(|e| ChunkError::BadJson(e.to_string()))?;
        map.validate_structure()?;
        Ok(map)
    }

    pub fn validate_structure(&self) -> Result<(), ChunkError> {
        if self.schema_version != CHUNKMAP_VERSION {
            return Err(ChunkError::Malformed(format!(
                "unsupported schemaVersion {}",
                self.schema_version
            )));
        }
        if self.media_type != MEDIA_TYPE_CHUNKMAP {
            return Err(ChunkError::Malformed(format!(
                "unexpected mediaType {:?}",
                self.media_type
            )));
        }
        self.params.validate()?;
        self.parsed_blob_digest()?;
        let mut expect = 0u64;
        for (i, c) in self.chunks.iter().enumerate() {
            if c.offset != expect {
                return Err(ChunkError::Malformed(format!(
                    "chunk {i} starts at {} but previous ended at {expect}",
                    c.offset
                )));
            }
            if c.size == 0 || c.size > self.params.max {
                return Err(ChunkError::Malformed(format!(
                    "chunk {i} has size {} outside (0, {}]",
                    c.size, self.params.max
                )));
            }
            c.parsed_digest()?;
            expect += c.size as u64;
        }
        if expect != self.blob_size {
            return Err(ChunkError::Malformed(format!(
                "chunks cover {expect} bytes but blobSize is {}",
                self.blob_size
            )));
        }
        Ok(())
    }

    /// Deep check: the map must describe exactly these bytes — whole-blob
    /// digest, length, and every per-chunk digest.
    pub fn verify_layer(&self, data: &[u8]) -> Result<(), ChunkError> {
        self.validate_structure()?;
        if data.len() as u64 != self.blob_size {
            return Err(ChunkError::Mismatch(format!(
                "blob is {} bytes, map says {}",
                data.len(),
                self.blob_size
            )));
        }
        if Digest::of(data) != self.parsed_blob_digest()? {
            return Err(ChunkError::Mismatch("blob digest mismatch".to_string()));
        }
        for (i, c) in self.chunks.iter().enumerate() {
            let (s, e) = c.span();
            if Digest::of(&data[s as usize..e as usize]) != c.parsed_digest()? {
                return Err(ChunkError::Mismatch(format!("chunk {i} digest mismatch")));
            }
        }
        Ok(())
    }

    /// Total bytes across all chunks (== `blob_size` for a valid map).
    pub fn total_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.size as u64).sum()
    }
}

// ---------------------------------------------------------------------------
// Local chunk index
// ---------------------------------------------------------------------------

/// Where a chunk's bytes can be found locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSource {
    /// Digest of the local blob holding the bytes.
    pub blob: Digest,
    pub offset: u64,
    pub size: u32,
}

/// Chunk digest → local location over blobs a client already holds, each
/// indexed from its published [`ChunkMap`] or by chunking its bytes.
/// Rebuilt on demand — never persisted — so it can't go stale.
#[derive(Debug, Default)]
pub struct ChunkIndex {
    by_digest: HashMap<Digest, ChunkSource>,
    blobs: usize,
}

impl ChunkIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Chunk one local blob and index every span. First writer wins on
    /// digest collisions across blobs (the bytes are identical anyway).
    pub fn add_blob(&mut self, blob: Digest, data: &[u8], params: ChunkParams) {
        for (s, e) in chunk_spans(data, params) {
            self.insert(Digest::of(&data[s..e]), blob, s as u64, (e - s) as u32);
        }
        self.blobs += 1;
    }

    /// Index a local blob of `len` bytes from its map instead of its bytes.
    /// The map must be structurally valid, name `blob` and cover exactly
    /// `len` bytes, so every entry stays inside the blob; on error the
    /// index is unchanged. Whether the bytes really hold those chunks is
    /// not checked here — a reader verifies what it assembles from them.
    pub fn add_map(&mut self, blob: Digest, len: u64, map: &ChunkMap) -> Result<(), ChunkError> {
        map.validate_structure()?;
        if map.parsed_blob_digest()? != blob {
            return Err(ChunkError::Mismatch(format!(
                "map describes {}, not {blob}",
                map.blob_digest
            )));
        }
        if map.blob_size != len {
            return Err(ChunkError::Mismatch(format!(
                "blob is {len} bytes, map says {}",
                map.blob_size
            )));
        }
        // `validate_structure` parsed every digest: no `?` below stops half way.
        for c in &map.chunks {
            self.insert(c.parsed_digest()?, blob, c.offset, c.size);
        }
        self.blobs += 1;
        Ok(())
    }

    fn insert(&mut self, digest: Digest, blob: Digest, offset: u64, size: u32) {
        self.by_digest
            .entry(digest)
            .or_insert(ChunkSource { blob, offset, size });
    }

    pub fn lookup(&self, digest: &Digest) -> Option<&ChunkSource> {
        self.by_digest.get(digest)
    }

    pub fn len(&self) -> usize {
        self.by_digest.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_digest.is_empty()
    }

    /// Number of blobs indexed so far.
    pub fn blob_count(&self) -> usize {
        self.blobs
    }
}

// ---------------------------------------------------------------------------
// Delta plan
// ---------------------------------------------------------------------------

/// A coalesced wire fetch: one half-open byte range of the remote blob,
/// covering the chunk indices `chunks.0 .. chunks.1` of the map (missing
/// chunks plus any small locally-known gaps that were cheaper to re-fetch
/// than to split the request over).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePlan {
    pub start: u64,
    pub end: u64,
    /// Half-open range of chunk indices this byte range spans.
    pub chunks: (usize, usize),
}

impl RangePlan {
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// The outcome of diffing a remote [`ChunkMap`] against a local
/// [`ChunkIndex`]: which chunks are already on disk and which byte ranges
/// must travel.
#[derive(Debug, Clone)]
pub struct DeltaPlan {
    /// Per chunk of the map: the local source, or `None` if it must be
    /// fetched.
    pub sources: Vec<Option<ChunkSource>>,
    /// Coalesced wire ranges covering every missing chunk, in blob order.
    pub ranges: Vec<RangePlan>,
    /// Bytes satisfied locally (not counting gap chunks re-fetched inside a
    /// coalesced range).
    pub bytes_local: u64,
    /// Bytes that must travel — the sum of all range lengths.
    pub bytes_fetched: u64,
}

impl DeltaPlan {
    pub fn chunks_hit(&self) -> usize {
        self.sources.iter().filter(|s| s.is_some()).count()
    }

    pub fn chunks_missing(&self) -> usize {
        self.sources.len() - self.chunks_hit()
    }
}

/// Default coalescing slack: a locally-present run shorter than this, caught
/// between two missing chunks, is re-fetched as part of one Range request
/// instead of splitting it in two. Request overhead beats a few KiB of
/// redundant payload.
pub const DEFAULT_COALESCE_GAP: u64 = 8 * 1024;

/// Diff `map` against `index`, coalescing missing chunks whose separation is
/// at most `coalesce_gap` bytes into single wire ranges.
pub fn plan_delta(map: &ChunkMap, index: &ChunkIndex, coalesce_gap: u64) -> DeltaPlan {
    let sources: Vec<Option<ChunkSource>> = map
        .chunks
        .iter()
        .map(|c| {
            let d = c.parsed_digest().ok()?;
            index
                .lookup(&d)
                .filter(|src| src.size == c.size)
                .copied()
        })
        .collect();

    let mut ranges: Vec<RangePlan> = Vec::new();
    for (i, (chunk, src)) in map.chunks.iter().zip(&sources).enumerate() {
        if src.is_some() {
            continue;
        }
        let (s, e) = chunk.span();
        match ranges.last_mut() {
            Some(last) if s.saturating_sub(last.end) <= coalesce_gap => {
                last.end = e;
                last.chunks.1 = i + 1;
            }
            _ => ranges.push(RangePlan {
                start: s,
                end: e,
                chunks: (i, i + 1),
            }),
        }
    }

    let bytes_fetched: u64 = ranges.iter().map(RangePlan::len).sum();
    let bytes_local = map.blob_size.saturating_sub(bytes_fetched);
    DeltaPlan {
        sources,
        ranges,
        bytes_local,
        bytes_fetched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random filler (xorshift64*), matching the bench
    /// harness idiom.
    fn filler(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            out.extend_from_slice(&state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    const P: ChunkParams = ChunkParams {
        min: 1024,
        avg_bits: 12,
        max: 16 * 1024,
    };

    /// The boundary finder as first written: the hash runs from each chunk
    /// start, every offset from `min` on is tested.
    fn reference_spans(data: &[u8], params: ChunkParams) -> Vec<(usize, usize)> {
        let (min, max) = (params.min as usize, params.max as usize);
        let mask = params.mask();
        let mut spans = Vec::new();
        let mut start = 0usize;
        while start < data.len() {
            let remaining = data.len() - start;
            let end = if remaining <= min {
                data.len()
            } else {
                let limit = remaining.min(max);
                let mut h: u64 = 0;
                let mut cut = limit;
                for (i, &b) in data[start..start + limit].iter().enumerate() {
                    h = (h << 1).wrapping_add(GEAR[b as usize]);
                    if i + 1 >= min && (h & mask) == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                start + cut
            };
            spans.push((start, end));
            start = end;
        }
        spans
    }

    #[test]
    fn spans_match_the_reference_finder() {
        let params = [
            ChunkParams::default(),
            P,
            // min < 64: the hash starts at the chunk start, as before.
            ChunkParams {
                min: 1,
                avg_bits: 6,
                max: 512,
            },
            ChunkParams {
                min: 63,
                avg_bits: 8,
                max: 4096,
            },
            ChunkParams {
                min: 64,
                avg_bits: 8,
                max: 4096,
            },
            ChunkParams {
                min: 65,
                avg_bits: 8,
                max: 4096,
            },
            // Dense cuts: the first tested offsets cut often, so a hash
            // started too late shows.
            ChunkParams {
                min: 128,
                avg_bits: 4,
                max: 1024,
            },
            // min == max: every cut is forced.
            ChunkParams {
                min: 2048,
                avg_bits: 10,
                max: 2048,
            },
        ];
        for seed in 1..=6u64 {
            let mut data = filler(300_000 + seed as usize * 7919, seed);
            // Low-entropy runs, where equal hashes are likeliest.
            data[50_000..90_000].fill(0);
            for (i, b) in data[120_000..160_000].iter_mut().enumerate() {
                *b = (i % 7) as u8;
            }
            for p in params {
                assert_eq!(
                    chunk_spans(&data, p),
                    reference_spans(&data, p),
                    "seed {seed}, {p:?}"
                );
            }
        }
    }

    #[test]
    fn index_from_a_map_equals_index_from_the_bytes() {
        let data = filler(400_000, 41);
        let digest = Digest::of(&data);
        let map = ChunkMap::build(&data, P).unwrap();
        let (mut scanned, mut mapped) = (ChunkIndex::new(), ChunkIndex::new());
        scanned.add_blob(digest, &data, P);
        mapped.add_map(digest, data.len() as u64, &map).unwrap();
        assert_eq!(mapped.by_digest, scanned.by_digest);
        assert_eq!(mapped.blob_count(), 1);
    }

    #[test]
    fn add_map_refuses_a_map_of_another_blob_or_length() {
        let data = filler(100_000, 43);
        let digest = Digest::of(&data);
        let map = ChunkMap::build(&data, P).unwrap();
        let mut index = ChunkIndex::new();
        let other = Digest::of(b"other");
        assert!(matches!(
            index.add_map(other, data.len() as u64, &map),
            Err(ChunkError::Mismatch(_))
        ));
        assert!(matches!(
            index.add_map(digest, data.len() as u64 + 1, &map),
            Err(ChunkError::Mismatch(_))
        ));
        let mut torn = map.clone();
        torn.chunks.remove(1);
        assert!(matches!(
            index.add_map(digest, data.len() as u64, &torn),
            Err(ChunkError::Malformed(_))
        ));
        assert!(index.is_empty());
        assert_eq!(index.blob_count(), 0);
    }

    #[test]
    fn gear_table_is_stable() {
        // Golden values: the table must never change across platforms or
        // refactors — chunk digests are a cross-machine dedupe currency.
        assert_eq!(GEAR[0], {
            let (_, v) = splitmix64(GEAR_SEED);
            v
        });
        let mix = GEAR.iter().fold(0u64, |a, &v| a.rotate_left(7) ^ v);
        assert_eq!(mix, 0xfb72_175b_623d_2485, "gear table changed");
    }

    #[test]
    fn spans_cover_exactly() {
        let data = filler(300_000, 7);
        let spans = chunk_spans(&data, P);
        assert_eq!(spans.first().unwrap().0, 0);
        assert_eq!(spans.last().unwrap().1, data.len());
        for w in spans.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn spans_respect_bounds() {
        let data = filler(500_000, 11);
        let spans = chunk_spans(&data, P);
        for (i, (s, e)) in spans.iter().enumerate() {
            let len = e - s;
            assert!(len <= P.max as usize);
            if i + 1 < spans.len() {
                assert!(len >= P.min as usize, "chunk {i} is {len} < min");
            }
        }
        // Sanity: cut density is in the right ballpark, not all max-forced.
        let avg = data.len() / spans.len();
        assert!(avg < P.max as usize, "every cut was max-forced");
    }

    #[test]
    fn tiny_and_empty_inputs() {
        assert!(chunk_spans(&[], P).is_empty());
        assert_eq!(chunk_spans(&[1, 2, 3], P), vec![(0, 3)]);
        let exactly_min = filler(P.min as usize, 3);
        assert_eq!(chunk_spans(&exactly_min, P), vec![(0, P.min as usize)]);
    }

    #[test]
    fn chunkmap_roundtrip_and_verify() {
        let data = filler(200_000, 5);
        let map = ChunkMap::build(&data, P).unwrap();
        assert_eq!(map.total_bytes(), data.len() as u64);
        // An address the caller already holds gives the same map.
        assert_eq!(ChunkMap::build((Digest::of(&data), &data[..]), P).unwrap(), map);
        let json = map.to_json();
        let back = ChunkMap::from_json(&json).unwrap();
        assert_eq!(back, map);
        back.verify_layer(&data).unwrap();

        let mut poisoned = data.clone();
        poisoned[100_000] ^= 0x40;
        assert!(matches!(
            back.verify_layer(&poisoned),
            Err(ChunkError::Mismatch(_))
        ));
    }

    #[test]
    fn from_json_rejects_gaps() {
        let data = filler(50_000, 9);
        let mut map = ChunkMap::build(&data, P).unwrap();
        map.chunks.remove(1);
        let err = ChunkMap::from_json(&map.to_json()).unwrap_err();
        assert!(matches!(err, ChunkError::Malformed(_)), "{err}");
    }

    #[test]
    fn delta_plan_finds_shared_chunks() {
        let v1 = filler(400_000, 21);
        let mut v2 = v1.clone();
        // One "object changed": flip a 2 KiB region in the middle.
        for b in &mut v2[200_000..202_048] {
            *b = !*b;
        }
        let map = ChunkMap::build(&v2, P).unwrap();
        let mut index = ChunkIndex::new();
        index.add_blob(Digest::of(&v1), &v1, P);
        let plan = plan_delta(&map, &index, DEFAULT_COALESCE_GAP);
        assert!(plan.chunks_hit() > 0);
        assert!(plan.bytes_fetched < v2.len() as u64 / 4, "edit re-fetched too much");
        assert_eq!(plan.bytes_fetched + plan.bytes_local, v2.len() as u64);
        // Ranges are ordered, disjoint, and cover every missing chunk.
        for w in plan.ranges.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        for (i, src) in plan.sources.iter().enumerate() {
            if src.is_none() {
                let (s, e) = map.chunks[i].span();
                assert!(
                    plan.ranges.iter().any(|r| r.start <= s && e <= r.end),
                    "missing chunk {i} not covered by any range"
                );
            }
        }
    }

    #[test]
    fn map_bytes_are_pinned() {
        // Chunk digests are a cross-machine currency: a map built today
        // must be byte-identical to one built by any earlier release.
        let data = filler(1 << 20, 31);
        let json = ChunkMap::build(&data, ChunkParams::default())
            .unwrap()
            .to_json();
        assert_eq!(
            Digest::of(&json).to_oci_string(),
            "sha256:b7e0507a90cbd7a154fe3dde1c392088851c2ccc38c42206f293c9cd5905908d"
        );
    }

    #[test]
    fn delta_plan_empty_index_fetches_everything() {
        let data = filler(100_000, 2);
        let map = ChunkMap::build(&data, P).unwrap();
        let plan = plan_delta(&map, &ChunkIndex::new(), DEFAULT_COALESCE_GAP);
        assert_eq!(plan.chunks_hit(), 0);
        assert_eq!(plan.bytes_fetched, data.len() as u64);
        // Fully coalesced: adjacent missing chunks merge into one range.
        assert_eq!(plan.ranges.len(), 1);
    }

    #[test]
    fn identical_blob_fetches_nothing() {
        let data = filler(100_000, 2);
        let map = ChunkMap::build(&data, P).unwrap();
        let mut index = ChunkIndex::new();
        index.add_blob(Digest::of(&data), &data, P);
        let plan = plan_delta(&map, &index, DEFAULT_COALESCE_GAP);
        assert_eq!(plan.chunks_missing(), 0);
        assert_eq!(plan.bytes_fetched, 0);
        assert!(plan.ranges.is_empty());
    }
}
