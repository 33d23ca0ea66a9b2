//! `ChunkMap::from_json` reads bytes a peer wrote: the daemon on every
//! chunkmap PUT, the client on every delta pull. It must cost time linear
//! in the map (a 1 GiB layer's map is ≈6.5 MB of JSON) and answer hostile
//! maps with an error, never a panic or a map that breaks its guarantees.

use comt_chunk::{ChunkEntry, ChunkMap, ChunkParams, CHUNKMAP_VERSION, MEDIA_TYPE_CHUNKMAP};
use comt_digest::Digest;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// The map `ChunkMap::build` gives a layer of `blob_size` bytes under the
/// default parameters (≈16 KiB chunks), without hashing the layer: chunk
/// sizes and digests come from a counter.
fn map_of_a_layer(blob_size: u64) -> ChunkMap {
    let params = ChunkParams::default();
    let mut chunks = Vec::new();
    let mut offset = 0u64;
    while offset < blob_size {
        let wanted =
            params.min + (chunks.len() as u32).wrapping_mul(2_654_435_761) % (6 * params.min);
        let size = u64::from(wanted).min(blob_size - offset) as u32;
        chunks.push(ChunkEntry {
            offset,
            size,
            digest: Digest::of(&offset.to_le_bytes()).to_oci_string(),
        });
        offset += u64::from(size);
    }
    ChunkMap {
        schema_version: CHUNKMAP_VERSION,
        media_type: MEDIA_TYPE_CHUNKMAP.to_string(),
        blob_digest: Digest::of(b"layer").to_oci_string(),
        blob_size,
        params,
        chunks,
    }
}

/// 406 KB of JSON: 1.61 s with the quadratic string scan, ≈3 ms without.
/// The budget only means something optimised; a debug build gets slack.
#[test]
fn the_map_of_a_64_mib_layer_parses_in_milliseconds() {
    let map = map_of_a_layer(64 << 20);
    let json = map.to_json();
    assert!(
        json.len() > 350_000,
        "{} bytes is not a 64 MiB layer's map",
        json.len()
    );
    let fastest = (0..5)
        .map(|_| {
            let t = Instant::now();
            let back = ChunkMap::from_json(std::hint::black_box(&json)).expect("own output");
            let took = t.elapsed();
            assert_eq!(back, map);
            took
        })
        .min()
        .expect("five runs");
    let budget = Duration::from_millis(if cfg!(debug_assertions) { 1000 } else { 50 });
    assert!(
        fastest < budget,
        "from_json took {fastest:?} for {} bytes",
        json.len()
    );
}

/// Maps of eight small layers (a handful of chunks, about 1 KB of JSON)
/// for the fuzz loops to edit.
fn small_map_json(which: usize) -> Vec<u8> {
    map_of_a_layer((which as u64 + 3) * 20_000).to_json()
}

/// One edit of the serialized map. Positions are drawn per document.
#[derive(Debug, Clone)]
enum Edit {
    Set(prop::sample::Index, u8),
    Insert(prop::sample::Index, u8),
    Delete(prop::sample::Index),
    Truncate(prop::sample::Index),
    /// Copy a short slice somewhere else: repeated keys, entries, brackets.
    Splice(prop::sample::Index, prop::sample::Index, usize),
    /// White space after a `,` or `:` — harmless between tokens, which is
    /// what gets a mutant past the parser; inside a digest it is not.
    Pad(prop::sample::Index),
}

fn edit() -> impl Strategy<Value = Edit> {
    // Bytes that mean something to the parser, or nothing at all.
    let byte = || {
        prop_oneof![
            any::<u8>(),
            (0usize..20).prop_map(|i| b"\"\\{}[]:,-0 \n\t7afeu\xc3\x00"[i]),
        ]
    };
    let at = any::<prop::sample::Index>;
    prop_oneof![
        (at(), byte()).prop_map(|(i, b)| Edit::Set(i, b)),
        (at(), byte()).prop_map(|(i, b)| Edit::Insert(i, b)),
        at().prop_map(Edit::Delete),
        at().prop_map(Edit::Truncate),
        (at(), at(), 1usize..40).prop_map(|(from, to, len)| Edit::Splice(from, to, len)),
        at().prop_map(Edit::Pad),
    ]
}

fn apply(doc: &mut Vec<u8>, edit: &Edit) {
    let len = doc.len();
    if len == 0 {
        return;
    }
    match edit {
        Edit::Set(i, b) => doc[i.index(len)] = *b,
        Edit::Insert(i, b) => doc.insert(i.index(len + 1), *b),
        Edit::Delete(i) => drop(doc.remove(i.index(len))),
        Edit::Truncate(i) => doc.truncate(i.index(len)),
        Edit::Splice(from, to, n) => {
            let from = from.index(len);
            let slice = doc[from..(from + n).min(len)].to_vec();
            let to = to.index(len + 1);
            doc.splice(to..to, slice);
        }
        Edit::Pad(i) => {
            let seams: Vec<usize> = (0..len)
                .filter(|&i| matches!(doc[i], b',' | b':'))
                .collect();
            if !seams.is_empty() {
                doc.insert(seams[i.index(seams.len())] + 1, b' ');
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A valid map with a few bytes edited is refused, or is a map that
    /// keeps every structural guarantee and whose own encoding parses back
    /// to it, byte for byte stable.
    #[test]
    fn mutated_maps_error_or_round_trip(
        which in 0usize..8,
        edits in prop::collection::vec(edit(), 1..4),
    ) {
        let mut doc = small_map_json(which);
        for e in &edits {
            apply(&mut doc, e);
        }
        if let Ok(map) = ChunkMap::from_json(&doc) {
            prop_assert!(map.validate_structure().is_ok());
            let canonical = map.to_json();
            let back = ChunkMap::from_json(&canonical).expect("own output");
            prop_assert_eq!(&back, &map);
            prop_assert_eq!(back.to_json(), canonical);
        }
    }

    /// Edits that keep the map valid — another hex digit inside a chunk
    /// digest — are accepted and encode back to exactly the bytes received,
    /// which is why the client may count the body it got as the wire bytes.
    #[test]
    fn valid_maps_round_trip_to_the_bytes_received(
        which in 0usize..8,
        swaps in prop::collection::vec((any::<prop::sample::Index>(), 0usize..16), 1..8),
    ) {
        let mut doc = small_map_json(which);
        let hex_digits: Vec<usize> = doc
            .windows(7)
            .enumerate()
            .filter(|(_, w)| w == b"sha256:")
            .flat_map(|(i, _)| i + 7..i + 7 + 64)
            .collect();
        for (at, digit) in swaps {
            doc[hex_digits[at.index(hex_digits.len())]] = b"0123456789abcdef"[digit];
        }
        let map = ChunkMap::from_json(&doc).expect("still a valid map");
        prop_assert_eq!(map.to_json(), doc);
    }
}
