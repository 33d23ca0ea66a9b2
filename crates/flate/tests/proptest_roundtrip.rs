//! Property tests: compress/decompress is the identity for arbitrary
//! inputs, and the gzip container detects arbitrary corruption: a hostile,
//! mutated or truncated stream never panics `gunzip`, and decodes either to
//! an error or to what was compressed.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn deflate_roundtrip(data in prop::collection::vec(any::<u8>(), 0..8192)) {
        let comp = comt_flate::deflate(&data);
        prop_assert_eq!(comt_flate::inflate(&comp).unwrap(), data);
    }

    #[test]
    fn gzip_roundtrip(data in prop::collection::vec(any::<u8>(), 0..8192)) {
        let gz = comt_flate::gzip(&data);
        prop_assert_eq!(comt_flate::gunzip(&gz).unwrap(), data);
    }

    #[test]
    fn repetitive_input_compresses(
        unit in prop::collection::vec(any::<u8>(), 4..32),
        reps in 100usize..400,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let gz = comt_flate::gzip(&data);
        prop_assert!(gz.len() < data.len() / 2);
        prop_assert_eq!(comt_flate::gunzip(&gz).unwrap(), data);
    }

    #[test]
    fn bit_flips_never_pass_silently(
        data in prop::collection::vec(any::<u8>(), 64..512),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let gz = comt_flate::gzip(&data);
        let mut bad = gz.clone();
        let i = byte_idx.index(bad.len());
        bad[i] ^= 1 << bit;
        match comt_flate::gunzip(&bad) {
            // Either an error…
            Err(_) => {}
            // …or (if the flip hit a dont-care header byte) the original.
            Ok(out) => prop_assert_eq!(out, data),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_and_truncated_streams_err_or_round_trip(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        edits in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>(), 0u8..3), 1..6),
        cut in any::<prop::sample::Index>(),
    ) {
        let gz = comt_flate::gzip(&data);
        prop_assert!(comt_flate::gunzip(&gz[..cut.index(gz.len())]).is_err());
        // A few bytes overwritten, inserted or cut anywhere.
        let mut bad = gz;
        for (at, byte, kind) in edits {
            let at = at.index(bad.len());
            match kind {
                0 => bad[at] = byte,
                1 => bad.insert(at, byte),
                _ => drop(bad.remove(at)),
            }
        }
        if let Ok(out) = comt_flate::gunzip(&bad) {
            prop_assert_eq!(out, data);
        }
    }

    #[test]
    fn hostile_bodies_err_or_round_trip(
        flags in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        // A gzip header with any flags, then bytes that were never deflate.
        let mut stream = vec![0x1f, 0x8b, 8, flags, 0, 0, 0, 0, 0, 255];
        stream.extend_from_slice(&body);
        if let Ok(out) = comt_flate::gunzip(&stream) {
            prop_assert_eq!(comt_flate::gunzip(&comt_flate::gzip(&out)).unwrap(), out);
        }
    }
}
