//! Property tests: any sequence of valid entries survives a write/read
//! round trip byte-for-byte.

use comt_tar::{archive_len, read_archive, write_archive, Entry, EntryKind};
use proptest::prelude::*;

/// Path segments avoid NUL and '/'; whole path stays under the GNU limit we
/// exercise separately.
fn arb_path() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-zA-Z0-9._-]{1,12}", 1..6).prop_map(|segs| segs.join("/"))
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    (
        arb_path(),
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..2048).prop_map(|v| EntryKind::File(v.into())),
            Just(EntryKind::Dir),
            arb_path().prop_map(EntryKind::Symlink),
            arb_path().prop_map(EntryKind::Hardlink),
        ],
        0u32..0o7777,
        0u32..65536,
        0u32..65536,
        0u64..4_000_000_000,
    )
        .prop_map(|(path, kind, mode, uid, gid, mtime)| Entry {
            path,
            kind,
            mode,
            uid,
            gid,
            mtime,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_entries(entries in prop::collection::vec(arb_entry(), 0..12)) {
        let bytes = write_archive(&entries).unwrap();
        prop_assert_eq!(bytes.len() % 512, 0);
        let back = read_archive(&bytes.into()).unwrap();
        prop_assert_eq!(back, entries);
    }

    #[test]
    fn roundtrip_long_paths(depth in 10usize..40, name in "[a-z]{1,20}") {
        let path = format!("{}{}", "segment-dir/".repeat(depth), name);
        let entries = vec![Entry::file(path, b"content".to_vec(), 0o644)];
        let back = read_archive(&write_archive(&entries).unwrap().into()).unwrap();
        prop_assert_eq!(back, entries);
    }

    /// `write_archive` reserves `archive_len` up front, so it must be exact —
    /// also for paths that take the USTAR prefix split or a GNU long-name
    /// record.
    #[test]
    fn encoded_len_is_exact(
        entries in prop::collection::vec(arb_entry(), 0..12),
        long in prop::collection::vec((1usize..40, "[a-z]{1,20}", 0usize..1500), 0..4),
    ) {
        let mut entries = entries;
        for (depth, name, size) in long {
            let path = format!("{}{}", "segment-dir/".repeat(depth), name);
            entries.push(Entry::file(path, vec![1u8; size], 0o644));
        }
        let bytes = write_archive(&entries).unwrap();
        let summed: usize = entries.iter().map(Entry::encoded_len).sum();
        prop_assert_eq!(summed + 1024, bytes.len());
        prop_assert_eq!(archive_len(&entries), bytes.len());
        prop_assert_eq!(bytes.capacity(), bytes.len());
    }
}
