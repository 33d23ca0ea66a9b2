//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Supports both one-shot hashing ([`sha256`]) and streaming updates
//! ([`Sha256`]). The streaming form is used when digesting layer tarballs
//! that are produced incrementally.
//!
//! The hasher owns buffering, padding and the length field; the rounds
//! live behind one kernel interface, `compress_blocks(state, blocks)` over
//! a whole number of 64-byte blocks. [`portable`] implements it everywhere
//! and is the reference; `sha_ni` implements it on x86-64 CPUs that have
//! the SHA extensions. [`Kernel::detect`] picks between them from what the
//! CPU reports; nothing a user can set does. Both compute the same
//! function of the same bytes, so a digest never depends on the kernel.

mod portable;
#[cfg(target_arch = "x86_64")]
mod sha_ni;

use std::sync::atomic::{AtomicU64, Ordering};

/// Message bytes of every digest this process has finished.
static BYTES_HASHED: AtomicU64 = AtomicU64::new(0);

/// Message bytes of every SHA-256 digest this process has finished — the
/// production counter behind `digest.bytes_hashed`. A hasher adds its
/// length once, at [`Sha256::finalize`]; one dropped unfinished adds
/// nothing. Monotone and process-wide, so a reader takes a difference.
pub fn bytes_hashed() -> u64 {
    BYTES_HASHED.load(Ordering::Relaxed)
}

/// First 32 bits of the fractional parts of the square roots of the first
/// 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// First 32 bits of the fractional parts of the cube roots of the first
/// 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Which implementation of `compress_blocks` a hasher runs.
#[derive(Clone, Copy)]
enum Kernel {
    Portable,
    /// Only ever constructed by [`Kernel::detect`], after
    /// `sha_ni::available()` returned `true`.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The fastest kernel this CPU can run.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            return Kernel::ShaNi;
        }
        Kernel::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => "sha-ni",
        }
    }

    /// Fold `blocks` (a whole number of 64-byte blocks) into `state`.
    #[inline]
    fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        match self {
            Kernel::Portable => portable::compress_blocks(state, blocks),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel` is private to this module and `detect` is
            // the only place that builds `ShaNi`, which it does only after
            // `is_x86_feature_detected!` reported `sha`, `sse2`, `ssse3`
            // and `sse4.1` — the exact feature set the kernel is compiled
            // for — on the CPU this process runs on.
            Kernel::ShaNi => unsafe { sha_ni::compress_blocks(state, blocks) },
        }
    }
}

/// Name of the compression kernel hashers in this process run:
/// `"sha-ni"` or `"portable"`. It explains a hashing rate, never a digest.
pub fn backend() -> &'static str {
    Kernel::detect().name()
}

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; 64],
    /// Always `< 64` between calls.
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher in the initial state.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::detect())
    }

    /// A hasher pinned to the portable kernel, whatever the CPU offers.
    #[cfg(test)]
    pub(crate) fn new_portable() -> Self {
        Self::with_kernel(Kernel::Portable)
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
            kernel,
        }
    }

    /// Absorb more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Fill a partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            self.kernel.compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Every whole block straight from the input, in one kernel call.
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            self.kernel.compress_blocks(&mut self.state, blocks);
        }
        // Stash the tail.
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        BYTES_HASHED.fetch_add(self.total_len, Ordering::Relaxed);
        // Padding: 0x80, zeros, 64-bit big-endian bit length.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            // No room left for the length: it goes in a block of its own.
            self.kernel.compress_blocks(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel.compress_blocks(&mut self.state, &self.buf);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_encode;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::io::Write;

    /// How a check builds its hashers: `Sha256::new` (the detected kernel)
    /// or `Sha256::new_portable`.
    type NewHasher = fn() -> Sha256;

    /// Each check below runs twice: on the portable kernel, always, and on
    /// the accelerated kernel where the host has one. Where it has none the
    /// accelerated test says so on stderr, written directly because the
    /// harness swallows `eprintln!` from a passing test.
    macro_rules! on_both_kernels {
        ($($check:ident => $portable:ident, $accelerated:ident;)*) => {$(
            #[test]
            fn $portable() {
                $check(Sha256::new_portable);
            }

            #[test]
            #[cfg_attr(
                not(target_arch = "x86_64"),
                ignore = "no accelerated SHA-256 kernel for this architecture"
            )]
            fn $accelerated() {
                if matches!(Kernel::detect(), Kernel::Portable) {
                    let _ = writeln!(
                        std::io::stderr(),
                        "SKIPPED {}: this CPU lacks the SHA extensions (backend: portable)",
                        stringify!($accelerated),
                    );
                    return;
                }
                $check(Sha256::new);
            }
        )*};
    }

    on_both_kernels! {
        check_nist_vectors => nist_vectors_portable, nist_vectors_sha_ni;
        check_every_length_and_split => every_length_and_split_portable, every_length_and_split_sha_ni;
        check_many_tiny_updates => many_tiny_updates_portable, many_tiny_updates_sha_ni;
        check_one_mib_unaligned => one_mib_unaligned_portable, one_mib_unaligned_sha_ni;
        check_random_input => random_input_portable, random_input_sha_ni;
    }

    fn oneshot(new: NewHasher, data: &[u8]) -> [u8; 32] {
        let mut h = new();
        h.update(data);
        h.finalize()
    }

    /// Feed `data` to a fresh hasher in the pieces `cuts` (ascending
    /// offsets into `data`) divide it into.
    fn streamed(new: NewHasher, data: &[u8], cuts: &[usize]) -> [u8; 32] {
        let mut h = new();
        let mut from = 0;
        for &cut in cuts {
            h.update(&data[from..cut]);
            from = cut;
        }
        h.update(&data[from..]);
        h.finalize()
    }

    /// Call `check` with `data` copied to each offset 0..16 of a fresh
    /// allocation, so the kernels' 16-byte loads see every misalignment.
    fn at_every_offset(data: &[u8], mut check: impl FnMut(usize, &[u8])) {
        for offset in 0..16 {
            let mut shifted = vec![0u8; offset + data.len()];
            shifted[offset..].copy_from_slice(data);
            check(offset, &shifted[offset..]);
        }
    }

    // NIST / well-known test vectors.
    fn check_nist_vectors(new: NewHasher) {
        let vectors: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            // Exactly 56 bytes forces the length into a second padding block.
            (
                &[b'a'; 56],
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                &[b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (msg, want) in vectors {
            assert_eq!(hex_encode(&oneshot(new, msg)), want, "{} bytes", msg.len());
        }
    }

    /// Every length 0..=257 (four blocks and a byte: both padding shapes,
    /// every buffer fill level), split in two at every offset.
    fn check_every_length_and_split(new: NewHasher) {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = oneshot(Sha256::new_portable, msg);
            for split in 0..=len {
                assert_eq!(
                    streamed(new, msg, &[split]),
                    want,
                    "len {len} split {split}"
                );
            }
        }
    }

    fn check_many_tiny_updates(new: NewHasher) {
        let data = b"the quick brown fox jumps over the lazy dog".repeat(9);
        let cuts: Vec<usize> = (0..data.len()).collect();
        assert_eq!(
            streamed(new, &data, &cuts),
            oneshot(Sha256::new_portable, &data)
        );
    }

    /// A multi-block run long enough that the kernel's inner loop, not the
    /// hasher's buffering, does nearly all the work — from every alignment.
    fn check_one_mib_unaligned(new: NewHasher) {
        let mut rng = TestRng::deterministic("one_mib_unaligned");
        let data = Strategy::sample(
            &prop::collection::vec(any::<u8>(), (1 << 20) + 61),
            &mut rng,
        );
        let want = oneshot(Sha256::new_portable, &data);
        at_every_offset(&data, |offset, msg| {
            let cut = rng.below(msg.len() as u64 + 1) as usize;
            assert_eq!(oneshot(new, msg), want, "offset {offset}");
            assert_eq!(
                streamed(new, msg, &[cut]),
                want,
                "offset {offset} cut {cut}"
            );
        });
    }

    /// Differential over vendored-`proptest` strategies: random bytes,
    /// random length 0..=64 KiB, random split points, the slice starting at
    /// each offset 0..16 of its allocation — this kernel, streamed and
    /// one-shot, against the portable one-shot.
    fn check_random_input(new: NewHasher) {
        let mut rng = TestRng::deterministic("random_input");
        let any_data = prop::collection::vec(any::<u8>(), 0..65537);
        let any_cuts = prop::collection::vec(any::<prop::sample::Index>(), 0..6);
        for case in 0..48 {
            let data = Strategy::sample(&any_data, &mut rng);
            let len = data.len();
            let mut cuts: Vec<usize> = Strategy::sample(&any_cuts, &mut rng)
                .iter()
                .map(|cut| cut.index(len + 1))
                .collect();
            cuts.sort_unstable();
            let want = oneshot(Sha256::new_portable, &data);
            at_every_offset(&data, |offset, msg| {
                let got = (streamed(new, msg, &cuts), oneshot(new, msg));
                assert_eq!(
                    got,
                    (want, want),
                    "(streamed, one-shot): case {case} offset {offset} len {len} cuts {cuts:?}"
                );
            });
        }
    }

    #[test]
    fn finalize_adds_the_message_length_to_the_counter() {
        let before = bytes_hashed();
        let mut h = Sha256::new();
        h.update(&[7u8; 1000]);
        h.update(&[9u8; 24]);
        let _ = h.finalize();
        // Tests in this binary hash concurrently, so only a lower bound
        // holds here; `crates/dist/tests/hash_once.rs` pins exact totals
        // in a binary of its own.
        assert!(bytes_hashed() - before >= 1024);
    }

    #[test]
    fn backend_names_the_detected_kernel() {
        #[cfg(target_arch = "x86_64")]
        let want = if sha_ni::available() {
            "sha-ni"
        } else {
            "portable"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = "portable";
        assert_eq!(backend(), want);
    }
}
