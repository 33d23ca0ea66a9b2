//! SHA-256 compression on the x86-64 SHA extensions (SHA-NI).
//!
//! `sha256rnds2` performs two rounds on the working variables packed as
//! `ABEF` / `CDGH`; `sha256msg1` / `sha256msg2` compute four words of the
//! message schedule at a time. The 64 rounds are unrolled as sixteen
//! four-round groups, and the loop over blocks is inside the kernel so the
//! packed state never leaves its two registers between blocks.

use std::arch::x86_64::*;

use super::K;

/// How far ahead of the block being compressed to prefetch, in bytes. One
/// block is one cache line and takes about as long as a DRAM access, so
/// out-of-order execution alone does not hide the miss on inputs larger
/// than the caches: 64 MiB hashes at 1.1 GiB/s without this and 1.6 with
/// it on the host EXPERIMENTS.md records (flat from 512 bytes to 8 KiB
/// ahead; cache-resident inputs read the same either way).
const PREFETCH_AHEAD: usize = 1024;

/// Whether this CPU has every feature [`compress_blocks`] is compiled for.
/// `std` probes `cpuid` once per process and answers from a cached word.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Round constants `K[$i..$i + 4]`, lowest lane first.
macro_rules! k4 {
    ($i:expr) => {
        _mm_set_epi32(
            K[$i + 3] as i32,
            K[$i + 2] as i32,
            K[$i + 1] as i32,
            K[$i] as i32,
        )
    };
}

/// Rounds `$i..$i + 4`, consuming schedule words `W[$i..$i + 4]` in `$w`.
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:ident, $i:expr) => {{
        let wk = _mm_add_epi32($w, k4!($i));
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }};
}

/// With `$cur` = `W[t..t + 4]` and `$prev` = `W[t - 4..t]`: finish
/// `$next` = `W[t + 4..t + 8]` (it already holds the `msg1` half, from two
/// groups back) and start `$prev` on its way to `W[t + 12..t + 16]`.
macro_rules! schedule {
    ($prev:ident, $cur:ident => $next:ident) => {{
        let w_t7 = _mm_alignr_epi8::<4>($cur, $prev);
        $next = _mm_sha256msg2_epu32(_mm_add_epi32($next, w_t7), $cur);
        $prev = _mm_sha256msg1_epu32($prev, $cur);
    }};
}

/// Fold every 64-byte block of `blocks` into `state`.
///
/// # Safety
///
/// Memory-safe for any arguments, but compiled with instructions the CPU
/// may lack, so a call from code not itself compiled for
/// `sha,sse2,ssse3,sse4.1` is `unsafe`: the caller must have seen
/// [`available`] return `true` in this process.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    // Big-endian message words -> little-endian lanes.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is a live `[u32; 8]`, 32 bytes, so both 16-byte
    // loads are in bounds; `loadu` has no alignment requirement. The
    // instruction is SSE2, inside this function's `target_feature` set,
    // which the caller entered only after `available()` detected it.
    let (dcba, hgfe) = unsafe {
        let p = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // A hint, not an access: it may point past the end of `blocks`.
        _mm_prefetch::<_MM_HINT_T0>(block.as_ptr().wrapping_add(PREFETCH_AHEAD).cast());

        // SAFETY: `chunks_exact(64)` yields slices of exactly 64 bytes, so
        // the four 16-byte loads at byte offsets 0, 16, 32 and 48 are in
        // bounds; `loadu` accepts any alignment, which a caller's slice
        // does not promise. SSE2 again, detected before this function ran.
        let (mut w0, mut w1, mut w2, mut w3) = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            (
                _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
            )
        };

        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 4);
        w0 = _mm_sha256msg1_epu32(w0, w1);
        rounds4!(abef, cdgh, w2, 8);
        w1 = _mm_sha256msg1_epu32(w1, w2);
        rounds4!(abef, cdgh, w3, 12);
        schedule!(w2, w3 => w0);
        rounds4!(abef, cdgh, w0, 16);
        schedule!(w3, w0 => w1);
        rounds4!(abef, cdgh, w1, 20);
        schedule!(w0, w1 => w2);
        rounds4!(abef, cdgh, w2, 24);
        schedule!(w1, w2 => w3);
        rounds4!(abef, cdgh, w3, 28);
        schedule!(w2, w3 => w0);
        rounds4!(abef, cdgh, w0, 32);
        schedule!(w3, w0 => w1);
        rounds4!(abef, cdgh, w1, 36);
        schedule!(w0, w1 => w2);
        rounds4!(abef, cdgh, w2, 40);
        schedule!(w1, w2 => w3);
        rounds4!(abef, cdgh, w3, 44);
        schedule!(w2, w3 => w0);
        rounds4!(abef, cdgh, w0, 48);
        schedule!(w3, w0 => w1);
        rounds4!(abef, cdgh, w1, 52);
        // W[56..64] need only the `msg2` half from here on.
        w2 = _mm_sha256msg2_epu32(_mm_add_epi32(w2, _mm_alignr_epi8::<4>(w1, w0)), w1);
        rounds4!(abef, cdgh, w2, 56);
        w3 = _mm_sha256msg2_epu32(_mm_add_epi32(w3, _mm_alignr_epi8::<4>(w2, w1)), w2);
        rounds4!(abef, cdgh, w3, 60);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: `state` is 32 writable bytes behind a `&mut`, and `storeu`
    // has no alignment requirement; SSE2, detected before this function ran.
    unsafe {
        let p = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, dcba);
        _mm_storeu_si128(p.add(1), hgfe);
    }
}
