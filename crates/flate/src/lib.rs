//! DEFLATE (RFC 1951) and gzip (RFC 1952), from scratch.
//!
//! Real OCI layers ship as `application/vnd.oci.image.layer.v1.tar+gzip`;
//! this crate provides the compression substrate so the image pipeline can
//! use the compressed media type:
//!
//! * [`deflate`] — an LZ77 compressor (greedy hash-chain matching) emitting
//!   fixed-Huffman DEFLATE blocks, with a stored-block fallback for
//!   incompressible input,
//! * [`inflate`] — a full decompressor handling stored, fixed-Huffman and
//!   dynamic-Huffman blocks (so foreign gzip streams decode too),
//! * [`gzip`] / [`gunzip`] — the RFC 1952 wrapper with CRC-32 integrity.
//!   `gzip` is the one encoder: a compressed layer is `gzip(&tar)`, a pure
//!   function of the tar, so its digest never depends on the host.
//!   `gunzip` reads one member and refuses what RFC 1952 says a
//!   decompressor must refuse (reserved flag bits) and any byte between
//!   the end of the deflate stream and the trailer.

mod bits;
mod crc32;
mod huffman;
mod lz77;

pub use crc32::crc32;

use bits::{BitReader, BitWriter};
use huffman::HuffmanDecoder;
use std::fmt;

/// Decompression failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlateError {
    /// Stream ended mid-structure.
    UnexpectedEof,
    /// Structural corruption with a description.
    Corrupt(&'static str),
    /// gzip CRC-32 or length check failed.
    ChecksumMismatch,
    /// gzip magic/flags unsupported.
    BadHeader,
}

impl fmt::Display for FlateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlateError::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            FlateError::Corrupt(m) => write!(f, "corrupt deflate stream: {m}"),
            FlateError::ChecksumMismatch => write!(f, "gzip checksum mismatch"),
            FlateError::BadHeader => write!(f, "bad gzip header"),
        }
    }
}

impl std::error::Error for FlateError {}

// ---- length/distance code tables (RFC 1951 §3.2.5) -----------------------

/// `(extra bits, base length)` for length codes 257..=285.
const LENGTH_TABLE: [(u8, u16); 29] = [
    (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10),
    (1, 11), (1, 13), (1, 15), (1, 17), (2, 19), (2, 23), (2, 27), (2, 31),
    (3, 35), (3, 43), (3, 51), (3, 59), (4, 67), (4, 83), (4, 99), (4, 115),
    (5, 131), (5, 163), (5, 195), (5, 227), (0, 258),
];

/// `(extra bits, base distance)` for distance codes 0..=29.
const DIST_TABLE: [(u8, u16); 30] = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 7), (2, 9), (2, 13),
    (3, 17), (3, 25), (4, 33), (4, 49), (5, 65), (5, 97), (6, 129), (6, 193),
    (7, 257), (7, 385), (8, 513), (8, 769), (9, 1025), (9, 1537),
    (10, 2049), (10, 3073), (11, 4097), (11, 6145), (12, 8193), (12, 12289),
    (13, 16385), (13, 24577),
];

/// Length value → (code, extra bits, extra value).
fn length_code(len: u16) -> (u16, u8, u16) {
    debug_assert!((3..=258).contains(&len));
    for (i, &(extra, base)) in LENGTH_TABLE.iter().enumerate().rev() {
        if len >= base {
            return (257 + i as u16, extra, len - base);
        }
    }
    unreachable!()
}

/// Distance value → (code, extra bits, extra value).
fn dist_code(dist: u16) -> (u16, u8, u16) {
    debug_assert!(dist >= 1);
    for (i, &(extra, base)) in DIST_TABLE.iter().enumerate().rev() {
        if dist >= base {
            return (i as u16, extra, dist - base);
        }
    }
    unreachable!()
}

// ---- fixed Huffman encoding (RFC 1951 §3.2.6) ----------------------------

/// Emit a literal/length symbol with the fixed code.
fn put_fixed_litlen(w: &mut BitWriter, sym: u16) {
    match sym {
        0..=143 => w.put_bits_rev(0b0011_0000 + sym as u32, 8),
        144..=255 => w.put_bits_rev(0b1_1001_0000 + (sym - 144) as u32, 9),
        256..=279 => w.put_bits_rev((sym - 256) as u32, 7),
        280..=287 => w.put_bits_rev(0b1100_0000 + (sym - 280) as u32, 8),
        _ => unreachable!(),
    }
}

/// Emit a distance symbol (fixed: 5 bits).
fn put_fixed_dist(w: &mut BitWriter, sym: u16) {
    w.put_bits_rev(sym as u32, 5);
}

/// Compress `data` into a raw DEFLATE stream (single fixed-Huffman block,
/// or a sequence of stored blocks when that would be smaller).
pub fn deflate(data: &[u8]) -> Vec<u8> {
    // First pass: fixed-Huffman with LZ77.
    let mut w = BitWriter::new();
    w.put_bits(1, 1); // BFINAL
    w.put_bits(0b01, 2); // fixed Huffman
    for tok in lz77::tokenize(data) {
        match tok {
            lz77::Token::Literal(b) => put_fixed_litlen(&mut w, b as u16),
            lz77::Token::Match { len, dist } => {
                let (code, eb, ev) = length_code(len);
                put_fixed_litlen(&mut w, code);
                w.put_bits(ev as u32, eb as u32);
                let (dcode, deb, dev) = dist_code(dist);
                put_fixed_dist(&mut w, dcode);
                w.put_bits(dev as u32, deb as u32);
            }
        }
    }
    put_fixed_litlen(&mut w, 256); // end of block
    let fixed = w.finish();

    // Stored-block fallback: 5 bytes of overhead per 65535-byte block.
    let stored_size = data.len() + 5 * data.len().div_ceil(65535).max(1);
    if stored_size < fixed.len() {
        let mut out = Vec::with_capacity(stored_size);
        let mut chunks = data.chunks(65535).peekable();
        if data.is_empty() {
            out.extend_from_slice(&[0b001, 0, 0, 0xff, 0xff]);
        }
        while let Some(chunk) = chunks.next() {
            let bfinal = if chunks.peek().is_none() { 1 } else { 0 };
            out.push(bfinal); // BFINAL + BTYPE=00 (byte aligned)
            let len = chunk.len() as u16;
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&(!len).to_le_bytes());
            out.extend_from_slice(chunk);
        }
        return out;
    }
    fixed
}

/// Decompress a raw DEFLATE stream. Bytes after the final block are
/// ignored.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, FlateError> {
    inflate_counted(data).map(|(out, _)| out)
}

/// [`inflate`], also returning how many input bytes the stream used: up to
/// and including the byte that holds the final block's last bit.
fn inflate_counted(data: &[u8]) -> Result<(Vec<u8>, usize), FlateError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let bfinal = r.get_bits(1)?;
        let btype = r.get_bits(2)?;
        match btype {
            0b00 => {
                r.align_byte();
                let len = r.get_u16()?;
                let nlen = r.get_u16()?;
                if len != !nlen {
                    return Err(FlateError::Corrupt("stored block LEN/NLEN"));
                }
                for _ in 0..len {
                    out.push(r.get_byte()?);
                }
            }
            0b01 => inflate_block(&mut r, &mut out, &HuffmanDecoder::fixed_litlen(), &HuffmanDecoder::fixed_dist())?,
            0b10 => {
                let (litlen, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &mut out, &litlen, &dist)?;
            }
            _ => return Err(FlateError::Corrupt("reserved block type")),
        }
        if bfinal == 1 {
            break;
        }
    }
    Ok((out, r.bytes_used()))
}

/// Decode one Huffman-coded block body.
fn inflate_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    litlen: &HuffmanDecoder,
    dist: &HuffmanDecoder,
) -> Result<(), FlateError> {
    loop {
        let sym = litlen.decode(r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let (extra, base) = LENGTH_TABLE[(sym - 257) as usize];
                let len = base + r.get_bits(extra as u32)? as u16;
                let dsym = dist.decode(r)?;
                if dsym as usize >= DIST_TABLE.len() {
                    return Err(FlateError::Corrupt("distance symbol"));
                }
                let (dex, dbase) = DIST_TABLE[dsym as usize];
                let d = dbase as usize + r.get_bits(dex as u32)? as usize;
                if d == 0 || d > out.len() {
                    return Err(FlateError::Corrupt("distance beyond output"));
                }
                let start = out.len() - d;
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
            _ => return Err(FlateError::Corrupt("literal/length symbol")),
        }
    }
}

/// Read the dynamic Huffman table definitions (RFC 1951 §3.2.7).
fn read_dynamic_tables(
    r: &mut BitReader<'_>,
) -> Result<(HuffmanDecoder, HuffmanDecoder), FlateError> {
    const ORDER: [usize; 19] = [
        16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
    ];
    let hlit = r.get_bits(5)? as usize + 257;
    let hdist = r.get_bits(5)? as usize + 1;
    let hclen = r.get_bits(4)? as usize + 4;
    let mut cl_lens = [0u8; 19];
    for &idx in ORDER.iter().take(hclen) {
        cl_lens[idx] = r.get_bits(3)? as u8;
    }
    let cl_decoder = HuffmanDecoder::from_lengths(&cl_lens)
        .ok_or(FlateError::Corrupt("code-length table"))?;

    let mut lens = Vec::with_capacity(hlit + hdist);
    while lens.len() < hlit + hdist {
        let sym = cl_decoder.decode(r)?;
        match sym {
            0..=15 => lens.push(sym as u8),
            16 => {
                let prev = *lens.last().ok_or(FlateError::Corrupt("repeat with no previous"))?;
                let n = 3 + r.get_bits(2)?;
                for _ in 0..n {
                    lens.push(prev);
                }
            }
            17 => {
                let n = 3 + r.get_bits(3)?;
                lens.resize(lens.len() + n as usize, 0);
            }
            18 => {
                let n = 11 + r.get_bits(7)?;
                lens.resize(lens.len() + n as usize, 0);
            }
            _ => return Err(FlateError::Corrupt("code-length symbol")),
        }
    }
    if lens.len() != hlit + hdist {
        return Err(FlateError::Corrupt("code-length overflow"));
    }
    let litlen = HuffmanDecoder::from_lengths(&lens[..hlit])
        .ok_or(FlateError::Corrupt("literal/length table"))?;
    let dist = HuffmanDecoder::from_lengths(&lens[hlit..])
        .ok_or(FlateError::Corrupt("distance table"))?;
    Ok((litlen, dist))
}

// ---- gzip wrapper (RFC 1952) ---------------------------------------------

/// Compress into a gzip member.
pub fn gzip(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    out.extend_from_slice(&[
        0x1f, 0x8b, // magic
        8,    // CM = deflate
        0,    // FLG
        0, 0, 0, 0, // MTIME
        0,    // XFL
        255,  // OS = unknown
    ]);
    out.extend_from_slice(&deflate(data));
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompress one gzip member, verifying CRC-32 and length. The deflate
/// stream must end exactly where the 8-byte trailer starts.
pub fn gunzip(data: &[u8]) -> Result<Vec<u8>, FlateError> {
    if data.len() < 18 {
        return Err(FlateError::UnexpectedEof);
    }
    let flg = data[3];
    // FLG bits 5..7 are reserved and must be zero (RFC 1952 §2.3.1.2).
    if data[0] != 0x1f || data[1] != 0x8b || data[2] != 8 || flg & 0xE0 != 0 {
        return Err(FlateError::BadHeader);
    }
    let mut pos = 10usize;
    if flg & 0x04 != 0 {
        // FEXTRA
        if pos + 2 > data.len() {
            return Err(FlateError::UnexpectedEof);
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    for mask in [0x08u8, 0x10] {
        // FNAME, FCOMMENT: zero-terminated strings.
        if flg & mask != 0 {
            while *data.get(pos).ok_or(FlateError::UnexpectedEof)? != 0 {
                pos += 1;
            }
            pos += 1;
        }
    }
    if flg & 0x02 != 0 {
        pos += 2; // FHCRC
    }
    if pos + 8 > data.len() {
        return Err(FlateError::UnexpectedEof);
    }
    let body = &data[pos..data.len() - 8];
    let (out, used) = inflate_counted(body)?;
    if used != body.len() {
        // What follows the stream is not the trailer: a second member (one
        // member is all this decoder reads) or stray bytes.
        let next_magic = data.get(pos + used + 8..pos + used + 10);
        return Err(FlateError::Corrupt(if next_magic == Some(&[0x1f, 0x8b]) {
            "a second gzip member follows the first"
        } else {
            "bytes between the deflate stream and the gzip trailer"
        }));
    }
    let crc_expected = u32::from_le_bytes(data[data.len() - 8..data.len() - 4].try_into().unwrap());
    let isize = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
    if crc32(&out) != crc_expected || out.len() as u32 != isize {
        return Err(FlateError::ChecksumMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let comp = deflate(data);
        let back = inflate(&comp).expect("inflate");
        assert_eq!(back, data);
        let gz = gzip(data);
        let back2 = gunzip(&gz).expect("gunzip");
        assert_eq!(back2, data);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(b"");
    }

    #[test]
    fn roundtrip_short() {
        roundtrip(b"hello, deflate world");
    }

    #[test]
    fn roundtrip_repetitive_compresses() {
        let data = b"abcabcabcabcabc".repeat(1000);
        let comp = deflate(&data);
        assert!(comp.len() < data.len() / 4, "{} vs {}", comp.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn incompressible_falls_back_to_stored() {
        // Pseudo-random bytes: fixed-Huffman would expand them; the stored
        // fallback caps overhead at ~5 bytes / 64 KiB.
        let mut data = Vec::with_capacity(200_000);
        let mut s: u64 = 88172645463325252;
        while data.len() < 200_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            data.extend_from_slice(&s.to_le_bytes());
        }
        let comp = deflate(&data);
        assert!(comp.len() <= data.len() + 5 * (data.len() / 65535 + 1));
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data);
    }

    #[test]
    fn long_matches_and_max_length() {
        let mut data = vec![b'x'; 10_000];
        data.extend_from_slice(b"END");
        roundtrip(&data);
    }

    #[test]
    fn gunzip_rejects_corruption() {
        let gz = gzip(b"payload payload payload");
        // Flip a body bit.
        let mut bad = gz.clone();
        bad[14] ^= 0x10;
        assert!(gunzip(&bad).is_err());
        // Flip a CRC bit.
        let mut bad2 = gz.clone();
        let n = bad2.len();
        bad2[n - 6] ^= 1;
        assert!(matches!(gunzip(&bad2), Err(FlateError::ChecksumMismatch)));
        // Truncate.
        assert!(gunzip(&gz[..10]).is_err());
        // Bad magic.
        let mut bad3 = gz;
        bad3[0] = 0;
        assert!(matches!(gunzip(&bad3), Err(FlateError::BadHeader)));
    }

    #[test]
    fn inflate_rejects_garbage() {
        assert!(inflate(&[0xff, 0xff, 0xff]).is_err());
        assert!(inflate(&[]).is_err());
    }

    #[test]
    fn gunzip_skips_optional_fname() {
        // Hand-build a gzip member with FNAME set.
        let data = b"named stream";
        let raw = deflate(data);
        let mut gz = vec![0x1f, 0x8b, 8, 0x08, 0, 0, 0, 0, 0, 255];
        gz.extend_from_slice(b"file.tar\0");
        gz.extend_from_slice(&raw);
        gz.extend_from_slice(&crc32(data).to_le_bytes());
        gz.extend_from_slice(&(data.len() as u32).to_le_bytes());
        assert_eq!(gunzip(&gz).unwrap(), data);
    }

    #[test]
    fn gunzip_refuses_reserved_flag_bits() {
        // RFC 1952 §2.3.1.2: a decompressor must report an error when a
        // reserved FLG bit is set.
        let gz = gzip(b"reserved flags");
        for bit in [0x20u8, 0x40, 0x80] {
            let mut bad = gz.clone();
            bad[3] |= bit;
            assert_eq!(
                gunzip(&bad),
                Err(FlateError::BadHeader),
                "FLG bit {bit:#04x}"
            );
        }
    }

    #[test]
    fn gunzip_requires_the_trailer_right_after_the_stream() {
        let data = b"one member, one trailer".repeat(20);
        let gz = gzip(&data);
        let trailer = gz.len() - 8;
        // Stray bytes between the final block and the trailer.
        let mut padded = gz[..trailer].to_vec();
        padded.extend_from_slice(b"junk");
        padded.extend_from_slice(&gz[trailer..]);
        assert_eq!(
            gunzip(&padded),
            Err(FlateError::Corrupt(
                "bytes between the deflate stream and the gzip trailer"
            ))
        );
        // Two members back to back: named, not a checksum mismatch.
        let twice = [gz.clone(), gz].concat();
        assert_eq!(
            gunzip(&twice),
            Err(FlateError::Corrupt(
                "a second gzip member follows the first"
            ))
        );
    }

    #[test]
    fn stored_multiblock() {
        // > 64 KiB of incompressible data exercises multiple stored blocks.
        let mut data = Vec::new();
        let mut s: u32 = 0xdeadbeef;
        while data.len() < 150_000 {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            data.extend_from_slice(&s.to_le_bytes());
        }
        roundtrip(&data);
    }
}
