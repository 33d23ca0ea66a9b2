//! Canonical Huffman decoding (RFC 1951 §3.2.2).

use crate::bits::BitReader;
use crate::FlateError;

const MAX_BITS: usize = 15;

/// A canonical Huffman decoder built from code lengths.
pub struct HuffmanDecoder {
    /// Number of codes of each length 1..=15.
    counts: [u16; MAX_BITS + 1],
    /// Symbols ordered by (length, symbol) — the canonical ordering.
    symbols: Vec<u16>,
}

impl HuffmanDecoder {
    /// Build from per-symbol code lengths (0 = unused). Returns `None` for
    /// an oversubscribed code only: an incomplete code is built, and a code
    /// word it leaves unassigned fails in [`HuffmanDecoder::decode`].
    pub fn from_lengths(lengths: &[u8]) -> Option<Self> {
        let mut counts = [0u16; MAX_BITS + 1];
        for &l in lengths {
            if l as usize > MAX_BITS {
                return None;
            }
            counts[l as usize] += 1;
        }
        counts[0] = 0;

        // Kraft inequality check.
        let mut left = 1i32;
        for &count in counts.iter().skip(1) {
            left <<= 1;
            left -= count as i32;
            if left < 0 {
                return None; // oversubscribed
            }
        }

        // Offsets into the symbol table per length.
        let mut offs = [0usize; MAX_BITS + 2];
        for len in 1..=MAX_BITS {
            offs[len + 1] = offs[len] + counts[len] as usize;
        }
        let total = offs[MAX_BITS + 1];
        let mut symbols = vec![0u16; total];
        let mut next = offs;
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbols[next[l as usize]] = sym as u16;
                next[l as usize] += 1;
            }
        }
        Some(HuffmanDecoder { counts, symbols })
    }

    /// The fixed literal/length code (RFC 1951 §3.2.6).
    pub fn fixed_litlen() -> Self {
        let mut lengths = [0u8; 288];
        for (i, l) in lengths.iter_mut().enumerate() {
            *l = match i {
                0..=143 => 8,
                144..=255 => 9,
                256..=279 => 7,
                _ => 8,
            };
        }
        Self::from_lengths(&lengths).expect("fixed table is valid")
    }

    /// The fixed distance code: 30 symbols of length 5.
    pub fn fixed_dist() -> Self {
        Self::from_lengths(&[5u8; 30]).expect("fixed table is valid")
    }

    /// Decode one symbol, reading bits MSB-of-code-first.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, FlateError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=MAX_BITS {
            code |= r.get_bit()? as i32;
            let count = self.counts[len] as i32;
            if code - first < count {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(FlateError::Corrupt("invalid Huffman code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;

    #[test]
    fn canonical_assignment() {
        // RFC 1951's example: lengths (3,3,3,3,3,2,4,4) for symbols A..H.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        // Symbol F (index 5) has the shortest code 00.
        let mut w = BitWriter::new();
        w.put_bits_rev(0b00, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 5);
    }

    #[test]
    fn oversubscribed_rejected() {
        assert!(HuffmanDecoder::from_lengths(&[1, 1, 1]).is_none());
    }

    #[test]
    fn too_long_rejected() {
        assert!(HuffmanDecoder::from_lengths(&[16]).is_none());
    }

    #[test]
    fn fixed_tables_build() {
        HuffmanDecoder::fixed_litlen();
        HuffmanDecoder::fixed_dist();
    }

    #[test]
    fn fixed_litlen_roundtrip_samples() {
        let dec = HuffmanDecoder::fixed_litlen();
        // Encode symbol 65 ('A'): 8-bit code 0x30+65 = 0x71.
        let mut w = BitWriter::new();
        w.put_bits_rev(0x30 + 65, 8);
        // And symbol 256 (end of block): 7-bit code 0.
        w.put_bits_rev(0, 7);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 65);
        assert_eq!(dec.decode(&mut r).unwrap(), 256);
    }

    #[test]
    fn garbage_is_invalid_code() {
        // A complete code decodes any bits: "1" is symbol 1.
        let dec = HuffmanDecoder::from_lengths(&[1, 1]).unwrap();
        let bytes = [0xffu8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 1);
        // An incomplete code leaves "11" unassigned: one-bits match no code
        // word of any length, so decode reads all 15 bits and fails.
        let deep = HuffmanDecoder::from_lengths(&[2, 2, 2]).unwrap();
        let mut r2 = BitReader::new(&bytes);
        assert_eq!(
            deep.decode(&mut r2),
            Err(FlateError::Corrupt("invalid Huffman code"))
        );
        assert_eq!(r2.bytes_used(), 2);
    }
}
