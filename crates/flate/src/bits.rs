//! LSB-first bit I/O, as DEFLATE specifies (RFC 1951 §3.1.1).

use crate::FlateError;

/// Bit-level writer; bits are packed LSB-first into bytes.
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits accumulated but not yet flushed (LSB-first).
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            nbits: 0,
        }
    }

    /// Append `n` bits (value's low bits, LSB emitted first).
    pub fn put_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 16);
        self.acc |= value << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Append `n` bits in *reversed* order — Huffman codes are stored
    /// most-significant-bit first in the spec's code tables but transmitted
    /// starting from the MSB of the code.
    pub fn put_bits_rev(&mut self, code: u32, n: u32) {
        let mut c = code;
        let mut rev = 0u32;
        for _ in 0..n {
            rev = (rev << 1) | (c & 1);
            c >>= 1;
        }
        self.put_bits(rev, n);
    }

    /// Flush the final partial byte (zero-padded) and return the stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
        self.out
    }
}

/// Bit-level reader over a byte slice.
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self) -> Result<(), FlateError> {
        if self.pos >= self.data.len() {
            return Err(FlateError::UnexpectedEof);
        }
        self.acc |= (self.data[self.pos] as u32) << self.nbits;
        self.pos += 1;
        self.nbits += 8;
        Ok(())
    }

    /// Read `n` bits LSB-first.
    pub fn get_bits(&mut self, n: u32) -> Result<u32, FlateError> {
        debug_assert!(n <= 16);
        if n == 0 {
            return Ok(0);
        }
        while self.nbits < n {
            self.refill()?;
        }
        let v = self.acc & ((1u32 << n) - 1);
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Input bytes consumed so far, counting a partly read byte as used.
    /// Whole bytes fetched into the accumulator but not yet read are not.
    pub fn bytes_used(&self) -> usize {
        self.pos - (self.nbits / 8) as usize
    }

    /// Read a single bit.
    pub fn get_bit(&mut self) -> Result<u32, FlateError> {
        self.get_bits(1)
    }

    /// Discard bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Read a byte (must be byte-aligned).
    pub fn get_byte(&mut self) -> Result<u8, FlateError> {
        debug_assert!(self.nbits.is_multiple_of(8));
        if self.nbits >= 8 {
            let b = (self.acc & 0xff) as u8;
            self.acc >>= 8;
            self.nbits -= 8;
            return Ok(b);
        }
        if self.pos >= self.data.len() {
            return Err(FlateError::UnexpectedEof);
        }
        let b = self.data[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Read a little-endian u16 (byte-aligned).
    pub fn get_u16(&mut self) -> Result<u16, FlateError> {
        let lo = self.get_byte()? as u16;
        let hi = self.get_byte()? as u16;
        Ok(lo | (hi << 8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0b11110000, 8);
        w.put_bits(0x3fff, 14);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        assert_eq!(r.get_bits(8).unwrap(), 0b11110000);
        assert_eq!(r.get_bits(14).unwrap(), 0x3fff);
    }

    #[test]
    fn reversed_codes() {
        let mut w = BitWriter::new();
        w.put_bits_rev(0b110, 3); // emitted as 0,1,1
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bit().unwrap(), 1);
        assert_eq!(r.get_bit().unwrap(), 1);
        assert_eq!(r.get_bit().unwrap(), 0);
    }

    #[test]
    fn align_and_bytes() {
        let mut w = BitWriter::new();
        w.put_bits(0b1, 1);
        let mut bytes = w.finish();
        bytes.extend_from_slice(&[0x34, 0x12]);
        let mut r = BitReader::new(&bytes);
        r.get_bit().unwrap();
        r.align_byte();
        assert_eq!(r.get_u16().unwrap(), 0x1234);
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.get_bits(8).unwrap(), 0xff);
        assert!(r.get_bits(1).is_err());
    }
}
