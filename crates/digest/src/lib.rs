//! Content digests for the coMtainer OCI substrate.
//!
//! OCI blobs are addressed by `sha256:<hex>` digests. This crate provides a
//! from-scratch SHA-256 (FIPS 180-4) implementation, a streaming hasher, a
//! typed [`Digest`] value, and the hex codec used throughout the workspace.
//!
//! The implementation is deliberately dependency-free: digests are the
//! bottom-most substrate of the image system and everything above (blob
//! stores, layer diff-ids, cache-layer addressing) relies on it.

mod hex;
mod sha256;

pub use hex::{decode as hex_decode, encode as hex_encode, HexError};
pub use sha256::{backend, bytes_hashed, sha256, Sha256};

use std::fmt;
use std::str::FromStr;

/// A typed content digest in the OCI `algorithm:hex` form.
///
/// Only `sha256` is supported, matching what the coMtainer prototype relies
/// on. The inner representation keeps the raw 32 bytes so comparisons and
/// hashing are cheap.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest([u8; 32]);

impl Digest {
    /// Digest of the given bytes.
    pub fn of(data: &[u8]) -> Self {
        Digest(sha256(data))
    }

    /// Wrap raw SHA-256 output.
    pub fn from_raw(raw: [u8; 32]) -> Self {
        Digest(raw)
    }

    /// The raw 32 digest bytes.
    pub fn raw(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lower-case hex of the digest bytes (without the algorithm prefix).
    pub fn hex(&self) -> String {
        hex_encode(&self.0)
    }

    /// Canonical `sha256:<hex>` string.
    pub fn to_oci_string(&self) -> String {
        format!("sha256:{}", self.hex())
    }

    /// Short prefix used in human-readable listings (12 hex chars, like
    /// `docker images`).
    pub fn short(&self) -> String {
        self.hex()[..12].to_string()
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sha256:{}", self.hex())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest(sha256:{})", self.short())
    }
}

/// Domain-separated fingerprint of an ordered list of parts.
///
/// Each part is length-prefixed (big-endian u64) before hashing, so the
/// part boundaries are part of the identity: `["ab", "c"]` and
/// `["a", "bc"]` produce different digests. The engine's artifact cache
/// keys are built this way from the adapted compilation model, the adapter
/// chain fingerprint, the toolchain identity and the input contents.
pub fn fingerprint(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for part in parts {
        h.update(&(part.len() as u64).to_be_bytes());
        h.update(part);
    }
    Digest::from_raw(h.finalize())
}

/// Errors when parsing a digest string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigestParseError {
    /// Missing or unsupported `algorithm:` prefix.
    BadAlgorithm,
    /// Hex part malformed or not 64 chars.
    BadHex,
}

impl fmt::Display for DigestParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DigestParseError::BadAlgorithm => write!(f, "unsupported digest algorithm"),
            DigestParseError::BadHex => write!(f, "malformed digest hex"),
        }
    }
}

impl std::error::Error for DigestParseError {}

impl FromStr for Digest {
    type Err = DigestParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix("sha256:")
            .ok_or(DigestParseError::BadAlgorithm)?;
        if rest.len() != 64 {
            return Err(DigestParseError::BadHex);
        }
        let bytes = hex_decode(rest).map_err(|_| DigestParseError::BadHex)?;
        let mut raw = [0u8; 32];
        raw.copy_from_slice(&bytes);
        Ok(Digest(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_empty() {
        assert_eq!(
            Digest::of(b"").to_oci_string(),
            "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn digest_of_abc() {
        assert_eq!(
            Digest::of(b"abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn digest_roundtrip_string() {
        let d = Digest::of(b"roundtrip");
        let s = d.to_string();
        let back: Digest = s.parse().unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn digest_parse_rejects_bad_prefix() {
        assert_eq!(
            "md5:abcd".parse::<Digest>().unwrap_err(),
            DigestParseError::BadAlgorithm
        );
    }

    #[test]
    fn digest_parse_rejects_short_hex() {
        assert_eq!(
            "sha256:abcd".parse::<Digest>().unwrap_err(),
            DigestParseError::BadHex
        );
    }

    #[test]
    fn digest_parse_rejects_non_hex() {
        let bad = format!("sha256:{}", "z".repeat(64));
        assert_eq!(bad.parse::<Digest>().unwrap_err(), DigestParseError::BadHex);
    }

    #[test]
    fn short_is_prefix() {
        let d = Digest::of(b"short");
        assert!(d.hex().starts_with(&d.short()));
        assert_eq!(d.short().len(), 12);
    }

    #[test]
    fn fingerprint_separates_part_boundaries() {
        let ab_c = fingerprint(&[b"ab", b"c"]);
        let a_bc = fingerprint(&[b"a", b"bc"]);
        assert_ne!(ab_c, a_bc);
        // And differs from the plain concatenated digest.
        assert_ne!(ab_c, Digest::of(b"abc"));
        // Deterministic.
        assert_eq!(fingerprint(&[b"ab", b"c"]), ab_c);
        // Part count matters even with empty parts.
        assert_ne!(fingerprint(&[b"x"]), fingerprint(&[b"x", b""]));
    }

    #[test]
    fn ordering_matches_bytes() {
        let a = Digest::from_raw([0u8; 32]);
        let b = Digest::from_raw([1u8; 32]);
        assert!(a < b);
    }
}
