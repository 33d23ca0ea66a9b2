//! USTAR 512-byte header encoding/decoding.
//!
//! Field layout (offsets/sizes from POSIX.1-1988):
//!
//! ```text
//! name[100] mode[8] uid[8] gid[8] size[12] mtime[12] chksum[8]
//! typeflag[1] linkname[100] magic[6] version[2] uname[32] gname[32]
//! devmajor[8] devminor[8] prefix[155] pad[12]
//! ```

pub const BLOCK: usize = 512;

/// `len` rounded up to whole blocks — the space a payload takes in an archive.
pub fn padded_len(len: usize) -> usize {
    len.div_ceil(BLOCK) * BLOCK
}

pub const TYPE_FILE: u8 = b'0';
pub const TYPE_HARDLINK: u8 = b'1';
pub const TYPE_SYMLINK: u8 = b'2';
pub const TYPE_DIR: u8 = b'5';
/// GNU extension: the payload of this record is the long path of the *next*
/// record.
pub const TYPE_GNU_LONGNAME: u8 = b'L';

/// Raw numeric fields parsed from a header block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawHeader {
    pub name: String,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    pub size: u64,
    pub mtime: u64,
    pub typeflag: u8,
    pub linkname: String,
    pub prefix: String,
}

impl RawHeader {
    /// Full path: `prefix/name` when prefix is non-empty.
    pub fn full_path(&self) -> String {
        if self.prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{}/{}", self.prefix, self.name)
        }
    }
}

/// A value that cannot be represented in its USTAR header field. These
/// used to be `debug_assert`s, which meant a release build silently
/// truncated the field and produced a corrupt archive; they are hard
/// errors at every profile now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// A string field does not fit (name > 100, prefix > 155,
    /// linkname > 100 bytes) and no fallback representation exists.
    FieldOverflow {
        field: &'static str,
        len: usize,
        max: usize,
    },
    /// A numeric value does not fit its octal field — most notably a file
    /// of 8 GiB or more overflowing the 12-byte size field.
    OctalOverflow {
        field: &'static str,
        value: u64,
        max: u64,
    },
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::FieldOverflow { field, len, max } => write!(
                f,
                "tar header field `{field}` overflows: {len} bytes into a {max}-byte field"
            ),
            HeaderError::OctalOverflow { field, value, max } => write!(
                f,
                "tar header field `{field}` overflows: {value} exceeds the octal maximum {max}"
            ),
        }
    }
}

impl std::error::Error for HeaderError {}

/// Write a NUL-terminated string field.
fn put_str(
    block: &mut [u8; BLOCK],
    off: usize,
    len: usize,
    s: &str,
    field: &'static str,
) -> Result<(), HeaderError> {
    let bytes = s.as_bytes();
    if bytes.len() > len {
        return Err(HeaderError::FieldOverflow {
            field,
            len: bytes.len(),
            max: len,
        });
    }
    block[off..off + bytes.len()].copy_from_slice(bytes);
    Ok(())
}

/// Write an octal numeric field (NUL-terminated, zero-padded).
fn put_octal(
    block: &mut [u8; BLOCK],
    off: usize,
    len: usize,
    value: u64,
    field: &'static str,
) -> Result<(), HeaderError> {
    // len-1 digits + NUL terminator.
    let max = 8u64.pow(len as u32 - 1) - 1;
    if value > max {
        return Err(HeaderError::OctalOverflow { field, value, max });
    }
    let s = format!("{:0width$o}", value, width = len - 1);
    block[off..off + len - 1].copy_from_slice(s.as_bytes());
    block[off + len - 1] = 0;
    Ok(())
}

fn read_str(block: &[u8], off: usize, len: usize) -> String {
    let field = &block[off..off + len];
    let end = field.iter().position(|&b| b == 0).unwrap_or(len);
    String::from_utf8_lossy(&field[..end]).into_owned()
}

fn read_octal(block: &[u8], off: usize, len: usize) -> u64 {
    let field = &block[off..off + len];
    let mut v: u64 = 0;
    for &b in field {
        match b {
            b'0'..=b'7' => v = (v << 3) | (b - b'0') as u64,
            b' ' | 0 => break,
            _ => break, // tolerate garbage after digits
        }
    }
    v
}

/// Split a long path into USTAR `(prefix, name)` if possible.
///
/// Returns `None` when the path cannot be represented and a GNU long-name
/// record is required instead.
pub fn split_path(path: &str) -> Option<(&str, &str)> {
    if path.len() <= 100 {
        return Some(("", path));
    }
    if path.len() > 255 {
        return None;
    }
    // Find a slash such that name (after) <= 100 and prefix (before) <= 155.
    // Prefer the longest possible prefix so the name is most likely to fit.
    for (i, b) in path.bytes().enumerate().rev() {
        if b == b'/' {
            let (prefix, name_with_slash) = path.split_at(i);
            let name = &name_with_slash[1..];
            if !name.is_empty() && name.len() <= 100 && prefix.len() <= 155 {
                return Some((prefix, name));
            }
        }
    }
    None
}

/// Encode one header block, rejecting any field that does not fit.
#[allow(clippy::too_many_arguments)] // mirrors the USTAR field list
pub fn encode(
    name: &str,
    prefix: &str,
    mode: u32,
    uid: u32,
    gid: u32,
    size: u64,
    mtime: u64,
    typeflag: u8,
    linkname: &str,
) -> Result<[u8; BLOCK], HeaderError> {
    let mut b = [0u8; BLOCK];
    put_str(&mut b, 0, 100, name, "name")?;
    put_octal(&mut b, 100, 8, mode as u64, "mode")?;
    put_octal(&mut b, 108, 8, uid as u64, "uid")?;
    put_octal(&mut b, 116, 8, gid as u64, "gid")?;
    put_octal(&mut b, 124, 12, size, "size")?;
    put_octal(&mut b, 136, 12, mtime, "mtime")?;
    // chksum at 148..156 computed below; spec says treat as spaces first.
    b[148..156].copy_from_slice(b"        ");
    b[156] = typeflag;
    put_str(&mut b, 157, 100, linkname, "linkname")?;
    b[257..263].copy_from_slice(b"ustar\0");
    b[263..265].copy_from_slice(b"00");
    put_str(&mut b, 265, 32, "root", "uname")?;
    put_str(&mut b, 297, 32, "root", "gname")?;
    put_octal(&mut b, 329, 8, 0, "devmajor")?;
    put_octal(&mut b, 337, 8, 0, "devminor")?;
    put_str(&mut b, 345, 155, prefix, "prefix")?;

    let sum: u64 = b.iter().map(|&x| x as u64).sum();
    // Checksum field: 6 octal digits, NUL, space.
    let s = format!("{:06o}", sum);
    b[148..154].copy_from_slice(s.as_bytes());
    b[154] = 0;
    b[155] = b' ';
    Ok(b)
}

/// Validate the checksum of a header block.
pub fn checksum_ok(block: &[u8]) -> bool {
    let stored = read_octal(block, 148, 8);
    let mut sum: u64 = 0;
    for (i, &x) in block.iter().enumerate() {
        if (148..156).contains(&i) {
            sum += b' ' as u64;
        } else {
            sum += x as u64;
        }
    }
    sum == stored
}

/// Decode one header block (checksum already validated by the caller).
pub fn decode(block: &[u8]) -> RawHeader {
    RawHeader {
        name: read_str(block, 0, 100),
        mode: read_octal(block, 100, 8) as u32,
        uid: read_octal(block, 108, 8) as u32,
        gid: read_octal(block, 116, 8) as u32,
        size: read_octal(block, 124, 12),
        mtime: read_octal(block, 136, 12),
        typeflag: block[156],
        linkname: read_str(block, 157, 100),
        prefix: read_str(block, 345, 155),
    }
}

/// Whether a block is all zeros (archive terminator).
pub fn is_zero_block(block: &[u8]) -> bool {
    block.iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let b = encode("file.txt", "", 0o644, 10, 20, 1234, 999, TYPE_FILE, "").unwrap();
        assert!(checksum_ok(&b));
        let h = decode(&b);
        assert_eq!(h.name, "file.txt");
        assert_eq!(h.mode, 0o644);
        assert_eq!(h.uid, 10);
        assert_eq!(h.gid, 20);
        assert_eq!(h.size, 1234);
        assert_eq!(h.mtime, 999);
        assert_eq!(h.typeflag, TYPE_FILE);
    }

    #[test]
    fn split_short_path() {
        assert_eq!(split_path("a/b/c").unwrap(), ("", "a/b/c"));
    }

    #[test]
    fn split_long_path_prefers_fit() {
        let p = format!("{}name", "dir/".repeat(30)); // 124 chars
        let (prefix, name) = split_path(&p).unwrap();
        assert_eq!(format!("{prefix}/{name}"), p);
        assert!(name.len() <= 100 && prefix.len() <= 155);
    }

    #[test]
    fn split_unsplittable() {
        let p = "x".repeat(150); // no slash, >100
        assert!(split_path(&p).is_none());
    }

    #[test]
    fn split_over_255() {
        let p = format!("{}f", "d/".repeat(140));
        assert!(p.len() > 255);
        assert!(split_path(&p).is_none());
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut b = encode("f", "", 0o644, 0, 0, 0, 0, TYPE_FILE, "").unwrap();
        b[5] = 0xff;
        assert!(!checksum_ok(&b));
    }

    #[test]
    fn zero_block_detection() {
        assert!(is_zero_block(&[0u8; BLOCK]));
        let b = encode("f", "", 0o644, 0, 0, 0, 0, TYPE_FILE, "").unwrap();
        assert!(!is_zero_block(&b));
    }

    #[test]
    fn size_octal_overflow_is_a_hard_error() {
        // The 12-byte size field tops out at 8 GiB - 1. This used to be a
        // debug_assert, so a release build silently wrote a corrupt header
        // for any file >= 8 GiB; no allocation needed to prove the check.
        let max = 8u64.pow(11) - 1;
        assert!(encode("big", "", 0o644, 0, 0, max, 0, TYPE_FILE, "").is_ok());
        let err = encode("big", "", 0o644, 0, 0, max + 1, 0, TYPE_FILE, "").unwrap_err();
        assert_eq!(
            err,
            HeaderError::OctalOverflow {
                field: "size",
                value: max + 1,
                max,
            }
        );
        assert!(err.to_string().contains("size"));
    }

    #[test]
    fn name_field_overflow_is_a_hard_error() {
        let long = "x".repeat(101);
        let err = encode(&long, "", 0o644, 0, 0, 0, 0, TYPE_FILE, "").unwrap_err();
        assert!(matches!(
            err,
            HeaderError::FieldOverflow {
                field: "name",
                len: 101,
                max: 100,
            }
        ));
        // Linkname has the same 100-byte limit and no fallback record.
        let err = encode("l", "", 0o777, 0, 0, 0, 0, TYPE_SYMLINK, &long).unwrap_err();
        assert!(matches!(err, HeaderError::FieldOverflow { field: "linkname", .. }));
    }

    #[test]
    fn full_path_joins_prefix() {
        let h = RawHeader {
            name: "c".into(),
            mode: 0,
            uid: 0,
            gid: 0,
            size: 0,
            mtime: 0,
            typeflag: TYPE_FILE,
            linkname: String::new(),
            prefix: "a/b".into(),
        };
        assert_eq!(h.full_path(), "a/b/c");
    }
}
