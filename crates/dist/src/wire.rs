//! A minimal HTTP/1.1 wire codec — exactly the subset the distribution
//! protocol needs, hand-rolled so the workspace stays hermetic.
//!
//! Supported: request/status lines, headers, `Content-Length` and
//! `Transfer-Encoding: chunked` bodies, `Range: bytes=N-`/`bytes=N-M`
//! parsing, and keep-alive semantics (`Connection: close` honoured).
//! Everything is bounded: header blocks are capped at
//! [`MAX_HEADER_BYTES`], bodies at a caller-supplied limit, so a
//! misbehaving peer cannot balloon memory.

use std::io::{self, BufRead, Read, Write};

/// Cap on the request/status line plus all headers.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Chunk size the client uses for chunked blob uploads.
pub const UPLOAD_CHUNK: usize = 64 * 1024;

/// A parsed HTTP request (server side of the wire).
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

/// A parsed HTTP response (client side of the wire).
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Self {
        self.body = body.into();
        self
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Does the peer ask to drop the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Case-insensitive header lookup (first match wins).
pub fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Reason phrase for the status codes the protocol emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        416 => "Range Not Satisfiable",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Read one CRLF-terminated line, enforcing the shared header budget.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> io::Result<String> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) => return Err(e),
        }
        if *budget == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "header block exceeds limit",
            ));
        }
        *budget -= 1;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 header line"));
        }
        line.push(byte[0]);
    }
}

/// Read the header section (after the start line) up to the blank line.
fn read_headers(r: &mut impl BufRead, budget: &mut usize) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, budget)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("malformed header: {line}"))
        })?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
}

/// Read a chunked transfer-encoded body.
fn read_chunked(r: &mut impl BufRead, max_body: usize) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let mut budget = 128usize; // one size line
        let size_line = read_line(r, &mut budget)?;
        let hex = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(hex, 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            // Trailer section: read lines until the blank terminator.
            let mut trailer_budget = 1024usize;
            loop {
                if read_line(r, &mut trailer_budget)?.is_empty() {
                    return Ok(body);
                }
            }
        }
        if body.len() + size > max_body {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "chunked body exceeds limit",
            ));
        }
        let start = body.len();
        body.resize(start + size, 0);
        r.read_exact(&mut body[start..])?;
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "chunk missing CRLF"));
        }
    }
}

/// Serialize a request. A `Some(body)` with `chunked = true` goes out as
/// chunked transfer-encoding in [`UPLOAD_CHUNK`]-sized pieces; otherwise
/// `Content-Length` framing is used.
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: Option<&[u8]>,
    chunked: bool,
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    match body {
        Some(_) if chunked => head.push_str("Transfer-Encoding: chunked\r\n"),
        Some(b) => head.push_str(&format!("Content-Length: {}\r\n", b.len())),
        None => head.push_str("Content-Length: 0\r\n"),
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    if let Some(b) = body {
        if chunked {
            for chunk in b.chunks(UPLOAD_CHUNK) {
                write!(w, "{:x}\r\n", chunk.len())?;
                w.write_all(chunk)?;
                w.write_all(b"\r\n")?;
            }
            w.write_all(b"0\r\n\r\n")?;
        } else {
            w.write_all(b)?;
        }
    }
    w.flush()
}

/// Read a response status line and headers, and nothing after them — the
/// whole of an answer to `HEAD` (RFC 9110 §9.3.2: its `Content-Length`
/// describes the body a `GET` would carry, which is not sent).
pub fn read_response_head(r: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    let mut budget = MAX_HEADER_BYTES;
    let start = read_line(r, &mut budget)?;
    let mut parts = start.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code.parse().ok(),
        _ => None,
    };
    let status: u16 = status.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed status line: {start}"),
        )
    })?;
    Ok((status, read_headers(r, &mut budget)?))
}

/// Read a response status line and headers, then append the body to
/// `sink`. On a short read (peer died mid-body) the bytes received so far
/// stay in `sink` and the error is surfaced — that partial prefix is what
/// makes `Range` resume possible.
pub fn read_response_into(
    r: &mut impl BufRead,
    sink: &mut Vec<u8>,
    max_body: usize,
) -> io::Result<(u16, Vec<(String, String)>)> {
    let (status, headers) = read_response_head(r)?;
    if find_header(&headers, "transfer-encoding")
        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
    {
        let body = read_chunked(r, max_body)?;
        sink.extend_from_slice(&body);
        return Ok((status, headers));
    }
    let len = match find_header(&headers, "content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?,
        None => 0,
    };
    if len > max_body {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("body of {len} bytes exceeds limit {max_body}"),
        ));
    }
    // One reservation (`len` is bounded by `max_body` above), then the body
    // goes straight into the sink's tail: `read_to_end` keeps every byte it
    // received in `sink` when a read fails, so a truncated transfer still
    // leaves exactly its prefix there.
    sink.reserve(len);
    let got = r.take(len as u64).read_to_end(sink)?;
    if got < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("body truncated: {} of {len} bytes missing", len - got),
        ));
    }
    Ok((status, headers))
}

/// Incremental request parser for the nonblocking serve path.
///
/// The event loop feeds whatever bytes the socket had; the parser consumes
/// them (request line, headers, `Content-Length` or chunked bodies, shared
/// header/body budgets) without ever blocking or re-scanning already-seen
/// bytes. It is the only request grammar a daemon runs; the blocking
/// `read_request` in this file's tests is the reference it is held to.
/// Bytes past a complete request stay buffered for the next keep-alive
/// round.
#[derive(Debug)]
pub struct RequestParser {
    max_body: usize,
    buf: Vec<u8>,
    /// How far the header-terminator scan has progressed (avoids O(n²)
    /// rescans while a large header block trickles in).
    scanned: usize,
    phase: Phase,
}

#[derive(Debug)]
enum Phase {
    Head,
    Sized { head: HeadParts, need: usize },
    Chunked { head: HeadParts, decoded: Vec<u8>, chunk: ChunkPhase },
}

#[derive(Debug)]
struct HeadParts {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
}

#[derive(Debug)]
enum ChunkPhase {
    Size,
    Data { remaining: usize },
    DataCrlf,
    Trailer,
}

fn invalid(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

impl RequestParser {
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser {
            max_body,
            buf: Vec::new(),
            scanned: 0,
            phase: Phase::Head,
        }
    }

    /// Bytes currently buffered (request in flight + any pipelined tail).
    pub fn buffered(&self) -> usize {
        self.buf.len()
            + match &self.phase {
                Phase::Chunked { decoded, .. } => decoded.len(),
                _ => 0,
            }
    }

    /// Append freshly-read bytes and try to complete a request. Returns
    /// `Ok(Some(_))` as soon as one full request is available — call with
    /// an empty slice to drain further pipelined requests. An error means
    /// the peer violated the protocol; the connection should be dropped.
    pub fn feed(&mut self, data: &[u8]) -> io::Result<Option<Request>> {
        self.buf.extend_from_slice(data);
        loop {
            match std::mem::replace(&mut self.phase, Phase::Head) {
                Phase::Head => {
                    let Some(head_end) = self.find_head_end()? else {
                        return Ok(None);
                    };
                    let head = self.parse_head(head_end)?;
                    self.buf.drain(..head_end + 4);
                    self.scanned = 0;
                    if find_header(&head.headers, "transfer-encoding")
                        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
                    {
                        self.phase = Phase::Chunked {
                            head,
                            decoded: Vec::new(),
                            chunk: ChunkPhase::Size,
                        };
                        continue;
                    }
                    let need = match find_header(&head.headers, "content-length") {
                        Some(v) => v.parse::<usize>().map_err(|_| invalid("bad content-length"))?,
                        None => 0,
                    };
                    if need > self.max_body {
                        return Err(invalid(format!(
                            "body of {need} bytes exceeds limit {}",
                            self.max_body
                        )));
                    }
                    if need == 0 {
                        return Ok(Some(self.produce(head, Vec::new())));
                    }
                    self.phase = Phase::Sized { head, need };
                }
                Phase::Sized { head, need } => {
                    if self.buf.len() < need {
                        self.phase = Phase::Sized { head, need };
                        return Ok(None);
                    }
                    let body: Vec<u8> = self.buf.drain(..need).collect();
                    return Ok(Some(self.produce(head, body)));
                }
                Phase::Chunked { head, mut decoded, mut chunk } => {
                    loop {
                        match chunk {
                            ChunkPhase::Size => {
                                let Some(line_end) = find_crlf(&self.buf, 130) else {
                                    if self.buf.len() > 130 {
                                        return Err(invalid("chunk size line too long"));
                                    }
                                    self.phase = Phase::Chunked { head, decoded, chunk };
                                    return Ok(None);
                                };
                                let line = std::str::from_utf8(&self.buf[..line_end])
                                    .map_err(|_| invalid("non-utf8 chunk size"))?;
                                let hex = line.split(';').next().unwrap_or("").trim();
                                let size = usize::from_str_radix(hex, 16)
                                    .map_err(|_| invalid("bad chunk size"))?;
                                self.buf.drain(..line_end + 2);
                                chunk = if size == 0 {
                                    ChunkPhase::Trailer
                                } else {
                                    if decoded.len() + size > self.max_body {
                                        return Err(invalid("chunked body exceeds limit"));
                                    }
                                    ChunkPhase::Data { remaining: size }
                                };
                            }
                            ChunkPhase::Data { remaining } => {
                                let take = remaining.min(self.buf.len());
                                decoded.extend(self.buf.drain(..take));
                                let left = remaining - take;
                                if left > 0 {
                                    self.phase = Phase::Chunked {
                                        head,
                                        decoded,
                                        chunk: ChunkPhase::Data { remaining: left },
                                    };
                                    return Ok(None);
                                }
                                chunk = ChunkPhase::DataCrlf;
                            }
                            ChunkPhase::DataCrlf => {
                                if self.buf.len() < 2 {
                                    self.phase = Phase::Chunked { head, decoded, chunk };
                                    return Ok(None);
                                }
                                if &self.buf[..2] != b"\r\n" {
                                    return Err(invalid("chunk missing CRLF"));
                                }
                                self.buf.drain(..2);
                                chunk = ChunkPhase::Size;
                            }
                            ChunkPhase::Trailer => {
                                let Some(line_end) = find_crlf(&self.buf, 1024) else {
                                    if self.buf.len() > 1024 {
                                        return Err(invalid("trailer section too long"));
                                    }
                                    self.phase = Phase::Chunked { head, decoded, chunk };
                                    return Ok(None);
                                };
                                let empty = line_end == 0;
                                self.buf.drain(..line_end + 2);
                                if empty {
                                    return Ok(Some(self.produce(head, decoded)));
                                }
                                chunk = ChunkPhase::Trailer;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Locate the `\r\n\r\n` head terminator, enforcing the header budget.
    fn find_head_end(&mut self) -> io::Result<Option<usize>> {
        let start = self.scanned.saturating_sub(3);
        if let Some(pos) = self.buf[start..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + start)
        {
            if pos + 4 > MAX_HEADER_BYTES {
                return Err(invalid("header block exceeds limit"));
            }
            return Ok(Some(pos));
        }
        self.scanned = self.buf.len();
        if self.buf.len() > MAX_HEADER_BYTES {
            return Err(invalid("header block exceeds limit"));
        }
        Ok(None)
    }

    fn parse_head(&self, head_end: usize) -> io::Result<HeadParts> {
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("non-utf8 header line"))?;
        let mut lines = head.split("\r\n");
        let start = lines.next().unwrap_or("");
        let mut parts = start.split_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) => (m, p, v),
            _ => return Err(invalid(format!("malformed request line: {start}"))),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(invalid(format!("unsupported version: {version}")));
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid(format!("malformed header: {line}")))?;
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        Ok(HeadParts {
            method: method.to_string(),
            path: path.to_string(),
            headers,
        })
    }

    fn produce(&mut self, head: HeadParts, body: Vec<u8>) -> Request {
        self.phase = Phase::Head;
        self.scanned = 0;
        Request {
            method: head.method,
            path: head.path,
            headers: head.headers,
            body,
        }
    }
}

fn find_crlf(buf: &[u8], budget: usize) -> Option<usize> {
    buf[..buf.len().min(budget)]
        .windows(2)
        .position(|w| w == b"\r\n")
}

/// Serialize only a response head with an explicit `Content-Length` —
/// the streaming serve path emits this and then copies the body straight
/// from its source (shared buffer or file) without materializing it.
pub fn response_head_bytes(resp: &Response, content_length: u64) -> Vec<u8> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status));
    for (k, v) in &resp.headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("Content-Length: {content_length}\r\n\r\n"));
    head.into_bytes()
}

/// Parse an RFC 7233 byte range against a body of `total` bytes:
/// `bytes=N-` (open end), `bytes=N-M` (inclusive end), or the suffix form
/// `bytes=-N` (the final N bytes). Returns the half-open `[start, end)`
/// range, or `None` if the header is absent or unsatisfiable (the caller
/// answers a present-but-unsatisfiable header with 416).
pub fn parse_range(header: Option<&str>, total: u64) -> Option<(u64, u64)> {
    let spec = header?.strip_prefix("bytes=")?;
    let (from, to) = spec.split_once('-')?;
    if from.trim().is_empty() {
        // Suffix form: the last N bytes. N = 0 is unsatisfiable per RFC
        // 7233 §2.1, as is a suffix on an empty body.
        let n: u64 = to.trim().parse().ok()?;
        if n == 0 || total == 0 {
            return None;
        }
        return Some((total.saturating_sub(n), total));
    }
    let start: u64 = from.trim().parse().ok()?;
    let end: u64 = match to.trim() {
        "" => total,
        t => t.parse::<u64>().ok()?.checked_add(1)?,
    };
    if start >= total || end > total || start >= end {
        return None;
    }
    Some((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    // The blocking reader and writer the daemon ran before the event loop:
    // no production caller is left, they stay as the reference grammar the
    // differential tests below hold `RequestParser` and
    // `response_head_bytes` to.

    /// Read the message body described by `headers`.
    fn read_body(
        r: &mut impl BufRead,
        headers: &[(String, String)],
        max_body: usize,
    ) -> io::Result<Vec<u8>> {
        if find_header(headers, "transfer-encoding")
            .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
        {
            return read_chunked(r, max_body);
        }
        let len = match find_header(headers, "content-length") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?,
            None => return Ok(Vec::new()),
        };
        if len > max_body {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("body of {len} bytes exceeds limit {max_body}"),
            ));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        Ok(body)
    }

    /// Read one request off the wire. `Ok(None)` means the peer closed the
    /// connection cleanly before sending another request (keep-alive end).
    fn read_request(r: &mut impl BufRead, max_body: usize) -> io::Result<Option<Request>> {
        let mut budget = MAX_HEADER_BYTES;
        let start = match read_line(r, &mut budget) {
            Ok(line) => line,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut parts = start.split_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) => (m, p, v),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed request line: {start}"),
                ))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported version: {version}"),
            ));
        }
        let headers = read_headers(r, &mut budget)?;
        let body = read_body(r, &headers, max_body)?;
        Ok(Some(Request {
            method: method.to_string(),
            path: path.to_string(),
            headers,
            body,
        }))
    }

    /// Serialize a response, always with `Content-Length` framing. When
    /// `truncate_after` is set only that many body bytes go out — the fault
    /// injection used to exercise client resume; callers must then drop the
    /// connection (the advertised length was a lie).
    fn write_response(
        w: &mut impl Write,
        resp: &Response,
        truncate_after: Option<usize>,
    ) -> io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status));
        for (k, v) in &resp.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", resp.body.len()));
        w.write_all(head.as_bytes())?;
        let cut = truncate_after.unwrap_or(resp.body.len()).min(resp.body.len());
        w.write_all(&resp.body[..cut])?;
        w.flush()
    }

    fn roundtrip_request(body: Option<&[u8]>, chunked: bool) -> Request {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "PUT",
            "/v2/app/blobs/sha256:abc",
            &[("Host".into(), "localhost".into())],
            body,
            chunked,
        )
        .unwrap();
        let mut r = BufReader::new(&wire[..]);
        read_request(&mut r, 1 << 20).unwrap().unwrap()
    }

    #[test]
    fn request_roundtrip_content_length() {
        let req = roundtrip_request(Some(b"hello blob"), false);
        assert_eq!(req.method, "PUT");
        assert_eq!(req.path, "/v2/app/blobs/sha256:abc");
        assert_eq!(req.body, b"hello blob");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
    }

    #[test]
    fn request_roundtrip_chunked() {
        // Multi-chunk: body larger than one upload chunk.
        let body: Vec<u8> = (0..UPLOAD_CHUNK + 123).map(|i| (i % 251) as u8).collect();
        let req = roundtrip_request(Some(&body), true);
        assert_eq!(req.body, body);
    }

    #[test]
    fn empty_body_request() {
        let req = roundtrip_request(None, false);
        assert!(req.body.is_empty());
    }

    #[test]
    fn response_roundtrip_and_truncation() {
        let resp = Response::new(200)
            .with_header("Docker-Content-Digest", "sha256:ff")
            .with_body(vec![7u8; 1000]);
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, None).unwrap();
        let mut sink = Vec::new();
        let (status, headers) =
            read_response_into(&mut BufReader::new(&wire[..]), &mut sink, 1 << 20).unwrap();
        assert_eq!(status, 200);
        assert_eq!(find_header(&headers, "docker-content-digest"), Some("sha256:ff"));
        assert_eq!(sink.len(), 1000);

        // Truncated write: reader keeps the prefix and reports EOF.
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, Some(100)).unwrap();
        let mut sink = Vec::new();
        let err = read_response_into(&mut BufReader::new(&wire[..]), &mut sink, 1 << 20)
            .expect_err("truncated body must error");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(sink.len(), 100, "partial prefix retained for resume");
    }

    /// A transport that hands out `script`'s reads one by one and then
    /// fails (or, with no error, reports end of stream).
    struct Flaky<'a, I: Iterator<Item = &'a [u8]>> {
        script: I,
        then: Option<io::ErrorKind>,
    }

    impl<'a, I: Iterator<Item = &'a [u8]>> Read for Flaky<'a, I> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.script.next(), self.then) {
                (Some(piece), _) => {
                    assert!(piece.len() <= buf.len(), "script pieces fit any reader buffer");
                    buf[..piece.len()].copy_from_slice(piece);
                    Ok(piece.len())
                }
                (None, Some(kind)) => Err(kind.into()),
                (None, None) => Ok(0),
            }
        }
    }

    #[test]
    fn body_limit_enforced() {
        let mut wire = Vec::new();
        write_request(&mut wire, "PUT", "/x", &[], Some(&[1u8; 4096]), false).unwrap();
        let err = read_request(&mut BufReader::new(&wire[..]), 1024).expect_err("over limit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut wire = Vec::new();
        write_request(&mut wire, "PUT", "/x", &[], Some(&[1u8; 4096]), true).unwrap();
        let err = read_request(&mut BufReader::new(&wire[..]), 1024).expect_err("over limit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // The client side reserves `Content-Length` up front, so the limit
        // has to refuse a declared length before anything is allocated.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n";
        let mut sink = Vec::new();
        let err = read_response_into(&mut BufReader::new(&wire[..]), &mut sink, 1 << 20)
            .expect_err("over limit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(sink.capacity(), 0);
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = b"";
        assert!(read_request(&mut BufReader::new(empty), 1024)
            .unwrap()
            .is_none());
    }

    #[test]
    fn range_parsing() {
        assert_eq!(parse_range(Some("bytes=0-"), 10), Some((0, 10)));
        assert_eq!(parse_range(Some("bytes=4-"), 10), Some((4, 10)));
        assert_eq!(parse_range(Some("bytes=2-5"), 10), Some((2, 6)));
        assert_eq!(parse_range(Some("bytes=10-"), 10), None);
        assert_eq!(parse_range(Some("bytes=5-4"), 10), None);
        assert_eq!(parse_range(Some("bytes=0-99"), 10), None);
        assert_eq!(parse_range(None, 10), None);
        assert_eq!(parse_range(Some("lines=1-"), 10), None);
    }

    #[test]
    fn parse_range_suffix_form() {
        // RFC 7233 suffix form: the final N bytes.
        assert_eq!(parse_range(Some("bytes=-4"), 10), Some((6, 10)));
        assert_eq!(parse_range(Some("bytes=-10"), 10), Some((0, 10)));
        // A suffix longer than the body means the whole body (§2.1).
        assert_eq!(parse_range(Some("bytes=-99"), 10), Some((0, 10)));
        // Unsatisfiable suffixes → None → the server answers 416.
        assert_eq!(parse_range(Some("bytes=-0"), 10), None);
        assert_eq!(parse_range(Some("bytes=-4"), 0), None);
        // Empty spec (`bytes=-`) and garbage never panic.
        assert_eq!(parse_range(Some("bytes=-"), 10), None);
        assert_eq!(parse_range(Some("bytes="), 10), None);
        assert_eq!(parse_range(Some("bytes=-abc"), 10), None);
    }

    #[test]
    fn incremental_parser_matches_blocking_reader_byte_by_byte() {
        // Content-Length and chunked requests, delivered one byte at a
        // time, parse identically to the blocking reader.
        for chunked in [false, true] {
            let body: Vec<u8> = (0..UPLOAD_CHUNK + 57).map(|i| (i % 253) as u8).collect();
            let mut raw = Vec::new();
            write_request(
                &mut raw,
                "PUT",
                "/v2/app/blobs/sha256:abc",
                &[("Host".into(), "localhost".into())],
                Some(&body),
                chunked,
            )
            .unwrap();
            let mut parser = RequestParser::new(1 << 22);
            let mut got = None;
            for (i, b) in raw.iter().enumerate() {
                match parser.feed(std::slice::from_ref(b)).unwrap() {
                    Some(req) => {
                        assert_eq!(i, raw.len() - 1, "completed early (chunked={chunked})");
                        got = Some(req);
                    }
                    None => assert!(i < raw.len() - 1, "never completed (chunked={chunked})"),
                }
            }
            let req = got.expect("request parsed");
            assert_eq!(req.method, "PUT");
            assert_eq!(req.path, "/v2/app/blobs/sha256:abc");
            assert_eq!(req.header("host"), Some("localhost"));
            assert_eq!(req.body, body, "chunked={chunked}");
            assert_eq!(parser.buffered(), 0);
        }
    }

    #[test]
    fn incremental_parser_keeps_pipelined_tail() {
        let mut raw = Vec::new();
        write_request(&mut raw, "GET", "/v2/", &[], None, false).unwrap();
        let first_len = raw.len();
        write_request(&mut raw, "GET", "/v2/x/blobs/sha256:ff", &[], None, false).unwrap();
        let mut parser = RequestParser::new(1 << 20);
        // Feed both requests at once: the first completes, the tail stays.
        let one = parser.feed(&raw).unwrap().expect("first request");
        assert_eq!(one.path, "/v2/");
        assert_eq!(parser.buffered(), raw.len() - first_len);
        let two = parser.feed(&[]).unwrap().expect("second request");
        assert_eq!(two.path, "/v2/x/blobs/sha256:ff");
        assert_eq!(parser.buffered(), 0);
        assert!(parser.feed(&[]).unwrap().is_none());
    }

    #[test]
    fn incremental_parser_enforces_budgets() {
        // Oversized sized body.
        let mut parser = RequestParser::new(16);
        let raw = b"PUT /x HTTP/1.1\r\nContent-Length: 64\r\n\r\n";
        assert!(parser.feed(raw).is_err());
        // Oversized chunked body.
        let mut parser = RequestParser::new(16);
        let raw = b"PUT /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n40\r\n";
        assert!(parser.feed(raw).is_err());
        // Unbounded header block.
        let mut parser = RequestParser::new(1 << 20);
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 2));
        assert!(parser.feed(&raw).is_err());
        // Garbage request line.
        let mut parser = RequestParser::new(1 << 20);
        assert!(parser.feed(b"nonsense\r\n\r\n").is_err());
    }

    /// Drive a parser the way the event loop does: feed one read, then
    /// drain pipelined requests before the next. `Err` ends the connection.
    fn feed_all<'a>(
        parser: &mut RequestParser,
        reads: impl Iterator<Item = &'a [u8]>,
        mut after_feed: impl FnMut(&RequestParser, usize),
    ) -> io::Result<Vec<Request>> {
        let mut got = Vec::new();
        for read in reads {
            let mut next = parser.feed(read)?;
            after_feed(parser, read.len());
            while let Some(req) = next {
                got.push(req);
                next = parser.feed(&[])?;
            }
        }
        Ok(got)
    }

    /// Cut `raw` into consecutive reads of the given lengths (cycled).
    fn reads<'a>(raw: &'a [u8], lens: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
        let mut rest = raw;
        lens.iter().cycle().map_while(move |&n| {
            let (head, tail) = rest.split_at(n.min(rest.len()));
            rest = tail;
            (!head.is_empty()).then_some(head)
        })
    }

    /// One valid request on the wire; chunked bodies go out in pieces of
    /// `piece` bytes so the fuzz loop cuts through many size lines.
    fn encode(method: &str, path: &str, body: &[u8], chunked: Option<usize>) -> Vec<u8> {
        let Some(piece) = chunked else {
            let mut raw = Vec::new();
            write_request(&mut raw, method, path, &[("Host".into(), "h".into())], Some(body), false)
                .unwrap();
            return raw;
        };
        let mut raw = format!("{method} {path} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").into_bytes();
        for chunk in body.chunks(piece) {
            raw.extend(format!("{:x};ext=1\r\n", chunk.len()).into_bytes());
            raw.extend(chunk);
            raw.extend(b"\r\n");
        }
        raw.extend(b"0\r\nX-Trailer: t\r\n\r\n");
        raw
    }

    type Spec = (&'static str, String, Vec<u8>, Option<usize>);

    /// A pipelined run of valid requests: method, path, body, and the
    /// chunk piece size when the body goes out chunked.
    fn request_specs() -> impl Strategy<Value = Vec<Spec>> {
        prop::collection::vec(
            (
                prop_oneof![Just("GET"), Just("PUT"), Just("HEAD")],
                "/v2/[a-z]{1,8}/blobs/sha256:[0-9a-f]{8}",
                prop::collection::vec(any::<u8>(), 0..3000),
                prop_oneof![Just(None), (1usize..700).prop_map(Some)],
            ),
            1..6,
        )
    }

    fn encode_all(specs: &[Spec]) -> Vec<u8> {
        specs.iter().flat_map(|(method, path, body, chunked)| encode(method, path, body, *chunked)).collect()
    }

    /// What gets spliced into a valid stream to make it hostile: noise,
    /// and the grammar's own pieces in the wrong place or amount.
    fn splice() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..700),
            "[A-Z]{3,4} /[a-z/]{0,12} HTTP/[12]\\.[01]\r\n".prop_map(String::into_bytes),
            "Content-Length: [0-9]{1,5}\r\n".prop_map(String::into_bytes),
            Just(b"Transfer-Encoding: chunked\r\n\r\n".to_vec()),
            Just(b"\r\n".to_vec()),
            "[0-9a-f]{1,5}(;[a-z]{0,4})?\r\n".prop_map(String::into_bytes),
            (17_000usize..18_000).prop_map(|n| vec![b'a'; n]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Untrusted bytes: a valid stream with garbage spliced in, or
        /// plain garbage, in whatever splits, gets `Ok` or `Err` — never a
        /// panic — and the parser never holds more than its budgets plus
        /// the read that overflowed them.
        #[test]
        fn parser_survives_hostile_streams_within_its_budgets(
            specs in request_specs(),
            splices in prop::collection::vec((any::<prop::sample::Index>(), splice()), 0..4),
            garbage_only in any::<bool>(),
            lens in prop::collection::vec(1usize..2048, 1..8),
            max_body in 0usize..4096,
        ) {
            let mut raw = if garbage_only { Vec::new() } else { encode_all(&specs) };
            for (at, bytes) in splices {
                let at = at.index(raw.len() + 1);
                raw.splice(at..at, bytes);
            }
            let mut parser = RequestParser::new(max_body);
            let mut worst = None;
            let _ = feed_all(&mut parser, reads(&raw, &lens), |p, read| {
                if p.buffered() > MAX_HEADER_BYTES + max_body + read {
                    worst = Some((p.buffered(), read));
                }
            });
            prop_assert!(worst.is_none(), "buffered {worst:?} with max_body {max_body}");
        }

        /// The resume contract of `read_response_into`: a body that
        /// arrives in short reads of any sizes and then dies — by error or
        /// by end of stream — leaves exactly the delivered bytes in `sink`,
        /// after whatever an earlier attempt had left there.
        #[test]
        fn cut_response_leaves_exactly_its_prefix_in_sink(
            body in prop::collection::vec(any::<u8>(), 1..20_000),
            earlier in prop::collection::vec(any::<u8>(), 0..64),
            cut in any::<prop::sample::Index>(),
            lens in prop::collection::vec(1usize..3000, 1..8),
            reset in any::<bool>(),
        ) {
            let mut wire = Vec::new();
            write_response(&mut wire, &Response::new(200).with_body(body.clone()), None).unwrap();
            let head = wire.len() - body.len();
            let delivered = cut.index(body.len());
            let kind = reset.then_some(io::ErrorKind::ConnectionReset);
            let transport = Flaky { script: reads(&wire[..head + delivered], &lens), then: kind };
            let mut sink = earlier.clone();
            let err = read_response_into(&mut BufReader::new(transport), &mut sink, 1 << 20)
                .expect_err("a cut body is an error");
            prop_assert_eq!(err.kind(), kind.unwrap_or(io::ErrorKind::UnexpectedEof));
            prop_assert_eq!(&sink[..earlier.len()], &earlier[..]);
            prop_assert_eq!(&sink[earlier.len()..], &body[..delivered]);

            // The whole body, however it is split, lands after the prefix.
            let transport = Flaky { script: reads(&wire, &lens), then: kind };
            let mut sink = earlier.clone();
            let (status, _) =
                read_response_into(&mut BufReader::new(transport), &mut sink, 1 << 20).unwrap();
            prop_assert_eq!(status, 200);
            prop_assert_eq!(&sink[earlier.len()..], &body[..]);
        }

        /// Friendly bytes: a pipelined sequence of valid requests, sized
        /// and chunked, parses to the same requests however it is split.
        #[test]
        fn split_feeds_parse_like_one_whole_feed(
            specs in request_specs(),
            lens in prop::collection::vec(1usize..900, 1..8),
        ) {
            let raw = encode_all(&specs);
            let whole = feed_all(&mut RequestParser::new(4096), std::iter::once(&raw[..]), |_, _| {}).unwrap();
            let mut parser = RequestParser::new(4096);
            let split = feed_all(&mut parser, reads(&raw, &lens), |_, _| {}).unwrap();
            prop_assert_eq!(parser.buffered(), 0);
            prop_assert_eq!(format!("{split:?}"), format!("{whole:?}"));
            prop_assert_eq!(whole.len(), specs.len());
            for (req, (method, path, body, _)) in whole.iter().zip(&specs) {
                prop_assert_eq!((req.method.as_str(), &req.path, &req.body), (*method, path, body));
            }
        }
    }

    #[test]
    fn response_head_matches_blocking_writer() {
        let resp = Response::new(206).with_header("Content-Range", "bytes 0-9/100");
        let head = response_head_bytes(&resp, 10);
        let text = String::from_utf8(head).unwrap();
        assert!(text.starts_with("HTTP/1.1 206 Partial Content\r\n"), "{text}");
        assert!(text.contains("Content-Range: bytes 0-9/100\r\n"));
        assert!(text.ends_with("Content-Length: 10\r\n\r\n"));
    }

    #[test]
    fn parse_range_overflow_inputs() {
        // u64::MAX end + 1 must not wrap; checked_add rejects it.
        let max = u64::MAX.to_string();
        assert_eq!(parse_range(Some(&format!("bytes=0-{max}")), 10), None);
        // Oversized-but-parseable start is simply out of range.
        assert_eq!(parse_range(Some(&format!("bytes={max}-")), 10), None);
        // A suffix of u64::MAX saturates to the whole body, no wrap.
        assert_eq!(parse_range(Some(&format!("bytes=-{max}")), 10), Some((0, 10)));
        // Numbers beyond u64 fail to parse → None, not panic.
        let huge = "184467440737095516160"; // u64::MAX * 10
        assert_eq!(parse_range(Some(&format!("bytes={huge}-")), 10), None);
        assert_eq!(parse_range(Some(&format!("bytes=-{huge}")), 10), None);
    }
}
