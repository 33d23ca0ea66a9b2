//! A minimal HTTP/1.1 wire codec — exactly the subset the distribution
//! protocol needs, hand-rolled so the workspace stays hermetic.
//!
//! Supported: request/status lines, headers, `Content-Length` and
//! `Transfer-Encoding: chunked` bodies, `Range: bytes=N-`/`bytes=N-M`
//! parsing, and keep-alive semantics (`Connection: close` honoured).
//!
//! Both sides read through one sans-IO [`Parser`]: the daemon's event loop
//! feeds it requests (`crate::eventloop`), the client responses through
//! the blocking reader behind [`read_response_into`] and
//! [`read_response_head`]. Everything is bounded: a head is capped at
//! [`MAX_HEADER_BYTES`], a chunk-size line at 128 bytes, the last chunk's
//! line and its trailers at 1 024, and a body at a caller-supplied limit,
//! so a misbehaving peer cannot balloon memory.

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

/// What [`Parser::feed`] found in the bytes it was given.
#[derive(Debug)]
pub enum Event<'a> {
    /// A request's method, path and headers; its `body` is empty.
    Request(Request),
    /// A response's status and headers; its `body` is empty.
    Response(Response),
    /// The next piece of the body: a slice of the fed bytes, framing
    /// removed.
    Body(&'a [u8]),
    /// The message is complete; the next byte fed starts the next one.
    End,
}

/// The one HTTP/1.1 message parser, sans IO: the daemon reads requests
/// with it, the client responses.
///
/// It is fed whatever bytes a transport had and yields a message's head,
/// then its body as slices of those same bytes, then its end. The start
/// line, the header budget, `Content-Length`, chunked decoding with
/// trailers and the body limit are each written once, here. The parser
/// keeps only an incomplete head or chunk-framing line, never body bytes,
/// so how a body is stored — and how often it is copied — is its
/// caller's choice. After [`Event::End`] it parses the next message of a
/// keep-alive stream.
#[derive(Debug)]
pub struct Parser {
    /// `None` parses requests; `Some(to_head)` responses, where an answer
    /// to `HEAD` has no body whatever its `Content-Length` says.
    response: Option<bool>,
    max_body: usize,
    /// Body bytes of the current message so far (chunked limit).
    body_len: usize,
    /// The incomplete head or framing line.
    line: Vec<u8>,
    state: State,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Head,
    /// `left` body bytes still to come; in a chunked body the chunk's
    /// CRLF follows them.
    Data {
        left: usize,
        chunked: bool,
    },
    ChunkSize,
    /// The last chunk's size line and the trailer section, up to the
    /// blank line that ends both.
    Trailer,
}

fn invalid(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

impl Parser {
    /// A parser of requests whose bodies may hold up to `max_body` bytes.
    pub fn request(max_body: usize) -> Parser {
        Parser::new(None, max_body)
    }

    /// A parser of responses; `to_head` when they answer `HEAD` requests.
    pub fn response(max_body: usize, to_head: bool) -> Parser {
        Parser::new(Some(to_head), max_body)
    }

    fn new(response: Option<bool>, max_body: usize) -> Parser {
        Parser {
            response,
            max_body,
            body_len: 0,
            line: Vec::new(),
            state: State::Head,
        }
    }

    /// Bytes the parser holds: the incomplete head or framing line.
    #[cfg(test)]
    pub(crate) fn buffered(&self) -> usize {
        self.line.len()
    }

    /// Body bytes certain to come next — the rest of a sized body or of
    /// the chunk in flight; 0 while a head or framing line is read. A
    /// caller may read that many straight into the body's storage and
    /// then feed them from there.
    pub(crate) fn body_due(&self) -> usize {
        match self.state {
            State::Data { left, .. } => left,
            _ => 0,
        }
    }

    /// Consume bytes from the front of `data` up to the next event.
    /// `Ok((used, Some(event)))`: the first `used` bytes are consumed,
    /// the event's body slice among them; feed the rest to get the next
    /// event. `Ok((data.len(), None))`: all of `data` went in and more is
    /// needed. An empty `data` still yields the [`Event::End`] of a body
    /// that is complete. An error is a protocol violation or a broken
    /// budget; the stream is unusable after it.
    pub fn feed<'a>(&mut self, data: &'a [u8]) -> io::Result<(usize, Option<Event<'a>>)> {
        let mut used = 0;
        loop {
            let rest = &data[used..];
            // Every state but a body's bytes reads a line: what ends it,
            // the most it may hold, and the error past that.
            let (end, cap, too_long): (&[u8], usize, &str) = match self.state {
                State::Data {
                    left: 0,
                    chunked: false,
                } => {
                    self.state = State::Head;
                    return Ok((used, Some(Event::End)));
                }
                State::Data {
                    left: 0,
                    chunked: true,
                } => (b"\r\n", 2, "chunk missing CRLF"),
                State::Data { left, chunked } => {
                    if rest.is_empty() {
                        return Ok((used, None));
                    }
                    let n = left.min(rest.len());
                    self.state = State::Data {
                        left: left - n,
                        chunked,
                    };
                    return Ok((used + n, Some(Event::Body(&rest[..n]))));
                }
                State::Head => (b"\r\n\r\n", MAX_HEADER_BYTES, "header block exceeds limit"),
                State::ChunkSize => (b"\r\n", 128, "chunk size line too long"),
                State::Trailer => (b"\r\n\r\n", 1024, "trailer section too long"),
            };
            let Some(n) = self.take_line(rest, end, cap, too_long)? else {
                return Ok((data.len(), None));
            };
            used += n;
            match self.state {
                State::Head => return Ok((used, Some(self.parse_head()?))),
                State::ChunkSize => {
                    let line = std::str::from_utf8(&self.line)
                        .map_err(|_| invalid("non-utf8 chunk size"))?;
                    let hex = line.split(';').next().unwrap_or("").trim();
                    let size =
                        usize::from_str_radix(hex, 16).map_err(|_| invalid("bad chunk size"))?;
                    if size == 0 {
                        // The line stays: the trailer ends at the first
                        // blank line after it.
                        self.state = State::Trailer;
                        continue;
                    }
                    if size > self.max_body - self.body_len {
                        return Err(invalid("chunked body exceeds limit"));
                    }
                    self.body_len += size;
                    self.state = State::Data {
                        left: size,
                        chunked: true,
                    };
                }
                State::Trailer => {
                    self.line.clear();
                    self.state = State::Head;
                    return Ok((used, Some(Event::End)));
                }
                // A chunk's closing CRLF.
                State::Data { .. } => self.state = State::ChunkSize,
            }
            self.line.clear();
        }
    }

    /// Move bytes of `data` into the line buffer until it ends with `end`,
    /// which ends in `\n`: `Some(used)` once it does, `None` when all of
    /// `data` went in short of it. A buffer that reaches `cap` bytes
    /// without `end` is an error.
    fn take_line(
        &mut self,
        data: &[u8],
        end: &[u8],
        cap: usize,
        too_long: &str,
    ) -> io::Result<Option<usize>> {
        let mut used = 0;
        // Only a `\n` can complete `end`: take the bytes up to each in turn.
        while let Some(i) = data[used..].iter().position(|&b| b == b'\n') {
            let next = used + i + 1;
            if self.line.len() + next - used > cap {
                return Err(invalid(too_long));
            }
            self.line.extend_from_slice(&data[used..next]);
            used = next;
            if self.line.ends_with(end) {
                return Ok(Some(used));
            }
        }
        if self.line.len() + data.len() - used >= cap {
            return Err(invalid(too_long));
        }
        self.line.extend_from_slice(&data[used..]);
        Ok(None)
    }

    /// Parse the complete head in the line buffer and choose how its body
    /// is framed: chunked, `Content-Length`, or — with neither header, or
    /// in an answer to `HEAD` — none.
    fn parse_head(&mut self) -> io::Result<Event<'static>> {
        let text = std::str::from_utf8(&self.line).map_err(|_| invalid("non-utf8 header line"))?;
        let mut lines = text.split("\r\n");
        let start = lines.next().unwrap_or("");
        let mut headers = Vec::new();
        for line in lines.filter(|l| !l.is_empty()) {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid(format!("malformed header: {line}")))?;
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        let to_head = self.response == Some(true);
        let chunked = find_header(&headers, "transfer-encoding")
            .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"));
        let len = match find_header(&headers, "content-length") {
            _ if chunked || to_head => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| invalid("bad content-length"))?,
            None => 0,
        };
        if len > self.max_body {
            return Err(invalid(format!(
                "body of {len} bytes exceeds limit {}",
                self.max_body
            )));
        }
        let mut words = start.split_whitespace();
        let head = match (self.response, words.next(), words.next(), words.next()) {
            (None, Some(method), Some(path), Some(version)) if version.starts_with("HTTP/1.") => {
                Event::Request(Request {
                    method: method.to_string(),
                    path: path.to_string(),
                    headers,
                    body: Vec::new(),
                })
            }
            (Some(_), Some(version), Some(code), _) if version.starts_with("HTTP/1.") => {
                let status = code
                    .parse()
                    .map_err(|_| invalid(format!("malformed status line: {start}")))?;
                Event::Response(Response {
                    status,
                    headers,
                    body: Vec::new(),
                })
            }
            _ => return Err(invalid(format!("malformed start line: {start}"))),
        };
        self.state = if chunked && !to_head {
            State::ChunkSize
        } else {
            State::Data {
                left: len,
                chunked: false,
            }
        };
        self.body_len = 0;
        self.line.clear();
        Ok(head)
    }
}

/// Read a response status line and headers, and nothing after them — the
/// whole of an answer to `HEAD` (RFC 9110 §9.3.2: its `Content-Length`
/// describes the body a `GET` would carry, which is not sent).
pub fn read_response_head(r: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    read_response(r, &mut Vec::new(), Parser::response(0, true))
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
    read_response(r, sink, Parser::response(max_body, false))
}

/// The blocking reader over [`Parser`]. Body bytes the parser knows are
/// due go straight into `sink`'s reserved tail — one reservation for a
/// sized body, no copy through a buffer — and are then fed from there, so
/// the parser only steps over them. The head, framing lines and body
/// bytes that arrived with them are fed from the reader's buffer.
fn read_response(
    r: &mut impl BufRead,
    sink: &mut Vec<u8>,
    mut parser: Parser,
) -> io::Result<(u16, Vec<(String, String)>)> {
    let mut head = None;
    loop {
        // An empty body, or a sized one read to its end, ends without
        // more bytes.
        if let (_, Some(Event::End)) = parser.feed(&[])? {
            break;
        }
        let due = parser.body_due();
        if due > 0 {
            // `read_to_end` keeps every byte it received in `sink` when a
            // read fails, so a truncated transfer leaves exactly its
            // prefix there.
            let start = sink.len();
            sink.reserve(due);
            let got = r.by_ref().take(due as u64).read_to_end(sink)?;
            if got < due {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("body truncated: {} of {due} bytes missing", due - got),
                ));
            }
            parser.feed(&sink[start..])?;
            continue;
        }
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        let (used, event) = parser.feed(buf)?;
        let ended = matches!(event, Some(Event::End));
        match event {
            Some(Event::Response(resp)) => head = Some(resp),
            Some(Event::Body(bytes)) => sink.extend_from_slice(bytes),
            _ => {}
        }
        r.consume(used);
        if ended {
            break;
        }
    }
    let head = head.expect("a message ends after its head");
    Ok((head.status, head.headers))
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
/// answers a present-but-unsatisfiable header with 416). An end at or past
/// the body, like a suffix longer than it, means the rest of the body
/// (§2.1).
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
        t => t.parse::<u64>().ok()?.saturating_add(1).min(total),
    };
    if start >= total || start >= end {
        return None;
    }
    Some((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eventloop::Incoming;
    use proptest::prelude::*;
    use std::io::BufReader;

    #[test]
    fn range_parsing() {
        assert_eq!(parse_range(Some("bytes=0-"), 10), Some((0, 10)));
        assert_eq!(parse_range(Some("bytes=4-"), 10), Some((4, 10)));
        assert_eq!(parse_range(Some("bytes=2-5"), 10), Some((2, 6)));
        assert_eq!(parse_range(Some("bytes=10-"), 10), None);
        assert_eq!(parse_range(Some("bytes=5-4"), 10), None);
        // An end past the body is its remainder (RFC 7233 §2.1).
        assert_eq!(parse_range(Some("bytes=0-99"), 10), Some((0, 10)));
        assert_eq!(parse_range(Some("bytes=4-9"), 10), Some((4, 10)));
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
            let mut parser = Incoming::new(1 << 22);
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
        let mut parser = Incoming::new(1 << 20);
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
        let mut parser = Incoming::new(16);
        let raw = b"PUT /x HTTP/1.1\r\nContent-Length: 64\r\n\r\n";
        assert!(parser.feed(raw).is_err());
        // Oversized chunked body.
        let mut parser = Incoming::new(16);
        let raw = b"PUT /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n40\r\n";
        assert!(parser.feed(raw).is_err());
        // Unbounded header block.
        let mut parser = Incoming::new(1 << 20);
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 2));
        assert!(parser.feed(&raw).is_err());
        // Garbage request line.
        let mut parser = Incoming::new(1 << 20);
        assert!(parser.feed(b"nonsense\r\n\r\n").is_err());
    }

    /// A transport that serves `wire` in reads of at most `piece` bytes
    /// and notes where each read's buffer was.
    struct Recording<'a> {
        wire: &'a [u8],
        piece: usize,
        reads: Vec<(usize, usize)>,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.piece).min(self.wire.len());
            buf[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            self.reads.push((buf.as_ptr() as usize, n));
            Ok(n)
        }
    }

    /// The pull row of DESIGN.md's copy table: a sized body is read
    /// straight into the sink's reserved tail. Only the bytes the reader
    /// had buffered along with the head, and a last read shorter than its
    /// buffer, may land anywhere else.
    #[test]
    fn sized_body_is_read_into_the_sink() {
        let body: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        let mut wire = response_head_bytes(&Response::new(200), body.len() as u64);
        wire.extend_from_slice(&body);
        let capacity = 256;
        let mut r = BufReader::with_capacity(
            capacity,
            Recording {
                wire: &wire,
                piece: 40_000,
                reads: Vec::new(),
            },
        );
        let mut sink = Vec::new();
        let (status, _) = read_response_into(&mut r, &mut sink, 1 << 21).unwrap();
        assert_eq!((status, sink == body), (200, true));
        let inside = sink.as_ptr() as usize..sink.as_ptr() as usize + sink.capacity();
        let outside: usize = r
            .get_ref()
            .reads
            .iter()
            .filter(|(at, _)| !inside.contains(at))
            .map(|&(_, n)| n)
            .sum();
        assert!(
            outside <= 2 * capacity,
            "{outside} body bytes were read outside the sink"
        );
        assert_eq!(sink.capacity(), body.len(), "one reservation, no regrowth");
    }

    #[test]
    fn head_answer_ends_at_its_head() {
        let head = response_head_bytes(&Response::new(200), 1 << 40);
        let mut wire = head.clone();
        wire.extend_from_slice(&head);
        let mut r = BufReader::new(&wire[..]);
        for _ in 0..2 {
            let (status, headers) = read_response_head(&mut r).unwrap();
            assert_eq!(
                (status, find_header(&headers, "content-length")),
                (200, Some("1099511627776"))
            );
        }
        // No framing header: an empty body, and the next response follows.
        let mut r =
            BufReader::new(&b"HTTP/1.1 404 Not Found\r\n\r\nHTTP/1.1 201 Created\r\n\r\n"[..]);
        let mut sink = Vec::new();
        assert_eq!(read_response_into(&mut r, &mut sink, 0).unwrap().0, 404);
        assert_eq!(read_response_into(&mut r, &mut sink, 0).unwrap().0, 201);
        assert!(sink.is_empty());
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

    /// Which messages a test stream carries.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Requests,
        Responses,
        /// Answers to `HEAD`: each states a length and carries no body.
        HeadAnswers,
    }

    fn parser(kind: Kind, max_body: usize) -> Parser {
        match kind {
            Kind::Requests => Parser::request(max_body),
            Kind::Responses => Parser::response(max_body, false),
            Kind::HeadAnswers => Parser::response(max_body, true),
        }
    }

    /// How a test message frames its body.
    #[derive(Debug, Clone, Copy)]
    enum Framing {
        Sized,
        /// Chunked in pieces of this many bytes, with chunk extensions
        /// and a trailer, so the fuzz loop cuts through many size lines.
        Chunked(usize),
        /// Neither framing header: the body is empty.
        Bare,
    }

    /// One message: a request line and a status line — the stream's kind
    /// picks one — its body and its framing.
    type Spec = (String, String, Vec<u8>, Framing);

    fn request_line() -> impl Strategy<Value = String> {
        let method = prop_oneof![Just("GET"), Just("PUT"), Just("HEAD")];
        (method, "/v2/[a-z]{1,8}/blobs/sha256:[0-9a-f]{8}")
            .prop_map(|(method, path)| format!("{method} {path} HTTP/1.1"))
    }

    fn status_line() -> impl Strategy<Value = String> {
        let status = prop_oneof![Just(200), Just(206), Just(404)];
        (status, "[A-Za-z ]{0,12}")
            .prop_map(|(status, reason)| format!("HTTP/1.1 {status} {reason}"))
    }

    /// A pipelined run of valid messages of one kind.
    fn streams() -> impl Strategy<Value = (Kind, Vec<Spec>)> {
        let kind = prop_oneof![
            Just(Kind::Requests),
            Just(Kind::Responses),
            Just(Kind::HeadAnswers)
        ];
        let framing = prop_oneof![
            Just(Framing::Sized),
            (1usize..700).prop_map(Framing::Chunked),
            Just(Framing::Bare),
        ];
        let spec = (
            request_line(),
            status_line(),
            prop::collection::vec(any::<u8>(), 0..3000),
            framing,
        )
            .prop_map(|(request, status, body, framing)| match framing {
                Framing::Bare => (request, status, Vec::new(), framing),
                _ => (request, status, body, framing),
            });
        (kind, prop::collection::vec(spec, 1..6))
    }

    fn start_line(kind: Kind, (request, status, ..): &Spec) -> &str {
        if kind == Kind::Requests {
            request
        } else {
            status
        }
    }

    fn encode_all(kind: Kind, specs: &[Spec]) -> Vec<u8> {
        let mut raw = Vec::new();
        for spec in specs {
            let (_, _, body, framing) = spec;
            raw.extend(format!("{}\r\nHost: h\r\n", start_line(kind, spec)).into_bytes());
            match (framing, kind) {
                (_, Kind::HeadAnswers) => {
                    raw.extend(format!("Content-Length: {}\r\n\r\n", body.len()).into_bytes())
                }
                (Framing::Sized, _) => {
                    raw.extend(format!("Content-Length: {}\r\n\r\n", body.len()).into_bytes());
                    raw.extend(body);
                }
                (Framing::Chunked(piece), _) => {
                    raw.extend(b"Transfer-Encoding: chunked\r\n\r\n");
                    for chunk in body.chunks(*piece) {
                        raw.extend(format!("{:x};ext=1\r\n", chunk.len()).into_bytes());
                        raw.extend(chunk);
                        raw.extend(b"\r\n");
                    }
                    raw.extend(b"0\r\nX-Trailer: t\r\n\r\n");
                }
                (Framing::Bare, _) => raw.extend(b"\r\n"),
            }
        }
        raw
    }

    /// A message as the tests collect it: the head with its body filled in.
    #[derive(Debug)]
    enum Message {
        Request(Request),
        Response(Response),
    }

    /// Drive a parser the way the daemon and the client do: feed each read
    /// until it is used up, appending body slices to the message in
    /// flight. `after_feed` sees what is held after each read — the
    /// parser's partial line plus the body of an unfinished message — and
    /// the read's length. `Err` ends the stream.
    fn feed_all<'a>(
        parser: &mut Parser,
        reads: impl Iterator<Item = &'a [u8]>,
        mut after_feed: impl FnMut(usize, usize),
    ) -> io::Result<Vec<Message>> {
        let mut got = Vec::new();
        let mut open = 0;
        for read in reads {
            let mut rest = read;
            loop {
                let (used, event) = parser.feed(rest)?;
                match event {
                    None => break,
                    Some(Event::Request(req)) => got.push(Message::Request(req)),
                    Some(Event::Response(resp)) => got.push(Message::Response(resp)),
                    Some(Event::Body(bytes)) => {
                        open += bytes.len();
                        match got.last_mut() {
                            Some(Message::Request(m)) => m.body.extend_from_slice(bytes),
                            Some(Message::Response(m)) => m.body.extend_from_slice(bytes),
                            None => unreachable!("a body follows its head"),
                        }
                    }
                    Some(Event::End) => open = 0,
                }
                rest = &rest[used..];
            }
            after_feed(parser.buffered() + open, read.len());
        }
        Ok(got)
    }

    /// What gets spliced into a valid stream to make it hostile: noise,
    /// and the grammar's own pieces in the wrong place or amount.
    fn splice() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..700),
            "[A-Z]{3,4} /[a-z/]{0,12} HTTP/[12]\\.[01]\r\n".prop_map(String::into_bytes),
            "HTTP/[12]\\.[01] [0-9]{3} [A-Za-z]{0,8}\r\n".prop_map(String::into_bytes),
            "Content-Length: [0-9]{1,5}\r\n".prop_map(String::into_bytes),
            Just(b"Transfer-Encoding: chunked\r\n\r\n".to_vec()),
            Just(b"\r\n".to_vec()),
            "[0-9a-f]{1,5}(;[a-z]{0,4})?\r\n".prop_map(String::into_bytes),
            (17_000usize..18_000).prop_map(|n| vec![b'a'; n]),
        ]
    }

    /// One side of a range spec: small numbers, the edges of `u64`, one
    /// past it, nothing, and near-numbers.
    fn range_number() -> impl Strategy<Value = String> {
        prop_oneof![
            (0u64..64).prop_map(|n| n.to_string()),
            any::<u64>().prop_map(|n| n.to_string()),
            Just(u64::MAX.to_string()),
            Just("18446744073709551616".to_string()),
            Just(String::new()),
            "[ 0-9a-z+-]{0,6}",
        ]
    }

    /// Range headers: well-formed specs, the grammar's pieces out of
    /// place, and plain noise.
    fn range_header() -> impl Strategy<Value = String> {
        prop_oneof![
            (range_number(), range_number()).prop_map(|(a, b)| format!("bytes={a}-{b}")),
            "(bytes=)?[ 0-9,=-]{0,12}",
            "[ -~]{0,24}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any header against any body length: no panic, and a range it
        /// accepts is non-empty and inside the body.
        #[test]
        fn parse_range_stays_inside_the_body(
            header in range_header(),
            total in prop_oneof![0u64..64, any::<u64>()],
        ) {
            if let Some((start, end)) = parse_range(Some(&header), total) {
                prop_assert!(start < end && end <= total, "{header:?} on {total}: {start}..{end}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Untrusted bytes: a valid stream of requests or responses with
        /// garbage spliced in, or plain garbage, in whatever splits, gets
        /// `Ok` or `Err` — never a panic — and the parser's state plus the
        /// body collected so far never exceed its budgets plus the read
        /// that overflowed them.
        #[test]
        fn parser_survives_hostile_streams_within_its_budgets(
            stream in streams(),
            splices in prop::collection::vec((any::<prop::sample::Index>(), splice()), 0..4),
            garbage_only in any::<bool>(),
            lens in prop::collection::vec(1usize..2048, 1..8),
            max_body in 0usize..4096,
        ) {
            let (kind, specs) = stream;
            let mut raw = if garbage_only { Vec::new() } else { encode_all(kind, &specs) };
            for (at, bytes) in splices {
                let at = at.index(raw.len() + 1);
                raw.splice(at..at, bytes);
            }
            let mut worst = None;
            let _ = feed_all(&mut parser(kind, max_body), reads(&raw, &lens), |held, read| {
                if held > MAX_HEADER_BYTES + max_body + read {
                    worst = Some((held, read));
                }
            });
            prop_assert!(worst.is_none(), "held {worst:?} with max_body {max_body}");
        }

        /// Friendly bytes: a pipelined sequence of valid requests or
        /// responses — sized, chunked with extensions and trailers, with
        /// no framing header, or answers to `HEAD` stating a length —
        /// parses to the same messages however it is split.
        #[test]
        fn split_feeds_parse_like_one_whole_feed(
            stream in streams(),
            lens in prop::collection::vec(1usize..900, 1..8),
        ) {
            let (kind, specs) = stream;
            let raw = encode_all(kind, &specs);
            let once = std::iter::once(&raw[..]);
            let whole = feed_all(&mut parser(kind, 4096), once, |_, _| {}).unwrap();
            let mut split_parser = parser(kind, 4096);
            let split = feed_all(&mut split_parser, reads(&raw, &lens), |_, _| {}).unwrap();
            prop_assert_eq!(split_parser.buffered(), 0);
            prop_assert_eq!(format!("{split:?}"), format!("{whole:?}"));
            prop_assert_eq!(whole.len(), specs.len());
            for (message, spec) in whole.iter().zip(&specs) {
                let (start, body) = (start_line(kind, spec), &spec.2);
                let got = match message {
                    Message::Request(r) => {
                        prop_assert_eq!(&format!("{} {} HTTP/1.1", r.method, r.path), start);
                        &r.body
                    }
                    Message::Response(r) => {
                        prop_assert_eq!(r.status.to_string(), &start[9..12]);
                        &r.body
                    }
                };
                let body = if kind == Kind::HeadAnswers { &[][..] } else { &body[..] };
                prop_assert_eq!(&got[..], body);
            }
        }
    }

    #[test]
    fn response_head_matches_blocking_writer() {
        let resp = Response::new(206).with_header("Content-Range", "bytes 0-9/100");
        let head = response_head_bytes(&resp, 10);
        let text = String::from_utf8(head).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 206 Partial Content\r\n"),
            "{text}"
        );
        assert!(text.contains("Content-Range: bytes 0-9/100\r\n"));
        assert!(text.ends_with("Content-Length: 10\r\n\r\n"));
    }

    #[test]
    fn parse_range_overflow_inputs() {
        // u64::MAX end + 1 must not wrap: it saturates, and like any end
        // past the body it means the rest of the body.
        let max = u64::MAX.to_string();
        assert_eq!(
            parse_range(Some(&format!("bytes=0-{max}")), 10),
            Some((0, 10))
        );
        // Oversized-but-parseable start is simply out of range.
        assert_eq!(parse_range(Some(&format!("bytes={max}-")), 10), None);
        // A suffix of u64::MAX saturates to the whole body, no wrap.
        assert_eq!(
            parse_range(Some(&format!("bytes=-{max}")), 10),
            Some((0, 10))
        );
        // Numbers beyond u64 fail to parse → None, not panic.
        let huge = "184467440737095516160"; // u64::MAX * 10
        assert_eq!(parse_range(Some(&format!("bytes={huge}-")), 10), None);
        assert_eq!(parse_range(Some(&format!("bytes=-{huge}")), 10), None);
    }
}
