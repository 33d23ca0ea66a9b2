//! The blocking HTTP/1.1 reader and writer the daemon and the client ran
//! before `wire::Parser`, kept as an independent reference grammar: the
//! production parser is held to them on requests and on responses. Each
//! reader here is its own copy of the line, header and chunked grammar,
//! so the oracle shares no code with what it checks.

use comt_dist::wire::{
    find_header, read_response_head, read_response_into, reason, write_request, Event, Parser,
    Request, Response, MAX_HEADER_BYTES, UPLOAD_CHUNK,
};
use proptest::prelude::*;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Read one CRLF-terminated line, enforcing the shared header budget.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> io::Result<String> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
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
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed header: {line}"),
            )
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
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "chunk missing CRLF",
            ));
        }
    }
}

fn is_chunked(headers: &[(String, String)]) -> bool {
    find_header(headers, "transfer-encoding")
        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
}

/// Read the message body described by `headers`.
fn read_body(
    r: &mut impl BufRead,
    headers: &[(String, String)],
    max_body: usize,
) -> io::Result<Vec<u8>> {
    if is_chunked(headers) {
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

/// The reference's answer to `HEAD`: a status line and headers, nothing
/// after them.
fn reference_response_head(r: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
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

/// The reference response reader: head, then the body appended to `sink`.
fn reference_response_into(
    r: &mut impl BufRead,
    sink: &mut Vec<u8>,
    max_body: usize,
) -> io::Result<(u16, Vec<(String, String)>)> {
    let (status, headers) = reference_response_head(r)?;
    if is_chunked(&headers) {
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
    let cut = truncate_after
        .unwrap_or(resp.body.len())
        .min(resp.body.len());
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

/// Cut `raw` into consecutive reads of the given lengths (cycled).
fn reads<'a>(raw: &'a [u8], lens: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
    let mut rest = raw;
    lens.iter().cycle().map_while(move |&n| {
        let (head, tail) = rest.split_at(n.min(rest.len()));
        rest = tail;
        (!head.is_empty()).then_some(head)
    })
}

/// How a generated message frames its body.
#[derive(Debug, Clone, Copy)]
enum Framing {
    Sized,
    /// Chunked in pieces of this many bytes, with extensions and a trailer.
    Chunked(usize),
    /// Neither framing header (and so no body).
    Bare,
}

fn framing() -> impl Strategy<Value = Framing> {
    prop_oneof![
        Just(Framing::Sized),
        (1usize..700).prop_map(Framing::Chunked),
        Just(Framing::Bare),
    ]
}

fn request_line() -> impl Strategy<Value = String> {
    let method = prop_oneof![Just("GET"), Just("PUT"), Just("HEAD")];
    (method, "/v2/[a-z]{1,8}/blobs/sha256:[0-9a-f]{8}")
        .prop_map(|(method, path)| format!("{method} {path} HTTP/1.1"))
}

fn status_line() -> impl Strategy<Value = String> {
    let status = prop_oneof![Just(200), Just(206), Just(404)];
    (status, "[A-Za-z ]{0,12}").prop_map(|(status, reason)| format!("HTTP/1.1 {status} {reason}"))
}

/// `start` and a `Host` header, then `body` framed as asked; with
/// `head_only`, the head states the body's length and the body stays off
/// the wire, as in an answer to `HEAD`.
fn encode(start: &str, body: &[u8], framing: Framing, head_only: bool) -> Vec<u8> {
    let mut raw = format!("{start}\r\nHost: h\r\n").into_bytes();
    match framing {
        Framing::Sized | Framing::Bare if head_only => {
            raw.extend(format!("Content-Length: {}\r\n\r\n", body.len()).into_bytes());
        }
        Framing::Sized => {
            raw.extend(format!("Content-Length: {}\r\n\r\n", body.len()).into_bytes());
            raw.extend(body);
        }
        Framing::Chunked(piece) => {
            raw.extend(b"Transfer-Encoding: chunked\r\n\r\n");
            if head_only {
                return raw;
            }
            for chunk in body.chunks(piece) {
                raw.extend(format!("{:x};ext=1\r\n", chunk.len()).into_bytes());
                raw.extend(chunk);
                raw.extend(b"\r\n");
            }
            raw.extend(b"0\r\nX-Trailer: t\r\n\r\n");
        }
        Framing::Bare => raw.extend(b"\r\n"),
    }
    raw
}

/// Requests as the daemon assembles them: each head with the body slices
/// the parser yields appended, fed in the given reads.
fn parse_requests<'a>(
    reads: impl Iterator<Item = &'a [u8]>,
    max_body: usize,
) -> io::Result<Vec<Request>> {
    let mut parser = Parser::request(max_body);
    let mut got: Vec<Request> = Vec::new();
    for mut rest in reads {
        loop {
            let (used, event) = parser.feed(rest)?;
            match event {
                None => break,
                Some(Event::Request(req)) => got.push(req),
                Some(Event::Body(bytes)) => got.last_mut().unwrap().body.extend_from_slice(bytes),
                Some(Event::End) | Some(Event::Response(_)) => {}
            }
            rest = &rest[used..];
        }
    }
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A pipelined run of valid requests parses to what the reference
    /// reads, however it is split.
    #[test]
    fn requests_parse_like_the_reference(
        specs in prop::collection::vec(
            (
                request_line(),
                prop::collection::vec(any::<u8>(), 0..3000),
                framing(),
            ),
            1..6,
        ),
        lens in prop::collection::vec(1usize..900, 1..8),
    ) {
        let raw: Vec<u8> = specs
            .iter()
            .flat_map(|(start, body, framing)| {
                let body = if matches!(framing, Framing::Bare) { &[][..] } else { &body[..] };
                encode(start, body, *framing, false)
            })
            .collect();
        let mut r = BufReader::new(&raw[..]);
        let mut want = Vec::new();
        while let Some(req) = read_request(&mut r, 4096).unwrap() {
            want.push(req);
        }
        let got = parse_requests(reads(&raw, &lens), 4096).unwrap();
        prop_assert_eq!(got.len(), specs.len());
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    /// A keep-alive run of valid responses — sized, chunked with
    /// extensions and trailers, with no framing header, or answers to
    /// `HEAD` stating a length — reads like the reference, one response
    /// after another from one reader, however the transport splits it.
    #[test]
    fn responses_read_like_the_reference(
        specs in prop::collection::vec(
            (
                status_line(),
                prop::collection::vec(any::<u8>(), 0..3000),
                framing(),
                any::<bool>(),
            ),
            1..6,
        ),
        lens in prop::collection::vec(1usize..900, 1..8),
    ) {
        let raw: Vec<u8> = specs
            .iter()
            .flat_map(|(start, body, framing, head_only)| {
                let body = if matches!(framing, Framing::Bare) { &[][..] } else { &body[..] };
                encode(start, body, *framing, *head_only)
            })
            .collect();
        let mut reference = BufReader::new(&raw[..]);
        let mut production = BufReader::new(Flaky { script: reads(&raw, &lens), then: None });
        for (_, _, _, head_only) in &specs {
            let (mut want_body, mut got_body) = (Vec::new(), Vec::new());
            let (want, got) = if *head_only {
                (reference_response_head(&mut reference), read_response_head(&mut production))
            } else {
                (
                    reference_response_into(&mut reference, &mut want_body, 4096),
                    read_response_into(&mut production, &mut got_body, 4096),
                )
            };
            prop_assert_eq!(got.unwrap(), want.unwrap());
            prop_assert_eq!(got_body, want_body);
        }
        let (mut rest, mut end) = (Vec::new(), Vec::new());
        production.read_to_end(&mut rest).unwrap();
        reference.read_to_end(&mut end).unwrap();
        prop_assert!(rest.is_empty() && end.is_empty());
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
}
