//! A fault-injecting TCP proxy for the wire tests. It stands between a
//! client and a daemon and damages blob GET responses on a budget: the
//! faults a lossy link or a broken middlebox causes, injected outside the
//! daemon, which always sends what it advertises. Std only.
//!
//! It handles one exchange per connection, as `DistClient` makes them:
//! read one request (a `Content-Length` body at most; a chunked one is
//! refused and the connection dropped), send it upstream
//! with `Connection: close`, read the whole response, then forward it
//! whole, cut short, or with its last byte flipped, and close.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(10);
const MAX_HEAD: usize = 64 * 1024;

/// What the proxy damages. Only blob GETs (a `/blobs/` path) are touched.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Cut the body of this many blob GET responses longer than
    /// `truncate_after` after that many bytes, then hang up. The head
    /// still advertises the full length.
    pub truncate_gets: u32,
    pub truncate_after: usize,
    /// Flip the last byte of this many ranged (`206`) blob GET bodies.
    /// The head stays truthful, so only a content check can notice.
    pub poison_ranged_gets: u32,
}

struct Budget {
    truncate: AtomicU32,
    after: usize,
    poison: AtomicU32,
    injected: AtomicU32,
}

impl Budget {
    /// Spend one unit of `budget`, if any is left, and count the fault.
    fn spend(&self, budget: &AtomicU32) -> bool {
        let spent = budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if spent {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        spent
    }
}

/// A running proxy; dropping it stops accepting and joins its threads.
pub struct FaultProxy {
    addr: SocketAddr,
    budget: Arc<Budget>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Listen on an ephemeral loopback port and forward to `upstream`.
    pub fn start(upstream: SocketAddr, faults: Faults) -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().unwrap();
        let budget = Arc::new(Budget {
            truncate: AtomicU32::new(faults.truncate_gets),
            after: faults.truncate_after,
            poison: AtomicU32::new(faults.poison_ranged_gets),
            injected: AtomicU32::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let (budget, stop) = (Arc::clone(&budget), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut exchanges = Vec::new();
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    let budget = Arc::clone(&budget);
                    exchanges.push(std::thread::spawn(move || {
                        // A client that hangs up early is its own business.
                        let _ = exchange(conn, upstream, &budget);
                    }));
                }
                for t in exchanges {
                    let _ = t.join();
                }
            })
        };
        FaultProxy {
            addr,
            budget,
            stop,
            accept: Some(accept),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Faults injected so far (cut bodies plus flipped bytes).
    pub fn injected(&self) -> u32 {
        self.budget.injected.load(Ordering::SeqCst)
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Read a start line and headers up to the blank line.
fn read_head(r: &mut impl BufRead) -> io::Result<(String, Vec<String>)> {
    let mut lines = Vec::new();
    let mut total = 0;
    loop {
        let mut line = String::new();
        let n = r.read_line(&mut line)?;
        total += n;
        if n == 0 || total > MAX_HEAD {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad head"));
        }
        let line = line.trim_end_matches(['\r', '\n']).to_string();
        if line.is_empty() {
            break;
        }
        lines.push(line);
    }
    if lines.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "no start line"));
    }
    let start = lines.remove(0);
    Ok((start, lines))
}

fn header<'a>(headers: &'a [String], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .filter_map(|h| h.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
        .map(|(_, v)| v.trim())
}

/// Read a `Content-Length` body. A body framed any other way is refused
/// at once: forwarded without it, the request would leave both the
/// client and the daemon waiting for bytes that never come.
fn read_body(r: &mut impl Read, headers: &[String]) -> io::Result<Vec<u8>> {
    if let Some(coding) = header(headers, "transfer-encoding") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("the proxy frames only Content-Length bodies, not Transfer-Encoding: {coding}"),
        ));
    }
    let len = header(headers, "content-length")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

fn write_head(w: &mut impl Write, start: &str, headers: &[String]) -> io::Result<()> {
    let mut head = format!("{start}\r\n");
    for h in headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())
}

/// Forward one request and its response, damaging the response if it is
/// a blob GET and a budget is left.
fn exchange(mut client: TcpStream, upstream: SocketAddr, budget: &Budget) -> io::Result<()> {
    client.set_read_timeout(Some(IO_TIMEOUT))?;
    client.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut from_client = BufReader::new(client.try_clone()?);
    let (request_line, mut headers) = read_head(&mut from_client)?;
    let request_body = read_body(&mut from_client, &headers)?;
    let mut words = request_line.split_whitespace();
    let (method, path) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
    let blob_get = method == "GET" && path.contains("/blobs/");

    let mut daemon = TcpStream::connect_timeout(&upstream, IO_TIMEOUT)?;
    daemon.set_read_timeout(Some(IO_TIMEOUT))?;
    headers.retain(|h| !h.to_ascii_lowercase().starts_with("connection:"));
    headers.push("Connection: close".into());
    write_head(&mut daemon, &request_line, &headers)?;
    daemon.write_all(&request_body)?;
    daemon.flush()?;

    let mut from_daemon = BufReader::new(daemon);
    let (status_line, resp_headers) = read_head(&mut from_daemon)?;
    let mut body = if method == "HEAD" {
        Vec::new()
    } else {
        read_body(&mut from_daemon, &resp_headers)?
    };
    let ranged = status_line.split_whitespace().nth(1) == Some("206");

    let mut send = body.len();
    if blob_get && ranged && !body.is_empty() && budget.spend(&budget.poison) {
        *body.last_mut().unwrap() ^= 0xFF;
    } else if blob_get && body.len() > budget.after && budget.spend(&budget.truncate) {
        send = budget.after;
    }
    write_head(&mut client, &status_line, &resp_headers)?;
    client.write_all(&body[..send])?;
    client.flush()
}
