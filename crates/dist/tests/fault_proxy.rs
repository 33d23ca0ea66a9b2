//! The fault proxy's own contract (`common/proxy.rs`): a body it cannot
//! frame is refused at once rather than forwarded without its bytes.

#[path = "common/proxy.rs"]
mod proxy;

use comt_dist::wire::write_request;
use proxy::{FaultProxy, Faults};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A chunked request — how `DistClient::put_blob` sends every blob — is
/// dropped at once. Forwarded as a head alone, it would leave the client
/// and the daemon each waiting out a 10 s I/O timeout.
#[test]
fn chunked_request_is_refused_at_once() {
    // An upstream that accepts connections and never answers.
    let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy = FaultProxy::start(upstream.local_addr().unwrap(), Faults::default());
    let mut client = TcpStream::connect(proxy.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let started = Instant::now();
    let path = "/v2/app/blobs/uploads/?digest=sha256:00";
    write_request(&mut client, "PUT", path, &[], Some(b"body"), true).unwrap();
    let mut answer = Vec::new();
    // End of stream or a reset: either way, nothing came back.
    let _ = client.read_to_end(&mut answer);
    let waited = started.elapsed();
    assert!(answer.is_empty(), "{}", String::from_utf8_lossy(&answer));
    assert!(
        waited < Duration::from_secs(5),
        "the proxy held the request for {waited:?}"
    );
    assert_eq!(proxy.injected(), 0);
}
