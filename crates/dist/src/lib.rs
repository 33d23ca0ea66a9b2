//! `comt-dist` — the wire-protocol distribution subsystem.
//!
//! coMtainer's workflow spans two machines: the **user side** builds the
//! extended (`+coM`) image, the **HPC system side** pulls it, rebuilds
//! natively and redirects to `+coMre`. This crate is the transfer step in
//! between: a zero-dependency TCP daemon ([`server::serve`]) speaking a
//! minimal HTTP/1.1 subset of the OCI Distribution API, and a client
//! ([`DistClient`]) that deduplicates, resumes and retries.
//!
//! ## Wire surface
//!
//! ```text
//! GET  /v2/                                   version check
//! HEAD /v2/<name>/blobs/<digest>              existence probe (dedupe)
//! GET  /v2/<name>/blobs/<digest>              download; Range resume
//! PUT  /v2/<name>/blobs/<digest>              chunked upload, staged+verified
//! GET  /v2/<name>/manifests/<reference>       manifest by tag
//! HEAD /v2/<name>/manifests/<reference>       is the tag there? (digest + length only)
//! PUT  /v2/<name>/manifests/<reference>       tag after closure verification
//! GET  /v2/<name>/chunkmaps/<layer-digest>    chunk manifest for a layer (404 → full pull)
//! HEAD /v2/<name>/chunkmaps/<layer-digest>    is the layer described? (chunked push probe)
//! PUT  /v2/<name>/chunkmaps/<layer-digest>    publish chunk manifest, validated vs stored layer
//! GET  /v2/_comt/stats                        the daemon's metrics document ([`metrics`])
//! ```
//!
//! Every `HEAD` is answered with the headers the `GET` would carry,
//! `Content-Length` included, and no body (RFC 9110 §9.3.2).
//!
//! Uploads never become visible until the body's digest matches its
//! address; manifest tags never become visible until the whole closure is
//! present and bit-verified — hashed at publish, or proven by the store
//! that wrote it. The client keeps partial downloads across
//! dropped connections and continues with `Range` requests, wrapping every
//! operation in bounded exponential-backoff retries.

pub mod buildd;
pub mod client;
pub mod eventloop;
pub mod hotcache;
pub mod http;
pub mod metrics;
pub mod poller;
pub mod server;
pub mod wire;

pub use buildd::{serve_buildd, BuilddClient, BuilddServer, JobStatusWire};
pub use client::{DistClient, PullOptions, RetryPolicy, TransferStats};
pub use hotcache::{CacheStats, HotBlobCache};
pub use http::{
    serve_http, BodySource, HttpAction, HttpHandler, HttpOptions, HttpServer, STREAM_CHUNK,
};
pub use metrics::{decode_report, encode_report, with_process_counters};
pub use server::{serve, DistServer, ServerOptions};

/// Manifest media type advertised on the wire.
pub const MEDIA_TYPE_MANIFEST: &str = "application/vnd.oci.image.manifest.v1+json";

/// The registry-side tag for a `(repository, reference)` pair. The wire
/// addresses images as `/v2/<name>/manifests/<reference>`; the backing
/// [`comt_oci::Layout`] keys tags by this composite string.
pub fn tag_key(name: &str, reference: &str) -> String {
    format!("{name}:{reference}")
}

/// Split a user-facing ref (`app.dist+coM`, `app:1.0`) into the
/// `(repository, reference)` pair used on the wire. A trailing `:tag`
/// becomes the reference; otherwise the whole ref is the repository and
/// the reference defaults to `latest`.
pub fn split_ref(r: &str) -> (&str, &str) {
    match r.rsplit_once(':') {
        Some((name, tag)) if !name.is_empty() && !tag.contains('/') => (name, tag),
        _ => (r, "latest"),
    }
}

/// Errors from distribution operations, with the transport-level cause
/// preserved for [`std::error::Error::source`] chaining.
#[derive(Debug)]
pub enum DistError {
    /// Socket-level failure (connect, send, receive).
    Io { op: String, source: std::io::Error },
    /// The peer violated the wire protocol.
    Protocol { detail: String },
    /// An HTTP error status.
    Status { op: String, status: u16, body: String },
    /// Received bytes do not hash to the expected digest.
    DigestMismatch { expected: String, got: String },
    /// A registry-level failure (closure walk, missing blob).
    Registry(comt_oci::StoreError),
    /// The retry budget ran out; `last` is the final attempt's error.
    RetriesExhausted {
        op: String,
        attempts: u32,
        last: Box<DistError>,
    },
}

impl DistError {
    pub fn io(op: &str, source: std::io::Error) -> Self {
        DistError::Io {
            op: op.to_string(),
            source,
        }
    }

    pub fn protocol(detail: impl Into<String>) -> Self {
        DistError::Protocol {
            detail: detail.into(),
        }
    }

    pub fn status(op: &str, status: u16, body: &[u8]) -> Self {
        DistError::Status {
            op: op.to_string(),
            status,
            body: String::from_utf8_lossy(&body[..body.len().min(200)]).into_owned(),
        }
    }

    /// Transient failures worth another attempt: transport errors,
    /// protocol hiccups, 5xx, and corrupt transfers. Definitive answers
    /// (4xx, registry-level failures) are not.
    pub fn is_retryable(&self) -> bool {
        match self {
            DistError::Io { .. } | DistError::Protocol { .. } => true,
            DistError::DigestMismatch { .. } => true,
            DistError::Status { status, .. } => *status >= 500,
            DistError::Registry(_) | DistError::RetriesExhausted { .. } => false,
        }
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io { op, source } => write!(f, "{op}: {source}"),
            DistError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            DistError::Status { op, status, body } => {
                write!(f, "{op}: HTTP {status}")?;
                if !body.is_empty() {
                    write!(f, " ({body})")?;
                }
                Ok(())
            }
            DistError::DigestMismatch { expected, got } => {
                write!(f, "transfer corrupt: expected {expected}, got {got}")
            }
            DistError::Registry(e) => write!(f, "registry: {e}"),
            DistError::RetriesExhausted { op, attempts, last } => {
                write!(f, "{op}: gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io { source, .. } => Some(source),
            DistError::Registry(e) => Some(e),
            DistError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<comt_oci::StoreError> for DistError {
    fn from(e: comt_oci::StoreError) -> Self {
        DistError::Registry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ref_cases() {
        assert_eq!(split_ref("app.dist+coM"), ("app.dist+coM", "latest"));
        assert_eq!(split_ref("app:1.0"), ("app", "1.0"));
        assert_eq!(split_ref("hpccg.dist"), ("hpccg.dist", "latest"));
        assert_eq!(split_ref(":weird"), (":weird", "latest"));
    }

    #[test]
    fn error_display_and_source_chain() {
        let inner = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer reset");
        let err = DistError::RetriesExhausted {
            op: "get blob".into(),
            attempts: 5,
            last: Box::new(DistError::io("read response", inner)),
        };
        let text = err.to_string();
        assert!(text.contains("gave up after 5"), "{text}");
        let src = std::error::Error::source(&err).expect("chained");
        assert!(src.to_string().contains("peer reset"));
        // Two levels deep: the io::Error itself.
        let deeper = src.source().expect("io chained");
        assert_eq!(deeper.to_string(), "peer reset");
    }

    #[test]
    fn retryability_matrix() {
        let io = DistError::io("x", std::io::Error::other("boom"));
        assert!(io.is_retryable());
        assert!(DistError::protocol("x").is_retryable());
        assert!(DistError::status("x", 503, b"").is_retryable());
        assert!(!DistError::status("x", 404, b"").is_retryable());
        assert!(!DistError::Registry(comt_oci::StoreError::UnknownRef("t".into()))
            .is_retryable());
        let dm = DistError::DigestMismatch {
            expected: "a".into(),
            got: "b".into(),
        };
        assert!(dm.is_retryable());
    }
}
