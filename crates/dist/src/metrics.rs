//! The one metrics document: a [`Report`] as `comt.metrics.v1` JSON.
//!
//! `GET /v2/_comt/stats`, `GET /buildd/stats` and
//! `GET /buildd/jobs/<id>/report` answer [`encode_report`]'s output;
//! [`crate::BuilddClient`] and the tests read it back with
//! [`decode_report`]; `--stats` renders the same [`Report`] as a table.
//! Shape, versioning rule and every name: `docs/METRICS.md`. Both
//! directions go through the vendored `serde_json` (linear, depth-budgeted,
//! fuzzed), so the decoder only checks shape over a parsed [`Value`].

use crate::http::HttpAction;
use crate::wire::Response;
use comt_observe::{Report, SpanStats, ValueStats};
use serde::Value;
use std::collections::BTreeMap;
use std::time::Duration;

/// Schema tag of the document. A new counter, span or value *name* is not
/// a new version; a change of shape is.
pub const SCHEMA: &str = "comt.metrics.v1";

/// Most samples one value name can carry: what `Recorder::report` can
/// produce (its 8 shards × 2048 retained samples per shard and name).
const MAX_SAMPLES: usize = 8 * 2048;

/// `report` with the counters this process keeps outside any recorder —
/// `digest.bytes_hashed` ([`comt_digest::bytes_hashed`]) — set to their
/// running totals. The stats routes and `--stats` serve their report
/// through here; a job's own report does not, because those totals are
/// the process's, not the job's.
pub fn with_process_counters(mut report: Report) -> Report {
    report
        .counters
        .insert("digest.bytes_hashed".into(), comt_digest::bytes_hashed());
    report
}

/// The vendored `Value::Int` is an `i64`; a larger count saturates.
fn int(n: u64) -> Value {
    Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

fn section<T>(map: &BTreeMap<String, T>, entry: impl Fn(&T) -> Value) -> Value {
    Value::Object(map.iter().map(|(k, v)| (k.clone(), entry(v))).collect())
}

fn pair(a: &str, x: Value, b: &str, y: Value) -> Value {
    Value::Object(vec![(a.into(), x), (b.into(), y)])
}

/// Render `report` as the `comt.metrics.v1` document, stamped with the
/// SHA-256 kernel this process hashes with.
pub fn encode_report(report: &Report) -> String {
    let spans = section(&report.spans, |s| {
        let total_ns = u64::try_from(s.total.as_nanos()).unwrap_or(u64::MAX);
        pair("count", int(s.count), "total_ns", int(total_ns))
    });
    let values = section(&report.values, |v| {
        let samples = v.samples.iter().map(|s| int(*s)).collect();
        pair("count", int(v.count), "samples", Value::Array(samples))
    });
    let backend = Value::Str(comt_digest::backend().into());
    let doc = Value::Object(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("digest_backend".into(), backend),
        ("counters".into(), section(&report.counters, |n| int(*n))),
        ("spans".into(), spans),
        ("values".into(), values),
    ]);
    serde_json::to_string(&doc).expect("a Value tree serializes")
}

/// The 200 every stats route answers: [`encode_report`] as the body.
pub(crate) fn report_response(report: &Report) -> HttpAction {
    HttpAction::Respond(
        Response::new(200)
            .with_header("Content-Type", "application/json")
            .with_body(encode_report(report)),
    )
}

fn object(v: &Value) -> Result<&[(String, Value)], String> {
    v.as_object()
        .map(Vec::as_slice)
        .ok_or_else(|| "expected an object".to_string())
}

fn uint(v: &Value) -> Result<u64, String> {
    match v {
        Value::Int(n) => u64::try_from(*n).map_err(|_| format!("negative count {n}")),
        _ => Err("expected a non-negative integer".to_string()),
    }
}

/// The two fields of a span or value entry; any other shape is an error.
fn unpair<'a>(v: &'a Value, a: &str, b: &str) -> Result<(&'a Value, &'a Value), String> {
    let obj = object(v)?;
    match (Value::field(obj, a), Value::field(obj, b)) {
        (Some(x), Some(y)) if obj.len() == 2 => Ok((x, y)),
        _ => Err(format!("expected exactly {a:?} and {b:?}")),
    }
}

/// Decode every `name: entry` of one section into `map`, refusing a name
/// that is already there.
fn decode_section<T>(
    v: &Value,
    map: &mut BTreeMap<String, T>,
    entry: impl Fn(&Value) -> Result<T, String>,
) -> Result<(), String> {
    for (name, v) in object(v)? {
        let decoded = entry(v).map_err(|e| format!("{name:?}: {e}"))?;
        if map.insert(name.clone(), decoded).is_some() {
            return Err(format!("{name:?} appears twice"));
        }
    }
    Ok(())
}

/// Read a `comt.metrics.v1` document back. Total on any bytes: the answer
/// is a [`Report`] or an `Err`, never a panic, and no allocation here is
/// sized by a number the document states. Anything [`encode_report`] would
/// not have written — another schema, an unknown key, a negative or
/// fractional number, more samples than a recorder can retain — is an
/// `Err`.
pub fn decode_report(body: &[u8]) -> Result<Report, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("not UTF-8: {e}"))?;
    let doc = serde_json::parse_value(text).map_err(|e| format!("bad JSON: {e}"))?;
    let mut report = Report::default();
    let mut versioned = false;
    for (key, v) in object(&doc)? {
        match key.as_str() {
            "schema" if v.as_str() == Some(SCHEMA) => versioned = true,
            "digest_backend" if v.as_str().is_some() => {}
            "counters" => decode_section(v, &mut report.counters, uint)?,
            "spans" => decode_section(v, &mut report.spans, |v| {
                let (count, total_ns) = unpair(v, "count", "total_ns")?;
                Ok(SpanStats {
                    count: uint(count)?,
                    total: Duration::from_nanos(uint(total_ns)?),
                })
            })?,
            "values" => decode_section(v, &mut report.values, |v| {
                let (count, samples) = unpair(v, "count", "samples")?;
                let Value::Array(samples) = samples else {
                    return Err("samples must be an array".to_string());
                };
                if samples.len() > MAX_SAMPLES {
                    return Err(format!("more than {MAX_SAMPLES} samples"));
                }
                Ok(ValueStats {
                    count: uint(count)?,
                    samples: samples.iter().map(uint).collect::<Result<_, _>>()?,
                })
            })?,
            other => return Err(format!("unexpected {other:?} entry")),
        }
    }
    if !versioned {
        return Err(format!("schema is not {SCHEMA:?}"));
    }
    Ok(report)
}
