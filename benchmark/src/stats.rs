//! Medians and quartiles, and the `compare` mode over two result files.

use crate::metrics::{Better, Def, END_TO_END, PER_LAYER};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};

pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(v, n=4)` gives
/// them (exclusive method); a single sample is all three.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// `(workload, metric) -> seed -> value` of one result file: JSON lines
/// as `--out` appends them.
type Runs = BTreeMap<(String, String), BTreeMap<i64, f64>>;

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let v = serde_json::parse_value(line).map_err(|e| bad(&e.to_string()))?;
        let obj = v.as_object().ok_or_else(|| bad("not an object"))?;
        let workload = Value::field(obj, "workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = match Value::field(obj, "seed") {
            Some(Value::Int(s)) => *s,
            _ => return Err(bad("no seed")),
        };
        let metrics = Value::field(obj, "result")
            .and_then(Value::as_object)
            .and_then(|r| Value::field(r, "metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no result.metrics"))?;
        for (name, m) in metrics {
            let value = m
                .as_object()
                .and_then(|m| Value::field(m, "value"))
                .and_then(num)
                .ok_or_else(|| bad("metric without a value"))?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .insert(seed, value);
        }
    }
    Ok(runs)
}

fn spread(v: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn verdict(def: &Def, a: &[f64], b: &[f64]) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let all_better = match def.better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    if spread(a).max(spread(b)) > def.bound && !all_better {
        "unresolved"
    } else if worse_by > def.bound {
        "regressed"
    } else {
        "within bound"
    }
}

/// Print one row per (metric, workload). Returns whether every bounded
/// row is within its bound and every exact row identical.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads: BTreeSet<&String> = a.keys().map(|(w, _)| w).collect();
    let mut ok = true;
    println!(
        "{:<16} {:<26} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound"
    );
    for w in workloads {
        for def in END_TO_END
            .iter()
            .chain(PER_LAYER.iter().filter(|d| d.exact))
        {
            let key = (w.clone(), def.name.to_string());
            let (Some(ra), Some(rb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (va, vb): (Vec<f64>, Vec<f64>) = (
                ra.values().copied().collect(),
                rb.values().copied().collect(),
            );
            let v = if def.exact {
                // Exact metrics are functions of the seed: compare seed by seed.
                let same = ra.iter().all(|(s, x)| rb.get(s).is_none_or(|y| x == y));
                if same {
                    "identical"
                } else {
                    "differs"
                }
            } else {
                verdict(def, &va, &vb)
            };
            ok &= matches!(v, "identical" | "within bound");
            println!(
                "{:<16} {:<26} {:>12.5} {:>12.5} {:>7.1}% {:>7.1}% {:>6.0}%  {v}",
                w,
                def.name,
                median(&va),
                median(&vb),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                def.bound * 100.0,
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
