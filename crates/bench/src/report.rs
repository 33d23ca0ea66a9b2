//! Plain-text report rendering shared by the experiment binaries.

/// Render an aligned table: header row + data rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        headers.iter().map(|h| h.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Geometric-free arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Format seconds compactly.
pub fn secs(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a ratio as a percentage improvement (`old/new - 1`).
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    (old / new - 1.0) * 100.0
}

/// Machine-readable experiment output (`BENCH_*.json`): a named benchmark
/// with one object per measured configuration, so successive runs record a
/// perf trajectory that tooling can diff.
pub fn json_report(bench: &str, rows: Vec<serde::Value>) -> String {
    let doc = serde::Value::Object(vec![
        ("bench".to_string(), serde::Value::Str(bench.to_string())),
        ("results".to_string(), serde::Value::Array(rows)),
    ]);
    serde_json::to_string_pretty(&doc).expect("bench report serializes")
}

/// Build one JSON result row from `(key, value)` pairs.
pub fn json_row(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["wkld", "orig"],
            &[
                vec!["lulesh".into(), "15.3".into()],
                vec!["hpl".into(), "102.1".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("wkld"));
        assert!(lines[2].ends_with("15.3"));
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((improvement_pct(2.0, 1.0) - 100.0).abs() < 1e-9);
    }
}
