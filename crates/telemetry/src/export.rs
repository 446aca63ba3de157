//! Exporters: the machine-readable `telemetry.json` and a human-readable
//! summary table.
//!
//! The exporter writes its fields in a fixed order by hand, escaping
//! strings and formatting numbers through [`crate::json`]; its tests read
//! the output back with [`crate::json::parse`].

use crate::json::{escape, number};
use crate::{Histogram, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Writes one `"name": {...}` section of histograms: count, sum, min,
/// max, mean, three quantiles and the non-empty log2 buckets as
/// `[lower bound, count]` pairs.
fn histograms_json(out: &mut String, section: &str, map: &BTreeMap<&'static str, Histogram>) {
    let _ = write!(out, "  \"{section}\": {{");
    for (i, (name, h)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| format!("[{}, {c}]", Histogram::bucket_range(b).0))
            .collect();
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [{}]}}",
            escape(name),
            h.count,
            h.sum,
            if h.count == 0 { 0 } else { h.min },
            h.max,
            number(h.mean()),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            buckets.join(", ")
        );
    }
    out.push_str("\n  }");
}

/// Renders the snapshot as the stable machine-readable `telemetry.json`
/// perf artifact: span durations (nanoseconds) and histograms in one
/// shape, then counters.
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n");
    histograms_json(&mut out, "spans", &snapshot.spans);
    out.push_str(",\n  \"counters\": {");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", escape(name), value);
    }
    out.push_str("\n  },\n");
    histograms_json(&mut out, "histograms", &snapshot.histograms);
    out.push_str("\n}\n");
    out
}

/// Formats nanoseconds with a sensible unit.
fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.3}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.3}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.3}us", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders one aligned text table: a `## title` line, the header row, a
/// separator, and one row per entry, every column padded to its widest
/// cell. The summary below and the bench harness's report tables both
/// print through it.
pub fn text_table(title: &str, headers: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    let headers: Vec<String> = headers.iter().map(|h| h.as_ref().to_string()).collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let line = |cells: &[String]| -> String {
        let mut s = String::from("| ");
        for (cell, w) in cells.iter().zip(&widths) {
            let _ = write!(s, "{cell:<w$} | ");
        }
        s.trim_end().to_string()
    };
    out.push_str(&line(&headers));
    out.push('\n');
    let mut sep = String::from("|");
    for w in &widths {
        let _ = write!(sep, "{}|", "-".repeat(w + 2));
    }
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

/// Renders a human-readable per-phase / per-span / counter summary.
pub fn summary(snapshot: &Snapshot) -> String {
    let mut out = String::new();

    if !snapshot.spans.is_empty() {
        let rows: Vec<Vec<String>> = snapshot
            .spans
            .iter()
            .map(|(name, h)| {
                vec![
                    name.to_string(),
                    h.count.to_string(),
                    fmt_ns(h.sum),
                    fmt_ns(h.sum / h.count.max(1)),
                ]
            })
            .collect();
        out.push_str(&text_table(
            "Wall-clock spans",
            &["span", "count", "total", "mean"],
            &rows,
        ));
        out.push('\n');
    }

    if !snapshot.counters.is_empty() {
        let rows: Vec<Vec<String>> = snapshot
            .counters
            .iter()
            .map(|(name, value)| vec![name.to_string(), value.to_string()])
            .collect();
        out.push_str(&text_table("Counters", &["counter", "value"], &rows));
        out.push('\n');
    }

    if !snapshot.histograms.is_empty() {
        let rows: Vec<Vec<String>> = snapshot
            .histograms
            .iter()
            .map(|(name, h)| {
                vec![
                    name.to_string(),
                    h.count.to_string(),
                    format!("{:.1}", h.mean()),
                    if h.count == 0 { 0 } else { h.min }.to_string(),
                    h.quantile(0.50).to_string(),
                    h.quantile(0.95).to_string(),
                    h.quantile(0.99).to_string(),
                    h.max.to_string(),
                ]
            })
            .collect();
        out.push_str(&text_table(
            "Histograms",
            &[
                "histogram",
                "count",
                "mean",
                "min",
                "p50",
                "p95",
                "p99",
                "max",
            ],
            &rows,
        ));
        out.push('\n');
    }

    if out.is_empty() {
        out.push_str("(telemetry: nothing recorded)\n");
    }
    out
}

/// Writes `<dir>/<stem>.telemetry.json` ([`to_json`]) for the snapshot,
/// creating `dir`, and returns its path.
///
/// # Errors
///
/// Returns any filesystem error encountered.
pub fn write_to_dir(snapshot: &Snapshot, dir: &Path, stem: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.telemetry.json"));
    std::fs::write(&path, to_json(snapshot))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::test_util::with_telemetry;
    use crate::{counter_add, observe, span};

    fn populated() -> crate::Snapshot {
        {
            let _a = span("alpha");
            let _b = span("a\"b\\c");
        }
        counter_add("bytes", 4096);
        observe("latency_ns", 1234);
        crate::snapshot()
    }

    #[test]
    fn telemetry_json_is_valid_and_complete() {
        with_telemetry(|| {
            let json = to_json(&populated());
            let doc = parse(&json).unwrap();
            assert_eq!(doc.get("version"), Some(&Value::Num(2.0)));
            let spans = doc.get("spans").unwrap();
            assert_eq!(
                spans.get("alpha").and_then(|s| s.get("count")),
                Some(&Value::Num(1.0))
            );
            // The escaped span name survives as valid JSON.
            assert!(spans.get("a\"b\\c").is_some());
            assert!(json.contains("\"bytes\": 4096"));
            assert!(json.contains("\"latency_ns\""));
            // Quantile summaries ride along with the aggregate stats; a
            // single observation pins all three to the exact value.
            assert!(json.contains("\"p50\": 1234"));
            assert!(json.contains("\"p95\": 1234"));
            assert!(json.contains("\"p99\": 1234"));
        });
    }

    #[test]
    fn empty_snapshot_exports_are_valid() {
        with_telemetry(|| {
            let snap = crate::snapshot();
            parse(&to_json(&snap)).unwrap();
            assert!(summary(&snap).contains("nothing recorded"));
        });
    }

    #[test]
    fn summary_renders_all_sections() {
        with_telemetry(|| {
            let s = summary(&populated());
            assert!(s.contains("## Wall-clock spans"));
            assert!(s.contains("## Counters"));
            assert!(s.contains("## Histograms"));
            assert!(s.contains("alpha"));
            assert!(s.contains("bytes") && s.contains("4096"), "{s}");
        });
    }

    #[test]
    fn write_to_dir_creates_the_perf_file() {
        with_telemetry(|| {
            let snap = populated();
            let dir = std::env::temp_dir().join("fastgl_telemetry_export_test");
            let perf = write_to_dir(&snap, &dir, "unit").unwrap();
            assert_eq!(perf, dir.join("unit.telemetry.json"));
            parse(&std::fs::read_to_string(&perf).unwrap()).unwrap();
            let files = std::fs::read_dir(&dir).unwrap().count();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(files, 1, "one file per stem");
        });
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_200), "1.200us");
        assert_eq!(fmt_ns(3_000_000), "3.000ms");
        assert_eq!(fmt_ns(2_000_000_000), "2.000s");
    }
}
