//! Exporters: Chrome `trace_event` JSON, a stable machine-readable
//! `telemetry.json`, and a human-readable summary table.
//!
//! The chrome trace loads directly in `chrome://tracing` or
//! <https://ui.perfetto.dev>: wall-clock spans appear under process 1
//! (one row per worker thread of the fork-join backend) and the bridged
//! simulated-GPU phases under process 2. Each exporter writes its fields
//! in a fixed order by hand, escaping strings and formatting numbers
//! through [`crate::json`]; its tests read the output back with
//! [`crate::json::parse`].

use crate::json::{escape, number};
use crate::span::{AttrValue, Snapshot, Track};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn attrs_json(attrs: &[(&'static str, AttrValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = match v {
            AttrValue::U64(x) => write!(out, "\"{}\":{x}", escape(k)),
            AttrValue::Str(s) => write!(out, "\"{}\":\"{}\"", escape(k), escape(s)),
        };
    }
    out.push('}');
    out
}

/// Process id used for wall-clock events in the chrome trace.
pub const WALL_PID: u64 = 1;
/// Process id used for simulated-time events in the chrome trace.
pub const SIM_PID: u64 = 2;

/// Renders the snapshot as Chrome `trace_event` JSON (object format, with
/// `traceEvents` plus process/thread name metadata). Timestamps are in
/// microseconds as the format requires.
pub fn chrome_trace(snapshot: &Snapshot) -> String {
    let mut events: Vec<String> = Vec::with_capacity(snapshot.events.len() + 8);
    let meta = |pid: u64, tid: u64, what: &str, name: &str| {
        format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{what}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        )
    };
    events.push(meta(WALL_PID, 0, "process_name", "fastgl (wall clock)"));
    events.push(meta(SIM_PID, 0, "process_name", "fastgl (simulated gpu)"));
    events.push(meta(SIM_PID, 0, "thread_name", "sim timeline"));
    for t in snapshot.threads() {
        events.push(meta(WALL_PID, t, "thread_name", &format!("worker {t}")));
    }
    for e in &snapshot.events {
        let (pid, tid) = match e.track {
            Track::Wall { thread } => (WALL_PID, thread),
            Track::Sim => (SIM_PID, 0),
        };
        let cat = if pid == WALL_PID { "wall" } else { "sim" };
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{},\"dur\":{},\"args\":{}}}",
            escape(e.name),
            number(e.start_ns as f64 / 1e3),
            number(e.dur_ns as f64 / 1e3),
            attrs_json(&e.attrs),
        ));
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Renders the snapshot as the stable machine-readable `telemetry.json`
/// perf artifact: per-span aggregates, counters, histograms, and the
/// simulated per-phase totals.
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"version\": 1,");
    let _ = writeln!(out, "  \"dropped_events\": {},", snapshot.dropped_events);

    out.push_str("  \"spans\": {");
    for (i, (name, agg)) in snapshot.span_totals().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
            escape(name),
            agg.count,
            agg.total_ns,
            agg.min_ns,
            agg.max_ns
        );
    }
    out.push_str("\n  },\n");

    out.push_str("  \"counters\": {");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", escape(name), value);
    }
    out.push_str("\n  },\n");

    out.push_str("  \"histograms\": {");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let (lo, _) = crate::Histogram::bucket_range(b);
                format!("[{lo}, {c}]")
            })
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
    out.push_str("\n  },\n");

    out.push_str("  \"sim_phases_ns\": {");
    for (i, (name, ns)) in snapshot.sim_phase_totals().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", escape(name), ns);
    }
    out.push_str("\n  }\n}\n");
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

    let sim = snapshot.sim_phase_totals();
    if !sim.is_empty() {
        let total: u64 = sim.values().sum();
        let rows: Vec<Vec<String>> = sim
            .iter()
            .map(|(name, &ns)| {
                vec![
                    name.to_string(),
                    fmt_ns(ns),
                    format!("{:.1}%", 100.0 * ns as f64 / total.max(1) as f64),
                ]
            })
            .collect();
        out.push_str(&text_table(
            "Simulated phases",
            &["phase", "total", "share"],
            &rows,
        ));
        out.push('\n');
    }

    let spans = snapshot.span_totals();
    if !spans.is_empty() {
        let rows: Vec<Vec<String>> = spans
            .iter()
            .map(|(name, agg)| {
                vec![
                    name.to_string(),
                    agg.count.to_string(),
                    fmt_ns(agg.total_ns),
                    fmt_ns(agg.total_ns / agg.count.max(1)),
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

    if snapshot.dropped_events > 0 {
        let _ = writeln!(
            out,
            "warning: {} events dropped (buffer cap)",
            snapshot.dropped_events
        );
    }
    if out.is_empty() {
        out.push_str("(telemetry: nothing recorded)\n");
    }
    out
}

/// Writes `<dir>/<stem>.trace.json` (chrome trace) and
/// `<dir>/<stem>.telemetry.json` (perf artifact) for the snapshot,
/// creating `dir`. Returns the two paths.
///
/// # Errors
///
/// Returns any filesystem error encountered.
pub fn write_to_dir(
    snapshot: &Snapshot,
    dir: &Path,
    stem: &str,
) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let trace = dir.join(format!("{stem}.trace.json"));
    let perf = dir.join(format!("{stem}.telemetry.json"));
    std::fs::write(&trace, chrome_trace(snapshot))?;
    std::fs::write(&perf, to_json(snapshot))?;
    Ok((trace, perf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::with_telemetry;
    use crate::{counter_add, observe, record_sim_phases, span};

    fn populated() -> crate::Snapshot {
        {
            let _a = span("alpha").with_u64("rows", 10).with_str("q", "a\"b\\c");
            let _b = span("beta").with_u64("ratio_pct", 50);
        }
        counter_add("bytes", 4096);
        observe("latency_ns", 1234);
        record_sim_phases("epoch", &[("sample", 100), ("io", 200), ("compute", 300)]);
        crate::snapshot()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_both_tracks() {
        with_telemetry(|| {
            let trace = chrome_trace(&populated());
            crate::json::parse(&trace).unwrap();
            assert!(trace.contains("\"traceEvents\""));
            assert!(trace.contains("\"ph\":\"X\""));
            assert!(trace.contains("fastgl (wall clock)"));
            assert!(trace.contains("fastgl (simulated gpu)"));
            assert!(trace.contains("\"name\":\"alpha\""));
            assert!(trace.contains("\"name\":\"sample\""));
            // The escaped attribute survives as valid JSON.
            assert!(trace.contains("a\\\"b\\\\c"));
        });
    }

    #[test]
    fn telemetry_json_is_valid_and_complete() {
        with_telemetry(|| {
            let json = to_json(&populated());
            crate::json::parse(&json).unwrap();
            assert!(json.contains("\"version\": 1"));
            assert!(json.contains("\"alpha\""));
            assert!(json.contains("\"bytes\": 4096"));
            assert!(json.contains("\"latency_ns\""));
            // Quantile summaries ride along with the aggregate stats; a
            // single observation pins all three to the exact value.
            assert!(json.contains("\"p50\": 1234"));
            assert!(json.contains("\"p95\": 1234"));
            assert!(json.contains("\"p99\": 1234"));
            assert!(json.contains("\"sample\": 100"));
            assert!(json.contains("\"io\": 200"));
            assert!(json.contains("\"compute\": 300"));
        });
    }

    #[test]
    fn empty_snapshot_exports_are_valid() {
        with_telemetry(|| {
            let snap = crate::snapshot();
            crate::json::parse(&chrome_trace(&snap)).unwrap();
            crate::json::parse(&to_json(&snap)).unwrap();
            assert!(summary(&snap).contains("nothing recorded"));
        });
    }

    #[test]
    fn summary_renders_all_sections() {
        with_telemetry(|| {
            let s = summary(&populated());
            assert!(s.contains("## Simulated phases"));
            assert!(s.contains("## Wall-clock spans"));
            assert!(s.contains("## Counters"));
            assert!(s.contains("## Histograms"));
            assert!(s.contains("alpha"));
            assert!(s.contains("sample"));
            assert!(s.contains("50.0%"), "compute is 300/600: {s}");
        });
    }

    #[test]
    fn write_to_dir_creates_both_files() {
        with_telemetry(|| {
            let snap = populated();
            let dir = std::env::temp_dir().join("fastgl_telemetry_export_test");
            let (trace, perf) = write_to_dir(&snap, &dir, "unit").unwrap();
            let t = std::fs::read_to_string(&trace).unwrap();
            let p = std::fs::read_to_string(&perf).unwrap();
            crate::json::parse(&t).unwrap();
            crate::json::parse(&p).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
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
