//! Report rendering: aligned text tables, plus the `results/<id>.json`
//! format in both directions: [`Report::to_json`] writes it and
//! [`Report::from_json`], its inverse, reads it back for `perfdiff`.

use fastgl_telemetry::json::{self, escape, Value};
use std::fmt::Write as _;
use std::path::Path;

fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", cells.join(","))
}

fn string(obj: &Value, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn array<'a>(obj: &'a Value, key: &str) -> Result<&'a [Value], String> {
    obj.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing '{key}' array"))
}

fn strings(v: &Value) -> Result<Vec<String>, String> {
    v.as_arr()
        .ok_or("expected an array of strings")?
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or("non-string cell".into())
        })
        .collect()
}

/// One table of an experiment report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Table caption (e.g. "Table 8: ID map time (s)").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells for {} headers",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Renders the table as aligned text.
    pub fn to_text(&self) -> String {
        fastgl_telemetry::export::text_table(&self.title, &self.headers, &self.rows)
    }

    /// Renders the table as a JSON object
    /// `{"title": …, "headers": […], "rows": [[…], …]}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.rows.iter().map(|r| json_str_array(r)).collect();
        format!(
            "{{\"title\":\"{}\",\"headers\":{},\"rows\":[{}]}}",
            escape(&self.title),
            json_str_array(&self.headers),
            rows.join(",")
        )
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Self {
            title: string(v, "title")?,
            headers: strings(v.get("headers").ok_or("table missing 'headers'")?)?,
            rows: array(v, "rows")?
                .iter()
                .map(strings)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The run conditions a report was produced under, stamped into the JSON
/// export so `perfdiff` can refuse apples-to-oranges comparisons (see
/// DESIGN.md §11). Everything is recorded as the *effective* setting the
/// run saw, environment overrides included.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Scale profile: `"quick"` (`FASTGL_QUICK=1`) or `"default"`.
    pub profile: String,
    /// `FASTGL_THREADS` override, or `"auto"` when unset.
    pub threads: String,
    /// `FASTGL_PREFETCH` override, or `"default"` when unset.
    pub prefetch: String,
    /// Whether telemetry was recording during the run.
    pub telemetry: bool,
    /// Abbreviated git revision of the producing tree, when available.
    pub git: Option<String>,
}

impl Provenance {
    /// Captures the current process environment.
    pub fn current() -> Self {
        let env_or = |key: &str, default: &str| {
            std::env::var(key)
                .ok()
                .filter(|v| !v.is_empty())
                .unwrap_or_else(|| default.to_string())
        };
        let quick = std::env::var("FASTGL_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
        Self {
            profile: if quick { "quick" } else { "default" }.to_string(),
            threads: env_or("FASTGL_THREADS", "auto"),
            prefetch: env_or("FASTGL_PREFETCH", "default"),
            telemetry: fastgl_telemetry::enabled(),
            git: git_revision(),
        }
    }

    /// Renders the stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"profile\":\"{}\",\"threads\":\"{}\",\"prefetch\":\"{}\",\
             \"telemetry\":{},\"git\":{}}}",
            escape(&self.profile),
            escape(&self.threads),
            escape(&self.prefetch),
            self.telemetry,
            match &self.git {
                Some(rev) => format!("\"{}\"", escape(rev)),
                None => "null".to_string(),
            }
        )
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Self {
            profile: string(v, "profile")?,
            threads: string(v, "threads")?,
            prefetch: string(v, "prefetch")?,
            telemetry: match v.get("telemetry") {
                Some(Value::Bool(b)) => *b,
                _ => return Err("missing bool field 'telemetry'".into()),
            },
            git: match v.get("git") {
                Some(Value::Null) => None,
                Some(Value::Str(rev)) => Some(rev.clone()),
                _ => return Err("missing string-or-null field 'git'".into()),
            },
        })
    }
}

/// The producing tree's abbreviated git revision, or `None` outside a
/// repository (or without git on PATH).
fn git_revision() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!rev.is_empty()).then_some(rev)
}

/// A full experiment report: id, description, and one or more tables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// Experiment identifier, e.g. "fig09".
    pub id: String,
    /// One-line description referencing the paper artefact.
    pub description: String,
    /// Narrative notes (what to look for, paper expectations).
    pub notes: Vec<String>,
    /// The tables.
    pub tables: Vec<Table>,
    /// Run-condition stamp, filled in by `emit::finish` just before the
    /// JSON export. `None` until then (and absent from the JSON if a
    /// report is exported without finishing).
    pub provenance: Option<Provenance>,
}

impl Report {
    /// An empty report.
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            description: description.into(),
            notes: Vec::new(),
            tables: Vec::new(),
            provenance: None,
        }
    }

    /// Adds a narrative note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the full report as text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}\n", self.id, self.description);
        for table in &self.tables {
            out.push_str(&table.to_text());
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Renders the full report (id, description, notes, tables) as one
    /// JSON document, so downstream tooling gets a machine-readable view
    /// of every figure/table.
    pub fn to_json(&self) -> String {
        let tables: Vec<String> = self.tables.iter().map(Table::to_json).collect();
        let provenance = match &self.provenance {
            Some(p) => format!(",\"provenance\":{}", p.to_json()),
            None => String::new(),
        };
        format!(
            "{{\"id\":\"{}\",\"description\":\"{}\",\"notes\":{},\"tables\":[{}]{}}}\n",
            escape(&self.id),
            escape(&self.description),
            json_str_array(&self.notes),
            tables.join(","),
            provenance
        )
    }

    /// Parses a document written by [`Report::to_json`]: its inverse, so
    /// `Report::from_json(&r.to_json())` gives back `r`. Every field the
    /// export writes is required; `provenance` may be absent, as it is
    /// from an unstamped export.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, or of the first
    /// field that is missing or has the wrong type.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        Ok(Self {
            id: string(&v, "id")?,
            description: string(&v, "description")?,
            notes: strings(v.get("notes").ok_or("missing 'notes' array")?)?,
            tables: array(&v, "tables")?
                .iter()
                .map(Table::from_json)
                .collect::<Result<_, _>>()?,
            provenance: v.get("provenance").map(Provenance::from_json).transpose()?,
        })
    }

    /// Writes the report as `dir/<id>.json`. Creates `dir`.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error encountered.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.json", self.id)), self.to_json())
    }
}

/// Formats seconds with 4 significant-ish digits.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.3}us", s * 1e6)
    }
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// Formats bytes with binary units.
pub fn fmt_bytes(b: u64) -> String {
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    let b = b as f64;
    if b >= GB {
        format!("{:.2}GB", b / GB)
    } else if b >= MB {
        format!("{:.1}MB", b / MB)
    } else if b >= 1024.0 {
        format!("{:.0}KB", b / 1024.0)
    } else {
        format!("{b:.0}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "22222".into()]);
        t
    }

    #[test]
    fn text_is_aligned() {
        let text = table().to_text();
        assert!(text.contains("## Demo"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn report_renders_notes_and_tables() {
        let mut r = Report::new("fig00", "demo experiment");
        r.tables.push(table());
        r.note("expected shape holds");
        let text = r.to_text();
        assert!(text.contains("fig00"));
        assert!(text.contains("note: expected"));
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut t = Table::new("quote \" and\nnewline", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "z\\w".into()]);
        let j = t.to_json();
        assert!(j.contains("quote \\\" and\\nnewline"));
        assert!(j.contains("\"rows\":[[\"x,y\",\"z\\\\w\"]]"));
    }

    #[test]
    fn report_json_written_to_disk() {
        let mut r = Report::new("tj", "json demo");
        r.tables.push(table());
        r.note("shape holds");
        let dir = std::env::temp_dir().join("fastgl_report_json_test");
        r.write_json(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("tj.json")).unwrap();
        assert!(content.starts_with("{\"id\":\"tj\""));
        assert!(content.contains("\"notes\":[\"shape holds\"]"));
        assert!(content.contains("\"headers\":[\"name\",\"value\"]"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn provenance_stamps_into_the_json_export() {
        let mut r = Report::new("tp", "provenance demo");
        r.tables.push(table());
        assert!(
            !r.to_json().contains("\"provenance\":"),
            "unstamped reports carry no provenance key"
        );
        r.provenance = Some(Provenance {
            profile: "quick".into(),
            threads: "8".into(),
            prefetch: "default".into(),
            telemetry: false,
            git: None,
        });
        let j = r.to_json();
        assert!(j.contains("\"provenance\":{\"profile\":\"quick\""));
        assert!(j.contains("\"threads\":\"8\""));
        assert!(j.contains("\"telemetry\":false"));
        assert!(j.contains("\"git\":null"));
        let with_git = Provenance {
            git: Some("abc1234".into()),
            ..Provenance::default()
        };
        assert!(with_git.to_json().contains("\"git\":\"abc1234\""));
    }

    /// Pins every byte of the report export: field order, separators,
    /// escapes (quote, backslash, newline, tab, control, non-ASCII) and
    /// both provenance shapes.
    #[test]
    fn report_json_bytes_are_pinned() {
        let mut t = Table::new("T \"q\"\t1", &["case", "x\\y"]);
        t.push_row(vec!["a\nb".into(), "\u{1}é".into()]);
        let mut r = Report::new("fig99", "golden \\ report");
        r.note("line\r\nnext");
        r.tables.push(t);
        r.tables.push(Table::new("empty", &[]));
        r.provenance = Some(Provenance {
            profile: "quick".into(),
            threads: "2".into(),
            prefetch: "default".into(),
            telemetry: true,
            git: Some("ab\"c".into()),
        });
        assert_eq!(
            r.to_json(),
            "{\"id\":\"fig99\",\"description\":\"golden \\\\ report\",\
             \"notes\":[\"line\\r\\nnext\"],\
             \"tables\":[{\"title\":\"T \\\"q\\\"\\t1\",\"headers\":[\"case\",\"x\\\\y\"],\
             \"rows\":[[\"a\\nb\",\"\\u0001é\"]]},\
             {\"title\":\"empty\",\"headers\":[],\"rows\":[]}],\
             \"provenance\":{\"profile\":\"quick\",\"threads\":\"2\",\
             \"prefetch\":\"default\",\"telemetry\":true,\"git\":\"ab\\\"c\"}}\n"
        );
        r.provenance.as_mut().unwrap().git = None;
        r.notes.clear();
        let j = r.to_json();
        assert!(j.contains("\"notes\":[],\"tables\""));
        assert!(j.ends_with("\"telemetry\":true,\"git\":null}}\n"));
    }

    /// `from_json` inverts `to_json`, and answers every partial or
    /// mistyped document with an `Err`, never a panic.
    #[test]
    fn from_json_inverts_to_json_and_rejects_partial_documents() {
        let mut r = Report::new("rt", "round \"trip\"");
        r.note("n\t1");
        r.tables.push(table());
        r.tables.push(Table::new("empty", &[]));
        let unstamped = r.clone();
        assert_eq!(Report::from_json(&unstamped.to_json()), Ok(unstamped));
        for git in [None, Some("abc1234".to_string())] {
            r.provenance = Some(Provenance {
                profile: "quick".into(),
                threads: "auto".into(),
                prefetch: "2".into(),
                telemetry: true,
                git,
            });
            assert_eq!(Report::from_json(&r.to_json()), Ok(r.clone()));
        }
        let text = r.to_json();
        // Every prefix short of the closing brace is partial JSON.
        for end in 0..text.len() - 1 {
            assert!(Report::from_json(&text[..end]).is_err(), "{end}");
        }
        for (from, to) in [
            ("\"id\":\"rt\",", ""),
            ("\"notes\":[\"n\\t1\"]", "\"notes\":null"),
            ("\"rows\":[[\"alpha\"", "\"rows\":[[1"),
            ("\"headers\":[\"name\",", "\"headers\":[{},"),
            ("\"profile\":\"quick\",", ""),
            ("\"telemetry\":true", "\"telemetry\":\"true\""),
            ("\"git\":\"abc1234\"", "\"git\":7"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "fixture must contain {from}");
            assert!(Report::from_json(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn provenance_current_reflects_the_environment() {
        // The test harness runs from the repo, so a revision resolves;
        // profile is one of the two known names either way.
        let p = Provenance::current();
        assert!(p.profile == "quick" || p.profile == "default");
        assert!(!p.threads.is_empty());
        assert!(!p.prefetch.is_empty());
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_secs(0.0025), "2.500ms");
        assert_eq!(fmt_secs(2.5e-6), "2.500us");
        assert_eq!(fmt_ratio(2.345), "2.35x");
        assert_eq!(fmt_pct(0.936), "93.6%");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.00GB");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2KB");
    }
}
