//! The noise-aware perf-regression gate over `results/*.json` reports.
//!
//! Every `fastgl-bench` experiment persists its tables as a JSON report.
//! Those cells split into two populations with very different statistics:
//!
//! * **simulated** values (times, bytes, ratios, percentages derived from
//!   [`SimTime`](fastgl_gpusim::SimTime)) are *deterministic* — the same
//!   tree must reproduce them bit-for-bit on any machine, at any thread
//!   count. They diff under the **exact tier**: any change is a
//!   regression (improvements included, because an unexplained change in
//!   a pinned quantity means the model changed and the baseline must be
//!   re-committed deliberately).
//! * **wall-clock** values vary run to run and machine to machine. They
//!   live in columns whose headers contain `wall` (a naming convention
//!   the experiments follow) and are only compared when the caller opts
//!   in with a relative tolerance ([`DiffOptions::wall_tol`]), direction
//!   aware: a time growing past the tolerance is a regression, as is a
//!   `speedup` shrinking past it. Without a tolerance, wall cells are
//!   counted and skipped.
//! * compound `busy/stall` cells are informational and never compared.
//!
//! Reports also carry a **provenance** stamp (scale profile, thread/
//! prefetch overrides, git revision). Comparing runs from different scale
//! profiles is apples-to-oranges — the gate refuses rather than reporting
//! nonsense regressions.

use fastgl_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One table of a parsed report document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDoc {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Formatted cell strings.
    pub rows: Vec<Vec<String>>,
}

/// A parsed `results/<id>.json` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportDoc {
    /// Experiment id.
    pub id: String,
    /// One-line description.
    pub description: String,
    /// The tables.
    pub tables: Vec<TableDoc>,
    /// Provenance stamp, if the writing build recorded one.
    pub provenance: Option<BTreeMap<String, String>>,
}

/// Parses a report JSON document.
///
/// # Errors
///
/// Returns a description of the first syntax or shape error.
pub fn parse_report(text: &str) -> Result<ReportDoc, String> {
    let v = json::parse(text)?;
    Ok(ReportDoc {
        id: string(&v, "id")?,
        description: string(&v, "description")?,
        tables: array(&v, "tables")?
            .iter()
            .map(|t| {
                Ok(TableDoc {
                    title: string(t, "title")?,
                    headers: strings(t.get("headers").ok_or("table missing 'headers'")?)?,
                    rows: array(t, "rows")?
                        .iter()
                        .map(strings)
                        .collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<_, String>>()?,
        provenance: v.get("provenance").map(|p| match p {
            Value::Obj(m) => m
                .iter()
                .map(|(k, val)| {
                    let s = match val {
                        Value::Str(s) => s.clone(),
                        Value::Bool(b) => b.to_string(),
                        Value::Num(n) => format!("{n}"),
                        other => format!("{other:?}"),
                    };
                    (k.clone(), s)
                })
                .collect(),
            _ => BTreeMap::new(),
        }),
    })
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

/// How a column's cells are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Deterministic simulated value: any string difference fails.
    Exact,
    /// Wall-clock value: compared only under [`DiffOptions::wall_tol`].
    Wall,
    /// Compound/diagnostic cell: never compared.
    Informational,
}

/// Classifies a column header into its comparison tier.
///
/// Convention (enforced by the experiments): wall-clock columns say
/// `wall` in the header; compound busy/stall diagnostics say `busy/stall`.
/// Everything else is simulated and exact.
pub fn tier(header: &str) -> Tier {
    let h = header.to_ascii_lowercase();
    if h.contains("busy/stall") {
        Tier::Informational
    } else if h.contains("wall") {
        Tier::Wall
    } else {
        Tier::Exact
    }
}

/// Parses a formatted report cell into a comparable magnitude.
///
/// Understands the bench formatters: `2.500s` / `4.218ms` / `3.1us`
/// (seconds), `60.7%`, `1.17x`, `3.00GB` / `1.5MB` / `2KB` / `512B`
/// (bytes), and bare numbers. Returns `None` for labels and compound
/// cells.
pub fn parse_cell(cell: &str) -> Option<f64> {
    let s = cell.trim();
    let tail = |suffix: &str| -> Option<f64> {
        s.strip_suffix(suffix)
            .and_then(|head| head.parse::<f64>().ok())
    };
    // Longest suffixes first so "ms" wins over "s" and "GB" over "B".
    for (suffix, scale) in [
        ("ms", 1e-3),
        ("us", 1e-6),
        ("GB", 1024.0 * 1024.0 * 1024.0),
        ("MB", 1024.0 * 1024.0),
        ("KB", 1024.0),
        ("s", 1.0),
        ("%", 0.01),
        ("x", 1.0),
        ("B", 1.0),
    ] {
        if let Some(v) = tail(suffix) {
            return Some(v * scale);
        }
    }
    s.parse::<f64>().ok()
}

/// Gate configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOptions {
    /// Relative tolerance for wall-tier cells (e.g. `0.25` allows ±25%).
    /// `None` skips wall cells entirely.
    pub wall_tol: Option<f64>,
}

/// What a finding means for the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A compared value got worse (or an exact value changed at all).
    Regression,
    /// The report shapes differ (tables/headers/rows added or removed).
    Structural,
    /// The runs are not comparable (provenance mismatch); nothing was
    /// diffed for this report.
    Incompatible,
}

impl FindingKind {
    fn name(self) -> &'static str {
        match self {
            FindingKind::Regression => "regression",
            FindingKind::Structural => "structural",
            FindingKind::Incompatible => "incompatible",
        }
    }
}

/// One gate finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Report id.
    pub report: String,
    /// Where in the report (`table / row / column`).
    pub location: String,
    /// Baseline cell (or shape description).
    pub baseline: String,
    /// Candidate cell (or shape description).
    pub candidate: String,
    /// Severity class.
    pub kind: FindingKind,
    /// Human explanation.
    pub detail: String,
}

/// Aggregate outcome of a gate run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffSummary {
    /// Everything that failed or was refused.
    pub findings: Vec<Finding>,
    /// Reports diffed (baseline side).
    pub reports_compared: usize,
    /// Cells compared exactly.
    pub exact_cells: usize,
    /// Wall cells compared under the tolerance.
    pub wall_cells_checked: usize,
    /// Wall cells skipped because no tolerance was given.
    pub wall_cells_skipped: usize,
    /// Informational cells skipped by design.
    pub info_cells_skipped: usize,
}

impl DiffSummary {
    /// Whether anything regressed (structurally or by value).
    pub fn has_regressions(&self) -> bool {
        self.findings
            .iter()
            .any(|f| matches!(f.kind, FindingKind::Regression | FindingKind::Structural))
    }

    /// Whether any report pair was refused as incomparable.
    pub fn has_incompatible(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.kind == FindingKind::Incompatible)
    }

    /// Renders the CI-facing markdown summary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# perfdiff\n\n");
        let _ = writeln!(
            out,
            "Compared {} report(s): {} exact cell(s), {} wall cell(s) \
             checked, {} wall cell(s) skipped (no tolerance), {} \
             informational cell(s) skipped.\n",
            self.reports_compared,
            self.exact_cells,
            self.wall_cells_checked,
            self.wall_cells_skipped,
            self.info_cells_skipped,
        );
        if self.findings.is_empty() {
            out.push_str("**VERDICT: PASS** — no regressions.\n");
            return out;
        }
        let verdict = if self.has_regressions() {
            "FAIL"
        } else {
            "REFUSED"
        };
        let _ = writeln!(
            out,
            "**VERDICT: {verdict}** — {} finding(s).\n",
            self.findings.len()
        );
        out.push_str("| report | location | baseline | candidate | kind | detail |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for f in &self.findings {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                f.report,
                f.location,
                f.baseline,
                f.candidate,
                f.kind.name(),
                f.detail
            );
        }
        out
    }
}

/// Provenance keys that must match for two runs to be comparable. The
/// scale profile changes every simulated number; thread/prefetch/telemetry
/// settings are pinned not to (by the determinism test suite), so they
/// may differ.
const PROFILE_KEY: &str = "profile";

/// Diffs one report pair into `summary`.
pub fn diff_reports(
    baseline: &ReportDoc,
    candidate: &ReportDoc,
    opts: &DiffOptions,
    summary: &mut DiffSummary,
) {
    summary.reports_compared += 1;
    let id = baseline.id.clone();
    // Provenance gate: refuse apples-to-oranges profiles. Reports written
    // before stamping existed (no provenance) compare without the guard.
    if let (Some(b), Some(c)) = (&baseline.provenance, &candidate.provenance) {
        let bp = b.get(PROFILE_KEY);
        let cp = c.get(PROFILE_KEY);
        if bp != cp {
            summary.findings.push(Finding {
                report: id,
                location: "provenance".into(),
                baseline: format!("profile={}", bp.map_or("?", |s| s)),
                candidate: format!("profile={}", cp.map_or("?", |s| s)),
                kind: FindingKind::Incompatible,
                detail: "scale profiles differ; re-run both sides under the same \
                         FASTGL_QUICK setting"
                    .into(),
            });
            return;
        }
    }
    if baseline.tables.len() != candidate.tables.len() {
        summary.findings.push(Finding {
            report: id,
            location: "tables".into(),
            baseline: format!("{} table(s)", baseline.tables.len()),
            candidate: format!("{} table(s)", candidate.tables.len()),
            kind: FindingKind::Structural,
            detail: "table count changed".into(),
        });
        return;
    }
    for (t_idx, (bt, ct)) in baseline.tables.iter().zip(&candidate.tables).enumerate() {
        let table_loc = format!("table {t_idx} ({})", bt.title);
        if bt.headers != ct.headers {
            summary.findings.push(Finding {
                report: id.clone(),
                location: table_loc,
                baseline: bt.headers.join(" | "),
                candidate: ct.headers.join(" | "),
                kind: FindingKind::Structural,
                detail: "headers changed".into(),
            });
            continue;
        }
        if bt.rows.len() != ct.rows.len() {
            summary.findings.push(Finding {
                report: id.clone(),
                location: table_loc,
                baseline: format!("{} row(s)", bt.rows.len()),
                candidate: format!("{} row(s)", ct.rows.len()),
                kind: FindingKind::Structural,
                detail: "row count changed".into(),
            });
            continue;
        }
        for (br, cr) in bt.rows.iter().zip(&ct.rows) {
            let row_label = br.first().cloned().unwrap_or_default();
            for ((header, bc), cc) in bt.headers.iter().zip(br).zip(cr) {
                let loc = format!("{table_loc} / row '{row_label}' / {header}");
                match tier(header) {
                    Tier::Informational => summary.info_cells_skipped += 1,
                    Tier::Exact => {
                        summary.exact_cells += 1;
                        if bc != cc {
                            summary.findings.push(Finding {
                                report: id.clone(),
                                location: loc,
                                baseline: bc.clone(),
                                candidate: cc.clone(),
                                kind: FindingKind::Regression,
                                detail: "exact-tier (simulated) value changed".into(),
                            });
                        }
                    }
                    Tier::Wall => match opts.wall_tol {
                        None => summary.wall_cells_skipped += 1,
                        Some(tol) => {
                            summary.wall_cells_checked += 1;
                            if let Some(f) = wall_regression(header, bc, cc, tol, &id, &loc) {
                                summary.findings.push(f);
                            }
                        }
                    },
                }
            }
        }
    }
}

/// Checks one wall-tier cell pair under a relative tolerance.
fn wall_regression(
    header: &str,
    baseline: &str,
    candidate: &str,
    tol: f64,
    id: &str,
    loc: &str,
) -> Option<Finding> {
    let (b, c) = (parse_cell(baseline)?, parse_cell(candidate)?);
    if b <= 0.0 {
        return None;
    }
    // "speedup" columns are better when larger; times are better smaller.
    let higher_is_better = header.to_ascii_lowercase().contains("speedup");
    let rel = (c - b) / b;
    let regressed = if higher_is_better {
        rel < -tol
    } else {
        rel > tol
    };
    regressed.then(|| Finding {
        report: id.to_string(),
        location: loc.to_string(),
        baseline: baseline.to_string(),
        candidate: candidate.to_string(),
        kind: FindingKind::Regression,
        detail: format!(
            "wall-tier value moved {:+.1}% (tolerance ±{:.1}%)",
            rel * 100.0,
            tol * 100.0
        ),
    })
}

/// Diffs every `*.json` report in `baseline_dir` against its counterpart
/// in `candidate_dir`. Reports present only in the candidate are new work
/// and ignored; reports missing from the candidate are structural
/// failures.
///
/// # Errors
///
/// Returns IO/parse failures on either side (a malformed committed
/// baseline should fail loudly, not read as "no regressions").
pub fn diff_dirs(
    baseline_dir: &Path,
    candidate_dir: &Path,
    opts: &DiffOptions,
) -> Result<DiffSummary, String> {
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir)
        .map_err(|e| format!("cannot read {}: {e}", baseline_dir.display()))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.ends_with(".json").then_some(name)
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "no baseline reports (*.json) in {}",
            baseline_dir.display()
        ));
    }
    let mut summary = DiffSummary::default();
    for name in names {
        let read_and_parse = |dir: &Path| -> Result<ReportDoc, String> {
            let path = dir.join(&name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            parse_report(&text).map_err(|e| format!("{}: {e}", path.display()))
        };
        let baseline = read_and_parse(baseline_dir)?;
        if !candidate_dir.join(&name).exists() {
            summary.reports_compared += 1;
            summary.findings.push(Finding {
                report: baseline.id.clone(),
                location: name.clone(),
                baseline: "present".into(),
                candidate: "missing".into(),
                kind: FindingKind::Structural,
                detail: "candidate run did not produce this report".into(),
            });
            continue;
        }
        let candidate = read_and_parse(candidate_dir)?;
        diff_reports(&baseline, &candidate, opts, &mut summary);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: &str, cells: &[[&str; 3]]) -> ReportDoc {
        ReportDoc {
            id: id.into(),
            description: "test".into(),
            tables: vec![TableDoc {
                title: "T".into(),
                headers: vec!["case".into(), "sim time".into(), "wall epoch time".into()],
                rows: cells
                    .iter()
                    .map(|r| r.iter().map(|c| c.to_string()).collect())
                    .collect(),
            }],
            provenance: None,
        }
    }

    fn run_diff(b: &ReportDoc, c: &ReportDoc, opts: DiffOptions) -> DiffSummary {
        let mut s = DiffSummary::default();
        diff_reports(b, c, &opts, &mut s);
        s
    }

    #[test]
    fn cell_parser_understands_every_formatter() {
        assert_eq!(parse_cell("2.500s"), Some(2.5));
        assert_eq!(parse_cell("4.218ms"), Some(4.218 * 1e-3));
        assert_eq!(parse_cell("2.500us"), Some(2.5 * 1e-6));
        assert_eq!(parse_cell("60.7%"), Some(60.7 * 0.01));
        assert_eq!(parse_cell("1.17x"), Some(1.17));
        assert_eq!(parse_cell("3.00GB"), Some(3.0 * 1024.0 * 1024.0 * 1024.0));
        assert_eq!(parse_cell("1.5MB"), Some(1.5 * 1024.0 * 1024.0));
        assert_eq!(parse_cell("2KB"), Some(2048.0));
        assert_eq!(parse_cell("512B"), Some(512.0));
        assert_eq!(parse_cell("42"), Some(42.0));
        assert_eq!(parse_cell("gcn/products"), None);
        assert_eq!(parse_cell("1.2ms / 3.4ms"), None);
    }

    #[test]
    fn tiers_follow_the_header_convention() {
        assert_eq!(tier("sim time"), Tier::Exact);
        assert_eq!(tier("speedup"), Tier::Exact); // simulated ratio
        assert_eq!(tier("wall epoch time"), Tier::Wall);
        assert_eq!(tier("Wall speedup vs serial"), Tier::Wall);
        assert_eq!(tier("sample busy/stall (wall)"), Tier::Informational);
    }

    #[test]
    fn identical_reports_pass_clean() {
        let b = doc("r", &[["a", "2.500ms", "1.000s"]]);
        let s = run_diff(&b, &b.clone(), DiffOptions::default());
        assert!(!s.has_regressions());
        assert_eq!(s.exact_cells, 2); // "case" label + "sim time"
        assert_eq!(s.wall_cells_skipped, 1);
        assert!(s.to_markdown().contains("VERDICT: PASS"));
    }

    #[test]
    fn exact_tier_flags_any_change_even_improvements() {
        let b = doc("r", &[["a", "2.500ms", "1.000s"]]);
        let c = doc("r", &[["a", "2.400ms", "1.000s"]]);
        let s = run_diff(&b, &c, DiffOptions::default());
        assert!(s.has_regressions());
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].kind, FindingKind::Regression);
        let md = s.to_markdown();
        assert!(md.contains("VERDICT: FAIL"));
        assert!(md.contains("2.500ms"), "markdown row carries the cells");
        assert!(md.contains("2.400ms"));
    }

    #[test]
    fn wall_tier_is_noise_tolerant_and_direction_aware() {
        let b = doc("r", &[["a", "2.500ms", "1.000s"]]);
        let within = doc("r", &[["a", "2.500ms", "1.100s"]]);
        let beyond = doc("r", &[["a", "2.500ms", "1.400s"]]);
        let faster = doc("r", &[["a", "2.500ms", "0.500s"]]);
        let opts = DiffOptions {
            wall_tol: Some(0.25),
        };
        assert!(!run_diff(&b, &within, opts).has_regressions());
        let s = run_diff(&b, &beyond, opts);
        assert!(s.has_regressions());
        assert!(s.findings[0].detail.contains("+40.0%"));
        // Getting faster is never a wall regression.
        assert!(!run_diff(&b, &faster, opts).has_regressions());
        // Without a tolerance even a 40% slowdown is skipped.
        assert!(!run_diff(&b, &beyond, DiffOptions::default()).has_regressions());
    }

    #[test]
    fn wall_speedup_columns_invert_the_direction() {
        let mk = |v: &str| ReportDoc {
            tables: vec![TableDoc {
                title: "T".into(),
                headers: vec!["case".into(), "wall speedup vs serial".into()],
                rows: vec![vec!["a".into(), v.into()]],
            }],
            ..doc("r", &[])
        };
        let opts = DiffOptions {
            wall_tol: Some(0.2),
        };
        // Speedup shrinking past the tolerance regresses...
        assert!(run_diff(&mk("2.00x"), &mk("1.40x"), opts).has_regressions());
        // ...growing does not.
        assert!(!run_diff(&mk("2.00x"), &mk("3.00x"), opts).has_regressions());
    }

    #[test]
    fn structural_changes_are_regressions() {
        let b = doc("r", &[["a", "1ms", "1s"], ["b", "2ms", "2s"]]);
        let fewer_rows = doc("r", &[["a", "1ms", "1s"]]);
        let s = run_diff(&b, &fewer_rows, DiffOptions::default());
        assert!(s.has_regressions());
        assert_eq!(s.findings[0].kind, FindingKind::Structural);
        let mut renamed = b.clone();
        renamed.tables[0].headers[1] = "other".into();
        assert!(run_diff(&b, &renamed, DiffOptions::default()).has_regressions());
    }

    #[test]
    fn profile_mismatch_is_refused_not_diffed() {
        let mut b = doc("r", &[["a", "1ms", "1s"]]);
        let mut c = doc("r", &[["a", "999ms", "1s"]]); // would be a regression
        b.provenance = Some([("profile".to_string(), "default".to_string())].into());
        c.provenance = Some([("profile".to_string(), "quick".to_string())].into());
        let s = run_diff(&b, &c, DiffOptions::default());
        assert!(s.has_incompatible());
        assert!(!s.has_regressions(), "refused, so no value findings");
        assert_eq!(s.exact_cells, 0);
        assert!(s.to_markdown().contains("VERDICT: REFUSED"));
        // Same profile on both sides: diffed normally.
        c.provenance = b.provenance.clone();
        let s = run_diff(&b, &c, DiffOptions::default());
        assert!(s.has_regressions());
    }

    #[test]
    fn missing_provenance_on_either_side_still_compares() {
        let mut b = doc("r", &[["a", "1ms", "1s"]]);
        let c = doc("r", &[["a", "2ms", "1s"]]);
        b.provenance = Some([("profile".to_string(), "default".to_string())].into());
        assert!(run_diff(&b, &c, DiffOptions::default()).has_regressions());
    }

    #[test]
    fn parse_report_round_trips_bench_json() {
        let text = "{\"id\":\"x\",\"description\":\"d\",\"notes\":[\"n\"],\
                    \"tables\":[{\"title\":\"T\",\"headers\":[\"a\"],\
                    \"rows\":[[\"1ms\"]]}],\
                    \"provenance\":{\"profile\":\"quick\",\"telemetry\":false}}\n";
        let doc = parse_report(text).unwrap();
        assert_eq!(doc.id, "x");
        assert_eq!(doc.tables[0].rows[0][0], "1ms");
        let prov = doc.provenance.unwrap();
        assert_eq!(prov.get("profile").map(String::as_str), Some("quick"));
        assert_eq!(prov.get("telemetry").map(String::as_str), Some("false"));
        assert!(parse_report("{\"id\":\"x\"}").is_err());
    }

    #[test]
    fn diff_dirs_flags_missing_candidates_and_walks_all_reports() {
        let base = std::env::temp_dir().join("fastgl_perfdiff_base");
        let cand = std::env::temp_dir().join("fastgl_perfdiff_cand");
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cand);
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&cand).unwrap();
        let report = "{\"id\":\"a\",\"description\":\"d\",\"notes\":[],\
                      \"tables\":[{\"title\":\"T\",\"headers\":[\"v\"],\
                      \"rows\":[[\"1ms\"]]}]}\n";
        std::fs::write(base.join("a.json"), report).unwrap();
        std::fs::write(cand.join("a.json"), report).unwrap();
        std::fs::write(base.join("b.json"), report.replace("\"a\"", "\"b\"")).unwrap();
        let s = diff_dirs(&base, &cand, &DiffOptions::default()).unwrap();
        assert_eq!(s.reports_compared, 2);
        assert!(s.has_regressions(), "b.json missing from candidate");
        assert_eq!(s.findings[0].candidate, "missing");
        // Empty baseline dir is an error, not a pass.
        let empty = std::env::temp_dir().join("fastgl_perfdiff_empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(diff_dirs(&empty, &cand, &DiffOptions::default()).is_err());
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cand);
        let _ = std::fs::remove_dir_all(&empty);
    }
}
