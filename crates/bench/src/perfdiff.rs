//! The perf-regression gate over `results/*.json` reports.
//!
//! Every experiment persists its tables as a JSON report, which the gate
//! reads back through [`Report::from_json`]. Nearly every cell is a **simulated** value (times, bytes, ratios,
//! percentages derived from [`SimTime`](fastgl_gpusim::SimTime)): it is
//! deterministic, and the same tree must reproduce it bit-for-bit on any
//! machine, at any thread count. So the gate has one rule: every cell is
//! compared exactly, and any change is a regression (improvements
//! included, because an unexplained change in a pinned quantity means the
//! model changed and the baseline must be re-committed deliberately).
//!
//! The one exception is host wall-clock time, which varies run to run.
//! Columns whose header contains `wall` (a naming convention the
//! experiments follow) are counted and skipped. Wall time is measured,
//! as medians with their spread, by `perfbench`, not here.
//!
//! Reports also carry a **provenance** stamp (scale profile, thread/
//! prefetch overrides, git revision). Comparing runs from different scale
//! profiles is apples-to-oranges — the gate refuses rather than reporting
//! nonsense regressions.

use crate::report::Report;
use std::fmt::Write as _;
use std::path::Path;

/// Whether a column holds host wall-clock time, which the gate skips.
/// Convention (followed by the experiments): such headers say `wall`.
pub fn is_wall(header: &str) -> bool {
    header.to_ascii_lowercase().contains("wall")
}

/// What a finding means for the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A compared (simulated) value changed, in either direction.
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
    /// Wall-clock cells skipped.
    pub wall_cells_skipped: usize,
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
            "Compared {} report(s): {} exact cell(s), {} wall cell(s) skipped.\n",
            self.reports_compared, self.exact_cells, self.wall_cells_skipped,
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

/// Diffs one report pair into `summary`.
pub fn diff_reports(baseline: &Report, candidate: &Report, summary: &mut DiffSummary) {
    summary.reports_compared += 1;
    let id = baseline.id.clone();
    // Provenance gate: refuse apples-to-oranges profiles. The scale
    // profile changes every simulated number; thread/prefetch/telemetry
    // settings are pinned not to (by the determinism test suite), so they
    // may differ. Reports written before stamping existed (no provenance)
    // compare without the guard.
    if let (Some(b), Some(c)) = (&baseline.provenance, &candidate.provenance) {
        if b.profile != c.profile {
            summary.findings.push(Finding {
                report: id,
                location: "provenance".into(),
                baseline: format!("profile={}", b.profile),
                candidate: format!("profile={}", c.profile),
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
            let row_label = br.first().map_or("", String::as_str);
            for ((header, bc), cc) in bt.headers.iter().zip(br).zip(cr) {
                if is_wall(header) {
                    summary.wall_cells_skipped += 1;
                    continue;
                }
                summary.exact_cells += 1;
                if bc != cc {
                    summary.findings.push(Finding {
                        report: id.clone(),
                        location: format!("{table_loc} / row '{row_label}' / {header}"),
                        baseline: bc.clone(),
                        candidate: cc.clone(),
                        kind: FindingKind::Regression,
                        detail: "simulated value changed".into(),
                    });
                }
            }
        }
    }
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
pub fn diff_dirs(baseline_dir: &Path, candidate_dir: &Path) -> Result<DiffSummary, String> {
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
        let read_and_parse = |dir: &Path| -> Result<Report, String> {
            let path = dir.join(&name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Report::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
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
        diff_reports(&baseline, &candidate, &mut summary);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Provenance, Table};

    fn doc(id: &str, cells: &[[&str; 3]]) -> Report {
        let mut r = Report::new(id, "test");
        r.tables.push(Table {
            title: "T".into(),
            headers: vec!["case".into(), "sim time".into(), "wall epoch time".into()],
            rows: cells
                .iter()
                .map(|r| r.iter().map(|c| c.to_string()).collect())
                .collect(),
        });
        r
    }

    fn profile(name: &str) -> Option<Provenance> {
        Some(Provenance {
            profile: name.into(),
            ..Provenance::default()
        })
    }

    fn run_diff(b: &Report, c: &Report) -> DiffSummary {
        let mut s = DiffSummary::default();
        diff_reports(b, c, &mut s);
        s
    }

    #[test]
    fn only_wall_headers_are_skipped() {
        assert!(!is_wall("sim time"));
        assert!(!is_wall("speedup")); // simulated ratio
        assert!(!is_wall("sample busy/stall")); // no `wall`: compared exactly
        assert!(is_wall("wall epoch time"));
        assert!(is_wall("Wall speedup vs serial"));
        assert!(is_wall("sample busy/stall (wall)"));
    }

    #[test]
    fn identical_reports_pass_clean() {
        let b = doc("r", &[["a", "2.500ms", "1.000s"]]);
        let s = run_diff(&b, &b.clone());
        assert!(!s.has_regressions());
        assert_eq!(s.exact_cells, 2); // "case" label + "sim time"
        assert_eq!(s.wall_cells_skipped, 1);
        assert!(s.to_markdown().contains("VERDICT: PASS"));
    }

    #[test]
    fn exact_tier_flags_any_change_even_improvements() {
        let b = doc("r", &[["a", "2.500ms", "1.000s"]]);
        let c = doc("r", &[["a", "2.400ms", "1.000s"]]);
        let s = run_diff(&b, &c);
        assert!(s.has_regressions());
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].kind, FindingKind::Regression);
        let md = s.to_markdown();
        assert!(md.contains("VERDICT: FAIL"));
        assert!(md.contains("2.500ms"), "markdown row carries the cells");
        assert!(md.contains("2.400ms"));
    }

    #[test]
    fn wall_cells_are_skipped_whatever_they_hold() {
        let b = doc("r", &[["a", "2.500ms", "1.000s"]]);
        let slower = doc("r", &[["a", "2.500ms", "9.000s"]]);
        let garbage = doc("r", &[["a", "2.500ms", "n/a"]]);
        for c in [&slower, &garbage] {
            let s = run_diff(&b, c);
            assert!(!s.has_regressions());
            assert_eq!((s.exact_cells, s.wall_cells_skipped), (2, 1));
        }
    }

    #[test]
    fn structural_changes_are_regressions() {
        let b = doc("r", &[["a", "1ms", "1s"], ["b", "2ms", "2s"]]);
        let fewer_rows = doc("r", &[["a", "1ms", "1s"]]);
        let s = run_diff(&b, &fewer_rows);
        assert!(s.has_regressions());
        assert_eq!(s.findings[0].kind, FindingKind::Structural);
        let mut renamed = b.clone();
        renamed.tables[0].headers[1] = "other".into();
        assert!(run_diff(&b, &renamed).has_regressions());
    }

    #[test]
    fn profile_mismatch_is_refused_not_diffed() {
        let mut b = doc("r", &[["a", "1ms", "1s"]]);
        let mut c = doc("r", &[["a", "999ms", "1s"]]); // would be a regression
        b.provenance = profile("default");
        c.provenance = profile("quick");
        let s = run_diff(&b, &c);
        assert!(s.has_incompatible());
        assert!(!s.has_regressions(), "refused, so no value findings");
        assert_eq!(s.exact_cells, 0);
        assert!(s.to_markdown().contains("VERDICT: REFUSED"));
        // Same profile on both sides: diffed normally.
        c.provenance = b.provenance.clone();
        let s = run_diff(&b, &c);
        assert!(s.has_regressions());
    }

    #[test]
    fn missing_provenance_on_either_side_still_compares() {
        let mut b = doc("r", &[["a", "1ms", "1s"]]);
        let c = doc("r", &[["a", "2ms", "1s"]]);
        b.provenance = profile("default");
        assert!(run_diff(&b, &c).has_regressions());
    }

    #[test]
    fn parse_report_round_trips_bench_json() {
        let text = "{\"id\":\"x\",\"description\":\"d\",\"notes\":[\"n\"],\
                    \"tables\":[{\"title\":\"T\",\"headers\":[\"a\"],\
                    \"rows\":[[\"1ms\"]]}],\
                    \"provenance\":{\"profile\":\"quick\",\"threads\":\"auto\",\
                    \"prefetch\":\"default\",\"telemetry\":false,\"git\":null}}\n";
        let doc = Report::from_json(text).unwrap();
        assert_eq!(doc.to_json(), text);
        assert_eq!(doc.id, "x");
        assert_eq!(doc.tables[0].rows[0][0], "1ms");
        let prov = doc.provenance.unwrap();
        assert_eq!(prov.profile, "quick");
        assert!(!prov.telemetry);
        assert!(Report::from_json("{\"id\":\"x\"}").is_err());
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
        let s = diff_dirs(&base, &cand).unwrap();
        assert_eq!(s.reports_compared, 2);
        assert!(s.has_regressions(), "b.json missing from candidate");
        assert_eq!(s.findings[0].candidate, "missing");
        // Empty baseline dir is an error, not a pass.
        let empty = std::env::temp_dir().join("fastgl_perfdiff_empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(diff_dirs(&empty, &cand).is_err());
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cand);
        let _ = std::fs::remove_dir_all(&empty);
    }
}
