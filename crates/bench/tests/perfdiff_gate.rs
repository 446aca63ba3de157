//! End-to-end tests of the `perfdiff` gate binary: a clean tree diffs to
//! zero regressions, an injected 10% slowdown in a simulated cell is
//! caught with a non-zero exit and the right markdown row, and
//! mismatched scale profiles are refused rather than mis-diffed.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_perfdiff")
}

/// A minimal but realistic report: provenance-stamped, one exact column
/// and one wall column.
fn report_json(id: &str, sim_io: &str, wall: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"description\":\"gate fixture\",\"notes\":[],\
         \"tables\":[{{\"title\":\"Breakdown\",\
         \"headers\":[\"case\",\"epoch io\",\"wall epoch time\"],\
         \"rows\":[[\"gcn/products\",\"{sim_io}\",\"{wall}\"],\
         [\"gcn/mag\",\"9.000ms\",\"2.000s\"]]}}],\
         \"provenance\":{{\"profile\":\"quick\",\"threads\":\"auto\",\
         \"prefetch\":\"default\",\"telemetry\":false,\"git\":null}}}}\n"
    )
}

struct Dirs {
    baseline: PathBuf,
    candidate: PathBuf,
    root: PathBuf,
}

fn fresh_dirs(stem: &str) -> Dirs {
    let root = std::env::temp_dir().join(format!("fastgl_perfdiff_gate_{stem}"));
    let _ = std::fs::remove_dir_all(&root);
    let baseline = root.join("baseline");
    let candidate = root.join("candidate");
    std::fs::create_dir_all(&baseline).unwrap();
    std::fs::create_dir_all(&candidate).unwrap();
    Dirs {
        baseline,
        candidate,
        root,
    }
}

fn run_gate(baseline: &Path, candidate: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(bin())
        .arg("--baseline")
        .arg(baseline)
        .arg("--candidate")
        .arg(candidate)
        .args(extra)
        .output()
        .expect("perfdiff spawns");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().expect("exit code"), stdout)
}

#[test]
fn identical_runs_pass_with_exit_zero() {
    let dirs = fresh_dirs("clean");
    let report = report_json("fig01", "4.218ms", "1.000s");
    std::fs::write(dirs.baseline.join("fig01.json"), &report).unwrap();
    std::fs::write(dirs.candidate.join("fig01.json"), &report).unwrap();
    let (code, md) = run_gate(&dirs.baseline, &dirs.candidate, &[]);
    assert_eq!(code, 0, "clean diff must exit 0:\n{md}");
    assert!(md.contains("VERDICT: PASS"));
    let _ = std::fs::remove_dir_all(&dirs.root);
}

#[test]
fn injected_ten_percent_slowdown_fails_with_the_right_markdown_row() {
    let dirs = fresh_dirs("slowdown");
    // Baseline 4.218ms; candidate 4.640ms = +10% on a *simulated* cell.
    std::fs::write(
        dirs.baseline.join("fig01.json"),
        report_json("fig01", "4.218ms", "1.000s"),
    )
    .unwrap();
    std::fs::write(
        dirs.candidate.join("fig01.json"),
        report_json("fig01", "4.640ms", "1.000s"),
    )
    .unwrap();
    let md_path = dirs.root.join("perfdiff.md");
    let (code, md) = run_gate(
        &dirs.baseline,
        &dirs.candidate,
        &["--markdown", md_path.to_str().unwrap()],
    );
    assert_eq!(code, 1, "a simulated slowdown must fail the gate:\n{md}");
    assert!(md.contains("VERDICT: FAIL"));
    // The markdown row names the report, the cell, and both values.
    let written = std::fs::read_to_string(&md_path).unwrap();
    assert_eq!(written, md, "--markdown writes exactly what was printed");
    let row = written
        .lines()
        .find(|l| l.starts_with("| fig01 |"))
        .expect("finding row present");
    assert!(row.contains("epoch io"), "row names the column: {row}");
    assert!(
        row.contains("gcn/products"),
        "row names the row label: {row}"
    );
    assert!(row.contains("4.218ms") && row.contains("4.640ms"));
    assert!(row.contains("regression"));
    let _ = std::fs::remove_dir_all(&dirs.root);
}

#[test]
fn wall_cells_are_skipped_even_when_they_double() {
    let dirs = fresh_dirs("wall");
    std::fs::write(
        dirs.baseline.join("b.json"),
        report_json("b", "4.218ms", "1.000s"),
    )
    .unwrap();
    // Wall time doubles; simulated cells identical.
    std::fs::write(
        dirs.candidate.join("b.json"),
        report_json("b", "4.218ms", "2.000s"),
    )
    .unwrap();
    let (code, md) = run_gate(&dirs.baseline, &dirs.candidate, &[]);
    assert_eq!(code, 0, "wall cells are never compared:\n{md}");
    assert!(
        md.contains("4 exact cell(s), 2 wall cell(s) skipped"),
        "{md}"
    );
    let _ = std::fs::remove_dir_all(&dirs.root);
}

#[test]
fn profile_mismatch_is_refused_with_exit_two() {
    let dirs = fresh_dirs("profiles");
    std::fs::write(
        dirs.baseline.join("r.json"),
        report_json("r", "4.218ms", "1.000s"),
    )
    .unwrap();
    std::fs::write(
        dirs.candidate.join("r.json"),
        report_json("r", "4.218ms", "1.000s").replace("\"quick\"", "\"default\""),
    )
    .unwrap();
    let (code, md) = run_gate(&dirs.baseline, &dirs.candidate, &[]);
    assert_eq!(code, 2, "profile mismatch must refuse, not diff:\n{md}");
    assert!(md.contains("VERDICT: REFUSED"));
    assert!(md.contains("incompatible"));
    let _ = std::fs::remove_dir_all(&dirs.root);
}

#[test]
fn usage_errors_exit_two() {
    let out = Command::new(bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr explains usage: {err}");
    // No flag turns wall comparison on.
    let dirs = fresh_dirs("no_wall_tol");
    let out = Command::new(bin())
        .arg("--baseline")
        .arg(&dirs.baseline)
        .arg("--candidate")
        .arg(&dirs.candidate)
        .args(["--wall-tol", "0.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag '--wall-tol'"), "{err}");
    let _ = std::fs::remove_dir_all(&dirs.root);
}
