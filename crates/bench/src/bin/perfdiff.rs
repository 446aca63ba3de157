//! The perf-regression gate: diffs freshly generated `results/*.json`
//! reports against a committed baseline directory.
//!
//! ```text
//! perfdiff --baseline results/quick --candidate /tmp/fresh [--markdown perfdiff.md]
//! ```
//!
//! Simulated cells must match **exactly** (they are deterministic by the
//! workspace's test suite); wall-clock cells (headers containing `wall`)
//! are counted and skipped. Reports whose provenance stamps carry
//! different scale profiles are refused rather than mis-diffed.
//!
//! Exit codes: `0` clean, `1` regressions found, `2` usage error or
//! incomparable runs.

use fastgl_bench::perfdiff::diff_dirs;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    baseline: PathBuf,
    candidate: PathBuf,
    markdown: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: perfdiff --baseline <dir> --candidate <dir> [--markdown <file>]"
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut candidate = None;
    let mut markdown = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(value()?)),
            "--candidate" => candidate = Some(PathBuf::from(value()?)),
            "--markdown" => markdown = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or_else(|| format!("--baseline is required\n{}", usage()))?,
        candidate: candidate.ok_or_else(|| format!("--candidate is required\n{}", usage()))?,
        markdown,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfdiff: {e}");
            return ExitCode::from(2);
        }
    };
    let summary = match diff_dirs(&args.baseline, &args.candidate) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfdiff: {e}");
            return ExitCode::from(2);
        }
    };
    let markdown = summary.to_markdown();
    print!("{markdown}");
    if let Some(path) = &args.markdown {
        if let Err(e) = std::fs::write(path, &markdown) {
            eprintln!("perfdiff: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if summary.has_regressions() {
        ExitCode::from(1)
    } else if summary.has_incompatible() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
