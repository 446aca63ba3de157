//! Shared experiment finishing: print the report, persist it as JSON
//! under `results/`, and — when telemetry is recording — drain the
//! run's spans/counters into `results/telemetry/` next to the data they
//! explain.

use crate::report::{Provenance, Report};
use std::path::PathBuf;

/// Where experiment tables land by default (see [`results_dir`]).
pub const RESULTS_DIR: &str = "results";

/// Where telemetry artifacts land by default (see [`telemetry_dir`]).
pub const TELEMETRY_DIR: &str = "results/telemetry";

/// The effective results directory: `FASTGL_RESULTS_DIR` when set (CI's
/// perfdiff gate redirects fresh runs there, away from the committed
/// baselines), [`RESULTS_DIR`] otherwise.
pub fn results_dir() -> PathBuf {
    std::env::var("FASTGL_RESULTS_DIR")
        .ok()
        .filter(|v| !v.is_empty())
        .map_or_else(|| PathBuf::from(RESULTS_DIR), PathBuf::from)
}

/// The effective telemetry directory: `<results_dir()>/telemetry`.
pub fn telemetry_dir() -> PathBuf {
    results_dir().join("telemetry")
}

/// Prints the report, stamps it with the run's [`Provenance`], and writes
/// `results/<id>.json`, which holds every cell; then exports this
/// run's telemetry (if enabled) under
/// `results/telemetry/<id>.telemetry.json`. Write failures warn
/// on stderr rather than aborting the run — the printed report is the
/// primary artifact.
pub fn finish(report: &Report) {
    print!("{}", report.to_text());
    let mut stamped = report.clone();
    if stamped.provenance.is_none() {
        stamped.provenance = Some(Provenance::current());
    }
    if let Err(e) = stamped.write_json(&results_dir()) {
        eprintln!("warning: could not write JSON for {}: {e}", report.id);
    }
    export_telemetry(&report.id);
}

/// Drains the telemetry store and writes its perf JSON, keyed by `stem`.
/// No-op (and no drain) when telemetry is off, so a multi-experiment
/// runner can call this after every experiment and each gets exactly its
/// own totals.
pub fn export_telemetry(stem: &str) {
    if !fastgl_telemetry::enabled() {
        return;
    }
    let snap = fastgl_telemetry::drain();
    match fastgl_telemetry::export::write_to_dir(&snap, &telemetry_dir(), stem) {
        Ok(perf) => {
            print!("{}", fastgl_telemetry::export::summary(&snap));
            println!("[telemetry -> {}]\n", perf.display());
        }
        Err(e) => eprintln!("warning: could not write telemetry for {stem}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table;
    use std::path::Path;
    use std::sync::Mutex;

    /// Serializes tests that flip the global telemetry state.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn finish_stamps_provenance_and_honours_results_dir_override() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fastgl_emit_override_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("FASTGL_RESULTS_DIR", &dir);
        let mut report = Report::new("emit_test", "results-dir override demo");
        report.tables.push({
            let mut t = Table::new("T", &["k", "v"]);
            t.push_row(vec!["a".into(), "1".into()]);
            t
        });
        finish(&report);
        std::env::remove_var("FASTGL_RESULTS_DIR");
        let json = std::fs::read_to_string(dir.join("emit_test.json"))
            .expect("finish wrote into the overridden directory");
        assert!(json.contains("\"provenance\":{\"profile\":"));
        let csvs = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("csv".as_ref()))
            .count();
        assert_eq!(csvs, 0, "the JSON report is the only table format");
        assert_eq!(results_dir(), Path::new(RESULTS_DIR).to_path_buf());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_telemetry_noop_when_disabled() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        fastgl_telemetry::set_enabled(false);
        // Must not drain, must not write: just return.
        export_telemetry("never_written");
        assert!(!Path::new(TELEMETRY_DIR)
            .join("never_written.telemetry.json")
            .exists());
    }
}
