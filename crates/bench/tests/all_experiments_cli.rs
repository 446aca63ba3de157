//! The `all_experiments` entry point refuses IDs it does not know and
//! settings it cannot read, instead of running nothing or the wrong thing
//! and reporting success.

use std::process::Command;

#[test]
fn unknown_experiment_id_exits_2_and_lists_the_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(["tab04_match_degree", "no_such_experiment"])
        .env(
            "FASTGL_RESULTS_DIR",
            std::env::temp_dir().join("fastgl_cli_unused"),
        )
        .output()
        .expect("all_experiments spawns");
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "nothing runs on a bad ID: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.lines().next(),
        Some("all_experiments: unknown experiment ID(s): no_such_experiment")
    );
    let ids: Vec<&str> = fastgl_bench::experiments::all()
        .iter()
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(
        stderr.lines().nth(1),
        Some(format!("registered IDs: {}", ids.join(", ")).as_str())
    );
}

#[test]
fn the_registry_holds_every_experiment_once() {
    let mut ids: Vec<&str> = fastgl_bench::experiments::all()
        .iter()
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(ids.len(), 25);
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 25, "experiment IDs are unique");
}

#[test]
fn malformed_quick_flag_exits_1_before_any_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .arg("tab04_match_degree")
        .env("FASTGL_QUICK", "yes")
        .env(
            "FASTGL_RESULTS_DIR",
            std::env::temp_dir().join("fastgl_cli_unused"),
        )
        .output()
        .expect("all_experiments spawns");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "nothing runs on a bad setting: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("FASTGL_QUICK=\"yes\""), "{stderr}");
}

#[test]
fn provenance_records_the_parsed_settings() {
    let dir = std::env::temp_dir().join(format!("fastgl_cli_provenance_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .arg("tab04_match_degree")
        .env("FASTGL_QUICK", " TRUE ")
        .env("FASTGL_THREADS", " 8")
        .env("FASTGL_PREFETCH", "2\n")
        .env_remove("FASTGL_TELEMETRY")
        .env("FASTGL_RESULTS_DIR", &dir)
        .output()
        .expect("all_experiments spawns");
    assert!(out.status.success(), "{out:?}");
    let json =
        std::fs::read_to_string(dir.join("tab04_match_degree.json")).expect("report written");
    let report = fastgl_bench::Report::from_json(&json).expect("report parses");
    let p = report.provenance.expect("provenance stamped");
    assert_eq!(
        (p.profile.as_str(), p.threads.as_str(), p.prefetch.as_str()),
        ("quick", "8", "2")
    );
    let _ = std::fs::remove_dir_all(&dir);
}
