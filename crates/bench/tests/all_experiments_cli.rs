//! The `all_experiments` entry point refuses IDs it does not know instead
//! of running nothing and reporting success.

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
