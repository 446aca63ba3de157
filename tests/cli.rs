//! The `fastgl-sim` binary end to end: options reach the systems they
//! name, and impossible runs are refused before any work starts.

use fastgl::baselines::SystemKind;
use std::process::{Command, Output};

fn fastgl_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fastgl-sim"))
        .args(["--scale", "2048", "--epochs", "1"])
        .args(args)
        .output()
        .expect("fastgl-sim starts")
}

/// The value printed after `label :` on stdout.
fn field(out: &Output, label: &str) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            (key.trim() == label).then(|| value.trim().to_string())
        })
        .unwrap_or_else(|| panic!("no '{label}' line in:\n{stdout}"))
}

fn rows_cached(args: &[&str]) -> u64 {
    let out = fastgl_sim(args);
    assert!(out.status.success(), "fastgl-sim {args:?} failed: {out:?}");
    field(&out, "rows cached").parse().expect("row count")
}

#[test]
fn explicit_cache_ratio_reaches_gnnlab_and_pagraph() {
    for system in ["gnnlab", "pagraph"] {
        let auto = rows_cached(&["--system", system]);
        let zero = rows_cached(&["--system", system, "--cache-ratio", "0.0"]);
        assert!(auto > 0, "{system} cached nothing with an auto-sized cache");
        assert_eq!(zero, 0, "{system} ignored --cache-ratio 0.0");
    }
}

#[test]
fn gnnlab_on_one_gpu_is_refused_before_generating_the_graph() {
    let out = fastgl_sim(&["--system", "gnnlab", "--gpus", "1"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let needed = format!("needs at least {} GPUs", SystemKind::GnnLab.min_gpus());
    assert!(stderr.contains(&needed), "{stderr}");
    assert!(!stderr.contains("generating"), "{stderr}");
}

#[test]
fn every_system_name_and_the_advisor_alias_parse() {
    let names = SystemKind::ALL.iter().map(|kind| (kind.name(), *kind));
    for (arg, kind) in names.chain([("advisor", SystemKind::GnnAdvisor)]) {
        let out = fastgl_sim(&["--system", &arg.to_lowercase()]);
        assert!(out.status.success(), "--system {arg}: {out:?}");
        assert_eq!(field(&out, "system"), kind.name());
    }
    let out = fastgl_sim(&["--system", "nosuch"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn malformed_settings_are_refused_before_generating_the_graph() {
    for (var, value) in [
        ("FASTGL_THREADS", "eight"),
        ("FASTGL_PREFETCH", "two"),
        ("FASTGL_TELEMETRY", "yes"),
        ("FASTGL_FAULTS", "meteor_strike@batch=1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fastgl-sim"))
            .args(["--scale", "2048", "--epochs", "1"])
            .env(var, value)
            .output()
            .expect("fastgl-sim starts");
        assert_eq!(out.status.code(), Some(1), "{var}={value}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{var}=\"{value}\"")), "{stderr}");
        assert!(!stderr.contains("generating"), "{stderr}");
    }
}
