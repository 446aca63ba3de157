//! The one entry point for the paper's experiments: runs every registered
//! experiment in paper order, printing each report and writing its JSON
//! to `results/` (plus per-experiment telemetry under
//! `results/telemetry/` when `FASTGL_TELEMETRY=1`).
//!
//! Pass experiment IDs to run a subset (e.g. `all_experiments
//! fig09_overall BENCH_pipeline`); an unknown ID exits with status 2 and
//! lists the registered IDs. Set `FASTGL_QUICK=1` for a fast smoke pass.
//! A malformed `FASTGL_*` setting exits with status 1 before anything
//! runs.

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let experiments = fastgl_bench::experiments::all();
    let filter: Vec<String> = std::env::args().skip(1).collect();
    let unknown: Vec<&str> = filter
        .iter()
        .map(String::as_str)
        .filter(|f| !experiments.iter().any(|(id, _)| id == f))
        .collect();
    if !unknown.is_empty() {
        let ids: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "all_experiments: unknown experiment ID(s): {}\nregistered IDs: {}",
            unknown.join(", "),
            ids.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Err(e) = fastgl_core::check_env() {
        eprintln!("all_experiments: {e}");
        return ExitCode::FAILURE;
    }
    let scale = fastgl_bench::BenchScale::from_env();
    let started = Instant::now();
    // Drop anything recorded before the first experiment (dataset setup,
    // warmup) so each exported trace holds exactly one experiment's events.
    fastgl_telemetry::reset();
    for (id, runner) in experiments {
        if !filter.is_empty() && !filter.iter().any(|f| f == id) {
            continue;
        }
        let t = Instant::now();
        let report = runner(&scale);
        fastgl_bench::emit::finish(&report);
        println!("[{} finished in {:.1}s]\n", id, t.elapsed().as_secs_f64());
    }
    println!("all done in {:.1}s", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
