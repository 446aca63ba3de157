//! Host wall-clock benchmark of the FastGL reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run sets its workload up five times (set-up time is the median),
//! then alternates until `--seconds` have passed: one untraced epoch
//! through the public API (the end-to-end numbers), then a traced replay
//! of the same epoch that times every layer call (the per-layer numbers)
//! and must reproduce the untraced result exactly. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
//! See `README.md` for the workloads and what each metric should move.

mod metrics;
mod sim;
mod train;

use metrics::{
    heap_peak, median, peak_rss_mib, ratio, CountingAlloc, Metrics, Trace, END_TO_END, PER_LAYER,
};
use sim::{SimBench, SimSpec};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use train::{TrainBench, TrainSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Worker threads of the execution backend, whatever `FASTGL_THREADS` says.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Timed epochs per run even when `--seconds` has passed.
const MIN_EPOCHS: u64 = 3;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &[
    "sim-fastgl-products",
    "sim-dgl-papers",
    "train-gcn-community",
];

/// Wall times of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Graph generation, system construction and the warm-up epoch.
    pub total: Duration,
    /// Graph generation alone.
    pub generate: Duration,
    /// The warm-up epoch alone.
    pub warmup: Duration,
}

/// A workload after set-up.
pub trait Workload {
    /// Runs `epoch` untraced through the public API; returns its
    /// mini-batch count.
    fn run_epoch(&mut self, epoch: u64) -> u64;
    /// Replays `epoch` with every layer call timed into `trace`; returns
    /// whether it reproduced the untraced result exactly.
    fn replay_epoch(&mut self, epoch: u64, trace: &mut Trace) -> bool;
    /// Re-runs the first timed epoch from scratch; returns whether it
    /// reproduced the recorded result exactly.
    fn final_check(&mut self) -> bool;
    /// Sets the workload's own per-layer metrics.
    fn write_layers(&self, trace: &Trace, m: &mut Metrics);
}

/// What one run measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Sets up `SETUP_REPEATS` times, then measures for `seconds`.
fn measure<W: Workload>(setup: impl Fn() -> (W, SetupTimes), seconds: u64) -> Outcome {
    let mut setups = Vec::new();
    let mut heap_mib = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let ((w, times), peak) = heap_peak(&setup);
        setups.push(times);
        heap_mib.push(peak as f64 / (1024.0 * 1024.0));
        bench = Some(w);
    }
    let mut w = bench.expect("at least one set-up");

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut trace = Trace::default();
    let mut epoch_s = Vec::new();
    let mut batches = 0;
    let (mut attempted, mut failed) = (0, 0);
    let mut epoch = 1;
    while epoch <= MIN_EPOCHS || start.elapsed() < budget {
        let t = Instant::now();
        batches += w.run_epoch(epoch);
        epoch_s.push(t.elapsed().as_secs_f64());
        attempted += 1;
        if !w.replay_epoch(epoch, &mut trace) {
            failed += 1;
            eprintln!("epoch {epoch}: the traced replay differs from the untraced run");
        }
        epoch += 1;
    }
    attempted += 1;
    if !w.final_check() {
        failed += 1;
        eprintln!("a fresh re-run of epoch 1 differs from the timed run");
    }

    let secs = |f: fn(&SetupTimes) -> Duration| -> f64 {
        median(
            &setups
                .iter()
                .map(|t| f(t).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let total_s: f64 = epoch_s.iter().sum();
    let mut m = Metrics::default();
    m.set("setup_s", secs(|t| t.total));
    m.set("epoch_s", median(&epoch_s));
    let batches_per_epoch = batches as f64 / epoch_s.len() as f64;
    m.set("batches_per_s", ratio(batches_per_epoch, median(&epoch_s)));
    m.set("timed_epochs", epoch_s.len() as f64);
    m.set("peak_heap_mib", median(&heap_mib));
    m.set("peak_rss_mib", peak_rss_mib());
    m.set("graph.generate_s", secs(|t| t.generate));
    m.set("setup.warmup_epoch_s", secs(|t| t.warmup));
    trace.write(&mut m);
    m.set(
        "trace.overhead_ratio",
        ratio(
            trace.wall.as_secs_f64() / trace.epochs.max(1) as f64,
            total_s / epoch_s.len() as f64,
        ),
    );
    m.set("error_rate", ratio(failed as f64, attempted as f64));
    w.write_layers(&trace, &mut m);
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    })
}

/// Removes every `FASTGL_*` variable so only the workload's explicit
/// settings apply; returns the names removed.
fn clear_fastgl_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FASTGL_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The git revision of the working directory's checkout, read from
/// `.git` directly; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Formats a metric value as JSON (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cleared = clear_fastgl_env();
    fastgl_tensor::parallel::set_num_threads(THREADS);
    fastgl_telemetry::set_enabled(false);

    let (seed, seconds) = (args.seed, args.seconds);
    let (prefetch, outcome) = match args.workload.as_str() {
        "sim-fastgl-products" => {
            let spec = SimSpec::FASTGL_PRODUCTS;
            (
                spec.prefetch,
                measure(|| SimBench::setup(spec, seed), seconds),
            )
        }
        "sim-dgl-papers" => {
            let spec = SimSpec::DGL_PAPERS;
            (
                spec.prefetch,
                measure(|| SimBench::setup(spec, seed), seconds),
            )
        }
        _ => {
            let spec = TrainSpec::GCN_COMMUNITY;
            (0, measure(|| TrainBench::setup(spec, seed), seconds))
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"nproc\": {nproc}, \"threads\": {THREADS}, \"prefetch\": {prefetch}, \
         \"faults\": \"none\", \"telemetry\": false, \"cleared_env\": {:?}, \"git\": \"{}\"}}}}",
        args.workload,
        u8::from(args.trace),
        cleared,
        git_revision(),
    );
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in PER_LAYER.iter().chain(END_TO_END) {
        eprintln!("{name:>32} {:>16.4} {unit}", outcome.metrics.get(name));
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(outcome.metrics.get(name))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_and_workload_is_declared_in_benchmark_json() {
        let json = benchmark_json();
        let mut declared = 0;
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            declared += 1;
        }
        for &name in WORKLOADS {
            assert!(valid_name(name), "bad workload name {name}");
            assert!(json.contains(&format!("\"name\": \"{name}\", \"why\": ")));
            declared += 1;
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            declared,
            "BENCHMARK.json declares names the benchmark never prints"
        );
    }

    #[test]
    fn a_failed_replay_is_counted_not_fatal() {
        struct Flaky(u64);
        impl Workload for Flaky {
            fn run_epoch(&mut self, _: u64) -> u64 {
                1
            }
            fn replay_epoch(&mut self, epoch: u64, trace: &mut Trace) -> bool {
                trace.epochs += 1;
                epoch != self.0
            }
            fn final_check(&mut self) -> bool {
                true
            }
            fn write_layers(&self, _: &Trace, _: &mut Metrics) {}
        }
        let out = measure(|| (Flaky(2), SetupTimes::zero()), 0);
        assert_eq!((out.attempted, out.failed), (MIN_EPOCHS + 1, 1));
        assert_eq!(out.metrics.get("error_rate"), 1.0 / (MIN_EPOCHS + 1) as f64);
    }

    impl SetupTimes {
        fn zero() -> Self {
            Self {
                total: Duration::ZERO,
                generate: Duration::ZERO,
                warmup: Duration::ZERO,
            }
        }
    }
}
