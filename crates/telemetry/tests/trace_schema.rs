//! Schema validation of the chrome-trace exporter, replacing the old CI
//! shell step: generate a trace through the public API, parse it with
//! [`fastgl_telemetry::json`], and assert the conventions downstream
//! tooling relies on — event phases, pid/tid assignment, metadata, and
//! proper span nesting per thread.

use fastgl_telemetry as telemetry;
use telemetry::export::{chrome_trace, SIM_PID, WALL_PID};
use telemetry::json::{self, Value};

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("missing field {key:?} in {v:?}"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key).as_str().expect("string field")
}

fn num_field(v: &Value, key: &str) -> f64 {
    match field(v, key) {
        Value::Num(n) => *n,
        other => panic!("field {key:?} is not a number: {other:?}"),
    }
}

// -------------------------------------------------------------------
// Trace generation: a deterministic span structure over several threads
// plus a bridged simulated breakdown, exactly the shape a pipelined run
// produces.
// -------------------------------------------------------------------

/// One complete X event as parsed from the trace.
struct Span {
    name: String,
    pid: u64,
    tid: u64,
    ts: f64,
    dur: f64,
}

fn generate_trace() -> String {
    telemetry::set_enabled(true);
    telemetry::reset();
    {
        let _epoch = telemetry::span("epoch").with_u64("epoch", 0);
        std::thread::scope(|scope| {
            for w in 0..3u64 {
                scope.spawn(move || {
                    let _outer = telemetry::span("pipeline.stage.sample").with_u64("window", w);
                    let _inner = telemetry::span("sample.hop");
                });
            }
        });
        let _exec = telemetry::span("pipeline.stage.execute").with_u64("window", 0);
    }
    telemetry::record_sim_phases(
        "epoch 0",
        &[("sample", 1_000), ("io", 2_000), ("compute", 500)],
    );
    let trace = chrome_trace(&telemetry::snapshot());
    telemetry::reset();
    telemetry::set_enabled(false);
    trace
}

#[test]
fn chrome_trace_schema_holds() {
    let trace = generate_trace();
    let root = json::parse(&trace).expect("the trace is valid JSON");

    let events = field(&root, "traceEvents")
        .as_arr()
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());

    let mut spans: Vec<Span> = Vec::new();
    let mut process_names: Vec<(u64, String)> = Vec::new();
    let mut thread_names: Vec<(u64, u64, String)> = Vec::new();

    for e in events {
        let pid = num_field(e, "pid") as u64;
        let tid = num_field(e, "tid") as u64;
        match str_field(e, "ph") {
            "M" => {
                let arg = str_field(field(e, "args"), "name").to_string();
                match str_field(e, "name") {
                    "process_name" => process_names.push((pid, arg)),
                    "thread_name" => thread_names.push((pid, tid, arg)),
                    other => panic!("unexpected metadata record {other}"),
                }
            }
            "X" => {
                assert_eq!(
                    str_field(e, "cat"),
                    if pid == WALL_PID { "wall" } else { "sim" },
                    "category matches the track"
                );
                spans.push(Span {
                    name: str_field(e, "name").to_string(),
                    pid,
                    tid,
                    ts: num_field(e, "ts"),
                    dur: num_field(e, "dur"),
                });
            }
            other => panic!("unexpected event phase {other:?} (only X and M are emitted)"),
        }
    }

    // Process naming convention: wall pid and sim pid, both labelled.
    assert!(process_names
        .iter()
        .any(|(pid, n)| *pid == WALL_PID && n == "fastgl (wall clock)"));
    assert!(process_names
        .iter()
        .any(|(pid, n)| *pid == SIM_PID && n == "fastgl (simulated gpu)"));

    // Tid conventions: sim events all on tid 0 of SIM_PID; every wall tid
    // that carries events has a "worker N" thread_name record matching its
    // ordinal.
    for s in &spans {
        assert!(
            s.pid == WALL_PID || s.pid == SIM_PID,
            "unknown pid {}",
            s.pid
        );
        if s.pid == SIM_PID {
            assert_eq!(s.tid, 0, "sim events share the single sim timeline");
        } else {
            assert!(s.tid >= 1, "wall thread ordinals are 1-based");
            assert!(
                thread_names.iter().any(|(pid, tid, n)| *pid == WALL_PID
                    && *tid == s.tid
                    && *n == format!("worker {}", s.tid)),
                "wall tid {} lacks its worker thread_name",
                s.tid
            );
        }
    }

    // The recorded structure survived: 3 sampler threads, each with a
    // nested hop, plus execute and the enclosing epoch on the main thread.
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("pipeline.stage.sample"), 3);
    assert_eq!(count("sample.hop"), 3);
    assert_eq!(count("pipeline.stage.execute"), 1);
    assert_eq!(count("epoch"), 1);
    let sampler_tids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "pipeline.stage.sample")
        .map(|s| s.tid)
        .collect();
    assert_eq!(sampler_tids.len(), 3, "each sampler ran on its own thread");

    // Span nesting: on any single (pid, tid) timeline, two spans either
    // nest or are disjoint — RAII guards cannot partially overlap.
    for a in &spans {
        for b in &spans {
            if std::ptr::eq(a, b) || a.pid != b.pid || a.tid != b.tid {
                continue;
            }
            let (a0, a1) = (a.ts, a.ts + a.dur);
            let (b0, b1) = (b.ts, b.ts + b.dur);
            let disjoint = a1 <= b0 || b1 <= a0;
            let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
            assert!(
                disjoint || nested,
                "spans {} and {} partially overlap on pid {} tid {}",
                a.name,
                b.name,
                a.pid,
                a.tid
            );
        }
    }

    // Specific nesting: each hop sits inside its thread's sample span, and
    // every wall span sits inside [epoch start, epoch end].
    let epoch = spans.iter().find(|s| s.name == "epoch").unwrap();
    for s in spans.iter().filter(|s| s.pid == WALL_PID) {
        if s.tid == epoch.tid && !std::ptr::eq(s, epoch) {
            assert!(
                s.ts >= epoch.ts && s.ts + s.dur <= epoch.ts + epoch.dur,
                "{} escapes the enclosing epoch span",
                s.name
            );
        }
    }
    for hop in spans.iter().filter(|s| s.name == "sample.hop") {
        let parent = spans
            .iter()
            .find(|s| s.name == "pipeline.stage.sample" && s.tid == hop.tid)
            .expect("hop has a sampler parent on its thread");
        assert!(
            hop.ts >= parent.ts && hop.ts + hop.dur <= parent.ts + parent.dur,
            "hop escapes its sampler span"
        );
    }

    // The simulated breakdown bridged onto the sim track: phases lie back
    // to back inside the enclosing label.
    let label = spans
        .iter()
        .find(|s| s.pid == SIM_PID && s.name == "epoch 0")
        .expect("sim label span");
    assert_eq!(label.dur, 3.5, "3500 ns = 3.5 us");
    let mut phases: Vec<&Span> = spans
        .iter()
        .filter(|s| s.pid == SIM_PID && s.name != "epoch 0")
        .collect();
    phases.sort_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap());
    let names: Vec<&str> = phases.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["sample", "io", "compute"]);
    let mut cursor = label.ts;
    for p in &phases {
        assert_eq!(p.ts, cursor, "sim phases are gap-free");
        cursor += p.dur;
    }
    assert_eq!(cursor, label.ts + label.dur);
}
