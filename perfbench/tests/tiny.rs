//! Every workload, in both modes, on tiny inputs: the run completes,
//! every output check passes, nothing fails, and the metrics printed are
//! exactly the ones `BENCHMARK.json` lists.

use perfbench::{crosses, run, Mode, Size, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, mode: Mode) {
    let report = run(workload, 7, 0.5, mode, Size::Tiny);
    assert!(
        report.errors.is_empty(),
        "{workload:?} {mode:?}: {:?}",
        report.errors
    );
    assert!(report.correct);
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "{workload:?} {mode:?}");
    let listed: Vec<&str> = match mode {
        Mode::Untraced => END_TO_END.iter().map(|m| m.0).collect(),
        Mode::Traced => PER_LAYER.iter().map(|m| m.0).collect(),
    };
    let printed: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(printed, listed);
    if mode == Mode::Traced {
        // A layer the workload never crosses reads 0; nothing else is
        // filled in.
        for m in report.metrics.iter().filter(|m| !crosses(workload, m.name)) {
            assert_eq!(m.value, 0.0, "{workload:?} {}", m.name);
        }
    }
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{workload:?} {}: {}", m.name, m.value);
        if mode == Mode::Untraced {
            assert!(m.value > 0.0, "{workload:?} {} reads {}", m.name, m.value);
        }
    }
    let line = report.to_json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn scan_untraced() {
    tiny(Workload::Scan, Mode::Untraced);
}

#[test]
fn scan_traced() {
    tiny(Workload::Scan, Mode::Traced);
}

#[test]
fn sweep_untraced() {
    tiny(Workload::Sweep, Mode::Untraced);
}

#[test]
fn sweep_traced() {
    let report = run(Workload::Sweep, 7, 0.5, Mode::Traced, Size::Tiny);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    // The range tier answers part of the sweep, and only on this workload.
    assert!(report.get("cache.range.hits").unwrap() > 0.0);
    assert!(report.get("cache.range.lookup_ns").unwrap() > 0.0);
    assert!(report.get("scanner.sweep_s").unwrap() > 0.0);
}

#[test]
fn serve_untraced() {
    tiny(Workload::Serve, Mode::Untraced);
}

#[test]
fn serve_traced() {
    tiny(Workload::Serve, Mode::Traced);
    let report = run(Workload::Serve, 8, 0.5, Mode::Traced, Size::Tiny);
    // The TC=1 path ran and every retry was answered over TCP.
    assert!(report.get("server.udp_truncated").unwrap() > 0.0);
    assert!(report.get("server.tcp_responses").unwrap() > 0.0);
    assert!(report.get("tcp.tc_retry_p50_us").unwrap() > 0.0);
    assert!(report.get("pipeline.answer_ns").unwrap() > 0.0);
}

/// `BENCHMARK.json` names the metrics this crate prints, in its order.
#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = spec
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap())
        .collect();
    let listed: Vec<&str> = ["scan", "sweep", "serve"]
        .into_iter()
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    assert_eq!(names, listed);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "{name} must have unit {unit}");
    }
}
