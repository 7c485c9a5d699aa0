//! The repository's benchmark: three workloads — the §4.2 `scan`, the
//! RFC 8198 denial `sweep`, and the `serve` front end — each measured
//! end to end (untraced) or layer by layer (traced).
//!
//! The benchmark drives the program only through the public functions
//! of its crates, and checks every run's outputs against expectations
//! of its own (§4.2's category → outcome table, Table 4's Cloudflare
//! column).

pub mod loadgen;
pub mod report;
pub mod scanwork;
pub mod serve;
pub mod stats;
pub mod sys;

use report::Report;

/// Which set of metrics a run produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, no per-call timing.
    Untraced,
    /// Per-layer metrics from a traced, single-threaded replay.
    Traced,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §4.2 scan at 1:1000.
    Scan,
    /// The scan at 1:2000 with denial synthesis and a nonexistent sweep.
    Sweep,
    /// The serving front end under open-loop load.
    Serve,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan" => Some(Workload::Scan),
            "sweep" => Some(Workload::Sweep),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }
}

/// End-to-end metrics: name and unit. Every untraced run prints each.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("upstream_per_op", "count"),
    ("peak_rss_mb", "MiB"),
    ("p50_us", "us"),
];

/// Per-layer metrics: name and unit. Every traced run prints each; a
/// layer the workload never crosses by design (see [`crosses`]) reads 0,
/// and one it crosses must have been measured.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("population.generate_s", "s"),
    ("world.build_s", "s"),
    ("testbed.build_s", "s"),
    ("server.spawn_s", "s"),
    ("scanner.pass1_s", "s"),
    ("scanner.pass2_s", "s"),
    ("scanner.sweep_s", "s"),
    ("scanner.unexplained_s", "s"),
    ("resolver.resolve_ns", "ns"),
    ("resolver.resolve_p99_ns", "ns"),
    ("resolver.queries_per_resolution", "count"),
    ("validate.steps_per_resolution", "count"),
    ("crypto.simsig_verify_ns", "ns"),
    ("crypto.nsec3_hash_ns", "ns"),
    ("cache.l1.probes", "count"),
    ("cache.l1.hits", "count"),
    ("cache.l2.probes", "count"),
    ("cache.l2.hits", "count"),
    ("cache.l2.puts", "count"),
    ("cache.l2.occupancy_peak", "count"),
    ("cache.l2.get_ns", "ns"),
    ("cache.l2.put_ns", "ns"),
    ("cache.infra.referral_probes", "count"),
    ("cache.infra.referral_hits", "count"),
    ("cache.infra.key_hits", "count"),
    ("cache.range.probes", "count"),
    ("cache.range.hits", "count"),
    ("cache.range.lookup_ns", "ns"),
    ("netsim.queries_per_resolution", "count"),
    ("netsim.query_ns", "ns"),
    ("authority.answers_per_resolution", "count"),
    ("aggregate.fold_ns", "ns"),
    ("stream.merge_ns", "ns"),
    ("querylog.push_ns", "ns"),
    ("querylog.peak", "count"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("pipeline.classify_ns", "ns"),
    ("pipeline.answer_ns", "ns"),
    ("pipeline.encode_udp_ns", "ns"),
    ("server.udp_truncated", "count"),
    ("server.tcp_responses", "count"),
    ("tcp.connect_us", "us"),
    ("tcp.exchange_us", "us"),
    ("tcp.tc_retry_p50_us", "us"),
    ("loadgen.lateness_p99_us", "us"),
    ("loadgen.capacity_qps", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics of layers only the scan-type workloads cross.
const SCAN_LAYERS: [&str; 7] = [
    "population.",
    "world.",
    "scanner.",
    "aggregate.",
    "stream.",
    "querylog.",
    "trace.",
];

/// Per-layer metrics of layers only `serve` crosses.
const SERVE_LAYERS: [&str; 6] = [
    "testbed.",
    "server.",
    "wire.",
    "pipeline.",
    "tcp.",
    "loadgen.",
];

/// Per-layer metrics only `sweep` produces: the sweep itself and the
/// range tier's reads (`scan` runs with synthesis off, and no `serve`
/// answer is a denial the range tier could cover).
const SWEEP_ONLY: [&str; 2] = ["scanner.sweep_s", "cache.range.lookup_ns"];

/// Whether `workload` crosses the layer of per-layer `metric`: the
/// traced run must then measure it. The resolver, its caches, `netsim`,
/// `authority`, validation and the crypto primitives are crossed by
/// every workload.
pub fn crosses(workload: Workload, metric: &str) -> bool {
    let under = |prefixes: &[&str]| prefixes.iter().any(|p| metric.starts_with(p));
    if SWEEP_ONLY.contains(&metric) {
        return workload == Workload::Sweep;
    }
    if under(&SCAN_LAYERS) {
        return workload != Workload::Serve;
    }
    if under(&SERVE_LAYERS) {
        return workload == Workload::Serve;
    }
    true
}

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's inputs.
    Full,
    /// Small inputs for the benchmark's own tests.
    Tiny,
}

/// Run one workload and return its report, holding exactly the metrics
/// of its mode in the order of [`END_TO_END`] or [`PER_LAYER`].
pub fn run(workload: Workload, seed: u64, seconds: f64, mode: Mode, size: Size) -> Report {
    let tiny = size == Size::Tiny;
    let raw = match workload {
        Workload::Scan | Workload::Sweep => {
            let params = if workload == Workload::Scan {
                scanwork::ScanParams::scan()
            } else {
                scanwork::ScanParams::sweep()
            };
            let params = if tiny { params.tiny() } else { params };
            scanwork::run(&params, seed, seconds, mode)
        }
        Workload::Serve => {
            let params = if tiny {
                serve::ServeParams::tiny()
            } else {
                serve::ServeParams::serve()
            };
            serve::run(&params, seed, seconds, mode)
        }
    };
    complete(workload, mode, raw)
}

/// Put a run's measurements in the listed order. A metric the workload
/// must measure and did not, or measured as a non-finite value, fails
/// the run; only a per-layer metric of a layer the workload never
/// crosses is printed as 0.
pub fn complete(workload: Workload, mode: Mode, raw: Report) -> Report {
    let names: &[(&'static str, &'static str)] = match mode {
        Mode::Untraced => &END_TO_END,
        Mode::Traced => &PER_LAYER,
    };
    let mut report = Report {
        metrics: Vec::new(),
        ..raw.clone()
    };
    for &(name, unit) in names {
        let value = raw.get(name);
        let required = mode == Mode::Untraced || crosses(workload, name);
        report.check(value.is_some() == required, || {
            if required {
                format!("{name} was not measured")
            } else {
                format!("{name} was measured on a workload that never crosses its layer")
            }
        });
        report.check(value.is_none_or(f64::is_finite), || {
            format!("{name} measured as {value:?}")
        });
        report.put(name, value.unwrap_or(0.0), unit);
    }
    for m in &raw.metrics {
        report.check(names.iter().any(|&(n, _)| n == m.name), || {
            format!("metric {} is not listed", m.name)
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(names: &[&'static str]) -> Report {
        let mut r = Report {
            correct: true,
            attempted: 1,
            ..Default::default()
        };
        for &n in names {
            r.put(n, 1.0, "count");
        }
        r
    }

    fn crossed(w: Workload) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|m| m.0)
            .filter(|n| crosses(w, n))
            .collect()
    }

    #[test]
    fn every_layer_is_crossed_by_some_workload() {
        for (name, _) in PER_LAYER {
            assert!(
                [Workload::Scan, Workload::Sweep, Workload::Serve]
                    .into_iter()
                    .any(|w| crosses(w, name)),
                "{name}"
            );
        }
        assert!(crosses(Workload::Serve, "tcp.exchange_us"));
        assert!(!crosses(Workload::Scan, "tcp.exchange_us"));
        assert!(crosses(Workload::Sweep, "cache.range.lookup_ns"));
        assert!(!crosses(Workload::Scan, "cache.range.lookup_ns"));
        assert!(!crosses(Workload::Scan, "scanner.sweep_s"));
        assert!(crosses(Workload::Scan, "cache.range.hits"));
    }

    #[test]
    fn a_crossed_layer_left_unmeasured_fails_the_run() {
        let mut names = crossed(Workload::Serve);
        let report = complete(Workload::Serve, Mode::Traced, raw(&names));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.get("scanner.pass1_s"), Some(0.0));

        names.retain(|&n| n != "tcp.exchange_us");
        let report = complete(Workload::Serve, Mode::Traced, raw(&names));
        assert_eq!(report.errors, vec!["tcp.exchange_us was not measured"]);
        assert!(report.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn an_uncrossed_layer_or_a_non_finite_value_fails_the_run() {
        let mut names = crossed(Workload::Scan);
        names.push("tcp.connect_us");
        let report = complete(Workload::Scan, Mode::Traced, raw(&names));
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);

        let mut r = raw(&END_TO_END.map(|m| m.0));
        r.metrics[1].value = f64::NAN;
        let report = complete(Workload::Scan, Mode::Untraced, r);
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    }
}
