//! The `scan` and `sweep` workloads: the §4.2 scan through
//! `scanner::scan`, and its traced replay through the same public
//! `Resolver` entries the scanner uses.

use crate::report::Report;
use crate::stats::{median, quantile_sorted, sorted, Summary};
use crate::sys::{peak_rss_mib, pin_to_cpu};
use crate::Mode;
use ede_crypto::{nsec3hash, simsig};
use ede_resolver::{
    Cache, CacheHit, CachedResolution, L1Cache, L1StatsSnapshot, Resolution, Resolver, Vendor,
    VendorProfile,
};
use ede_scan::aggregate::PartialAggregate;
use ede_scan::querylog::{QueryLog, QueryRecord};
use ede_scan::scanner::{self, ScanConfig, ScanResult};
use ede_scan::{Category, Population, PopulationConfig, ScanWorld};
use ede_trace::Metrics;
use ede_wire::{Message, Name, Rcode, RrType};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one scan-type workload runs.
#[derive(Debug, Clone)]
pub struct ScanParams {
    /// Population scale divisor (1000 → 303 104 domains).
    pub scale: u32,
    /// Use the small test population instead of a scaled one.
    pub tiny: bool,
    /// RFC 8198 denial synthesis.
    pub synthesize: bool,
    /// Nonexistent sweep probes per registered domain (0: no sweep).
    pub sweep_ratio: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Timed resolutions in each half of the latency sample (about).
    pub latency_samples: usize,
}

impl ScanParams {
    /// The §4.2 scan at 1:1000, synthesis off.
    pub fn scan() -> ScanParams {
        ScanParams {
            scale: 1000,
            tiny: false,
            synthesize: false,
            sweep_ratio: 0.0,
            setup_reps: 3,
            // Every second domain: the sample then spans seconds of the
            // run, not one, so a passing state of the shared host does
            // not set the median.
            latency_samples: 160_000,
        }
    }

    /// The same scan at 1:2000 with synthesis on and a 1.5× sweep.
    pub fn sweep() -> ScanParams {
        ScanParams {
            scale: 2000,
            synthesize: true,
            sweep_ratio: 1.5,
            setup_reps: 5,
            ..ScanParams::scan()
        }
    }

    /// The same workload on the small test population.
    pub fn tiny(self) -> ScanParams {
        ScanParams {
            tiny: true,
            setup_reps: 2,
            latency_samples: 1200,
            ..self
        }
    }

    fn population_config(&self, seed: u64) -> PopulationConfig {
        let base = if self.tiny {
            PopulationConfig::tiny()
        } else {
            PopulationConfig {
                scale: self.scale,
                ..Default::default()
            }
        };
        PopulationConfig { seed, ..base }
    }

    fn scan_config(&self) -> ScanConfig {
        ScanConfig::builder()
            .workers(1)
            .inflight(1)
            .progress(false)
            .vendor(Vendor::Cloudflare)
            .synthesize(self.synthesize)
            .sweep_ratio(self.sweep_ratio)
            .build()
    }

    /// A resolver configured exactly as `scanner::scan` configures its
    /// own for this workload.
    fn resolver(&self, world: &ScanWorld) -> Resolver {
        let mut config = world.resolver_config.clone();
        config.synthesize_denial = self.synthesize;
        Resolver::new(
            Arc::clone(&world.net),
            VendorProfile::new(Vendor::Cloudflare),
            config,
        )
    }
}

/// §4.2's outcome for each planted root cause, as the Cloudflare
/// profile reports it: final RCODE and EDE INFO-CODEs (as a set). This
/// table is the benchmark's own; the scan's counts are checked against
/// it, never against the program's own tallies.
pub fn expected_outcome(category: Category) -> (Rcode, &'static [u16]) {
    use Category::*;
    match category {
        HealthyUnsigned | HealthySigned => (Rcode::NoError, &[]),
        LameRcode => (Rcode::ServFail, &[22, 23]),
        LameSilent => (Rcode::ServFail, &[22]),
        PartialBroken => (Rcode::NoError, &[23]),
        StandbyTldMember => (Rcode::NoError, &[10]),
        DsMismatch => (Rcode::ServFail, &[9]),
        UnreachableSigned => (Rcode::ServFail, &[9, 22, 23]),
        BrokenDenial => (Rcode::ServFail, &[6]),
        NoEdns => (Rcode::ServFail, &[22, 24]),
        UnsupportedAlgGost | UnsupportedAlgDsa | SmallKey => (Rcode::NoError, &[1]),
        SigExpired => (Rcode::ServFail, &[7]),
        InsecureProofBroken => (Rcode::ServFail, &[12]),
        GostDigest | UnassignedDigest => (Rcode::NoError, &[2]),
        StaleFlapRefuse => (Rcode::NoError, &[3, 22, 23]),
        StaleFlapDrop => (Rcode::NoError, &[3, 22]),
        SigNotYetValid => (Rcode::ServFail, &[8]),
        NotAuthCached => (Rcode::ServFail, &[13, 22, 23]),
        IterationLimit => (Rcode::ServFail, &[0]),
    }
}

/// Codes as a sorted set, for comparisons against the table.
fn code_set(codes: &[u16]) -> Vec<u16> {
    let mut c = codes.to_vec();
    c.sort_unstable();
    c.dedup();
    c
}

/// Check a finished scan against the population through the table:
/// domains scanned, per-INFO-CODE domain counts, SERVFAIL count, and
/// (for a sweep) that every probe was made.
fn check_scan(report: &mut Report, pop: &Population, result: &ScanResult, params: &ScanParams) {
    let mut per_code: BTreeMap<u16, usize> = BTreeMap::new();
    let mut servfail = 0;
    for d in &pop.domains {
        let (rcode, codes) = expected_outcome(d.category);
        servfail += usize::from(rcode == Rcode::ServFail);
        for &c in codes {
            *per_code.entry(c).or_insert(0) += 1;
        }
    }
    let ede = &result.stats.ede;
    report.check(ede.total_domains == pop.domains.len(), || {
        format!(
            "scanned {} domains, population has {}",
            ede.total_domains,
            pop.domains.len()
        )
    });
    report.check(ede.per_code == per_code, || {
        format!(
            "per-INFO-CODE counts {:?}, §4.2 table gives {:?}",
            ede.per_code, per_code
        )
    });
    report.check(ede.servfail_domains == servfail, || {
        format!(
            "{} SERVFAIL domains, §4.2 table gives {servfail}",
            ede.servfail_domains
        )
    });
    if params.sweep_ratio > 0.0 {
        let probes = sweep_probes(pop, params.sweep_ratio).len();
        let sweep = result.sweep.as_ref();
        report.check(sweep.map(|s| s.probes) == Some(probes), || {
            format!(
                "sweep made {:?} probes, expected {probes}",
                sweep.map(|s| s.probes)
            )
        });
        // The range tier must answer part of the sweep: without it the
        // workload no longer measures what it is for.
        report.check(sweep.is_some_and(|s| s.synthesized > 0), || {
            "the range tier answered no sweep probe".into()
        });
    }
}

/// RFC 8198 synthesis and the sweep must leave every domain's outcome
/// as a plain scan finds it: on a synthesizing workload, scan a fresh
/// world of the same population with synthesis off and no sweep, and
/// require the `fingerprint` the synthesizing scan gave.
fn check_synthesis_neutral(
    report: &mut Report,
    params: &ScanParams,
    pop: &Population,
    fingerprint: u64,
) {
    if !params.synthesize {
        return;
    }
    let plain = ScanParams {
        synthesize: false,
        sweep_ratio: 0.0,
        ..params.clone()
    };
    let world = ScanWorld::build(pop);
    let result = scanner::scan(pop, &world, &plain.scan_config());
    report.attempted += pop.domains.len() as u64;
    let off = result.stats.fingerprint;
    eprintln!("scan with synthesis off: fingerprint {off:016x}");
    report.check(off == fingerprint, || {
        format!("fingerprint {fingerprint:016x} with synthesis on, {off:016x} with it off")
    });
}

/// The scanner's nonexistent sweep probes, rebuilt from the
/// population: per TLD, `ceil(children × ratio)` names `zzq{j}-sweep`
/// one label below the TLD apex.
pub fn sweep_probes(pop: &Population, ratio: f64) -> Vec<(usize, Name)> {
    let mut per_tld = vec![0usize; pop.tlds.len()];
    for d in &pop.domains {
        per_tld[d.tld] += 1;
    }
    let mut probes = Vec::new();
    for (t, tld) in pop.tlds.iter().enumerate() {
        let n = (per_tld[t] as f64 * ratio).ceil() as usize;
        for j in 0..n {
            let label = format!("zzq{j}-sweep");
            probes.push((t, tld.name.child(&label).expect("probe label fits")));
        }
    }
    probes
}

/// A sweep probe names nothing, so it answers NXDOMAIN — carrying the
/// code of its TLD's planted fault where there is one: EDE 10 (RRSIGs
/// Missing) under a TLD publishing a stand-by key, as its registered
/// members get; SERVFAIL with EDE 6 (DNSSEC Bogus) under a TLD whose
/// denial of existence is broken, where no NXDOMAIN can validate.
fn probe_ok(pop: &Population, tld: usize, res: &Resolution) -> bool {
    let tld = &pop.tlds[tld];
    let (rcode, codes): (Rcode, &[u16]) = if tld.broken_insecure_proof {
        (Rcode::ServFail, &[6])
    } else if tld.standby_key {
        (Rcode::NxDomain, &[10])
    } else {
        (Rcode::NxDomain, &[])
    };
    res.rcode == rcode && res.ede_codes() == codes
}

/// One timed set-up: population generation, then world build.
fn set_up(params: &ScanParams, seed: u64) -> (Population, ScanWorld, Duration, Duration) {
    let t = Instant::now();
    let pop = Population::generate(params.population_config(seed));
    let generate = t.elapsed();
    let t = Instant::now();
    let world = ScanWorld::build(&pop);
    (pop, world, generate, t.elapsed())
}

/// Per-resolution wall latency on a fresh world: every `k`-th
/// registered domain (from an offset set by the seed and `half`, about
/// `latency_samples` in all), resolved as pass 1 resolves it, through `Resolver::resolve_l1`
/// (the scanner's blocking worker entry) and timed around that call.
/// On `sweep` the resolver synthesizes, so the sample includes the
/// range tier's writes; its reads show in `throughput_per_s` and in the
/// traced `cache.range.lookup_ns`. Checks every answer against the §4.2
/// table.
fn latency_sample(
    report: &mut Report,
    params: &ScanParams,
    pop: &Population,
    world: &ScanWorld,
    seed: u64,
    half: u64,
) -> Vec<f64> {
    let k = pop
        .domains
        .len()
        .div_ceil(params.latency_samples.max(1))
        .max(1);
    let offset = ((seed + half) % k as u64) as usize;
    let resolver = params.resolver(world);
    for tld in &pop.tlds {
        let _ = resolver.resolve(&tld.name, RrType::Ns);
    }
    let l1 = L1Cache::new();
    let mut lat = Vec::new();
    for d in pop.domains.iter().skip(offset).step_by(k) {
        let t = Instant::now();
        let res = resolver.resolve_l1(&d.name, RrType::A, &l1);
        lat.push(t.elapsed().as_nanos() as f64 / 1e3);
        if !d.category.needs_revisit() {
            let (rcode, codes) = expected_outcome(d.category);
            report.check(
                res.rcode == rcode && code_set(&res.ede_codes()) == codes,
                || {
                    format!(
                        "{}: {:?} {:?}, expected {rcode:?} {codes:?}",
                        d.name,
                        res.rcode,
                        res.ede_codes()
                    )
                },
            );
        }
    }
    report.attempted += lat.len() as u64;
    lat
}

/// Run one scan-type workload.
pub fn run(params: &ScanParams, seed: u64, seconds: f64, mode: Mode) -> Report {
    let mut report = Report {
        correct: true,
        ..Default::default()
    };
    // One CPU for the run's threads (the scan runs one worker): the same
    // placement on every run.
    pin_to_cpu(0);
    match mode {
        Mode::Untraced => untraced(&mut report, params, seed, seconds),
        Mode::Traced => traced(&mut report, params, seed),
    }
    report
}

fn untraced(report: &mut Report, params: &ScanParams, seed: u64, seconds: f64) {
    // The latency sample is taken in two halves, on two worlds, at the
    // start and at the end of the run: one half, taken at one moment on
    // one world's memory, moved its median by a quarter between runs of
    // the same code as the shared host's memory speed changed.
    let (pop, world, g, b) = set_up(params, seed);
    let mut setup = vec![(g + b).as_secs_f64()];
    let mut lat = latency_sample(report, params, &pop, &world, seed, 0);
    drop((pop, world));

    let mut current = None;
    for _ in 1..params.setup_reps.max(2) {
        // Drop the previous world before building the next, so peak
        // memory is that of one world.
        drop(current.take());
        let (pop, world, g, b) = set_up(params, seed);
        setup.push((g + b).as_secs_f64());
        current = Some((pop, world));
    }
    let (mut pop, mut world) = current.expect("at least one set-up");

    let cfg = params.scan_config();
    let mut rates = Vec::new();
    let mut qpd = Vec::new();
    let mut fingerprints = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let result = scanner::scan(&pop, &world, &cfg);
        let wall = t.elapsed().as_secs_f64();
        rates.push(pop.domains.len() as f64 / wall);
        qpd.push(result.queries_per_domain());
        fingerprints.push(result.stats.fingerprint);
        report.attempted += pop.domains.len() as u64;
        check_scan(report, &pop, &result, params);
        eprintln!(
            "scan: {} domains in {wall:.3} s ({:.0}/s), {:.4} queries/domain, fingerprint {:016x}",
            pop.domains.len(),
            rates[rates.len() - 1],
            qpd[qpd.len() - 1],
            result.stats.fingerprint
        );
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        // A fresh world per scan: flap state and the virtual clock are
        // part of what a scan consumes.
        drop(result);
        drop(world);
        let (p, w, g, b) = set_up(params, seed);
        setup.push((g + b).as_secs_f64());
        (pop, world) = (p, w);
    }
    drop((pop, world));
    let (pop, world, g, b) = set_up(params, seed);
    setup.push((g + b).as_secs_f64());
    lat.extend(latency_sample(report, params, &pop, &world, seed, 1));
    drop(world);
    // The measured part ends here: the check below builds a world of
    // its own, which is not the workload's memory.
    let peak_rss = peak_rss_mib();
    // Every scan of the run saw the same population; one synthesis-off
    // scan checks them all.
    report.check(fingerprints.iter().all(|&f| f == fingerprints[0]), || {
        format!("scans of one population gave fingerprints {fingerprints:016x?}")
    });
    check_synthesis_neutral(report, params, &pop, fingerprints[0]);

    let summary = Summary::of(&lat);
    eprintln!(
        "resolution latency: {}, p90 {:.1} us",
        summary.describe("us"),
        quantile_sorted(&sorted(&lat), 0.9)
    );
    report.put("setup_s", median(&setup), "s");
    report.put("throughput_per_s", median(&rates), "1/s");
    report.put("upstream_per_op", median(&qpd), "count");
    report.put("peak_rss_mb", peak_rss, "MiB");
    report.put("p50_us", summary.median, "us");
}

/// Claim chunk of the scanner's workers: one query-log push and one
/// aggregate merge per chunk.
const CHUNK: usize = 16;

/// Domains at the start of pass 1 whose upstream queries are captured
/// for the `netsim` replay.
const CAPTURE_DOMAINS: usize = 256;

/// Resolutions kept for the L2 get/put timing.
const KEEP_RESOLUTIONS: usize = 4096;

/// Names timed through the crypto primitives.
const CRYPTO_NAMES: usize = 2000;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// What the traced replay measured.
#[derive(Default)]
struct Replay {
    prime_s: f64,
    pass_s: [f64; 2],
    sweep_s: f64,
    resolve_ns: Vec<f64>,
    fold_ns: Vec<f64>,
    push_ns: Vec<f64>,
    merge_ns: Vec<f64>,
    range_lookup_ns: Vec<f64>,
    resolutions: u64,
    l1: L1StatsSnapshot,
    captured: Vec<ede_netsim::CapturedQuery>,
    kept: Vec<(Name, Resolution)>,
}

/// The scanner's record for one finished resolution.
fn record(pop: &Population, idx: usize, res: &Resolution, pass: u8, vtime_ms: u64) -> QueryRecord {
    let d = &pop.domains[idx];
    QueryRecord {
        seq: 0,
        vtime_ms,
        pass,
        domain: idx,
        name: d.name.to_string(),
        tld: d.tld,
        rank: d.rank,
        category: d.category,
        vendor: Vendor::Cloudflare,
        rcode: res.rcode,
        codes: res.ede_codes(),
        network_error_text: res
            .ede
            .iter()
            .find(|e| e.code.to_u16() == 23)
            .map(|e| e.extra_text.clone()),
    }
}

/// One replayed pass, as the scanner's blocking worker runs it: a fresh
/// L1 tier, chunks of [`CHUNK`] domains, each resolved through
/// `Resolver::resolve_l1`, folded into a chunk aggregate, pushed to the
/// query log, and merged into the running total.
#[allow(clippy::too_many_arguments)]
fn replay_pass(
    rp: &mut Replay,
    resolver: &Resolver,
    world: &ScanWorld,
    pop: &Population,
    indices: &[usize],
    pass: u8,
    log: &QueryLog,
    total: &mut PartialAggregate,
) {
    let l1 = L1Cache::new();
    let capture_chunks = if pass == 1 {
        CAPTURE_DOMAINS / CHUNK
    } else {
        0
    };
    if capture_chunks > 0 {
        world.net.start_capture();
    }
    for (c, chunk) in indices.chunks(CHUNK).enumerate() {
        if c == capture_chunks && capture_chunks > 0 {
            rp.captured = world.net.take_capture();
        }
        let mut records = Vec::with_capacity(chunk.len());
        let mut agg = PartialAggregate::default();
        for &i in chunk {
            let name = &pop.domains[i].name;
            let t = Instant::now();
            let res = resolver.resolve_l1(name, RrType::A, &l1);
            rp.resolve_ns.push(ns_since(t));
            let rec = record(pop, i, &res, pass, world.net.clock().now_millis());
            if pass == 2 || !pop.domains[i].category.needs_revisit() {
                let t = Instant::now();
                agg.fold(&rec);
                rp.fold_ns.push(ns_since(t));
            }
            if rp.kept.len() < KEEP_RESOLUTIONS {
                rp.kept.push((name.clone(), res));
            }
            records.push(rec);
        }
        let t = Instant::now();
        log.push_batch(records);
        rp.push_ns.push(ns_since(t));
        let t = Instant::now();
        total.merge(agg);
        rp.merge_ns.push(ns_since(t));
    }
    let stats = l1.stats();
    rp.l1.merge(&stats);
    rp.resolutions += indices.len() as u64;
}

/// Replay the whole scan on a fresh world through the public resolver
/// entries, timing every call into a layer. Returns the replay's
/// fingerprint with its measurements and the resolver's counters.
fn replay(
    report: &mut Report,
    params: &ScanParams,
    pop: &Population,
    world: &ScanWorld,
) -> (Replay, u64, Resolver, usize) {
    let mut rp = Replay::default();
    let resolver = params.resolver(world);
    let log = QueryLog::new(ScanConfig::default().query_log_capacity, None)
        .expect("a log without a spill file cannot fail");
    let mut total = PartialAggregate::default();

    let t = Instant::now();
    for tld in &pop.tlds {
        let _ = resolver.resolve(&tld.name, RrType::Ns);
    }
    rp.prime_s = t.elapsed().as_secs_f64();
    rp.resolutions += pop.tlds.len() as u64;

    let first: Vec<usize> = (0..pop.domains.len()).collect();
    let t = Instant::now();
    replay_pass(&mut rp, &resolver, world, pop, &first, 1, &log, &mut total);
    rp.pass_s[0] = t.elapsed().as_secs_f64();

    world.net.clock().advance_secs(120);
    let revisit: Vec<usize> = first
        .into_iter()
        .filter(|&i| pop.domains[i].category.needs_revisit())
        .collect();
    let t = Instant::now();
    replay_pass(
        &mut rp, &resolver, world, pop, &revisit, 2, &log, &mut total,
    );
    rp.pass_s[1] = t.elapsed().as_secs_f64();

    if params.sweep_ratio > 0.0 {
        resolver.freeze_ranges(true);
        let probes = sweep_probes(pop, params.sweep_ratio);
        let mut not_nx = 0;
        let t = Instant::now();
        for (t, probe) in &probes {
            let hits = resolver.range_stats().hits;
            let start = Instant::now();
            let res = resolver.resolve(probe, RrType::A);
            let dt = ns_since(start);
            rp.resolve_ns.push(dt);
            if resolver.range_stats().hits > hits {
                rp.range_lookup_ns.push(dt);
            }
            not_nx += usize::from(!probe_ok(pop, *t, &res));
        }
        rp.sweep_s = t.elapsed().as_secs_f64();
        rp.resolutions += probes.len() as u64;
        report.attempted += probes.len() as u64;
        report.check(not_nx == 0, || {
            format!(
                "{not_nx} of {} sweep probes answered other than expected",
                probes.len()
            )
        });
    }
    let peak = log.stats().peak;
    (rp, total.fingerprint(), resolver, peak)
}

fn traced(report: &mut Report, params: &ScanParams, seed: u64) {
    let mut generate_s = Vec::new();
    let mut build_s = Vec::new();
    let mut current = None;
    for _ in 0..params.setup_reps.max(1) {
        drop(current.take());
        let (pop, world, g, b) = set_up(params, seed);
        generate_s.push(g.as_secs_f64());
        build_s.push(b.as_secs_f64());
        current = Some((pop, world));
    }
    let (pop, world) = current.expect("at least one set-up");

    // The untraced reference: the scanner's own wall time and
    // fingerprint, which the replay must reproduce.
    let t = Instant::now();
    let result = scanner::scan(&pop, &world, &params.scan_config());
    let wall = t.elapsed().as_secs_f64();
    check_scan(report, &pop, &result, params);
    report.attempted += pop.domains.len() as u64;
    let fingerprint = result.stats.fingerprint;
    drop(result);
    drop(world);
    check_synthesis_neutral(report, params, &pop, fingerprint);

    let world = ScanWorld::build(&pop);
    let metrics = Arc::new(Metrics::new());
    world
        .net
        .set_trace_sink(Arc::clone(&metrics) as Arc<dyn ede_trace::TraceSink>);
    let (rp, replay_fp, resolver, log_peak) = replay(report, params, &pop, &world);
    world.net.clear_trace_sink();
    report.attempted += pop.domains.len() as u64;
    report.check(replay_fp == fingerprint, || {
        format!("replay fingerprint {replay_fp:016x}, scanner::scan gave {fingerprint:016x}")
    });
    let m = metrics.snapshot();
    let traffic = world.net.stats().snapshot_full();

    let sum = |v: &[f64]| v.iter().sum::<f64>() / 1e9;
    let layer_s =
        rp.prime_s + sum(&rp.resolve_ns) + sum(&rp.fold_ns) + sum(&rp.push_ns) + sum(&rp.merge_ns);
    let replay_s = rp.prime_s + rp.pass_s[0] + rp.pass_s[1] + rp.sweep_s;
    eprintln!(
        "trace: untraced scan {wall:.3} s, traced replay {replay_s:.3} s ({:+.1}% tracing overhead); \
         layer time {layer_s:.3} s = {:.1}% of the untraced wall, unexplained {:.3} s",
        100.0 * (replay_s / wall - 1.0),
        100.0 * layer_s / wall,
        wall - layer_s
    );
    let resolve = Summary::of(&rp.resolve_ns);
    eprintln!("trace: resolver {}", resolve.describe("ns"));
    let per_res = |n: u64| n as f64 / rp.resolutions as f64;

    report.put("population.generate_s", median(&generate_s), "s");
    report.put("world.build_s", median(&build_s), "s");
    report.put("scanner.pass1_s", rp.pass_s[0], "s");
    report.put("scanner.pass2_s", rp.pass_s[1], "s");
    if params.sweep_ratio > 0.0 {
        report.put("scanner.sweep_s", rp.sweep_s, "s");
    }
    report.put("scanner.unexplained_s", wall - layer_s, "s");
    report.put("trace.overhead_pct", 100.0 * (replay_s / wall - 1.0), "%");
    report.put("resolver.resolve_ns", resolve.median, "ns");
    report.put(
        "resolver.resolve_p99_ns",
        quantile_sorted(&sorted(&rp.resolve_ns), 0.99),
        "ns",
    );
    report.put(
        "resolver.queries_per_resolution",
        per_res(m.queries_sent),
        "count",
    );
    report.put(
        "validate.steps_per_resolution",
        per_res(m.validation_steps),
        "count",
    );
    // `ScanWorld` offers no hook for a trace sink on its authoritative
    // servers, so their answers are counted where they arrive: the
    // network's delivered replies.
    report.put(
        "authority.answers_per_resolution",
        per_res(traffic.delivered),
        "count",
    );
    report.put(
        "netsim.queries_per_resolution",
        per_res(traffic.queries),
        "count",
    );

    let l2 = resolver.cache_stats();
    let infra = resolver.infra_stats();
    let range = resolver.range_stats();
    report.put(
        "cache.l1.probes",
        (rp.l1.hits + rp.l1.misses) as f64,
        "count",
    );
    report.put("cache.l1.hits", rp.l1.hits as f64, "count");
    report.put("cache.l2.probes", (l2.hits + l2.misses) as f64, "count");
    report.put("cache.l2.hits", l2.hits as f64, "count");
    report.put("cache.l2.puts", l2.puts as f64, "count");
    report.put("cache.l2.occupancy_peak", l2.occupancy_peak as f64, "count");
    report.put(
        "cache.infra.referral_probes",
        (infra.referral_hits + infra.referral_misses) as f64,
        "count",
    );
    report.put(
        "cache.infra.referral_hits",
        infra.referral_hits as f64,
        "count",
    );
    report.put("cache.infra.key_hits", infra.key_hits as f64, "count");
    report.put(
        "cache.range.probes",
        (range.hits + range.misses) as f64,
        "count",
    );
    report.put("cache.range.hits", range.hits as f64, "count");
    report.check(!params.synthesize || range.hits > 0, || {
        "the range tier answered no sweep probe in the replay".into()
    });
    if !rp.range_lookup_ns.is_empty() {
        report.put("cache.range.lookup_ns", median(&rp.range_lookup_ns), "ns");
    }
    report.put("aggregate.fold_ns", median(&rp.fold_ns), "ns");
    report.put("stream.merge_ns", median(&rp.merge_ns), "ns");
    report.put("querylog.push_ns", median(&rp.push_ns), "ns");
    report.put("querylog.peak", log_peak as f64, "count");

    let (get_ns, put_ns) = time_l2(&rp.kept, world.resolver_config.stale_window_secs);
    report.put("cache.l2.get_ns", get_ns, "ns");
    report.put("cache.l2.put_ns", put_ns, "ns");
    report.put(
        "netsim.query_ns",
        time_netsim(&world.net, &rp.captured, world.resolver_config.source_addr),
        "ns",
    );
    let names: Vec<&Name> = pop
        .domains
        .iter()
        .take(CRYPTO_NAMES)
        .map(|d| &d.name)
        .collect();
    let (verify_ns, hash_ns) = time_crypto(&names);
    report.put("crypto.simsig_verify_ns", verify_ns, "ns");
    report.put("crypto.nsec3_hash_ns", hash_ns, "ns");
}

/// Median `Cache::put` and `Cache::get` times on a fresh L2 store,
/// over resolutions this workload produced.
pub(crate) fn time_l2(kept: &[(Name, Resolution)], stale_window_secs: u32) -> (f64, f64) {
    let cache = Cache::new(stale_window_secs);
    let entries: Vec<(&Name, CachedResolution)> = kept
        .iter()
        .map(|(name, res)| {
            (
                name,
                CachedResolution {
                    rcode: res.rcode,
                    answers: res.answers.clone(),
                    diagnosis: res.diagnosis.clone(),
                    is_failure: res.rcode == Rcode::ServFail,
                },
            )
        })
        .collect();
    let mut put_ns = Vec::with_capacity(entries.len());
    for (name, data) in entries {
        let t = Instant::now();
        black_box(cache.put(name, RrType::A, data, 300, 0));
        put_ns.push(ns_since(t));
    }
    let mut get_ns = Vec::with_capacity(kept.len());
    for (name, _) in kept {
        let t = Instant::now();
        let hit = black_box(cache.get(name, RrType::A, 1));
        get_ns.push(ns_since(t));
        assert!(
            matches!(hit, CacheHit::Fresh(..)),
            "a just-stored entry must hit"
        );
    }
    (median(&get_ns), median(&put_ns))
}

/// Median time of replaying captured upstream queries through
/// `Network::query`.
pub(crate) fn time_netsim(
    net: &ede_netsim::Network,
    captured: &[ede_netsim::CapturedQuery],
    src: std::net::IpAddr,
) -> f64 {
    let queries: Vec<(std::net::IpAddr, Message)> = captured
        .iter()
        .enumerate()
        .filter_map(|(i, q)| {
            let name = Name::parse(&q.qname).ok()?;
            Some((
                q.dst,
                Message::iterative_query(i as u16, name, RrType::from_u16(q.qtype)),
            ))
        })
        .collect();
    let mut ns = Vec::with_capacity(queries.len());
    for (dst, msg) in &queries {
        let t = Instant::now();
        let _ = black_box(net.query(*dst, src, msg));
        ns.push(ns_since(t));
    }
    if ns.is_empty() {
        return f64::NAN;
    }
    median(&ns)
}

/// Median simulated-signature verification and NSEC3 hash times over
/// this workload's names (RRset-sized messages; the world's default
/// NSEC3 parameters, salt `abcd`, 0 extra iterations).
pub(crate) fn time_crypto(names: &[&Name]) -> (f64, f64) {
    let key = simsig::SigningKey::from_seed(8, 2048, b"perfbench");
    let public = key.public_key();
    let signed: Vec<(Vec<u8>, Vec<u8>)> = names
        .iter()
        .map(|n| {
            let mut msg = n.to_wire();
            msg.resize(msg.len().max(200), 0x2a);
            let sig = key.sign(&msg);
            (msg, sig)
        })
        .collect();
    let mut verify_ns = Vec::with_capacity(signed.len());
    for (msg, sig) in &signed {
        let t = Instant::now();
        let ok = black_box(simsig::verify(&public, 8, msg, sig));
        verify_ns.push(ns_since(t));
        assert!(ok.is_ok(), "a fresh signature must verify");
    }
    let wires: Vec<Vec<u8>> = names.iter().map(|n| n.to_wire()).collect();
    let mut hash_ns = Vec::with_capacity(wires.len());
    for w in &wires {
        let t = Instant::now();
        black_box(nsec3hash::nsec3_hash(w, &[0xab, 0xcd], 0));
        hash_ns.push(ns_since(t));
    }
    (median(&verify_ns), median(&hash_ns))
}
