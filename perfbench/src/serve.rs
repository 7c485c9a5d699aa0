//! The `serve` workload: a one-worker `Server` over the testbed's
//! Cloudflare resolver, driven from loopback clients in this process.
//!
//! The untraced run uses a closed loop with one query in flight, as a
//! stub resolver resolving names one after another (a TC=1 answer
//! retried over TCP before the next query): its answer rate is the
//! throughput, its UDP round trip the latency. The traced run adds the
//! open-loop generator: one thread sends UDP queries at their due times,
//! the other receives the answers and performs each TC=1 retry over TCP,
//! one connection at a time, without ever blocking on it (it polls the
//! pending TCP exchange between short UDP receives).

use crate::loadgen::{capacity_search, due_ns, Book, Capacity, SearchConfig, Target, TrialOutcome};
use crate::report::Report;
use crate::scanwork::{time_crypto, time_l2, time_netsim};
use crate::stats::{median, quantile_sorted, sorted, Summary};
use crate::sys::{peak_rss_mib, pin_to_cpu, precise_sleeps, SplitMix};
use crate::Mode;
use ede_resolver::{L1Cache, Resolution, Vendor};
use ede_server::pipeline::{answer, classify, encode_udp, QueryDisposition};
use ede_server::{ProbeClient, Server, ServerConfig, ServerHandle, ServerStats};
use ede_testbed::expectations::table4;
use ede_testbed::Testbed;
use ede_trace::Metrics;
use ede_wire::stream::{frame, FrameReader, MAX_FRAME_LEN};
use ede_wire::{Message, Name, Rcode, RrType};
use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Table 4's column for Cloudflare DNS.
const CLOUDFLARE_COLUMN: usize = 4;

/// UDP payload every query advertises (EDNS, DO=1).
pub const ADVERTISED_PAYLOAD: u16 = 512;

/// The server's UDP payload cap. No testbed answer exceeds 232 bytes,
/// so a 512-byte advertisement alone never truncates; this cap makes
/// the largest Cloudflare answer (`ds-reserved-key-algo`, 232 bytes)
/// come back TC=1 — one name of 63, about 1.6 % of the mix — and so
/// exercises the TCP retry path.
pub const UDP_PAYLOAD_CAP: u16 = 220;

/// Share of queries that are never-repeated names under
/// `valid.extended-dns-errors.com` (NXDOMAIN, resolved upstream).
pub const UNIQUE_SHARE: f64 = 0.02;

/// Queries the untraced closed loop keeps in flight: one, so each
/// answer times one query's trip through the server, not a queue.
pub const CLOSED_WINDOW: usize = 1;

/// The open-loop rate of the traced trial, queries per second.
pub const REFERENCE_RATE: f64 = 12000.0;

/// The median-latency limit of the capacity search, µs.
pub const LIMIT_US: f64 = 250.0;

/// Queries due this early in a trial are answered and checked but not
/// timed: the generator's threads and buffers are still warming up.
const LEAD_IN: Duration = Duration::from_millis(100);

/// How long an unanswered query is waited for after the last one was
/// due.
const GRACE: Duration = Duration::from_millis(500);

/// What one serve run uses.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Closed-loop trials; `p50_us` is the median of their medians,
    /// `throughput_per_s` the median of their 100 ms windows' rates.
    pub trials: usize,
    /// Length of one closed-loop trial, as a share of the run's seconds.
    pub trial_share: f64,
    /// Length of the traced open-loop trial at the reference rate.
    pub reference_trial: Duration,
    /// Length of one capacity-search trial.
    pub search_trial: Duration,
    /// Capacity search settings.
    pub search: SearchConfig,
    /// Queries in the traced single-threaded pipeline replay.
    pub replay_queries: usize,
}

impl ServeParams {
    /// The benchmark's `serve` workload.
    pub fn serve() -> ServeParams {
        ServeParams {
            setup_reps: 15,
            trials: 6,
            trial_share: 0.15,
            reference_trial: Duration::from_secs(2),
            search_trial: Duration::from_millis(1100),
            search: SearchConfig {
                start: 16000.0,
                grow: 1.4,
                max: 60_000.0,
                min: 2000.0,
                precision: 0.05,
                attempts: 2,
                confirm: 3,
                max_step_downs: 4,
            },
            replay_queries: 20_000,
        }
    }

    /// The same workload, shrunk for tests.
    pub fn tiny() -> ServeParams {
        ServeParams {
            setup_reps: 2,
            trials: 1,
            reference_trial: Duration::from_millis(400),
            search_trial: Duration::from_millis(300),
            search: SearchConfig {
                start: 4000.0,
                grow: 1.5,
                max: 6000.0,
                min: 4000.0,
                precision: 0.25,
                attempts: 1,
                confirm: 1,
                max_step_downs: 1,
            },
            replay_queries: 500,
            ..ServeParams::serve()
        }
    }
}

/// What a query is and what its answer must be.
#[derive(Debug, Clone)]
enum Expect {
    /// A Table 4 name: exactly these EDE codes, in order.
    Table4 {
        label: &'static str,
        codes: Vec<u16>,
    },
    /// A never-repeated name: NXDOMAIN without any EDE code.
    Unique,
}

/// The seeded query mix: Table 4's 63 names, repeated, plus a small
/// share of never-repeated names.
struct Mix {
    table: Vec<(Name, Expect)>,
    rng: SplitMix,
    tag: u64,
    next_unique: u64,
}

impl Mix {
    fn new(tb: &Testbed, seed: u64) -> Mix {
        let rows = table4();
        let table = tb
            .specs
            .iter()
            .map(|spec| {
                let row = rows
                    .iter()
                    .find(|r| r.label == spec.label)
                    .expect("every testbed spec has a Table 4 row");
                (
                    tb.query_name(spec),
                    Expect::Table4 {
                        label: row.label,
                        codes: row.codes[CLOUDFLARE_COLUMN].to_vec(),
                    },
                )
            })
            .collect();
        Mix {
            table,
            rng: SplitMix::new(seed),
            tag: seed,
            next_unique: 0,
        }
    }

    /// The next query name of the mix.
    fn draw(&mut self) -> (Name, Expect) {
        if self.rng.unit() < UNIQUE_SHARE {
            self.next_unique += 1;
            let name = Name::parse(&format!(
                "u{}-{}.valid.extended-dns-errors.com",
                self.tag, self.next_unique
            ))
            .expect("unique name is valid");
            (name, Expect::Unique)
        } else {
            self.table[self.rng.below(self.table.len())].clone()
        }
    }

    /// Encode one query: EDNS with DO=1 advertising 512 bytes.
    fn query(id: u16, name: Name) -> Message {
        let mut q = Message::query(id, name, RrType::A);
        if let Some(edns) = q.edns.as_mut() {
            edns.udp_payload_size = ADVERTISED_PAYLOAD;
            edns.dnssec_ok = true;
        }
        q
    }
}

/// Codes as a sorted set.
fn code_set(codes: &[u16]) -> Vec<u16> {
    let mut c = codes.to_vec();
    c.sort_unstable();
    c.dedup();
    c
}

/// Table 4's codes plus EDE 13 (Cached Error): what a resolver answers
/// when it serves a SERVFAIL from its failure cache (RFC 8914 §4.14).
/// Table 4 was measured with cold caches; a server answering repeats
/// from cache adds this code and nothing else.
fn with_cached_error(codes: &[u16]) -> Vec<u16> {
    let mut c = codes.to_vec();
    c.push(13);
    code_set(&c)
}

/// Check one decoded answer against its expectation: Table 4's
/// Cloudflare codes (plus Cached Error on a cache-served SERVFAIL), or
/// NXDOMAIN without EDE for a never-repeated name.
fn answer_ok(resp: &Message, expect: &Expect) -> Result<(), String> {
    let codes: Vec<u16> = resp.ede_codes().iter().map(|c| c.to_u16()).collect();
    match expect {
        Expect::Table4 { codes: want, .. } if codes == *want => Ok(()),
        Expect::Table4 { codes: want, .. }
            if resp.rcode == Rcode::ServFail && code_set(&codes) == with_cached_error(want) =>
        {
            Ok(())
        }
        Expect::Table4 { label, codes: want } => {
            Err(format!("{label}: EDE {codes:?}, Table 4 gives {want:?}"))
        }
        Expect::Unique if resp.rcode == Rcode::NxDomain && codes.is_empty() => Ok(()),
        Expect::Unique => Err(format!(
            "unique name: {:?} with EDE {codes:?}, expected NXDOMAIN without EDE",
            resp.rcode
        )),
    }
}

/// Client-side counts, reconciled against the server's own at the end.
#[derive(Debug, Default, Clone)]
struct ClientCounts {
    udp_sent: u64,
    udp_received: u64,
    udp_truncated: u64,
    tcp_received: u64,
    lost: u64,
}

/// One TCP retry in progress.
struct TcpPending {
    idx: usize,
    stream: TcpStream,
    reader: FrameReader,
    started: Instant,
}

/// Everything one open-loop trial observed.
struct TrialData {
    book: Book,
    expect: Vec<Expect>,
    udp_resp: Vec<Option<Vec<u8>>>,
    tcp_resp: Vec<Option<Vec<u8>>>,
    tcp_done: Vec<Option<u64>>,
    tcp_connect_us: Vec<f64>,
    tcp_exchange_us: Vec<f64>,
}

/// Offer `n = rate × length` queries of the mix at `rate`, open loop.
fn run_trial(
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    mix: &mut Mix,
    rate: f64,
    length: Duration,
    retry_tc: bool,
) -> std::io::Result<TrialData> {
    // IDs are query indices, so a trial holds at most 65 536 queries.
    let n = ((rate * length.as_secs_f64()) as usize).clamp(1, 1 << 16);
    let mut expect = Vec::with_capacity(n);
    let mut wires = Vec::with_capacity(n);
    for i in 0..n {
        let (name, e) = mix.draw();
        wires.push(
            Mix::query(i as u16, name)
                .encode()
                .expect("a query always encodes"),
        );
        expect.push(e);
    }
    let wires = Arc::new(wires);

    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.connect(udp_addr)?;
    let send_sock = sock.try_clone()?;
    let mut book = Book::scheduled(n, rate).with_lead_in(LEAD_IN.as_nanos() as u64);
    // Start a little ahead so the sender is parked before the first
    // query is due.
    let t0 = Instant::now() + Duration::from_millis(2);
    let sender = {
        let wires = Arc::clone(&wires);
        std::thread::spawn(move || -> std::io::Result<Vec<Option<u64>>> {
            precise_sleeps();
            let mut sent = vec![None; wires.len()];
            for (i, wire) in wires.iter().enumerate() {
                let due = t0 + Duration::from_nanos(due_ns(i, rate));
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                send_sock.send(wire)?;
                sent[i] = Some(t0.elapsed().as_nanos() as u64);
            }
            Ok(sent)
        })
    };

    precise_sleeps();
    let mut udp_resp: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut tcp_resp: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut tcp_done = vec![None; n];
    let mut tcp_connect_us = Vec::new();
    let mut tcp_exchange_us = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut pending: Option<TcpPending> = None;
    let mut answered = 0usize;
    let end = t0 + Duration::from_nanos(due_ns(n - 1, rate)) + GRACE;
    let mut buf = [0u8; 4096];
    let mut tbuf = [0u8; 4096];
    let mut polling = false;
    sock.set_read_timeout(Some(Duration::from_millis(2)))?;
    loop {
        // Wait briefly while a TCP retry is open, so its answer is seen
        // promptly; otherwise block a little longer.
        if polling != pending.is_some() {
            polling = pending.is_some();
            let wait = if polling {
                Duration::from_micros(50)
            } else {
                Duration::from_millis(2)
            };
            sock.set_read_timeout(Some(wait))?;
        }
        match sock.recv(&mut buf) {
            Ok(len) if len >= 12 => {
                let idx = usize::from(u16::from_be_bytes([buf[0], buf[1]]));
                if idx < n && book.done[idx].is_none() {
                    book.done[idx] = Some(t0.elapsed().as_nanos() as u64);
                    udp_resp[idx] = Some(buf[..len].to_vec());
                    answered += 1;
                    if retry_tc && buf[2] & 0x02 != 0 {
                        queue.push_back(idx);
                    }
                }
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }

        if pending.is_none() {
            if let Some(idx) = queue.pop_front() {
                let started = Instant::now();
                // A failed connect leaves the retry's answer slot empty:
                // a failed operation when the answers are checked.
                if let Ok(mut stream) =
                    TcpStream::connect_timeout(&tcp_addr, Duration::from_secs(1))
                {
                    tcp_connect_us.push(started.elapsed().as_nanos() as f64 / 1e3);
                    let _ = stream.set_nodelay(true);
                    stream.write_all(&frame(&wires[idx]).expect("query fits a frame"))?;
                    stream.set_nonblocking(true)?;
                    pending = Some(TcpPending {
                        idx,
                        stream,
                        reader: FrameReader::new(MAX_FRAME_LEN),
                        started,
                    });
                }
            }
        }
        if let Some(p) = pending.as_mut() {
            let mut finished = false;
            match p.stream.read(&mut tbuf) {
                Ok(0) => {
                    finished = true;
                }
                Ok(k) => {
                    if p.reader.push(&tbuf[..k]).is_err() {
                        finished = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => {
                    finished = true;
                }
            }
            if let Some(resp) = p.reader.next_frame() {
                tcp_done[p.idx] = Some(t0.elapsed().as_nanos() as u64);
                tcp_exchange_us.push(p.started.elapsed().as_nanos() as f64 / 1e3);
                tcp_resp[p.idx] = Some(resp);
                finished = true;
            }
            if finished {
                pending = None;
            }
        }

        let all_in = answered == n && queue.is_empty() && pending.is_none();
        if all_in && sender.is_finished() {
            break;
        }
        if Instant::now() >= end {
            break;
        }
    }
    let sent = sender
        .join()
        .map_err(|_| std::io::Error::other("sender thread panicked"))??;
    book.sent = sent;
    Ok(TrialData {
        book,
        expect,
        udp_resp,
        tcp_resp,
        tcp_done,
        tcp_connect_us,
        tcp_exchange_us,
    })
}

/// One query's answers, for checking.
struct Answer {
    expect: Expect,
    /// The UDP answer, if one arrived.
    udp: Option<Vec<u8>>,
    /// The TCP retry's answer, if one was made and arrived.
    tcp: Option<Vec<u8>>,
}

/// Checks every answer against its expectation and keeps the client's
/// counts for reconciliation. Each distinct answer (its bytes after the
/// ID) is decoded and checked once; a repeat of a verified answer is
/// accepted by comparison, which keeps the check cheap enough to run on
/// every answer of a busy trial.
#[derive(Default)]
struct Checker {
    counts: ClientCounts,
    verified: HashSet<Vec<u8>>,
    errors: Vec<String>,
}

impl Checker {
    /// Check one decoded-or-verified answer. Returns its header's
    /// (truncated, RCODE nibble) when it is well formed.
    fn verify(&mut self, wire: &[u8], expect: &Expect, over_tcp: bool) -> Option<(bool, u8)> {
        if wire.len() < 12 {
            self.error("answer shorter than a header".into());
            return None;
        }
        let header = (wire[2] & 0x02 != 0, wire[3] & 0x0F);
        if over_tcp && header.0 {
            self.error("TCP retry came back truncated".into());
        }
        if self.verified.contains(&wire[2..]) {
            return Some(header);
        }
        match Message::decode(wire) {
            Ok(m) => match answer_ok(&m, expect) {
                Ok(()) => {
                    if matches!(expect, Expect::Table4 { .. }) {
                        self.verified.insert(wire[2..].to_vec());
                    }
                }
                Err(e) if over_tcp => self.error(format!("TCP retry: {e}")),
                Err(e) => self.error(e),
            },
            Err(e) => self.error(format!("undecodable answer: {e}")),
        }
        Some(header)
    }

    fn error(&mut self, e: String) {
        if self.errors.len() < 5 && !self.errors.contains(&e) {
            self.errors.push(e);
        }
    }

    /// Check one query's answers and count them. A truncated UDP answer
    /// must have been retried over TCP when `retry_tc` is set, and the
    /// retry must come back complete with the same RCODE and codes.
    /// Returns whether the operation failed: its UDP answer never came,
    /// or its retry never completed.
    fn check(&mut self, a: &Answer, retry_tc: bool) -> bool {
        self.counts.udp_sent += 1;
        let Some(wire) = &a.udp else {
            self.counts.lost += 1;
            return true;
        };
        self.counts.udp_received += 1;
        let Some((truncated, rcode)) = self.verify(wire, &a.expect, false) else {
            return false;
        };
        if !truncated {
            return false;
        }
        self.counts.udp_truncated += 1;
        let Some(wire) = &a.tcp else {
            return retry_tc;
        };
        self.counts.tcp_received += 1;
        if let Some((_, tcp_rcode)) = self.verify(wire, &a.expect, true) {
            if tcp_rcode != rcode {
                self.error(format!("TCP retry answered RCODE {tcp_rcode}, UDP {rcode}"));
            }
        }
        false
    }

    /// Check a batch of answers; returns the failed operations.
    fn check_all(&mut self, answers: &[Answer], retry_tc: bool) -> u64 {
        answers.iter().filter(|a| self.check(a, retry_tc)).count() as u64
    }

    /// Hand the failed checks to the report.
    fn report_into(&mut self, report: &mut Report) {
        for e in self.errors.drain(..) {
            report.check(false, || e);
        }
    }
}

/// What one closed-loop trial observed.
struct Closed {
    /// Queries answered before the trial's time was up.
    answered: u64,
    /// Queries sent, and those that failed.
    sent: u64,
    failed: u64,
    /// Seconds the trial ran.
    secs: f64,
    /// UDP round trip of every answered query, µs.
    udp_us: Vec<f64>,
    /// Full exchange (UDP, then the TCP retry) of every truncated
    /// query that was retried, µs.
    tc_us: Vec<f64>,
    /// Answers in each whole [`RATE_WINDOW`] of the trial.
    per_window: Vec<u64>,
}

/// Width of the windows a closed loop's answer rate is counted in.
const RATE_WINDOW: Duration = Duration::from_millis(100);

impl Closed {
    /// Answered queries per second over the whole trial.
    fn rate(&self) -> f64 {
        self.answered as f64 / self.secs
    }

    /// Answered queries per second in each whole window.
    fn window_rates(&self) -> impl Iterator<Item = f64> + '_ {
        self.per_window
            .iter()
            .map(|&n| n as f64 / RATE_WINDOW.as_secs_f64())
    }
}

/// A closed loop: keep [`CLOSED_WINDOW`] queries of the mix in flight
/// over UDP for `length`, sending the next as each answer arrives, as a
/// stub resolver would; then stop sending and collect what is still in
/// flight. A TC=1 answer is retried over TCP (through `ProbeClient`)
/// before the loop goes on. Every answer is checked as it completes.
fn run_closed(
    client: &ProbeClient,
    udp_addr: SocketAddr,
    mix: &mut Mix,
    checker: &mut Checker,
    length: Duration,
) -> std::io::Result<Closed> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.connect(udp_addr)?;
    sock.set_read_timeout(Some(Duration::from_millis(200)))?;
    // In flight, by query ID: expectation, query bytes, send time.
    let mut flight: Vec<Option<(Expect, Vec<u8>, Instant)>> = vec![None; 1 << 16];
    let mut in_flight = 0usize;
    let mut next_id: u16 = 0;
    let mut c = Closed {
        answered: 0,
        sent: 0,
        failed: 0,
        secs: 0.0,
        udp_us: Vec::new(),
        tc_us: Vec::new(),
        per_window: Vec::new(),
    };
    let mut buf = [0u8; 4096];
    let start = Instant::now();
    let mut open = true;
    while open || in_flight > 0 {
        while open && in_flight < CLOSED_WINDOW {
            let id = next_id;
            next_id = next_id.wrapping_add(1);
            let (name, expect) = mix.draw();
            let wire = Mix::query(id, name)
                .encode()
                .expect("a query always encodes");
            sock.send(&wire)?;
            flight[usize::from(id)] = Some((expect, wire, Instant::now()));
            in_flight += 1;
            c.sent += 1;
        }
        match sock.recv(&mut buf) {
            Ok(len) => {
                let id = usize::from(u16::from_be_bytes([buf[0], buf[1]]));
                let Some((expect, wire, sent)) = flight.get_mut(id).and_then(Option::take) else {
                    continue;
                };
                in_flight -= 1;
                c.udp_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
                let mut answer = Answer {
                    expect,
                    udp: Some(buf[..len].to_vec()),
                    tcp: None,
                };
                if len >= 12 && buf[2] & 0x02 != 0 {
                    if let Ok(resp) = client.query_tcp(&wire) {
                        c.tc_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
                        answer.tcp = Some(resp);
                    }
                }
                c.failed += u64::from(checker.check(&answer, true));
                if open {
                    c.answered += 1;
                    let w = (start.elapsed().as_nanos() / RATE_WINDOW.as_nanos()) as usize;
                    if c.per_window.len() <= w {
                        c.per_window.resize(w + 1, 0);
                    }
                    c.per_window[w] += 1;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Nothing for 200 ms: whatever is in flight is lost.
                for f in flight.iter_mut() {
                    if let Some((expect, _, _)) = f.take() {
                        let lost = Answer {
                            expect,
                            udp: None,
                            tcp: None,
                        };
                        c.failed += u64::from(checker.check(&lost, true));
                    }
                }
                in_flight = 0;
            }
            Err(e) => return Err(e),
        }
        if open && start.elapsed() >= length {
            open = false;
            c.secs = start.elapsed().as_secs_f64();
            // Only whole windows count.
            let whole = (c.secs / RATE_WINDOW.as_secs_f64()) as usize;
            c.per_window.resize(whole, 0);
        }
    }
    Ok(c)
}

/// One set-up: testbed, server, and a warm-up pass of every Table 4
/// name through `ProbeClient` (UDP, retried over TCP on TC=1).
struct Setup {
    tb: Testbed,
    handle: ServerHandle,
    build_s: f64,
    spawn_s: f64,
    warm_s: f64,
}

fn set_up(report: &mut Report, counts: &mut ClientCounts) -> Setup {
    let t = Instant::now();
    let tb = Testbed::build();
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let handle = Server::spawn(
        tb.resolver(Vendor::Cloudflare),
        ServerConfig::builder()
            .udp_bind("127.0.0.1:0")
            .tcp_bind("127.0.0.1:0")
            .workers(1)
            .udp_payload_max(UDP_PAYLOAD_CAP)
            .build(),
    )
    .expect("a server on two ephemeral loopback ports");
    let spawn_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let client =
        ProbeClient::connect(handle.udp_addr(), handle.tcp_addr()).expect("a loopback client");
    let mix = Mix::new(&tb, 0);
    for (i, (name, expect)) in mix.table.iter().enumerate() {
        report.attempted += 1;
        counts.udp_sent += 1;
        match client.query(&Mix::query(i as u16, name.clone())) {
            Ok(x) => {
                counts.udp_received += 1;
                if x.retried_over_tcp {
                    counts.udp_truncated += 1;
                    counts.tcp_received += 1;
                }
                report.check(!x.response.truncated, || "final answer truncated".into());
                if let Err(e) = answer_ok(&x.response, expect) {
                    report.check(false, || format!("warm-up: {e}"));
                }
            }
            Err(e) => {
                report.failed += 1;
                counts.lost += 1;
                eprintln!("warm-up query failed: {e}");
            }
        }
    }
    Setup {
        tb,
        handle,
        build_s,
        spawn_s,
        warm_s: t.elapsed().as_secs_f64(),
    }
}

/// Reconcile the server's response counts with what the client saw.
fn reconcile(report: &mut Report, stats: &ServerStats, c: &ClientCounts) {
    let m = &stats.metrics;
    report.check(stats.drained, || "server did not drain".into());
    report.check(m.dropped == 0 && m.encode_errors == 0, || {
        format!(
            "server dropped {} and failed to encode {}",
            m.dropped, m.encode_errors
        )
    });
    report.check(m.tcp_responses == c.tcp_received, || {
        format!(
            "server sent {} TCP answers, client received {}",
            m.tcp_responses, c.tcp_received
        )
    });
    if c.lost == 0 {
        report.check(
            m.udp_queries == c.udp_sent
                && m.udp_responses == c.udp_received
                && m.udp_truncated == c.udp_truncated,
            || format!("server UDP {m:?} does not match client {c:?}"),
        );
    } else {
        // Datagrams lost to full socket buffers (capacity trials past
        // the limit) can only shrink each count along the path.
        report.check(
            c.udp_received <= m.udp_responses
                && m.udp_responses <= m.udp_queries
                && m.udp_queries <= c.udp_sent,
            || format!("server UDP {m:?} cannot follow from client {c:?}"),
        );
    }
}

impl TrialData {
    /// The trial's answers, for checking (moves the responses out).
    fn take_answers(&mut self) -> Vec<Answer> {
        self.expect
            .drain(..)
            .zip(self.udp_resp.drain(..).zip(self.tcp_resp.drain(..)))
            .map(|(expect, (udp, tcp))| Answer { expect, udp, tcp })
            .collect()
    }
}

/// The capacity search's view of the running server.
struct ServeTarget<'a> {
    udp: SocketAddr,
    tcp: SocketAddr,
    mix: &'a mut Mix,
    length: Duration,
    checker: &'a mut Checker,
}

impl Target for ServeTarget<'_> {
    fn trial(&mut self, rate: f64) -> TrialOutcome {
        let mut data = run_trial(self.udp, self.tcp, self.mix, rate, self.length, false)
            .expect("loopback sockets keep working");
        // A lost answer is a miss of the limit here, not a failed
        // operation: probing past capacity is the point of the search.
        self.checker.check_all(&data.take_answers(), false);
        let out = data.book.outcome(rate, LIMIT_US);
        eprintln!(
            "capacity trial {rate:.0}/s: p50 {:.0} us, p90 {:.0} us, lost {}, lateness p50 {:.0} us, backlog {} -> {}",
            out.p50_us,
            out.p90_us,
            out.lost,
            out.lateness_p50_us,
            if out.backlog_growing { "growing" } else { "flat" },
            if out.meets_limit() { "pass" } else { "fail" }
        );
        out
    }
}

/// Run the `serve` workload.
pub fn run(params: &ServeParams, seed: u64, seconds: f64, mode: Mode) -> Report {
    let mut report = Report {
        correct: true,
        ..Default::default()
    };
    // Server and client share one CPU, so every exchange is a same-CPU
    // hand-off: on this 2-vCPU host, where the two threads landed
    // otherwise swung latency and throughput by half between runs.
    pin_to_cpu(0);
    let mut checker = Checker::default();
    let mut setups = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..params.setup_reps.max(1) {
        if let Some(old) = current.take() {
            let stats = old.handle.shutdown().expect("shutdown");
            reconcile(&mut report, &stats, &checker.counts);
            checker.counts = ClientCounts::default();
        }
        let s = set_up(&mut report, &mut checker.counts);
        setups.push((s.build_s, s.spawn_s, s.warm_s));
        current = Some(s);
    }
    let Setup { tb, handle, .. } = current.expect("at least one set-up");
    let (udp, tcp) = (handle.udp_addr(), handle.tcp_addr());
    let client = ProbeClient::connect(udp, tcp).expect("a loopback client");
    let mut mix = Mix::new(&tb, seed);

    match mode {
        Mode::Untraced => {
            let (queries_before, _, _) = tb.net.stats().snapshot();
            let mut answered = 0u64;
            // One query in flight, truncated answers retried over TCP as
            // a stub resolver would. With many in flight on one CPU the
            // rate measures how the scheduler interleaves client and
            // server (42 k/s in one run, 72 k/s in the next, same code).
            let mut p50 = Vec::new();
            let mut rates = Vec::new();
            let mut tc_retries = 0;
            let trial = Duration::from_secs_f64(seconds * params.trial_share);
            for _ in 0..params.trials {
                let c = run_closed(&client, udp, &mut mix, &mut checker, trial)
                    .expect("loopback sockets keep working");
                report.attempted += c.sent;
                report.failed += c.failed;
                answered += c.udp_us.len() as u64;
                tc_retries += c.tc_us.len();
                let s = sorted(&c.udp_us);
                p50.push(quantile_sorted(&s, 0.5));
                // The median window rate: a burst of host slowness spoils
                // a few windows, not the figure. A trial shorter than one
                // window counts as a whole.
                if c.per_window.is_empty() {
                    rates.push(c.rate());
                }
                rates.extend(c.window_rates());
                eprintln!(
                    "closed loop: {:.0}/s answered, UDP {}, p90 {:.1} us; TC retry {}",
                    c.rate(),
                    Summary::of(&c.udp_us).describe("us"),
                    quantile_sorted(&s, 0.9),
                    describe(&c.tc_us),
                );
            }
            let (queries_after, _, _) = tb.net.stats().snapshot();
            let stats = handle.shutdown().expect("shutdown");
            reconcile(&mut report, &stats, &checker.counts);
            report.check(tc_retries > 0, || {
                "no closed-loop answer came back TC=1 and was retried over TCP".into()
            });
            eprintln!(
                "upstream: {} queries for {answered} answers, virtual clock at {} s",
                queries_after - queries_before,
                tb.net.clock().now_secs()
            );

            let setup: Vec<f64> = setups.iter().map(|(b, s, w)| b + s + w).collect();
            report.put("setup_s", median(&setup), "s");
            report.put("throughput_per_s", median(&rates), "1/s");
            report.put(
                "upstream_per_op",
                (queries_after - queries_before) as f64 / answered.max(1) as f64,
                "count",
            );
            report.put("peak_rss_mb", peak_rss_mib(), "MiB");
            report.put("p50_us", median(&p50), "us");
        }
        Mode::Traced => {
            // The open loop at the reference rate, TC=1 retried over TCP.
            let mut data = run_trial(
                udp,
                tcp,
                &mut mix,
                REFERENCE_RATE,
                params.reference_trial,
                true,
            )
            .expect("loopback sockets keep working");
            report.attempted += data.book.len() as u64;
            report.failed += checker.check_all(&data.take_answers(), true);
            let lat = data.book.latencies_us();
            let tc_retry: Vec<f64> = data
                .tcp_done
                .iter()
                .zip(&data.book.due)
                .filter_map(|(d, &due)| d.map(|d| d.saturating_sub(due) as f64 / 1e3))
                .collect();
            let lateness = data.book.lateness_us();
            eprintln!(
                "open loop {REFERENCE_RATE}/s: UDP {}; TC retry {}; generator lateness {}",
                Summary::of(&lat).describe("us"),
                describe(&tc_retry),
                Summary::of(&lateness).describe("us"),
            );

            // The open-loop capacity, confirmed over repeated trials.
            let mut target = ServeTarget {
                udp,
                tcp,
                mix: &mut mix,
                length: params.search_trial,
                checker: &mut checker,
            };
            let capacity: Capacity = capacity_search(&mut target, &params.search);
            eprintln!(
                "capacity {:.0}/s after {} trials, confirmed {}/{}",
                capacity.rate, capacity.trials, capacity.confirmed.0, capacity.confirmed.1
            );
            let stats = handle.shutdown().expect("shutdown");
            reconcile(&mut report, &stats, &checker.counts);
            report.check(!data.tcp_connect_us.is_empty(), || {
                "no open-loop answer came back TC=1 and was retried over TCP".into()
            });

            let col = |i: usize| {
                setups
                    .iter()
                    .map(|s| [s.0, s.1, s.2][i])
                    .collect::<Vec<_>>()
            };
            report.put("testbed.build_s", median(&col(0)), "s");
            report.put("server.spawn_s", median(&col(1)), "s");
            report.put(
                "server.udp_truncated",
                stats.metrics.udp_truncated as f64,
                "count",
            );
            report.put(
                "server.tcp_responses",
                stats.metrics.tcp_responses as f64,
                "count",
            );
            report.put(
                "loadgen.lateness_p99_us",
                quantile_sorted(&sorted(&lateness), 0.99),
                "us",
            );
            report.put("loadgen.capacity_qps", capacity.rate, "1/s");
            if !data.tcp_connect_us.is_empty() {
                report.put("tcp.connect_us", median(&data.tcp_connect_us), "us");
                report.put("tcp.exchange_us", median(&data.tcp_exchange_us), "us");
                report.put("tcp.tc_retry_p50_us", median(&tc_retry), "us");
            }
            replay_pipeline(&mut report, &tb, &mut mix, params.replay_queries);
        }
    }
    checker.report_into(&mut report);
    report
}

/// A latency series for logs, or "none".
fn describe(samples: &[f64]) -> String {
    if samples.is_empty() {
        "none".to_string()
    } else {
        Summary::of(samples).describe("us")
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// The traced single-threaded pass over the serving layers: the same
/// seeded mix through `Resolver::resolve_l1`, then through
/// `pipeline::{classify, answer, encode_udp}` and the wire codec, each
/// call timed, on fresh resolvers over the same testbed.
fn replay_pipeline(report: &mut Report, tb: &Testbed, mix: &mut Mix, n: usize) {
    let queries: Vec<(Message, Expect)> = (0..n)
        .map(|i| {
            let (name, e) = mix.draw();
            (Mix::query(i as u16, name), e)
        })
        .collect();
    let wires: Vec<Vec<u8>> = queries
        .iter()
        .map(|(q, _)| q.encode().expect("a query always encodes"))
        .collect();

    // Resolver layer alone, with the upstream queries captured.
    let resolver = tb.resolver(Vendor::Cloudflare);
    let l1 = L1Cache::new();
    let mut resolve_ns = Vec::with_capacity(n);
    let mut kept: Vec<(Name, Resolution)> = Vec::new();
    tb.net.start_capture();
    for (q, _) in &queries {
        let name = &q.questions[0].name;
        let t = Instant::now();
        let res = resolver.resolve_l1(name, RrType::A, &l1);
        resolve_ns.push(ns_since(t));
        if kept.len() < 4096 && !kept.iter().any(|(k, _)| k == name) {
            kept.push((name.clone(), res));
        }
    }
    let captured = tb.net.take_capture();

    // The serving pipeline, on a second fresh resolver, counted by a
    // metrics sink on the testbed.
    let metrics = Arc::new(Metrics::new());
    tb.attach_trace_sink(Arc::clone(&metrics) as Arc<dyn ede_trace::TraceSink>);
    let before = tb.net.stats().snapshot_full();
    let serving = tb.resolver(Vendor::Cloudflare);
    let l1 = L1Cache::new();
    let vclock_before = tb.net.clock().now_millis();
    let (mut classify_ns, mut answer_ns, mut encode_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut replies = Vec::with_capacity(n);
    let mut truncated = 0u64;
    for (wire, (_, expect)) in wires.iter().zip(&queries) {
        let t = Instant::now();
        let disposition = classify(wire);
        classify_ns.push(ns_since(t));
        let QueryDisposition::Resolve(query) = disposition else {
            report.check(false, || "a well-formed query was not resolved".into());
            continue;
        };
        let t = Instant::now();
        let reply = answer(&serving, Some(&l1), &query);
        answer_ns.push(ns_since(t));
        let t = Instant::now();
        let (bytes, tc) = encode_udp(&reply, &query, UDP_PAYLOAD_CAP).expect("answers encode");
        encode_ns.push(ns_since(t));
        truncated += u64::from(tc);
        if let Err(e) = answer_ok(&reply, expect) {
            report.check(false, || format!("pipeline: {e}"));
        }
        black_box(bytes);
        replies.push(reply);
    }
    tb.net.clear_trace_sink();
    let after = tb.net.stats().snapshot_full();
    let vclock_s = (tb.net.clock().now_millis() - vclock_before) as f64 / 1e3;
    report.attempted += n as u64;
    eprintln!("trace: pipeline replay truncated {truncated} of {n} answers");

    // Wire codec on this workload's own answers.
    let mut enc_ns = Vec::with_capacity(replies.len());
    let mut dec_ns = Vec::with_capacity(replies.len());
    for reply in &replies {
        let t = Instant::now();
        let bytes = reply.encode().expect("answers encode");
        enc_ns.push(ns_since(t));
        let t = Instant::now();
        black_box(Message::decode(&bytes).expect("own bytes decode"));
        dec_ns.push(ns_since(t));
    }

    let m = metrics.snapshot();
    let per_res = |c: u64| c as f64 / n as f64;
    let resolve = Summary::of(&resolve_ns);
    eprintln!("trace: resolver {}", resolve.describe("ns"));
    report.put("resolver.resolve_ns", resolve.median, "ns");
    report.put(
        "resolver.resolve_p99_ns",
        quantile_sorted(&sorted(&resolve_ns), 0.99),
        "ns",
    );
    report.put(
        "resolver.queries_per_resolution",
        per_res(m.queries_sent),
        "count",
    );
    report.put(
        "netsim.queries_per_resolution",
        per_res(after.queries - before.queries),
        "count",
    );
    report.put(
        "validate.steps_per_resolution",
        per_res(m.validation_steps),
        "count",
    );
    // Counted as on `scan`, by the network's delivered replies; the
    // testbed's servers also count their own answers, and the two agree.
    let delivered = after.delivered - before.delivered;
    report.check(delivered == m.authority_answers, || {
        format!(
            "{delivered} replies delivered, the servers answered {}",
            m.authority_answers
        )
    });
    report.put(
        "authority.answers_per_resolution",
        per_res(delivered),
        "count",
    );
    report.put("pipeline.classify_ns", median(&classify_ns), "ns");
    report.put("pipeline.answer_ns", median(&answer_ns), "ns");
    report.put("pipeline.encode_udp_ns", median(&encode_ns), "ns");
    report.put("wire.encode_ns", median(&enc_ns), "ns");
    report.put("wire.decode_ns", median(&dec_ns), "ns");

    let l1s = l1.stats();
    let l2 = serving.cache_stats();
    let infra = serving.infra_stats();
    let range = serving.range_stats();
    // Where the mix's answers came from: every query probes L1, an L1
    // miss probes L2, and an L2 miss resolves upstream.
    let pct = |c: u64| 100.0 * c as f64 / n as f64;
    eprintln!(
        "trace: mix answered {:.1}% from L1, {:.1}% from L2, {:.1}% resolved upstream \
         ({} upstream queries; the virtual clock advanced {vclock_s:.0} s over {n} queries)",
        pct(l1s.hits),
        pct(l2.hits),
        pct(n as u64 - l1s.hits - l2.hits),
        after.queries - before.queries,
    );
    report.put("cache.l1.probes", (l1s.hits + l1s.misses) as f64, "count");
    report.put("cache.l1.hits", l1s.hits as f64, "count");
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

    let (get_ns, put_ns) = time_l2(&kept, tb.resolver_config.stale_window_secs);
    report.put("cache.l2.get_ns", get_ns, "ns");
    report.put("cache.l2.put_ns", put_ns, "ns");
    report.put(
        "netsim.query_ns",
        time_netsim(&tb.net, &captured, tb.resolver_config.source_addr),
        "ns",
    );
    let names: Vec<&Name> = kept.iter().map(|(n, _)| n).collect();
    let (verify_ns, hash_ns) = time_crypto(&names);
    report.put("crypto.simsig_verify_ns", verify_ns, "ns");
    report.put("crypto.nsec3_hash_ns", hash_ns, "ns");
}
