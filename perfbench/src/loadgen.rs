//! Open-loop load: the due-time schedule, the per-query timing book,
//! and the capacity search.
//!
//! Every query has a due time fixed before the trial starts
//! (`i / rate` after the start). Latency is measured from that due time,
//! not from when the generator got round to sending, so a stall in the
//! server *or* in the generator is charged to every query it delayed;
//! the generator's own lateness (send time minus due time) is reported
//! beside it so the two can be told apart.

use crate::stats::{quantile_sorted, sorted};

/// Due offset of query `i` at `rate` queries per second, in ns.
pub fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// Timing of every query of one trial, as offsets from its start (ns).
#[derive(Debug, Clone, Default)]
pub struct Book {
    /// When each query was due.
    pub due: Vec<u64>,
    /// When the generator actually sent it.
    pub sent: Vec<Option<u64>>,
    /// When its final answer arrived (`None`: lost or timed out).
    pub done: Vec<Option<u64>>,
    /// First query whose timing is judged; earlier ones form the
    /// trial's lead-in (sent, answered and checked, but not timed).
    pub judged_from: usize,
}

impl Book {
    /// An empty book for `n` queries scheduled at `rate`.
    pub fn scheduled(n: usize, rate: f64) -> Book {
        Book {
            due: (0..n).map(|i| due_ns(i, rate)).collect(),
            sent: vec![None; n],
            done: vec![None; n],
            judged_from: 0,
        }
    }

    /// Leave the queries due in the first `lead_in_ns` out of the
    /// timing figures (the generator's threads and buffers are still
    /// warming up then).
    pub fn with_lead_in(mut self, lead_in_ns: u64) -> Book {
        self.judged_from = self.due.partition_point(|&d| d < lead_in_ns);
        self
    }

    /// Queries in the trial.
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// True for a trial of no queries.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }

    /// Latency from due time of every answered judged query, µs, in
    /// query order.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.done[self.judged_from..]
            .iter()
            .zip(&self.due[self.judged_from..])
            .filter_map(|(d, &due)| d.map(|d| d.saturating_sub(due) as f64 / 1e3))
            .collect()
    }

    /// Generator lateness (send minus due) of every sent judged query,
    /// µs.
    pub fn lateness_us(&self) -> Vec<f64> {
        self.sent[self.judged_from..]
            .iter()
            .zip(&self.due[self.judged_from..])
            .filter_map(|(s, &due)| s.map(|s| s.saturating_sub(due) as f64 / 1e3))
            .collect()
    }

    /// Queries that never got an answer, lead-in included.
    pub fn lost(&self) -> usize {
        self.done.iter().filter(|d| d.is_none()).count()
    }

    /// Judge the trial against a median latency limit.
    pub fn outcome(&self, rate: f64, limit_us: f64) -> TrialOutcome {
        let lat = self.latencies_us();
        let late = self.lateness_us();
        let q = |v: &[f64], p: f64| {
            if v.is_empty() {
                f64::INFINITY
            } else {
                quantile_sorted(&sorted(v), p)
            }
        };
        TrialOutcome {
            rate,
            queries: self.len(),
            lost: self.lost(),
            p50_us: q(&lat, 0.5),
            p90_us: q(&lat, 0.9),
            backlog_growing: backlog_growing(&lat, limit_us),
            lateness_p50_us: q(&late, 0.5),
            limit_us,
        }
    }
}

/// A backlog is growing when the median latency of the trial's last
/// fifth exceeds that of its first fifth by more than half the limit:
/// the queue at the end is longer than at the start.
pub fn backlog_growing(latencies_in_order: &[f64], limit_us: f64) -> bool {
    let fifth = latencies_in_order.len() / 5;
    if fifth == 0 {
        return false;
    }
    let first = quantile_sorted(&sorted(&latencies_in_order[..fifth]), 0.5);
    let last = quantile_sorted(
        &sorted(&latencies_in_order[latencies_in_order.len() - fifth..]),
        0.5,
    );
    last > first + limit_us / 2.0
}

/// Share of a trial's queries that may go unanswered before the rate
/// counts as not sustained: datagrams a full socket buffer drops while
/// the host stalls the process for a few milliseconds.
pub const MAX_LOSS_SHARE: f64 = 0.001;

/// The verdict on one trial at one offered rate.
///
/// The limit applies to the *median* latency from due time. This host
/// (2 vCPUs) loses about 2 % of its CPU time to the hypervisor in
/// millisecond slices, at any load, so its p99 — and often its p95 —
/// measures those stalls rather than the server; the median moves only
/// when the server (or the generator) falls behind.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Offered rate, queries per second.
    pub rate: f64,
    /// Queries scheduled.
    pub queries: usize,
    /// Queries never answered (each also misses the latency limit).
    pub lost: usize,
    /// Median latency from due time, µs.
    pub p50_us: f64,
    /// p90 latency from due time, µs (reported, not judged).
    pub p90_us: f64,
    /// Whether the queue grew over the trial.
    pub backlog_growing: bool,
    /// Median of the generator's own lateness, µs.
    pub lateness_p50_us: f64,
    /// The median-latency limit the trial was judged against, µs.
    pub limit_us: f64,
}

impl TrialOutcome {
    /// The rate is sustained: (almost) nothing lost, median latency
    /// under the limit, no growing backlog, and the generator itself
    /// kept to its schedule (otherwise the rate was never offered).
    pub fn meets_limit(&self) -> bool {
        self.lost as f64 <= MAX_LOSS_SHARE * self.queries as f64
            && self.p50_us <= self.limit_us
            && !self.backlog_growing
            && self.lateness_p50_us <= self.limit_us
    }
}

/// Something a rate can be offered to.
pub trait Target {
    /// Offer `rate` queries per second for one trial.
    fn trial(&mut self, rate: f64) -> TrialOutcome;
}

/// Capacity-search parameters.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// First rate tried, queries per second.
    pub start: f64,
    /// Factor the rate grows by while trials pass.
    pub grow: f64,
    /// Highest rate ever offered.
    pub max: f64,
    /// Lowest rate worth reporting; below it the search gives up.
    pub min: f64,
    /// Bisection stops when the failing rate is within this fraction
    /// of the passing one.
    pub precision: f64,
    /// Trials per step of the search: a step passes when any of them
    /// does. A saturated server cannot pass by luck, while a stall from
    /// outside the program can fail one trial.
    pub attempts: usize,
    /// Repeated trials at the final rate; a majority must pass.
    pub confirm: usize,
    /// Step-downs tried when confirmation fails.
    pub max_step_downs: usize,
}

/// The result of a capacity search.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacity {
    /// The highest confirmed rate, queries per second (0 when even
    /// `min` failed).
    pub rate: f64,
    /// Trials run.
    pub trials: usize,
    /// Passing trials out of the confirming ones at `rate`.
    pub confirmed: (usize, usize),
}

/// A target that counts the trials run on it.
struct Counted<'a> {
    target: &'a mut dyn Target,
    trials: usize,
}

impl Counted<'_> {
    /// One trial's verdict.
    fn once(&mut self, rate: f64) -> bool {
        self.trials += 1;
        self.target.trial(rate).meets_limit()
    }

    /// One search step: passes when any of `attempts` trials does.
    fn step(&mut self, rate: f64, attempts: usize) -> bool {
        (0..attempts.max(1)).any(|_| self.once(rate))
    }
}

/// Find the highest offered rate that meets the limit: grow
/// geometrically until a step fails, bisect (geometrically) between
/// the last pass and the first fail, then confirm the result over
/// repeated trials, stepping down when a majority fails. Every loop is
/// bounded, so the search ends whatever the target does.
pub fn capacity_search(target: &mut dyn Target, cfg: &SearchConfig) -> Capacity {
    let mut t = Counted { target, trials: 0 };
    let none = |trials| Capacity {
        rate: 0.0,
        trials,
        confirmed: (0, cfg.confirm),
    };

    // Bracket: lo passes, hi fails (or hi is the ceiling).
    let mut lo = 0.0;
    let mut hi = cfg.max;
    let mut rate = cfg.start.clamp(cfg.min, cfg.max);
    loop {
        if t.step(rate, cfg.attempts) {
            lo = rate;
            if rate >= cfg.max {
                break;
            }
            rate = (rate * cfg.grow).min(cfg.max);
        } else {
            hi = rate;
            break;
        }
    }
    if lo == 0.0 {
        // The start rate failed: walk down until something passes.
        while rate > cfg.min {
            rate = (rate / cfg.grow).max(cfg.min);
            if t.step(rate, cfg.attempts) {
                lo = rate;
                break;
            }
            hi = rate;
        }
        if lo == 0.0 {
            return none(t.trials);
        }
    }
    while hi > lo * (1.0 + cfg.precision) {
        let mid = (lo * hi).sqrt();
        if t.step(mid, cfg.attempts) {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    // Confirm: a majority of repeated trials must pass at the reported
    // rate; otherwise step down by the precision and try again.
    let mut candidate = lo;
    for _ in 0..=cfg.max_step_downs {
        let passed = (0..cfg.confirm).filter(|_| t.once(candidate)).count();
        if 2 * passed > cfg.confirm {
            return Capacity {
                rate: candidate,
                trials: t.trials,
                confirmed: (passed, cfg.confirm),
            };
        }
        candidate /= 1.0 + cfg.precision;
        if candidate < cfg.min {
            break;
        }
    }
    none(t.trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_ns(0, 1000.0), 0);
        assert_eq!(due_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_ns(250, 500.0), 500_000_000);
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // Four queries due every 1 ms. The generator stalls and sends
        // the third and fourth 5 ms late; the server answers each 100 µs
        // after it is sent. The stall must show in their latency.
        let mut book = Book::scheduled(4, 1000.0);
        let sent = [0u64, 1_000_000, 7_000_000, 8_000_000];
        for (i, s) in sent.into_iter().enumerate() {
            book.sent[i] = Some(s);
            book.done[i] = Some(s + 100_000);
        }
        assert_eq!(book.latencies_us(), vec![100.0, 100.0, 5100.0, 5100.0]);
        assert_eq!(book.lateness_us(), vec![0.0, 0.0, 5000.0, 5000.0]);
    }

    /// A one-second trial at 5000/s answered 50 µs after each due
    /// time, except where `slow` says the generator was `by_ns` late.
    fn trial(slow: impl Fn(u64) -> bool, by_ns: u64) -> Book {
        let mut book = Book::scheduled(5000, 5000.0);
        for i in 0..book.len() {
            let due = book.due[i];
            let late = if slow(due) { by_ns } else { 0 };
            book.sent[i] = Some(due + late);
            book.done[i] = Some(due + late + 50_000);
        }
        book
    }

    #[test]
    fn a_stall_does_not_decide_the_verdict_a_slow_server_does() {
        // A 20 ms stall delays 2 % of the queries by 5 ms: the median
        // stays put.
        let stalled = trial(|due| (300_000_000..320_000_000).contains(&due), 5_000_000);
        let out = stalled.outcome(5000.0, 250.0);
        assert_eq!(out.p50_us, 50.0);
        assert!(out.meets_limit(), "{out:?}");
        // A generator late for most of the trial: not met.
        let behind = trial(|due| due % 10_000_000 < 6_000_000, 1_000_000);
        let out = behind.outcome(5000.0, 250.0);
        assert_eq!(out.p50_us, 1050.0);
        assert_eq!(out.lateness_p50_us, 1000.0);
        assert!(!out.meets_limit(), "{out:?}");
    }

    #[test]
    fn the_lead_in_is_not_timed() {
        let mut book = Book::scheduled(4, 1000.0).with_lead_in(1_500_000);
        assert_eq!(book.judged_from, 2);
        for i in 0..4 {
            book.sent[i] = Some(book.due[i]);
            book.done[i] = Some(book.due[i] + if i < 2 { 9_000_000 } else { 10_000 });
        }
        assert_eq!(book.latencies_us(), vec![10.0, 10.0]);
        assert_eq!(book.lateness_us(), vec![0.0, 0.0]);
        book.done[0] = None;
        assert_eq!(book.lost(), 1, "a lost lead-in query still counts");
    }

    #[test]
    fn loss_beyond_the_allowance_misses_the_limit() {
        let mut book = trial(|_| false, 0);
        assert!(book.outcome(5000.0, 250.0).meets_limit());
        for i in 0..5 {
            book.done[1000 + i] = None;
        }
        assert_eq!(book.lost(), 5);
        assert!(
            book.outcome(5000.0, 250.0).meets_limit(),
            "0.1 % may be lost"
        );
        book.done[4321] = None;
        let out = book.outcome(5000.0, 250.0);
        assert_eq!(out.p50_us, 50.0);
        assert!(!out.meets_limit(), "six of 5000 lost must fail the trial");
    }

    #[test]
    fn an_unanswered_trial_never_meets_the_limit() {
        let book = Book::scheduled(10, 100.0);
        assert!(!book.outcome(100.0, 1000.0).meets_limit());
    }

    #[test]
    fn backlog_growth_is_detected() {
        let flat: Vec<f64> = (0..100).map(|_| 50.0).collect();
        assert!(!backlog_growing(&flat, 1000.0));
        let growing: Vec<f64> = (0..100).map(|i| 50.0 + 20.0 * i as f64).collect();
        assert!(backlog_growing(&growing, 1000.0));
    }

    /// A synthetic responder: latency is flat below its capacity and
    /// unbounded above it, with an optional flaky band just below it.
    struct Synthetic {
        capacity: f64,
        flaky_from: f64,
        calls: usize,
    }

    impl Target for Synthetic {
        fn trial(&mut self, rate: f64) -> TrialOutcome {
            self.calls += 1;
            let flaky = rate >= self.flaky_from && self.calls.is_multiple_of(2);
            let p50 = if rate <= self.capacity && !flaky {
                80.0
            } else {
                50_000.0
            };
            TrialOutcome {
                rate,
                queries: 1000,
                lost: 0,
                p50_us: p50,
                p90_us: p50,
                backlog_growing: false,
                lateness_p50_us: 10.0,
                limit_us: 1000.0,
            }
        }
    }

    fn cfg() -> SearchConfig {
        SearchConfig {
            start: 1000.0,
            grow: 2.0,
            max: 1e6,
            min: 100.0,
            precision: 0.02,
            attempts: 2,
            confirm: 3,
            max_step_downs: 4,
        }
    }

    #[test]
    fn capacity_search_ends_near_the_true_capacity() {
        let mut t = Synthetic {
            capacity: 12_345.0,
            flaky_from: f64::INFINITY,
            calls: 0,
        };
        let c = capacity_search(&mut t, &cfg());
        assert!(c.rate <= 12_345.0, "{c:?}");
        assert!(c.rate >= 12_345.0 / 1.03, "{c:?}");
        assert_eq!(c.confirmed, (3, 3));
        assert_eq!(c.trials, t.calls);
        assert!(c.trials < 30, "{c:?}");
    }

    #[test]
    fn capacity_search_ends_on_degenerate_targets() {
        // Never passes: gives up at the floor.
        let mut never = Synthetic {
            capacity: 0.0,
            flaky_from: f64::INFINITY,
            calls: 0,
        };
        let c = capacity_search(&mut never, &cfg());
        assert_eq!(c.rate, 0.0);
        assert!(c.trials < 20);
        // Always passes: stops at the ceiling.
        let mut always = Synthetic {
            capacity: f64::INFINITY,
            flaky_from: f64::INFINITY,
            calls: 0,
        };
        let c = capacity_search(&mut always, &cfg());
        assert_eq!(c.rate, 1e6);
        // Flaky just below capacity: confirmation steps down and ends.
        let mut flaky = Synthetic {
            capacity: 20_000.0,
            flaky_from: 15_000.0,
            calls: 0,
        };
        let c = capacity_search(&mut flaky, &cfg());
        assert!(c.rate > 0.0 && c.rate < 20_000.0, "{c:?}");
        assert!(c.trials < 60, "{c:?}");
    }
}
