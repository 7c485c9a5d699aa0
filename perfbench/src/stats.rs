//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it, together with the sample
//! count; below forty samples only the median is a fair summary.

/// Nearest-rank quantile of already sorted samples (`q` in `[0, 1]`).
///
/// Panics on an empty slice: callers summarise only what they measured.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `samples` (NaN-free) ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Percentiles considered for the tail, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Fewest samples for which a tail percentile is reported at all.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// Median and tail of one timing series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// ten samples beyond it; `None` below [`MIN_TAIL_SAMPLES`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise unsorted samples.
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let n = s.len();
        let tail = (n >= MIN_TAIL_SAMPLES)
            .then(|| {
                TAIL_PERCENTILES
                    .into_iter()
                    .find(|&p| samples_beyond(n, p) >= 10)
                    .map(|p| (p, quantile_sorted(&s, p / 100.0)))
            })
            .flatten();
        Summary {
            n,
            median: quantile_sorted(&s, 0.5),
            tail,
        }
    }

    /// One-line rendering with the sample count, for logs.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "p50 {:.1} {unit}, p{p} {:.1} {unit} (n={})",
                self.median, v, self.n
            ),
            None => format!("p50 {:.1} {unit} (n={}, no tail)", self.median, self.n),
        }
    }
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order so the summary has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_the_middle_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&ramp(100)), 50.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_clamps_to_the_ends() {
        let s = sorted(&ramp(10));
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 10.0);
        assert_eq!(quantile_sorted(&s, 0.95), 10.0);
        assert_eq!(quantile_sorted(&s, 0.9), 9.0);
    }

    #[test]
    fn few_samples_report_the_median_alone() {
        let s = Summary::of(&ramp(39));
        assert_eq!(s.n, 39);
        assert_eq!(s.median, 20.0);
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 40 samples: p75 leaves exactly 10 beyond.
        assert_eq!(Summary::of(&ramp(40)).tail, Some((75.0, 30.0)));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let s = Summary::of(&ramp(1000));
        assert_eq!(s.tail, Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9, so the tail falls back to p95.
        assert_eq!(Summary::of(&ramp(999)).tail.map(|t| t.0), Some(95.0));
        // 100 000 samples reach p99.99.
        assert_eq!(Summary::of(&ramp(100_000)).tail.map(|t| t.0), Some(99.99));
    }

    #[test]
    fn describe_names_the_sample_count() {
        let line = Summary::of(&ramp(1000)).describe("us");
        assert!(line.contains("n=1000"), "{line}");
        assert!(line.contains("p99 990.0 us"), "{line}");
    }
}
