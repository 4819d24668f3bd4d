//! Summary statistics for experiment series.
//!
//! The paper reports each Gröbner data point as the mean / minimum /
//! maximum speedup over 20 seeded runs (Figs. 4b and 5); these helpers
//! compute exactly those summaries plus the sample standard deviation used
//! in EXPERIMENTS.md.

use std::fmt;
use std::fmt::Write as _;

/// Mean / min / max / stddev of a sample of `f64` observations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub stddev: f64,
}

impl Summary {
    /// Summarize a non-empty sample. Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "Summary::of on empty sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        let stddev = if n >= 2 {
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            min,
            max,
            stddev,
        }
    }
}

/// Nearest-rank percentile of an **ascending-sorted** sample: the smallest
/// observation such that at least `p·n` observations are ≤ it. This is the
/// single percentile definition shared by the traffic plane's per-class
/// summaries and the open-loop sweeps' sojourn digests, so the two never
/// disagree on what "p99" means. Panics on an empty sample; `p` is
/// clamped to `[0, 1]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "nearest_rank on empty sample");
    let n = sorted.len();
    let p = p.clamp(0.0, 1.0);
    let idx = ((p * n as f64).ceil() as usize).max(1) - 1;
    sorted[idx.min(n - 1)]
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.2} (min {:.2}, max {:.2}, sd {:.2}, n={})",
            self.mean, self.min, self.max, self.stddev, self.n
        )
    }
}

/// A labelled cost breakdown: `(label, amount)` rows that are rendered
/// with their share of the total — the "where did the microseconds go"
/// presentation of Table 1 and the earth-profile overhead tables.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    rows: Vec<(String, f64)>,
}

impl Breakdown {
    /// Append one component.
    pub fn push(&mut self, label: &str, amount: f64) {
        self.rows.push((label.to_string(), amount));
    }

    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.rows.iter().map(|(_, a)| a).sum()
    }

    /// Render as aligned `label  amount  share%` lines with `unit`
    /// appended to each amount.
    pub fn render(&self, unit: &str) -> String {
        let total = self.total();
        let mut out = String::new();
        for (label, amount) in &self.rows {
            let share = if total > 0.0 {
                amount / total * 100.0
            } else {
                0.0
            };
            let _ = writeln!(out, "  {label:<18} {amount:>14.3} {unit:<3} {share:>5.1}%");
        }
        let _ = writeln!(out, "  {:<18} {total:>14.3} {unit:<3} 100.0%", "total");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // sample sd of 1..4 = sqrt(5/3)
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn nearest_rank_basics() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&s, 0.50), 50.0);
        assert_eq!(nearest_rank(&s, 0.95), 95.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        // n = 2: rank ceil(0.5 * 2) = 1 is the smaller sample;
        // ceil(0.95 * 2) = ceil(0.99 * 2) = 2 the larger.
        let two = [10.0, 20.0];
        assert_eq!(nearest_rank(&two, 0.50), 10.0);
        assert_eq!(nearest_rank(&two, 0.95), 20.0);
        assert_eq!(nearest_rank(&two, 0.99), 20.0);
    }

    #[test]
    fn nearest_rank_single_sample_is_that_sample() {
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(nearest_rank(&[7.5], p), 7.5);
        }
    }

    #[test]
    fn nearest_rank_all_equal_samples_collapse_to_that_value() {
        let s = [3.25; 17];
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(nearest_rank(&s, p), 3.25);
        }
    }

    #[test]
    fn nearest_rank_clamps_p() {
        assert_eq!(nearest_rank(&[1.0, 2.0], -3.0), 1.0);
        assert_eq!(nearest_rank(&[1.0, 2.0], 42.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn nearest_rank_empty_panics() {
        let _ = nearest_rank(&[], 0.5);
    }

    #[test]
    fn breakdown_shares_sum_to_hundred() {
        let mut b = Breakdown::default();
        b.push("poll", 25.0);
        b.push("thread", 75.0);
        assert_eq!(b.total(), 100.0);
        let r = b.render("us");
        assert!(r.contains("25.0%"), "{r}");
        assert!(r.contains("75.0%"), "{r}");
        assert!(r.contains("total"), "{r}");
    }

    #[test]
    fn empty_breakdown_renders_without_dividing_by_zero() {
        let b = Breakdown::default();
        let r = b.render("us");
        assert!(r.contains("total"));
        assert!(!r.contains("NaN"));
    }

    #[test]
    fn display_is_compact() {
        let s = Summary::of(&[2.0, 2.0]);
        assert_eq!(
            s.to_string(),
            "mean 2.00 (min 2.00, max 2.00, sd 0.00, n=2)"
        );
    }
}
