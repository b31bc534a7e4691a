//! One latency summary for every workload: nearest-rank percentiles over
//! nanosecond samples, refusing any percentile that has fewer than ten
//! samples beyond it (a "p99" of 200 samples is the second-worst sample).

use std::fmt;

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFew {
    /// Samples in the summary.
    pub count: usize,
    /// Samples strictly beyond the requested rank.
    pub beyond: usize,
}

impl fmt::Display for TooFew {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples leave {} beyond the percentile (need {MIN_BEYOND})",
            self.count, self.beyond
        )
    }
}

/// Sorted samples plus their count.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<u64>,
}

impl Summary {
    /// Summarize `samples` (any order).
    pub fn new(mut samples: Vec<u64>) -> Summary {
        samples.sort_unstable();
        Summary { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of percentile `p` (0 < p <= 100) in `n` samples.
    fn rank(p: f64, n: usize) -> usize {
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
    }

    /// Nearest-rank percentile, refused when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Result<u64, TooFew> {
        let n = self.sorted.len();
        let refused = |beyond| TooFew { count: n, beyond };
        if n == 0 {
            return Err(refused(0));
        }
        let rank = Self::rank(p, n);
        if n - rank < MIN_BEYOND {
            return Err(refused(n - rank));
        }
        Ok(self.sorted[rank - 1])
    }

    /// The percentile in microseconds, or 0 where the samples do not
    /// support it: how per-layer metrics read on a workload they do not
    /// apply to.
    pub fn us_or_zero(&self, p: f64) -> f64 {
        self.percentile(p).map_or(0.0, |ns| ns as f64 / 1e3)
    }

    /// Nearest-rank percentile with no support check (smoke runs only:
    /// half a second of load cannot support a tail).
    pub fn percentile_thin(&self, p: f64) -> u64 {
        match self.sorted.len() {
            0 => 0,
            n => self.sorted[Self::rank(p, n) - 1],
        }
    }
}

/// `num / den`, or 0 when there is nothing to divide by: a per-travel or
/// per-row figure on a workload that ran no such operation reads 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of a handful of plain values (set-up repetitions, `--agree`).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let s = Summary::new((1..=100).rev().collect());
        assert_eq!(s.count(), 100);
        assert_eq!(s.percentile(50.0), Ok(50));
        assert_eq!(s.percentile(90.0), Ok(90));
        assert_eq!(s.percentile(1.0), Ok(1));
    }

    #[test]
    fn refuses_a_tail_without_ten_samples_beyond() {
        let s = Summary::new((1..=100).collect());
        // p91 has 9 beyond, p99 has 1 beyond.
        assert_eq!(
            s.percentile(91.0),
            Err(TooFew {
                count: 100,
                beyond: 9
            })
        );
        assert!(s.percentile(99.0).is_err());
        // 1000 samples support p99 exactly (10 beyond), not p99.9.
        let k = Summary::new((1..=1000).collect());
        assert_eq!(k.percentile(99.0), Ok(990));
        assert!(k.percentile(99.9).is_err());
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert!(Summary::new((1..=19).collect()).percentile(50.0).is_err());
        assert_eq!(Summary::new((1..=20).collect()).percentile(50.0), Ok(10));
    }

    #[test]
    fn empty_and_thin() {
        let e = Summary::new(Vec::new());
        assert!(e.percentile(50.0).is_err());
        assert_eq!(e.percentile_thin(50.0), 0);
        let t = Summary::new(vec![7, 3, 5]);
        assert_eq!(t.percentile_thin(50.0), 5);
        assert_eq!(t.percentile_thin(99.0), 7);
        assert!(t.percentile(50.0).is_err());
        assert_eq!(t.us_or_zero(50.0), 0.0);
        assert_eq!(
            Summary::new((1..=20).map(|x| x * 1000).collect()).us_or_zero(50.0),
            10.0
        );
    }

    #[test]
    fn median_of_values() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
