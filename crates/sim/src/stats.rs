//! Online statistics for measurement series.
//!
//! The experiment harness reports *average time per transfer* exactly as the
//! paper's tables do, so the core abstraction is a Welford accumulator that
//! never stores the series. A small fixed-bucket histogram supports the
//! latency-distribution ablations.

use crate::time::SimTime;

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-width bucket histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    rejected: u64,
}

impl Histogram {
    /// Creates a histogram with `n` equal buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0 && hi > lo, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            rejected: 0,
        }
    }

    /// Records one observation. Non-finite values (NaN, ±∞) carry no
    /// ordering information, so they land in a separate rejected counter
    /// instead of silently polluting bucket 0 (NaN fails both range
    /// comparisons and `as usize` saturates it to index 0).
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            self.rejected += 1;
        } else if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let last = self.buckets.len() - 1;
            let idx = (frac * self.buckets.len() as f64) as usize;
            self.buckets[idx.min(last)] += 1;
        }
    }

    /// Bucket counts (without under/overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Non-finite observations rejected outright.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Total recorded observations, including out-of-range and rejected
    /// ones.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow + self.rejected
    }
}

/// Ratio of two times expressed the way the paper reports speedups
/// (software time / hardware time). Returns `None` when the denominator is
/// zero.
pub fn speedup(sw: SimTime, hw: SimTime) -> Option<f64> {
    if hw.is_zero() {
        None
    } else {
        Some(sw.as_ps() as f64 / hw.as_ps() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic series is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0);
        h.record(0.0);
        h.record(9.999);
        h.record(10.0);
        h.record(5.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.buckets()[5], 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_rejects_non_finite_instead_of_bucketing_them() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        // The regression this guards: NaN failed both range checks and the
        // `as usize` cast saturated it into bucket 0.
        assert_eq!(h.buckets()[0], 0, "no phantom observation in bucket 0");
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.rejected(), 3);
        assert_eq!(h.total(), 3);
        // Finite values keep working exactly as before.
        h.record(0.5);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn speedup_ratio() {
        assert_eq!(
            speedup(SimTime::from_ns(260), SimTime::from_ns(10)),
            Some(26.0)
        );
        assert_eq!(speedup(SimTime::from_ns(1), SimTime::ZERO), None);
    }
}
