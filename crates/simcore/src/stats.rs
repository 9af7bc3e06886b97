//! Statistics collection for simulation runs.
//!
//! Small, allocation-friendly accumulators used by every measurement in the
//! experiment harness:
//!
//! * [`Welford`] — streaming mean / variance / min / max.
//! * [`Histogram`] — fixed-width binned counts with quantile queries.
//! * [`windowed_rate`] — binning of `(time, value)` samples into
//!   per-window rates, used for throughput-over-time plots (Fig 4.14).
//!
//! # Examples
//!
//! ```
//! use fh_sim::stats::Welford;
//!
//! let mut w = Welford::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     w.add(x);
//! }
//! assert_eq!(w.mean(), 2.5);
//! assert_eq!(w.count(), 4);
//! ```

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0.0 with fewer than 2 observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-width histogram over `[lo, hi)` with out-of-range overflow bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram of `n_bins` equal bins covering `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_bins == 0` or `hi <= lo`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        assert!(n_bins > 0, "need at least one bin");
        assert!(hi > lo, "hi must exceed lo");
        Histogram {
            lo,
            width: (hi - lo) / n_bins as f64,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else {
            let idx = ((x - self.lo) / self.width) as usize;
            if idx >= self.bins.len() {
                self.overflow += 1;
            } else {
                self.bins[idx] += 1;
            }
        }
    }

    /// Total observations recorded (including out-of-range).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count that fell below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count that fell at or above the range end.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterator over `(bin_midpoint, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + (i as f64 + 0.5) * self.width, c))
    }

    /// Merges another histogram into this one for cross-shard
    /// aggregation. Both histograms must share the same binning.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms were built with different `lo`,
    /// width, or bin count — merging mismatched binnings would silently
    /// misattribute counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.width == other.width && self.bins.len() == other.bins.len(),
            "cannot merge histograms with different binning"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Approximate quantile `q` in `[0, 1]` (`None` when empty).
    ///
    /// Out-of-range mass is attributed to the range edges.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.lo + (i as f64 + 1.0) * self.width);
            }
        }
        Some(self.lo + self.width * self.bins.len() as f64)
    }
}

/// Buckets sample *values* into fixed windows of `bin` width over
/// `[start, end)` and returns per-window **rates** (sum / bin seconds).
///
/// This is the throughput-over-time transform: feed one sample per
/// delivered byte count and read back bytes per second per window.
/// `samples` is any iterator, so a caller bins a trace where it lies.
///
/// # Panics
///
/// Panics if `bin` is zero or `end <= start`.
#[must_use]
pub fn windowed_rate(
    samples: impl IntoIterator<Item = (SimTime, f64)>,
    start: SimTime,
    end: SimTime,
    bin: SimDuration,
) -> Vec<(SimTime, f64)> {
    assert!(!bin.is_zero(), "bin width must be positive");
    assert!(end > start, "end must be after start");
    let n = (end - start).as_nanos().div_ceil(bin.as_nanos());
    let mut sums = vec![0.0; n as usize];
    for (t, v) in samples {
        if t < start || t >= end {
            continue;
        }
        let idx = ((t - start).as_nanos() / bin.as_nanos()) as usize;
        sums[idx] += v;
    }
    let secs = bin.as_secs_f64();
    sums.into_iter()
        .enumerate()
        .map(|(i, s)| (start + bin * i as u64, s / secs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_mean_and_variance() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_empty_is_sane() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.6, 9.99, -1.0, 10.0, 25.0] {
            h.add(x);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        let counts: Vec<u64> = h.iter().map(|(_, c)| c).collect();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        assert_eq!(counts[9], 1);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.add(i as f64 + 0.5);
        }
        // Guarded lookups: a zero-sample histogram yields None, never panics.
        let Some(median) = h.quantile(0.5) else {
            panic!("populated histogram must have a median");
        };
        assert!((median - 50.0).abs() <= 1.0, "median {median}");
        let Some(p99) = h.quantile(0.99) else {
            panic!("populated histogram must have a p99");
        };
        assert!(p99 >= 98.0, "p99 {p99}");
    }

    #[test]
    fn empty_histogram_yields_no_quantiles() {
        // Regression: a zero-sample run (e.g. a sweep point where every
        // packet was dropped) must report "no data", not panic downstream.
        let h = Histogram::new(0.0, 1.0, 1);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
        // Out-of-range-only mass still counts as data.
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-5.0);
        assert_eq!(h.quantile(0.5), Some(0.0), "underflow mass pins to lo");
    }

    #[test]
    fn histogram_merge_matches_sequential() {
        let mut all = Histogram::new(0.0, 50.0, 25);
        let mut a = Histogram::new(0.0, 50.0, 25);
        let mut b = Histogram::new(0.0, 50.0, 25);
        for i in 0..200 {
            let x = (i as f64 * 0.37) % 60.0 - 2.0; // spills both edges
            all.add(x);
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn histogram_merge_boundaries() {
        // Empty into empty: still empty.
        let mut e = Histogram::new(0.0, 1.0, 4);
        e.merge(&Histogram::new(0.0, 1.0, 4));
        assert_eq!(e.total(), 0);
        assert_eq!(e.quantile(0.5), None);

        // Single sample survives a merge with an empty peer.
        let mut single = Histogram::new(0.0, 10.0, 10);
        single.add(3.0);
        single.merge(&Histogram::new(0.0, 10.0, 10));
        assert_eq!(single.total(), 1);
        assert_eq!(single.quantile(0.5), Some(4.0));

        // All-equal samples: every quantile lands in the same bin.
        let mut eq = Histogram::new(0.0, 10.0, 10);
        let mut eq2 = Histogram::new(0.0, 10.0, 10);
        for _ in 0..50 {
            eq.add(5.5);
            eq2.add(5.5);
        }
        eq.merge(&eq2);
        assert_eq!(eq.total(), 100);
        assert_eq!(eq.quantile(0.01), eq.quantile(0.999));
        assert_eq!(eq.quantile(0.999), Some(6.0));
    }

    #[test]
    #[should_panic(expected = "different binning")]
    fn histogram_merge_rejects_mismatched_binning() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        a.merge(&Histogram::new(0.0, 10.0, 5));
    }

    #[test]
    fn p999_tracks_the_tail() {
        let mut h = Histogram::new(0.0, 1000.0, 1000);
        for i in 0..1000 {
            h.add(i as f64 + 0.5);
        }
        let Some(p999) = h.quantile(0.999) else {
            panic!("populated histogram must have a p99.9");
        };
        assert!(p999 >= 999.0, "p99.9 {p999}");
        assert_eq!(Histogram::new(0.0, 1.0, 1).quantile(0.999), None);
    }

    #[test]
    fn time_series_windowed_rate() {
        // 100 bytes at 0.1s, 0.2s, ... 0.9s
        let samples = (1..10).map(|i| (SimTime::from_millis(i * 100), 100.0));
        let rates = windowed_rate(
            samples,
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_millis(500),
        );
        assert_eq!(rates.len(), 2);
        // First window catches samples at 0.1-0.4s (4 * 100 bytes / 0.5 s).
        assert!((rates[0].1 - 800.0).abs() < 1e-9);
        // Second window catches 0.5-0.9s (5 * 100 / 0.5).
        assert!((rates[1].1 - 1000.0).abs() < 1e-9);
    }
}
