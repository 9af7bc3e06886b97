//! Order statistics over a handful of samples.

#![forbid(unsafe_code)]

/// Linear-interpolated quantile of an ascending-sorted, non-empty slice
/// (`q` in 0..=1): the value at rank `q * (n - 1)`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The five numbers printed beside every timing, plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(samples: &[f64]) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            min: s[0],
            p25: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            p75: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// A single exact value (a count), for the shared result schema.
    pub fn exact(v: f64) -> Self {
        Summary {
            n: 1,
            min: v,
            p25: v,
            median: v,
            p75: v,
            max: v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.125), 1.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn summary_sorts_and_keeps_the_best() {
        let s = Summary::of(&[0.9, 0.3, 0.5, 0.4]);
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 0.3);
        assert_eq!(s.max, 0.9);
        assert_eq!(s.median, 0.45);
        assert!(s.p25 <= s.median && s.median <= s.p75);
    }
}
