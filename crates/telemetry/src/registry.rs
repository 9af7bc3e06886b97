//! The metrics registry: typed counters, gauges and histograms behind
//! handle-based ids.

use std::collections::BTreeMap;

use fh_sim::stats::Histogram;

/// Handle for a counter registered with [`MetricsRegistry::counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Handle for a gauge registered with [`MetricsRegistry::gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(u32);

/// Handle for a histogram registered with [`MetricsRegistry::histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistogramId(u32);

/// A registry of named metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) is get-or-create by
/// name and returns a copyable id; updates through an id are an array
/// index, so hot paths pay no string hashing. Name-keyed lookups and
/// iteration are deterministic (sorted by name), and two registries
/// built on independent shards [`MetricsRegistry::merge`] by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counter_index: BTreeMap<String, u32>,
    counters: Vec<u64>,
    gauge_index: BTreeMap<String, u32>,
    gauges: Vec<f64>,
    histogram_index: BTreeMap<String, u32>,
    histograms: Vec<Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Gets or registers the counter called `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.counter_index.get(name) {
            return CounterId(id);
        }
        let id = u32::try_from(self.counters.len()).expect("counter count fits u32");
        self.counter_index.insert(name.to_owned(), id);
        self.counters.push(0);
        CounterId(id)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0 as usize] += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    /// Current value of a counter.
    #[must_use]
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Counter value looked up by name (0 when never registered) — the
    /// assertion-friendly read used by tests and report code.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map_or(0, |&id| self.counters[id as usize])
    }

    /// All counters as `(name, value)`, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_index
            .iter()
            .map(|(name, &id)| (name.as_str(), self.counters[id as usize]))
    }

    /// Gets or registers the gauge called `name` (initially 0.0).
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(&id) = self.gauge_index.get(name) {
            return GaugeId(id);
        }
        let id = u32::try_from(self.gauges.len()).expect("gauge count fits u32");
        self.gauge_index.insert(name.to_owned(), id);
        self.gauges.push(0.0);
        GaugeId(id)
    }

    /// Sets a gauge to `v`.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize] = v;
    }

    /// All gauges as `(name, value)`, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauge_index
            .iter()
            .map(|(name, &id)| (name.as_str(), self.gauges[id as usize]))
    }

    /// Gets or registers the histogram called `name` with `n_bins`
    /// equal bins over `[lo, hi)`. The binning arguments only apply on
    /// first registration.
    pub fn histogram(&mut self, name: &str, lo: f64, hi: f64, n_bins: usize) -> HistogramId {
        if let Some(&id) = self.histogram_index.get(name) {
            return HistogramId(id);
        }
        let id = u32::try_from(self.histograms.len()).expect("histogram count fits u32");
        self.histogram_index.insert(name.to_owned(), id);
        self.histograms.push(Histogram::new(lo, hi, n_bins));
        HistogramId(id)
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, x: f64) {
        self.histograms[id.0 as usize].add(x);
    }

    /// All histograms as `(name, histogram)`, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histogram_index
            .iter()
            .map(|(name, &id)| (name.as_str(), &self.histograms[id as usize]))
    }

    /// `true` when nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another registry into this one by metric name: counters
    /// add, gauges take the other's value (last-writer-wins, matching
    /// gauge semantics), histograms merge bin-wise. Ids held against
    /// `self` stay valid; ids from `other` do not transfer.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in other.counters() {
            let id = self.counter(name);
            self.add(id, v);
        }
        for (name, v) in other.gauges() {
            let id = self.gauge(name);
            self.set(id, v);
        }
        for (name, h) in other.histograms() {
            if let Some(&id) = self.histogram_index.get(name) {
                self.histograms[id as usize].merge(h);
            } else {
                let id = u32::try_from(self.histograms.len()).expect("histogram count fits u32");
                self.histogram_index.insert(name.to_owned(), id);
                self.histograms.push(h.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registration_is_get_or_create() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("drops");
        let b = r.counter("drops");
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 4);
        assert_eq!(r.get(a), 5);
        assert_eq!(r.counter_value("drops"), 5);
        assert_eq!(r.counter_value("never-registered"), 0);
    }

    #[test]
    fn counters_iterate_sorted_by_name() {
        let mut r = MetricsRegistry::new();
        // Register in non-sorted order; iteration must still be sorted
        // so exports are deterministic.
        let z = r.counter("zeta");
        let a = r.counter("alpha");
        r.add(z, 1);
        r.add(a, 2);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn gauges_hold_latest_value() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge("queue-depth");
        assert!(r.gauges().eq([("queue-depth", 0.0)]));
        r.set(g, 7.5);
        r.set(g, 3.0);
        assert!(r.gauges().eq([("queue-depth", 3.0)]));
    }

    #[test]
    fn histograms_observe_and_answer_quantiles() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("latency-ms", 0.0, 100.0, 100);
        for i in 0..100 {
            r.observe(h, f64::from(i) + 0.5);
        }
        let (name, hist) = r.histograms().next().expect("registered");
        assert_eq!(name, "latency-ms");
        let p50 = hist.quantile(0.5).expect("populated");
        assert!((p50 - 50.0).abs() <= 1.0);
    }

    #[test]
    fn merge_combines_by_name() {
        let mut a = MetricsRegistry::new();
        let ac = a.counter("drops");
        a.add(ac, 3);
        let ag = a.gauge("depth");
        a.set(ag, 1.0);
        let ah = a.histogram("lat", 0.0, 10.0, 10);
        a.observe(ah, 2.0);

        let mut b = MetricsRegistry::new();
        let bc = b.counter("drops");
        b.add(bc, 4);
        let b2 = b.counter("only-in-b");
        b.inc(b2);
        let bg = b.gauge("depth");
        b.set(bg, 9.0);
        let bh = b.histogram("lat", 0.0, 10.0, 10);
        b.observe(bh, 7.0);

        a.merge(&b);
        assert_eq!(a.counter_value("drops"), 7);
        assert_eq!(a.counter_value("only-in-b"), 1);
        assert!(a.gauges().eq([("depth", 9.0)]));
        assert!(a.histograms().map(|(_, h)| h.total()).eq([2]));
        // Pre-merge ids against `a` still resolve.
        assert_eq!(a.get(ac), 7);
    }

    #[test]
    fn merge_into_empty_adopts_everything() {
        let mut src = MetricsRegistry::new();
        let c = src.counter("x");
        src.inc(c);
        let h = src.histogram("h", 0.0, 1.0, 2);
        src.observe(h, 0.5);
        let mut dst = MetricsRegistry::new();
        dst.merge(&src);
        assert_eq!(dst.counter_value("x"), 1);
        let names: Vec<&str> = dst.histograms().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["h"]);
    }
}
