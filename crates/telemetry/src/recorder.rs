//! The flight recorder: a bounded ring of timestamped structured events.

use fh_sim::SimTime;

/// A fixed-capacity ring buffer of `(SimTime, E)` events.
///
/// Designed to be left on during long runs: when the ring fills, the
/// **oldest** events are overwritten (flight-recorder semantics — the
/// most recent history survives a crash investigation), and the number
/// of overwritten events is counted so truncation is never silent.
///
/// Disabled recorders cost one branch per [`FlightRecorder::record`]
/// call and hold no storage.
#[derive(Debug, Clone)]
pub struct FlightRecorder<E> {
    enabled: bool,
    cap: usize,
    buf: Vec<(SimTime, E)>,
    /// Next slot to overwrite once `buf.len() == cap`.
    head: usize,
    overwritten: u64,
    seen: u64,
}

impl<E> Default for FlightRecorder<E> {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl<E> FlightRecorder<E> {
    /// Creates a disabled recorder (no storage allocated).
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder {
            enabled: false,
            cap: 0,
            buf: Vec::new(),
            head: 0,
            overwritten: 0,
            seen: 0,
        }
    }

    /// Switches recording on with room for `cap` events. A capacity of
    /// zero records nothing but still counts every event as overwritten.
    pub fn enable(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = cap;
    }

    /// `true` while recording.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op unless enabled).
    #[inline]
    pub fn record(&mut self, now: SimTime, event: E) {
        if !self.enabled {
            return;
        }
        self.seen += 1;
        if self.cap == 0 {
            self.overwritten += 1;
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push((now, event));
        } else {
            self.buf[self.head] = (now, event);
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Stored events in chronological order (oldest surviving first).
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, E)> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Stored events matching `pred`, in chronological order — the
    /// filtered-subscription view (e.g. only buffer events, only one
    /// host's events).
    pub fn filtered<'a, F>(&'a self, mut pred: F) -> impl Iterator<Item = &'a (SimTime, E)>
    where
        F: FnMut(&E) -> bool + 'a,
    {
        self.events().filter(move |(_, e)| pred(e))
    }

    /// Number of events currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events offered to the recorder while enabled.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events lost to ring wraparound (oldest-first overwrite).
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Discards stored events and counters, keeping the configuration.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.overwritten = 0;
        self.seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut r: FlightRecorder<u32> = FlightRecorder::new();
        r.record(SimTime::ZERO, 1);
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.seen(), 0);
    }

    #[test]
    fn ring_wraparound_keeps_latest() {
        let mut r: FlightRecorder<u32> = FlightRecorder::new();
        r.enable(3);
        for i in 0..7u32 {
            r.record(SimTime::from_millis(u64::from(i)), i);
        }
        let kept: Vec<u32> = r.events().map(|&(_, e)| e).collect();
        assert_eq!(kept, vec![4, 5, 6]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.seen(), 7);
        assert_eq!(r.overwritten(), 4);
        // Timestamps stay chronological across the wrap seam.
        let times: Vec<u64> = r.events().map(|&(t, _)| t.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn capacity_zero_counts_but_never_stores() {
        let mut r: FlightRecorder<u32> = FlightRecorder::new();
        r.enable(0);
        for i in 0..5u32 {
            r.record(SimTime::ZERO, i);
        }
        assert!(r.is_empty());
        assert_eq!(r.seen(), 5);
        assert_eq!(r.overwritten(), 5);
    }

    #[test]
    fn filtered_subscription_sees_a_subset_in_order() {
        let mut r: FlightRecorder<u32> = FlightRecorder::new();
        r.enable(16);
        for i in 0..10u32 {
            r.record(SimTime::from_millis(u64::from(i)), i);
        }
        let evens: Vec<u32> = r.filtered(|&e| e % 2 == 0).map(|&(_, e)| e).collect();
        assert_eq!(evens, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn clear_keeps_configuration() {
        let mut r: FlightRecorder<u32> = FlightRecorder::new();
        r.enable(2);
        r.record(SimTime::ZERO, 1);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.seen(), 0);
        assert!(r.is_enabled());
        r.record(SimTime::ZERO, 2);
        assert_eq!(r.len(), 1);
    }
}
