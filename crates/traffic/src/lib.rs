//! # fh-traffic — workload generators and sinks
//!
//! The traffic the thesis evaluates with (§4.1–§4.2): constant-bit-rate
//! UDP "audio" flows (160-byte packets every 20 ms for 64 kb/s, every
//! 10 ms for 128 kb/s) and sinks that account every packet's end-to-end
//! delay and the flow's losses. A sink stores delays as runs of equal
//! delay over consecutive sequence numbers, so its memory grows with the
//! number of delay changes (a handoff's buffering spike), not with the
//! packet count; [`UdpSink::delays`] expands them per packet.
//! FTP-over-TCP workloads reuse `fh-tcp` directly.
//!
//! Sources and sinks are sans-I/O: the source mints packets on demand and
//! the owning actor schedules/transmits them; the sink consumes arrivals.
//!
//! ## Example
//!
//! ```
//! use fh_net::{FlowId, ServiceClass};
//! use fh_sim::{SimDuration, SimTime};
//! use fh_traffic::{CbrSource, UdpSink};
//!
//! let src = "2001:db8::1".parse().unwrap();
//! let dst = "2001:db8::2".parse().unwrap();
//! let mut cbr = CbrSource::audio_64k(FlowId(1), src, dst, ServiceClass::RealTime);
//! let mut sink = UdpSink::new(FlowId(1));
//!
//! let t0 = SimTime::ZERO;
//! let pkt = cbr.next_packet(t0);
//! sink.on_packet(t0 + SimDuration::from_millis(7), &pkt);
//! assert_eq!(sink.received(), 1);
//! assert_eq!(cbr.interval, SimDuration::from_millis(20));
//! assert_eq!(sink.losses(cbr.sent()), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod analysis;

pub use analysis::FlowReport;

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use fh_net::{FlowId, Packet, ServiceClass};
use fh_sim::{SimDuration, SimTime};

/// A constant-bit-rate UDP source.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CbrSource {
    /// The flow this source feeds.
    pub flow: FlowId,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address (typically a mobile host's RCoA).
    pub dst: Ipv6Addr,
    /// Class-of-service field stamped on every packet.
    pub class: ServiceClass,
    /// Packet size in bytes (on-wire, headers included).
    pub size: u32,
    /// Inter-packet interval.
    pub interval: SimDuration,
    next_seq: u64,
}

impl CbrSource {
    /// Creates a CBR source.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `size` is zero.
    #[must_use]
    pub fn new(
        flow: FlowId,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        class: ServiceClass,
        size: u32,
        interval: SimDuration,
    ) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(size > 0, "size must be positive");
        CbrSource {
            flow,
            src,
            dst,
            class,
            size,
            interval,
            next_seq: 0,
        }
    }

    /// The thesis' 64 kb/s audio flow: 160-byte packets every 20 ms.
    #[must_use]
    pub fn audio_64k(flow: FlowId, src: Ipv6Addr, dst: Ipv6Addr, class: ServiceClass) -> Self {
        CbrSource::new(flow, src, dst, class, 160, SimDuration::from_millis(20))
    }

    /// Mints the next packet.
    pub fn next_packet(&mut self, now: SimTime) -> Packet {
        let seq = self.next_seq;
        self.next_seq += 1;
        Packet::data(
            self.flow, seq, self.src, self.dst, self.class, self.size, now,
        )
    }

    /// Packets emitted so far.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.next_seq
    }

    /// Retargets the flow (e.g. after the peer obtained a new address).
    pub fn set_dst(&mut self, dst: Ipv6Addr) {
        self.dst = dst;
    }
}

/// A UDP sink with delay and loss accounting for one flow.
///
/// Delays are kept as runs of packets that arrived back to back with
/// consecutive sequence numbers and equal delay, 16 bytes a run: between
/// handoffs a CBR flow's packets arrive in order with the same delay, so
/// the record grows with the number of delay changes, not with the
/// number of packets. [`UdpSink::delays`] expands them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UdpSink {
    /// The flow this sink terminates.
    pub flow: FlowId,
    received: u64,
    duplicate: u64,
    /// The distinct arrivals in arrival order, as runs; read them with
    /// [`UdpSink::delays`].
    runs: Vec<DelayRun>,
    /// When the latest distinct packet arrived.
    pub last_arrival: Option<SimTime>,
    /// Bit `seq` is set once `seq` has arrived; CBR sequence numbers are
    /// dense from zero, so the bitmap stays at one bit per packet sent.
    seen: Vec<u64>,
}

/// Packets that arrived back to back with consecutive sequence numbers
/// and equal delay: the first sequence number, and one word holding the
/// delay in nanoseconds in the low 48 bits (2^48 ns is 78 simulated
/// hours) and the run length in the high 16. A run that reaches
/// `u16::MAX` packets is closed and the next packet starts a new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DelayRun {
    first: u64,
    packed: u64,
}

impl DelayRun {
    const DELAY_BITS: u32 = 48;
    const DELAY_MASK: u64 = (1 << Self::DELAY_BITS) - 1;
    const ONE: u64 = 1 << Self::DELAY_BITS;

    fn new(seq: u64, delay_ns: u64) -> Self {
        assert!(
            delay_ns >> Self::DELAY_BITS == 0,
            "packet {seq}'s delay of {delay_ns} ns is past 2^48 ns"
        );
        DelayRun {
            first: seq,
            packed: Self::ONE | delay_ns,
        }
    }

    fn delay_ns(self) -> u64 {
        self.packed & Self::DELAY_MASK
    }

    fn len(self) -> u64 {
        self.packed >> Self::DELAY_BITS
    }

    /// Appends `seq` if it continues this run with the same delay and the
    /// run has room; returns whether it did.
    fn extend(&mut self, seq: u64, delay_ns: u64) -> bool {
        let len = self.len();
        let fits = seq.checked_sub(self.first) == Some(len)
            && delay_ns == self.delay_ns()
            && len < u64::from(u16::MAX);
        if fits {
            self.packed += Self::ONE;
        }
        fits
    }
}

impl UdpSink {
    /// Creates a sink for `flow`.
    #[must_use]
    pub fn new(flow: FlowId) -> Self {
        UdpSink {
            flow,
            ..UdpSink::default()
        }
    }

    /// Consumes an arrival. Packets of other flows are ignored; duplicate
    /// sequence numbers are counted separately.
    #[inline]
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        if pkt.flow != self.flow {
            return;
        }
        let word = usize::try_from(pkt.seq / 64).expect("sequence number fits the bitmap");
        let bit = 1u64 << (pkt.seq % 64);
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & bit != 0 {
            self.duplicate += 1;
            return;
        }
        self.seen[word] |= bit;
        self.received += 1;
        let delay = now.saturating_since(pkt.created).as_nanos();
        if !self
            .runs
            .last_mut()
            .is_some_and(|run| run.extend(pkt.seq, delay))
        {
            self.runs.push(DelayRun::new(pkt.seq, delay));
        }
        self.last_arrival = Some(now);
    }

    /// `(sequence, end-to-end delay)` per distinct packet received, in
    /// arrival order: the raw material of the Fig 4.7–4.10 delay plots.
    pub fn delays(&self) -> impl Iterator<Item = (u64, SimDuration)> + '_ {
        self.runs.iter().flat_map(|run| {
            let delay = SimDuration::from_nanos(run.delay_ns());
            (run.first..run.first + run.len()).map(move |seq| (seq, delay))
        })
    }

    /// `true` if `seq` has arrived.
    fn has(&self, seq: u64) -> bool {
        usize::try_from(seq / 64)
            .ok()
            .and_then(|word| self.seen.get(word))
            .is_some_and(|w| w & 1 << (seq % 64) != 0)
    }

    /// Distinct packets received.
    #[must_use]
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Duplicate arrivals (should stay zero in a correct run).
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicate
    }

    /// Losses given how many packets the source emitted.
    ///
    /// # Panics
    ///
    /// Panics if `sent` is smaller than the number received (accounting
    /// mismatch — the caller paired the wrong source and sink).
    #[must_use]
    pub fn losses(&self, sent: u64) -> u64 {
        assert!(
            sent >= self.received,
            "sink saw more packets than the source sent"
        );
        sent - self.received
    }

    /// Mean end-to-end delay over everything received.
    #[must_use]
    pub fn mean_delay(&self) -> Option<SimDuration> {
        if self.received == 0 {
            return None;
        }
        let total: u64 = self.runs.iter().map(|r| r.delay_ns() * r.len()).sum();
        Some(SimDuration::from_nanos(total / self.received))
    }

    /// Largest observed end-to-end delay.
    #[must_use]
    pub fn max_delay(&self) -> Option<SimDuration> {
        self.runs
            .iter()
            .map(|r| SimDuration::from_nanos(r.delay_ns()))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv6Addr, Ipv6Addr) {
        (
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
        )
    }

    #[test]
    fn audio_presets_match_the_thesis() {
        let (s, d) = addrs();
        let a = CbrSource::audio_64k(FlowId(1), s, d, ServiceClass::RealTime);
        assert_eq!(a.size, 160);
        assert_eq!(a.interval, SimDuration::from_millis(20));
    }

    #[test]
    fn sequence_numbers_are_consecutive() {
        let (s, d) = addrs();
        let mut src = CbrSource::audio_64k(FlowId(1), s, d, ServiceClass::BestEffort);
        for i in 0..10 {
            let p = src.next_packet(SimTime::from_millis(i * 20));
            assert_eq!(p.seq, i);
            assert_eq!(p.size, 160);
        }
        assert_eq!(src.sent(), 10);
    }

    #[test]
    fn sink_counts_losses_by_difference() {
        let (s, d) = addrs();
        let mut src = CbrSource::audio_64k(FlowId(1), s, d, ServiceClass::BestEffort);
        let mut sink = UdpSink::new(FlowId(1));
        for i in 0..10u64 {
            let p = src.next_packet(SimTime::from_millis(i * 20));
            if i % 3 != 0 {
                sink.on_packet(SimTime::from_millis(i * 20 + 5), &p);
            }
        }
        assert_eq!(sink.received(), 6);
        assert_eq!(sink.losses(src.sent()), 4);
    }

    #[test]
    fn delay_accounting() {
        let (s, d) = addrs();
        let mut src = CbrSource::audio_64k(FlowId(1), s, d, ServiceClass::RealTime);
        let mut sink = UdpSink::new(FlowId(1));
        let p = src.next_packet(SimTime::from_millis(100));
        sink.on_packet(SimTime::from_millis(112), &p);
        assert_eq!(sink.mean_delay(), Some(SimDuration::from_millis(12)));
        assert_eq!(sink.max_delay(), Some(SimDuration::from_millis(12)));
    }

    #[test]
    fn duplicates_and_foreign_flows_filtered() {
        let (s, d) = addrs();
        let mut src = CbrSource::audio_64k(FlowId(1), s, d, ServiceClass::RealTime);
        let mut other = CbrSource::audio_64k(FlowId(2), s, d, ServiceClass::RealTime);
        let mut sink = UdpSink::new(FlowId(1));
        let p = src.next_packet(SimTime::ZERO);
        sink.on_packet(SimTime::from_millis(1), &p);
        sink.on_packet(SimTime::from_millis(2), &p); // duplicate
        sink.on_packet(SimTime::from_millis(3), &other.next_packet(SimTime::ZERO));
        assert_eq!(sink.received(), 1);
        assert_eq!(sink.duplicates(), 1);
    }

    #[test]
    #[should_panic(expected = "more packets")]
    fn loss_accounting_mismatch_panics() {
        let (s, d) = addrs();
        let mut src = CbrSource::audio_64k(FlowId(1), s, d, ServiceClass::RealTime);
        let mut sink = UdpSink::new(FlowId(1));
        let p = src.next_packet(SimTime::ZERO);
        sink.on_packet(SimTime::ZERO, &p);
        let _ = sink.losses(0);
    }

    use proptest::prelude::*;

    proptest! {
        /// The `seen` bitmap against a reference `HashSet` on one arrival
        /// stream with duplicates, reordering and a sparse jump far past
        /// the dense range.
        #[test]
        fn bitmap_dedup_matches_a_reference_set(
            stream in prop::collection::vec(
                prop_oneof![0u64..300, 99_990u64..100_010],
                1..400,
            ),
        ) {
            let (s, d) = addrs();
            let mut sink = UdpSink::new(FlowId(1));
            let mut seen = std::collections::HashSet::new();
            let mut delays = Vec::new();
            let mut duplicates = 0;
            let mut last_new = None;
            for (i, &seq) in stream.iter().enumerate() {
                let now = SimTime::from_millis(1_000 + i as u64);
                let created = SimTime::from_millis(seq % 1_000);
                let pkt = Packet::data(FlowId(1), seq, s, d, ServiceClass::RealTime, 160, created);
                sink.on_packet(now, &pkt);
                if seen.insert(seq) {
                    delays.push((seq, now.saturating_since(created)));
                    last_new = Some(now);
                } else {
                    duplicates += 1;
                }
            }
            prop_assert_eq!(sink.received(), seen.len() as u64);
            prop_assert_eq!(sink.duplicates(), duplicates);
            prop_assert_eq!(sink.delays().collect::<Vec<_>>(), delays);
            prop_assert_eq!(sink.last_arrival, last_new);
        }
    }
}
