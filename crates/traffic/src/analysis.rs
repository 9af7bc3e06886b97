//! Flow-quality analysis: jitter, loss bursts, delay percentiles.
//!
//! [`FlowReport`] condenses a [`UdpSink`](crate::UdpSink)'s delay runs
//! and arrival bitmap into the numbers a media-quality evaluation
//! reports: RFC 3550 interarrival jitter, the longest consecutive loss
//! burst (what a codec's concealment actually has to survive), and delay
//! percentiles.
//!
//! # Examples
//!
//! ```
//! use fh_net::{FlowId, ServiceClass};
//! use fh_sim::{SimDuration, SimTime};
//! use fh_traffic::{CbrSource, FlowReport, UdpSink};
//!
//! let src = "2001:db8::1".parse().unwrap();
//! let dst = "2001:db8::2".parse().unwrap();
//! let mut cbr = CbrSource::audio_64k(FlowId(1), src, dst, ServiceClass::RealTime);
//! let mut sink = UdpSink::new(FlowId(1));
//! for i in 0..50 {
//!     let p = cbr.next_packet(SimTime::from_millis(i * 20));
//!     if i != 7 && i != 8 {               // a 2-packet loss burst
//!         sink.on_packet(SimTime::from_millis(i * 20 + 15), &p);
//!     }
//! }
//! let report = FlowReport::from_sink(&sink, cbr.sent());
//! assert_eq!(report.lost, 2);
//! assert_eq!(report.longest_loss_burst, 2);
//! assert!(report.jitter < SimDuration::from_millis(1)); // perfectly regular
//! ```

use serde::{Deserialize, Serialize};

use fh_sim::SimDuration;

use crate::{DelayRun, UdpSink};

/// A condensed quality report for one flow.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowReport {
    /// Packets the source emitted.
    pub sent: u64,
    /// Distinct packets that arrived.
    pub received: u64,
    /// Packets lost.
    pub lost: u64,
    /// Longest run of consecutive sequence numbers lost.
    pub longest_loss_burst: u64,
    /// Number of distinct loss episodes (maximal runs of missing seqs).
    pub loss_bursts: u64,
    /// Mean end-to-end delay.
    pub mean_delay: SimDuration,
    /// Median end-to-end delay.
    pub p50_delay: SimDuration,
    /// 99th-percentile end-to-end delay.
    pub p99_delay: SimDuration,
    /// Largest end-to-end delay.
    pub max_delay: SimDuration,
    /// RFC 3550 §6.4.1 interarrival jitter (smoothed |ΔD|).
    pub jitter: SimDuration,
}

impl FlowReport {
    /// Builds a report from a sink and the source's emitted count.
    ///
    /// # Panics
    ///
    /// Panics if `sent` is smaller than the number the sink received (the
    /// caller paired the wrong source and sink).
    #[must_use]
    pub fn from_sink(sink: &UdpSink, sent: u64) -> Self {
        let received = sink.received();
        let lost = sink.losses(sent);

        // Loss bursts over the sequence space [0, sent).
        let mut longest = 0u64;
        let mut bursts = 0u64;
        let mut run = 0u64;
        for seq in 0..sent {
            if sink.has(seq) {
                if run > 0 {
                    bursts += 1;
                    longest = longest.max(run);
                }
                run = 0;
            } else {
                run += 1;
            }
        }
        if run > 0 {
            bursts += 1;
            longest = longest.max(run);
        }

        // Delay percentiles: the sample of rank round((n - 1) q) in
        // ascending order.
        let rank = |q: f64| (received.saturating_sub(1) as f64 * q).round() as u64;
        let [p50, p99] = ranked_delays(sink, [rank(0.50), rank(0.99)]);

        // RFC 3550 interarrival jitter: J += (|D(i-1, i)| - J) / 16, with
        // D the difference of one-way delays of consecutive arrivals.
        let mut jitter_ns: f64 = 0.0;
        let mut prev: Option<u64> = None;
        for (_, d) in sink.delays() {
            let d = d.as_nanos();
            if let Some(p) = prev {
                let diff = p.abs_diff(d) as f64;
                jitter_ns += (diff - jitter_ns) / 16.0;
            }
            prev = Some(d);
        }

        FlowReport {
            sent,
            received,
            lost,
            longest_loss_burst: longest,
            loss_bursts: bursts,
            mean_delay: sink.mean_delay().unwrap_or(SimDuration::ZERO),
            p50_delay: p50,
            p99_delay: p99,
            max_delay: sink.max_delay().unwrap_or(SimDuration::ZERO),
            jitter: SimDuration::from_nanos(jitter_ns.round() as u64),
        }
    }

    /// Loss ratio in `[0, 1]`.
    #[must_use]
    pub fn loss_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }
}

/// The delays of ascending `ranks` (0-based, in ascending delay order)
/// among everything `sink` received; zero for an empty sink. Sorts a copy
/// of the runs' packed words, 8 bytes a run, by delay.
fn ranked_delays<const N: usize>(sink: &UdpSink, ranks: [u64; N]) -> [SimDuration; N] {
    let mut out = [SimDuration::ZERO; N];
    let mut words: Vec<u64> = sink.runs.iter().map(|run| run.packed).collect();
    words.sort_unstable_by_key(|&w| w & DelayRun::DELAY_MASK);
    let (mut below, mut k) = (0, 0);
    for w in words {
        below += w >> DelayRun::DELAY_BITS;
        while k < N && ranks[k] < below {
            out[k] = SimDuration::from_nanos(w & DelayRun::DELAY_MASK);
            k += 1;
        }
    }
    out
}

impl std::fmt::Display for FlowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sent {} lost {} ({:.2}%), worst burst {}, delay p50/p99/max {}/{}/{}, jitter {}",
            self.sent,
            self.lost,
            self.loss_ratio() * 100.0,
            self.longest_loss_burst,
            self.p50_delay,
            self.p99_delay,
            self.max_delay,
            self.jitter
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fh_net::{FlowId, ServiceClass};
    use fh_sim::SimTime;

    use crate::CbrSource;

    fn addrs() -> (std::net::Ipv6Addr, std::net::Ipv6Addr) {
        (
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
        )
    }

    fn run(loss: &[u64], delay_ms: impl Fn(u64) -> u64, n: u64) -> FlowReport {
        let (s, d) = addrs();
        let mut cbr = CbrSource::audio_64k(FlowId(1), s, d, ServiceClass::RealTime);
        let mut sink = UdpSink::new(FlowId(1));
        for i in 0..n {
            let p = cbr.next_packet(SimTime::from_millis(i * 20));
            if !loss.contains(&i) {
                sink.on_packet(SimTime::from_millis(i * 20 + delay_ms(i)), &p);
            }
        }
        FlowReport::from_sink(&sink, cbr.sent())
    }

    #[test]
    fn clean_flow_has_zero_everything() {
        let r = run(&[], |_| 15, 100);
        assert_eq!(r.lost, 0);
        assert_eq!(r.loss_bursts, 0);
        assert_eq!(r.longest_loss_burst, 0);
        assert_eq!(r.mean_delay, SimDuration::from_millis(15));
        assert_eq!(r.p50_delay, SimDuration::from_millis(15));
        assert_eq!(r.p99_delay, SimDuration::from_millis(15));
        assert_eq!(r.jitter, SimDuration::ZERO);
        assert_eq!(r.loss_ratio(), 0.0);
    }

    #[test]
    fn burst_accounting() {
        // Two bursts: {3}, {10, 11, 12}.
        let r = run(&[3, 10, 11, 12], |_| 15, 50);
        assert_eq!(r.lost, 4);
        assert_eq!(r.loss_bursts, 2);
        assert_eq!(r.longest_loss_burst, 3);
    }

    #[test]
    fn tail_loss_counts_as_a_burst() {
        let r = run(&[48, 49], |_| 15, 50);
        assert_eq!(r.loss_bursts, 1);
        assert_eq!(r.longest_loss_burst, 2);
    }

    #[test]
    fn percentiles_order_correctly() {
        // One packet in a hundred suffers a 200 ms buffering delay.
        let r = run(&[], |i| if i == 42 { 200 } else { 15 }, 100);
        assert_eq!(r.p50_delay, SimDuration::from_millis(15));
        assert_eq!(r.max_delay, SimDuration::from_millis(200));
        assert!(r.p99_delay <= r.max_delay);
        assert!(r.mean_delay > SimDuration::from_millis(15));
    }

    #[test]
    fn jitter_tracks_delay_variation() {
        let steady = run(&[], |_| 15, 200);
        let wobbly = run(&[], |i| 15 + (i % 2) * 10, 200);
        assert!(wobbly.jitter > steady.jitter);
        // The RFC filter converges toward the mean |ΔD| = 10 ms.
        assert!(wobbly.jitter > SimDuration::from_millis(5));
        assert!(wobbly.jitter < SimDuration::from_millis(11));
    }

    #[test]
    fn display_is_informative() {
        let r = run(&[5], |_| 15, 10);
        let s = r.to_string();
        assert!(s.contains("lost 1"));
        assert!(s.contains("burst 1"));
    }

    /// The per-packet algorithm `from_sink` replaced: loss bursts from a
    /// `bool` per sequence number, percentiles and mean from a sorted
    /// copy of every delay, jitter filtered over the arrival order.
    fn reference_report(delays: &[(u64, SimDuration)], sent: u64) -> FlowReport {
        let mut seen = vec![false; sent as usize];
        for &(seq, _) in delays {
            if let Some(slot) = seen.get_mut(seq as usize) {
                *slot = true;
            }
        }
        let (mut longest, mut bursts, mut run) = (0, 0, 0);
        for got in seen {
            if got {
                if run > 0 {
                    bursts += 1;
                    longest = longest.max(run);
                }
                run = 0;
            } else {
                run += 1;
            }
        }
        if run > 0 {
            bursts += 1;
            longest = longest.max(run);
        }
        let mut sorted: Vec<u64> = delays.iter().map(|&(_, d)| d.as_nanos()).collect();
        sorted.sort_unstable();
        let pick = |q: f64| -> SimDuration {
            if sorted.is_empty() {
                return SimDuration::ZERO;
            }
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            SimDuration::from_nanos(sorted[idx])
        };
        let mean = if sorted.is_empty() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(sorted.iter().sum::<u64>() / sorted.len() as u64)
        };
        let mut jitter_ns: f64 = 0.0;
        for w in delays.windows(2) {
            let diff = w[0].1.as_nanos().abs_diff(w[1].1.as_nanos()) as f64;
            jitter_ns += (diff - jitter_ns) / 16.0;
        }
        let received = delays.len() as u64;
        FlowReport {
            sent,
            received,
            lost: sent - received,
            longest_loss_burst: longest,
            loss_bursts: bursts,
            mean_delay: mean,
            p50_delay: pick(0.50),
            p99_delay: pick(0.99),
            max_delay: pick(1.0),
            jitter: SimDuration::from_nanos(jitter_ns.round() as u64),
        }
    }

    /// Feeds `(seq, delay in µs)` arrivals to a sink and to a reference
    /// per-packet list that keeps each sequence number's first arrival.
    fn feed(arrivals: &[(u64, u64)]) -> (UdpSink, Vec<(u64, SimDuration)>) {
        let (s, d) = addrs();
        let mut sink = UdpSink::new(FlowId(1));
        let mut firsts = std::collections::HashSet::new();
        let mut reference = Vec::new();
        for &(seq, delay_us) in arrivals {
            let created = SimTime::from_millis(seq * 10);
            let now = created + SimDuration::from_micros(delay_us);
            let pkt = Packet::data(FlowId(1), seq, s, d, ServiceClass::RealTime, 160, created);
            sink.on_packet(now, &pkt);
            if firsts.insert(seq) {
                reference.push((seq, now - created));
            }
        }
        (sink, reference)
    }

    #[test]
    fn a_stretch_past_the_run_length_limit_splits_and_expands_exactly() {
        let n = 3 * u64::from(u16::MAX) + 7;
        let arrivals: Vec<(u64, u64)> = (0..n).map(|seq| (seq, 15_000)).collect();
        let (sink, reference) = feed(&arrivals);
        assert_eq!(sink.runs.len(), 4);
        assert!(sink.runs[..3]
            .iter()
            .all(|r| r.len() == u64::from(u16::MAX)));
        assert_eq!(sink.runs[3].len(), 7);
        assert!(sink.delays().eq(reference.iter().copied()));
        assert_eq!(
            FlowReport::from_sink(&sink, n + 2),
            reference_report(&reference, n + 2)
        );
    }

    use fh_net::Packet;
    use proptest::prelude::*;

    /// One stretch of an arrival stream.
    #[derive(Debug, Clone, Copy)]
    enum Stretch {
        /// `len` in-order packets, all with one delay.
        Steady(u64, u64),
        /// `len` in-order packets whose delays change packet to packet.
        Wobbly(u64, u64),
        /// Skip `len` sequence numbers (a loss burst, or a hole a later
        /// reordered packet fills).
        Gap(u64),
        /// One packet `back` sequence numbers behind the cursor: a
        /// duplicate, or a late packet filling a gap.
        Late(u64, u64),
    }

    fn stretch() -> impl Strategy<Value = Stretch> {
        prop_oneof![
            (1u64..400, 0u64..4).prop_map(|(len, d)| Stretch::Steady(len, 10_000 + d * 7_000)),
            (1u64..20, 0u64..50_000).prop_map(|(len, d)| Stretch::Wobbly(len, d)),
            (1u64..30).prop_map(Stretch::Gap),
            (1u64..40, 0u64..3).prop_map(|(back, d)| Stretch::Late(back, 10_000 + d * 7_000)),
        ]
    }

    proptest! {
        /// Runs expand to exactly the per-packet record, and the report
        /// read from runs and bitmap equals the copy-and-sort algorithm
        /// over that record.
        #[test]
        fn runs_match_the_per_packet_record(
            stretches in prop::collection::vec(stretch(), 0..40),
            tail_loss in 0u64..5,
        ) {
            let mut arrivals = Vec::new();
            let mut cursor = 0u64;
            for s in stretches {
                match s {
                    Stretch::Steady(len, d) => {
                        arrivals.extend((cursor..cursor + len).map(|seq| (seq, d)));
                        cursor += len;
                    }
                    Stretch::Wobbly(len, d) => {
                        arrivals.extend((cursor..cursor + len).map(|seq| (seq, d + seq % 3 * 1_000)));
                        cursor += len;
                    }
                    Stretch::Gap(len) => cursor += len,
                    Stretch::Late(back, d) => arrivals.push((cursor.saturating_sub(back), d)),
                }
            }
            let (sink, reference) = feed(&arrivals);
            let sent = cursor.max(arrivals.iter().map(|&(seq, _)| seq + 1).max().unwrap_or(0)) + tail_loss;
            prop_assert_eq!(sink.received(), reference.len() as u64);
            prop_assert_eq!(sink.delays().collect::<Vec<_>>(), reference.clone());
            prop_assert_eq!(FlowReport::from_sink(&sink, sent), reference_report(&reference, sent));
        }
    }
}
