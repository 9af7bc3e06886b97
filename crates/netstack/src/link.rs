//! Point-to-point duplex links with bandwidth, propagation delay and a
//! drop-tail queue.
//!
//! A link connects two nodes and carries traffic independently in each
//! direction. Transmission is serialized: each direction remembers until when
//! its transmitter is busy, so a packet handed to a busy link queues behind
//! the backlog. The queue is drop-tail with a configurable limit, estimated
//! in packets of the size currently being sent (the classic fluid
//! approximation used by packet-level simulators for FIFO links).
//!
//! # Examples
//!
//! ```
//! use fh_net::{LinkSpec, Link};
//! use fh_sim::{SimDuration, SimTime};
//!
//! let spec = LinkSpec::new(8_000_000, SimDuration::from_millis(2), 50);
//! // 1000-byte packet on 8 Mb/s: 1 ms serialization + 2 ms propagation.
//! assert_eq!(spec.tx_time(1000), SimDuration::from_millis(1));
//! ```

use fh_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::fault::{FaultSpec, FaultState, FaultVerdict};
use crate::topology::NodeId;

/// Identifies a link within a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub usize);

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// Static parameters of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Drop-tail queue limit, in packets waiting behind the one in service.
    pub queue_limit: usize,
}

impl LinkSpec {
    /// Creates a link specification.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    #[must_use]
    pub fn new(bandwidth_bps: u64, delay: SimDuration, queue_limit: usize) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        LinkSpec {
            bandwidth_bps,
            delay,
            queue_limit,
        }
    }

    /// Serialization time for `bytes` on this link, rounded up to a
    /// nanosecond (so it is never zero for a non-empty packet).
    #[must_use]
    #[inline]
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        serialization_time(bytes, self.bandwidth_bps)
    }
}

/// Time to clock `bytes` onto a `bandwidth_bps` channel, rounded up to a
/// nanosecond (never zero) and saturating at [`SimDuration::MAX`]. Wired
/// links and radio channels share it.
///
/// # Panics
///
/// Panics if `bandwidth_bps` is zero.
#[must_use]
#[inline]
pub fn serialization_time(bytes: u32, bandwidth_bps: u64) -> SimDuration {
    let bits = u64::from(bytes) * 8;
    let ns = match bits.checked_mul(1_000_000_000) {
        Some(bit_ns) => bit_ns.div_ceil(bandwidth_bps),
        // bits * 1e9 leaves u64 above 2 305 843 009 bytes; only such jumbo
        // frames pay for the u128 division, and on a slow enough channel
        // they saturate, which is still the right answer there.
        None => {
            let ns = (u128::from(bits) * 1_000_000_000).div_ceil(u128::from(bandwidth_bps));
            u64::try_from(ns).unwrap_or(u64::MAX)
        }
    };
    SimDuration::from_nanos(ns.max(1))
}

/// Why a link refused a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkError {
    /// The drop-tail queue for this direction is full.
    QueueFull,
    /// The sending node is not an endpoint of this link.
    NotAttached,
    /// The fault-injection layer discarded the packet at link entry.
    Faulted,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::QueueFull => f.write_str("link queue full"),
            LinkError::NotAttached => f.write_str("node not attached to link"),
            LinkError::Faulted => f.write_str("packet lost to fault injection"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Run-time state of one duplex link.
#[derive(Debug, Clone)]
pub struct Link {
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Static parameters.
    pub spec: LinkSpec,
    busy_until: [SimTime; 2],
    drops: [u64; 2],
    transmitted: [u64; 2],
    fault_drops: [u32; 2],
    faults: [Option<Box<FaultState>>; 2],
    pending_dup: [Option<SimTime>; 2],
}

impl Link {
    /// Creates an idle link between `a` and `b`.
    #[must_use]
    pub fn new(a: NodeId, b: NodeId, spec: LinkSpec) -> Self {
        Link {
            a,
            b,
            spec,
            busy_until: [SimTime::ZERO; 2],
            drops: [0; 2],
            transmitted: [0; 2],
            fault_drops: [0; 2],
            faults: [None, None],
            pending_dup: [None, None],
        }
    }

    /// Fault injection: silently discard the next `n` packets sent from
    /// `from` on this link (for protocol-robustness tests — a targeted
    /// stand-in for bit errors or transient congestion).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    pub fn inject_drops(&mut self, from: NodeId, n: u32) {
        let dir = self.dir_from(from).expect("node attached to link");
        self.fault_drops[dir] += n;
    }

    /// Installs a seeded fault model on the `from` → peer direction.
    ///
    /// Seed per direction via [`fh_sim::derive_seed`] from the scenario seed
    /// so decisions stay independent of traffic on other links.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    pub fn set_fault(&mut self, from: NodeId, spec: FaultSpec, seed: u64) {
        let dir = self.dir_from(from).expect("node attached to link");
        self.faults[dir] = if spec.is_noop() {
            None
        } else {
            Some(Box::new(FaultState::new(spec, seed)))
        };
    }

    /// The fault spec active on the `from` → peer direction, if any.
    #[must_use]
    pub fn fault_spec(&self, from: NodeId) -> Option<&FaultSpec> {
        let dir = self.dir_from(from)?;
        self.faults[dir].as_deref().map(FaultState::spec)
    }

    /// Takes the arrival time of a fault-injected duplicate of the packet
    /// most recently accepted from `from`, if the fault layer created one.
    ///
    /// Callers must drain this after every successful
    /// [`try_transmit`](Self::try_transmit) and schedule a second delivery.
    #[inline]
    pub fn take_duplicate(&mut self, from: NodeId) -> Option<SimTime> {
        let dir = self.dir_from(from)?;
        self.pending_dup[dir].take()
    }

    /// The opposite endpoint, or `None` if `node` is not attached.
    #[must_use]
    #[inline]
    pub fn peer(&self, node: NodeId) -> Option<NodeId> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    fn dir_from(&self, node: NodeId) -> Option<usize> {
        if node == self.a {
            Some(0)
        } else if node == self.b {
            Some(1)
        } else {
            None
        }
    }

    /// Hands a packet of `bytes` to the link for transmission from `from`.
    ///
    /// On success returns the **arrival time** at the peer (queueing +
    /// serialization + propagation).
    ///
    /// # Errors
    ///
    /// [`LinkError::NotAttached`] if `from` is not an endpoint;
    /// [`LinkError::QueueFull`] if the drop-tail queue overflows;
    /// [`LinkError::Faulted`] if the fault layer discarded the packet.
    #[inline]
    pub fn try_transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        bytes: u32,
    ) -> Result<SimTime, LinkError> {
        let dir = self.dir_from(from).ok_or(LinkError::NotAttached)?;
        if self.fault_drops[dir] > 0 {
            self.fault_drops[dir] -= 1;
            self.drops[dir] += 1;
            return Err(LinkError::Faulted);
        }
        let (extra_delay, duplicate) = match self.faults[dir].as_mut() {
            Some(fault) => match fault.decide(now) {
                FaultVerdict::Drop => {
                    self.drops[dir] += 1;
                    return Err(LinkError::Faulted);
                }
                FaultVerdict::Pass {
                    extra_delay,
                    duplicate,
                } => (extra_delay, duplicate),
            },
            None => (SimDuration::ZERO, false),
        };
        let tx = self.spec.tx_time(bytes);
        let backlog = self.busy_until[dir].saturating_since(now);
        // Packets currently waiting, in units of this packet's service time.
        let queued = backlog.as_nanos().div_ceil(tx.as_nanos());
        if queued > self.spec.queue_limit as u64 {
            self.drops[dir] += 1;
            return Err(LinkError::QueueFull);
        }
        let start = if self.busy_until[dir] > now {
            self.busy_until[dir]
        } else {
            now
        };
        self.busy_until[dir] = start + tx;
        self.transmitted[dir] += 1;
        let arrival = self.busy_until[dir] + self.spec.delay + extra_delay;
        if duplicate {
            // The copy serializes right behind the original if the queue
            // still has room; otherwise the duplication silently fizzles.
            let dup_backlog = self.busy_until[dir].saturating_since(now);
            if dup_backlog.as_nanos().div_ceil(tx.as_nanos()) <= self.spec.queue_limit as u64 {
                self.busy_until[dir] += tx;
                self.transmitted[dir] += 1;
                self.pending_dup[dir] = Some(self.busy_until[dir] + self.spec.delay + extra_delay);
            }
        }
        Ok(arrival)
    }

    /// Packets dropped at the queue, per direction (`[a→b, b→a]`).
    #[must_use]
    pub fn drops(&self) -> [u64; 2] {
        self.drops
    }

    /// Packets accepted for transmission, per direction (`[a→b, b→a]`).
    #[must_use]
    pub fn transmitted(&self) -> [u64; 2] {
        self.transmitted
    }

    /// When the transmitter from `node` becomes idle (`None` if detached).
    #[must_use]
    pub fn busy_until(&self, node: NodeId) -> Option<SimTime> {
        self.dir_from(node).map(|d| self.busy_until[d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fh_sim::Simulator;

    fn nodes() -> (NodeId, NodeId, NodeId) {
        // Obtain distinct ActorIds the supported way: a scratch simulator.
        struct Nop;
        impl fh_sim::Actor<(), ()> for Nop {
            fn handle(&mut self, _: &mut fh_sim::Ctx<'_, (), ()>, _: ()) {}
        }
        let mut sim: Simulator<(), ()> = Simulator::new((), 0);
        (
            sim.add_actor(Box::new(Nop)),
            sim.add_actor(Box::new(Nop)),
            sim.add_actor(Box::new(Nop)),
        )
    }

    fn mbps(m: u64) -> u64 {
        m * 1_000_000
    }

    #[test]
    fn tx_time_math() {
        let spec = LinkSpec::new(mbps(8), SimDuration::ZERO, 10);
        assert_eq!(spec.tx_time(1000), SimDuration::from_millis(1));
        assert_eq!(spec.tx_time(0), SimDuration::from_nanos(1));
    }

    #[test]
    fn idle_link_delivers_after_tx_plus_delay() {
        let (a, b, _) = nodes();
        let mut l = Link::new(
            a,
            b,
            LinkSpec::new(mbps(8), SimDuration::from_millis(2), 10),
        );
        let arr = l.try_transmit(SimTime::ZERO, a, 1000).unwrap();
        assert_eq!(arr, SimTime::from_millis(3));
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let (a, b, _) = nodes();
        let mut l = Link::new(
            a,
            b,
            LinkSpec::new(mbps(8), SimDuration::from_millis(2), 10),
        );
        let t0 = SimTime::ZERO;
        let first = l.try_transmit(t0, a, 1000).unwrap();
        let second = l.try_transmit(t0, a, 1000).unwrap();
        assert_eq!(first, SimTime::from_millis(3));
        assert_eq!(second, SimTime::from_millis(4)); // queued behind the first
    }

    #[test]
    fn directions_are_independent() {
        let (a, b, _) = nodes();
        let mut l = Link::new(
            a,
            b,
            LinkSpec::new(mbps(8), SimDuration::from_millis(2), 10),
        );
        let t0 = SimTime::ZERO;
        let ab = l.try_transmit(t0, a, 1000).unwrap();
        let ba = l.try_transmit(t0, b, 1000).unwrap();
        assert_eq!(ab, ba); // no cross-direction queueing
    }

    #[test]
    fn queue_limit_drops_tail() {
        let (a, b, _) = nodes();
        let mut l = Link::new(a, b, LinkSpec::new(mbps(8), SimDuration::ZERO, 2));
        let t0 = SimTime::ZERO;
        assert!(l.try_transmit(t0, a, 1000).is_ok()); // in service
        assert!(l.try_transmit(t0, a, 1000).is_ok()); // queued (1)
        assert!(l.try_transmit(t0, a, 1000).is_ok()); // queued (2)
        assert_eq!(l.try_transmit(t0, a, 1000), Err(LinkError::QueueFull));
        assert_eq!(l.drops(), [1, 0]);
        assert_eq!(l.transmitted(), [3, 0]);
    }

    #[test]
    fn queue_drains_over_time() {
        let (a, b, _) = nodes();
        let mut l = Link::new(a, b, LinkSpec::new(mbps(8), SimDuration::ZERO, 0));
        assert!(l.try_transmit(SimTime::ZERO, a, 1000).is_ok());
        assert!(l.try_transmit(SimTime::ZERO, a, 1000).is_err()); // zero queue
                                                                  // After the first finishes (1 ms), the link is free again.
        assert!(l.try_transmit(SimTime::from_millis(1), a, 1000).is_ok());
    }

    #[test]
    fn foreign_node_is_rejected() {
        let (a, b, c) = nodes();
        let mut l = Link::new(a, b, LinkSpec::new(mbps(1), SimDuration::ZERO, 1));
        assert_eq!(
            l.try_transmit(SimTime::ZERO, c, 100),
            Err(LinkError::NotAttached)
        );
        assert_eq!(l.peer(a), Some(b));
        assert_eq!(l.peer(b), Some(a));
        assert_eq!(l.peer(c), None);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        let _ = LinkSpec::new(0, SimDuration::ZERO, 1);
    }

    #[test]
    fn tx_time_survives_u64_boundary() {
        // u32::MAX bytes = ~34.4 Gbit; times 1e9 overflows u64 (~1.8e19).
        // On a 1 bit/s link the true answer saturates SimDuration::MAX.
        let slow = LinkSpec::new(1, SimDuration::ZERO, 1);
        assert_eq!(slow.tx_time(u32::MAX), SimDuration::MAX);
        // And a representable boundary case stays exact: 4 GiB at 8 Mb/s.
        let spec = LinkSpec::new(mbps(8), SimDuration::ZERO, 1);
        let bytes = u32::MAX;
        let want = (u128::from(bytes) * 8 * 1_000_000_000).div_ceil(8_000_000) as u64;
        assert_eq!(spec.tx_time(bytes), SimDuration::from_nanos(want));
    }

    #[test]
    fn serialization_time_matches_u128_formula_across_the_u64_boundary() {
        // 2 305 843 009 bytes is the last size whose bits * 1e9 fits u64.
        const LAST_FIT: u32 = 2_305_843_009;
        assert!((u64::from(LAST_FIT) * 8)
            .checked_mul(1_000_000_000)
            .is_some());
        assert!((u64::from(LAST_FIT + 1) * 8)
            .checked_mul(1_000_000_000)
            .is_none());
        for bps in [1, 64_000, mbps(10)] {
            for bytes in [0, 1, 1500, LAST_FIT - 1, LAST_FIT, LAST_FIT + 1, u32::MAX] {
                let ns = (u128::from(bytes) * 8 * 1_000_000_000).div_ceil(u128::from(bps));
                let want = u64::try_from(ns).unwrap_or(u64::MAX).max(1);
                assert_eq!(
                    serialization_time(bytes, bps),
                    SimDuration::from_nanos(want),
                    "{bytes} bytes at {bps} b/s"
                );
            }
        }
    }

    #[test]
    fn transmit_saturates_instead_of_wrapping_the_arrival() {
        // A 4 GiB frame on a 1 bit/s link takes longer than the clock can
        // hold; it must arrive at the end of time, not 1 ms from now.
        let (a, b, _) = nodes();
        let mut l = Link::new(a, b, LinkSpec::new(1, SimDuration::from_millis(1), 10));
        assert_eq!(
            l.try_transmit(SimTime::from_secs(1), a, u32::MAX),
            Ok(SimTime::MAX)
        );
    }

    #[test]
    fn counted_injected_drops_report_faulted() {
        let (a, b, _) = nodes();
        let mut l = Link::new(a, b, LinkSpec::new(mbps(8), SimDuration::ZERO, 10));
        l.inject_drops(a, 1);
        assert_eq!(
            l.try_transmit(SimTime::ZERO, a, 100),
            Err(LinkError::Faulted)
        );
        assert!(l.try_transmit(SimTime::ZERO, a, 100).is_ok());
        assert_eq!(l.drops(), [1, 0]);
    }

    #[test]
    fn full_loss_fault_drops_every_packet() {
        let (a, b, _) = nodes();
        let mut l = Link::new(a, b, LinkSpec::new(mbps(8), SimDuration::ZERO, 10));
        l.set_fault(a, crate::FaultSpec::with_loss(1.0), 7);
        for i in 0..10 {
            assert_eq!(
                l.try_transmit(SimTime::from_millis(i), a, 100),
                Err(LinkError::Faulted)
            );
        }
        assert_eq!(l.drops(), [10, 0]);
        // The reverse direction is untouched.
        assert!(l.try_transmit(SimTime::ZERO, b, 100).is_ok());
    }

    #[test]
    fn noop_fault_spec_uninstalls() {
        let (a, b, _) = nodes();
        let mut l = Link::new(a, b, LinkSpec::new(mbps(8), SimDuration::ZERO, 10));
        l.set_fault(a, crate::FaultSpec::with_loss(1.0), 7);
        assert!(l.fault_spec(a).is_some());
        l.set_fault(a, crate::FaultSpec::default(), 7);
        assert!(l.fault_spec(a).is_none());
        assert!(l.try_transmit(SimTime::ZERO, a, 100).is_ok());
    }

    #[test]
    fn duplication_schedules_a_second_arrival() {
        let (a, b, _) = nodes();
        let mut l = Link::new(
            a,
            b,
            LinkSpec::new(mbps(8), SimDuration::from_millis(2), 10),
        );
        l.set_fault(a, crate::FaultSpec::default().duplicate(1.0), 3);
        let first = l.try_transmit(SimTime::ZERO, a, 1000).unwrap();
        assert_eq!(first, SimTime::from_millis(3));
        let dup = l.take_duplicate(a).expect("duplicate scheduled");
        assert_eq!(dup, SimTime::from_millis(4)); // serialized right behind
        assert!(l.take_duplicate(a).is_none(), "duplicate is drained once");
        assert_eq!(l.transmitted(), [2, 0]);
    }

    #[test]
    fn jitter_delays_but_never_reorders_service() {
        let (a, b, _) = nodes();
        let mut l = Link::new(
            a,
            b,
            LinkSpec::new(mbps(8), SimDuration::from_millis(2), 10),
        );
        l.set_fault(
            a,
            crate::FaultSpec::default().jitter(SimDuration::from_micros(400)),
            11,
        );
        let base = SimTime::from_millis(3);
        let arr = l.try_transmit(SimTime::ZERO, a, 1000).unwrap();
        assert!(arr >= base && arr <= base + SimDuration::from_micros(400));
    }
}
