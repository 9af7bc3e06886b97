//! One MAP domain as a shard of the metro kernel.
//!
//! A [`Domain`] is a self-contained discrete-event loop over the hosts
//! homed in it: it owns its event set, its RNG lineage (derived with
//! the domain salt so it can never collide with sweep-point or
//! fault-link streams), its [`PacketPool`], and its counters. The only
//! way anything enters or leaves is the epoch executor's mailbox — a
//! [`CrossPacket`] carries the few hot fields a packet needs to survive
//! the crossing (pools are per-domain, so handles cannot travel).
//!
//! The event loop is deliberately leaner than the full protocol fabric:
//! metro-scale runs trade per-packet protocol fidelity for host count,
//! keeping exactly the behaviours the buffer-management comparison
//! needs — blackout windows, per-scheme admission (cap, dual cap,
//! class-aware eviction), paced flush, and per-class delay accounting.

use std::collections::VecDeque;

use fh_core::Scheme;
use fh_net::{doc_subnet, FlowId, Packet, PacketPool, ServiceClass};
use fh_sim::stats::Histogram;
use fh_sim::{derive_domain_seed, LaneQueue, Outbox, Rng64, ShardState, SimDuration, SimTime};

use crate::MetroConfig;

/// Short class labels for artifact columns, in F1–F3 order.
pub const CLASS_LABELS: [&str; 3] = ["rt", "hp", "be"];

/// Fixed access-network latency between a domain's wired side and a
/// host's radio — the floor every delivered packet pays.
pub const ACCESS_LATENCY: SimDuration = SimDuration::from_millis(2);

/// Extra forwarding delay the PAR-only scheme pays per flush: buffered
/// packets sit one router further from the new attachment point, so the
/// smooth-handover draft re-tunnels them across the inter-AR path.
pub const PAR_FORWARD_DELAY: SimDuration = SimDuration::from_millis(8);

/// An empty per-class delay histogram: 0–2 000 ms in 1 ms bins. The
/// per-domain histograms and the run-level ones they merge into must
/// share this shape, so both are built here.
#[must_use]
pub fn delay_histogram() -> Histogram {
    Histogram::new(0.0, 2_000.0, 2_000)
}

// The FIFO lanes of a domain's event set. Each carries one stream that
// is pushed at `now + constant` and is therefore already time-sorted;
// the initial population, `HandoverStart` (exponential dwell) and paced
// `Deliver`s have no such order and go to the heap.
const LANE_GEN: usize = 0;
const LANE_ARRIVE: usize = 1;
const LANE_HANDOVER_END: usize = 2;
/// Boundary arrivals, one time-sorted batch per barrier (see
/// [`Domain::flush_inbox`]).
const LANE_ACCEPT: usize = 3;
const LANES: usize = 4;

/// A packet in flight between domains: the hot fields only, because
/// pools — and therefore handles — do not cross shard boundaries.
#[derive(Debug, Clone, Copy)]
pub struct CrossPacket {
    /// Destination host (global index).
    pub host: u32,
    /// Flow class index (0..3, F1–F3).
    pub class: u8,
    /// On-wire size in bytes.
    pub size: u32,
    /// Per-flow sequence number.
    pub seq: u64,
    /// When the correspondent created the packet.
    pub created: SimTime,
}

/// The per-domain event vocabulary. Every pending event is stored
/// inline in the event set, so this stays at 24 bytes (pinned by a test).
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The correspondent of `host` emits packet `seq` of its flow.
    /// Scheduled in the *source* domain (the home domain for local
    /// flows, the correspondent domain for remote ones).
    Gen { host: u32, seq: u64 },
    /// A packet reaches `host`'s home domain and meets the buffer
    /// scheme (or the host directly). A [`CrossPacket`] minus its size,
    /// which is `cfg.packet_bytes` for every packet.
    Arrive {
        host: u32,
        class: u8,
        seq: u64,
        created: SimTime,
    },
    /// `host` begins a handover: radio goes dark.
    HandoverStart { host: u32 },
    /// `host` completes attachment: flush whatever was buffered.
    HandoverEnd { host: u32 },
    /// A flushed packet, re-paced by the flush spacing, reaches its
    /// host.
    Deliver { class: u8, created: SimTime },
}

/// Per-class deterministic tallies of one domain (or, summed, a run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Packets generated.
    pub generated: [u64; 3],
    /// Packets delivered to their host.
    pub delivered: [u64; 3],
    /// Dropped during a blackout with no buffer (or no admission).
    pub dropped_blackout: [u64; 3],
    /// Dropped because the scheme's buffer cap was reached.
    pub dropped_overflow: [u64; 3],
    /// Best-effort packets evicted by the class-aware matrix to admit
    /// higher classes.
    pub dropped_evicted: [u64; 3],
    /// Still queued or parked when the horizon fell.
    pub dropped_horizon: [u64; 3],
}

impl ClassCounts {
    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: &ClassCounts) {
        for k in 0..3 {
            self.generated[k] += other.generated[k];
            self.delivered[k] += other.delivered[k];
            self.dropped_blackout[k] += other.dropped_blackout[k];
            self.dropped_overflow[k] += other.dropped_overflow[k];
            self.dropped_evicted[k] += other.dropped_evicted[k];
            self.dropped_horizon[k] += other.dropped_horizon[k];
        }
    }

    /// All drops of class `k`, every reason combined.
    #[must_use]
    pub fn drops(&self, k: usize) -> u64 {
        self.dropped_blackout[k]
            + self.dropped_overflow[k]
            + self.dropped_evicted[k]
            + self.dropped_horizon[k]
    }

    /// Conservation violations: one message per class whose equation
    /// `generated == delivered + drops` does not balance.
    #[must_use]
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (k, label) in CLASS_LABELS.iter().enumerate() {
            let accounted = self.delivered[k] + self.drops(k);
            if self.generated[k] != accounted {
                out.push(format!(
                    "class {label}: generated {} != accounted {} (delivered {} + drops {})",
                    self.generated[k],
                    accounted,
                    self.delivered[k],
                    self.drops(k),
                ));
            }
        }
        out
    }
}

/// One MAP domain: an independent shard of the metro simulation.
#[derive(Debug)]
pub struct Domain {
    /// This domain's index (== its shard index).
    pub index: u32,
    cfg: MetroConfig,
    queue: LaneQueue<Ev, LANES>,
    rng: Rng64,
    pool: PacketPool,
    /// Radio dark (handover in progress), per host homed here, indexed
    /// by [`MetroConfig::home_slot`]. Every arrival reads this and almost
    /// none goes on to the buffers, so it is its own dense array: one
    /// byte per host stays cache-resident at 100k hosts where a
    /// flag-plus-`VecDeque` record per host does not.
    blackout: Vec<bool>,
    /// Parked packets per host, oldest first, as pool handles. Same
    /// indexing.
    buffer: Vec<VecDeque<fh_net::PacketHandle>>,
    now: SimTime,
    /// Boundary arrivals accepted at the last barrier, not yet in the
    /// event set.
    inbox: Vec<(SimTime, Ev)>,
    /// Deterministic tallies.
    pub counts: ClassCounts,
    /// Per-class delivered-delay histograms (milliseconds).
    pub delay: [Histogram; 3],
    /// Events popped from this domain's queue.
    pub events_processed: u64,
    /// Handovers started by hosts homed here.
    pub handovers: u64,
    /// Packets / bytes this domain pushed across a boundary.
    pub boundary_tx: (u64, u64),
    /// Packets / bytes this domain received across a boundary.
    pub boundary_rx: (u64, u64),
}

impl Domain {
    /// Builds domain `index` of a metro deployment and seeds its event
    /// queue: one generator chain per flow sourced here, one handover
    /// chain per host homed here.
    #[must_use]
    pub fn new(index: u32, cfg: &MetroConfig) -> Self {
        let homed = cfg.homed_in(index) as usize;
        let sourced = (0..cfg.hosts)
            .filter(|&h| cfg.source_domain(h) == index)
            .count();
        let mut d = Domain {
            index,
            cfg: cfg.clone(),
            queue: LaneQueue::new(),
            rng: Rng64::seed_from(derive_domain_seed(cfg.seed, index)),
            pool: PacketPool::new(),
            blackout: vec![false; homed],
            buffer: vec![VecDeque::new(); homed],
            now: SimTime::ZERO,
            inbox: Vec::new(),
            counts: ClassCounts::default(),
            delay: std::array::from_fn(|_| delay_histogram()),
            events_processed: 0,
            handovers: 0,
            boundary_tx: (0, 0),
            boundary_rx: (0, 0),
        };
        // Exact capacities: the seeding burst below is the heap's peak
        // population, and one `Gen` per sourced flow is pending at any
        // time once the chains have moved to their lane.
        d.queue.reserve_heap_exact(homed + sourced);
        d.queue.reserve_lane_exact(LANE_GEN, sourced);
        for host in 0..cfg.hosts {
            if cfg.home_domain(host) == index {
                // First residence interval, drawn from this domain's
                // stream in host order (deterministic).
                let residence = d.residence();
                if let Some(t) = SimTime::ZERO.checked_add(residence) {
                    if t < cfg.horizon {
                        d.queue.push(t, Ev::HandoverStart { host });
                    }
                }
            }
            if cfg.source_domain(host) == index {
                // Stagger first emissions so 100k hosts don't fire on
                // the same nanosecond.
                let phase = cfg.packet_interval * u64::from(host % 128) / 128;
                d.queue
                    .push(cfg.traffic_start + phase, Ev::Gen { host, seq: 0 });
            }
        }
        // First dwells that end beyond the horizon were never pushed.
        d.queue.shrink_heap_to_fit();
        d
    }

    /// Number of hosts homed in this domain.
    #[must_use]
    pub fn homed_hosts(&self) -> u32 {
        self.blackout.len() as u32
    }

    /// `(lane, heap)` pushes into this domain's event set so far — a
    /// deterministic work counter (see [`LaneQueue::heap_pushes`]).
    #[must_use]
    pub fn queue_pushes(&self) -> (u64, u64) {
        (self.queue.lane_pushes(), self.queue.heap_pushes())
    }

    /// Moves the last barrier's arrivals into the event set, earliest
    /// first. The barrier hands them over sorted per source domain only,
    /// so pushed as they come all but the first source's would fall back
    /// to the heap — and would do so inside the sequential exchange.
    /// Sorting the batch first (stably, so equal times keep their
    /// (source, send order) rank) lets the whole batch ride the lane and
    /// moves the work into the parallel `advance`. Pop order is
    /// unchanged: nothing else is pushed between a barrier's accepts, so
    /// the batch owns one contiguous block of `seq` stamps either way,
    /// and within the block both orders rank by (time, arrival order).
    fn flush_inbox(&mut self) {
        self.inbox.sort_by_key(|&(t, _)| t);
        for (t, ev) in self.inbox.drain(..) {
            self.queue.push_lane(LANE_ACCEPT, t, ev);
        }
    }

    /// Index into `blackout` and `buffer` of a host homed here.
    fn slot(&self, host: u32) -> usize {
        debug_assert_eq!(self.cfg.home_domain(host), self.index);
        self.cfg.home_slot(host) as usize
    }

    /// Exponential residence time from this domain's RNG, floored at
    /// 1 ms so a pathological draw cannot wedge a host in a
    /// zero-length dwell loop.
    fn residence(&mut self) -> SimDuration {
        let ms = self
            .rng
            .gen_exp(self.cfg.mean_residence.as_millis_f64())
            .max(1.0);
        SimDuration::from_nanos((ms * 1e6) as u64)
    }

    /// The scheme's buffer cap per handover, in packets: one reservation
    /// per router the scheme buffers at (so DUAL aggregates two).
    fn buffer_cap(&self) -> usize {
        let s = self.cfg.scheme;
        let routers = usize::from(s.uses_nar_buffer()) + usize::from(s.uses_par_buffer());
        routers * self.cfg.buffer_request as usize
    }

    fn deliver(&mut self, class: u8, created: SimTime) {
        let k = class as usize;
        self.counts.delivered[k] += 1;
        let delay_ms = self.now.saturating_since(created).as_millis_f64();
        self.delay[k].add(delay_ms);
    }

    /// A packet meets its host: delivered directly, parked, or dropped
    /// per the scheme's admission matrix.
    fn arrive(&mut self, host: u32, class: u8, seq: u64, created: SimTime) {
        let slot = self.slot(host);
        if !self.blackout[slot] {
            self.deliver(class, created);
            return;
        }
        let cap = self.buffer_cap();
        let k = class as usize;
        if cap == 0 {
            self.counts.dropped_blackout[k] += 1;
            return;
        }
        if self.buffer[slot].len() < cap {
            self.park(host, class, seq, created);
            return;
        }
        // Full. The class-aware matrix sacrifices the oldest parked
        // best-effort packet to admit real-time / high-priority traffic.
        if self.cfg.scheme.classifies() && ServiceClass::EFFECTIVE[k] != ServiceClass::BestEffort {
            let be_pos = self.buffer[slot].iter().position(|&h| {
                self.pool
                    .slot(h)
                    .is_some_and(|s| s.effective_class() == ServiceClass::BestEffort)
            });
            if let Some(pos) = be_pos {
                let victim = self.buffer[slot].remove(pos).expect("position valid");
                self.pool.remove(victim);
                self.counts.dropped_evicted[2] += 1;
                self.park(host, class, seq, created);
                return;
            }
        }
        self.counts.dropped_overflow[k] += 1;
    }

    /// Parks one packet in the pool and the host's FIFO.
    fn park(&mut self, host: u32, class: u8, seq: u64, created: SimTime) {
        let pkt = Packet::data(
            FlowId(host),
            seq,
            doc_subnet(self.cfg.source_domain(host) as u16).host(u64::from(host) + 1),
            doc_subnet(self.index as u16).host(u64::from(host) + 1),
            ServiceClass::EFFECTIVE[class as usize],
            self.cfg.packet_bytes,
            created,
        );
        let handle = self.pool.insert(pkt);
        let slot = self.slot(host);
        self.buffer[slot].push_back(handle);
    }

    fn handle(&mut self, ev: Ev, outbox: &mut Outbox<CrossPacket>) {
        match ev {
            Ev::Gen { host, seq } => {
                if self.now >= self.cfg.traffic_stop {
                    return; // chain ends; no reschedule
                }
                let home = self.cfg.home_domain(host);
                let class = (host % 3) as u8;
                let created = self.now;
                self.counts.generated[class as usize] += 1;
                if home == self.index {
                    self.queue.push_lane(
                        LANE_ARRIVE,
                        self.now + ACCESS_LATENCY,
                        Ev::Arrive {
                            host,
                            class,
                            seq,
                            created,
                        },
                    );
                } else {
                    let size = self.cfg.packet_bytes;
                    self.boundary_tx.0 += 1;
                    self.boundary_tx.1 += u64::from(size);
                    outbox.send(
                        home as usize,
                        self.now + self.cfg.boundary_latency,
                        CrossPacket {
                            host,
                            class,
                            size,
                            seq,
                            created,
                        },
                    );
                }
                self.queue.push_lane(
                    LANE_GEN,
                    self.now + self.cfg.packet_interval,
                    Ev::Gen { host, seq: seq + 1 },
                );
            }
            Ev::Arrive {
                host,
                class,
                seq,
                created,
            } => self.arrive(host, class, seq, created),
            Ev::HandoverStart { host } => {
                let slot = self.slot(host);
                self.blackout[slot] = true;
                self.handovers += 1;
                self.queue.push_lane(
                    LANE_HANDOVER_END,
                    self.now + self.cfg.blackout,
                    Ev::HandoverEnd { host },
                );
            }
            Ev::HandoverEnd { host } => {
                let slot = self.slot(host);
                self.blackout[slot] = false;
                // Flush, oldest first, paced by the flush spacing; the
                // PAR-only draft pays the inter-AR re-tunnel on top.
                let extra = if self.cfg.scheme == Scheme::ParOnly {
                    PAR_FORWARD_DELAY
                } else {
                    SimDuration::ZERO
                };
                let mut i = 0u64;
                while let Some(handle) = self.buffer[slot].pop_front() {
                    let pkt = self.pool.remove(handle).expect("parked handle is live");
                    let class = pkt.class.index() as u8;
                    let t = self.now + extra + self.cfg.flush_spacing * i;
                    self.queue.push(
                        t,
                        Ev::Deliver {
                            class,
                            created: pkt.created,
                        },
                    );
                    i += 1;
                }
                // Next dwell.
                let residence = self.residence();
                if let Some(t) = self.now.checked_add(residence) {
                    if t < self.cfg.horizon {
                        self.queue.push(t, Ev::HandoverStart { host });
                    }
                }
            }
            Ev::Deliver { class, created } => self.deliver(class, created),
        }
    }

    /// Drains everything still queued or parked after the horizon and
    /// books it as horizon drops, making conservation exact. Returns
    /// `true` if the pool came back empty (leak-clean).
    pub fn finalize(&mut self) -> bool {
        self.flush_inbox();
        while let Some((_, ev)) = self.queue.pop() {
            match ev {
                Ev::Arrive { class, .. } | Ev::Deliver { class, .. } => {
                    self.counts.dropped_horizon[class as usize] += 1;
                }
                Ev::Gen { .. } | Ev::HandoverStart { .. } | Ev::HandoverEnd { .. } => {}
            }
        }
        for buffer in &mut self.buffer {
            while let Some(handle) = buffer.pop_front() {
                let pkt = self.pool.remove(handle).expect("parked handle is live");
                let k = pkt.class.index();
                self.counts.dropped_horizon[k] += 1;
            }
        }
        self.pool.is_empty()
    }
}

impl ShardState for Domain {
    type Msg = CrossPacket;

    fn accept(&mut self, arrival: SimTime, msg: CrossPacket) {
        self.boundary_rx.0 += 1;
        self.boundary_rx.1 += u64::from(msg.size);
        self.inbox.push((
            arrival,
            Ev::Arrive {
                host: msg.host,
                class: msg.class,
                seq: msg.seq,
                created: msg.created,
            },
        ));
    }

    fn advance(&mut self, horizon: SimTime, outbox: &mut Outbox<CrossPacket>) {
        self.flush_inbox();
        while let Some((t, ev)) = self.queue.pop_before(horizon) {
            self.now = t;
            self.events_processed += 1;
            self.handle(ev, outbox);
        }
        self.now = horizon;
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.flush_inbox();
        self.queue.peek_time()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn event_stays_at_24_bytes() {
        // Pending events are stored inline in the lanes and the heap,
        // ~2 per host: a wider `Ev` is paid in peak memory and in every
        // heap sift.
        assert!(std::mem::size_of::<super::Ev>() <= 24);
    }
}
