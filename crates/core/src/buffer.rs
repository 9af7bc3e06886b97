//! The per-router handover buffer pool.
//!
//! Every access router owns one [`BufferPool`] with a fixed total capacity
//! (in packets — "the buffer size in a router is 50 packets" is how the
//! thesis counts, §3.1.1). Handover sessions, keyed by the mobile host's
//! previous care-of address, reserve space through the HI+BR / HAck+BA
//! negotiation: a **grant** is all-or-nothing (Table 3.2 is a yes/no
//! matrix) and reduces what later sessions can reserve.
//!
//! Admission is two-level: a packet enters only if the whole pool has room
//! **and** its session-level rule passes — the session's grant for
//! reserved traffic, or the administrator threshold `a` for best-effort
//! spill-over at the PAR ("buffer at PAR when PAR > a", Table 3.3).
//!
//! Real-time overflow uses drop-front within the session
//! ([`BufferPool::buffer_realtime_dropfront`]): the oldest real-time packet
//! is evicted so the freshest samples survive.
//!
//! # Storage layout
//!
//! Parked packets live in a struct-of-arrays [`PacketPool`] shared by every
//! session of the router; each session queue is a `VecDeque` of 8-byte
//! generation-checked [`PacketHandle`]s. Admission accounting and the
//! drop-front eviction scan read only the pool's dense hot rows
//! ([`fh_net::PacketSlot`]); a packet's addresses and payload are touched
//! exactly twice — on admit and on the flush/expire/wipe that takes it back
//! out — and reassembly is field-for-field exact, so the layout is
//! invisible to behavior.

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use fh_net::{Packet, PacketHandle, PacketPool, ServiceClass};
use fh_sim::FastMap;
use serde::{Deserialize, Serialize};

use crate::policy::AdmissionLimit;

/// Counters the pool maintains across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferStats {
    /// Packets admitted into the pool.
    pub admitted: u64,
    /// Packets handed back out by `drain` / `release`.
    pub flushed: u64,
    /// Packets rejected at admission.
    pub rejected: u64,
    /// Real-time packets evicted by drop-front.
    pub evicted_realtime: u64,
    /// Packets discarded because their session expired.
    pub expired: u64,
    /// Packets discarded by a node fault (router crash wiped the pool).
    pub reclaimed: u64,
    /// Packets sacrificed by the overload shed ladder (byte pressure).
    pub shed: u64,
}

#[derive(Debug, Default)]
struct SessionBuffer {
    granted: u32,
    /// Per-class shares when the precise-negotiation extension is active.
    class_grants: Option<[u32; 3]>,
    /// Packets currently queued, per class (`[RT, HP, BE]`).
    class_counts: [u32; 3],
    /// FIFO of handles into the router-wide packet arena.
    queue: VecDeque<PacketHandle>,
}

impl SessionBuffer {
    fn note_admit(&mut self, class: ServiceClass) {
        self.class_counts[class.index()] += 1;
    }
    fn note_remove(&mut self, class: ServiceClass) {
        let k = class.index();
        self.class_counts[k] = self.class_counts[k].saturating_sub(1);
    }
    /// `true` if the session-level rule admits one more packet of `class`.
    fn class_has_room(&self, class: ServiceClass) -> bool {
        match self.class_grants {
            Some(grants) => {
                let k = class.index();
                self.class_counts[k] < grants[k]
            }
            None => self.queue.len() < self.granted as usize,
        }
    }
}

/// A fixed-capacity handover buffer shared by all sessions at one router.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    used: usize,
    granted_total: usize,
    /// Byte budget across all parked packets; `usize::MAX` disables byte
    /// accounting at admission (the packet cap still applies).
    byte_budget: usize,
    /// Bytes currently parked across all sessions.
    bytes_used: usize,
    /// High-water mark of `bytes_used` over the pool's lifetime.
    peak_bytes: usize,
    sessions: FastMap<Ipv6Addr, SessionBuffer>,
    /// Struct-of-arrays storage for every parked packet, shared by all
    /// sessions; session queues hold handles into it.
    arena: PacketPool,
    /// Lifetime counters.
    pub stats: BufferStats,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` packets, with byte
    /// accounting off (no byte budget).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            capacity,
            used: 0,
            granted_total: 0,
            byte_budget: usize::MAX,
            bytes_used: 0,
            peak_bytes: 0,
            sessions: FastMap::default(),
            arena: PacketPool::new(),
            stats: BufferStats::default(),
        }
    }

    /// Arms (or disarms, with `usize::MAX`) the pool's byte budget. Every
    /// admission path then also requires `bytes_used + pkt.size` to stay
    /// within the budget, so grants and spill-over are judged in bytes as
    /// well as packets. Zero is treated as "off" (the knob's default in
    /// configs), not as an always-full pool.
    pub fn set_byte_budget(&mut self, budget: usize) {
        self.byte_budget = if budget == 0 { usize::MAX } else { budget };
    }

    /// The armed byte budget (`usize::MAX` when byte accounting is off).
    #[must_use]
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Bytes currently parked across all sessions.
    #[must_use]
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// The lifetime high-water mark of [`BufferPool::bytes_used`].
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// `true` if one more packet of `size` bytes fits the byte budget.
    fn has_byte_room(&self, size: u32) -> bool {
        self.byte_budget.saturating_sub(self.bytes_used) >= size as usize
    }

    fn note_bytes_in(&mut self, size: u32) {
        self.bytes_used += size as usize;
        self.peak_bytes = self.peak_bytes.max(self.bytes_used);
    }

    fn note_bytes_out(&mut self, size: u32) {
        self.bytes_used = self.bytes_used.saturating_sub(size as usize);
    }

    /// Total capacity in packets.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Packets currently queued across all sessions.
    #[must_use]
    pub fn used(&self) -> usize {
        self.used
    }

    /// Capacity not currently occupied by queued packets.
    #[must_use]
    pub fn free_space(&self) -> usize {
        self.capacity.saturating_sub(self.used)
    }

    /// Capacity not yet promised to any session.
    #[must_use]
    pub fn unreserved(&self) -> usize {
        self.capacity.saturating_sub(self.granted_total)
    }

    /// Attempts to reserve `requested` packets for a new session.
    ///
    /// Grants are all-or-nothing, mirroring the yes/no negotiation of
    /// Table 3.2: the full request if enough unreserved capacity remains,
    /// otherwise zero. Either way the session is created (a zero-grant
    /// session can still receive threshold-governed spill-over).
    ///
    /// Re-granting an existing session replaces its reservation.
    pub fn grant(&mut self, key: Ipv6Addr, requested: u32) -> u32 {
        if let Some(old) = self.sessions.get(&key) {
            self.granted_total = self.granted_total.saturating_sub(old.granted as usize);
        }
        let granted = if requested as usize <= self.unreserved() {
            requested
        } else {
            0
        };
        self.granted_total += granted as usize;
        let entry = self.sessions.entry(key).or_default();
        entry.granted = granted;
        entry.class_grants = None;
        granted
    }

    /// Reserves per-class shares for a session (the precise-negotiation
    /// extension). Classes are granted in priority order — high priority,
    /// real time, best effort — each receiving as much of its request as
    /// the unreserved capacity still allows.
    ///
    /// Returns the granted shares, `[RT, HP, BE]`.
    pub fn grant_per_class(&mut self, key: Ipv6Addr, requested: [u32; 3]) -> [u32; 3] {
        if let Some(old) = self.sessions.get(&key) {
            self.granted_total = self.granted_total.saturating_sub(old.granted as usize);
        }
        let mut granted = [0u32; 3];
        let mut unreserved = self.capacity.saturating_sub(self.granted_total) as u32;
        // Priority order: HP (1), RT (0), BE (2).
        for &k in &[1usize, 0, 2] {
            let g = requested[k].min(unreserved);
            granted[k] = g;
            unreserved -= g;
        }
        let total: u32 = granted.iter().sum();
        self.granted_total += total as usize;
        let entry = self.sessions.entry(key).or_default();
        entry.granted = total;
        entry.class_grants = Some(granted);
        granted
    }

    /// Opens a session with no reservation (for pure spill-over buffering).
    /// No-op if the session already exists.
    pub fn open_unreserved(&mut self, key: Ipv6Addr) {
        self.sessions.entry(key).or_default();
    }

    /// `true` if a session exists for `key`.
    #[must_use]
    pub fn has_session(&self, key: Ipv6Addr) -> bool {
        self.sessions.contains_key(&key)
    }

    /// The session's reservation (0 if none or no session).
    #[must_use]
    pub fn granted(&self, key: Ipv6Addr) -> u32 {
        self.sessions.get(&key).map_or(0, |s| s.granted)
    }

    /// Packets currently queued for `key`.
    #[must_use]
    pub fn session_len(&self, key: Ipv6Addr) -> usize {
        self.sessions.get(&key).map_or(0, |s| s.queue.len())
    }

    /// Tries to queue `pkt` for `key` under the given admission rule.
    ///
    /// # Errors
    ///
    /// Returns the packet back if there is no session, the pool is full,
    /// or the session rule rejects it.
    #[allow(clippy::result_large_err)] // the Err *is* the rejected packet
    pub fn try_buffer(
        &mut self,
        key: Ipv6Addr,
        pkt: Packet,
        limit: AdmissionLimit,
    ) -> Result<(), Packet> {
        let free = self.free_space();
        let byte_ok = self.has_byte_room(pkt.size);
        let Some(session) = self.sessions.get_mut(&key) else {
            self.stats.rejected += 1;
            return Err(pkt);
        };
        let ok = free > 0
            && byte_ok
            && match limit {
                AdmissionLimit::Grant => session.class_has_room(pkt.class),
                AdmissionLimit::Threshold(a) => free > a as usize,
                AdmissionLimit::PoolOnly => true,
            };
        if !ok {
            self.stats.rejected += 1;
            return Err(pkt);
        }
        session.note_admit(pkt.class);
        let size = pkt.size;
        let handle = self.arena.insert(pkt);
        session.queue.push_back(handle);
        self.used += 1;
        self.note_bytes_in(size);
        self.stats.admitted += 1;
        Ok(())
    }

    /// Admits a real-time packet, evicting the oldest buffered real-time
    /// packet of the same session if the session is out of space
    /// (Table 3.3 cases 1.a / 2.a).
    ///
    /// Returns the evicted packet, if any.
    ///
    /// # Errors
    ///
    /// Returns the incoming packet back if it cannot be admitted even by
    /// eviction (no session, or no real-time packet to evict while full).
    #[allow(clippy::result_large_err)] // the Err *is* the rejected packet
    pub fn buffer_realtime_dropfront(
        &mut self,
        key: Ipv6Addr,
        pkt: Packet,
    ) -> Result<Option<Packet>, Packet> {
        match self.try_buffer(key, pkt, AdmissionLimit::Grant) {
            Ok(()) => Ok(None),
            Err(pkt) => {
                let Some(session) = self.sessions.get_mut(&key) else {
                    return Err(pkt);
                };
                // Drop-front scan over the dense hot rows only; payloads
                // and addresses stay untouched in the cold columns.
                let oldest_rt = session.queue.iter().position(|&h| {
                    self.arena
                        .slot(h)
                        .is_some_and(|s| s.effective_class() == ServiceClass::RealTime)
                });
                match oldest_rt {
                    Some(idx) => {
                        // The swap must still fit the byte budget once the
                        // victim's bytes are given back.
                        let victim_size = self.arena.slot(session.queue[idx]).map_or(0, |s| s.size);
                        let room = self
                            .byte_budget
                            .saturating_sub(self.bytes_used.saturating_sub(victim_size as usize));
                        if room < pkt.size as usize {
                            return Err(pkt);
                        }
                        let evicted_h = session.queue.remove(idx).expect("index in range");
                        let evicted = self.arena.remove(evicted_h).expect("live handle");
                        session.note_remove(evicted.class);
                        session.note_admit(pkt.class);
                        let size = pkt.size;
                        let handle = self.arena.insert(pkt);
                        session.queue.push_back(handle);
                        self.note_bytes_out(evicted.size);
                        self.note_bytes_in(size);
                        // Rejection was counted inside try_buffer; the packet
                        // did get admitted after all, so reclassify it.
                        self.stats.rejected = self.stats.rejected.saturating_sub(1);
                        self.stats.admitted += 1;
                        self.stats.evicted_realtime += 1;
                        Ok(Some(evicted))
                    }
                    None => Err(pkt),
                }
            }
        }
    }

    /// Removes and returns the oldest queued packet of the session (one
    /// step of a paced flush). Counts as flushed.
    pub fn pop_front(&mut self, key: Ipv6Addr) -> Option<Packet> {
        let session = self.sessions.get_mut(&key)?;
        let handle = session.queue.pop_front()?;
        let pkt = self.arena.remove(handle).expect("live handle");
        session.note_remove(pkt.class);
        self.used = self.used.saturating_sub(1);
        self.note_bytes_out(pkt.size);
        self.stats.flushed += 1;
        Some(pkt)
    }

    /// Empties the session's queue (the BF flush), keeping the session and
    /// its reservation alive.
    pub fn drain(&mut self, key: Ipv6Addr) -> Vec<Packet> {
        let Some(session) = self.sessions.get_mut(&key) else {
            return Vec::new();
        };
        let pkts: Vec<Packet> = session
            .queue
            .drain(..)
            .map(|h| self.arena.remove(h).expect("live handle"))
            .collect();
        session.class_counts = [0; 3];
        self.used = self.used.saturating_sub(pkts.len());
        let bytes: usize = pkts.iter().map(|p| p.size as usize).sum();
        self.bytes_used = self.bytes_used.saturating_sub(bytes);
        self.stats.flushed += pkts.len() as u64;
        pkts
    }

    /// Flushes and closes the session, releasing its reservation.
    pub fn release(&mut self, key: Ipv6Addr) -> Vec<Packet> {
        let pkts = self.drain(key);
        if let Some(session) = self.sessions.remove(&key) {
            self.granted_total = self.granted_total.saturating_sub(session.granted as usize);
        }
        pkts
    }

    /// Closes the session discarding its contents (reservation lifetime
    /// expiry). Returns the discarded packets so the caller can attribute
    /// the losses to their flows.
    pub fn expire(&mut self, key: Ipv6Addr) -> Vec<Packet> {
        let Some(session) = self.sessions.remove(&key) else {
            return Vec::new();
        };
        let pkts: Vec<Packet> = session
            .queue
            .into_iter()
            .map(|h| self.arena.remove(h).expect("live handle"))
            .collect();
        self.used = self.used.saturating_sub(pkts.len());
        let bytes: usize = pkts.iter().map(|p| p.size as usize).sum();
        self.bytes_used = self.bytes_used.saturating_sub(bytes);
        self.granted_total = self.granted_total.saturating_sub(session.granted as usize);
        self.stats.expired += pkts.len() as u64;
        pkts
    }

    /// Number of open sessions (reserved or not) — the leak auditor's
    /// view of live buffer state.
    #[must_use]
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Crash semantics: closes every session, releases every reservation
    /// and returns all queued packets so the caller can attribute them as
    /// reclaimed. Counts into `stats.reclaimed`.
    pub fn wipe_all(&mut self) -> Vec<Packet> {
        let mut pkts = Vec::with_capacity(self.used);
        let mut keys: Vec<Ipv6Addr> = self.sessions.keys().copied().collect();
        keys.sort();
        for k in keys {
            let session = self.sessions.remove(&k).expect("key just listed");
            pkts.extend(
                session
                    .queue
                    .into_iter()
                    .map(|h| self.arena.remove(h).expect("live handle")),
            );
        }
        self.used = 0;
        self.granted_total = 0;
        self.bytes_used = 0;
        self.stats.reclaimed += pkts.len() as u64;
        pkts
    }

    /// One rung of the shed ladder: removes the oldest parked packet whose
    /// effective class is `class`, searching every session. "Oldest" is by
    /// creation time with the session key as the deterministic tie-break,
    /// so sheds replay identically at any thread count. Counts into
    /// `stats.shed`; the caller records the drop and the trace event.
    ///
    /// Returns the shed packet and the session it was parked under.
    pub fn shed_class_front(&mut self, class: ServiceClass) -> Option<(Ipv6Addr, Packet)> {
        let want = class.effective();
        let mut best: Option<(fh_sim::SimTime, Ipv6Addr, usize)> = None;
        for (&k, session) in &self.sessions {
            // Front-to-back first match is the session's oldest of `class`
            // (queues are FIFO).
            let Some(idx) = session.queue.iter().position(|&h| {
                self.arena
                    .slot(h)
                    .is_some_and(|s| s.effective_class() == want)
            }) else {
                continue;
            };
            let created = self
                .arena
                .slot(session.queue[idx])
                .expect("live handle")
                .created;
            let better = match best {
                None => true,
                Some((t, bk, _)) => created < t || (created == t && k < bk),
            };
            if better {
                best = Some((created, k, idx));
            }
        }
        let (_, k, idx) = best?;
        let session = self.sessions.get_mut(&k).expect("key just found");
        let handle = session.queue.remove(idx).expect("index in range");
        let pkt = self.arena.remove(handle).expect("live handle");
        session.note_remove(pkt.class);
        self.used = self.used.saturating_sub(1);
        self.note_bytes_out(pkt.size);
        self.stats.shed += 1;
        Some((k, pkt))
    }

    /// The buffering session whose front-of-queue packet has waited the
    /// longest (ties broken by key) — the shed ladder's force-flush target.
    #[must_use]
    pub fn oldest_buffering_session(&self) -> Option<Ipv6Addr> {
        let mut best: Option<(fh_sim::SimTime, Ipv6Addr)> = None;
        for (&k, session) in &self.sessions {
            let Some(&front) = session.queue.front() else {
                continue;
            };
            let created = self.arena.slot(front).expect("live handle").created;
            let better = match best {
                None => true,
                Some((t, bk)) => created < t || (created == t && k < bk),
            };
            if better {
                best = Some((created, k));
            }
        }
        best.map(|(_, k)| k)
    }

    /// `true` if any session still parks a packet whose effective class is
    /// `class` — the runtime shed-order audit asks this before a
    /// later-rung shed to prove every earlier rung really was exhausted.
    #[must_use]
    pub fn has_class_parked(&self, class: ServiceClass) -> bool {
        let k = class.index();
        self.sessions.values().any(|s| s.class_counts[k] > 0)
    }

    /// Sessions still holding parked packets — post-quiesce this must be
    /// zero ("no wedged state survives quiesce").
    #[must_use]
    pub fn wedged_sessions(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| !s.queue.is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fh_net::FlowId;
    use fh_sim::SimTime;

    fn key(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, n)
    }

    fn pkt(class: ServiceClass, seq: u64) -> Packet {
        Packet::data(
            FlowId(1),
            seq,
            key(100),
            key(200),
            class,
            160,
            SimTime::ZERO,
        )
    }

    fn pkt_at(class: ServiceClass, seq: u64, ms: u64) -> Packet {
        Packet::data(
            FlowId(1),
            seq,
            key(100),
            key(200),
            class,
            160,
            SimTime::from_millis(ms),
        )
    }

    fn sized(class: ServiceClass, seq: u64, size: u32) -> Packet {
        Packet::data(
            FlowId(1),
            seq,
            key(100),
            key(200),
            class,
            size,
            SimTime::ZERO,
        )
    }

    #[test]
    fn grants_are_all_or_nothing() {
        let mut pool = BufferPool::new(20);
        assert_eq!(pool.grant(key(1), 10), 10);
        assert_eq!(pool.grant(key(2), 10), 10);
        assert_eq!(pool.grant(key(3), 1), 0, "capacity fully reserved");
        assert_eq!(pool.unreserved(), 0);
        assert!(pool.has_session(key(3)));
        assert_eq!(pool.granted(key(3)), 0);
    }

    #[test]
    fn release_frees_reservation() {
        let mut pool = BufferPool::new(10);
        assert_eq!(pool.grant(key(1), 10), 10);
        assert_eq!(pool.grant(key(2), 5), 0);
        pool.release(key(1));
        assert_eq!(pool.grant(key(2), 5), 5);
    }

    #[test]
    fn grant_admission_respects_session_cap() {
        let mut pool = BufferPool::new(10);
        pool.grant(key(1), 2);
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::HighPriority, 0),
                AdmissionLimit::Grant
            )
            .is_ok());
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::HighPriority, 1),
                AdmissionLimit::Grant
            )
            .is_ok());
        let rejected = pool.try_buffer(
            key(1),
            pkt(ServiceClass::HighPriority, 2),
            AdmissionLimit::Grant,
        );
        assert!(rejected.is_err());
        assert_eq!(rejected.unwrap_err().seq, 2);
        assert_eq!(pool.session_len(key(1)), 2);
        assert_eq!(pool.stats.admitted, 2);
        assert_eq!(pool.stats.rejected, 1);
    }

    #[test]
    fn threshold_admission_uses_pool_free_space() {
        let mut pool = BufferPool::new(5);
        pool.open_unreserved(key(1));
        // a = 2: admit while free > 2, i.e. first 3 packets (free 5,4,3).
        for seq in 0..3 {
            assert!(
                pool.try_buffer(
                    key(1),
                    pkt(ServiceClass::BestEffort, seq),
                    AdmissionLimit::Threshold(2)
                )
                .is_ok(),
                "seq {seq}"
            );
        }
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::BestEffort, 3),
                AdmissionLimit::Threshold(2)
            )
            .is_err());
        assert_eq!(pool.used(), 3);
    }

    #[test]
    fn pool_capacity_is_a_hard_ceiling() {
        let mut pool = BufferPool::new(3);
        pool.grant(key(1), 3);
        pool.open_unreserved(key(2));
        for seq in 0..3 {
            assert!(pool
                .try_buffer(
                    key(1),
                    pkt(ServiceClass::HighPriority, seq),
                    AdmissionLimit::Grant
                )
                .is_ok());
        }
        // Pool is full: even PoolOnly admission fails for the other session.
        assert!(pool
            .try_buffer(
                key(2),
                pkt(ServiceClass::BestEffort, 0),
                AdmissionLimit::PoolOnly
            )
            .is_err());
        assert_eq!(pool.free_space(), 0);
    }

    #[test]
    fn realtime_dropfront_evicts_oldest_rt() {
        let mut pool = BufferPool::new(10);
        pool.grant(key(1), 3);
        for seq in 0..3 {
            assert!(pool
                .buffer_realtime_dropfront(key(1), pkt(ServiceClass::RealTime, seq))
                .unwrap()
                .is_none());
        }
        // Full: admitting seq 3 must evict seq 0.
        let evicted = pool
            .buffer_realtime_dropfront(key(1), pkt(ServiceClass::RealTime, 3))
            .unwrap()
            .expect("eviction");
        assert_eq!(evicted.seq, 0);
        assert_eq!(pool.session_len(key(1)), 3);
        assert_eq!(pool.stats.evicted_realtime, 1);
        let drained = pool.drain(key(1));
        assert_eq!(
            drained.iter().map(|p| p.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn realtime_dropfront_skips_other_classes() {
        let mut pool = BufferPool::new(10);
        pool.grant(key(1), 2);
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::HighPriority, 0),
                AdmissionLimit::Grant
            )
            .is_ok());
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::HighPriority, 1),
                AdmissionLimit::Grant
            )
            .is_ok());
        // No RT packet to evict: the incoming RT packet bounces.
        let err = pool.buffer_realtime_dropfront(key(1), pkt(ServiceClass::RealTime, 9));
        assert!(err.is_err());
        assert_eq!(pool.session_len(key(1)), 2);
    }

    #[test]
    fn drain_keeps_session_release_closes_it() {
        let mut pool = BufferPool::new(10);
        pool.grant(key(1), 5);
        for seq in 0..4 {
            pool.try_buffer(
                key(1),
                pkt(ServiceClass::HighPriority, seq),
                AdmissionLimit::Grant,
            )
            .unwrap();
        }
        let first = pool.drain(key(1));
        assert_eq!(first.len(), 4);
        assert!(pool.has_session(key(1)));
        assert_eq!(pool.used(), 0);
        pool.try_buffer(
            key(1),
            pkt(ServiceClass::HighPriority, 9),
            AdmissionLimit::Grant,
        )
        .unwrap();
        let rest = pool.release(key(1));
        assert_eq!(rest.len(), 1);
        assert!(!pool.has_session(key(1)));
        assert_eq!(pool.stats.flushed, 5);
        assert_eq!(pool.unreserved(), 10);
    }

    #[test]
    fn expire_discards_and_counts() {
        let mut pool = BufferPool::new(10);
        pool.grant(key(1), 5);
        for seq in 0..3 {
            pool.try_buffer(
                key(1),
                pkt(ServiceClass::BestEffort, seq),
                AdmissionLimit::Grant,
            )
            .unwrap();
        }
        assert_eq!(pool.expire(key(1)).len(), 3);
        assert_eq!(pool.stats.expired, 3);
        assert_eq!(pool.used(), 0);
        assert!(pool.expire(key(1)).is_empty());
    }

    #[test]
    fn unknown_session_rejects() {
        let mut pool = BufferPool::new(10);
        assert!(pool
            .try_buffer(
                key(9),
                pkt(ServiceClass::HighPriority, 0),
                AdmissionLimit::PoolOnly
            )
            .is_err());
        assert!(pool
            .buffer_realtime_dropfront(key(9), pkt(ServiceClass::RealTime, 0))
            .is_err());
        assert!(pool.drain(key(9)).is_empty());
        assert!(pool.release(key(9)).is_empty());
    }

    #[test]
    fn regrant_replaces_reservation() {
        let mut pool = BufferPool::new(10);
        assert_eq!(pool.grant(key(1), 8), 8);
        // Re-grant smaller: frees reservation for others.
        assert_eq!(pool.grant(key(1), 4), 4);
        assert_eq!(pool.grant(key(2), 6), 6);
    }

    /// Conservation: admitted == flushed + expired + still queued.
    #[test]
    fn packet_conservation_across_random_ops() {
        use fh_sim::Rng64;
        let mut rng = Rng64::seed_from(99);
        let mut pool = BufferPool::new(16);
        let keys: Vec<Ipv6Addr> = (0..4).map(key).collect();
        for &k in &keys {
            pool.grant(k, 4);
        }
        let classes = [
            ServiceClass::RealTime,
            ServiceClass::HighPriority,
            ServiceClass::BestEffort,
        ];
        for step in 0..10_000 {
            let k = keys[rng.gen_range_u64(4) as usize];
            match rng.gen_range_u64(10) {
                0..=5 => {
                    let class = classes[rng.gen_range_u64(3) as usize];
                    if class == ServiceClass::RealTime {
                        let _ = pool.buffer_realtime_dropfront(k, pkt(class, step));
                    } else {
                        let _ = pool.try_buffer(k, pkt(class, step), AdmissionLimit::Grant);
                    }
                }
                6..=7 => {
                    let _ = pool.drain(k);
                }
                8 => {
                    let _ = pool.release(k);
                    pool.grant(k, 2);
                }
                9 if step % 977 == 0 => {
                    // Rare crash: wipe everything, then re-grant all keys.
                    let _ = pool.wipe_all();
                    for &k in &keys {
                        pool.grant(k, 4);
                    }
                }
                _ => {
                    let _ = pool.expire(k);
                    pool.grant(k, 2);
                }
            }
            if step % 37 == 0 {
                // Exercise the shed ladder's pool primitive under churn.
                let _ = pool.shed_class_front(ServiceClass::BestEffort);
            }
            assert!(pool.used() <= pool.capacity(), "capacity violated");
        }
        let queued: u64 = keys.iter().map(|&k| pool.session_len(k) as u64).sum();
        assert_eq!(
            pool.stats.admitted,
            pool.stats.flushed
                + pool.stats.expired
                + pool.stats.evicted_realtime
                + pool.stats.reclaimed
                + pool.stats.shed
                + queued,
            "conservation violated: {:?}",
            pool.stats
        );
    }

    /// Same conservation equation, but with a tight byte budget forcing the
    /// pressure paths (byte rejections, sheds, swaps) on every few steps.
    #[test]
    fn conservation_holds_under_byte_pressure() {
        use fh_sim::Rng64;
        let mut rng = Rng64::seed_from(7);
        let mut pool = BufferPool::new(16);
        // Room for ~6 of the 160-byte test packets: far below the packet cap.
        pool.set_byte_budget(1_000);
        let keys: Vec<Ipv6Addr> = (0..4).map(key).collect();
        for &k in &keys {
            pool.grant(k, 4);
        }
        let classes = [
            ServiceClass::RealTime,
            ServiceClass::HighPriority,
            ServiceClass::BestEffort,
        ];
        for step in 0..10_000 {
            let k = keys[rng.gen_range_u64(4) as usize];
            match rng.gen_range_u64(12) {
                0..=6 => {
                    let class = classes[rng.gen_range_u64(3) as usize];
                    if class == ServiceClass::RealTime {
                        let _ = pool.buffer_realtime_dropfront(k, pkt(class, step));
                    } else {
                        let _ = pool.try_buffer(k, pkt(class, step), AdmissionLimit::Grant);
                    }
                }
                7 => {
                    let _ = pool.drain(k);
                }
                8 => {
                    let _ = pool.shed_class_front(ServiceClass::BestEffort);
                }
                9 => {
                    let _ = pool.shed_class_front(ServiceClass::RealTime);
                }
                10 => {
                    let _ = pool.expire(k);
                    pool.grant(k, 4);
                }
                _ => {
                    if step % 1_003 == 0 {
                        let _ = pool.wipe_all();
                        for &k in &keys {
                            pool.grant(k, 4);
                        }
                    }
                }
            }
            assert!(pool.bytes_used() <= 1_000, "byte budget violated");
        }
        let queued: u64 = keys.iter().map(|&k| pool.session_len(k) as u64).sum();
        assert_eq!(
            pool.stats.admitted,
            pool.stats.flushed
                + pool.stats.expired
                + pool.stats.evicted_realtime
                + pool.stats.reclaimed
                + pool.stats.shed
                + queued,
            "conservation violated: {:?}",
            pool.stats
        );
        // Everything still drains cleanly: zero residue in the arena.
        for &k in &keys {
            let _ = pool.release(k);
        }
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.bytes_used(), 0);
    }

    #[test]
    fn byte_budget_gates_admission() {
        let mut pool = BufferPool::new(10);
        pool.set_byte_budget(400); // two 160-byte packets fit, three do not
        pool.grant(key(1), 10);
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::BestEffort, 0),
                AdmissionLimit::Grant
            )
            .is_ok());
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::BestEffort, 1),
                AdmissionLimit::Grant
            )
            .is_ok());
        assert_eq!(pool.bytes_used(), 320);
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::BestEffort, 2),
                AdmissionLimit::Grant
            )
            .is_err());
        assert_eq!(pool.stats.rejected, 1);
        // Flushing gives the bytes back.
        let _ = pool.pop_front(key(1));
        assert_eq!(pool.bytes_used(), 160);
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::BestEffort, 3),
                AdmissionLimit::Grant
            )
            .is_ok());
        assert_eq!(pool.peak_bytes(), 320);
    }

    #[test]
    fn zero_byte_budget_means_accounting_off() {
        let mut pool = BufferPool::new(4);
        pool.set_byte_budget(0);
        assert_eq!(pool.byte_budget(), usize::MAX);
        pool.open_unreserved(key(1));
        assert!(pool
            .try_buffer(
                key(1),
                sized(ServiceClass::BestEffort, 0, u32::MAX),
                AdmissionLimit::PoolOnly
            )
            .is_ok());
    }

    #[test]
    fn dropfront_swap_respects_byte_budget() {
        let mut pool = BufferPool::new(10);
        pool.set_byte_budget(320);
        pool.grant(key(1), 1);
        assert!(pool
            .buffer_realtime_dropfront(key(1), sized(ServiceClass::RealTime, 0, 160))
            .unwrap()
            .is_none());
        // A 400-byte replacement doesn't fit even after evicting the
        // 160-byte victim.
        assert!(pool
            .buffer_realtime_dropfront(key(1), sized(ServiceClass::RealTime, 1, 400))
            .is_err());
        assert_eq!(pool.session_len(key(1)), 1);
        assert_eq!(pool.bytes_used(), 160);
        // A 300-byte one does.
        let evicted = pool
            .buffer_realtime_dropfront(key(1), sized(ServiceClass::RealTime, 2, 300))
            .unwrap()
            .expect("eviction");
        assert_eq!(evicted.seq, 0);
        assert_eq!(pool.bytes_used(), 300);
    }

    #[test]
    fn shed_takes_the_oldest_of_the_class_across_sessions() {
        let mut pool = BufferPool::new(10);
        pool.grant(key(1), 4);
        pool.grant(key(2), 4);
        pool.try_buffer(
            key(1),
            pkt_at(ServiceClass::HighPriority, 0, 0),
            AdmissionLimit::Grant,
        )
        .unwrap();
        pool.try_buffer(
            key(1),
            pkt_at(ServiceClass::BestEffort, 1, 2),
            AdmissionLimit::Grant,
        )
        .unwrap();
        pool.try_buffer(
            key(2),
            pkt_at(ServiceClass::BestEffort, 2, 1),
            AdmissionLimit::Grant,
        )
        .unwrap();
        // Oldest BE lives under key(2) even though key(1) sorts first.
        let (k, shed) = pool.shed_class_front(ServiceClass::BestEffort).unwrap();
        assert_eq!((k, shed.seq), (key(2), 2));
        let (k, shed) = pool.shed_class_front(ServiceClass::BestEffort).unwrap();
        assert_eq!((k, shed.seq), (key(1), 1));
        // Only the HP packet remains; the BE rung is exhausted.
        assert!(pool.shed_class_front(ServiceClass::BestEffort).is_none());
        assert!(pool.shed_class_front(ServiceClass::RealTime).is_none());
        assert_eq!(pool.stats.shed, 2);
        assert_eq!(pool.used(), 1);
        assert_eq!(pool.bytes_used(), 160);
    }

    #[test]
    fn shed_ties_break_on_the_lower_session_key() {
        let mut pool = BufferPool::new(10);
        pool.grant(key(5), 2);
        pool.grant(key(3), 2);
        pool.try_buffer(
            key(5),
            pkt_at(ServiceClass::BestEffort, 0, 7),
            AdmissionLimit::Grant,
        )
        .unwrap();
        pool.try_buffer(
            key(3),
            pkt_at(ServiceClass::BestEffort, 1, 7),
            AdmissionLimit::Grant,
        )
        .unwrap();
        let (k, _) = pool.shed_class_front(ServiceClass::BestEffort).unwrap();
        assert_eq!(k, key(3));
    }

    #[test]
    fn oldest_buffering_session_follows_front_packets() {
        let mut pool = BufferPool::new(10);
        assert!(pool.oldest_buffering_session().is_none());
        pool.grant(key(1), 4);
        pool.grant(key(2), 4);
        pool.open_unreserved(key(3)); // empty queue: never a candidate
        pool.try_buffer(
            key(1),
            pkt_at(ServiceClass::BestEffort, 0, 5),
            AdmissionLimit::Grant,
        )
        .unwrap();
        pool.try_buffer(
            key(2),
            pkt_at(ServiceClass::BestEffort, 1, 3),
            AdmissionLimit::Grant,
        )
        .unwrap();
        assert_eq!(pool.oldest_buffering_session(), Some(key(2)));
        let _ = pool.drain(key(2));
        assert_eq!(pool.oldest_buffering_session(), Some(key(1)));
    }

    #[test]
    fn grant_larger_than_capacity_is_zero_and_safe() {
        let mut pool = BufferPool::new(5);
        assert_eq!(pool.grant(key(1), 50), 0);
        assert_eq!(pool.unreserved(), 5);
        // Re-granting up then down never corrupts the reserved total.
        assert_eq!(pool.grant(key(1), 5), 5);
        assert_eq!(pool.grant(key(1), 50), 0);
        assert_eq!(pool.unreserved(), 5);
        assert_eq!(pool.grant_per_class(key(1), [50, 50, 50])[1], 5);
        assert_eq!(pool.unreserved(), 0);
    }

    #[test]
    fn release_of_unknown_key_is_a_no_op() {
        let mut pool = BufferPool::new(5);
        assert!(pool.release(key(9)).is_empty());
        assert!(pool.expire(key(9)).is_empty());
        assert_eq!(pool.unreserved(), 5);
        pool.grant(key(1), 3);
        pool.release(key(1));
        // Double release must not double-free the reservation.
        pool.release(key(1));
        assert_eq!(pool.unreserved(), 5);
    }

    #[test]
    fn wipe_all_reclaims_every_session() {
        let mut pool = BufferPool::new(10);
        pool.grant(key(1), 3);
        pool.grant(key(2), 3);
        for seq in 0..2 {
            pool.try_buffer(
                key(1),
                pkt(ServiceClass::HighPriority, seq),
                AdmissionLimit::Grant,
            )
            .unwrap();
            pool.try_buffer(
                key(2),
                pkt(ServiceClass::BestEffort, seq),
                AdmissionLimit::Grant,
            )
            .unwrap();
        }
        let wiped = pool.wipe_all();
        assert_eq!(wiped.len(), 4);
        assert_eq!(pool.stats.reclaimed, 4);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.live_sessions(), 0);
        assert_eq!(pool.unreserved(), pool.capacity());
        assert!(!pool.has_session(key(1)));
    }
}

#[cfg(test)]
mod per_class_tests {
    use super::*;
    use fh_net::FlowId;
    use fh_sim::SimTime;

    fn key(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, n)
    }

    fn pkt(class: ServiceClass, seq: u64) -> Packet {
        Packet::data(
            FlowId(1),
            seq,
            key(100),
            key(200),
            class,
            160,
            SimTime::ZERO,
        )
    }

    #[test]
    fn per_class_grants_are_partial_in_priority_order() {
        let mut pool = BufferPool::new(10);
        // Request [RT=6, HP=6, BE=6] against capacity 10: HP first (6),
        // then RT (4), BE starves.
        let granted = pool.grant_per_class(key(1), [6, 6, 6]);
        assert_eq!(granted, [4, 6, 0]);
        assert_eq!(pool.granted(key(1)), 10);
        assert_eq!(pool.unreserved(), 0);
    }

    #[test]
    fn class_shares_are_enforced_at_admission() {
        let mut pool = BufferPool::new(10);
        let granted = pool.grant_per_class(key(1), [2, 3, 1]);
        assert_eq!(granted, [2, 3, 1]);
        // RT may take exactly 2 slots even though the session grant is 6.
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::RealTime, 0),
                AdmissionLimit::Grant
            )
            .is_ok());
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::RealTime, 1),
                AdmissionLimit::Grant
            )
            .is_ok());
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::RealTime, 2),
                AdmissionLimit::Grant
            )
            .is_err());
        // HP's share is untouched by the RT flood.
        for seq in 10..13 {
            assert!(
                pool.try_buffer(
                    key(1),
                    pkt(ServiceClass::HighPriority, seq),
                    AdmissionLimit::Grant
                )
                .is_ok(),
                "HP seq {seq} must fit"
            );
        }
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::HighPriority, 13),
                AdmissionLimit::Grant
            )
            .is_err());
        // BE gets its single slot; unspecified folds into BE and is now out.
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::BestEffort, 20),
                AdmissionLimit::Grant
            )
            .is_ok());
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::Unspecified, 21),
                AdmissionLimit::Grant
            )
            .is_err());
    }

    #[test]
    fn class_shares_recover_after_flush() {
        let mut pool = BufferPool::new(10);
        pool.grant_per_class(key(1), [1, 1, 1]);
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::RealTime, 0),
                AdmissionLimit::Grant
            )
            .is_ok());
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::RealTime, 1),
                AdmissionLimit::Grant
            )
            .is_err());
        let _ = pool.pop_front(key(1));
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::RealTime, 2),
                AdmissionLimit::Grant
            )
            .is_ok());
        let _ = pool.drain(key(1));
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::RealTime, 3),
                AdmissionLimit::Grant
            )
            .is_ok());
    }

    #[test]
    fn dropfront_respects_the_rt_share() {
        let mut pool = BufferPool::new(10);
        pool.grant_per_class(key(1), [2, 2, 0]);
        assert!(pool
            .buffer_realtime_dropfront(key(1), pkt(ServiceClass::RealTime, 0))
            .unwrap()
            .is_none());
        assert!(pool
            .buffer_realtime_dropfront(key(1), pkt(ServiceClass::RealTime, 1))
            .unwrap()
            .is_none());
        // Share full: the next RT evicts the oldest RT, never an HP packet.
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::HighPriority, 5),
                AdmissionLimit::Grant
            )
            .is_ok());
        let evicted = pool
            .buffer_realtime_dropfront(key(1), pkt(ServiceClass::RealTime, 2))
            .unwrap()
            .expect("eviction");
        assert_eq!(evicted.seq, 0);
        assert_eq!(pool.session_len(key(1)), 3);
    }

    #[test]
    fn plain_regrant_clears_class_shares() {
        let mut pool = BufferPool::new(10);
        pool.grant_per_class(key(1), [1, 1, 1]);
        pool.grant(key(1), 5);
        // Back to a class-blind session cap of 5.
        for seq in 0..5 {
            assert!(pool
                .try_buffer(
                    key(1),
                    pkt(ServiceClass::RealTime, seq),
                    AdmissionLimit::Grant
                )
                .is_ok());
        }
        assert!(pool
            .try_buffer(
                key(1),
                pkt(ServiceClass::RealTime, 5),
                AdmissionLimit::Grant
            )
            .is_err());
    }
}
