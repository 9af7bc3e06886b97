//! Access-router activity counters and the soft-state audit snapshot.

use crate::policy::AvailabilityCase;

/// Counters an access router keeps about its protocol activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArMetrics {
    /// Handover sessions served in the PAR role.
    pub par_sessions: u64,
    /// Handover sessions served in the NAR role.
    pub nar_sessions: u64,
    /// Pure link-layer (intra-router) handovers served.
    pub intra_sessions: u64,
    /// BufferFull notifications sent (NAR role).
    pub buffer_full_sent: u64,
    /// Buffer flushes performed (both roles).
    pub flushes: u64,
    /// Sessions whose reservation lifetime expired.
    pub expired_sessions: u64,
    /// FNAs rejected by the authentication check.
    pub auth_rejections: u64,
    /// Guard-buffering sessions served (standalone BI, §3.3 link-quality
    /// buffering / smooth-handover draft).
    pub guard_sessions: u64,
    /// HI retransmissions performed (PAR role, hardened mode only).
    pub retransmissions: u64,
    /// HI exchanges that exhausted their retry budget and degraded the
    /// session to PAR-only buffering.
    pub hi_exhausted: u64,
    /// Guard-buffering episodes reclaimed by lifetime expiry (the host
    /// never sent the releasing BF).
    pub guard_expired: u64,
    /// Times this router crashed (volatile state lost).
    pub crashes: u64,
    /// Soft-state host routes reclaimed by the expiry sweep.
    pub routes_expired: u64,
    /// Handover sessions reclaimed because the peer router went silent
    /// past the dead-peer timeout.
    pub dead_peer_reclaims: u64,
    /// Packets sacrificed by the overload shed ladder (byte pressure).
    pub pressure_sheds: u64,
    /// Wedged sessions force-resolved by the handover watchdog.
    pub watchdog_fired: u64,
    /// Sheds that ran while an earlier ladder rung still had packets
    /// parked. The relief loop only escalates once a rung is exhausted,
    /// so this is a runtime self-check that must stay zero.
    pub shed_order_violations: u64,
    /// Finalized handover sessions per Table 3.2 availability case
    /// (`[both, nar-only, par-only, none]`).
    pub case_counts: [u64; 4],
}

/// Index of an [`AvailabilityCase`] into [`ArMetrics::case_counts`].
pub(crate) fn case_index(case: AvailabilityCase) -> usize {
    match case {
        AvailabilityCase::BothAvailable => 0,
        AvailabilityCase::NarOnly => 1,
        AvailabilityCase::ParOnly => 2,
        AvailabilityCase::NoneAvailable => 3,
    }
}

/// Snapshot of an access router's live soft state, taken by the end-of-run
/// resource-leak auditor. After a quiesce period longer than every
/// reservation lifetime, all session- and buffer-related counts must be
/// zero; the only state allowed to remain is host routes for hosts still
/// attached (and, when soft-state routes are enabled, their refresh
/// timers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArSoftState {
    /// Live PAR-role handover sessions (includes guard episodes).
    pub par_sessions: usize,
    /// Live NAR-role handover sessions.
    pub nar_sessions: usize,
    /// Live buffer-pool sessions (reservations or open unreserved slots).
    pub pool_sessions: usize,
    /// Packets still queued in the buffer pool.
    pub buffered_packets: usize,
    /// Buffer slots still reserved (capacity minus unreserved).
    pub reserved_slots: usize,
    /// Keyed timers still registered (lifetime, flush, retransmission,
    /// and host-route expiry tokens).
    pub pending_timers: usize,
    /// Paced flushes still in progress.
    pub paced_flushes: usize,
    /// HI retransmission exchanges still in flight.
    pub pending_hi_rtx: usize,
    /// Soft-state host routes with a live expiry token.
    pub route_timers: usize,
}

impl ArSoftState {
    /// `true` when nothing but (possibly) refreshed host routes remains:
    /// every session, reservation, queued packet and flush is gone, and
    /// the only registered timers are host-route expiry tokens.
    #[must_use]
    pub fn quiesced(&self) -> bool {
        self.par_sessions == 0
            && self.nar_sessions == 0
            && self.pool_sessions == 0
            && self.buffered_packets == 0
            && self.reserved_slots == 0
            && self.paced_flushes == 0
            && self.pending_hi_rtx == 0
            && self.pending_timers == self.route_timers
    }
}
