//! Conservative-lookahead epoch execution for sharded simulations.
//!
//! A sharded simulation splits one world into independent *shards* (in the
//! metro kernel: one per MAP domain), each owning its own event queue, RNG
//! lineage and statistics. Shards interact only through time-stamped
//! messages whose transit latency is bounded below by a fixed **lookahead**
//! `L` — the minimum latency of every boundary link.
//!
//! That bound is what makes deterministic intra-run parallelism possible:
//! if simulated time is cut into epochs `[kL, (k+1)L)`, any message sent
//! during epoch `k` arrives at `send_time + latency ≥ kL + L = (k+1)L`,
//! i.e. strictly after the epoch in which it was sent. Every shard can
//! therefore burn through epoch `k` with **no** knowledge of its peers, the
//! runtime exchanges mailboxes at the epoch barrier, and the composite run
//! is byte-identical whether shards execute one at a time or on a scoped
//! thread pool — the same discipline that makes sweep points
//! thread-invariant, applied *inside* a single run.
//!
//! Determinism rests on three rules, all enforced here:
//!
//! 1. Within an epoch a shard sees only its own state plus the messages
//!    delivered at earlier barriers (shards are `&mut`-disjoint, so the
//!    compiler enforces the isolation).
//! 2. Every message arrival must respect the lookahead; [`run_epochs`]
//!    panics on any message that would arrive inside the epoch that sent
//!    it, so a too-small lookahead is a loud bug, never a silent reorder.
//! 3. Mailboxes drain at the barrier in (source shard, send order) order —
//!    a total order independent of which worker ran which shard.

use std::time::{Duration, Instant};

use crate::time::{SimDuration, SimTime};

/// One shard of a partitioned simulation: a self-contained event loop that
/// can advance to a time horizon and exchange timed messages with peers.
pub trait ShardState: Send {
    /// The cross-shard message type.
    type Msg: Send;

    /// Delivers a message from a peer shard, to take effect at `arrival`.
    /// Called only at epoch barriers; `arrival` is never earlier than any
    /// event the shard has already processed.
    fn accept(&mut self, arrival: SimTime, msg: Self::Msg);

    /// Processes every local event strictly before `horizon`, pushing any
    /// cross-shard sends into `outbox`. After returning, the shard's
    /// notion of "now" is `horizon`.
    fn advance(&mut self, horizon: SimTime, outbox: &mut Outbox<Self::Msg>);

    /// The timestamp of the earliest pending local event, or `None` when
    /// the shard is idle. Used for early termination once every shard is
    /// quiet and no messages are in flight.
    fn next_event_time(&mut self) -> Option<SimTime>;
}

/// A shard's outgoing mailbox for the current epoch.
///
/// Messages are drained at the epoch barrier in push order, source shard
/// by source shard — the delivery order is part of the deterministic
/// contract, so it never depends on worker scheduling.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(u32, SimTime, M)>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox { msgs: Vec::new() }
    }
}

impl<M> Outbox<M> {
    /// Queues `msg` for shard `dst`, arriving at `arrival`.
    ///
    /// `arrival` must honour the executor's lookahead (`send_time +
    /// boundary latency`, with latency ≥ lookahead); [`run_epochs`]
    /// verifies this at the barrier.
    pub fn send(&mut self, dst: usize, arrival: SimTime, msg: M) {
        let dst = u32::try_from(dst).expect("shard index fits u32");
        self.msgs.push((dst, arrival, msg));
    }

    /// Number of queued messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// What one [`run_epochs`] call did: barrier counts, message traffic and
/// the wall-clock decomposition the scaling benches report.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochReport {
    /// Epochs executed (barriers crossed). 1 for single-shard runs, which
    /// bypass the epoch loop entirely.
    pub epochs: u64,
    /// Cross-shard messages exchanged at barriers.
    pub messages: u64,
    /// Largest single-epoch mailbox exchanged, in messages.
    pub peak_epoch_messages: u64,
    /// Total shard-advance work, summed over every shard and epoch — the
    /// wall-clock a single-queue execution of the same work would need.
    pub busy: Duration,
    /// The parallel critical path: per epoch, only the slowest shard
    /// gates the barrier, so this sums `max` over shards instead of the
    /// total. `busy / critical` is the speedup an ideal machine with one
    /// core per shard would observe, measured — not modelled — from the
    /// actual run.
    pub critical: Duration,
    /// Wall-clock spent draining mailboxes at barriers (sequential).
    pub exchange: Duration,
}

impl EpochReport {
    /// `busy / critical`: the measured speedup ceiling for this run on a
    /// machine with at least one core per shard. 1.0 for single-shard
    /// runs.
    #[must_use]
    pub fn critical_path_speedup(&self) -> f64 {
        let c = self.critical.as_secs_f64() + self.exchange.as_secs_f64();
        if c <= 0.0 {
            1.0
        } else {
            self.busy.as_secs_f64() / c
        }
    }
}

/// Runs `shards` to `horizon` in lock-stepped epochs of length
/// `lookahead`, fanning the per-epoch shard work across up to `threads`
/// scoped worker threads.
///
/// The output (every shard's final state) is **byte-identical at any
/// thread count**: shards are data-independent within an epoch, and the
/// barrier drains mailboxes in (source shard, send order) order. With one
/// shard the epoch machinery is bypassed and the shard advances straight
/// to `horizon` — the single-queue kernel, unchanged.
///
/// Early exit: once every shard reports no pending events and a barrier
/// exchanged no messages, the remaining epochs are skipped (nothing can
/// create work out of thin air).
///
/// # Panics
///
/// * If `lookahead` is zero while more than one shard is present — zero
///   lookahead admits no conservative parallel schedule.
/// * If any message would arrive before the epoch barrier it was handed
///   over at (a boundary link faster than the declared lookahead).
/// * If a message addresses a shard that does not exist.
/// * Worker panics propagate to the caller, like a sequential loop.
pub fn run_epochs<S: ShardState>(
    shards: &mut [S],
    lookahead: SimDuration,
    horizon: SimTime,
    threads: usize,
) -> EpochReport {
    let mut report = EpochReport::default();
    let n = shards.len();
    if n == 0 {
        return report;
    }
    if n == 1 {
        // Single shard: no boundaries, no barriers — the classic kernel.
        let start = Instant::now();
        let mut outbox = Outbox::default();
        shards[0].advance(horizon, &mut outbox);
        assert!(
            outbox.is_empty(),
            "single-shard run produced cross-shard messages"
        );
        report.epochs = 1;
        report.busy = start.elapsed();
        report.critical = report.busy;
        return report;
    }
    assert!(
        !lookahead.is_zero(),
        "conservative lookahead must be > 0 to run {n} shards in parallel"
    );

    let mut outboxes: Vec<Outbox<S::Msg>> = Vec::with_capacity(n);
    outboxes.resize_with(n, Outbox::default);
    let mut epoch_start = SimTime::ZERO;
    while epoch_start < horizon {
        let epoch_end = epoch_start
            .checked_add(lookahead)
            .unwrap_or(SimTime::MAX)
            .min(horizon);

        // Advance every shard through [epoch_start, epoch_end) — the only
        // parallel region. Shards are handed to workers in contiguous
        // chunks; the partition cannot influence results because shards
        // share nothing until the barrier below.
        let shard_times = advance_all(shards, &mut outboxes, epoch_end, threads);
        report.busy += shard_times.iter().sum::<Duration>();
        report.critical += shard_times.iter().max().copied().unwrap_or_default();

        // Barrier: drain mailboxes in shard order, verifying the
        // lookahead contract message by message.
        let xstart = Instant::now();
        let mut exchanged = 0u64;
        for (src, outbox) in outboxes.iter_mut().enumerate() {
            for (dst, arrival, msg) in outbox.msgs.drain(..) {
                assert!(
                    arrival >= epoch_end,
                    "lookahead violation: shard {src} sent a message arriving at \
                     {arrival:?}, before the epoch barrier at {epoch_end:?}"
                );
                let dst = dst as usize;
                assert!(dst < n, "message addressed to unknown shard {dst}");
                shards[dst].accept(arrival, msg);
                exchanged += 1;
            }
        }
        report.exchange += xstart.elapsed();
        report.messages += exchanged;
        report.peak_epoch_messages = report.peak_epoch_messages.max(exchanged);
        report.epochs += 1;
        epoch_start = epoch_end;

        if exchanged == 0 && shards.iter_mut().all(|s| s.next_event_time().is_none()) {
            break;
        }
    }
    report
}

/// Advances every shard to `horizon`, in parallel when `threads > 1`,
/// returning each shard's wall-clock advance time (indexed by shard).
fn advance_all<S: ShardState>(
    shards: &mut [S],
    outboxes: &mut [Outbox<S::Msg>],
    horizon: SimTime,
    threads: usize,
) -> Vec<Duration> {
    let n = shards.len();
    let workers = threads.clamp(1, n);
    if workers <= 1 {
        return shards
            .iter_mut()
            .zip(outboxes.iter_mut())
            .map(|(s, ob)| {
                let t = Instant::now();
                s.advance(horizon, ob);
                t.elapsed()
            })
            .collect();
    }
    let mut pairs: Vec<(&mut S, &mut Outbox<S::Msg>)> =
        shards.iter_mut().zip(outboxes.iter_mut()).collect();
    let chunk_len = n.div_ceil(workers);
    let mut times = vec![Duration::default(); n];
    std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks_mut(chunk_len)
            .zip(times.chunks_mut(chunk_len))
            .map(|(chunk, tchunk)| {
                scope.spawn(move || {
                    for ((s, ob), slot) in chunk.iter_mut().zip(tchunk.iter_mut()) {
                        let t = Instant::now();
                        s.advance(horizon, ob);
                        *slot = t.elapsed();
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(cause) = h.join() {
                std::panic::resume_unwind(cause);
            }
        }
    });
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy shard: fires a self-event every `period`, and every `k`-th
    /// event sends a token to the next shard, which arrives `latency`
    /// later and is appended to a log.
    struct Ring {
        idx: usize,
        n: usize,
        period: SimDuration,
        latency: SimDuration,
        next_fire: Option<SimTime>,
        pending: Vec<(SimTime, u64)>,
        log: Vec<(SimTime, u64)>,
        fired: u64,
        stop: SimTime,
    }

    impl Ring {
        fn new(idx: usize, n: usize, stop: SimTime) -> Self {
            Ring {
                idx,
                n,
                period: SimDuration::from_millis(3 + idx as u64),
                latency: SimDuration::from_millis(10),
                next_fire: Some(SimTime::ZERO + SimDuration::from_millis(idx as u64)),
                pending: Vec::new(),
                log: Vec::new(),
                fired: 0,
                stop,
            }
        }
    }

    impl ShardState for Ring {
        type Msg = u64;

        fn accept(&mut self, arrival: SimTime, msg: u64) {
            self.pending.push((arrival, msg));
        }

        fn advance(&mut self, horizon: SimTime, outbox: &mut Outbox<u64>) {
            loop {
                // Merge the two local event sources by time; determinism
                // within the shard is the shard's own business.
                self.pending.sort_by_key(|&(t, m)| (t, m));
                let fire = self.next_fire.filter(|&t| t < horizon);
                let deliver = self.pending.first().copied().filter(|&(t, _)| t < horizon);
                match (fire, deliver) {
                    (Some(tf), Some((td, _))) if td <= tf => {
                        let (t, m) = self.pending.remove(0);
                        self.log.push((t, m));
                    }
                    (_, Some((td, _))) if fire.is_none() && td < horizon => {
                        let (t, m) = self.pending.remove(0);
                        self.log.push((t, m));
                    }
                    (Some(tf), _) => {
                        self.fired += 1;
                        if self.fired.is_multiple_of(2) && self.n > 1 {
                            let dst = (self.idx + 1) % self.n;
                            outbox.send(dst, tf + self.latency, self.fired);
                        }
                        self.next_fire = if tf + self.period < self.stop {
                            Some(tf + self.period)
                        } else {
                            None
                        };
                    }
                    _ => break,
                }
            }
        }

        fn next_event_time(&mut self) -> Option<SimTime> {
            let p = self.pending.iter().map(|&(t, _)| t).min();
            match (self.next_fire, p) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }
    }

    fn run_ring(n: usize, threads: usize) -> Vec<Vec<(SimTime, u64)>> {
        let stop = SimTime::from_millis(200);
        let mut shards: Vec<Ring> = (0..n).map(|i| Ring::new(i, n, stop)).collect();
        let report = run_epochs(
            &mut shards,
            SimDuration::from_millis(10),
            SimTime::from_secs(1),
            threads,
        );
        assert!(report.epochs > 0);
        if n > 1 {
            assert!(report.messages > 0, "ring must exchange tokens");
        }
        shards.into_iter().map(|s| s.log).collect()
    }

    #[test]
    fn sharded_run_is_thread_count_invariant() {
        let seq = run_ring(5, 1);
        for threads in [2, 3, 8] {
            assert_eq!(seq, run_ring(5, threads), "threads={threads}");
        }
    }

    #[test]
    fn single_shard_bypasses_the_epoch_loop() {
        let logs = run_ring(1, 4);
        assert_eq!(logs.len(), 1);
        assert!(logs[0].is_empty(), "one shard has no peers to message");
    }

    #[test]
    fn early_exit_skips_quiet_epochs() {
        let stop = SimTime::from_millis(50);
        let mut shards: Vec<Ring> = (0..3).map(|i| Ring::new(i, 3, stop)).collect();
        let report = run_epochs(
            &mut shards,
            SimDuration::from_millis(10),
            SimTime::from_secs(3600),
            1,
        );
        // Activity dies ~60 ms in (stop + latency); a full hour of 10 ms
        // epochs would be 360k barriers.
        assert!(report.epochs < 20, "ran {} epochs", report.epochs);
    }

    #[test]
    fn messages_never_arrive_inside_their_send_epoch() {
        // All ring messages carry latency == lookahead, the tight case:
        // run_epochs asserts arrival >= barrier for every one, so a green
        // run is the proof.
        let logs = run_ring(4, 2);
        let delivered: usize = logs.iter().map(Vec::len).sum();
        assert!(delivered > 0);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn too_fast_boundary_is_a_loud_bug() {
        struct Cheat(bool);
        impl ShardState for Cheat {
            type Msg = ();
            fn accept(&mut self, _: SimTime, _msg: ()) {}
            fn advance(&mut self, _horizon: SimTime, outbox: &mut Outbox<()>) {
                if self.0 {
                    // Arrives at t=1ms — inside the 5ms epoch that sent it.
                    outbox.send(1, SimTime::from_millis(1), ());
                    self.0 = false;
                }
            }
            fn next_event_time(&mut self) -> Option<SimTime> {
                None
            }
        }
        let mut shards = vec![Cheat(true), Cheat(false)];
        run_epochs(
            &mut shards,
            SimDuration::from_millis(5),
            SimTime::from_secs(1),
            1,
        );
    }

    #[test]
    #[should_panic(expected = "lookahead must be > 0")]
    fn zero_lookahead_with_multiple_shards_is_rejected() {
        let stop = SimTime::from_millis(10);
        let mut shards: Vec<Ring> = (0..2).map(|i| Ring::new(i, 2, stop)).collect();
        run_epochs(&mut shards, SimDuration::ZERO, SimTime::from_secs(1), 1);
    }

    #[test]
    fn report_accounts_busy_and_critical_time() {
        let stop = SimTime::from_millis(100);
        let mut shards: Vec<Ring> = (0..4).map(|i| Ring::new(i, 4, stop)).collect();
        let report = run_epochs(
            &mut shards,
            SimDuration::from_millis(10),
            SimTime::from_secs(1),
            2,
        );
        // Structure only: the durations are wall-clock over microseconds
        // of work, so their ratio is whatever the box was doing.
        assert!(report.busy >= report.critical);
        assert!(report.peak_epoch_messages <= report.messages);
        // Ten 10 ms epochs of firing, one more to deliver the last tokens.
        assert_eq!(report.epochs, 11);
    }

    #[test]
    fn critical_path_speedup_is_busy_over_critical_plus_exchange() {
        let report = EpochReport {
            busy: Duration::from_millis(400),
            critical: Duration::from_millis(90),
            exchange: Duration::from_millis(10),
            ..EpochReport::default()
        };
        assert!((report.critical_path_speedup() - 4.0).abs() < 1e-12);
        // Exchange swamping the work drags the ratio below 1.
        let swamped = EpochReport {
            exchange: Duration::from_secs(1),
            ..report
        };
        assert!(swamped.critical_path_speedup() < 1.0);
        assert!((EpochReport::default().critical_path_speedup() - 1.0).abs() < 1e-12);
    }
}
