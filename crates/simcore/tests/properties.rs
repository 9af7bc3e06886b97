//! Property tests for the simulation kernel.

use std::collections::BTreeMap;

use fh_sim::stats::{windowed_rate, Welford};
use fh_sim::{EventQueue, LaneQueue, QueueKind, Rng64, SimDuration, SimTime};
use proptest::prelude::*;

/// One step of a randomized schedule/cancel/pop interleaving, applied in
/// lockstep to a heap-backed and a calendar-backed queue.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule at `clock + jitter` (index selects tie/near/far behavior).
    Push(u64),
    /// Pop from both queues; results must be identical.
    Pop,
    /// Cancel the pending key at `index % pending.len()` on both sides.
    Cancel(usize),
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    // Arms are repeated to weight the mix (the vendored prop_oneof! is
    // unweighted): mostly near pushes and pops, with ties, far-future
    // timers, and cancels sprinkled in.
    prop_oneof![
        (0u64..5_000_000).prop_map(QueueOp::Push),
        (0u64..5_000_000).prop_map(QueueOp::Push),
        (0u64..5_000_000).prop_map(QueueOp::Push),
        Just(QueueOp::Push(0)), // exact tie with now
        (1_000_000_000u64..3_000_000_000).prop_map(QueueOp::Push), // far future
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        any::<usize>().prop_map(QueueOp::Cancel),
        any::<usize>().prop_map(QueueOp::Cancel),
    ]
}

/// One step of a script applied to an [`EventQueue`] and to the ordered-map
/// model that specifies it.
#[derive(Debug, Clone)]
enum OracleOp {
    /// Schedule at `clock + jitter` and remember the key.
    Push(u64),
    /// Pop; time and payload must be the model's first entry.
    Pop,
    /// `peek_time` must be the model's first key.
    Peek,
    /// Cancel key `index % keys.len()` of every key ever handed out, so
    /// fired, cancelled and pre-`clear` keys are redeemed too.
    Cancel(usize),
    /// Drop everything pending.
    Clear,
}

fn oracle_op() -> impl Strategy<Value = OracleOp> {
    prop_oneof![
        (0u64..5_000_000).prop_map(OracleOp::Push),
        (0u64..5_000_000).prop_map(OracleOp::Push),
        (0u64..4).prop_map(OracleOp::Push), // ties among near pushes
        Just(OracleOp::Push(0)),            // exact tie with now
        (1_000_000_000u64..3_000_000_000).prop_map(OracleOp::Push), // far future
        Just(OracleOp::Pop),
        Just(OracleOp::Pop),
        Just(OracleOp::Pop),
        Just(OracleOp::Peek),
        any::<usize>().prop_map(OracleOp::Cancel),
        any::<usize>().prop_map(OracleOp::Cancel),
        any::<usize>().prop_map(OracleOp::Cancel),
    ]
}

/// One step of a push/pop script applied in lockstep to a [`LaneQueue`]
/// and the [`EventQueue`] it must be order-equivalent to.
#[derive(Debug, Clone)]
enum LaneOp {
    /// Schedule at `clock + jitter`, through lane `Some(i)` or straight
    /// to the heap (`None`; the reference queue has only that path).
    Push(Option<usize>, u64),
    /// Peek, then pop, on both queues.
    Pop,
    /// `pop_before(clock + window)` against the reference's peek-then-pop.
    PopBefore(u64),
}

fn lane_op() -> impl Strategy<Value = LaneOp> {
    // Jitter is drawn independently per push, so roughly half of the
    // pushes into a lane are earlier than its last one and must fall
    // back. Zero jitter ties with the last popped time, and the same
    // timestamp then lands in different lanes and in the heap.
    let target = || prop_oneof![Just(None), (0usize..3).prop_map(Some)];
    prop_oneof![
        (target(), 0u64..5_000).prop_map(|(l, j)| LaneOp::Push(l, j)),
        (target(), 0u64..5_000).prop_map(|(l, j)| LaneOp::Push(l, j)),
        (target(), 0u64..4).prop_map(|(l, j)| LaneOp::Push(l, j)), // ties
        target().prop_map(|l| LaneOp::Push(l, 0)),                 // ties with now
        // A far-future item parks at a lane's tail: every later near push
        // into that lane falls back until it drains.
        (0usize..3).prop_map(|l| LaneOp::Push(Some(l), 1_000_000_000)),
        Just(LaneOp::Pop),
        Just(LaneOp::Pop),
        (0u64..3_000).prop_map(LaneOp::PopBefore),
    ]
}

proptest! {
    /// For any push sequence — sorted or not, through any lane or none —
    /// a `LaneQueue` pops exactly what an `EventQueue` pops.
    #[test]
    fn lane_queue_matches_event_queue(ops in prop::collection::vec(lane_op(), 1..400)) {
        let mut lanes: LaneQueue<u64, 3> = LaneQueue::new();
        let mut reference: EventQueue<u64> = EventQueue::new();
        let mut clock = 0u64;
        let mut pushes = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            let got = match op {
                LaneOp::Push(lane, jitter) => {
                    pushes += 1;
                    let t = SimTime::from_nanos(clock + jitter);
                    match lane {
                        Some(l) => lanes.push_lane(l, t, i as u64),
                        None => lanes.push(t, i as u64),
                    }
                    reference.push(t, i as u64);
                    None
                }
                LaneOp::Pop => {
                    prop_assert_eq!(lanes.peek_time(), reference.peek_time());
                    let got = lanes.pop();
                    prop_assert_eq!(got, reference.pop());
                    got
                }
                LaneOp::PopBefore(window) => {
                    let horizon = SimTime::from_nanos(clock + window);
                    let want = match reference.peek_time() {
                        Some(t) if t < horizon => reference.pop(),
                        _ => None,
                    };
                    let got = lanes.pop_before(horizon);
                    prop_assert_eq!(got, want);
                    got
                }
            };
            if let Some((t, _)) = got {
                clock = t.as_nanos();
            }
            prop_assert_eq!(lanes.len(), reference.len());
        }
        prop_assert_eq!(lanes.lane_pushes() + lanes.heap_pushes(), pushes);
        loop {
            let got = lanes.pop();
            prop_assert_eq!(got, reference.pop());
            if got.is_none() {
                break;
            }
        }
    }

    /// The queue against its specification: an ordered map keyed by
    /// `(time, push ordinal)`. Every pop, peek, length and cancel result
    /// must match, through ties, far-future timers, recycled slots, dead
    /// keys and `clear`.
    #[test]
    fn event_queue_matches_ordered_map_model(
        ops in prop::collection::vec(oracle_op(), 1..600),
        clear_at in prop::collection::vec(0usize..600, 0..3),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut keys = Vec::new();
        let mut clock = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            let ordinal = i as u64;
            match if clear_at.contains(&i) { OracleOp::Clear } else { op } {
                OracleOp::Push(jitter) => {
                    let at = (SimTime::from_nanos(clock + jitter), ordinal);
                    keys.push((q.push(at.0, ordinal), at));
                    model.insert(at, ordinal);
                }
                OracleOp::Pop => {
                    let want = model.pop_first().map(|((t, _), payload)| (t, payload));
                    prop_assert_eq!(q.pop(), want);
                    if let Some((t, _)) = want {
                        clock = t.as_nanos();
                    }
                }
                OracleOp::Peek => {
                    prop_assert_eq!(q.peek_time(), model.keys().next().map(|&(t, _)| t));
                }
                OracleOp::Cancel(raw) => {
                    if !keys.is_empty() {
                        let (key, at) = keys[raw % keys.len()];
                        prop_assert_eq!(q.cancel(key), model.remove(&at));
                    }
                }
                OracleOp::Clear => {
                    q.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        while let Some(((t, _), payload)) = model.pop_first() {
            prop_assert_eq!(q.pop(), Some((t, payload)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Events pop in nondecreasing time order, FIFO within a timestamp.
    #[test]
    fn event_queue_pops_sorted_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort(); // stable by (time, insertion index)
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.as_nanos(), i));
        }
        prop_assert_eq!(got, expected);
    }

    /// Interleaved push/pop never yields an event earlier than one already
    /// delivered.
    #[test]
    fn event_queue_monotone_under_interleaving(
        ops in prop::collection::vec((0u64..1_000, prop::bool::ANY), 1..200)
    ) {
        let mut q = EventQueue::new();
        let mut last = 0u64;
        let mut clock = 0u64;
        for (jitter, pop) in ops {
            if pop {
                if let Some((t, ())) = q.pop() {
                    prop_assert!(t.as_nanos() >= last);
                    last = t.as_nanos();
                    clock = clock.max(last);
                }
            } else {
                // Schedule relative to the "current" time so the past is
                // never injected (mirrors Ctx::send).
                q.push(SimTime::from_nanos(clock + jitter), ());
            }
        }
    }

    /// `gen_range_u64` stays in bounds and the stream is seed-determined.
    #[test]
    fn rng_in_bounds_and_deterministic(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut a = Rng64::seed_from(seed);
        let mut b = Rng64::seed_from(seed);
        for _ in 0..100 {
            let x = a.gen_range_u64(n);
            prop_assert!(x < n);
            prop_assert_eq!(x, b.gen_range_u64(n));
        }
    }

    /// Welford merging any split equals processing the whole stream.
    #[test]
    fn welford_merge_is_split_invariant(
        xs in prop::collection::vec(-1e6f64..1e6, 1..300),
        cut in 0usize..300
    ) {
        let cut = cut.min(xs.len());
        let mut whole = Welford::new();
        for &x in &xs { whole.add(x); }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..cut] { left.add(x); }
        for &x in &xs[cut..] { right.add(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-3);
    }

    /// Windowed rates conserve mass: Σ rate·bin = Σ in-range samples.
    #[test]
    fn windowed_rate_conserves_mass(
        samples in prop::collection::vec((0u64..10_000_000u64, 0.0f64..100.0), 0..200),
        bin_ms in 1u64..500
    ) {
        let mut sorted = samples.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let end = SimTime::from_secs(10);
        let rates = windowed_rate(
            sorted.iter().map(|&(t, v)| (SimTime::from_micros(t), v)),
            SimTime::ZERO,
            end,
            SimDuration::from_millis(bin_ms),
        );
        let mass: f64 = rates.iter().map(|&(_, r)| r * (bin_ms as f64 / 1e3)).sum();
        let expected: f64 = sorted.iter().map(|&(_, v)| v).sum();
        prop_assert!((mass - expected).abs() < 1e-6 * (1.0 + expected.abs()),
                     "mass {} vs {}", mass, expected);
    }

    /// Instant/duration arithmetic round-trips.
    #[test]
    fn time_arithmetic_round_trips(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }

    /// The calendar backend is observationally identical to the heap: pops,
    /// peeks, cancels, and lengths agree over any schedule/cancel/pop
    /// interleaving, including same-instant ties and far-future timers.
    #[test]
    fn calendar_queue_matches_heap(ops in prop::collection::vec(queue_op(), 1..400)) {
        let mut heap: EventQueue<u64> = EventQueue::with_kind(QueueKind::Heap);
        let mut cal: EventQueue<u64> = EventQueue::with_kind(QueueKind::Calendar);
        let mut pending = Vec::new();
        let mut clock = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                QueueOp::Push(jitter) => {
                    let t = SimTime::from_nanos(clock + jitter);
                    pending.push((heap.push(t, i as u64), cal.push(t, i as u64)));
                }
                QueueOp::Pop => {
                    prop_assert_eq!(heap.peek_time(), cal.peek_time());
                    let got = heap.pop();
                    prop_assert_eq!(got, cal.pop());
                    if let Some((t, _)) = got {
                        clock = t.as_nanos();
                    }
                }
                QueueOp::Cancel(raw) => {
                    if !pending.is_empty() {
                        let (hk, ck) = pending.swap_remove(raw % pending.len());
                        prop_assert_eq!(heap.cancel(hk), cal.cancel(ck));
                    }
                }
            }
            prop_assert_eq!(heap.len(), cal.len());
        }
        loop {
            let got = heap.pop();
            prop_assert_eq!(got, cal.pop());
            if got.is_none() {
                break;
            }
        }
    }

    /// Forked RNG children never mirror the parent stream.
    #[test]
    fn forked_rng_diverges(seed in any::<u64>()) {
        let mut parent = Rng64::seed_from(seed);
        let mut child = parent.fork();
        let same = (0..32).filter(|_| parent.next_u64() == child.next_u64()).count();
        prop_assert!(same < 2);
    }
}
