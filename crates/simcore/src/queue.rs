//! The pending-event set: a time-ordered priority queue with O(1) lazy
//! cancellation.
//!
//! Events scheduled for the same instant are delivered in FIFO order of
//! scheduling (a monotonically increasing sequence number breaks ties), which
//! keeps simulations deterministic regardless of heap internals.
//!
//! # Design
//!
//! The ordering structure stores only small `Copy` entries — `(time, seq,
//! slot)`, 24 bytes — while event payloads live in a slot arena beside it.
//! Sift operations therefore move fixed-size records instead of whole
//! events, and [`EventQueue::cancel`] is O(1): it takes the payload out of
//! its slot and leaves the ordering entry behind as a *stale* marker. `pop`
//! (and `peek_time`) purge stale markers as they surface. The `seq` stamp
//! doubles as a generation counter, so a recycled slot can never satisfy an
//! old [`EventKey`].
//!
//! Every simulation orders its entries with this module's own array-backed
//! binary min-heap (the private `MinHeap`), not the standard library's. The
//! queues the thesis runs build hold tens of entries, so a push or pop is a
//! handful of comparisons; what the library heap cost there was copies — an
//! entry assembled on the stack from three scalars, reloaded as a vector to
//! be pushed, reloaded again to be sifted (store-forwarding stalls each
//! time). Here the moving element stays in locals and is written once, at
//! its final position. The payload is written once as well: `push` stores
//! it straight into its slot, and [`crate::Simulator`] takes it straight
//! out of the slot into the handler's argument; [`EventQueue::pop`] is that
//! same in-place pop plus the `take()`.
//!
//! [`QueueKind::Calendar`] selects a calendar queue (the `calendar` module)
//! with O(1) amortized push/pop in place of the heap. Delivery order is
//! bit-identical between them (proptested). The calendar is unreachable
//! from any scenario, experiment or bin — [`crate::Simulator`] always
//! builds the heap. It is still compiled only because `benchmark/`'s
//! `simcore.queue.hold_ns_calendar_*` probes construct it; it goes,
//! together with [`QueueKind`] and [`EventQueue::with_kind`], when a
//! `benchmark` PR drops those two probes.
//!
//! # Examples
//!
//! ```
//! use fh_sim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_millis(2), "late");
//! q.push(SimTime::from_millis(1), "early");
//! let key = q.push(SimTime::from_millis(1), "cancelled");
//! assert_eq!(q.cancel(key), Some("cancelled"));
//! assert_eq!(q.cancel(key), None); // keys are single-use
//! assert_eq!(q.pop().unwrap().1, "early");
//! assert_eq!(q.pop().unwrap().1, "late");
//! assert!(q.pop().is_none());
//! ```

use crate::calendar::Calendar;
use crate::time::SimTime;

/// Selects the ordering structure backing an [`EventQueue`].
///
/// Both backends share the slot arena, keyed cancellation, generation
/// stamps, and the exact `(time, seq)` delivery order — a simulation pops
/// the same events in the same order under either kind, so the choice is
/// purely a performance knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// Binary heap of 24-byte entries: O(log n) push/pop, the conservative
    /// default.
    #[default]
    Heap,
    /// Calendar queue (time-sliced buckets): O(1) amortized push/pop when
    /// sized to the live population. See the `calendar` module docs.
    Calendar,
}

/// A single-use handle to a scheduled event, returned by
/// [`EventQueue::push`] and redeemed by [`EventQueue::cancel`].
///
/// Keys are generation-stamped: once the event fires or is cancelled, the
/// key is dead, and a key never aliases a later event that reuses the same
/// internal slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    slot: u32,
    seq: u64,
}

/// An event queue ordered by time, then by insertion order.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    backend: Backend,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    seq: u64,
    live: usize,
}

/// The ordering structure holding `(time, seq, slot)` records; payloads stay
/// in the slot arena either way.
#[derive(Debug, Clone)]
enum Backend {
    Heap(MinHeap),
    Calendar(Calendar),
}

/// Payload storage for one scheduled event. `seq` identifies the push that
/// currently owns the slot; a mismatching heap entry or key is stale.
#[derive(Debug, Clone)]
pub(crate) struct Slot<E> {
    pub(crate) seq: u64,
    pub(crate) event: Option<E>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl Entry {
    /// `true` if `self` is delivered strictly before `(time, seq)`.
    #[inline]
    fn before(&self, time: SimTime, seq: u64) -> bool {
        (self.time, self.seq) < (time, seq)
    }
}

/// Array-backed binary min-heap of [`Entry`] by `(time, seq)`.
///
/// The element being placed travels as scalars and is stored once, where it
/// comes to rest; the entries it passes are each moved once. `seq` is unique
/// per queue, so no two entries compare equal and the pop order does not
/// depend on the sift strategy.
#[derive(Debug, Clone, Default)]
struct MinHeap {
    entries: Vec<Entry>,
}

impl MinHeap {
    #[inline]
    fn push(&mut self, time: SimTime, seq: u64, slot: u32) {
        let pos = self.entries.len();
        // Claims the new leaf; `sift_up` overwrites it unless it stays put.
        self.entries.push(Entry { time, seq, slot });
        self.sift_up(pos, time, seq, slot);
    }

    /// Places `(time, seq, slot)` at or above the vacant position `pos`,
    /// moving later ancestors down into the vacancy.
    #[inline]
    fn sift_up(&mut self, mut pos: usize, time: SimTime, seq: u64, slot: u32) {
        let entries = self.entries.as_mut_slice();
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = entries[parent];
            if above.before(time, seq) {
                break;
            }
            entries[pos] = above;
            pos = parent;
        }
        entries[pos] = Entry { time, seq, slot };
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry> {
        let last = self.entries.pop()?;
        let entries = self.entries.as_mut_slice();
        let Some(&top) = entries.first() else {
            return Some(last);
        };
        // Walk the vacancy left by the root down to a leaf along the earlier
        // child (one comparison per level, no branch on its outcome), then
        // sift the detached last leaf up from there: it came from the bottom
        // and almost always belongs near it.
        let end = entries.len();
        let mut pos = 0;
        let mut child = 1;
        while child + 1 < end {
            let right = entries[child + 1];
            child += usize::from(right.before(entries[child].time, entries[child].seq));
            entries[pos] = entries[child];
            pos = child;
            child = 2 * pos + 1;
        }
        if child < end {
            entries[pos] = entries[child];
            pos = child;
        }
        self.sift_up(pos, last.time, last.seq, last.slot);
        Some(top)
    }

    fn peek(&self) -> Option<&Entry> {
        self.entries.first()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue backed by the binary heap.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::with_kind(QueueKind::Heap)
    }

    /// Creates an empty queue backed by the requested structure.
    #[must_use]
    pub fn with_kind(kind: QueueKind) -> Self {
        let backend = match kind {
            QueueKind::Heap => Backend::Heap(MinHeap::default()),
            QueueKind::Calendar => Backend::Calendar(Calendar::new()),
        };
        EventQueue {
            backend,
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            live: 0,
        }
    }

    /// Which backend this queue was built with.
    #[must_use]
    pub fn kind(&self) -> QueueKind {
        match self.backend {
            Backend::Heap(_) => QueueKind::Heap,
            Backend::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Schedules `event` at absolute time `time`, returning a key that can
    /// cancel it until it fires.
    pub fn push(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(i) => {
                // Field by field, so the payload is moved into the slot
                // rather than through a `Slot` temporary.
                let slot = &mut self.slots[i as usize];
                slot.seq = seq;
                slot.event = Some(event);
                i
            }
            None => {
                assert!(
                    self.slots.len() < u32::MAX as usize,
                    "event queue slot overflow"
                );
                self.slots.push(Slot {
                    seq,
                    event: Some(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(time, seq, slot),
            Backend::Calendar(cal) => cal.push(Entry { time, seq, slot }, &self.slots),
        }
        EventKey { slot, seq }
    }

    /// Cancels a scheduled event in O(1), returning its payload.
    ///
    /// Returns `None` if the event already fired, was already cancelled, or
    /// the key belongs to another queue generation. The backend entry is
    /// left in place as a stale marker and purged when a pop or peek scan
    /// passes over it.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let slot = self.slots.get_mut(key.slot as usize)?;
        if slot.seq != key.seq {
            return None;
        }
        let event = slot.event.take()?;
        self.free.push(key.slot);
        self.live -= 1;
        if let Backend::Calendar(cal) = &mut self.backend {
            cal.on_cancel(key.seq);
        }
        Some(event)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Stale entries left behind by [`cancel`](Self::cancel) are purged as
    /// they surface, so amortized cost stays O(log n) per scheduled event on
    /// the heap backend and O(1) on the calendar.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.pop_in_place()?;
        Some((time, event.take().expect("backend returned a live entry")))
    }

    /// [`pop`](Self::pop) without moving the payload: unlinks the earliest
    /// event and hands back its time and its slot's payload cell, which the
    /// caller **must** `take()` before touching the queue again — the slot is
    /// already on the free list.
    pub(crate) fn pop_in_place(&mut self) -> Option<(SimTime, &mut Option<E>)> {
        let entry = match &mut self.backend {
            Backend::Heap(heap) => loop {
                let entry = heap.pop()?;
                let slot = &self.slots[entry.slot as usize];
                if slot.seq == entry.seq && slot.event.is_some() {
                    break entry;
                }
                // Stale: recycled by a later push, or cancelled.
            },
            Backend::Calendar(cal) => cal.pop_min(&self.slots)?,
        };
        self.free.push(entry.slot);
        self.live -= 1;
        Some((entry.time, &mut self.slots[entry.slot as usize].event))
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because stale cancelled entries encountered on the
    /// way to the front are purged before reading the time.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(heap) => {
                while let Some(entry) = heap.peek() {
                    let slot = &self.slots[entry.slot as usize];
                    if slot.seq == entry.seq && slot.event.is_some() {
                        return Some(entry.time);
                    }
                    heap.pop();
                }
                None
            }
            Backend::Calendar(cal) => cal.peek(&self.slots).map(|e| e.time),
        }
    }

    /// Number of pending (non-cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Heap(heap) => heap.clear(),
            Backend::Calendar(cal) => cal.clear(),
        }
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        // `seq` keeps counting so keys from before the clear stay dead.
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_in_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(5), ());
        q.push(SimTime::from_millis(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(2));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(30), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn cancel_removes_event_and_returns_payload() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), "keep");
        let key = q.push(SimTime::from_millis(2), "drop");
        q.push(SimTime::from_millis(3), "also-keep");
        assert_eq!(q.len(), 3);
        assert_eq!(q.cancel(key), Some("drop"));
        assert_eq!(q.len(), 2);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["keep", "also-keep"]);
    }

    #[test]
    fn cancel_is_single_use() {
        let mut q = EventQueue::new();
        let key = q.push(SimTime::from_millis(1), 7);
        assert_eq!(q.cancel(key), Some(7));
        assert_eq!(q.cancel(key), None);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn key_does_not_alias_recycled_slot() {
        let mut q = EventQueue::new();
        let stale = q.push(SimTime::from_millis(1), "first");
        assert_eq!(q.cancel(stale), Some("first"));
        // The slot is recycled by the next push; the old key must stay dead.
        let fresh = q.push(SimTime::from_millis(2), "second");
        assert_eq!(q.cancel(stale), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancel(fresh), Some("second"));
    }

    #[test]
    fn key_dead_after_pop() {
        let mut q = EventQueue::new();
        let key = q.push(SimTime::from_millis(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1)));
        assert_eq!(q.cancel(key), None);
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let early = q.push(SimTime::from_millis(1), "early");
        q.push(SimTime::from_millis(5), "late");
        assert_eq!(q.cancel(early), Some("early"));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn cancel_after_clear_is_none() {
        let mut q = EventQueue::new();
        let key = q.push(SimTime::from_millis(1), 1);
        q.clear();
        assert_eq!(q.cancel(key), None);
        // New pushes after clear get fresh generations.
        let k2 = q.push(SimTime::from_millis(1), 2);
        assert_eq!(q.cancel(key), None);
        assert_eq!(q.cancel(k2), Some(2));
    }

    #[test]
    fn heavy_cancel_churn_stays_consistent() {
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for round in 0..50u64 {
            for i in 0..100u64 {
                keys.push(q.push(SimTime::from_micros(round * 1000 + i), (round, i)));
            }
            // Cancel every other event of this round.
            for k in keys.drain(..).skip(1).step_by(2) {
                assert!(q.cancel(k).is_some());
            }
        }
        assert_eq!(q.len(), 50 * 50);
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, (_, i))) = q.pop() {
            assert!(t >= last, "pop went backwards");
            assert_eq!(i % 2, 0, "cancelled event escaped");
            last = t;
            n += 1;
        }
        assert_eq!(n, 50 * 50);
    }

    #[test]
    fn heap_entry_stays_small() {
        // The hot path sifts `Entry` records; keep them at 24 bytes even for
        // large event payloads.
        assert_eq!(std::mem::size_of::<super::Entry>(), 24);
    }

    // ---- calendar backend -------------------------------------------------

    /// Every single-queue behavior above, replayed on the calendar backend.
    fn calendar() -> EventQueue<i32> {
        EventQueue::with_kind(QueueKind::Calendar)
    }

    #[test]
    fn calendar_pops_in_time_order_with_fifo_ties() {
        let mut q = calendar();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        let t = SimTime::from_secs(1);
        for i in 100..200 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let mut expected = vec![1, 2, 3];
        expected.extend(100..200);
        assert_eq!(order, expected);
    }

    #[test]
    fn calendar_cancel_and_key_semantics() {
        let mut q = calendar();
        let stale = q.push(SimTime::from_millis(1), 1);
        assert_eq!(q.cancel(stale), Some(1));
        let fresh = q.push(SimTime::from_millis(2), 2);
        assert_eq!(q.cancel(stale), None); // no aliasing of recycled slots
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancel(fresh), Some(2));
        let popped = q.push(SimTime::from_millis(3), 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), 3)));
        assert_eq!(q.cancel(popped), None); // dead after pop
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_peek_skips_cancelled_head() {
        let mut q = calendar();
        let early = q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(5), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.cancel(early), Some(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        // A later push that precedes the cached head must displace it.
        q.push(SimTime::from_millis(2), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), 5)));
    }

    #[test]
    fn calendar_bucket_rollover_across_years() {
        // Spread events over many multiples of the initial bucket window so
        // pops must cross year boundaries and fold in overflow entries.
        let mut q = calendar();
        let mut expected = Vec::new();
        for i in 0..500i32 {
            // ~97 ms apart with a 16-bucket, ~1 ms-wide initial calendar:
            // every event lives in a different "year".
            q.push(SimTime::from_micros(i as u64 * 97_000), i);
            expected.push(i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn calendar_far_future_timer_waits_in_overflow() {
        let mut q = calendar();
        let doom = q.push(SimTime::from_nanos(u64::MAX), -1);
        let sentinel = q.push(SimTime::from_nanos(u64::MAX - 1), -2);
        for i in 0..200 {
            q.push(SimTime::from_micros(i as u64 * 13), i);
        }
        // Near events all pop first, in order.
        for i in 0..200 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        // The far-future timer is still cancellable...
        assert_eq!(q.cancel(sentinel), Some(-2));
        // ...and the survivor surfaces at the end of time.
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX), -1)));
        assert!(q.pop().is_none());
        assert_eq!(q.cancel(doom), None);
    }

    #[test]
    fn calendar_interleaved_push_pop_after_rollover() {
        let mut q = calendar();
        let mut clock = 0u64;
        let mut popped = 0;
        for round in 0..50u64 {
            // March time forward aggressively so the cursor rolls over.
            for i in 0..20u64 {
                q.push(
                    SimTime::from_micros(clock + 1 + i * 1700),
                    (round * 20 + i) as i32,
                );
            }
            for _ in 0..15 {
                let (t, _) = q.pop().unwrap();
                assert!(t.as_nanos() >= clock * 1000);
                clock = t.as_nanos() / 1000;
                popped += 1;
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 50 * 20);
    }

    #[test]
    fn calendar_matches_heap_under_random_churn() {
        use crate::rng::Rng64;
        let mut rng = Rng64::seed_from(0x0420_1337);
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut cal: EventQueue<u64> = EventQueue::with_kind(QueueKind::Calendar);
        let mut keys: Vec<(EventKey, EventKey)> = Vec::new();
        let mut clock = 0u64;
        for i in 0..30_000u64 {
            match rng.gen_range_u64(10) {
                // 60% push with a mix of near, far, and tied timestamps
                0..=5 => {
                    let t = match rng.gen_range_u64(20) {
                        0 => clock,                                // tie with "now"
                        1 => clock + 500_000_000,                  // half a second out
                        _ => clock + rng.gen_range_u64(3_000_000), // normal lookahead
                    };
                    let hk = heap.push(SimTime::from_nanos(t), i);
                    let ck = cal.push(SimTime::from_nanos(t), i);
                    keys.push((hk, ck));
                }
                // 20% pop from both; results must match exactly
                6..=7 => {
                    assert_eq!(heap.peek_time(), cal.peek_time());
                    let h = heap.pop();
                    assert_eq!(h, cal.pop());
                    if let Some((t, _)) = h {
                        clock = t.as_nanos();
                    }
                }
                // 20% cancel the same pending key on both sides
                _ => {
                    if !keys.is_empty() {
                        let idx = rng.gen_range_u64(keys.len() as u64) as usize;
                        let (hk, ck) = keys.swap_remove(idx);
                        assert_eq!(heap.cancel(hk), cal.cancel(ck));
                        assert_eq!(heap.len(), cal.len());
                    }
                }
            }
        }
        loop {
            let h = heap.pop();
            assert_eq!(h, cal.pop());
            if h.is_none() {
                break;
            }
        }
    }
}
