//! A pending-event set for workloads whose pushes are mostly already
//! time-sorted: FIFO lanes in front of a binary heap.
//!
//! A kernel that reschedules most events at `now + constant` pushes each
//! such stream in nondecreasing time order, because `now` never goes
//! backwards. A [`LaneQueue`] gives every such stream its own `VecDeque`
//! *lane*: push and pop there are O(1) and touch only the two ends. Every
//! item, in a lane or in the heap, is stamped with one monotonically
//! increasing `seq`, exactly as [`EventQueue`](crate::EventQueue) stamps
//! its pushes, and `pop` takes the `(time, seq)` minimum over the lane
//! fronts and the heap top. A lane is appended to only when the new time
//! is not earlier than its last one, so each lane front is that lane's
//! minimum and the minimum over fronts is the global one. A push that
//! would break a lane's order **falls back to the heap**, which makes
//! monotonicity a speed matter and never a correctness one: for any push
//! sequence the pop trace equals `EventQueue`'s.
//!
//! There is no cancellation and payloads are stored inline, so `E` should
//! be small and `Copy`-like. The lane count is a compile-time constant:
//! every pop scans all fronts, so it wants to be a handful.
//!
//! ```
//! use fh_sim::{LaneQueue, SimTime};
//!
//! let mut q: LaneQueue<&str, 1> = LaneQueue::new();
//! q.push(SimTime::from_millis(5), "heap");
//! q.push_lane(0, SimTime::from_millis(2), "lane");
//! q.push_lane(0, SimTime::from_millis(1), "fell back"); // earlier than the lane's last
//! assert_eq!((q.lane_pushes(), q.heap_pushes()), (1, 2));
//! assert_eq!(q.pop().unwrap().1, "fell back");
//! assert_eq!(q.pop().unwrap().1, "lane");
//! assert_eq!(q.pop().unwrap().1, "heap");
//! assert!(q.pop().is_none());
//! ```

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

#[derive(Debug, Clone)]
struct Item<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Item<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

// Min-heap by (time, seq): invert the comparison.
impl<E> Ord for Item<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Item<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Item<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Item<E> {}

/// Where the earliest pending item sits.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Lane(usize),
}

/// An event set ordered by time, then by insertion order, with `LANES`
/// FIFO lanes for pushes that arrive already sorted. See the module docs.
#[derive(Debug, Clone)]
pub struct LaneQueue<E, const LANES: usize> {
    lanes: [VecDeque<Item<E>>; LANES],
    heap: BinaryHeap<Item<E>>,
    seq: u64,
    lane_pushes: u64,
    heap_pushes: u64,
}

impl<E, const LANES: usize> LaneQueue<E, LANES> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        LaneQueue {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            heap: BinaryHeap::new(),
            seq: 0,
            lane_pushes: 0,
            heap_pushes: 0,
        }
    }

    fn stamp(&mut self, time: SimTime, event: E) -> Item<E> {
        let seq = self.seq;
        self.seq += 1;
        Item { time, seq, event }
    }

    /// Schedules `event` at `time` on the heap path: for pushes with no
    /// useful order among themselves.
    pub fn push(&mut self, time: SimTime, event: E) {
        let item = self.stamp(time, event);
        self.heap_pushes += 1;
        self.heap.push(item);
    }

    /// Schedules `event` at `time` through `lane`: appended there when
    /// `time` is not earlier than the lane's last pending time, pushed to
    /// the heap otherwise. Pop order is the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    pub fn push_lane(&mut self, lane: usize, time: SimTime, event: E) {
        if self.lanes[lane].back().is_some_and(|last| time < last.time) {
            self.push(time, event);
            return;
        }
        let item = self.stamp(time, event);
        self.lane_pushes += 1;
        self.lanes[lane].push_back(item);
    }

    /// The `(time, seq)` minimum over the heap top and every lane front.
    fn earliest(&self) -> Option<(Source, SimTime)> {
        let mut best = self.heap.peek().map(|top| (Source::Heap, top.key()));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.front() {
                if best.is_none_or(|(_, key)| front.key() < key) {
                    best = Some((Source::Lane(i), front.key()));
                }
            }
        }
        best.map(|(source, (time, _))| (source, time))
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|(_, time)| time)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (source, _) = self.earliest()?;
        self.pop_at(source)
    }

    /// Removes and returns the earliest event if it is due strictly
    /// before `horizon` — one scan where `peek_time` then `pop` make two.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (source, time) = self.earliest()?;
        if time >= horizon {
            return None;
        }
        self.pop_at(source)
    }

    fn pop_at(&mut self, source: Source) -> Option<(SimTime, E)> {
        let item = match source {
            Source::Heap => self.heap.pop(),
            Source::Lane(i) => self.lanes[i].pop_front(),
        }?;
        Some((item.time, item.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes that were appended to a lane. Together with
    /// [`heap_pushes`](Self::heap_pushes) a deterministic work counter: a
    /// change that de-sorts a lane's stream shows here exactly, not as
    /// wall-clock noise.
    #[must_use]
    pub fn lane_pushes(&self) -> u64 {
        self.lane_pushes
    }

    /// Pushes that went to the heap: every [`push`](Self::push) plus every
    /// [`push_lane`](Self::push_lane) that fell back.
    #[must_use]
    pub fn heap_pushes(&self) -> u64 {
        self.heap_pushes
    }

    /// Reserves room for exactly `additional` more heap items.
    pub fn reserve_heap_exact(&mut self, additional: usize) {
        self.heap.reserve_exact(additional);
    }

    /// Gives back heap capacity beyond the current population — for after
    /// a seeding burst the steady state never reaches again.
    pub fn shrink_heap_to_fit(&mut self) {
        self.heap.shrink_to_fit();
    }

    /// Reserves room for exactly `additional` more items in `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    pub fn reserve_lane_exact(&mut self, lane: usize, additional: usize) {
        self.lanes[lane].reserve_exact(additional);
    }
}

impl<E, const LANES: usize> Default for LaneQueue<E, LANES> {
    fn default() -> Self {
        LaneQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<const L: usize>(q: &mut LaneQueue<u32, L>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos(), e))).collect()
    }

    #[test]
    fn out_of_order_lane_push_falls_back_to_the_heap() {
        let mut q: LaneQueue<u32, 2> = LaneQueue::new();
        q.push_lane(0, SimTime::from_nanos(50), 0);
        q.push_lane(0, SimTime::from_nanos(40), 1); // breaks lane 0's order
        q.push_lane(1, SimTime::from_nanos(40), 2); // lane 1 is empty: fine
        q.push_lane(0, SimTime::from_nanos(50), 3); // equal to the last: fine
        assert_eq!((q.lane_pushes(), q.heap_pushes()), (3, 1));
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(40)));
        assert_eq!(drain(&mut q), vec![(40, 1), (40, 2), (50, 0), (50, 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_pop_in_push_order_across_lanes_and_heap() {
        let mut q: LaneQueue<u32, 3> = LaneQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..99 {
            match i % 4 {
                3 => q.push(t, i),
                lane => q.push_lane(lane as usize, t, i),
            }
        }
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..99).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_stops_at_the_horizon() {
        let mut q: LaneQueue<u32, 1> = LaneQueue::new();
        q.push_lane(0, SimTime::from_nanos(10), 0);
        q.push(SimTime::from_nanos(20), 1);
        assert_eq!(q.pop_before(SimTime::from_nanos(10)), None);
        assert_eq!(
            q.pop_before(SimTime::from_nanos(11)),
            Some((SimTime::from_nanos(10), 0))
        );
        assert_eq!(q.pop_before(SimTime::from_nanos(20)), None);
        // An event at the end of time is still reachable through `pop`.
        q.push_lane(0, SimTime::MAX, 2);
        assert_eq!(drain(&mut q), vec![(20, 1), (u64::MAX, 2)]);
    }
}
