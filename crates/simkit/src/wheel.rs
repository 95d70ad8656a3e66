//! A hierarchical timing wheel with the same ordering contract as
//! [`EventQueue`](crate::EventQueue).
//!
//! The wheel is the hot-path replacement for the `BinaryHeap`-backed
//! [`EventQueue`](crate::EventQueue): scheduling an event is an O(1)
//! bucket push instead of an O(log n) sift, and popping drains a small
//! per-slot FIFO instead of re-heapifying. The `BinaryHeap` queue is
//! retained as the *reference implementation* — `tests/properties.rs`
//! differentially tests the wheel against it under random schedules.
//!
//! # Ordering contract (why the wheel cannot reorder events)
//!
//! Events pop in ascending `(time, key, seq)` order, where `seq` is a
//! monotone insertion counter and `key` defaults to `seq` (so plain
//! [`schedule`](TimingWheel::schedule) gives exactly the FIFO tie-break
//! of `EventQueue`). The proof sketch is a three-region partition of
//! pending events by firing time relative to the wheel's `base`:
//!
//! * **past** (`at < base`) — a min-heap; only populated by schedules
//!   into times the cursor already passed.
//! * **near** (`base <= at < base + HORIZON`) — the wheel proper:
//!   `SLOTS` buckets of `GRANULARITY_NS` each. Every event in the slot
//!   at the cursor fires strictly before every event in any later slot,
//!   and within a slot entries drain in sorted `(time, key, seq)` order.
//! * **far** (`at >= base + HORIZON`) — a min-heap of not-yet-mapped
//!   events, promoted into the slots when the near region drains.
//!
//! The three time ranges are disjoint, so the global minimum is always
//! `past`'s minimum if `past` is non-empty, else the cursor slot's
//! minimum, else `far`'s minimum (after promotion). The cursor only
//! advances across *empty* slots, so no event is ever skipped, and
//! promotion rebases `base` onto `far`'s minimum so nothing promoted
//! lands behind the cursor. Hence pop order equals the reference
//! heap's order by construction.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Width of one wheel slot in nanoseconds (1.024 µs). Completion
/// latencies in the simulated stack are tens of microseconds, so
/// consecutive completions land in distinct slots and per-slot sorts
/// stay tiny.
pub const GRANULARITY_NS: u64 = 1 << 10;

/// Number of slots in the near wheel.
pub const SLOTS: usize = 1 << 12;

/// The near region covers `[base, base + HORIZON_NS)` — about 4.2 ms,
/// comfortably past the worst simulated tail (fault-injected retries,
/// GC stalls) so far-heap traffic is rare.
pub const HORIZON_NS: u64 = GRANULARITY_NS * SLOTS as u64;

struct Entry<E> {
    at: u64,
    key: u64,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn rank(&self) -> (u64, u64, u64) {
        (self.at, self.key, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // Reverse ordering so BinaryHeap (a max-heap) pops the smallest
    // (time, key, seq) triple first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank().cmp(&self.rank())
    }
}

/// A deterministic hierarchical timing wheel.
///
/// Drop-in hot-path replacement for [`EventQueue`](crate::EventQueue):
/// [`schedule`](Self::schedule)/[`pop`](Self::pop) pop in ascending
/// time with FIFO ties. [`schedule_keyed`](Self::schedule_keyed)
/// additionally lets the caller supply the tie-break key (the sharded
/// world breaks same-instant ties by its `(actor, seq)` merge key, not
/// by insertion order).
///
/// # Examples
///
/// ```
/// use ull_simkit::{SimTime, TimingWheel};
///
/// let mut w = TimingWheel::new();
/// w.schedule(SimTime::from_nanos(20), "late");
/// w.schedule(SimTime::from_nanos(10), "early");
/// w.schedule(SimTime::from_nanos(10), "early-second");
///
/// assert_eq!(w.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(w.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(w.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(w.pop(), None);
/// ```
pub struct TimingWheel<E> {
    /// Near-region buckets; slot for `at` is `(at / G) % SLOTS`.
    slots: Vec<Vec<Entry<E>>>,
    /// Whether the matching slot is sorted descending by rank (so the
    /// minimum pops from the back).
    sorted: Vec<bool>,
    /// Entries currently resident in `slots`.
    near: usize,
    /// Absolute time (ns, multiple of `GRANULARITY_NS`) of the cursor
    /// slot's lower bound.
    base: u64,
    /// Events behind the cursor (`at < base`).
    past: BinaryHeap<Entry<E>>,
    /// Events beyond the horizon (`at >= base + HORIZON_NS`).
    far: BinaryHeap<Entry<E>>,
    next_seq: u64,
    len: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// Creates an empty wheel based at time zero.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            sorted: vec![true; SLOTS],
            near: 0,
            base: 0,
            past: BinaryHeap::new(),
            far: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `payload` to fire at instant `at`, breaking time ties
    /// by insertion order (FIFO) — identical semantics to
    /// [`EventQueue::schedule`](crate::EventQueue::schedule).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.insert(at.as_nanos(), seq, payload);
    }

    /// Schedules `payload` to fire at instant `at`, breaking time ties
    /// by the caller-supplied `key` (and by insertion order only among
    /// equal keys). Lets the wheel replace queues whose tie-break is a
    /// domain value such as a sharded world's `(actor, seq)` merge key.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        self.insert(at.as_nanos(), key, payload);
    }

    #[inline]
    fn insert(&mut self, at: u64, key: u64, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let e = Entry {
            at,
            key,
            seq,
            payload,
        };
        if at < self.base {
            self.past.push(e);
        } else if at < self.base + HORIZON_NS {
            self.push_slot(e);
        } else {
            self.far.push(e);
        }
    }

    #[inline]
    fn push_slot(&mut self, e: Entry<E>) {
        let idx = ((e.at / GRANULARITY_NS) as usize) & (SLOTS - 1);
        let slot = &mut self.slots[idx];
        // Slots are kept sorted *descending* by rank so the minimum pops
        // from the back; an append preserves that only if the new entry
        // ranks at or below the current back.
        self.sorted[idx] = match slot.last() {
            None => true,
            Some(back) => self.sorted[idx] && e.rank() < back.rank(),
        };
        slot.push(e);
        self.near += 1;
    }

    /// Moves the cursor to the first populated slot, promoting far
    /// events into the wheel as the window slides over them.
    ///
    /// Invariant on exit: every event left in `far` fires at or beyond
    /// `base + HORIZON_NS`. One settle advances the cursor by at most
    /// `SLOTS - 1` slots (strictly less than a horizon), so promoting
    /// at the end of every settle is enough to uphold the invariant —
    /// a far event can never become older than a near one unobserved.
    fn settle(&mut self) {
        if self.near == 0 && self.past.is_empty() && !self.far.is_empty() {
            // The wheel is empty: rebase onto the far heap's minimum
            // (aligned down, so the minimum lands exactly at the
            // cursor slot and nothing promotes behind it). The base
            // only ever grows: the far minimum is at least one horizon
            // ahead of the old base.
            if let Some(min) = self.far.peek().map(|e| e.at) {
                self.base = min - (min % GRANULARITY_NS);
            }
        }
        if self.near > 0 {
            // Advance over empty slots only — occupied slots are never
            // stepped past, so no event is skipped.
            while self.slots[((self.base / GRANULARITY_NS) as usize) & (SLOTS - 1)].is_empty() {
                self.base += GRANULARITY_NS;
            }
        }
        // Pull far events the window now covers into the slots; their
        // firing times are at least one (old) horizon past the previous
        // base, hence ahead of the cursor.
        let horizon = self.base + HORIZON_NS;
        while self.far.peek().is_some_and(|e| e.at < horizon) {
            if let Some(e) = self.far.pop() {
                self.push_slot(e);
            }
        }
    }

    /// Sorts the cursor slot (descending by rank) if needed and returns
    /// its index. Only meaningful after [`settle`](Self::settle) with
    /// `near > 0`.
    fn cursor_sorted(&mut self) -> usize {
        let idx = ((self.base / GRANULARITY_NS) as usize) & (SLOTS - 1);
        if !self.sorted[idx] {
            self.slots[idx].sort_by_key(|e| std::cmp::Reverse(e.rank()));
            self.sorted[idx] = true;
        }
        idx
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(e) = self.past.pop() {
            self.len -= 1;
            return Some((SimTime::from_nanos(e.at), e.payload));
        }
        self.settle();
        if self.near == 0 {
            return None;
        }
        let idx = self.cursor_sorted();
        let e = self.slots[idx].pop()?;
        self.near -= 1;
        self.len -= 1;
        Some((SimTime::from_nanos(e.at), e.payload))
    }

    /// The firing time of the earliest pending event.
    ///
    /// Takes `&mut self` because peeking may advance the cursor or
    /// promote far events; neither changes the observable pop order.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|(t, _)| t)
    }

    /// The earliest pending event's time and a reference to its
    /// payload, without removing it.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        if !self.past.is_empty() {
            return self
                .past
                .peek()
                .map(|e| (SimTime::from_nanos(e.at), &e.payload));
        }
        self.settle();
        if self.near == 0 {
            return None;
        }
        let idx = self.cursor_sorted();
        self.slots[idx]
            .last()
            .map(|e| (SimTime::from_nanos(e.at), &e.payload))
    }

    /// Pops the earliest event only if it fires strictly before `t`.
    pub fn pop_if_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? < t {
            self.pop()
        } else {
            None
        }
    }

    /// Drains every event scheduled for the earliest pending instant
    /// into `out` (in tie-break order) and returns that instant —
    /// the batched same-instant drain used by engine loops to retire
    /// coalesced completions without re-peeking per event.
    ///
    /// All events of one instant live in exactly one region (the three
    /// regions partition time) and, within the near region, in exactly
    /// one slot (`(at / G) % SLOTS` is a function of `at`), so a single
    /// settle + slot sort suffices for the whole batch: the drain is
    /// one heap-pop or slot-pop per event instead of the full
    /// peek/settle/sort cycle the naive `pop` loop pays.
    pub fn pop_same_instant(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        self.drain_instant(u64::MAX, out)
    }

    /// Like [`pop_same_instant`](Self::pop_same_instant), but only
    /// drains if the earliest instant is at or before `bound`; events
    /// beyond it stay pending and `None` is returned. Saves the
    /// sharded window drain a separate `peek_time` — and therefore a
    /// second settle — per dispatched instant.
    pub fn pop_same_instant_until(&mut self, bound: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        self.drain_instant(bound.as_nanos(), out)
    }

    fn drain_instant(&mut self, bound: u64, out: &mut Vec<E>) -> Option<SimTime> {
        // Past region first: `at < base <= near/far`, so nothing in the
        // slots or the far heap can tie with a past event's instant.
        if let Some(first) = self.past.peek() {
            if first.at > bound {
                return None;
            }
            let t = first.at;
            while self.past.peek().is_some_and(|e| e.at == t) {
                if let Some(e) = self.past.pop() {
                    self.len -= 1;
                    out.push(e.payload);
                }
            }
            return Some(SimTime::from_nanos(t));
        }
        self.settle();
        if self.near == 0 {
            return None;
        }
        // Same-instant near events share one slot, and the slot is
        // sorted descending by rank, so the whole instant is a
        // contiguous run at the back.
        let idx = self.cursor_sorted();
        let slot = &mut self.slots[idx];
        let t = match slot.last() {
            Some(e) if e.at <= bound => e.at,
            _ => return None,
        };
        let mut popped = 0;
        while slot.last().is_some_and(|e| e.at == t) {
            if let Some(e) = slot.pop() {
                popped += 1;
                out.push(e.payload);
            }
        }
        self.near -= popped;
        self.len -= popped;
        Some(SimTime::from_nanos(t))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> std::fmt::Debug for TimingWheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("pending", &self.len)
            .field("near", &self.near)
            .field("base_ns", &self.base)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventQueue;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimingWheel::new();
        for &n in &[50u64, 10, 40, 20, 30] {
            w.schedule(SimTime::from_nanos(n), n);
        }
        let mut out = Vec::new();
        while let Some((t, v)) = w.pop() {
            assert_eq!(t.as_nanos(), v);
            out.push(v);
        }
        assert_eq!(out, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut w = TimingWheel::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            w.schedule(t, i);
        }
        let popped: Vec<_> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_ties_break_by_key_not_insertion() {
        let mut w = TimingWheel::new();
        let t = SimTime::from_nanos(9);
        for key in [5u64, 1, 3, 2, 4] {
            w.schedule_keyed(t, key, key);
        }
        let popped: Vec<_> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimingWheel::new();
        assert_eq!(w.peek_time(), None);
        w.schedule(SimTime::from_nanos(3), ());
        w.schedule(SimTime::from_nanos(1), ());
        assert_eq!(w.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        w.pop();
        assert_eq!(w.peek_time(), Some(SimTime::from_nanos(3)));
    }

    #[test]
    fn far_future_overflow_promotes_in_order() {
        let mut w = TimingWheel::new();
        // One near event, several beyond the horizon (including two in
        // the same far slot and a same-instant far tie).
        w.schedule(SimTime::from_nanos(100), 0u64);
        let far = HORIZON_NS + 5;
        for (i, &n) in [far + 9000, far, far + 9000, far + HORIZON_NS * 3]
            .iter()
            .enumerate()
        {
            w.schedule(SimTime::from_nanos(n), i as u64 + 1);
        }
        let popped: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        let times: Vec<u64> = popped.iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(
            times,
            vec![100, far, far + 9000, far + 9000, far + HORIZON_NS * 3]
        );
        // Same-instant far events keep FIFO order through promotion.
        let vals: Vec<u64> = popped.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![0, 2, 1, 3, 4]);
    }

    #[test]
    fn schedules_behind_the_cursor_still_fire_first() {
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(5000), "ahead");
        assert_eq!(w.pop_if_before(SimTime::from_nanos(5000)), None);
        assert_eq!(w.peek_time(), Some(SimTime::from_nanos(5000)));
        // The cursor has advanced to 5000's slot; schedule behind it.
        w.schedule(SimTime::from_nanos(10), "past");
        assert_eq!(
            w.pop(),
            Some((SimTime::from_nanos(10), "past")),
            "past-region events must pop before near-region ones"
        );
        assert_eq!(w.pop(), Some((SimTime::from_nanos(5000), "ahead")));
    }

    #[test]
    fn pop_if_before_and_same_instant_drain() {
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(10), 'a');
        w.schedule(SimTime::from_nanos(10), 'b');
        w.schedule(SimTime::from_nanos(20), 'c');
        assert_eq!(w.pop_if_before(SimTime::from_nanos(10)), None);
        assert_eq!(
            w.pop_if_before(SimTime::from_nanos(11)),
            Some((SimTime::from_nanos(10), 'a'))
        );
        let mut batch = Vec::new();
        assert_eq!(
            w.pop_same_instant(&mut batch),
            Some(SimTime::from_nanos(10))
        );
        assert_eq!(batch, vec!['b']);
        batch.clear();
        assert_eq!(
            w.pop_same_instant(&mut batch),
            Some(SimTime::from_nanos(20))
        );
        assert_eq!(batch, vec!['c']);
        assert!(w.is_empty());
        assert_eq!(w.pop_same_instant(&mut batch), None);
    }

    #[test]
    fn bounded_same_instant_drain_respects_the_bound() {
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(10), 'a');
        w.schedule(SimTime::from_nanos(10), 'b');
        w.schedule(SimTime::from_nanos(20), 'c');
        let mut batch = Vec::new();
        assert_eq!(
            w.pop_same_instant_until(SimTime::from_nanos(9), &mut batch),
            None
        );
        assert!(batch.is_empty());
        assert_eq!(
            w.pop_same_instant_until(SimTime::from_nanos(10), &mut batch),
            Some(SimTime::from_nanos(10))
        );
        assert_eq!(batch, vec!['a', 'b']);
        batch.clear();
        assert_eq!(
            w.pop_same_instant_until(SimTime::from_nanos(19), &mut batch),
            None
        );
        assert_eq!(w.len(), 1);
        // Past-region events respect the bound too.
        w.schedule(SimTime::from_nanos(1), 'p');
        assert_eq!(w.pop_same_instant_until(SimTime::ZERO, &mut batch), None);
        assert_eq!(
            w.pop_same_instant_until(SimTime::from_nanos(30), &mut batch),
            Some(SimTime::from_nanos(1))
        );
        assert_eq!(batch, vec!['p']);
    }

    #[test]
    fn matches_reference_heap_on_a_mixed_schedule() {
        // A quick inline differential check; the seeded property tests
        // in tests/properties.rs cover random schedules at depth.
        let mut w = TimingWheel::new();
        let mut q = EventQueue::new();
        let times = [
            3u64,
            3,
            1,
            HORIZON_NS + 7,
            0,
            2_000_000,
            3,
            HORIZON_NS + 7,
            512,
            513,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.schedule(SimTime::from_nanos(t), i);
            q.schedule(SimTime::from_nanos(t), i);
        }
        for _ in 0..3 {
            assert_eq!(w.pop(), q.pop());
        }
        // Interleave more schedules (some behind the cursor).
        for (i, &t) in [1u64, 4, HORIZON_NS * 2].iter().enumerate() {
            w.schedule(SimTime::from_nanos(t), 100 + i);
            q.schedule(SimTime::from_nanos(t), 100 + i);
        }
        loop {
            let (a, b) = (w.pop(), q.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
