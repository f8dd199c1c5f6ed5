//! The event queue at the heart of every simulator in this workspace.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::{SimDuration, SimTime};

/// Identifier of a scheduled event, returned by
/// [`EventQueue::schedule_at`] and usable with [`EventQueue::cancel`].
///
/// Ids are unique within one queue for its whole lifetime (they are never
/// reused), so a stale id held after its event fired is harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// The queue sequence number behind this id. Unique for the queue's
    /// lifetime, so it doubles as a stable event identity for provenance
    /// tracking (see `Engine`'s causal log).
    pub const fn seq(self) -> u64 {
        self.0
    }
}

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Order: earliest time first; FIFO (lowest sequence number) among equal
// times. `BinaryHeap` is a max-heap, so the comparisons are reversed.
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

/// Dense pending-event tracker: one bit per sequence number.
///
/// Sequence numbers are allocated monotonically and never reused, so the
/// set of seqs that can still be pending at any moment is a contiguous
/// window `[base, base + 64 * words.len())`. Membership, insertion, and
/// removal are single bit operations on that window — no hashing — which
/// is what takes per-event SipHash churn off the schedule/cancel/pop hot
/// path. Fully dead words at the front of the window are trimmed as they
/// appear, so memory tracks the span between the oldest live event and
/// the newest, not the queue's lifetime event count.
///
/// The monotone-insert assumption and the front-trim both presume exactly
/// one consumer driving this queue, which `&mut` access guarantees: every
/// seq comes off this queue's own counter, so `base` never has to move
/// backwards.
#[derive(Default)]
struct PendingSet {
    /// Seq mapped to bit 0 of `words[0]`; always a multiple of 64.
    base: u64,
    words: VecDeque<u64>,
    live: usize,
}

impl PendingSet {
    /// Marks `seq` pending. Seqs arrive in strictly increasing order
    /// (they come off the queue's monotonic counter), so inserts only
    /// ever extend the window to the right.
    fn insert(&mut self, seq: u64) {
        debug_assert!(seq >= self.base, "seqs are allocated monotonically");
        let offset = seq - self.base;
        let idx = (offset / 64) as usize;
        while self.words.len() <= idx {
            self.words.push_back(0);
        }
        self.words[idx] |= 1 << (offset % 64);
        self.live += 1;
    }

    fn contains(&self, seq: u64) -> bool {
        if seq < self.base {
            return false;
        }
        let offset = seq - self.base;
        let idx = (offset / 64) as usize;
        idx < self.words.len() && self.words[idx] & (1 << (offset % 64)) != 0
    }

    /// Clears `seq` if it was pending, returning whether it was. Trims
    /// dead words off the window's front so `base` chases the oldest
    /// live event. The last word is always kept: `base` must never
    /// overtake the counter the next insert will use.
    fn remove(&mut self, seq: u64) -> bool {
        if seq < self.base {
            return false;
        }
        let offset = seq - self.base;
        let idx = (offset / 64) as usize;
        if idx >= self.words.len() {
            return false;
        }
        let bit = 1 << (offset % 64);
        if self.words[idx] & bit == 0 {
            return false;
        }
        self.words[idx] &= !bit;
        self.live -= 1;
        while self.words.len() > 1 && self.words.front() == Some(&0) {
            self.words.pop_front();
            self.base += 64;
        }
        true
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// A deterministic discrete-event queue.
///
/// Events are popped in timestamp order; events with equal timestamps are
/// popped in the order they were scheduled (FIFO). This total order is what
/// makes every simulation in the workspace reproducible from a seed alone.
///
/// The queue also tracks the current simulated time: [`EventQueue::now`]
/// returns the timestamp of the most recently popped event. Scheduling in the
/// past is rejected with a panic, which catches causality bugs at their
/// source rather than at a confusing downstream assertion.
///
/// # Example
///
/// ```
/// use now_sim::{EventQueue, SimDuration};
///
/// let mut q = EventQueue::new();
/// let a = q.schedule_after(SimDuration::from_micros(5), "a");
/// let _b = q.schedule_after(SimDuration::from_micros(5), "b");
/// q.cancel(a);
/// assert_eq!(q.pop().unwrap().1, "b");
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Seqs of events that are scheduled, not yet fired, and not cancelled.
    /// Heap entries absent from this set are tombstones left by `cancel`.
    ///
    /// Invariant: the heap's top entry is never a tombstone (`pop` and
    /// `cancel` drain dead tops eagerly), so [`EventQueue::peek_time`]
    /// can read the next firing time without mutating anything.
    pending: PendingSet,
    now: SimTime,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: PendingSet::default(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or [`SimTime::ZERO`] before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `time`.
    ///
    /// Returns an [`EventId`] that can be used to cancel the event.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`EventQueue::now`] — an event
    /// scheduled in the past is always a simulation bug.
    pub fn schedule_at(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule event in the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
        self.pending.insert(seq);
        EventId(seq)
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (it will now never be
    /// delivered), `false` if it had already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Lazy deletion: drop the id from the pending set and leave the heap
        // entry behind as a tombstone that later pops discard. Ids of fired
        // or already-cancelled events are simply absent from the set.
        if self.pending.remove(id.0) {
            // Tombstones would otherwise sit in the heap until their
            // timestamp is reached, so a cancel-heavy workload (schedule,
            // cancel, reschedule — the mixed-workload simulator's finish
            // events) grows storage without bound. Rebuild the heap without
            // them once they exceed half of it.
            if self.heap.len() > 2 * self.pending.len() {
                let pending = &self.pending;
                self.heap.retain(|s| pending.contains(s.seq));
            }
            self.drain_dead_top();
            true
        } else {
            false
        }
    }

    /// Restores the live-top invariant: pops tombstones sitting at the
    /// top of the heap so `peek` always sees a pending event.
    fn drain_dead_top(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.pending.contains(top.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Removes and returns the next event as `(time, payload)`, advancing the
    /// clock to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_id().map(|(time, _, payload)| (time, payload))
    }

    /// [`EventQueue::pop`] that also returns the event's [`EventId`], so a
    /// dispatcher can tie follow-up scheduling back to the event being
    /// handled (provenance links in the `Engine`'s causal log).
    pub fn pop_with_id(&mut self) -> Option<(SimTime, EventId, E)> {
        while let Some(ev) = self.heap.pop() {
            if !self.pending.remove(ev.seq) {
                continue; // tombstone of a cancelled event
            }
            self.now = ev.time;
            self.drain_dead_top();
            return Some((ev.time, EventId(ev.seq), ev.payload));
        }
        None
    }

    /// The timestamp of the next pending event without removing it or
    /// mutating the queue; cancelled entries never surface (the heap's top
    /// is kept live by `cancel` and `pop`). `None` when empty.
    pub fn peek_time(&self) -> Option<SimTime> {
        let top = self.heap.peek()?;
        if self.pending.contains(top.seq) {
            return Some(top.time);
        }
        // Defensive fallback should the live-top invariant ever lapse:
        // the earliest live entry, found by a full scan.
        self.heap
            .iter()
            .filter(|s| self.pending.contains(s.seq))
            .map(|s| (s.time, s.seq))
            .min()
            .map(|(time, _)| time)
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Heap slots currently allocated, including cancelled events that have
    /// not yet been compacted away. Every [`EventQueue::cancel`] re-establishes
    /// `storage_len() <= 2 * len()`: the heap is rebuilt without tombstoned
    /// entries whenever they exceed half of it. Exposed so memory-bound
    /// regression tests can observe the compaction.
    pub fn storage_len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advances the clock to `time` without popping anything.
    ///
    /// Useful when a simulator reaches a quiescent point and wants later
    /// scheduling to be relative to wall-clock progress.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current time, or before the next
    /// pending event (which would reorder history).
    pub fn advance_to(&mut self, time: SimTime) {
        assert!(time >= self.now, "cannot rewind the clock");
        if let Some(next) = self.peek_time() {
            assert!(
                time <= next,
                "cannot advance past a pending event at {next}"
            );
        }
        self.now = time;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(30), 3);
        q.schedule_at(SimTime::from_micros(10), 1);
        q.schedule_at(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
        // schedule_after is now relative to the new time
        q.schedule_after(SimDuration::from_micros(3), ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), ());
        q.pop();
        q.schedule_at(SimTime::from_micros(5), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_micros(1), "a");
        q.schedule_at(SimTime::from_micros(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_micros(1), "a");
        q.schedule_at(SimTime::from_micros(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10)
            .map(|i| q.schedule_at(SimTime::from_micros(i), i))
            .collect();
        for id in &ids[..4] {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
    }

    #[test]
    fn advance_to_moves_clock_when_safe() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_micros(50));
        assert_eq!(q.now(), SimTime::from_micros(50));
        q.schedule_after(SimDuration::from_micros(10), ());
        q.advance_to(SimTime::from_micros(60)); // exactly at the pending event: ok
    }

    #[test]
    #[should_panic(expected = "pending event")]
    fn advance_past_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), ());
        q.advance_to(SimTime::from_micros(11));
    }

    #[test]
    fn mass_cancellation_does_not_leak_marks() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            let ids: Vec<_> = (0..20)
                .map(|i| q.schedule_after(SimDuration::from_micros(i + 1), round))
                .collect();
            for id in ids {
                q.cancel(id);
            }
        }
        assert!(q.is_empty());
        assert_eq!(
            q.storage_len(),
            0,
            "an all-cancelled queue compacts to nothing"
        );
    }

    #[test]
    fn cancel_of_fired_event_leaves_len_exact() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_micros(1), ());
        q.pop();
        q.cancel(id);
        assert_eq!(q.len(), 0);
        q.schedule_at(SimTime::from_micros(2), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().0, SimTime::from_micros(2));
    }

    #[test]
    fn storage_stays_within_twice_live_under_churn() {
        let mut q = EventQueue::new();
        // Long-lived events keep the heap non-trivial while short-lived
        // ones are scheduled and immediately cancelled.
        for i in 0..50u64 {
            q.schedule_at(SimTime::from_secs(1_000 + i), i);
        }
        for round in 0..10_000u64 {
            let id = q.schedule_after(SimDuration::from_micros(1), round);
            q.cancel(id);
            assert!(
                q.storage_len() <= 2 * q.len().max(1),
                "round {round}: storage {} vs live {}",
                q.storage_len(),
                q.len()
            );
        }
        assert_eq!(q.len(), 50);
    }

    #[test]
    fn peek_time_is_non_mutating() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_micros(1), "a");
        q.schedule_at(SimTime::from_micros(2), "b");
        q.cancel(a);
        // A shared borrow suffices, and repeated peeks agree.
        let shared: &EventQueue<_> = &q;
        assert_eq!(shared.peek_time(), Some(SimTime::from_micros(2)));
        assert_eq!(shared.peek_time(), Some(SimTime::from_micros(2)));
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancelled_top_never_surfaces_through_peek() {
        let mut q = EventQueue::new();
        // Cancel the earliest events in a different order than scheduled,
        // so tombstones would sit at the top without the live-top drain.
        let ids: Vec<_> = (0..8)
            .map(|i| q.schedule_at(SimTime::from_micros(i), i))
            .collect();
        q.cancel(ids[2]);
        q.cancel(ids[0]);
        q.cancel(ids[1]);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn pending_window_survives_front_trimming() {
        // Regression for the windowed bitset: cancelling every early event
        // trims dead words off the window's front, after which newly
        // scheduled (higher) seqs must still insert and cancel correctly.
        let mut q = EventQueue::new();
        for round in 0..5u64 {
            let ids: Vec<_> = (0..200)
                .map(|i| q.schedule_after(SimDuration::from_micros(i + 1), round))
                .collect();
            for id in ids {
                assert!(q.cancel(id));
            }
            assert!(q.is_empty(), "round {round}");
        }
        let keep = q.schedule_after(SimDuration::from_micros(1), 99);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(99));
        assert!(!q.cancel(keep), "already fired");
    }

    #[test]
    fn window_edge_injection_is_never_in_the_past() {
        // Draining events *strictly* before an edge leaves the clock at
        // most one event short of it; events scheduled afterwards at or
        // past the edge must schedule cleanly (no schedule-into-past
        // panic), keep FIFO order, and survive the bitset's front-trim
        // kicking in mid-run.
        let mut q = EventQueue::new();
        let edge = SimTime::from_micros(100);
        // A churny first window so the pending window front-trims: many
        // schedule+cancel pairs, then live events just below the edge.
        for round in 0..300u64 {
            let id = q.schedule_after(SimDuration::from_micros(1), round);
            q.cancel(id);
        }
        q.schedule_at(SimTime::from_micros(98), 1_000);
        q.schedule_at(SimTime::from_micros(99), 1_001);
        // Drain the window: everything strictly before `edge`.
        while q.peek_time().is_some_and(|t| t < edge) {
            q.pop();
        }
        assert_eq!(q.now(), SimTime::from_micros(99));
        // Schedule at exactly the edge and just past it: both are >= now.
        q.schedule_at(edge, 2_000);
        q.schedule_at(edge, 2_001);
        q.schedule_at(edge + SimDuration::from_micros(3), 2_002);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2_000, 2_001, 2_002], "injection stays FIFO");
        assert_eq!(q.now(), SimTime::from_micros(103));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn injection_before_the_drained_edge_still_panics() {
        // Once an event at the edge has fired, scheduling before it would
        // rewrite history and must panic loudly.
        let mut q = EventQueue::new();
        let edge = SimTime::from_micros(100);
        q.schedule_at(edge, 1); // wrongly processed at the edge itself
        q.pop();
        q.schedule_at(SimTime::from_micros(99), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        // Two runs with identical operations produce identical histories.
        fn run() -> Vec<(u64, u32)> {
            let mut q = EventQueue::new();
            let mut log = Vec::new();
            for i in 0..50u32 {
                q.schedule_after(SimDuration::from_micros((i as u64 * 7) % 13 + 1), i);
                if i % 3 == 0 {
                    if let Some((t, e)) = q.pop() {
                        log.push((t.as_nanos(), e));
                    }
                }
            }
            while let Some((t, e)) = q.pop() {
                log.push((t.as_nanos(), e));
            }
            log
        }
        assert_eq!(run(), run());
    }
}
