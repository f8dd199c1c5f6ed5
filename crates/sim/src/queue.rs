//! The event queue at the heart of every simulator in this workspace.

use crate::{SimDuration, SimTime};

/// Identifier of a scheduled event, returned by
/// [`EventQueue::schedule_at`] and usable with [`EventQueue::cancel`].
///
/// Sequence numbers are unique within one queue for its whole lifetime
/// (they are never reused), so a stale id held after its event fired is
/// harmless. The id also names the slot its event is stored in, so
/// `cancel` finds the event without a search; slots are reused, and the
/// sequence number tells a reused slot from the one the id was issued for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

impl EventId {
    /// The queue sequence number behind this id. Unique for the queue's
    /// lifetime, so it doubles as a stable event identity for provenance
    /// tracking (see `Engine`'s causal log).
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

/// Bucket 0 holds the events due exactly at the anchor; bucket `b` in
/// `1..=64` holds those whose time first differs from it in bit `b - 1`.
const BUCKETS: usize = 65;

/// End of a slot list.
const NIL: u32 = u32::MAX;

/// One stored event. A slot is linked into exactly one list: a bucket's
/// (while scheduled or cancelled) or the free list (after it fired or a
/// tombstone was unlinked).
struct Slot<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    /// `None` once the event was cancelled (a tombstone) or has fired.
    payload: Option<E>,
}

/// The bucket an event at `time` belongs in, for an anchor `last <= time`.
fn bucket(last: SimTime, time: SimTime) -> usize {
    (u64::BITS - (time.as_nanos() ^ last.as_nanos()).leading_zeros()) as usize
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
///
/// # Layout
///
/// A radix heap keyed on firing time, which is valid because no event is
/// ever scheduled before the clock. `last` is a time no later than any
/// stored event; bucket 0 holds the events due exactly at `last`, and
/// bucket `b` those whose time first differs from `last` in bit `b - 1`,
/// so every time in a bucket precedes every time in the next. `pop`
/// serves bucket 0 and, when it runs dry, re-anchors `last` at the
/// earliest time in the lowest occupied bucket and relinks that bucket's
/// events into the (empty) buckets below it.
///
/// Each bucket is a FIFO list threaded through one slab of slots, so a
/// stored event never moves and a warm queue never allocates. Lists keep
/// scheduling order: a push appends the newest sequence number, and a
/// relink walks a list front to back. Events due at the same time thus
/// leave bucket 0 in FIFO order without comparing sequence numbers.
///
/// `cancel` drops the payload in place and leaves a tombstone that `pop`
/// skips; tombstones are unlinked once they are more than half of what is
/// stored.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    /// Head of the free-slot list.
    free: u32,
    head: [u32; BUCKETS],
    tail: [u32; BUCKETS],
    /// Bit `b` is set iff bucket `b` holds a slot.
    occupied: u128,
    /// The radix anchor: no stored event is earlier, and it is never
    /// later than `now` between calls. Moves only in `pop`.
    last: SimTime,
    /// Slots linked into buckets: live events plus tombstones.
    stored: usize,
    /// Events that are scheduled, not yet fired, and not cancelled.
    live: usize,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            head: [NIL; BUCKETS],
            tail: [NIL; BUCKETS],
            occupied: 0,
            last: SimTime::ZERO,
            stored: 0,
            live: 0,
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
    #[inline]
    pub fn schedule_at(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule event in the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = if self.free == NIL {
            let slot = u32::try_from(self.slots.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("event queue holds fewer than u32::MAX slots");
            self.slots.push(Slot {
                time,
                seq,
                next: NIL,
                payload: Some(payload),
            });
            slot
        } else {
            let slot = self.free;
            let entry = &mut self.slots[slot as usize];
            self.free = entry.next;
            *entry = Slot {
                time,
                seq,
                next: NIL,
                payload: Some(payload),
            };
            slot
        };
        self.link(bucket(self.last, time), slot);
        self.stored += 1;
        self.live += 1;
        EventId { seq, slot }
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
        let Some(entry) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if entry.seq != id.seq || entry.payload.take().is_none() {
            return false;
        }
        self.live -= 1;
        // Tombstones would otherwise sit in their buckets until their time
        // is reached, so a cancel-heavy workload (schedule, cancel,
        // reschedule — the mixed-workload simulator's finish events) would
        // grow storage without bound.
        if self.stored > 2 * self.live {
            self.unlink_tombstones();
        }
        true
    }

    /// Removes and returns the next event as `(time, payload)`, advancing the
    /// clock to its timestamp. Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_id().map(|(time, _, payload)| (time, payload))
    }

    /// [`EventQueue::pop`] that also returns the event's [`EventId`], so a
    /// dispatcher can tie follow-up scheduling back to the event being
    /// handled (provenance links in the `Engine`'s causal log).
    #[inline]
    pub fn pop_with_id(&mut self) -> Option<(SimTime, EventId, E)> {
        loop {
            let slot = self.unlink_earliest()?;
            let entry = &mut self.slots[slot as usize];
            let payload = entry.payload.take();
            entry.next = self.free;
            self.free = slot;
            self.stored -= 1;
            if let Some(payload) = payload {
                self.live -= 1;
                self.now = entry.time;
                let id = EventId {
                    seq: entry.seq,
                    slot,
                };
                return Some((entry.time, id, payload));
            }
        }
    }

    /// Unlinks and returns the earliest stored slot, live or tombstone:
    /// the head of bucket 0, after refilling bucket 0 from the lowest
    /// occupied bucket if it ran dry. `None` when nothing is stored.
    #[inline]
    fn unlink_earliest(&mut self) -> Option<u32> {
        if self.occupied & 1 == 0 {
            if self.occupied == 0 {
                // Popped tombstones can carry the anchor past the clock;
                // scheduling resumes at `now`.
                self.last = self.now;
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            let first = self.head[b];
            let entry = &self.slots[first as usize];
            if entry.next == NIL {
                // A lone slot is the earliest event, and leaves as it is.
                self.last = entry.time;
                self.occupied &= !(1 << b);
                return Some(first);
            }
            self.relink(b);
        }
        let first = self.head[0];
        let next = self.slots[first as usize].next;
        self.head[0] = next;
        if next == NIL {
            self.occupied &= !1;
        }
        Some(first)
    }

    /// Re-anchors `last` at the earliest time in bucket `b`, the lowest
    /// occupied one, and relinks its slots into the empty buckets below,
    /// which leaves its earliest events in bucket 0.
    fn relink(&mut self, b: usize) {
        self.occupied &= !(1 << b);
        let first = self.head[b];
        let mut earliest = self.slots[first as usize].time;
        let mut s = self.slots[first as usize].next;
        while s != NIL {
            let entry = &self.slots[s as usize];
            earliest = earliest.min(entry.time);
            s = entry.next;
        }
        self.last = earliest;
        let mut s = first;
        while s != NIL {
            let entry = &self.slots[s as usize];
            let (next, below) = (entry.next, bucket(earliest, entry.time));
            self.push_back(below, s);
            s = next;
        }
    }

    /// Appends `slot` to bucket `b`'s list.
    fn push_back(&mut self, b: usize, slot: u32) {
        self.slots[slot as usize].next = NIL;
        self.link(b, slot);
    }

    /// Appends `slot`, whose `next` is already `NIL`, to bucket `b`'s
    /// list. `schedule_at` calls this directly, having just written the
    /// slot: a separate, inlined step measured faster on a one-event
    /// chain than going through `push_back`.
    #[inline]
    fn link(&mut self, b: usize, slot: u32) {
        if self.occupied & (1 << b) == 0 {
            self.occupied |= 1 << b;
            self.head[b] = slot;
        } else {
            self.slots[self.tail[b] as usize].next = slot;
        }
        self.tail[b] = slot;
    }

    /// Moves every tombstone to the free list, keeping each bucket's
    /// remaining order.
    fn unlink_tombstones(&mut self) {
        let mut buckets = self.occupied;
        while buckets != 0 {
            let b = buckets.trailing_zeros() as usize;
            buckets &= buckets - 1;
            self.occupied &= !(1 << b);
            let mut s = self.head[b];
            while s != NIL {
                let entry = &self.slots[s as usize];
                let (next, live) = (entry.next, entry.payload.is_some());
                if live {
                    self.push_back(b, s);
                } else {
                    self.slots[s as usize].next = self.free;
                    self.free = s;
                    self.stored -= 1;
                }
                s = next;
            }
        }
    }

    /// The timestamp of the next pending event without removing it or
    /// mutating the queue; cancelled entries never surface. Reads the
    /// lowest bucket that holds a live event. `None` when empty.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut buckets = self.occupied;
        while buckets != 0 {
            let b = buckets.trailing_zeros() as usize;
            buckets &= buckets - 1;
            let mut earliest: Option<SimTime> = None;
            let mut s = self.head[b];
            while s != NIL {
                let entry = &self.slots[s as usize];
                if entry.payload.is_some() {
                    if b == 0 {
                        return Some(entry.time);
                    }
                    earliest = Some(earliest.map_or(entry.time, |t| t.min(entry.time)));
                }
                s = entry.next;
            }
            if earliest.is_some() {
                return earliest;
            }
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Slots currently linked into buckets, including cancelled events
    /// that have not yet been unlinked. Every [`EventQueue::cancel`]
    /// re-establishes `storage_len() <= 2 * len()`: tombstones are unlinked
    /// whenever they exceed half of what is stored. Exposed so memory-bound
    /// regression tests can observe the compaction.
    pub fn storage_len(&self) -> usize {
        self.stored
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
        assert!(!q.cancel(EventId { seq: 42, slot: 0 }));
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
        // Long-lived events keep the queue non-trivial while short-lived
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
        // so the lowest buckets hold nothing but tombstones.
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
        // Cancelling every event of a round unlinks its tombstones and
        // frees their slots; later rounds reuse those slots under newer
        // seqs, and must still schedule and cancel correctly.
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
        // panic), keep FIFO order, and survive tombstone unlinking
        // kicking in mid-run.
        let mut q = EventQueue::new();
        let edge = SimTime::from_micros(100);
        // A churny first window whose tombstones get unlinked: many
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
