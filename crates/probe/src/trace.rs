//! The bounded event trace: a ring of structured, simulated-time events.

use now_sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One traced event. `dur` is `Some` for complete (span) events and `None`
/// for instants.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated start time.
    pub ts: SimTime,
    /// Span length; `None` marks an instant event.
    pub dur: Option<SimDuration>,
    /// Workstation the event is attributed to (Chrome-trace `pid`).
    pub node: u32,
    /// Subsystem category (Chrome-trace `tid`/`cat`).
    pub cat: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Structured numeric fields.
    pub args: Vec<(&'static str, f64)>,
}

impl TraceEvent {
    /// A key that totally orders events, so exports do not depend on the
    /// (thread-dependent) order events entered the ring. Floats are ordered
    /// by their bit patterns, which is enough for a *total* order.
    pub(crate) fn sort_key(&self) -> impl Ord + '_ {
        (
            self.ts,
            self.node,
            self.cat,
            self.name,
            self.dur,
            self.args
                .iter()
                .map(|&(k, v)| (k, v.to_bits()))
                .collect::<Vec<_>>(),
        )
    }
}

/// A bounded buffer of [`TraceEvent`]s. Once full, further events are
/// dropped and counted rather than growing the buffer.
#[derive(Debug)]
pub struct TraceRing {
    events: Mutex<Vec<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            events: Mutex::new(Vec::new()),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Records `event`, or counts it as dropped if the ring is full.
    pub fn push(&self, event: TraceEvent) {
        let mut events = self.events.lock().expect("trace ring poisoned");
        if events.len() < self.capacity {
            events.push(event);
        } else {
            drop(events);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events recorded so far, in a total order: by timestamp, then node,
    /// category, name, duration and arguments.
    pub fn sorted_events(&self) -> Vec<TraceEvent> {
        let mut events = self.events.lock().expect("trace ring poisoned").clone();
        events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        events
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace ring poisoned").len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events rejected because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            ts: SimTime::from_nanos(ts),
            dur: None,
            node: 0,
            cat: "t",
            name,
            args: Vec::new(),
        }
    }

    #[test]
    fn bounded_and_counts_drops() {
        let ring = TraceRing::new(2);
        ring.push(ev(1, "a"));
        ring.push(ev(2, "b"));
        ring.push(ev(3, "c"));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn dropped_accounting_is_exact_when_ring_wraps() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.push(ev(i, "e"));
        }
        assert_eq!(ring.len(), 4, "capacity is a hard bound");
        assert_eq!(ring.dropped(), 6, "every overflow event is counted");
        assert_eq!(ring.sorted_events().len(), 4);
        // The survivors are the earliest-pushed events, not a mix.
        let kept: Vec<_> = ring.sorted_events().iter().map(|e| e.ts).collect();
        assert_eq!(kept, (0..4).map(SimTime::from_nanos).collect::<Vec<_>>());
        // Draining continues to count once full.
        ring.push(ev(99, "late"));
        assert_eq!(ring.dropped(), 7);
    }

    #[test]
    fn export_order_is_time_then_identity() {
        let ring = TraceRing::new(16);
        ring.push(ev(5, "late"));
        ring.push(ev(1, "early"));
        ring.push(ev(5, "also_late"));
        let names: Vec<_> = ring.sorted_events().iter().map(|e| e.name).collect();
        assert_eq!(names, ["early", "also_late", "late"]);
    }
}
