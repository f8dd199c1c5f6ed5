//! Steady-state allocation accounting for a deep event queue.
//!
//! The contract under test: once an `EventQueue` has held its deepest
//! backlog, schedule, pop and cancel touch the allocator zero times, at
//! any depth and at any clock value. The engine's ping-pong test keeps one
//! event in flight, so it cannot see storage that grows with the number
//! of pending events or with the buckets they spread over. This churn
//! keeps 1,024 standing events, each re-armed 15 ms after it fires (the
//! serving workload's think-time shape), beside a microsecond chain and a
//! one-hour timer cancelled and re-armed every 16 pops, whose tombstones
//! pile up until compaction. A counting `GlobalAlloc` wrapper (legal here
//! — `#![forbid(unsafe_code)]` guards the library, not its integration
//! tests) runs the churn cold, then asserts that armed passes restarted
//! at later times, which cross ever higher bits of the clock, perform no
//! allocations at all.
//!
//! Only the thread under test is counted: the test harness's own threads
//! allocate at moments of their choosing, which made a process-wide count
//! fail in 1 or 2 of 200 runs. This file still holds exactly ONE
//! `#[test]`, like its siblings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use now_sim::{EventId, EventQueue, SimDuration, SimTime};

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Whether the calling thread is counting (false while its thread-locals
/// are being torn down).
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

enum Ev {
    Standing,
    Chain,
    Timer,
}

const STANDING: u64 = 1_024;
/// Enough pops for the timer's tombstones to cross the compaction
/// threshold twice.
const POPS: u32 = 40_000;
const REARM: SimDuration = SimDuration::from_millis(15);
const HOUR: SimDuration = SimDuration::from_secs(3_600);

/// Runs one churn pass starting at the queue's clock and drains it.
fn churn(q: &mut EventQueue<Ev>) {
    let start = q.now();
    for i in 0..STANDING {
        q.schedule_at(start + REARM * i / STANDING, Ev::Standing);
    }
    q.schedule_at(start, Ev::Chain);
    let mut timer: EventId = q.schedule_at(start + HOUR, Ev::Timer);
    for n in 0..POPS {
        let (_, ev) = q.pop().expect("the churn never runs dry");
        match ev {
            Ev::Standing => q.schedule_after(REARM, Ev::Standing),
            Ev::Chain => q.schedule_after(SimDuration::from_micros(1), Ev::Chain),
            Ev::Timer => unreachable!("the timer is re-armed long before it fires"),
        };
        if n % 16 == 0 {
            assert!(q.cancel(timer));
            timer = q.schedule_after(HOUR, Ev::Timer);
        }
    }
    while q.pop().is_some() {}
}

#[test]
fn warm_deep_queue_allocates_nothing() {
    let mut q = EventQueue::new();
    churn(&mut q);

    ARMED.set(true);
    for start in [1u64 << 43, (1 << 47) + 12_345, (1 << 55) + 1] {
        q.advance_to(SimTime::from_nanos(start));
        churn(&mut q);
    }
    ARMED.set(false);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "warm deep queue hit the allocator: {allocs} allocs, {reallocs} reallocs \
         over {} pops",
        3 * POPS
    );
    assert!(q.is_empty());
}
