//! Steady-state allocation accounting for the engine's hot path.
//!
//! The contract under test: once the event queue's slot slab and the
//! component table are warm, `schedule` / dispatch / `advance` touch the
//! allocator zero times. A counting `GlobalAlloc` wrapper (legal here —
//! `#![forbid(unsafe_code)]` guards the library, not its integration
//! tests) runs a workload twice and asserts the second, warm pass
//! performs no allocations at all.
//!
//! Only the thread under test is counted: the test harness's own threads
//! allocate at moments of their choosing, which made a process-wide count
//! fail in 1 or 2 of 200 runs. This file still holds exactly ONE
//! `#[test]`, like its siblings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use now_sim::{Component, ComponentId, Ctx, Engine, SimDuration, SimTime};

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

/// Bounces a counter between two components with a fixed delay — the
/// densest schedule/dispatch pattern the engine sees, with every event
/// spawning the next.
struct PingPong {
    peer: ComponentId,
    remaining: u32,
}

impl Component<u64> for PingPong {
    fn on_event(&mut self, ctx: &mut Ctx<'_, u64>, v: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_to_at(self.peer, ctx.now() + SimDuration::from_micros(1), v + 1);
        }
    }
}

const ROUNDS: u32 = 10_000;

#[test]
fn warm_dispatch_loop_allocates_nothing() {
    let mut engine = Engine::new();
    let b = ComponentId(1);
    let a = engine.register(PingPong {
        peer: b,
        remaining: ROUNDS,
    });
    engine.register(PingPong {
        peer: a,
        remaining: ROUNDS,
    });

    // Cold pass: grow the queue's slot slab and whatever else to
    // steady-state capacity.
    engine.schedule_at(a, SimTime::ZERO, 0);
    engine.run();

    // Re-seed the same workload on the warm engine.
    engine.component_mut::<PingPong>(a).remaining = ROUNDS;
    engine.component_mut::<PingPong>(b).remaining = ROUNDS;
    let restart = engine.now() + SimDuration::from_micros(1);
    engine.schedule_at(a, restart, 0);

    ARMED.set(true);
    engine.run();
    ARMED.set(false);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "warm engine run hit the allocator: {allocs} allocs, {reallocs} reallocs \
         over {} dispatches",
        2 * ROUNDS
    );
    assert_eq!(engine.pending(), 0);
}
