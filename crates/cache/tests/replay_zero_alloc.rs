//! Steady-state allocation accounting for the cooperative-cache replay.
//!
//! The contract under test: once the client caches, the server cache, the
//! N-Chance recirculation counts and the directory's holder sets have
//! seen their peak, replaying trace accesses touches the allocator zero
//! times. A block that gains its first holder reuses a freed directory
//! row, and a write walks the holders it invalidates in place. A counting
//! `GlobalAlloc` wrapper (legal here — `#![forbid(unsafe_code)]` guards
//! the library, not its integration tests) replays the same 70-client
//! stretch of trace three times and counts the third.
//!
//! Only the thread under test is counted, as in the zero-allocation tests
//! of `now-sim`. This file holds exactly ONE `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use now_cache::{CacheComponent, CacheConfig, CacheEvent, Policy};
use now_sim::{Component, Ctx, Engine, SimDuration, SimTime};
use now_trace::fs::{AccessKind, FsTrace, FsTraceConfig};

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

/// Arms the counter on `StorageDegraded(true)` and disarms it on
/// `StorageDegraded(false)`; the cache never sees these events.
struct Switch;

impl Component<CacheEvent> for Switch {
    fn on_event(&mut self, _: &mut Ctx<'_, CacheEvent>, event: CacheEvent) {
        if let CacheEvent::StorageDegraded(on) = event {
            ARMED.set(on);
        }
    }
}

#[test]
fn warm_replay_allocates_nothing() {
    // Seventy clients: holder sets two words wide. All of them active,
    // so every client cache's hash index has met its one tombstone-driven
    // doubling (see `lru_zero_alloc` in now-sim) before the third round.
    let mut config = FsTraceConfig::small();
    config.clients = 70;
    config.active_client_fraction = 1.0;
    config.duration = SimDuration::from_secs(300);
    let base = FsTrace::generate(&config, 3);
    let period = config.duration + SimDuration::from_secs(1);
    let mut trace = base.clone();
    trace.accesses = (0..3u64)
        .flat_map(|round| {
            base.accesses.iter().map(move |&access| {
                let mut access = access;
                access.time += period * round;
                access
            })
        })
        .collect();
    let third = SimTime::ZERO + period * 2;
    let last = trace.accesses.last().expect("a non-empty trace").time;
    let writes = base
        .accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Write)
        .count();

    let mut engine = Engine::new();
    let cache = CacheComponent::new(trace, CacheConfig::small(Policy::NChance { n: 2 }));
    let first = cache.first_access_time().expect("a non-empty trace");
    let cache = engine.register(cache);
    let switch = engine.register(Switch);
    engine.schedule_at(cache, first, CacheEvent::Access(0));
    engine.schedule_at(switch, third, CacheEvent::StorageDegraded(true));
    // Seeded before the last access is scheduled, so it fires first.
    engine.schedule_at(switch, last, CacheEvent::StorageDegraded(false));
    engine.run();

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "warm replay hit the allocator: {allocs} allocs, {reallocs} reallocs"
    );
    let result = engine.component::<CacheComponent>(cache).result();
    assert!(
        writes > 0 && result.forwards > 0 && result.disk_reads > 0,
        "the replay must write, forward and read from disk: {result:?}"
    );
}
