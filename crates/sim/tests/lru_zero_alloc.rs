//! Steady-state allocation accounting for the LRU cache.
//!
//! The contract under test: once an `LruCache` has filled to capacity,
//! hits, evicting misses, removals and the misses that refill removed
//! slots touch the allocator zero times. Free slots are threaded through
//! the node slab and the index keeps its buckets. A counting
//! `GlobalAlloc` wrapper (legal here — `#![forbid(unsafe_code)]` guards
//! the library, not its integration tests) fills a cache and churns it
//! once, then asserts that a second, armed churn pass performs no
//! allocations at all. The same holds for a cache over a `DenseIndex`,
//! whose table is sized when it is built.
//!
//! Only the thread under test is counted: the test harness's own threads
//! allocate at moments of their choosing, which made a process-wide count
//! fail in 1 or 2 of 200 runs. This file still holds exactly ONE
//! `#[test]`, like its siblings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use now_sim::{DenseIndex, LruCache, LruIndex, Touch};

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

const CAPACITY: u32 = 1_024;
const OPS: u32 = 100_000;

/// Per-path op counts of one churn pass.
#[derive(Debug, Default)]
struct Paths {
    hits: u32,
    refills: u32,
    evictions: u32,
    removals: u32,
}

/// Churns a full cache over four times as many keys as fit: every seventh
/// op removes, the rest touch, a third of those as writes.
fn churn<I: LruIndex<u32>>(lru: &mut LruCache<u32, I>) -> Paths {
    let mut paths = Paths::default();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..OPS {
        // xorshift64: a fixed pseudo-random key stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = (x % u64::from(4 * CAPACITY)) as u32;
        if i % 7 == 0 {
            paths.removals += u32::from(lru.remove(&key).is_some());
            continue;
        }
        match lru.touch(key, i % 3 == 0) {
            Touch::Hit => paths.hits += 1,
            Touch::MissInserted => paths.refills += 1,
            Touch::MissEvicted { .. } => paths.evictions += 1,
        }
    }
    paths
}

/// Fills `lru` to capacity and churns it once, then counts the
/// allocations of a second, armed churn pass.
fn armed_churn<I: LruIndex<u32>>(mut lru: LruCache<u32, I>, name: &str) {
    for key in 0..CAPACITY {
        lru.touch(key, false);
    }
    churn(&mut lru);

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.set(true);
    let paths = churn(&mut lru);
    ARMED.set(false);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "warm LRU ({name}) hit the allocator: {allocs} allocs, {reallocs} reallocs over {OPS} ops"
    );
    assert!(
        paths.hits > 0 && paths.refills > 0 && paths.evictions > 0 && paths.removals > 0,
        "the pass must exercise every path: {paths:?}"
    );
}

#[test]
fn warm_lru_allocates_nothing() {
    // In the cold churn, removals leave tombstones in the hashed index's
    // table, and the first time they use up its spare room the table
    // doubles; from then on it is at most a quarter full and clears
    // tombstones in place.
    armed_churn(LruCache::new(CAPACITY as usize), "hashed index");
    armed_churn(
        LruCache::with_index(CAPACITY as usize, DenseIndex::new(4 * CAPACITY as usize)),
        "dense index",
    );
}
