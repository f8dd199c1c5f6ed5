//! Property-based tests for the simulation kernel's core invariants.

use std::collections::BTreeMap;

use now_sim::{
    DenseIndex, EventId, EventQueue, LruCache, SimDuration, SimRng, SimTime, Touch, ZipfSampler,
};
use proptest::prelude::*;

/// A delay from one of four kinds, picked by `x`'s low bits: due now,
/// sub-microsecond, an exact power of two up to 2^40 ns, or random below
/// such a power. Together they reach every radix bucket and cross every
/// power-of-two boundary of the clock.
fn model_delay(x: u64) -> SimDuration {
    let shift = (x >> 2) % 41;
    SimDuration::from_nanos(match x % 4 {
        0 => 0,
        1 => (x >> 8) % 1_000,
        2 => 1 << shift,
        _ => (x >> 8) & ((1 << shift) - 1),
    })
}

/// The rank `ZipfSampler` drew before its guide table: a binary search over
/// the CDF, built as `ZipfSampler::new` builds it.
fn zipf_by_binary_search(n: usize, theta: f64) -> impl Fn(f64) -> usize {
    let mut total = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|rank| {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            total
        })
        .collect();
    for v in &mut cdf {
        *v /= total;
    }
    move |u| match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite")) {
        Ok(i) => i,
        Err(i) => i.min(n - 1),
    }
}

proptest! {
    /// Popping yields events in non-decreasing time order regardless of the
    /// insertion order.
    #[test]
    fn queue_pops_monotone(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Events scheduled at the same timestamp come out in insertion order.
    #[test]
    fn queue_equal_times_fifo(n in 1usize..300, t in 0u64..1_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut expect = 0;
        while let Some((_, i)) = q.pop() {
            prop_assert_eq!(i, expect);
            expect += 1;
        }
        prop_assert_eq!(expect, n);
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn queue_cancellation_is_exact(
        times in prop::collection::vec(0u64..10_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule_at(SimTime::from_nanos(t), i)))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                q.cancel(*id);
            } else {
                kept.push(*i);
            }
        }
        let mut delivered: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            delivered.push(i);
        }
        delivered.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(delivered, kept);
    }

    /// len() always equals the number of events that will still be delivered.
    #[test]
    fn queue_len_matches_deliveries(
        ops in prop::collection::vec((0u64..1000, any::<bool>()), 1..100)
    ) {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for (delay, do_cancel) in &ops {
            let id = q.schedule_after(SimDuration::from_nanos(*delay + 1), ());
            ids.push(id);
            if *do_cancel {
                // Cancel a pseudo-arbitrary earlier event.
                let victim = ids[ids.len() / 2];
                q.cancel(victim);
            }
        }
        let expected = q.len();
        let mut actual = 0;
        while q.pop().is_some() {
            actual += 1;
        }
        prop_assert_eq!(actual, expected);
    }

    /// A cancel-heavy workload never holds more than twice the live events
    /// in heap storage: tombstoned entries are compacted away once they
    /// exceed half the heap (regression test for unbounded tombstone
    /// growth).
    #[test]
    fn queue_storage_bounded_under_cancellation(
        keepers in 1usize..40,
        churn in prop::collection::vec(1u64..1_000, 1..400),
    ) {
        let mut q = EventQueue::new();
        for i in 0..keepers {
            q.schedule_at(SimTime::from_secs(10_000 + i as u64), usize::MAX);
        }
        for (round, delay) in churn.iter().enumerate() {
            let id = q.schedule_after(SimDuration::from_micros(*delay), round);
            q.cancel(id);
            prop_assert!(
                q.storage_len() <= 2 * q.len().max(1),
                "round {}: storage {} exceeds twice the {} live events",
                round,
                q.storage_len(),
                q.len()
            );
        }
        prop_assert_eq!(q.len(), keepers);
    }

    /// Zipf samples are always in range and the rank-frequency curve is
    /// non-increasing (statistically) from rank 0 to the midpoint.
    #[test]
    fn zipf_in_range(n in 1usize..500, theta in 0.0f64..1.5, seed in any::<u64>()) {
        let z = ZipfSampler::new(n, theta);
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// `sample` draws exactly the rank a binary search over the CDF finds,
    /// draw for draw, at any size and skew.
    #[test]
    fn zipf_sample_matches_binary_search(
        n in 1usize..=5_000,
        theta in 0.0f64..3.0,
        seed in any::<u64>(),
    ) {
        let z = ZipfSampler::new(n, theta);
        let reference = zipf_by_binary_search(n, theta);
        let mut rng = SimRng::new(seed);
        let mut replay = rng.clone();
        for _ in 0..500 {
            prop_assert_eq!(z.sample(&mut rng), reference(replay.f64()));
        }
    }

    /// Replays from the same seed are identical across all distributions.
    #[test]
    fn rng_replay_identical(seed in any::<u64>()) {
        let draw = |seed: u64| {
            let mut r = SimRng::new(seed);
            (
                r.gen_range(0..1_000_000),
                r.exponential(2.0),
                r.pareto(1.0, 1.2),
                r.normal(0.0, 1.0),
                r.log_uniform(1.0, 100.0),
                r.fork().gen_range(0..1_000_000),
            )
        };
        prop_assert_eq!(draw(seed), draw(seed));
    }

    /// Time arithmetic round-trips: (t + d) - t == d and (t + d) - d == t.
    #[test]
    fn time_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(t);
        let d = SimDuration::from_nanos(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
    }
}

proptest! {
    /// `run_indexed` returns results in input order with any worker count:
    /// byte-identical (here: bit-identical f64s) for jobs in {1, 2, 8},
    /// and identical across repeated runs at the same jobs count.
    #[test]
    fn run_indexed_output_is_worker_count_independent(
        items in prop::collection::vec(any::<u64>(), 0..300),
    ) {
        use now_sim::parallel::run_indexed;
        let f = |i: usize, x: &u64| {
            let mut rng = SimRng::new(x.wrapping_add(i as u64));
            rng.exponential(1.0) + rng.normal(0.0, 1.0)
        };
        let serial: Vec<f64> = run_indexed(1, &items, f);
        for jobs in [2usize, 8] {
            let parallel = run_indexed(jobs, &items, f);
            prop_assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "jobs={}", jobs);
            }
        }
        let repeat = run_indexed(8, &items, f);
        for (a, b) in serial.iter().zip(&repeat) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "repeat at jobs=8");
        }
    }

    /// Under arbitrary schedule/cancel/pop interleavings, the non-mutating
    /// peek always reports the time the next pop delivers, and storage
    /// never exceeds twice the live count after a cancel.
    #[test]
    fn queue_peek_matches_pop_under_churn(
        ops in prop::collection::vec((0u8..3, 0u64..1_000), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for &(op, x) in &ops {
            match op {
                0 => ids.push(q.schedule_after(SimDuration::from_nanos(x + 1), x)),
                1 => {
                    if !ids.is_empty() && q.cancel(ids[(x as usize) % ids.len()]) {
                        // A successful cancel re-establishes the
                        // compaction bound (a stale id changes nothing).
                        prop_assert!(q.storage_len() <= 2 * q.len().max(1));
                    }
                }
                _ => {
                    let peeked = q.peek_time();
                    let popped = q.pop();
                    prop_assert_eq!(peeked, popped.map(|(t, _)| t));
                }
            }
        }
        while let Some(next) = q.peek_time() {
            let (t, _) = q.pop().expect("peeked event exists");
            prop_assert_eq!(next, t);
        }
        prop_assert!(q.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The queue behaves exactly like an ordered map keyed on `(time, seq)`
    /// under random schedule, cancel, pop and peek sequences: each pop
    /// returns the model's first entry, and `peek_time`, `len` and
    /// `cancel`'s result agree with it after every step. Cancels draw from
    /// every id ever issued, including those of fired events whose slots
    /// the queue has since reused.
    #[test]
    fn queue_matches_an_ordered_model(
        ops in prop::collection::vec((0u8..4, any::<u64>()), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut issued: Vec<(EventId, SimTime)> = Vec::new();
        for &(op, x) in &ops {
            match op {
                0 | 1 => {
                    let time = q.now() + model_delay(x);
                    let id = q.schedule_at(time, x);
                    model.insert((time, id.seq()), x);
                    issued.push((id, time));
                }
                2 => {
                    if let Some(&(id, time)) = issued.get((x as usize) % issued.len().max(1)) {
                        let pending = model.remove(&(time, id.seq())).is_some();
                        prop_assert_eq!(q.cancel(id), pending);
                        if pending {
                            prop_assert!(q.storage_len() <= 2 * q.len().max(1));
                        }
                    }
                }
                _ => {
                    let want = model.pop_first().map(|((t, seq), v)| (t, seq, v));
                    let got = q.pop_with_id().map(|(t, id, v)| (t, id.seq(), v));
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.keys().next().map(|&(t, _)| t));
        }
        while let Some(((t, seq), v)) = model.pop_first() {
            prop_assert_eq!(q.pop_with_id().map(|(t, id, v)| (t, id.seq(), v)), Some((t, seq, v)));
        }
        prop_assert!(q.pop().is_none());
    }
}

proptest! {
    /// The cache never exceeds capacity and `contains` agrees with
    /// touch-hit behaviour.
    #[test]
    fn lru_capacity_and_membership(
        cap in 1usize..32,
        keys in prop::collection::vec(0u64..64, 1..300),
    ) {
        let mut c = LruCache::new(cap);
        for &k in &keys {
            let contained = c.contains(&k);
            let t = c.touch(k, false);
            prop_assert_eq!(matches!(t, Touch::Hit), contained);
            prop_assert!(c.len() <= cap);
            prop_assert!(c.contains(&k), "just-touched key resident");
        }
    }

    /// The LRU cache behaves identically to a naive reference
    /// implementation (a vector of `(key, dirty)` ordered by recency)
    /// under interleaved touches and removals, which also exercises the
    /// reuse of removed slots. The same ops run against the hashed default
    /// index and a `DenseIndex` over the key range.
    #[test]
    fn lru_matches_reference_model(
        cap in 1usize..16,
        ops in prop::collection::vec((0u32..32, 0u8..4), 1..300),
    ) {
        let mut c = LruCache::new(cap);
        let mut d = LruCache::with_index(cap, DenseIndex::new(32));
        let mut reference: Vec<(u32, bool)> = Vec::new(); // LRU at front, MRU at back
        for &(k, op) in &ops {
            let pos = reference.iter().position(|&(x, _)| x == k);
            if op == 0 {
                let dirty = pos.map(|p| reference.remove(p).1);
                prop_assert_eq!(c.remove(&k), dirty);
                prop_assert_eq!(d.remove(&k), dirty);
            } else {
                let write = op == 1;
                let t = c.touch(k, write);
                prop_assert_eq!(d.touch(k, write), t);
                match pos {
                    Some(p) => {
                        prop_assert_eq!(t, Touch::Hit);
                        let (_, dirty) = reference.remove(p);
                        reference.push((k, dirty || write));
                    }
                    None => {
                        reference.push((k, write));
                        if reference.len() > cap {
                            let (victim, dirty) = reference.remove(0);
                            prop_assert_eq!(t, Touch::MissEvicted { victim, dirty });
                        } else {
                            prop_assert_eq!(t, Touch::MissInserted);
                        }
                    }
                }
            }
            let lru = reference.first().map(|(x, _)| x);
            prop_assert_eq!(c.len(), reference.len());
            prop_assert_eq!(d.len(), reference.len());
            prop_assert_eq!(c.lru(), lru);
            prop_assert_eq!(d.lru(), lru);
            for key in 0..32 {
                let resident = reference.iter().any(|&(x, _)| x == key);
                prop_assert_eq!(c.contains(&key), resident);
                prop_assert_eq!(d.contains(&key), resident);
            }
            let want: Vec<u32> = reference.iter().map(|&(x, _)| x).collect();
            prop_assert_eq!(c.iter().copied().collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(d.iter().copied().collect::<Vec<_>>(), want);
        }
    }
}
