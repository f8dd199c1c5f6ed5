//! Property tests for LRU and pager invariants.

use now_mem::{DiskModel, LruCache, NetworkRam, PageId, Pager, RemoteAccessCost, Touch};
use now_sim::SimDuration;
use proptest::prelude::*;

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
    /// reuse of removed slots.
    #[test]
    fn lru_matches_reference_model(
        cap in 1usize..16,
        ops in prop::collection::vec((0u64..32, 0u8..4), 1..300),
    ) {
        let mut c = LruCache::new(cap);
        let mut reference: Vec<(u64, bool)> = Vec::new(); // LRU at front, MRU at back
        for &(k, op) in &ops {
            let pos = reference.iter().position(|&(x, _)| x == k);
            if op == 0 {
                let dirty = pos.map(|p| reference.remove(p).1);
                prop_assert_eq!(c.remove(&k), dirty);
            } else {
                let write = op == 1;
                let t = c.touch(k, write);
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
            prop_assert_eq!(c.len(), reference.len());
            prop_assert_eq!(c.lru(), reference.first().map(|(x, _)| x));
            for key in 0..32 {
                prop_assert_eq!(c.contains(&key), reference.iter().any(|&(x, _)| x == key));
            }
            let got: Vec<u64> = c.iter().copied().collect();
            let want: Vec<u64> = reference.iter().map(|&(x, _)| x).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Pager conservation: hits + faults == accesses, and every page ever
    /// touched is either resident, in the pool, or on disk — re-accessing
    /// it never yields a soft fault twice.
    #[test]
    fn pager_accounts_every_access(
        frames in 1usize..16,
        pool_pages in 4u64..32,
        accesses in prop::collection::vec((0u64..48, any::<bool>()), 1..300),
    ) {
        let pool = NetworkRam::new(4, pool_pages, RemoteAccessCost::table2_atm(), 8_192);
        let mut p = Pager::with_netram(frames, 8_192, pool, DiskModel::workstation_1994());
        let mut seen = std::collections::HashSet::new();
        for &(page, write) in &accesses {
            let (kind, _) = p.access(PageId(page), write, SimDuration::from_micros(100));
            let first = seen.insert(page);
            prop_assert_eq!(
                matches!(kind, now_mem::FaultKind::SoftFault),
                first,
                "soft fault iff first touch of {}",
                page
            );
        }
        let s = p.stats();
        prop_assert_eq!(s.accesses as usize, accesses.len());
        prop_assert_eq!(s.hits + s.soft_faults + s.netram_faults + s.disk_faults, s.accesses);
        prop_assert_eq!(s.soft_faults as usize, seen.len());
    }

    /// Stall time is monotone in the access stream: adding accesses never
    /// reduces cumulative stall.
    #[test]
    fn pager_stall_monotone(accesses in prop::collection::vec(0u64..32, 2..100)) {
        let mut p = Pager::with_disk(4, 8_192, DiskModel::workstation_1994());
        let mut last = SimDuration::ZERO;
        for &page in &accesses {
            p.access(PageId(page), true, SimDuration::ZERO);
            let s = p.stats().stall;
            prop_assert!(s >= last);
            last = s;
        }
    }
}
