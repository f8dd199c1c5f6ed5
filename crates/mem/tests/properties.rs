//! Property tests for pager invariants.

use now_mem::{DiskModel, NetworkRam, PageId, Pager, RemoteAccessCost};
use now_sim::SimDuration;
use proptest::prelude::*;

proptest! {
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
