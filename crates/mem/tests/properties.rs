//! Property tests for pager and network-RAM pool invariants.

use std::collections::{BTreeMap, BTreeSet};

use now_mem::{DiskModel, FaultKind, NetworkRam, PageId, Pager, PagerStats, RemoteAccessCost};
use now_sim::SimDuration;
use proptest::prelude::*;

/// Bytes per page in the reference-model test.
const PAGE: u64 = 8_192;
/// Pages in the reference-model test's address space.
const PAGES: u64 = 48;

/// A reference demand pager: a `Vec` recency list (least recent first)
/// and `BTreeSet`s of materialised and on-disk pages, backed by its own
/// copy of the pool. It prices faults with the pager's rules: zero-fill
/// 50 µs, swap clusters of eight pages, sequential fetches overlapping
/// the computation since the last access.
struct ModelPager {
    frames: usize,
    /// `(page, dirty)`, least recently used first.
    recency: Vec<(u64, bool)>,
    materialised: BTreeSet<u64>,
    on_disk: BTreeSet<u64>,
    pool: Option<NetworkRam>,
    disk: DiskModel,
    last: Option<u64>,
    stats: PagerStats,
}

impl ModelPager {
    fn access(&mut self, page: u64, write: bool, compute: SimDuration) -> (FaultKind, SimDuration) {
        self.stats.accesses += 1;
        let sequential = self.last.is_some_and(|last| page == last.wrapping_add(1));
        self.last = Some(page);
        if let Some(pos) = self.recency.iter().position(|&(p, _)| p == page) {
            let (_, dirty) = self.recency.remove(pos);
            self.recency.push((page, dirty || write));
            self.stats.hits += 1;
            return (FaultKind::Hit, SimDuration::ZERO);
        }
        if self.recency.len() == self.frames {
            let (victim, dirty) = self.recency.remove(0);
            self.stats.writebacks += u64::from(dirty);
            let pooled = self
                .pool
                .as_mut()
                .is_some_and(|pool| pool.store(PageId(victim)));
            if !pooled {
                self.on_disk.insert(victim);
            }
        }
        self.recency.push((page, write));
        let (kind, service) = if self.materialised.insert(page) {
            self.stats.soft_faults += 1;
            (FaultKind::SoftFault, SimDuration::from_micros(50))
        } else if let Some(cost) = self
            .pool
            .as_mut()
            .and_then(|pool| pool.take(PageId(page)).map(|_| pool.cost()))
        {
            self.stats.netram_faults += 1;
            let service = if sequential {
                cost.pipelined(PAGE)
            } else {
                cost.access(PAGE)
            };
            (FaultKind::NetRamFault, service)
        } else {
            assert!(
                self.on_disk.remove(&page),
                "a materialised page out of frames and pool is on disk"
            );
            self.stats.disk_faults += 1;
            let service = if sequential {
                self.disk.sequential_per_block(PAGE, 8)
            } else {
                self.disk.random_access(PAGE)
            };
            (FaultKind::DiskFault, service)
        };
        let stall = match kind {
            FaultKind::NetRamFault | FaultKind::DiskFault if sequential => {
                service.saturating_sub(compute)
            }
            _ => service,
        };
        self.stats.stall += stall;
        (kind, stall)
    }

    fn host_departed(&mut self, host: u32, crashed: bool) {
        let Some(pool) = self.pool.as_mut() else {
            return;
        };
        let lost = pool.evict_host(host);
        if crashed {
            self.stats.host_lost_pages += lost.len() as u64;
            for page in lost {
                self.materialised.remove(&page.0);
                self.on_disk.remove(&page.0);
            }
        } else {
            self.stats.host_evicted_pages += lost.len() as u64;
            self.on_disk.extend(lost.iter().map(|page| page.0));
        }
    }

    fn host_rejoined(&mut self, host: u32) {
        if let Some(pool) = self.pool.as_mut() {
            pool.rejoin_host(host);
        }
    }
}

/// A reference network-RAM pool: an ordered map from page to its primary
/// and mirror host, and a frame count per host. Frames are claimed
/// round-robin from the host after the last one tried, skipping full
/// hosts (and the primary, for a mirror); a departed host counts as full
/// until it rejoins.
struct ModelPool {
    per_host: u64,
    used: Vec<u64>,
    next: u32,
    mirrored: bool,
    placed: BTreeMap<PageId, (u32, Option<u32>)>,
}

impl ModelPool {
    fn claim(&mut self, exclude: Option<u32>) -> Option<u32> {
        let hosts = self.used.len() as u32;
        for _ in 0..hosts {
            let h = self.next;
            self.next = (h + 1) % hosts;
            if Some(h) != exclude && self.used[h as usize] < self.per_host {
                self.used[h as usize] += 1;
                return Some(h);
            }
        }
        None
    }

    fn store(&mut self, page: PageId) -> bool {
        if self.placed.contains_key(&page) {
            return true;
        }
        let Some(primary) = self.claim(None) else {
            return false;
        };
        let mirror = if self.mirrored {
            let Some(mirror) = self.claim(Some(primary)) else {
                self.used[primary as usize] -= 1;
                return false;
            };
            Some(mirror)
        } else {
            None
        };
        self.placed.insert(page, (primary, mirror));
        true
    }

    fn take(&mut self, page: PageId) -> Option<u32> {
        let (primary, mirror) = self.placed.remove(&page)?;
        self.used[primary as usize] -= 1;
        if let Some(mirror) = mirror {
            self.used[mirror as usize] -= 1;
        }
        Some(primary)
    }

    fn free_pages(&self) -> u64 {
        self.used.iter().map(|&u| self.per_host - u).sum()
    }

    /// Pages whose only copy was on `host`, in page order.
    fn evict_host(&mut self, host: u32) -> Vec<PageId> {
        let mut lost = Vec::new();
        self.placed.retain(|&page, (primary, mirror)| {
            if *primary == host {
                match mirror.take() {
                    Some(m) => *primary = m,
                    None => {
                        lost.push(page);
                        return false;
                    }
                }
            } else if *mirror == Some(host) {
                *mirror = None;
            }
            true
        });
        self.used[host as usize] = self.per_host;
        lost
    }

    fn rejoin_host(&mut self, host: u32) {
        self.used[host as usize] = 0;
    }
}

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
        let pool = NetworkRam::new(4, pool_pages, 48, RemoteAccessCost::table2_atm(), 8_192);
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

    /// The pager faults, prices and counts exactly as the reference model
    /// does, access by access, for disk, network-RAM and mirrored backing,
    /// with pool hosts departing, crashing and rejoining in between.
    #[test]
    fn pager_matches_a_reference_model(
        frames in 1usize..16,
        backing in 0u8..3,
        hosts in 2u32..5,
        per_host in 1u64..8,
        steps in prop::collection::vec(
            (0u8..20, 0..PAGES, any::<bool>(), 0usize..3, 0u32..4),
            1..300,
        ),
    ) {
        let disk = DiskModel::workstation_1994();
        let pool = NetworkRam::new(hosts, per_host, PAGES, RemoteAccessCost::table2_atm(), PAGE);
        let mut pager = if backing == 0 {
            Pager::with_disk(frames, PAGES, PAGE, disk)
        } else {
            Pager::with_netram(frames, PAGE, pool.clone(), disk)
        };
        let mut model_pool = (backing > 0).then_some(pool);
        if backing == 2 {
            pager.set_netram_mirrored(true);
            if let Some(pool) = model_pool.as_mut() {
                pool.set_mirrored(true);
            }
        }
        let mut model = ModelPager {
            frames,
            recency: Vec::new(),
            materialised: BTreeSet::new(),
            on_disk: BTreeSet::new(),
            pool: model_pool,
            disk,
            last: None,
            stats: PagerStats::default(),
        };
        let mut down = vec![false; hosts as usize];
        for (op, page, write, gap, host) in steps {
            let host = host % hosts;
            if op >= 18 {
                if down[host as usize] {
                    pager.handle_host_rejoin(host);
                    model.host_rejoined(host);
                } else if op == 18 {
                    pager.handle_host_eviction(host);
                    model.host_departed(host, false);
                } else {
                    pager.handle_host_crash(host);
                    model.host_departed(host, true);
                }
                down[host as usize] = !down[host as usize];
                continue;
            }
            // Half the accesses continue a sequential run.
            let page = match model.last {
                Some(last) if op % 2 == 0 => (last + 1) % PAGES,
                _ => page,
            };
            let compute = SimDuration::from_micros([0, 100, 500][gap]);
            prop_assert_eq!(
                pager.access(PageId(page), write, compute),
                model.access(page, write, compute),
                "page {}",
                page
            );
        }
        prop_assert_eq!(pager.stats(), model.stats);
    }

    /// The pool stores, takes, fetches and reports placement exactly as
    /// the reference model does, with and without mirroring, with hosts
    /// departing and rejoining in between; each departure loses the same
    /// pages in the same (page) order.
    #[test]
    fn pool_matches_a_reference_model(
        mirrored in any::<bool>(),
        hosts in 2u32..6,
        per_host in 1u64..10,
        steps in prop::collection::vec((0u8..20, 0..PAGES, 0u32..6), 1..400),
    ) {
        let cost = RemoteAccessCost::table2_atm();
        let mut pool = NetworkRam::new(hosts, per_host, PAGES, cost, PAGE);
        pool.set_mirrored(mirrored);
        let mut model = ModelPool {
            per_host,
            used: vec![0; hosts as usize],
            next: 0,
            mirrored,
            placed: BTreeMap::new(),
        };
        let mut down = vec![false; hosts as usize];
        for (op, page, host) in steps {
            let (page, host) = (PageId(page), host % hosts);
            match op {
                0..=7 => prop_assert_eq!(pool.store(page), model.store(page), "store {:?}", page),
                8..=11 => prop_assert_eq!(pool.take(page), model.take(page), "take {:?}", page),
                12..=14 => prop_assert_eq!(
                    pool.fetch(page),
                    model.take(page).map(|_| cost.access(PAGE)),
                    "fetch {:?}",
                    page
                ),
                15..=17 => prop_assert_eq!(
                    pool.holds(page),
                    model.placed.contains_key(&page),
                    "holds {:?}",
                    page
                ),
                _ if down[host as usize] => {
                    pool.rejoin_host(host);
                    model.rejoin_host(host);
                    down[host as usize] = false;
                }
                _ => {
                    prop_assert_eq!(pool.evict_host(host), model.evict_host(host), "host {}", host);
                    down[host as usize] = true;
                }
            }
            prop_assert_eq!(pool.free_pages(), model.free_pages());
        }
    }

    /// Stall time is monotone in the access stream: adding accesses never
    /// reduces cumulative stall.
    #[test]
    fn pager_stall_monotone(accesses in prop::collection::vec(0u64..32, 2..100)) {
        let mut p = Pager::with_disk(4, 32, 8_192, DiskModel::workstation_1994());
        let mut last = SimDuration::ZERO;
        for &page in &accesses {
            p.access(PageId(page), true, SimDuration::ZERO);
            let s = p.stats().stall;
            prop_assert!(s >= last);
            last = s;
        }
    }
}
