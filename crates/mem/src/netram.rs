//! Network RAM: the aggregate idle DRAM of the building as a paging
//! device.
//!
//! A faulting workstation sends a small request to a host holding the page
//! and receives the 8-KB page back; the cost is Table 2's remote-memory
//! column (1.05 ms over ATM) rather than the 14.8-ms disk. The pool tracks
//! per-host capacity so a paging-intensive job actually consumes idle
//! memory somewhere, and spills to disk when the building is out of free
//! DRAM.

use now_net::Network;
use now_probe::Probe;
use now_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::PageId;

/// Cost of one remote-memory page access.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RemoteAccessCost {
    /// Fixed cost per access: request message, software overhead, copies.
    pub fixed: SimDuration,
    /// Per-byte transfer cost (reciprocal of effective bandwidth).
    pub per_byte: SimDuration,
}

impl RemoteAccessCost {
    /// Table 2's 155-Mbps ATM column: 650 µs fixed (copy + overhead), 8 KB
    /// in 400 µs on the wire — 1.05 ms total for a page.
    pub fn table2_atm() -> Self {
        RemoteAccessCost {
            fixed: SimDuration::from_micros(650),
            per_byte: SimDuration::from_nanos(49), // ≈400 µs / 8,192 B
        }
    }

    /// Table 2's Ethernet column: same fixed software cost, 6.25 ms of
    /// wire time per 8-KB page — 6.9 ms total.
    pub fn table2_ethernet() -> Self {
        RemoteAccessCost {
            fixed: SimDuration::from_micros(650),
            per_byte: SimDuration::from_nanos(763), // ≈6,250 µs / 8,192 B
        }
    }

    /// Derives the cost from a live [`Network`] by probing a small request
    /// and a page-sized response between nodes 0 and 1.
    pub fn from_network(net: &mut Network, page_bytes: u64) -> Self {
        let small = net.one_way_small_message_us();
        let mbps = net.bandwidth_at_mbps(page_bytes, 4);
        RemoteAccessCost {
            fixed: SimDuration::from_micros_f64(small * 2.0), // request + response software
            per_byte: SimDuration::from_secs_f64(8.0 / (mbps * 1e6)),
        }
    }

    /// Cost of one access of `bytes`.
    pub fn access(&self, bytes: u64) -> SimDuration {
        self.fixed + self.per_byte * bytes
    }

    /// Steady-state per-page cost when pages stream with prefetching: the
    /// wire/bandwidth term only (fixed costs overlap the pipeline).
    pub fn pipelined(&self, bytes: u64) -> SimDuration {
        self.per_byte * bytes
    }
}

/// Where a page lives in the pool: its primary host, plus an optional
/// mirror copy on a second host when the pool runs in mirrored mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    primary: u32,
    mirror: Option<u32>,
}

impl Placement {
    /// The entry of a page the pool does not hold. No host has this
    /// index, since host indices are below a `u32` host count.
    const NOT_HELD: Placement = Placement {
        primary: u32::MAX,
        mirror: None,
    };

    fn held(&self) -> bool {
        self.primary != u32::MAX
    }
}

/// The building-wide pool of idle DRAM.
///
/// # Example
///
/// ```
/// use now_mem::{NetworkRam, RemoteAccessCost, PageId};
///
/// let mut pool = NetworkRam::new(4, 1_000, 8_192, RemoteAccessCost::table2_atm(), 8_192);
/// assert_eq!(pool.free_pages(), 4_000);
/// assert!(pool.store(PageId(7)));
/// assert!(pool.holds(PageId(7)));
/// ```
#[derive(Debug, Clone)]
pub struct NetworkRam {
    hosts: u32,
    per_host_pages: u64,
    cost: RemoteAccessCost,
    page_bytes: u64,
    /// Which host(s) hold each page, indexed by page number: one entry
    /// per page of the address space the pool serves.
    placements: Vec<Placement>,
    /// Used pages per host.
    used: Vec<u64>,
    next_host: u32,
    mirrored: bool,
    probe: Probe,
}

impl NetworkRam {
    /// Creates a pool of `hosts` idle machines donating `per_host_pages`
    /// page frames each, for an address space of `pages` pages: the pool
    /// holds pages `0..pages`.
    ///
    /// # Panics
    ///
    /// Panics if there are no hosts or no frames.
    pub fn new(
        hosts: u32,
        per_host_pages: u64,
        pages: u64,
        cost: RemoteAccessCost,
        page_bytes: u64,
    ) -> Self {
        assert!(hosts > 0, "network RAM needs at least one idle host");
        assert!(per_host_pages > 0, "hosts must donate at least one frame");
        let pages = usize::try_from(pages).expect("page count fits in memory");
        NetworkRam {
            hosts,
            per_host_pages,
            cost,
            page_bytes,
            placements: vec![Placement::NOT_HELD; pages],
            used: vec![0; hosts as usize],
            next_host: 0,
            mirrored: false,
            probe: Probe::disabled(),
        }
    }

    /// Attaches a telemetry probe counting `netram.pages_out` (stores into
    /// the pool), `netram.pages_in` (fetches back), `netram.pages_lost`
    /// (pages dropped when a donating host departs), and
    /// `netram.pages_mirror_saved` (pages that survived a departure via
    /// their mirror copy).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Switches the pool to mirrored mode: every page is stored on two
    /// distinct hosts, halving capacity but surviving any single host
    /// crash without data loss.
    ///
    /// # Panics
    ///
    /// Panics if the pool already holds pages (the mode is a construction
    /// choice, not a runtime toggle) or has fewer than two hosts.
    pub fn set_mirrored(&mut self, on: bool) {
        assert!(
            self.placements.iter().all(|p| !p.held()),
            "mirroring must be chosen before any page is stored"
        );
        assert!(!on || self.hosts >= 2, "mirroring needs at least two hosts");
        self.mirrored = on;
    }

    /// Total free frames across the pool (departed hosts contribute none).
    pub fn free_pages(&self) -> u64 {
        self.used.iter().map(|&u| self.per_host_pages - u).sum()
    }

    /// Number of idle hosts in the pool, departed ones included.
    pub(crate) fn hosts(&self) -> u32 {
        self.hosts
    }

    /// Number of pages in the address space the pool serves.
    pub(crate) fn pages(&self) -> u64 {
        self.placements.len() as u64
    }

    /// `page`'s index in the placement table.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the pool's address space.
    fn slot(&self, page: PageId) -> usize {
        assert!(page.0 < self.pages(), "page out of range");
        page.0 as usize
    }

    /// True if the pool currently holds `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the pool's address space.
    pub fn holds(&self, page: PageId) -> bool {
        self.placements[self.slot(page)].held()
    }

    /// Claims one free frame round-robin, skipping `exclude`.
    fn claim(&mut self, exclude: Option<u32>) -> Option<u32> {
        for _ in 0..self.hosts {
            let h = self.next_host;
            self.next_host = (h + 1) % self.hosts;
            if Some(h) == exclude {
                continue;
            }
            if self.used[h as usize] < self.per_host_pages {
                self.used[h as usize] += 1;
                return Some(h);
            }
        }
        None
    }

    /// Stores `page` on some idle host (round-robin over hosts with room);
    /// in mirrored mode a second copy goes to a distinct host. Returns
    /// `false` if the pool is full — the caller must spill to disk. A
    /// mirrored store that cannot find two hosts with room spills rather
    /// than keep an unprotected single copy.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the pool's address space.
    pub fn store(&mut self, page: PageId) -> bool {
        let slot = self.slot(page);
        if self.placements[slot].held() {
            return true;
        }
        let Some(primary) = self.claim(None) else {
            return false;
        };
        let mirror = if self.mirrored {
            match self.claim(Some(primary)) {
                Some(m) => Some(m),
                None => {
                    self.used[primary as usize] -= 1;
                    return false;
                }
            }
        } else {
            None
        };
        self.placements[slot] = Placement { primary, mirror };
        self.probe.count("netram.pages_out", 1);
        true
    }

    /// Removes `page` from the pool, freeing its frame(s), and returns the
    /// primary host that held it — so a caller charging real fabric
    /// traffic knows which node the page streams from. Returns `None` if
    /// the pool does not hold the page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the pool's address space.
    pub fn take(&mut self, page: PageId) -> Option<u32> {
        let slot = self.slot(page);
        let place = std::mem::replace(&mut self.placements[slot], Placement::NOT_HELD);
        if !place.held() {
            return None;
        }
        self.used[place.primary as usize] -= 1;
        if let Some(m) = place.mirror {
            self.used[m as usize] -= 1;
        }
        self.probe.count("netram.pages_in", 1);
        Some(place.primary)
    }

    /// Fetches `page` back from the pool, freeing its frame. Returns the
    /// access cost, or `None` if the pool does not hold the page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the pool's address space.
    pub fn fetch(&mut self, page: PageId) -> Option<SimDuration> {
        self.take(page)?;
        Some(self.cost.access(self.page_bytes))
    }

    /// The cost model in use.
    pub fn cost(&self) -> RemoteAccessCost {
        self.cost
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// A host departed (its user returned, or it crashed): pages whose
    /// only copy lived there are dropped and returned so the caller can
    /// recover them; in mirrored mode the surviving copy is promoted and
    /// the page stays resident. Capacity shrinks until
    /// [`rejoin_host`](Self::rejoin_host). The returned ids are in page
    /// order, so the recovery order (and anything downstream of it) does
    /// not depend on the order pages were stored.
    pub fn evict_host(&mut self, host: u32) -> Vec<PageId> {
        assert!(host < self.hosts, "host out of range");
        let mut lost = Vec::new();
        let mut saved = 0u64;
        for (page, place) in self.placements.iter_mut().enumerate() {
            if place.primary == host {
                match place.mirror.take() {
                    Some(m) => {
                        place.primary = m;
                        saved += 1;
                    }
                    None => {
                        *place = Placement::NOT_HELD;
                        lost.push(PageId(page as u64));
                    }
                }
            } else if place.mirror == Some(host) {
                place.mirror = None;
            }
        }
        self.used[host as usize] = self.per_host_pages; // mark unusable
        self.probe.count("netram.pages_lost", lost.len() as u64);
        self.probe.count("netram.pages_mirror_saved", saved);
        lost
    }

    /// A departed host comes back (reboot, or its user left again): its
    /// frames become usable and empty. Pages it held before departing are
    /// *not* restored — [`evict_host`](Self::evict_host) already dropped
    /// or promoted them.
    pub fn rejoin_host(&mut self, host: u32) {
        assert!(host < self.hosts, "host out of range");
        debug_assert!(
            self.placements
                .iter()
                .all(|p| p.primary != host && p.mirror != Some(host)),
            "rejoining host still referenced by placements"
        );
        self.used[host as usize] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> NetworkRam {
        NetworkRam::new(3, 4, 128, RemoteAccessCost::table2_atm(), 8_192)
    }

    #[test]
    fn table2_atm_page_cost_is_about_1050us() {
        let c = RemoteAccessCost::table2_atm();
        let us = c.access(8_192).as_micros_f64();
        assert!((1_000.0..1_110.0).contains(&us), "got {us}");
    }

    #[test]
    fn table2_ethernet_page_cost_is_about_6900us() {
        let c = RemoteAccessCost::table2_ethernet();
        let us = c.access(8_192).as_micros_f64();
        assert!((6_700.0..7_100.0).contains(&us), "got {us}");
    }

    #[test]
    fn pipelined_cost_is_wire_only() {
        let c = RemoteAccessCost::table2_atm();
        assert!(c.pipelined(8_192) < c.access(8_192));
        let us = c.pipelined(8_192).as_micros_f64();
        assert!((350.0..450.0).contains(&us), "got {us}");
    }

    #[test]
    fn store_and_fetch_roundtrip() {
        let mut p = pool();
        assert!(p.store(PageId(1)));
        assert!(p.holds(PageId(1)));
        assert_eq!(p.free_pages(), 11);
        let cost = p.fetch(PageId(1)).unwrap();
        assert!(cost > SimDuration::ZERO);
        assert!(!p.holds(PageId(1)));
        assert_eq!(p.free_pages(), 12);
    }

    #[test]
    fn fetch_of_absent_page_is_none() {
        let mut p = pool();
        assert_eq!(p.fetch(PageId(42)), None);
    }

    #[test]
    #[should_panic(expected = "page out of range")]
    fn pages_outside_the_address_space_panic() {
        pool().store(PageId(128));
    }

    #[test]
    fn pool_fills_and_rejects() {
        let mut p = pool();
        for i in 0..12 {
            assert!(p.store(PageId(i)), "frame {i} should fit");
        }
        assert_eq!(p.free_pages(), 0);
        assert!(!p.store(PageId(99)), "full pool must refuse");
    }

    #[test]
    fn double_store_is_idempotent() {
        let mut p = pool();
        assert!(p.store(PageId(5)));
        assert!(p.store(PageId(5)));
        assert_eq!(p.free_pages(), 11);
    }

    #[test]
    fn pages_spread_across_hosts() {
        let mut p = pool();
        for i in 0..6 {
            p.store(PageId(i));
        }
        // Round-robin: each of 3 hosts holds 2.
        assert!(p.used.iter().all(|&u| u == 2), "{:?}", p.used);
    }

    #[test]
    fn evicting_a_host_loses_its_pages_and_capacity() {
        let mut p = pool();
        for i in 0..6 {
            p.store(PageId(i));
        }
        let lost = p.evict_host(1);
        assert_eq!(lost.len(), 2);
        for page in &lost {
            assert!(!p.holds(*page));
        }
        // Host 1's 4 frames are unusable; hosts 0 and 2 still hold 2 pages
        // each, leaving 2 free frames apiece.
        assert_eq!(p.free_pages(), 4);
    }

    #[test]
    fn evicted_pages_come_back_in_page_order() {
        let mut p = NetworkRam::new(3, 64, 5_120, RemoteAccessCost::table2_atm(), 8_192);
        // Scrambled ids, some differing only in high bits; round-robin
        // placement sends every third store to host 1.
        let ids: Vec<PageId> = (0..60u64)
            .map(|i| PageId(((i * 7_919) % 1_009) | ((i % 5) << 10)))
            .collect();
        for &page in &ids {
            assert!(p.store(page));
        }
        let mut on_host1: Vec<PageId> = ids.iter().copied().skip(1).step_by(3).collect();
        assert!(
            !on_host1.is_sorted(),
            "stores must reach host 1 out of order"
        );
        on_host1.sort_unstable();
        assert_eq!(p.evict_host(1), on_host1);
    }

    #[test]
    fn rejoined_host_donates_frames_again() {
        let mut p = pool();
        for i in 0..6 {
            p.store(PageId(i));
        }
        let lost = p.evict_host(1);
        assert_eq!(lost.len(), 2);
        assert_eq!(p.free_pages(), 4);
        p.rejoin_host(1);
        // Host 1 is back with 4 empty frames; its old pages stay lost.
        assert_eq!(p.free_pages(), 8);
        for page in &lost {
            assert!(!p.holds(*page));
        }
    }

    #[test]
    fn mirrored_pool_survives_a_host_crash() {
        let mut p = pool();
        p.set_mirrored(true);
        for i in 0..4 {
            assert!(p.store(PageId(i)));
        }
        // 8 of 12 frames consumed: two copies per page.
        assert_eq!(p.free_pages(), 4);
        let lost = p.evict_host(0);
        assert!(
            lost.is_empty(),
            "mirror copies must cover the crash: {lost:?}"
        );
        for i in 0..4 {
            assert!(p.holds(PageId(i)));
        }
        // Every page is still fetchable from its surviving copy.
        for i in 0..4 {
            assert!(p.fetch(PageId(i)).is_some());
        }
    }

    #[test]
    fn mirrored_store_spills_rather_than_single_copy() {
        // Two hosts, one frame each: the second mirrored page cannot get
        // two distinct frames, so the store must refuse (spill to disk).
        let mut p = NetworkRam::new(2, 1, 2, RemoteAccessCost::table2_atm(), 8_192);
        p.set_mirrored(true);
        assert!(p.store(PageId(0)));
        assert_eq!(p.free_pages(), 0);
        assert!(!p.store(PageId(1)));
    }

    #[test]
    fn mirrored_pool_halves_capacity() {
        let mut p = pool();
        p.set_mirrored(true);
        let mut stored = 0;
        while p.store(PageId(stored)) {
            stored += 1;
        }
        // 12 frames, 2 per page.
        assert_eq!(stored, 6);
    }

    #[test]
    fn from_network_matches_fabric_scale() {
        let mut net = now_net::presets::am_atm(4);
        let c = RemoteAccessCost::from_network(&mut net, 8_192);
        // AM over ATM should beat the Table 2 kernel-driver constants.
        assert!(c.access(8_192) < RemoteAccessCost::table2_atm().access(8_192));
    }
}
