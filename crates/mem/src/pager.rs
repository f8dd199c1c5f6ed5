//! The demand pager: a bounded local frame pool backed by disk or network
//! RAM.
//!
//! Timing follows how 1990s VM systems actually behaved:
//!
//! * **First touch** of a page is a zero-fill soft fault (no I/O).
//! * **Disk paging** uses BSD-style swap clustering: pages are written out
//!   and brought back in runs of [`SWAP_CLUSTER`] pages, so one
//!   seek+rotation amortises over the cluster. This is what keeps the
//!   disk-vs-network-RAM gap at the paper's 5–10× rather than the raw 37×
//!   a fully random swap would give.
//! * **Network RAM paging** streams: for sequential faults the fixed
//!   software cost overlaps the pipeline and only the wire time stalls the
//!   processor (minus whatever computation happened since the last fault).
//! * **Write-back** of dirty victims is asynchronous (it is counted, not
//!   charged), as in real pagers with free-frame reserves.

use now_probe::Probe;
use now_sim::{LruCache, LruIndex, SimDuration, SimTime, Touch};
use serde::{Deserialize, Serialize};

use crate::{DiskModel, NetworkRam, RemoteAccessCost};

/// Pages a disk swap device clusters per transfer.
pub const SWAP_CLUSTER: u64 = 8;

/// How a network-RAM page fetch is priced.
///
/// The pager knows *which* idle host a page streams back from; this trait
/// decides what that costs. [`FixedPath`] charges the Table 2 constants
/// (the legacy arithmetic, bit-for-bit); an engine component can instead
/// pass a path that routes the fetch over a live shared fabric, where the
/// price depends on what everyone else is doing to the wires.
pub trait RemotePath {
    /// Service time for fetching `bytes` of page data back from idle
    /// `host`. `sequential` faults stream: the pipeline hides fixed costs
    /// and only residual wire time should be charged.
    fn netram_fetch(
        &mut self,
        host: u32,
        sequential: bool,
        bytes: u64,
        cost: RemoteAccessCost,
    ) -> SimDuration;
}

/// The constant-cost remote path: Table 2 arithmetic, no shared fabric.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedPath;

impl RemotePath for FixedPath {
    fn netram_fetch(
        &mut self,
        _host: u32,
        sequential: bool,
        bytes: u64,
        cost: RemoteAccessCost,
    ) -> SimDuration {
        if sequential {
            cost.pipelined(bytes)
        } else {
            cost.access(bytes)
        }
    }
}

/// Identifies a virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId(pub u64);

/// How an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Resident: no fault.
    Hit,
    /// First touch: zero-fill, no I/O.
    SoftFault,
    /// Fetched from another workstation's DRAM.
    NetRamFault,
    /// Fetched from the swap disk.
    DiskFault,
}

/// Counters and accumulated stall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PagerStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses satisfied from local frames.
    pub hits: u64,
    /// Zero-fill first touches.
    pub soft_faults: u64,
    /// Pages fetched from network RAM.
    pub netram_faults: u64,
    /// Pages fetched from disk.
    pub disk_faults: u64,
    /// Dirty victims queued for (asynchronous) write-back.
    pub writebacks: u64,
    /// Remote pages relocated to disk because their host left the pool.
    pub host_evicted_pages: u64,
    /// Remote pages destroyed outright because their host *crashed*
    /// (no warning, no relocation); their contents must be regenerated.
    pub host_lost_pages: u64,
    /// Total processor stall charged to paging.
    pub stall: SimDuration,
}

/// Where evicted pages go and faults are served from.
#[derive(Debug, Clone)]
enum Backing {
    /// Classic swap disk.
    Disk(DiskModel),
    /// Network RAM pool, spilling to disk when the pool is full.
    NetRam {
        pool: NetworkRam,
        overflow: DiskModel,
    },
}

/// The frame slot of a page that is not resident.
const NO_FRAME: u32 = u32::MAX;

/// One page's state.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    /// The page's slot in the frame LRU, or [`NO_FRAME`].
    frame: u32,
    /// Touched at least once (exists somewhere).
    materialised: bool,
}

/// Every page's state in one table indexed by page number. It is also
/// the frame LRU's key index, so an access costs array reads, not hash
/// probes.
#[derive(Debug, Clone)]
struct PageTable {
    entries: Vec<PageEntry>,
    /// Pages with a frame.
    resident: usize,
}

impl PageTable {
    fn new(pages: u64) -> Self {
        let pages = usize::try_from(pages).expect("page count fits in memory");
        let unused = PageEntry {
            frame: NO_FRAME,
            materialised: false,
        };
        PageTable {
            entries: vec![unused; pages],
            resident: 0,
        }
    }

    /// Number of pages in the table.
    fn pages(&self) -> u64 {
        self.entries.len() as u64
    }

    fn entry(&mut self, page: PageId) -> &mut PageEntry {
        &mut self.entries[page.0 as usize]
    }
}

impl LruIndex<PageId> for PageTable {
    #[inline]
    fn get(&self, page: &PageId) -> Option<u32> {
        let frame = self.entries[page.0 as usize].frame;
        (frame != NO_FRAME).then_some(frame)
    }

    #[inline]
    fn insert(&mut self, page: PageId, slot: u32) {
        self.entry(page).frame = slot;
        self.resident += 1;
    }

    #[inline]
    fn remove(&mut self, page: &PageId) -> Option<u32> {
        let frame = std::mem::replace(&mut self.entry(*page).frame, NO_FRAME);
        (frame != NO_FRAME).then(|| {
            self.resident -= 1;
            frame
        })
    }

    #[inline]
    fn len(&self) -> usize {
        self.resident
    }
}

/// A demand pager for one process's address space: pages `0..pages` for
/// the page count it is built with.
///
/// Drive it with [`Pager::access`], passing the computation time since the
/// previous access so sequential prefetch can overlap fetches with work.
#[derive(Debug, Clone)]
pub struct Pager {
    /// Resident pages in recency order, indexed by the page table, which
    /// also holds whether each page exists. A page that exists, is not
    /// resident and is not in the network-RAM pool is on disk.
    frames: LruCache<PageId, PageTable>,
    backing: Backing,
    page_bytes: u64,
    last_access: Option<PageId>,
    stats: PagerStats,
    probe: Probe,
    /// Simulated now, if a driving component supplies it; lets fault
    /// service time land in per-device utilization ledgers.
    clock: Option<SimTime>,
}

impl Pager {
    /// A pager with `frames` local page frames backed by a swap disk, for
    /// an address space of `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `frames` or `page_bytes` is zero.
    pub fn with_disk(frames: usize, pages: u64, page_bytes: u64, disk: DiskModel) -> Self {
        Pager::new(frames, pages, page_bytes, Backing::Disk(disk))
    }

    /// A pager backed by network RAM, spilling to `overflow` when the pool
    /// fills, for the address space `pool` serves.
    ///
    /// # Panics
    ///
    /// Panics if `frames` or `page_bytes` is zero.
    pub fn with_netram(
        frames: usize,
        page_bytes: u64,
        pool: NetworkRam,
        overflow: DiskModel,
    ) -> Self {
        let pages = pool.pages();
        Pager::new(
            frames,
            pages,
            page_bytes,
            Backing::NetRam { pool, overflow },
        )
    }

    fn new(frames: usize, pages: u64, page_bytes: u64, backing: Backing) -> Self {
        assert!(page_bytes > 0, "pages must have a size");
        Pager {
            frames: LruCache::with_index(frames, PageTable::new(pages)),
            backing,
            page_bytes,
            last_access: None,
            stats: PagerStats::default(),
            probe: Probe::disabled(),
            clock: None,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Attaches a telemetry probe. Counters mirror [`PagerStats`] under
    /// `pager.*` names; the `pager.soft.ns` / `pager.netram.ns` /
    /// `pager.disk.ns` histograms break fault *service* time down by where
    /// the page came from (before any overlap with computation), matching
    /// the paper's Table 2 decomposition.
    pub fn set_probe(&mut self, probe: Probe) {
        if let Backing::NetRam { pool, .. } = &mut self.backing {
            pool.set_probe(probe.clone());
        }
        self.probe = probe;
    }

    /// Tells the pager the current simulated time. A component driving
    /// the pager from an engine calls this before each access so that
    /// fault service intervals feed the `mem.disk.swap` /
    /// `mem.netram.pool` utilization ledgers; standalone use (no clock)
    /// skips ledger recording but prices faults identically.
    pub fn set_clock(&mut self, now: SimTime) {
        self.clock = Some(now);
    }

    /// An idle host donating memory departed (its user returned): the
    /// pages it held are relocated to disk, as GLUnix saves recruited
    /// memory before handing a machine back. The relocation is
    /// asynchronous (the paper: 64 MB moves in under 4 s over the parallel
    /// file system), so no stall is charged to this process; subsequent
    /// faults on those pages pay disk prices instead of network-RAM
    /// prices.
    ///
    /// No-op for a disk-backed pager.
    pub fn handle_host_eviction(&mut self, host: u32) {
        if let Backing::NetRam { pool, .. } = &mut self.backing {
            let lost = pool.evict_host(host);
            self.stats.host_evicted_pages += lost.len() as u64;
        }
    }

    /// An idle host donating memory *crashed*: unlike the graceful
    /// departure of [`handle_host_eviction`](Self::handle_host_eviction),
    /// there is no time to relocate anything — pages whose only copy
    /// lived in the dead host's DRAM are destroyed and their next touch
    /// is a zero-fill (the application regenerates the data). In
    /// mirrored mode ([`set_netram_mirrored`](Self::set_netram_mirrored))
    /// the pool promotes surviving copies and nothing is lost. Counts
    /// `pager.host_lost_pages` on the probe.
    ///
    /// No-op for a disk-backed pager.
    pub fn handle_host_crash(&mut self, host: u32) {
        if let Backing::NetRam { pool, .. } = &mut self.backing {
            let lost = pool.evict_host(host);
            self.stats.host_lost_pages += lost.len() as u64;
            self.probe.count("pager.host_lost_pages", lost.len() as u64);
            let table = self.frames.index_mut();
            for page in lost {
                table.entry(page).materialised = false;
            }
        }
    }

    /// A crashed (or departed) host finished rebooting: its frames rejoin
    /// the pool, empty. No-op for a disk-backed pager.
    pub fn handle_host_rejoin(&mut self, host: u32) {
        if let Backing::NetRam { pool, .. } = &mut self.backing {
            pool.rejoin_host(host);
        }
    }

    /// Switches the network-RAM pool to mirrored mode (two copies of
    /// every page on distinct hosts — crash-survivable at half capacity).
    /// Must be called before any page is stored. No-op for a disk-backed
    /// pager.
    pub fn set_netram_mirrored(&mut self, on: bool) {
        if let Backing::NetRam { pool, .. } = &mut self.backing {
            pool.set_mirrored(on);
        }
    }

    /// Number of hosts in the network-RAM pool; `None` for a disk-backed
    /// pager.
    pub(crate) fn netram_hosts(&self) -> Option<u32> {
        match &self.backing {
            Backing::NetRam { pool, .. } => Some(pool.hosts()),
            Backing::Disk(_) => None,
        }
    }

    /// Number of local frames.
    pub fn frames(&self) -> usize {
        self.frames.capacity()
    }

    /// Accesses `page`, charging any fault stall. `compute_since_last` is
    /// how much computation the process performed since its previous memory
    /// access; sequential fetches overlap with it.
    ///
    /// Returns the fault classification and the stall charged.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the address space the pager was built
    /// for.
    pub fn access(
        &mut self,
        page: PageId,
        write: bool,
        compute_since_last: SimDuration,
    ) -> (FaultKind, SimDuration) {
        let (kind, stall, _) = self.access_via(page, write, compute_since_last, &mut FixedPath);
        (kind, stall)
    }

    /// [`Pager::access`] with an explicit [`RemotePath`] pricing
    /// network-RAM fetches. `access` is exactly `access_via` with
    /// [`FixedPath`].
    ///
    /// Returns the fault classification, the stall charged, and the
    /// fault's service time before any overlap with computation (zero on
    /// a hit).
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the address space the pager was built
    /// for.
    pub fn access_via(
        &mut self,
        page: PageId,
        write: bool,
        compute_since_last: SimDuration,
        path: &mut dyn RemotePath,
    ) -> (FaultKind, SimDuration, SimDuration) {
        assert!(page.0 < self.frames.index().pages(), "page out of range");
        self.stats.accesses += 1;
        self.probe.count("pager.accesses", 1);
        let sequential = self
            .last_access
            .is_some_and(|last| page.0 == last.0.wrapping_add(1));
        self.last_access = Some(page);

        let touch = self.frames.touch(page, write);
        // Handle the eviction a miss may have caused.
        if let Touch::MissEvicted { victim, dirty } = touch {
            self.evict(victim, dirty);
        }
        if matches!(touch, Touch::Hit) {
            self.stats.hits += 1;
            self.probe.count("pager.hits", 1);
            return (FaultKind::Hit, SimDuration::ZERO, SimDuration::ZERO);
        }

        // Miss: classify and charge.
        let (kind, service) = self.fetch(page, sequential, path);
        if self.probe.is_enabled() {
            let (counter, histogram) = match kind {
                FaultKind::Hit => unreachable!("a miss was classified"),
                FaultKind::SoftFault => ("pager.soft_faults", "pager.soft.ns"),
                FaultKind::NetRamFault => ("pager.netram_faults", "pager.netram.ns"),
                FaultKind::DiskFault => ("pager.disk_faults", "pager.disk.ns"),
            };
            self.probe.count(counter, 1);
            self.probe.record(histogram, service);
            // With a clock the service time also lands in the backing
            // device's utilization ledger.
            if let Some(now) = self.clock {
                let device = match kind {
                    FaultKind::DiskFault => Some("mem.disk.swap"),
                    FaultKind::NetRamFault => Some("mem.netram.pool"),
                    _ => None,
                };
                if let Some(device) = device {
                    self.probe.busy(device, now, now + service);
                }
            }
        }
        let stall = match kind {
            FaultKind::SoftFault => service,
            // Sequential faults overlap the pipeline with computation.
            _ if sequential => service.saturating_sub(compute_since_last),
            _ => service,
        };
        self.stats.stall += stall;
        (kind, stall, service)
    }

    fn evict(&mut self, victim: PageId, dirty: bool) {
        if dirty {
            self.stats.writebacks += 1;
            self.probe.count("pager.writebacks", 1);
        }
        // All victims land in swap (write-back is asynchronous), unless
        // some idle host's DRAM holds them.
        if let Backing::NetRam { pool, .. } = &mut self.backing {
            pool.store(victim);
        }
    }

    fn fetch(
        &mut self,
        page: PageId,
        sequential: bool,
        path: &mut dyn RemotePath,
    ) -> (FaultKind, SimDuration) {
        let entry = self.frames.index_mut().entry(page);
        if !entry.materialised {
            // Zero-fill: a trap and a page clear.
            entry.materialised = true;
            self.stats.soft_faults += 1;
            return (FaultKind::SoftFault, SimDuration::from_micros(50));
        }
        match &mut self.backing {
            Backing::Disk(disk) => {
                self.stats.disk_faults += 1;
                let cost = if sequential {
                    disk.sequential_per_block(self.page_bytes, SWAP_CLUSTER)
                } else {
                    disk.random_access(self.page_bytes)
                };
                (FaultKind::DiskFault, cost)
            }
            Backing::NetRam { pool, overflow } => {
                if let Some(host) = pool.take(page) {
                    self.stats.netram_faults += 1;
                    let cost = path.netram_fetch(host, sequential, self.page_bytes, pool.cost());
                    (FaultKind::NetRamFault, cost)
                } else {
                    // Spilled to disk earlier.
                    self.stats.disk_faults += 1;
                    let cost = if sequential {
                        overflow.sequential_per_block(self.page_bytes, SWAP_CLUSTER)
                    } else {
                        overflow.random_access(self.page_bytes)
                    };
                    (FaultKind::DiskFault, cost)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RemoteAccessCost;

    /// Pages in the address space of the tests' pagers.
    const PAGES: u64 = 64;

    fn disk_pager(frames: usize) -> Pager {
        Pager::with_disk(frames, PAGES, 8_192, DiskModel::workstation_1994())
    }

    fn netram_pager(frames: usize, pool_pages: u64) -> Pager {
        Pager::with_netram(
            frames,
            8_192,
            NetworkRam::new(
                4,
                pool_pages / 4,
                PAGES,
                RemoteAccessCost::table2_atm(),
                8_192,
            ),
            DiskModel::workstation_1994(),
        )
    }

    #[test]
    fn first_touch_is_soft() {
        let mut p = disk_pager(4);
        let (kind, stall) = p.access(PageId(0), true, SimDuration::ZERO);
        assert_eq!(kind, FaultKind::SoftFault);
        assert!(stall < SimDuration::from_micros(100));
        assert_eq!(p.stats().soft_faults, 1);
    }

    #[test]
    fn resident_pages_hit_for_free() {
        let mut p = disk_pager(4);
        p.access(PageId(0), false, SimDuration::ZERO);
        let (kind, stall) = p.access(PageId(0), false, SimDuration::ZERO);
        assert_eq!(kind, FaultKind::Hit);
        assert_eq!(stall, SimDuration::ZERO);
    }

    #[test]
    fn working_set_within_frames_never_faults_again() {
        let mut p = disk_pager(8);
        for round in 0..5 {
            for i in 0..8 {
                let (kind, _) = p.access(PageId(i), true, SimDuration::ZERO);
                if round > 0 {
                    assert_eq!(kind, FaultKind::Hit);
                }
            }
        }
        assert_eq!(p.stats().disk_faults, 0);
    }

    #[test]
    fn overflow_to_disk_costs_disk_time() {
        let mut p = disk_pager(2);
        // Touch 0,1,2: evicts 0. Touch 0 again: disk fault.
        for i in 0..3 {
            p.access(PageId(i), true, SimDuration::ZERO);
        }
        let (kind, stall) = p.access(PageId(0), false, SimDuration::ZERO);
        assert_eq!(kind, FaultKind::DiskFault);
        // Random access: the full 14.8 ms.
        assert!((14.0..16.0).contains(&stall.as_millis_f64()), "{stall}");
    }

    #[test]
    fn netram_fault_is_an_order_of_magnitude_cheaper_than_disk() {
        let mut pn = netram_pager(2, 64);
        let mut pd = disk_pager(2);
        for p in [&mut pn, &mut pd] {
            for i in 0..3 {
                p.access(PageId(i), true, SimDuration::ZERO);
            }
        }
        let (kn, sn) = pn.access(PageId(0), false, SimDuration::ZERO);
        let (kd, sd) = pd.access(PageId(0), false, SimDuration::ZERO);
        assert_eq!(kn, FaultKind::NetRamFault);
        assert_eq!(kd, FaultKind::DiskFault);
        assert!(
            sd.as_micros_f64() / sn.as_micros_f64() > 10.0,
            "disk {sd} vs netram {sn}"
        );
    }

    #[test]
    fn sequential_faults_overlap_computation() {
        let mut p = netram_pager(2, 64);
        // Materialise and evict pages 0..6.
        for i in 0..6 {
            p.access(PageId(i), true, SimDuration::ZERO);
        }
        // Re-scan sequentially with plenty of compute between accesses:
        // pipelined wire time (≈400 µs) is fully hidden.
        let compute = SimDuration::from_micros(500);
        // First access of the scan is non-sequential (5 -> 0).
        p.access(PageId(0), false, compute);
        let (kind, stall) = p.access(PageId(1), false, compute);
        assert_eq!(kind, FaultKind::NetRamFault);
        assert_eq!(stall, SimDuration::ZERO, "prefetch hides the wire");
        // With little compute, the residual wire time stalls.
        let (_, stall2) = p.access(PageId(2), false, SimDuration::from_micros(100));
        assert!(stall2 > SimDuration::ZERO);
        assert!(stall2 < SimDuration::from_micros(400));
    }

    #[test]
    fn random_faults_pay_full_cost() {
        let mut p = netram_pager(2, 64);
        for i in 0..8 {
            p.access(PageId(i), true, SimDuration::ZERO);
        }
        // Random revisit: full Table 2 cost even with compute to spare.
        let (kind, stall) = p.access(PageId(3), false, SimDuration::from_secs(1));
        assert_eq!(kind, FaultKind::NetRamFault);
        assert!(
            (1_000.0..1_110.0).contains(&stall.as_micros_f64()),
            "{stall}"
        );
    }

    #[test]
    fn netram_pool_overflow_spills_to_disk() {
        // Pool of 4 pages total; frames 2; touch many pages.
        let mut p = netram_pager(2, 4);
        for i in 0..12 {
            p.access(PageId(i), true, SimDuration::ZERO);
        }
        // Victims 0..3 filled the pool; later victims spilled to disk.
        let (kind, _) = p.access(PageId(5), false, SimDuration::ZERO);
        assert_eq!(kind, FaultKind::DiskFault);
        let (kind0, _) = p.access(PageId(0), false, SimDuration::ZERO);
        assert_eq!(kind0, FaultKind::NetRamFault);
        assert!(p.stats().disk_faults >= 1);
    }

    #[test]
    fn dirty_victims_are_counted_for_writeback() {
        let mut p = disk_pager(1);
        p.access(PageId(0), true, SimDuration::ZERO);
        p.access(PageId(1), false, SimDuration::ZERO); // evicts dirty 0
        assert_eq!(p.stats().writebacks, 1);
        p.access(PageId(2), false, SimDuration::ZERO); // evicts clean 1
        assert_eq!(p.stats().writebacks, 1);
    }

    #[test]
    fn host_eviction_relocates_pages_to_disk() {
        // Frames 2, pool 4 hosts x 16 pages; fill pages 0..10 so victims
        // land in the pool round-robin.
        let mut p = Pager::with_netram(
            2,
            8_192,
            NetworkRam::new(4, 16, PAGES, RemoteAccessCost::table2_atm(), 8_192),
            DiskModel::workstation_1994(),
        );
        for i in 0..10 {
            p.access(PageId(i), true, SimDuration::ZERO);
        }
        // Host 0 departs: its pages move to disk without stalling us.
        let stall_before = p.stats().stall;
        p.handle_host_eviction(0);
        assert!(p.stats().host_evicted_pages > 0);
        assert_eq!(p.stats().stall, stall_before, "relocation is asynchronous");
        // Every previously evicted page is still readable; the relocated
        // ones now pay disk prices, the rest stay on network RAM.
        let mut disk = 0;
        let mut netram = 0;
        for i in 0..8 {
            match p.access(PageId(i), false, SimDuration::ZERO).0 {
                FaultKind::DiskFault => disk += 1,
                FaultKind::NetRamFault => netram += 1,
                FaultKind::Hit => {}
                k => panic!("unexpected {k:?} for page {i}"),
            }
        }
        assert!(disk > 0, "relocated pages must come from disk");
        assert!(netram > 0, "surviving hosts still serve theirs");
    }

    #[test]
    fn host_crash_destroys_pages_until_regenerated() {
        let mut p = Pager::with_netram(
            2,
            8_192,
            NetworkRam::new(4, 16, PAGES, RemoteAccessCost::table2_atm(), 8_192),
            DiskModel::workstation_1994(),
        );
        for i in 0..10 {
            p.access(PageId(i), true, SimDuration::ZERO);
        }
        p.handle_host_crash(0);
        let lost = p.stats().host_lost_pages;
        assert!(lost > 0);
        // Re-touching every evicted page: the dead host's pages are soft
        // faults (regenerated), the others still stream from network RAM.
        let mut soft = 0;
        let mut netram = 0;
        for i in 0..8 {
            match p.access(PageId(i), false, SimDuration::ZERO).0 {
                FaultKind::SoftFault => soft += 1,
                FaultKind::NetRamFault => netram += 1,
                FaultKind::Hit => {}
                k => panic!("unexpected {k:?} for page {i}"),
            }
        }
        assert_eq!(soft as u64, lost, "every lost page zero-fills");
        assert!(netram > 0, "surviving hosts still serve theirs");
    }

    #[test]
    fn mirrored_pool_survives_host_crash_without_losing_pages() {
        let mut p = Pager::with_netram(
            2,
            8_192,
            NetworkRam::new(4, 16, PAGES, RemoteAccessCost::table2_atm(), 8_192),
            DiskModel::workstation_1994(),
        );
        p.set_netram_mirrored(true);
        for i in 0..10 {
            p.access(PageId(i), true, SimDuration::ZERO);
        }
        p.handle_host_crash(0);
        assert_eq!(p.stats().host_lost_pages, 0, "mirrors cover the crash");
        for i in 0..8 {
            let (kind, _) = p.access(PageId(i), false, SimDuration::ZERO);
            assert!(
                matches!(kind, FaultKind::NetRamFault | FaultKind::Hit),
                "page {i} got {kind:?}"
            );
        }
    }

    #[test]
    fn rejoined_host_serves_new_pages() {
        let mut p = Pager::with_netram(
            2,
            8_192,
            NetworkRam::new(2, 4, PAGES, RemoteAccessCost::table2_atm(), 8_192),
            DiskModel::workstation_1994(),
        );
        for i in 0..6 {
            p.access(PageId(i), true, SimDuration::ZERO);
        }
        p.handle_host_crash(0);
        p.handle_host_rejoin(0);
        // New evictions can use host 0's frames again: touch fresh pages
        // and verify some land in the pool rather than spilling to disk.
        for i in 10..16 {
            p.access(PageId(i), true, SimDuration::ZERO);
        }
        let disk_before = p.stats().disk_faults;
        for i in 10..14 {
            p.access(PageId(i), false, SimDuration::ZERO);
        }
        assert!(
            p.stats().netram_faults > 0 && p.stats().disk_faults == disk_before,
            "rejoined capacity keeps the working set in network RAM: {:?}",
            p.stats()
        );
    }

    #[test]
    fn host_eviction_is_noop_for_disk_pager() {
        let mut p = disk_pager(2);
        for i in 0..5 {
            p.access(PageId(i), true, SimDuration::ZERO);
        }
        p.handle_host_eviction(0);
        assert_eq!(p.stats().host_evicted_pages, 0);
    }

    #[test]
    fn clocked_faults_feed_device_utilization_ledgers() {
        let registry = now_probe::Registry::new();
        let mut p = netram_pager(2, 4);
        p.set_probe(registry.probe());
        // Advance a fake clock by each stall so intervals stay ordered;
        // pages 0..12 overflow both frames and the 4-page pool, so both
        // disk and network-RAM faults occur on the rescan.
        let mut now = SimTime::ZERO;
        for i in 0..12 {
            p.set_clock(now);
            let (_, stall) = p.access(PageId(i), true, SimDuration::ZERO);
            now += stall + SimDuration::from_micros(10);
        }
        for i in 0..12 {
            p.set_clock(now);
            let (_, stall) = p.access(PageId(i), false, SimDuration::ZERO);
            now += stall + SimDuration::from_micros(10);
        }
        let s = p.stats();
        assert!(s.disk_faults > 0 && s.netram_faults > 0, "{s:?}");
        let snap = registry.snapshot();
        for name in ["mem.disk.swap", "mem.netram.pool"] {
            let util = snap.util(name).unwrap_or_else(|| panic!("{name} ledger"));
            assert!(util.busy_ns > 0, "{name} saw no busy time");
            assert_eq!(util.busy_ns + util.idle_ns(), util.wall_ns, "{name}");
            assert_eq!(util.clipped_ns, 0, "{name} intervals are ordered");
        }
    }

    #[test]
    fn unclocked_pager_prices_faults_identically_without_ledgers() {
        let registry = now_probe::Registry::new();
        let mut clocked = netram_pager(2, 4);
        let mut plain = netram_pager(2, 4);
        clocked.set_probe(registry.probe());
        let mut now = SimTime::ZERO;
        for i in [0, 1, 2, 3, 0, 2, 1, 3, 4, 0] {
            clocked.set_clock(now);
            let (k1, s1) = clocked.access(PageId(i), true, SimDuration::ZERO);
            let (k2, s2) = plain.access(PageId(i), true, SimDuration::ZERO);
            assert_eq!((k1, s1), (k2, s2), "page {i}");
            now += s1 + SimDuration::from_micros(5);
        }
        assert_eq!(clocked.stats(), plain.stats());
    }

    /// Replays `steps` seeded random steps through `pager` over pages
    /// `0..pages`: mostly accesses (reads and writes, sequential runs and
    /// jumps, three compute gaps), with pool hosts departing, crashing and
    /// rejoining in between. Returns an FNV-1a digest of every access's
    /// `(FaultKind, stall)`.
    fn replay(pager: &mut Pager, seed: u64, pages: u64, hosts: u32, steps: usize) -> u64 {
        let mut rng = now_sim::SimRng::new(seed);
        let mut down = vec![false; hosts as usize];
        let mut page = 0;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..steps {
            let roll = rng.gen_range(0..100);
            if roll < 3 {
                let host = rng.index(hosts as usize);
                if down[host] {
                    pager.handle_host_rejoin(host as u32);
                } else if roll < 2 {
                    pager.handle_host_eviction(host as u32);
                } else {
                    pager.handle_host_crash(host as u32);
                }
                down[host] = !down[host];
                continue;
            }
            page = if roll < 60 {
                (page + 1) % pages
            } else {
                rng.gen_range(0..pages)
            };
            let write = rng.chance(0.3);
            let compute = SimDuration::from_micros([0, 100, 500][rng.index(3)]);
            let (kind, stall) = pager.access(PageId(page), write, compute);
            for x in [kind as u64, stall.as_nanos()] {
                digest = (digest ^ x).wrapping_mul(0x0100_0000_01b3);
            }
        }
        digest
    }

    #[test]
    fn fault_sequences_are_pinned() {
        // 96 pages through 16 frames; the pool holds 48 pages (24 when
        // mirrored), so victims land in frames, the pool and on disk.
        // Captured from the hash-set pager before the page table.
        let (pages, hosts, steps) = (96, 4, 3_000);
        let pool = || NetworkRam::new(hosts, 12, pages, RemoteAccessCost::table2_atm(), 8_192);
        let disk = || DiskModel::workstation_1994();
        let mut mirrored = Pager::with_netram(16, 8_192, pool(), disk());
        mirrored.set_netram_mirrored(true);
        let pagers = [
            Pager::with_disk(16, pages, 8_192, disk()),
            Pager::with_netram(16, 8_192, pool(), disk()),
            mirrored,
        ];
        let stats = |counts: [u64; 8], stall_ns| PagerStats {
            accesses: counts[0],
            hits: counts[1],
            soft_faults: counts[2],
            netram_faults: counts[3],
            disk_faults: counts[4],
            writebacks: counts[5],
            host_evicted_pages: counts[6],
            host_lost_pages: counts[7],
            stall: SimDuration::from_nanos(stall_ns),
        };
        let want = [
            (
                0xe66b_4ddd_15b7_9ce6,
                stats([2_913, 432, 96, 0, 2_385, 804, 0, 0], 18_063_547_080),
            ),
            (
                0x35dd_969d_0847_1ae8,
                stats([2_907, 403, 260, 675, 1_569, 822, 351, 172], 12_409_024_836),
            ),
            (
                0x6a2b_7d62_b9dc_7d92,
                stats([2_907, 409, 119, 447, 1_932, 868, 98, 23], 14_865_130_700),
            ),
        ];
        for (i, (mut pager, want)) in pagers.into_iter().zip(want).enumerate() {
            let digest = replay(&mut pager, 7 + i as u64, pages, hosts, steps);
            assert_eq!((digest, pager.stats()), want, "pager {i}");
        }
    }

    #[test]
    fn stats_account_every_access() {
        let mut p = netram_pager(4, 64);
        for i in 0..20 {
            p.access(PageId(i % 7), i % 3 == 0, SimDuration::from_micros(10));
        }
        let s = p.stats();
        assert_eq!(s.accesses, 20);
        assert_eq!(s.hits + s.soft_faults + s.netram_faults + s.disk_faults, 20);
    }
}
