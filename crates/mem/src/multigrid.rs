//! The multigrid application model behind Figure 2.
//!
//! Figure 2 plots estimated execution time of an iterative multigrid solver
//! as the problem grows, on three machines: 32 MB of DRAM plus disk
//! paging, 128 MB of DRAM, and 32 MB plus paging to other machines' DRAM.
//! The qualitative claims:
//!
//! * while the problem fits in local DRAM all three are identical;
//! * past local DRAM, network RAM runs **10–30 percent slower** than a
//!   machine with enough DRAM;
//! * thrashing to disk is **5–10× slower** than network RAM.
//!
//! The model runs a fixed number of smoothing iterations over the problem's
//! pages through a real [`Pager`], so the curves come from LRU behaviour
//! and the Table 2 cost constants, not from asserting the conclusion.

use now_probe::causal::category;
use now_probe::{Gauge, Probe};
use now_sim::parallel::run_indexed;
use now_sim::{Component, Ctx, Engine, EventCast, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::pager::{FixedPath, RemotePath};
use crate::{DiskModel, FaultKind, NetworkRam, PageId, Pager, PagerStats, RemoteAccessCost};

/// Bytes per page (8 KB, as in Table 2).
pub const PAGE_BYTES: u64 = 8_192;

/// Application parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultigridConfig {
    /// Sustained scalar floating-point rate of the workstation, MFLOPS.
    pub mflops: f64,
    /// Floating-point operations per grid point per smoothing sweep.
    pub flops_per_point: f64,
    /// Smoothing sweeps (V-cycle work folded in) per run.
    pub sweeps: u32,
}

impl MultigridConfig {
    /// A 1994 high-end workstation: 40 MFLOPS sustained, 12 flops per
    /// point per sweep, 5 sweeps.
    pub fn paper_defaults() -> Self {
        MultigridConfig {
            mflops: 40.0,
            flops_per_point: 12.0,
            sweeps: 5,
        }
    }

    /// Pure computation time per page per sweep (1,024 doubles per 8-KB
    /// page).
    pub fn compute_per_page(&self) -> SimDuration {
        let points = PAGE_BYTES as f64 / 8.0;
        SimDuration::from_secs_f64(points * self.flops_per_point / (self.mflops * 1e6))
    }
}

/// The three memory configurations of Figure 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MemoryConfig {
    /// All problem pages fit (or not) in `mb` of local DRAM; overflow pages
    /// to the local disk.
    LocalWithDisk {
        /// Local DRAM, MB.
        mb: u64,
    },
    /// `mb` of local DRAM; overflow pages to idle machines' DRAM over the
    /// network, spilling to disk only if the pool fills.
    LocalWithNetRam {
        /// Local DRAM, MB.
        mb: u64,
        /// Idle machines donating memory.
        hosts: u32,
        /// Donated DRAM per idle machine, MB.
        mb_per_host: u64,
        /// Remote page access cost model.
        cost: RemoteAccessCost,
    },
}

impl MemoryConfig {
    /// Figure 2's "32 Mbytes of DRAM plus disk" machine.
    pub fn local32_disk() -> Self {
        MemoryConfig::LocalWithDisk { mb: 32 }
    }

    /// Figure 2's "128 Mbytes of DRAM" machine.
    pub fn local128() -> Self {
        MemoryConfig::LocalWithDisk { mb: 128 }
    }

    /// Figure 2's "32 Mbytes plus paging to DRAM on other machines"
    /// machine: sixteen idle hosts donating 16 MB each over ATM.
    pub fn local32_netram() -> Self {
        MemoryConfig::LocalWithNetRam {
            mb: 32,
            hosts: 16,
            mb_per_host: 16,
            cost: RemoteAccessCost::table2_atm(),
        }
    }

    /// Builds the demand pager this configuration describes (local frame
    /// pool backed by disk or network RAM) for an address space of `pages`
    /// pages — for callers composing their own engine, e.g. a coupled
    /// cluster scenario.
    pub fn build_pager(&self, pages: u64) -> Pager {
        let disk = DiskModel::workstation_1994();
        match *self {
            MemoryConfig::LocalWithDisk { mb } => Pager::with_disk(
                (mb * 1024 * 1024 / PAGE_BYTES) as usize,
                pages,
                PAGE_BYTES,
                disk,
            ),
            MemoryConfig::LocalWithNetRam {
                mb,
                hosts,
                mb_per_host,
                cost,
            } => Pager::with_netram(
                (mb * 1024 * 1024 / PAGE_BYTES) as usize,
                PAGE_BYTES,
                NetworkRam::new(
                    hosts,
                    mb_per_host * 1024 * 1024 / PAGE_BYTES,
                    pages,
                    cost,
                    PAGE_BYTES,
                ),
                disk,
            ),
        }
    }
}

/// Events driving a [`MultigridComponent`]: each `Step` performs one page
/// access and schedules the next; the host events deliver pool-membership
/// changes from a fault coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageEvent {
    /// Access the next page of the sweep.
    Step,
    /// A network-RAM host (by pool index) crashed: its pages are
    /// destroyed, or survive via mirrors in mirrored mode.
    HostCrashed(u32),
    /// A crashed host rebooted and donates empty frames again.
    HostRejoined(u32),
}

/// The multigrid solver as an engine [`Component`]: one page access per
/// event, self-chained at `compute + stall` spacing.
///
/// An unplaced component charges network-RAM fetches the Table 2
/// constants through [`FixedPath`] — the legacy arithmetic, bit-for-bit —
/// and needs no transport. A component placed on the fabric
/// ([`MultigridComponent::with_placement`]) streams each fetch from the
/// idle host's node over the engine's shared transport, so competing
/// traffic on the same wires shows up directly as paging stall.
pub struct MultigridComponent {
    pager: Pager,
    per_page: SimDuration,
    pages: u64,
    total_accesses: u64,
    idx: u64,
    compute: SimDuration,
    stall: SimDuration,
    /// Where the process and the pool hosts sit on the fabric; `None`
    /// prices every fetch at the Table 2 constants.
    placement: Option<Placement>,
    netram_service: SimDuration,
    netram_fetches: u64,
    fetch_gauge: Gauge,
}

/// A [`RemotePath`] that streams each fetched page over the engine's
/// shared fabric: sequential faults pipeline a one-way page transfer,
/// random faults pay a full request/response round trip.
struct EnginePath<'a, 'c, M> {
    ctx: &'a mut Ctx<'c, M>,
    node: u32,
    hosts: &'a [u32],
    /// Cost-breakdown accumulators over the fetches of one access, for
    /// causal blame attribution.
    overhead: SimDuration,
    wait: SimDuration,
    wire: SimDuration,
}

impl<M> RemotePath for EnginePath<'_, '_, M> {
    fn netram_fetch(
        &mut self,
        host: u32,
        sequential: bool,
        bytes: u64,
        _cost: RemoteAccessCost,
    ) -> SimDuration {
        let src = self.hosts[host as usize];
        let now = self.ctx.now();
        let cost = if sequential {
            // Streaming: the request pipeline is hidden, the page rides
            // one way on the wire.
            self.ctx.transfer(src, self.node, bytes, now)
        } else {
            // Cold fetch: small request out, the page back.
            self.ctx.rpc(self.node, src, 64, bytes)
        };
        self.overhead += cost.overhead;
        self.wait += cost.wait;
        self.wire += cost.wire;
        cost.delivered.saturating_since(now)
    }
}

/// Where a placed [`MultigridComponent`] and its network-RAM pool sit on
/// the fabric.
struct Placement {
    /// Fabric node this process runs on.
    node: u32,
    /// Fabric nodes of the idle hosts donating DRAM, indexed by pool host.
    host_nodes: Vec<u32>,
}

impl MultigridComponent {
    /// A component that will perform `total_accesses` accesses sweeping
    /// `pages` pages in order, with `per_page` computation between
    /// accesses.
    pub fn new(pager: Pager, per_page: SimDuration, pages: u64, total_accesses: u64) -> Self {
        assert!(pages > 0, "problem must have pages");
        MultigridComponent {
            pager,
            per_page,
            pages,
            total_accesses,
            idx: 0,
            compute: SimDuration::ZERO,
            stall: SimDuration::ZERO,
            placement: None,
            netram_service: SimDuration::ZERO,
            netram_fetches: 0,
            fetch_gauge: Gauge::default(),
        }
    }

    /// Attaches a telemetry probe publishing the `mem.netram_fetch_us`
    /// gauge (running mean fetch service time).
    pub fn set_probe(&mut self, probe: &Probe) {
        self.fetch_gauge = probe.gauge("mem.netram_fetch_us");
    }

    /// Places the process on fabric node `node` with network-RAM pool
    /// host `h` living on `host_nodes[h]`, so every fetch is priced over
    /// the engine's transport ([`now_sim::Engine::with_transport`])
    /// instead of at the Table 2 constants.
    ///
    /// # Panics
    ///
    /// Panics if the pager is backed by network RAM and `host_nodes` does
    /// not name exactly one node per pool host.
    #[must_use]
    pub fn with_placement(mut self, node: u32, host_nodes: Vec<u32>) -> Self {
        if let Some(hosts) = self.pager.netram_hosts() {
            assert_eq!(
                host_nodes.len(),
                hosts as usize,
                "the placement must name one fabric node per network-RAM pool host"
            );
        }
        self.placement = Some(Placement { node, host_nodes });
        self
    }

    /// The run outcome accumulated so far (complete once the engine
    /// drains).
    pub fn result(&self) -> RunResult {
        RunResult {
            compute: self.compute,
            stall: self.stall,
            total: self.compute + self.stall,
            pager: self.pager.stats(),
        }
    }

    /// Mean service time of a network-RAM page fetch, in microseconds
    /// (`None` before the first fetch). Placed on the fabric, this is the
    /// observed door-to-door fabric latency — the contention metric.
    pub fn mean_netram_fetch_us(&self) -> Option<f64> {
        (self.netram_fetches > 0)
            .then(|| self.netram_service.as_micros_f64() / self.netram_fetches as f64)
    }
}

impl<M: EventCast<PageEvent> + 'static> Component<M> for MultigridComponent {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        match event.downcast() {
            PageEvent::Step => {}
            PageEvent::HostCrashed(host) => {
                self.pager.handle_host_crash(host);
                return;
            }
            PageEvent::HostRejoined(host) => {
                self.pager.handle_host_rejoin(host);
                return;
            }
        }
        if self.idx >= self.total_accesses {
            return;
        }
        let page = PageId(self.idx % self.pages);
        // Faults serviced by this access start now; the pager uses the
        // clock to fill the backing-device utilization ledgers.
        self.pager.set_clock(ctx.now());
        let mut fabric = (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO);
        let (kind, stall, service) = match &self.placement {
            None => self
                .pager
                .access_via(page, true, self.per_page, &mut FixedPath),
            Some(place) => {
                let mut path = EnginePath {
                    ctx,
                    node: place.node,
                    hosts: &place.host_nodes,
                    overhead: SimDuration::ZERO,
                    wait: SimDuration::ZERO,
                    wire: SimDuration::ZERO,
                };
                let out = self.pager.access_via(page, true, self.per_page, &mut path);
                fabric = (path.overhead, path.wait, path.wire);
                out
            }
        };
        // An access fetches from the pool at most once: on a network-RAM
        // fault, whose raw (pre-overlap) service time feeds the latency
        // metric without touching the stall rule.
        if kind == FaultKind::NetRamFault {
            self.netram_service += service;
            self.netram_fetches += 1;
        }
        self.idx += 1;
        self.compute += self.per_page;
        self.stall += stall;
        if let Some(us) = self.mean_netram_fetch_us() {
            self.fetch_gauge.set(us);
        }
        // Attribute the edge to the next access: compute, then the fabric
        // terms of this access's fetches, then whatever paging stall the
        // fetches don't explain (pager bookkeeping, disk, overlap residue).
        let (overhead, wait, wire) = fabric;
        ctx.blame(category::COMPUTE, self.per_page);
        ctx.blame(category::AM_OVERHEAD, overhead);
        ctx.blame(category::FABRIC_WAIT, wait);
        ctx.blame(category::WIRE, wire);
        ctx.blame(
            category::PAGING,
            stall.saturating_sub(overhead + wait + wire),
        );
        if self.idx < self.total_accesses {
            ctx.schedule_after(self.per_page + stall, M::upcast(PageEvent::Step));
        } else {
            ctx.mark("paging.complete", ctx.now() + self.per_page + stall);
        }
    }
}

/// Result of one multigrid run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Pure computation time.
    pub compute: SimDuration,
    /// Processor stall charged to paging.
    pub stall: SimDuration,
    /// Total execution time.
    pub total: SimDuration,
    /// Pager counters.
    pub pager: PagerStats,
}

impl RunResult {
    /// Slowdown relative to another run.
    pub fn slowdown_vs(&self, other: &RunResult) -> f64 {
        self.total.as_secs_f64() / other.total.as_secs_f64()
    }
}

/// Runs a `problem_mb`-MB multigrid problem under `memory` with the paper's
/// application parameters.
///
/// # Panics
///
/// Panics if the problem is empty.
pub fn run(problem_mb: u64, memory: MemoryConfig) -> RunResult {
    run_probed(problem_mb, memory, &Probe::disabled())
}

/// [`run`] with telemetry: the pager's `pager.*` / `netram.*` probes fire,
/// and the whole run is recorded as a `mem/multigrid` span of simulated
/// time (with the problem size as an argument).
///
/// # Panics
///
/// Panics if the problem is empty.
pub fn run_probed(problem_mb: u64, memory: MemoryConfig, probe: &Probe) -> RunResult {
    assert!(problem_mb > 0, "problem must have pages");
    let app = MultigridConfig::paper_defaults();
    let pages = problem_mb * 1024 * 1024 / PAGE_BYTES;
    let mut pager = memory.build_pager(pages);
    pager.set_probe(probe.clone());
    // A smoothing sweep reads and writes each page in order; the engine
    // (in fixed-cost mode) drives the same access sequence the hand-rolled
    // loop used to, so results are bit-identical.
    let mut engine = Engine::new();
    let solver = MultigridComponent::new(
        pager,
        app.compute_per_page(),
        pages,
        u64::from(app.sweeps) * pages,
    );
    let id = engine.register(solver);
    engine.schedule_at(id, SimTime::ZERO, PageEvent::Step);
    engine.run();
    let result = engine.component::<MultigridComponent>(id).result();
    if probe.is_enabled() {
        probe
            .span("mem", "multigrid", SimTime::ZERO)
            .arg("problem_mb", problem_mb as f64)
            .end(SimTime::ZERO + result.total);
    }
    result
}

/// The problem sizes (MB) Figure 2 sweeps.
pub fn figure2_sizes() -> Vec<u64> {
    vec![8, 16, 24, 32, 48, 64, 80, 96, 112, 120]
}

/// Generates the three Figure 2 curves as `(label, [(size_mb, seconds)])`
/// series in the order: 32 MB + disk, 128 MB, 32 MB + network RAM.
///
/// The curves are independent runs, fanned out over up to `jobs` worker
/// threads by [`run_indexed`] and returned in curve order. Curve `i` is
/// probed as node `i` of `probe`; the series are the same at any `jobs`.
pub fn figure2_series(probe: &Probe, jobs: usize) -> Vec<(&'static str, Vec<(f64, f64)>)> {
    let configs = [
        ("32 MB + disk paging", MemoryConfig::local32_disk()),
        ("128 MB local DRAM", MemoryConfig::local128()),
        ("32 MB + network RAM", MemoryConfig::local32_netram()),
    ];
    run_indexed(jobs, &configs, |node, (name, cfg)| {
        let probe = probe.for_node(node as u32);
        let points = figure2_sizes()
            .into_iter()
            .map(|mb| {
                let run = run_probed(mb, cfg.clone(), &probe);
                (mb as f64, run.total.as_secs_f64())
            })
            .collect();
        (*name, points)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configs_identical_when_problem_fits() {
        let small = 24; // < 32 MB
        let disk = run(small, MemoryConfig::local32_disk());
        let big = run(small, MemoryConfig::local128());
        let netram = run(small, MemoryConfig::local32_netram());
        assert_eq!(disk.total, big.total);
        assert_eq!(netram.total, big.total);
        assert_eq!(disk.pager.disk_faults, 0);
        assert_eq!(netram.pager.netram_faults, 0);
    }

    #[test]
    fn netram_is_10_to_30_percent_slower_than_big_dram() {
        // The paper: "programs run 10 to 30 percent slower using network
        // RAM than if the program fits entirely in local DRAM."
        for mb in [64, 96, 120] {
            let netram = run(mb, MemoryConfig::local32_netram());
            let big = run(mb, MemoryConfig::local128());
            let slowdown = netram.slowdown_vs(&big);
            assert!(
                (1.08..=1.35).contains(&slowdown),
                "{mb} MB: netram slowdown {slowdown}"
            );
        }
    }

    #[test]
    fn netram_is_5_to_10x_faster_than_disk_thrash() {
        // The paper: "using network RAM is 5 to 10 times faster than
        // thrashing to disk."
        for mb in [64, 96, 120] {
            let netram = run(mb, MemoryConfig::local32_netram());
            let disk = run(mb, MemoryConfig::local32_disk());
            let speedup = disk.slowdown_vs(&netram);
            assert!(
                (4.0..=11.0).contains(&speedup),
                "{mb} MB: netram speedup over disk {speedup}"
            );
        }
    }

    #[test]
    fn big_dram_machine_never_pages_up_to_its_capacity() {
        let r = run(120, MemoryConfig::local128());
        assert_eq!(r.pager.disk_faults, 0);
        assert_eq!(r.pager.netram_faults, 0);
        assert_eq!(r.stall.as_nanos(), r.pager.soft_faults * 50_000);
    }

    #[test]
    fn execution_time_grows_with_problem_size() {
        for cfg in [
            MemoryConfig::local32_disk(),
            MemoryConfig::local128(),
            MemoryConfig::local32_netram(),
        ] {
            let mut last = SimDuration::ZERO;
            for mb in [16, 48, 96] {
                let r = run(mb, cfg.clone());
                assert!(r.total > last, "{cfg:?} not monotone at {mb} MB");
                last = r.total;
            }
        }
    }

    #[test]
    fn thrashing_onset_is_at_local_capacity() {
        // At 32 MB the problem exactly fills the frames: no steady-state
        // faults. Just past it, faulting starts.
        let at = run(32, MemoryConfig::local32_disk());
        assert_eq!(at.pager.disk_faults, 0);
        let past = run(40, MemoryConfig::local32_disk());
        assert!(past.pager.disk_faults > 0);
    }

    #[test]
    fn figure2_series_has_three_labelled_curves() {
        // (Uses the same code path as the repro binary; small smoke check.)
        let series = figure2_series(&Probe::disabled(), 1);
        assert_eq!(series.len(), 3);
        for (name, points) in &series {
            assert!(!name.is_empty());
            assert_eq!(points.len(), figure2_sizes().len());
        }
        // Disk curve ends far above the netram curve.
        let disk_end = series[0].1.last().unwrap().1;
        let netram_end = series[2].1.last().unwrap().1;
        assert!(disk_end > 4.0 * netram_end);
    }

    #[test]
    #[should_panic(expected = "one fabric node per network-RAM pool host")]
    fn a_placement_must_name_every_pool_host() {
        // The paper's pool has sixteen hosts; name only fifteen.
        let pager = MemoryConfig::local32_netram().build_pager(16);
        let _ = MultigridComponent::new(pager, SimDuration::from_micros(1), 16, 16)
            .with_placement(0, (1..16).collect());
    }

    #[test]
    fn pager_sees_every_access() {
        let r = run(16, MemoryConfig::local128());
        let pages = 16 * 1024 * 1024 / PAGE_BYTES;
        assert_eq!(r.pager.accesses, pages * 5);
    }
}
