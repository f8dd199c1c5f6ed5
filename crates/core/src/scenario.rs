//! The coupled cluster scenario: one engine, one fabric, every subsystem.
//!
//! Before this module, each subsystem simulated its own world: the
//! multigrid solver paged to network RAM at constant Table 2 costs, the
//! cooperative file cache charged constant remote-memory costs, and
//! parallel jobs never shared wires with either. [`NowCluster::run_scenario`]
//! composes them: a BSP parallel job, an out-of-core paging process, the
//! cooperative-cache trace replay, and optional background traffic all
//! run as [`Component`]s on **one** [`Engine`] whose fabric
//! ([`Engine::with_transport`]) routes every remote byte through the same
//! live [`now_net::Network`]. Occupancy is real: when the
//! background flows saturate a link, netram page fetches queue behind them
//! and the job's barriers slip — the contention curve `now-bench` reports.
//!
//! Node allocation on an `n`-node cluster running `k = 8` job workers and
//! `h = 8` netram hosts: workers (and cache clients) on nodes `0..k`, the
//! paging process on node `k`, the netram hosts on `k+1..=k+h`, and the
//! file server on node `n-1`.

use std::collections::BTreeSet;

use now_am::BatchConfig;
use now_cache::{CacheComponent, CacheConfig, CacheEvent, Policy, SimResult};
use now_fault::{Fault, FaultInjectorComponent, FaultPlan, InjectorEvent};
use now_glunix::membership::MembershipConfig;
use now_mem::multigrid::{MemoryConfig, MultigridConfig, RunResult, PAGE_BYTES};
use now_mem::{MultigridComponent, PageEvent, RemoteAccessCost};
use now_probe::causal::category;
use now_probe::{Gauge, Probe};
use now_sim::{Component, ComponentId, Ctx, Engine, EventCast, SimDuration, SimTime, TransferCost};
use now_trace::fs::{FsTrace, FsTraceConfig};
use serde::{Deserialize, Serialize};

use crate::cluster::NowCluster;
use crate::control::{
    ClusterControl, ControlEvent, ControlWiring, FaultOutcome, FAULT_RESTART_DELAY,
};
use crate::harness::{
    self, fabric_transport, Accounting, RecorderEvent, Recording, ScenarioObservations,
    ScenarioObserver, Workload,
};

/// Spare workstations reserved as replacements for dead workers.
const SPARE_NODES: usize = 2;

/// BSP job workers, on nodes `0..JOB_WORKERS`.
const JOB_WORKERS: u32 = 8;
/// Per-round compute per worker.
const JOB_COMPUTE: SimDuration = SimDuration::from_micros(200);
/// Bytes each worker ships to its ring neighbour per round.
const JOB_MESSAGE_BYTES: u64 = 8_192;
/// Smoothing sweeps the paging process performs. Two: the first spills
/// the overflow to the pool, the second streams it back — the fetches the
/// metric measures.
const PAGING_SWEEPS: u32 = 2;
/// Idle machines donating DRAM to network RAM.
const NETRAM_HOSTS: u32 = 8;
/// Bytes per background frame.
const BACKGROUND_BYTES: u64 = 8_192;
/// Cadence of the background flows.
const BACKGROUND_INTERVAL: SimDuration = SimDuration::from_micros(500);
/// Heartbeat interval of the failure detector.
const FAULT_HEARTBEAT: SimDuration = SimDuration::from_millis(50);

/// Events of the coupled scenario's engine: one variant per subsystem,
/// so each component keeps its own event type and [`EventCast`] routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioEvent {
    /// A multigrid paging step ([`MultigridComponent`]).
    Page(PageEvent),
    /// A file-cache trace access ([`CacheComponent`]).
    Cache(CacheEvent),
    /// A BSP job round ([`BspJobComponent`]).
    Job(JobEvent),
    /// A background-traffic tick ([`TrafficComponent`]).
    Traffic(TrafficEvent),
    /// A fault-injector wake-up ([`FaultInjectorComponent`]).
    Inject(InjectorEvent),
    /// A cluster-control event ([`ClusterControl`]).
    Control(ControlEvent),
    /// A flight-recorder sampling tick (observed runs only).
    Record(RecorderEvent),
}

now_sim::event_cast!(ScenarioEvent {
    Page(PageEvent),
    Cache(CacheEvent),
    Job(JobEvent),
    Traffic(TrafficEvent),
    Inject(InjectorEvent),
    Control(ControlEvent),
    Record(RecorderEvent),
});

// The injector broadcasts bare `Fault` values; in this engine they are
// addressed to the control, so they ride inside its event type.
impl EventCast<Fault> for ScenarioEvent {
    fn upcast(ev: Fault) -> Self {
        ScenarioEvent::Control(ControlEvent::Fault(ev))
    }
    fn downcast(self) -> Fault {
        match self {
            ScenarioEvent::Control(ControlEvent::Fault(ev)) => ev,
            other => panic!("expected a Fault event, got {other:?}"),
        }
    }
}

/// Events driving a [`BspJobComponent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    /// Run the next bulk-synchronous round.
    Round,
    /// The worker on this node died (crash or partition): the next
    /// barrier cannot close until it is replaced.
    WorkerDown(u32),
    /// The rank on `node` moves to `replacement` (itself, after a reboot
    /// or reconnect): the barrier can close again once every rank is up.
    WorkerReplaced {
        /// Node the dead worker occupied.
        node: u32,
        /// Node the rank runs on from now on.
        replacement: u32,
    },
}

/// A bulk-synchronous parallel job as an engine component.
///
/// Each round every worker computes for 200 µs, then sends its 8-KB
/// boundary data to its ring neighbour over the shared fabric; the
/// barrier closes when the slowest message is delivered, and the next
/// round starts there.
#[derive(Debug)]
pub struct BspJobComponent {
    worker_nodes: Vec<u32>,
    rounds: u32,
    done_rounds: u32,
    started: Option<SimTime>,
    finished: Option<SimTime>,
    down: BTreeSet<usize>,
    paused_at: Option<SimTime>,
    fault_stall: SimDuration,
    rounds_gauge: Gauge,
}

impl BspJobComponent {
    /// A job of `rounds` rounds over the workers on `worker_nodes`, each
    /// round 200 µs of work then an 8-KB ring exchange.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two workers (a ring needs a neighbour).
    pub fn new(worker_nodes: Vec<u32>, rounds: u32) -> Self {
        assert!(
            worker_nodes.len() >= 2,
            "a BSP ring needs at least 2 workers"
        );
        BspJobComponent {
            worker_nodes,
            rounds,
            done_rounds: 0,
            started: None,
            finished: None,
            down: BTreeSet::new(),
            paused_at: None,
            fault_stall: SimDuration::ZERO,
            rounds_gauge: Gauge::default(),
        }
    }

    /// Attaches a telemetry probe publishing the `job.rounds_done` gauge.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.rounds_gauge = probe.gauge("job.rounds_done");
    }

    /// Time from the first round's start to the last barrier (`None`
    /// until the job finishes).
    pub fn makespan(&self) -> Option<SimDuration> {
        Some(self.finished?.saturating_since(self.started?))
    }

    /// Total time spent stalled at a barrier waiting for a dead worker's
    /// replacement.
    pub fn fault_stall(&self) -> SimDuration {
        self.fault_stall
    }
}

impl<M: EventCast<JobEvent> + 'static> Component<M> for BspJobComponent {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        match event.downcast() {
            JobEvent::Round => {}
            JobEvent::WorkerDown(node) => {
                if let Some(w) = self.worker_nodes.iter().position(|&n| n == node) {
                    self.down.insert(w);
                }
                return;
            }
            JobEvent::WorkerReplaced { node, replacement } => {
                if let Some(w) = self.worker_nodes.iter().position(|&n| n == node) {
                    self.worker_nodes[w] = replacement;
                    if self.down.remove(&w) && self.down.is_empty() {
                        if let Some(paused) = self.paused_at.take() {
                            let now = ctx.now();
                            let stall = now.saturating_since(paused);
                            self.fault_stall += stall;
                            ctx.blame(category::BARRIER_STALL, stall);
                            ctx.schedule_at(now, M::upcast(JobEvent::Round));
                        }
                    }
                }
                return;
            }
        }
        if self.done_rounds >= self.rounds {
            return;
        }
        if !self.down.is_empty() {
            // A rank is dead: the barrier cannot close. Park here; the
            // replacement's arrival restarts the round chain.
            if self.paused_at.is_none() {
                self.paused_at = Some(ctx.now());
            }
            return;
        }
        let now = ctx.now();
        if self.started.is_none() {
            self.started = Some(now);
        }
        let compute_done = now + JOB_COMPUTE;
        // The barrier closes when the slowest exchange lands; that
        // critical transfer's breakdown explains the round's fabric share.
        let mut critical: Option<TransferCost> = None;
        let mut barrier = compute_done;
        let k = self.worker_nodes.len();
        for w in 0..k {
            let src = self.worker_nodes[w];
            let dst = self.worker_nodes[(w + 1) % k];
            let cost = ctx.transfer(src, dst, JOB_MESSAGE_BYTES, compute_done);
            if cost.delivered > barrier {
                barrier = cost.delivered;
                critical = Some(cost);
            }
        }
        self.done_rounds += 1;
        self.rounds_gauge.set(f64::from(self.done_rounds));
        ctx.blame(category::COMPUTE, JOB_COMPUTE);
        if let Some(cost) = critical {
            ctx.blame(category::AM_OVERHEAD, cost.overhead);
            ctx.blame(category::FABRIC_WAIT, cost.wait);
            ctx.blame(category::WIRE, cost.wire);
        }
        if self.done_rounds < self.rounds {
            ctx.schedule_at(barrier, M::upcast(JobEvent::Round));
        } else {
            self.finished = Some(barrier);
            ctx.mark("job.complete", barrier);
        }
    }
}

/// Events driving a [`TrafficComponent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficEvent {
    /// Emit one frame per flow.
    Tick,
}

/// Open-loop background traffic: a fixed set of flows each sending one
/// 8-KB frame every 500 µs until the horizon.
///
/// Deliberately *not* completion-chained — the offered load stays constant
/// no matter how congested the fabric gets, which is what makes the
/// contention sweep monotone.
#[derive(Debug)]
pub struct TrafficComponent {
    flows: Vec<(u32, u32)>,
    horizon: SimTime,
    frames: u64,
    latency_sum: SimDuration,
    frames_gauge: Gauge,
}

impl TrafficComponent {
    /// Flows `(src, dst)` each sending a frame every tick until `horizon`.
    pub fn new(flows: Vec<(u32, u32)>, horizon: SimTime) -> Self {
        TrafficComponent {
            flows,
            horizon,
            frames: 0,
            latency_sum: SimDuration::ZERO,
            frames_gauge: Gauge::default(),
        }
    }

    /// Attaches a telemetry probe publishing the `traffic.frames` gauge.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.frames_gauge = probe.gauge("traffic.frames");
    }

    /// Frames sent so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Mean door-to-door frame latency in microseconds (`None` before the
    /// first frame).
    pub fn mean_latency_us(&self) -> Option<f64> {
        (self.frames > 0).then(|| self.latency_sum.as_micros_f64() / self.frames as f64)
    }
}

impl<M: EventCast<TrafficEvent> + 'static> Component<M> for TrafficComponent {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        let TrafficEvent::Tick = event.downcast();
        let now = ctx.now();
        for &(src, dst) in &self.flows {
            let delivered = ctx.transfer(src, dst, BACKGROUND_BYTES, now).delivered;
            self.latency_sum += delivered.saturating_since(now);
            self.frames += 1;
        }
        self.frames_gauge.set(self.frames as f64);
        let next = now + BACKGROUND_INTERVAL;
        if next <= self.horizon {
            ctx.schedule_at(next, M::upcast(TrafficEvent::Tick));
        }
    }
}

/// The gauges the flight recorder samples, in column order. Every entry
/// is published by a scenario component (or the network) once probes are
/// wired, so observed runs always produce a full-width series.
const RECORDED_GAUGES: [&str; 6] = [
    "cache.hit_rate",
    "cache.read_ms",
    "job.rounds_done",
    "mem.netram_fetch_us",
    "net.queue_wait_us",
    "traffic.frames",
];

/// Parameters of the coupled scenario (see [`NowCluster::run_scenario`]).
///
/// The cell's shape is fixed: 8 job workers exchanging 8-KB ring messages
/// after 200 µs of compute, a two-sweep paging process over 8 netram
/// hosts, 8-KB background frames every 500 µs, and a 50-ms heartbeat,
/// 100-ms restart delay and 8-MB rebuild for faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// BSP rounds the job runs.
    pub job_rounds: u32,
    /// Out-of-core problem size for the paging process, MB.
    pub paging_problem_mb: u64,
    /// Local DRAM of the paging process's workstation, MB.
    pub paging_local_mb: u64,
    /// Donated DRAM per idle machine, MB.
    pub netram_mb_per_host: u64,
    /// File-cache accesses per second across the cache clients.
    pub cache_accesses_per_sec: f64,
    /// Background flows (0 = an unloaded fabric).
    pub background_flows: u32,
    /// When the open-loop sources (traffic, cache trace) stop.
    pub horizon: SimDuration,
    /// Master seed for the generated traces.
    pub seed: u64,
    /// Scripted faults injected during the run (empty = never fails, and
    /// the fault machinery schedules no events at all).
    pub faults: FaultPlan,
    /// Mirror every network-RAM page on a second host, halving pool
    /// capacity but surviving a single host crash without page loss.
    pub netram_mirrored: bool,
    /// Independent copies of the scenario run side by side: cell `c` is
    /// the single-cell run at seed `seed + c`, on its own engine and its
    /// own replica of the cluster's fabric. `1` is the classic single-cell
    /// run; larger values model a building-scale NOW as a population of
    /// 32-node cells and are what `--nodes 256` expands to.
    pub cells: u32,
    /// Worker threads a multi-cell run spreads its cells over, clamped to
    /// `[1, cells]`: `0` and `1` both run the cells in order on the
    /// calling thread. The simulated history, outcome, and every
    /// observation are byte-identical at any value — only wall-clock time
    /// changes.
    pub partitions: u32,
    /// Active-message batching knobs for the scenario fabric. The
    /// default (zero flush quantum) is batching off, which reproduces
    /// the per-message transport byte-identically.
    #[serde(default)]
    pub am_batch: BatchConfig,
}

impl ScenarioSpec {
    /// The `now-bench` contention experiment's base point: an 8-worker
    /// BSP job, a 64-MB out-of-core solve paging to 8 idle hosts, and the
    /// cooperative-cache trace, all on one fabric, with no background
    /// traffic yet. Sweep [`ScenarioSpec::background_flows`] upward to
    /// load the shared links.
    pub fn contention_default() -> Self {
        ScenarioSpec {
            job_rounds: 400,
            paging_problem_mb: 64,
            paging_local_mb: 32,
            netram_mb_per_host: 8,
            cache_accesses_per_sec: 40.0,
            background_flows: 0,
            horizon: SimDuration::from_secs(4),
            seed: 42,
            faults: FaultPlan::new(),
            netram_mirrored: false,
            cells: 1,
            partitions: 1,
            am_batch: BatchConfig::disabled(),
        }
    }
}

/// Outcome of one coupled run (see [`NowCluster::run_scenario`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// BSP job wall time, first round to last barrier.
    pub job_makespan: SimDuration,
    /// Mean network-RAM page-fetch service time seen by the paging
    /// process, µs (`None` if the problem fit in local DRAM).
    pub mean_netram_fetch_us: Option<f64>,
    /// The paging process's run result.
    pub paging: RunResult,
    /// The cooperative cache's aggregate result.
    pub cache: SimResult,
    /// Background frames delivered.
    pub background_frames: u64,
    /// Mean background frame latency, µs (`None` with no flows).
    pub mean_background_latency_us: Option<f64>,
    /// Fault injection, detection, and recovery statistics.
    pub faults: FaultOutcome,
}

/// Component labels of one cell by registration order, for blame tables
/// and the host profile.
const CELL_COMPONENT_NAMES: [&str; 6] =
    ["job", "paging", "cache", "traffic", "control", "injector"];

/// The completion marks the blame extractor walks back from, with the
/// short tag each table is reported under.
const SCENARIO_MARKS: [(&str, &str); 4] = [
    ("job", "job.complete"),
    ("paging", "paging.complete"),
    ("cache", "cache.complete"),
    ("rebuild", "rebuild.complete"),
];

/// One cell's component ids, for outcome extraction.
struct CellIds {
    job: ComponentId,
    solver: ComponentId,
    cache: ComponentId,
    traffic: ComponentId,
    control: ComponentId,
    injector: ComponentId,
}

/// Registers one cell of the coupled scenario on nodes `0..n` and seeds
/// its events from `spec.seed`, every component publishing to `probe`.
///
/// Registration (job, solver, cache, traffic, control, injector) and
/// seeding (job, solver, cache, traffic, injector, control) follow a
/// fixed order: component ids and causal sequence numbers depend on it.
fn build_cell(
    engine: &mut Engine<ScenarioEvent>,
    spec: &ScenarioSpec,
    n: u32,
    probe: &Probe,
) -> CellIds {
    let (k, h) = (JOB_WORKERS, NETRAM_HOSTS);
    let worker_nodes: Vec<u32> = (0..k).collect();
    let pager_node = k;
    let host_nodes: Vec<u32> = (k + 1..=k + h).collect();
    let server_node = n - 1;

    // The BSP job.
    let mut job = BspJobComponent::new(worker_nodes.clone(), spec.job_rounds);
    job.set_probe(probe);
    let job_id = engine.register(job);

    // The out-of-core paging process. The fixed-cost constants in the
    // memory config are placeholders: the solver is placed on the fabric,
    // so every fetch is priced by the live network, not by them.
    let memory = MemoryConfig::LocalWithNetRam {
        mb: spec.paging_local_mb,
        hosts: h,
        mb_per_host: spec.netram_mb_per_host,
        cost: RemoteAccessCost::table2_atm(),
    };
    let app = MultigridConfig {
        sweeps: PAGING_SWEEPS,
        ..MultigridConfig::paper_defaults()
    };
    let pages = spec.paging_problem_mb * 1024 * 1024 / PAGE_BYTES;
    let mut built_pager = memory.build_pager(pages);
    built_pager.set_probe(probe.clone());
    if spec.netram_mirrored {
        built_pager.set_netram_mirrored(true);
    }
    let mut solver = MultigridComponent::new(
        built_pager,
        app.compute_per_page(),
        pages,
        u64::from(app.sweeps) * pages,
    )
    .with_placement(pager_node, host_nodes.clone());
    solver.set_probe(probe);
    let solver_id = engine.register(solver);

    // The cooperative file cache, its clients sharing the workers'
    // nodes and its server on the cell's last node.
    let mut trace_config = FsTraceConfig::small();
    trace_config.clients = k;
    trace_config.duration = spec.horizon;
    trace_config.accesses_per_sec = spec.cache_accesses_per_sec;
    let trace = FsTrace::generate(&trace_config, spec.seed);
    let mut config = CacheConfig::small(Policy::NChance { n: 2 });
    config.seed = spec.seed;
    let mut cache =
        CacheComponent::new(trace, config).with_placement(worker_nodes.clone(), server_node);
    cache.set_probe(probe);
    let first_access = cache.first_access_time();
    let cache_id = engine.register(cache);

    // Background traffic: flow `i` rides from netram host `i % h` into
    // worker `i % k` — the same links paging and the job depend on.
    let flows: Vec<(u32, u32)> = (0..spec.background_flows)
        .map(|i| (host_nodes[(i % h) as usize], worker_nodes[(i % k) as usize]))
        .collect();
    let mut traffic = TrafficComponent::new(flows, SimTime::ZERO + spec.horizon);
    traffic.set_probe(probe);
    let traffic_id = engine.register(traffic);

    // Fault machinery. Nodes past the netram hosts (and before the
    // server) are idle: the first few are held as spares for dead
    // workers, the rest carry the storage array's disks.
    let idle: Vec<u32> = (k + h + 1..server_node).collect();
    let spare_count = SPARE_NODES.min(idle.len());
    // Reverse so `pop` dispatches the lowest-numbered spare first.
    let spares: Vec<u32> = idle[..spare_count].iter().rev().copied().collect();
    let mut storage: Vec<u32> = idle[spare_count..].to_vec();
    if storage.is_empty() {
        storage.push(server_node);
    }
    let membership = MembershipConfig {
        heartbeat: FAULT_HEARTBEAT,
        ..MembershipConfig::default()
    };
    let detection_window = FAULT_HEARTBEAT * u64::from(membership.miss_limit + 1);
    let tick_until = spec.faults.last_time().unwrap_or(SimTime::ZERO)
        + detection_window
        + FAULT_RESTART_DELAY
        + FAULT_HEARTBEAT * 2;
    let mut control = ClusterControl::new(
        n,
        membership,
        ControlWiring {
            job_id,
            solver_id,
            cache_id,
            workers: worker_nodes,
            host_base: k + 1,
            hosts: h,
            spares,
            storage,
        },
        tick_until,
    );
    control.set_probe(probe.clone());
    let control_id = engine.register(control);
    let mut injector = FaultInjectorComponent::new(spec.faults.clone(), vec![control_id]);
    injector.set_probe(probe.clone());
    let injector_id = engine.register(injector);

    // Seed in fixed order: job, solver, cache, traffic.
    engine.schedule_at(job_id, SimTime::ZERO, ScenarioEvent::Job(JobEvent::Round));
    engine.schedule_at(
        solver_id,
        SimTime::ZERO,
        ScenarioEvent::Page(PageEvent::Step),
    );
    if let Some(t) = first_access {
        engine.schedule_at(cache_id, t, ScenarioEvent::Cache(CacheEvent::Access(0)));
    }
    if spec.background_flows > 0 {
        engine.schedule_at(
            traffic_id,
            SimTime::ZERO,
            ScenarioEvent::Traffic(TrafficEvent::Tick),
        );
    }
    // With no faults scheduled, the injector and control receive zero
    // events: the run's history is byte-identical to a fault-free build
    // of the engine.
    if let Some(first_fault) = spec.faults.first_time() {
        engine.schedule_at(
            injector_id,
            first_fault,
            ScenarioEvent::Inject(InjectorEvent::Fire),
        );
        engine.schedule_at(
            control_id,
            SimTime::ZERO + FAULT_HEARTBEAT,
            ScenarioEvent::Control(ControlEvent::Tick),
        );
    }
    CellIds {
        job: job_id,
        solver: solver_id,
        cache: cache_id,
        traffic: traffic_id,
        control: control_id,
        injector: injector_id,
    }
}

/// Reads one cell's outcome off the finished engine.
fn cell_outcome(engine: &Engine<ScenarioEvent>, ids: &CellIds) -> ScenarioOutcome {
    let job = engine.component::<BspJobComponent>(ids.job);
    let solver = engine.component::<MultigridComponent>(ids.solver);
    let traffic = engine.component::<TrafficComponent>(ids.traffic);
    let control = engine.component::<ClusterControl>(ids.control);
    let injector = engine.component::<FaultInjectorComponent>(ids.injector);
    ScenarioOutcome {
        job_makespan: job.makespan().expect(
            "the BSP job runs to completion (a crashed worker needs a \
             spare or a scripted reboot)",
        ),
        mean_netram_fetch_us: solver.mean_netram_fetch_us(),
        paging: solver.result(),
        cache: engine.component::<CacheComponent>(ids.cache).result(),
        background_frames: traffic.frames(),
        mean_background_latency_us: traffic.mean_latency_us(),
        faults: FaultOutcome {
            injected: injector.injected(),
            detected: control.detected(),
            mean_detection_ms: control.mean_detection_ms(),
            restarts: control.restarts(),
            rebuilt_bytes: control.rebuilt_bytes(),
            job_stall: job.fault_stall(),
        },
    }
}

/// One cell of the coupled scenario: a serial [`Engine`] over a private
/// copy of the cluster's fabric, seeded from `spec.seed`. A single-cell
/// run is this workload; a multi-cell run runs cell `c` as this workload
/// at seed `seed + c`.
struct Coupled<'a> {
    cluster: &'a NowCluster,
    spec: &'a ScenarioSpec,
}

impl Workload for Coupled<'_> {
    type Event = ScenarioEvent;
    type Ids = CellIds;
    type Outcome = ScenarioOutcome;

    fn engine(&self, probe: &Probe) -> Engine<ScenarioEvent> {
        Engine::with_transport(fabric_transport(self.cluster, self.spec.am_batch, probe))
    }

    fn register(&self, engine: &mut Engine<ScenarioEvent>, probe: &Probe) -> CellIds {
        build_cell(engine, self.spec, self.cluster.nodes(), probe)
    }

    fn component_names(&self) -> Vec<&'static str> {
        CELL_COMPONENT_NAMES.to_vec()
    }

    fn marks(&self) -> &'static [(&'static str, &'static str)] {
        &SCENARIO_MARKS
    }

    fn recorder(&self, probe: &Probe) -> Recording {
        Recording {
            probe: probe.clone(),
            gauges: &RECORDED_GAUGES,
            batch: self.spec.am_batch,
            horizon: SimTime::ZERO + self.spec.horizon,
        }
    }

    fn outcome(
        &self,
        engine: &Engine<ScenarioEvent>,
        ids: CellIds,
        _: &Accounting<'_>,
    ) -> ScenarioOutcome {
        cell_outcome(engine, &ids)
    }
}

impl NowCluster {
    /// Runs the coupled scenario: the BSP job, the out-of-core paging
    /// process, the cooperative-cache replay, and the background flows
    /// all contending for this cluster's interconnect through one engine.
    ///
    /// Component registration and event seeding follow a fixed order, so
    /// a given `(cluster, spec)` pair always reproduces the same history.
    ///
    /// # Panics
    ///
    /// Panics if the node allocation does not fit: the cluster needs 18
    /// nodes or more (8 job workers, 8 netram hosts, the pager and the
    /// file server).
    pub fn run_scenario(&self, spec: &ScenarioSpec) -> ScenarioOutcome {
        self.run_scenario_observed(spec, &ScenarioObserver::disabled())
            .0
    }

    /// [`run_scenario`](Self::run_scenario) plus whatever `observer`
    /// watches: a telemetry probe wired through the fabric and every
    /// subsystem (the fault machinery counts `fault.*`, the network
    /// gauges `net.queue_wait_us`, and the components publish the gauges
    /// the flight recorder samples), causal tracing, and the flight
    /// recorder. The simulated history is identical whatever the observer
    /// watches: probes, the causal sink, and the recorder never feed back
    /// into event timing (the recorder rides its own event chain, which
    /// touches no shared state).
    ///
    /// A spec with `cells > 1` runs cell `c` as the single-cell run at
    /// seed `seed + c`, its telemetry under `cell{c}.`, the cells spread
    /// over `partitions` worker threads, and folds the cells' outcomes
    /// into one; the result is byte-identical at every worker count.
    ///
    /// # Panics
    ///
    /// Panics like [`run_scenario`](Self::run_scenario), and on a
    /// multi-cell spec with a non-empty fault plan: a fault plan names the
    /// nodes of one cell, so faulted runs must stay at `cells = 1`.
    pub fn run_scenario_observed(
        &self,
        spec: &ScenarioSpec,
        observer: &ScenarioObserver,
    ) -> (ScenarioOutcome, ScenarioObservations) {
        let (n, k, h) = (self.nodes(), JOB_WORKERS, NETRAM_HOSTS);
        assert!(
            k + h + 2 <= n,
            "scenario needs {k} workers + {h} netram hosts + pager + server; \
             only {n} nodes"
        );
        if spec.cells <= 1 {
            return harness::run(
                &Coupled {
                    cluster: self,
                    spec,
                },
                observer,
            );
        }
        assert!(
            spec.faults.is_empty(),
            "faulted runs cannot shard across cells: a fault plan names the \
             nodes of one cell (run with cells = 1)"
        );
        let specs: Vec<ScenarioSpec> = (0..spec.cells)
            .map(|c| ScenarioSpec {
                seed: spec.seed.wrapping_add(u64::from(c)),
                cells: 1,
                ..spec.clone()
            })
            .collect();
        let cells: Vec<Coupled> = specs
            .iter()
            .map(|spec| Coupled {
                cluster: self,
                spec,
            })
            .collect();
        let (outcomes, observations) =
            harness::run_cells(&cells, spec.partitions as usize, observer);
        (aggregate_cells(&outcomes), observations)
    }
}

/// Folds per-cell outcomes into one cluster-level outcome: wall-clock
/// spans (`job_makespan`, `paging.total`) take the slowest cell, counters
/// and accumulated durations sum, and the mean metrics are re-weighted by
/// each cell's event count (netram faults, background frames) so they
/// equal the mean over the union of events, not a mean of means.
fn aggregate_cells(cells: &[ScenarioOutcome]) -> ScenarioOutcome {
    let mut agg = cells[0].clone();
    let mut fetch_sum = 0.0_f64;
    let mut fetch_weight = 0u64;
    let mut latency_sum = 0.0_f64;
    for cell in cells {
        if let Some(mean) = cell.mean_netram_fetch_us {
            fetch_sum += mean * cell.paging.pager.netram_faults as f64;
            fetch_weight += cell.paging.pager.netram_faults;
        }
        if let Some(mean) = cell.mean_background_latency_us {
            latency_sum += mean * cell.background_frames as f64;
        }
    }
    for cell in &cells[1..] {
        agg.job_makespan = agg.job_makespan.max(cell.job_makespan);
        agg.paging.compute += cell.paging.compute;
        agg.paging.stall += cell.paging.stall;
        agg.paging.total = agg.paging.total.max(cell.paging.total);
        let p = &mut agg.paging.pager;
        let q = &cell.paging.pager;
        p.accesses += q.accesses;
        p.hits += q.hits;
        p.soft_faults += q.soft_faults;
        p.netram_faults += q.netram_faults;
        p.disk_faults += q.disk_faults;
        p.writebacks += q.writebacks;
        p.host_evicted_pages += q.host_evicted_pages;
        p.host_lost_pages += q.host_lost_pages;
        p.stall += q.stall;
        let a = &mut agg.cache;
        let b = &cell.cache;
        a.reads += b.reads;
        a.writes += b.writes;
        a.local_hits += b.local_hits;
        a.remote_client_hits += b.remote_client_hits;
        a.server_hits += b.server_hits;
        a.disk_reads += b.disk_reads;
        a.read_time += b.read_time;
        a.forwards += b.forwards;
        a.skipped_accesses += b.skipped_accesses;
        a.invalidated_blocks += b.invalidated_blocks;
        a.degraded_reads += b.degraded_reads;
        agg.background_frames += cell.background_frames;
    }
    agg.mean_netram_fetch_us = (fetch_weight > 0).then(|| fetch_sum / fetch_weight as f64);
    agg.mean_background_latency_us =
        (agg.background_frames > 0).then(|| latency_sum / agg.background_frames as f64);
    agg
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use now_probe::causal::CausalLog;
    use now_sim::HostProfile;

    use super::*;
    use crate::cluster::Interconnect;
    use crate::control::RAID_REBUILD_MB;

    pub(crate) fn cluster() -> NowCluster {
        NowCluster::builder()
            .nodes(32)
            .interconnect(Interconnect::AtmActiveMessages)
            .build()
    }

    pub(crate) fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            job_rounds: 50,
            paging_problem_mb: 16,
            paging_local_mb: 8,
            netram_mb_per_host: 2,
            horizon: SimDuration::from_secs(1),
            ..ScenarioSpec::contention_default()
        }
    }

    #[test]
    fn coupled_run_exercises_every_subsystem() {
        let out = cluster().run_scenario(&small_spec());
        assert!(out.job_makespan > SimDuration::ZERO);
        assert!(out.paging.pager.netram_faults > 0, "paging must hit netram");
        assert!(out.mean_netram_fetch_us.is_some());
        assert!(out.cache.reads > 0, "cache trace must replay");
        assert_eq!(out.background_frames, 0, "no flows configured");
    }

    #[test]
    fn background_traffic_slows_the_other_subsystems() {
        let quiet = cluster().run_scenario(&small_spec());
        let busy = cluster().run_scenario(&ScenarioSpec {
            background_flows: 8,
            ..small_spec()
        });
        assert!(busy.background_frames > 0);
        assert!(
            busy.job_makespan > quiet.job_makespan,
            "job: {:?} under load vs {:?} quiet",
            busy.job_makespan,
            quiet.job_makespan
        );
        assert!(
            busy.mean_netram_fetch_us.unwrap() > quiet.mean_netram_fetch_us.unwrap(),
            "fetch: {:?} under load vs {:?} quiet",
            busy.mean_netram_fetch_us,
            quiet.mean_netram_fetch_us
        );
    }

    #[test]
    fn a_zero_cache_rate_runs_without_cache_traffic() {
        let out = cluster().run_scenario(&ScenarioSpec {
            cache_accesses_per_sec: 0.0,
            ..ScenarioSpec::contention_default()
        });
        assert_eq!((out.cache.reads, out.cache.writes), (0, 0));
        assert!(out.job_makespan > SimDuration::ZERO);
        assert!(out.paging.pager.netram_faults > 0, "paging still runs");
    }

    #[test]
    fn scenario_is_deterministic() {
        let spec = ScenarioSpec {
            background_flows: 4,
            ..small_spec()
        };
        let a = cluster().run_scenario(&spec);
        let b = cluster().run_scenario(&spec);
        assert_eq!(a, b);
    }

    /// Crash + reboot of an idle spare workstation: every fault is
    /// injected and detected, but no subsystem's performance moves — the
    /// outcome's performance fields are byte-identical to the fault-free
    /// run's.
    #[test]
    fn quiescent_fault_leaves_the_scenario_outcome_identical() {
        let spec = small_spec();
        let clean = cluster().run_scenario(&spec);
        // Node 17 = first idle node after 8 workers + pager + 8 hosts: a
        // spare, not assigned to any subsystem.
        let faulted = cluster().run_scenario(&ScenarioSpec {
            faults: FaultPlan::new()
                .at(SimTime::from_millis(200), Fault::NodeCrash { node: 17 })
                .at(SimTime::from_millis(400), Fault::NodeReboot { node: 17 }),
            ..spec.clone()
        });
        assert_eq!(faulted.faults.injected, 2);
        assert_eq!(faulted.faults.detected, 1, "the crash must be detected");
        assert_eq!(faulted.job_makespan, clean.job_makespan);
        assert_eq!(faulted.mean_netram_fetch_us, clean.mean_netram_fetch_us);
        assert_eq!(faulted.paging, clean.paging);
        assert_eq!(faulted.cache, clean.cache);
        assert_eq!(faulted.background_frames, clean.background_frames);
        assert_eq!(
            faulted.mean_background_latency_us,
            clean.mean_background_latency_us
        );
    }

    /// A worker crash stalls the BSP job at the next barrier until the
    /// detected failure dispatches a spare, which also takes over the
    /// dead node's cache-client seat.
    #[test]
    fn worker_crash_stalls_the_job_until_a_spare_takes_over() {
        let spec = small_spec();
        let clean = cluster().run_scenario(&spec);
        let faulted = cluster().run_scenario(&ScenarioSpec {
            faults: FaultPlan::new().at(SimTime::from_millis(5), Fault::NodeCrash { node: 0 }),
            ..spec
        });
        assert_eq!(faulted.faults.restarts, 1, "a spare must be dispatched");
        assert!(
            faulted.faults.job_stall > SimDuration::ZERO,
            "the barrier must stall while rank 0 is dead"
        );
        assert!(
            faulted.job_makespan >= clean.job_makespan + faulted.faults.job_stall,
            "the stall shows up in the makespan: {:?} vs {:?} + {:?}",
            faulted.job_makespan,
            clean.job_makespan,
            faulted.faults.job_stall
        );
        assert!(
            faulted.cache.invalidated_blocks > 0 || faulted.cache.skipped_accesses > 0,
            "the dead node's cache client must feel the crash"
        );
    }

    /// A netram host crash destroys the single-copy pages it held; the
    /// mirrored pool survives the same crash without losing any.
    #[test]
    fn netram_host_crash_loses_pages_unless_mirrored() {
        let spec = ScenarioSpec {
            // 500 ms: the first sweep has filled local DRAM (~314 ms in at
            // ~307 µs/page) and is spilling overflow round-robin across
            // the netram hosts.
            faults: FaultPlan::new().at(SimTime::from_millis(500), Fault::NodeCrash { node: 9 }),
            ..small_spec()
        };
        let plain = cluster().run_scenario(&spec);
        assert!(
            plain.paging.pager.host_lost_pages > 0,
            "host 9 (pool slot 0) must hold pages when it dies"
        );
        let mirrored = cluster().run_scenario(&ScenarioSpec {
            netram_mirrored: true,
            ..spec
        });
        assert_eq!(
            mirrored.paging.pager.host_lost_pages, 0,
            "every page on the dead host must have a surviving mirror"
        );
    }

    /// A disk failure puts the cache's server disk in degraded mode;
    /// the replacement streams reconstruction data over the shared
    /// fabric before service returns to normal.
    #[test]
    fn disk_failure_degrades_reads_and_rebuild_streams_the_fabric() {
        let spec = ScenarioSpec {
            faults: FaultPlan::new()
                .at(SimTime::from_millis(1), Fault::DiskFail { disk: 0 })
                .at(SimTime::from_millis(500), Fault::DiskReplace { disk: 0 }),
            ..small_spec()
        };
        let out = cluster().run_scenario(&spec);
        assert!(
            out.cache.degraded_reads > 0,
            "disk reads during the outage must pay the degraded penalty"
        );
        assert_eq!(
            out.faults.rebuilt_bytes,
            RAID_REBUILD_MB * 1024 * 1024,
            "the full reconstruction must stream"
        );
        let clean = cluster().run_scenario(&ScenarioSpec {
            faults: FaultPlan::new(),
            ..spec
        });
        assert!(
            out.cache.read_time > clean.cache.read_time,
            "degraded reads cost more: {:?} vs {:?}",
            out.cache.read_time,
            clean.cache.read_time
        );
    }

    /// The multi-cell run is the same simulation at every worker count:
    /// outcome, probe snapshot, flight-recorder series, and blame tables
    /// are byte-identical whether the cells share one thread or spread
    /// over several.
    #[test]
    fn replicated_cells_are_identical_at_any_partition_count() {
        use now_probe::Registry;
        let spec = ScenarioSpec {
            cells: 4,
            background_flows: 2,
            ..small_spec()
        };
        let observed = |partitions: u32| {
            let registry = Registry::new();
            let log = Arc::new(CausalLog::new());
            let observer = ScenarioObserver {
                probe: registry.probe(),
                causal: Some(Arc::clone(&log)),
                sample_every: Some(SimDuration::from_millis(100)),
                trace_sample_every: 1,
                window_budget: None,
                profile: false,
            };
            let (out, obs) = cluster().run_scenario_observed(
                &ScenarioSpec {
                    partitions,
                    ..spec.clone()
                },
                &observer,
            );
            let blame: Vec<String> = obs
                .blame
                .iter()
                .map(|(tag, table)| table.render_text(tag))
                .collect();
            (out, blame, obs.timeseries.to_csv(), registry.render_text())
        };
        let serial = observed(1);
        // 3 workers over 4 cells is an uneven split: one worker runs two.
        for partitions in [2, 3, 4] {
            assert_eq!(serial, observed(partitions), "partitions = {partitions}");
        }
    }

    /// A multi-cell run is profiled like a single-cell one: its host
    /// profile sums its cells', so its event counts, in total and per
    /// label, equal the merged profiles of the single-cell runs at
    /// `seed + c`.
    #[test]
    fn multi_cell_profile_sums_its_cells() {
        let spec = ScenarioSpec {
            background_flows: 2,
            ..small_spec()
        };
        let profiler = ScenarioObserver {
            profile: true,
            ..ScenarioObserver::disabled()
        };
        let profile = |spec: &ScenarioSpec| {
            let (_, obs) = cluster().run_scenario_observed(spec, &profiler);
            obs.profile.expect("a profiled run returns a profile")
        };
        let mut singles = HostProfile::default();
        for c in 0..3 {
            singles.merge(&profile(&ScenarioSpec {
                seed: spec.seed + c,
                ..spec.clone()
            }));
        }
        let cells = profile(&ScenarioSpec {
            cells: 3,
            partitions: 2,
            ..spec
        });
        let events = |p: &HostProfile| -> Vec<(String, u64)> {
            p.components
                .iter()
                .map(|c| (c.label.clone(), c.events))
                .collect()
        };
        assert!(cells.events > 0);
        assert_eq!(cells.events, singles.events);
        assert_eq!(events(&cells), events(&singles));
    }

    /// A cell is the single-cell run: a three-cell outcome is exactly the
    /// aggregate of three separate single-cell runs at seeds `seed + c`.
    #[test]
    fn cells_are_independent_single_cell_runs() {
        let spec = ScenarioSpec {
            background_flows: 2,
            ..small_spec()
        };
        let singles: Vec<ScenarioOutcome> = (0..3)
            .map(|c| {
                cluster().run_scenario(&ScenarioSpec {
                    seed: spec.seed + c,
                    ..spec.clone()
                })
            })
            .collect();
        let cells = cluster().run_scenario(&ScenarioSpec {
            cells: 3,
            partitions: 2,
            ..spec
        });
        assert_eq!(cells, aggregate_cells(&singles));
    }

    /// Batching preserves the worker-count invariance: a multi-cell run
    /// with a nonzero flush quantum plays out the same simulation —
    /// outcome and probe snapshot, batch counters included — whether the
    /// cells share one thread or spread over several.
    #[test]
    fn batched_cells_are_identical_at_any_partition_count() {
        use now_probe::Registry;
        let spec = ScenarioSpec {
            cells: 2,
            background_flows: 2,
            am_batch: BatchConfig::quantum_us(8),
            ..small_spec()
        };
        let observed = |partitions: u32| {
            let registry = Registry::new();
            let observer = ScenarioObserver {
                probe: registry.probe(),
                ..ScenarioObserver::disabled()
            };
            let (out, _) = cluster().run_scenario_observed(
                &ScenarioSpec {
                    partitions,
                    ..spec.clone()
                },
                &observer,
            );
            (out, registry.render_text())
        };
        assert_eq!(observed(1), observed(2));
    }

    /// A zero flush quantum leaves each cell on the bare fabric: the
    /// explicit disabled config reproduces the default run.
    #[test]
    fn disabled_batching_leaves_cells_byte_identical() {
        let plain = cluster().run_scenario(&ScenarioSpec {
            cells: 2,
            ..small_spec()
        });
        let wrapped = cluster().run_scenario(&ScenarioSpec {
            cells: 2,
            am_batch: BatchConfig::disabled(),
            ..small_spec()
        });
        assert_eq!(plain, wrapped);
    }

    /// Cell 0 of a multi-cell run replays the single-cell simulation
    /// exactly, and the aggregate outcome sums the population's counters.
    #[test]
    fn cells_aggregate_the_population() {
        let single = cluster().run_scenario(&small_spec());
        let double = cluster().run_scenario(&ScenarioSpec {
            cells: 2,
            ..small_spec()
        });
        assert_eq!(
            double.paging.pager.accesses,
            2 * single.paging.pager.accesses
        );
        assert_eq!(
            double.paging.compute,
            single.paging.compute + single.paging.compute
        );
        assert!(
            double.job_makespan >= single.job_makespan,
            "the aggregate makespan is the slowest cell's"
        );
        assert!(double.cache.reads > single.cache.reads);
    }

    #[test]
    #[should_panic(expected = "faulted runs cannot shard")]
    fn faulted_runs_refuse_to_shard() {
        cluster().run_scenario(&ScenarioSpec {
            cells: 2,
            faults: FaultPlan::new().at(SimTime::from_millis(5), Fault::NodeCrash { node: 0 }),
            ..small_spec()
        });
    }

    #[test]
    #[should_panic(expected = "only 8 nodes")]
    fn undersized_cluster_is_rejected() {
        NowCluster::builder()
            .nodes(8)
            .build()
            .run_scenario(&ScenarioSpec::contention_default());
    }
}
