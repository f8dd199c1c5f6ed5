//! # now-bench — regenerating every table and figure of *A Case for NOW*
//!
//! Each `table*`/`figure*` function reruns one of the paper's experiments
//! on the simulated NOW and renders it as text (via
//! [`now_sim::report`]). The `repro` binary prints any or all of them;
//! the Criterion benches in `benches/` time the underlying subsystems.
//!
//! Everything here is deterministic: fixed seeds, fixed configurations,
//! same output every run. `EXPERIMENTS.md` at the workspace root records
//! the paper-reported values next to these regenerated ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;

use std::sync::Arc;

use now_am::BatchConfig;
use now_core::{
    DistributeSpec, FetchStrategy, ImageCatalogSpec, NowCluster, ScenarioObservations,
    ScenarioObserver, ScenarioSpec, ServeSpec,
};
use now_models::gator;
use now_models::{cost, nfs as nfs_model, remote_access, techtrend};
use now_probe::causal::{CausalLog, DEFAULT_CAUSAL_CAPACITY};
use now_probe::recorder::{TimeSeries, WindowedSeries};
use now_probe::{Probe, Registry};
use now_sim::report::{render_figure, Series, TextTable};
use now_sim::{HostProfile, SimDuration, SimTime};

/// The master seed used for every stochastic experiment in the harness.
pub const SEED: u64 = 42;

/// Title of [`table1`].
pub const TABLE1_TITLE: &str = "Table 1 - MPPs vs workstations with the same microprocessor";
/// Title of [`figure1`].
pub const FIGURE1_TITLE: &str =
    "Figure 1 - price of 128 SuperSparc CPUs + 4 GB DRAM + 128 GB disk + 128 screens";
/// Title of [`table2`].
pub const TABLE2_TITLE: &str = "Table 2 - 8-KB miss service time, Ethernet vs 155-Mbps ATM";
/// Title of [`figure2`].
pub const FIGURE2_TITLE: &str = "Figure 2 - multigrid execution time vs problem size";
/// Title of [`table3`].
pub const TABLE3_TITLE: &str =
    "Table 3 - cooperative caching: 42 workstations, 16 MB/client, 128 MB server";
/// Title of [`table4`].
pub const TABLE4_TITLE: &str = "Table 4 - Gator atmospheric chemical tracer model";
/// Title of [`figure3`].
pub const FIGURE3_TITLE: &str =
    "Figure 3 - slowdown of the 32-node MPP workload on a NOW with sequential users";
/// Title of [`figure4`].
pub const FIGURE4_TITLE: &str = "Figure 4 - slowdown of local scheduling relative to coscheduling";

/// Table 1: MPP engineering lag and its performance cost.
pub fn table1() -> String {
    let mut t = TextTable::new(&[
        "MPP",
        "Node processor",
        "MPP year",
        "Workstation year",
        "Lag (yr)",
        "Perf forfeited @50%/yr",
    ]);
    t.title(TABLE1_TITLE);
    for row in techtrend::table1_rows() {
        let lag = row.lag_years();
        let forfeit = techtrend::AnnualImprovement::CONSERVATIVE.performance_forfeit(lag);
        t.row_owned(vec![
            row.mpp.clone(),
            row.node_processor.clone(),
            format!("{:.1}", row.mpp_year),
            format!("{:.1}", row.workstation_year),
            format!("{lag:.1}"),
            format!("{forfeit:.2}x"),
        ]);
    }
    t.render()
}

/// Figure 1: price of a 128-processor configuration under each packaging.
pub fn figure1() -> String {
    let mut t = TextTable::new(&["Configuration", "Price ($M)", "Relative"]);
    t.title(FIGURE1_TITLE);
    for sys in cost::CostModel::paper_defaults().figure1() {
        t.row_owned(vec![
            sys.packaging.label(),
            format!("{:.2}", sys.total / 1e6),
            format!("{:.2}x", sys.relative),
        ]);
    }
    t.render()
}

/// Table 2: time to service an 8-KB file-cache miss. An enabled `probe`
/// also receives the fault-service decomposition as
/// `netram.fault_service.*` gauges (µs), so a snapshot can be
/// cross-checked against the table's printed constants.
pub fn table2(probe: &Probe) -> String {
    let model = remote_access::AccessModel::paper_defaults();
    if probe.is_enabled() {
        use remote_access::Network::{Atm155, Ethernet10};
        probe.gauge_set("netram.fault_service.memory_copy_us", model.memory_copy_us);
        probe.gauge_set(
            "netram.fault_service.net_overhead_us",
            model.net_overhead_us,
        );
        // Rounded to whole microseconds, like the table's printed cells
        // (10 Mb/s division leaves float dust on the Ethernet transfer).
        probe.gauge_set(
            "netram.fault_service.transfer_ethernet_us",
            model.transfer_time_us(Ethernet10).round(),
        );
        probe.gauge_set(
            "netram.fault_service.transfer_atm_us",
            model.transfer_time_us(Atm155).round(),
        );
        probe.gauge_set("netram.fault_service.disk_us", model.disk_us);
    }
    let mut t = TextTable::new(&[
        "Component",
        "Ethernet rem. mem (us)",
        "Ethernet rem. disk (us)",
        "ATM rem. mem (us)",
        "ATM rem. disk (us)",
    ]);
    t.title(TABLE2_TITLE);
    let cells = model.table2();
    let s = |f: fn(&remote_access::ServiceTime) -> f64| -> Vec<String> {
        cells
            .iter()
            .map(|(_, _, st)| format!("{:.0}", f(st)))
            .collect()
    };
    let copies = s(|st| st.memory_copy_us);
    let overheads = s(|st| st.net_overhead_us);
    let transfers = s(|st| st.data_transfer_us);
    let disks = s(|st| st.disk_us);
    let totals = s(|st| st.total_us());
    for (label, vals) in [
        ("Memory copy", &copies),
        ("Net overhead", &overheads),
        ("Data transfer", &transfers),
        ("Disk", &disks),
        ("Total", &totals),
    ] {
        t.row_owned(vec![
            label.to_string(),
            vals[0].clone(),
            vals[1].clone(),
            vals[2].clone(),
            vals[3].clone(),
        ]);
    }
    t.render()
}

/// Figure 2: multigrid execution time vs problem size on the three memory
/// configurations. The three machine curves are independent, so
/// [`figure2_series`](now_mem::multigrid::figure2_series) fans them out
/// over up to `jobs` worker threads.
///
/// Every multigrid run fires the `pager.*` / `netram.*` probes and
/// records a `mem/multigrid` span, tagged with the curve's index as the
/// probe node (0 = disk, 1 = big DRAM, 2 = network RAM). Counter updates
/// are atomic and the trace is sorted at export, so the snapshot is
/// identical run to run and at any `jobs`.
pub fn figure2(probe: &Probe, jobs: usize) -> String {
    let series: Vec<Series> = now_mem::multigrid::figure2_series(probe, jobs)
        .into_iter()
        .map(|(name, points)| Series::new(name, points))
        .collect();
    render_figure(
        FIGURE2_TITLE,
        "problem size (MB)",
        "execution time (s)",
        &series,
    )
}

/// Table 3: cooperative caching on the 42-workstation trace.
///
/// `full_length` selects the paper's two-day trace (slow; used by the
/// repro binary) or a 12-hour version (used in tests). The three policy
/// runs fire the `cache.*` counters on `probe` (aggregated across
/// policies).
pub fn table3(full_length: bool, probe: &Probe) -> String {
    use now_cache::{simulate_probed, CacheConfig, Policy};
    use now_trace::fs::{FsTrace, FsTraceConfig};
    let mut cfg = FsTraceConfig::paper_defaults();
    if !full_length {
        cfg.duration = SimDuration::from_secs(12 * 3600);
    }
    let trace = FsTrace::generate(&cfg, SEED);
    let mut t = TextTable::new(&["Policy", "Cache miss rate (%)", "Read response (ms)"]);
    t.title(TABLE3_TITLE);
    for (name, policy) in [
        ("Client-server", Policy::ClientServer),
        ("Cooperative (greedy fwd)", Policy::GreedyForwarding),
        ("Cooperative (n-chance)", Policy::NChance { n: 2 }),
    ] {
        let r = simulate_probed(&trace, &CacheConfig::table3(policy), probe);
        t.row_owned(vec![
            name.to_string(),
            format!("{:.1}", r.disk_read_rate() * 100.0),
            format!("{:.2}", r.avg_read_response().as_millis_f64()),
        ]);
    }
    t.render()
}

/// Table 4: the Gator atmospheric model across machine configurations.
pub fn table4() -> String {
    let mut t = TextTable::new(&[
        "Machine",
        "ODE (s)",
        "Transport (s)",
        "Input (s)",
        "Total (s)",
        "Cost ($M)",
    ]);
    t.title(TABLE4_TITLE);
    for p in gator::table4() {
        t.row_owned(vec![
            p.machine.clone(),
            format!("{:.0}", p.ode_s),
            format!("{:.0}", p.transport_s),
            format!("{:.0}", p.input_s),
            format!("{:.0}", p.total_s()),
            format!("{:.0}", p.cost_millions),
        ]);
    }
    t.render()
}

/// Figure 3: MPP-workload dilation on a NOW vs cluster size.
pub fn figure3() -> String {
    let points = now_glunix::mixed::figure3_series(SEED);
    let series = [Series::new("32-node LANL workload on a NOW", points)];
    render_figure(
        FIGURE3_TITLE,
        "workstations in NOW",
        "execution dilation (dedicated MPP = 1.0)",
        &series,
    )
}

/// Figure 4: local vs gang scheduling slowdown per application. Every
/// gang and local run fires the `cosched.*` probes on `probe` (slot fill,
/// skew, migrations, stalls).
pub fn figure4(probe: &Probe) -> String {
    let series: Vec<Series> = now_glunix::cosched::figure4_series(probe)
        .into_iter()
        .map(|(name, points)| Series::new(&name, points))
        .collect();
    render_figure(
        FIGURE4_TITLE,
        "competing jobs per node",
        "slowdown vs gang scheduling",
        &series,
    )
}

/// In-text NFS study: message-size distribution and the bandwidth-alone
/// improvement.
pub fn nfs_study() -> String {
    use now_trace::nfs::{NfsTrace, NfsTraceConfig};
    let trace = NfsTrace::generate(&NfsTraceConfig::paper_defaults(), SEED);
    let mix = trace.size_mix();
    let imp_bw = nfs_model::improvement(
        nfs_model::StackCoefficients::TCP_ETHERNET,
        nfs_model::StackCoefficients::TCP_ATM,
        &mix,
    );
    let imp_oh = nfs_model::improvement(
        nfs_model::StackCoefficients::TCP_ETHERNET,
        nfs_model::StackCoefficients::SOCKETS_OVER_AM,
        &mix,
    );
    let mut t = TextTable::new(&["Metric", "Value"]);
    t.title("NFS trace study - 230 clients, one week (synthetic)");
    t.row_owned(vec![
        "Messages under 200 bytes".into(),
        format!("{:.1}%", trace.small_message_fraction() * 100.0),
    ]);
    t.row_owned(vec![
        "Improvement from 8.7x bandwidth alone (TCP/ATM)".into(),
        format!("{:.0}%", imp_bw * 100.0),
    ]);
    t.row_owned(vec![
        "Improvement from attacking overhead (sockets/AM)".into(),
        format!("{:.0}%", imp_oh * 100.0),
    ]);
    t.render()
}

/// In-text communication-layer comparison: one-way times, bandwidths, and
/// half-power points per stack.
pub fn comm_layers() -> String {
    use now_net::presets;
    let mut t = TextTable::new(&[
        "Stack",
        "One-way small msg (us)",
        "Peak bandwidth (Mbps)",
        "Half-power point (B)",
    ]);
    t.title("Communication layers on the simulated hardware");
    let nets: [(&str, now_net::Network); 6] = [
        ("TCP / shared Ethernet", presets::tcp_ethernet(4)),
        ("TCP / switched ATM", presets::tcp_atm(4)),
        ("single-copy TCP / FDDI", presets::single_copy_tcp_fddi(4)),
        ("sockets over AM / FDDI", presets::sockets_am_fddi(4)),
        ("HPAM / Medusa FDDI", presets::am_fddi(4)),
        ("AM / CM-5", presets::cm5(4)),
    ];
    for (name, mut net) in nets {
        t.row_owned(vec![
            name.to_string(),
            format!("{:.0}", net.one_way_small_message_us()),
            format!("{:.0}", net.bandwidth_at_mbps(1 << 20, 4)),
            format!("{}", net.half_power_point_bytes()),
        ]);
    }
    t.render()
}

/// The knobs the scaled reports share — exactly `repro`'s flags, parsed
/// once. [`Default`] is the classic report: the full sweep, nothing
/// observed, serial, one 32-node cell, batching off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportOptions {
    /// Smaller sweeps and fewer Monte-Carlo trials, for CI.
    pub smoke: bool,
    /// Append critical-path blame tables to the report text.
    pub blame: bool,
    /// Run the flight recorder and return its series.
    pub record: bool,
    /// Attribute host time per component and return the profile merged
    /// over every run and cell.
    pub profile: bool,
    /// Worker threads every fan-out of a report uses: the runs of a sweep
    /// (forced to 1 while a shared enabled probe watches), or, when
    /// `nodes` is above 32, the cells of each contention point, which
    /// are probed apart (under `cell{c}.`) and so spread under any probe.
    pub jobs: usize,
    /// Cluster size, a positive multiple of 32: the contention scenario
    /// runs `nodes / 32` independent 32-node cells per point, and the
    /// distribution sweep extends to `nodes` fetchers.
    pub nodes: u32,
    /// Active-message flush quantum in microseconds (0 = batching off,
    /// byte-identical to the classic transport).
    pub am_batch_us: u64,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            smoke: false,
            blame: false,
            record: false,
            profile: false,
            jobs: 1,
            nodes: 32,
            am_batch_us: 0,
        }
    }
}

impl ReportOptions {
    /// An observer for one run: `blame` attaches a fresh causal log of
    /// `causal_capacity` records, `record` a flight recorder sampling
    /// every `cadence` (downsampled into `window_budget` windows when
    /// given), and `profile` asks the engine for host-time attribution.
    ///
    /// The recorder samples registered gauges, so recording with a
    /// disabled `probe` would log flat zeros — in that case the run gets
    /// a private [`Registry`] probe instead (whose snapshot nobody reads;
    /// it only backs the gauges).
    fn observer(
        &self,
        probe: &Probe,
        causal_capacity: usize,
        cadence: SimDuration,
        window_budget: Option<usize>,
    ) -> ScenarioObserver {
        let probe = if self.record && !probe.is_enabled() {
            Registry::new().probe()
        } else {
            probe.clone()
        };
        ScenarioObserver {
            probe,
            causal: self
                .blame
                .then(|| Arc::new(CausalLog::with_capacity(causal_capacity))),
            sample_every: self.record.then_some(cadence),
            trace_sample_every: 1,
            window_budget,
            profile: self.profile,
        }
    }

    /// The active-message batching knobs every run's fabric gets.
    fn am_batch(&self) -> BatchConfig {
        BatchConfig::quantum_us(self.am_batch_us)
    }
}

/// A rendered report plus what its runs recorded.
#[derive(Debug, Clone, Default)]
pub struct ObservedReport {
    /// The report text: the experiment's table(s), followed by one
    /// critical-path blame table per run when blame was requested.
    pub text: String,
    /// `(run label, samples)` per scenario run, in report order (empty
    /// unless the report was asked to record).
    pub series: Vec<(String, TimeSeries)>,
    /// `(run label, downsampled samples)` per run for reports whose
    /// recorder runs windowed (the serving sweep), in report order.
    pub windowed: Vec<(String, WindowedSeries)>,
    /// Host-time attribution, merged across every run of the sweep.
    /// `None` unless profiling was requested.
    pub profile: Option<HostProfile>,
}

/// The flight recorder's sampling cadence for the coupled-scenario and
/// distribution reports: fine enough to catch the paging process's two
/// sweeps within the scenario horizon, coarse enough to keep the CSV
/// small.
const RECORDER_CADENCE: SimDuration = SimDuration::from_millis(50);

/// Runs one report's sweep: the `runs` fan out over `jobs` workers and
/// come back in sweep order, so the report is byte-identical for any
/// `jobs`. A shared *enabled* probe forces the sweep serial: concurrent
/// runs would interleave their gauge writes on that one registry in
/// wall-clock order — the nondeterminism the serial path never has.
/// Per-run causal logs and per-run private registries parallelise
/// freely. Returns the results and the runs' merged host profile.
fn sweep<S: Sync, O: Send>(
    report: &str,
    cluster: &NowCluster,
    runs: &[(S, ScenarioObserver)],
    run: fn(&NowCluster, &S, &ScenarioObserver) -> (O, ScenarioObservations),
    jobs: usize,
    probe: &Probe,
) -> (Vec<(O, ScenarioObservations)>, Option<HostProfile>) {
    let jobs = if probe.is_enabled() { 1 } else { jobs };
    let results = cluster.run_many(runs, jobs, run);
    // Say so when any run's bounded causal log filled up and dropped
    // records: the blame tables walked an incomplete DAG, and silence
    // would pass that off as the whole story.
    let dropped: u64 = runs
        .iter()
        .filter_map(|(_, o)| o.causal.as_ref())
        .map(|log| log.dropped())
        .sum();
    if dropped > 0 {
        eprintln!(
            "warning: {report} causal log dropped {dropped} record(s) at capacity; \
             blame tables may be truncated"
        );
    }
    let mut profile: Option<HostProfile> = None;
    for p in results.iter().filter_map(|(_, obs)| obs.profile.as_ref()) {
        profile.get_or_insert_with(HostProfile::default).merge(p);
    }
    (results, profile)
}

/// The shared-fabric contention experiment: the coupled scenario (BSP
/// job + out-of-core paging + cooperative cache on one engine and one
/// fabric) swept over growing background traffic.
///
/// Not a paper artifact — it demonstrates what the unified engine adds:
/// with every subsystem's bytes on the same wires, loading the fabric
/// degrades netram fetch latency and the parallel job's makespan
/// *together*, where the old per-subsystem simulators could not interact
/// at all.
///
/// `blame` appends a blame table per background-load point (where the
/// BSP job's makespan went) and `record` returns the flight recorder's
/// series per point. At `nodes = 32` this is the classic single-cell
/// report; beyond that every point runs a population of cells, and the
/// title says so. The `jobs` threads run the points at 32 nodes, and each
/// point's cells (the points in order) beyond that, so one pool runs at a
/// time. The table is byte-identical at every `jobs` value.
///
/// # Panics
///
/// Panics unless `opts.nodes` is a positive multiple of 32.
pub fn contention(opts: &ReportOptions, probe: &Probe) -> ObservedReport {
    let nodes = opts.nodes;
    assert!(
        nodes >= 32 && nodes.is_multiple_of(32),
        "the contention scenario scales in 32-node cells; {nodes} nodes is \
         not a positive multiple of 32"
    );
    let cells = nodes / 32;
    let flows: &[u32] = if opts.smoke {
        &[0, 4, 8]
    } else {
        &[0, 2, 4, 8, 16]
    };
    let cluster = NowCluster::builder().nodes(32).seed(SEED).build();
    let mut t = TextTable::new(&[
        "Background flows",
        "Netram fetch (us)",
        "Job makespan (ms)",
        "Cache read (ms)",
        "Bg frames",
    ]);
    if cells > 1 {
        t.title(&format!(
            "Contention - {cells} cells of 32 nodes ({nodes} total), paging + \
             BSP job + file cache per cell"
        ));
    } else {
        t.title("Contention - one fabric under the paging + BSP job + file cache scenario");
    }
    // The workers spread the cells when there are several, else the
    // points. Observers are built serially up front (fixed order), and
    // results come back in sweep order.
    let (partitions, point_jobs) = if cells > 1 {
        (u32::try_from(opts.jobs).unwrap_or(u32::MAX), 1)
    } else {
        (1, opts.jobs)
    };
    let runs: Vec<(ScenarioSpec, ScenarioObserver)> = flows
        .iter()
        .map(|&n| {
            (
                ScenarioSpec {
                    background_flows: n,
                    seed: SEED,
                    cells,
                    partitions,
                    am_batch: opts.am_batch(),
                    ..ScenarioSpec::contention_default()
                },
                opts.observer(probe, DEFAULT_CAUSAL_CAPACITY, RECORDER_CADENCE, None),
            )
        })
        .collect();
    let (results, profile) = sweep(
        "contention",
        &cluster,
        &runs,
        NowCluster::run_scenario_observed,
        point_jobs,
        probe,
    );
    let mut blame_text = String::new();
    let mut series = Vec::new();
    for (&n, (out, obs)) in flows.iter().zip(results) {
        t.row_owned(vec![
            format!("{n}"),
            format!(
                "{:.0}",
                out.mean_netram_fetch_us.expect("scenario pages to netram")
            ),
            format!("{:.1}", out.job_makespan.as_millis_f64()),
            format!("{:.2}", out.cache.avg_read_response().as_millis_f64()),
            format!("{}", out.background_frames),
        ]);
        if let Some((_, table)) = obs.blame.iter().find(|(tag, _)| *tag == "job") {
            blame_text.push('\n');
            blame_text.push_str(
                &table.render_text(&format!("Blame - job makespan, {n} background flows")),
            );
        }
        if opts.record {
            series.push((format!("flows={n}"), obs.timeseries));
        }
    }
    ObservedReport {
        text: format!("{}{blame_text}", t.render()),
        series,
        windowed: Vec::new(),
        profile,
    }
}

/// The message-rate-vs-batch-quantum table: the hot-spot pattern rerun
/// at flush quanta from 0 (the unbatched baseline) to 32 µs, reporting
/// achieved messages per simulated second, the mean batch depth, and the
/// gain over the unbatched baseline. Deterministic — same table every
/// run — and independent of every CLI knob, so the byte-diff gates hold.
///
/// 4 senders each fire 256 8-byte requests at 4/µs — the paper's
/// small-message regime, where per-message protocol cost (a credit held
/// across a round trip dominated by `o` and switch latency), not wire
/// bytes, bounds the rate. The config keeps default credits and a
/// lossless wire, with a timeout generous enough that deep batches never
/// trip spurious retransmissions.
pub fn am_batching_table() -> String {
    use now_net::presets;
    let config = now_am::AmConfig {
        timeout: SimDuration::from_secs(1),
        ..now_am::AmConfig::default()
    };
    let mut t = TextTable::new(&[
        "Flush quantum (us)",
        "Msgs/s",
        "Mean batch",
        "Gain vs unbatched",
    ]);
    t.title(
        "Message batching - hot-spot rate vs flush quantum \
         (4 senders x 256 8-byte requests)",
    );
    let mut base_rate = None;
    for q in [0u64, 2, 4, 8, 16, 32] {
        let point = now_am::batched_hotspot_rate(presets::am_atm(8), config, q, 4, 256);
        let base = *base_rate.get_or_insert(point.msgs_per_s);
        t.row_owned(vec![
            format!("{q}"),
            format!("{:.0}", point.msgs_per_s),
            format!("{:.1}", point.mean_batch),
            format!("{:.2}x", point.msgs_per_s / base),
        ]);
    }
    t.render()
}

/// The availability experiment: Monte-Carlo failure simulation
/// cross-checked against the paper's closed-form availability math, plus
/// the coupled scenario re-run under injected faults.
///
/// `smoke` cuts the Monte-Carlo trial count for CI; the fault scenarios
/// are identical either way. The trials and the fault scenarios fan out
/// over `jobs` workers: the estimators split one seed per trial and
/// reduce in trial order, so the report is byte-identical for any `jobs`.
/// `blame` appends, per fault scenario, a blame table for the BSP job's
/// makespan (where the stall went) and — when a disk rebuild ran — for
/// the rebuild chain; `record` returns the flight recorder's series per
/// scenario. `nodes` and `am_batch_us` do not apply.
pub fn availability(opts: &ReportOptions, probe: &Probe) -> ObservedReport {
    use now_fault::montecarlo;
    use now_raid::availability::FailureModel;

    let trials: u64 = if opts.smoke { 200 } else { 2_000 };
    let m = FailureModel::paper_defaults();
    let mut mc = TextTable::new(&[
        "Quantity",
        "Disks/nodes",
        "Closed form (h)",
        "Monte-Carlo (h)",
        "Error",
    ]);
    mc.title(&format!(
        "Availability - closed forms vs Monte-Carlo ({trials} trials, seed {SEED})"
    ));
    type Pair = (&'static str, fn(&FailureModel, u32) -> f64, McFn);
    type McFn = fn(&FailureModel, u32, u64, u64, usize) -> f64;
    let quantities: [Pair; 3] = [
        (
            "RAID-5 MTTDL",
            |m, n| m.raid5_mttdl_hours(n),
            montecarlo::raid5_mttdl_hours,
        ),
        (
            "Software RAID service MTTF",
            |m, n| m.software_raid_service_mttf_hours(n),
            montecarlo::software_service_mttf_hours,
        ),
        (
            "Hardware RAID service MTTF",
            |m, n| m.hardware_raid_service_mttf_hours(n),
            montecarlo::hardware_service_mttf_hours,
        ),
    ];
    for (name, closed_fn, mc_fn) in quantities {
        for n in [8u32, 16] {
            let closed = closed_fn(&m, n);
            let estimate = mc_fn(&m, n, trials, SEED, opts.jobs);
            mc.row_owned(vec![
                name.to_string(),
                format!("{n}"),
                format!("{closed:.0}"),
                format!("{estimate:.0}"),
                format!("{:.1}%", (estimate - closed).abs() / closed * 100.0),
            ]);
        }
    }

    let mut deg = TextTable::new(&[
        "Scenario",
        "Netram fetch (us)",
        "Job makespan (ms)",
        "Cache read (ms)",
        "Pages lost",
        "Job stall (ms)",
    ]);
    deg.title("Degraded vs healthy - the coupled scenario under injected faults");
    let cluster = NowCluster::builder().nodes(32).seed(SEED).build();
    let named_specs = availability_specs();
    let runs: Vec<(ScenarioSpec, ScenarioObserver)> = named_specs
        .iter()
        .map(|(_, spec)| {
            (
                spec.clone(),
                opts.observer(probe, DEFAULT_CAUSAL_CAPACITY, RECORDER_CADENCE, None),
            )
        })
        .collect();
    let (results, profile) = sweep(
        "availability",
        &cluster,
        &runs,
        NowCluster::run_scenario_observed,
        opts.jobs,
        probe,
    );
    let mut blame_text = String::new();
    let mut series = Vec::new();
    for ((name, _), (out, obs)) in named_specs.iter().zip(results) {
        deg.row_owned(vec![
            name.to_string(),
            format!("{:.0}", out.mean_netram_fetch_us.unwrap_or(0.0)),
            format!("{:.1}", out.job_makespan.as_millis_f64()),
            format!("{:.2}", out.cache.avg_read_response().as_millis_f64()),
            format!("{}", out.paging.pager.host_lost_pages),
            format!("{:.1}", out.faults.job_stall.as_millis_f64()),
        ]);
        for (tag, table) in &obs.blame {
            if *tag == "job" || *tag == "rebuild" {
                blame_text.push('\n');
                blame_text.push_str(&table.render_text(&format!("Blame - {tag} chain, {name}")));
            }
        }
        if opts.record {
            series.push((name.to_string(), obs.timeseries));
        }
    }
    ObservedReport {
        text: format!("{}\n{}{blame_text}", mc.render(), deg.render()),
        series,
        windowed: Vec::new(),
        profile,
    }
}

/// The named fault scenarios behind [`availability`]'s degraded-vs-healthy
/// table: the coupled run unharmed, with a dead network-RAM host (single
/// copy, then mirrored), with a crashed BSP worker replaced by a spare,
/// and with a failed-then-rebuilt storage disk.
fn availability_specs() -> Vec<(&'static str, ScenarioSpec)> {
    use now_core::{Fault, FaultPlan};

    let base = ScenarioSpec {
        job_rounds: 50,
        paging_problem_mb: 16,
        paging_local_mb: 8,
        netram_mb_per_host: 2,
        horizon: SimDuration::from_secs(1),
        seed: SEED,
        ..ScenarioSpec::contention_default()
    };
    // 500 ms: mid-spill of the paging process's first sweep, so the dead
    // host holds pages; 5 ms: before the BSP job's early barriers.
    let host_crash = FaultPlan::new().at(SimTime::from_millis(500), Fault::NodeCrash { node: 9 });
    vec![
        ("healthy", base.clone()),
        (
            "netram host dead",
            ScenarioSpec {
                faults: host_crash.clone(),
                ..base.clone()
            },
        ),
        (
            "netram host dead, mirrored pool",
            ScenarioSpec {
                faults: host_crash,
                netram_mirrored: true,
                ..base.clone()
            },
        ),
        (
            "worker crash + spare",
            ScenarioSpec {
                faults: FaultPlan::new().at(SimTime::from_millis(5), Fault::NodeCrash { node: 0 }),
                ..base.clone()
            },
        ),
        (
            "disk fail + rebuild",
            ScenarioSpec {
                faults: FaultPlan::new()
                    .at(SimTime::from_millis(1), Fault::DiskFail { disk: 0 })
                    .at(SimTime::from_millis(500), Fault::DiskReplace { disk: 0 }),
                ..base
            },
        ),
    ]
}

/// Window budget of the serving flight recorder: every series holds at
/// most this many windows however long the run is.
const SERVE_WINDOW_BUDGET: usize = 64;

/// Capacity of the serving causal log; 1-in-N chain sampling keeps the
/// offered record count near this whatever the population.
const SERVE_CAUSAL_CAPACITY: usize = 1 << 15;

/// Target number of causally traced request chains per serving run. The
/// sampling rate scales with the expected request count so this stays
/// roughly constant across the population sweep.
const SERVE_SAMPLED_CHAINS: u64 = 64;

/// The serving flight recorder's cadence. The raw sample count grows with
/// the horizon, but the windowed recorder compacts it into
/// [`SERVE_WINDOW_BUDGET`] windows regardless.
const SERVE_CADENCE: SimDuration = SimDuration::from_millis(5);

/// One population point of the serving sweep: the shared workload shape
/// (web-like Zipf catalog, 10-second mean think time, 8-KB objects) with
/// only the population varying.
fn serve_spec(population: u64, opts: &ReportOptions) -> ServeSpec {
    use now_cache::{AccessCosts, ServeConfig, ThinkTime};
    ServeSpec {
        config: ServeConfig {
            population,
            think: ThinkTime::Exponential { mean_ms: 10_000.0 },
            catalog_objects: 4_096,
            zipf_theta: 0.9,
            client_blocks: 256,
            server_blocks: 1_024,
            object_bytes: 8_192,
            costs: AccessCosts::paper_defaults(),
            horizon: SimTime::from_millis(500),
            seed: SEED,
            retain_exact: false,
        },
        front_ends: 8,
        partitions: 1,
        am_batch: opts.am_batch(),
    }
}

/// Expected open-loop request count of a serving spec: horizon times the
/// population's aggregate arrival rate. Used to scale the causal sampling
/// rate, so it only needs to be right to a small factor.
fn serve_expected_requests(spec: &ServeSpec) -> u64 {
    let rate_per_sec = spec.config.population as f64 / (spec.config.think.mean_ns() / 1e9);
    (spec.config.horizon.as_secs_f64() * rate_per_sec) as u64
}

/// The population-scale serving report: the building as a campus server.
///
/// An open-loop Zipf population drives the cache stack over the shared
/// fabric at each sweep point; the table reports tail latency from the
/// streaming quantile sketch plus the run's observation footprint, which
/// stays flat as the population (and event count) grows — the point of
/// the streaming observation layer. A saturation line marks where open-
/// loop arrivals outrun the server and p99 explodes.
///
/// Every observation structure is memory-bounded: `blame` samples
/// ~`SERVE_SAMPLED_CHAINS` request chains per population into a
/// capacity-bounded log and appends one sampled chain's table, and
/// `record` returns flight-recorder series downsampled into
/// `SERVE_WINDOW_BUDGET` windows. `nodes` does not apply. The report is
/// byte-identical for any `jobs`.
pub fn serve(opts: &ReportOptions, probe: &Probe) -> ObservedReport {
    let populations: &[u64] = if opts.smoke {
        &[20_000, 100_000, 1_000_000]
    } else {
        &[20_000, 100_000, 1_000_000, 5_000_000, 20_000_000]
    };
    let cluster = NowCluster::builder().nodes(32).seed(SEED).build();
    let mut t = TextTable::new(&[
        "Population",
        "Requests",
        "Local %",
        "Server mem %",
        "Disk %",
        "p50 (ms)",
        "p99 (ms)",
        "p999 (ms)",
        "Obs (KB)",
    ]);
    t.title("Serving at building scale - open-loop Zipf population on one fabric");
    let runs: Vec<(ServeSpec, ScenarioObserver)> = populations
        .iter()
        .map(|&p| {
            let spec = serve_spec(p, opts);
            let observer = ScenarioObserver {
                trace_sample_every: (serve_expected_requests(&spec) / SERVE_SAMPLED_CHAINS).max(1),
                ..opts.observer(
                    probe,
                    SERVE_CAUSAL_CAPACITY,
                    SERVE_CADENCE,
                    Some(SERVE_WINDOW_BUDGET),
                )
            };
            (spec, observer)
        })
        .collect();
    let (results, profile) = sweep(
        "serve",
        &cluster,
        &runs,
        NowCluster::run_serve_observed,
        opts.jobs,
        probe,
    );
    let mut blame_text = String::new();
    let mut windowed = Vec::new();
    let mut p99s: Vec<f64> = Vec::new();
    for (&pop, (out, obs)) in populations.iter().zip(results) {
        let pct = |x: u64| 100.0 * x as f64 / out.requests.max(1) as f64;
        let p99 = out.latency_ms(0.99).unwrap_or(0.0);
        p99s.push(p99);
        t.row_owned(vec![
            format!("{pop}"),
            format!("{}", out.requests),
            format!("{:.1}", pct(out.local_hits)),
            format!("{:.1}", pct(out.server_hits)),
            format!("{:.1}", pct(out.disk_reads)),
            format!("{:.2}", out.latency_ms(0.5).unwrap_or(0.0)),
            format!("{:.2}", p99),
            format!("{:.2}", out.latency_ms(0.999).unwrap_or(0.0)),
            format!("{:.1}", out.observation_bytes as f64 / 1024.0),
        ]);
        if let Some((_, table)) = obs.blame.first() {
            blame_text.push('\n');
            blame_text.push_str(
                &table.render_text(&format!("Blame - sampled request chain, population {pop}")),
            );
        }
        if opts.record {
            windowed.push((format!("pop={pop}"), obs.windowed));
        }
    }
    // Open-loop saturation: the first population whose p99 is an order of
    // magnitude past the lightest load's.
    let base = p99s.first().copied().unwrap_or(0.0);
    let saturated = populations
        .iter()
        .zip(&p99s)
        .find(|&(_, &p99)| base > 0.0 && p99 > 10.0 * base);
    let saturation = match saturated {
        Some((pop, _)) => {
            format!("Saturation: p99 explodes (>10x the lightest load) at population {pop}\n")
        }
        None => String::from("Saturation: not reached within the sweep\n"),
    };
    ObservedReport {
        text: format!("{}{saturation}{blame_text}", t.render()),
        series: Vec::new(),
        windowed,
        profile,
    }
}

/// Registry NICs in every distribution run: enough that small clusters
/// see no registry contention, few enough that the registry saturates
/// within the sweep.
const DISTRIBUTE_REGISTRY_NICS: u32 = 4;

/// Per-fetcher block-data budget. Ample for the sweep catalogs, so the
/// headline numbers measure distribution, not thrashing (tight budgets
/// are exercised by the property tests).
const DISTRIBUTE_CACHE_BUDGET: u64 = 8 * 1024 * 1024;

/// Capacity of the distribution causal log: one run is a single trace of
/// `fetchers x blocks` records, well under this.
const DISTRIBUTE_CAUSAL_CAPACITY: usize = 1 << 16;

/// The image catalog each distribution sweep publishes: the smoke
/// catalog for CI, a larger one (8 images on a 24-file base) otherwise.
fn distribute_catalog(smoke: bool) -> ImageCatalogSpec {
    if smoke {
        ImageCatalogSpec::smoke(SEED)
    } else {
        ImageCatalogSpec {
            images: 8,
            base_files: 24,
            app_files: 8,
            file_bytes: 64 * 1024,
            chunk_bytes: now_core::DEFAULT_CHUNK_BYTES,
            seed: SEED,
        }
    }
}

/// The fetcher-count sweep: powers of two up to `max_nodes` (always
/// ending exactly at `max_nodes`), trimmed for smoke runs.
fn distribute_sweep(smoke: bool, max_nodes: u32) -> Vec<u32> {
    let mut points = Vec::new();
    let mut f = 2u32;
    while f < max_nodes {
        points.push(f);
        f *= 2;
    }
    points.push(max_nodes);
    if smoke && points.len() > 3 {
        // Keep the ends and one midpoint: enough to see the crossover.
        points = vec![points[0], points[points.len() / 2], max_nodes];
    }
    points
}

/// The image-distribution report: cold-starting the cluster from a
/// content-addressed registry, registry-only vs cooperative.
///
/// Not a paper artifact — it extends the serving story to the step the
/// paper takes for granted: getting identical software onto N nodes.
/// Content addressing dedups the catalog (the table's dedup factor) and
/// the sweep, out to `nodes` fetchers, shows the crossover where
/// peer-to-peer block exchange beats hammering the registry, as its NICs
/// saturate.
///
/// `blame` appends blame tables for the largest cold start, per
/// strategy, and `record` returns the flight recorder's series per run.
/// The report is byte-identical for any `jobs`.
///
/// # Panics
///
/// Panics unless `opts.nodes` is a positive multiple of 32 (the contract
/// every scaled report shares).
pub fn distribute(opts: &ReportOptions, probe: &Probe) -> ObservedReport {
    let nodes = opts.nodes;
    assert!(
        nodes >= 32 && nodes.is_multiple_of(32),
        "the distribution sweep scales like the other reports; {nodes} nodes \
         is not a positive multiple of 32"
    );
    let sweep_points = distribute_sweep(opts.smoke, nodes);
    let max_fetchers = *sweep_points.last().expect("sweep is never empty");
    let cluster = NowCluster::builder()
        .nodes(max_fetchers + DISTRIBUTE_REGISTRY_NICS)
        .seed(SEED)
        .build();
    // Registry and cooperative runs interleave per point; the whole run
    // is a single causal trace (one root fans out to every fetcher), so
    // blame sampling is all-or-nothing: every chain is recorded.
    let runs: Vec<(DistributeSpec, ScenarioObserver)> = sweep_points
        .iter()
        .flat_map(|&fetchers| {
            [FetchStrategy::Registry, FetchStrategy::Cooperative].map(|strategy| {
                (
                    DistributeSpec {
                        catalog: distribute_catalog(opts.smoke),
                        fetchers,
                        registry_nics: DISTRIBUTE_REGISTRY_NICS,
                        cache_budget: DISTRIBUTE_CACHE_BUDGET,
                        strategy,
                        seed: SEED,
                        horizon: SimTime::from_secs(1),
                        partitions: 1,
                        am_batch: opts.am_batch(),
                    },
                    opts.observer(probe, DISTRIBUTE_CAUSAL_CAPACITY, RECORDER_CADENCE, None),
                )
            })
        })
        .collect();
    let (results, profile) = sweep(
        "distribute",
        &cluster,
        &runs,
        NowCluster::run_distribute_observed,
        opts.jobs,
        probe,
    );
    let mut t = TextTable::new(&[
        "Nodes",
        "Dedup",
        "Registry (ms)",
        "Cooperative (ms)",
        "Coop/Reg",
        "Peer %",
    ]);
    t.title(&format!(
        "Image distribution - cold start from a content-addressed registry \
         ({} NICs), registry-only vs cooperative",
        DISTRIBUTE_REGISTRY_NICS
    ));
    let mut blame_text = String::new();
    let mut series = Vec::new();
    let mut crossover: Option<u32> = None;
    for (&f, pair) in sweep_points.iter().zip(results.chunks_exact(2)) {
        let [(reg, reg_obs), (coop, coop_obs)] = pair else {
            unreachable!("chunks_exact(2) yields pairs")
        };
        assert_eq!(
            reg.content_digest, coop.content_digest,
            "strategies must deliver byte-identical images at {f} nodes"
        );
        let reg_ms = reg.makespan_ms();
        let coop_ms = coop.makespan_ms();
        if crossover.is_none() && coop_ms < reg_ms {
            crossover = Some(f);
        }
        let peer_pct = 100.0 * coop.peer_blocks as f64
            / (coop.peer_blocks + coop.registry_blocks).max(1) as f64;
        t.row_owned(vec![
            format!("{f}"),
            format!("{:.2}x", reg.dedup_factor),
            format!("{reg_ms:.1}"),
            format!("{coop_ms:.1}"),
            format!("{:.2}", coop_ms / reg_ms.max(f64::MIN_POSITIVE)),
            format!("{peer_pct:.0}"),
        ]);
        if f == max_fetchers {
            for (label, obs) in [("registry", reg_obs), ("cooperative", coop_obs)] {
                if let Some((_, table)) = obs.blame.first() {
                    blame_text.push('\n');
                    blame_text.push_str(
                        &table.render_text(&format!(
                            "Blame - cold-start makespan, {label}, {f} nodes"
                        )),
                    );
                }
            }
        }
        if opts.record {
            series.push((format!("registry n={f}"), reg_obs.timeseries.clone()));
            series.push((format!("cooperative n={f}"), coop_obs.timeseries.clone()));
        }
    }
    let crossover_line = match crossover {
        Some(f) => {
            format!("Crossover: cooperative fetch wins from {f} nodes (registry NICs saturate)\n")
        }
        None => String::from("Crossover: not reached within the sweep\n"),
    };
    ObservedReport {
        text: format!("{}{crossover_line}{blame_text}", t.render()),
        series,
        windowed: Vec::new(),
        profile,
    }
}

/// In-text migration claim: restoring 64 MB of memory state.
pub fn restore_study() -> String {
    use now_glunix::migrate::MigrationModel;
    let mut t = TextTable::new(&["I/O path", "64-MB restore (s)"]);
    t.title("Memory restore time for the interactive-user guarantee");
    for (name, m) in [
        ("ATM + parallel file system", MigrationModel::now_atm_pfs()),
        (
            "ATM + single server disk",
            MigrationModel::now_atm_single_disk(),
        ),
    ] {
        t.row_owned(vec![
            name.to_string(),
            format!("{:.1}", m.transfer_time(64).as_secs_f64()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ReportOptions {
        ReportOptions {
            smoke: true,
            ..ReportOptions::default()
        }
    }

    #[test]
    fn every_report_renders_nonempty() {
        for (name, text) in [
            ("table1", table1()),
            ("figure1", figure1()),
            ("table2", table2(&Probe::disabled())),
            ("table4", table4()),
            ("nfs", nfs_study()),
            ("comm", comm_layers()),
            ("restore", restore_study()),
        ] {
            assert!(text.lines().count() > 3, "{name} too short:\n{text}");
        }
    }

    #[test]
    fn every_paper_artifact_prints_its_title() {
        // `repro --help` describes each artifact by the same constant its
        // renderer titles the output with, so the two cannot drift apart.
        let probe = Probe::disabled();
        for (title, text) in [
            (TABLE1_TITLE, table1()),
            (TABLE2_TITLE, table2(&probe)),
            (TABLE3_TITLE, table3(false, &probe)),
            (TABLE4_TITLE, table4()),
            (FIGURE1_TITLE, figure1()),
            (FIGURE2_TITLE, figure2(&probe, 1)),
            (FIGURE3_TITLE, figure3()),
            (FIGURE4_TITLE, figure4(&probe)),
        ] {
            assert!(
                text.contains(&format!("== {title} ==")),
                "{title:?} missing from:\n{text}"
            );
        }
    }

    #[test]
    fn contention_degrades_monotonically() {
        // The unified engine's headline property: netram fetch latency and
        // the coupled job's makespan both worsen, and only worsen, as
        // competing traffic grows on the shared fabric.
        let cluster = NowCluster::builder().nodes(32).seed(SEED).build();
        let outcomes: Vec<now_core::ScenarioOutcome> = [0u32, 2, 4, 8, 16]
            .iter()
            .map(|&flows| {
                cluster.run_scenario(&ScenarioSpec {
                    background_flows: flows,
                    seed: SEED,
                    ..ScenarioSpec::contention_default()
                })
            })
            .collect();
        let fetch: Vec<f64> = outcomes
            .iter()
            .map(|out| out.mean_netram_fetch_us.expect("netram in use"))
            .collect();
        let makespan: Vec<f64> = outcomes
            .iter()
            .map(|out| out.job_makespan.as_millis_f64())
            .collect();
        for w in fetch.windows(2) {
            assert!(w[1] >= w[0], "fetch latency dipped under load: {fetch:?}");
        }
        for w in makespan.windows(2) {
            assert!(w[1] >= w[0], "makespan dipped under load: {makespan:?}");
        }
        assert!(
            fetch.last() > fetch.first(),
            "loaded fabric must cost something: {fetch:?}"
        );
        assert!(
            makespan.last() > makespan.first(),
            "loaded fabric must slow the job: {makespan:?}"
        );
    }

    #[test]
    fn availability_report_renders_and_is_deterministic() {
        let a = availability(&smoke(), &Probe::disabled()).text;
        assert!(a.contains("Monte-Carlo"), "{a}");
        assert!(a.contains("RAID-5 MTTDL"), "{a}");
        assert!(a.contains("worker crash + spare"), "{a}");
        assert!(a.contains("disk fail + rebuild"), "{a}");
        assert_eq!(
            a,
            availability(&smoke(), &Probe::disabled()).text,
            "fixed seed must reproduce"
        );
    }

    #[test]
    fn availability_scenarios_degrade_where_they_should() {
        let cluster = NowCluster::builder().nodes(32).seed(SEED).build();
        let series: Vec<(&str, now_core::ScenarioOutcome)> = availability_specs()
            .into_iter()
            .map(|(name, spec)| (name, cluster.run_scenario(&spec)))
            .collect();
        let get = |name: &str| {
            series
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, out)| out)
                .expect("series row")
        };
        let healthy = get("healthy");
        assert_eq!(healthy.paging.pager.host_lost_pages, 0);
        assert_eq!(healthy.faults.injected, 0);
        let host_dead = get("netram host dead");
        assert!(host_dead.paging.pager.host_lost_pages > 0);
        let mirrored = get("netram host dead, mirrored pool");
        assert_eq!(mirrored.paging.pager.host_lost_pages, 0);
        let worker = get("worker crash + spare");
        assert!(worker.faults.job_stall > SimDuration::ZERO);
        assert!(worker.job_makespan > healthy.job_makespan);
        let disk = get("disk fail + rebuild");
        assert!(disk.cache.degraded_reads > 0);
        assert!(disk.cache.read_time > healthy.cache.read_time);
    }

    #[test]
    fn contention_report_renders() {
        let t = contention(&ReportOptions::default(), &Probe::disabled()).text;
        assert!(t.contains("Background flows"), "{t}");
        assert!(t.lines().count() > 4, "{t}");
    }

    #[test]
    fn serve_report_renders_and_is_deterministic() {
        let a = serve(&smoke(), &Probe::disabled()).text;
        assert!(a.contains("Serving at building scale"), "{a}");
        assert!(a.contains("Saturation:"), "{a}");
        assert!(a.lines().count() > 5, "{a}");
        assert_eq!(
            a,
            serve(&smoke(), &Probe::disabled()).text,
            "fixed seed must reproduce"
        );
    }

    #[test]
    fn distribute_report_renders_and_is_deterministic() {
        let a = distribute(&smoke(), &Probe::disabled()).text;
        assert!(a.contains("Image distribution"), "{a}");
        assert!(a.contains("Crossover:"), "{a}");
        assert!(a.lines().count() > 5, "{a}");
        assert_eq!(
            a,
            distribute(&smoke(), &Probe::disabled()).text,
            "fixed seed must reproduce"
        );
    }

    #[test]
    fn distribute_crossover_emerges_within_the_smoke_sweep() {
        // The subsystem's headline claim: registry-only wins (or ties)
        // while its NICs are idle, cooperative wins once they saturate.
        // Rows read `nodes, dedup, registry ms, cooperative ms, coop/reg`.
        let report = distribute(&smoke(), &Probe::disabled()).text;
        let rows: Vec<Vec<&str>> = report
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .map(|l| l.split_whitespace().collect())
            .collect();
        let ratio = |row: &[&str]| row[4].parse::<f64>().expect("coop/reg cell");
        let (first, last) = (&rows[0], &rows[rows.len() - 1]);
        assert!(
            ratio(first) >= 1.0,
            "at {} nodes the registry should not lose:\n{report}",
            first[0]
        );
        assert!(
            ratio(last) < 1.0,
            "at {} nodes cooperative must win:\n{report}",
            last[0]
        );
        let dedup: f64 = last[1].trim_end_matches('x').parse().expect("dedup cell");
        assert!(dedup > 1.5, "catalog must dedup: {dedup}");
    }

    #[test]
    fn serve_observation_footprint_is_flat_across_the_sweep() {
        // Every population prints the same observation KB cell: the
        // sketch is O(buckets) however many requests stream through it.
        let report = serve(&smoke(), &Probe::disabled()).text;
        let obs_cells: Vec<&str> = report
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .map(|l| l.split_whitespace().last().unwrap())
            .collect();
        assert!(obs_cells.len() >= 3, "{report}");
        assert!(
            obs_cells.iter().all(|&c| c == obs_cells[0]),
            "observation bytes must not grow with population: {obs_cells:?}"
        );
    }

    #[test]
    fn table2_prints_the_paper_totals() {
        let t = table2(&Probe::disabled());
        for expected in ["6900", "21700", "1050", "15850"] {
            assert!(t.contains(expected), "missing {expected} in:\n{t}");
        }
    }

    #[test]
    fn table4_keeps_the_order_of_magnitude_story() {
        let t = table4();
        assert!(t.contains("RS-6000 (256)"));
        assert!(t.contains("low-overhead msgs"));
    }
}
