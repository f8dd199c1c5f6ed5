//! The run harness every scenario goes through.
//!
//! A scenario describes one cell of itself as a [`Workload`]: its engine,
//! its components (registered and seeded in a fixed order), their labels,
//! the completion marks its blame tables walk back from, the gauges its
//! flight recorder samples, and how to read the outcome off the finished
//! engine. The harness owns everything else, identically for every
//! scenario: the utilization epoch, the sampled causal sink, the flight
//! recorder (registered after every other component), the host profiler,
//! the run itself, and the post-run extraction of the recorder series, the
//! blame tables, and the observation self-accounting.
//!
//! [`run`] runs one cell. [`run_cells`] fans a multi-cell run's cells out
//! over worker threads: each cell is an ordinary single-cell run on its
//! own engine, probed under `cell{c}.`, and the cells share only the
//! causal log, into disjoint id ranges. Both bump the utilization epoch
//! once before any cell starts and walk the blame tables once, after the
//! last cell finishes.
//!
//! Component ids and causal sequence numbers follow registration and
//! seeding order, so the harness never reorders either: the workload
//! registers and seeds first, the recorder last. That contract is what
//! keeps every history byte-identical whatever the observer watches.

use std::sync::Arc;

use now_am::{BatchConfig, BatchingTransport};
use now_probe::causal::{critical_path, BlameTable, CausalLog};
use now_probe::recorder::{TimeSeries, WindowedSeries};
use now_probe::{Gauge, Probe};
use now_sim::parallel::run_indexed;
use now_sim::{
    CausalSink, Component, Ctx, Engine, EventCast, HostProfile, SimDuration, SimTime, Transport,
};

use crate::cluster::NowCluster;

/// What to watch during a scenario run: a telemetry probe (always), an
/// optional causal log (critical-path blame), and an optional flight-
/// recorder cadence (gauge time series). The all-disabled observer makes
/// [`NowCluster::run_scenario_observed`] behave exactly like
/// [`NowCluster::run_scenario`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioObserver {
    /// Telemetry sink wired through the network and every component.
    pub probe: Probe,
    /// When set, the engine records every event's provenance here and the
    /// run returns per-subsystem [`BlameTable`]s.
    pub causal: Option<Arc<CausalLog>>,
    /// When set, a flight recorder samples the registered gauges at this
    /// sim-time cadence until the spec's horizon.
    pub sample_every: Option<SimDuration>,
    /// Record one causal chain in every `trace_sample_every` (0 and 1
    /// both mean every chain). Sampling bounds causal-log memory on
    /// request-scale workloads; the simulated history is identical at
    /// every rate because observation never feeds back into timing.
    pub trace_sample_every: u64,
    /// When set, the flight recorder downsamples into a [`WindowedSeries`]
    /// of at most this many windows (min 2) instead of retaining every
    /// sample, and [`ScenarioObservations::windowed`] carries the result.
    pub window_budget: Option<usize>,
    /// When set, the engine attributes host (wall-clock) time to each
    /// component and [`ScenarioObservations::profile`] carries the
    /// [`HostProfile`], summed over the cells of a multi-cell run. The
    /// simulated history is byte-identical either way.
    pub profile: bool,
}

impl ScenarioObserver {
    /// An observer that watches nothing (probe disabled, no causal log,
    /// no recorder).
    pub fn disabled() -> Self {
        ScenarioObserver::default()
    }
}

/// What an observed run saw beyond the outcome.
#[derive(Debug, Clone, Default)]
pub struct ScenarioObservations {
    /// Critical-path blame tables, one per completed chain, under the
    /// scenario's short tags (the coupled scenario reports `job`,
    /// `paging`, `cache`, and — when a disk rebuild ran — `rebuild`).
    /// Empty without a causal log.
    pub blame: Vec<(&'static str, BlameTable)>,
    /// The flight recorder's gauge samples. Empty without a cadence, and
    /// empty when a window budget routed the samples to `windowed`.
    pub timeseries: TimeSeries,
    /// The flight recorder's downsampled samples. Empty unless both a
    /// cadence and a window budget were set.
    pub windowed: WindowedSeries,
    /// Host-time attribution, summed over every cell of the run. Present
    /// only when the observer asked for profiling.
    pub profile: Option<HostProfile>,
}

impl NowCluster {
    /// Runs each `(spec, observer)` pair through `run` — one of the
    /// `run_*_observed` entry points — as an independent run over up to
    /// `jobs` worker threads, returning results in input order.
    ///
    /// Every run builds its own engine, fabric, and traces from its spec,
    /// so runs share nothing mutable and the results are identical for
    /// any `jobs`. Give each run its *own* observer (its own causal log,
    /// its own registry): a shared enabled probe sees runs interleave
    /// gauge writes in wall-clock order, which is exactly the
    /// nondeterminism serial execution avoids — callers that share one
    /// enabled probe across runs should keep `jobs = 1`.
    ///
    /// # Panics
    ///
    /// Panics like `run`.
    pub fn run_many<S: Sync, O: Send>(
        &self,
        runs: &[(S, ScenarioObserver)],
        jobs: usize,
        run: impl Fn(&Self, &S, &ScenarioObserver) -> (O, ScenarioObservations) + Sync,
    ) -> Vec<(O, ScenarioObservations)> {
        run_indexed(jobs, runs, |_, (spec, observer)| run(self, spec, observer))
    }
}

/// Where a run's flight recorder reads its gauges and when it stops.
pub(crate) struct Recording {
    /// The probe whose gauges are sampled.
    pub probe: Probe,
    /// The scenario's base gauge columns.
    pub gauges: &'static [&'static str],
    /// The run's batching knobs (a batched run records one more column).
    pub batch: BatchConfig,
    /// The last sampling instant.
    pub horizon: SimTime,
}

/// The harness's self-accounting of one run's observation structures.
pub(crate) struct Accounting<'a> {
    probe: &'a Probe,
    /// Causal records retained (0 without a causal log).
    pub causal_records: usize,
    /// Causal records dropped at the log's capacity bound.
    pub causal_dropped: u64,
    /// Causal-log plus flight-recorder footprint, bytes.
    bytes: usize,
}

impl Accounting<'_> {
    /// The run's whole observation footprint — the harness's structures
    /// plus `workload_bytes` the workload observes with itself — published
    /// as the `probe.observation_bytes` gauge.
    pub fn publish_observation_bytes(&self, workload_bytes: usize) -> usize {
        let total = workload_bytes + self.bytes;
        self.probe
            .gauge("probe.observation_bytes")
            .set(total as f64);
        total
    }
}

/// One scenario cell as the harness sees it (see the module docs).
pub(crate) trait Workload {
    /// The engine's event type; it must carry the recorder's ticks.
    type Event: EventCast<RecorderEvent> + 'static;
    /// What registration hands to outcome extraction.
    type Ids;
    /// What the run returns.
    type Outcome;

    /// Builds the engine, its fabric wired to `probe`.
    fn engine(&self, probe: &Probe) -> Engine<Self::Event>;
    /// Registers the workload's components and seeds their first events,
    /// in the fixed order its history depends on.
    fn register(&self, engine: &mut Engine<Self::Event>, probe: &Probe) -> Self::Ids;
    /// Component labels by registration order.
    fn component_names(&self) -> Vec<&'static str>;
    /// `(tag, mark label)` per completion mark the blame tables walk
    /// back from.
    fn marks(&self) -> &'static [(&'static str, &'static str)];
    /// The flight recorder's gauges and horizon.
    fn recorder(&self, probe: &Probe) -> Recording;
    /// Reads the outcome off the finished engine.
    fn outcome(
        &self,
        engine: &Engine<Self::Event>,
        ids: Self::Ids,
        acct: &Accounting,
    ) -> Self::Outcome;
}

/// A private copy of `cluster`'s live fabric, probed through `probe`:
/// the network itself (it is the engine's [`Transport`]), wrapped in the
/// batching aggregator only when a nonzero flush quantum asks for it.
/// With batching off the network is boxed bare, so disabled runs carry
/// zero extra state and stay byte-identical to the pre-batching
/// transport.
pub(crate) fn fabric_transport(
    cluster: &NowCluster,
    batch: BatchConfig,
    probe: &Probe,
) -> Box<dyn Transport> {
    let mut network = cluster.interconnect().network(cluster.nodes());
    network.set_probe(probe.clone());
    if batch.enabled() {
        let mut wrapped = BatchingTransport::new(network, batch);
        wrapped.set_probe(probe.clone());
        Box::new(wrapped)
    } else {
        Box::new(network)
    }
}

/// Runs `workload` once under `observer`, as a single cell (see the
/// module docs for what the harness owns and the ordering contract it
/// keeps).
pub(crate) fn run<W: Workload>(
    workload: &W,
    observer: &ScenarioObserver,
) -> (W::Outcome, ScenarioObservations) {
    // A new run is a new utilization epoch: resource ledgers shared
    // across a sweep close the previous run's wall and start idle.
    observer.probe.util_epoch();
    let (outcome, mut observations) = run_cell(workload, observer, &observer.probe, 0);
    observations.blame = blame(workload, observer);
    (outcome, observations)
}

/// Runs `cells` as one multi-cell run under `observer`, over up to
/// `workers` threads: cell `c` is a single-cell run probed under
/// `cell{c}.`, and only cell 0 carries the flight recorder. Returns the
/// cells' outcomes in cell order, with the recorder series of cell 0, the
/// blame tables of the merged causal log, and the summed host profile.
/// All but the profile's host times are identical at every worker count.
pub(crate) fn run_cells<W>(
    cells: &[W],
    workers: usize,
    observer: &ScenarioObserver,
) -> (Vec<W::Outcome>, ScenarioObservations)
where
    W: Workload + Sync,
    W::Outcome: Send,
{
    // One epoch for the whole run: cells run concurrently, and a bump
    // per cell would close a running cell's wall span.
    observer.probe.util_epoch();
    let runs = run_indexed(workers, cells, |c, cell| {
        let probe = observer.probe.scoped(&format!("cell{c}."));
        run_cell(cell, observer, &probe, c as u32)
    });
    let (outcomes, seen): (Vec<W::Outcome>, Vec<ScenarioObservations>) = runs.into_iter().unzip();
    // Cell 0 carries the recorder series; the host profiles sum.
    let mut seen = seen.into_iter();
    let mut observations = seen.next().unwrap_or_default();
    for cell in seen {
        if let (Some(sum), Some(profile)) = (&mut observations.profile, &cell.profile) {
            sum.merge(profile);
        }
    }
    observations.blame = blame(&cells[0], observer);
    (outcomes, observations)
}

/// Component labels by registration order, the recorder's last.
fn labels<W: Workload>(workload: &W) -> Vec<&'static str> {
    let mut names = workload.component_names();
    names.push("recorder");
    names
}

/// Runs cell `cell` of a run on its own engine, probed through `probe`:
/// its causal ids offset by `cell << 44` into the shared log, the flight
/// recorder on cell 0 only. The engine is dropped before this returns.
/// Blame is left to the caller, which walks it once over the whole log.
fn run_cell<W: Workload>(
    workload: &W,
    observer: &ScenarioObserver,
    probe: &Probe,
    cell: u32,
) -> (W::Outcome, ScenarioObservations) {
    let mut engine = workload.engine(probe);
    if let Some(log) = &observer.causal {
        engine.set_causal_sink(
            Arc::clone(log) as Arc<dyn CausalSink>,
            observer.trace_sample_every.max(1),
            u64::from(cell) << 44,
        );
    }
    let ids = workload.register(&mut engine, probe);
    // The flight recorder registers last (component ids above are stable
    // whether or not it exists), and only when asked for.
    let recorder_id = observer.sample_every.filter(|_| cell == 0).map(|every| {
        let plan = workload.recorder(probe);
        let id = engine.register(RecorderComponent::with_gauges(
            &plan.probe,
            &gauges_with_batch(plan.gauges, plan.batch),
            every,
            plan.horizon,
            observer.window_budget,
        ));
        // Outside every trace, so the workload's chains keep their trace
        // ids and the causal sampler picks the same ones with or without it.
        engine.schedule_untraced_at(id, SimTime::ZERO, W::Event::upcast(RecorderEvent::Sample));
        id
    });

    if observer.profile {
        engine.enable_profiler(&labels(workload));
    }
    engine.run();

    let (timeseries, windowed, recorder_bytes) = match recorder_id {
        Some(id) => {
            let recorder = engine.component::<RecorderComponent>(id);
            (
                recorder.timeseries(),
                recorder.windowed(),
                recorder.approx_bytes(),
            )
        }
        None => (TimeSeries::new(Vec::new()), WindowedSeries::default(), 0),
    };
    let log = observer.causal.as_deref();
    let acct = Accounting {
        probe,
        causal_records: log.map_or(0, CausalLog::len),
        causal_dropped: log.map_or(0, CausalLog::dropped),
        bytes: log.map_or(0, CausalLog::approx_bytes) + recorder_bytes,
    };
    let outcome = workload.outcome(&engine, ids, &acct);
    (
        outcome,
        ScenarioObservations {
            blame: Vec::new(),
            timeseries,
            windowed,
            profile: engine.take_profile(),
        },
    )
}

/// The blame tables of a finished run, one per completion mark of
/// `workload` found in the observer's causal log.
fn blame<W: Workload>(
    workload: &W,
    observer: &ScenarioObserver,
) -> Vec<(&'static str, BlameTable)> {
    let Some(log) = &observer.causal else {
        return Vec::new();
    };
    let names = labels(workload);
    workload
        .marks()
        .iter()
        .filter_map(|&(tag, label)| critical_path(log, label, &names).map(|table| (tag, table)))
        .collect()
}

/// Events driving the time-series flight recorder, the component that
/// samples every registered gauge at a fixed sim-time cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecorderEvent {
    /// Sample every registered gauge once.
    Sample,
}

/// The recorder's gauge list for a run: the scenario's base columns,
/// plus `net.batch_occupancy` only when batching is on — disabled runs
/// must record exactly the pre-batching columns or their observation
/// snapshots (and the repro diff gate) would change.
fn gauges_with_batch(base: &'static [&'static str], batch: BatchConfig) -> Vec<&'static str> {
    let mut names = base.to_vec();
    if batch.enabled() {
        names.push("net.batch_occupancy");
    }
    names
}

/// Where a [`RecorderComponent`] accumulates its samples: a raw
/// [`TimeSeries`] keeping every row, or a [`WindowedSeries`] downsampled
/// to a fixed window budget (memory independent of run length).
#[derive(Debug)]
enum RecorderSink {
    /// Every sample retained.
    Raw(TimeSeries),
    /// At most `budget` merged windows retained.
    Windowed(WindowedSeries),
}

/// The time-series flight recorder: an engine component that reads the
/// registered gauges at a fixed sim-time cadence and accumulates a
/// [`RecorderSink`]. Registered only in observed runs, after every other
/// component, so its presence never renumbers the scenario's components.
#[derive(Debug)]
struct RecorderComponent {
    gauges: Vec<Gauge>,
    interval: SimDuration,
    horizon: SimTime,
    sink: RecorderSink,
}

impl RecorderComponent {
    /// A recorder over an explicit gauge list.
    fn with_gauges(
        probe: &Probe,
        names: &[&str],
        interval: SimDuration,
        horizon: SimTime,
        window_budget: Option<usize>,
    ) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "the recorder needs a nonzero cadence"
        );
        let columns: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        RecorderComponent {
            gauges: names.iter().map(|n| probe.gauge(n)).collect(),
            interval,
            horizon,
            sink: match window_budget {
                Some(budget) => RecorderSink::Windowed(WindowedSeries::new(columns, budget)),
                None => RecorderSink::Raw(TimeSeries::new(columns)),
            },
        }
    }

    /// The raw series (empty when the recorder ran windowed).
    fn timeseries(&self) -> TimeSeries {
        match &self.sink {
            RecorderSink::Raw(ts) => ts.clone(),
            RecorderSink::Windowed(_) => TimeSeries::new(Vec::new()),
        }
    }

    /// The windowed series (empty when the recorder ran raw).
    fn windowed(&self) -> WindowedSeries {
        match &self.sink {
            RecorderSink::Raw(_) => WindowedSeries::default(),
            RecorderSink::Windowed(ws) => ws.clone(),
        }
    }

    /// Approximate footprint of the recorded series, for the
    /// `probe.observation_bytes` self-accounting gauge.
    fn approx_bytes(&self) -> usize {
        match &self.sink {
            RecorderSink::Raw(ts) => ts.approx_bytes(),
            RecorderSink::Windowed(ws) => ws.approx_bytes(),
        }
    }
}

impl<M: EventCast<RecorderEvent> + 'static> Component<M> for RecorderComponent {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        let RecorderEvent::Sample = event.downcast();
        let now = ctx.now();
        let values: Vec<f64> = self.gauges.iter().map(Gauge::get).collect();
        match &mut self.sink {
            RecorderSink::Raw(ts) => ts.push(now, values),
            RecorderSink::Windowed(ws) => ws.push(now, &values),
        }
        let next = now + self.interval;
        if next <= self.horizon {
            ctx.schedule_at(next, M::upcast(RecorderEvent::Sample));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::fmt::Debug;

    use super::*;
    use crate::scenario::tests::{cluster, small_spec};
    use crate::ScenarioSpec;

    /// `run_many` over unobserved runs of `specs` returns the serial
    /// outcomes, in input order, at 4 workers as at 1.
    pub(crate) fn assert_fanout_matches_serial<S: Sync, O: Send + PartialEq + Debug>(
        specs: Vec<S>,
        run: fn(&NowCluster, &S, &ScenarioObserver) -> (O, ScenarioObservations),
    ) {
        let runs: Vec<(S, ScenarioObserver)> = specs
            .into_iter()
            .map(|spec| (spec, ScenarioObserver::disabled()))
            .collect();
        let outcomes = |jobs| -> Vec<O> {
            let results = cluster().run_many(&runs, jobs, run);
            results.into_iter().map(|(out, _)| out).collect()
        };
        assert_eq!(outcomes(1), outcomes(4));
    }

    /// Fanning independent scenario runs over worker threads returns
    /// exactly the serial results, in input order. The serve and distribute
    /// modules check their own spec kinds through the same helper.
    #[test]
    fn run_many_matches_serial() {
        let flows = [0u32, 2, 4].map(|background_flows| ScenarioSpec {
            background_flows,
            ..small_spec()
        });
        assert_fanout_matches_serial(flows.to_vec(), NowCluster::run_scenario_observed);
    }
}
