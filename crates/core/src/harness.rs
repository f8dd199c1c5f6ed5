//! The run harness every scenario goes through.
//!
//! A scenario describes itself as a [`Workload`]: the engine it runs on,
//! its components (registered and seeded in a fixed order), their labels,
//! the completion marks its blame tables walk back from, the gauges its
//! flight recorder samples, and how to read the outcome off the finished
//! engine. [`run`] owns everything else, identically for every scenario:
//! the utilization epoch, the sampled causal sink, the flight recorder
//! (registered after every other component), the host profiler, the run
//! itself, and the post-run extraction of the recorder series, the blame
//! tables, and the observation self-accounting.
//!
//! Component ids and causal sequence numbers follow registration and
//! seeding order, so the harness never reorders either: the workload
//! registers and seeds first, the recorder last. That contract is what
//! keeps every history byte-identical whatever the observer watches.

use std::sync::Arc;

use now_am::{BatchConfig, BatchingTransport, FabricTransport};
use now_probe::causal::{critical_path, BlameTable, CausalLog};
use now_probe::recorder::{TimeSeries, WindowedSeries};
use now_probe::{Gauge, Probe};
use now_sim::parallel::run_indexed;
use now_sim::{
    CausalSink, Component, ComponentId, Ctx, Engine, EventCast, HostProfile, PartitionedEngine,
    SimDuration, SimTime, Transport,
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
    /// [`HostProfile`]. Serial runs only: multi-cell runs interleave
    /// partitions on threads, where per-component wall time has no single
    /// meaning, so they skip profiling. The simulated history is
    /// byte-identical either way.
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
    /// Host-time attribution. Present only when the observer asked for
    /// profiling and the run was serial.
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

/// The registration seam the harness and the workloads drive, over both
/// engine types. The partition argument homes a component in a
/// [`PartitionedEngine`]; the serial [`Engine`] ignores it.
pub(crate) trait Host<M> {
    /// Registers `component` (homed in `partition`) and returns its id.
    fn register_in<C: Component<M>>(&mut self, partition: u32, component: C) -> ComponentId;
    /// Seeds `event` for `id` at `at`.
    fn seed(&mut self, id: ComponentId, at: SimTime, event: M);
    /// Borrows a component as its concrete type.
    fn component<C: Component<M>>(&self, id: ComponentId) -> &C;
    /// Attaches a 1-in-`every` sampled causal sink.
    fn set_causal_sink_sampled(&mut self, sink: Arc<dyn CausalSink>, every: u64);
    /// Runs to completion, profiling host time under `labels` when given
    /// and supported.
    fn run_profiled(&mut self, labels: Option<&[&str]>) -> Option<HostProfile>;
}

impl<M: 'static> Host<M> for Engine<M> {
    fn register_in<C: Component<M>>(&mut self, _partition: u32, component: C) -> ComponentId {
        self.register(component)
    }
    fn seed(&mut self, id: ComponentId, at: SimTime, event: M) {
        self.schedule_at(id, at, event);
    }
    fn component<C: Component<M>>(&self, id: ComponentId) -> &C {
        Engine::component(self, id)
    }
    fn set_causal_sink_sampled(&mut self, sink: Arc<dyn CausalSink>, every: u64) {
        Engine::set_causal_sink_sampled(self, sink, every);
    }
    fn run_profiled(&mut self, labels: Option<&[&str]>) -> Option<HostProfile> {
        if let Some(labels) = labels {
            self.enable_profiler(labels);
        }
        self.run();
        self.take_profile()
    }
}

impl<M: Send + 'static> Host<M> for PartitionedEngine<M> {
    fn register_in<C: Component<M>>(&mut self, partition: u32, component: C) -> ComponentId {
        self.register(partition, component)
    }
    fn seed(&mut self, id: ComponentId, at: SimTime, event: M) {
        self.schedule_at(id, at, event);
    }
    fn component<C: Component<M>>(&self, id: ComponentId) -> &C {
        PartitionedEngine::component(self, id)
    }
    fn set_causal_sink_sampled(&mut self, sink: Arc<dyn CausalSink>, every: u64) {
        PartitionedEngine::set_causal_sink_sampled(self, sink, every);
    }
    fn run_profiled(&mut self, _labels: Option<&[&str]>) -> Option<HostProfile> {
        // Partitions interleave on threads: per-component wall time has
        // no single meaning, so multi-cell runs are never profiled.
        self.run();
        None
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

/// One scenario as the harness sees it (see the module docs).
pub(crate) trait Workload {
    /// The engine's event type; it must carry the recorder's ticks.
    type Event: EventCast<RecorderEvent> + 'static;
    /// The engine the run executes on.
    type Engine: Host<Self::Event>;
    /// What registration hands to outcome extraction.
    type Ids;
    /// What the run returns.
    type Outcome;

    /// Builds the engine, its fabric wired to `probe`.
    fn engine(&self, probe: &Probe) -> Self::Engine;
    /// Registers the workload's components and seeds their first events,
    /// in the fixed order its history depends on.
    fn register(&self, engine: &mut Self::Engine, probe: &Probe) -> Self::Ids;
    /// Component labels by registration order.
    fn component_names(&self) -> Vec<&'static str>;
    /// `(tag, mark label)` per completion mark the blame tables walk
    /// back from.
    fn marks(&self) -> &'static [(&'static str, &'static str)];
    /// The flight recorder's gauges and horizon.
    fn recorder(&self, probe: &Probe) -> Recording;
    /// Reads the outcome off the finished engine.
    fn outcome(&self, engine: &Self::Engine, ids: Self::Ids, acct: &Accounting) -> Self::Outcome;
}

/// A serial engine over `cluster`'s live fabric, probed through `probe`:
/// the priced network, wrapped in the batching aggregator only when a
/// nonzero flush quantum asks for it. With batching off the fabric is
/// boxed bare, so disabled runs carry zero extra state and stay
/// byte-identical to the pre-batching transport.
pub(crate) fn fabric_engine<M: 'static>(
    cluster: &NowCluster,
    batch: BatchConfig,
    probe: &Probe,
) -> Engine<M> {
    let mut network = cluster.interconnect().network(cluster.nodes());
    network.set_probe(probe.clone());
    let fabric = FabricTransport::new(network);
    let transport: Box<dyn Transport> = if batch.enabled() {
        let mut wrapped = BatchingTransport::new(fabric, batch);
        wrapped.set_probe(probe.clone());
        Box::new(wrapped)
    } else {
        Box::new(fabric)
    };
    Engine::with_transport(transport)
}

/// Runs `workload` once under `observer` (see the module docs for what
/// the harness owns and the ordering contract it keeps).
pub(crate) fn run<W: Workload>(
    workload: &W,
    observer: &ScenarioObserver,
) -> (W::Outcome, ScenarioObservations) {
    let probe = &observer.probe;
    // A new run is a new utilization epoch: resource ledgers shared
    // across a sweep close the previous run's wall and start idle.
    probe.util_epoch();
    let mut engine = workload.engine(probe);
    if let Some(log) = &observer.causal {
        engine.set_causal_sink_sampled(
            Arc::clone(log) as Arc<dyn CausalSink>,
            observer.trace_sample_every.max(1),
        );
    }
    let ids = workload.register(&mut engine, probe);
    // The flight recorder registers last (component ids above are stable
    // whether or not it exists), homed in partition 0, and only when
    // asked for.
    let recorder_id = observer.sample_every.map(|every| {
        let plan = workload.recorder(probe);
        let id = engine.register_in(
            0,
            RecorderComponent::with_gauges(
                &plan.probe,
                &gauges_with_batch(plan.gauges, plan.batch),
                every,
                plan.horizon,
                observer.window_budget,
            ),
        );
        engine.seed(id, SimTime::ZERO, W::Event::upcast(RecorderEvent::Sample));
        id
    });

    let mut names = workload.component_names();
    names.push("recorder");
    let profile = engine.run_profiled(observer.profile.then_some(&names[..]));

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
    let blame = log
        .iter()
        .flat_map(|log| {
            workload.marks().iter().filter_map(|&(tag, label)| {
                critical_path(log, label, &names).map(|table| (tag, table))
            })
        })
        .collect();
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
            blame,
            timeseries,
            windowed,
            profile,
        },
    )
}

/// Events driving a [`RecorderComponent`].
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
