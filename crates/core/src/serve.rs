//! The serving scenario: the building as a population-scale server.
//!
//! The paper closes by arguing a NOW can serve an entire campus. This
//! module runs that claim: [`NowCluster::run_serve`] drives the
//! open-loop population workload of [`now_cache::ServeComponent`] over
//! the cluster's live fabric — front-end workstations on the first nodes,
//! the file server on the last — and reports tail latency from a
//! streaming [`QuantileSketch`](now_probe::QuantileSketch) instead of a
//! raw sample buffer.
//!
//! Observation memory is bounded by construction, whatever the
//! population: the sketch is O(buckets), causal tracing samples one
//! request chain in N into a capacity-bounded log, and the flight
//! recorder downsamples into a fixed window budget. The run reports its
//! own observation footprint (`probe.observation_bytes`), so the bound is
//! measured, not asserted.

use now_am::BatchConfig;
use now_cache::{ServeComponent, ServeConfig, ServeEvent};
use now_probe::{Probe, QuantileSketch};
use now_sim::{ComponentId, Engine, SimTime};

use crate::cluster::NowCluster;
use crate::harness::{
    self, fabric_transport, Accounting, RecorderEvent, Recording, ScenarioObservations,
    ScenarioObserver, Workload,
};

/// Events of the serving engine: the workload plus the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeScenarioEvent {
    /// A serving-workload event ([`ServeComponent`]).
    Serve(ServeEvent),
    /// A flight-recorder sampling tick (observed runs only).
    Record(RecorderEvent),
}

now_sim::event_cast!(ServeScenarioEvent {
    Serve(ServeEvent),
    Record(RecorderEvent),
});

/// Parameters of one serving run (see [`NowCluster::run_serve`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// The workload: population, think times, catalog, caches, horizon.
    pub config: ServeConfig,
    /// Front-end workstations, placed on nodes `0..front_ends`; the
    /// server takes the last node.
    pub front_ends: usize,
    /// Ignored: the whole population lives in one event-coupled
    /// [`ServeComponent`] (every request contends for the same server
    /// cache and fabric), so there is no event-closed cut to shard along
    /// and the run is serial at any value.
    pub partitions: u32,
    /// Active-message batching knobs for the serving fabric (the default
    /// zero quantum is batching off, byte-identical to the classic path).
    pub am_batch: BatchConfig,
}

/// The gauges the serving flight recorder samples, in column order.
const SERVE_RECORDED_GAUGES: [&str; 6] = [
    "serve.requests",
    "serve.mean_ms",
    "serve.local_hits",
    "serve.server_hits",
    "serve.disk_reads",
    "net.queue_wait_us",
];

/// Outcome of one serving run: counts, streaming tail latency, and the
/// memory self-accounting that backs the "observation stays bounded"
/// claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Requests issued before the horizon.
    pub requests: u64,
    /// Requests completed (equals `requests`: in-flight work drains).
    pub completed: u64,
    /// Requests served from a front-end's own cache.
    pub local_hits: u64,
    /// Requests served from the server's memory.
    pub server_hits: u64,
    /// Requests that paid a server disk read.
    pub disk_reads: u64,
    /// The streaming latency sketch (nanosecond samples).
    pub sketch: QuantileSketch,
    /// Raw latencies in nanoseconds when the config's test-only
    /// `retain_exact` was set; empty otherwise.
    pub exact_latencies: Vec<u64>,
    /// Approximate footprint of everything observing the run: sketch +
    /// causal log + flight-recorder series. Also published as the
    /// `probe.observation_bytes` gauge.
    pub observation_bytes: usize,
    /// Causal records retained (0 without a causal log).
    pub causal_records: usize,
    /// Causal records dropped at the log's capacity bound.
    pub causal_dropped: u64,
}

impl ServeOutcome {
    /// Latency quantile in milliseconds (`None` before any completion).
    pub fn latency_ms(&self, p: f64) -> Option<f64> {
        Some(self.sketch.quantile(p)? / 1e6)
    }

    /// Mean latency in milliseconds (`None` before any completion).
    pub fn mean_ms(&self) -> Option<f64> {
        Some(self.sketch.mean()? / 1e6)
    }
}

/// One serving run as the harness sees it: the whole population in one
/// [`ServeComponent`], front-ends on the first nodes, the server last.
struct Serve<'a> {
    cluster: &'a NowCluster,
    spec: &'a ServeSpec,
}

impl Workload for Serve<'_> {
    type Event = ServeScenarioEvent;
    type Ids = ComponentId;
    type Outcome = ServeOutcome;

    fn engine(&self, probe: &Probe) -> Engine<ServeScenarioEvent> {
        Engine::with_transport(fabric_transport(self.cluster, self.spec.am_batch, probe))
    }

    fn register(&self, engine: &mut Engine<ServeScenarioEvent>, probe: &Probe) -> ComponentId {
        let mut serve = ServeComponent::new(
            self.spec.config.clone(),
            (0..self.spec.front_ends as u32).collect(),
            self.cluster.nodes() - 1,
        );
        serve.set_probe(probe);
        let id = engine.register(serve);
        engine.schedule_at(
            id,
            SimTime::ZERO,
            ServeScenarioEvent::Serve(ServeEvent::Arrival),
        );
        id
    }

    fn component_names(&self) -> Vec<&'static str> {
        vec!["serve"]
    }

    fn marks(&self) -> &'static [(&'static str, &'static str)] {
        &[("serve", "serve.done")]
    }

    fn recorder(&self, probe: &Probe) -> Recording {
        Recording {
            probe: probe.clone(),
            gauges: &SERVE_RECORDED_GAUGES,
            batch: self.spec.am_batch,
            horizon: self.spec.config.horizon,
        }
    }

    fn outcome(
        &self,
        engine: &Engine<ServeScenarioEvent>,
        id: ComponentId,
        acct: &Accounting<'_>,
    ) -> ServeOutcome {
        let serve = engine.component::<ServeComponent>(id);
        ServeOutcome {
            requests: serve.requests(),
            completed: serve.completed(),
            local_hits: serve.local_hits(),
            server_hits: serve.server_hits(),
            disk_reads: serve.disk_reads(),
            sketch: serve.sketch().clone(),
            exact_latencies: serve.exact_latencies().to_vec(),
            observation_bytes: acct.publish_observation_bytes(serve.observation_bytes()),
            causal_records: acct.causal_records,
            causal_dropped: acct.causal_dropped,
        }
    }
}

impl NowCluster {
    /// Runs the open-loop population serving workload on this cluster's
    /// fabric, unobserved (sketch only, no causal log, no recorder).
    ///
    /// # Panics
    ///
    /// Panics if the cluster has fewer than `front_ends + 1` nodes.
    pub fn run_serve(&self, spec: &ServeSpec) -> ServeOutcome {
        self.run_serve_observed(spec, &ScenarioObserver::disabled())
            .0
    }

    /// [`run_serve`](Self::run_serve) plus whatever `observer` watches:
    /// the probe's gauges, 1-in-N sampled causal chains, and the flight
    /// recorder (windowed when [`ScenarioObserver::window_budget`] is
    /// set). The simulated history is identical whatever the observer
    /// watches — observation never feeds back into event timing.
    ///
    /// # Panics
    ///
    /// Panics like [`run_serve`](Self::run_serve).
    pub fn run_serve_observed(
        &self,
        spec: &ServeSpec,
        observer: &ScenarioObserver,
    ) -> (ServeOutcome, ScenarioObservations) {
        let n = self.nodes();
        let front_ends = spec.front_ends;
        assert!(
            (front_ends as u32) < n,
            "serving needs {front_ends} front-ends + server; only {n} nodes"
        );
        harness::run(
            &Serve {
                cluster: self,
                spec,
            },
            observer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Interconnect;
    use crate::harness::tests::assert_fanout_matches_serial;
    use std::sync::Arc;

    use now_cache::ThinkTime;
    use now_probe::causal::CausalLog;
    use now_probe::Registry;
    use now_sim::SimDuration;

    fn cluster() -> NowCluster {
        NowCluster::builder()
            .nodes(16)
            .interconnect(Interconnect::AtmActiveMessages)
            .build()
    }

    fn spec(population: u64) -> ServeSpec {
        ServeSpec {
            config: ServeConfig {
                population,
                think: ThinkTime::Exponential { mean_ms: 10_000.0 },
                catalog_objects: 1_024,
                zipf_theta: 0.9,
                client_blocks: 64,
                server_blocks: 256,
                object_bytes: 8_192,
                costs: now_cache::AccessCosts::paper_defaults(),
                horizon: SimTime::from_millis(250),
                seed: 11,
                retain_exact: false,
            },
            front_ends: 8,
            partitions: 1,
            am_batch: BatchConfig::disabled(),
        }
    }

    fn observer() -> ScenarioObserver {
        ScenarioObserver {
            probe: Registry::new().probe(),
            causal: Some(Arc::new(CausalLog::with_capacity(4_096))),
            sample_every: Some(SimDuration::from_millis(1)),
            trace_sample_every: 32,
            window_budget: Some(16),
            profile: true,
        }
    }

    #[test]
    fn serve_runs_and_reports_tail_latency() {
        let out = cluster().run_serve(&spec(50_000));
        assert!(
            out.requests > 100,
            "expected real load, got {}",
            out.requests
        );
        assert_eq!(out.completed, out.requests);
        assert_eq!(
            out.local_hits + out.server_hits + out.disk_reads,
            out.requests
        );
        let p50 = out.latency_ms(0.5).unwrap();
        let p99 = out.latency_ms(0.99).unwrap();
        let p999 = out.latency_ms(0.999).unwrap();
        assert!(p50 <= p99 && p99 <= p999, "{p50} <= {p99} <= {p999}");
        assert!(p50 > 0.0);
    }

    #[test]
    fn observed_serve_bounds_every_observation_structure() {
        let (out, obs) = cluster().run_serve_observed(&spec(50_000), &observer());
        assert!(out.causal_records > 0, "sampled chains must be recorded");
        assert!(obs.windowed.len() <= 16, "window budget must hold");
        assert!(
            obs.timeseries.is_empty(),
            "samples went to the windowed series"
        );
        let (_, blame) = &obs.blame[0];
        assert!(blame.total > SimDuration::ZERO);
        assert!(out.observation_bytes > 0);
        assert!(
            out.observation_bytes < 2 * 1024 * 1024,
            "observation must stay small: {} bytes",
            out.observation_bytes
        );
        let profile = obs.profile.expect("the observer asked for profiling");
        assert!(profile.events > 0);
        let serve = profile
            .components
            .iter()
            .find(|c| c.label == "serve")
            .expect("the serve component dispatched events");
        assert!(serve.events > 0);
    }

    #[test]
    fn observation_never_changes_the_simulated_history() {
        let unobserved = cluster().run_serve(&spec(30_000));
        let (observed, _) = cluster().run_serve_observed(&spec(30_000), &observer());
        assert_eq!(observed.requests, unobserved.requests);
        assert_eq!(observed.completed, unobserved.completed);
        assert_eq!(observed.local_hits, unobserved.local_hits);
        assert_eq!(observed.disk_reads, unobserved.disk_reads);
        assert_eq!(observed.sketch, unobserved.sketch);
    }

    #[test]
    fn trace_sampling_rate_only_scales_the_log() {
        let mk = |every: u64| {
            let log = Arc::new(CausalLog::new());
            let obs = ScenarioObserver {
                probe: Probe::disabled(),
                causal: Some(Arc::clone(&log)),
                sample_every: None,
                trace_sample_every: every,
                window_budget: None,
                profile: false,
            };
            let (out, _) = cluster().run_serve_observed(&spec(30_000), &obs);
            (out, log.len())
        };
        let (dense_out, dense_len) = mk(1);
        let (sparse_out, sparse_len) = mk(64);
        assert_eq!(dense_out.sketch, sparse_out.sketch, "history unchanged");
        assert!(
            sparse_len * 16 < dense_len,
            "1-in-64 sampling must shrink the log: {sparse_len} vs {dense_len}"
        );
    }

    #[test]
    fn the_recorder_never_moves_which_chains_are_sampled() {
        let blame = |sample_every: Option<SimDuration>| {
            let observer = ScenarioObserver {
                probe: Registry::new().probe(),
                causal: Some(Arc::new(CausalLog::with_capacity(4_096))),
                sample_every,
                trace_sample_every: 32,
                window_budget: None,
                profile: false,
            };
            cluster()
                .run_serve_observed(&spec(30_000), &observer)
                .1
                .blame
        };
        let recorded = blame(Some(SimDuration::from_millis(1)));
        assert!(!recorded.is_empty(), "a sampled chain must be blamed");
        assert_eq!(recorded, blame(None));
    }

    #[test]
    fn parallel_fanout_matches_serial() {
        let populations = [20_000u64, 40_000, 80_000].map(spec);
        assert_fanout_matches_serial(populations.to_vec(), NowCluster::run_serve_observed);
    }

    #[test]
    #[should_panic(expected = "only 4 nodes")]
    fn undersized_cluster_is_rejected() {
        NowCluster::builder()
            .nodes(4)
            .build()
            .run_serve(&spec(10_000));
    }
}
