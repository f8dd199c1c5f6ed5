//! The image-distribution scenario: cold-starting a cluster from a
//! content-addressed registry.
//!
//! The paper's serving pitch assumes workstations can be drafted into
//! the cluster quickly; the slow step in practice is shipping identical
//! software images to every node. [`NowCluster::run_distribute`] runs
//! that cold start over the cluster's live fabric: a synthetic image
//! catalog (`docker2fl`-style, shared base layer) is published on a
//! registry with a few NICs, every fetcher node holds the manifests in a
//! partial cache ([`now_cas::PartialCache`]) and pulls the missing block
//! data either registry-only ([`FetchStrategy::Registry`]) or peers-first
//! ([`FetchStrategy::Cooperative`]). On the shared fabric the
//! registry NICs saturate as fetchers are added, so the crossover where
//! cooperation wins *emerges* from contention rather than being assumed.
//!
//! Causal blame partitions the cold-start makespan into `cas.registry`,
//! `cas.peer` and `cas.disk`, the same telescoping accounting the other
//! scenarios use.

use now_am::BatchConfig;
use now_cas::{CasEvent, FetchConfig, FetchCore, FetchStrategy, ImageCatalog, ImageCatalogSpec};
use now_probe::Probe;
use now_sim::{ComponentId, Engine, SimTime};

use crate::cluster::NowCluster;
use crate::harness::{
    self, fabric_transport, Accounting, RecorderEvent, Recording, ScenarioObservations,
    ScenarioObserver, Workload,
};

/// Events of the distribution engine: the fetch strategy plus the
/// flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributeScenarioEvent {
    /// A distribution event ([`FetchCore`]).
    Cas(CasEvent),
    /// A flight-recorder sampling tick (observed runs only).
    Record(RecorderEvent),
}

now_sim::event_cast!(DistributeScenarioEvent {
    Cas(CasEvent),
    Record(RecorderEvent),
});

/// Parameters of one distribution run (see
/// [`NowCluster::run_distribute`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DistributeSpec {
    /// The image catalog to generate and publish on the registry.
    pub catalog: ImageCatalogSpec,
    /// Fetcher nodes, placed on fabric nodes `0..fetchers`; each boots
    /// image `i % images` of the catalog.
    pub fetchers: u32,
    /// Registry NICs, placed on the nodes after the fetchers.
    pub registry_nics: u32,
    /// Per-fetcher block-data budget in bytes.
    pub cache_budget: u64,
    /// Where block data comes from.
    pub strategy: FetchStrategy,
    /// Seed for the per-node download-order shuffles.
    pub seed: u64,
    /// Flight-recorder sampling horizon (observed runs only; the
    /// workload itself ends when the last fetcher finishes).
    pub horizon: SimTime,
    /// Ignored: the whole distribution lives in one event-coupled
    /// component (every fetch contends for the same registry NICs and
    /// tracker), so there is no event-closed cut to shard along and the
    /// run is serial at any value.
    pub partitions: u32,
    /// Active-message batching knobs for the distribution fabric (the
    /// default zero quantum is batching off, byte-identical to the
    /// classic path).
    pub am_batch: BatchConfig,
}

/// The gauges the distribution flight recorder samples, in column order.
const DISTRIBUTE_RECORDED_GAUGES: [&str; 6] = [
    "cas.delivered_blocks",
    "cas.registry_bytes",
    "cas.peer_bytes",
    "cas.disk_reads",
    "cas.cached_bytes",
    "net.queue_wait_us",
];

/// Outcome of one distribution run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributeOutcome {
    /// Fetcher nodes that cold-started.
    pub fetchers: u32,
    /// Images in the catalog.
    pub images: usize,
    /// Unique blocks on the registry.
    pub unique_blocks: usize,
    /// Catalog bytes before dedup (what flat tarballs would ship).
    pub logical_bytes: u64,
    /// Catalog bytes after dedup (what the registry stores).
    pub unique_bytes: u64,
    /// `logical / unique` — the catalog's dedup factor.
    pub dedup_factor: f64,
    /// When the last fetcher finished — the cold-start makespan.
    pub makespan: SimTime,
    /// Blocks served off the registry NICs.
    pub registry_blocks: u64,
    /// Payload bytes served off the registry NICs.
    pub registry_bytes: u64,
    /// Blocks served peer-to-peer.
    pub peer_blocks: u64,
    /// Payload bytes served peer-to-peer.
    pub peer_bytes: u64,
    /// Cold first-touch registry disk reads.
    pub disk_reads: u64,
    /// Tracker lookups issued (cooperative only).
    pub lookups: u64,
    /// Tracker lookups that found a holding peer.
    pub lookup_hits: u64,
    /// Partial-cache evictions under the byte budget.
    pub evictions: u64,
    /// Delivered blocks that failed hash verification (always 0).
    pub verify_failures: u64,
    /// Digest over the bytes every node received, in manifest order —
    /// strategy- and schedule-independent, content-dependent.
    pub content_digest: u64,
    /// Approximate footprint of everything observing the run.
    pub observation_bytes: usize,
    /// Causal records retained (0 without a causal log).
    pub causal_records: usize,
    /// Causal records dropped at the log's capacity bound.
    pub causal_dropped: u64,
}

impl DistributeOutcome {
    /// Cold-start makespan in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan
            .saturating_since(SimTime::ZERO)
            .as_millis_f64()
    }
}

/// One distribution run as the harness sees it: the whole cold start
/// in one fetch-strategy component.
struct Distribute<'a> {
    cluster: &'a NowCluster,
    spec: &'a DistributeSpec,
}

impl Workload for Distribute<'_> {
    type Event = DistributeScenarioEvent;
    type Ids = ComponentId;
    type Outcome = DistributeOutcome;

    fn engine(&self, probe: &Probe) -> Engine<DistributeScenarioEvent> {
        Engine::with_transport(fabric_transport(self.cluster, self.spec.am_batch, probe))
    }

    fn register(&self, engine: &mut Engine<DistributeScenarioEvent>, probe: &Probe) -> ComponentId {
        let spec = self.spec;
        let catalog = ImageCatalog::generate(&spec.catalog);
        let config = FetchConfig::new(
            spec.fetchers,
            spec.registry_nics,
            spec.cache_budget,
            spec.seed,
        );
        let mut fetch = FetchCore::new(catalog, spec.strategy, config);
        fetch.set_probe(probe);
        let id = engine.register(fetch);
        engine.schedule_at(
            id,
            SimTime::ZERO,
            DistributeScenarioEvent::Cas(CasEvent::Start),
        );
        id
    }

    fn component_names(&self) -> Vec<&'static str> {
        vec!["cas"]
    }

    fn marks(&self) -> &'static [(&'static str, &'static str)] {
        &[("distribute", "distribute.complete")]
    }

    fn recorder(&self, probe: &Probe) -> Recording {
        Recording {
            probe: probe.clone(),
            gauges: &DISTRIBUTE_RECORDED_GAUGES,
            batch: self.spec.am_batch,
            horizon: self.spec.horizon,
        }
    }

    fn outcome(
        &self,
        engine: &Engine<DistributeScenarioEvent>,
        id: ComponentId,
        acct: &Accounting<'_>,
    ) -> DistributeOutcome {
        let core = engine.component::<FetchCore>(id);
        assert!(core.complete(), "every fetcher must finish its plan");
        let stats = core.stats();
        let store_stats = core.store().stats();
        DistributeOutcome {
            fetchers: self.spec.fetchers,
            images: core.manifests().len(),
            unique_blocks: core.store().len(),
            logical_bytes: store_stats.logical_bytes,
            unique_bytes: store_stats.unique_bytes,
            dedup_factor: store_stats.dedup_factor(),
            makespan: core.makespan(),
            registry_blocks: stats.registry_blocks,
            registry_bytes: stats.registry_bytes,
            peer_blocks: stats.peer_blocks,
            peer_bytes: stats.peer_bytes,
            disk_reads: stats.disk_reads,
            lookups: stats.lookups,
            lookup_hits: stats.lookup_hits,
            evictions: stats.evictions,
            verify_failures: stats.verify_failures,
            content_digest: core.content_digest(),
            observation_bytes: acct.publish_observation_bytes(0),
            causal_records: acct.causal_records,
            causal_dropped: acct.causal_dropped,
        }
    }
}

impl NowCluster {
    /// Runs the image-distribution cold start on this cluster's fabric,
    /// unobserved (no causal log, no recorder).
    ///
    /// # Panics
    ///
    /// Panics if the cluster has fewer than `fetchers + registry_nics`
    /// nodes.
    pub fn run_distribute(&self, spec: &DistributeSpec) -> DistributeOutcome {
        self.run_distribute_observed(spec, &ScenarioObserver::disabled())
            .0
    }

    /// [`run_distribute`](Self::run_distribute) plus whatever `observer`
    /// watches: the probe's gauges, sampled causal chains, and the
    /// flight recorder. The simulated history is identical whatever the
    /// observer watches.
    ///
    /// # Panics
    ///
    /// Panics like [`run_distribute`](Self::run_distribute).
    pub fn run_distribute_observed(
        &self,
        spec: &DistributeSpec,
        observer: &ScenarioObserver,
    ) -> (DistributeOutcome, ScenarioObservations) {
        let n = self.nodes();
        assert!(
            spec.fetchers + spec.registry_nics <= n,
            "distribution needs {} fetchers + {} registry NICs; only {n} nodes",
            spec.fetchers,
            spec.registry_nics
        );
        harness::run(
            &Distribute {
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
    use std::sync::Arc;

    use crate::cluster::Interconnect;
    use crate::harness::tests::assert_fanout_matches_serial;
    use now_probe::causal::CausalLog;
    use now_probe::Registry;
    use now_sim::SimDuration;

    fn cluster() -> NowCluster {
        NowCluster::builder()
            .nodes(16)
            .interconnect(Interconnect::AtmActiveMessages)
            .build()
    }

    fn spec(strategy: FetchStrategy, fetchers: u32) -> DistributeSpec {
        DistributeSpec {
            catalog: ImageCatalogSpec::smoke(11),
            fetchers,
            registry_nics: 4,
            cache_budget: u64::MAX,
            strategy,
            seed: 11,
            horizon: SimTime::from_millis(500),
            partitions: 1,
            am_batch: BatchConfig::disabled(),
        }
    }

    fn observer() -> ScenarioObserver {
        ScenarioObserver {
            probe: Registry::new().probe(),
            causal: Some(Arc::new(CausalLog::with_capacity(1 << 16))),
            sample_every: Some(SimDuration::from_millis(1)),
            trace_sample_every: 1,
            window_budget: Some(16),
            profile: false,
        }
    }

    #[test]
    fn distribution_completes_and_dedups() {
        let out = cluster().run_distribute(&spec(FetchStrategy::Registry, 8));
        assert_eq!(out.fetchers, 8);
        assert!(out.makespan > SimTime::ZERO);
        assert!(out.dedup_factor > 1.5, "base sharing: {}", out.dedup_factor);
        assert_eq!(out.verify_failures, 0);
        assert_eq!(out.peer_blocks, 0);
    }

    #[test]
    fn strategies_deliver_identical_content() {
        let registry = cluster().run_distribute(&spec(FetchStrategy::Registry, 8));
        let coop = cluster().run_distribute(&spec(FetchStrategy::Cooperative, 8));
        assert_eq!(registry.content_digest, coop.content_digest);
        assert_eq!(coop.verify_failures, 0);
        assert!(coop.peer_blocks > 0, "peers must serve blocks");
    }

    #[test]
    fn observation_never_changes_the_simulated_history() {
        let spec = spec(FetchStrategy::Cooperative, 8);
        let unobserved = cluster().run_distribute(&spec);
        let (observed, obs) = cluster().run_distribute_observed(&spec, &observer());
        assert_eq!(observed, {
            let mut u = unobserved;
            // Observation self-accounting differs by construction.
            u.observation_bytes = observed.observation_bytes;
            u.causal_records = observed.causal_records;
            u
        });
        assert!(observed.causal_records > 0);
        let (_, blame) = &obs.blame[0];
        assert!(blame.total > SimDuration::ZERO);
    }

    #[test]
    fn parallel_fanout_matches_serial() {
        let fetchers = [2u32, 4, 8].map(|f| spec(FetchStrategy::Cooperative, f));
        assert_fanout_matches_serial(fetchers.to_vec(), NowCluster::run_distribute_observed);
    }

    #[test]
    #[should_panic(expected = "only 4 nodes")]
    fn undersized_cluster_is_rejected() {
        NowCluster::builder()
            .nodes(4)
            .build()
            .run_distribute(&spec(FetchStrategy::Registry, 8));
    }
}
