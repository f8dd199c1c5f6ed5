//! The adapter between the benchmark and the simulator.
//!
//! Every call into [`NowCluster`] lives in this file: the four workloads
//! are defined here as generated specs, and the rest of the benchmark only
//! sees [`Spec`] and [`Outcome`]. A change to the scenario entry points
//! re-points this one module.

use now_am::BatchConfig;
use now_cache::{AccessCosts, ServeConfig, ThinkTime};
use now_cas::ImageCatalogSpec;
use now_core::{
    DistributeOutcome, DistributeSpec, FetchStrategy, NowCluster, ScenarioObservations,
    ScenarioObserver, ScenarioOutcome, ScenarioSpec, ServeOutcome, ServeSpec, DEFAULT_CHUNK_BYTES,
};
use now_sim::SimTime;

use crate::speed::Loop;

/// Background-flow counts `contention` and `cells_batched` cycle through:
/// an idle fabric up to a saturated one.
const FLOWS: [u32; 5] = [0, 2, 4, 8, 16];

/// Cells of the `cells_batched` workload: 8 × 32 nodes.
const CELLS: u32 = 8;

/// Active-message flush quantum of the `cells_batched` workload, µs.
const BATCH_QUANTUM_US: u64 = 4;

/// Fetchers and registry NICs of the `distribute` workload.
const FETCHERS: u32 = 32;
const REGISTRY_NICS: u32 = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Population-scale serving: one hot component, a deep event queue.
    Serve,
    /// The coupled scenario under a background-flow sweep.
    Contention,
    /// Image distribution, registry and cooperative alternating.
    Distribute,
    /// The contention spec on 8 cells with active-message batching.
    CellsBatched,
}

impl Workload {
    /// Every workload, in the order a full invocation runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Serve,
        Workload::Contention,
        Workload::Distribute,
        Workload::CellsBatched,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Contention => "contention",
            Workload::Distribute => "distribute",
            Workload::CellsBatched => "cells_batched",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many configurations the workload cycles through: run `i` uses
    /// configuration `i % k` at seed `base + i / k`.
    pub fn configs(self) -> u64 {
        match self {
            Workload::Serve => 1,
            Workload::Contention | Workload::CellsBatched => FLOWS.len() as u64,
            Workload::Distribute => 2,
        }
    }

    /// The calibration loop shaped like the workload's dominant host work:
    /// block hashing for `distribute`, the event engine and component
    /// data structures for the rest.
    pub fn speed_loop(self) -> Loop {
        match self {
            Workload::Distribute => Loop::Chain,
            Workload::Serve | Workload::Contention | Workload::CellsBatched => Loop::Churn,
        }
    }
}

/// The generated input of one run.
#[derive(Debug, Clone)]
pub enum Spec {
    /// A serving run.
    Serve(ServeSpec),
    /// A coupled-scenario run (single- or multi-cell).
    Scenario(ScenarioSpec),
    /// An image-distribution run.
    Distribute(DistributeSpec),
}

impl Spec {
    /// The seed the spec was generated from.
    pub fn seed(&self) -> u64 {
        match self {
            Spec::Serve(s) => s.config.seed,
            Spec::Scenario(s) => s.seed,
            Spec::Distribute(s) => s.seed,
        }
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// From a serving run.
    Serve(ServeOutcome),
    /// From a coupled-scenario run.
    Scenario(ScenarioOutcome),
    /// From an image-distribution run.
    Distribute(DistributeOutcome),
}

/// A workload bound to its cluster and base seed.
#[derive(Debug)]
pub struct Bench {
    workload: Workload,
    seed: u64,
    cluster: NowCluster,
}

impl Bench {
    /// Builds the cluster `workload` runs on.
    pub fn new(workload: Workload, seed: u64) -> Bench {
        let nodes = match workload {
            Workload::Distribute => FETCHERS + REGISTRY_NICS,
            _ => 32,
        };
        Bench {
            workload,
            seed,
            cluster: NowCluster::builder().nodes(nodes).seed(seed).build(),
        }
    }

    /// The spec of run `run`.
    pub fn spec(&self, run: u64) -> Spec {
        let k = self.workload.configs();
        let seed = self.seed.wrapping_add(run / k);
        let config = (run % k) as usize;
        match self.workload {
            Workload::Serve => Spec::Serve(serve_spec(seed)),
            Workload::Contention => Spec::Scenario(contention_spec(seed, FLOWS[config], 1, 0)),
            Workload::CellsBatched => Spec::Scenario(contention_spec(
                seed,
                FLOWS[config],
                CELLS,
                BATCH_QUANTUM_US,
            )),
            Workload::Distribute => {
                let strategy = [FetchStrategy::Registry, FetchStrategy::Cooperative][config];
                Spec::Distribute(distribute_spec(seed, strategy))
            }
        }
    }

    /// Runs `spec` with nothing observing it.
    pub fn run(&self, spec: &Spec) -> Outcome {
        match spec {
            Spec::Serve(s) => Outcome::Serve(self.cluster.run_serve(s)),
            Spec::Scenario(s) => Outcome::Scenario(self.cluster.run_scenario(s)),
            Spec::Distribute(s) => Outcome::Distribute(self.cluster.run_distribute(s)),
        }
    }

    /// Runs `spec` under `observer`.
    pub fn run_observed(
        &self,
        spec: &Spec,
        observer: &ScenarioObserver,
    ) -> (Outcome, ScenarioObservations) {
        match spec {
            Spec::Serve(s) => {
                let (out, obs) = self.cluster.run_serve_observed(s, observer);
                (Outcome::Serve(out), obs)
            }
            Spec::Scenario(s) => {
                let (out, obs) = self.cluster.run_scenario_observed(s, observer);
                (Outcome::Scenario(out), obs)
            }
            Spec::Distribute(s) => {
                let (out, obs) = self.cluster.run_distribute_observed(s, observer);
                (Outcome::Distribute(out), obs)
            }
        }
    }
}

/// The single-cell runs equivalent to a multi-cell `spec`: cell `c` at
/// seed `seed + c`, same flows and batching. The host profiler only runs
/// on single-cell engines, so a multi-cell run takes its layer split from
/// these. A single-cell spec is its own equivalent.
pub fn single_cells(spec: &Spec) -> Vec<Spec> {
    match spec {
        Spec::Scenario(s) if s.cells > 1 => (0..s.cells)
            .map(|c| {
                Spec::Scenario(ScenarioSpec {
                    cells: 1,
                    seed: s.seed.wrapping_add(u64::from(c)),
                    ..s.clone()
                })
            })
            .collect(),
        other => vec![other.clone()],
    }
}

/// `spec` with its active-message flush quantum set to `quantum_us`
/// (0 turns batching off). Only scenario specs carry one here.
pub fn with_batch_quantum(spec: &Spec, quantum_us: u64) -> Spec {
    match spec {
        Spec::Scenario(s) => Spec::Scenario(ScenarioSpec {
            am_batch: BatchConfig::quantum_us(quantum_us),
            ..s.clone()
        }),
        other => other.clone(),
    }
}

/// The serving spec: 2,000,000 users with 10-second mean think times
/// (about 200k requests/s offered, open loop), Zipf 0.9 over 4,096
/// objects, 8 front-ends, a 500 ms horizon.
fn serve_spec(seed: u64) -> ServeSpec {
    ServeSpec {
        config: ServeConfig {
            population: 2_000_000,
            think: ThinkTime::Exponential { mean_ms: 10_000.0 },
            catalog_objects: 4_096,
            zipf_theta: 0.9,
            client_blocks: 256,
            server_blocks: 1_024,
            object_bytes: 8_192,
            costs: AccessCosts::paper_defaults(),
            horizon: SimTime::from_millis(500),
            seed,
            retain_exact: false,
        },
        front_ends: 8,
        partitions: 1,
        am_batch: BatchConfig::disabled(),
    }
}

/// The coupled contention spec at `flows` background flows on `cells`
/// cells, pinned to one partition.
fn contention_spec(seed: u64, flows: u32, cells: u32, batch_us: u64) -> ScenarioSpec {
    ScenarioSpec {
        background_flows: flows,
        seed,
        cells,
        partitions: 1,
        am_batch: BatchConfig::quantum_us(batch_us),
        ..ScenarioSpec::contention_default()
    }
}

/// The distribution catalog: 8 images on a 24-file shared base layer,
/// 8 app files each, 64 KiB mean file size.
pub fn catalog_spec(seed: u64) -> ImageCatalogSpec {
    ImageCatalogSpec {
        images: 8,
        base_files: 24,
        app_files: 8,
        file_bytes: 64 * 1024,
        chunk_bytes: DEFAULT_CHUNK_BYTES,
        seed,
    }
}

/// The distribution spec: 32 fetchers on 4 registry NICs with an 8 MiB
/// block budget each.
fn distribute_spec(seed: u64, strategy: FetchStrategy) -> DistributeSpec {
    DistributeSpec {
        catalog: catalog_spec(seed),
        fetchers: FETCHERS,
        registry_nics: REGISTRY_NICS,
        cache_budget: 8 * 1024 * 1024,
        strategy,
        seed,
        horizon: SimTime::from_secs(1),
        partitions: 1,
        am_batch: BatchConfig::disabled(),
    }
}
