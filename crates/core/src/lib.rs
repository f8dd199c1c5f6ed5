//! # now-core — the composed Network of Workstations
//!
//! The paper's thesis is that the *composition* matters: a fast switched
//! network with low-overhead messaging turns a building of workstations
//! into one machine whose idle DRAM is your paging device, whose disks are
//! your RAID, and whose idle CPUs are your MPP. This crate is that
//! composition: a [`NowCluster`] built from the substrate crates, exposing
//! the operations the paper's scenarios need.
//!
//! | Capability | Backed by |
//! |---|---|
//! | Interconnect with occupancy + overhead accounting | `now-net`, `now-am` |
//! | Network RAM for out-of-core jobs | `now-mem` |
//! | Serverless file storage that survives failures | `now-xfs`, `now-raid` |
//! | Parallel jobs, gang scheduling, migration | `now-glunix` |
//! | Cost/performance predictions (Gator, Table 2, …) | `now-models` |
//!
//! # Quickstart
//!
//! ```
//! use now_core::{Interconnect, NowCluster};
//!
//! // A 32-node NOW on switched ATM with Active Messages.
//! let mut now = NowCluster::builder()
//!     .nodes(32)
//!     .interconnect(Interconnect::AtmActiveMessages)
//!     .build();
//!
//! // Store a file in the serverless file system and read it elsewhere.
//! let f = now.fs().create("/data/input").unwrap();
//! let block = vec![42u8; now.fs().block_bytes()];
//! now.fs().write(0, f, 0, &block).unwrap();
//! assert_eq!(&now.fs().read(17, f, 0).unwrap()[..], &block[..]);
//!
//! // Ask the analytic model how Gator would run here.
//! let prediction = now.predict_gator();
//! assert!(prediction.total_s() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod control;
mod distribute;
mod gator_sim;
mod harness;
mod scenario;
mod serve;

pub use cluster::{Interconnect, NowBuilder, NowCluster, NowError};
pub use control::{ClusterControl, ControlEvent, ControlWiring, FaultOutcome};
pub use distribute::{DistributeOutcome, DistributeScenarioEvent, DistributeSpec};
pub use gator_sim::{simulate_gator, GatorSimResult};
pub use harness::{RecorderEvent, ScenarioObservations, ScenarioObserver};
pub use scenario::{
    BspJobComponent, JobEvent, ScenarioEvent, ScenarioOutcome, ScenarioSpec, TrafficComponent,
    TrafficEvent,
};
pub use serve::{ServeOutcome, ServeScenarioEvent, ServeSpec};

// Fault scripting types, so scenario callers need not depend on
// `now-fault` directly.
pub use now_fault::{Fault, FaultPlan};

// Re-export the domain types a NowCluster hands out, so downstream users
// need only this crate for common scenarios.
pub use now_cas::{FetchStrategy, ImageCatalogSpec, DEFAULT_CHUNK_BYTES};
pub use now_glunix::cosched::{AppSpec, CommPattern, CoschedConfig, Scheduling};
pub use now_glunix::mixed::{MixedConfig, RunOutcome};
pub use now_mem::multigrid::{MemoryConfig, RunResult};
pub use now_models::gator::GatorPrediction;
pub use now_xfs::{FileId, Xfs, XfsError};
