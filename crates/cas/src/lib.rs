//! Content-addressed storage and cooperative image distribution for the
//! simulated NOW.
//!
//! The paper's serving story assumes workstations can be drafted into a
//! cluster quickly; in practice the cold-start cost of shipping identical
//! software images to N nodes is dominated by redundant bytes. This crate
//! models the modern answer — content addressing — end to end:
//!
//! * [`BlockStore`] — deterministic seeded chunk hashing and a
//!   deduplicating, refcounted block index;
//! * [`ImageManifest`] — flist-style manifests: the file hierarchy with
//!   every chunk named by hash, small enough to stay always-resident;
//! * [`ImageCatalog`] — a `docker2fl`-style synthetic generator whose
//!   base-layer sharing makes the dedup factor tunable and measurable;
//! * [`PartialCache`] — a per-node cache where the manifest never leaves
//!   but block data is fetched on demand and evicted LRU under a budget;
//! * [`FetchCore`] — a cold start by either distribution strategy
//!   ([`FetchStrategy`]) as an engine component, priced on the shared
//!   fabric with causal blame split into `cas.registry`, `cas.peer` and
//!   `cas.disk`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fetch;
mod image;
mod manifest;
mod store;

pub use cache::{PartialCache, PartialCacheStats};
pub use fetch::{CasEvent, FetchConfig, FetchCore, FetchStats, FetchStrategy};
pub use image::{ImageCatalog, ImageCatalogSpec};
pub use manifest::{ImageManifest, ManifestEntry};
pub use store::{BlockHash, BlockStore, DedupStats, DEFAULT_CHUNK_BYTES};
