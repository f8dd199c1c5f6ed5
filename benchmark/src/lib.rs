//! The NOW simulator benchmark: four scenario workloads, host-time
//! end-to-end metrics, and a traced per-layer ledger. See `README.md`.

#![forbid(unsafe_code)]

pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod speed;
pub mod stats;
pub mod workloads;
