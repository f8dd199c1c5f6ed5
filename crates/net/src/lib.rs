//! # now-net — the interconnect substrate of the simulated NOW
//!
//! *A Case for NOW* turns on one technological claim: switched local-area
//! networks with low-overhead software put another workstation's memory an
//! order of magnitude closer than any disk, and make a building of
//! workstations behave like an MPP. This crate models the networks the
//! paper measures, at the granularity its arguments need:
//!
//! * [`SharedBus`] — 10-Mbps shared Ethernet: every transfer serialises on
//!   one medium, so aggregate bandwidth does not scale with nodes.
//! * [`SwitchedFabric`] — ATM / FDDI / Myrinet / MPP networks: each node
//!   owns its link, transfers between distinct pairs proceed in parallel,
//!   and only per-link occupancy causes queueing.
//! * [`SoftwareCosts`] — the processor-overhead side: kernel TCP vs PVM vs
//!   user-level Active Messages. The paper's point is that this term, not
//!   bandwidth, dominates real communication performance.
//! * [`Network`] — a fabric plus a stack plus NIC placement, exposing one
//!   call ([`Network::transfer`]) that accounts wire occupancy and CPU
//!   overhead; every higher-level simulator (paging, caching, scheduling)
//!   goes through it. `Network` is also the simulation engine's
//!   [`now_sim::Transport`]: an engine built with
//!   [`now_sim::Engine::with_transport`] over a network prices every
//!   component's traffic on its shared occupancy state.
//! * [`LogP`] — the four-parameter abstract model (latency, overhead, gap,
//!   processors) that the Berkeley group used to reason about these
//!   networks; convertible from any [`Network`] preset.
//!
//! # Example
//!
//! The in-text measurement this crate reproduces: on the same hosts, TCP
//! over 155-Mbps ATM is *slower* for small messages than TCP over 10-Mbps
//! Ethernet, because fixed overhead went up:
//!
//! ```
//! use now_net::{Network, presets};
//!
//! let mut eth = presets::tcp_ethernet(4);
//! let mut atm = presets::tcp_atm(4);
//! let t_eth = eth.one_way_small_message_us();
//! let t_atm = atm.one_way_small_message_us();
//! assert!(t_atm > t_eth, "ATM {t_atm}µs vs Ethernet {t_eth}µs");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod logp;
mod network;
mod stack;
mod topology;
mod transport;

pub mod presets;

pub use fabric::{Fabric, SharedBus, SwitchedFabric, WireTiming};
pub use logp::LogP;
pub use network::{Network, NicAttachment, TransferOutcome};
pub use stack::SoftwareCosts;
pub use topology::HierarchicalFabric;

use serde::{Deserialize, Serialize};

/// Identifies a workstation (node) within one simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}
