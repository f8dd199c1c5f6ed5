//! # now-mem — virtual memory and network RAM for the simulated NOW
//!
//! "Network RAM can fulfill the original promise of virtual memory": with a
//! switched LAN, paging to another workstation's idle DRAM is an order of
//! magnitude faster than paging to disk, so problems bigger than local
//! memory become *runnable* again instead of thrashing. This crate builds
//! the pieces behind that claim and behind Figure 2:
//!
//! * [`DiskModel`] — seek + rotation + transfer timing for a 1994
//!   workstation disk (the paper's 14.8 ms for an 8-KB access).
//! * [`LruCache`] — the exact-LRU cache of `now-sim`, used here for page
//!   frames and re-exported for `now-cache` and `now-xfs`.
//! * [`Pager`] — a demand pager with a bounded local frame pool backed by
//!   disk or by [`NetworkRam`], with sequential prefetch: the mechanism
//!   that lets network RAM stream pages at wire bandwidth.
//! * [`NetworkRam`] — a pool of idle machines' DRAM reachable over the
//!   interconnect, with per-page remote-access costs from Table 2 (or
//!   derived from any [`now_net::Network`]).
//! * [`multigrid`] — the iterative multigrid application model whose
//!   execution time Figure 2 plots for three memory configurations.
//!
//! # Example
//!
//! ```
//! use now_mem::multigrid::{self, MemoryConfig};
//!
//! // A 96-MB problem on a 32-MB workstation: thrashing to disk is several
//! // times slower than paging to network RAM.
//! let disk = multigrid::run(96, MemoryConfig::local32_disk()).total;
//! let netram = multigrid::run(96, MemoryConfig::local32_netram()).total;
//! assert!(disk.as_secs_f64() > 3.0 * netram.as_secs_f64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod netram;
mod pager;

pub mod multigrid;

pub use disk::DiskModel;
pub use multigrid::{MultigridComponent, PageEvent};
pub use netram::{NetworkRam, RemoteAccessCost};
pub use now_sim::{LruCache, Touch};
pub use pager::{FaultKind, FixedPath, PageId, Pager, PagerStats, RemotePath};
