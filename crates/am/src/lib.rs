//! # now-am — Active Messages on the simulated NOW
//!
//! Active Messages (von Eicken et al., ISCA 1992) is the lean communication
//! layer the paper credits with cutting software overhead by an order of
//! magnitude: each message names a user-level handler that runs on arrival,
//! the user talks to the network interface directly, and the protocol is a
//! simple request/reply pair with sender-managed retry.
//!
//! This crate implements the protocol faithfully enough that the paper's
//! *systems* arguments can be exercised, not just its microbenchmarks:
//!
//! * **Request/reply with credits** — each sender holds a fixed number of
//!   credits per destination; a request consumes one, the reply returns it.
//!   A sender out of credits queues locally (it "stalls"), which is exactly
//!   the mechanism behind Figure 4's Column benchmark pathology.
//! * **Receiver buffering** — a message arriving while the destination
//!   process is descheduled is buffered; when the bounded buffer overflows
//!   the message is dropped and recovered by the sender's timeout. This is
//!   the coupling between communication and *coscheduling* that Figure 4
//!   measures.
//! * **Timeout, retry, and duplicate suppression** — messages may be lost
//!   (a configurable probability) or dropped; senders retransmit up to a
//!   bound; receivers deduplicate so handlers run exactly once.
//!
//! The layer runs inside a deterministic discrete-event simulation
//! ([`ActiveMessages::advance`] steps it) and accounts CPU overhead and
//! wire occupancy through [`now_net::Network`].
//!
//! # Example
//!
//! ```
//! use now_am::{ActiveMessages, AmConfig, Notification};
//! use now_net::{presets, NodeId};
//! use now_sim::SimTime;
//!
//! let net = presets::am_atm(4);
//! let mut am = ActiveMessages::new(net, AmConfig::default(), 1);
//! let id = am.request_at(SimTime::ZERO, NodeId(0), NodeId(1), 64);
//! let mut delivered = false;
//! while let Some(n) = am.advance() {
//!     if let Notification::RequestDelivered { id: got, .. } = n {
//!         assert_eq!(got, id);
//!         delivered = true;
//!     }
//! }
//! assert!(delivered);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod bulk;
mod layer;
mod transport;

pub use bench::{
    bandwidth_sweep, batched_hotspot_rate, hotspot_throughput, ping_pong, BenchPoint, RatePoint,
};
pub use bulk::{barrier, broadcast, bulk_put, bulk_put_probed, BulkOutcome, FRAGMENT_BYTES};
pub use layer::{ActiveMessages, AmConfig, AmStats, BatchConfig, MsgId, Notification};
pub use transport::BatchingTransport;
