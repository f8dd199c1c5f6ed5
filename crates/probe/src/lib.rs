//! Telemetry for the simulated NOW: counters, gauges, latency histograms,
//! simulated-time spans, and a bounded event trace, with exporters to
//! plain text, CSV, JSON, and Chrome `trace_event` JSON.
//!
//! The paper's argument rests on *internal* dynamics — where a page-fault's
//! microseconds go (Table 2), how often a cooperative cache forwards
//! instead of evicting, how many scheduling slots coscheduling actually
//! fills. This crate gives every subsystem a way to surface those dynamics
//! without changing behaviour:
//!
//! * [`Registry`] owns all instruments and the trace ring. Exports are
//!   sorted by name (and, for the trace, by a total event order), so equal
//!   seeds render byte-identical telemetry even when the workload ran on
//!   several threads.
//! * [`Probe`] is the cheap per-subsystem handle threaded through
//!   simulation code. A default-constructed probe is *disabled*: every
//!   operation is a branch on `None` and nothing allocates, so
//!   instrumented hot paths cost nothing when nobody is watching.
//! * [`Span`] measures an interval of **simulated** time
//!   ([`SimTime`](now_sim::SimTime), not wall time) and attributes it to a
//!   `(category, name)` pair; ended spans land in both a latency histogram
//!   and the trace ring.
//! * [`TraceRing`] buffers structured instant/complete events up to a
//!   fixed capacity; overflow is counted, never reallocated.
//!
//! Probes compare equal to each other regardless of state, so embedding
//! one in a simulator that derives `PartialEq` (for example
//! `now_net::Network`) does not change the simulator's identity.
//!
//! ```
//! use now_probe::Registry;
//! use now_sim::{SimDuration, SimTime};
//!
//! let registry = Registry::new();
//! let probe = registry.probe().for_node(3);
//! probe.count("am.requests", 1);
//! probe.record("net.queue_wait", SimDuration::from_micros(12));
//! let span = probe.span("mem", "fault_service", SimTime::from_micros(100));
//! span.end(SimTime::from_micros(340));
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("am.requests"), Some(1));
//! println!("{}", registry.render_text());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod histogram;
mod registry;
mod sketch;
mod trace;

pub mod causal;
pub mod diff;
pub mod recorder;
pub mod util;

pub use histogram::{bucket_bounds, bucket_index, HistogramSummary, BUCKETS};
pub use registry::{Counter, Gauge, Histogram, Probe, Registry, Snapshot, Span, Util};
pub use sketch::{QuantileSketch, DEFAULT_SKETCH_ALPHA};
pub use trace::{TraceEvent, TraceRing};
pub use util::UtilSnapshot;
