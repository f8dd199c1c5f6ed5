//! Engine transports backed by the live `now-net` fabric models.
//!
//! The simulation engine ([`now_sim::Engine`]) charges remote traffic
//! through the [`Transport`] trait. [`FabricTransport`] closes the loop
//! with the `now-net` crate: every transfer runs through a real fabric
//! model — occupancy and queue wait — so components that share one
//! transport contend with each other exactly as the paper argues NOW
//! subsystems must. [`BatchingTransport`] amortizes per-message overhead
//! over any transport.

use std::collections::HashMap;

use now_net::{Network, NodeId};
use now_probe::Probe;
use now_sim::{IdBuildHasher, SimDuration, SimTime, TransferCost, Transport};

use crate::layer::BatchConfig;

/// A [`Transport`] that charges every transfer against one shared
/// [`Network`] — fabric occupancy, software stack, and NIC overhead
/// included.
///
/// The transport owns its network: every component of the engine that
/// holds it contends for the same occupancy state, and nothing outside
/// the engine touches it. Observe the fabric through the network's probe.
///
/// # Example
///
/// ```
/// use now_am::FabricTransport;
/// use now_net::presets;
/// use now_sim::{SimTime, Transport};
///
/// let mut t = FabricTransport::new(presets::am_atm(8));
/// let cost = t.transfer(0, 5, 8_192, SimTime::ZERO);
/// assert!(cost.delivered > SimTime::ZERO);
/// // Local copies are free: no fabric involved.
/// assert_eq!(t.transfer(3, 3, 8_192, SimTime::ZERO).delivered, SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct FabricTransport {
    net: Network,
}

impl FabricTransport {
    /// Wraps a network in a transport, taking ownership.
    pub fn new(net: Network) -> Self {
        FabricTransport { net }
    }
}

impl Transport for FabricTransport {
    fn transfer(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> TransferCost {
        if src == dst {
            return TransferCost::free(now); // local copy: the fabric is not involved
        }
        let out = self.net.transfer(NodeId(src), NodeId(dst), bytes, now);
        TransferCost {
            delivered: out.delivered_at,
            overhead: out.send_cpu + out.recv_cpu,
            wait: out.wire_start.saturating_since(now + out.send_cpu),
            wire: out.wire_done_at.saturating_since(out.wire_start),
        }
    }
}

/// One open aggregation window on a `(src, dst)` pair.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// Transfers starting before this instant may join the window.
    open_until: SimTime,
    /// Members so far (including the leader).
    msgs: u32,
    /// Payload bytes so far.
    bytes: u64,
}

/// Wraps any [`Transport`] with per-`(src, dst)` aggregation windows: the
/// *leader* transfer of each window pays the full per-message software
/// overhead `o`, and every transfer that follows within one flush quantum
/// rides the same wire launch with its overhead term zeroed — the LogP
/// amortization the paper argues for, applied at the engine's transport
/// seam so every `now-core` scenario can batch without protocol changes.
///
/// With batching disabled ([`BatchConfig::enabled`] false) every call
/// passes straight through to the inner transport, byte-identically, so
/// the wrapper can be installed unconditionally.
///
/// Joiners still run the inner model (keeping fabric occupancy and
/// determinism exact); only the reported CPU overhead is amortized, so
/// `delivered == now + wait + wire` for a joiner and
/// `delivered == now + overhead + wait + wire` for a leader.
#[derive(Debug, Clone)]
pub struct BatchingTransport<T> {
    inner: T,
    config: BatchConfig,
    probe: Probe,
    windows: HashMap<(u32, u32), Window, IdBuildHasher>,
}

impl<T> BatchingTransport<T> {
    /// Wraps `inner` with the given batching window configuration.
    pub fn new(inner: T, config: BatchConfig) -> Self {
        BatchingTransport {
            inner,
            config,
            probe: Probe::disabled(),
            windows: HashMap::default(),
        }
    }

    /// Attaches a telemetry probe: `am.batches`, `am.batched_msgs`,
    /// `am.flush_timeouts`, `am.flush_on_size` counters and the
    /// `net.batch_occupancy` gauge (members in the most recent window).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

impl<T: Transport> Transport for BatchingTransport<T> {
    fn transfer(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> TransferCost {
        if !self.config.enabled() || src == dst {
            return self.inner.transfer(src, dst, bytes, now);
        }
        let cost = self.inner.transfer(src, dst, bytes, now);
        let max_msgs = self.config.max_batch_msgs.max(1);
        let joined = match self.windows.get_mut(&(src, dst)) {
            Some(w)
                if now < w.open_until
                    && w.msgs < max_msgs
                    && w.bytes + bytes <= self.config.max_batch_bytes =>
            {
                w.msgs += 1;
                w.bytes += bytes;
                Some(w.msgs)
            }
            _ => None,
        };
        if let Some(occupancy) = joined {
            self.probe.count("am.batched_msgs", 1);
            self.probe
                .gauge_set("net.batch_occupancy", f64::from(occupancy));
            return TransferCost {
                delivered: now + cost.wait + cost.wire,
                overhead: SimDuration::ZERO,
                wait: cost.wait,
                wire: cost.wire,
            };
        }
        // Leader: pays `o` in full and opens a fresh window; the window it
        // displaces closes by timeout (expired) or by a size bound (full).
        if let Some(old) = self.windows.insert(
            (src, dst),
            Window {
                open_until: now + self.config.flush_quantum,
                msgs: 1,
                bytes,
            },
        ) {
            if now >= old.open_until {
                self.probe.count("am.flush_timeouts", 1);
            } else {
                self.probe.count("am.flush_on_size", 1);
            }
        }
        self.probe.count("am.batches", 1);
        self.probe.count("am.batched_msgs", 1);
        self.probe.gauge_set("net.batch_occupancy", 1.0);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_net::presets;
    use now_sim::SimDuration;

    #[test]
    fn fabric_transport_matches_network_arithmetic() {
        let mut net = presets::am_atm(8);
        let expect = net
            .transfer(NodeId(1), NodeId(2), 4_096, SimTime::ZERO)
            .delivered_at;
        let mut t = FabricTransport::new(presets::am_atm(8));
        assert_eq!(t.transfer(1, 2, 4_096, SimTime::ZERO).delivered, expect);
    }

    #[test]
    fn local_transfers_are_free_on_both_transports() {
        let mut f = FabricTransport::new(presets::am_atm(4));
        let now = SimTime::from_micros(7);
        assert_eq!(f.transfer(2, 2, 1 << 20, now), TransferCost::free(now));
    }

    #[test]
    fn detailed_breakdown_partitions_delivery_time() {
        let mut t = FabricTransport::new(presets::am_atm(8));
        // Uncontended reference cost first.
        let quiet = t.transfer(4, 5, 8_192, SimTime::ZERO);
        assert_eq!(SimTime::ZERO + quiet.total(), quiet.delivered);
        // Load the path to node 1 so a follow-up transfer contends.
        t.transfer(0, 1, 1 << 20, SimTime::ZERO);
        let now = SimTime::from_micros(1);
        let cost = t.transfer(0, 1, 8_192, now);
        assert_eq!(now + cost.total(), cost.delivered, "pieces partition");
        assert!(cost.overhead > SimDuration::ZERO);
        assert!(cost.wire > SimDuration::ZERO);
        assert!(
            cost.wait + cost.wire > quiet.wait + quiet.wire,
            "contention must show up in the wait/wire terms, \
             not vanish from the breakdown"
        );
    }

    /// An inner transport whose every remote transfer costs the same
    /// overhead, wait and wire, so batching's effect on the reported cost
    /// reads off exactly.
    struct FixedCost;

    const O: SimDuration = SimDuration::from_micros(2);
    const WAIT: SimDuration = SimDuration::from_micros(1);
    const WIRE: SimDuration = SimDuration::from_micros(5);

    impl Transport for FixedCost {
        fn transfer(&mut self, src: u32, dst: u32, _: u64, now: SimTime) -> TransferCost {
            if src == dst {
                return TransferCost::free(now);
            }
            TransferCost {
                delivered: now + O + WAIT + WIRE,
                overhead: O,
                wait: WAIT,
                wire: WIRE,
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Role {
        Leader,
        Joiner,
        Local,
    }

    #[test]
    fn batching_windows_join_expire_fill_and_pass_through() {
        use now_probe::Registry;
        use Role::{Joiner, Leader, Local};

        let config = BatchConfig {
            flush_quantum: SimDuration::from_micros(4),
            max_batch_bytes: 10_000,
            max_batch_msgs: 3,
        };
        // (at ns, src, dst, bytes, role) over the pairs (0, 1) and (2, 3).
        let script = [
            (0, 0, 1, 1_000, Leader),     // opens (0, 1) until 4 µs
            (1_000, 2, 3, 1_000, Leader), // opens (2, 3) until 5 µs
            (2_000, 0, 1, 1_000, Joiner),
            (3_000, 0, 1, 1_000, Joiner), // (0, 1) now holds max_batch_msgs
            (3_500, 0, 1, 1_000, Leader), // closed by the message bound
            (4_000, 2, 3, 9_500, Leader), // closed by the byte bound
            (5_000, 0, 1, 500, Joiner),
            (6_000, 4, 4, 1 << 20, Local),
            (9_000, 0, 1, 100, Leader),  // (0, 1) expired at 7.5 µs
            (12_000, 2, 3, 100, Leader), // (2, 3) expired at 8 µs
            (13_000, 2, 3, 100, Joiner),
        ];
        let registry = Registry::new();
        let mut batched = BatchingTransport::new(FixedCost, config);
        batched.set_probe(registry.probe());
        let off = Registry::new();
        let mut plain = BatchingTransport::new(FixedCost, BatchConfig::disabled());
        plain.set_probe(off.probe());
        for (at, src, dst, bytes, role) in script {
            let now = SimTime::from_nanos(at);
            let inner = FixedCost.transfer(src, dst, bytes, now);
            let cost = batched.transfer(src, dst, bytes, now);
            let expected = match role {
                Leader => inner,
                Joiner => TransferCost {
                    delivered: now + WAIT + WIRE,
                    overhead: SimDuration::ZERO,
                    wait: WAIT,
                    wire: WIRE,
                },
                Local => TransferCost::free(now),
            };
            assert_eq!(cost, expected, "{role:?} at {now:?} on ({src}, {dst})");
            assert_eq!(
                plain.transfer(src, dst, bytes, now),
                inner,
                "a disabled config passes straight through"
            );
        }

        let s = registry.snapshot();
        let batches = s.counter("am.batches").unwrap();
        let timeouts = s.counter("am.flush_timeouts").unwrap();
        let on_size = s.counter("am.flush_on_size").unwrap();
        assert_eq!((batches, timeouts, on_size), (6, 2, 2));
        assert_eq!(s.counter("am.batched_msgs"), Some(10));
        // A pair's first window displaces nothing, and a window still open
        // at the end is counted by neither flush counter: batches exceed
        // the flushes by one per pair that opened a window.
        let pairs = 2;
        assert_eq!(batches, timeouts + on_size + pairs);
        assert_eq!(s.gauge("net.batch_occupancy"), Some(2.0));
        let off = off.snapshot();
        assert!(off.counters.is_empty() && off.gauges.is_empty());
    }
}
