//! Engine transports backed by the live `now-net` fabric models.
//!
//! The simulation engine ([`now_sim::Engine`]) charges remote traffic
//! through the [`Transport`] trait. These implementations close the loop
//! with the `now-net` crate: every transfer runs through a real fabric
//! model — occupancy, queue wait, and (for [`CsmaTransport`]) CSMA/CD
//! collisions — so components that share one transport contend with each
//! other exactly as the paper argues NOW subsystems must.

use std::collections::HashMap;

use now_net::{CsmaBus, Fabric, Network, NicAttachment, NodeId, SoftwareCosts};
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
/// let delivered = t.transfer(0, 5, 8_192, SimTime::ZERO);
/// assert!(delivered > SimTime::ZERO);
/// // Local copies are free: no fabric involved.
/// assert_eq!(t.transfer(3, 3, 8_192, SimTime::ZERO), SimTime::ZERO);
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
    fn transfer(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> SimTime {
        self.transfer_detailed(src, dst, bytes, now).delivered
    }

    fn transfer_detailed(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> TransferCost {
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

/// A [`Transport`] over a raw CSMA/CD Ethernet bus: the baseline NOW's
/// shared medium, where arbitration and collisions — not just
/// serialisation — eat the budget as stations contend.
///
/// Software stack and NIC costs are charged around the wire exactly as
/// [`Network::transfer`] charges them, so the two transports differ only
/// in the fabric model.
#[derive(Debug, Clone)]
pub struct CsmaTransport {
    bus: CsmaBus,
    stack: SoftwareCosts,
    nic: NicAttachment,
}

impl CsmaTransport {
    /// Builds a transport over classic 10-Mbps Ethernet with the given
    /// software stack and NIC attachment.
    pub fn new(bus: CsmaBus, stack: SoftwareCosts, nic: NicAttachment) -> Self {
        CsmaTransport { bus, stack, nic }
    }

    /// Collisions burned on the bus so far.
    pub fn collisions(&self) -> u64 {
        self.bus.collisions()
    }

    /// Frames carried so far.
    pub fn frames(&self) -> u64 {
        self.bus.frames()
    }
}

impl Transport for CsmaTransport {
    fn transfer(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> SimTime {
        self.transfer_detailed(src, dst, bytes, now).delivered
    }

    fn transfer_detailed(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> TransferCost {
        if src == dst {
            return TransferCost::free(now);
        }
        let send_cpu = self.stack.send_cost(bytes) + self.nic.extra_overhead();
        let recv_cpu = self.stack.recv_cost(bytes) + self.nic.extra_overhead();
        let wire_request = now + send_cpu;
        let timing = self
            .bus
            .transfer(NodeId(src), NodeId(dst), bytes, wire_request);
        TransferCost {
            delivered: timing.rx_done + recv_cpu,
            overhead: send_cpu + recv_cpu,
            wait: timing.tx_start.saturating_since(wire_request),
            wire: timing.rx_done.saturating_since(timing.tx_start),
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

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for BatchingTransport<T> {
    fn transfer(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> SimTime {
        self.transfer_detailed(src, dst, bytes, now).delivered
    }

    fn transfer_detailed(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> TransferCost {
        if !self.config.enabled() || src == dst {
            return self.inner.transfer_detailed(src, dst, bytes, now);
        }
        let cost = self.inner.transfer_detailed(src, dst, bytes, now);
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
        assert_eq!(t.transfer(1, 2, 4_096, SimTime::ZERO), expect);
    }

    #[test]
    fn local_transfers_are_free_on_both_transports() {
        let mut f = FabricTransport::new(presets::am_atm(4));
        let mut c = CsmaTransport::new(
            CsmaBus::ethernet_10(4, 1),
            SoftwareCosts::tcp_kernel(),
            NicAttachment::IoBus,
        );
        let now = SimTime::from_micros(7);
        assert_eq!(Transport::transfer(&mut f, 2, 2, 1 << 20, now), now);
        assert_eq!(Transport::transfer(&mut c, 2, 2, 1 << 20, now), now);
    }

    #[test]
    fn detailed_breakdown_partitions_delivery_time() {
        let mut t = FabricTransport::new(presets::am_atm(8));
        // Uncontended reference cost first.
        let quiet = t.transfer_detailed(4, 5, 8_192, SimTime::ZERO);
        assert_eq!(SimTime::ZERO + quiet.total(), quiet.delivered);
        // Load the path to node 1 so a follow-up transfer contends.
        t.transfer(0, 1, 1 << 20, SimTime::ZERO);
        let now = SimTime::from_micros(1);
        let cost = t.transfer_detailed(0, 1, 8_192, now);
        assert_eq!(now + cost.total(), cost.delivered, "pieces partition");
        assert!(cost.overhead > SimDuration::ZERO);
        assert!(cost.wire > SimDuration::ZERO);
        assert!(
            cost.wait + cost.wire > quiet.wait + quiet.wire,
            "contention must show up in the wait/wire terms, \
             not vanish from the breakdown"
        );

        let mut c = CsmaTransport::new(
            CsmaBus::ethernet_10(4, 1),
            SoftwareCosts::tcp_kernel(),
            NicAttachment::IoBus,
        );
        let cost = c.transfer_detailed(0, 1, 1_024, SimTime::ZERO);
        assert_eq!(SimTime::ZERO + cost.total(), cost.delivered);
    }

    #[test]
    fn csma_contention_grows_collisions() {
        let mut t = CsmaTransport::new(
            CsmaBus::ethernet_10(8, 11),
            SoftwareCosts::am_hpam(),
            NicAttachment::IoBus,
        );
        let mut now = SimTime::ZERO;
        for i in 0..500u32 {
            // Offered essentially back-to-back: arbitration must kick in.
            now += SimDuration::from_nanos(u64::from(i));
            Transport::transfer(&mut t, i % 8, (i + 1) % 8, 200, now);
        }
        assert_eq!(t.frames(), 500);
        assert!(t.collisions() > 0, "saturated CSMA must collide");
    }
}
