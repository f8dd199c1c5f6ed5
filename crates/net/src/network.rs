//! The [`Network`]: fabric + protocol stack + NIC placement, as one
//! accountable transfer primitive.

use now_probe::Probe;
use now_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::fabric::Fabric;
use crate::{HierarchicalFabric, LogP, NodeId, SharedBus, SoftwareCosts, SwitchedFabric};

/// Where the network interface attaches to the node — one of the design
/// dimensions the Berkeley project evaluated (PCI/I/O bus, graphics bus, or
/// memory bus). Closer to the processor means less overhead per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NicAttachment {
    /// Standard peripheral I/O bus (SBus/ISA-era): cheapest, slowest path.
    IoBus,
    /// Graphics bus, as in the Medusa FDDI prototype: much closer.
    GraphicsBus,
    /// Processor-memory bus, as on MPP nodes: closest.
    MemoryBus,
}

impl NicAttachment {
    /// Extra fixed CPU cost per message crossing this attachment point.
    pub fn extra_overhead(self) -> SimDuration {
        match self {
            NicAttachment::IoBus => SimDuration::from_micros(30),
            NicAttachment::GraphicsBus => SimDuration::from_micros(1),
            NicAttachment::MemoryBus => SimDuration::from_nanos(300),
        }
    }
}

/// The two fabric families, type-erased for storage inside [`Network`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum FabricKind {
    Shared(SharedBus),
    Switched(SwitchedFabric),
    Hierarchical(HierarchicalFabric),
}

impl FabricKind {
    fn as_fabric(&self) -> &dyn Fabric {
        match self {
            FabricKind::Shared(f) => f,
            FabricKind::Switched(f) => f,
            FabricKind::Hierarchical(f) => f,
        }
    }
}

/// Complete accounting for one message transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferOutcome {
    /// CPU time consumed at the sender (overhead: unavailable for
    /// computation).
    pub send_cpu: SimDuration,
    /// CPU time consumed at the receiver on delivery.
    pub recv_cpu: SimDuration,
    /// When the sender's CPU is free again (it can overlap the wire time).
    pub sender_free_at: SimTime,
    /// When the first byte hit the wire. The gap between `sender_free_at`
    /// and this is contention wait: the NIC had the message but the fabric
    /// was busy with competing traffic.
    pub wire_start: SimTime,
    /// When the last byte reaches the receiver's NIC.
    pub wire_done_at: SimTime,
    /// When the receiving *process* has the data (wire + receive overhead).
    pub delivered_at: SimTime,
}

impl TransferOutcome {
    /// End-to-end one-way time from the request.
    pub fn one_way(&self, requested_at: SimTime) -> SimDuration {
        self.delivered_at.saturating_since(requested_at)
    }
}

/// A simulated cluster interconnect: a wire fabric, a software stack, and a
/// NIC attachment point.
///
/// All the higher-level NOW subsystems (remote paging, cooperative caching,
/// RAID striping, parallel jobs) move their bytes through
/// [`Network::transfer`], so contention between subsystems is modelled for
/// free: they share the same occupancy state.
///
/// # Example
///
/// ```
/// use now_net::{presets, NodeId};
/// use now_sim::SimTime;
///
/// let mut net = presets::am_atm(16);
/// let out = net.transfer(NodeId(0), NodeId(9), 8_192, SimTime::ZERO);
/// assert!(out.delivered_at > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    fabric: FabricKind,
    stack: SoftwareCosts,
    nic: NicAttachment,
    /// Telemetry tap; disabled by default and free when disabled. Probes
    /// compare equal regardless of state, so this does not affect the
    /// derived `PartialEq`.
    probe: Probe,
}

impl Network {
    /// Builds a network from a shared-bus fabric.
    pub fn shared(fabric: SharedBus, stack: SoftwareCosts, nic: NicAttachment) -> Self {
        Network {
            fabric: FabricKind::Shared(fabric),
            stack,
            nic,
            probe: Probe::disabled(),
        }
    }

    /// Builds a network from a switched fabric.
    pub fn switched(fabric: SwitchedFabric, stack: SoftwareCosts, nic: NicAttachment) -> Self {
        Network {
            fabric: FabricKind::Switched(fabric),
            stack,
            nic,
            probe: Probe::disabled(),
        }
    }

    /// Builds a network from a two-level building fabric.
    pub fn hierarchical(
        fabric: HierarchicalFabric,
        stack: SoftwareCosts,
        nic: NicAttachment,
    ) -> Self {
        Network {
            fabric: FabricKind::Hierarchical(fabric),
            stack,
            nic,
            probe: Probe::disabled(),
        }
    }

    /// Number of attached nodes.
    pub fn nodes(&self) -> u32 {
        self.fabric.as_fabric().nodes()
    }

    /// The software stack in use.
    pub fn stack(&self) -> SoftwareCosts {
        self.stack
    }

    /// The NIC attachment point.
    pub fn nic(&self) -> NicAttachment {
        self.nic
    }

    /// Attaches a telemetry probe. Every subsequent [`Network::transfer`]
    /// bumps the `net.transfers` / `net.bytes` counters and records the
    /// `net.queue_wait.ns` and `net.wire.ns` histograms.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Moves `bytes` from `src` to `dst`, requested at `now`, accounting
    /// CPU overhead and wire occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either node is out of range (see
    /// [`Fabric::transfer`]).
    #[inline]
    pub fn transfer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
    ) -> TransferOutcome {
        let send_cpu = self.stack.send_cost(bytes) + self.nic.extra_overhead();
        let recv_cpu = self.stack.recv_cost(bytes) + self.nic.extra_overhead();
        // The NIC gets the message after send-side software runs.
        let wire_request = now + send_cpu;
        // A static call to the concrete fabric, not a `dyn Fabric` one.
        let timing = match &mut self.fabric {
            FabricKind::Shared(f) => f.transfer(src, dst, bytes, wire_request),
            FabricKind::Switched(f) => f.transfer(src, dst, bytes, wire_request),
            FabricKind::Hierarchical(f) => f.transfer(src, dst, bytes, wire_request),
        };
        if self.probe.is_enabled() {
            let queue_wait = timing.tx_start.saturating_since(wire_request);
            self.probe.count("net.transfers", 1);
            self.probe.count("net.bytes", bytes);
            self.probe.record("net.queue_wait.ns", queue_wait);
            self.probe.record(
                "net.wire.ns",
                timing.rx_done.saturating_since(timing.tx_start),
            );
            // Last-observed contention wait, sampled by the flight
            // recorder as a fabric-occupancy signal.
            self.probe
                .gauge_set("net.queue_wait_us", queue_wait.as_micros_f64());
            // Utilization ledgers: the sender's NIC is busy running the
            // software stack, its link direction while clocking bytes
            // out, and the receiver's link direction for the same
            // serialization window ending at delivery.
            self.probe
                .busy(&format!("net.nic.{}", src.0), now, wire_request);
            self.probe.busy(
                &format!("net.link.tx.{}", src.0),
                timing.tx_start,
                timing.tx_done,
            );
            let rx_window = timing.tx_done.saturating_since(timing.tx_start);
            self.probe.busy(
                &format!("net.link.rx.{}", dst.0),
                SimTime::from_nanos(
                    timing
                        .rx_done
                        .as_nanos()
                        .saturating_sub(rx_window.as_nanos()),
                ),
                timing.rx_done,
            );
        }
        TransferOutcome {
            send_cpu,
            recv_cpu,
            sender_free_at: wire_request,
            wire_start: timing.tx_start,
            wire_done_at: timing.rx_done,
            delivered_at: timing.rx_done + recv_cpu,
        }
    }

    /// One-way time for a minimal (64-byte) message on an idle network,
    /// in microseconds — the paper's headline comparison metric.
    ///
    /// Leaves occupancy state untouched.
    pub fn one_way_small_message_us(&mut self) -> f64 {
        let saved = self.clone();
        self.probe = Probe::disabled(); // measurement traffic is not telemetry
        let far = SimTime::from_secs(1_000_000); // idle by then
        let out = self.transfer(NodeId(0), NodeId(1), 64, far);
        *self = saved;
        out.one_way(far).as_micros_f64()
    }

    /// Achieved bandwidth for back-to-back transfers of `bytes`-byte
    /// messages, in megabits per second. Leaves occupancy state untouched.
    pub fn bandwidth_at_mbps(&mut self, bytes: u64, messages: u32) -> f64 {
        assert!(messages > 0, "need at least one message");
        let saved = self.clone();
        self.probe = Probe::disabled(); // measurement traffic is not telemetry
        let start = SimTime::from_secs(1_000_000);
        let mut t = start;
        let mut last_delivery = start;
        for _ in 0..messages {
            let out = self.transfer(NodeId(0), NodeId(1), bytes, t);
            // Next send can start when the sender's CPU frees.
            t = out.sender_free_at;
            last_delivery = out.delivered_at;
        }
        *self = saved;
        let total_bits = bytes as f64 * 8.0 * messages as f64;
        total_bits / last_delivery.saturating_since(start).as_secs_f64() / 1e6
    }

    /// The message size at which achieved bandwidth reaches half its
    /// large-message value — the "half-power point" the paper quotes (175
    /// bytes for AM vs 760/1,350 bytes for TCP variants).
    pub fn half_power_point_bytes(&mut self) -> u64 {
        let peak = self.bandwidth_at_mbps(1 << 20, 4);
        let mut lo = 1u64;
        let mut hi = 1 << 20;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.bandwidth_at_mbps(mid, 8) >= peak / 2.0 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Summarises this network as LogP parameters for a small message.
    pub fn logp(&self) -> LogP {
        let f = self.fabric.as_fabric();
        let small = 64;
        LogP {
            latency: f.base_latency()
                + SimDuration::from_secs_f64(small as f64 * 8.0 / f.link_bits_per_sec()),
            overhead: (self.stack.send_cost(small)
                + self.stack.recv_cost(small)
                + self.nic.extra_overhead() * 2)
                / 2,
            gap: SimDuration::from_secs_f64(small as f64 * 8.0 / f.link_bits_per_sec()),
            processors: f.nodes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn tcp_ethernet_one_way_matches_measured_456us() {
        // Paper: "we measured 456 µs of processor overhead plus (unloaded)
        // network latency on a single message" for TCP on Ethernet.
        let mut net = presets::tcp_ethernet(4);
        let t = net.one_way_small_message_us();
        assert!((400.0..520.0).contains(&t), "got {t} µs");
    }

    #[test]
    fn tcp_atm_one_way_matches_measured_626us() {
        let mut net = presets::tcp_atm(4);
        let t = net.one_way_small_message_us();
        assert!((560.0..700.0).contains(&t), "got {t} µs");
    }

    #[test]
    fn hpam_one_way_is_about_16us() {
        // 8 µs processor overhead + 8 µs network/adapter latency.
        let mut net = presets::am_fddi(4);
        let t = net.one_way_small_message_us();
        assert!((12.0..25.0).contains(&t), "got {t} µs");
    }

    #[test]
    fn sockets_over_am_one_way_is_about_25us() {
        let mut net = presets::sockets_am_fddi(4);
        let t = net.one_way_small_message_us();
        assert!((20.0..35.0).contains(&t), "got {t} µs");
        // "nearly an order of magnitude faster than TCP... on the same
        // hardware."
        let mut tcp = presets::tcp_ethernet(4);
        assert!(tcp.one_way_small_message_us() / t > 8.0);
    }

    #[test]
    fn cm5_meets_the_10us_target_scale() {
        // The NOW target: small-message user-to-user in 10 µs; the CM-5
        // already achieves overhead+latency in that range.
        let mut net = presets::cm5(64);
        let t = net.one_way_small_message_us();
        assert!(t < 12.0, "got {t} µs");
    }

    #[test]
    fn tcp_bandwidth_on_ethernet_is_about_9mbps() {
        let mut net = presets::tcp_ethernet(4);
        let bw = net.bandwidth_at_mbps(64 * 1024, 4);
        assert!((6.0..11.0).contains(&bw), "got {bw} Mbps");
    }

    #[test]
    fn tcp_bandwidth_on_atm_is_about_78mbps() {
        let mut net = presets::tcp_atm(4);
        let bw = net.bandwidth_at_mbps(1 << 20, 4);
        assert!((60.0..95.0).contains(&bw), "got {bw} Mbps");
    }

    #[test]
    fn am_half_power_point_is_far_below_tcp() {
        // Paper: half of peak at 175-byte messages for AM vs 760 bytes for
        // single-copy TCP and 1,350 for standard TCP.
        let mut am = presets::am_fddi(4);
        let mut sc_tcp = presets::single_copy_tcp_fddi(4);
        let mut tcp = presets::tcp_ethernet(4);
        let am_hp = am.half_power_point_bytes();
        let sc_hp = sc_tcp.half_power_point_bytes();
        let tcp_hp = tcp.half_power_point_bytes();
        assert!(am_hp < 400, "AM half-power {am_hp}");
        assert!(sc_hp > am_hp, "single-copy TCP {sc_hp} vs AM {am_hp}");
        assert!((400..4_000).contains(&sc_hp), "single-copy TCP {sc_hp}");
        // Standard TCP on Ethernet is wire-limited, not overhead-limited,
        // so compare it on the same FDDI wire instead (paper: 1,350 bytes
        // for standard TCP vs 760 for single-copy).
        let mut tcp_fddi = presets::tcp_fddi(4);
        let tcp_fddi_hp = tcp_fddi.half_power_point_bytes();
        assert!(
            tcp_fddi_hp > sc_hp,
            "standard TCP {tcp_fddi_hp} vs single-copy {sc_hp}"
        );
        let _ = tcp_hp;
    }

    #[test]
    fn nic_attachment_ordering() {
        let io = NicAttachment::IoBus.extra_overhead();
        let gfx = NicAttachment::GraphicsBus.extra_overhead();
        let mem = NicAttachment::MemoryBus.extra_overhead();
        assert!(mem < gfx && gfx < io);
    }

    #[test]
    fn transfer_accounts_cpu_and_wire_separately() {
        let mut net = presets::am_atm(4);
        let out = net.transfer(NodeId(0), NodeId(1), 8_192, SimTime::ZERO);
        assert!(
            out.sender_free_at < out.wire_done_at,
            "sender overlaps wire"
        );
        assert!(
            out.delivered_at > out.wire_done_at,
            "receive overhead after wire"
        );
        assert_eq!(out.delivered_at - out.wire_done_at, out.recv_cpu);
    }

    #[test]
    fn transfers_feed_utilization_ledgers_that_telescope() {
        use now_probe::Registry;
        let r = Registry::new();
        let mut net = presets::am_atm(4);
        net.set_probe(r.probe());
        let mut t = SimTime::ZERO;
        for _ in 0..4 {
            let out = net.transfer(NodeId(0), NodeId(1), 8_192, t);
            t = out.sender_free_at;
        }
        let s = r.snapshot();
        for resource in ["net.nic.0", "net.link.tx.0", "net.link.rx.1"] {
            let u = s
                .util(resource)
                .unwrap_or_else(|| panic!("{resource} ledger missing"));
            assert!(u.busy_ns > 0, "{resource} recorded busy time");
            assert_eq!(u.busy_ns + u.idle_ns(), u.wall_ns, "{resource} telescopes");
            assert_eq!(u.intervals, 4);
        }
        // Node 1 only received: no send-side ledgers for it.
        assert!(s.util("net.nic.1").is_none());
        assert!(s.util("net.link.tx.1").is_none());
    }

    #[test]
    fn probes_do_not_disturb_occupancy() {
        let mut a = presets::am_atm(4);
        let b = a.clone();
        let _ = a.one_way_small_message_us();
        let _ = a.bandwidth_at_mbps(4_096, 4);
        let _ = a.half_power_point_bytes();
        assert_eq!(a, b, "probe methods must restore state");
    }

    #[test]
    fn logp_summary_is_consistent() {
        let net = presets::cm5(32);
        let p = net.logp();
        assert_eq!(p.processors, 32);
        assert!(p.overhead < SimDuration::from_micros(3));
        assert!(p.latency >= SimDuration::from_micros(4));
    }
}
