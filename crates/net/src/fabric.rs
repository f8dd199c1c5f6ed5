//! Wire-level fabric models: who waits for whom, and for how long.
//!
//! Both fabrics are *occupancy* models: instead of simulating individual
//! packets, each resource (the shared medium; each node's transmit and
//! receive link) remembers when it next becomes free, and a transfer
//! reserves the resources it needs. This is exact for FIFO resources and
//! lets the discrete-event simulators above treat a transfer as a single
//! event with a computed arrival time.

use now_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::NodeId;

/// When a transfer's bytes move on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireTiming {
    /// When the sender's NIC starts clocking bytes out (after any queueing).
    pub tx_start: SimTime,
    /// When the sender's link is free again for its next transfer.
    pub tx_done: SimTime,
    /// When the last byte lands in the receiver's NIC.
    pub rx_done: SimTime,
}

/// A network fabric: computes wire timing for transfers, tracking
/// occupancy.
///
/// Implementations are deterministic: the same sequence of calls yields the
/// same timings.
pub trait Fabric {
    /// Reserves the wire for a `bytes`-byte transfer from `src` to `dst`,
    /// requested at `now`, and returns its timing.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (local transfers never touch the fabric) or a
    /// node id is out of range.
    fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, now: SimTime) -> WireTiming;

    /// Number of nodes attached.
    fn nodes(&self) -> u32;

    /// Raw link bandwidth in bits per second (per link for switched
    /// fabrics, total for shared media).
    fn link_bits_per_sec(&self) -> f64;

    /// Wire propagation plus switching latency for a minimal message.
    fn base_latency(&self) -> SimDuration;
}

/// The time `bytes` take on a link of `bits_per_sec`, rounded to the
/// nanosecond.
pub(crate) fn wire_time(bytes: u64, bits_per_sec: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 * 8.0 / bits_per_sec)
}

/// Distinct transfer sizes a [`WireMemo`] remembers.
const MEMO_SIZES: usize = 4;

/// The wire times of the last few transfer sizes a fabric priced.
///
/// A run moves a handful of sizes (64-byte requests and 8-KB pages and
/// blocks in the coupled scenario; 16-KB chunks and three control sizes
/// in image distribution), so pricing one from memory skips
/// [`wire_time`]'s float division and rounding. A hit returns the value [`wire_time`] gave for
/// that size, so the memo changes no timing. Entries start at 0 bytes,
/// whose wire time is zero at any bandwidth, and a miss replaces them in
/// turn. Memos compare equal regardless of contents, so a fabric's
/// derived `PartialEq` compares its occupancy state alone.
#[derive(Debug, Clone, Default)]
pub(crate) struct WireMemo {
    bytes: [u64; MEMO_SIZES],
    wire: [SimDuration; MEMO_SIZES],
    /// The entry the next miss replaces.
    next: usize,
}

impl WireMemo {
    /// The wire time of `bytes` on a link of `bits_per_sec`, which must
    /// be the same on every call.
    #[inline]
    pub(crate) fn wire_time(&mut self, bytes: u64, bits_per_sec: f64) -> SimDuration {
        if let Some(i) = self.bytes.iter().position(|&b| b == bytes) {
            return self.wire[i];
        }
        let wire = wire_time(bytes, bits_per_sec);
        self.bytes[self.next] = bytes;
        self.wire[self.next] = wire;
        self.next = (self.next + 1) % MEMO_SIZES;
        wire
    }
}

impl PartialEq for WireMemo {
    fn eq(&self, _: &WireMemo) -> bool {
        true
    }
}

/// A shared medium (classic 10-Mbps Ethernet): one transfer at a time,
/// everyone queues.
///
/// The paper's baseline NOW configuration suffers exactly this: 256
/// processors sharing 10 Mbps makes the Gator transport phase take three
/// orders of magnitude longer than on an MPP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedBus {
    nodes: u32,
    bits_per_sec: f64,
    /// Fixed per-frame cost (preamble, inter-frame gap, arbitration).
    frame_overhead: SimDuration,
    /// Propagation delay across the segment.
    propagation: SimDuration,
    free_at: SimTime,
    wire: WireMemo,
}

impl SharedBus {
    /// Creates a shared bus with `nodes` stations.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes >= 2` and the bandwidth is positive.
    pub fn new(
        nodes: u32,
        bits_per_sec: f64,
        frame_overhead: SimDuration,
        propagation: SimDuration,
    ) -> Self {
        assert!(nodes >= 2, "a network needs at least two nodes");
        assert!(bits_per_sec > 0.0, "bandwidth must be positive");
        SharedBus {
            nodes,
            bits_per_sec,
            frame_overhead,
            propagation,
            free_at: SimTime::ZERO,
            wire: WireMemo::default(),
        }
    }

    /// Classic 10-Mbps Ethernet.
    pub fn ethernet_10(nodes: u32) -> Self {
        SharedBus::new(
            nodes,
            10e6,
            SimDuration::from_micros(10),
            SimDuration::from_micros(5),
        )
    }
}

impl Fabric for SharedBus {
    fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, now: SimTime) -> WireTiming {
        assert_ne!(src, dst, "local transfers do not use the fabric");
        assert!(
            src.0 < self.nodes && dst.0 < self.nodes,
            "node out of range"
        );
        let tx_start = now.max(self.free_at);
        let occupy = self.frame_overhead + self.wire.wire_time(bytes, self.bits_per_sec);
        let tx_done = tx_start + occupy;
        self.free_at = tx_done;
        WireTiming {
            tx_start,
            tx_done,
            rx_done: tx_done + self.propagation,
        }
    }

    fn nodes(&self) -> u32 {
        self.nodes
    }

    fn link_bits_per_sec(&self) -> f64 {
        self.bits_per_sec
    }

    fn base_latency(&self) -> SimDuration {
        self.frame_overhead + self.propagation
    }
}

/// A switched, full-duplex fabric: each node owns a transmit and a receive
/// link; distinct pairs communicate in parallel.
///
/// Models ATM, switched FDDI, Myrinet, and MPP interconnects; they differ
/// only in link speed and switching latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchedFabric {
    nodes: u32,
    bits_per_sec: f64,
    /// Cut-through switching plus propagation latency.
    switch_latency: SimDuration,
    tx_free: Vec<SimTime>,
    rx_free: Vec<SimTime>,
    wire: WireMemo,
}

impl SwitchedFabric {
    /// Creates a switched fabric of `nodes` full-duplex links.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes >= 2` and the bandwidth is positive.
    pub fn new(nodes: u32, bits_per_sec: f64, switch_latency: SimDuration) -> Self {
        assert!(nodes >= 2, "a network needs at least two nodes");
        assert!(bits_per_sec > 0.0, "bandwidth must be positive");
        SwitchedFabric {
            nodes,
            bits_per_sec,
            switch_latency,
            tx_free: vec![SimTime::ZERO; nodes as usize],
            rx_free: vec![SimTime::ZERO; nodes as usize],
            wire: WireMemo::default(),
        }
    }

    /// 155-Mbps ATM with tens of microseconds of switch latency.
    pub fn atm_155(nodes: u32) -> Self {
        SwitchedFabric::new(nodes, 155e6, SimDuration::from_micros(20))
    }

    /// The Medusa FDDI prototype: 100 Mbps, ~8 µs network+adapter latency.
    pub fn fddi_medusa(nodes: u32) -> Self {
        SwitchedFabric::new(nodes, 100e6, SimDuration::from_micros(8))
    }

    /// Myrinet: 640 Mbps with single-microsecond cut-through switches.
    pub fn myrinet(nodes: u32) -> Self {
        SwitchedFabric::new(nodes, 640e6, SimDuration::from_micros(1))
    }

    /// The CM-5 data network: 20 MB/s per link, ~4 µs latency across a
    /// large machine.
    pub fn cm5(nodes: u32) -> Self {
        SwitchedFabric::new(nodes, 160e6, SimDuration::from_micros(4))
    }
}

impl Fabric for SwitchedFabric {
    fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, now: SimTime) -> WireTiming {
        assert_ne!(src, dst, "local transfers do not use the fabric");
        assert!(
            src.0 < self.nodes && dst.0 < self.nodes,
            "node out of range"
        );
        let wire = self.wire.wire_time(bytes, self.bits_per_sec);
        // Sender clocks out when its TX link frees.
        let tx_start = now.max(self.tx_free[src.0 as usize]);
        let tx_done = tx_start + wire;
        self.tx_free[src.0 as usize] = tx_done;
        // Head reaches the receiver's link after the switch; the receive
        // link must also be free (cut-through with per-port FIFO).
        let head_at_rx = tx_start + self.switch_latency;
        let rx_start = head_at_rx.max(self.rx_free[dst.0 as usize]);
        let rx_done = rx_start + wire;
        self.rx_free[dst.0 as usize] = rx_done;
        WireTiming {
            tx_start,
            tx_done,
            rx_done,
        }
    }

    fn nodes(&self) -> u32 {
        self.nodes
    }

    fn link_bits_per_sec(&self) -> f64 {
        self.bits_per_sec
    }

    fn base_latency(&self) -> SimDuration {
        self.switch_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB8: u64 = 8_192;

    #[test]
    fn shared_bus_serialises_everyone() {
        let mut bus = SharedBus::ethernet_10(4);
        let t0 = SimTime::ZERO;
        let a = bus.transfer(NodeId(0), NodeId(1), KB8, t0);
        let b = bus.transfer(NodeId(2), NodeId(3), KB8, t0);
        // Disjoint pairs still queue on the medium.
        assert!(b.tx_start >= a.tx_done);
    }

    #[test]
    fn shared_bus_8kb_takes_about_6550us() {
        // 8,192 B at 10 Mbps = 6,553.6 µs on the wire, plus frame overhead.
        let mut bus = SharedBus::ethernet_10(2);
        let t = bus.transfer(NodeId(0), NodeId(1), KB8, SimTime::ZERO);
        let us = (t.rx_done - SimTime::ZERO).as_micros_f64();
        assert!((6_500.0..6_700.0).contains(&us), "got {us}");
    }

    #[test]
    fn switched_fabric_disjoint_pairs_run_in_parallel() {
        let mut sw = SwitchedFabric::atm_155(4);
        let t0 = SimTime::ZERO;
        let a = sw.transfer(NodeId(0), NodeId(1), KB8, t0);
        let b = sw.transfer(NodeId(2), NodeId(3), KB8, t0);
        assert_eq!(a.tx_start, b.tx_start, "no queueing between disjoint pairs");
        assert_eq!(a.rx_done, b.rx_done);
    }

    #[test]
    fn switched_fabric_same_sender_serialises() {
        let mut sw = SwitchedFabric::atm_155(4);
        let t0 = SimTime::ZERO;
        let a = sw.transfer(NodeId(0), NodeId(1), KB8, t0);
        let b = sw.transfer(NodeId(0), NodeId(2), KB8, t0);
        assert!(b.tx_start >= a.tx_done, "one TX link per node");
    }

    #[test]
    fn switched_fabric_same_receiver_serialises_rx() {
        let mut sw = SwitchedFabric::atm_155(4);
        let t0 = SimTime::ZERO;
        let a = sw.transfer(NodeId(0), NodeId(3), KB8, t0);
        let b = sw.transfer(NodeId(1), NodeId(3), KB8, t0);
        // Both senders transmit in parallel, but node 3's receive link
        // accepts one message at a time: b drains only after a.
        assert_eq!(a.tx_start, b.tx_start);
        let wire = a.rx_done - a.tx_start - sw.base_latency();
        assert_eq!(b.rx_done, a.rx_done + wire, "receive link shared");
    }

    #[test]
    fn atm_8kb_wire_time_is_about_420us() {
        let mut sw = SwitchedFabric::atm_155(2);
        let t = sw.transfer(NodeId(0), NodeId(1), KB8, SimTime::ZERO);
        let us = (t.rx_done - SimTime::ZERO).as_micros_f64();
        // 8,192 B at 155 Mbps = 422.8 µs, plus 20 µs switch.
        assert!((430.0..460.0).contains(&us), "got {us}");
    }

    #[test]
    fn faster_fabrics_order_correctly() {
        let small = 256;
        let time_on = |mut f: SwitchedFabric| {
            let t = f.transfer(NodeId(0), NodeId(1), small, SimTime::ZERO);
            t.rx_done.as_nanos()
        };
        let atm = time_on(SwitchedFabric::atm_155(2));
        let fddi = time_on(SwitchedFabric::fddi_medusa(2));
        let myrinet = time_on(SwitchedFabric::myrinet(2));
        assert!(myrinet < fddi);
        assert!(fddi < atm);
    }

    #[test]
    fn transfers_never_start_before_request() {
        let mut sw = SwitchedFabric::myrinet(3);
        let later = SimTime::from_micros(100);
        let t = sw.transfer(NodeId(0), NodeId(1), 64, later);
        assert!(t.tx_start >= later);
    }

    #[test]
    fn busy_link_delays_only_its_owner() {
        let mut sw = SwitchedFabric::atm_155(4);
        // Node 0 sends a huge transfer.
        sw.transfer(NodeId(0), NodeId(1), 10_000_000, SimTime::ZERO);
        // Node 2 is unaffected.
        let t = sw.transfer(NodeId(2), NodeId(3), 64, SimTime::ZERO);
        assert_eq!(t.tx_start, SimTime::ZERO);
    }

    #[test]
    fn memoised_wire_times_match_the_formula() {
        // Nine sizes, more than the memo holds, drawn at random so entries
        // are evicted and then priced again. The references price every
        // transfer with `wire_time` itself.
        const SIZES: [u64; 9] = [64, 8_192, 0, 1, 1_500, 4_096, 12_345, 65_536, 100];
        let nodes = 5;
        let mut rng = now_sim::SimRng::new(21);
        let mut sw = SwitchedFabric::atm_155(nodes);
        let mut bus = SharedBus::ethernet_10(nodes);
        let mut tx_free = vec![SimTime::ZERO; nodes as usize];
        let mut rx_free = tx_free.clone();
        let mut bus_free = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        for _ in 0..2_000 {
            now += SimDuration::from_nanos(rng.gen_range(0..400_000));
            let bytes = SIZES[rng.index(SIZES.len())];
            let src = rng.gen_range(0..u64::from(nodes)) as u32;
            let dst = (src + 1 + rng.gen_range(0..u64::from(nodes) - 1) as u32) % nodes;
            let (s, d) = (src as usize, dst as usize);

            let wire = wire_time(bytes, 155e6);
            let tx_start = now.max(tx_free[s]);
            tx_free[s] = tx_start + wire;
            let rx_start = (tx_start + SimDuration::from_micros(20)).max(rx_free[d]);
            rx_free[d] = rx_start + wire;
            let expected = WireTiming {
                tx_start,
                tx_done: tx_free[s],
                rx_done: rx_free[d],
            };
            assert_eq!(sw.transfer(NodeId(src), NodeId(dst), bytes, now), expected);

            let tx_start = now.max(bus_free);
            bus_free = tx_start + SimDuration::from_micros(10) + wire_time(bytes, 10e6);
            let expected = WireTiming {
                tx_start,
                tx_done: bus_free,
                rx_done: bus_free + SimDuration::from_micros(5),
            };
            assert_eq!(bus.transfer(NodeId(src), NodeId(dst), bytes, now), expected);
        }
    }

    #[test]
    #[should_panic(expected = "local transfers")]
    fn self_transfer_panics() {
        SharedBus::ethernet_10(2).transfer(NodeId(0), NodeId(0), 1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        SwitchedFabric::atm_155(2).transfer(NodeId(0), NodeId(5), 1, SimTime::ZERO);
    }

    #[test]
    fn aggregate_bandwidth_scales_only_when_switched() {
        // N/2 disjoint pairs each move 1 MB starting at t=0. On the shared
        // bus total time is N/2 transfers back-to-back; on the switch it is
        // one transfer time.
        let n = 8;
        let bytes = 1_000_000;
        let mut bus = SharedBus::new(n, 155e6, SimDuration::ZERO, SimDuration::ZERO);
        let mut sw = SwitchedFabric::new(n, 155e6, SimDuration::ZERO);
        let mut bus_done = SimTime::ZERO;
        let mut sw_done = SimTime::ZERO;
        for i in 0..n / 2 {
            let (s, d) = (NodeId(2 * i), NodeId(2 * i + 1));
            bus_done = bus_done.max(bus.transfer(s, d, bytes, SimTime::ZERO).rx_done);
            sw_done = sw_done.max(sw.transfer(s, d, bytes, SimTime::ZERO).rx_done);
        }
        let ratio =
            (bus_done - SimTime::ZERO).as_secs_f64() / (sw_done - SimTime::ZERO).as_secs_f64();
        assert!((ratio - (n / 2) as f64).abs() < 0.01, "ratio {ratio}");
    }
}
