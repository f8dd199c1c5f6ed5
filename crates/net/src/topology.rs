//! Building-scale topology: floor switches under a backbone.
//!
//! A 100-node NOW does not hang off one switch: machines connect to
//! per-floor (leaf) switches whose uplinks join a backbone. The paper's
//! enterprise ambitions ("scale to an entire enterprise") live or die on
//! whether the uplinks become the new shared Ethernet. This fabric makes
//! that trade-off measurable: intra-group traffic sees only the leaf
//! switch, while inter-group traffic also queues on the two groups'
//! uplinks.

use now_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::fabric::{wire_time, Fabric, WireTiming};
use crate::NodeId;

/// A two-level switched fabric: `groups` leaf switches of `per_group`
/// nodes each, joined by a backbone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalFabric {
    groups: u32,
    per_group: u32,
    /// Node link bandwidth, bits/s.
    node_bits_per_sec: f64,
    /// Uplink bandwidth per leaf switch, bits/s.
    uplink_bits_per_sec: f64,
    /// One-hop switch latency (leaf or backbone).
    hop_latency: SimDuration,
    tx_free: Vec<SimTime>,
    rx_free: Vec<SimTime>,
    /// Occupancy of each group's uplink, in each direction.
    up_free: Vec<SimTime>,
    down_free: Vec<SimTime>,
}

impl HierarchicalFabric {
    /// Creates a fabric of `groups * per_group` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless there are at least 2 nodes overall and bandwidths are
    /// positive.
    pub fn new(
        groups: u32,
        per_group: u32,
        node_bits_per_sec: f64,
        uplink_bits_per_sec: f64,
        hop_latency: SimDuration,
    ) -> Self {
        let nodes = groups * per_group;
        assert!(nodes >= 2, "a network needs at least two nodes");
        assert!(
            node_bits_per_sec > 0.0 && uplink_bits_per_sec > 0.0,
            "bandwidths must be positive"
        );
        HierarchicalFabric {
            groups,
            per_group,
            node_bits_per_sec,
            uplink_bits_per_sec,
            hop_latency,
            tx_free: vec![SimTime::ZERO; nodes as usize],
            rx_free: vec![SimTime::ZERO; nodes as usize],
            up_free: vec![SimTime::ZERO; groups as usize],
            down_free: vec![SimTime::ZERO; groups as usize],
        }
    }

    /// A building of ATM floor switches: 155-Mbps node links, 622-Mbps
    /// (OC-12) uplinks, 20 µs per hop.
    pub fn atm_building(groups: u32, per_group: u32) -> Self {
        HierarchicalFabric::new(
            groups,
            per_group,
            155e6,
            622e6,
            SimDuration::from_micros(20),
        )
    }

    /// The group a node belongs to.
    pub fn group_of(&self, node: NodeId) -> u32 {
        node.0 / self.per_group
    }
}

impl Fabric for HierarchicalFabric {
    fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, now: SimTime) -> WireTiming {
        assert_ne!(src, dst, "local transfers do not use the fabric");
        let nodes = self.groups * self.per_group;
        assert!(src.0 < nodes && dst.0 < nodes, "node out of range");
        let node_wire = wire_time(bytes, self.node_bits_per_sec);

        // Source link.
        let tx_start = now.max(self.tx_free[src.0 as usize]);
        let tx_done = tx_start + node_wire;
        self.tx_free[src.0 as usize] = tx_done;

        let sg = self.group_of(src);
        let dg = self.group_of(dst);
        let mut head = tx_start + self.hop_latency; // leaf switch
        if sg != dg {
            // Up the source group's uplink, across the backbone, down the
            // destination group's uplink; both uplinks are occupancy-
            // tracked resources.
            let up_wire = wire_time(bytes, self.uplink_bits_per_sec);
            let up_start = head.max(self.up_free[sg as usize]);
            let up_done = up_start + up_wire;
            self.up_free[sg as usize] = up_done;
            head = up_start + self.hop_latency; // backbone switch

            let down_start = head.max(self.down_free[dg as usize]).max(up_done - up_wire);
            let down_done = down_start + up_wire;
            self.down_free[dg as usize] = down_done;
            head = down_start + self.hop_latency; // destination leaf
        }

        let rx_start = head.max(self.rx_free[dst.0 as usize]);
        let rx_done = rx_start + node_wire;
        self.rx_free[dst.0 as usize] = rx_done;
        WireTiming {
            tx_start,
            tx_done,
            rx_done,
        }
    }

    fn nodes(&self) -> u32 {
        self.groups * self.per_group
    }

    fn link_bits_per_sec(&self) -> f64 {
        self.node_bits_per_sec
    }

    fn base_latency(&self) -> SimDuration {
        self.hop_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn building() -> HierarchicalFabric {
        HierarchicalFabric::atm_building(4, 25) // a 100-node building
    }

    #[test]
    fn intra_group_is_one_hop() {
        let mut f = building();
        let t = f.transfer(NodeId(0), NodeId(1), 64, SimTime::ZERO);
        let us = t.rx_done.as_micros_f64();
        // one leaf hop + two short serialisations
        assert!((20.0..30.0).contains(&us), "got {us}");
    }

    #[test]
    fn inter_group_is_three_hops() {
        let mut f = building();
        let t = f.transfer(NodeId(0), NodeId(99), 64, SimTime::ZERO);
        let us = t.rx_done.as_micros_f64();
        assert!((60.0..80.0).contains(&us), "got {us}");
        // Strictly slower than intra-group.
        let mut g = building();
        let local = g.transfer(NodeId(0), NodeId(1), 64, SimTime::ZERO);
        assert!(t.rx_done > local.rx_done);
    }

    #[test]
    fn group_arithmetic() {
        let f = building();
        assert_eq!(f.group_of(NodeId(0)), 0);
        assert_eq!(f.group_of(NodeId(24)), 0);
        assert_eq!(f.group_of(NodeId(25)), 1);
        assert_eq!(f.group_of(NodeId(99)), 3);
    }

    #[test]
    fn uplink_is_a_shared_resource() {
        // Many cross-group flows from group 0 queue on its one uplink;
        // intra-group flows at the same instant are unaffected.
        let mut f = building();
        let big = 1_000_000;
        let first = f.transfer(NodeId(0), NodeId(50), big, SimTime::ZERO);
        let second = f.transfer(NodeId(1), NodeId(51), big, SimTime::ZERO);
        assert!(
            second.rx_done > first.rx_done,
            "uplink contention must serialise cross-group bulk"
        );
        let local = f.transfer(NodeId(2), NodeId(3), big, SimTime::ZERO);
        assert!(
            local.rx_done < second.rx_done,
            "local traffic bypasses the uplink"
        );
    }

    #[test]
    fn disjoint_group_pairs_do_not_interfere() {
        let mut f = building();
        let a = f.transfer(NodeId(0), NodeId(30), 10_000, SimTime::ZERO);
        let b = f.transfer(NodeId(50), NodeId(80), 10_000, SimTime::ZERO);
        assert_eq!(a.rx_done, b.rx_done, "0→1 and 2→3 use disjoint uplinks");
    }

    #[test]
    fn fat_uplinks_keep_cross_traffic_respectable() {
        // The design question the topology answers: with OC-12 uplinks, a
        // cross-group 8-KB page fetch is still far closer than a disk.
        let mut f = building();
        let t = f.transfer(NodeId(0), NodeId(99), 8_192, SimTime::ZERO);
        let us = t.rx_done.as_micros_f64();
        assert!(us < 1_000.0, "cross-building page in {us} µs");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        building().transfer(NodeId(0), NodeId(100), 1, SimTime::ZERO);
    }
}
