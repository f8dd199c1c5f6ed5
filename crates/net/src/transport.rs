//! The engine's transport seam: a [`Network`] prices
//! [`now_sim::Ctx::transfer`] itself.
//!
//! The simulation engine ([`now_sim::Engine`]) charges remote traffic
//! through the [`Transport`] trait, and [`Network`] implements it: every
//! transfer runs through a real fabric model — occupancy and queue wait —
//! so components that share one engine contend with each other exactly as
//! the paper argues NOW subsystems must. The engine owns its network, and
//! nothing outside the engine touches it; observe the fabric through the
//! network's probe.
//!
//! # Example
//!
//! ```
//! use now_net::presets;
//! use now_sim::{SimTime, Transport};
//!
//! let mut net = presets::am_atm(8);
//! let cost = Transport::transfer(&mut net, 0, 5, 8_192, SimTime::ZERO);
//! assert!(cost.delivered > SimTime::ZERO);
//! // Local copies are free: no fabric involved.
//! let local = Transport::transfer(&mut net, 3, 3, 8_192, SimTime::ZERO);
//! assert_eq!(local.delivered, SimTime::ZERO);
//! ```

use now_sim::{SimTime, TransferCost, Transport};

use crate::{Network, NodeId};

/// Charges every transfer against this network — fabric occupancy,
/// software stack, and NIC overhead included. A local copy
/// (`src == dst`) is free.
impl Transport for Network {
    fn transfer(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> TransferCost {
        if src == dst {
            return TransferCost::free(now); // local copy: the fabric is not involved
        }
        let out = Network::transfer(self, NodeId(src), NodeId(dst), bytes, now);
        TransferCost {
            delivered: out.delivered_at,
            overhead: out.send_cpu + out.recv_cpu,
            wait: out.wire_start.saturating_since(now + out.send_cpu),
            wire: out.wire_done_at.saturating_since(out.wire_start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use now_sim::SimDuration;

    #[test]
    fn fabric_transport_matches_network_arithmetic() {
        let mut net = presets::am_atm(8);
        let expect = net
            .transfer(NodeId(1), NodeId(2), 4_096, SimTime::ZERO)
            .delivered_at;
        let mut t = presets::am_atm(8);
        let cost = Transport::transfer(&mut t, 1, 2, 4_096, SimTime::ZERO);
        assert_eq!(cost.delivered, expect);
    }

    #[test]
    fn local_transfers_are_free_on_both_transports() {
        let now = SimTime::from_micros(7);
        for mut net in [presets::am_atm(4), presets::tcp_ethernet(4)] {
            let cost = Transport::transfer(&mut net, 2, 2, 1 << 20, now);
            assert_eq!(cost, TransferCost::free(now));
        }
    }

    #[test]
    fn detailed_breakdown_partitions_delivery_time() {
        let mut t = presets::am_atm(8);
        // Uncontended reference cost first.
        let quiet = Transport::transfer(&mut t, 4, 5, 8_192, SimTime::ZERO);
        assert_eq!(SimTime::ZERO + quiet.total(), quiet.delivered);
        // Load the path to node 1 so a follow-up transfer contends.
        Transport::transfer(&mut t, 0, 1, 1 << 20, SimTime::ZERO);
        let now = SimTime::from_micros(1);
        let cost = Transport::transfer(&mut t, 0, 1, 8_192, now);
        assert_eq!(now + cost.total(), cost.delivered, "pieces partition");
        assert!(cost.overhead > SimDuration::ZERO);
        assert!(cost.wire > SimDuration::ZERO);
        assert!(
            cost.wait + cost.wire > quiet.wait + quiet.wire,
            "contention must show up in the wait/wire terms, \
             not vanish from the breakdown"
        );
    }
}
