//! Cross-validation: the coscheduling story told twice.
//!
//! [`crate::cosched`] models Figure 4 with a quantum-granularity
//! simulation; this module re-runs the *Connect*-style experiment through
//! the real [`now_am::ActiveMessages`] protocol engine — actual request/
//! reply messages, receiver buffering, timeout and retry — with the
//! scheduler driving [`now_am::ActiveMessages::set_running`]. If the two
//! independent models disagree about whether coscheduling matters, one of
//! them is wrong; their agreement is the reproduction's internal check on
//! Figure 4.
//!
//! The application: every node must complete a fixed number of
//! request/reply round trips to its neighbours, issuing the next request
//! only after the previous reply — the fine-grained dependence that makes
//! Connect "perform very poorly" under uncoordinated scheduling.

use now_am::{ActiveMessages, AmConfig, MsgId, Notification};
use now_net::{presets, NodeId};
use now_sim::{SimDuration, SimRng, SimTime};

use crate::cosched::Scheduling;

/// Parameters of the protocol-level experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossvalConfig {
    /// Nodes in the parallel application.
    pub nodes: u32,
    /// Round trips each node must complete.
    pub round_trips: u32,
    /// Scheduling quantum.
    pub quantum: SimDuration,
    /// Competing jobs per node.
    pub competing_jobs: u32,
    /// Seed for local-schedule slot placement.
    pub seed: u64,
}

impl CrossvalConfig {
    /// A small Connect-like run: 8 nodes, 200 round trips, 10-ms quanta.
    ///
    /// (Quanta are shorter than Figure 4's 100 ms to keep the simulated
    /// horizon small; the *ratio* between local and gang is what the
    /// validation compares.)
    pub fn connect_like(competing_jobs: u32) -> Self {
        CrossvalConfig {
            nodes: 8,
            round_trips: 200,
            quantum: SimDuration::from_millis(10),
            competing_jobs,
            seed: 5,
        }
    }
}

/// Runs the experiment through the Active Messages engine and returns the
/// completion time (last reply delivered).
///
/// # Panics
///
/// Panics on degenerate configurations.
pub fn run_am(config: &CrossvalConfig, scheduling: Scheduling) -> SimDuration {
    assert!(config.nodes >= 2, "need at least two nodes");
    assert!(config.round_trips > 0, "the app must communicate");
    let n = config.nodes;
    let am_config = AmConfig {
        credits: 4,
        // Requests to descheduled peers just wait in the buffer; retries
        // should be for loss, not scheduling.
        timeout: SimDuration::from_secs(3_600),
        max_retries: 3,
        recv_buffer_msgs: 1_024,
        loss_probability: 0.0,
        reply_bytes: 16,
        batch: now_am::BatchConfig::disabled(),
    };
    let mut am = ActiveMessages::new(presets::am_atm(n), am_config, config.seed);
    let mut rng = SimRng::new(config.seed ^ 0xC0FFEE);

    let slots = u64::from(1 + config.competing_jobs);
    let mut done = vec![0u32; n as usize];
    let mut inflight: Vec<Option<MsgId>> = vec![None; n as usize];
    let mut running = vec![true; n as usize];

    let mut quantum_index: u64 = 0;
    let mut slot_of: Vec<u64> = vec![0; n as usize];
    let total_needed: u64 = u64::from(n) * u64::from(config.round_trips);
    let mut completed: u64 = 0;
    let mut finish = SimTime::ZERO;

    while completed < total_needed {
        let rotation_pos = quantum_index % slots;
        if rotation_pos == 0 {
            for s in slot_of.iter_mut() {
                *s = match scheduling {
                    Scheduling::Gang => 0,
                    Scheduling::Local => rng.gen_range(0..slots),
                };
            }
        }
        let q_start = SimTime::ZERO + config.quantum * quantum_index;
        let q_end = q_start + config.quantum;

        // Apply the schedule for this quantum; draining buffered arrivals
        // counts as handler executions now.
        let mut notes = Vec::new();
        for node in 0..n {
            let should_run = slot_of[node as usize] == rotation_pos;
            if should_run != running[node as usize] {
                notes.extend(am.set_running(NodeId(node), should_run));
                running[node as usize] = should_run;
            }
        }

        // Scheduled nodes with no request in flight issue one.
        for node in 0..n {
            if running[node as usize]
                && inflight[node as usize].is_none()
                && done[node as usize] < config.round_trips
            {
                let dst = NodeId((node + 1) % n);
                let at = am.now().max(q_start);
                let id = am.request_at(at, NodeId(node), dst, 64);
                inflight[node as usize] = Some(id);
            }
        }

        // Let the protocol run out the quantum.
        notes.extend(am.advance_until(q_end));
        for note in notes {
            if let Notification::ReplyDelivered { id, at } = note {
                let node = inflight
                    .iter()
                    .position(|slot| *slot == Some(id))
                    .expect("reply matches an in-flight request");
                inflight[node] = None;
                done[node] += 1;
                completed += 1;
                finish = finish.max(at);
                // Chain the next request immediately if still scheduled.
                // (Notifications are processed after the quantum ran out,
                // so the engine clock may already be past the reply time.)
                if running[node] && done[node] < config.round_trips {
                    let dst = NodeId(((node as u32) + 1) % n);
                    let at = am.now().max(at);
                    let id = am.request_at(at, NodeId(node as u32), dst, 64);
                    inflight[node] = Some(id);
                }
            }
        }

        quantum_index += 1;
        assert!(
            quantum_index < 5_000_000,
            "protocol-level run failed to converge"
        );
    }
    finish.saturating_since(SimTime::ZERO)
}

/// The protocol-level local-vs-gang slowdown for a Connect-like app.
pub fn am_slowdown(competing_jobs: u32) -> f64 {
    let config = CrossvalConfig::connect_like(competing_jobs);
    let gang = run_am(&config, Scheduling::Gang);
    let local = run_am(&config, Scheduling::Local);
    local.ratio(gang)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosched::{slowdown, AppSpec, CoschedConfig};

    #[test]
    fn gang_scheduled_am_run_is_fast() {
        let config = CrossvalConfig::connect_like(0);
        let t = run_am(&config, Scheduling::Gang);
        // 200 chained RTTs of ~60 µs each, all nodes in parallel.
        assert!(t < SimDuration::from_millis(100), "gang run took {t}");
    }

    #[test]
    fn no_competition_means_no_gap() {
        let s = am_slowdown(0);
        assert!(
            (0.9..=1.1).contains(&s),
            "j=0 should be scheduling-free, got {s}"
        );
    }

    #[test]
    fn protocol_level_connect_collapses_under_local_scheduling() {
        let s = am_slowdown(2);
        assert!(s > 10.0, "protocol-level slowdown {s}");
    }

    #[test]
    fn protocol_level_slowdown_grows_with_competition() {
        let s1 = am_slowdown(1);
        let s3 = am_slowdown(3);
        assert!(s3 > s1, "{s1} -> {s3}");
    }

    #[test]
    fn both_models_agree_on_the_figure4_verdict() {
        // The quantum model's Connect and the protocol-level run must agree
        // that local scheduling costs an order of magnitude at j=2.
        let quantum_model = slowdown(
            &AppSpec::figure4_apps()[3],
            &CoschedConfig::paper_defaults(2),
            &now_probe::Probe::disabled(),
        );
        let protocol_model = am_slowdown(2);
        assert!(quantum_model > 10.0 && protocol_model > 10.0);
        // And on the direction of the trend.
        let quantum_1 = slowdown(
            &AppSpec::figure4_apps()[3],
            &CoschedConfig::paper_defaults(1),
            &now_probe::Probe::disabled(),
        );
        let protocol_1 = am_slowdown(1);
        assert!(quantum_model > quantum_1);
        assert!(protocol_model > protocol_1);
    }
}
