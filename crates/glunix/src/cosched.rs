//! Gang scheduling versus uncoordinated local scheduling: the Figure 4
//! experiment.
//!
//! MPP operating systems *coschedule* a parallel program — all its
//! processes run simultaneously — while a NOW of independent Unix kernels
//! timeshares each node obliviously. Figure 4 measures what that costs for
//! four application patterns as competing jobs are added:
//!
//! * **random small messages** (two such apps in the paper): one-way
//!   traffic to random peers; ample receiver buffering makes it nearly
//!   immune to scheduling skew.
//! * **Column**: infrequent but huge bursts to a single destination; the
//!   burst overflows the destination's buffer whenever its process is not
//!   running, stalling the sender.
//! * **Em3d**: bulk-synchronous neighbor exchange with barriers; every
//!   step waits for the slowest peer's quantum to come around.
//! * **Connect**: fine-grained request/reply; progress requires the
//!   requester and responder to be scheduled *simultaneously*, which
//!   uncoordinated schedules rarely arrange.
//!
//! The simulator runs at quantum granularity: within a quantum scheduled
//! processes advance through compute/communicate phases (message and
//! round-trip times are microseconds, four orders below the quantum, so
//! same-quantum interactions complete "instantly" and cross-quantum
//! messages sit in receive buffers). Under local scheduling each node's
//! app process lands in a uniformly random slot of each rotation —
//! modelling the quantum drift and interrupt jitter of real uncoordinated
//! kernels.

use now_probe::Probe;
use now_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// Communication pattern of a parallel application.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CommPattern {
    /// One-way small messages to uniformly random peers each step.
    RandomSmall {
        /// Messages per step.
        msgs_per_step: u32,
    },
    /// A burst of messages to one (per-step random) destination.
    Burst {
        /// Messages in each burst.
        msgs_per_step: u32,
    },
    /// Neighbor exchange on a ring followed by a barrier.
    NeighborBarrier,
    /// Blocking request/reply pairs to random peers.
    RequestReply {
        /// Round trips per step.
        reqs_per_step: u32,
    },
}

/// A parallel application model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Label used in reports.
    pub name: &'static str,
    /// Main-loop iterations.
    pub steps: u32,
    /// Computation per step per process.
    pub compute_per_step: SimDuration,
    /// Communication pattern.
    pub pattern: CommPattern,
}

impl AppSpec {
    /// The paper's four benchmark classes, sized so a dedicated run takes
    /// a few hundred milliseconds.
    pub fn figure4_apps() -> [AppSpec; 4] {
        [
            AppSpec {
                name: "random small msgs",
                steps: 100,
                compute_per_step: SimDuration::from_millis(2),
                pattern: CommPattern::RandomSmall { msgs_per_step: 64 },
            },
            AppSpec {
                name: "Column",
                steps: 20,
                compute_per_step: SimDuration::from_millis(2),
                pattern: CommPattern::Burst {
                    msgs_per_step: 6_000,
                },
            },
            AppSpec {
                name: "Em3d",
                steps: 100,
                compute_per_step: SimDuration::from_millis(2),
                pattern: CommPattern::NeighborBarrier,
            },
            AppSpec {
                name: "Connect",
                steps: 50,
                compute_per_step: SimDuration::from_millis(2),
                pattern: CommPattern::RequestReply { reqs_per_step: 20 },
            },
        ]
    }
}

/// How the cluster schedules the parallel job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheduling {
    /// All of the job's processes run in the same quantum of each rotation.
    Gang,
    /// Each node picks the job's slot independently (and it drifts).
    Local,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoschedConfig {
    /// Nodes the application spans.
    pub nodes: u32,
    /// Scheduling quantum.
    pub quantum: SimDuration,
    /// Competing (timeshared) jobs per node.
    pub competing_jobs: u32,
    /// Receive-buffer capacity per process, messages.
    pub recv_buffer: u32,
    /// Sender CPU cost per small message.
    pub msg_cpu: SimDuration,
    /// Round-trip time when both ends are scheduled.
    pub rtt: SimDuration,
    /// Seed for slot placement and destination choices.
    pub seed: u64,
}

impl CoschedConfig {
    /// Figure 4's setup: 16 nodes, 100-ms quanta, 4,096-message buffers,
    /// Active-Message-class costs.
    pub fn paper_defaults(competing_jobs: u32) -> Self {
        CoschedConfig {
            nodes: 16,
            quantum: SimDuration::from_millis(100),
            competing_jobs,
            recv_buffer: 4_096,
            msg_cpu: SimDuration::from_micros(5),
            rtt: SimDuration::from_micros(50),
            seed: 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Compute { remaining: SimDuration },
    Send { dst: u32, sent: u32 },
    Requests { dst: u32, done: u32 },
    Barrier,
    Finished,
}

struct Proc {
    step: u32,
    phase: Phase,
    /// Highest step whose sends this process has completed (for barriers).
    sent_step: i64,
}

/// Runs `app` under `scheduling` and returns its completion time,
/// publishing telemetry on `probe`:
///
/// * `cosched.quanta` — quanta elapsed until completion;
/// * `cosched.slot_moves` — nodes whose app slot migrated between
///   rotations (always zero under gang scheduling);
/// * `cosched.sender_stalls` / `cosched.responder_blocked` — senders
///   stalled on a full remote buffer, requesters blocked on a descheduled
///   responder;
/// * `cosched.scheduled_nodes` histogram — per-quantum count of nodes
///   running the app (the slot-fill profile);
/// * `cosched.slot_skew` histogram — per-rotation spread (max − min) of
///   the app's slot across nodes.
///
/// # Panics
///
/// Panics on degenerate configurations (fewer than 2 nodes, zero steps).
pub fn run(
    app: &AppSpec,
    scheduling: Scheduling,
    config: &CoschedConfig,
    probe: &Probe,
) -> SimDuration {
    assert!(config.nodes >= 2, "a parallel app needs at least two nodes");
    assert!(app.steps > 0, "the app must do something");
    let n = config.nodes as usize;
    let mut rng = SimRng::new(config.seed);
    let mut procs: Vec<Proc> = (0..n)
        .map(|_| Proc {
            step: 0,
            phase: Phase::Compute {
                remaining: app.compute_per_step,
            },
            sent_step: -1,
        })
        .collect();
    let mut inbox = vec![0u32; n]; // buffered messages per process
    let slots = 1 + config.competing_jobs as u64;
    let mut quantum_index: u64 = 0;
    // Slot of the app process on each node for the current rotation.
    let mut slot_of: Vec<u64> = vec![0; n];

    loop {
        let rotation_pos = quantum_index % slots;
        if rotation_pos == 0 {
            // New rotation: place the app's slot on each node.
            let mut moves = 0u64;
            for s in slot_of.iter_mut() {
                let next = match scheduling {
                    Scheduling::Gang => 0,
                    Scheduling::Local => rng.gen_range(0..slots),
                };
                if quantum_index > 0 && next != *s {
                    moves += 1;
                }
                *s = next;
            }
            if probe.is_enabled() {
                probe.count("cosched.slot_moves", moves);
                let skew = slot_of.iter().max().unwrap_or(&0) - slot_of.iter().min().unwrap_or(&0);
                probe.histogram("cosched.slot_skew").record(skew);
            }
        }
        let scheduled: Vec<bool> = slot_of.iter().map(|&s| s == rotation_pos).collect();
        if probe.is_enabled() {
            let fill = scheduled.iter().filter(|&&s| s).count() as u64;
            probe.histogram("cosched.scheduled_nodes").record(fill);
        }

        // Scheduled processes drain their receive buffers first.
        for (p, &sched) in scheduled.iter().enumerate() {
            if sched {
                inbox[p] = 0;
            }
        }

        // Advance scheduled processes until budgets exhaust or everyone
        // blocks.
        let mut budget: Vec<SimDuration> = (0..n)
            .map(|p| {
                if scheduled[p] {
                    config.quantum
                } else {
                    SimDuration::ZERO
                }
            })
            .collect();
        let mut progress = true;
        while progress {
            progress = false;
            for p in 0..n {
                if !scheduled[p] || budget[p].is_zero() {
                    continue;
                }
                if advance(
                    p,
                    app,
                    config,
                    &mut procs,
                    &mut inbox,
                    &scheduled,
                    &mut budget,
                    &mut rng,
                    probe,
                ) {
                    progress = true;
                }
            }
        }

        quantum_index += 1;
        if procs.iter().all(|p| p.phase == Phase::Finished) {
            probe.count("cosched.quanta", quantum_index);
            return config.quantum * quantum_index;
        }
        // Safety valve: a genuinely wedged configuration would loop
        // forever; nothing in the model should ever need this many quanta.
        assert!(
            quantum_index < 2_000_000,
            "scheduling simulation failed to converge"
        );
    }
}

/// Advances process `p` one micro-action. Returns whether anything
/// changed.
#[allow(clippy::too_many_arguments)]
fn advance(
    p: usize,
    app: &AppSpec,
    config: &CoschedConfig,
    procs: &mut [Proc],
    inbox: &mut [u32],
    scheduled: &[bool],
    budget: &mut [SimDuration],
    rng: &mut SimRng,
    probe: &Probe,
) -> bool {
    let n = procs.len();
    match procs[p].phase {
        Phase::Finished => false,
        Phase::Compute { remaining } => {
            let spend = remaining.min(budget[p]);
            budget[p] -= spend;
            let left = remaining - spend;
            if left.is_zero() {
                // Enter the communication phase for this step.
                procs[p].phase = match app.pattern {
                    CommPattern::RandomSmall { .. } | CommPattern::Burst { .. } => {
                        let dst = pick_other(rng, n, p);
                        Phase::Send {
                            dst: dst as u32,
                            sent: 0,
                        }
                    }
                    CommPattern::NeighborBarrier => {
                        // Sends to ring neighbors are tiny: complete them
                        // within this action.
                        procs[p].sent_step = i64::from(procs[p].step);
                        Phase::Barrier
                    }
                    CommPattern::RequestReply { .. } => {
                        let dst = pick_other(rng, n, p);
                        Phase::Requests {
                            dst: dst as u32,
                            done: 0,
                        }
                    }
                };
            } else {
                procs[p].phase = Phase::Compute { remaining: left };
            }
            !spend.is_zero() || left.is_zero()
        }
        Phase::Send { dst, sent } => {
            let total = match app.pattern {
                CommPattern::RandomSmall { msgs_per_step } => msgs_per_step,
                CommPattern::Burst { msgs_per_step } => msgs_per_step,
                _ => unreachable!("send phase only for message patterns"),
            };
            let mut sent_now = 0;
            let mut sent_total = sent;
            let mut cur_dst = dst as usize;
            while sent_total < total && budget[p] >= config.msg_cpu {
                // Random-small re-picks a destination per message; Column
                // keeps hammering one.
                if matches!(app.pattern, CommPattern::RandomSmall { .. }) {
                    cur_dst = pick_other(rng, n, p);
                }
                if scheduled[cur_dst] {
                    // Receiver is running: consumed immediately.
                } else if inbox[cur_dst] < config.recv_buffer {
                    inbox[cur_dst] += 1;
                } else {
                    // Buffer full at a descheduled receiver: the sender
                    // stalls for the rest of its quantum.
                    probe.count("cosched.sender_stalls", 1);
                    budget[p] = SimDuration::ZERO;
                    procs[p].phase = Phase::Send {
                        dst: cur_dst as u32,
                        sent: sent_total,
                    };
                    return sent_now > 0;
                }
                budget[p] -= config.msg_cpu;
                sent_total += 1;
                sent_now += 1;
            }
            if sent_total == total {
                procs[p].sent_step = i64::from(procs[p].step);
                finish_step(p, procs, app);
            } else {
                procs[p].phase = Phase::Send {
                    dst: cur_dst as u32,
                    sent: sent_total,
                };
            }
            sent_now > 0
        }
        Phase::Barrier => {
            // Pass when both ring neighbors have completed their sends for
            // this step (their messages are in our buffer or delivered).
            let step = i64::from(procs[p].step);
            let left = (p + n - 1) % n;
            let right = (p + 1) % n;
            if procs[left].sent_step >= step && procs[right].sent_step >= step {
                finish_step(p, procs, app);
                true
            } else {
                false
            }
        }
        Phase::Requests { dst, done } => {
            let total = match app.pattern {
                CommPattern::RequestReply { reqs_per_step } => reqs_per_step,
                _ => unreachable!("request phase only for request/reply"),
            };
            let mut done_now = 0;
            let mut done_total = done;
            let mut cur_dst = dst as usize;
            while done_total < total && budget[p] >= config.rtt {
                if !scheduled[cur_dst] {
                    // The responder is not running: the request sits until
                    // a quantum where it is. Blocked.
                    probe.count("cosched.responder_blocked", 1);
                    budget[p] = SimDuration::ZERO;
                    procs[p].phase = Phase::Requests {
                        dst: cur_dst as u32,
                        done: done_total,
                    };
                    return done_now > 0;
                }
                budget[p] -= config.rtt;
                done_total += 1;
                done_now += 1;
                cur_dst = pick_other(rng, n, p);
            }
            if done_total == total {
                procs[p].sent_step = i64::from(procs[p].step);
                finish_step(p, procs, app);
            } else {
                procs[p].phase = Phase::Requests {
                    dst: cur_dst as u32,
                    done: done_total,
                };
            }
            done_now > 0
        }
    }
}

fn finish_step(p: usize, procs: &mut [Proc], app: &AppSpec) {
    procs[p].step += 1;
    procs[p].phase = if procs[p].step >= app.steps {
        // A finished process keeps its buffers drained and its sends
        // visible; mark sent_step beyond any barrier.
        procs[p].sent_step = i64::MAX;
        Phase::Finished
    } else {
        Phase::Compute {
            remaining: app.compute_per_step,
        }
    };
}

fn pick_other(rng: &mut SimRng, n: usize, me: usize) -> usize {
    let mut d = rng.index(n - 1);
    if d >= me {
        d += 1;
    }
    d
}

/// The slowdown of local scheduling relative to gang scheduling for the
/// same application and competing load (both the gang and local runs
/// fire the `cosched.*` probes described on [`run`]).
pub fn slowdown(app: &AppSpec, config: &CoschedConfig, probe: &Probe) -> f64 {
    let gang = run(app, Scheduling::Gang, config, probe);
    let local = run(app, Scheduling::Local, config, probe);
    local.ratio(gang)
}

/// Generates the Figure 4 series: for each application, slowdown at 0..=3
/// competing jobs, with telemetry aggregated across every run.
pub fn figure4_series(probe: &Probe) -> Vec<(String, Vec<(f64, f64)>)> {
    AppSpec::figure4_apps()
        .iter()
        .map(|app| {
            let points = (0..=3)
                .map(|j| {
                    let config = CoschedConfig::paper_defaults(j);
                    (f64::from(j), slowdown(app, &config, probe))
                })
                .collect();
            (app.name.to_string(), points)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apps() -> [AppSpec; 4] {
        AppSpec::figure4_apps()
    }

    fn slow(app: &AppSpec, j: u32) -> f64 {
        slowdown(app, &CoschedConfig::paper_defaults(j), &Probe::disabled())
    }

    #[test]
    fn no_competition_means_no_slowdown() {
        // With zero competing jobs, local scheduling == gang scheduling.
        for app in &apps() {
            let s = slow(app, 0);
            assert!((s - 1.0).abs() < 1e-9, "{}: slowdown {s} at j=0", app.name);
        }
    }

    #[test]
    fn random_small_messages_barely_slow_down() {
        // "as long as enough buffering exists on the destination
        // processor, the sending processor is not significantly slowed."
        let app = &apps()[0];
        for j in 1..=3 {
            let s = slow(app, j);
            assert!(s < 1.6, "random-small slowdown {s} at j={j}");
        }
    }

    #[test]
    fn column_overflows_buffers_and_slows() {
        // "The Column benchmark runs slowly even though it communicates
        // infrequently, because it overflows the buffers."
        let app = &apps()[1];
        let s = slow(app, 2);
        let random = slow(&apps()[0], 2);
        assert!(s > 2.0, "Column slowdown {s}");
        assert!(s > random * 1.5, "Column {s} vs random {random}");
    }

    #[test]
    fn em3d_suffers_at_synchronization_points() {
        let app = &apps()[2];
        let s = slow(app, 2);
        let random = slow(&apps()[0], 2);
        assert!(s > 3.0, "Em3d slowdown {s}");
        assert!(s > random * 2.0);
    }

    #[test]
    fn connect_performs_very_poorly() {
        let connect = slow(&apps()[3], 2);
        for other in &apps()[..3] {
            let s = slow(other, 2);
            assert!(
                connect > s * 1.5,
                "Connect ({connect}) must dominate {} ({s})",
                other.name
            );
        }
        assert!(connect > 10.0, "Connect slowdown {connect}");
    }

    #[test]
    fn slowdowns_grow_with_competing_jobs() {
        // For the sensitive apps, more competing jobs means worse skew.
        for app in &apps()[1..] {
            let s1 = slow(app, 1);
            let s3 = slow(app, 3);
            assert!(
                s3 > s1 * 0.9,
                "{}: slowdown should not collapse ({s1} -> {s3})",
                app.name
            );
        }
        let connect1 = slow(&apps()[3], 1);
        let connect3 = slow(&apps()[3], 3);
        assert!(connect3 > connect1, "Connect must degrade with load");
    }

    #[test]
    fn gang_time_scales_with_timeslice_share() {
        // Gang-scheduled completion time grows with the number of
        // competing jobs (the app gets 1/(1+j) of the machine).
        let app = &apps()[0];
        let t1 = run(
            app,
            Scheduling::Gang,
            &CoschedConfig::paper_defaults(0),
            &Probe::disabled(),
        );
        let t3 = run(
            app,
            Scheduling::Gang,
            &CoschedConfig::paper_defaults(2),
            &Probe::disabled(),
        );
        let ratio = t3.ratio(t1);
        assert!((2.0..4.5).contains(&ratio), "gang scaling {ratio}");
    }

    #[test]
    fn deterministic_given_seed() {
        let app = &apps()[3];
        let config = CoschedConfig::paper_defaults(2);
        assert_eq!(
            run(app, Scheduling::Local, &config, &Probe::disabled()),
            run(app, Scheduling::Local, &config, &Probe::disabled())
        );
    }

    #[test]
    fn figure4_series_shape() {
        let series = figure4_series(&Probe::disabled());
        assert_eq!(series.len(), 4);
        for (name, points) in &series {
            assert_eq!(points.len(), 4, "{name}");
            assert!((points[0].1 - 1.0).abs() < 1e-9, "{name} at j=0");
        }
    }
}
