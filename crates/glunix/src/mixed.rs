//! The mixed-workload study behind Figure 3: can a NOW run an MPP's
//! parallel workload on top of its owners' interactive workload?
//!
//! The paper overlays a month of LANL CM-5 job logs on two months of
//! DECstation usage traces and finds that **64 workstations run the
//! 32-node MPP workload only ~10 percent slower** than a dedicated
//! machine, while guaranteeing every returning user their workstation
//! back (processes migrate away, with their memory).
//!
//! This module reruns that experiment with the synthetic stand-ins from
//! [`now_trace`]: a dedicated-MPP baseline (FCFS space-sharing on a fixed
//! partition) against a NOW run where jobs claim idle workstations, lose
//! them when users return (pausing for a migration), and wait when the
//! building is busy.

use std::collections::VecDeque;

use now_probe::{Gauge, Probe};
use now_sim::{Component, ComponentId, Ctx, Engine, EventCast, EventId, SimDuration, SimTime};
use now_trace::lanl::{JobTrace, ParallelJob};
use now_trace::usage::UsageTrace;
use serde::{Deserialize, Serialize};

use crate::migrate::MigrationModel;

/// Parameters of the NOW side of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixedConfig {
    /// Memory image each parallel process drags along when migrated, MB.
    pub process_mem_mb: u64,
    /// The migration I/O path.
    pub migration: MigrationModel,
}

impl MixedConfig {
    /// Figure 3 defaults: 64-MB processes over ATM + parallel FS.
    pub fn paper_defaults() -> Self {
        MixedConfig {
            process_mem_mb: 64,
            migration: MigrationModel::now_atm_pfs(),
        }
    }
}

/// Per-run outcome: timing of every job, in trace order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// `(arrival, first start, completion)` per job.
    pub jobs: Vec<(SimTime, SimTime, SimTime)>,
    /// Service demand per job (for dilation).
    pub services: Vec<SimDuration>,
    /// Total migrations performed (zero on the dedicated MPP).
    pub migrations: u64,
}

impl RunOutcome {
    /// Mean response time (completion − arrival) in seconds.
    pub fn mean_response_s(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .map(|(a, _, c)| c.saturating_since(*a).as_secs_f64())
            .sum::<f64>()
            / self.jobs.len() as f64
    }

    /// Mean execution dilation: time from first start to completion,
    /// relative to the job's dedicated-coscheduled service demand. A
    /// dedicated MPP scores exactly 1; migrations and machine shortages
    /// push a NOW above 1. This is Figure 3's y-axis.
    pub fn mean_dilation(&self) -> f64 {
        if self.jobs.is_empty() {
            return 1.0;
        }
        self.jobs
            .iter()
            .zip(&self.services)
            .map(|((_, s, c), service)| {
                c.saturating_since(*s).as_secs_f64() / service.as_secs_f64().max(1e-9)
            })
            .sum::<f64>()
            / self.jobs.len() as f64
    }

    /// Mean per-job slowdown relative to a baseline run of the same trace.
    ///
    /// # Panics
    ///
    /// Panics if the runs cover different job counts.
    pub fn mean_slowdown_vs(&self, baseline: &RunOutcome) -> f64 {
        assert_eq!(self.jobs.len(), baseline.jobs.len(), "same trace required");
        assert!(!self.jobs.is_empty(), "no jobs to compare");
        let mut total = 0.0;
        for ((a1, _, c1), (a2, _, c2)) in self.jobs.iter().zip(&baseline.jobs) {
            debug_assert_eq!(a1, a2);
            let r1 = c1.saturating_since(*a1).as_secs_f64();
            let r2 = c2.saturating_since(*a2).as_secs_f64().max(1e-9);
            total += r1 / r2;
        }
        total / self.jobs.len() as f64
    }
}

/// Events driving the mixed-workload components ([`DedicatedMppComponent`]
/// uses the first two variants, [`MixedComponent`] all five).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedEvent {
    /// Job `i` arrives and joins the FCFS queue.
    Arrive(usize),
    /// Job `i`'s scheduled completion fires.
    Finish(usize),
    /// Machine `m`'s owner starts an interactive session.
    UserReturns(u32),
    /// Machine `m` has been quiet past the one-minute linger.
    UserLeaves(u32),
    /// Job `i`'s migration I/O completed.
    MigrationDone(usize),
}

/// The dedicated-MPP baseline as an engine component: FCFS space-sharing
/// on a fixed `nodes`-node partition (the head-of-queue job starts as soon
/// as enough nodes are free).
#[derive(Debug)]
pub struct DedicatedMppComponent {
    jobs: Vec<ParallelJob>,
    free: u32,
    fifo: VecDeque<usize>,
    completion: Vec<Option<SimTime>>,
    started: Vec<Option<SimTime>>,
}

impl DedicatedMppComponent {
    /// A fresh `nodes`-node MPP ready to run `jobs`.
    pub fn new(jobs: &JobTrace, nodes: u32) -> Self {
        DedicatedMppComponent {
            jobs: jobs.jobs.clone(),
            free: nodes,
            fifo: VecDeque::new(),
            completion: vec![None; jobs.jobs.len()],
            started: vec![None; jobs.jobs.len()],
        }
    }

    /// Seeds every job arrival into `engine`, addressed to component `id`.
    pub fn seed<M: EventCast<MixedEvent> + 'static>(
        engine: &mut Engine<M>,
        id: ComponentId,
        jobs: &JobTrace,
    ) {
        for (i, j) in jobs.jobs.iter().enumerate() {
            engine.schedule_at(id, j.arrival, M::upcast(MixedEvent::Arrive(i)));
        }
    }

    /// The run's outcome; call after [`Engine::run`].
    ///
    /// # Panics
    ///
    /// Panics if any job has not started and completed.
    pub fn outcome(&self) -> RunOutcome {
        RunOutcome {
            jobs: self
                .jobs
                .iter()
                .zip(self.started.iter().zip(&self.completion))
                .map(|(j, (s, c))| {
                    (
                        j.arrival,
                        s.expect("all jobs start"),
                        c.expect("all jobs finish"),
                    )
                })
                .collect(),
            services: self.jobs.iter().map(|j| j.service).collect(),
            migrations: 0,
        }
    }
}

impl<M: EventCast<MixedEvent> + 'static> Component<M> for DedicatedMppComponent {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        match event.downcast() {
            MixedEvent::Arrive(i) => self.fifo.push_back(i),
            MixedEvent::Finish(i) => {
                self.free += self.jobs[i].nodes;
                self.completion[i] = Some(ctx.now());
            }
            other => unreachable!("dedicated MPP received {other:?}"),
        }
        // Start whatever the head of the queue allows.
        while let Some(&head) = self.fifo.front() {
            let need = self.jobs[head].nodes;
            if need <= self.free {
                self.free -= need;
                self.fifo.pop_front();
                self.started[head] = Some(ctx.now());
                ctx.schedule_at(
                    ctx.now() + self.jobs[head].service,
                    M::upcast(MixedEvent::Finish(head)),
                );
            } else {
                break;
            }
        }
    }
}

/// Runs the job trace on a dedicated `nodes`-node MPP: FCFS space-sharing
/// (the head-of-queue job starts as soon as enough nodes are free).
pub fn dedicated_mpp(jobs: &JobTrace, nodes: u32) -> RunOutcome {
    let mut engine: Engine<MixedEvent> = Engine::new();
    let id = engine.register(DedicatedMppComponent::new(jobs, nodes));
    DedicatedMppComponent::seed(&mut engine, id, jobs);
    engine.run();
    engine.component::<DedicatedMppComponent>(id).outcome()
}

#[derive(Debug)]
enum JobState {
    Waiting,
    /// Running on a set of machines since `since` with `remaining` work.
    Running {
        machines: Vec<u32>,
        since: SimTime,
        remaining: SimDuration,
        finish_event: EventId,
    },
    /// Paused: migrating off a reclaimed machine, or waiting for a
    /// replacement machine.
    Paused {
        machines: Vec<u32>,
        remaining: SimDuration,
        /// A machine index that still needs replacing (false while only
        /// the migration delay is pending).
        needs_machine: bool,
    },
    Done,
}

/// The NOW side of the study as an engine component: jobs claim idle
/// workstations, lose them when users return (pausing for a migration),
/// and wait when the building is busy.
///
/// A migration takes the constant [`MigrationModel::migration_time`] of
/// the process's memory image.
#[derive(Debug)]
pub struct MixedComponent {
    jobs: Vec<ParallelJob>,
    machines: u32,
    // Counted, not boolean: with the one-minute linger a new session can
    // begin before the previous session's delayed departure fires.
    active_count: Vec<i32>,
    /// Which job occupies each machine.
    occupant: Vec<Option<usize>>,
    states: Vec<JobState>,
    fifo: VecDeque<usize>,
    completion: Vec<Option<SimTime>>,
    started: Vec<Option<SimTime>>,
    migrations: u64,
    migration_delay: SimDuration,
    migrations_gauge: Gauge,
}

impl MixedComponent {
    /// A fresh NOW of `machines` workstations ready to run `jobs`.
    ///
    /// # Panics
    ///
    /// Panics if any job needs more nodes than the NOW has machines.
    pub fn new(jobs: &JobTrace, machines: u32, config: &MixedConfig) -> Self {
        let max_need = jobs.jobs.iter().map(|j| j.nodes).max().unwrap_or(0);
        assert!(
            max_need <= machines,
            "a {max_need}-node job cannot fit on {machines} machines"
        );
        MixedComponent {
            jobs: jobs.jobs.clone(),
            machines,
            active_count: vec![0; machines as usize],
            occupant: vec![None; machines as usize],
            states: jobs.jobs.iter().map(|_| JobState::Waiting).collect(),
            fifo: VecDeque::new(),
            completion: vec![None; jobs.jobs.len()],
            started: vec![None; jobs.jobs.len()],
            migrations: 0,
            migration_delay: config.migration.migration_time(config.process_mem_mb),
            migrations_gauge: Gauge::default(),
        }
    }

    /// Attaches a telemetry probe gauging `glunix.migrations` (evictions
    /// performed so far), so the flight recorder can sample it.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.migrations_gauge = probe.gauge("glunix.migrations");
    }

    /// Seeds job arrivals and the usage trace's user sessions into
    /// `engine`, addressed to component `id`, in the canonical order
    /// (arrivals first, then per-machine per-period returns/departures) —
    /// the order fixes FIFO tie-breaks and thus the run's exact history.
    pub fn seed<M: EventCast<MixedEvent> + 'static>(
        engine: &mut Engine<M>,
        id: ComponentId,
        jobs: &JobTrace,
        usage: &UsageTrace,
    ) {
        for (i, j) in jobs.jobs.iter().enumerate() {
            engine.schedule_at(id, j.arrival, M::upcast(MixedEvent::Arrive(i)));
        }
        // The availability rule: a machine rejoins the pool one minute
        // after its user goes quiet, not instantly.
        let idle_threshold = SimDuration::from_secs(60);
        for (m, mu) in usage.machines.iter().enumerate() {
            for p in &mu.periods {
                engine.schedule_at(id, p.start, M::upcast(MixedEvent::UserReturns(m as u32)));
                engine.schedule_at(
                    id,
                    p.end + idle_threshold,
                    M::upcast(MixedEvent::UserLeaves(m as u32)),
                );
            }
        }
    }

    /// Total migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The run's outcome; call after [`Engine::run`].
    ///
    /// # Panics
    ///
    /// Panics if any job has not started and completed.
    pub fn outcome(&self) -> RunOutcome {
        RunOutcome {
            jobs: self
                .jobs
                .iter()
                .zip(self.started.iter().zip(&self.completion))
                .map(|(j, (s, c))| {
                    (
                        j.arrival,
                        s.expect("all jobs start on the NOW"),
                        c.expect("all jobs finish on the NOW"),
                    )
                })
                .collect(),
            services: self.jobs.iter().map(|j| j.service).collect(),
            migrations: self.migrations,
        }
    }

    /// Machines currently free for parallel work.
    fn idle_unclaimed(&self) -> Vec<u32> {
        (0..self.machines)
            .filter(|&m| self.active_count[m as usize] == 0 && self.occupant[m as usize].is_none())
            .collect()
    }
}

impl<M: EventCast<MixedEvent> + 'static> Component<M> for MixedComponent {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        let now = ctx.now();
        match event.downcast() {
            MixedEvent::Arrive(i) => self.fifo.push_back(i),
            MixedEvent::Finish(i) => {
                if let JobState::Running { machines: ms, .. } = &self.states[i] {
                    for &m in ms {
                        self.occupant[m as usize] = None;
                    }
                    self.completion[i] = Some(now);
                    self.states[i] = JobState::Done;
                }
            }
            MixedEvent::MigrationDone(i) => {
                // Resume if a machine set is complete; otherwise keep
                // waiting for a replacement.
                if let JobState::Paused {
                    machines: ms,
                    remaining,
                    needs_machine: false,
                    ..
                } = &self.states[i]
                {
                    let ms = ms.clone();
                    let remaining = *remaining;
                    let finish_event =
                        ctx.schedule_at(now + remaining, M::upcast(MixedEvent::Finish(i)));
                    self.states[i] = JobState::Running {
                        machines: ms,
                        since: now,
                        remaining,
                        finish_event,
                    };
                }
            }
            MixedEvent::UserLeaves(m) => {
                self.active_count[m as usize] -= 1;
                debug_assert!(self.active_count[m as usize] >= 0);
            }
            MixedEvent::UserReturns(m) => {
                self.active_count[m as usize] += 1;
                if let Some(i) = self.occupant[m as usize] {
                    // The guarantee: evict the parallel process instantly;
                    // the job pauses for the migration.
                    self.occupant[m as usize] = None;
                    self.migrations += 1;
                    self.migrations_gauge.set(self.migrations as f64);
                    let (mut ms, remaining) = match &self.states[i] {
                        JobState::Running {
                            machines,
                            since,
                            remaining,
                            finish_event,
                        } => {
                            ctx.cancel(*finish_event);
                            let done = now.saturating_since(*since);
                            (machines.clone(), remaining.saturating_sub(done))
                        }
                        JobState::Paused {
                            machines,
                            remaining,
                            ..
                        } => (machines.clone(), *remaining),
                        _ => unreachable!("occupied machine implies live job"),
                    };
                    ms.retain(|&mm| mm != m);
                    // Find a replacement machine now if possible — taking
                    // the highest-numbered free machine implements the
                    // paper's "choose idle machines likely to stay idle"
                    // heuristic (our usage traces put the quiet machines at
                    // the high ids, as a stable diurnal pattern would).
                    let replacement = self.idle_unclaimed().last().copied();
                    let needs_machine = match replacement {
                        Some(r) => {
                            self.occupant[r as usize] = Some(i);
                            ms.push(r);
                            false
                        }
                        None => true,
                    };
                    self.states[i] = JobState::Paused {
                        machines: ms,
                        remaining,
                        needs_machine,
                    };
                    if replacement.is_some() {
                        let done_at = now + self.migration_delay;
                        ctx.schedule_at(done_at, M::upcast(MixedEvent::MigrationDone(i)));
                    }
                }
            }
        }

        // Placement pass: give freed/idle machines to paused jobs needing
        // one, then start queued jobs FCFS.
        let mut free = self.idle_unclaimed();
        for i in 0..self.states.len() {
            if free.is_empty() {
                break;
            }
            if let JobState::Paused {
                machines,
                remaining,
                needs_machine: true,
            } = &self.states[i]
            {
                let (mut ms, remaining) = (machines.clone(), *remaining);
                let r = free.pop().expect("checked non-empty");
                self.occupant[r as usize] = Some(i);
                ms.push(r);
                self.states[i] = JobState::Paused {
                    machines: ms,
                    remaining,
                    needs_machine: false,
                };
                let done_at = now + self.migration_delay;
                ctx.schedule_at(done_at, M::upcast(MixedEvent::MigrationDone(i)));
            }
        }
        while let Some(&head) = self.fifo.front() {
            let need = self.jobs[head].nodes as usize;
            if free.len() >= need {
                let at = free.len() - need;
                let ms: Vec<u32> = free.split_off(at);
                for &m in &ms {
                    self.occupant[m as usize] = Some(head);
                }
                self.fifo.pop_front();
                self.started[head] = Some(now);
                let remaining = self.jobs[head].service;
                let finish_event =
                    ctx.schedule_at(now + remaining, M::upcast(MixedEvent::Finish(head)));
                self.states[head] = JobState::Running {
                    machines: ms,
                    since: now,
                    remaining,
                    finish_event,
                };
            } else {
                break;
            }
        }
    }
}

/// Runs the job trace on a NOW whose machines follow `usage`, migrating
/// processes away whenever an owner returns.
///
/// # Panics
///
/// Panics if any job needs more nodes than the NOW has machines.
pub fn now_cluster(jobs: &JobTrace, usage: &UsageTrace, config: &MixedConfig) -> RunOutcome {
    let machines = usage.machines.len() as u32;
    let mut engine: Engine<MixedEvent> = Engine::new();
    let id = engine.register(MixedComponent::new(jobs, machines, config));
    MixedComponent::seed(&mut engine, id, jobs, usage);
    engine.run();
    engine.component::<MixedComponent>(id).outcome()
}

/// Generates the Figure 3 curve: mean execution dilation of the 32-node
/// MPP workload on the NOW (dedicated MPP = 1.0) as the number of
/// workstations grows. Averaged over several simulated days (the paper
/// used a month of job logs and two months of usage logs) to smooth
/// single-day noise.
pub fn figure3_series(seed: u64) -> Vec<(f64, f64)> {
    use now_trace::lanl::JobTraceConfig;
    use now_trace::usage::UsageTraceConfig;

    const DAYS: u64 = 6;
    let config = MixedConfig::paper_defaults();
    [40u32, 48, 56, 64, 80, 96]
        .iter()
        .map(|&n| {
            let mut total = 0.0;
            for day in 0..DAYS {
                let jobs =
                    JobTrace::generate(&JobTraceConfig::paper_defaults(), seed + day * 1_000);
                let mut ucfg = UsageTraceConfig::paper_defaults();
                ucfg.machines = n;
                let usage = UsageTrace::generate(&ucfg, seed + day * 1_000 + 1);
                total += now_cluster(&jobs, &usage, &config).mean_dilation();
            }
            (f64::from(n), total / DAYS as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_trace::lanl::JobTraceConfig;
    use now_trace::usage::UsageTraceConfig;

    fn jobs(seed: u64) -> JobTrace {
        JobTrace::generate(&JobTraceConfig::paper_defaults(), seed)
    }

    fn usage(machines: u32, seed: u64) -> UsageTrace {
        let mut cfg = UsageTraceConfig::paper_defaults();
        cfg.machines = machines;
        UsageTrace::generate(&cfg, seed)
    }

    #[test]
    fn dedicated_mpp_completes_every_job() {
        let t = jobs(1);
        let out = dedicated_mpp(&t, 32);
        assert_eq!(out.jobs.len(), t.len());
        for (arrival, start, completion) in &out.jobs {
            assert!(start >= arrival);
            assert!(completion > start);
        }
        assert!(
            (out.mean_dilation() - 1.0).abs() < 1e-9,
            "dedicated runs undilated"
        );
    }

    #[test]
    fn dedicated_mpp_respects_capacity_via_queueing() {
        // A single-node MPP must serialise everything: total response far
        // above the 32-node partition's.
        let t = jobs(2);
        let small = dedicated_mpp(&t, 32);
        let smaller = dedicated_mpp(&t, t.jobs.iter().map(|j| j.nodes).max().unwrap());
        assert!(smaller.mean_response_s() >= small.mean_response_s());
    }

    #[test]
    fn now_cluster_completes_every_job() {
        let t = jobs(3);
        let out = now_cluster(&t, &usage(64, 4), &MixedConfig::paper_defaults());
        assert_eq!(out.jobs.len(), t.len());
    }

    #[test]
    fn sixty_four_workstations_run_the_mpp_workload_with_small_slowdown() {
        // The paper: "the parallel workload of a 32-node MPP runs only 10
        // percent slower when running on 64 workstations that are handling
        // a typical sequential workload as well."
        let t = jobs(5);
        let out = now_cluster(&t, &usage(64, 6), &MixedConfig::paper_defaults());
        let dilation = out.mean_dilation();
        assert!(
            (1.0..=1.35).contains(&dilation),
            "dilation at 64 workstations: {dilation}"
        );
        // And thanks to the extra capacity, overall responsiveness is not
        // worse than the dedicated machine either.
        let baseline = dedicated_mpp(&t, 32);
        let slowdown = out.mean_slowdown_vs(&baseline);
        assert!(slowdown < 1.3, "response slowdown {slowdown}");
    }

    #[test]
    fn slowdown_falls_as_the_now_grows() {
        let series = figure3_series(7);
        // Compare the small-cluster end against the large-cluster end
        // (single points are noisy; the trend is the claim).
        let head = (series[0].1 + series[1].1) / 2.0;
        let tail = (series[4].1 + series[5].1) / 2.0;
        assert!(
            tail < head,
            "dilation should fall with cluster size: {series:?}"
        );
        // And the tail approaches the dedicated machine.
        assert!(
            tail < 1.1,
            "large NOWs should be close to dedicated: {tail}"
        );
    }

    #[test]
    fn users_trigger_migrations() {
        let t = jobs(8);
        let out = now_cluster(&t, &usage(48, 9), &MixedConfig::paper_defaults());
        assert!(out.migrations > 0, "daytime users must reclaim machines");
    }

    #[test]
    fn jobs_never_run_on_active_machines() {
        // Indirect check: with *all* machines permanently active the
        // cluster can never place anything, so we use a usage trace with
        // no users instead and check migrations are zero.
        let t = jobs(10);
        let mut cfg = UsageTraceConfig::paper_defaults();
        cfg.machines = 64;
        cfg.fully_idle_fraction = 1.0;
        let quiet = UsageTrace::generate(&cfg, 11);
        let out = now_cluster(&t, &quiet, &MixedConfig::paper_defaults());
        assert_eq!(out.migrations, 0);
        assert!(
            (out.mean_dilation() - 1.0).abs() < 1e-9,
            "no users, no dilation"
        );
        // An always-idle 64-node NOW beats the 32-node MPP outright.
        let baseline = dedicated_mpp(&t, 32);
        assert!(out.mean_slowdown_vs(&baseline) <= 1.0 + 1e-9);
    }

    #[test]
    fn reserve_machines_absorb_demanding_workloads() {
        // The paper's remedy for demand beyond idle capacity: add
        // noninteractive machines. A tight 40-machine NOW plus 24 reserves
        // dilates no more than the bare 40-machine NOW.
        let t = jobs(19);
        let base_usage = usage(40, 19);
        let bare = now_cluster(&t, &base_usage, &MixedConfig::paper_defaults());
        let reserved = now_cluster(
            &t,
            &usage(40, 19).with_reserves(24),
            &MixedConfig::paper_defaults(),
        );
        assert!(
            reserved.mean_dilation() <= bare.mean_dilation() + 1e-9,
            "reserves must help: {} vs {}",
            reserved.mean_dilation(),
            bare.mean_dilation()
        );
        assert!(reserved.migrations <= bare.migrations);
    }

    #[test]
    fn deterministic_given_seeds() {
        let t = jobs(12);
        let u = usage(56, 13);
        let a = now_cluster(&t, &u, &MixedConfig::paper_defaults());
        let b = now_cluster(&t, &u, &MixedConfig::paper_defaults());
        assert_eq!(a, b);
    }
}
