//! Property tests for GLUnix scheduling invariants.

use now_glunix::cosched::{run, AppSpec, CommPattern, CoschedConfig, Scheduling};
use now_glunix::exec::{run_batch, ExecConfig, SeqJob};
use now_glunix::mixed::{dedicated_mpp, now_cluster, MixedConfig};
use now_sim::{SimDuration, SimTime};
use now_trace::lanl::{JobTrace, JobTraceConfig};
use now_trace::usage::{UsageTrace, UsageTraceConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Gang scheduling is never slower than local scheduling for any app
    /// shape (coscheduling dominates).
    #[test]
    fn gang_dominates_local(
        steps in 5u32..40,
        compute_ms in 1u64..8,
        msgs in 1u32..64,
        competing in 0u32..3,
        pattern_pick in 0u8..4,
    ) {
        let pattern = match pattern_pick {
            0 => CommPattern::RandomSmall { msgs_per_step: msgs },
            1 => CommPattern::Burst { msgs_per_step: msgs * 64 },
            2 => CommPattern::NeighborBarrier,
            _ => CommPattern::RequestReply { reqs_per_step: (msgs % 16).max(1) },
        };
        let app = AppSpec {
            name: "prop",
            steps,
            compute_per_step: SimDuration::from_millis(compute_ms),
            pattern,
        };
        let config = CoschedConfig::paper_defaults(competing);
        let gang = run(&app, Scheduling::Gang, &config, &now_probe::Probe::disabled());
        let local = run(&app, Scheduling::Local, &config, &now_probe::Probe::disabled());
        prop_assert!(local >= gang, "local {local} beat gang {gang} for {pattern:?}");
    }

    /// The dedicated-MPP scheduler conserves capacity: at no point do
    /// running jobs exceed the partition — checked indirectly: makespan is
    /// at least total-work / capacity.
    #[test]
    fn dedicated_mpp_respects_capacity(seed in 0u64..500) {
        let jobs = JobTrace::generate(&JobTraceConfig::paper_defaults(), seed);
        prop_assume!(!jobs.is_empty());
        let out = dedicated_mpp(&jobs, 32);
        let makespan = out
            .jobs
            .iter()
            .map(|(_, _, c)| *c)
            .max()
            .unwrap()
            .saturating_since(jobs.jobs[0].arrival)
            .as_secs_f64();
        let lower_bound = jobs.total_node_seconds() / 32.0;
        prop_assert!(
            makespan + 1.0 >= lower_bound,
            "makespan {makespan} below work bound {lower_bound}"
        );
        // And every job runs for at least its service time.
        for ((_, s, c), job) in out.jobs.iter().zip(&jobs.jobs) {
            prop_assert!(c.saturating_since(*s) >= job.service);
        }
    }

    /// The NOW run never completes a job faster than its service demand,
    /// and dilation is always >= 1.
    #[test]
    fn now_cluster_never_cheats(seed in 0u64..200, machines in 36u32..96) {
        let jobs = JobTrace::generate(&JobTraceConfig::paper_defaults(), seed);
        prop_assume!(!jobs.is_empty());
        let mut ucfg = UsageTraceConfig::paper_defaults();
        ucfg.machines = machines;
        let usage = UsageTrace::generate(&ucfg, seed + 1);
        let out = now_cluster(&jobs, &usage, &MixedConfig::paper_defaults());
        for ((_, s, c), job) in out.jobs.iter().zip(&jobs.jobs) {
            prop_assert!(
                c.saturating_since(*s) + SimDuration::from_nanos(1) > job.service,
                "job finished faster than its demand"
            );
        }
        prop_assert!(out.mean_dilation() >= 1.0 - 1e-9);
    }

    /// glurun conserves work: no job completes before arrival + service /
    /// fastest-possible share, and restarts only increase completion times.
    #[test]
    fn exec_conserves_work(
        arrivals in prop::collection::vec((0u64..100, 10u64..200), 1..15),
        nodes in 1u32..6,
    ) {
        let jobs: Vec<SeqJob> = arrivals
            .iter()
            .map(|&(a, s)| SeqJob {
                arrival: SimTime::from_secs(a),
                service: SimDuration::from_secs(s),
            })
            .collect();
        let config = ExecConfig { sandbox: false, ..ExecConfig::default() };
        let out = run_batch(&jobs, nodes, &[], &config);
        for (j, c) in jobs.iter().zip(&out.completions) {
            prop_assert!(
                c.saturating_since(j.arrival) + SimDuration::from_nanos(nodes as u64) >= j.service,
                "job served faster than physics: {} < {}",
                c.saturating_since(j.arrival),
                j.service
            );
        }
        // Total placements equal job count (no failures).
        prop_assert_eq!(out.placements.iter().map(|&p| u64::from(p)).sum::<u64>(), jobs.len() as u64);
        prop_assert_eq!(out.restarts, 0);
    }
}
