//! Ablations: turn each NOW design choice off (or sweep it) and show what
//! it was buying.
//!
//! | Ablation | Design choice probed |
//! |---|---|
//! | [`nchance_budget`] | singlet recirculation in cooperative caching |
//! | [`client_cache_size`] | how much client DRAM cooperation needs |
//! | [`message_overhead`] | the low-overhead communication layer |
//! | [`migration_path`] | parallel-FS memory restore for migration |
//! | [`scheduling_quantum`] | quantum length vs coscheduling skew |
//! | [`raid_write_path`] | log-structured writes vs in-place RAID-5 |

use now_sim::report::TextTable;
use now_sim::SimDuration;

/// The trace length used by the cache ablations (12-hour slice of the
/// Table 3 configuration — full-length numbers belong to `repro --table3`).
fn cache_trace() -> now_trace::fs::FsTrace {
    let mut cfg = now_trace::fs::FsTraceConfig::paper_defaults();
    cfg.duration = SimDuration::from_secs(12 * 3600);
    now_trace::fs::FsTrace::generate(&cfg, crate::SEED)
}

/// Sweeps the N-Chance recirculation budget.
pub fn nchance_budget() -> String {
    let trace = cache_trace();
    let sweep = now_cache::sweep_nchance(&trace, &[0, 1, 2, 4, 8]);
    let mut t = TextTable::new(&["Recirculation budget n", "Disk read rate (%)"]);
    t.title("Ablation - N-Chance singlet recirculation (12-hour trace)");
    for (n, rate) in sweep {
        t.row_owned(vec![n.to_string(), format!("{:.1}", rate * 100.0)]);
    }
    t.render()
}

/// Sweeps per-client cache memory under greedy forwarding.
pub fn client_cache_size() -> String {
    let trace = cache_trace();
    let sweep = now_cache::sweep_client_cache(
        &trace,
        now_cache::Policy::GreedyForwarding,
        &[2, 4, 8, 16, 32, 64],
    );
    let mut t = TextTable::new(&["Client cache (MB)", "Disk read rate (%)"]);
    t.title("Ablation - client cache size, cooperative caching");
    for (mb, rate) in sweep {
        t.row_owned(vec![mb.to_string(), format!("{:.1}", rate * 100.0)]);
    }
    t.render()
}

/// Sweeps per-message software overhead in the Gator model and reports
/// the crossover against the C-90.
pub fn message_overhead() -> String {
    use now_models::sensitivity::{gator_vs_overhead, overhead_crossover_us};
    let sweep = gator_vs_overhead(&[1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1_000.0]);
    let mut t = TextTable::new(&["Msg overhead (us)", "Gator total (s)"]);
    t.title("Ablation - software overhead on a 256-node ATM NOW");
    for p in &sweep {
        t.row_owned(vec![format!("{:.0}", p.x), format!("{:.0}", p.y)]);
    }
    let c90 = now_models::gator::table4()
        .into_iter()
        .find(|r| r.machine.starts_with("C-90"))
        .expect("C-90 row exists")
        .total_s();
    let crossover = overhead_crossover_us(c90, 1.0, 1_000.0);
    let mut out = t.render();
    out.push_str(&format!(
        "crossover vs the C-90 ({c90:.0} s): overhead must stay below {crossover:.0} us\n"
    ));
    out
}

/// Compares migration over the parallel file system against a single
/// server disk, as seen in the Figure 3 experiment.
pub fn migration_path() -> String {
    use now_glunix::migrate::MigrationModel;
    use now_glunix::mixed::{now_cluster, MixedConfig};
    use now_trace::lanl::{JobTrace, JobTraceConfig};
    use now_trace::usage::{UsageTrace, UsageTraceConfig};

    let jobs = JobTrace::generate(&JobTraceConfig::paper_defaults(), crate::SEED);
    let mut ucfg = UsageTraceConfig::paper_defaults();
    ucfg.machines = 48; // tight enough that migration cost shows
    let usage = UsageTrace::generate(&ucfg, crate::SEED + 1);

    let mut t = TextTable::new(&["Migration I/O path", "64-MB move (s)", "Workload dilation"]);
    t.title("Ablation - memory restore path for process migration (48 workstations)");
    for (name, migration) in [
        ("ATM + parallel file system", MigrationModel::now_atm_pfs()),
        (
            "ATM + single server disk",
            MigrationModel::now_atm_single_disk(),
        ),
    ] {
        let config = MixedConfig {
            process_mem_mb: 64,
            migration,
        };
        let out = now_cluster(&jobs, &usage, &config);
        t.row_owned(vec![
            name.to_string(),
            format!("{:.1}", migration.migration_time(64).as_secs_f64()),
            format!("{:.3}", out.mean_dilation()),
        ]);
    }
    t.render()
}

/// Sweeps the scheduling quantum for the barrier-synchronised Em3d under
/// local scheduling.
pub fn scheduling_quantum() -> String {
    use now_glunix::cosched::{slowdown, AppSpec, CoschedConfig};
    let em3d = AppSpec::figure4_apps()[2];
    let mut t = TextTable::new(&["Quantum (ms)", "Local-vs-gang slowdown"]);
    t.title("Ablation - quantum length, Em3d, 2 competing jobs");
    for q_ms in [25u64, 50, 100, 200] {
        let mut config = CoschedConfig::paper_defaults(2);
        config.quantum = SimDuration::from_millis(q_ms);
        t.row_owned(vec![
            q_ms.to_string(),
            format!(
                "{:.1}",
                slowdown(&em3d, &config, &now_probe::Probe::disabled())
            ),
        ]);
    }
    t.render()
}

/// Disk operations per logical write: in-place RAID-5 read-modify-write
/// against the log-structured full-stripe path.
pub fn raid_write_path() -> String {
    use now_raid::{RaidConfig, RaidLevel, SoftwareRaid, StripeLog};
    let n = 240u64;
    let cfg = RaidConfig {
        level: RaidLevel::Raid5,
        disks: 8,
        block_bytes: 8_192,
    };
    // In-place steady state: prime, then overwrite.
    let mut inplace = SoftwareRaid::new(cfg);
    for i in 0..n {
        inplace.write(i, &[0u8; 8_192]).unwrap();
    }
    let before = inplace.stats().disk_ops;
    for i in 0..n {
        inplace.write(i, &[1u8; 8_192]).unwrap();
    }
    let inplace_ops = inplace.stats().disk_ops - before;

    let mut log = StripeLog::new(SoftwareRaid::new(cfg));
    for i in 0..n {
        log.write(i, &[1u8; 8_192]).unwrap();
    }
    log.flush().unwrap();
    let log_ops = log.raid_mut().stats().disk_ops;

    let mut t = TextTable::new(&["Write path", "Disk ops / logical write"]);
    t.title("Ablation - the RAID-5 small-write problem");
    t.row_owned(vec![
        "in-place read-modify-write".to_string(),
        format!("{:.2}", inplace_ops as f64 / n as f64),
    ]);
    t.row_owned(vec![
        "log-structured full stripes".to_string(),
        format!("{:.2}", log_ops as f64 / n as f64),
    ]);
    t.render()
}

/// All ablations, concatenated, fanned out over `jobs` worker threads.
/// Each ablation is an independent seeded sweep and the sections join in
/// the fixed list order, so the output is byte-identical for any `jobs`.
pub fn all(jobs: usize) -> String {
    let sections: [fn() -> String; 6] = [
        nchance_budget,
        client_cache_size,
        message_overhead,
        migration_path,
        scheduling_quantum,
        raid_write_path,
    ];
    now_sim::parallel::run_indexed(jobs, &sections, |_, section| section()).join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raid_write_path_shows_the_small_write_problem() {
        let report = raid_write_path();
        assert!(
            report.contains("4.00"),
            "in-place should cost 4 ops:\n{report}"
        );
        // The log path is well under 2 ops per write.
        assert!(report.contains("log-structured"));
    }

    #[test]
    fn quantum_ablation_renders() {
        let report = scheduling_quantum();
        assert!(report.lines().count() >= 6, "{report}");
    }

    #[test]
    fn overhead_ablation_reports_a_crossover() {
        let report = message_overhead();
        assert!(report.contains("crossover"), "{report}");
    }
}
