//! End-to-end checks on the observability layer: critical-path blame
//! tables partition the makespan, fabric blame grows with background
//! load, the flight recorder and blame output are deterministic, and the
//! causal log is a well-formed DAG in sim time.

use std::collections::BTreeMap;
use std::sync::Arc;

use now_bench::{ReportOptions, SEED};
use now_core::{NowCluster, ScenarioObserver, ScenarioSpec};
use now_probe::causal::{category, CausalLog};
use now_probe::recorder::csv_concat;
use now_probe::Probe;

/// One contention-scenario run at `flows` background flows with a fresh
/// causal log attached, returning the outcome, the observations, and the
/// log itself.
fn observed_run(
    flows: u32,
) -> (
    now_core::ScenarioOutcome,
    now_core::ScenarioObservations,
    Arc<CausalLog>,
) {
    let cluster = NowCluster::builder().nodes(32).seed(SEED).build();
    let spec = ScenarioSpec {
        background_flows: flows,
        seed: SEED,
        ..ScenarioSpec::contention_default()
    };
    let log = Arc::new(CausalLog::new());
    let observer = ScenarioObserver {
        probe: Probe::disabled(),
        causal: Some(Arc::clone(&log)),
        ..ScenarioObserver::disabled()
    };
    let (out, obs) = cluster.run_scenario_observed(&spec, &observer);
    (out, obs, log)
}

#[test]
fn job_blame_partitions_the_makespan() {
    let (out, obs, _) = observed_run(4);
    let job = &obs.blame.iter().find(|(tag, _)| *tag == "job").unwrap().1;
    let makespan = out.job_makespan.as_nanos() as f64;
    let attributed = job.total.as_nanos() as f64;
    assert!(
        (attributed - makespan).abs() / makespan <= 0.01,
        "blame table total {attributed} strays from makespan {makespan}"
    );
    // The rows themselves telescope to the table total exactly.
    let row_sum: u64 = job.rows.iter().map(|r| r.time.as_nanos()).sum();
    assert_eq!(row_sum, job.total.as_nanos(), "rows must partition total");
    assert!(!job.truncated, "the log must hold the whole path");
}

#[test]
fn fabric_blame_share_is_monotone_in_background_load() {
    // Contention on the switched fabric shows up as source-port wait
    // (fabric_wait) and stretched destination-link occupancy (wire), so
    // the fabric's share of the makespan is their sum.
    let shares: Vec<f64> = [0u32, 2, 4, 8, 16]
        .into_iter()
        .map(|flows| {
            let (_, obs, _) = observed_run(flows);
            let job = &obs.blame.iter().find(|(tag, _)| *tag == "job").unwrap().1;
            job.category_share(category::FABRIC_WAIT) + job.category_share(category::WIRE)
        })
        .collect();
    for w in shares.windows(2) {
        assert!(
            w[1] >= w[0] - 1e-6,
            "fabric share dipped under load: {shares:?}"
        );
    }
    assert!(
        shares.last().unwrap() > shares.first().unwrap(),
        "background load must raise the fabric's share: {shares:?}"
    );
}

#[test]
fn observed_contention_is_deterministic() {
    let opts = ReportOptions {
        smoke: true,
        blame: true,
        record: true,
        ..ReportOptions::default()
    };
    let a = now_bench::contention(&opts, &Probe::disabled());
    let b = now_bench::contention(&opts, &Probe::disabled());
    assert_eq!(a.text, b.text, "blame tables must be byte-identical");
    assert_eq!(
        csv_concat(&a.series),
        csv_concat(&b.series),
        "flight-recorder CSV must be byte-identical"
    );
    assert!(!a.series.is_empty(), "recording must produce series");
    assert!(
        a.series.iter().all(|(_, ts)| !ts.is_empty()),
        "every run must sample at least once"
    );
    assert!(
        a.series
            .iter()
            .flat_map(|(_, ts)| &ts.rows)
            .any(|(_, values)| values.iter().any(|&v| v != 0.0)),
        "the recorder must see live gauges, not detached zeros"
    );
}

#[test]
fn disabled_observer_adds_nothing_to_the_report() {
    let opts = ReportOptions {
        smoke: true,
        ..ReportOptions::default()
    };
    let r = now_bench::contention(&opts, &Probe::disabled());
    assert!(r.series.is_empty(), "no recorder was attached");
    assert!(
        !r.text.contains("Blame"),
        "no blame was requested:\n{}",
        r.text
    );
}

#[test]
fn causal_parents_precede_their_children() {
    let (_, _, log) = observed_run(2);
    let records = log.records();
    assert!(!records.is_empty(), "the scenario must leave a causal log");
    assert_eq!(log.dropped(), 0, "the default capacity must hold the run");
    let by_seq: BTreeMap<u64, _> = records.iter().map(|r| (r.seq, r)).collect();
    for r in &records {
        assert!(
            r.scheduled_at <= r.fires_at,
            "event {} fires before it was scheduled",
            r.seq
        );
        if let Some(parent) = r.parent {
            let p = by_seq
                .get(&parent)
                .unwrap_or_else(|| panic!("parent {parent} of {} missing from log", r.seq));
            assert!(
                p.fires_at <= r.scheduled_at,
                "parent {parent} fires at {:?}, after child {} was scheduled at {:?}",
                p.fires_at,
                r.seq,
                r.scheduled_at
            );
            assert_eq!(p.trace, r.trace, "children must inherit the trace id");
        }
    }
}

#[test]
fn distribute_blame_partitions_the_cold_start_makespan() {
    use now_core::{DistributeSpec, FetchStrategy, ImageCatalogSpec};
    use now_sim::SimTime;
    for strategy in [FetchStrategy::Registry, FetchStrategy::Cooperative] {
        let cluster = NowCluster::builder().nodes(32).seed(SEED).build();
        let spec = DistributeSpec {
            catalog: ImageCatalogSpec::smoke(SEED),
            fetchers: 12,
            registry_nics: 4,
            cache_budget: u64::MAX,
            strategy,
            seed: SEED,
            horizon: SimTime::from_secs(1),
            partitions: 1,
            am_batch: now_am::BatchConfig::disabled(),
        };
        let observer = ScenarioObserver {
            probe: Probe::disabled(),
            causal: Some(Arc::new(CausalLog::new())),
            trace_sample_every: 1,
            ..ScenarioObserver::disabled()
        };
        let (out, obs) = cluster.run_distribute_observed(&spec, &observer);
        let table = &obs
            .blame
            .iter()
            .find(|(tag, _)| *tag == "distribute")
            .unwrap_or_else(|| panic!("{strategy:?} left no distribute blame table"))
            .1;
        let makespan = out.makespan.as_nanos() as f64;
        let attributed = table.total.as_nanos() as f64;
        assert!(
            (attributed - makespan).abs() / makespan <= 0.01,
            "{strategy:?}: blame total {attributed} strays from makespan {makespan}"
        );
        let row_sum: u64 = table.rows.iter().map(|r| r.time.as_nanos()).sum();
        assert_eq!(
            row_sum,
            table.total.as_nanos(),
            "{strategy:?}: rows must partition total"
        );
        assert!(!table.truncated, "the log must hold the whole path");
        // Every nanosecond lands in a cas category; cooperative runs
        // must attribute real peer time.
        let cas_share = table.category_share(category::CAS_REGISTRY)
            + table.category_share(category::CAS_PEER)
            + table.category_share(category::CAS_DISK);
        assert!(
            (cas_share - 1.0).abs() <= 0.01,
            "{strategy:?}: cas categories cover {cas_share} of the makespan"
        );
        match strategy {
            FetchStrategy::Registry => assert_eq!(
                table.category_share(category::CAS_PEER),
                0.0,
                "registry-only fetches must never blame peers"
            ),
            FetchStrategy::Cooperative => assert!(
                table.category_share(category::CAS_PEER) > 0.0,
                "cooperative fetches must blame peer serves"
            ),
        }
    }
}

#[test]
fn availability_blame_attributes_recovery_to_the_rebuild() {
    let opts = ReportOptions {
        smoke: true,
        blame: true,
        ..ReportOptions::default()
    };
    let r = now_bench::availability(&opts, &Probe::disabled());
    assert!(
        r.text
            .contains("Blame - rebuild chain, disk fail + rebuild"),
        "rebuild chain table missing:\n{}",
        r.text
    );
    assert!(
        r.text.contains(category::FAULT_RECOVERY),
        "recovery time must be attributed:\n{}",
        r.text
    );
    assert!(
        r.text.contains("Blame - job chain, worker crash + spare"),
        "per-scenario job tables missing:\n{}",
        r.text
    );
}
