//! The parallel layer's contract, end to end: fanning a report's
//! independent runs over worker threads must not change a single byte of
//! output, and repeated runs at the same worker count must agree.
//!
//! `now-sim::parallel::run_indexed` promises input-order results and the
//! Monte-Carlo estimators promise per-trial seed splitting; these tests
//! check the promise where it matters — the rendered tables the `repro`
//! binary ships.

use now_bench::{ObservedReport, ReportOptions};
use now_probe::Probe;

/// Smoke options at `jobs` workers.
fn at_jobs(jobs: usize) -> ReportOptions {
    ReportOptions {
        smoke: true,
        jobs,
        ..ReportOptions::default()
    }
}

fn contention(opts: &ReportOptions) -> ObservedReport {
    now_bench::contention(opts, &Probe::disabled())
}

#[test]
fn contention_table_is_byte_identical_across_jobs() {
    let serial = contention(&at_jobs(1)).text;
    for jobs in [2usize, 8] {
        assert_eq!(
            serial,
            contention(&at_jobs(jobs)).text,
            "contention table diverged at jobs={jobs}"
        );
    }
    assert_eq!(
        contention(&at_jobs(8)).text,
        contention(&at_jobs(8)).text,
        "contention table diverged between repeated runs at jobs=8"
    );
}

#[test]
fn availability_report_is_byte_identical_across_jobs() {
    let availability = |jobs| now_bench::availability(&at_jobs(jobs), &Probe::disabled()).text;
    let serial = availability(1);
    for jobs in [2usize, 8] {
        assert_eq!(
            serial,
            availability(jobs),
            "availability report diverged at jobs={jobs}"
        );
    }
    assert_eq!(
        availability(8),
        availability(8),
        "availability report diverged between repeated runs at jobs=8"
    );
}

#[test]
fn blame_tables_are_byte_identical_across_jobs() {
    // Causal logs are per run, so blame parallelises; the full observed
    // report (table + blame appendix) must still match the serial one.
    let blame = |jobs| ReportOptions {
        blame: true,
        ..at_jobs(jobs)
    };
    let serial = contention(&blame(1));
    let parallel = contention(&blame(8));
    assert_eq!(serial.text, parallel.text);
    assert!(
        serial.text.contains("Blame - job makespan"),
        "blame appendix missing:\n{}",
        serial.text
    );
}

#[test]
fn batched_contention_is_byte_identical_across_jobs() {
    // Batching state is per cell-fabric, so the worker count may not leak
    // into a batched report, whether it spreads the points (32 nodes) or
    // each point's three cells (96 nodes).
    for nodes in [32, 96] {
        let batched = |jobs| ReportOptions {
            nodes,
            am_batch_us: 8,
            ..at_jobs(jobs)
        };
        let serial = contention(&batched(1)).text;
        for jobs in [2usize, 4] {
            assert_eq!(
                serial,
                contention(&batched(jobs)).text,
                "batched contention diverged at nodes={nodes}, jobs={jobs}"
            );
        }
    }
}

#[test]
fn contention_series_matches_across_jobs() {
    // The flight-recorder series of every sweep point, not just the
    // rendered table, must be independent of the worker count.
    let recorded = |jobs| ReportOptions {
        record: true,
        ..at_jobs(jobs)
    };
    let serial = contention(&recorded(1)).series;
    assert!(!serial.is_empty(), "recording must produce series");
    assert_eq!(serial, contention(&recorded(8)).series);
}

#[test]
fn ablations_are_byte_identical_across_jobs() {
    let serial = now_bench::ablations::all(1);
    assert_eq!(serial, now_bench::ablations::all(8));
}

#[test]
fn enabled_probe_sees_identical_counts_whatever_jobs_asked() {
    // With a shared enabled probe the fan-out is forced serial, so the
    // registry snapshot — not just the table — is reproducible.
    use now_probe::Registry;
    let snap = |jobs: usize| {
        let registry = Registry::new();
        let text = now_bench::contention(&at_jobs(jobs), &registry.probe()).text;
        (text, registry.snapshot().counters)
    };
    assert_eq!(snap(1), snap(8));
}
