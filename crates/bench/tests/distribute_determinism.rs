//! The distribution report's contracts, end to end: byte-identical
//! output across repeated runs and worker counts; byte-identical
//! delivered images across strategies; and a crossover that lands inside
//! the sweep.

use now_bench::ReportOptions;
use now_probe::Probe;

/// The smoke distribution report under `opts` (smoke forced on).
fn report(opts: ReportOptions) -> String {
    let opts = ReportOptions {
        smoke: true,
        ..opts
    };
    now_bench::distribute(&opts, &Probe::disabled()).text
}

#[test]
fn distribute_report_is_byte_identical_across_runs_and_jobs() {
    let serial = report(ReportOptions::default());
    for jobs in [2usize, 4] {
        assert_eq!(
            serial,
            report(ReportOptions {
                jobs,
                ..ReportOptions::default()
            }),
            "distribution report diverged at jobs={jobs}"
        );
    }
    let again = report(ReportOptions {
        jobs: 4,
        ..ReportOptions::default()
    });
    assert_eq!(
        serial, again,
        "distribution report diverged between repeated runs"
    );
}

#[test]
fn distribute_blame_tables_are_deterministic() {
    let blame = ReportOptions {
        blame: true,
        ..ReportOptions::default()
    };
    let a = report(blame.clone());
    let b = report(ReportOptions { jobs: 4, ..blame });
    assert_eq!(a, b, "blame appendix must not depend on jobs");
    assert!(
        a.contains("Blame - cold-start makespan, registry"),
        "registry blame table missing:\n{a}"
    );
    assert!(
        a.contains("Blame - cold-start makespan, cooperative"),
        "cooperative blame table missing:\n{a}"
    );
}

#[test]
fn distribute_summary_matches_the_report_and_crosses_over() {
    // The report's summary line names the first sweep point where
    // cooperative fetch beat registry-only: inside the smoke sweep, and
    // never at its smallest point, where the registry NICs are idle.
    let report = report(ReportOptions::default());
    let crossover: u32 = report
        .lines()
        .find_map(|l| l.strip_prefix("Crossover: cooperative fetch wins from "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|nodes| nodes.parse().ok())
        .unwrap_or_else(|| panic!("cooperative fetch must win somewhere:\n{report}"));
    assert!(
        crossover > 2 && crossover <= 32,
        "crossover must land inside the sweep: {crossover}\n{report}"
    );
}
