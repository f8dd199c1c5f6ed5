//! End-to-end checks on the observatory surface: the Chrome trace export
//! parses as JSON with monotone timestamps, the `repro diff` regression
//! gate catches an injected regression with a nonzero exit, and bad
//! `repro` arguments exit 2.

use std::process::Command;

use now_mem::multigrid::{self, MemoryConfig};
use now_probe::Registry;
use now_sim::SimTime;

/// Every `"ts":<number>` in emission order. The exporter writes one per
/// trace event, so the sequence is exactly the event timeline.
fn timestamps(trace: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut rest = trace;
    while let Some(at) = rest.find("\"ts\":") {
        rest = &rest[at + 5..];
        let end = rest.find([',', '}']).expect("a ts field ends with , or }");
        out.push(rest[..end].parse().expect("ts is a number"));
        rest = &rest[end..];
    }
    out
}

#[test]
fn chrome_trace_parses_and_timestamps_are_monotone() {
    let registry = Registry::new();
    let probe = registry.probe();
    // A real span producer (the multigrid solver records one `mem` span
    // per run) plus hand-placed events at scattered sim times, so the
    // sorted export has distinct timestamps to order.
    multigrid::run_probed(8, MemoryConfig::local32_disk(), &probe);
    for i in [7u64, 3, 11, 1, 9] {
        let at = SimTime::from_nanos(i * 1_000);
        probe.instant("test", "tick", at, &[("i", i as f64)]);
        probe
            .span("test", "work", at)
            .arg("i", i as f64)
            .end(SimTime::from_nanos(i * 1_000 + 500));
    }
    let trace = registry.chrome_trace();

    // The exporter hand-writes its JSON; the diff module's parser is an
    // independent implementation, so a clean parse is a real check.
    let parsed = now_probe::diff::parse(&trace);
    assert!(parsed.is_ok(), "chrome trace must parse: {parsed:?}");

    let ts = timestamps(&trace);
    assert!(
        ts.len() > 10,
        "an observed contention sweep must emit trace events, got {}",
        ts.len()
    );
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "trace timestamps must be sorted non-decreasing"
    );
    assert!(
        ts.iter().all(|t| t.is_finite() && *t >= 0.0),
        "timestamps are non-negative microseconds"
    );
}

/// A tiny metrics snapshot in the `--metrics-out` shape with one knob to
/// turn for injecting regressions.
fn snapshot(net_bytes: u64) -> String {
    format!(
        "{{\n  \"counters\": {{\n    \"net.bytes\": {net_bytes},\n    \
         \"pager.faults\": 120\n  }},\n  \"trace_dropped\": 0\n}}\n"
    )
}

fn run_diff(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("diff")
        .args(args)
        .output()
        .expect("repro diff runs");
    (
        out.status.code().expect("repro diff exits"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

#[test]
fn repro_diff_gates_an_injected_regression() {
    let dir = std::env::temp_dir();
    let base = dir.join("now_observatory_base.json");
    let same = dir.join("now_observatory_same.json");
    let worse = dir.join("now_observatory_worse.json");
    std::fs::write(&base, snapshot(1_000_000)).unwrap();
    std::fs::write(&same, snapshot(1_000_000)).unwrap();
    // 12% more bytes on the wire: past the 10% default threshold.
    std::fs::write(&worse, snapshot(1_120_000)).unwrap();

    let (code, stdout) = run_diff(&[base.to_str().unwrap(), same.to_str().unwrap()]);
    assert_eq!(code, 0, "identical snapshots are clean: {stdout}");
    assert!(stdout.contains("all within"), "{stdout}");

    let (code, stdout) = run_diff(&[base.to_str().unwrap(), worse.to_str().unwrap()]);
    assert_eq!(code, 1, "a 12% regression must fail the gate: {stdout}");
    assert!(
        stdout.contains("counters.net.bytes"),
        "the report names the regressed key: {stdout}"
    );
    assert!(stdout.contains("+12.0"), "{stdout}");

    // A looser threshold waves the same delta through.
    let (code, _) = run_diff(&[
        base.to_str().unwrap(),
        worse.to_str().unwrap(),
        "--threshold",
        "0.2",
    ]);
    assert_eq!(code, 0, "12% is clean under a 20% threshold");

    // Ignored keys never regress.
    let (code, _) = run_diff(&[
        base.to_str().unwrap(),
        worse.to_str().unwrap(),
        "--ignore",
        "net.bytes",
    ]);
    assert_eq!(code, 0, "ignored keys are skipped");
}

#[test]
fn repro_diff_usage_errors_exit_two() {
    let (code, _) = run_diff(&["/nonexistent-only-one-path.json"]);
    assert_eq!(code, 2, "one path is a usage error");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["diff", "--bogus-flag", "a.json", "b.json"])
        .output()
        .expect("repro diff runs");
    assert_eq!(out.status.code(), Some(2), "unknown flags are usage errors");

    // Bad report flags and scenario names are usage errors too: exit 2
    // with a message, never a panic.
    for argv in [
        &["--nodes", "0"][..],
        &["--nodes", "33"],
        &["--nodes"],
        &["--jobs", "0"],
        &["--partitions", "x"],
        &["--am-batch", "-1"],
        &["--metrics=xml"],
        &["--bogus"],
        &["tabel3"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(argv)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    }
}
