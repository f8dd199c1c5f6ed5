//! Self-test: a smoke invocation (two runs per workload) at seed 42 emits
//! every metric `BENCHMARK.json` names with a unit and a finite value, its
//! layer shares sum to 1, and every run matches the committed digests.

use std::process::Command;

use now_benchmark::compare::metric_specs;
use now_benchmark::json::Json;
use now_benchmark::workloads::Workload;

#[test]
fn smoke_invocation_emits_every_metric_and_matches_the_digests() {
    let output = Command::new(env!("CARGO_BIN_EXE_now-benchmark"))
        .args(["--smoke", "--seed", "42"])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!stdout.contains("FAIL "), "{stdout}");

    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result lines are JSON"))
        .collect();
    // An untraced and a traced pass per workload, then the combined line.
    assert_eq!(results.len(), 2 * Workload::ALL.len() + 1, "{stdout}");

    let specs = metric_specs().expect("BENCHMARK.json parses");
    for (i, result) in results.iter().enumerate().take(2 * Workload::ALL.len()) {
        let workload = Workload::ALL[i / 2].name();
        let traced = i % 2 == 1;
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{workload}");
        let attempted = result.get("attempted").and_then(Json::as_f64);
        assert!(attempted.is_some_and(|n| n >= 2.0), "{workload}");

        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .expect("a metrics object");
        // End-to-end metrics carry a bound; per-layer metrics do not.
        let wanted: Vec<_> = specs
            .iter()
            .filter(|s| s.bound.is_none() == traced)
            .collect();
        assert_eq!(metrics.len(), wanted.len(), "{workload} traced={traced}");
        for spec in wanted {
            let m = result
                .get("metrics")
                .and_then(|m| m.get(&spec.name))
                .unwrap_or_else(|| panic!("{workload} lacks {}", spec.name));
            let value = m.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload} {}: {m}",
                spec.name
            );
            let unit = m.get("unit").and_then(Json::as_str);
            assert!(
                unit.is_some_and(|u| !u.is_empty()),
                "{workload} {}",
                spec.name
            );
        }

        if traced {
            let shares: f64 = metrics
                .iter()
                .filter(|(name, _)| name.ends_with("_share"))
                .filter_map(|(_, m)| m.get("value").and_then(Json::as_f64))
                .sum();
            assert!(
                (shares - 1.0).abs() <= 0.02,
                "{workload}: layer shares sum to {shares}"
            );
        }
    }
}
