//! `--compare BASE_DIR CHANGE_DIR`: medians, quartiles and a verdict per
//! workload and metric, judged by the bounds in `BENCHMARK.json`.
//!
//! Each directory holds result files written with `--out`: one JSON
//! record per line, carrying `workload` and `metrics`. Records pair up in
//! file-name and line order, so alternate parent and change runs and keep
//! their order when saving them.
//!
//! - A gain needs at least 10 pairs, the change winning at least 9 in 10
//!   of them, and its median beating the parent's by more than the
//!   parent's interquartile range.
//! - An end-to-end metric regresses when its median is worse than the
//!   parent's by more than its bound.
//! - Otherwise, if either side's spread (IQR ÷ median) exceeds the bound,
//!   the metric is "unresolved" rather than unchanged, unless every change
//!   run reads better than every parent run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::stats::quartiles;

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Fewest pairs on which a gain (or a per-layer loss) may be claimed.
const MIN_PAIRS: usize = 10;

/// A metric named in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent median (end-to-end only).
    pub bound: Option<f64>,
}

/// Every metric `BENCHMARK.json` names: end-to-end first, then per-layer.
pub fn metric_specs() -> Result<Vec<MetricSpec>, String> {
    let spec = Json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let list = spec
            .get(section)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {section} list"))?;
        for m in list {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!("BENCHMARK.json: malformed {section} entry {m}"));
            };
            out.push(MetricSpec {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(out)
}

/// Samples by `(workload, metric)`, in record order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Samples, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut samples = Samples::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record =
                Json::parse(line).map_err(|e| format!("{}:{}: {e}", file.display(), i + 1))?;
            let (Some(workload), Some(metrics)) = (
                record.get("workload").and_then(Json::as_str),
                record.get("metrics").and_then(Json::as_object),
            ) else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    samples
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(samples)
}

impl MetricSpec {
    /// `value` oriented so that larger always reads better.
    fn oriented(&self, value: f64) -> f64 {
        if self.higher_is_better {
            value
        } else {
            -value
        }
    }

    /// `(pairs, wins, losses)` of `change` against `base`, paired in
    /// record order; ties count for neither side.
    fn pairs(&self, base: &[f64], change: &[f64]) -> (usize, usize, usize) {
        let diffs: Vec<f64> = base
            .iter()
            .zip(change)
            .map(|(&b, &c)| self.oriented(c) - self.oriented(b))
            .collect();
        let wins = diffs.iter().filter(|&&d| d > 0.0).count();
        let losses = diffs.iter().filter(|&&d| d < 0.0).count();
        (diffs.len(), wins, losses)
    }
}

/// The verdict on one metric of one workload.
pub fn verdict(base: &[f64], change: &[f64], spec: &MetricSpec) -> &'static str {
    let (pairs, wins, losses) = spec.pairs(base, change);
    let (bq1, bmed, bq3) = quartiles(base);
    let (cq1, cmed, cq3) = quartiles(change);
    // Positive when the change reads better.
    let gap = spec.oriented(cmed) - spec.oriented(bmed);
    let iqr = bq3 - bq1;
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gap > iqr {
        return "gain";
    }
    let Some(bound) = spec.bound else {
        return if pairs >= MIN_PAIRS && losses * 10 >= pairs * 9 && -gap > iqr {
            "loss"
        } else {
            "-"
        };
    };
    if -gap > bound * bmed.abs() {
        return "regression";
    }
    let spread = |q1: f64, med: f64, q3: f64| (q3 - q1) / med.abs();
    let wide = spread(bq1, bmed, bq3) > bound || spread(cq1, cmed, cq3) > bound;
    let worst_change = change
        .iter()
        .map(|&c| spec.oriented(c))
        .fold(f64::INFINITY, f64::min);
    let best_base = base
        .iter()
        .map(|&b| spec.oriented(b))
        .fold(f64::NEG_INFINITY, f64::max);
    if wide && worst_change <= best_base {
        "unresolved"
    } else {
        "within bound"
    }
}

/// Compares the result records under `base_dir` and `change_dir`.
/// Returns the report and whether any end-to-end metric regressed.
pub fn run(base_dir: &Path, change_dir: &Path) -> Result<(String, bool), String> {
    let specs = metric_specs()?;
    let base = load(base_dir)?;
    let change = load(change_dir)?;
    let mut workloads: Vec<&String> = base.keys().map(|(w, _)| w).collect();
    workloads.dedup();

    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<26} {:>28} {:>28} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for workload in workloads {
        for spec in &specs {
            let key = (workload.clone(), spec.name.clone());
            let (Some(b), Some(c)) = (base.get(&key), change.get(&key)) else {
                continue;
            };
            let v = verdict(b, c, spec);
            regressed |= v == "regression";
            let (pairs, wins, _) = spec.pairs(b, c);
            let fmt = |v: &[f64]| {
                let (q1, med, q3) = quartiles(v);
                format!("{med:.4} [{q1:.4}, {q3:.4}]")
            };
            let _ = writeln!(
                out,
                "{:<14} {:<26} {:>28} {:>28} {:>6}  {v}",
                workload,
                spec.name,
                fmt(b),
                fmt(c),
                format!("{wins}/{pairs}"),
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: "runs_per_s".to_string(),
            higher_is_better: true,
            bound,
        }
    }

    #[test]
    fn every_named_metric_has_a_direction() {
        let specs = metric_specs().unwrap();
        assert!(specs
            .iter()
            .any(|s| s.name == "setup_s" && s.bound.is_some()));
        assert!(specs.iter().any(|s| s.bound.is_none()));
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let faster: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(verdict(&base, &faster, &spec(Some(0.1))), "gain");
        assert_eq!(verdict(&base, &slower, &spec(Some(0.1))), "regression");
        assert_eq!(verdict(&base, &same, &spec(Some(0.1))), "within bound");
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &noisy, &spec(Some(0.1))), "unresolved");
        assert_eq!(verdict(&base, &slower, &spec(None)), "loss");
    }
}
