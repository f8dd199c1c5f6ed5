//! One workload, one process: set-up, the timed untraced pass, and (when
//! tracing) the traced, observed and outside-in passes.
//!
//! End-to-end metrics come from the untraced pass only. The traced pass
//! re-runs the first fifth of the same runs under the host profiler, and
//! the observed pass re-runs a few of them under a probe registry, causal
//! log and flight recorder. Both check each outcome against its untraced
//! digest: observation must never change the simulated history.

use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use now_core::ScenarioObserver;
use now_probe::causal::CausalLog;
use now_probe::{Registry, Snapshot};
use now_sim::SimDuration;

use crate::json::Json;
use crate::layers::{self, ratio, Ledger};
use crate::oracle;
use crate::speed::Speedometer;
use crate::stats::{median, percentile};
use crate::workloads::{self, Bench, Outcome, Spec, Workload};

/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Runs per workload in a smoke invocation.
const SMOKE_RUNS: u64 = 2;

/// Share of the untraced runs the traced pass re-runs.
const TRACED_SHARE: f64 = 0.2;

/// Most runs the observed pass (causal log and recorder on vs off) uses.
const OBSERVED_RUNS: usize = 4;

/// Repetitions of each outside-in layer timing.
const OUTSIDE_IN_REPS: usize = 3;

/// What one invocation does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Base seed: run `i` uses seed `seed + i / k`.
    pub seed: u64,
    /// Length of the timed pass.
    pub seconds: f64,
    /// Report per-layer metrics (traced) instead of end-to-end ones.
    pub trace: bool,
    /// Exactly [`SMOKE_RUNS`] timed runs and one repetition of everything
    /// else, for the self-test.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Runs whose outputs were checked.
    pub attempted: u64,
    /// Runs that panicked, broke an invariant or gave a wrong digest.
    pub failed: u64,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(m.value)),
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.failed == 0)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

/// Checks every run's outcome and counts failures, printing one
/// `FAIL <workload> <run> <reason>` line for each.
struct Checker {
    workload: Workload,
    /// Committed digests by run (empty unless at the expected seed).
    expected: BTreeMap<u64, u64>,
    /// Content digest of the first distribution run seen at each seed:
    /// registry and cooperative fetches must deliver the same bytes.
    content: BTreeMap<u64, u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Checker {
        Checker {
            workload,
            expected: if seed == oracle::EXPECTED_SEED {
                oracle::expected(workload)
            } else {
                BTreeMap::new()
            },
            content: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks run `run` of `spec`; returns its digest if it produced an
    /// outcome. `untraced` is the digest an observed re-run must match.
    fn check(
        &mut self,
        run: u64,
        spec: &Spec,
        result: &Result<Outcome, String>,
        untraced: Option<u64>,
    ) -> Option<u64> {
        self.attempted += 1;
        let mut reasons = Vec::new();
        let digest = match result {
            Err(panic) => {
                reasons.push(format!("panicked: {panic}"));
                None
            }
            Ok(outcome) => {
                if let Err(reason) = oracle::invariants(outcome) {
                    reasons.push(reason);
                }
                let digest = oracle::digest(outcome);
                if let Some(&want) = self.expected.get(&run) {
                    if want != digest {
                        reasons.push(format!("digest {digest:016x} != expected {want:016x}"));
                    }
                }
                if let Some(want) = untraced {
                    if want != digest {
                        reasons.push(format!(
                            "observed digest {digest:016x} != untraced {want:016x}"
                        ));
                    }
                }
                if let Outcome::Distribute(o) = outcome {
                    let first = *self.content.entry(spec.seed()).or_insert(o.content_digest);
                    if first != o.content_digest {
                        reasons.push("registry and cooperative content differ".to_string());
                    }
                }
                Some(digest)
            }
        };
        if !reasons.is_empty() {
            self.fail(&run.to_string(), &reasons.join("; "));
        }
        digest
    }

    /// Counts one failure of `what` (a run index, or `-` for a check that
    /// belongs to no run) and prints its `FAIL` line.
    fn fail(&mut self, what: &str, reason: &str) {
        self.failed += 1;
        println!("FAIL {} {what} {reason}", self.workload.name());
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Calls `f`, timing it and turning a panic into an error.
fn timed<T>(f: impl FnOnce() -> T) -> (Duration, Result<T, String>) {
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(f)).map_err(panic_message);
    (t.elapsed(), result)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Report {
    let mut checker = Checker::new(opts.workload, opts.seed);
    let mut speed = Speedometer::new(opts.workload.speed_loop());

    // Set-up: cluster and first spec, plus one untimed warm-up run, done
    // several times so that work moved into set-up shows in a median.
    let setup_reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(setup_reps);
    let mut bench = None;
    for rep in 0..setup_reps as u64 {
        // Never two clusters alive at once: the peak resident set is
        // that of one set-up, not of a set-up plus the previous one.
        drop(bench.take());
        speed.tick();
        let t = Instant::now();
        let b = Bench::new(opts.workload, opts.seed);
        // Each set-up warms up on the first configuration at a seed of
        // its own, so the median does not hang on one seed's run. A panic
        // here shows again, and is counted, in the timed pass.
        let spec = b.spec(rep * opts.workload.configs());
        let _ = catch_unwind(AssertUnwindSafe(|| black_box(b.run(&spec))));
        setups.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");

    // The timed pass: closed loop, runs back to back, nothing observing.
    let deadline = Duration::from_secs_f64(opts.seconds);
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let calibrating = speed.spent();
    let start = Instant::now();
    loop {
        let run = walls.len() as u64;
        let more = if opts.smoke {
            run < SMOKE_RUNS
        } else {
            run == 0 || start.elapsed() < deadline
        };
        if !more {
            break;
        }
        speed.tick();
        let spec = bench.spec(run);
        let (wall, result) = timed(|| bench.run(&spec));
        walls.push(wall);
        digests.push(checker.check(run, &spec, &result, None));
    }
    let elapsed = (start.elapsed() - (speed.spent() - calibrating)).as_secs_f64();
    let run_ms: Vec<f64> = walls.iter().map(|w| w.as_secs_f64() * 1e3).collect();

    // Host times below are scaled to the reference machine speed.
    let metrics = if opts.trace {
        traced_metrics(opts, &bench, &mut checker, &mut speed, &run_ms, &digests)
    } else {
        let slowdown = speed.slowdown();
        vec![
            metric(
                "runs_per_s",
                walls.len() as f64 / elapsed * slowdown,
                "runs/s",
            ),
            metric("run_ms_p50", median(&run_ms) / slowdown, "ms"),
            metric("setup_s", median(&setups) / slowdown, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Simulated-behaviour facts and probe counters summed over the observed
/// runs, for the deterministic per-layer metrics.
#[derive(Debug, Default)]
struct Facts {
    runs: u64,
    busiest_util: f64,
    queue_wait_ns: u64,
    queue_waits: u64,
    am_batches: u64,
    am_batched_msgs: u64,
    netram_fetch_us: f64,
    netram_runs: u64,
    cache_reads: u64,
    cache_local: u64,
    cache_disk: u64,
    cas_lookups: u64,
    cas_lookup_hits: u64,
    cas_peer_blocks: u64,
    cas_blocks: u64,
    cas_verify_failures: u64,
}

impl Facts {
    /// Adds one run's registry snapshot. Multi-cell runs publish each
    /// cell's instruments under a `cell{c}.` prefix, so names are matched
    /// by suffix.
    fn add_snapshot(&mut self, snap: &Snapshot) {
        self.runs += 1;
        let counter = |suffix: &str| -> u64 {
            snap.counters
                .iter()
                .filter(|(n, _)| n.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        self.am_batches += counter("am.batches");
        self.am_batched_msgs += counter("am.batched_msgs");
        for (name, h) in &snap.histograms {
            if name.ends_with("net.queue_wait.ns") {
                self.queue_wait_ns += h.sum;
                self.queue_waits += h.count;
            }
        }
        self.busiest_util += snap
            .utils
            .iter()
            .map(|(_, u)| u.utilization())
            .fold(0.0, f64::max);
    }

    fn add_outcome(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Serve(o) => {
                self.cache_reads += o.requests;
                self.cache_local += o.local_hits;
                self.cache_disk += o.disk_reads;
            }
            Outcome::Scenario(o) => {
                self.cache_reads += o.cache.reads;
                self.cache_local += o.cache.local_hits;
                self.cache_disk += o.cache.disk_reads;
                if let Some(us) = o.mean_netram_fetch_us {
                    self.netram_fetch_us += us;
                    self.netram_runs += 1;
                }
            }
            Outcome::Distribute(o) => {
                self.cas_lookups += o.lookups;
                self.cas_lookup_hits += o.lookup_hits;
                self.cas_peer_blocks += o.peer_blocks;
                self.cas_blocks += o.peer_blocks + o.registry_blocks;
                self.cas_verify_failures += o.verify_failures;
            }
        }
    }
}

/// The traced, observed and outside-in passes over the first runs of the
/// untraced pass, whose walls (`run_ms`) and digests are given.
fn traced_metrics(
    opts: &Options,
    bench: &Bench,
    checker: &mut Checker,
    speed: &mut Speedometer,
    run_ms: &[f64],
    digests: &[Option<u64>],
) -> Vec<Metric> {
    let traced = ((run_ms.len() as f64 * TRACED_SHARE).ceil() as usize).clamp(1, run_ms.len());
    let untraced_ms: f64 = run_ms[..traced].iter().sum();

    // Traced pass: the host profiler alone, each profiled run timed
    // against an unprofiled run of the same spec just before it. A probe
    // registry stays off here: its own cost lands inside the components
    // and would distort the split. Multi-cell engines skip profiling, so
    // a multi-cell run is split through its single-cell equivalents, and
    // its digest is re-checked by the observed pass below.
    let mut ledger = Ledger::default();
    let (mut profiled_ms, mut unprofiled_ms) = (0.0, 0.0);
    let profiler = ScenarioObserver {
        profile: true,
        ..ScenarioObserver::disabled()
    };
    for (run, &untraced) in digests.iter().enumerate().take(traced) {
        let spec = bench.spec(run as u64);
        let units = workloads::single_cells(&spec);
        for unit in &units {
            speed.tick();
            let (off, _) = timed(|| black_box(bench.run(unit)));
            let (on, result) = timed(|| bench.run_observed(unit, &profiler));
            unprofiled_ms += off.as_secs_f64() * 1e3;
            profiled_ms += on.as_secs_f64() * 1e3;
            let (outcome, profile) = match result {
                Ok((outcome, obs)) => (Ok(outcome), obs.profile),
                Err(e) => (Err(e), None),
            };
            if units.len() == 1 {
                checker.check(run as u64, &spec, &outcome, untraced);
            }
            if let Some(profile) = profile {
                ledger.add(on, &profile);
            }
        }
    }

    // Observed pass: probe registry, sampled causal log and flight
    // recorder on, timed against an unobserved run just before it. The
    // counters and simulated facts come from here.
    let observed = traced.min(OBSERVED_RUNS);
    let mut facts = Facts::default();
    let (mut on_ms, mut off_ms, mut observation_bytes) = (0.0, 0.0, 0usize);
    for (run, &untraced) in digests.iter().enumerate().take(observed) {
        speed.tick();
        let spec = bench.spec(run as u64);
        let (off, _) = timed(|| black_box(bench.run(&spec)));
        let registry = Registry::new();
        let log = Arc::new(CausalLog::with_capacity(1 << 15));
        let observer = ScenarioObserver {
            probe: registry.probe(),
            causal: Some(Arc::clone(&log)),
            sample_every: Some(SimDuration::from_millis(5)),
            trace_sample_every: 64,
            window_budget: Some(64),
            profile: false,
        };
        let (on, result) = timed(|| bench.run_observed(&spec, &observer));
        off_ms += off.as_secs_f64() * 1e3;
        on_ms += on.as_secs_f64() * 1e3;
        let (outcome, obs) = match result {
            Ok((outcome, obs)) => (Ok(outcome), Some(obs)),
            Err(e) => (Err(e), None),
        };
        checker.check(run as u64, &spec, &outcome, untraced);
        if let (Ok(outcome), Some(obs)) = (&outcome, obs) {
            facts.add_outcome(outcome);
            facts.add_snapshot(&registry.snapshot());
            observation_bytes +=
                log.approx_bytes() + obs.timeseries.approx_bytes() + obs.windowed.approx_bytes();
        }
    }

    let reps = if opts.smoke { 1 } else { OUTSIDE_IN_REPS };
    let outside = layers::outside_in(opts.seed, reps);
    speed.tick();
    let slowdown = speed.slowdown();
    checker.attempted += 1;
    if outside.hash_mismatches > 0 {
        let reason = format!(
            "{} catalog chunks re-hashed to a different block hash",
            outside.hash_mismatches
        );
        checker.fail("-", &reason);
    }

    let events = ledger.events as f64;
    let observed_runs = facts.runs as f64;
    let mut metrics = vec![
        metric("sim.events", events / traced as f64, "count"),
        metric(
            "sim.events_per_s",
            ratio(events, untraced_ms / 1e3) * slowdown,
            "1/s",
        ),
        metric(
            "sim.dispatch_ns_per_event",
            ratio(ledger.dispatch_ns as f64, events) / slowdown,
            "ns",
        ),
        metric(
            "sim.partition_overhead",
            outside.partition_overhead,
            "fraction",
        ),
        metric(
            "net.fabric_ns_per_event",
            ratio(ledger.fabric_ns as f64, events) / slowdown,
            "ns",
        ),
        metric(
            "net.busiest_util",
            ratio(facts.busiest_util, observed_runs),
            "fraction",
        ),
        metric(
            "net.queue_wait_us",
            ratio(facts.queue_wait_ns as f64 / 1e3, facts.queue_waits as f64),
            "sim_us",
        ),
        metric(
            "am.batches",
            ratio(facts.am_batches as f64, observed_runs),
            "count",
        ),
        metric(
            "am.mean_batch",
            ratio(facts.am_batched_msgs as f64, facts.am_batches as f64),
            "msgs",
        ),
        metric(
            "am.batching_host_cost",
            outside.batching_host_cost,
            "fraction",
        ),
        metric(
            "mem.netram_fetch_us",
            ratio(facts.netram_fetch_us, facts.netram_runs as f64),
            "sim_us",
        ),
        metric(
            "cache.local_hit_ratio",
            ratio(facts.cache_local as f64, facts.cache_reads as f64),
            "fraction",
        ),
        metric(
            "cache.disk_read_ratio",
            ratio(facts.cache_disk as f64, facts.cache_reads as f64),
            "fraction",
        ),
        metric(
            "cas.lookup_hit_ratio",
            ratio(facts.cas_lookup_hits as f64, facts.cas_lookups as f64),
            "fraction",
        ),
        metric(
            "cas.peer_ratio",
            ratio(facts.cas_peer_blocks as f64, facts.cas_blocks as f64),
            "fraction",
        ),
        metric(
            "cas.verify_failures",
            facts.cas_verify_failures as f64,
            "count",
        ),
        metric(
            "cas.hash_mb_per_s",
            outside.hash_mb_per_s * slowdown,
            "MB/s",
        ),
        metric(
            "cas.catalog_gen_ms",
            outside.catalog_gen_ms / slowdown,
            "ms",
        ),
        metric(
            "probe.profile_overhead",
            ratio(profiled_ms, unprofiled_ms) - 1.0,
            "fraction",
        ),
        metric(
            "probe.observed_overhead",
            ratio(on_ms, off_ms) - 1.0,
            "fraction",
        ),
        metric(
            "probe.observation_bytes",
            ratio(observation_bytes as f64, observed_runs),
            "bytes",
        ),
        metric(
            "harness.run_ms_p90",
            percentile(run_ms, 0.9) / slowdown,
            "ms",
        ),
        metric("harness.runs", run_ms.len() as f64, "count"),
        metric("harness.slowdown", slowdown, "ratio"),
    ];
    metrics.extend(
        ledger
            .shares()
            .into_iter()
            .map(|(name, share)| metric(name, share, "fraction")),
    );
    metrics
}
