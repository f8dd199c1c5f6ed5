//! The streaming observation layer's contract on the serving workload:
//! byte-identical reports whatever the worker count, and observation
//! memory that stays flat while the event count grows a hundredfold —
//! with sketch quantiles still inside the documented error bound of an
//! exhaustive (test-only) measurement.

use std::sync::Arc;

use now_bench::{ReportOptions, SEED};
use now_cache::{AccessCosts, ServeConfig, ThinkTime};
use now_core::{NowCluster, ScenarioObserver, ServeSpec};
use now_probe::causal::CausalLog;
use now_probe::{Probe, Registry};
use now_sim::{SimDuration, SimTime};

fn cluster() -> NowCluster {
    NowCluster::builder().nodes(32).seed(SEED).build()
}

fn spec(population: u64, retain_exact: bool) -> ServeSpec {
    ServeSpec {
        config: ServeConfig {
            population,
            think: ThinkTime::Exponential { mean_ms: 10_000.0 },
            catalog_objects: 4_096,
            zipf_theta: 0.9,
            client_blocks: 256,
            server_blocks: 1_024,
            object_bytes: 8_192,
            costs: AccessCosts::paper_defaults(),
            horizon: SimTime::from_millis(500),
            seed: SEED,
            retain_exact,
        },
        front_ends: 8,
        partitions: 1,
        am_batch: now_am::BatchConfig::disabled(),
    }
}

/// A fully-armed observer whose every structure is memory-bounded:
/// capacity-bounded causal log, 1-in-N chain sampling scaled to the
/// expected load, windowed flight recorder.
fn observer(expected_requests: u64) -> ScenarioObserver {
    ScenarioObserver {
        probe: Registry::new().probe(),
        causal: Some(Arc::new(CausalLog::with_capacity(1 << 15))),
        sample_every: Some(SimDuration::from_millis(5)),
        trace_sample_every: (expected_requests / 64).max(1),
        window_budget: Some(64),
        profile: false,
    }
}

/// The smoke serving report under `opts` (smoke forced on).
fn report(opts: ReportOptions) -> now_bench::ObservedReport {
    let opts = ReportOptions {
        smoke: true,
        ..opts
    };
    now_bench::serve(&opts, &Probe::disabled())
}

#[test]
fn serve_report_is_byte_identical_across_jobs_and_runs() {
    let at_jobs = |jobs| {
        report(ReportOptions {
            jobs,
            ..ReportOptions::default()
        })
        .text
    };
    let serial = at_jobs(1);
    for jobs in [2usize, 4] {
        assert_eq!(
            serial,
            at_jobs(jobs),
            "serve report diverged at jobs={jobs}"
        );
    }
    assert_eq!(
        at_jobs(4),
        at_jobs(4),
        "serve report diverged between repeated runs at jobs=4"
    );
}

#[test]
fn serve_windowed_series_match_across_jobs() {
    let observed = |jobs| {
        report(ReportOptions {
            blame: true,
            record: true,
            jobs,
            ..ReportOptions::default()
        })
    };
    let serial = observed(1);
    let parallel = observed(4);
    assert_eq!(serial.text, parallel.text);
    assert_eq!(serial.windowed, parallel.windowed);
    assert!(!serial.windowed.is_empty(), "recorder must produce series");
    assert!(
        serial.text.contains("Blame - sampled request chain"),
        "blame appendix missing:\n{}",
        serial.text
    );
}

/// The PR's acceptance criterion: run the serving workload at a hundred
/// times the smoke event count; observation memory must stay within 2x
/// of the smoke run's, and the sketch's p99 must sit within its
/// documented relative-error bound of the exhaustive (retain-every-
/// latency) measurement.
#[test]
fn observation_stays_bounded_at_100x_the_event_count() {
    let small_spec = spec(10_000, false);
    let big_spec = spec(1_000_000, true);

    let (small, _) = cluster().run_serve_observed(&small_spec, &observer(500));
    let (big, _) = cluster().run_serve_observed(&big_spec, &observer(50_000));

    assert!(
        big.requests >= 80 * small.requests,
        "the big run must carry ~100x the events: {} vs {}",
        big.requests,
        small.requests
    );
    assert!(
        big.observation_bytes <= 2 * small.observation_bytes,
        "observation must stay within 2x across a 100x event-count jump: \
         {} bytes at {} requests vs {} bytes at {} requests",
        big.observation_bytes,
        big.requests,
        small.observation_bytes,
        small.requests
    );

    // Sketch accuracy against the exhaustive mode, at the documented
    // guarantee: relative error <= alpha per recorded value.
    let mut exact = big.exact_latencies.clone();
    assert_eq!(exact.len() as u64, big.completed);
    exact.sort_unstable();
    for p in [0.5, 0.99, 0.999] {
        let rank = ((p * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let truth = exact[rank - 1] as f64;
        let est = big.sketch.quantile(p).unwrap();
        assert!(
            (est - truth).abs() <= big.sketch.alpha() * truth + 1.0,
            "p{p}: sketch {est} vs exact {truth} breaks the alpha bound"
        );
    }
}

#[test]
fn causal_sampling_keeps_the_log_small_and_the_history_fixed() {
    let base = spec(200_000, false);
    let expected = 10_000u64;

    let dense_log = Arc::new(CausalLog::new());
    let dense_obs = ScenarioObserver {
        probe: Probe::disabled(),
        causal: Some(Arc::clone(&dense_log)),
        sample_every: None,
        trace_sample_every: 1,
        window_budget: None,
        profile: false,
    };
    let sparse_log = Arc::new(CausalLog::new());
    let sparse_obs = ScenarioObserver {
        probe: Probe::disabled(),
        causal: Some(Arc::clone(&sparse_log)),
        sample_every: None,
        trace_sample_every: (expected / 64).max(1),
        window_budget: None,
        profile: false,
    };
    let (dense, _) = cluster().run_serve_observed(&base, &dense_obs);
    let (sparse, _) = cluster().run_serve_observed(&base, &sparse_obs);

    assert_eq!(
        dense.sketch, sparse.sketch,
        "sampling must not touch history"
    );
    assert_eq!(dense.requests, sparse.requests);
    assert!(
        sparse_log.len() * 8 < dense_log.len(),
        "1-in-{} sampling must shrink the log: {} vs {}",
        (expected / 64).max(1),
        sparse_log.len(),
        dense_log.len()
    );
    assert_eq!(
        sparse_log.dropped(),
        0,
        "sampled load must fit the capacity"
    );
}
