//! Golden determinism: the same artifact run twice must render the same
//! bytes, and so must every telemetry export taken alongside it. Figure 2
//! is the interesting case — its three curves can run on worker threads,
//! so this also pins the result order and the commutativity of probe
//! counter updates.

use now_probe::{Probe, Registry};

#[test]
fn figure2_render_and_telemetry_are_byte_identical_across_runs() {
    let run = |jobs| {
        let registry = Registry::new();
        let rendered = now_bench::figure2(&registry.probe(), jobs);
        (
            rendered,
            registry.render_text(),
            registry.render_csv(),
            registry.render_json(),
            registry.chrome_trace(),
        )
    };
    // Two runs over three workers, one curve each, and one on a single
    // worker.
    let a = run(3);
    for (b, what) in [(run(3), "between runs"), (run(1), "at 1 worker")] {
        assert_eq!(a.0, b.0, "figure 2 rendering drifted {what}");
        assert_eq!(a.1, b.1, "probe text snapshot drifted {what}");
        assert_eq!(a.2, b.2, "probe CSV snapshot drifted {what}");
        assert_eq!(a.3, b.3, "probe JSON snapshot drifted {what}");
        assert_eq!(a.4, b.4, "Chrome trace drifted {what}");
    }
}

#[test]
fn table2_gauges_match_paper_constants() {
    // The acceptance cross-check: the published fault-service gauges are
    // exactly Table 2's printed cells.
    let registry = Registry::new();
    now_bench::table2(&registry.probe());
    let csv = registry.render_csv();
    for want in [
        "gauge,netram.fault_service.memory_copy_us,250.0,",
        "gauge,netram.fault_service.net_overhead_us,400.0,",
        "gauge,netram.fault_service.transfer_ethernet_us,6250.0,",
        "gauge,netram.fault_service.transfer_atm_us,400.0,",
        "gauge,netram.fault_service.disk_us,14800.0,",
    ] {
        assert!(csv.contains(want), "missing {want:?} in:\n{csv}");
    }
}

#[test]
fn batching_probe_counters_reconcile_with_requests() {
    // The batching counters are a partition of the request stream: every
    // request rides in exactly one batch, and every batch closes for
    // exactly one reason (quantum expiry or a size bound). The probed
    // counters must agree with the in-engine `AmStats` ledger and with
    // each other — the same cross-check discipline as the Table 2 gauges.
    use now_am::{ActiveMessages, AmConfig, BatchConfig};
    use now_net::{presets, NodeId};
    use now_sim::{SimDuration, SimTime};

    let registry = Registry::new();
    let config = AmConfig {
        timeout: SimDuration::from_secs(1),
        batch: BatchConfig {
            flush_quantum: SimDuration::from_micros(8),
            max_batch_bytes: 32 * 1024,
            max_batch_msgs: 16,
        },
        ..AmConfig::default()
    };
    let mut am = ActiveMessages::new(presets::am_atm(8), config, 3);
    am.set_probe(registry.probe());
    for s in 1..=4u32 {
        for i in 0..128u64 {
            am.request_at(SimTime::from_nanos(i * 250), NodeId(s), NodeId(0), 8);
        }
    }
    am.run_to_completion();

    let stats = am.stats();
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter("am.requests"), 4 * 128, "every request counted");
    assert_eq!(
        counter("am.batched_msgs"),
        counter("am.requests"),
        "every request travels in exactly one batch"
    );
    assert_eq!(
        counter("am.batches"),
        counter("am.flush_timeouts") + counter("am.flush_on_size"),
        "every batch closes for exactly one reason"
    );
    for (name, want) in [
        ("am.batches", stats.batches),
        ("am.batched_msgs", stats.batched_msgs),
        ("am.flush_timeouts", stats.flush_timeouts),
        ("am.flush_on_size", stats.flush_on_size),
        ("am.requests", stats.requests),
    ] {
        assert_eq!(counter(name), want, "{name} disagrees with AmStats");
    }
}

#[test]
fn probe_free_runs_match_probed_runs() {
    // Telemetry is an observer: the rendered artifact must not change
    // when a live probe rides along.
    let registry = Registry::new();
    assert_eq!(
        now_bench::table2(&Probe::disabled()),
        now_bench::table2(&registry.probe())
    );
    assert_eq!(
        now_bench::figure4(&Probe::disabled()),
        now_bench::figure4(&registry.probe())
    );
}
