//! Assertion-backed reproduction checks: for every table and figure, the
//! paper's *qualitative shape* — orderings, factors, crossovers — must
//! hold in the regenerated artifact. `EXPERIMENTS.md` records the exact
//! numbers; these tests keep them honest.

use now_models::gator;
use now_models::remote_access::{AccessModel, Network, Target};
use now_models::techtrend::AnnualImprovement;

#[test]
fn table1_shape_mpp_lag_costs_a_factor_of_two() {
    for row in now_models::techtrend::table1_rows() {
        let lag = row.lag_years();
        assert!((1.0..=2.0).contains(&lag), "{}: lag {lag}", row.mpp);
    }
    assert!(AnnualImprovement::CONSERVATIVE.performance_forfeit(2.0) > 2.0);
}

#[test]
fn figure1_shape_integration_costs_double() {
    let fig = now_models::cost::CostModel::paper_defaults().figure1();
    let best = fig.iter().map(|s| s.total).fold(f64::INFINITY, f64::min);
    let mpp = fig.last().unwrap();
    let ratio = mpp.total / best;
    assert!((1.6..=2.6).contains(&ratio), "MPP premium {ratio}");
}

#[test]
fn table2_shape_remote_memory_beats_disk_only_on_switched_lans() {
    let m = AccessModel::paper_defaults();
    let atm_mem = m
        .service_time(Network::Atm155, Target::RemoteMemory)
        .total_us();
    let eth_mem = m
        .service_time(Network::Ethernet10, Target::RemoteMemory)
        .total_us();
    assert!(m.disk_us / atm_mem > 10.0, "ATM: order of magnitude");
    assert!(m.disk_us / eth_mem < 3.0, "Ethernet: marginal");
}

#[test]
fn figure2_shape_netram_between_dram_and_disk() {
    use now_mem::multigrid::{run, MemoryConfig};
    for mb in [64, 96, 120] {
        let dram = run(mb, MemoryConfig::local128()).total.as_secs_f64();
        let netram = run(mb, MemoryConfig::local32_netram()).total.as_secs_f64();
        let disk = run(mb, MemoryConfig::local32_disk()).total.as_secs_f64();
        let vs_dram = netram / dram;
        let vs_disk = disk / netram;
        assert!(
            (1.05..=1.4).contains(&vs_dram),
            "{mb} MB: netram/dram {vs_dram}"
        );
        assert!(
            (4.0..=11.0).contains(&vs_disk),
            "{mb} MB: disk/netram {vs_disk}"
        );
    }
}

#[test]
fn table3_shape_cooperation_halves_disk_reads() {
    // (12-hour trace; the full-length numbers live in EXPERIMENTS.md.)
    use now_cache::{simulate, CacheConfig, Policy};
    use now_sim::SimDuration;
    use now_trace::fs::{FsTrace, FsTraceConfig};
    let mut cfg = FsTraceConfig::paper_defaults();
    cfg.duration = SimDuration::from_secs(12 * 3600);
    let trace = FsTrace::generate(&cfg, 42);
    let base = simulate(&trace, &CacheConfig::table3(Policy::ClientServer));
    let coop = simulate(&trace, &CacheConfig::table3(Policy::GreedyForwarding));
    assert!(coop.disk_read_rate() < base.disk_read_rate() * 0.75);
    let response_gain =
        base.avg_read_response().as_micros_f64() / coop.avg_read_response().as_micros_f64();
    assert!(
        (1.25..=2.5).contains(&response_gain),
        "gain {response_gain}"
    );
}

#[test]
fn table4_shape_each_fix_buys_an_order_of_magnitude() {
    let rows = gator::table4();
    let total = |name: &str| {
        rows.iter()
            .find(|r| r.machine.starts_with(name))
            .unwrap()
            .total_s()
    };
    let base = total("RS-6000 (256)");
    let atm = total("RS-6000 + ATM");
    let pfs = total("RS-6000 + parallel");
    let am = total("RS-6000 + low-overhead");
    let c90 = total("C-90");
    assert!(base / c90 > 300.0, "baseline 3 orders off: {}", base / c90);
    for (from, to, label) in [
        (base, atm, "ATM"),
        (atm, pfs, "parallel FS"),
        (pfs, am, "AM"),
    ] {
        let gain = from / to;
        assert!((5.0..=30.0).contains(&gain), "{label} gain {gain}");
    }
    assert!(am < c90 * 1.3, "final NOW competes with the C-90");
}

#[test]
fn figure3_shape_now_approaches_dedicated_as_it_grows() {
    let series = now_glunix::mixed::figure3_series(42);
    assert!(series.windows(2).all(|w| w[0].0 < w[1].0), "x sorted");
    let at64 = series.iter().find(|(n, _)| *n == 64.0).unwrap().1;
    assert!((1.0..=1.35).contains(&at64), "dilation at 64: {at64}");
    // The trend claim, on end-averages (single points are trace noise).
    let head = (series[0].1 + series[1].1) / 2.0;
    let tail = (series[4].1 + series[5].1) / 2.0;
    assert!(tail < head, "dilation must fall with size: {series:?}");
}

#[test]
fn figure4_shape_app_sensitivity_ordering() {
    use now_glunix::cosched::{slowdown, AppSpec, CoschedConfig};
    let apps = AppSpec::figure4_apps();
    let config = CoschedConfig::paper_defaults(2);
    let s: Vec<f64> = apps
        .iter()
        .map(|a| slowdown(a, &config, &now_probe::Probe::disabled()))
        .collect();
    // random small msgs ≈ 1; Column and Em3d clearly slowed; Connect worst.
    assert!(s[0] < 1.6, "random {s:?}");
    assert!(s[1] > 2.0 && s[2] > 2.0, "column/em3d {s:?}");
    assert!(
        s[3] > s[0] && s[3] > s[1] && s[3] > s[2],
        "connect dominates {s:?}"
    );
}

#[test]
fn intext_nfs_shape_bandwidth_alone_buys_little() {
    use now_models::nfs::{improvement, StackCoefficients};
    use now_trace::nfs::{NfsTrace, NfsTraceConfig};
    let trace = NfsTrace::generate(&NfsTraceConfig::paper_defaults(), 42);
    assert!((0.93..=0.97).contains(&trace.small_message_fraction()));
    let mix = trace.size_mix();
    let bw_only = improvement(
        StackCoefficients::TCP_ETHERNET,
        StackCoefficients::TCP_ATM,
        &mix,
    );
    assert!((0.1..=0.35).contains(&bw_only), "bandwidth-only {bw_only}");
    let overhead_fix = improvement(
        StackCoefficients::TCP_ETHERNET,
        StackCoefficients::SOCKETS_OVER_AM,
        &mix,
    );
    assert!(overhead_fix > 0.8, "attacking overhead {overhead_fix}");
}

#[test]
fn intext_restore_shape_64mb_under_4s() {
    use now_glunix::migrate::MigrationModel;
    let t = MigrationModel::now_atm_pfs().transfer_time(64);
    assert!(t < now_sim::SimDuration::from_secs(4), "restore {t}");
}

#[test]
fn intext_comm_shape_am_order_of_magnitude_under_tcp() {
    use now_net::presets;
    let mut tcp = presets::tcp_ethernet(4);
    let mut am = presets::am_fddi(4);
    assert!(tcp.one_way_small_message_us() / am.one_way_small_message_us() > 8.0);
    // Half-power ordering: AM ≪ single-copy TCP < standard TCP.
    let am_hp = am.half_power_point_bytes();
    let mut sc = presets::single_copy_tcp_fddi(4);
    let mut std_tcp = presets::tcp_fddi(4);
    let sc_hp = sc.half_power_point_bytes();
    let tcp_hp = std_tcp.half_power_point_bytes();
    assert!(
        am_hp < sc_hp && sc_hp < tcp_hp,
        "{am_hp} < {sc_hp} < {tcp_hp}"
    );
}
