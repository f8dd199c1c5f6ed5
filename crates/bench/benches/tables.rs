//! Criterion benches: one per reproduced table/figure, timing the full
//! regeneration of each artifact (generation + simulation + rendering).
//!
//! These measure the *harness*, so a regression here means one of the
//! simulators got slower. Reduced-size configurations are used where the
//! full paper configuration takes minutes (Table 3's two-day trace).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_table1_lag(c: &mut Criterion) {
    c.bench_function("table1_mpp_lag", |b| {
        b.iter(|| black_box(now_bench::table1()))
    });
}

fn bench_figure1_cost(c: &mut Criterion) {
    c.bench_function("figure1_price_model", |b| {
        b.iter(|| black_box(now_bench::figure1()))
    });
}

fn bench_table2_miss_service(c: &mut Criterion) {
    c.bench_function("table2_miss_service", |b| {
        b.iter(|| black_box(now_bench::table2(&now_probe::Probe::disabled())))
    });
}

fn bench_fig2_netram(c: &mut Criterion) {
    use now_mem::multigrid::{run, MemoryConfig};
    let mut g = c.benchmark_group("figure2_netram");
    g.sample_size(10);
    g.bench_function("multigrid_64mb_netram", |b| {
        b.iter(|| black_box(run(64, MemoryConfig::local32_netram())))
    });
    g.bench_function("multigrid_64mb_disk", |b| {
        b.iter(|| black_box(run(64, MemoryConfig::local32_disk())))
    });
    g.finish();
}

fn bench_table3_coopcache(c: &mut Criterion) {
    use now_cache::{simulate, CacheConfig, Policy};
    use now_sim::SimDuration;
    use now_trace::fs::{FsTrace, FsTraceConfig};
    let mut cfg = FsTraceConfig::paper_defaults();
    cfg.duration = SimDuration::from_secs(2 * 3600); // 2-hour slice
    let trace = FsTrace::generate(&cfg, 42);
    let mut g = c.benchmark_group("table3_coopcache");
    g.sample_size(10);
    g.bench_function("client_server", |b| {
        b.iter(|| black_box(simulate(&trace, &CacheConfig::table3(Policy::ClientServer))))
    });
    g.bench_function("n_chance", |b| {
        b.iter(|| {
            black_box(simulate(
                &trace,
                &CacheConfig::table3(Policy::NChance { n: 2 }),
            ))
        })
    });
    g.finish();
}

fn bench_table4_gator(c: &mut Criterion) {
    c.bench_function("table4_gator_model", |b| {
        b.iter(|| black_box(now_bench::table4()))
    });
}

fn bench_fig3_mixed(c: &mut Criterion) {
    use now_glunix::mixed::{dedicated_mpp, now_cluster, MixedConfig};
    use now_trace::lanl::{JobTrace, JobTraceConfig};
    use now_trace::usage::{UsageTrace, UsageTraceConfig};
    let jobs = JobTrace::generate(&JobTraceConfig::paper_defaults(), 42);
    let mut ucfg = UsageTraceConfig::paper_defaults();
    ucfg.machines = 64;
    let usage = UsageTrace::generate(&ucfg, 43);
    let mut g = c.benchmark_group("figure3_mixed_workload");
    g.sample_size(10);
    g.bench_function("dedicated_mpp", |b| {
        b.iter(|| black_box(dedicated_mpp(&jobs, 32)))
    });
    g.bench_function("now_64_workstations", |b| {
        b.iter(|| black_box(now_cluster(&jobs, &usage, &MixedConfig::paper_defaults())))
    });
    g.finish();
}

fn bench_fig4_cosched(c: &mut Criterion) {
    use now_glunix::cosched::{run, AppSpec, CoschedConfig, Scheduling};
    let apps = AppSpec::figure4_apps();
    let config = CoschedConfig::paper_defaults(2);
    let mut g = c.benchmark_group("figure4_cosched");
    g.sample_size(10);
    for app in &apps {
        g.bench_function(format!("local_{}", app.name.replace(' ', "_")), |b| {
            b.iter(|| {
                black_box(run(
                    app,
                    Scheduling::Local,
                    &config,
                    &now_probe::Probe::disabled(),
                ))
            })
        });
    }
    g.finish();
}

fn bench_comm_layers(c: &mut Criterion) {
    c.bench_function("comm_layers_sweep", |b| {
        b.iter(|| black_box(now_bench::comm_layers()))
    });
}

criterion_group!(
    tables,
    bench_table1_lag,
    bench_figure1_cost,
    bench_table2_miss_service,
    bench_fig2_netram,
    bench_table3_coopcache,
    bench_table4_gator,
    bench_fig3_mixed,
    bench_fig4_cosched,
    bench_comm_layers,
);
criterion_main!(tables);
