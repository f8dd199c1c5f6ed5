//! `repro` — regenerate the tables and figures of *A Case for NOW*.
//!
//! ```text
//! repro                  # everything (the two-day Table 3 trace takes ~1 min)
//! repro --table4 --fig2  # just those artifacts
//! repro --fast           # everything, with Table 3 on a 12-hour trace
//! repro availability --smoke       # fault/availability report, fewer MC trials
//! repro serve --smoke    # population-scale serving: tail latency, bounded observation
//! repro distribute --smoke         # cooperative image distribution vs registry-only
//! repro --help           # list every scenario and flag
//! repro --ablations      # design-choice sweeps (not in the paper)
//! repro --metrics table2           # append the probe snapshot (=text|csv|json)
//! repro --trace-out now.json fig2  # write a Chrome/Perfetto trace
//! repro contention --blame         # append critical-path blame tables
//! repro contention --timeseries-out ts.csv   # flight-recorder samples (.json for JSON)
//! repro contention --jobs 4        # fan independent runs over 4 threads
//! repro contention --nodes 256     # 8 cells of 32 nodes per sweep point
//! repro contention --nodes 256 --partitions 4  # run each point's cells on 4 threads
//! repro contention --util          # append the resource-utilization observatory
//! repro contention --profile       # append host-time profile (where the wall went)
//! repro serve --profile-out out.collapsed  # flamegraph-ready collapsed stacks
//! repro contention --metrics=json --metrics-out snap.json  # snapshot to a file
//! repro diff baseline.json current.json --threshold 0.15   # regression gate
//! ```
//!
//! `--jobs N` (or the `NOW_JOBS` environment variable) sets how many
//! worker threads the contention sweep, the availability report, and the
//! ablations fan their independent runs over; the default is the
//! machine's available parallelism and `--jobs 1` forces the legacy
//! serial path. Output is byte-identical whatever the worker count.
//!
//! `--partitions N` (or `NOW_PARTITIONS`) runs the cells of each
//! *multi-cell* run over N threads — parallelism inside one run,
//! orthogonal to `--jobs`' fan-out across runs. `--nodes N` (a multiple of
//! 32) scales the contention scenario to N/32 independent 32-node cells,
//! each its own serial engine. `--partitions 0` asks for one thread per
//! core; requests clamp to the cell count, so single-cell runs (the
//! availability, serve, and distribute reports) stay serial. Output is
//! byte-identical whatever the value — only wall-clock time moves.

use std::env;
use std::process::exit;
use std::str::FromStr;

use now_bench::ReportOptions;
use now_probe::recorder::{
    csv_concat, json_concat, windowed_csv_concat, TimeSeries, WindowedSeries,
};
use now_probe::util::{bottlenecks, render_bottlenecks, render_util_table};
use now_probe::{Probe, Registry};
use now_sim::parallel::resolve_jobs;
use now_sim::HostProfile;

/// Every scenario name the CLI accepts as a positional argument, with a
/// one-line description for `--help` and the unknown-argument message.
/// Each paper artifact is described by the title its output prints.
const SCENARIOS: &[(&str, &str)] = &[
    ("table1", now_bench::TABLE1_TITLE),
    ("table2", now_bench::TABLE2_TITLE),
    ("table3", now_bench::TABLE3_TITLE),
    ("table4", now_bench::TABLE4_TITLE),
    ("fig1", now_bench::FIGURE1_TITLE),
    ("fig2", now_bench::FIGURE2_TITLE),
    ("fig3", now_bench::FIGURE3_TITLE),
    ("fig4", now_bench::FIGURE4_TITLE),
    ("nfs", "NFS server saturation study"),
    ("comm", "communication layering costs"),
    ("restore", "64-MB memory restore time"),
    (
        "contention",
        "shared-fabric contention sweep (--nodes, --blame)",
    ),
    ("availability", "fault injection + Monte-Carlo availability"),
    (
        "serve",
        "population-scale serving: tail latency, bounded observation",
    ),
    (
        "distribute",
        "cooperative image distribution vs registry-only",
    ),
    ("ablations", "design-choice sweeps (not in the paper)"),
];

/// Aliases accepted for the figure scenarios (`figure1` for `fig1`, ...).
const SCENARIO_ALIASES: &[&str] = &["figure1", "figure2", "figure3", "figure4"];

/// The report flags that take a value, with what the value must be.
const VALUE_FLAGS: &[(&str, &str)] = &[
    ("--jobs", "a positive worker count"),
    ("--partitions", "a thread count (0 = one per core)"),
    ("--nodes", "a positive multiple of 32"),
    ("--am-batch", "a flush quantum in microseconds (0 = off)"),
    ("--metrics-out", "a file path"),
    ("--profile-out", "a file path"),
    ("--trace-out", "a file path"),
    ("--timeseries-out", "a file path"),
];

/// The `repro diff` flags that take a value.
const DIFF_VALUE_FLAGS: &[(&str, &str)] = &[
    ("--threshold", "a non-negative relative delta (e.g. 0.15)"),
    ("--ignore", "a key substring"),
];

fn usage() -> String {
    let mut text = String::from(
        "usage: repro [SCENARIO...] [FLAGS]\n\
         \x20      repro diff BASELINE.json CURRENT.json [--threshold X] [--ignore SUBSTR]\n\n\
         Runs every paper artifact when no scenario is named; the serve,\n\
         distribute, and ablations reports are opt-in.\n\nscenarios:\n",
    );
    for (name, what) in SCENARIOS {
        text.push_str(&format!("  {name:<14} {what}\n"));
    }
    text.push_str(
        "\nflags:\n\
         \x20 --fast                 Table 3 on a 12-hour trace instead of two days\n\
         \x20 --smoke                smaller sweeps and fewer Monte-Carlo trials\n\
         \x20 --blame                append critical-path blame tables\n\
         \x20 --jobs N               fan independent runs over N worker threads\n\
         \x20 --partitions N         run a multi-cell run's cells over N threads (0 = per core)\n\
         \x20 --nodes N              scale scaled scenarios to N nodes (multiple of 32)\n\
         \x20 --am-batch N           active-message flush quantum in us (0 = batching off)\n\
         \x20 --metrics[=FMT]        append the probe snapshot (text|csv|json)\n\
         \x20 --metrics-out PATH     write the JSON probe snapshot to a file (for repro diff)\n\
         \x20 --util                 append the resource-utilization table and bottlenecks\n\
         \x20 --profile              append the host-time profile (wall-clock attribution)\n\
         \x20 --profile-out PATH     write collapsed stacks (frame;frame count) for flamegraphs\n\
         \x20 --trace-out PATH       write a Chrome/Perfetto trace\n\
         \x20 --timeseries-out PATH  write flight-recorder samples (CSV, .json for JSON)\n\
         \x20 --help                 this message\n\
         \ndiff subcommand:\n\
         \x20 repro diff BASELINE.json CURRENT.json   compare two --metrics-out snapshots\n\
         \x20 --threshold X          relative delta that counts as a regression (default 0.10)\n\
         \x20 --ignore SUBSTR        skip keys containing SUBSTR (repeatable)\n\
         \x20 exits 1 when any metric moved past the threshold, 0 when clean\n",
    );
    text
}

/// Splits a value flag of `flags` out of `arg`, spelled `--flag VALUE`
/// (VALUE pulled from `rest`) or `--flag=VALUE`: returns the flag, what
/// its value must be, and the value. `None` when `arg` is no such flag;
/// exits 2 when the spaced form is missing its value.
fn value_flag(
    arg: &str,
    flags: &[(&'static str, &'static str)],
    rest: &mut impl Iterator<Item = String>,
) -> Option<(&'static str, &'static str, String)> {
    let &(flag, what) = flags.iter().find(|(flag, _)| {
        arg == *flag || arg.strip_prefix(flag).is_some_and(|v| v.starts_with('='))
    })?;
    let value = match arg.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
        Some(v) => v.to_string(),
        None => rest.next().unwrap_or_else(|| {
            eprintln!("{flag} needs {what}");
            exit(2);
        }),
    };
    Some((flag, what, value))
}

/// Parses a flag's value, exiting 2 unless it parses and passes `ok`.
fn parse_or_exit<T: FromStr>(flag: &str, what: &str, value: &str, ok: impl Fn(&T) -> bool) -> T {
    match value.parse() {
        Ok(v) if ok(&v) => v,
        _ => {
            eprintln!("{flag} needs {what}, got {value:?}");
            exit(2);
        }
    }
}

/// Writes an output file and says so on stderr (`hint` tells what to do
/// with it); a failed write exits 1.
fn write_or_exit(path: &str, body: impl AsRef<[u8]>, what: &str, hint: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {what} to {path}: {e}");
        exit(1);
    }
    eprintln!("wrote {what} to {path}{hint}");
}

/// `repro diff baseline.json current.json` — the run-diff regression
/// gate. Reads two `--metrics-out` snapshots, compares every numeric
/// leaf by relative delta, and exits nonzero when anything moved past
/// the threshold so CI can fail the build.
fn run_diff(args: &[String]) -> ! {
    let mut threshold = 0.10_f64;
    let mut ignore: Vec<String> = Vec::new();
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        if let Some((flag, what, value)) = value_flag(&arg, DIFF_VALUE_FLAGS, &mut it) {
            if flag == "--threshold" {
                threshold = parse_or_exit(flag, what, &value, |&x: &f64| x >= 0.0);
            } else {
                ignore.push(value);
            }
        } else if arg == "--help" || arg == "-h" {
            print!("{}", usage());
            exit(0);
        } else if arg.starts_with('-') {
            eprintln!("unknown diff flag {arg:?}\n\n{}", usage());
            exit(2);
        } else {
            paths.push(arg);
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!(
            "repro diff needs exactly two snapshot paths (baseline, current)\n\n{}",
            usage()
        );
        exit(2);
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("cannot read snapshot {path}: {e}");
            exit(1);
        }
    };
    let baseline = read(baseline_path);
    let current = read(current_path);
    match now_probe::diff::diff(&baseline, &current, threshold, &ignore) {
        Ok(report) => {
            print!("{}", report.render_text());
            exit(if report.has_regressions() { 1 } else { 0 });
        }
        Err(e) => {
            eprintln!("repro diff: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    // `repro diff` is a subcommand, not a scenario: dispatch before the
    // flag loop so its positional snapshot paths never look like typos.
    if args.first().map(String::as_str) == Some("diff") {
        run_diff(&args[1..]);
    }
    let mut opts = ReportOptions::default();
    let mut fast = false;
    let mut util = false;
    let mut jobs_arg: Option<usize> = None;
    let mut partitions_arg: Option<u32> = None;
    let mut metrics: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut timeseries_out: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if let Some((flag, what, value)) = value_flag(&arg, VALUE_FLAGS, &mut it) {
            match flag {
                "--jobs" => {
                    jobs_arg = Some(parse_or_exit(flag, what, &value, |&n: &usize| n >= 1));
                }
                "--partitions" => {
                    partitions_arg = Some(parse_or_exit(flag, what, &value, |_| true))
                }
                "--nodes" => {
                    opts.nodes =
                        parse_or_exit(flag, what, &value, |&n: &u32| n >= 32 && n % 32 == 0);
                }
                "--am-batch" => opts.am_batch_us = parse_or_exit(flag, what, &value, |_| true),
                "--metrics-out" => metrics_out = Some(value),
                "--profile-out" => profile_out = Some(value),
                "--trace-out" => trace_out = Some(value),
                _ => timeseries_out = Some(value),
            }
        } else if arg == "--fast" {
            fast = true;
        } else if arg == "--smoke" {
            opts.smoke = true;
        } else if arg == "--blame" {
            opts.blame = true;
        } else if arg == "--profile" || arg == "profile" {
            // `repro profile contention` reads naturally enough that the
            // bare token is accepted as an alias for the flag.
            opts.profile = true;
        } else if arg == "--util" {
            util = true;
        } else if arg == "--metrics" {
            metrics = Some("text".to_string());
        } else if let Some(format) = arg.strip_prefix("--metrics=") {
            if !matches!(format, "text" | "csv" | "json") {
                eprintln!("unknown metrics format {format:?} (want text, csv, or json)");
                exit(2);
            }
            metrics = Some(format.to_string());
        } else if arg == "--help" || arg == "-h" {
            print!("{}", usage());
            return;
        } else {
            // Scenarios select bare (`repro table4`) or flag-style
            // (`repro --table4`); anything else is a typo and dies loudly
            // rather than silently running the whole suite.
            let name = arg.trim_start_matches("--");
            let known =
                SCENARIOS.iter().any(|(s, _)| *s == name) || SCENARIO_ALIASES.contains(&name);
            if !known {
                let kind = if arg.starts_with('-') {
                    "flag"
                } else {
                    "scenario"
                };
                eprintln!("unknown {kind} {arg:?}\n\n{}", usage());
                exit(2);
            }
            selected.push(name.to_string());
        }
    }
    // Asking for collapsed stacks is asking for the profiler.
    opts.profile |= profile_out.is_some();
    // The flight recorder runs only when its output has somewhere to go.
    opts.record = timeseries_out.is_some();
    opts.jobs = resolve_jobs(jobs_arg);
    // CLI beats environment beats the serial default; 0 = one per core.
    opts.partitions = partitions_arg
        .or_else(|| env::var("NOW_PARTITIONS").ok().and_then(|s| s.parse().ok()))
        .unwrap_or(1);

    let all = selected.is_empty();
    let want = |name: &str| all || selected.iter().any(|s| s == name);

    // Probing is on whenever any telemetry output was requested; otherwise
    // every subsystem sees a disabled (free) probe.
    let registry = (metrics.is_some() || metrics_out.is_some() || trace_out.is_some() || util)
        .then(Registry::new);
    let probe = registry
        .as_ref()
        .map_or_else(Probe::disabled, Registry::probe);

    let mut series: Vec<(String, TimeSeries)> = Vec::new();
    let mut windowed: Vec<(String, WindowedSeries)> = Vec::new();
    // Host-time profiles from every profiled report, merged by label.
    let mut host_profile: Option<HostProfile> = None;
    let mut print_report = |mut r: now_bench::ObservedReport| {
        println!("{}", r.text);
        series.append(&mut r.series);
        windowed.append(&mut r.windowed);
        if let Some(p) = &r.profile {
            host_profile
                .get_or_insert_with(HostProfile::default)
                .merge(p);
        }
    };

    if want("table1") {
        println!("{}", now_bench::table1());
    }
    if want("fig1") || want("figure1") {
        println!("{}", now_bench::figure1());
    }
    if want("table2") {
        println!("{}", now_bench::table2(&probe));
    }
    if want("fig2") || want("figure2") {
        println!("{}", now_bench::figure2(&probe));
    }
    if want("table3") {
        println!("{}", now_bench::table3(!fast, &probe));
    }
    if want("table4") {
        println!("{}", now_bench::table4());
    }
    if want("fig3") || want("figure3") {
        println!("{}", now_bench::figure3());
    }
    if want("fig4") || want("figure4") {
        println!("{}", now_bench::figure4(&probe));
    }
    if want("nfs") {
        println!("{}", now_bench::nfs_study());
    }
    if want("comm") {
        println!("{}", now_bench::comm_layers());
    }
    if want("restore") {
        println!("{}", now_bench::restore_study());
    }
    if want("contention") {
        print_report(now_bench::contention(&opts, &probe));
        // The message-rate-vs-batch-quantum deliverable rides with the
        // contention report. It sweeps its own quanta internally, so the
        // table is identical whatever --am-batch (or any other flag)
        // says — the byte-diff gates stay honest.
        println!("{}", now_bench::am_batching_table());
    }
    if want("availability") {
        print_report(now_bench::availability(&opts, &probe));
    }
    // The serving sweep is opt-in like the ablations: it is the unified
    // engine's population-scale story, not a paper table.
    if selected.iter().any(|s| s == "serve") {
        print_report(now_bench::serve(&opts, &probe));
    }
    // Image distribution is likewise opt-in: cold-starting the cluster
    // from a content-addressed registry, registry-only vs cooperative.
    if selected.iter().any(|s| s == "distribute") {
        print_report(now_bench::distribute(&opts, &probe));
    }
    // Ablations are opt-in: they are design-choice sweeps, not paper
    // artifacts.
    if selected.iter().any(|s| s == "ablations") {
        println!("{}", now_bench::ablations::all(opts.jobs));
    }

    if let Some(path) = timeseries_out {
        if series.is_empty() && windowed.is_empty() {
            eprintln!(
                "--timeseries-out produced no samples: only the contention, \
                 availability, serve, and distribute reports carry a flight recorder"
            );
        }
        // The serving recorder is windowed (downsampled min/mean/max); it
        // exports as CSV only and lands in the same file when it is the
        // only recorded report.
        let body = if !series.is_empty() {
            if !windowed.is_empty() {
                eprintln!(
                    "--timeseries-out holds one format: writing the raw series; \
                     rerun with only the serve report for the windowed CSV"
                );
            }
            if path.ends_with(".json") {
                json_concat(&series)
            } else {
                csv_concat(&series)
            }
        } else {
            if path.ends_with(".json") {
                eprintln!("windowed serve series export CSV; writing CSV to {path}");
            }
            windowed_csv_concat(&windowed)
        };
        write_or_exit(&path, body, "gauge time series", "");
    }

    if opts.profile {
        match &host_profile {
            Some(p) => {
                println!("{}", p.render_text());
                if let Some(path) = profile_out {
                    let hint = " (feed to a flamegraph tool)";
                    write_or_exit(&path, p.collapsed(), "collapsed stacks", hint);
                }
            }
            None => eprintln!(
                "--profile collected nothing: only the contention, availability, \
                 serve, and distribute reports run the host profiler"
            ),
        }
    }

    if let Some(registry) = registry {
        // Parsing accepted only text, csv, or json.
        match metrics.as_deref() {
            Some("csv") => print!("{}", registry.render_csv()),
            Some("json") => println!("{}", registry.render_json()),
            Some(_) => println!("{}", registry.render_text()),
            None => {}
        }
        if util {
            let snapshot = registry.snapshot();
            if snapshot.utils.is_empty() {
                eprintln!(
                    "--util recorded nothing: resource ledgers fill during the \
                     contention, serve, and distribute reports"
                );
            } else {
                println!("{}", render_util_table(&snapshot.utils));
                println!("{}", render_bottlenecks(&bottlenecks(&snapshot.utils)));
            }
        }
        if let Some(path) = metrics_out {
            let body = registry.render_json() + "\n";
            let hint = " (compare runs with repro diff)";
            write_or_exit(&path, body, "metrics snapshot", hint);
        }
        if let Some(path) = trace_out {
            let hint = " (open in Perfetto or chrome://tracing)";
            write_or_exit(&path, registry.chrome_trace(), "Chrome trace", hint);
        }
        // Silent data loss would undermine every export above; say so.
        let snapshot = registry.snapshot();
        if snapshot.trace_dropped > 0 {
            eprintln!(
                "warning: {} trace span(s) dropped (ring buffer full); \
                 the Chrome trace and span metrics are incomplete",
                snapshot.trace_dropped
            );
        }
        if let Some(dropped) = snapshot.counter("probe.spans_dropped") {
            if dropped > 0 {
                eprintln!(
                    "warning: probe.spans_dropped = {dropped}; \
                     span records were discarded under pressure"
                );
            }
        }
    }
}
