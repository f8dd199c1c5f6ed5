//! Command-line entry point of the NOW simulator benchmark.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use now_benchmark::harness::{self, Options};
use now_benchmark::json::Json;
use now_benchmark::workloads::{Bench, Workload};
use now_benchmark::{compare, oracle};

const USAGE: &str = "\
usage: now-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
       now-benchmark --compare BASE_DIR CHANGE_DIR
       now-benchmark --emit-expected

Workloads: serve, contention, distribute, cells_batched (default: all).
--trace 0 reports the end-to-end metrics of an untraced pass; --trace 1
reports the per-layer metrics of a traced pass (default: both).
With both --workload and --trace the pass runs in this process and its
result is the last line of output; otherwise each (workload, pass) runs in
a child process of its own, one after another, and a combined result
follows. --out appends one JSON record per pass to FILE, for --compare.
--emit-expected prints the committed seed-42 digests (expected/seed42.txt).";

/// Runs the committed digest file covers, per workload.
const EXPECTED_RUNS: u64 = 20;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

enum Mode {
    Run(Args),
    Compare(PathBuf, PathBuf),
    EmitExpected,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut args = Args {
        workload: None,
        seed: oracle::EXPECTED_SEED,
        seconds: 15.0,
        trace: None,
        smoke: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number in (0, 3600]")?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let base = PathBuf::from(value()?);
                let change = PathBuf::from(value()?);
                return Ok(Mode::Compare(base, change));
            }
            "--emit-expected" => return Ok(Mode::EmitExpected),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Mode::Run(args))
}

/// Runs one pass in this process and prints its result line.
fn run_here(args: &Args, workload: Workload, trace: bool) -> Result<(), String> {
    let report = harness::run(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace,
        smoke: args.smoke,
    });
    let result = report.to_json();
    if let Some(path) = &args.out {
        let Json::Obj(fields) = &result else {
            unreachable!("a report is an object")
        };
        let mut record = vec![
            (
                "workload".to_string(),
                Json::Str(workload.name().to_string()),
            ),
            ("seed".to_string(), Json::Num(args.seed as f64)),
            ("trace".to_string(), Json::Num(f64::from(u8::from(trace)))),
        ];
        record.extend(fields.iter().cloned());
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", Json::Obj(record)).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(())
}

/// Runs each selected pass in a child process, one after another, and
/// prints a combined result with metrics named `<workload>/<metric>`.
fn run_children(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let traces = args.trace.map_or(vec![false, true], |t| vec![t]);
    let (mut attempted, mut failed, mut metrics) = (0.0, 0.0, Vec::new());
    for &workload in &workloads {
        for &trace in &traces {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(out) = &args.out {
                cmd.arg("--out").arg(out);
            }
            let output = cmd
                .output()
                .map_err(|e| format!("starting {}: {e}", workload.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            if !output.status.success() {
                return Err(format!("{} exited with {}", workload.name(), output.status));
            }
            let result = stdout
                .lines()
                .last()
                .and_then(|line| Json::parse(line).ok())
                .ok_or(format!("{} printed no result", workload.name()))?;
            let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            attempted += number("attempted");
            failed += number("failed");
            for (name, value) in result
                .get("metrics")
                .and_then(Json::as_object)
                .unwrap_or_default()
            {
                metrics.push((format!("{}/{name}", workload.name()), value.clone()));
            }
        }
    }
    let combined = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(failed == 0.0)),
        ("attempted".to_string(), Json::Num(attempted)),
        ("failed".to_string(), Json::Num(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{combined}");
    Ok(())
}

fn main() -> ExitCode {
    let mode = match parse(std::env::args().skip(1)) {
        Ok(mode) => mode,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Compare(base, change) => compare::run(&base, &change).map(|(report, regressed)| {
            print!("{report}");
            if regressed {
                println!("at least one end-to-end metric regressed beyond its bound");
            }
            regressed
        }),
        Mode::EmitExpected => {
            for workload in Workload::ALL {
                let bench = Bench::new(workload, oracle::EXPECTED_SEED);
                for run in 0..EXPECTED_RUNS {
                    let digest = oracle::digest(&bench.run(&bench.spec(run)));
                    println!("{}", oracle::expected_line(workload, run, digest));
                }
            }
            Ok(false)
        }
        Mode::Run(args) => match (args.workload, args.trace) {
            (Some(workload), Some(trace)) => run_here(&args, workload, trace),
            _ => run_children(&args),
        }
        .map(|()| false),
    };
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
