//! `bench_e2e`: the repository's end-to-end benchmark and outside-in stage
//! ledger. See `README.md` beside this package for every metric, workload
//! and flag.
//!
//! ```console
//! $ cargo run --release --manifest-path examples/bench_e2e/Cargo.toml -- \
//!       --workload fleet --seed 0 --seconds 20 --trace 0
//! ```
//!
//! With `--workload` the process runs that one workload and prints, as the
//! last line of standard output, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. Without it, it spawns one
//! child process per workload in the fixed order megascale → fleet → chaos →
//! serve (sequentially, so `peak_rss_mb` is each workload's own) and merges
//! their documents.

mod epoch;
mod ledger;
mod runs;
mod serve;
mod stats;
mod table;
mod trace;

use runs::Report;
use serde_json::{json, Value};
use std::process::{Command, ExitCode, Stdio};
use table::{Workload, END_TO_END, RUN_SECONDS};

#[global_allocator]
static ALLOCATOR: trace::CountingAllocator = trace::CountingAllocator;

/// Prefix of the line carrying a run's full document to a parent process.
const DETAIL_PREFIX: &str = "# detail: ";

/// Runs per set when `--selftest` is given without a count.
const SELFTEST_RUNS: usize = 3;

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    selftest: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_e2e [--workload megascale|fleet|chaos|serve] [--seed N] [--seconds S] \
         [--trace [0|1]] [--out FILE] [--selftest [K]]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
        out: None,
        selftest: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        // A flag's optional numeric value: taken only when it is a number.
        let number = |args: &mut std::iter::Peekable<_>| -> Option<u64> {
            let value = args.peek().and_then(|v: &String| v.parse::<u64>().ok())?;
            args.next();
            Some(value)
        };
        match arg.as_str() {
            "--workload" => {
                let name = args.next().unwrap_or_else(|| usage());
                options.workload = Some(Workload::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name:?}");
                    usage()
                }));
            }
            "--seed" => options.seed = number(&mut args).unwrap_or_else(|| usage()),
            "--seconds" => options.seconds = number(&mut args).unwrap_or_else(|| usage()).max(1),
            "--trace" => options.trace = number(&mut args).unwrap_or(1) != 0,
            "--out" => options.out = Some(args.next().unwrap_or_else(|| usage())),
            "--selftest" => {
                options.selftest = Some(
                    number(&mut args)
                        .map_or(SELFTEST_RUNS, |k| k as usize)
                        .max(3),
                );
            }
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }
    options
}

/// The checked-out commit, read from `.git` without spawning anything;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    let resolved = resolved.trim();
    if resolved.is_empty() {
        "unknown".to_owned()
    } else {
        resolved.chars().take(12).collect()
    }
}

fn metrics_value(report: &Report) -> Value {
    Value::Map(
        report
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    Value::Str(name.to_owned()),
                    json!({"value": value, "unit": unit}),
                )
            })
            .collect(),
    )
}

/// The full document of one run: the contract's four keys plus everything
/// a reader of the result needs to place it.
fn detail(report: &Report, options: &Options) -> Value {
    json!({
        "workload": report.workload.name(),
        "trace": options.trace,
        "seed": options.seed,
        "seconds": options.seconds,
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "samples": report.attempted,
        "journal_digest": format!("{:016x}", report.journal_digest),
        "nproc": stats::nproc(),
        "commit": commit(),
        "rustc": env!("BENCH_RUSTC_VERSION"),
        "failures": report.failures,
        "metrics": metrics_value(report),
    })
}

fn print_report(report: &Report, options: &Options) {
    println!(
        "# bench_e2e {} trace={} seed={} seconds={} nproc={} commit={} rustc=\"{}\"",
        report.workload.name(),
        u8::from(options.trace),
        options.seed,
        options.seconds,
        stats::nproc(),
        commit(),
        env!("BENCH_RUSTC_VERSION"),
    );
    println!(
        "# steps attempted {} failed {} samples {} journal_digest {:016x}",
        report.attempted, report.failed, report.attempted, report.journal_digest
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for failure in &report.failures {
        println!("# FAILED CHECK: {failure}");
    }
    for &(name, value, unit) in &report.metrics {
        println!(
            "{:<10} {name:<36} {value:>16.4} {unit}",
            report.workload.name()
        );
    }
}

/// Runs one workload in this process and prints the contract's last line.
fn run_workload(workload: Workload, options: &Options) -> ExitCode {
    let sizes = workload.sizes_for(options.seconds);
    if workload.pinned_from_start() && !stats::run_on_one_cpu() {
        eprintln!("# could not pin to one CPU; step times may be bimodal");
    }
    let report = if options.trace {
        runs::traced(workload, options.seed, sizes)
    } else {
        runs::untraced(workload, options.seed, sizes)
    };
    print_report(&report, options);
    let document = detail(&report, options);
    let text = serde_json::to_string(&document).expect("serializable document");
    if let Some(path) = &options.out {
        std::fs::write(path, &text).expect("--out file is written");
    }
    println!("{DETAIL_PREFIX}{text}");
    let last = json!({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics_value(&report),
    });
    println!(
        "{}",
        serde_json::to_string(&last).expect("serializable result")
    );
    ExitCode::SUCCESS
}

/// Runs one workload in a child process of its own and returns its full
/// document. The child's human-readable lines pass through.
fn run_child(workload: Workload, options: &Options) -> Value {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("child process runs");
    assert!(
        output.status.success(),
        "workload {} exited with {}",
        workload.name(),
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("child prints UTF-8");
    let mut document = None;
    for line in stdout.lines() {
        if let Some(text) = line.strip_prefix(DETAIL_PREFIX) {
            document = Some(serde_json::from_str::<Value>(text).expect("child document parses"));
        } else if line.starts_with('#') || !line.starts_with('{') {
            println!("{line}");
        }
    }
    document.expect("child printed its document")
}

/// The default invocation: every workload, one child process each, merged.
fn run_suite(options: &Options) -> Vec<Value> {
    Workload::ALL
        .into_iter()
        .map(|workload| run_child(workload, options))
        .collect()
}

fn metric_of(document: &Value, name: &str) -> f64 {
    document["metrics"][name]["value"]
        .as_f64()
        .expect("metric is present")
}

/// `--selftest K`: the untraced suite as two sets of K runs. Prints, per
/// workload × metric, both medians, their relative difference (positive =
/// the second set is worse), the inter-quartile spread of all 2K runs as a
/// share of their median, and the bound; fails if a difference exceeds its
/// bound or a journal digest differs between any two runs.
fn selftest(runs_per_set: usize, options: &Options) -> ExitCode {
    let sets: Vec<Vec<Vec<Value>>> = (0..2)
        .map(|set| {
            (0..runs_per_set)
                .map(|run| {
                    println!("# selftest set {} run {}/{runs_per_set}", set + 1, run + 1);
                    run_suite(options)
                })
                .collect()
        })
        .collect();

    let mut ok = true;
    println!(
        "# selftest: two sets of {runs_per_set} runs, seed {}, seconds {}",
        options.seed, options.seconds
    );
    println!(
        "{:<10} {:<12} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median set 1", "median set 2", "diff", "iqr", "bound"
    );
    for (index, workload) in Workload::ALL.into_iter().enumerate() {
        for (metric, _) in END_TO_END {
            let values = |set: &Vec<Vec<Value>>| -> Vec<f64> {
                set.iter()
                    .map(|suite| metric_of(&suite[index], metric))
                    .collect()
            };
            let (first, second) = (values(&sets[0]), values(&sets[1]));
            let (median_1, median_2) =
                (stats::median(first.clone()), stats::median(second.clone()));
            let worse = if table::higher_is_better(metric) {
                (median_1 - median_2) / median_1
            } else {
                (median_2 - median_1) / median_1
            };
            let all: Vec<f64> = first.into_iter().chain(second).collect();
            let (q1, q3) = stats::quartiles(&all);
            let spread = (q3 - q1) / stats::median(all);
            let bound = table::bound(metric);
            let pass = worse <= bound;
            ok &= pass;
            println!(
                "{:<10} {metric:<12} {median_1:>14.4} {median_2:>14.4} {:>+8.2}% {:>8.2}% {:>6.0}%  {}",
                workload.name(),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "OVER BOUND" }
            );
        }
        let digests: Vec<&str> = sets
            .iter()
            .flatten()
            .map(|suite| {
                suite[index]["journal_digest"]
                    .as_str()
                    .expect("digest is present")
            })
            .collect();
        let same = digests.windows(2).all(|pair| pair[0] == pair[1]);
        ok &= same;
        println!(
            "{:<10} journal_digest {} across {} runs: {}",
            workload.name(),
            digests[0],
            digests.len(),
            if same { "identical" } else { "DIFFERS" }
        );
        let failed: u64 = sets
            .iter()
            .flatten()
            .map(|suite| suite[index]["failed"].as_u64().unwrap_or(1))
            .sum();
        if failed > 0 {
            ok = false;
            println!("{:<10} {failed} failed steps", workload.name());
        }
    }
    if ok {
        println!("# selftest PASS");
        ExitCode::SUCCESS
    } else {
        println!("# selftest FAIL");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "bench_e2e refuses to measure a debug build: run it with `cargo run --release` \
             (debug timings are 10-50x off and say nothing about the system)"
        );
        return ExitCode::from(2);
    }
    let options = parse_options();
    if let Some(runs_per_set) = options.selftest {
        return selftest(runs_per_set, &options);
    }
    if let Some(workload) = options.workload {
        return run_workload(workload, &options);
    }
    let suite = run_suite(&options);
    let correct = suite
        .iter()
        .all(|document| document["correct"].as_bool() == Some(true));
    let merged = json!({
        "bench": "bench_e2e",
        "trace": options.trace,
        "seed": options.seed,
        "seconds": options.seconds,
        "correct": correct,
        "workloads": suite,
    });
    let text = serde_json::to_string(&merged).expect("serializable document");
    if let Some(path) = &options.out {
        std::fs::write(path, &text).expect("--out file is written");
    }
    println!("{text}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
