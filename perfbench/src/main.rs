//! The repository benchmark: one paper-scale LightNAS search, one
//! multi-tenant search sweep, or one open-loop predictor-serving run per
//! process, each checked for correctness before any number is reported.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search|sweep|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end metrics of [`END_TO_END`]; with `--trace 1`
//! the workload runs once untraced and once traced, and the metrics are the
//! per-layer metrics of [`PER_LAYER`]. `BENCHMARK.json` at the repository
//! root declares the same names and units, and `perfbench/README.md` maps
//! each layer to the end-to-end metric and workload it should move.

mod inputs;
mod report;
mod search;
mod serve;
mod setup;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use lightnas_tensor::kernels::{
    num_threads, simd_enabled, with_pool, POOL_CAP_ENV, SIMD_ENV, THREADS_ENV,
};
use lightnas_tensor::{kernel_mode, KernelMode, MODE_ENV};

/// The workloads `--workload` accepts.
const WORKLOADS: [&str; 3] = ["search", "sweep", "serve"];

/// End-to-end metrics, reported by every workload: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "share"),
    ("wall_s", "s"),
    ("p50_us", "us"),
    ("goodput_per_s", "1/s"),
];

/// Per-layer metrics of the traced run, reported by every workload (0 where
/// the workload does not reach the layer): (name, unit).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("latency.p99_us", "us"),
    ("tensor.pool.buffers_end", "count"),
    ("tensor.pool.retained_mib_end", "MiB"),
    ("tensor.pool.hit_ratio", "share"),
    ("predictor.predict.calls", "count"),
    ("predictor.predict.busy_s", "s"),
    ("predictor.predict.p50_us.first_1k", "us"),
    ("predictor.predict.p50_us.last_1k", "us"),
    ("predictor.gradient.calls", "count"),
    ("predictor.gradient.busy_s", "s"),
    ("predictor.gradient.p50_us.first_1k", "us"),
    ("predictor.gradient.p50_us.last_1k", "us"),
    ("predictor.call_growth", "ratio"),
    ("predictor.batch.calls", "count"),
    ("predictor.batch.rows_per_call", "count"),
    ("predictor.batch.us_per_row", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "share"),
    ("predictor.miss_busy_s", "s"),
    ("core.stepper.epoch_p50_ms", "ms"),
    ("core.stepper.self_s", "s"),
    ("core.search.remainder_s", "s"),
    ("runtime.jobs.completed", "count"),
    ("runtime.jobs.failed", "count"),
    ("runtime.jobs.retried", "count"),
    ("runtime.job_wall_sum_s", "s"),
    ("runtime.parallel_efficiency", "share"),
    ("runtime.checkpoints.written", "count"),
    ("runtime.telemetry.lines", "count"),
    ("runtime.telemetry.bytes", "bytes"),
    ("runtime.telemetry.dropped", "count"),
    ("serve.search.admitted", "count"),
    ("serve.search.rejected", "count"),
    ("serve.admitted", "count"),
    ("serve.rejected_overloaded", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.degraded", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.compute_p50_us", "us"),
    ("serve.generator_lag_p99_us", "us"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Environment variables that change what the program computes or how fast
/// it runs; the benchmark refuses to report numbers when any is set.
const GUARDED_ENV: [&str; 7] = [
    "LIGHTNAS_QUICK",
    MODE_ENV,
    THREADS_ENV,
    SIMD_ENV,
    POOL_CAP_ENV,
    "LIGHTNAS_WORKERS",
    lightnas_serve::WEIGHTS_ENV,
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (searches, jobs or requests).
    pub attempted: u64,
    /// Operations that failed with an error.
    pub failed: u64,
    /// Measured metrics (end-to-end or per-layer, depending on the mode).
    pub metrics: Metrics,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} outside (0, 600]", args.seconds));
    }
    Ok(args)
}

/// The guarded variables that are set, by name.
fn guarded_env_set() -> Vec<&'static str> {
    GUARDED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Where the benchmark writes its scratch files and traces: `out/` beside
/// this package's manifest, inside the checkout it was built from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Renders the result line of a run whose checks all passed.
fn result_json(outcome: &Outcome, declared: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                outcome.metrics[name]
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Checks that `metrics` holds exactly the declared names, all finite.
fn check_declared(metrics: &Metrics, declared: &[(&str, &str)]) -> Result<(), String> {
    for (name, _) in declared {
        match metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("metric {name} is not finite ({v})")),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    if metrics.len() != declared.len() {
        let extra: Vec<_> = metrics
            .keys()
            .filter(|k| !declared.iter().any(|(n, _)| n == *k))
            .collect();
        return Err(format!("undeclared metrics {extra:?}"));
    }
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let set = guarded_env_set();
    if !set.is_empty() {
        return Err(format!(
            "refusing to measure with {} set: the benchmark runs the program's defaults",
            set.join(", ")
        ));
    }
    let mode = kernel_mode();
    let threads = num_threads();
    let cap = with_pool(|p| p.stats().cap_bytes);
    println!(
        "environment: kernel mode {mode:?}, {threads} kernel thread(s), SIMD {}, pool cap {} MiB, {} hardware threads",
        if simd_enabled() { "on" } else { "off" },
        cap as f64 / (1 << 20) as f64,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if mode != KernelMode::Strict || threads != 1 {
        return Err("kernels must run on the strict tier at 1 thread".into());
    }
    let out = out_dir();
    let (sub, setup_secs) = setup::set_up(args.seed)?;
    println!(
        "set-up: {} concurrent corpus+training runs took {:?} s; validation RMSE {:.4} ms",
        setup::COPIES,
        setup_secs,
        sub.rmse_ms
    );
    let mut outcome = match args.workload.as_str() {
        "search" => search::run(&sub, args.seed, args.seconds, args.trace, &out)?,
        "sweep" => sweep::run(&sub, args.seed, args.seconds, args.trace, &out)?,
        "serve" => serve::run(&sub, args.seed, args.seconds, args.trace, &out)?,
        other => unreachable!("parse_args admitted workload {other}"),
    };
    if !args.trace {
        outcome
            .metrics
            .insert("setup_s", stats::median(&setup_secs));
        outcome.metrics.insert("peak_rss_mib", peak_rss_mib()?);
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <search|sweep|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_declared(&outcome.metrics, declared) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    for (name, unit) in declared {
        println!("{name:<38} {:>16.6} {unit}", outcome.metrics[name]);
    }
    println!("{}", result_json(&outcome, declared));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload search --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "search".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload search --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload fleet --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve --seed -1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 1 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn result_line_lists_declared_metrics_in_order() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: Metrics::new(),
        };
        o.metrics.insert("b", 2.5);
        o.metrics.insert("a", 1.0);
        let declared = [("b", "s"), ("a", "ms")];
        check_declared(&o.metrics, &declared).expect("complete");
        assert_eq!(
            result_json(&o, &declared),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": 2.5, \"unit\": \"s\"}, \"a\": {\"value\": 1, \"unit\": \"ms\"}}}"
        );
        o.metrics.insert("c", f64::NAN);
        assert!(check_declared(&o.metrics, &declared).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"name\": ").count();
        let workloads = json.matches("\"why\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
