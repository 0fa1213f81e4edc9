//! `search`: one paper-scale LightNAS search (`SearchConfig::paper()`,
//! 90 × 80 steps) through `SearchStepper`, uncached and single-threaded, on
//! a fresh thread so its thread-local tensor pools start empty.

use std::path::Path;
use std::time::Instant;

use lightnas::{SearchConfig, SearchStepper};

use crate::inputs::{search_input, SearchInput};
use crate::report::{latency_e2e, layer_defaults, traced_layers};
use crate::setup::Substrate;
use crate::stats::median;
use crate::trace::{Recorder, Timed};
use crate::Outcome;

/// How far (ms) the derived architecture may land from the target on the
/// simulated Xavier — the bar `tests/reproduction_claims.rs` sets.
const LANDING_MS: f64 = 1.5;

/// One finished search.
struct Run {
    wall_s: f64,
    fingerprint: String,
    rec: Recorder,
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs one search on a fresh thread and checks where it landed.
fn search_once(sub: &Substrate, input: SearchInput, tracing: bool) -> Result<Run, String> {
    std::thread::scope(|s| {
        s.spawn(|| {
            let rec = Recorder::new(tracing);
            let timed = Timed::new(&sub.mlp, &rec);
            let started = Instant::now();
            let outcome = rec.span("core.search", || {
                let mut stepper = SearchStepper::new(
                    &sub.oracle,
                    &timed,
                    SearchConfig::paper(),
                    input.target,
                    input.seed,
                );
                while rec
                    .span("core.stepper.epoch", || stepper.try_step_epoch())
                    .map_err(|e| format!("search diverged: {e}"))?
                    .is_some()
                {}
                Ok::<_, String>(stepper.outcome())
            })?;
            let wall_s = started.elapsed().as_secs_f64();
            let landed = sub
                .device
                .true_latency_ms(&outcome.architecture, &sub.space);
            if (landed - input.target).abs() >= LANDING_MS {
                return Err(format!(
                    "search at T = {} ms landed at {landed:.3} ms (bar ±{LANDING_MS} ms)",
                    input.target
                ));
            }
            let spec = outcome.architecture.to_spec();
            let mut bytes = spec.clone().into_bytes();
            bytes.extend(outcome.lambda.to_bits().to_le_bytes());
            for r in outcome.trace.records() {
                bytes.extend(r.argmax_metric.to_bits().to_le_bytes());
            }
            let fingerprint = format!(
                "{spec} lambda={:.6} landed={landed:.3}ms fnv={:016x}",
                outcome.lambda,
                fnv1a(&bytes)
            );
            Ok(Run {
                wall_s,
                fingerprint,
                rec,
            })
        })
        .join()
        .expect("search thread panicked")
    })
}

/// Searches back to back, each on a fresh thread, until `seconds` would be
/// exceeded (at least one), and checks every repeat reproduces the first.
fn searches(
    sub: &Substrate,
    input: SearchInput,
    seconds: f64,
    tracing: bool,
) -> Result<Vec<Run>, String> {
    let started = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    loop {
        let run = search_once(sub, input, tracing)?;
        if let Some(first) = runs.first() {
            if first.fingerprint != run.fingerprint {
                return Err(format!(
                    "repeated search differs: {} vs {}",
                    first.fingerprint, run.fingerprint
                ));
            }
        }
        let next = run.wall_s;
        runs.push(run);
        if started.elapsed().as_secs_f64() + next > seconds {
            return Ok(runs);
        }
    }
}

/// Runs the workload: end-to-end metrics untraced, or per-layer metrics
/// from a traced search between two untraced ones.
pub fn run(
    sub: &Substrate,
    seed: u64,
    seconds: f64,
    tracing: bool,
    out: &Path,
) -> Result<Outcome, String> {
    let input = search_input(seed);
    println!(
        "search: paper schedule, T = {} ms, search seed {}",
        input.target, input.seed
    );
    if !tracing {
        let runs = searches(sub, input, seconds, false)?;
        println!("search: {} search(es); {}", runs.len(), runs[0].fingerprint);
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        let mut lat = Vec::new();
        for r in &runs {
            let calls = r.rec.calls();
            lat.extend(calls.iter().map(|c| c.ns() as f64 / 1e3));
        }
        let mut m = crate::Metrics::new();
        // A search that misses the landing bar has already failed the run.
        m.insert("ok_share", 1.0);
        m.insert("wall_s", median(&walls));
        latency_e2e(&mut m, &lat, &lat, walls.iter().sum(), "search queries")?;
        return Ok(Outcome {
            attempted: runs.len() as u64,
            failed: 0,
            metrics: m,
        });
    }
    // Untraced, traced, untraced: the overhead compares the traced search
    // with the mean of its neighbours, so process warm-up cancels out.
    let before = search_once(sub, input, false)?;
    let traced = search_once(sub, input, true)?;
    let after = search_once(sub, input, false)?;
    if before.fingerprint != traced.fingerprint || after.fingerprint != traced.fingerprint {
        return Err("tracing changed the search result".into());
    }
    println!("search: {}", traced.fingerprint);
    let rec = &traced.rec;
    let calls = rec.calls();
    let lat: Vec<f64> = calls.iter().map(|c| c.ns() as f64 / 1e3).collect();
    let mut m = layer_defaults();
    traced_layers(
        &mut m,
        rec,
        &lat,
        "search queries",
        (before.wall_s, traced.wall_s, after.wall_s),
    )?;
    let epochs: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "core.stepper.epoch")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let busy_s = calls.iter().map(|c| c.ns()).sum::<u64>() as f64 / 1e9;
    let stepper_self_s = rec.self_ns("core.stepper.epoch") as f64 / 1e9;
    m.insert("core.stepper.epoch_p50_ms", median(&epochs));
    m.insert("core.stepper.self_s", stepper_self_s);
    m.insert(
        "core.search.remainder_s",
        traced.wall_s - busy_s - stepper_self_s,
    );
    println!(
        "search: wall {:.3} s = predictor {:.3} s (predict {:.3} + gradient {:.3}) + stepper self {:.3} s + remainder {:.3} s",
        traced.wall_s,
        busy_s,
        m["predictor.predict.busy_s"],
        m["predictor.gradient.busy_s"],
        stepper_self_s,
        m["core.search.remainder_s"]
    );
    rec.write_jsonl(&out.join("trace-search.jsonl"))
        .map_err(|e| format!("cannot write the search trace: {e}"))?;
    Ok(Outcome {
        attempted: 3,
        failed: 0,
        metrics: m,
    })
}
