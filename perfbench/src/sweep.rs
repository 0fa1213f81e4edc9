//! `sweep`: three tenants submit overlapping target × seed grids of short
//! (`SearchConfig::fast()`) searches to one `SearchService`, which runs them
//! with `run_queued` on 2 sweep workers over its shared sharded cache, with
//! checkpoints and JSONL telemetry on.

use std::path::Path;
use std::time::Instant;

use lightnas::SearchConfig;
use lightnas_runtime::{JobStatus, SearchJob, SweepOptions, Telemetry};
use lightnas_serve::{
    search_audit_is_well_formed, Priority, SearchEvent, SearchService, SearchServiceConfig,
};

use crate::inputs::{tenant_grids, TenantGrid};
use crate::report::{latency_e2e, layer_defaults, traced_layers};
use crate::setup::Substrate;
use crate::stats::median;
use crate::trace::{Recorder, Timed};
use crate::Outcome;

/// Sweep workers (one per core of the reference box).
const WORKERS: usize = 2;

/// Checkpoint every this many epochs of each job.
const CHECKPOINT_EVERY: usize = 10;

/// One finished multi-tenant run.
struct Run {
    wall_s: f64,
    jobs: usize,
    completed: usize,
    fingerprint: Vec<String>,
    rec: Recorder,
    layers: crate::Metrics,
}

/// Counts telemetry lines naming `event`.
fn count_events(text: &str, event: &str) -> f64 {
    let tag = format!("\"event\":\"{event}\"");
    text.lines().filter(|l| l.contains(&tag)).count() as f64
}

/// Submits every tenant's grid to a fresh service, runs the queue once, and
/// checks the outcome.
fn sweep_once(
    sub: &Substrate,
    grids: &[TenantGrid],
    tracing: bool,
    dir: &Path,
) -> Result<Run, String> {
    let _ = std::fs::remove_dir_all(dir);
    let telemetry =
        Telemetry::create(dir, "sweep").map_err(|e| format!("cannot create telemetry: {e}"))?;
    let rec = Recorder::new(tracing);
    let timed = Timed::new(&sub.mlp, &rec);
    let config = SearchServiceConfig {
        sweep: SweepOptions {
            workers: WORKERS,
            checkpoint_dir: Some(dir.join("checkpoints")),
            checkpoint_every: CHECKPOINT_EVERY,
            ..SweepOptions::default()
        },
        ..SearchServiceConfig::default()
    };
    let service = SearchService::new(&sub.oracle, &timed, config, Some(&telemetry));
    let started = Instant::now();
    let reports = rec.span("serve.search.run", || {
        for (tenant, grid) in grids {
            let jobs = grid
                .iter()
                .map(|&(target, seed)| SearchJob::new(target, seed, SearchConfig::fast()))
                .collect();
            service
                .submit_sweep(tenant, Priority::Normal, jobs)
                .map_err(|e| format!("tenant {tenant} refused: {e}"))?;
        }
        Ok::<_, String>(service.run_queued())
    })?;
    let wall_s = started.elapsed().as_secs_f64();

    let audit = service.audit();
    search_audit_is_well_formed(&audit, true).map_err(|e| format!("search audit: {e}"))?;
    if reports.len() != grids.len() {
        return Err(format!(
            "{} sweeps ran, {} submitted",
            reports.len(),
            grids.len()
        ));
    }
    let statuses: Vec<&JobStatus> = reports.iter().flat_map(|r| &r.statuses).collect();
    let done: Vec<_> = statuses.iter().filter_map(|s| s.completed()).collect();
    let fingerprint = done
        .iter()
        .map(|r| {
            format!(
                "{}@{}#{}:{}:{:016x}",
                r.job.target,
                r.job.seed,
                r.index,
                r.outcome.architecture.to_spec(),
                r.outcome.lambda.to_bits()
            )
        })
        .collect();

    let mut layers = crate::Metrics::new();
    if tracing {
        let cache = service.cache_stats();
        let text = std::fs::read_to_string(telemetry.path())
            .map_err(|e| format!("cannot read telemetry: {e}"))?;
        let job_wall_s: f64 = done.iter().map(|r| r.wall.as_secs_f64()).sum();
        let admitted = audit
            .iter()
            .filter(|e| matches!(e, SearchEvent::SweepAdmitted { .. }))
            .count();
        let rejected = audit
            .iter()
            .filter(|e| matches!(e, SearchEvent::SweepRejected { .. }))
            .count();
        for (name, v) in [
            ("cache.hits", cache.hits as f64),
            ("cache.misses", cache.misses as f64),
            ("cache.hit_ratio", cache.hit_rate()),
            ("runtime.jobs.completed", done.len() as f64),
            (
                "runtime.jobs.failed",
                statuses.iter().filter(|s| s.failed().is_some()).count() as f64,
            ),
            ("runtime.jobs.retried", count_events(&text, "job_retried")),
            ("runtime.job_wall_sum_s", job_wall_s),
            (
                "runtime.parallel_efficiency",
                job_wall_s / (WORKERS as f64 * wall_s),
            ),
            (
                "runtime.checkpoints.written",
                count_events(&text, "checkpoint"),
            ),
            ("runtime.telemetry.lines", text.lines().count() as f64),
            ("runtime.telemetry.bytes", text.len() as f64),
            (
                "runtime.telemetry.dropped",
                telemetry.dropped_events() as f64,
            ),
            ("serve.search.admitted", admitted as f64),
            ("serve.search.rejected", rejected as f64),
        ] {
            layers.insert(name, v);
        }
    }
    Ok(Run {
        wall_s,
        jobs: statuses.len(),
        completed: done.len(),
        fingerprint,
        rec,
        layers,
    })
}

/// Checks a run completed every job and reproduced the reference results.
fn check(run: &Run, reference: &[String]) -> Result<(), String> {
    if run.completed != run.jobs {
        return Err(format!("{} of {} jobs completed", run.completed, run.jobs));
    }
    if run.fingerprint != reference {
        return Err("a repeated sweep produced different search results".into());
    }
    Ok(())
}

/// Runs the workload: end-to-end metrics over back-to-back multi-tenant
/// runs, or per-layer metrics from a traced run between two untraced ones.
pub fn run(
    sub: &Substrate,
    seed: u64,
    seconds: f64,
    tracing: bool,
    out: &Path,
) -> Result<Outcome, String> {
    let grids = tenant_grids(seed);
    for (tenant, grid) in &grids {
        println!("sweep: tenant {tenant} submits {grid:?}");
    }
    let dir = out.join(format!("sweep-work-{}", std::process::id()));
    let result = measure(sub, &grids, seconds, tracing, out, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(
    sub: &Substrate,
    grids: &[TenantGrid],
    seconds: f64,
    tracing: bool,
    out: &Path,
    dir: &Path,
) -> Result<Outcome, String> {
    if !tracing {
        let started = Instant::now();
        let mut runs: Vec<Run> = Vec::new();
        loop {
            let run = sweep_once(sub, grids, false, dir)?;
            let reference = runs.first().map_or(&run.fingerprint, |r| &r.fingerprint);
            check(&run, reference)?;
            let next = run.wall_s;
            runs.push(run);
            if started.elapsed().as_secs_f64() + next > seconds {
                break;
            }
        }
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        let lat: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.rec.calls())
            .map(|c| c.ns() as f64 / 1e3)
            .collect();
        let jobs: usize = runs.iter().map(|r| r.jobs).sum();
        let completed: usize = runs.iter().map(|r| r.completed).sum();
        println!(
            "sweep: {} multi-tenant run(s) of {} jobs; walls {walls:.3?} s",
            runs.len(),
            runs[0].jobs
        );
        let mut m = crate::Metrics::new();
        m.insert("ok_share", completed as f64 / jobs as f64);
        m.insert("wall_s", median(&walls));
        latency_e2e(&mut m, &lat, &lat, walls.iter().sum(), "sweep cache misses")?;
        return Ok(Outcome {
            attempted: jobs as u64,
            failed: (jobs - completed) as u64,
            metrics: m,
        });
    }
    // Untraced, traced, untraced, as in the `search` workload.
    let before = sweep_once(sub, grids, false, dir)?;
    check(&before, &before.fingerprint)?;
    let traced = sweep_once(sub, grids, true, dir)?;
    check(&traced, &before.fingerprint)?;
    let after = sweep_once(sub, grids, false, dir)?;
    check(&after, &before.fingerprint)?;
    let rec = &traced.rec;
    let calls = rec.calls();
    let lat: Vec<f64> = calls.iter().map(|c| c.ns() as f64 / 1e3).collect();
    let mut m = layer_defaults();
    m.extend(traced.layers.iter().map(|(k, v)| (*k, *v)));
    traced_layers(
        &mut m,
        rec,
        &lat,
        "sweep cache misses",
        (before.wall_s, traced.wall_s, after.wall_s),
    )?;
    m.insert("predictor.miss_busy_s", lat.iter().sum::<f64>() / 1e6);
    println!(
        "sweep: {} jobs, cache {} hits / {} misses, wall {:.3} s",
        traced.jobs, m["cache.hits"], m["cache.misses"], traced.wall_s
    );
    rec.write_jsonl(&out.join("trace-sweep.jsonl"))
        .map_err(|e| format!("cannot write the sweep trace: {e}"))?;
    Ok(Outcome {
        attempted: (before.jobs + traced.jobs + after.jobs) as u64,
        failed: 0,
        metrics: m,
    })
}
