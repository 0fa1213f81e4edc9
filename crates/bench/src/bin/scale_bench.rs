//! Scale-out exhibit: the single-flight predictor cache under a miss
//! storm, plus multi-tenant determinism.
//!
//! Two claims, two gates (DESIGN.md §16):
//!
//! 1. **Single-flight exactness** (deterministic): a barrier-synchronized
//!    8-thread miss storm over 64 distinct keys drives exactly 64 computes
//!    through the wrapped predictor — concurrent misses on one key compute
//!    once.
//! 2. **Multi-tenant byte-identity** (deterministic): three tenants' sweeps
//!    through one [`SearchService`] — one shared cache, concurrent workers —
//!    produce results byte-identical to private, serial, cold-cache
//!    [`run_sweep`] runs of the same jobs. The fingerprints (and the shared
//!    cache's exact counters, which single-flight makes
//!    schedule-independent) land in `results/scale_results.txt`; CI runs
//!    the exhibit twice and `cmp`s that file byte-for-byte.
//!
//! ```text
//! cargo run --release -p lightnas-bench --bin scale_bench
//! ```
//!
//! Deterministic results in `results/scale_results.txt`, the same counts
//! as JSON in `BENCH_scale.json`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use lightnas::SearchConfig;
use lightnas_bench::{quick_mode, sweep_workers};
use lightnas_eval::AccuracyOracle;
use lightnas_hw::Xavier;
use lightnas_predictor::{
    CachedPredictor, Metric, MetricDataset, MlpPredictor, Predictor, TrainConfig,
};
use lightnas_runtime::{run_sweep, JobStatus, SearchJob, SweepOptions, Telemetry};
use lightnas_serve::{search_audit_is_well_formed, Priority, SearchService, SearchServiceConfig};
use lightnas_space::{Architecture, SearchSpace};

/// Counts rows that genuinely reach the wrapped predictor.
struct Counting<'a> {
    inner: &'a MlpPredictor,
    computes: AtomicU64,
}

impl Predictor for Counting<'_> {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        self.computes.fetch_add(1, Ordering::Relaxed);
        self.inner.predict_encoding(encoding)
    }
    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        self.computes.fetch_add(1, Ordering::Relaxed);
        self.inner.gradient(encoding)
    }
    fn predict(&self, arch: &Architecture) -> f64 {
        self.computes.fetch_add(1, Ordering::Relaxed);
        self.inner.predict(arch)
    }
}

fn fingerprints(statuses: &[JobStatus]) -> Vec<(String, u64)> {
    statuses
        .iter()
        .map(|s| {
            let r = s.completed().expect("scale_bench jobs must complete");
            (r.outcome.architecture.to_spec(), r.outcome.lambda.to_bits())
        })
        .collect()
}

fn main() -> ExitCode {
    let quick = quick_mode();
    let space = SearchSpace::standard();
    let device = Xavier::maxn();
    let oracle = AccuracyOracle::imagenet();
    let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 1200, 23);
    let mlp = MlpPredictor::train(
        &data,
        &TrainConfig {
            epochs: 20,
            batch_size: 128,
            lr: 2e-3,
            seed: 9,
        },
    );
    let mut results = String::new(); // the deterministic artifact CI cmp's

    // --- gate 1: single-flight exactness under an 8-thread miss storm.
    const STORM_KEYS: usize = 64;
    const STORM_THREADS: usize = 8;
    let storm: Vec<Architecture> = (0..STORM_KEYS as u64)
        .map(|s| Architecture::random(&space, 1000 + s))
        .collect();
    let counting = Counting {
        inner: &mlp,
        computes: AtomicU64::new(0),
    };
    let cached_storm = CachedPredictor::new(&counting);
    let barrier = Barrier::new(STORM_THREADS);
    std::thread::scope(|scope| {
        for t in 0..STORM_THREADS {
            let (storm, cached, barrier) = (&storm, &cached_storm, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for k in 0..storm.len() {
                    let _ = Predictor::predict(cached, &storm[(k + t * 7) % storm.len()]);
                }
            });
        }
    });
    let storm_computes = counting.computes.load(Ordering::Relaxed);
    if storm_computes != STORM_KEYS as u64 {
        eprintln!(
            "error: single-flight must compute each of the {STORM_KEYS} distinct keys exactly \
             once under the miss storm; counted {storm_computes}"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "single-flight storm: {STORM_THREADS} threads x {STORM_KEYS} distinct keys -> \
         {storm_computes} computes (exactly one per key)"
    );
    let _ = writeln!(
        results,
        "single_flight: threads={STORM_THREADS} distinct={STORM_KEYS} computes={storm_computes}"
    );

    // --- gate 2: multi-tenant byte-identity against private serial runs.
    let config = if quick {
        SearchConfig {
            epochs: 6,
            steps_per_epoch: 8,
            warmup_epochs: 2,
            ..SearchConfig::fast()
        }
    } else {
        SearchConfig {
            epochs: 10,
            steps_per_epoch: 12,
            warmup_epochs: 2,
            ..SearchConfig::fast()
        }
    };
    // Overlapping targets across tenants — the cross-tenant cache-reuse
    // regime the service exists for.
    let sweeps: Vec<(&str, Vec<SearchJob>)> = vec![
        ("acme", SearchJob::grid(&[19.0, 25.0], &[0], config)),
        ("globex", SearchJob::grid(&[19.0, 21.0], &[3], config)),
        ("initech", SearchJob::grid(&[25.0], &[0, 5], config)),
    ];
    let telemetry = Telemetry::create("results/runs", "scale_service").ok();
    let service = SearchService::new(
        &oracle,
        &mlp,
        SearchServiceConfig {
            sweep: SweepOptions::with_workers(sweep_workers()),
            ..SearchServiceConfig::default()
        },
        telemetry.as_ref(),
    );
    for (tenant, jobs) in &sweeps {
        if let Err(e) = service.submit_sweep(tenant, Priority::Normal, jobs.clone()) {
            eprintln!("error: tenant {tenant} rejected at admission: {e}");
            return ExitCode::FAILURE;
        }
    }
    let reports = service.run_queued();
    let mut identical = true;
    for ((tenant, jobs), report) in sweeps.iter().zip(&reports) {
        let shared = fingerprints(&report.statuses);
        let private = run_sweep(&oracle, &mlp, jobs, &SweepOptions::serial(), None);
        let serial = fingerprints(&private.statuses);
        if shared != serial {
            eprintln!("error: tenant {tenant}: shared-cache results diverged from serial run");
            eprintln!("  shared: {shared:?}\n  serial: {serial:?}");
            identical = false;
        }
        let _ = writeln!(results, "tenant {tenant} ({} jobs):", jobs.len());
        for (spec, lambda) in &shared {
            let _ = writeln!(results, "  arch={spec} lambda_bits={lambda:016x}");
        }
    }
    if !identical {
        return ExitCode::FAILURE;
    }
    if let Err(v) = search_audit_is_well_formed(&service.audit(), true) {
        eprintln!("error: service audit is malformed: {v}");
        return ExitCode::FAILURE;
    }
    // Single-flight makes the shared counters schedule-independent (misses
    // == distinct keys regardless of worker interleaving), so the exact
    // numbers belong in the deterministic artifact.
    let snap = service.cache_snapshot();
    if snap.stats.misses as usize != snap.predictions + snap.gradients {
        eprintln!("error: cache invariant broke: {snap:?}");
        return ExitCode::FAILURE;
    }
    println!(
        "multi-tenant byte-identity: {} tenants, {} jobs, results identical to private serial \
         runs; shared cache {} hits / {} misses",
        sweeps.len(),
        reports.iter().map(|r| r.statuses.len()).sum::<usize>(),
        snap.stats.hits,
        snap.stats.misses,
    );
    let _ = writeln!(
        results,
        "shared_cache: hits={} misses={} occupancy={}",
        snap.stats.hits,
        snap.stats.misses,
        snap.predictions + snap.gradients,
    );
    let _ = writeln!(results, "byte_identity: PASS");

    let json = format!(
        "{{\n  \"single_flight_storm_computes\": {storm_computes},\n  \
         \"single_flight_storm_distinct\": {STORM_KEYS},\n  \
         \"multi_tenant_byte_identity\": true,\n  \
         \"shared_cache_hits\": {},\n  \"shared_cache_misses\": {}\n}}\n",
        snap.stats.hits, snap.stats.misses
    );
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("[scale_bench] cannot create results/: {e}");
    }
    match std::fs::write("results/scale_results.txt", &results) {
        Ok(()) => eprintln!("[scale_bench] wrote results/scale_results.txt (deterministic)"),
        Err(e) => eprintln!("[scale_bench] failed to write results/scale_results.txt: {e}"),
    }
    match std::fs::write("BENCH_scale.json", &json) {
        Ok(()) => eprintln!("[scale_bench] wrote BENCH_scale.json"),
        Err(e) => eprintln!("[scale_bench] failed to write BENCH_scale.json: {e}"),
    }
    ExitCode::SUCCESS
}
