//! **lightnas-runtime** — the concurrent search-job runtime of the LightNAS
//! reproduction.
//!
//! The paper's headline economics ("you only search **once**") still leave a
//! practitioner running *many* searches: one per latency target, per seed,
//! per device. This crate turns those runs from ad-hoc loops into scheduled,
//! cacheable, resumable, observable jobs:
//!
//! * [`JobScheduler`] — a worker-thread pool mapping a function over job
//!   indices with **deterministic, index-ordered results**: 1 worker and N
//!   workers produce byte-identical sweeps, only wall-clock differs.
//! * [`CachedPredictor`] (re-exported from `lightnas-predictor`) — one
//!   thread-safe memoizing predictor shared across all jobs of a sweep,
//!   with hit/miss counters surfaced in the run telemetry.
//! * [`Checkpoint`] — a versioned on-disk snapshot of a job's
//!   [`SearchState`](lightnas::SearchState) (IEEE-754 bits, atomic writes),
//!   so a killed sweep resumes **bit-identically**.
//! * [`Telemetry`] — an append-only JSONL event sink (one file per run,
//!   conventionally under `results/runs/`), counting rather than hiding
//!   its own write failures.
//! * [`run_sweep`] — the composition of all four over a [`SearchJob`] list.
//!
//! Sweeps are **supervised**: each job runs behind panic isolation with
//! bounded, checkpoint-resuming retries ([`SweepOptions::max_retries`]),
//! corrupt checkpoints are quarantined (`*.corrupt`) with fallback to a
//! previous generation ([`CheckpointStore`]), non-finite search quantities
//! trip typed divergence guards
//! ([`DivergencePolicy`]), and non-finite predictor answers degrade a
//! single query instead of a job. [`run_sweep_with_faults`] drives the
//! same machinery under a deterministic [`FaultPlan`] — seeded schedules
//! of panics, checkpoint corruption, and predictor NaNs — so the recovery
//! paths are *tested*, not just present; the guarantee (proved by the
//! `fault_sweep` exhibit) is that a faulted sweep's results are
//! byte-identical to a fault-free run.
//!
//! # Example
//!
//! ```no_run
//! use lightnas::SearchConfig;
//! use lightnas_eval::AccuracyOracle;
//! use lightnas_hw::Xavier;
//! use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig};
//! use lightnas_runtime::{run_sweep, SearchJob, SweepOptions, Telemetry};
//! use lightnas_space::SearchSpace;
//!
//! let space = SearchSpace::standard();
//! let oracle = AccuracyOracle::imagenet();
//! let data = MetricDataset::sample_diverse(
//!     &Xavier::maxn(), &space, Metric::LatencyMs, 10_000, 0);
//! let predictor = MlpPredictor::train(&data.split(0.8).0, &TrainConfig::default());
//!
//! let jobs = SearchJob::grid(&[18.0, 24.0, 30.0], &[0, 1, 2], SearchConfig::paper());
//! let telemetry = Telemetry::create("results/runs", "frontier-sweep").unwrap();
//! let report = run_sweep(
//!     &oracle, &predictor, &jobs,
//!     &SweepOptions { workers: 4, ..Default::default() },
//!     Some(&telemetry),
//! );
//! for r in report.completed() {
//!     println!("T={} seed={} -> {}", r.job.target, r.job.seed,
//!              r.outcome.architecture.to_spec());
//! }
//! println!("cache hit rate: {:.1}%", 100.0 * report.cache.hit_rate());
//! ```

mod checkpoint;
mod fault;
mod scheduler;
mod supervisor;
mod sweep;
mod telemetry;

pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use fault::{
    apply_corruption, splitmix64, CorruptionMode, Fault, FaultKind, FaultPlan, FaultSchedule,
};
pub use lightnas::DivergencePolicy;
pub use lightnas_predictor::{CacheSnapshot, CacheStats, CachedPredictor};
pub use scheduler::{panic_message, JobPanic, JobScheduler};
pub use supervisor::CheckpointStore;
pub use sweep::{
    run_sweep, run_sweep_shared, run_sweep_with_faults, JobResult, JobStatus, SearchJob,
    SweepOptions, SweepReport,
};
pub use telemetry::{events, Field, Telemetry};
