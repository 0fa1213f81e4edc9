//! The sweep runner: search jobs × worker pool × shared predictor cache ×
//! checkpoint/resume × telemetry, composed.
//!
//! [`run_sweep`] is the runtime's front door. It takes a list of
//! [`SearchJob`]s, executes them on a [`JobScheduler`] pool behind one
//! shared [`CachedPredictor`], optionally persists a [`Checkpoint`] per job
//! under a directory, and optionally narrates everything to a [`Telemetry`]
//! sink. The returned [`SweepReport`] carries per-job statuses in job order
//! — deterministic under any worker count — plus the merged cache counters
//! and the wall-clock.
//!
//! An `epoch_budget` turns the runner into a resumable batch system: when
//! the budget runs out mid-sweep (a simulated kill, a cluster preemption
//! slot, a CI time box), in-flight jobs checkpoint and report
//! [`JobStatus::Interrupted`]; calling [`run_sweep`] again with the same
//! jobs and checkpoint directory resumes each exactly where it stopped and
//! — because [`SearchState`](lightnas::SearchState) snapshots are
//! bit-exact — lands on results byte-identical to a never-interrupted run.
//!
//! Every job runs *supervised* (see [`crate::supervisor`]): a panicking or
//! diverging job is isolated, retried up to [`SweepOptions::max_retries`]
//! times from its newest loadable checkpoint (corrupt generations are
//! quarantined), and only then reported as [`JobStatus::Failed`] — the
//! rest of the sweep always runs to completion. [`run_sweep_with_faults`]
//! additionally threads a deterministic [`FaultPlan`] through the run so
//! tests and the `fault_sweep` exhibit can prove recovery is byte-exact.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

use lightnas::{DivergencePolicy, SearchConfig, SearchOutcome};
use lightnas_eval::AccuracyOracle;
use lightnas_predictor::{CacheStats, CachedPredictor, Predictor};
use lightnas_tensor::KernelCtx;

use crate::fault::FaultPlan;
use crate::scheduler::JobScheduler;
use crate::supervisor::{supervise_job, JobContext};
use crate::telemetry::{events, Field, Telemetry};

/// One unit of schedulable search work: "find the best architecture at
/// `target` with `seed` under `config`". A job is a pure function of this
/// triple, which is what makes sweeps deterministic under concurrency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchJob {
    /// The constraint target `T` (ms for latency, mJ for energy).
    pub target: f64,
    /// RNG seed of the search.
    pub seed: u64,
    /// The schedule to run.
    pub config: SearchConfig,
}

impl SearchJob {
    /// Convenience constructor.
    pub fn new(target: f64, seed: u64, config: SearchConfig) -> Self {
        Self {
            target,
            seed,
            config,
        }
    }

    /// The grid of jobs a target × seed sweep expands to (row-major:
    /// all seeds of the first target, then the next target).
    pub fn grid(targets: &[f64], seeds: &[u64], config: SearchConfig) -> Vec<SearchJob> {
        targets
            .iter()
            .flat_map(|&target| {
                seeds
                    .iter()
                    .map(move |&seed| Self::new(target, seed, config))
            })
            .collect()
    }
}

/// Knobs of one [`run_sweep`] invocation.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (0 or 1 = serial).
    pub workers: usize,
    /// Where per-job checkpoints live; `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a checkpoint every N completed epochs (0 = only when
    /// interrupted). Requires `checkpoint_dir`.
    pub checkpoint_every: usize,
    /// How many checkpoint generations each job retains on disk (newest
    /// first: `jobNNN.ckpt`, `.prev`, `.prev2`, …). Every save rotates
    /// within this bound and prunes anything older, so long-running
    /// services never grow their checkpoint directory; quarantined
    /// `*.corrupt` evidence is never pruned. Values below 1 are treated
    /// as 1. Default: 2 (current + previous).
    pub checkpoint_keep: usize,
    /// Total epochs the whole sweep may run before in-flight jobs are
    /// interrupted (simulated kill / preemption slot). `None` = unlimited.
    pub epoch_budget: Option<usize>,
    /// How many times a crashed or diverged job is retried (resuming from
    /// its newest loadable checkpoint) before it reports
    /// [`JobStatus::Failed`]. Default: 2.
    pub max_retries: usize,
    /// Base delay of the deterministic exponential backoff between retries
    /// (doubles per attempt, no jitter). Default: 25 ms.
    pub retry_backoff: Duration,
    /// What a [`SearchStepper`](lightnas::SearchStepper) does when a search
    /// quantity turns non-finite. Deliberately *not* part of the job
    /// identity ([`SearchJob`] / checkpoint format): it never alters a
    /// healthy trajectory. Default: [`DivergencePolicy::Abort`].
    pub divergence: DivergencePolicy,
    /// Threads the tensor kernels may use *inside* each job: the sweep's
    /// workers run under the caller's [`KernelCtx`] with this thread count;
    /// composes with `workers` (total ≈ `workers × kernel_threads`). `0`
    /// keeps the caller's count. The caller's own ctx is never changed.
    /// Like `divergence`, deliberately not part of the job identity: the
    /// kernels are bit-identical at every thread count, so this only
    /// changes throughput. Default: 0.
    pub kernel_threads: usize,
    /// Device name stamped on every telemetry line of this sweep (fleet
    /// runs attribute their `results/runs/` JSONL per target device).
    /// `None` (the default) omits the field entirely, so single-device
    /// telemetry stays byte-identical to earlier releases. Purely
    /// observational: never part of the job identity or checkpoint format.
    pub device: Option<String>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            checkpoint_dir: None,
            checkpoint_every: 0,
            checkpoint_keep: 2,
            epoch_budget: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(25),
            divergence: DivergencePolicy::default(),
            kernel_threads: 0,
            device: None,
        }
    }
}

impl SweepOptions {
    /// Serial, unlimited, no persistence.
    pub fn serial() -> Self {
        Self::default()
    }

    /// `workers` threads, unlimited, no persistence.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }
}

/// A finished job's result.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Position in the submitted job list.
    pub index: usize,
    /// The job that ran.
    pub job: SearchJob,
    /// The search outcome (architecture, trace, λ).
    pub outcome: SearchOutcome,
    /// `Some(epoch)` when the job continued from a checkpoint.
    pub resumed_from: Option<usize>,
    /// Wall-clock spent in this invocation (excludes pre-checkpoint time).
    pub wall: Duration,
}

/// What happened to one job in one [`run_sweep`] invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// The job ran (or resumed) to completion.
    Completed(JobResult),
    /// The epoch budget ran out first.
    Interrupted {
        /// Position in the submitted job list.
        index: usize,
        /// Epochs completed so far.
        epoch: usize,
        /// Where the state was persisted (`None` without a checkpoint dir —
        /// the progress of this invocation is then lost).
        checkpoint: Option<PathBuf>,
    },
    /// The job kept crashing or diverging until its retries ran out. The
    /// rest of the sweep is unaffected.
    Failed {
        /// Position in the submitted job list.
        index: usize,
        /// Attempts consumed (1 + retries).
        attempts: usize,
        /// The last attempt's failure, human-readable.
        error: String,
    },
}

impl JobStatus {
    /// The result, when completed.
    pub fn completed(&self) -> Option<&JobResult> {
        match self {
            JobStatus::Completed(r) => Some(r),
            JobStatus::Interrupted { .. } | JobStatus::Failed { .. } => None,
        }
    }

    /// `(attempts, error)`, when failed.
    pub fn failed(&self) -> Option<(usize, &str)> {
        match self {
            JobStatus::Failed {
                attempts, error, ..
            } => Some((*attempts, error.as_str())),
            _ => None,
        }
    }
}

/// The outcome of one [`run_sweep`] invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-job statuses, in submission order.
    pub statuses: Vec<JobStatus>,
    /// Merged hit/miss counters of the sweep-wide predictor cache.
    pub cache: CacheStats,
    /// Wall-clock of the whole invocation.
    pub wall: Duration,
}

impl SweepReport {
    /// The completed results, in submission order.
    pub fn completed(&self) -> Vec<&JobResult> {
        self.statuses
            .iter()
            .filter_map(JobStatus::completed)
            .collect()
    }

    /// The failed statuses, in submission order.
    pub fn failed(&self) -> Vec<&JobStatus> {
        self.statuses
            .iter()
            .filter(|s| s.failed().is_some())
            .collect()
    }

    /// `true` when no job was interrupted or failed.
    pub fn all_completed(&self) -> bool {
        self.statuses.iter().all(|s| s.completed().is_some())
    }
}

pub(crate) fn checkpoint_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("job{index:03}.ckpt"))
}

/// Runs every job and returns the per-job statuses in submission order.
///
/// All jobs share one [`CachedPredictor`] over `predictor` — memoization
/// never changes a value, so results are byte-identical to uncached serial
/// runs; neighbouring jobs (same target, different seed, or adjacent
/// targets) re-visit overlapping architectures and compound the hit rate.
///
/// Every job is supervised: a panic or divergence inside one job never
/// takes down the sweep, corrupt checkpoints are quarantined with fallback
/// to the previous generation, and exhausted retries report
/// [`JobStatus::Failed`] in that job's slot.
pub fn run_sweep<P: Predictor + Sync>(
    oracle: &AccuracyOracle,
    predictor: &P,
    jobs: &[SearchJob],
    opts: &SweepOptions,
    telemetry: Option<&Telemetry>,
) -> SweepReport {
    run_sweep_with_faults(oracle, predictor, jobs, opts, telemetry, &FaultPlan::none())
}

/// [`run_sweep`] with a deterministic [`FaultPlan`] threaded through every
/// job: scheduled panics fire at epoch boundaries, checkpoint corruptions
/// right after saves, predictor NaNs on exact query indices. With
/// [`FaultPlan::none`] this *is* [`run_sweep`].
///
/// The supervised recovery machinery only ever replays epochs from
/// bit-exact snapshots, so a faulted sweep whose jobs all complete returns
/// results byte-identical to the fault-free run — the property the
/// `fault_sweep` exhibit and the fault-injection test suite pin down.
pub fn run_sweep_with_faults<P: Predictor + Sync>(
    oracle: &AccuracyOracle,
    predictor: &P,
    jobs: &[SearchJob],
    opts: &SweepOptions,
    telemetry: Option<&Telemetry>,
    faults: &FaultPlan,
) -> SweepReport {
    let cached = CachedPredictor::new(predictor);
    run_sweep_shared(oracle, &cached, jobs, opts, telemetry, faults)
}

/// [`run_sweep_with_faults`] over a caller-owned [`CachedPredictor`]: the
/// cache outlives the sweep, so successive (or concurrent) sweeps sharing
/// one predictor compound their hit rates instead of re-warming from cold.
/// This is the execution path of `lightnas-serve`'s multi-tenant
/// [`SearchService`](../lightnas_serve), where every tenant's sweeps share
/// one cache.
///
/// Sharing never changes a result — memoized values are the predictor's own
/// deterministic outputs, and single-flight waiters receive exactly the
/// leader's answer — so [`SweepReport::statuses`] stays byte-identical to a
/// cold-cache or uncached run of the same jobs. The reported
/// [`SweepReport::cache`] counters are **this sweep's traffic only** (the
/// delta over the cache's counters at entry), preserving the
/// [`run_sweep`] meaning even though the cache is shared; traffic on other
/// threads during the sweep is attributed to whichever report observes it.
pub fn run_sweep_shared<P: Predictor + Sync>(
    oracle: &AccuracyOracle,
    cached: &CachedPredictor<'_, P>,
    jobs: &[SearchJob],
    opts: &SweepOptions,
    telemetry: Option<&Telemetry>,
    faults: &FaultPlan,
) -> SweepReport {
    let started = Instant::now();
    let mut kernel_ctx = KernelCtx::current();
    if opts.kernel_threads > 0 {
        kernel_ctx.threads = opts.kernel_threads;
    }
    let scheduler = JobScheduler::new(opts.workers);
    let cache_before = cached.stats();
    // A signed counter so concurrent over-draining (several workers passing
    // zero at once) saturates harmlessly instead of wrapping.
    let budget = opts.epoch_budget.map(|n| AtomicI64::new(n as i64));
    let take_epoch = || match &budget {
        Some(b) => b.fetch_sub(1, Ordering::Relaxed) > 0,
        None => true,
    };
    if let Some(t) = telemetry {
        let mut fields = vec![
            ("jobs", Field::U(jobs.len() as u64)),
            ("workers", Field::U(scheduler.workers() as u64)),
            (
                "epoch_budget",
                opts.epoch_budget
                    .map_or(Field::B(false), |n| Field::U(n as u64)),
            ),
            ("max_retries", Field::U(opts.max_retries as u64)),
            ("kernel_threads", Field::U(opts.kernel_threads as u64)),
            ("planned_faults", Field::U(faults.faults().len() as u64)),
        ];
        if let Some(device) = &opts.device {
            fields.push(("device", Field::S(device.clone())));
        }
        t.emit(events::RUN_START, &fields);
    }

    let statuses: Vec<JobStatus> = kernel_ctx
        .scope(|| {
            scheduler.run_catching(jobs.len(), |index| {
                let ctx = JobContext {
                    oracle,
                    cached,
                    index,
                    job: jobs[index],
                    opts,
                    telemetry,
                    faults,
                };
                supervise_job(&ctx, &take_epoch)
            })
        })
        .into_iter()
        .map(|r| {
            // The supervisor already catches per-attempt panics; anything
            // escaping it is an infrastructure failure — still isolated to
            // its own slot rather than aborting the sweep.
            r.unwrap_or_else(|p| {
                if let Some(t) = telemetry {
                    t.emit(
                        events::JOB_FAILED,
                        &[
                            ("job", Field::U(p.index as u64)),
                            ("error", Field::S(p.message.clone())),
                            ("escaped_supervision", Field::B(true)),
                        ],
                    );
                }
                JobStatus::Failed {
                    index: p.index,
                    attempts: 0,
                    error: format!("escaped supervision: {}", p.message),
                }
            })
        })
        .collect();

    let cache = cached.stats().since(cache_before);
    let wall = started.elapsed();
    if let Some(t) = telemetry {
        let done = statuses.iter().filter(|s| s.completed().is_some()).count();
        let failed = statuses.iter().filter(|s| s.failed().is_some()).count();
        let mut fields = vec![
            ("completed", Field::U(done as u64)),
            (
                "interrupted",
                Field::U((statuses.len() - done - failed) as u64),
            ),
            ("failed", Field::U(failed as u64)),
            ("faults_fired", Field::U(faults.fired() as u64)),
            ("wall_ms", Field::F(wall.as_secs_f64() * 1e3)),
            ("cache_hits", Field::U(cache.hits)),
            ("cache_misses", Field::U(cache.misses)),
            ("cache_hit_rate", Field::F(cache.hit_rate())),
            ("telemetry_dropped", Field::U(t.dropped_events())),
        ];
        if let Some(device) = &opts.device {
            fields.push(("device", Field::S(device.clone())));
        }
        t.emit(events::RUN_END, &fields);
    }
    SweepReport {
        statuses,
        cache,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expands_row_major() {
        let jobs = SearchJob::grid(&[20.0, 24.0], &[0, 1, 2], SearchConfig::fast());
        assert_eq!(jobs.len(), 6);
        assert_eq!((jobs[0].target, jobs[0].seed), (20.0, 0));
        assert_eq!((jobs[2].target, jobs[2].seed), (20.0, 2));
        assert_eq!((jobs[3].target, jobs[3].seed), (24.0, 0));
        assert_eq!(jobs[5].config, SearchConfig::fast());
    }

    #[test]
    fn checkpoint_paths_are_stable_and_ordered() {
        let dir = Path::new("/tmp/x");
        assert_eq!(checkpoint_path(dir, 0), dir.join("job000.ckpt"));
        assert_eq!(checkpoint_path(dir, 42), dir.join("job042.ckpt"));
    }

    #[test]
    fn report_filters_completed() {
        let r = JobResult {
            index: 0,
            job: SearchJob::new(20.0, 0, SearchConfig::fast()),
            outcome: SearchOutcome {
                architecture: lightnas_space::Architecture::homogeneous(
                    lightnas_space::Operator::SkipConnect,
                ),
                trace: lightnas::SearchTrace::new(),
                lambda: 0.0,
            },
            resumed_from: None,
            wall: Duration::ZERO,
        };
        let report = SweepReport {
            statuses: vec![
                JobStatus::Completed(r),
                JobStatus::Interrupted {
                    index: 1,
                    epoch: 3,
                    checkpoint: None,
                },
                JobStatus::Failed {
                    index: 2,
                    attempts: 3,
                    error: "diverged: non-finite loss".into(),
                },
            ],
            cache: CacheStats::default(),
            wall: Duration::ZERO,
        };
        assert_eq!(report.completed().len(), 1);
        assert_eq!(report.failed().len(), 1);
        assert_eq!(
            report.statuses[2].failed(),
            Some((3, "diverged: non-finite loss"))
        );
        assert!(!report.all_completed());
    }

    #[test]
    fn default_options_supervise_with_bounded_retries() {
        let opts = SweepOptions::default();
        assert_eq!(opts.max_retries, 2);
        assert!(!opts.retry_backoff.is_zero());
        assert_eq!(opts.divergence, lightnas::DivergencePolicy::Abort);
    }
}
