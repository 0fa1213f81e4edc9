//! A deterministic worker-pool scheduler over indexed jobs, with per-job
//! panic isolation.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use lightnas_tensor::KernelCtx;

/// A job closure panicked; the payload is preserved as a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the job that panicked.
    pub index: usize,
    /// The panic payload, stringified (`"<non-string panic payload>"` when
    /// the payload was neither `&str` nor `String`).
    pub message: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A fixed-size pool of worker threads executing an indexed job list.
///
/// The scheduler is deliberately *stateless about the jobs themselves*: it
/// maps a pure function over indices `0..items`, pulling the next index from
/// a shared counter, and returns the results **in index order** regardless
/// of which worker ran which job or in what order they finished. Because
/// every LightNAS search job is a deterministic function of its
/// `(target, seed, config)` triple, this makes whole sweeps reproducible
/// bit-for-bit under any worker count — 1 worker and 8 workers produce
/// byte-identical result vectors, only the wall-clock differs.
///
/// Worker threads are scoped ([`std::thread::scope`]), so the job closure
/// may freely borrow substrates (oracle, predictor, caches) from the caller,
/// and each worker runs under the caller's [`KernelCtx`].
///
/// # Example
///
/// ```
/// use lightnas_runtime::JobScheduler;
///
/// let squares = JobScheduler::new(4).run(6, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobScheduler {
    workers: usize,
}

impl JobScheduler {
    /// A scheduler with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// A single-threaded scheduler: jobs run inline, in order.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A scheduler sized to the machine (`available_parallelism`, capped).
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n.min(8))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` for every index in `0..items` and returns the results in
    /// index order. With one worker (or at most one item) the jobs run
    /// inline on the calling thread; otherwise worker threads pull indices
    /// from a shared counter until the list is drained.
    ///
    /// # Panics
    ///
    /// A panic inside `f` propagates to the caller once the pool has
    /// joined, with the original payload message and the job index attached
    /// (no result is silently dropped, and the remaining jobs still run —
    /// see [`run_catching`](Self::run_catching)).
    pub fn run<T, F>(&self, items: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut first_panic = None;
        let results: Vec<Option<T>> = self
            .run_catching(items, f)
            .into_iter()
            .map(|r| match r {
                Ok(v) => Some(v),
                Err(p) => {
                    first_panic.get_or_insert(p);
                    None
                }
            })
            .collect();
        if let Some(p) = first_panic {
            panic!("{p}");
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every index was claimed exactly once"))
            .collect()
    }

    /// Like [`run`](Self::run), but a panic inside `f(i)` is *isolated*: it
    /// becomes `Err(`[`JobPanic`]`)` in slot `i` while every other job still
    /// runs to completion — a worker that catches a panicking job goes back
    /// to the queue for the next index instead of dying.
    ///
    /// The result mutex is poison-recovered: slots are written whole, so a
    /// panic elsewhere can never leave a half-written entry.
    pub fn run_catching<T, F>(&self, items: usize, f: F) -> Vec<Result<T, JobPanic>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let catching = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| JobPanic {
                index: i,
                message: panic_message(payload.as_ref()),
            })
        };
        if self.workers == 1 || items <= 1 {
            return (0..items).map(catching).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<T, JobPanic>>> = Vec::with_capacity(items);
        slots.resize_with(items, || None);
        let slots = Mutex::new(slots);
        let kernel_ctx = KernelCtx::current();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(items) {
                scope.spawn(|| {
                    kernel_ctx.scope(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break;
                        }
                        let out = catching(i);
                        slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(out);
                    })
                });
            }
        });
        slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|slot| slot.expect("every index was claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_workers_clamp_to_one() {
        assert_eq!(JobScheduler::new(0).workers(), 1);
        assert_eq!(JobScheduler::serial().workers(), 1);
        assert!(JobScheduler::auto().workers() >= 1);
    }

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 4, 7] {
            let out = JobScheduler::new(workers).run(23, |i| i * 3);
            assert_eq!(
                out,
                (0..23).map(|i| i * 3).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = JobScheduler::new(4).run(50, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<usize> = JobScheduler::new(4).run(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_job_does_not_take_down_its_neighbours() {
        for workers in [1, 4] {
            let out = JobScheduler::new(workers).run_catching(10, |i| {
                assert!(i != 3 && i != 7, "injected failure in job {i}");
                i * 2
            });
            assert_eq!(out.len(), 10, "{workers} workers");
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) if i != 3 && i != 7 => assert_eq!(*v, i * 2),
                    Err(p) if i == 3 || i == 7 => {
                        assert_eq!(p.index, i);
                        assert!(p.message.contains(&format!("job {i}")), "{}", p.message);
                    }
                    other => panic!("job {i}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn run_propagates_the_panic_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            JobScheduler::new(2).run(6, |i| {
                if i == 4 {
                    panic!("boom from {i}");
                }
                i
            })
        })
        .expect_err("run must re-panic");
        let msg = panic_message(caught.as_ref());
        assert!(
            msg.contains("job 4") && msg.contains("boom from 4"),
            "payload {msg:?} must name the job and carry the original message"
        );
    }

    #[test]
    fn non_string_payloads_are_survived() {
        let out = JobScheduler::serial().run_catching(2, |i| {
            if i == 1 {
                std::panic::panic_any(42_i32);
            }
            i
        });
        assert_eq!(out[0], Ok(0));
        assert_eq!(
            out[1].as_ref().unwrap_err().message,
            "<non-string panic payload>"
        );
    }

    #[test]
    fn workers_actually_share_the_queue() {
        // With more jobs than workers, a 3-worker pool must still cover all
        // indices; record which thread handled each job and check coverage.
        let out = JobScheduler::new(3).run(30, |i| (i, std::thread::current().id()));
        let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..30).collect::<Vec<_>>());
    }
}
