//! Deterministic fault injection for supervised sweeps.
//!
//! Robustness claims that are only exercised by production incidents are
//! untestable claims. A [`FaultPlan`] is a *seeded, reproducible schedule*
//! of the three failure classes the runtime supervises:
//!
//! * **job panics** ([`FaultKind::Panic`]) — a worker crashes mid-epoch;
//! * **checkpoint corruption** ([`FaultKind::CorruptCheckpoint`]) — a saved
//!   snapshot is truncated, bit-flipped, or version-stomped on disk;
//! * **predictor poison** ([`FaultKind::PredictorNan`]) — a latency query
//!   answers NaN.
//!
//! Faults are **one-shot**: each fires at most once (a transient event, not
//! a permanent condition), tracked by an atomic flag so a retried job does
//! not re-hit the same injected crash forever. The same plan against the
//! same sweep therefore produces the same injected history on every run —
//! which is what lets tests assert the headline guarantee: a faulted sweep's
//! results are *byte-identical* to a fault-free run.

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// How [`FaultKind::CorruptCheckpoint`] damages the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Chop the file roughly in half (a torn write that bypassed the
    /// atomic-rename protocol, e.g. filesystem loss after the rename).
    Truncate,
    /// Flip one hex digit of the `lambda` record — still valid syntax, only
    /// the checksum can catch it.
    FlipBits,
    /// Stomp the version line (a file from an incompatible build).
    WrongVersion,
}

/// One injectable failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the job when it reaches `epoch`.
    Panic {
        /// Epoch (0-based) at whose start the panic fires.
        epoch: usize,
    },
    /// Corrupt the job's checkpoint file right after the first save at or
    /// past `after_epoch`.
    CorruptCheckpoint {
        /// Earliest epoch whose save gets corrupted.
        after_epoch: usize,
        /// The damage to apply.
        mode: CorruptionMode,
    },
    /// Make the job's `call`-th predictor query (0-based) return NaN.
    PredictorNan {
        /// Index of the poisoned query.
        call: usize,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic { epoch } => write!(f, "panic at epoch {epoch}"),
            FaultKind::CorruptCheckpoint { after_epoch, mode } => {
                write!(
                    f,
                    "{mode:?} checkpoint corruption after epoch {after_epoch}"
                )
            }
            FaultKind::PredictorNan { call } => write!(f, "NaN on predictor call {call}"),
        }
    }
}

/// A fault bound to one job of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Index of the job (in submission order) the fault targets.
    pub job: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// splitmix64 — the standard seeding PRNG; enough structure to scatter
/// faults over a grid without pulling a rand dependency into the runtime.
/// Public because the serving layer's chaos plans seed from it too.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A reproducible schedule of one-shot faults — the one mechanism behind
/// the runtime's [`FaultPlan`], the serving layer's chaos plans, and the
/// fleet's fault script.
///
/// Each listed fault fires at most once: a claim atomically flips its flag,
/// so exactly one caller wins it, and a retry after the fault finds a
/// healthy system. Claims scan the list in order, so faults matching the
/// same claim (same tick, same job) fire in list order — callers that want
/// insertion order to break ties simply keep the list as written. The
/// fault-kind enums live beside the code each one attacks; this type only
/// schedules them.
#[derive(Debug)]
pub struct FaultSchedule<F> {
    faults: Vec<F>,
    fired: Vec<AtomicBool>,
}

impl<F: Copy> FaultSchedule<F> {
    /// The empty schedule: nothing ever fires.
    pub fn none() -> Self {
        Self::new(Vec::new())
    }

    /// A schedule firing exactly the given faults, each at most once, in
    /// list order among faults that match the same claim.
    pub fn new(faults: Vec<F>) -> Self {
        let fired = faults.iter().map(|_| AtomicBool::new(false)).collect();
        Self { faults, fired }
    }

    /// The scheduled faults, in list order.
    pub fn faults(&self) -> &[F] {
        &self.faults
    }

    /// How many faults have fired so far.
    pub fn fired(&self) -> usize {
        self.fired
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count()
    }

    /// Claims the first unfired fault matching `pred`; at most one caller
    /// wins each fault. Allocation-free, so it can sit on a hot path.
    pub fn take(&self, pred: impl Fn(&F) -> bool) -> Option<F> {
        self.faults
            .iter()
            .zip(&self.fired)
            .find(|(fault, fired)| {
                pred(fault)
                    && fired
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
            })
            .map(|(fault, _)| *fault)
    }

    /// Claims every unfired fault matching `pred`, in list order.
    pub fn take_all(&self, pred: impl Fn(&F) -> bool) -> Vec<F> {
        std::iter::from_fn(|| self.take(&pred)).collect()
    }
}

/// A deterministic schedule of one-shot faults for one sweep run.
pub type FaultPlan = FaultSchedule<Fault>;

impl FaultSchedule<Fault> {
    /// A seeded plan over a `jobs × epochs` sweep covering all three fault
    /// classes: one mid-run panic, one checkpoint corruption followed by a
    /// panic (so the corrupted file actually gets *read*), and one early
    /// predictor NaN — each on a distinct, seed-chosen job.
    ///
    /// # Panics
    ///
    /// Panics if `jobs < 3` or `epochs < 4` — too small a sweep to place
    /// three independent faults.
    pub fn seeded(seed: u64, jobs: usize, epochs: usize) -> Self {
        assert!(jobs >= 3, "need at least 3 jobs to scatter 3 faults");
        assert!(epochs >= 4, "need at least 4 epochs to schedule a recovery");
        let mut s = seed ^ 0xd6e8_feb8_6659_fd93;
        let mut pick_job = {
            let mut taken = vec![false; jobs];
            move |s: &mut u64| loop {
                let j = (splitmix64(s) % jobs as u64) as usize;
                if !taken[j] {
                    taken[j] = true;
                    return j;
                }
            }
        };
        let mid = |s: &mut u64| 1 + (splitmix64(s) % (epochs as u64 - 2)) as usize;
        let panic_job = pick_job(&mut s);
        let panic_epoch = mid(&mut s);
        let corrupt_job = pick_job(&mut s);
        // ≥ 2 so a previous-generation checkpoint exists to fall back to.
        let corrupt_after = 2 + (splitmix64(&mut s) % (epochs as u64 - 3)) as usize;
        let modes = [
            CorruptionMode::Truncate,
            CorruptionMode::FlipBits,
            CorruptionMode::WrongVersion,
        ];
        let mode = modes[(splitmix64(&mut s) % 3) as usize];
        let nan_job = pick_job(&mut s);
        let nan_call = (splitmix64(&mut s) % 64) as usize;
        Self::new(vec![
            Fault {
                job: panic_job,
                kind: FaultKind::Panic { epoch: panic_epoch },
            },
            Fault {
                job: corrupt_job,
                kind: FaultKind::CorruptCheckpoint {
                    after_epoch: corrupt_after,
                    mode,
                },
            },
            // The corruption only matters if something re-reads the file:
            // crash the same job right after the damaged save (with
            // per-epoch checkpointing, the save at `corrupt_after` is the
            // damaged one and the next panic check sits at that epoch).
            Fault {
                job: corrupt_job,
                kind: FaultKind::Panic {
                    epoch: corrupt_after,
                },
            },
            Fault {
                job: nan_job,
                kind: FaultKind::PredictorNan { call: nan_call },
            },
        ])
    }

    /// Fires a pending panic for `job` at `epoch`, if scheduled.
    pub fn take_panic(&self, job: usize, epoch: usize) -> Option<Fault> {
        self.take(|f| f.job == job && matches!(f.kind, FaultKind::Panic { epoch: e } if e == epoch))
    }

    /// Fires a pending checkpoint corruption for `job` at a save of
    /// `epoch`, if one is scheduled at or before it.
    pub fn take_corruption(&self, job: usize, epoch: usize) -> Option<(Fault, CorruptionMode)> {
        self.take(|f| {
            f.job == job
                && matches!(f.kind, FaultKind::CorruptCheckpoint { after_epoch, .. } if epoch >= after_epoch)
        })
        .map(|f| match f.kind {
            FaultKind::CorruptCheckpoint { mode, .. } => (f, mode),
            _ => unreachable!("take predicate only admits corruption"),
        })
    }

    /// Fires a pending predictor NaN for `job` on its `call`-th query, if
    /// scheduled.
    pub fn take_predictor_nan(&self, job: usize, call: usize) -> Option<Fault> {
        self.take(|f| {
            f.job == job && matches!(f.kind, FaultKind::PredictorNan { call: c } if c == call)
        })
    }
}

/// Damages an on-disk checkpoint in place, per `mode`.
///
/// # Panics
///
/// Panics if the file cannot be read or written — an injection harness that
/// silently fails to inject would green-light broken recovery code.
pub fn apply_corruption(path: &Path, mode: CorruptionMode) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {} to corrupt it: {e}", path.display()));
    let damaged = match mode {
        CorruptionMode::Truncate => text[..text.len() / 2].to_string(),
        CorruptionMode::FlipBits => {
            let lambda = text
                .lines()
                .find(|l| l.starts_with("lambda "))
                .unwrap_or_else(|| panic!("{} has no lambda record", path.display()));
            let value = lambda.strip_prefix("lambda ").expect("prefix just matched");
            let flipped = if value.starts_with('0') { '1' } else { '0' };
            let rest = value.get(1..).unwrap_or("");
            text.replace(lambda, &format!("lambda {flipped}{rest}"))
        }
        CorruptionMode::WrongVersion => {
            let version = text.lines().next().unwrap_or_default().to_string();
            text.replacen(&version, "lightnas-checkpoint v0", 1)
        }
    };
    std::fs::write(path, damaged)
        .unwrap_or_else(|e| panic!("cannot corrupt {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tick-keyed fault, standing in for the serving layer's call faults
    /// and the adaptation and fleet tick faults.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Tick {
        at: u64,
        id: char,
    }

    fn ticks(spec: &[(u64, char)]) -> FaultSchedule<Tick> {
        FaultSchedule::new(spec.iter().map(|&(at, id)| Tick { at, id }).collect())
    }

    fn fired_at(schedule: &FaultSchedule<Tick>, at: u64) -> String {
        schedule
            .take_all(|f| f.at == at)
            .iter()
            .map(|f| f.id)
            .collect()
    }

    /// Builds a schedule from `spec`, runs `claims` in order (each a tick
    /// and the ids it must fire), and checks every fault fired once.
    fn assert_claims(spec: &[(u64, char)], claims: &[(u64, &str)]) {
        let schedule = ticks(spec);
        for &(at, want) in claims {
            assert_eq!(fired_at(&schedule, at), want, "{spec:?} at {at}");
        }
        assert_eq!(schedule.fired(), spec.len(), "{spec:?}");
    }

    #[test]
    fn schedule_claims_are_one_shot_and_keep_list_order() {
        // Same-tick faults fire in insertion order — not kind, magnitude,
        // or id order — and a claimed tick never re-fires.
        // Adaptation faults: three on tick 7, listed out of tick order.
        assert_claims(
            &[(7, 's'), (3, 'd'), (7, 'b'), (7, 'a')],
            &[(0, ""), (3, "d"), (7, "sba"), (7, ""), (3, "")],
        );
        // Fleet faults: a bad deploy listed before a same-tick burst.
        assert_claims(
            &[(96, 'x'), (96, 'c'), (40, 'p')],
            &[(0, ""), (40, "p"), (96, "xc"), (96, "")],
        );
        // The empty schedule.
        assert_claims(&[], &[(0, ""), (1, "")]);
    }

    #[test]
    fn a_single_claim_fires_only_the_first_match() {
        // Serving call faults: two faults on call 1 — a call claims one,
        // so only the first listed fires on it.
        let schedule = ticks(&[(1, 'n'), (2, 's'), (1, 'p')]);
        assert_eq!(schedule.take(|f| f.at == 0), None);
        assert_eq!(schedule.take(|f| f.at == 1).map(|f| f.id), Some('n'));
        assert_eq!(schedule.take(|f| f.at == 2).map(|f| f.id), Some('s'));
        assert_eq!(schedule.fired(), 2);
        // The runtime's job/epoch matching on the same mechanism.
        let plan = FaultPlan::new(vec![Fault {
            job: 1,
            kind: FaultKind::Panic { epoch: 3 },
        }]);
        assert!(plan.take_panic(0, 3).is_none(), "wrong job");
        assert!(plan.take_panic(1, 2).is_none(), "wrong epoch");
        assert!(plan.take_panic(1, 3).is_some());
        assert!(plan.take_panic(1, 3).is_none(), "one-shot");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn an_empty_claim_does_not_allocate() {
        let schedule: FaultSchedule<Tick> = FaultSchedule::none();
        assert_eq!(schedule.take_all(|_| true).capacity(), 0);
        let schedule = ticks(&[(5, 'a')]);
        assert_eq!(schedule.take_all(|f| f.at == 4).capacity(), 0);
    }

    #[test]
    fn corruption_fires_at_the_first_save_past_its_epoch() {
        let plan = FaultPlan::new(vec![Fault {
            job: 0,
            kind: FaultKind::CorruptCheckpoint {
                after_epoch: 4,
                mode: CorruptionMode::Truncate,
            },
        }]);
        assert!(plan.take_corruption(0, 3).is_none(), "too early");
        let (fault, mode) = plan.take_corruption(0, 6).expect("fires late");
        assert_eq!(fault.job, 0);
        assert_eq!(mode, CorruptionMode::Truncate);
        assert!(plan.take_corruption(0, 7).is_none(), "one-shot");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_cover_all_classes() {
        let a = FaultPlan::seeded(9, 9, 10);
        let b = FaultPlan::seeded(9, 9, 10);
        assert_eq!(a.faults(), b.faults());
        assert_ne!(
            a.faults(),
            FaultPlan::seeded(10, 9, 10).faults(),
            "different seed, different plan"
        );
        let has = |pred: &dyn Fn(&FaultKind) -> bool| a.faults().iter().any(|f| pred(&f.kind));
        assert!(has(&|k| matches!(k, FaultKind::Panic { .. })));
        assert!(has(&|k| matches!(k, FaultKind::CorruptCheckpoint { .. })));
        assert!(has(&|k| matches!(k, FaultKind::PredictorNan { .. })));
        // Panic/corruption/NaN land on three distinct jobs.
        let corrupt_job = a
            .faults()
            .iter()
            .find(|f| matches!(f.kind, FaultKind::CorruptCheckpoint { .. }))
            .unwrap()
            .job;
        let nan_job = a
            .faults()
            .iter()
            .find(|f| matches!(f.kind, FaultKind::PredictorNan { .. }))
            .unwrap()
            .job;
        assert_ne!(corrupt_job, nan_job);
    }

    #[test]
    fn the_empty_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.take_panic(0, 0).is_none());
        assert!(plan.take_corruption(0, 0).is_none());
        assert!(plan.take_predictor_nan(0, 0).is_none());
        assert_eq!(plan.fired(), 0);
    }
}
