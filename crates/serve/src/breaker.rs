//! The circuit breaker: stop hammering a faulting primary, serve from the
//! fallback, and probe for recovery on a deterministic schedule.
//!
//! Classic three-state machine (Closed → Open → HalfOpen) with two twists
//! that keep the serving layer reproducible:
//!
//! * **No timers.** The Open → HalfOpen transition happens *lazily*, inside
//!   the next [`try_acquire`](CircuitBreaker::try_acquire) or
//!   [`state`](CircuitBreaker::state) call whose `now` is past the cool-down
//!   — time is data ([`Clock`](crate::Clock)), not a background thread.
//! * **Audited transitions.** Every state change is recorded with its
//!   timestamp and reason and drained via
//!   [`take_transitions`](CircuitBreaker::take_transitions), so telemetry
//!   shows the breaker's life story in order, byte-identically across
//!   same-seed runs.

use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Where the breaker is in its trip/probe/recover cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: every request may use the primary.
    #[default]
    Closed,
    /// Tripped: the primary is off-limits until the cool-down elapses.
    Open,
    /// Probing: one trial request at a time may touch the primary.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        })
    }
}

/// Trip and recovery thresholds.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive primary failures that trip Closed → Open.
    pub trip_after: usize,
    /// How long Open lasts before the next acquire probes (HalfOpen).
    pub open_for: Duration,
    /// Consecutive successful trials that close a HalfOpen breaker.
    pub trial_successes: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            trip_after: 3,
            open_for: Duration::from_millis(50),
            trial_successes: 2,
        }
    }
}

/// One audited state change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Service-clock time of the change.
    pub at: Duration,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Why ("tripped", "probing", "recovered", "probe_failed").
    pub reason: &'static str,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: usize,
    opened_at: Duration,
    trial_in_flight: bool,
    trial_successes: usize,
    transitions: Vec<Transition>,
}

/// The breaker itself. All methods take `now` explicitly — the caller owns
/// time — and are cheap enough to call per request.
///
/// Lock discipline: one non-reentrant mutex around the whole state, every
/// method acquires and releases it exactly once and never calls user code
/// under it, so the breaker cannot deadlock (a property the proptest suite
/// hammers on).
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Duration::ZERO,
                trial_in_flight: false,
                trial_successes: 0,
                transitions: Vec::new(),
            }),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock leaves plain-old-data state; every
        // reachable state is valid, so poisoning is recoverable by design.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn transition(inner: &mut Inner, at: Duration, to: BreakerState, reason: &'static str) {
        let from = inner.state;
        inner.state = to;
        inner.transitions.push(Transition {
            at,
            from,
            to,
            reason,
        });
    }

    /// Applies the lazy Open → HalfOpen move if the cool-down has elapsed.
    fn settle(&self, inner: &mut Inner, now: Duration) {
        if inner.state == BreakerState::Open && now >= inner.opened_at + self.config.open_for {
            Self::transition(inner, now, BreakerState::HalfOpen, "probing");
            inner.trial_in_flight = false;
            inner.trial_successes = 0;
        }
    }

    /// The state as of `now` (performing any due lazy transition).
    pub fn state(&self, now: Duration) -> BreakerState {
        let mut inner = self.lock();
        self.settle(&mut inner, now);
        inner.state
    }

    /// May the caller send work to the primary right now?
    ///
    /// * Closed — always yes.
    /// * Open — no, until the cool-down elapses (then the breaker moves to
    ///   HalfOpen and this very call is granted as the first trial).
    /// * HalfOpen — yes for exactly one in-flight trial at a time.
    pub fn try_acquire(&self, now: Duration) -> bool {
        let mut inner = self.lock();
        self.settle(&mut inner, now);
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if inner.trial_in_flight {
                    false
                } else {
                    inner.trial_in_flight = true;
                    true
                }
            }
        }
    }

    /// Reports a primary success for work acquired at `now`.
    pub fn record_success(&self, now: Duration) {
        let mut inner = self.lock();
        self.settle(&mut inner, now);
        match inner.state {
            BreakerState::Closed => inner.consecutive_failures = 0,
            // A success landing while Open is a leftover from before the
            // trip; it carries no information about the primary *now*.
            BreakerState::Open => {}
            BreakerState::HalfOpen => {
                inner.trial_in_flight = false;
                inner.trial_successes += 1;
                if inner.trial_successes >= self.config.trial_successes {
                    Self::transition(&mut inner, now, BreakerState::Closed, "recovered");
                    inner.consecutive_failures = 0;
                    inner.trial_successes = 0;
                }
            }
        }
    }

    /// Reports a primary failure for work acquired at `now`.
    pub fn record_failure(&self, now: Duration) {
        let mut inner = self.lock();
        self.settle(&mut inner, now);
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.trip_after {
                    Self::transition(&mut inner, now, BreakerState::Open, "tripped");
                    inner.opened_at = now;
                }
            }
            BreakerState::Open => {}
            BreakerState::HalfOpen => {
                Self::transition(&mut inner, now, BreakerState::Open, "probe_failed");
                inner.opened_at = now;
                inner.trial_in_flight = false;
                inner.trial_successes = 0;
            }
        }
    }

    /// Force-opens the breaker with an audited `reason`, regardless of the
    /// failure streak — the rollback path: when a freshly promoted model
    /// regresses, the adaptation layer reinstates the previous generation
    /// *and* trips the breaker so traffic rides the LUT fallback for one
    /// cool-down while the restored model warms back up. No-op when already
    /// Open (the existing cool-down keeps its clock).
    pub fn trip(&self, now: Duration, reason: &'static str) {
        let mut inner = self.lock();
        self.settle(&mut inner, now);
        if inner.state != BreakerState::Open {
            Self::transition(&mut inner, now, BreakerState::Open, reason);
            inner.opened_at = now;
            inner.trial_in_flight = false;
            inner.trial_successes = 0;
            inner.consecutive_failures = 0;
        }
    }

    /// Drains the audited transitions accumulated since the last call,
    /// oldest first.
    pub fn take_transitions(&self) -> Vec<Transition> {
        std::mem::take(&mut self.lock().transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn tripped(b: &CircuitBreaker, at: Duration) {
        for _ in 0..b.config().trip_after {
            b.record_failure(at);
        }
        assert_eq!(b.state(at), BreakerState::Open);
    }

    #[test]
    fn consecutive_failures_trip_interleaved_successes_do_not() {
        let b = CircuitBreaker::new(BreakerConfig::default());
        for _ in 0..10 {
            b.record_failure(ms(0));
            b.record_success(ms(0));
        }
        assert_eq!(
            b.state(ms(0)),
            BreakerState::Closed,
            "streak keeps resetting"
        );
        tripped(&b, ms(1));
        assert!(!b.try_acquire(ms(1)), "open means no primary");
    }

    #[test]
    fn cooldown_grants_exactly_one_trial_then_recovery_closes() {
        let cfg = BreakerConfig::default();
        let open_for = cfg.open_for;
        let need = cfg.trial_successes;
        let b = CircuitBreaker::new(cfg);
        tripped(&b, ms(0));
        assert!(!b.try_acquire(open_for - ms(1)), "still cooling down");
        assert!(b.try_acquire(open_for), "first probe granted");
        assert!(!b.try_acquire(open_for), "one trial in flight at a time");
        for k in 0..need {
            b.record_success(open_for + ms(k as u64));
            if k + 1 < need {
                assert!(b.try_acquire(open_for + ms(k as u64)), "next trial");
            }
        }
        assert_eq!(b.state(open_for + ms(need as u64)), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_the_cooldown() {
        let cfg = BreakerConfig::default();
        let open_for = cfg.open_for;
        let b = CircuitBreaker::new(cfg);
        tripped(&b, ms(0));
        assert!(b.try_acquire(open_for));
        b.record_failure(open_for);
        assert_eq!(b.state(open_for), BreakerState::Open);
        assert!(!b.try_acquire(open_for + open_for - ms(1)), "new cool-down");
        assert!(b.try_acquire(open_for + open_for), "re-probes again");
    }

    #[test]
    fn forced_trip_is_audited_and_cools_down_normally() {
        let cfg = BreakerConfig::default();
        let open_for = cfg.open_for;
        let b = CircuitBreaker::new(cfg);
        b.trip(ms(3), "rolled_back");
        assert_eq!(b.state(ms(3)), BreakerState::Open);
        assert!(!b.try_acquire(ms(3) + open_for - ms(1)));
        // Re-tripping while Open keeps the original cool-down clock.
        b.trip(ms(5), "rolled_back");
        assert!(b.try_acquire(ms(3) + open_for), "original cool-down held");
        let reasons: Vec<&str> = b.take_transitions().iter().map(|t| t.reason).collect();
        assert_eq!(reasons, ["rolled_back", "probing"]);
    }

    #[test]
    fn transitions_are_audited_in_order() {
        let cfg = BreakerConfig::default();
        let open_for = cfg.open_for;
        let need = cfg.trial_successes;
        let b = CircuitBreaker::new(cfg);
        tripped(&b, ms(2));
        assert!(b.try_acquire(open_for + ms(2)));
        for _ in 0..need {
            b.record_success(open_for + ms(3));
            b.try_acquire(open_for + ms(3));
        }
        let reasons: Vec<&str> = b.take_transitions().iter().map(|t| t.reason).collect();
        assert_eq!(reasons, ["tripped", "probing", "recovered"]);
        assert!(b.take_transitions().is_empty(), "drained");
    }
}
