//! Per-component circuit breakers: skip a persistently broken fan-out
//! leg instead of paying its stall or panic on every batch.
//!
//! The containment boundary ([`crate::containment`]) turns a panicking
//! component into one failed leg — but a component that fails *every*
//! request still costs its full stage-1 work (or worse, a configured
//! stall) per batch before failing. The breaker is the classic remedy:
//!
//! ```text
//!            K consecutive failures
//!   Closed ──────────────────────────▶ Open
//!     ▲                                 │ cooldown serve rounds
//!     │ probe succeeds                  ▼
//!     └────────────────────────────  HalfOpen ── probe fails ──▶ Open
//! ```
//!
//! While `Open`, [`should_attempt`](CircuitBreaker::should_attempt)
//! answers `false` at the cost of one mutex lock — the leg is skipped
//! before any stage-1 work, so a broken component costs ≈ 0 per batch.
//! The breaker is deliberately **count-based, not time-based**: cooldown
//! is measured in serve rounds, keeping the fault path clock-free (the
//! clock-discipline invariant rule applies here too) and exactly
//! reproducible under seeded fault schedules.
//!
//! Concurrency: the fan-out consults each component's breaker on the
//! serving thread, leg by leg. A service shared by several serving
//! threads (e.g. behind an `Arc`) races benignly — the worst case is one
//! extra half-open probe when two serves transition the same breaker in
//! the same round, which costs one component execution, never
//! correctness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Tuning of one [`CircuitBreaker`].
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip `Closed → Open` (the paper-side
    /// analogue of "declare the component down, serve from survivors").
    pub failure_threshold: u32,
    /// Skipped serve rounds before an `Open` breaker admits one
    /// `HalfOpen` probe.
    pub cooldown: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: 8,
        }
    }
}

impl BreakerConfig {
    fn validate(&self) {
        assert!(
            self.failure_threshold >= 1,
            "failure_threshold must be >= 1"
        );
        assert!(self.cooldown >= 1, "cooldown must be >= 1");
    }
}

/// Where one breaker currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every serve attempts the component.
    Closed,
    /// Tripped: the component is skipped until the cooldown elapses.
    Open,
    /// One probe is in flight; its outcome decides `Closed` vs `Open`.
    HalfOpen,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    /// Consecutive failures while `Closed`.
    consecutive_failures: u32,
    /// Skips remaining before `Open` admits a probe.
    cooldown_left: u32,
}

/// One component's breaker; see the module docs for the state machine.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    ///
    /// # Panics
    /// Panics when `failure_threshold` or `cooldown` is zero.
    pub fn new(config: BreakerConfig) -> Self {
        config.validate();
        CircuitBreaker {
            config,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                cooldown_left: 0,
            }),
            trips: AtomicU64::new(0),
        }
    }

    /// The breaker's tuning.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Plain scalars; take over a poisoned lock.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Current state (telemetry; the fan-out uses
    /// [`should_attempt`](Self::should_attempt) instead).
    pub fn state(&self) -> BreakerState {
        self.inner().state
    }

    /// Times this breaker tripped to `Open` (a failed half-open probe
    /// counts as a new trip).
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Should the caller attempt the component this round? `false` means
    /// *skip the leg* — either the breaker is `Open` and cooling down, or
    /// another serve's half-open probe is already in flight. A `true`
    /// answer obligates the caller to report the attempt's outcome via
    /// [`record_success`](Self::record_success) /
    /// [`record_failure`](Self::record_failure).
    pub fn should_attempt(&self) -> bool {
        let mut inner = self.inner();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if inner.cooldown_left > 1 {
                    inner.cooldown_left -= 1;
                    false
                } else {
                    // This call *is* the probe.
                    inner.state = BreakerState::HalfOpen;
                    true
                }
            }
            BreakerState::HalfOpen => false,
        }
    }

    /// The attempted leg completed: close the breaker.
    pub fn record_success(&self) {
        let mut inner = self.inner();
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
    }

    /// The attempted leg failed (contained panic). Trips the breaker
    /// after `failure_threshold` consecutive failures; a failed half-open
    /// probe re-opens immediately.
    pub fn record_failure(&self) {
        let mut inner = self.inner();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    self.trip(&mut inner);
                }
            }
            BreakerState::HalfOpen => self.trip(&mut inner),
            // A failure reported while Open (e.g. a racing serve that
            // passed should_attempt just before another's failure
            // tripped the breaker) changes nothing.
            BreakerState::Open => {}
        }
    }

    fn trip(&self, inner: &mut Inner) {
        inner.state = BreakerState::Open;
        inner.consecutive_failures = 0;
        inner.cooldown_left = self.config.cooldown;
        self.trips.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown: u32) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown,
        })
    }

    #[test]
    fn stays_closed_below_the_threshold() {
        let b = breaker(3, 4);
        for _ in 0..2 {
            assert!(b.should_attempt());
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
        // A success resets the consecutive count.
        b.record_success();
        for _ in 0..2 {
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn trips_after_k_consecutive_failures_then_skips_for_the_cooldown() {
        let b = breaker(3, 4);
        for _ in 0..3 {
            assert!(b.should_attempt());
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // cooldown=4: three skipped rounds, then the fourth is the probe.
        for _ in 0..3 {
            assert!(!b.should_attempt());
        }
        assert!(b.should_attempt(), "cooldown elapsed: admit one probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn successful_probe_closes_failed_probe_reopens() {
        let b = breaker(1, 1);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.should_attempt(), "cooldown=1: next round probes");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);

        b.record_failure();
        assert!(b.should_attempt());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 3, "failed probe counts as a fresh trip");
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let b = breaker(1, 1);
        b.record_failure();
        assert!(b.should_attempt());
        assert!(
            !b.should_attempt(),
            "second caller must not stampede the probe"
        );
    }

    #[test]
    #[should_panic(expected = "failure_threshold")]
    fn zero_threshold_is_a_construction_bug() {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 0,
            cooldown: 1,
        });
    }
}
