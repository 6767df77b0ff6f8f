//! The open-loop load generator: a seeded Poisson schedule replayed by one
//! thread, with every request timed from the instant it was due.
//!
//! Timing from the due instant (not from when the request was actually
//! sent) charges a stall to every request that was due while it lasted,
//! so a slow call shows in the tail of the requests queued behind it.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use at_workloads::poisson_arrivals;

/// Due offsets, from the start of the run, of Poisson arrivals at `rate`
/// per second over `seconds`.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    poisson_arrivals(rate, seconds, seed)
        .into_iter()
        .map(Duration::from_secs_f64)
        .collect()
}

/// Due offsets of a fixed-period schedule: `period`, `2·period`, … up to
/// (excluding) `seconds`.
pub fn periodic_schedule(period: Duration, seconds: f64) -> Vec<Duration> {
    let horizon = Duration::from_secs_f64(seconds);
    (1..)
        .map(|i| period * i)
        .take_while(|&t| t < horizon)
        .collect()
}

/// Where the generator reads the time and waits.
pub trait Clock {
    /// Time since the run started.
    fn now(&self) -> Duration;
    /// Return once [`now`](Self::now) is at least `t`.
    fn wait_until(&mut self, t: Duration);
}

/// The real clock, anchored at the run's start.
pub struct WallClock {
    start: Instant,
    /// Wait by polling the clock instead of sleeping.
    spin: bool,
}

impl WallClock {
    /// A clock whose zero is now; waits sleep.
    pub fn start() -> Self {
        WallClock {
            start: Instant::now(),
            spin: false,
        }
    }

    /// A clock whose zero is now; waits poll the clock. For a thread that
    /// both generates and serves: it starts each operation when due
    /// instead of when the host wakes it, and its CPU never idles between
    /// operations, so an operation's time does not depend on how soon an
    /// idle CPU is given back.
    pub fn start_spinning() -> Self {
        WallClock {
            spin: true,
            ..WallClock::start()
        }
    }

    /// The instant a due offset stands for.
    pub fn instant(&self, offset: Duration) -> Instant {
        self.start + offset
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn wait_until(&mut self, t: Duration) {
        if self.spin {
            while self.now() < t {
                std::hint::spin_loop();
            }
        } else if let Some(rest) = t.checked_sub(self.now()) {
            std::thread::sleep(rest);
        }
    }
}

/// One operation's place on the timeline, as offsets from the run's start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// When the schedule said it should start.
    pub due: Duration,
    /// When the generator actually started it.
    pub start: Duration,
    /// When it returned.
    pub end: Duration,
}

impl Timing {
    /// Latency as the user sees it: from due to done.
    pub fn latency(&self) -> Duration {
        self.end.saturating_sub(self.due)
    }

    /// How late the generator started the operation.
    pub fn lag(&self) -> Duration {
        self.start.saturating_sub(self.due)
    }
}

/// Run `op(i)` for every due offset in order, on the calling thread,
/// starting each no earlier than it is due, and time each one.
pub fn drive<C: Clock>(
    clock: &mut C,
    due: &[Duration],
    mut op: impl FnMut(usize, &mut C),
) -> Vec<Timing> {
    let mut timings = Vec::with_capacity(due.len());
    for (i, &d) in due.iter().enumerate() {
        clock.wait_until(d);
        let start = clock.now();
        op(i, clock);
        timings.push(Timing {
            due: d,
            start,
            end: clock.now(),
        });
    }
    timings
}

/// Share of draws that repeat an earlier draw: `1 − distinct / total`.
pub fn dup_share(draws: &[usize]) -> f64 {
    if draws.is_empty() {
        return 0.0;
    }
    let distinct: HashSet<usize> = draws.iter().copied().collect();
    1.0 - distinct.len() as f64 / draws.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to: waiting jumps to the target,
    /// and each operation advances it by its service time.
    struct FakeClock {
        now: Duration,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.now
        }

        fn wait_until(&mut self, t: Duration) {
            self.now = self.now.max(t);
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn spinning_clock_waits_until_due() {
        let mut clock = WallClock::start_spinning();
        clock.wait_until(Duration::from_millis(2));
        assert!(clock.now() >= Duration::from_millis(2));
    }

    #[test]
    fn one_stalled_call_charges_every_request_queued_behind_it() {
        // Due every 10 ms, each call takes 1 ms except call 2, which
        // stalls for 45 ms: calls 3..=6 were due while it ran.
        let due: Vec<Duration> = (0..10).map(|i| ms(10 * i)).collect();
        let mut clock = FakeClock { now: ms(0) };
        let timings = drive(&mut clock, &due, |i, c| {
            c.now += if i == 2 { ms(45) } else { ms(1) };
        });
        let latency: Vec<u64> = timings
            .iter()
            .map(|t| t.latency().as_millis() as u64)
            .collect();
        // Call 2 ends at 65 ms; call 3 (due 30) starts then, ends 66 → 36;
        // call 4 (due 40) ends 67 → 27; call 5 → 18; call 6 → 9; call 7 is
        // due at 70, after the backlog drained, and pays only itself.
        assert_eq!(latency, vec![1, 1, 45, 36, 27, 18, 9, 1, 1, 1]);
        let lag: Vec<u64> = timings.iter().map(|t| t.lag().as_millis() as u64).collect();
        assert_eq!(lag, vec![0, 0, 0, 35, 26, 17, 8, 0, 0, 0]);
    }

    #[test]
    fn an_idle_generator_is_never_late() {
        let due: Vec<Duration> = (1..=5).map(|i| ms(3 * i)).collect();
        let mut clock = FakeClock { now: ms(0) };
        let timings = drive(&mut clock, &due, |_, c| c.now += ms(2));
        assert!(timings.iter().all(|t| t.lag().is_zero()));
        assert!(timings.iter().all(|t| t.latency() == ms(2)));
    }

    #[test]
    fn poisson_schedule_is_seeded_and_sorted() {
        let a = poisson_schedule(500.0, 2.0, 7);
        assert_eq!(a, poisson_schedule(500.0, 2.0, 7));
        assert_ne!(a, poisson_schedule(500.0, 2.0, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 1000 expected arrivals; a Poisson count is within ±15% here.
        assert!((850..1150).contains(&a.len()), "{}", a.len());
        assert!(a.last().is_some_and(|t| t.as_secs_f64() < 2.0));
    }

    #[test]
    fn periodic_schedule_excludes_the_horizon() {
        assert_eq!(
            periodic_schedule(ms(250), 1.0),
            vec![ms(250), ms(500), ms(750)]
        );
    }

    #[test]
    fn dup_share_counts_repeats() {
        assert_eq!(dup_share(&[1, 2, 3, 4]), 0.0);
        assert_eq!(dup_share(&[1, 1, 1, 1]), 0.75);
        assert_eq!(dup_share(&[]), 0.0);
    }
}
