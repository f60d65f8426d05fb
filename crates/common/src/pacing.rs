//! Deadline-based pacing and bounded polling.
//!
//! Two recurring timing patterns in this workspace used to be written with
//! raw `thread::sleep` calls, and both misbehave under heavy load:
//!
//! * **Fixed-interval pacing** (a sampler taking a view every 300µs):
//!   `sleep(interval)` in a loop drifts by the oversleep of every
//!   iteration, so on a loaded CI host the intended rate silently degrades. [`Pacer`] keeps an absolute
//!   deadline and advances it by `interval` per tick, so oversleeping one
//!   tick does not slow down the ticks after it.
//! * **Waiting for a condition** (a test waiting for a replica to expose a
//!   prefix): a fixed iteration count times a fixed sleep encodes a hidden
//!   assumption about how fast the machine is. [`poll_until`] polls until the
//!   condition holds or an explicit deadline passes, so the only tunable is
//!   the worst case a test is willing to wait.

use std::time::{Duration, Instant};

/// How often [`poll_until`] re-checks its condition.
pub const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Polls `cond` every [`POLL_INTERVAL`] until it returns true or `timeout`
/// elapses. Returns whether the condition held (the condition is checked one
/// final time at the deadline, so a condition that becomes true during the
/// last sleep is not missed).
pub fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return cond();
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// A fixed-interval pacer with deadline arithmetic.
///
/// Each [`wait`](Pacer::wait) sleeps until the next deadline and then advances
/// the deadline by the interval *from the deadline, not from wake-up time*:
/// if the thread oversleeps within one interval, the next tick comes sooner,
/// so the long-run rate stays one tick per interval. Falling more than one
/// interval behind (an idle gap, not an oversleep) resets the schedule to a
/// full interval from now — no burst through missed deadlines, and every
/// tick still costs at least close to one interval.
#[derive(Debug)]
pub struct Pacer {
    interval: Duration,
    next: Option<Instant>,
}

impl Pacer {
    /// Creates a pacer ticking every `interval`. The first [`wait`](Pacer::wait)
    /// sleeps one full interval.
    pub fn new(interval: Duration) -> Self {
        Self {
            interval,
            next: None,
        }
    }

    /// The pacing interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Sleeps until the next deadline (compensating for past oversleep) and
    /// schedules the one after it.
    pub fn wait(&mut self) {
        let now = Instant::now();
        let target = match self.next {
            // More than one interval behind schedule (an idle gap, not an
            // oversleep): reset to a fresh full interval rather than burst
            // through missed deadlines — a tick after a quiet period still
            // pays the full interval, like the first tick ever does.
            Some(t) if now.saturating_duration_since(t) > self.interval => now + self.interval,
            // Within one interval of the schedule: keep the deadline, so an
            // oversleep shortens the waits after it instead of accumulating.
            Some(t) => t,
            None => now + self.interval,
        };
        if let Some(gap) = target.checked_duration_since(now) {
            if !gap.is_zero() {
                std::thread::sleep(gap);
            }
        }
        self.next = Some(target + self.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn poll_until_returns_when_condition_holds() {
        let n = AtomicU64::new(0);
        let ok = poll_until(Duration::from_secs(5), || {
            n.fetch_add(1, Ordering::Relaxed) >= 3
        });
        assert!(ok);
        assert!(n.load(Ordering::Relaxed) >= 4);
    }

    #[test]
    fn poll_until_times_out_on_a_false_condition() {
        let start = Instant::now();
        assert!(!poll_until(Duration::from_millis(5), || false));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn poll_until_checks_once_even_with_zero_timeout() {
        assert!(poll_until(Duration::ZERO, || true));
    }

    #[test]
    fn pacer_compensates_for_oversleep_within_an_interval() {
        // Tick at 20ms but burn 8ms between ticks: the second wait keeps the
        // original deadline, so two ticks complete near the 40ms schedule
        // rather than near 40ms + 8ms.
        let mut pacer = Pacer::new(Duration::from_millis(20));
        let start = Instant::now();
        pacer.wait();
        std::thread::sleep(Duration::from_millis(8)); // oversleep, < interval
        pacer.wait();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(38), "got {elapsed:?}");
        assert!(
            elapsed < Duration::from_millis(47),
            "the stall must be absorbed by a shortened wait, got {elapsed:?}"
        );
    }

    #[test]
    fn pacer_imposes_a_full_interval_after_an_idle_gap() {
        // Miss many deadlines, then tick: no burst through the backlog, and
        // the tick still pays (close to) one full interval.
        let mut pacer = Pacer::new(Duration::from_millis(5));
        pacer.wait();
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        pacer.wait();
        assert!(start.elapsed() >= Duration::from_millis(4));
    }
}
