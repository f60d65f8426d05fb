//! An absolute-deadline schedule for open-loop load.
//!
//! Operation `i` is due at `start + i / rate`, whatever happened to the
//! operations before it: a stall makes the generator run the backlog as fast
//! as it can, and every backlogged operation is still timed from the instant
//! it was *due*, so the wait a stall imposes on later operations is counted
//! (the library's `c5_common::pacing::Pacer` deliberately resets after a
//! gap, which is right for a simulated wire and wrong for a load generator).

use std::time::{Duration, Instant};

/// Sleeping for less than this is not worth a syscall: the timer slack alone
/// is about 50 µs, so the generator yields instead and runs the next
/// operation a few microseconds late at worst.
const MIN_SLEEP: Duration = Duration::from_micros(20);

/// Blocks until `due_ns` nanoseconds after `start`; returns at once when
/// that is already past.
pub fn wait_until(start: Instant, due_ns: u64) {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let gap = Duration::from_nanos(due_ns - now);
        if gap >= MIN_SLEEP {
            std::thread::sleep(gap);
        } else {
            std::thread::yield_now();
        }
    }
}

/// A fixed-rate schedule anchored at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period_ns: f64,
}

impl Schedule {
    /// A schedule of `per_second` operations per second starting at `start`.
    pub fn new(start: Instant, per_second: f64) -> Self {
        assert!(per_second > 0.0, "rate must be positive");
        Self {
            start,
            period_ns: 1e9 / per_second,
        }
    }

    /// Nanoseconds after `start` at which operation `index` is due. Computed
    /// from the index, never accumulated, so the schedule cannot drift.
    pub fn due_ns(&self, index: u64) -> u64 {
        (index as f64 * self.period_ns) as u64
    }

    /// How many operations fall due within `window`.
    pub fn ops_in(&self, window: Duration) -> u64 {
        (window.as_nanos() as f64 / self.period_ns) as u64
    }

    /// Nanoseconds since `start`.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Blocks until operation `index` is due and returns its due time in
    /// nanoseconds after `start`. Returns at once when it is already due.
    pub fn wait_for(&self, index: u64) -> u64 {
        let due = self.due_ns(index);
        wait_until(self.start, due);
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_come_from_the_index_and_do_not_drift() {
        let schedule = Schedule::new(Instant::now(), 40_000.0);
        assert_eq!(schedule.due_ns(0), 0);
        assert_eq!(schedule.due_ns(1), 25_000);
        assert_eq!(schedule.due_ns(40_000), 1_000_000_000);
        // Ten minutes in, the millionth-scale index is still exact.
        assert_eq!(schedule.due_ns(24_000_000), 600_000_000_000);
        assert_eq!(schedule.ops_in(Duration::from_secs(10)), 400_000);
        // A rate with a non-integral period must not accumulate error either.
        let odd = Schedule::new(Instant::now(), 30_000.0);
        let hour = odd.due_ns(30_000 * 3_600);
        assert!(hour.abs_diff(3_600_000_000_000) <= 1, "drifted to {hour}");
    }

    #[test]
    fn a_stall_does_not_move_later_deadlines() {
        let schedule = Schedule::new(Instant::now(), 1_000.0);
        // Stall for 20 periods, then ask for operations 0..=20: every one is
        // already due, so none of them sleeps and the backlog runs at once.
        std::thread::sleep(Duration::from_millis(21));
        let before = Instant::now();
        for index in 0..=20 {
            assert_eq!(schedule.wait_for(index), index * 1_000_000);
        }
        assert!(before.elapsed() < Duration::from_millis(5));
        // The first operation still in the future is waited for, to its own
        // deadline and not to "one period after the stall ended".
        let due = schedule.wait_for(40);
        assert_eq!(due, 40_000_000);
        let now = schedule.now_ns();
        assert!(now >= due, "returned {} ns early", due - now);
    }
}
