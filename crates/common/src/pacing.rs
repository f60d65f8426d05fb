//! Bounded polling.
//!
//! Waiting for a condition (a replica exposing a prefix) with a fixed
//! iteration count times a fixed sleep encodes a hidden assumption about how
//! fast the machine is. [`poll_until`] polls until the condition holds or an
//! explicit deadline passes, so the only tunable is the worst case a caller is
//! willing to wait.

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
}
