//! The open-loop generator: calls fall due on a fixed schedule regardless
//! of how the system is doing, each is timed from when it was *due* (so a
//! stall is charged to every call it delays), and the generator's own
//! lateness is reported.

use std::time::{Duration, Instant};

/// How long before a due time the generator stops sleeping and spins:
/// `thread::sleep` overshoots by tens of microseconds on this box, which
/// would otherwise be charged to the system under test.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(100);

/// A round whose generator ran later than this share of the gap (at the
/// tail) did not offer the stated rate and is marked invalid.
pub const MAX_LATE_SHARE: f64 = 0.10;

/// A fixed-rate schedule: call `i` is due at `start + i * gap`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub gap: Duration,
}

impl Schedule {
    pub fn due(&self, index: u64) -> Instant {
        self.start + self.gap.mul_f64(index as f64)
    }

    /// How late the generator is for a call due at `due`, observed at `now`
    /// (zero while the due time is still ahead).
    pub fn lateness(now: Instant, due: Instant) -> Duration {
        now.saturating_duration_since(due)
    }

    /// Block until call `index` is due — sleep to [`SPIN_BEFORE_DUE`]
    /// short of it, then spin — and return when it was due, how late the
    /// generator released it, and how long the generator spun (CPU the
    /// harness burnt, not the system under test). A call whose due time
    /// has already passed when the generator gets to it is released at
    /// once: the schedule never skips or re-bases, so a backlog drains at
    /// full speed, every call in it carries the wait it inherited (its
    /// latency runs from `due`), and the generator itself is not late.
    pub fn wait(&self, index: u64) -> Release {
        let due = self.due(index);
        let entered = Instant::now();
        let Some(ahead) = due.checked_duration_since(entered) else {
            return Release {
                due,
                late: Duration::ZERO,
                spun: Duration::ZERO,
            };
        };
        if ahead > SPIN_BEFORE_DUE {
            std::thread::sleep(ahead - SPIN_BEFORE_DUE);
        }
        let spin_from = Instant::now();
        let mut now = spin_from;
        while now < due {
            std::hint::spin_loop();
            now = Instant::now();
        }
        Release {
            due,
            late: Self::lateness(now, due),
            spun: now - spin_from,
        }
    }
}

/// One call released by the generator.
#[derive(Debug, Clone, Copy)]
pub struct Release {
    pub due: Instant,
    /// How long after `due` the generator let the call go, when it was
    /// waiting for it (oversleeping, losing the CPU); zero when the call
    /// was already overdue because earlier calls ran long.
    pub late: Duration,
    pub spun: Duration,
}

/// Whether a round's generator kept its schedule: the tail lateness must
/// stay within [`MAX_LATE_SHARE`] of the gap.
pub fn round_is_valid(late_tail: Duration, gap: Duration) -> bool {
    late_tail.as_secs_f64() <= MAX_LATE_SHARE * gap.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_schedule_not_the_completions() {
        let s = Schedule {
            start: Instant::now(),
            gap: Duration::from_millis(2),
        };
        assert_eq!(s.due(0), s.start);
        assert_eq!(s.due(5) - s.start, Duration::from_millis(10));
        // 500 calls/s: call 1000 is due exactly two seconds in, whatever
        // the first 999 took.
        assert_eq!(s.due(1000) - s.start, Duration::from_secs(2));
    }

    #[test]
    fn lateness_is_zero_before_due_and_the_overrun_after() {
        let due = Instant::now() + Duration::from_millis(50);
        assert_eq!(
            Schedule::lateness(due - Duration::from_millis(1), due),
            Duration::ZERO
        );
        assert_eq!(
            Schedule::lateness(due + Duration::from_micros(300), due),
            Duration::from_micros(300)
        );
    }

    #[test]
    fn a_backlogged_call_is_released_at_once_and_carries_its_wait() {
        // The schedule started 10 ms ago with a 1 ms gap: call 3 was due
        // 7 ms ago. `wait` must not sleep.
        let s = Schedule {
            start: Instant::now() - Duration::from_millis(10),
            gap: Duration::from_millis(1),
        };
        let before = Instant::now();
        let r = s.wait(3);
        assert!(
            before.elapsed() < Duration::from_millis(5),
            "no sleep when behind"
        );
        assert_eq!(r.due, s.start + Duration::from_millis(3));
        // The 7 ms are the system's backlog, not the generator's fault...
        assert_eq!((r.late, r.spun), (Duration::ZERO, Duration::ZERO));
        // ...and a latency timed from `due` includes them.
        assert!(Instant::now() - r.due >= Duration::from_millis(7));
    }

    #[test]
    fn wait_releases_a_future_call_on_time() {
        let s = Schedule {
            start: Instant::now(),
            gap: Duration::from_millis(3),
        };
        let r = s.wait(1);
        assert!(Instant::now() >= r.due, "never released early");
        assert!(
            r.late < Duration::from_millis(2),
            "spun up to the due time: {:?}",
            r.late
        );
        assert!(r.spun <= Duration::from_millis(3));
    }

    #[test]
    fn rounds_with_a_late_generator_are_invalid() {
        let gap = Duration::from_millis(2);
        assert!(round_is_valid(Duration::from_micros(200), gap));
        assert!(!round_is_valid(Duration::from_micros(201), gap));
    }
}
