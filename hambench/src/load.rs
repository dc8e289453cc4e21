//! Load generation: an open-loop paced generator whose schedule is fixed
//! before the first request, and a closed loop over a few workers.

use std::time::{Duration, Instant};

use crate::inputs::splitmix64;
use crate::stats::us;

/// How close to a due time the generator stops sleeping and starts
/// yielding: sleeps overshoot by tens of µs, which an open loop would
/// otherwise book as server latency.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// A fixed-rate schedule: request `i` is due `i × period` after start,
/// or, jittered, at a seeded point inside `[i, i + 1) × period`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    period: Duration,
    jitter_seed: Option<u64>,
}

impl Schedule {
    /// A schedule of `rate` requests per second.
    pub fn per_second(rate: f64) -> Self {
        Schedule {
            period: Duration::from_secs_f64(1.0 / rate),
            jitter_seed: None,
        }
    }

    /// The same rate, each request moved to a seeded point of its slot,
    /// so a second schedule at a multiple of this rate does not see it at
    /// one fixed phase.
    pub fn jittered(self, seed: u64) -> Self {
        Schedule {
            jitter_seed: Some(seed),
            ..self
        }
    }

    /// When request `i` is due, as an offset from the start.
    pub fn due(&self, i: usize) -> Duration {
        let slot = self.period * u32::try_from(i).expect("request index fits u32");
        match self.jitter_seed {
            None => slot,
            Some(seed) => {
                let unit = (splitmix64(seed ^ i as u64) >> 11) as f64 / (1u64 << 53) as f64;
                slot + self.period.mul_f64(unit)
            }
        }
    }

    /// How many requests fall due within `window`.
    pub fn count_within(&self, window: Duration) -> usize {
        (window.as_secs_f64() / self.period.as_secs_f64()).floor() as usize
    }
}

/// Blocks until `deadline`: sleeps while far away, then yields.
pub fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN_WINDOW {
            std::thread::sleep(left - SPIN_WINDOW);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Timing of one open-loop phase.
#[derive(Debug, Default)]
pub struct PacedTiming {
    /// Each request's due offset from the phase start.
    pub due: Vec<Duration>,
    /// Send minus due time, µs: how late the generator ran.
    pub late_us: Vec<f64>,
    /// Completion minus send time, µs: the round trip alone.
    pub service_us: Vec<f64>,
}

impl PacedTiming {
    /// The latest the generator sent any request, µs past its due time.
    pub fn late_max_us(&self) -> f64 {
        self.late_us.iter().copied().fold(0.0, f64::max)
    }
}

/// Sends `count` requests on `schedule` from one thread. `send(i)` runs
/// request `i` to completion; the due times never depend on what or
/// when it answers.
pub fn run_paced<T>(
    schedule: Schedule,
    count: usize,
    mut send: impl FnMut(usize) -> T,
) -> (Vec<T>, PacedTiming) {
    let mut results = Vec::with_capacity(count);
    let mut timing = PacedTiming::default();
    let start = Instant::now();
    for i in 0..count {
        let due = schedule.due(i);
        wait_until(start + due);
        let sent = start.elapsed();
        results.push(send(i));
        let done = start.elapsed();
        timing.due.push(due);
        timing.late_us.push(us(sent.saturating_sub(due)));
        timing.service_us.push(us(done - sent));
    }
    (results, timing)
}

/// Runs `workers` threads in a closed loop for `window`: each calls
/// `body(worker, deadline)`, which issues its next request only after the
/// previous one answered and returns when the deadline passes.
pub fn closed_loop<R: Send>(
    workers: usize,
    window: Duration,
    body: impl Fn(usize, Instant) -> R + Sync,
) -> Vec<R> {
    let deadline = Instant::now() + window;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let body = &body;
                scope.spawn(move || body(worker, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_schedule_does_not_depend_on_responses() {
        let schedule = Schedule::per_second(500.0); // 2 ms period
        let fast = run_paced(schedule, 6, |_| ()).1;
        // The first response stalls for three periods; a closed loop
        // would shift every later send, the open loop must not.
        let slow = run_paced(schedule, 6, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(6));
            }
        })
        .1;
        let expected: Vec<Duration> = (0..6).map(|i| Duration::from_millis(2) * i).collect();
        assert_eq!(fast.due, expected);
        assert_eq!(slow.due, expected);
        // The request queued behind the stall is sent late, and its
        // round trip alone excludes that wait.
        assert!(slow.late_us[1] >= 3_000.0, "{:?}", slow.late_us);
        assert!(slow.late_max_us() >= 3_000.0);
        assert!(slow.service_us[1] < 3_000.0, "{:?}", slow.service_us);

        let jittered = schedule.jittered(9);
        let (a, b) = (
            run_paced(jittered, 6, |_| ()).1,
            run_paced(jittered, 6, |i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
            .1,
        );
        assert_eq!(a.due, b.due);
        for (i, due) in a.due.iter().enumerate() {
            assert!(*due >= expected[i] && *due < expected[i] + Duration::from_millis(2));
        }
        assert_ne!(a.due, expected);
    }

    #[test]
    fn closed_loop_joins_every_worker() {
        let counts = closed_loop(2, Duration::from_millis(5), |worker, deadline| {
            let mut n = 0;
            while Instant::now() < deadline {
                n += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            (worker, n)
        });
        assert_eq!(counts.len(), 2);
        assert!(counts.iter().all(|&(_, n)| n >= 1));
    }
}
