//! The open-loop load generator: requests are due on a schedule fixed
//! before the run, whatever the server does. A few threads take the
//! next due request in turn, so a stalled server delays later requests
//! and that delay is measured, because each request's latency counts
//! from when it was due, not from when a thread got round to it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request of the schedule.
#[derive(Debug, Clone)]
pub struct Due<T> {
    /// Offset from the start of the run.
    pub at: Duration,
    pub what: T,
}

/// One request as sent.
#[derive(Debug)]
pub struct Sent<R> {
    /// Index into the schedule.
    pub index: usize,
    pub due: Instant,
    pub started: Instant,
    pub ended: Instant,
    pub result: R,
}

impl<R> Sent<R> {
    /// What a user waited: from the due instant to the last byte.
    pub fn latency(&self) -> Duration {
        self.ended.saturating_duration_since(self.due)
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> Duration {
        self.started.saturating_duration_since(self.due)
    }
}

/// Sends `schedule` (ascending by `at`) from `threads` threads and
/// returns every request in schedule order.
pub fn run_open_loop<T: Sync, R: Send>(
    schedule: &[Due<T>],
    threads: usize,
    send: impl Fn(&T) -> R + Sync,
) -> Vec<Sent<R>> {
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let mut sent: Vec<Sent<R>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = schedule.get(index) else {
                            break;
                        };
                        let due = origin + item.at;
                        let wait = due.saturating_duration_since(Instant::now());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        let started = Instant::now();
                        let result = send(&item.what);
                        mine.push(Sent {
                            index,
                            due,
                            started,
                            ended: Instant::now(),
                            result,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a generator thread panicked"))
            .collect()
    });
    sent.sort_by_key(|s| s.index);
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_instant_and_lag_is_reported() {
        // One thread; the first request stalls for 60 ms, so the second
        // (due at 10 ms) cannot start before 60 ms: it is sent 50 ms
        // late and that wait is part of its latency.
        let ms = Duration::from_millis;
        let schedule = vec![
            Due {
                at: ms(0),
                what: ms(60),
            },
            Due {
                at: ms(10),
                what: ms(0),
            },
            Due {
                at: ms(150),
                what: ms(0),
            },
        ];
        let sent = run_open_loop(&schedule, 1, |stall| std::thread::sleep(*stall));
        assert_eq!(sent.len(), 3);
        assert!(
            sent[0].lag() < ms(20),
            "first request is on time: {:?}",
            sent[0].lag()
        );
        assert!(
            sent[1].lag() >= ms(45),
            "second request is late: {:?}",
            sent[1].lag()
        );
        assert!(sent[1].latency() >= ms(45), "its latency includes the lag");
        assert!(sent[1].ended.duration_since(sent[1].started) < ms(20));
        // The generator does not run ahead of the schedule either.
        assert!(sent[2].started >= sent[2].due);
        assert!(sent[2].lag() < ms(20));
    }

    #[test]
    fn threads_share_one_schedule() {
        let schedule: Vec<Due<usize>> = (0..40)
            .map(|i| Due {
                at: Duration::from_millis(i as u64),
                what: i,
            })
            .collect();
        let sent = run_open_loop(&schedule, 2, |&i| i * 2);
        assert_eq!(sent.len(), 40);
        for (i, s) in sent.iter().enumerate() {
            assert_eq!((s.index, s.result), (i, i * 2));
        }
    }
}
