//! Open-loop load: requests are sent on a seeded Poisson schedule whether
//! or not earlier ones have completed, and each request's latency counts
//! from the moment it was due, so a stall also charges the requests that
//! queued behind it (including those the sender itself sent late).

use crate::rng::SplitMix64;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Due times (offsets from the phase start) of a Poisson arrival process
/// at `rate` requests per second over `window`.
#[must_use]
pub fn poisson_schedule(rate: f64, window: Duration, rng: &mut SplitMix64) -> Vec<Duration> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= window.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Clone, Default)]
pub struct OpenRun {
    /// Per request sent: completion minus due time, ms.
    pub latency_ms: Vec<f64>,
    /// Per request sent: send time minus due time, ms.
    pub lag_ms: Vec<f64>,
    /// Requests whose reply was wrong or a rejection.
    pub failed: usize,
    /// Requests on the schedule that were never sent because the phase
    /// was cut short.
    pub unsent: usize,
}

/// Runs one open-loop phase: a sender thread calls `send(i)` for every
/// request at its due time, while the calling thread takes completions in
/// order with `recv(i)`, which returns whether reply `i` was correct.
/// Replies must arrive in send order, as on one pipelined connection. A
/// reply later than `cut_ms` after its due time cuts the phase short: the
/// sender stops and the replies it still owes are collected.
pub fn drive(
    due: &[Duration],
    cut_ms: f64,
    send: impl FnMut(usize) + Send,
    mut recv: impl FnMut(usize) -> bool,
) -> OpenRun {
    let stop = AtomicBool::new(false);
    let sent = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let mut run = OpenRun::default();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut send = send;
            let mut lag = Vec::with_capacity(due.len());
            for (i, d) in due.iter().enumerate() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let at = start + *d;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lag.push(ms(Instant::now().saturating_duration_since(at)));
                send(i);
                sent.store(i + 1, Ordering::Release);
            }
            lag
        });
        for (i, d) in due.iter().enumerate() {
            if stop.load(Ordering::Acquire) {
                // Only `recv` sets the flag; once the sender has settled,
                // collect exactly the replies it still owes.
                while !sender.is_finished() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                if i >= sent.load(Ordering::Acquire) {
                    break;
                }
            }
            // `recv` blocks until reply `i` arrives; its latency counts
            // from the due time, not from the actual send.
            let ok = recv(i);
            let latency = ms(Instant::now().saturating_duration_since(start + *d));
            if latency > cut_ms {
                stop.store(true, Ordering::Release);
            }
            run.latency_ms.push(latency);
            run.failed += usize::from(!ok);
        }
        run.lag_ms = sender.join().expect("sender thread does not panic");
    });
    run.unsent = due.len() - run.lag_ms.len();
    run
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn schedule_is_seeded_and_matches_rate() {
        let a = poisson_schedule(1000.0, Duration::from_secs(2), &mut SplitMix64::new(3));
        let b = poisson_schedule(1000.0, Duration::from_secs(2), &mut SplitMix64::new(3));
        assert_eq!(a, b);
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stalled_server_inflates_the_requests_behind_it() {
        // Ten requests due 5 ms apart against an instant server that
        // stalls 60 ms on request 2. Requests 3.. were due during the
        // stall; their latency must include the wait, not just their own
        // (zero) service time.
        let due: Vec<Duration> = (0..10).map(|i| Duration::from_millis(5 * i)).collect();
        let (tx, rx) = mpsc::channel::<usize>();
        let (done_tx, done_rx) = mpsc::channel::<usize>();
        let server = std::thread::spawn(move || {
            for i in rx {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                done_tx.send(i).unwrap();
            }
        });
        let run = drive(
            &due,
            1e9,
            |i| tx.send(i).unwrap(),
            |i| done_rx.recv().unwrap() == i,
        );
        drop(tx);
        server.join().unwrap();
        assert_eq!(run.latency_ms.len(), 10);
        assert!(run.latency_ms[0] < 30.0);
        // Request 3 was due at 15 ms, the stall ends near 70 ms.
        assert!(run.latency_ms[3] >= 50.0, "{:?}", run.latency_ms);
        assert!(run.latency_ms[9] >= 20.0, "{:?}", run.latency_ms);
        assert_eq!(run.failed, 0);
    }

    #[test]
    fn late_sender_still_counts_from_due_time() {
        // The sender blocks 50 ms inside send(1) (a full socket buffer),
        // so requests 2.. go out late; the server answers instantly, yet
        // their latency counts from when they were due.
        let due: Vec<Duration> = (0..6).map(|i| Duration::from_millis(2 * i)).collect();
        let (tx, rx) = mpsc::channel::<usize>();
        let run = drive(
            &due,
            1e9,
            |i| {
                if i == 1 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                tx.send(i).unwrap();
            },
            |i| rx.recv().unwrap() == i,
        );
        assert!(run.lag_ms[2] >= 40.0, "{:?}", run.lag_ms);
        assert!(run.latency_ms[2] >= 40.0, "{:?}", run.latency_ms);
    }

    #[test]
    fn late_reply_cuts_the_phase() {
        // Request 3's reply arrives 80 ms late against a 40 ms cut: the
        // sender stops, every request it did send is still collected, and
        // a wrong reply counts as a failure.
        let due: Vec<Duration> = (0..1000).map(Duration::from_millis).collect();
        let (tx, rx) = mpsc::channel::<usize>();
        let run = drive(
            &due,
            40.0,
            |i| tx.send(i).unwrap(),
            |i| {
                assert_eq!(rx.recv().unwrap(), i);
                if i == 3 {
                    std::thread::sleep(Duration::from_millis(80));
                }
                i != 5
            },
        );
        assert_eq!(run.failed, 1);
        assert!(run.unsent > 800, "sender kept going: {}", run.unsent);
        assert_eq!(run.latency_ms.len(), run.lag_ms.len());
    }
}
