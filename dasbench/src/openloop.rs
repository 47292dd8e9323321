//! Open-loop load accounting: the seeded arrival schedule and the
//! due-time latency rules of the served workload.
//!
//! Every job is timed from when it was *due*, not from when the generator
//! got around to sending it, so a stall anywhere (server, network, or the
//! generator itself) inflates the latency of every job queued behind it.
//! A refused or failed job has no result: it counts as infinitely late,
//! i.e. as missing any latency limit.

use crate::stats::{self, SplitMix64};

/// `n` arrivals of a Poisson process of `rate` jobs/s, conditioned on
/// exactly `n` arrivals in `[0, n / rate)`: sorted uniform times, in ms.
/// Conditioning fixes the offered load of every run at exactly `rate`.
pub fn poisson_schedule(rng: &mut SplitMix64, n: usize, rate: f64) -> Vec<f64> {
    let span_ms = n as f64 / rate * 1000.0;
    let mut due: Vec<f64> = (0..n).map(|_| rng.next_f64() * span_ms).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// What happened to one scheduled job, in ms on the schedule's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Sent at `sent`; its result frame arrived at `result`.
    Done { sent: f64, result: f64 },
    /// Sent at `sent` and refused with `busy`.
    Refused { sent: f64 },
    /// Sent at `sent`; the job failed or its output was wrong.
    Failed { sent: f64 },
}

impl Outcome {
    fn sent(&self) -> f64 {
        match *self {
            Outcome::Done { sent, .. } | Outcome::Refused { sent } | Outcome::Failed { sent } => {
                sent
            }
        }
    }

    fn result(&self) -> Option<f64> {
        match *self {
            Outcome::Done { result, .. } => Some(result),
            _ => None,
        }
    }
}

/// One fixed rate's results.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSummary {
    /// Jobs scheduled.
    pub jobs: usize,
    /// Median due-to-result latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile due-to-result latency, ms (infinite when more than
    /// a tenth of the jobs got no result).
    pub p90_ms: f64,
    /// Jobs refused with `busy`.
    pub refused: usize,
    /// Jobs that failed or returned a wrong report.
    pub failed: usize,
    /// Generator lateness (send minus due) of every job, ms.
    pub lag_ms: Vec<f64>,
    /// Whether the backlog grew over the run (see [`backlog_grows`]).
    pub backlog_growing: bool,
}

impl RateSummary {
    /// Whether this rate meets `limit_ms` at p90 without a growing backlog.
    pub fn sustained(&self, limit_ms: f64) -> bool {
        self.p90_ms <= limit_ms && !self.backlog_growing
    }
}

/// Latency of every job from its due time (infinite without a result).
pub fn latencies(due: &[f64], outcomes: &[Outcome]) -> Vec<f64> {
    due.iter()
        .zip(outcomes)
        .map(|(d, o)| o.result().map_or(f64::INFINITY, |r| r - d))
        .collect()
}

/// Jobs outstanding (due earlier, no result yet) as each job falls due.
pub fn backlog(due: &[f64], outcomes: &[Outcome]) -> Vec<usize> {
    due.iter()
        .enumerate()
        .map(|(i, &d)| {
            outcomes[..i]
                .iter()
                .filter(|o| o.result().is_none_or(|r| r > d))
                .count()
        })
        .collect()
}

/// A backlog grows when the last quarter of the schedule meets, on
/// average, more than two extra outstanding jobs than the first quarter.
pub fn backlog_grows(backlog: &[usize]) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&backlog[backlog.len() - q..]) > mean(&backlog[..q]) + 2.0
}

/// Summarises one rate's schedule and outcomes.
///
/// # Panics
///
/// Panics if `due` and `outcomes` differ in length or are empty.
pub fn summarize(due: &[f64], outcomes: &[Outcome]) -> RateSummary {
    assert_eq!(due.len(), outcomes.len(), "one outcome per scheduled job");
    assert!(!due.is_empty(), "empty schedule");
    let lat = latencies(due, outcomes);
    RateSummary {
        jobs: due.len(),
        p50_ms: stats::percentile(&lat, 50.0).expect("non-empty"),
        p90_ms: stats::percentile(&lat, 90.0).expect("non-empty"),
        refused: outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Refused { .. }))
            .count(),
        failed: outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Failed { .. }))
            .count(),
        lag_ms: due
            .iter()
            .zip(outcomes)
            .map(|(d, o)| o.sent() - d)
            .collect(),
        backlog_growing: backlog_grows(&backlog(due, outcomes)),
    }
}

/// Summarises one rate served as several segments, each starting with
/// an empty queue: latency and lag over every job, and a growing backlog
/// when more than half of the segments grew one.
///
/// # Panics
///
/// Panics if there are no segments or a segment is malformed (see
/// [`summarize`]).
pub fn summarize_segments(segments: &[(Vec<f64>, Vec<Outcome>)]) -> RateSummary {
    let due: Vec<f64> = segments
        .iter()
        .flat_map(|(d, _)| d.iter().copied())
        .collect();
    let outcomes: Vec<Outcome> = segments
        .iter()
        .flat_map(|(_, o)| o.iter().copied())
        .collect();
    let mut s = summarize(&due, &outcomes);
    let growing = segments
        .iter()
        .filter(|(d, o)| backlog_grows(&backlog(d, o)))
        .count();
    s.backlog_growing = 2 * growing > segments.len();
    s
}

/// The highest of `rates` (jobs/s, ascending with their summaries) that
/// is sustained within `limit_ms`; 0 when none is.
pub fn max_sustained_rate(rates: &[(f64, RateSummary)], limit_ms: f64) -> f64 {
    rates
        .iter()
        .filter(|(_, s)| s.sustained(limit_ms))
        .map(|(r, _)| *r)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sorted_and_spans_the_rate() {
        let a = poisson_schedule(&mut SplitMix64::new(42), 100, 16.0);
        let b = poisson_schedule(&mut SplitMix64::new(42), 100, 16.0);
        let c = poisson_schedule(&mut SplitMix64::new(43), 100, 16.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] >= 0.0 && a[99] < 6250.0);
        // Poisson, not a fixed cadence: gaps vary.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        let min = gaps.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 5.0 * min);
    }

    #[test]
    fn a_stalled_server_inflates_every_later_job() {
        // Four jobs due 10 ms apart. The server stalls until t=100 and
        // then answers everything at once; the generator itself was
        // blocked and sent jobs 2 and 3 late.
        let due = [0.0, 10.0, 20.0, 30.0];
        let outcomes = [
            Outcome::Done {
                sent: 0.0,
                result: 100.0,
            },
            Outcome::Done {
                sent: 10.0,
                result: 101.0,
            },
            Outcome::Done {
                sent: 60.0,
                result: 102.0,
            },
            Outcome::Done {
                sent: 95.0,
                result: 103.0,
            },
        ];
        // Timed from due, not from send: job 3 waited 73 ms, not 8.
        assert_eq!(latencies(&due, &outcomes), vec![100.0, 91.0, 82.0, 73.0]);
        assert_eq!(backlog(&due, &outcomes), vec![0, 1, 2, 3]);
        let s = summarize(&due, &outcomes);
        assert_eq!(s.lag_ms, vec![0.0, 0.0, 40.0, 65.0]);
        assert_eq!(s.p50_ms, 82.0);
        assert_eq!(s.p90_ms, 100.0);
        assert!(!s.sustained(50.0));
    }

    #[test]
    fn a_busy_refusal_is_failed_and_over_the_limit() {
        let due: Vec<f64> = (0..10).map(|i| f64::from(i) * 100.0).collect();
        let mut outcomes: Vec<Outcome> = due
            .iter()
            .map(|&d| Outcome::Done {
                sent: d,
                result: d + 5.0,
            })
            .collect();
        outcomes[9] = Outcome::Refused { sent: 900.0 };
        let s = summarize(&due, &outcomes);
        assert_eq!(s.refused, 1);
        // One refusal in ten: the p90 sample is still a real result...
        assert_eq!(s.p90_ms, 5.0);
        // ...a second one pushes p90 past any limit.
        outcomes[8] = Outcome::Refused { sent: 800.0 };
        let s = summarize(&due, &outcomes);
        assert_eq!(s.refused, 2);
        assert_eq!(s.p90_ms, f64::INFINITY);
        assert!(!s.sustained(250.0));
        assert_eq!(latencies(&due, &outcomes)[9], f64::INFINITY);
    }

    #[test]
    fn segments_pool_samples_and_vote_on_backlog_growth() {
        let seg = |start: f64, late: f64| {
            let due: Vec<f64> = (0..8).map(|i| start + f64::from(i) * 10.0).collect();
            let outcomes = due
                .iter()
                .enumerate()
                .map(|(i, &d)| Outcome::Done {
                    sent: d,
                    result: d + 1.0 + late * i as f64,
                })
                .collect();
            (due, outcomes)
        };
        // Two healthy segments and one whose queue grows.
        let s = summarize_segments(&[seg(0.0, 0.0), seg(1000.0, 0.0), seg(2000.0, 30.0)]);
        assert_eq!(s.jobs, 24);
        assert_eq!(s.p50_ms, 1.0);
        assert!(!s.backlog_growing);
        let s = summarize_segments(&[seg(0.0, 30.0), seg(1000.0, 0.0), seg(2000.0, 30.0)]);
        assert!(s.backlog_growing);
        assert_eq!(s.p50_ms, 31.0);
    }

    #[test]
    fn backlog_growth_and_the_max_sustained_rate() {
        assert!(!backlog_grows(&[0, 1, 0, 1, 0, 1, 0, 1]));
        assert!(backlog_grows(&[0, 0, 1, 2, 3, 4, 5, 6]));
        let ok = |p90| RateSummary {
            jobs: 100,
            p50_ms: 1.0,
            p90_ms: p90,
            refused: 0,
            failed: 0,
            lag_ms: vec![],
            backlog_growing: false,
        };
        let rates = vec![(8.0, ok(20.0)), (16.0, ok(40.0)), (24.0, ok(400.0))];
        assert_eq!(max_sustained_rate(&rates, 250.0), 16.0);
        let mut growing = ok(10.0);
        growing.backlog_growing = true;
        assert_eq!(max_sustained_rate(&[(8.0, growing)], 250.0), 0.0);
    }
}
