//! The benchmark's statistics: medians, quartiles, the percentile rule,
//! due-time latency, and the serving ladder's backlog test and knee.
//!
//! Everything here is pure, so the rules that decide a reported number
//! are pinned by the unit tests at the bottom of the file
//! (`cargo test --manifest-path benchmark/Cargo.toml`).

use std::time::{Duration, Instant};

/// Standard percentiles in tenths of a percent, highest first, that
/// [`supported_percentile`] chooses from (integers, so the count beyond
/// each is exact).
const PERMILLE: [usize; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// The highest of [`PERMILLE`] with at least [`MIN_BEYOND`] samples
/// beyond it in a sample of `n`, or `None` when not even the median
/// has.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERMILLE
        .into_iter()
        .find(|&pm| n * (1000 - pm) / 1000 >= MIN_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

/// The tail to report for a target percentile `p`: `p` itself when the
/// sample supports it, else the highest supported percentile below it,
/// else (fewer than 20 samples) the median, the most robust statistic
/// left. Returns the percentile used and its value.
pub fn tail(values: &[f64], p: f64) -> (f64, f64) {
    let used = supported_percentile(values.len()).map_or(50.0, |q| q.min(p));
    (used, percentile(values, used))
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks — the same definition as numpy's default and Python's
/// `statistics.quantiles(method="inclusive")`. Infinite values sort last,
/// so a failed request (recorded as `f64::INFINITY`) counts as missing
/// any limit. Returns `NaN` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi || v[lo] == v[hi] {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median (`NaN` for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (its default "exclusive" method), which is how the
/// run-to-run spread of a metric is judged. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| -> f64 {
        // exclusive method: position i·(n+1)/4, 1-based, clamped
        let m = (n + 1) as f64;
        let pos = i as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

/// Prints a sample's size, median and quartiles to stderr.
pub fn report_spread(name: &str, values: &[f64]) {
    if let Some((q1, q3)) = quartiles(values) {
        eprintln!(
            "{name}: n {}, median {:.4}, quartiles {q1:.4} .. {q3:.4} (spread {:.2}%)",
            values.len(),
            median(values),
            100.0 * relative_spread(values).unwrap_or(f64::NAN)
        );
    }
}

/// One request of an open-loop schedule, timed from when it was *due*:
/// a stall that delays sending is charged to the request it delays,
/// which a from-sent timer would hide.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When it actually went out (`None`: never sent).
    pub sent: Option<Instant>,
    /// When its answer arrived (`None`: no answer).
    pub done: Option<Instant>,
    /// Answered ok and bit-equal to the expected output.
    pub good: bool,
}

impl Timed {
    /// Due-time latency in ms; `INFINITY` for a request that failed,
    /// was never sent, or got a wrong answer.
    pub fn latency_ms(&self) -> f64 {
        match (self.good, self.done) {
            (true, Some(done)) => ms(done.saturating_duration_since(self.due)),
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent it, in ms (`None`: never sent).
    pub fn late_ms(&self) -> Option<f64> {
        self.sent.map(|s| ms(s.saturating_duration_since(self.due)))
    }

    /// Latency from sending to the answer, in ms: the server's share.
    pub fn service_ms(&self) -> Option<f64> {
        match (self.sent, self.done) {
            (Some(s), Some(d)) => Some(ms(d.saturating_duration_since(s))),
            _ => None,
        }
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Share of a step's requests the generator may shed (never send, as
/// too late) before the step counts as backlogged.
const MAX_SHED: f64 = 0.1;

/// Whether an open-loop step left a growing backlog: the generator shed
/// more than [`MAX_SHED`] of the requests, or its sending lateness kept
/// rising — the median lateness of the last quarter of the sent requests
/// exceeds that of the first quarter by more than `tolerance_ms`.
pub fn backlog_grows(step: &[Timed], tolerance_ms: f64) -> bool {
    let shed = step.iter().filter(|t| t.sent.is_none()).count();
    if shed as f64 > MAX_SHED * step.len() as f64 {
        return true;
    }
    let late: Vec<f64> = step.iter().filter_map(Timed::late_ms).collect();
    let q = late.len() / 4;
    if q == 0 {
        return false;
    }
    median(&late[late.len() - q..]) - median(&late[..q]) > tolerance_ms
}

/// One rung of the serving ladder, as judged after the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Share of the rung's requests answered correctly within the limit.
    pub attained: f64,
    /// Whether the backlog grew during the rung.
    pub backlog: bool,
}

/// The highest rate the ladder sustains: the offered rate at which the
/// share of requests answered correctly within the limit falls to
/// `target` (0.9 for a p90 limit), interpolated linearly between the last
/// rung that keeps `target` without a growing backlog and the first that
/// does not. A backlogged rung counts as attaining at most `target`.
/// Rungs must be in increasing rate order; capacity is where the ladder
/// first breaks, so a rung that passes above a failing one does not
/// count. Returns the top rate when every rung passes, 0 when the lowest
/// fails.
pub fn max_rate(rungs: &[Rung], target: f64) -> f64 {
    let passing = rungs
        .iter()
        .take_while(|r| r.attained >= target && !r.backlog)
        .count();
    if passing == 0 {
        return 0.0;
    }
    let lo = rungs[passing - 1];
    let Some(hi) = rungs.get(passing) else {
        return lo.rate;
    };
    let a_hi = if hi.backlog {
        hi.attained.min(target)
    } else {
        hi.attained
    };
    if lo.attained <= a_hi {
        return lo.rate;
    }
    lo.rate + (hi.rate - lo.rate) * (lo.attained - target) / (lo.attained - a_hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(5), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(9999), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_falls_back_to_what_the_sample_supports() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0).0, 99.0);
        assert_eq!(tail(&v, 90.0).0, 90.0);
        assert_eq!(tail(&v[..500], 99.0).0, 90.0);
        assert_eq!(tail(&v[..50], 90.0).0, 50.0);
        assert_eq!(tail(&v[..9], 90.0), (50.0, 5.0));
    }

    #[test]
    fn percentiles_interpolate_and_failures_sort_last() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert!(percentile(&[], 50.0).is_nan());
        let with_fail = [1.0, f64::INFINITY, 2.0];
        assert_eq!(percentile(&with_fail, 100.0), f64::INFINITY);
        assert_eq!(median(&with_fail), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).expect("ten values");
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    fn timed(t0: Instant, due_ms: u64, late_ms: u64, service_ms: u64) -> Timed {
        let due = t0 + Duration::from_millis(due_ms);
        let sent = due + Duration::from_millis(late_ms);
        Timed {
            due,
            sent: Some(sent),
            done: Some(sent + Duration::from_millis(service_ms)),
            good: true,
        }
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let t = timed(t0, 10, 30, 5);
        assert!((t.latency_ms() - 35.0).abs() < 1e-9);
        assert!((t.late_ms().expect("sent") - 30.0).abs() < 1e-9);
        assert!((t.service_ms().expect("answered") - 5.0).abs() < 1e-9);
        let failed = Timed { good: false, ..t };
        assert_eq!(failed.latency_ms(), f64::INFINITY);
        let unsent = Timed {
            sent: None,
            done: None,
            good: false,
            ..t
        };
        assert_eq!(unsent.latency_ms(), f64::INFINITY);
        assert_eq!(unsent.late_ms(), None);
    }

    #[test]
    fn backlog_detection() {
        let t0 = Instant::now();
        let steady: Vec<Timed> = (0..40).map(|i| timed(t0, i * 5, i % 2, 4)).collect();
        assert!(!backlog_grows(&steady, 5.0));
        // lateness rising 1 ms per request: the last quarter is ~30 ms
        // later than the first
        let growing: Vec<Timed> = (0..40).map(|i| timed(t0, i * 5, i, 4)).collect();
        assert!(backlog_grows(&growing, 5.0));
        // a few shed requests are tolerated, more than a tenth are not
        let mut shed = steady.clone();
        for t in shed.iter_mut().take(4) {
            t.sent = None;
        }
        assert!(!backlog_grows(&shed, 5.0));
        shed[4].sent = None;
        assert!(backlog_grows(&shed, 5.0));
        assert!(!backlog_grows(&steady[..3], 5.0));
    }

    #[test]
    fn max_rate_interpolates_where_the_ladder_breaks() {
        let rung = |rate, attained, backlog| Rung {
            rate,
            attained,
            backlog,
        };
        let ladder = [
            rung(100.0, 1.0, false),
            rung(200.0, 0.95, false),
            rung(300.0, 0.85, false),
            rung(400.0, 0.2, true),
        ];
        // 0.9 lies halfway between 0.95 at 200 and 0.85 at 300
        assert!((max_rate(&ladder, 0.9) - 250.0).abs() < 1e-9);
        assert_eq!(max_rate(&ladder[..2], 0.9), 200.0);
        assert_eq!(max_rate(&[rung(100.0, 0.5, false)], 0.9), 0.0);
        // a backlogged rung caps at the target: the crossing is at it
        let backlogged = [rung(100.0, 0.99, false), rung(200.0, 0.97, true)];
        assert!((max_rate(&backlogged, 0.9) - 200.0).abs() < 1e-9);
        // a rung passing above a failing one does not count
        let recovers = [
            rung(100.0, 1.0, false),
            rung(200.0, 0.8, false),
            rung(300.0, 0.99, false),
        ];
        assert!((max_rate(&recovers, 0.9) - 150.0).abs() < 1e-9);
        // a lowest rung exactly at the target, the next backlogged at it
        let flat = [rung(100.0, 0.9, false), rung(200.0, 0.95, true)];
        assert_eq!(max_rate(&flat, 0.9), 100.0);
    }
}
