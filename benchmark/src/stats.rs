//! The maths every timing metric goes through.
//!
//! This box shares its two cores with other tenants, and the interference
//! only ever slows a measurement down: at the parent commit the median of
//! five equal segments of the single-threaded `direct` workload moved by
//! 30 % between runs of one binary. So no timing metric is a plain
//! average. Every stream repeats *identical* work at least five times and
//! reports what the fastest repetition shows:
//!
//! * serial streams (one request or batch in flight): every request is
//!   observed once per repetition, and its time is the **minimum over the
//!   repetitions** ([`Repeated`]); throughput and median latency are then
//!   taken over those per-request minima, so a burst of interference has
//!   to hit the same request in every repetition to move the result;
//! * concurrent streams (`tcp_mixed`), where requests overlap and have no
//!   time of their own: one value per repetition, and the **best
//!   repetition** ([`best_of`]).
//!
//! Beside each value go the plain per-repetition extremes (how disturbed
//! the run was) and a split-half spread: the same estimate from the even
//! and from the odd repetitions alone, as a share of the value.

use pigeonring_telemetry::percentile;

/// A reported value with its context.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub value: f64,
    /// Smallest plain per-repetition value.
    pub min: f64,
    /// Largest plain per-repetition value.
    pub max: f64,
    /// `|estimate(even reps) − estimate(odd reps)| / value`.
    pub spread: f64,
}

impl Summary {
    /// The same summary in another unit (`spread` is a ratio and stays).
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            value: self.value * factor,
            min: self.min * factor,
            max: self.max * factor,
            spread: self.spread,
        }
    }
}

fn relative_gap(a: f64, b: f64, value: f64) -> f64 {
    if value == 0.0 {
        0.0
    } else {
        (a - b).abs() / value.abs()
    }
}

fn extreme(values: impl Iterator<Item = f64>, higher: bool) -> Option<f64> {
    values.reduce(|a, b| if (b > a) == higher { b } else { a })
}

/// The best of one value per repetition: the largest when `higher` is
/// better (rates), else the smallest (times). `None` when empty.
pub fn best_of(values: &[f64], higher: bool) -> Option<Summary> {
    let value = extreme(values.iter().copied(), higher)?;
    let half = |parity: usize| {
        extreme(
            values
                .iter()
                .copied()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, v)| v),
            higher,
        )
    };
    let spread = match (half(0), half(1)) {
        (Some(even), Some(odd)) => relative_gap(even, odd, value),
        _ => 0.0,
    };
    Some(Summary {
        value,
        min: extreme(values.iter().copied(), false)?,
        max: extreme(values.iter().copied(), true)?,
        spread,
    })
}

/// The fastest of a few timings (zeroes when empty).
pub fn fastest(values: &[f64]) -> Summary {
    best_of(values, false).unwrap_or(Summary {
        value: 0.0,
        min: 0.0,
        max: 0.0,
        spread: 0.0,
    })
}

/// Median of a few values (zero when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// A serial stream's observations: the same `weights.len()` requests, in
/// the same order, once per repetition.
#[derive(Clone, Debug, Default)]
pub struct Repeated {
    /// Queries answered by each request of a unit (1, or a batch's size).
    pub weights: Vec<u32>,
    /// Caller-observed latency of every request, repetition-major.
    pub lat_ns: Vec<u64>,
    /// Time from the previous completion (or the repetition's start) to
    /// this request's completion, repetition-major: latency plus what the
    /// generator spent between requests.
    pub cycle_ns: Vec<u64>,
}

/// Throughput and median latency of a stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Queries per second.
    pub qps: Summary,
    /// Median latency, microseconds.
    pub p50_us: Summary,
}

impl Repeated {
    /// An empty observation set for units of `weights.len()` requests.
    pub fn new(weights: Vec<u32>) -> Self {
        Repeated {
            weights,
            ..Repeated::default()
        }
    }

    /// Records the next request, in unit order.
    pub fn push(&mut self, lat_ns: u64, cycle_ns: u64) {
        self.lat_ns.push(lat_ns);
        self.cycle_ns.push(cycle_ns);
    }

    /// Complete repetitions recorded.
    pub fn reps(&self) -> usize {
        match self.weights.len() {
            0 => 0,
            n => self.lat_ns.len() / n,
        }
    }

    /// `(qps, p50_us)` from each request's fastest observation among the
    /// repetitions `pick` selects.
    fn minima_over(&self, pick: impl Fn(usize) -> bool) -> Option<(f64, f64)> {
        let n = self.weights.len();
        let reps: Vec<usize> = (0..self.reps()).filter(|&r| pick(r)).collect();
        if reps.is_empty() {
            return None;
        }
        let fastest = |values: &[u64], j: usize| reps.iter().map(|r| values[r * n + j]).min();
        let mut cycle_total = 0u64;
        let mut lats: Vec<f64> = Vec::new();
        for (j, &w) in self.weights.iter().enumerate() {
            cycle_total += fastest(&self.cycle_ns, j)?;
            let lat_us = fastest(&self.lat_ns, j)? as f64 / 1e3;
            lats.extend(std::iter::repeat_n(lat_us, w as usize));
        }
        lats.sort_by(f64::total_cmp);
        let queries: u32 = self.weights.iter().sum();
        Some((
            f64::from(queries) / (cycle_total.max(1) as f64 / 1e9),
            percentile(&lats, 50.0),
        ))
    }

    /// The stream's estimate; `None` before one full repetition.
    pub fn estimate(&self) -> Option<Estimate> {
        let (qps, p50_us) = self.minima_over(|_| true)?;
        let plain: Vec<(f64, f64)> = (0..self.reps())
            .filter_map(|r| self.minima_over(|x| x == r))
            .collect();
        let even = self.minima_over(|r| r % 2 == 0);
        let odd = self.minima_over(|r| r % 2 == 1);
        let summary = |value: f64, of: fn(&(f64, f64)) -> f64| Summary {
            value,
            min: extreme(plain.iter().map(of), false).unwrap_or(value),
            max: extreme(plain.iter().map(of), true).unwrap_or(value),
            spread: match (even, odd) {
                (Some(e), Some(o)) => relative_gap(of(&e), of(&o), value),
                _ => 0.0,
            },
        };
        Some(Estimate {
            qps: summary(qps, |v| v.0),
            p50_us: summary(p50_us, |v| v.1),
        })
    }
}

/// Nearest-rank percentile of latencies in nanoseconds, as microseconds.
pub fn percentile_us(lat_ns: &[u64], p: f64) -> f64 {
    let mut lats: Vec<f64> = lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    lats.sort_by(f64::total_cmp);
    percentile(&lats, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `reps` repetitions of a 4-request unit taking 1, 2, 3, 4 ms, with
    /// `slow(rep, request)` multiplying single observations.
    fn stream(reps: usize, slow: impl Fn(usize, usize) -> u64) -> Repeated {
        let mut s = Repeated::new(vec![1; 4]);
        for r in 0..reps {
            for j in 0..4 {
                let lat = (j as u64 + 1) * 1_000_000 * slow(r, j);
                s.push(lat, lat + 1_000);
            }
        }
        s
    }

    #[test]
    fn undisturbed_stream_reports_plain_throughput_and_nearest_rank_median() {
        let e = stream(5, |_, _| 1).estimate().unwrap();
        // 4 queries per (1 + 2 + 3 + 4) ms + 4 µs of generator time.
        assert!((e.qps.value - 4.0 / 0.010_004).abs() < 1e-6);
        // Nearest rank at 50 % of {1, 2, 3, 4} ms is the second.
        assert_eq!(e.p50_us.value, 2000.0);
        assert_eq!((e.qps.spread, e.p50_us.spread), (0.0, 0.0));
        assert_eq!(e.qps.min, e.qps.max);
    }

    #[test]
    fn interference_must_hit_a_request_in_every_repetition_to_count() {
        // Each repetition has one request slowed tenfold — a different one
        // each time — and repetition 3 is slow throughout.
        let disturbed = stream(5, |r, j| if r == 3 || r % 4 == j { 10 } else { 1 });
        let clean = stream(5, |_, _| 1);
        let (d, c) = (disturbed.estimate().unwrap(), clean.estimate().unwrap());
        assert_eq!(d.qps.value, c.qps.value);
        assert_eq!(d.p50_us.value, c.p50_us.value);
        // The plain per-repetition range shows how disturbed the run was.
        assert!(d.qps.min < c.qps.value / 5.0);
        assert!(d.qps.max < c.qps.value);
        // A request that is slow in every repetition does count.
        let slower = stream(5, |_, j| if j == 1 { 2 } else { 1 });
        assert!(slower.estimate().unwrap().qps.value < c.qps.value);
    }

    #[test]
    fn batches_weigh_in_by_their_size() {
        // One batch of 3 queries at 6 ms, one of 1 query at 1 ms.
        let mut s = Repeated::new(vec![3, 1]);
        for _ in 0..2 {
            s.push(6_000_000, 6_000_000);
            s.push(1_000_000, 1_000_000);
        }
        let e = s.estimate().unwrap();
        assert!((e.qps.value - 4.0 / 0.007).abs() < 1e-6);
        // Per-query latencies {1, 6, 6, 6} ms.
        assert_eq!(e.p50_us.value, 6000.0);
        assert_eq!(s.reps(), 2);
    }

    #[test]
    fn incomplete_repetitions_are_ignored_and_empty_streams_have_no_estimate() {
        let mut s = stream(2, |_, _| 1);
        s.push(1, 1);
        assert_eq!(s.reps(), 2);
        assert!(s.estimate().is_some());
        assert!(Repeated::new(vec![1; 4]).estimate().is_none());
        assert!(Repeated::default().estimate().is_none());
    }

    #[test]
    fn best_of_picks_by_direction_and_splits_halves() {
        let rates = best_of(&[90.0, 100.0, 80.0, 95.0, 70.0], true).unwrap();
        assert_eq!((rates.value, rates.min, rates.max), (100.0, 70.0, 100.0));
        // Even repetitions {90, 80, 70} → 90; odd {100, 95} → 100.
        assert!((rates.spread - 0.10).abs() < 1e-12);
        let times = best_of(&[5.0, 4.0, 6.0], false).unwrap();
        assert_eq!(times.value, 4.0);
        assert!((times.spread - 0.25).abs() < 1e-12);
        assert!(best_of(&[], true).is_none());
        assert_eq!(fastest(&[]).value, 0.0);
        assert_eq!(fastest(&[3.0, 2.0]).value, 2.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let lat: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile_us(&lat, 99.0), 99.0);
        assert_eq!(percentile_us(&lat, 50.0), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
