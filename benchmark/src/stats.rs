//! Order statistics for the benchmark's timings: nearest-rank percentiles
//! per round, the best round of a run, and the quartile spread `--compare` uses
//! to call a metric unresolved.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice: the
/// smallest sample with at least `p` (in `0..=1`) of the samples at or
/// below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `p` percentile of a
/// round of `n` samples — the count the report states beside every tail.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The median and tail of one round of per-op latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundSummary {
    /// Median op latency of the round.
    pub p50: f64,
    /// 95th-percentile op latency of the round.
    pub p95: f64,
    /// Mean op latency of the round.
    pub mean: f64,
}

/// Summarises one round (consumes and sorts the samples).
pub fn summarise_round(mut samples: Vec<f64>) -> RoundSummary {
    let mean = mean(&samples);
    samples.sort_by(f64::total_cmp);
    RoundSummary {
        p50: percentile_sorted(&samples, 0.50),
        p95: percentile_sorted(&samples, 0.95),
        mean,
    }
}

/// Reduces the rounds of a run to the reported latencies: the **best round**
/// of each per-round statistic (the lowest per-round median, the lowest
/// per-round p95).
///
/// Ops are deterministic, so every round draws the same latency
/// distribution and what differs between rounds is the host: a shared
/// machine has stretches, seconds long, in which everything runs up to
/// 1.7× slower, and on a bad day they cover most of a run.  That noise only
/// ever adds time, so the least disturbed round is the best estimate of
/// what the code costs.  Measured on such a host over ten seeds, the best
/// round moved by 4–10 % where the first quartile over rounds moved by
/// 9–37 % and the median by more; on a quiet host all three agree.  What a
/// best round cannot show is a cost that only some rounds pay; every
/// round's values are in the run's record for that.
pub fn reduce_latency(rounds: &[RoundSummary]) -> RoundSummary {
    let best = |f: fn(&RoundSummary) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
    assert!(!rounds.is_empty(), "a run keeps at least one round");
    RoundSummary {
        p50: best(|r| r.p50),
        p95: best(|r| r.p95),
        mean: best(|r| r.mean),
    }
}

/// Reduces the passes of a run to the reported throughput: the best pass
/// (see [`reduce_latency`]).
pub fn reduce_qps(passes: &[f64]) -> f64 {
    assert!(!passes.is_empty(), "a run keeps at least one pass");
    passes.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First and third quartile by the "exclusive" method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here match
/// the ones the acceptance runs compute.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Run-to-run spread of a metric as a share of its median: the
/// interquartile distance with four or more values, the full range with two
/// or three, and 0 with a single value (one run shows no spread).
pub fn relative_spread(values: &[f64]) -> f64 {
    let centre = median(values).abs();
    if values.len() < 2 || centre == 0.0 {
        return 0.0;
    }
    let width = if values.len() >= 4 {
        let (q1, q3) = quartiles(values);
        q3 - q1
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    width / centre
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 100.0);
        assert_eq!(percentile_sorted(&sorted, 0.95), 190.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 200.0);
        assert_eq!(percentile_sorted(&[7.0], 0.95), 7.0);
        // 200 ops per round leave exactly ten samples beyond the p95.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(240, 0.95), 12);
        assert_eq!(samples_beyond(1, 0.95), 0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn spoiled_rounds_do_not_move_the_reported_latencies() {
        let clean = || summarise_round((1..=200).map(f64::from).collect());
        let spoiled = || {
            // A slow stretch of the host: the whole round runs 1.7× slower.
            summarise_round((1..=200).map(|s| f64::from(s) * 1.7).collect())
        };
        assert!(spoiled().p95 > 300.0, "a spoiled round itself moved");
        // Seven of eight rounds spoiled — far more than a median survives.
        let rounds = [
            spoiled(),
            spoiled(),
            spoiled(),
            spoiled(),
            clean(),
            spoiled(),
            spoiled(),
            spoiled(),
        ];
        let reported = reduce_latency(&rounds);
        assert_eq!((reported.p50, reported.p95), (100.0, 190.0));
        assert_eq!(reduce_latency(&[clean()]), clean());
    }

    #[test]
    fn throughput_is_reduced_on_its_undisturbed_side() {
        let passes = [2300.0, 4000.0, 2400.0, 2500.0, 3950.0, 2350.0, 2450.0];
        assert_eq!(reduce_qps(&passes), 4000.0);
        assert_eq!(reduce_qps(&[123.0]), 123.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let (q1, q3) = quartiles(&[40.0, 10.0, 30.0, 20.0]);
        assert!((q1 - 12.5).abs() < 1e-12 && (q3 - 37.5).abs() < 1e-12);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        assert_eq!(relative_spread(&[5.0]), 0.0);
        assert!((relative_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&values) - 1.0).abs() < 1e-12);
    }
}
