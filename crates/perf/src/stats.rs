//! Robust summaries: nearest-rank percentiles, the tail rule, and the
//! median over rounds every end-to-end metric is reported as.

/// Samples a percentile must leave beyond it to be reported (the
/// choosing-metrics rule: "the highest percentile that has at least ten
/// samples beyond it").
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(q * n)`, clamped to `1..=n`. Panics on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; the mean of the two middle values when the count is
/// even. Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The 1-based rank of the tail sample among `n >= 1`: p99 by nearest
/// rank, lowered until [`TAIL_BEYOND`] samples lie beyond it — or, with
/// fewer than a hundred samples, a tenth of them (so p90, and under ten
/// samples the maximum). Small rounds get their robustness from the median
/// over rounds instead of from samples beyond the rank.
pub fn tail_rank(n: usize) -> usize {
    assert!(n >= 1, "tail of no samples");
    let beyond = (n / 10).min(TAIL_BEYOND);
    let p99 = (0.99 * n as f64).ceil() as usize;
    p99.min(n - beyond)
}

/// How a tail latency was obtained, so the report can state it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: u64,
    /// The percentile actually reported (99.0 when samples allow).
    pub percentile: f64,
    /// Samples behind the percentile: in the shortest round, or all of the
    /// run's if pooled.
    pub samples: usize,
    /// Rounds held too few samples for a statistic of their own, so the
    /// run's samples were pooled.
    pub pooled: bool,
}

/// Samples a round needs for a tail of its own. Only `failover`, whose
/// rounds are single recoveries, falls under it.
pub const PER_ROUND_MIN: usize = 5;

/// The tail latency of a run made of `rounds` (each ascending): the median
/// over rounds of each round's [`tail_rank`] sample — like every other
/// metric, so a slow burst that spoils a few rounds does not set it; when
/// a round has fewer than [`PER_ROUND_MIN`] samples, the same rank over
/// the pooled samples of all rounds.
pub fn tail(rounds: &[&[u64]]) -> Tail {
    let shortest = rounds.iter().map(|r| r.len()).min().unwrap_or(0);
    if shortest >= PER_ROUND_MIN {
        let values: Vec<f64> = rounds
            .iter()
            .map(|r| r[tail_rank(r.len()) - 1] as f64)
            .collect();
        return Tail {
            value: median(&values) as u64,
            percentile: 100.0 * tail_rank(shortest) as f64 / shortest as f64,
            samples: shortest,
            pooled: false,
        };
    }
    let mut pool: Vec<u64> = rounds.iter().flat_map(|r| r.iter().copied()).collect();
    pool.sort_unstable();
    let rank = tail_rank(pool.len());
    Tail {
        value: pool[rank - 1],
        percentile: 100.0 * rank as f64 / pool.len() as f64,
        samples: pool.len(),
        pooled: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1, "rank clamps to the first sample");
        // Nearest rank never interpolates: with 5 samples p50 is the 3rd.
        assert_eq!(percentile(&[10, 20, 30, 40, 1000], 0.50), 30);
        assert_eq!(percentile(&[10, 20, 30, 40, 1000], 0.99), 1000);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild round out of seven does not move the reported value.
        assert_eq!(median(&[5.0, 5.1, 4.9, 5.0, 500.0, 5.2, 4.8]), 5.0);
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond_or_a_tenth() {
        assert_eq!(tail_rank(1), 1);
        assert_eq!(tail_rank(9), 9, "under ten samples: the maximum");
        assert_eq!(tail_rank(10), 9);
        assert_eq!(tail_rank(50), 45, "p90");
        assert_eq!(tail_rank(100), 90, "ten beyond");
        assert_eq!(tail_rank(500), 490, "p99 would leave only 5 beyond");
        assert_eq!(tail_rank(1000), 990, "exactly p99");
        assert_eq!(tail_rank(100_000), 99_000);
    }

    #[test]
    fn tail_is_the_median_over_rounds_of_each_rounds_tail() {
        let rounds: Vec<Vec<u64>> = (0..3)
            .map(|r| (1..=1000).map(|i| i + 1000 * r).collect())
            .collect();
        let t = tail(&rounds.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert_eq!(t.value, 1990, "median of 990, 1990, 2990");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
        assert!(!t.pooled);
        // Eight jobs a round: each round's maximum, and one spoiled round
        // of three does not set the tail.
        let jobs: [&[u64]; 3] = [
            &[30, 31, 31, 32, 32, 33, 34, 35],
            &[30, 30, 31, 31, 32, 33, 33, 36],
            &[45, 47, 50, 50, 51, 52, 52, 80],
        ];
        let t = tail(&jobs);
        assert_eq!((t.value, t.percentile, t.pooled), (36, 100.0, false));
    }

    #[test]
    fn tail_pools_rounds_of_a_few_samples() {
        // Failover: one recovery a round, the slowest of the run.
        let t = tail(&[&[5], &[9], &[7], &[6], &[8]]);
        assert_eq!(
            (t.value, t.percentile, t.samples, t.pooled),
            (9, 100.0, 5, true)
        );
    }
}
