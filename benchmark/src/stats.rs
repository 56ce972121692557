//! Order statistics over repeated samples, and the bound comparison that
//! turns two sets of samples into a verdict.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the "exclusive" method). With
/// fewer than two samples both quartiles are the lone sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a bound is judged against.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Percentile ranks a tail is reported at, highest first.
const TAIL_RANKS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile rank from {99.9, 99, 95, 90, 75} that leaves at
/// least ten samples beyond it, and the nearest-rank value there. With
/// too few samples for any of those (fewer than 40) the median stands in,
/// reported at rank 50.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    for p in TAIL_RANKS {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (50.0, median(xs))
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `change` is than `parent`, as a share of `parent`
    /// (negative when it is better).
    fn worse_by(self, parent: f64, change: f64) -> f64 {
        if parent == 0.0 {
            return if change == parent { 0.0 } else { f64::INFINITY };
        }
        let d = (change - parent) / parent.abs();
        match self {
            Better::Higher => -d,
            Better::Lower => d,
        }
    }
}

/// Outcome of comparing a change's samples with its parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    /// The medians differ by less than the bound allows.
    WithinBound,
    /// The spread of either side is wider than the bound, and the samples
    /// overlap, so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `parent` under `bound` (a share of the parent's
/// median; 0 means the metric is deterministic and must match exactly).
///
/// * Worse: the change's median is worse by more than the bound.
/// * Better: the change's median is better by more than the parent's own
///   spread.
/// * Unresolved: either side spreads wider than the bound, unless every
///   change sample beats (or loses to) every parent sample.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let worse = better.worse_by(mp, mc);
    if bound == 0.0 {
        return match worse {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::WithinBound,
        };
    }
    if spread(parent) > bound || spread(change) > bound {
        let all_better =
            change.iter().all(|&c| parent.iter().all(|&p| better.worse_by(p, c) < 0.0));
        let all_worse = change.iter().all(|&c| parent.iter().all(|&p| better.worse_by(p, c) > 0.0));
        return match (all_better, all_worse) {
            (true, _) => Verdict::Better,
            (_, true) => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if worse > bound {
        Verdict::Worse
    } else if -worse > spread(parent) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!((min(&[2.0, 1.0]), max(&[2.0, 1.0])), (1.0, 2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: j clamps
        // and the quartiles extrapolate past the samples.
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_takes_the_highest_rank_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99 leaves 10: p99 is the highest.
        assert_eq!(tail(&xs), (99.0, 990.0));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 leaves 2, p95 leaves 10.
        assert_eq!(tail(&xs), (95.0, 190.0));
        let xs: Vec<f64> = (1..=48).map(f64::from).collect();
        // p90 leaves 4 (rank 44); p75 leaves 12.
        assert_eq!(tail(&xs), (75.0, 36.0));
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        // p75 leaves 9: too few, so the median stands in.
        assert_eq!(tail(&xs), (50.0, 20.0));
    }

    #[test]
    fn verdicts_respect_bound_spread_and_direction() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let faster = [120.0, 121.0, 119.0, 120.5, 119.5];
        let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        assert_eq!(verdict(&parent, &faster, Better::Higher, 0.1), Verdict::Better);
        assert_eq!(verdict(&parent, &slower, Better::Higher, 0.1), Verdict::Worse);
        assert_eq!(verdict(&parent, &slower, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(&parent, &same, Better::Higher, 0.1), Verdict::WithinBound);
        // 5% slower is inside a 10% bound.
        let bit_slower = [95.0, 95.5, 94.5, 95.2, 94.8];
        assert_eq!(verdict(&parent, &bit_slower, Better::Higher, 0.1), Verdict::WithinBound);
        // A spread wider than the bound with overlapping samples cannot tell.
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&parent, &noisy, Better::Higher, 0.1), Verdict::Unresolved);
        // ... unless every sample of the change loses to every parent sample.
        let noisy_slow = [10.0, 30.0, 20.0, 15.0, 25.0];
        assert_eq!(verdict(&parent, &noisy_slow, Better::Higher, 0.1), Verdict::Worse);
        // Bound 0: exact.
        assert_eq!(verdict(&[7.0], &[7.0], Better::Lower, 0.0), Verdict::WithinBound);
        assert_eq!(verdict(&[7.0], &[8.0], Better::Lower, 0.0), Verdict::Worse);
        assert_eq!(verdict(&[7.0], &[6.0], Better::Lower, 0.0), Verdict::Better);
    }
}
