//! Order statistics for the benchmark's samples.
//!
//! Every sample set is printed as its median plus the highest percentile
//! that still has at least [`MIN_BEYOND`] samples above it, so a tail
//! figure is never read off a handful of points.  The value a metric
//! reports is one statistic of the set, chosen per metric ([`Pick`]).

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (0 < q <= 100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// The median and tail of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Nearest-rank median.
    pub median: f64,
    /// `(q, value)` of the highest tail percentile with enough samples
    /// beyond it, if any.
    pub tail: Option<(f64, f64)>,
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Which statistic of a sample set a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The median.
    Median,
    /// The best (smallest) sample: a time or a cost.
    Min,
    /// The best (largest) sample: a rate.
    Max,
}

impl Summary {
    /// The statistic `pick` names.
    pub fn pick(&self, pick: Pick) -> f64 {
        match pick {
            Pick::Median => self.median,
            Pick::Min => self.min,
            Pick::Max => self.max,
        }
    }
}

/// Summarizes `samples` (any order); `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = percentile(&sorted, 50.0)?;
    let tail = TAILS
        .iter()
        .find(|&&q| n - rank(q, n) >= MIN_BEYOND)
        .map(|&q| (q, sorted[rank(q, n) - 1]));
    Some(Summary {
        median,
        tail,
        n,
        min: sorted[0],
        max: sorted[n - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile(&sorted, 99.0), Some(99.0));
        assert_eq!(percentile(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile(&sorted, 0.1), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Nearest rank picks a sample, never an interpolated value.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
    }

    #[test]
    fn a_tail_is_omitted_unless_ten_samples_lie_beyond_it() {
        // 10 samples: even p75 has only 2 beyond it.
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&few).expect("samples");
        assert_eq!((s.median, s.tail, s.n), (5.0, None, 10));

        // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9 has 1.
        let many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&many).expect("samples");
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.median, 500.0);
        assert_eq!((s.pick(Pick::Min), s.pick(Pick::Max)), (1.0, 1000.0));

        // 999 samples: p99 has only 9 beyond, so p95 is the tail.
        let s = summarize(&many[..999]).expect("samples");
        assert_eq!(s.tail.map(|t| t.0), Some(95.0));
        assert!(summarize(&[]).is_none());
    }
}
