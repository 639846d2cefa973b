//! Metric arithmetic shared by every workload: nearest-rank percentiles,
//! the tail rule, geometric means, model mispredictions, Pearson r and the
//! failure share. Pure functions over plain numbers, pinned by the tests at
//! the bottom of this file.

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile `p` (0-100): the smallest sample such that at
/// least `p` percent of the sample is at or below it. 0.0 on an empty
/// sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Nearest-rank median.
pub fn p50(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The reported tail of a sample: its value, the nearest-rank percentile
/// it sits at, and the sample size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// Nearest-rank percentile of `value` (0-100).
    pub percentile: f64,
    /// Number of samples.
    pub n: usize,
}

/// The highest nearest-rank percentile that still has [`TAIL_BEYOND`]
/// samples strictly beyond it: the `n - TAIL_BEYOND`-th smallest value.
/// A sample too small to leave ten beyond any value reports its maximum at
/// the 100th percentile, so the shortfall is visible beside the number.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            n,
        };
    }
    let s = sorted(xs);
    if n <= TAIL_BEYOND {
        return Tail {
            value: s[n - 1],
            percentile: 100.0,
            n,
        };
    }
    let rank = n - TAIL_BEYOND;
    Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    }
}

/// Geometric mean of positive values (0.0 on an empty sample).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Simulated cycles of one point under the paper's three policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyCycles {
    /// Naive (every access checked).
    pub naive: u64,
    /// Always-ISP.
    pub isp: u64,
    /// Model-guided (isp+m).
    pub ispm: u64,
}

impl PolicyCycles {
    /// The Table IV quantity for one point: naive / isp+m.
    pub fn ispm_speedup(&self) -> f64 {
        self.naive as f64 / self.ispm as f64
    }

    /// The model mispredicted when isp+m ran slower than the better of
    /// naive and isp.
    pub fn mispredicted(&self) -> bool {
        self.ispm > self.naive.min(self.isp)
    }
}

/// Points whose isp+m cycles exceed min(naive, isp).
pub fn mispredictions(points: &[PolicyCycles]) -> usize {
    points.iter().filter(|p| p.mispredicted()).count()
}

/// Pearson correlation of two equally long samples (0.0 when either has
/// no variance or fewer than two points).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson needs paired samples");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Failed operations as a share of those attempted.
pub fn fail_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// Largest absolute pixel difference between two equally sized buffers.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "compared images differ in size");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(p50(&one_to(100)), 50.0);
        assert_eq!(p50(&one_to(5)), 3.0);
        assert_eq!(p50(&[2.0, 1.0]), 1.0);
        assert_eq!(p50(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let t = tail(&one_to(100));
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.n, 100);
        let xs = one_to(1000);
        let t = tail(&xs);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // Eleven samples: the smallest value still has ten beyond it.
        let t = tail(&one_to(11));
        assert_eq!((t.value, t.n), (1.0, 11));
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_short_sample_is_its_maximum() {
        let t = tail(&one_to(10));
        assert_eq!((t.value, t.percentile, t.n), (10.0, 100.0, 10));
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn tail_counts_ties_beyond_only_when_strictly_larger() {
        // 20 samples, the top 12 tied: the tail value is the tie itself.
        let mut xs = vec![1.0; 8];
        xs.extend(vec![5.0; 12]);
        assert_eq!(tail(&xs).value, 5.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn misprediction_needs_isp_m_strictly_slower_than_the_best() {
        let p = |naive, isp, ispm| PolicyCycles { naive, isp, ispm };
        let points = [
            p(100, 90, 90),   // picked isp, isp best: right
            p(100, 110, 100), // picked naive, naive best: right
            p(100, 101, 101), // picked isp, naive best: wrong
            p(90, 100, 100),  // picked isp, naive best: wrong
            p(100, 100, 100), // tie: right
        ];
        assert_eq!(mispredictions(&points), 2);
        assert!((points[0].ispm_speedup() - 100.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_r() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&xs, &[2.0, 4.0, 6.0, 8.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &[8.0, 6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[1.0; 4]), 0.0);
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn fail_share_counts_against_attempts() {
        assert_eq!(fail_share(0, 40), 0.0);
        assert_eq!(fail_share(1, 4), 0.25);
        assert_eq!(fail_share(0, 0), 0.0);
    }

    #[test]
    fn max_abs_diff_is_elementwise() {
        assert_eq!(max_abs_diff(&[1.0, 2.0, 3.0], &[1.0, 2.5, 2.0]), 1.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }
}
