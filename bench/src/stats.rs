//! Order statistics for wall-clock samples, and the log2 histogram the
//! traced run feeds with one timestamp pair per call.

/// The `p`-th percentile (0–100) of `sorted`, linearly interpolated between
/// neighbouring ranks. Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// A sample's median, quartiles and outer deciles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p10: f64,
    pub p90: f64,
    pub n: usize,
}

/// Sorts `samples` and summarises them. One rep in five on a shared box can
/// be a third slow, so wall metrics are order statistics, never means.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        median: percentile(samples, 50.0),
        q1: percentile(samples, 25.0),
        q3: percentile(samples, 75.0),
        p10: percentile(samples, 10.0),
        p90: percentile(samples, 90.0),
        n: samples.len(),
    }
}

impl Summary {
    /// What the sample reads when nothing disturbs the measurement: the
    /// decile on the fast side, which is the high one for rates
    /// (`higher_is_better`) and the low one for times. On the shared box
    /// another tenant slows the process by up to a third for seconds at a
    /// time and nothing ever speeds it up, so the fast decile repeats from
    /// run to run about twice as closely as the median does.
    pub fn fast(&self, higher_is_better: bool) -> f64 {
        if higher_is_better {
            self.p90
        } else {
            self.p10
        }
    }
}

/// [`Summary::fast`] of `samples`.
pub fn undisturbed(samples: &mut [f64], higher_is_better: bool) -> f64 {
    summarize(samples).fast(higher_is_better)
}

/// Power-of-two buckets of nanosecond durations: bucket `b` holds
/// `[2^b, 2^(b+1))` (bucket 0 also holds 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl Log2Hist {
    pub fn record(&mut self, ns: u64) {
        self.buckets[ns.max(1).ilog2() as usize] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The non-empty prefix of the bucket array (for the span file).
    pub fn buckets(&self) -> &[u64] {
        let used = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        &self.buckets[..used]
    }

    /// The `p`-th percentile in nanoseconds, placed inside its bucket in
    /// proportion to the rank's position among the bucket's samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p / 100.0).clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= target {
                let lo = if b == 0 { 0.0 } else { (1u64 << b) as f64 };
                let hi = (1u128 << (b + 1)) as f64;
                let inside = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * inside;
            }
            seen += c;
        }
        unreachable!("the ranks sum to count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_of_a_known_sample() {
        let mut odd = [9.0, 1.0, 5.0, 3.0, 7.0];
        let s = summarize(&mut odd);
        assert_eq!((s.q1, s.median, s.q3, s.n), (3.0, 5.0, 7.0, 5));
        assert_eq!((s.p10, s.p90), (1.8, 8.2));
        assert_eq!((s.fast(false), s.fast(true)), (1.8, 8.2));
        assert_eq!(undisturbed(&mut [1.0, 1.0, 1.4, 1.0, 1.3], false), 1.0);
        assert_eq!(summarize(&mut [4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(summarize(&mut []).median, 0.0);
        assert_eq!(summarize(&mut [42.0]).median, 42.0);
    }

    #[test]
    fn one_slow_rep_in_five_does_not_move_the_median() {
        assert_eq!(summarize(&mut [1.0, 1.0, 1.35, 1.0, 1.0]).median, 1.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(percentile(&s, 50.0), 25.0);
        assert_eq!(percentile(&s, 250.0), 40.0);
    }

    #[test]
    fn log2_histogram_brackets_its_percentiles() {
        let mut h = Log2Hist::default();
        for _ in 0..99 {
            h.record(300); // bucket 8: [256, 512)
        }
        h.record(70_000); // bucket 16: [65536, 131072)
        assert_eq!(h.count(), 100);
        assert_eq!(h.buckets().len(), 17);
        let p50 = h.percentile(50.0);
        assert!((256.0..512.0).contains(&p50), "{p50}");
        let p99 = h.percentile(99.0);
        assert!((256.0..=512.0).contains(&p99), "{p99}");
        let p100 = h.percentile(100.0);
        assert!((65_536.0..=131_072.0).contains(&p100), "{p100}");
        assert_eq!(Log2Hist::default().percentile(50.0), 0.0);
        let mut z = Log2Hist::default();
        z.record(0);
        assert!(z.percentile(50.0) <= 2.0);
    }
}
