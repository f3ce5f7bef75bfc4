//! Preallocated log-linear latency histogram (HDR style).
//!
//! Values below `2^P` get a bucket each; above that every octave is split
//! into `2^(P-1)` equal buckets, so a bucket is never wider than
//! `1/2^(P-1)` of the values it holds (0.78% with `P = 8`). The whole
//! table is allocated once: recording a value never allocates, so the
//! harness's memory does not grow with the number of ops it times.

const P: u32 = 8;
const HALF: u64 = 1 << (P - 1);
const BUCKETS: usize = (64 - P as usize + 2) * HALF as usize;

#[derive(Clone, Debug)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist::new()
    }
}

fn index_of(v: u64) -> usize {
    if v < (1 << P) {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - (P - 1);
    (u64::from(shift) * HALF + (v >> shift)) as usize
}

/// `(lower bound, width)` of bucket `i`.
fn bucket_span(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < (1 << P) {
        return (i, 1);
    }
    let shift = i / HALF - 1;
    ((i - shift * HALF) << shift, 1 << shift)
}

impl LogHist {
    pub fn new() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` (the `ceil(q * n)`-th smallest), linearly
    /// interpolated inside its bucket, so the error is below one bucket
    /// width. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut before = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if before + n >= rank {
                let (lower, width) = bucket_span(i);
                let within = (rank - before) as f64 - 0.5;
                return lower as f64 + width as f64 * within / n as f64;
            }
            before += n;
        }
        unreachable!("rank {rank} within total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expect_lower = 0u64;
        for i in 0..BUCKETS - 1 {
            let (lower, width) = bucket_span(i);
            assert_eq!(lower, expect_lower, "bucket {i} leaves a gap");
            assert_eq!(index_of(lower), i);
            assert_eq!(index_of(lower + width - 1), i);
            expect_lower = lower + width;
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_sorted_reference_within_bucket_error() {
        let mut rng = SplitMix64::new(42);
        let mut hist = LogHist::new();
        let mut values = Vec::new();
        for _ in 0..200_000 {
            // Log-uniform over ~100 ns .. ~10 ms, like request latencies.
            let v = (100.0 * (1e5f64).powf(rng.next_f64())) as u64;
            hist.record(v);
            values.push(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64;
            let got = hist.quantile(q);
            let (_, width) = bucket_span(index_of(values[rank - 1]));
            assert!(
                (got - exact).abs() <= width as f64,
                "q={q}: hist {got} vs exact {exact} (bucket width {width})"
            );
            assert!((got - exact).abs() / exact <= 1.0 / HALF as f64);
        }
        let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        assert!((hist.mean() - mean).abs() < 1e-6 * mean);
    }

    #[test]
    fn small_values_are_exact() {
        let mut hist = LogHist::new();
        for v in [3u64, 3, 5, 200] {
            hist.record(v);
        }
        assert_eq!(hist.quantile(0.5).floor(), 3.0);
        assert_eq!(hist.quantile(1.0).floor(), 200.0);
        assert_eq!(hist.count(), 4);
    }
}
