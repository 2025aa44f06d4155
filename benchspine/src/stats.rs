//! Order statistics over latency samples.

use std::time::{Duration, Instant};

/// Median of unsorted values (mean of the middle two for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    /// Time `f` and record its latency.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(start.elapsed());
        out
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Append `other`'s samples, each multiplied by `scale`.
    pub fn extend_scaled(&mut self, other: &Samples, scale: f64) {
        self.0
            .extend(other.0.iter().map(|&ns| (ns as f64 * scale) as u64));
    }

    /// The `p`-th percentile (nearest rank) in nanoseconds; 0 when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1] as f64
    }

    pub fn p50_us(&self) -> f64 {
        self.percentile_ns(50.0) / 1e3
    }

    pub fn p95_us(&self) -> f64 {
        self.percentile_ns(95.0) / 1e3
    }

    pub fn p50_ns(&self) -> f64 {
        self.percentile_ns(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut s = Samples::new();
        for us in 1..=100u64 {
            s.push(Duration::from_micros(us));
        }
        assert_eq!(s.p50_us(), 50.0);
        assert_eq!(s.p95_us(), 95.0);
        assert_eq!(s.percentile_ns(100.0), 100_000.0);
        assert_eq!(Samples::new().p95_us(), 0.0);
    }
}
