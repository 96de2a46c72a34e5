//! A log-linear latency histogram with in-bucket interpolation.
//!
//! Exact below 8192 ns; above that, 512 sub-buckets per power of two
//! (≤ 0.2 % bucket width). Quantiles interpolate inside the bucket, so
//! a median is a measured value with all its digits, not a bucket edge.

const LINEAR: u64 = 8192;
const LINEAR_BITS: u32 = 13;
const SUB_BITS: u32 = 9;
const SUBS: usize = 1 << SUB_BITS;
const BUCKETS: usize = LINEAR as usize + (64 - LINEAR_BITS as usize) * SUBS;

#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u32>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            buckets: Vec::new(),
            n: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) as usize & (SUBS - 1);
        LINEAR as usize + (e - LINEAR_BITS) as usize * SUBS + sub
    }

    /// `(low edge, width)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < LINEAR as usize {
            return (i as f64, 1.0);
        }
        let j = i - LINEAR as usize;
        let e = LINEAR_BITS + (j / SUBS) as u32;
        let sub = (j % SUBS) as u64;
        let shift = e - SUB_BITS;
        (
            ((SUBS as u64 + sub) << shift) as f64,
            (1u64 << shift) as f64,
        )
    }

    pub fn record(&mut self, v: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        self.buckets[Hist::index(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.n == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q` quantile (0..=1), interpolated inside its bucket; 0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * (self.n - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + u64::from(c)) as f64 > rank {
                let (lo, width) = Hist::bounds(i);
                let frac = (rank - below as f64 + 0.5) / f64::from(c);
                return lo + width * frac.min(1.0);
            }
            below += u64::from(c);
        }
        unreachable!("rank below n always lands in a bucket")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip() {
        for v in [
            0u64,
            1,
            8191,
            8192,
            8193,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 3,
        ] {
            let (lo, width) = Hist::bounds(Hist::index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "{v}");
        }
    }

    #[test]
    fn quantiles_track_the_data() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.01, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.01, "{p99}");
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }
}
