//! Sample statistics, the report digest and the seed-derived inputs.
//!
//! Everything the `--seed` argument influences flows through [`SeedStream`],
//! so the seed is the only source of variation between two runs of one
//! workload.

/// The fewest samples a reported percentile must leave beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Rank (1-based) of the nearest-rank `p`-th percentile of `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// The nearest-rank `p`-th percentile (`1..=100`) of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `1..=100`.
#[must_use]
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The highest whole percentile of `n` samples that still has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, or `None` when even the median
/// has fewer.
#[must_use]
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n > 0 && n - nearest_rank(n, p) >= MIN_TAIL_SAMPLES)
}

/// The median of `values` (mean of the middle two for an even count), or
/// `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// A latency sample in milliseconds, summarised by the percentile rule.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    /// Records one sample.
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Latencies) {
        self.ms.extend_from_slice(&other.ms);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// The `p`-th percentile, or `0.0` without samples.
    #[must_use]
    pub fn percentile(&self, p: u32) -> f64 {
        if self.ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }

    /// One line naming the sample count and the highest percentile it
    /// supports.
    #[must_use]
    pub fn describe(&self) -> String {
        match highest_supported_percentile(self.len()) {
            Some(p) => format!("n={}, supports up to p{p}", self.len()),
            None => format!("n={}, too few samples for any tail", self.len()),
        }
    }
}

/// FNV-1a 64 over `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64: the benchmark's only random source, seeded by `--seed`.
#[derive(Debug, Clone)]
pub struct SeedStream {
    state: u64,
}

impl SeedStream {
    /// A stream for `seed`, separated per use by `domain` so that two
    /// inputs derived from one seed are independent.
    #[must_use]
    pub fn new(seed: u64, domain: u64) -> Self {
        let mut stream = SeedStream {
            state: seed ^ domain.wrapping_mul(0xA076_1D64_78BD_642F),
        };
        stream.next_u64();
        stream
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `bound` (`bound > 0`).
    fn below(&mut self, bound: usize) -> usize {
        // The modulo bias is below 2^-40 for the list lengths used here.
        (self.next_u64() % bound as u64) as usize
    }

    /// `0..n` in a seed-determined order (Fisher–Yates).
    #[must_use]
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 5.0);
        assert_eq!(percentile(&sorted, 90), 9.0);
        assert_eq!(percentile(&sorted, 91), 10.0);
        assert_eq!(percentile(&sorted, 100), 10.0);
        assert_eq!(percentile(&[7.0], 1), 7.0);
    }

    #[test]
    fn highest_percentile_leaves_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(56), Some(82));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1064), Some(99));
        for n in 20..2000 {
            let p = highest_supported_percentile(n).expect("n >= 20");
            assert!(n - nearest_rank(n, p) >= MIN_TAIL_SAMPLES, "n={n} p={p}");
            if p < 99 {
                assert!(n - nearest_rank(n, p + 1) < MIN_TAIL_SAMPLES, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn latencies_report_their_support() {
        let mut lat = Latencies::default();
        for i in 0..99 {
            lat.push(f64::from(i));
        }
        assert_eq!(lat.describe(), "n=99, supports up to p89");
        lat.push(99.0);
        assert_eq!(lat.percentile(50), 49.0);
        assert_eq!(lat.describe(), "n=100, supports up to p90");
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn seed_alone_determines_the_inputs() {
        let a = SeedStream::new(7, 1).permutation(50);
        assert_eq!(a, SeedStream::new(7, 1).permutation(50));
        assert_ne!(a, SeedStream::new(8, 1).permutation(50));
        assert_ne!(a, SeedStream::new(7, 2).permutation(50));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut s = SeedStream::new(3, 0);
        let draws: Vec<u64> = (0..4).map(|_| s.next_u64()).collect();
        let mut t = SeedStream::new(3, 0);
        assert_eq!(draws, (0..4).map(|_| t.next_u64()).collect::<Vec<_>>());
    }
}
