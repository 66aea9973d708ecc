//! A Zipf-distributed sampler.
//!
//! Application generators use this for the skewed reuse seen in graph
//! vertices and key-value keys. Implemented with an inverse-CDF table
//! so sampling is O(log n) and exactly reproducible.

use rand::Rng;

/// A Zipf distribution over ranks `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution. `s = 0` is uniform; typical workload
    /// skews are `s` in 0.7..1.1.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "empty support");
        assert!(s.is_finite() && s >= 0.0, "bad exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Samples a rank in `0..n` (0 is the most popular).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn skewed_sampling_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[500]);
        // Rank 0 of Zipf(1.0, 1000) carries ~13 % of the mass.
        assert!(counts[0] > 8_000, "rank-0 count {}", counts[0]);
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }
}
