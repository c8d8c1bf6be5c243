//! Order statistics and the deterministic seed stream.

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// splitmix64: the seed stream every workload draws its inputs from.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, kept apart from other streams by `salt`. Both
    /// go through the output mix first: seeding with a plain multiple of
    /// the increment would make streams of nearby salts shifted copies of
    /// each other.
    pub fn new(seed: u64, salt: u64) -> SplitMix {
        let salted = SplitMix(salt).next_u64();
        SplitMix(SplitMix(seed ^ salted).next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn seed_streams_repeat() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        // Streams of nearby salts must not be shifted copies of each other.
        let first: Vec<u64> = {
            let mut r = SplitMix::new(1, 100);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let mut other = SplitMix::new(1, 101);
        assert!((0..64).all(|_| !first.contains(&other.next_u64())));
    }
}
