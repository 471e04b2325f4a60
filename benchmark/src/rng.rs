//! The seeded generator every workload draws its inputs from.

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated from other uses of the same
    /// seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random ordering of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix;

    #[test]
    fn same_seed_same_stream_same_draws() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::new(7, 1).next_u64(),
            SplitMix::new(7, 2).next_u64()
        );
        let mut p = SplitMix::new(3, 0).permutation(28);
        p.sort_unstable();
        assert_eq!(p, (0..28).collect::<Vec<_>>());
    }
}
