//! Dependency-free deterministic PRNG: SplitMix64 seeding, xoshiro256**
//! generation.
//!
//! The generator is a pure function of its 64-bit seed; there is no
//! wall-clock or OS-entropy fallback anywhere. Statistical quality is good
//! enough for workload synthesis (the MPKI/fraction calibration tests in
//! `das-workloads` hold to a few percent) while staying a dozen lines of
//! arithmetic.

/// SplitMix64 step: advances `state` and returns the next output. Expands
/// a single `u64` seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator seeded via SplitMix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Creates a generator whose entire future output is determined by
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro256** requires a non-zero state; SplitMix64 cannot emit
        // four consecutive zeros, but keep the guard explicit.
        if s == [0; 4] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Prng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses the widening-multiply technique with a rejection step, so the
    /// distribution is exactly uniform.
    #[inline]
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bounded_u64 needs a non-zero bound");
        // Lemire's method: multiply-shift with rejection of the biased zone.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty range");
        lo + self.bounded_u64(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)`.
    #[inline]
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_stays_in_unit_interval_and_is_roughly_uniform() {
        let mut p = Prng::new(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = p.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut p = Prng::new(9);
        let n = 100_000;
        let hits = (0..n).filter(|_| p.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
        assert!(!(0..100).any(|_| p.gen_bool(0.0)));
        assert!((0..100).all(|_| p.gen_bool(1.0)));
    }

    #[test]
    fn bounded_is_uniform_over_small_ranges() {
        let mut p = Prng::new(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[p.bounded_u64(8) as usize] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut p = Prng::new(13);
        for _ in 0..1000 {
            let v = p.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = p.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
            let u = p.range_usize(0, 5);
            assert!(u < 5);
        }
    }

    #[test]
    fn splitmix_expansion_is_stable() {
        // Pin the seeding path: changing it would silently change every
        // seeded experiment in the workspace.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
    }
}
