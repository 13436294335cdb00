//! A small deterministic PRNG for workload generation and fault injection.
//!
//! SplitMix64: tiny, fast, and — unlike thread-local or OS-seeded
//! generators — exactly reproducible from a seed, which every experiment
//! requires. It is the workspace's only randomness source: the default
//! build is hermetic (no external crates), so workload generation, fault
//! injection, and the differential fuzz loops all seed from here.

/// What each draw adds to the state.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits → [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform value in `[0, n)`; `n = 0` yields `0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`; NaN
    /// never hits). Always one draw, so a rate never shifts the stream.
    pub fn chance(&mut self, p: f64) -> bool {
        if p > 0.0 && p < 1.0 {
            return self.next_f64() < p;
        }
        // A draw in [0, 1) cannot change the answer: step past it unmixed.
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        p >= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    /// `chance` as it was before its fixed answers skipped the mix.
    fn chance_by_drawing(r: &mut SplitMix64, p: f64) -> bool {
        r.next_f64() < p.clamp(0.0, 1.0)
    }

    #[test]
    fn chance_answers_and_steps_as_a_full_draw_would() {
        let ps = [-1.0, 0.0, 1e-12, 0.25, 1.0, 2.0, f64::NAN];
        for seed in 0..64 {
            let (mut fast, mut full) = (SplitMix64::new(seed), SplitMix64::new(seed));
            let mut pick = SplitMix64::new(!seed);
            for _ in 0..1_000 {
                let p = ps[pick.below(ps.len() as u64) as usize];
                assert_eq!(fast.chance(p), chance_by_drawing(&mut full, p), "p = {p}");
                assert_eq!(fast.next_u64(), full.next_u64(), "stream after p = {p}");
            }
        }
    }

    #[test]
    fn below_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn chance_rate_is_roughly_p() {
        let mut r = SplitMix64::new(1234);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
    }
}
