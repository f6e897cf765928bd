//! Deterministic random streams: integer-only, seeded, and the same on
//! every platform.
//!
//! Two streams share one splitmix64 step:
//!
//! - [`Xoshiro256`] (xoshiro256\*\*, seeded from four splitmix64
//!   outputs) draws the Table 2 and contended workloads;
//! - [`SplitMix64`] draws the generated workloads, the property
//!   runner's inputs ([`crate::prop`]) and the stratified crash points
//!   of large crash sweeps (`proteus_crash::choose_points`).
//!
//! The committed golden, the workgen pin and the benchmark's pinned
//! digests were all captured against these exact streams and their
//! draw arithmetic, so none of it may change: a different bit here is a
//! different workload, or a different crash point, everywhere.

use std::ops::Range;

/// One splitmix64 step (Steele et al., "Fast splittable pseudorandom
/// number generators"): advance `state` and return the mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of `raw` as a uniform `f64` in `[0, 1)`.
fn unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A splitmix64 stream. Deterministic, platform-independent, and good
/// enough statistically for op-mix/skew draws.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform draw in `[0, n)` (`n == 0` yields 0).
    ///
    /// Plain modulo: the bias for the `n` values used here (structure
    /// counts, key ranges far below 2^64) is negligible, and modulo is
    /// trivially reproducible.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

/// A xoshiro256\*\* stream (Blackman and Vigna) seeded from four
/// splitmix64 outputs.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a stream from `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Xoshiro256 { s: std::array::from_fn(|_| splitmix64(&mut sm)) }
    }

    fn next_u64(&mut self) -> u64 {
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

    /// The high 32 bits of one draw.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw in the half-open `range`, by multiply-shift (biased
    /// by at most span/2^64, irrelevant for workload generation).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn random_range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = range.end - range.start;
        range.start + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// True with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        unit_f64(self.next_u64()) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_pinned() {
        // First values of the reference splitmix64 stream for seed 0 —
        // pinned so the generator can never silently drift.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_is_deterministic_and_pinned() {
        // The stream every committed golden was captured against.
        let mut r = Xoshiro256::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0x99EC_5F36_CB75_F2B4);
        assert_eq!(r.next_u64(), 0xBF6E_1F78_4956_452A);
        assert_eq!(r.next_u64(), 0x1A5F_849D_4933_E6E0);
        assert_eq!(r.random_range(0..1000), 416);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
        assert_eq!(r.below(0), 0);
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn range_bounds_hold() {
        let mut r = Xoshiro256::seed_from_u64(1);
        for _ in 0..1000 {
            assert!((10..20).contains(&r.random_range(10..20)));
            assert!(r.random_range(0..3) < 3);
        }
    }

    #[test]
    fn bool_probability_roughly_respected() {
        let mut r = Xoshiro256::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| r.random_bool(0.5)).count();
        assert!((4_000..6_000).contains(&hits), "got {hits}");
        assert!((0..100).all(|_| !r.random_bool(0.0) && r.random_bool(1.0)));
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn empty_range_panics() {
        Xoshiro256::seed_from_u64(0).random_range(5..5);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn out_of_range_probability_panics() {
        Xoshiro256::seed_from_u64(0).random_bool(1.5);
    }
}
