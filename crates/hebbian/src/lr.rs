//! Fixed-point learning-rate scales.
//!
//! Integer weights cannot take fractional steps, so scaled learning
//! rates are applied either stochastically (scale < 1: update with
//! probability `scale`) or by multiplying the integer step (scale >=
//! 1). Both paths must stay integer to preserve the Table-2 ops
//! accounting, so the scale itself is a Q24 fixed-point value: `raw /
//! 2^24`. Q24 matches the vendored RNG's uniform-float construction
//! (`(next_u32() >> 8) * 2^-24`), which makes the stochastic
//! apply-check a single integer comparison.

/// A non-negative learning-rate scale in Q24 fixed point.
///
/// `raw == 2^24` is a scale of exactly 1.0; larger values multiply
/// the integer step, smaller ones become update probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LrScale(u32);

impl LrScale {
    /// Number of fractional bits.
    const FRAC_BITS: u32 = 24;
    /// The identity scale (1.0).
    pub const ONE: LrScale = LrScale(1 << Self::FRAC_BITS);
    /// The zero scale (never update).
    pub const ZERO: LrScale = LrScale(0);

    /// The raw Q24 representation.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Boundary constructor from a float configuration knob (e.g. the
    /// replay learning-rate scale of 0.1). Everything downstream of this point
    /// is integer arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative or not finite.
    // hnp-lint: allow-file(integer_purity): this module is the float->Q24 boundary
    pub fn from_f32(x: f32) -> Self {
        assert!(
            x.is_finite() && x >= 0.0,
            "scale must be finite and non-negative"
        );
        let raw = (x as f64 * (1u64 << Self::FRAC_BITS) as f64).round();
        assert!(raw <= u32::MAX as f64, "scale overflows Q24");
        LrScale(raw as u32)
    }

    /// Whether the scale is at least 1.0 (deterministic apply).
    pub const fn at_least_one(self) -> bool {
        self.0 >= Self::ONE.0
    }

    /// Scales an integer step, rounding to nearest.
    pub const fn scale_step(self, step: i16) -> i16 {
        let scaled =
            (step as i64 * self.0 as i64 + (1 << (Self::FRAC_BITS - 1))) >> Self::FRAC_BITS;
        scaled as i16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_step_rounds_to_nearest() {
        assert_eq!(LrScale::ONE.scale_step(4), 4);
        assert_eq!(LrScale::from_f32(2.0).scale_step(4), 8);
        assert_eq!(LrScale::from_f32(1.5).scale_step(1), 2); // 1.5 rounds up.
        assert_eq!(LrScale::from_f32(2.5).scale_step(3), 8); // 7.5 rounds up.
        assert_eq!(LrScale::ZERO.scale_step(4), 0);
    }

    #[test]
    fn at_least_one_boundary() {
        assert!(LrScale::ONE.at_least_one());
        assert!(LrScale::from_f32(1.5).at_least_one());
        assert!(!LrScale(LrScale::ONE.raw() - 1).at_least_one());
        assert!(!LrScale::ZERO.at_least_one());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_scale_panics() {
        let _ = LrScale::from_f32(-0.5);
    }
}
