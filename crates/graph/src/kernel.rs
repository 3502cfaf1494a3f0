//! Smoothing kernels used to turn distances into edge weights.
//!
//! The paper builds the similarity matrix as `w_ij = K((X_i − X_j)/h_n)`
//! for a radial kernel `K`. Theorem II.1 requires `K` to satisfy:
//!
//! 1. bounded by some `k* < ∞`,
//! 2. compactly supported,
//! 3. `K ≥ β·1_B` on some closed ball `B` of positive radius `δ`.
//!
//! The compactly supported kernels here ([`Kernel::Epanechnikov`],
//! [`Kernel::Boxcar`], [`Kernel::Triangular`], [`Kernel::Tricube`],
//! [`Kernel::Quartic`]) satisfy all three; the Gaussian RBF — what the
//! paper actually uses in its experiments — violates (ii) but behaves the
//! same in practice because its tails are negligible. [`Kernel`] exposes
//! predicates so callers can check the theorem's conditions explicitly.

use crate::error::{Error, Result};

/// A radial smoothing kernel profile `K(u) = k(‖u‖)`.
///
/// All kernels are normalized so `k(0) = 1` (the paper never needs the
/// density-estimation normalizing constants — only ratios of weights enter
/// the criteria).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Kernel {
    /// Gaussian radial basis function `exp(−t²)`. Not compactly supported;
    /// the paper's experiments use it with `σ = h_n`.
    Gaussian,
    /// Epanechnikov profile `(1 − t²)₊`.
    Epanechnikov,
    /// Boxcar (uniform ball) profile `1{t ≤ 1}`.
    Boxcar,
    /// Triangular profile `(1 − t)₊`.
    Triangular,
    /// Tricube profile `((1 − t³)₊)³`.
    Tricube,
    /// Quartic (biweight) profile `((1 − t²)₊)²`.
    Quartic,
}

impl Kernel {
    /// Evaluates the kernel profile at scaled distance `t = ‖x_i − x_j‖/h`.
    ///
    /// Returns a weight in `[0, 1]`; `t` must be nonnegative (negative
    /// inputs are clamped to 0 by symmetry of radial kernels).
    ///
    /// ```
    /// use gssl_graph::Kernel;
    /// assert_eq!(Kernel::Boxcar.profile(0.5), 1.0);
    /// assert_eq!(Kernel::Boxcar.profile(1.5), 0.0);
    /// assert!((Kernel::Gaussian.profile(1.0) - (-1.0f64).exp()).abs() < 1e-15);
    /// ```
    pub fn profile(self, t: f64) -> f64 {
        let t = t.abs();
        match self {
            Kernel::Gaussian => (-t * t).exp(),
            Kernel::Epanechnikov => (1.0 - t * t).max(0.0),
            Kernel::Boxcar => {
                if t <= 1.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Kernel::Triangular => (1.0 - t).max(0.0),
            Kernel::Tricube => {
                let base = (1.0 - t * t * t).max(0.0);
                base * base * base
            }
            Kernel::Quartic => {
                let base = (1.0 - t * t).max(0.0);
                base * base
            }
        }
    }

    /// Edge weight for a *squared* distance and bandwidth:
    /// `w = K(√dist² / h)`.
    ///
    /// Using the squared distance avoids a square root for the Gaussian
    /// kernel, which is evaluated `O((n+m)²)` times per graph.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBandwidth`] when `bandwidth <= 0` and
    /// [`Error::InvalidArgument`] when `squared_distance` is negative or
    /// NaN.
    pub fn weight(self, squared_distance: f64, bandwidth: f64) -> Result<f64> {
        if !(bandwidth > 0.0) {
            return Err(Error::InvalidBandwidth { value: bandwidth });
        }
        if !(squared_distance >= 0.0) {
            return Err(Error::InvalidArgument {
                message: format!("squared distance must be nonnegative, got {squared_distance}"),
            });
        }
        Ok(self.weight_unchecked(squared_distance, bandwidth))
    }

    /// [`Kernel::weight`] without the argument validation, for hot loops
    /// that have already checked `bandwidth > 0` and `squared_distance >= 0`
    /// once for the whole batch. Produces bit-identical values to
    /// [`Kernel::weight`] on valid inputs.
    /// hot
    pub fn weight_unchecked(self, squared_distance: f64, bandwidth: f64) -> f64 {
        match self {
            // exp(-d²/h²) without the sqrt.
            Kernel::Gaussian => (-squared_distance / (bandwidth * bandwidth)).exp(),
            _ => self.profile(squared_distance.sqrt() / bandwidth),
        }
    }

    /// A distance beyond which [`Kernel::weight_unchecked`] returns
    /// exactly `0.0` at this bandwidth: every squared distance
    /// `d² > r·r` (with `r` the returned radius, squared in `f64`) has
    /// weight `0.0`, so a radius query at `r` finds every nonzero weight.
    ///
    /// For the compact kernels `r = h·(1 + 1e-9)`, not `h`: the weight
    /// is evaluated as `K(√d² / h)`, and `√d² / h` rounds to exactly `1`
    /// for some `d²` just above `h·h` — where the boxcar weight is still
    /// `1`. The relative slack dwarfs that rounding. For the Gaussian,
    /// `exp(−d²/h²)` underflows to `0.0` once `d²/h² > 745.14`, so
    /// `r = h·√746`.
    ///
    /// The guarantee holds whenever `h·h` is a normal `f64` (roughly
    /// `1.5e-154 < h < 1.3e154`); below that, subnormal rounding can
    /// exceed the slack.
    ///
    /// ```
    /// use gssl_graph::Kernel;
    /// let h = 1.0;
    /// let r = Kernel::Boxcar.support_radius(h);
    /// // One ulp beyond h² still rounds to t = 1: weight 1, inside r.
    /// let d2 = f64::from_bits(1.0f64.to_bits() + 1);
    /// assert_eq!(Kernel::Boxcar.weight_unchecked(d2, h), 1.0);
    /// assert!(d2 <= r * r);
    /// assert_eq!(Kernel::Boxcar.weight_unchecked(1.0001 * r * r, h), 0.0);
    /// ```
    pub fn support_radius(self, bandwidth: f64) -> f64 {
        match self {
            Kernel::Gaussian => bandwidth * 746.0f64.sqrt(),
            _ => bandwidth * (1.0 + 1e-9),
        }
    }

    /// Whether the kernel has compact support — condition (ii) of
    /// Theorem II.1.
    pub fn is_compactly_supported(self) -> bool {
        !matches!(self, Kernel::Gaussian)
    }

    /// Upper bound `k*` on the kernel — condition (i). All profiles here
    /// are normalized to peak at 1.
    pub fn upper_bound(self) -> f64 {
        1.0
    }

    /// A pair `(β, δ)` such that `K ≥ β` on the ball of radius `δ` —
    /// condition (iii) of Theorem II.1.
    ///
    /// The choice `δ = 1/2` gives a comfortable positive lower bound for
    /// every profile (including the Gaussian, which satisfies (iii) even
    /// though it fails (ii)).
    pub fn lower_bound_ball(self) -> (f64, f64) {
        let delta = 0.5;
        (self.profile(delta), delta)
    }

    /// Whether the kernel satisfies all three conditions of Theorem II.1.
    pub fn satisfies_consistency_conditions(self) -> bool {
        let (beta, delta) = self.lower_bound_ball();
        self.is_compactly_supported() && self.upper_bound().is_finite() && beta > 0.0 && delta > 0.0
    }

    /// All kernel variants, for sweeps and tests.
    pub fn all() -> [Kernel; 6] {
        [
            Kernel::Gaussian,
            Kernel::Epanechnikov,
            Kernel::Boxcar,
            Kernel::Triangular,
            Kernel::Tricube,
            Kernel::Quartic,
        ]
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Kernel::Gaussian => "gaussian",
            Kernel::Epanechnikov => "epanechnikov",
            Kernel::Boxcar => "boxcar",
            Kernel::Triangular => "triangular",
            Kernel::Tricube => "tricube",
            Kernel::Quartic => "quartic",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_peak_at_one() {
        for k in Kernel::all() {
            assert_eq!(k.profile(0.0), 1.0, "{k} should peak at 1 at the origin");
        }
    }

    #[test]
    fn all_kernels_are_nonincreasing_on_grid() {
        for k in Kernel::all() {
            let mut prev = f64::INFINITY;
            for step in 0..50 {
                let t = step as f64 * 0.1;
                let v = k.profile(t);
                assert!(v <= prev + 1e-15, "{k} increased at t={t}");
                assert!((0.0..=1.0).contains(&v), "{k} out of [0,1] at t={t}");
                prev = v;
            }
        }
    }

    #[test]
    fn compact_kernels_vanish_beyond_support() {
        for k in Kernel::all() {
            if k.is_compactly_supported() {
                assert_eq!(k.profile(1.0 + 1e-9), 0.0, "{k} nonzero outside support");
                assert_eq!(k.profile(5.0), 0.0);
            }
        }
        assert!(Kernel::Gaussian.profile(5.0) > 0.0);
    }

    #[test]
    fn weights_vanish_beyond_the_support_radius() {
        for k in Kernel::all() {
            for h in [1e-100, 0.37, 1.0, 1.5, 3.0, 1e100] {
                let r = k.support_radius(h);
                let r2 = r * r;
                // The first representable squared distances past r²,
                // then a geometric sweep far beyond it.
                let mut d2 = f64::from_bits(r2.to_bits() + 1);
                for _ in 0..64 {
                    assert_eq!(k.weight_unchecked(d2, h), 0.0, "{k} h={h} d2={d2:e}");
                    d2 = f64::from_bits(d2.to_bits() + 1);
                }
                for scale in [1.001, 1.5, 10.0, 1e6] {
                    assert_eq!(k.weight_unchecked(r2 * scale, h), 0.0, "{k} h={h}");
                }
                // Nonzero weights exist inside the radius.
                assert!(k.weight_unchecked(0.25 * h * h, h) > 0.0, "{k} h={h}");
            }
        }
    }

    #[test]
    fn boxcar_is_nonzero_one_ulp_beyond_the_bandwidth() {
        // √(1 + 2⁻⁵²) rounds to 1, so t = 1 and the boxcar weight is 1 at
        // a squared distance strictly above h² = 1.
        let d2 = 1.0 + f64::EPSILON;
        assert!(d2 > 1.0);
        assert_eq!(Kernel::Boxcar.weight_unchecked(d2, 1.0), 1.0);
        let r = Kernel::Boxcar.support_radius(1.0);
        assert!(d2 <= r * r);
    }

    #[test]
    fn profile_is_symmetric_in_sign() {
        for k in Kernel::all() {
            assert_eq!(k.profile(-0.5), k.profile(0.5));
        }
    }

    #[test]
    fn gaussian_weight_matches_paper_formula() {
        // Paper: w_ij = exp(-||xi - xj||² / σ²).
        let sigma = 0.7;
        let dist2 = 0.3;
        let w = Kernel::Gaussian.weight(dist2, sigma).unwrap();
        assert!((w - (-dist2 / (sigma * sigma)).exp()).abs() < 1e-15);
    }

    #[test]
    fn weight_equals_profile_of_scaled_distance() {
        for k in Kernel::all() {
            let h = 2.0;
            let d2 = 1.44; // distance 1.2
            let w = k.weight(d2, h).unwrap();
            assert!(
                (w - k.profile(1.2 / 2.0)).abs() < 1e-12,
                "{k} weight/profile mismatch"
            );
        }
    }

    #[test]
    fn weight_validates_arguments() {
        assert!(matches!(
            Kernel::Gaussian.weight(1.0, 0.0),
            Err(Error::InvalidBandwidth { .. })
        ));
        assert!(matches!(
            Kernel::Gaussian.weight(1.0, -1.0),
            Err(Error::InvalidBandwidth { .. })
        ));
        for k in Kernel::all() {
            for bad in [-0.1, f64::NAN] {
                assert!(
                    matches!(k.weight(bad, 1.0), Err(Error::InvalidArgument { .. })),
                    "{k} accepted the squared distance {bad}"
                );
            }
        }
    }

    #[test]
    fn theorem_conditions() {
        for k in Kernel::all() {
            let (beta, delta) = k.lower_bound_ball();
            assert!(beta > 0.0, "{k} lower bound not positive");
            assert!(delta > 0.0);
            // β really is a lower bound on the ball.
            for step in 0..=10 {
                let t = delta * step as f64 / 10.0;
                assert!(k.profile(t) >= beta - 1e-15, "{k} violates β on ball");
            }
        }
        assert!(Kernel::Epanechnikov.satisfies_consistency_conditions());
        assert!(Kernel::Boxcar.satisfies_consistency_conditions());
        // Gaussian fails compact support, so it does not satisfy the full set.
        assert!(!Kernel::Gaussian.satisfies_consistency_conditions());
    }

    #[test]
    fn display_names() {
        assert_eq!(Kernel::Gaussian.to_string(), "gaussian");
        assert_eq!(Kernel::Tricube.to_string(), "tricube");
    }
}
