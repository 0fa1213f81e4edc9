//! Differential-tolerance comparators: the correctness language of the fast
//! tier.
//!
//! Strict mode is verified by bit-identity (fingerprints, 0-ULP differential
//! proptests). Fast mode ([`crate::ctx`]) deliberately changes rounding —
//! FMA contraction, per-thread partial sums, f16 weight storage — so its
//! contract is a *bound*, not equality. This module is that bound's single
//! home: the comparators, and the derivation of per-op tolerances from
//! reduction depth, shared by the proptest suites, the exhibits and CI.
//!
//! # How the bounds are derived
//!
//! For a length-`k` inner product evaluated left-to-right in `f32`, the
//! classic forward error bound is
//!
//! ```text
//! |computed − exact| ≤ (k − 1) · ε · Σᵢ |aᵢ·bᵢ|  + O(ε²),   ε = 2⁻²⁴
//! ```
//!
//! (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1). Both
//! the strict kernel and any fast rearrangement — FMA (fewer roundings),
//! k-split partial sums (a shallow reduction tree, ≤ `k` roundings total) —
//! individually satisfy it, so their *difference* satisfies twice it. The
//! scale `Σ|terms|` is computed exactly by running the strict kernel on
//! `|a|`, `|b|` (all-positive inputs make it the true absolute-value sum up
//! to its own ε-bound), which keeps the comparison honest under
//! cancellation: a near-zero output whose terms are large is allowed — and
//! expected — to differ in many ULPs while still being numerically faithful.
//!
//! [`ReductionBound::for_depth`] therefore uses `rel_tol = (2k + 16) · ε`
//! with a tiny absolute floor: monotone in `k`, so **bounds tighten as
//! shapes shrink** — pinned by a test in the tolerance suite. `f32::EPSILON`
//! is `2ε` in the notation above, hence the `(k + 8)` factor in code.

/// Distance between two `f32`s in units in the last place, measured on the
/// monotone integer number line of IEEE-754 floats (negative values mapped
/// below zero). Equal bit patterns give 0; `+0.0` and `-0.0` give 0;
/// any NaN operand gives `u64::MAX`.
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn key(x: f32) -> i64 {
        let b = x.to_bits();
        if b & 0x8000_0000 == 0 {
            i64::from(b)
        } else {
            -i64::from(b & 0x7fff_ffff)
        }
    }
    key(a).abs_diff(key(b))
}

/// Largest ULP distance over two equal-length slices.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn max_ulp_distance(got: &[f32], want: &[f32]) -> u64 {
    assert_eq!(got.len(), want.len(), "ulp comparison length mismatch");
    got.iter()
        .zip(want)
        .map(|(&g, &w)| ulp_distance(g, w))
        .max()
        .unwrap_or(0)
}

/// `|got − want| / max(|want|, floor)` with a `1e-20` floor so exact zeros
/// compare finitely. NaN on either side gives `f32::INFINITY`.
pub fn rel_error(got: f32, want: f32) -> f32 {
    if got.is_nan() || want.is_nan() {
        return f32::INFINITY;
    }
    (got - want).abs() / want.abs().max(1e-20)
}

/// Largest elementwise [`rel_error`] over two equal-length slices.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn max_rel_error(got: &[f32], want: &[f32]) -> f32 {
    assert_eq!(
        got.len(),
        want.len(),
        "rel-error comparison length mismatch"
    );
    got.iter()
        .zip(want)
        .map(|(&g, &w)| rel_error(g, w))
        .fold(0.0, f32::max)
}

/// A per-operation tolerance derived from reduction depth (see the module
/// docs for the derivation). Checked as
/// `|got − want| ≤ rel_tol · scale + abs_floor` per element, where `scale`
/// is the element's exact absolute-term sum `Σ|terms|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionBound {
    /// Relative tolerance against the absolute-value scale.
    pub rel_tol: f32,
    /// Absolute floor so zero-scale elements (all-zero terms) compare.
    pub abs_floor: f32,
}

impl ReductionBound {
    /// The bound for a reduction of `depth` sequentially accumulated terms
    /// per output element. `rel_tol = (depth + 8) · f32::EPSILON` — twice
    /// the one-sided Higham bound plus slack for the k-split reduction tree.
    pub fn for_depth(depth: usize) -> Self {
        Self {
            rel_tol: (depth as f32 + 8.0) * f32::EPSILON,
            abs_floor: 1e-12,
        }
    }

    /// Matmul with inner dimension `k`: depth `k`.
    pub fn matmul(k: usize) -> Self {
        Self::for_depth(k)
    }

    /// Dense conv2d lowered to im2col GEMM: depth `c_in · kh · kw`.
    pub fn conv2d(c_in: usize, kh: usize, kw: usize) -> Self {
        Self::for_depth(c_in * kh * kw)
    }

    /// Depthwise conv: each output element reduces `kh · kw` taps.
    pub fn dwconv(kh: usize, kw: usize) -> Self {
        Self::for_depth(kh * kw)
    }

    /// Elementwise kernels (Adam): a constant handful of roundings per
    /// element, no reduction.
    pub fn elementwise() -> Self {
        Self::for_depth(16)
    }

    /// The allowed absolute difference for one element of scale `scale`.
    pub fn allowance(&self, scale: f32) -> f32 {
        self.rel_tol * scale.abs() + self.abs_floor
    }

    /// Checks `got` against `want` elementwise, each element scaled by its
    /// exact absolute-term sum. Returns the first violation.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn check(&self, got: &[f32], want: &[f32], scale: &[f32]) -> Result<(), BoundViolation> {
        assert_eq!(got.len(), want.len(), "bound check length mismatch");
        assert_eq!(got.len(), scale.len(), "bound scale length mismatch");
        for (i, ((&g, &w), &s)) in got.iter().zip(want).zip(scale).enumerate() {
            let allowed = self.allowance(s);
            let diff = (g - w).abs();
            // Negated so a NaN diff (NaN in either operand) is a violation,
            // never a pass.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(diff <= allowed) {
                return Err(BoundViolation {
                    index: i,
                    got: g,
                    want: w,
                    scale: s,
                    diff,
                    allowed,
                    ulps: ulp_distance(g, w),
                });
            }
        }
        Ok(())
    }

    /// Like [`Self::check`] with one uniform scale for every element —
    /// for elementwise ops where `Σ|terms|` has no meaning and a magnitude
    /// cap is the honest scale.
    pub fn check_uniform(
        &self,
        got: &[f32],
        want: &[f32],
        scale: f32,
    ) -> Result<(), BoundViolation> {
        assert_eq!(got.len(), want.len(), "bound check length mismatch");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            let allowed = self.allowance(scale);
            let diff = (g - w).abs();
            // Negated so a NaN diff is a violation, never a pass.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(diff <= allowed) {
                return Err(BoundViolation {
                    index: i,
                    got: g,
                    want: w,
                    scale,
                    diff,
                    allowed,
                    ulps: ulp_distance(g, w),
                });
            }
        }
        Ok(())
    }
}

/// One element that broke a [`ReductionBound`] — everything a failure
/// message needs to be debugged without rerunning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundViolation {
    /// Flat index of the offending element.
    pub index: usize,
    /// Fast-path value.
    pub got: f32,
    /// Strict-oracle value.
    pub want: f32,
    /// The element's absolute-term-sum scale.
    pub scale: f32,
    /// `|got − want|`.
    pub diff: f32,
    /// The allowance that was exceeded.
    pub allowed: f32,
    /// ULP distance between the two values.
    pub ulps: u64,
}

impl std::fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "element {}: fast {} vs strict {} differ by {:.3e} ({} ulps) > allowed {:.3e} at scale {:.3e}",
            self.index, self.got, self.want, self.diff, self.ulps, self.allowed, self.scale
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        // Crossing zero counts both sides' ladders.
        assert_eq!(ulp_distance(f32::from_bits(2), -f32::from_bits(3)), 5);
        assert_eq!(ulp_distance(f32::NAN, 1.0), u64::MAX);
    }

    #[test]
    fn rel_error_handles_zero_and_nan() {
        assert_eq!(rel_error(1.0, 1.0), 0.0);
        assert!(rel_error(1e-7, 0.0).is_finite());
        assert_eq!(rel_error(f32::NAN, 1.0), f32::INFINITY);
        assert_eq!(max_rel_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn bounds_tighten_as_depth_shrinks() {
        let wide = ReductionBound::matmul(4096);
        let narrow = ReductionBound::matmul(8);
        assert!(narrow.rel_tol < wide.rel_tol);
        assert!(ReductionBound::dwconv(3, 3).rel_tol < ReductionBound::conv2d(16, 3, 3).rel_tol);
    }

    #[test]
    fn check_reports_the_first_violation() {
        let bound = ReductionBound::for_depth(8);
        let want = [1.0f32, 2.0, 3.0];
        let scale = [1.0f32, 2.0, 3.0];
        assert!(bound.check(&want, &want, &scale).is_ok());
        let got = [1.0f32, 2.5, 3.0];
        let err = bound.check(&got, &want, &scale).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.diff > err.allowed);
        let msg = err.to_string();
        assert!(
            msg.contains("element 1"),
            "display should name the index: {msg}"
        );
    }

    #[test]
    fn nan_never_passes() {
        let bound = ReductionBound::for_depth(8);
        assert!(bound.check(&[f32::NAN], &[1.0], &[1.0]).is_err());
        assert!(bound.check_uniform(&[f32::NAN], &[1.0], 1.0).is_err());
    }
}
