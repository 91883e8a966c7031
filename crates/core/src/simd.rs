//! Fixed-width SIMD lane types for the batch-evaluation engine.
//!
//! The paper's uniform-bucket segment index exists so that PWL evaluation
//! can run *wide*: locating a segment is a subtract, a multiply and two
//! comparisons — no data-dependent branches — and the evaluation itself is
//! one multiply-add. Everything except the two table reads per element is
//! lane-parallel arithmetic. This module provides the lane types the
//! engine's kernels are written against:
//!
//! * [`F64x4`] — four `f64` lanes (one 256-bit AVX2 register),
//! * [`F32x8`] — eight `f32` lanes (the same register, single precision).
//!
//! Both implement [`Lanes`] (with [`LaneMask`] for their comparison
//! masks), the one interface the engine's portable kernels are written
//! against: each [`crate::Element`] names its lane type, so one generic
//! kernel source serves both precisions.
//!
//! # Why arrays and not intrinsics?
//!
//! Each type wraps a plain fixed-size array and implements its operations
//! as per-lane loops. That shape is deliberately boring: LLVM's loop and
//! SLP vectorizers provably lower these loops to packed vector
//! instructions whenever the target has them, and the engine compiles its
//! hot kernels twice — once for the baseline target and once under
//! `#[target_feature(enable = "avx2")]`, selected at runtime — so the
//! packed form is actually emitted on the machines that matter without a
//! single platform intrinsic in the source. (The engine's AVX-512
//! kernels are the one exception — hardware gathers have no
//! autovectorized spelling.) Comparisons produce explicit all-ones/all-zeros
//! [`M64x4`]/[`M32x8`] bitmasks and selection is a float-domain blend,
//! exactly the `cmppd`/`blendvpd` idiom the hardware executes.
//!
//! With the `std-simd` feature (nightly toolchains only) the arithmetic,
//! comparison and select methods above swap their bodies for `core::simd`
//! portable SIMD, which guarantees vector lowering instead of merely
//! arranging for it. The API and the per-lane results are identical
//! either way.
//!
//! # Bit-exactness
//!
//! Every operation performs the same IEEE-754 f64/f32 operations a scalar
//! loop would, in the same order, with no fused multiply-add contraction —
//! so kernels built from these types stay bit-identical to their scalar
//! references. NaN behaves exactly as in scalar code: comparisons with a
//! NaN lane are false and [`Lanes::is_nan`] exposes the usual `x != x`
//! test as a mask.
//!
//! # Examples
//!
//! ```
//! use flexsfu_core::simd::{F64x4, LaneMask, Lanes};
//!
//! let x = F64x4::from_array([1.0, -2.0, f64::NAN, 8.0]);
//! let threshold = F64x4::splat(0.0);
//! // Branchless ReLU: mask-select between x and 0, NaN lanes keep NaN.
//! let y = x.ge(threshold).select(x, threshold);
//! assert_eq!(y.to_array()[0], 1.0);
//! assert_eq!(y.to_array()[1], 0.0);
//! assert!(y.to_array()[2].is_nan() || y.to_array()[2] == 0.0);
//! ```

use std::ops::{Add, Mul, Sub};

/// A fixed-width vector of float lanes: the operations the engine's
/// portable kernels use, with per-lane IEEE semantics.
pub trait Lanes: Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> {
    /// The scalar type of one lane.
    type Elem: Copy;
    /// The per-lane comparison mask.
    type Mask: LaneMask<Self>;
    /// Number of lanes.
    const LANES: usize;

    /// All lanes set to `v`.
    fn splat(v: Self::Elem) -> Self;

    /// Loads the first `LANES` elements of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is shorter than the lane count.
    fn from_slice(s: &[Self::Elem]) -> Self;

    /// Stores the lanes into the first `LANES` elements of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the lane count.
    fn write_to(self, out: &mut [Self::Elem]);

    /// Per-lane `self < rhs` as an all-ones/all-zeros mask.
    /// Lanes comparing against NaN are false (all-zeros).
    fn lt(self, rhs: Self) -> Self::Mask;

    /// Per-lane `self <= rhs` mask (false on NaN).
    fn le(self, rhs: Self) -> Self::Mask;

    /// Per-lane `self >= rhs` mask (false on NaN).
    fn ge(self, rhs: Self) -> Self::Mask;

    /// Per-lane NaN test (`x != x`) as a mask.
    fn is_nan(self) -> Self::Mask;
}

/// A per-lane all-ones/all-zeros mask over the lanes of `V`.
pub trait LaneMask<V>: Copy {
    /// Per-lane blend: the lane from `t` where the mask is set, from `f`
    /// otherwise — the float-domain select the hardware's `blendv`
    /// executes. NaN payloads pass through unchanged.
    fn select(self, t: V, f: V) -> V;

    /// Per-lane `1.0` where set, `0.0` where clear (a packed compare +
    /// AND with the constant `1.0`), so branchless counting is
    /// `acc + mask.ones()`.
    fn ones(self) -> V;
}

macro_rules! lane_type {
    (
        $(#[$doc:meta])* $vec:ident,
        $(#[$mdoc:meta])* $mask:ident,
        $elem:ty, $bits:ty, $ibits:ty, $lanes:expr, $simd:ident
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        #[repr(transparent)]
        pub struct $vec(pub [$elem; $lanes]);

        $(#[$mdoc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(transparent)]
        pub struct $mask(pub [$bits; $lanes]);

        impl $vec {
            /// Wraps an array of lanes.
            #[inline(always)]
            pub fn from_array(a: [$elem; $lanes]) -> Self {
                Self(a)
            }

            /// The lanes as an array.
            #[inline(always)]
            pub fn to_array(self) -> [$elem; $lanes] {
                self.0
            }

            // `core::simd`-backed view for the nightly-only `std-simd`
            // feature: identical results (same IEEE operations per lane),
            // but vector lowering is guaranteed by the portable-SIMD
            // backend instead of arranged for via the autovectorizer.
            #[cfg(feature = "std-simd")]
            #[inline(always)]
            fn s(self) -> core::simd::$simd {
                core::simd::$simd::from_array(self.0)
            }
        }

        impl Lanes for $vec {
            type Elem = $elem;
            type Mask = $mask;
            const LANES: usize = $lanes;

            #[inline(always)]
            fn splat(v: $elem) -> Self {
                Self([v; $lanes])
            }

            #[inline(always)]
            fn from_slice(s: &[$elem]) -> Self {
                let mut a = [0.0; $lanes];
                a.copy_from_slice(&s[..$lanes]);
                Self(a)
            }

            #[inline(always)]
            fn write_to(self, out: &mut [$elem]) {
                out[..$lanes].copy_from_slice(&self.0);
            }

            #[cfg(not(feature = "std-simd"))]
            #[inline(always)]
            fn lt(self, rhs: Self) -> $mask {
                let mut m = [0; $lanes];
                for i in 0..$lanes {
                    m[i] = ((self.0[i] < rhs.0[i]) as $bits).wrapping_neg();
                }
                $mask(m)
            }

            #[cfg(not(feature = "std-simd"))]
            #[inline(always)]
            fn le(self, rhs: Self) -> $mask {
                let mut m = [0; $lanes];
                for i in 0..$lanes {
                    m[i] = ((self.0[i] <= rhs.0[i]) as $bits).wrapping_neg();
                }
                $mask(m)
            }

            #[cfg(not(feature = "std-simd"))]
            #[inline(always)]
            fn ge(self, rhs: Self) -> $mask {
                let mut m = [0; $lanes];
                for i in 0..$lanes {
                    m[i] = ((self.0[i] >= rhs.0[i]) as $bits).wrapping_neg();
                }
                $mask(m)
            }

            #[cfg(not(feature = "std-simd"))]
            #[inline(always)]
            fn is_nan(self) -> $mask {
                let mut m = [0; $lanes];
                for i in 0..$lanes {
                    #[allow(clippy::eq_op)]
                    {
                        m[i] = ((self.0[i] != self.0[i]) as $bits).wrapping_neg();
                    }
                }
                $mask(m)
            }

            #[cfg(feature = "std-simd")]
            #[inline(always)]
            fn lt(self, rhs: Self) -> $mask {
                use core::simd::cmp::SimdPartialOrd;
                $mask(self.s().simd_lt(rhs.s()).to_array().map(|b| (b as $bits).wrapping_neg()))
            }

            #[cfg(feature = "std-simd")]
            #[inline(always)]
            fn le(self, rhs: Self) -> $mask {
                use core::simd::cmp::SimdPartialOrd;
                $mask(self.s().simd_le(rhs.s()).to_array().map(|b| (b as $bits).wrapping_neg()))
            }

            #[cfg(feature = "std-simd")]
            #[inline(always)]
            fn ge(self, rhs: Self) -> $mask {
                use core::simd::cmp::SimdPartialOrd;
                $mask(self.s().simd_ge(rhs.s()).to_array().map(|b| (b as $bits).wrapping_neg()))
            }

            #[cfg(feature = "std-simd")]
            #[inline(always)]
            fn is_nan(self) -> $mask {
                use core::simd::num::SimdFloat;
                $mask(self.s().is_nan().to_array().map(|b| (b as $bits).wrapping_neg()))
            }
        }

        #[cfg(not(feature = "std-simd"))]
        impl Add for $vec {
            type Output = Self;
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                let mut o = self.0;
                for i in 0..$lanes {
                    o[i] += rhs.0[i];
                }
                Self(o)
            }
        }

        #[cfg(not(feature = "std-simd"))]
        impl Sub for $vec {
            type Output = Self;
            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                let mut o = self.0;
                for i in 0..$lanes {
                    o[i] -= rhs.0[i];
                }
                Self(o)
            }
        }

        #[cfg(not(feature = "std-simd"))]
        impl Mul for $vec {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                let mut o = self.0;
                for i in 0..$lanes {
                    o[i] *= rhs.0[i];
                }
                Self(o)
            }
        }

        #[cfg(feature = "std-simd")]
        impl Add for $vec {
            type Output = Self;
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                Self((self.s() + rhs.s()).to_array())
            }
        }

        #[cfg(feature = "std-simd")]
        impl Sub for $vec {
            type Output = Self;
            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                Self((self.s() - rhs.s()).to_array())
            }
        }

        #[cfg(feature = "std-simd")]
        impl Mul for $vec {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                Self((self.s() * rhs.s()).to_array())
            }
        }

        impl $mask {
            /// Whether any lane is set.
            #[inline(always)]
            pub fn any(self) -> bool {
                let mut acc = 0;
                for i in 0..$lanes {
                    acc |= self.0[i];
                }
                acc != 0
            }

            /// The `core::simd` mask this bit-pattern encodes (lanes are
            /// all-ones or all-zeros by construction).
            #[cfg(feature = "std-simd")]
            #[inline(always)]
            fn m(self) -> core::simd::Mask<$ibits, $lanes> {
                core::simd::Mask::from_array(self.0.map(|b| b != 0))
            }
        }

        impl LaneMask<$vec> for $mask {
            // The body is a per-lane conditional on purpose: the backend
            // folds `mask != 0` back into the comparison that produced
            // the mask and emits a packed compare + blend, whereas an
            // explicit bitwise `(m & t) | (!m & f)` would drag the lanes
            // through integer registers and scalarize the whole kernel.
            #[cfg(not(feature = "std-simd"))]
            #[inline(always)]
            fn select(self, t: $vec, f: $vec) -> $vec {
                let mut o = [0.0; $lanes];
                for i in 0..$lanes {
                    o[i] = if self.0[i] != 0 { t.0[i] } else { f.0[i] };
                }
                $vec(o)
            }

            #[cfg(not(feature = "std-simd"))]
            #[inline(always)]
            fn ones(self) -> $vec {
                let mut o = [0.0; $lanes];
                for i in 0..$lanes {
                    o[i] = if self.0[i] != 0 { 1.0 } else { 0.0 };
                }
                $vec(o)
            }

            #[cfg(feature = "std-simd")]
            #[inline(always)]
            fn select(self, t: $vec, f: $vec) -> $vec {
                use core::simd::Select;
                $vec(self.m().select(t.s(), f.s()).to_array())
            }

            #[cfg(feature = "std-simd")]
            #[inline(always)]
            fn ones(self) -> $vec {
                use core::simd::Select;
                $vec(self
                    .m()
                    .select(core::simd::$simd::splat(1.0), core::simd::$simd::splat(0.0))
                    .to_array())
            }
        }
    };
}

lane_type!(
    /// Four `f64` lanes — one 256-bit register on AVX2 targets.
    F64x4,
    /// Per-lane all-ones/all-zeros mask over four `f64` lanes.
    M64x4,
    f64,
    u64,
    i64,
    4,
    f64x4
);

lane_type!(
    /// Eight `f32` lanes — one 256-bit register on AVX2 targets.
    F32x8,
    /// Per-lane all-ones/all-zeros mask over eight `f32` lanes.
    M32x8,
    f32,
    u32,
    i32,
    8,
    f32x8
);

impl F64x4 {
    /// Per-lane truncating conversion to `usize` indices.
    ///
    /// # Safety
    ///
    /// Every lane must be finite, non-negative after truncation, and
    /// representable in `usize` — the engine guarantees this by clamping
    /// to a table's index range (and screening NaN to lane value `0.0`)
    /// before converting.
    #[inline(always)]
    pub unsafe fn to_indices(self) -> [usize; 4] {
        let mut idx = [0usize; 4];
        for i in 0..4 {
            idx[i] = self.0[i].to_int_unchecked::<usize>();
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_bit_identical_to_scalar() {
        let a = [1.5, -0.0, 1e300, -7.25];
        let b = [2.5, 3.0, 1e300, 0.1];
        let va = F64x4::from_array(a);
        let vb = F64x4::from_array(b);
        let sum = (va + vb).to_array();
        let dif = (va - vb).to_array();
        let prd = (va * vb).to_array();
        for i in 0..4 {
            assert_eq!(sum[i].to_bits(), (a[i] + b[i]).to_bits());
            assert_eq!(dif[i].to_bits(), (a[i] - b[i]).to_bits());
            assert_eq!(prd[i].to_bits(), (a[i] * b[i]).to_bits());
        }
    }

    #[test]
    fn masks_match_scalar_comparisons() {
        let a = F64x4::from_array([1.0, 2.0, f64::NAN, -1.0]);
        let b = F64x4::from_array([2.0, 2.0, 1.0, f64::NEG_INFINITY]);
        assert_eq!(a.lt(b).0, [u64::MAX, 0, 0, 0]);
        assert_eq!(a.le(b).0, [u64::MAX, u64::MAX, 0, 0]);
        assert_eq!(a.ge(b).0, [0, u64::MAX, 0, u64::MAX]);
        assert_eq!(a.is_nan().0, [0, 0, u64::MAX, 0]);
        assert!(a.is_nan().any());
        assert!(!F64x4::splat(0.0).is_nan().any());
    }

    #[test]
    fn select_blends_per_lane_and_preserves_nan_payload() {
        let m = M64x4([u64::MAX, 0, u64::MAX, 0]);
        let t = F64x4::from_array([1.0, 1.0, f64::NAN, 1.0]);
        let f = F64x4::from_array([-1.0, -1.0, -1.0, -1.0]);
        let y = m.select(t, f).to_array();
        assert_eq!(y[0], 1.0);
        assert_eq!(y[1], -1.0);
        assert_eq!(y[2].to_bits(), f64::NAN.to_bits());
        assert_eq!(y[3], -1.0);
    }

    #[test]
    fn ones_counts_branchlessly() {
        let xs = F64x4::from_array([0.5, 1.5, 2.5, 3.5]);
        let mut count = F64x4::splat(0.0);
        for b in [1.0, 2.0, 3.0] {
            count = count + F64x4::splat(b).lt(xs).ones();
        }
        assert_eq!(count.to_array(), [0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn indices_roundtrip_after_clamp() {
        let v = F64x4::from_array([0.0, 1.9, 1022.01, 1023.0]);
        // SAFETY: all lanes finite, non-negative, and small.
        let idx = unsafe { v.to_indices() };
        assert_eq!(idx, [0, 1, 1022, 1023]);
    }

    #[test]
    fn slice_roundtrip() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        let v = F64x4::from_slice(&data);
        let mut out = [0.0; 4];
        v.write_to(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn f32_lanes_behave_like_f64_lanes() {
        let a = F32x8::splat(2.0);
        let b = F32x8::from_array([1.0, 2.0, 3.0, f32::NAN, 0.0, -1.0, 2.0, 5.0]);
        let m = b.lt(a);
        assert_eq!(m.0, [u32::MAX, 0, 0, 0, u32::MAX, u32::MAX, 0, 0]);
        let y = (a * b).to_array();
        assert_eq!(y[0], 2.0);
        assert!(y[3].is_nan());
        let picked = m.select(F32x8::splat(1.0), F32x8::splat(0.0)).to_array();
        assert_eq!(picked[0], 1.0);
        assert_eq!(picked[1], 0.0);
    }
}
