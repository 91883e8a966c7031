//! Vector softmax built on the max-subtraction trick.
//!
//! On the accelerator, softmax decomposes into a vector max-reduction, an
//! element-wise `exp` (the part Flex-SFU accelerates, fitted on
//! `[-10, 0.1]`), a sum-reduction, and an element-wise division. This module
//! provides both the exact reference and a version whose `exp` is supplied
//! by an arbitrary approximation, so the accuracy experiments can measure
//! the end-to-end impact of approximating only the transcendental part.

use std::{fmt::Display, iter::Sum, ops::DivAssign, ops::Sub};

/// Computes the numerically stable softmax of `xs` into a fresh vector.
///
/// # Panics
///
/// Panics if `xs` is empty or contains a NaN.
///
/// # Examples
///
/// ```
/// let p = flexsfu_funcs::softmax::softmax(&[1.0, 2.0, 3.0]);
/// let sum: f64 = p.iter().sum();
/// assert!((sum - 1.0).abs() < 1e-12);
/// assert!(p[2] > p[1] && p[1] > p[0]);
/// ```
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    softmax_with(xs, f64::exp)
}

/// Computes softmax using a caller-supplied exponential.
///
/// This is the hook the evaluation uses to inject the PWL-approximated
/// `exp`: `softmax_with(xs, |t| pwl.eval(t))`. The max-subtraction ensures
/// every argument passed to `exp_fn` lies in `(-inf, 0]`, matching the
/// paper's `[-10, 0.1]` fitting interval (values below −10 contribute
/// less than `e^-10 ≈ 4.5e-5` of probability mass each).
///
/// # Panics
///
/// Panics if `xs` is empty, contains NaN, or if `exp_fn` makes the
/// normalization sum non-positive.
pub fn softmax_with<F: Fn(f64) -> f64>(xs: &[f64], exp_fn: F) -> Vec<f64> {
    softmax_with_batch(xs, |shifted, out| {
        for (o, &t) in out.iter_mut().zip(shifted) {
            *o = exp_fn(t);
        }
    })
}

/// A float the softmax decomposition runs in: `f64` or `f32`. Each
/// method is the type's own inherent one, so a softmax in either
/// precision performs exactly the operations written for it.
pub trait Float:
    Copy + Default + Display + PartialOrd + Sum + Sub<Output = Self> + DivAssign
{
    /// The larger of two values, ignoring a NaN (`f64::max`).
    fn max(self, other: Self) -> Self;
    /// `e^self`.
    fn exp(self) -> Self;
    /// Whether the value is NaN.
    fn is_nan(self) -> bool;
    /// Whether the value is neither infinite nor NaN.
    fn is_finite(self) -> bool;
}

macro_rules! float {
    ($($t:ident),*) => {$(
        impl Float for $t {
            fn max(self, other: Self) -> Self {
                $t::max(self, other)
            }
            fn exp(self) -> Self {
                $t::exp(self)
            }
            fn is_nan(self) -> bool {
                $t::is_nan(self)
            }
            fn is_finite(self) -> bool {
                $t::is_finite(self)
            }
        }
    )*};
}

float!(f64, f32);

/// Batch variant of [`softmax_with`], in either precision: `exp_into`
/// receives the whole max-shifted row at once and fills `out` with its
/// exponentials. In f32 every intermediate — shift, exponentials, sum,
/// division — stays f32, so an f32 inference pipeline's softmax never
/// widens to f64.
///
/// This is the hook batch evaluators use to exponentiate a row in one
/// sweep instead of a call per element — the evaluation engine passes
/// `|shifted, out| engine.eval_into(shifted, out)` so the PWL `exp`
/// runs through its SIMD lane kernels. The closure may post-process
/// `out` (e.g. clamp small negative PWL artifacts to zero); the
/// normalization invariants stay in one place here.
///
/// # Panics
///
/// Same conditions as [`softmax_with`]: empty or NaN input, or a
/// non-positive/non-finite normalization sum.
pub fn softmax_with_batch<T: Float, F: FnOnce(&[T], &mut [T])>(xs: &[T], exp_into: F) -> Vec<T> {
    assert!(!xs.is_empty(), "softmax of an empty slice");
    let max = xs.iter().copied().fold(xs[0], |a, b| {
        assert!(!b.is_nan(), "softmax input contains NaN");
        a.max(b)
    });
    let shifted: Vec<T> = xs.iter().map(|&x| x - max).collect();
    let mut out = vec![T::default(); xs.len()];
    exp_into(&shifted, &mut out);
    let sum: T = out.iter().copied().sum();
    assert!(
        sum > T::default() && sum.is_finite(),
        "softmax normalization sum must be positive and finite, got {sum}"
    );
    for o in &mut out {
        *o /= sum;
    }
    out
}

/// In-place variant of [`softmax`].
///
/// # Panics
///
/// Same conditions as [`softmax`].
pub fn softmax_in_place(xs: &mut [f64]) {
    let out = softmax(xs);
    xs.copy_from_slice(&out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_to_one_and_preserves_order() {
        let p = softmax(&[-3.0, 0.0, 5.0, 1.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p[2] > p[3] && p[3] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn invariant_to_constant_shift() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn stable_for_large_magnitudes() {
        let p = softmax(&[-1e30, 0.0, 1e30]);
        assert!((p[2] - 1.0).abs() < 1e-12);
        assert_eq!(p[0], 0.0);
    }

    #[test]
    fn single_element_is_one() {
        assert_eq!(softmax(&[42.0]), vec![1.0]);
    }

    #[test]
    fn custom_exp_arguments_are_nonpositive() {
        use std::cell::Cell;
        let seen_positive = Cell::new(false);
        let _ = softmax_with(&[0.5, -2.0, 3.0], |t| {
            if t > 0.0 {
                seen_positive.set(true);
            }
            t.exp()
        });
        assert!(!seen_positive.get(), "max-subtraction must keep args <= 0");
    }

    #[test]
    fn in_place_matches_allocating() {
        let xs = [0.1, 0.2, 0.3, -0.5];
        let want = softmax(&xs);
        let mut got = xs;
        softmax_in_place(&mut got);
        assert_eq!(got.to_vec(), want);
    }

    #[test]
    fn batch_variant_is_bit_identical_to_scalar_variant() {
        let xs = [0.5, -2.0, 3.0, 0.0, -7.5];
        let scalar = softmax_with(&xs, f64::exp);
        let batch = softmax_with_batch(&xs, |shifted, out| {
            for (&t, o) in shifted.iter().zip(out.iter_mut()) {
                *o = t.exp();
            }
        });
        for (a, b) in scalar.iter().zip(&batch) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn batch_variant_rejects_empty_input() {
        softmax_with_batch::<f64, _>(&[], |_, _| {});
    }

    #[test]
    fn f32_batch_variant_sums_to_one_and_tracks_f64() {
        let xs64 = [0.5, -2.0, 3.0, 0.0, -7.5];
        let xs32: Vec<f32> = xs64.iter().map(|&x| x as f32).collect();
        let p32 = softmax_with_batch(&xs32, |shifted, out| {
            for (&t, o) in shifted.iter().zip(out.iter_mut()) {
                *o = t.exp();
            }
        });
        let sum: f32 = p32.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        let p64 = softmax(&xs64);
        for (a, b) in p32.iter().zip(&p64) {
            assert!((f64::from(*a) - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn f32_batch_variant_rejects_empty_input() {
        softmax_with_batch::<f32, _>(&[], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        softmax(&[]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_input_panics() {
        softmax(&[0.0, f64::NAN]);
    }
}
