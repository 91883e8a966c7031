#![cfg_attr(feature = "std-simd", feature(portable_simd))]
//! # flexsfu-core
//!
//! The non-uniform piecewise-linear (PWL) function machinery at the heart of
//! Flex-SFU (DAC 2023, Section IV).
//!
//! A [`PwlFunction`] is defined by `n` breakpoints `p₀ < … < p_{n-1}`, the
//! values `vᵢ = f̂(pᵢ)` at those breakpoints, and two boundary slopes
//! `ml`/`mr` for the half-open outer segments:
//!
//! ```text
//!          ⎧ ml·(x − p₀) + v₀                        x ≤ p₀
//! f̂(x) =  ⎨ vᵢ + (v_{i+1} − vᵢ)/(p_{i+1} − pᵢ)·(x − pᵢ)   pᵢ < x < p_{i+1}
//!          ⎩ mr·(x − p_{n-1}) + v_{n-1}              x ≥ p_{n-1}
//! ```
//!
//! The crate provides:
//!
//! * [`PwlFunction`] — validated construction, scalar/batch evaluation,
//!   binary-search segment lookup ([`pwl::Region`]),
//! * [`engine`] — the compiled batch-evaluation engine, written once for
//!   both precisions over the sealed [`Element`] trait: [`CompiledPwl`]
//!   / [`CompiledPwlF32`] (structure-of-arrays form with precomputed
//!   slopes and branch-light lookup), the [`PwlEvaluator`] trait every
//!   consumer routes through, and the threaded [`ParallelPwl`] /
//!   [`ParallelPwlF32`]; [`engine_f32`] keeps the single-precision
//!   names at their old path,
//! * [`simd`] — the fixed-width lane types ([`simd::F64x4`],
//!   [`simd::F32x8`]) the engine's vectorized kernels are written
//!   against, with an AVX2 runtime-dispatch path and a nightly
//!   `std-simd` feature gate,
//! * [`CoeffTable`] — the `(mᵢ, qᵢ)` slope/intercept pairs stored in the
//!   hardware LTC, with an equivalence guarantee against direct evaluation,
//! * [`boundary`] — the paper's asymptotic boundary conditions,
//! * [`loss`] — integral MSE / MAE / AAE metrics and the sampled losses
//!   used during optimization,
//! * [`init`] — uniform and Chebyshev breakpoint initializers,
//! * [`quant`] — quantization of a PWL function through any
//!   [`flexsfu_formats::DataFormat`].
//!
//! # Examples
//!
//! ```
//! use flexsfu_core::init::uniform_pwl;
//! use flexsfu_core::loss::integral_mse;
//! use flexsfu_funcs::Gelu;
//!
//! // 16 uniformly spaced breakpoints on GELU's default range.
//! let pwl = uniform_pwl(&Gelu, 16, (-8.0, 8.0));
//! let mse = integral_mse(&pwl, &Gelu, -8.0, 8.0);
//! assert!(mse < 1e-3);
//! ```

pub mod boundary;
pub mod coeffs;
pub mod engine;
pub mod init;
pub mod loss;
pub mod pwl;
pub mod quant;
pub mod simd;

mod error;

pub use coeffs::CoeffTable;
pub use engine::{
    CompiledPwl, CompiledPwlF32, Element, Isa, Kernel, KernelShape, ParallelPwl, ParallelPwlF32,
    PwlEngine, PwlEvaluator,
};
pub use error::PwlError;
pub use pwl::{PwlFunction, Region};

/// The single-precision engine: [`CompiledPwlF32`] and
/// [`ParallelPwlF32`], the generic [`engine`] instantiated for `f32` —
/// f32 tables, eight-wide lanes and half the table bandwidth,
/// bit-identical across its own scalar/batch/SIMD/scatter paths and
/// within a declared ULP budget of the f64 reference.
///
/// # Examples
///
/// ```
/// use flexsfu_core::{CompiledPwlF32, PwlFunction};
///
/// let pwl = PwlFunction::new(vec![-1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0], 0.0, 0.0)?;
/// let engine = CompiledPwlF32::from_pwl(&pwl);
/// let xs: [f32; 4] = [-2.0, -0.5, 0.25, 3.0];
/// let ys = engine.eval_batch(&xs);
/// assert_eq!(ys[1], 0.5);
/// # Ok::<(), flexsfu_core::PwlError>(())
/// ```
pub mod engine_f32 {
    pub use crate::engine::{CompiledPwlF32, ParallelPwlF32};

    #[cfg(test)]
    mod tests {
        use crate::engine::tests::*;
        use crate::{CompiledPwl, CompiledPwlF32, ParallelPwlF32, PwlFunction};

        #[test]
        fn shapes_and_accessors() {
            let pwl = sample_pwl();
            let c = CompiledPwlF32::from_pwl(&pwl);
            assert_eq!(c.num_breakpoints(), 4);
            assert_eq!(c.num_segments(), 5);
            assert_eq!(c.breakpoints(), &[-2.0f32, -1.0, 0.5, 2.0]);
            assert_eq!(c.slopes()[0], pwl.left_slope() as f32);
            assert_eq!(c.slopes()[4], pwl.right_slope() as f32);
        }

        #[test]
        fn from_compiled_is_identical_to_from_pwl() {
            for pwl in [sample_pwl(), deep_pwl()] {
                let direct = CompiledPwlF32::from_pwl(&pwl);
                let via_f64 = CompiledPwlF32::from_compiled(&CompiledPwl::from_pwl(&pwl));
                assert_eq!(direct, via_f64);
            }
        }

        #[test]
        fn batch_paths_are_bit_identical_to_eval_one() {
            for pwl in [sample_pwl(), deep_pwl()] {
                let c = CompiledPwlF32::from_pwl(&pwl);
                assert_every_path_matches_eval_one(&c, &dense_grid(-10.0, 10.0, 4001));
            }
        }

        #[test]
        fn tracks_f64_reference_closely() {
            // Not bit-equal to f64 (by design), but within a few f32 ulps
            // at these magnitudes; the per-function budgets live in
            // simd_parity.
            let pwl = deep_pwl();
            let c = CompiledPwlF32::from_pwl(&pwl);
            for x in dense_grid::<f32>(-8.0, 8.0, 2001) {
                let want = pwl.eval(x as f64);
                let got = c.eval_one(x) as f64;
                assert!((got - want).abs() <= 1e-5, "at {x}: {got} vs {want}");
            }
        }

        #[test]
        fn offset_range_stays_exact() {
            // Narrow ranges at large offsets, where f32 bucket-edge
            // rounding is coarsest: every breakpoint and bucket edge ± 1
            // ulp evaluates identically on every path.
            for pwl in index_stress_pwls() {
                let c = CompiledPwlF32::from_pwl(&pwl);
                assert_every_path_matches_eval_one(&c, &index_probes(&c));
            }
        }

        #[test]
        fn parallel_matches_serial() {
            check_parallel_matches_serial::<f32>(&deep_pwl());
        }

        #[test]
        fn nan_propagates_through_all_paths() {
            check_nan_propagates::<f32>();
        }

        #[test]
        fn refill_is_indistinguishable_from_fresh_compile() {
            let (shallow, deep) = (sample_pwl(), deep_pwl());
            let mut engine = CompiledPwlF32::from_pwl(&shallow);
            for target in [&deep, &shallow, &deep] {
                let fresh = CompiledPwlF32::from_pwl(target);
                engine.refill_from_pwl(target);
                assert_eq!(engine, fresh);
                engine.refill_from_compiled(&CompiledPwl::from_pwl(target));
                assert_eq!(engine, fresh);
            }
        }

        #[test]
        fn segments_agree_with_eval_at_segment() {
            for pwl in [sample_pwl(), deep_pwl()] {
                let c = CompiledPwlF32::from_pwl(&pwl);
                let xs = dense_grid::<f32>(-4.0, 4.0, 513);
                let mut segs = vec![0u32; xs.len()];
                c.segments_into(&xs, &mut segs);
                let mut out = vec![0.0f32; xs.len()];
                let mut segs2 = vec![0u32; xs.len()];
                c.eval_and_segments_into(&xs, &mut out, &mut segs2);
                assert_eq!(segs, segs2);
                for ((&x, &s), &y) in xs.iter().zip(&segs).zip(&out) {
                    assert_eq!(y.to_bits(), c.eval_at_segment(x, s as usize).to_bits());
                    assert_eq!(y.to_bits(), c.eval_one(x).to_bits());
                }
            }
        }

        #[test]
        fn degenerate_two_breakpoint_function() {
            let pwl = PwlFunction::new(vec![0.0, 1.0], vec![0.0, 2.0], -1.0, 3.0).unwrap();
            let c = CompiledPwlF32::from_pwl(&pwl);
            assert_eq!(c.num_segments(), 3);
            for x in dense_grid::<f32>(-3.0, 4.0, 1001) {
                // The table is exact in f32 here, so even f64 agreement
                // is bitwise after rounding.
                let want = pwl.eval(x as f64) as f32;
                assert_eq!(c.eval_one(x).to_bits(), want.to_bits(), "at {x}");
            }
        }

        #[test]
        fn scatter_matches_contiguous_eval() {
            check_scatter_matches_contiguous::<f32>();
        }

        #[test]
        fn scatter_parallel_splits_inside_jobs() {
            check_scatter_parallel_splits_inside_jobs::<f32>();
        }

        #[test]
        fn scatter_accepts_empty_input_and_outputs() {
            check_scatter_accepts_empty_input_and_outputs::<f32>();
        }

        #[test]
        #[should_panic(expected = "partition the input")]
        fn scatter_rejects_mismatched_totals() {
            check_scatter_rejects_mismatched_totals::<f32>();
        }

        #[test]
        #[should_panic(expected = "length mismatch")]
        fn eval_into_rejects_mismatched_lengths() {
            check_eval_into_rejects_mismatched_lengths::<f32>();
        }

        /// The threaded f32 engine keeps its trait-free entry points.
        #[test]
        fn parallel_f32_names_evaluate_like_the_engine() {
            let par = ParallelPwlF32::with_threads(CompiledPwlF32::from_pwl(&deep_pwl()), 2);
            let xs = dense_grid::<f32>(-6.0, 6.0, 100);
            let ys = par.eval_batch(&xs);
            assert_eq!(ys[7].to_bits(), par.eval_one(xs[7]).to_bits());
        }
    }
}
