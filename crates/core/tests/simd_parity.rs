//! Regression tests pinning the SIMD lane kernels to the scalar
//! reference: `eval_into` (lane-packed since PR 2) must be **bit-identical**
//! to `PwlFunction::eval` — and to the PR-1 batch path `eval_into_ref` —
//! across NaN, ±∞, inputs exactly on breakpoints, and slices whose length
//! is not a multiple of any lane width, on every kernel (linear-scan,
//! bucket, search fallback) and every ISA tier the host runs (portable,
//! AVX2, AVX-512) — not only the one dispatch picks.

use flexsfu_core::{
    CompiledPwl, CompiledPwlF32, Element, Isa, PwlEngine, PwlEvaluator, PwlFunction,
};

/// Evaluates `xs` through `eval_into` and then through every ISA tier
/// this host supports, handing each output to `check` with its label.
fn for_every_tier<T: Element>(engine: &PwlEngine<T>, xs: &[T], mut check: impl FnMut(&str, &[T])) {
    let mut out = vec![T::default(); xs.len()];
    engine.eval_into(xs, &mut out);
    check("eval_into", &out);
    for isa in Isa::ALL {
        if let Some(kernel) = engine.eval_on(isa, xs, &mut out, None) {
            check(kernel.name(), &out);
        }
    }
}

/// Segment counts that exercise every kernel: ≤ 8 segments take the
/// linear-scan path, larger tables the bucket path, and the clustered
/// function (built separately) the search fallback.
const SEGMENT_COUNTS: [usize; 6] = [3, 8, 9, 16, 64, 65];

/// A non-uniform PWL with `segments` segments: breakpoints concentrate
/// near the middle like real optimized activations, values oscillate.
fn pwl_with_segments(segments: usize) -> PwlFunction {
    let n = segments - 1;
    let ps: Vec<f64> = (0..n)
        .map(|i| {
            let u = i as f64 / (n - 1) as f64 * 2.0 - 1.0; // -1..1
            8.0 * u * u * u.signum().abs() * u.abs().sqrt().max(0.05) * u.signum()
        })
        .collect();
    // Ensure strictly increasing (the square+sqrt shaping is monotone,
    // but guard against rounding collisions).
    let mut ps = ps;
    ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ps.dedup();
    for i in 1..ps.len() {
        if ps[i] <= ps[i - 1] {
            ps[i] = ps[i - 1] + 1e-9;
        }
    }
    let vs: Vec<f64> = ps.iter().map(|p| (p * 1.3).sin() * 2.0).collect();
    PwlFunction::new(ps, vs, 0.37, -0.61).unwrap()
}

/// A function whose breakpoints are pathologically clustered, driving the
/// bucket window past its cap so `eval_into` routes to the search
/// fallback kernel.
fn clustered_pwl() -> PwlFunction {
    let mut ps: Vec<f64> = (0..30).map(|i| i as f64 * 1e-8).collect();
    ps.insert(0, -500.0);
    ps.push(500.0);
    let vs: Vec<f64> = ps.iter().map(|p| (p * 0.01).cos()).collect();
    PwlFunction::new(ps, vs, 0.5, -0.25).unwrap()
}

/// The adversarial input set: far outside both boundaries, dense interior
/// coverage, every breakpoint exactly, each breakpoint ± 1 ulp, ±∞, ±0,
/// and NaN — in shuffled order so lane groups mix categories.
fn adversarial_inputs(pwl: &PwlFunction) -> Vec<f64> {
    let (lo, hi) = (pwl.breakpoints()[0], *pwl.breakpoints().last().unwrap());
    let span = (hi - lo).max(1.0);
    let mut xs = Vec::new();
    for k in 0..257 {
        xs.push(lo - span + 3.0 * span * k as f64 / 256.0);
    }
    for &p in pwl.breakpoints() {
        xs.push(p);
        xs.push(f64::from_bits(p.to_bits() + 1));
        xs.push(f64::from_bits(p.to_bits().wrapping_sub(1)));
    }
    xs.extend([
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        1e300,
        -1e300,
    ]);
    // Deterministic shuffle so special values land in different lane
    // positions across the batch.
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..xs.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        xs.swap(i, (state as usize) % (i + 1));
    }
    xs
}

fn assert_bitwise_parity(pwl: &PwlFunction, xs: &[f64], label: &str) {
    let engine = CompiledPwl::from_pwl(pwl);
    let check = |path: &str, got: &[f64]| {
        for (i, (&x, &y)) in xs.iter().zip(got).enumerate() {
            assert_eq!(
                y.to_bits(),
                pwl.eval(x).to_bits(),
                "{label}: {path} vs scalar at x = {x:?} (index {i})"
            );
        }
    };
    let mut reference = vec![0.0; xs.len()];
    engine.eval_into_ref(xs, &mut reference);
    check("eval_into_ref", &reference);
    for_every_tier(&engine, xs, check);
}

#[test]
fn simd_matches_scalar_on_adversarial_inputs_every_kernel() {
    for segments in SEGMENT_COUNTS {
        let pwl = pwl_with_segments(segments);
        let xs = adversarial_inputs(&pwl);
        assert_bitwise_parity(&pwl, &xs, &format!("{segments} segments"));
    }
    let pwl = clustered_pwl();
    let xs = adversarial_inputs(&pwl);
    assert_bitwise_parity(&pwl, &xs, "clustered fallback");
}

#[test]
fn remainder_lengths_are_bit_identical() {
    // Every slice length from 0 to just past two lane blocks, at an
    // unaligned offset, for both the linear and bucket kernels: the lane
    // main loop, its tail, and the lengths shorter than one lane group
    // must all agree with scalar eval.
    for segments in [8usize, 64] {
        let pwl = pwl_with_segments(segments);
        let engine = CompiledPwl::from_pwl(&pwl);
        let xs = adversarial_inputs(&pwl);
        for len in 0..=67 {
            for offset in [0usize, 1, 3] {
                let slice = &xs[offset..offset + len];
                for_every_tier(&engine, slice, |path, out| {
                    for (&x, &y) in slice.iter().zip(out) {
                        assert_eq!(
                            y.to_bits(),
                            pwl.eval(x).to_bits(),
                            "{segments} segments, {path}, len {len}, offset {offset}, x = {x:?}"
                        );
                    }
                });
            }
        }
    }
}

#[test]
fn eval_and_segments_matches_eval_into_and_segments_into() {
    for segments in SEGMENT_COUNTS {
        let pwl = pwl_with_segments(segments);
        let engine = CompiledPwl::from_pwl(&pwl);
        let xs = adversarial_inputs(&pwl);
        let mut ys = vec![0.0; xs.len()];
        let mut segs = vec![0u32; xs.len()];
        engine.eval_and_segments_into(&xs, &mut ys, &mut segs);
        let want_ys = engine.eval_batch(&xs);
        let mut want_segs = vec![0u32; xs.len()];
        engine.segments_into(&xs, &mut want_segs);
        for i in 0..xs.len() {
            assert_eq!(
                ys[i].to_bits(),
                want_ys[i].to_bits(),
                "{segments} segments: value at x = {:?}",
                xs[i]
            );
            assert_eq!(
                segs[i], want_segs[i],
                "{segments} segments: segment at x = {:?}",
                xs[i]
            );
        }
    }
}

#[test]
fn eval_scatter_into_matches_scalar_at_every_remainder_length() {
    // The serving front-end's entry point: packed evaluation scattered
    // into non-contiguous job slices. Job boundaries are deliberately
    // unaligned with every lane width (jobs start wherever the previous
    // job ended), and every job length 0..=67 appears — the same
    // remainder sweep `eval_into` is held to — so the scatter path
    // inherits the 0.0-margin oracle.
    for segments in [8usize, 64] {
        let pwl = pwl_with_segments(segments);
        let engine = CompiledPwl::from_pwl(&pwl);
        let base = adversarial_inputs(&pwl);
        // One job per length 0..=67, interleaved with odd offsets so no
        // boundary is lane-aligned; inputs cycle the adversarial set.
        let lens: Vec<usize> = (0..=67).flat_map(|l| [l, 1, 0, 3]).collect();
        let total: usize = lens.iter().sum();
        let xs: Vec<f64> = (0..total).map(|i| base[i % base.len()]).collect();
        let mut bufs: Vec<Vec<f64>> = lens.iter().map(|&l| vec![0.0; l]).collect();
        let mut views: Vec<&mut [f64]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        engine.eval_scatter_into(&xs, &mut views);
        let mut cursor = 0usize;
        for (j, buf) in bufs.iter().enumerate() {
            for (k, &y) in buf.iter().enumerate() {
                let x = xs[cursor + k];
                assert_eq!(
                    y.to_bits(),
                    pwl.eval(x).to_bits(),
                    "{segments} segments, job {j} (len {}), element {k}, x = {x:?}",
                    buf.len()
                );
            }
            cursor += buf.len();
        }
    }
}

#[test]
fn eval_scatter_into_is_bit_identical_to_contiguous_eval_into() {
    // Scatter must equal evaluating the packed buffer in one piece —
    // the stronger form of the oracle, covering the search-fallback
    // kernel too.
    for pwl in [pwl_with_segments(9), pwl_with_segments(65), clustered_pwl()] {
        let engine = CompiledPwl::from_pwl(&pwl);
        let xs = adversarial_inputs(&pwl);
        let mut contiguous = vec![0.0; xs.len()];
        engine.eval_into(&xs, &mut contiguous);
        // Pseudo-random split of the same inputs into jobs.
        let mut state = 0xD1B54A32D192ED03u64;
        let mut lens = Vec::new();
        let mut remaining = xs.len();
        while remaining > 0 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let l = ((state >> 11) as usize % 97).min(remaining);
            lens.push(l);
            remaining -= l;
        }
        lens.push(0); // trailing empty job
        let mut bufs: Vec<Vec<f64>> = lens.iter().map(|&l| vec![0.0; l]).collect();
        let mut views: Vec<&mut [f64]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        engine.eval_scatter_into(&xs, &mut views);
        let flat: Vec<f64> = bufs.concat();
        for (i, (&got, &want)) in flat.iter().zip(&contiguous).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "scatter vs contiguous at {i} (x = {:?})",
                xs[i]
            );
        }
    }
}

#[test]
fn infinities_follow_the_outer_segments() {
    let pwl = pwl_with_segments(16);
    let engine = CompiledPwl::from_pwl(&pwl);
    let mut out = [0.0; 2];
    engine.eval_into(&[f64::NEG_INFINITY, f64::INFINITY], &mut out);
    assert_eq!(out[0].to_bits(), pwl.eval(f64::NEG_INFINITY).to_bits());
    assert_eq!(out[1].to_bits(), pwl.eval(f64::INFINITY).to_bits());
    // With nonzero outer slopes the values are themselves infinite.
    assert!(out[0].is_infinite() && out[1].is_infinite());
}

#[test]
fn nan_lanes_propagate_without_contaminating_neighbours() {
    for segments in [8usize, 64] {
        let pwl = pwl_with_segments(segments);
        let engine = CompiledPwl::from_pwl(&pwl);
        // A full lane block with NaN in every lane position once.
        for nan_at in 0..33 {
            let mut xs: Vec<f64> = (0..33).map(|i| i as f64 * 0.3 - 5.0).collect();
            xs[nan_at] = f64::NAN;
            let ys = engine.eval_batch(&xs);
            for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                if i == nan_at {
                    assert!(y.is_nan(), "{segments} segments: NaN lost at {i}");
                } else {
                    assert_eq!(
                        y.to_bits(),
                        pwl.eval(x).to_bits(),
                        "{segments} segments: neighbour {i} contaminated (nan at {nan_at})"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// f32 fast path: the same battery against `CompiledPwlF32`.
//
// The oracle shifts one notch: the f64 tests pin every batch kernel to
// `PwlFunction::eval`; here every f32 batch kernel (8-wide linear scan,
// 32-byte bucket lines, search fallback — in their scalar, AVX2 and
// AVX-512 recompiles) is pinned **bit-identically** to the scalar f32
// `CompiledPwlF32::eval_one`, and `eval_one` itself is held to the
// scalar f64 reference by the ULP contract table at the bottom.
// ---------------------------------------------------------------------

/// The f32 adversarial input set: the f64 set rounded once, plus the
/// *engine's own* f32 breakpoints ± 1 f32-ulp — the f64 breakpoints
/// round to different neighbours, so on-breakpoint and ±1-ulp cases
/// must be regenerated against the rounded table, not inherited.
fn adversarial_inputs_f32(pwl: &PwlFunction, engine: &CompiledPwlF32) -> Vec<f32> {
    let mut xs: Vec<f32> = adversarial_inputs(pwl).iter().map(|&x| x as f32).collect();
    for &p in engine.breakpoints() {
        xs.push(p);
        xs.push(f32::from_bits(p.to_bits() + 1));
        xs.push(f32::from_bits(p.to_bits().wrapping_sub(1)));
    }
    xs.extend([f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e38, -1e38]);
    // Same deterministic shuffle as the f64 set.
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..xs.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        xs.swap(i, (state as usize) % (i + 1));
    }
    xs
}

fn assert_bitwise_parity_f32(pwl: &PwlFunction, label: &str) {
    for engine in [
        CompiledPwlF32::from_pwl(pwl),
        CompiledPwlF32::from_compiled(&CompiledPwl::from_pwl(pwl)),
    ] {
        let xs = adversarial_inputs_f32(pwl, &engine);
        let check = |path: &str, got: &[f32]| {
            for (i, (&x, &y)) in xs.iter().zip(got).enumerate() {
                assert_eq!(
                    y.to_bits(),
                    engine.eval_one(x).to_bits(),
                    "{label}: f32 {path} vs eval_one at x = {x:?} (index {i})"
                );
            }
        };
        let mut reference = vec![0.0f32; xs.len()];
        engine.eval_into_ref(&xs, &mut reference);
        check("eval_into_ref", &reference);
        for_every_tier(&engine, &xs, check);
    }
}

#[test]
fn f32_simd_matches_scalar_f32_on_adversarial_inputs_every_kernel() {
    for segments in SEGMENT_COUNTS {
        let pwl = pwl_with_segments(segments);
        assert_bitwise_parity_f32(&pwl, &format!("{segments} segments"));
    }
    assert_bitwise_parity_f32(&clustered_pwl(), "clustered fallback");
}

#[test]
fn f32_remainder_lengths_are_bit_identical() {
    // Every slice length 0..=67 at unaligned offsets: covers the 16-wide
    // AVX-512 main loop, the 8-wide block, and sub-lane tails for both
    // the linear-scan and bucket-line kernels.
    for segments in [8usize, 64] {
        let pwl = pwl_with_segments(segments);
        let engine = CompiledPwlF32::from_pwl(&pwl);
        let xs = adversarial_inputs_f32(&pwl, &engine);
        for len in 0..=67 {
            for offset in [0usize, 1, 3] {
                let slice = &xs[offset..offset + len];
                for_every_tier(&engine, slice, |path, out| {
                    for (&x, &y) in slice.iter().zip(out) {
                        assert_eq!(
                            y.to_bits(),
                            engine.eval_one(x).to_bits(),
                            "{segments} segments, {path}, len {len}, offset {offset}, x = {x:?}"
                        );
                    }
                });
            }
        }
    }
}

#[test]
fn f32_eval_and_segments_matches_eval_into_and_segments_into() {
    for segments in SEGMENT_COUNTS {
        let pwl = pwl_with_segments(segments);
        let engine = CompiledPwlF32::from_pwl(&pwl);
        let xs = adversarial_inputs_f32(&pwl, &engine);
        let mut ys = vec![0.0f32; xs.len()];
        let mut segs = vec![0u32; xs.len()];
        engine.eval_and_segments_into(&xs, &mut ys, &mut segs);
        let want_ys = engine.eval_batch(&xs);
        let mut want_segs = vec![0u32; xs.len()];
        engine.segments_into(&xs, &mut want_segs);
        for i in 0..xs.len() {
            assert_eq!(
                ys[i].to_bits(),
                want_ys[i].to_bits(),
                "{segments} segments: f32 value at x = {:?}",
                xs[i]
            );
            assert_eq!(
                segs[i], want_segs[i],
                "{segments} segments: f32 segment at x = {:?}",
                xs[i]
            );
        }
    }
}

#[test]
fn f32_eval_scatter_into_matches_scalar_at_every_remainder_length() {
    // The f32 serving lane's entry point: same unaligned job-boundary
    // sweep as the f64 scatter test.
    for segments in [8usize, 64] {
        let pwl = pwl_with_segments(segments);
        let engine = CompiledPwlF32::from_pwl(&pwl);
        let base = adversarial_inputs_f32(&pwl, &engine);
        let lens: Vec<usize> = (0..=67).flat_map(|l| [l, 1, 0, 3]).collect();
        let total: usize = lens.iter().sum();
        let xs: Vec<f32> = (0..total).map(|i| base[i % base.len()]).collect();
        let mut bufs: Vec<Vec<f32>> = lens.iter().map(|&l| vec![0.0f32; l]).collect();
        let mut views: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        engine.eval_scatter_into(&xs, &mut views);
        let mut cursor = 0usize;
        for (j, buf) in bufs.iter().enumerate() {
            for (k, &y) in buf.iter().enumerate() {
                let x = xs[cursor + k];
                assert_eq!(
                    y.to_bits(),
                    engine.eval_one(x).to_bits(),
                    "{segments} segments, f32 job {j} (len {}), element {k}, x = {x:?}",
                    buf.len()
                );
            }
            cursor += buf.len();
        }
    }
}

#[test]
fn f32_eval_scatter_into_is_bit_identical_to_contiguous_eval_into() {
    for pwl in [pwl_with_segments(9), pwl_with_segments(65), clustered_pwl()] {
        let engine = CompiledPwlF32::from_pwl(&pwl);
        let xs = adversarial_inputs_f32(&pwl, &engine);
        let mut contiguous = vec![0.0f32; xs.len()];
        engine.eval_into(&xs, &mut contiguous);
        let mut state = 0xD1B54A32D192ED03u64;
        let mut lens = Vec::new();
        let mut remaining = xs.len();
        while remaining > 0 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let l = ((state >> 11) as usize % 97).min(remaining);
            lens.push(l);
            remaining -= l;
        }
        lens.push(0); // trailing empty job
        let mut bufs: Vec<Vec<f32>> = lens.iter().map(|&l| vec![0.0f32; l]).collect();
        let mut views: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        engine.eval_scatter_into(&xs, &mut views);
        let flat: Vec<f32> = bufs.concat();
        for (i, (&got, &want)) in flat.iter().zip(&contiguous).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "f32 scatter vs contiguous at {i} (x = {:?})",
                xs[i]
            );
        }
    }
}

#[test]
fn f32_nan_lanes_propagate_without_contaminating_neighbours() {
    for segments in [8usize, 64] {
        let pwl = pwl_with_segments(segments);
        let engine = CompiledPwlF32::from_pwl(&pwl);
        for nan_at in 0..33 {
            let mut xs: Vec<f32> = (0..33).map(|i| i as f32 * 0.3 - 5.0).collect();
            xs[nan_at] = f32::NAN;
            let ys = engine.eval_batch(&xs);
            for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                if i == nan_at {
                    assert!(y.is_nan(), "{segments} segments: f32 NaN lost at {i}");
                } else {
                    assert_eq!(
                        y.to_bits(),
                        engine.eval_one(x).to_bits(),
                        "{segments} segments: f32 neighbour {i} contaminated (nan at {nan_at})"
                    );
                }
            }
        }
    }
}

#[test]
fn f32_infinities_follow_the_outer_segments() {
    let pwl = pwl_with_segments(16);
    let engine = CompiledPwlF32::from_pwl(&pwl);
    let mut out = [0.0f32; 2];
    engine.eval_into(&[f32::NEG_INFINITY, f32::INFINITY], &mut out);
    assert_eq!(
        out[0].to_bits(),
        engine.eval_one(f32::NEG_INFINITY).to_bits()
    );
    assert_eq!(out[1].to_bits(), engine.eval_one(f32::INFINITY).to_bits());
    // Nonzero outer slopes: ±∞ stays ±∞ through slope * (x - ax) + ay.
    assert!(out[0].is_infinite() && out[1].is_infinite());
}

// ---------------------------------------------------------------------
// The FP32 ULP contract: how far the f32 engine may drift from the
// scalar f64 reference, per registry function.
// ---------------------------------------------------------------------

/// Declared f32-engine error budgets per registry function, in **FP32
/// ULPs at base 1** (`2⁻²³`): evaluating a function's 32-segment table
/// through [`CompiledPwlF32`] — breakpoints, anchors and slopes rounded
/// to f32 once at compile time, then pure f32 arithmetic — stays within
/// this of evaluating the *same table* in scalar f64, over the
/// function's default range. Budgets are declared at roughly 2× the
/// measured grid maximum so kernel-order changes that shuffle rounding
/// cannot flake the suite; the relative ordering tracks output
/// magnitude (relu6/hardswish produce values up to 6–8, sigmoid stays
/// in (0, 1)).
const FP32_ULP_BUDGETS: &[(&str, f64)] = &[
    ("relu", 1.0),
    ("leaky_relu", 1.0),
    ("elu", 2.0),
    ("sigmoid", 1.0),
    ("tanh", 2.0),
    ("softplus", 10.0),
    ("gelu", 8.0),
    ("silu", 12.0),
    ("mish", 10.0),
    ("hardswish", 6.0),
    ("hardsigmoid", 2.0),
    ("relu6", 6.0),
];

#[test]
fn every_registry_function_within_declared_fp32_ulp_budget() {
    use flexsfu_core::init::uniform_pwl;
    use flexsfu_formats::ulp::error_in_ulps_at;
    use flexsfu_formats::FloatFormat;

    for f in flexsfu_funcs::all_standard() {
        let (lo, hi) = f.default_range();
        let pwl = uniform_pwl(f.as_ref(), 31, (lo, hi));
        let engine = CompiledPwlF32::from_pwl(&pwl);
        let budget = FP32_ULP_BUDGETS
            .iter()
            .find(|(n, _)| *n == f.name())
            .unwrap_or_else(|| panic!("no declared FP32 budget for {}", f.name()))
            .1;

        // Dense grid plus the f32 breakpoints and their ±1-ulp
        // neighbours: the highest-error inputs sit at segment joints.
        let mut xs: Vec<f32> = (0..=2000)
            .map(|i| (lo + (hi - lo) * i as f64 / 2000.0) as f32)
            .collect();
        for &p in engine.breakpoints() {
            xs.extend([
                p,
                f32::from_bits(p.to_bits() + 1),
                f32::from_bits(p.to_bits().wrapping_sub(1)),
            ]);
        }

        let ys = engine.eval_batch(&xs);
        let mut max_ulps = 0.0f64;
        for (&x, &y) in xs.iter().zip(&ys) {
            let exact = pwl.eval(f64::from(x));
            max_ulps = max_ulps.max(error_in_ulps_at(
                f64::from(y),
                exact,
                FloatFormat::FP32,
                1.0,
            ));
        }
        assert!(
            max_ulps <= budget,
            "{}: f32 engine measured {max_ulps:.2} FP32 ulp@1 above budget {budget}",
            f.name()
        );
        println!(
            "{:12}  measured {max_ulps:6.2} ulp@1   budget {budget:5.1}",
            f.name()
        );
    }
}
