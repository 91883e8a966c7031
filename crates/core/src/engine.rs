//! The compiled batch-evaluation engine: [`PwlEngine`] (named
//! [`CompiledPwl`] in f64 and [`CompiledPwlF32`] in f32), its threaded
//! wrapper [`ParallelPwl`], and the [`PwlEvaluator`] trait.
//!
//! [`PwlFunction::eval`] is the readable reference path: per call it binary
//! searches a `Vec` of breakpoints, re-derives the segment slope with a
//! division, and interpolates. That is fine for one point and ruinous for a
//! tensor — the optimizer's loss grid, the NN forward pass and the hardware
//! model all evaluate the *same* function over thousands to millions of
//! elements.
//!
//! [`PwlEngine`] lowers a function once into a structure-of-arrays form:
//!
//! * sorted breakpoints, plus a **uniform bucket index** over them: a
//!   power-of-two grid of per-bucket seeds, so segment lookup is one
//!   multiply, one table read, and an expected `O(1)` fix-up scan
//!   instead of a branch-mispredicting binary search per element,
//! * per-segment anchor point `(aₓ, a_y)` and precomputed slope `m` in
//!   table order (left outer, inner 0 … n−2, right outer), so evaluation is
//!   a single `m·(x − aₓ) + a_y` with **no division** on the hot path.
//!
//! Functions with ≤ 8 segments skip the index entirely in favour of a
//! vectorizable linear scan (`count of breakpoints < x`), mirroring how a
//! shallow ADU beats a deep one in hardware. The bucket index is the
//! software analogue of putting a one-cycle uniform pre-decoder in front
//! of the ADU's binary-search tree: the grid gets you next to the right
//! segment, a couple of comparisons finish the job exactly.
//!
//! # One engine, two precisions
//!
//! Like the paper's unit, which serves every data format through one
//! comparison tree and one coefficient table, the engine is written once,
//! generic over the sealed [`Element`] trait (implemented for `f64` and
//! `f32`). An element names its lane type ([`F64x4`]: four lanes,
//! [`F32x8`]: eight), its bucket-line type (64 bytes / 32 bytes, below)
//! and the rounding conversion from f64 ([`Element::from_f64`]). Tables
//! are computed in f64 exactly as [`PwlFunction::eval`] computes them —
//! the slope is the same rounded quotient — then rounded once to the
//! element; for f64 that rounding is the identity. An f32 engine keeps
//! every table entry and every operation in f32: twice the lanes per
//! vector and half the table bandwidth, for the sub-f64 tensors DNN
//! inference actually runs on.
//!
//! # The measured bucket index
//!
//! The index classifies every breakpoint with the *eval-time* bucket map
//! itself — the same `(x − lo) · inv_w` clamp-and-truncate the kernels
//! run, in the element type. That map is monotone in `x`, so for any
//! input in bucket `b` the breakpoints whose bucket precedes `b` are all
//! below it (the seed is a true lower bound) and those whose bucket
//! follows `b` are all above it (the window is bounded by the bucket's
//! own breakpoint count). Seeds and window are exact by measurement; no
//! rounding-margin argument is needed, which matters for narrow ranges at
//! large offsets, where a one-bucket margin gets tight in f32.
//!
//! # Kernels
//!
//! [`PwlEngine::kernel`] picks one [`Kernel`] per table and host, and
//! every batch entry point routes through it:
//!
//! * the **shape** ([`KernelShape`]): linear scan for ≤ 8 segments;
//!   bucket lines when the measured window is ≤ 2, so one comparison
//!   against the line's breakpoint picks between the two candidate
//!   segments fused into the same aligned line (`[bp(seed), seed,
//!   aₓ, a_y, m of seed and seed + 1]`); otherwise the per-element search
//!   fallback;
//! * the **ISA tier** ([`Isa`]): the portable lane kernels, written once
//!   against [`crate::simd::Lanes`] as distributed passes (vector index
//!   math, one scalar table read per element, vector multiply-add); the
//!   same source recompiled under `#[target_feature(enable = "avx2")]`;
//!   or AVX-512.
//!
//! The AVX-512 kernels are the only per-precision code, because hardware
//! gathers have no generic spelling and the two line layouts use them
//! differently: the f64 bucket kernel gathers breakpoint and seed from
//! its 64-byte line and the three coefficients from the SoA columns (five
//! gathers per lane group); the f32 bucket kernel takes everything from
//! its 32-byte line (three gathers: breakpoint, the adjacent `[aₓ, a_y]`
//! pair as one 64-bit gather, slope); and the f32 linear kernel runs
//! sixteen lanes with gathered coefficients. f64 linear tables run the
//! AVX2 tier on AVX-512 hosts. The pre-SIMD scalar kernels remain
//! available as [`PwlEngine::eval_into_ref`] — the measured baseline for
//! the `compiled_vs_scalar` bench and the tail kernel for lane remainders.
//!
//! # Bit-exactness
//!
//! Every batch path — reference kernels, each shape on each tier,
//! scatter and segment entry points — returns the same bits as
//! [`PwlEngine::eval_one`] for every input, including NaN (which
//! propagates) and ±∞. In f64, `eval_one` is itself bit-identical to
//! [`PwlFunction::eval`]: segment selection reproduces
//! [`PwlFunction::region`]'s comparison sequence and the anchored
//! evaluation performs the same operations in the same order. In f32 the
//! output tracks the f64 reference within a per-function ULP budget. The
//! property tests in `tests/engine_parity.rs` and `tests/simd_parity.rs`
//! lock both down.
//!
//! # Which entry point?
//!
//! * [`PwlEngine::eval_one`] — scalar, for call sites that genuinely
//!   have one value.
//! * [`PwlEvaluator::eval_into`] / [`PwlEvaluator::eval_batch`] — chunked
//!   batch evaluation; the workhorse for loss grids and tensors.
//! * [`ParallelPwl`] — the same batch API fanned out over threads with
//!   `std::thread::scope`; worthwhile from roughly 10⁵ elements.
//!
//! # Examples
//!
//! ```
//! use flexsfu_core::{CompiledPwl, PwlEvaluator, PwlFunction};
//!
//! let pwl = PwlFunction::new(vec![-1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0], 0.0, 0.0)?;
//! let engine = CompiledPwl::from_pwl(&pwl);
//! let xs = [-2.0, -0.5, 0.25, 3.0];
//! let ys = engine.eval_batch(&xs);
//! for (&x, &y) in xs.iter().zip(&ys) {
//!     assert_eq!(y, pwl.eval(x)); // bit-identical, not merely close
//! }
//! # Ok::<(), flexsfu_core::PwlError>(())
//! ```

use crate::coeffs::CoeffTable;
use crate::pwl::PwlFunction;
use crate::simd::{F32x8, F64x4, LaneMask, Lanes};
use std::fmt::Debug;
use std::ops::{Add, Div, Mul, Sub};

/// Functions with at most this many segments use the linear-scan lookup.
const LINEAR_SCAN_MAX_SEGMENTS: usize = 8;

/// Batch evaluation proceeds in chunks of this many elements to keep the
/// working set cache-resident.
const CHUNK: usize = 4096;

/// Below this many elements [`ParallelPwl`] stays serial — thread spawn
/// overhead would dominate.
const PARALLEL_MIN_ELEMENTS: usize = 1 << 15;

/// Elements per block in the SIMD lane kernels. Each block runs as
/// distributed passes (vector index math, scalar table reads, vector
/// multiply-add) over stack arrays small enough to stay register/L1
/// resident; 32 elements is 8 [`F64x4`] or 4 [`F32x8`] groups per pass.
const LANE_BLOCK: usize = 32;

/// Windows longer than this (pathologically clustered breakpoints) fall
/// back to `partition_point` — correctness never depends on the index.
const WINDOW_MAX: usize = 16;

/// A float type the engine evaluates in: `f64` or `f32` (sealed).
pub trait Element:
    sealed::Sealed
    + Copy
    + Default
    + Debug
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    /// The lane type the portable kernels run in ([`F64x4`] / [`F32x8`]).
    type Lanes: Lanes<Elem = Self>;

    /// Rounds an f64 to this element (round-to-nearest; the identity for
    /// f64).
    fn from_f64(x: f64) -> Self;

    /// Widens to f64 (exact).
    fn to_f64(self) -> f64;
}

mod sealed {
    use super::{Element, PwlEngine};
    use std::fmt::Debug;

    /// The element operations only the engine needs.
    // `is_*` by value, like the float methods they forward to.
    #[allow(clippy::wrong_self_convention)]
    pub trait Sealed: Sized {
        /// One bucket's fused lookup line (see `Line64`).
        type Line: Copy + Debug + PartialEq + Send + Sync;
        const ZERO: Self;
        const NAN: Self;
        const INFINITY: Self;
        /// Whether an AVX-512 linear-scan kernel exists.
        const AVX512_LINEAR: bool;
        /// Exclusive bound on the counts this type stores exactly.
        const EXACT_COUNT: u64;

        /// Saturating `self as usize` (NaN and negatives give 0).
        fn to_count(self) -> usize;
        /// # Safety
        /// `self` must be finite, non-negative and below `usize::MAX`.
        unsafe fn to_count_unchecked(self) -> usize;
        fn is_nan(self) -> bool;
        /// NaN-ignoring minimum, like `f64::min`.
        fn min(self, other: Self) -> Self;
        /// NaN-ignoring maximum, like `f64::max`.
        fn max(self, other: Self) -> Self;
        fn line(slots: [Self; 8]) -> Self::Line;
        fn slots(line: &Self::Line) -> &[Self; 8];

        /// The element's AVX-512 kernel for a table of `shape`.
        ///
        /// # Safety
        /// The host must support AVX-512F, the table must have `shape`,
        /// and `shape` must be linear only where `AVX512_LINEAR`.
        #[cfg(target_arch = "x86_64")]
        unsafe fn avx512<const SEGS: bool>(
            e: &PwlEngine<Self>,
            shape: super::KernelShape,
            xs: &[Self],
            out: &mut [Self],
            segs: &mut [u32],
        ) where
            Self: Element;
    }
}

/// One bucket's fused lookup state in f64: `[bp(seed), seed as f64,
/// aₓ(seed), a_y(seed), m(seed), aₓ(seed+1), a_y(seed+1), m(seed+1)]` in
/// one aligned 64-byte cache line.
///
/// `window ≤ 2` guarantees every input mapping to the bucket counts
/// either `seed` or `seed + 1` breakpoints below it, so **one**
/// comparison against `bp(seed)` resolves the segment and both candidate
/// coefficient triples ride along in the same line — bucket resolution
/// is a single aligned load plus arithmetic, with no dependent
/// `seed → breakpoint → coefficient` walk. The seed is stored as an exact
/// float so the AVX-512 kernels can keep the whole count in float lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
pub struct Line64([f64; 8]);

/// [`Line64`] at half the width: eight `f32`s in an aligned 32-byte line,
/// half the cache traffic per element.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct Line32([f32; 8]);

macro_rules! element {
    ($t:ident, $lanes:ty, $line:ident, $avx512_linear:expr, $mantissa:expr) => {
        impl Element for $t {
            type Lanes = $lanes;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }

            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
        }

        impl sealed::Sealed for $t {
            type Line = $line;
            const ZERO: Self = 0.0;
            const NAN: Self = $t::NAN;
            const INFINITY: Self = $t::INFINITY;
            const AVX512_LINEAR: bool = $avx512_linear;
            const EXACT_COUNT: u64 = 1 << $mantissa;

            #[inline(always)]
            fn to_count(self) -> usize {
                self as usize
            }
            #[inline(always)]
            unsafe fn to_count_unchecked(self) -> usize {
                self.to_int_unchecked::<usize>()
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                $t::is_nan(self)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                $t::min(self, other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                $t::max(self, other)
            }
            #[inline(always)]
            fn line(slots: [Self; 8]) -> $line {
                $line(slots)
            }
            #[inline(always)]
            fn slots(line: &$line) -> &[Self; 8] {
                &line.0
            }

            #[cfg(target_arch = "x86_64")]
            unsafe fn avx512<const SEGS: bool>(
                e: &PwlEngine<Self>,
                shape: KernelShape,
                xs: &[Self],
                out: &mut [Self],
                segs: &mut [u32],
            ) {
                e.avx512::<SEGS>(shape, xs, out, segs)
            }
        }
    };
}

element!(f64, F64x4, Line64, false, 53);
element!(f32, F32x8, Line32, true, 24);

/// The eval-time bucket of `x`: the same saturating clamp-and-truncate
/// every kernel performs, shared with construction so the measured index
/// is exact by definition. NaN and negatives land in bucket 0,
/// +∞/overflow in the last bucket.
#[inline(always)]
fn bucket_of<T: Element>(x: T, lo: T, inv_w: T, hi_bucket: usize) -> usize {
    ((x - lo) * inv_w).to_count().min(hi_bucket)
}

/// The shape of a batch kernel: how it finds each element's segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelShape {
    /// Branchless count over every breakpoint (≤ 8 segments).
    Linear,
    /// One comparison against the element's bucket line (window ≤ 2).
    Bucket,
    /// Per-element windowed count or binary search (everything else).
    Search,
}

/// An instruction-set tier the batch kernels are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isa {
    /// The baseline-target build of the portable lane kernels.
    Portable,
    /// The portable lane kernels recompiled with AVX2 enabled.
    Avx2,
    /// The hand-written AVX-512F gather kernels.
    Avx512,
}

impl Isa {
    /// Every tier, from baseline to widest.
    pub const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

    /// Whether this host can run the tier.
    pub fn available(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest tier this host supports.
    pub fn host() -> Isa {
        // Portable is always available.
        *Isa::ALL.iter().rfind(|isa| isa.available()).unwrap()
    }
}

/// The batch kernel a table dispatches to on a host: see
/// [`PwlEngine::kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kernel {
    /// How segments are found.
    pub shape: KernelShape,
    /// The instruction-set tier it runs on (always [`Isa::Portable`] for
    /// the scalar search kernel).
    pub isa: Isa,
}

impl Kernel {
    /// A stable label such as `"bucket/avx512"`, for reports and bench
    /// rows.
    pub fn name(self) -> &'static str {
        match (self.shape, self.isa) {
            (KernelShape::Linear, Isa::Portable) => "linear/portable",
            (KernelShape::Linear, Isa::Avx2) => "linear/avx2",
            (KernelShape::Linear, Isa::Avx512) => "linear/avx512",
            (KernelShape::Bucket, Isa::Portable) => "bucket/portable",
            (KernelShape::Bucket, Isa::Avx2) => "bucket/avx2",
            (KernelShape::Bucket, Isa::Avx512) => "bucket/avx512",
            (KernelShape::Search, _) => "search",
        }
    }
}

/// A uniform interface over scalar and batch PWL evaluation, in element
/// type `T` (f64 unless named).
///
/// Implemented by [`PwlFunction`] (the readable f64 scalar reference),
/// [`PwlEngine`] (chunked batch over the SoA form) and [`ParallelPwl`]
/// (threaded batch). Consumers — the optimizer's loss sampling, the NN
/// activation layers, the hardware model's programming path — accept any
/// implementor, so swapping evaluation strategies is a one-line change.
pub trait PwlEvaluator<T: Element = f64> {
    /// Evaluates the function at one point. NaN propagates.
    fn eval_one(&self, x: T) -> T;

    /// Evaluates the function over `xs`, writing into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    fn eval_into(&self, xs: &[T], out: &mut [T]);

    /// Evaluates the function over `xs` into a fresh `Vec`.
    fn eval_batch(&self, xs: &[T]) -> Vec<T> {
        let mut out = vec![T::ZERO; xs.len()];
        self.eval_into(xs, &mut out);
        out
    }
}

/// The scalar reference path: one binary search and one division per call.
impl PwlEvaluator for PwlFunction {
    fn eval_one(&self, x: f64) -> f64 {
        self.eval(x)
    }

    fn eval_into(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.eval(x);
        }
    }
}

/// A [`PwlFunction`] compiled to structure-of-arrays form in element type
/// `T`, for fast batch evaluation. Usually named through its aliases,
/// [`CompiledPwl`] (f64) and [`CompiledPwlF32`] (f32).
///
/// Segment indices follow the [`CoeffTable`] convention: `0` is the left
/// outer segment, `1..n-1` the inner segments, `n` the right outer segment
/// (`n` breakpoints → `n + 1` segments).
#[derive(Debug, Clone, PartialEq)]
pub struct PwlEngine<T: Element> {
    /// Sorted breakpoints (`n`). f64→f32 rounding is monotone, so an f32
    /// table stays sorted; near-equal breakpoints that collapse merely
    /// produce zero-width segments the comparisons never select.
    breakpoints: Vec<T>,
    /// Breakpoints with `window` copies of `+∞` appended, so the windowed
    /// count below can read past the end unconditionally.
    bps_padded: Vec<T>,
    /// Per-segment anchor abscissa (`n + 1`, table order).
    anchor_x: Vec<T>,
    /// Per-segment anchor ordinate (`n + 1`).
    anchor_y: Vec<T>,
    /// Per-segment slope (`n + 1`): the f64 quotient the scalar path
    /// computes per call, rounded once.
    slope: Vec<T>,
    /// The same three per-segment values packed `[aₓ, a_y, m]` — one
    /// bounds check and one cache line per lookup on the batch hot path.
    seg_packed: Vec<[T; 3]>,
    /// Per-bucket fused lookup lines ([`Line64`] / [`Line32`]), built
    /// only when the bucket shape applies (window ≤ 2 and seeds exact in
    /// `T`).
    bucket_line: Vec<T::Line>,
    /// Left edge of the bucket grid (`p₀`).
    bucket_lo: T,
    /// Buckets per unit of input, or `0` when the span is
    /// degenerate/overflowing (every input then lands in bucket 0 and the
    /// window covers the whole array — slower, never wrong).
    bucket_inv_w: T,
    /// Per-bucket seed: the *measured* count of breakpoints whose
    /// eval-time bucket precedes this one — a true lower bound on
    /// `count(x)` for every `x` mapping here.
    bucket_seed: Vec<u32>,
    /// Window length: from any bucket's seed, scanning this many padded
    /// breakpoints reaches every count an input in that bucket can have.
    window: usize,
    /// Construction scratch (per-bucket breakpoint counts), kept so
    /// refills recompile without touching the allocator. Fully rewritten
    /// on every (re)fill, so two engines compiled from the same function
    /// always compare equal.
    edge_scratch: Vec<u32>,
}

/// The double-precision engine: bit-identical to [`PwlFunction::eval`].
pub type CompiledPwl = PwlEngine<f64>;

/// The single-precision engine: f32 tables and lanes, within a declared
/// ULP budget of the f64 reference.
pub type CompiledPwlF32 = PwlEngine<f32>;

impl<T: Element> PwlEngine<T> {
    /// Flattens `pwl` into the SoA form. `O(n)`; amortize it over batches.
    pub fn from_pwl(pwl: &PwlFunction) -> Self {
        let mut engine = Self::empty();
        engine.refill_from_pwl(pwl);
        engine
    }

    /// Converts an already-compiled f64 engine. Produces a table
    /// identical to [`PwlEngine::from_pwl`] on the source function — the
    /// compiled engine stores exactly the f64 values `from_pwl` would
    /// recompute.
    pub fn from_compiled(c: &CompiledPwl) -> Self {
        let mut engine = Self::empty();
        engine.refill_from_compiled(c);
        engine
    }

    fn empty() -> Self {
        Self {
            breakpoints: Vec::new(),
            bps_padded: Vec::new(),
            anchor_x: Vec::new(),
            anchor_y: Vec::new(),
            slope: Vec::new(),
            seg_packed: Vec::new(),
            bucket_line: Vec::new(),
            bucket_lo: T::ZERO,
            bucket_inv_w: T::ZERO,
            bucket_seed: Vec::new(),
            window: 0,
            edge_scratch: Vec::new(),
        }
    }

    /// Recompiles `pwl` into this engine **in place**, reusing every
    /// internal allocation whose capacity still suffices — the amortized
    /// form of [`PwlEngine::from_pwl`] for callers that recompile the
    /// same-shaped function every iteration (the optimizer recompiles
    /// once per Adam step; at production sweep scale the per-step
    /// `Vec` churn of a fresh compile is pure allocator traffic).
    ///
    /// The resulting engine is indistinguishable from
    /// `PwlEngine::from_pwl(pwl)`: the same construction code runs, so
    /// evaluation stays bit-identical and the engines compare equal.
    pub fn refill_from_pwl(&mut self, pwl: &PwlFunction) {
        let p = pwl.breakpoints();
        let v = pwl.values();
        let n = p.len();
        self.refill(p, |s| {
            if s == 0 {
                // Left outer segment, anchored at (p₀, v₀).
                [p[0], v[0], pwl.left_slope()]
            } else if s < n {
                // Inner segments, anchored at their left endpoints; the
                // exact f64 quotient the scalar path computes per call.
                [p[s - 1], v[s - 1], (v[s] - v[s - 1]) / (p[s] - p[s - 1])]
            } else {
                // Right outer segment, anchored at (p_{n-1}, v_{n-1}).
                [p[n - 1], v[n - 1], pwl.right_slope()]
            }
        });
    }

    /// In-place conversion from a compiled f64 engine; see
    /// [`PwlEngine::refill_from_pwl`] for the reuse contract.
    pub fn refill_from_compiled(&mut self, c: &CompiledPwl) {
        self.refill(&c.breakpoints, |s| {
            [c.anchor_x[s], c.anchor_y[s], c.slope[s]]
        });
    }

    /// Shared (re)fill: `seg(s)` yields the f64 `(aₓ, a_y, m)` of table
    /// segment `s`; everything is rounded once to `T` and the measured
    /// bucket index is built against the rounded tables.
    fn refill(&mut self, p64: &[f64], mut seg: impl FnMut(usize) -> [f64; 3]) {
        let n = p64.len();

        self.anchor_x.clear();
        self.anchor_y.clear();
        self.slope.clear();
        self.anchor_x.reserve(n + 1);
        self.anchor_y.reserve(n + 1);
        self.slope.reserve(n + 1);
        for s in 0..=n {
            let [ax, ay, m] = seg(s);
            self.anchor_x.push(T::from_f64(ax));
            self.anchor_y.push(T::from_f64(ay));
            self.slope.push(T::from_f64(m));
        }

        self.breakpoints.clear();
        self.breakpoints.extend(p64.iter().map(|&b| T::from_f64(b)));
        let p = &self.breakpoints;

        // Grid sizing, in the element type the kernels run in: ~4 bucket
        // widths per smallest gap (power of two, capped), so no bucket
        // holds two breakpoints and the window lands at the 2
        // comparisons the bucket kernels want. Real optimized functions
        // cluster breakpoints in the curved regions, so a fixed
        // multiplier is not enough. Sizing is only a guess — seeds and
        // window are *measured* below, so a capped or degenerate grid
        // loses the fast path, never correctness.
        let (lo, hi) = (p[0], p[n - 1]);
        let span = hi - lo;
        let min_gap = p.windows(2).map(|w| w[1] - w[0]).fold(T::INFINITY, T::min);
        let ratio = T::from_f64(4.0) * span / min_gap;
        let wanted = if min_gap > T::ZERO && ratio.to_f64().is_finite() {
            // Saturating cast: absurd ratios just hit the cap below.
            // (Widening is exact, so this is the ceiling in `T`.)
            ratio.to_f64().ceil() as usize
        } else {
            usize::MAX
        };
        let buckets = wanted
            .clamp(4 * n, 1 << 14)
            .next_power_of_two()
            .min(1 << 14);
        let per_unit = T::from_f64(buckets as f64) / span;
        let inv_w = if span.to_f64().is_finite() && span > T::ZERO && per_unit.to_f64().is_finite()
        {
            per_unit
        } else {
            T::ZERO
        };

        // Measured index: classify every breakpoint with the eval-time
        // bucket map itself, in one monotone walk — then `edge_counts[b]`
        // is the exact count of breakpoints whose bucket precedes `b`.
        // For any x in bucket b, monotonicity of the map gives
        // edge_counts[b] ≤ count(x) ≤ edge_counts[b + 1].
        let mut edge_counts = std::mem::take(&mut self.edge_scratch);
        edge_counts.clear();
        edge_counts.reserve(buckets + 1);
        let mut idx = 0usize;
        for b in 0..buckets {
            while idx < n && bucket_of(p[idx], lo, inv_w, buckets - 1) < b {
                idx += 1;
            }
            edge_counts.push(idx as u32);
        }
        edge_counts.push(n as u32);

        self.bucket_seed.clear();
        self.bucket_seed.extend_from_slice(&edge_counts[..buckets]);
        // Scanning `window` padded breakpoints from the seed reaches
        // every attainable count; the +1 keeps the convention that
        // `window ≤ 2` means "count is seed or seed + 1" — the
        // one-comparison bucket-line precondition.
        let window = edge_counts
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(n as u32) as usize
            + 1;
        self.edge_scratch = edge_counts;

        self.bps_padded.clear();
        self.bps_padded.extend_from_slice(p);
        self.bps_padded.resize(n + window.max(2), T::INFINITY);
        let bps_padded = &self.bps_padded;

        // Fused per-bucket lines, only when the one-comparison window
        // suffices and the seed is exactly representable in `T`; other
        // tables route to the search kernel and never read them. For a
        // seed of n (past the last breakpoint) the second candidate
        // clamps to n — bp(seed) is +∞ there, so the comparison never
        // selects it.
        self.bucket_line.clear();
        if window <= 2 && (n as u64) < T::EXACT_COUNT {
            let (anchor_x, anchor_y, slope) = (&self.anchor_x, &self.anchor_y, &self.slope);
            self.bucket_line.extend(self.bucket_seed.iter().map(|&s| {
                let s = s as usize;
                let s1 = (s + 1).min(n);
                T::line([
                    bps_padded[s],
                    T::from_f64(s as f64),
                    anchor_x[s],
                    anchor_y[s],
                    slope[s],
                    anchor_x[s1],
                    anchor_y[s1],
                    slope[s1],
                ])
            }));
        }

        self.seg_packed.clear();
        self.seg_packed.extend(
            self.anchor_x
                .iter()
                .zip(self.anchor_y.iter().zip(&self.slope))
                .map(|(&ax, (&ay, &m))| [ax, ay, m]),
        );

        self.bucket_lo = lo;
        self.bucket_inv_w = inv_w;
        self.window = window;
    }

    /// Number of breakpoints `n`.
    pub fn num_breakpoints(&self) -> usize {
        self.breakpoints.len()
    }

    /// Number of segments, `n + 1`.
    pub fn num_segments(&self) -> usize {
        self.slope.len()
    }

    /// The sorted breakpoints.
    pub fn breakpoints(&self) -> &[T] {
        &self.breakpoints
    }

    /// Per-segment slopes in table order (left outer, inner…, right outer).
    pub fn slopes(&self) -> &[T] {
        &self.slope
    }

    /// Number of breakpoints strictly below `x` (what
    /// `breakpoints.partition_point(|p| p < x)` computes), via the bucket
    /// index: one multiply locates the bucket, its measured seed starts
    /// the count, and exactly `window` branch-free comparisons finish it.
    /// Exact for every input — including NaN, which maps to bucket 0 and
    /// counts nothing.
    #[inline]
    fn count_below(&self, x: T) -> usize {
        if self.window > WINDOW_MAX {
            // Pathologically clustered breakpoints: the index would scan
            // long windows; std's binary search is the better tool.
            return self.breakpoints.partition_point(|&p| p < x);
        }
        let b = bucket_of(
            x,
            self.bucket_lo,
            self.bucket_inv_w,
            self.bucket_seed.len() - 1,
        );
        let seed = self.bucket_seed[b] as usize;
        let mut c = seed;
        for j in 0..self.window {
            c += usize::from(self.bps_padded[seed + j] < x);
        }
        c
    }

    /// The table-order segment index of `x`, reproducing
    /// [`PwlFunction::region`]'s boundary conventions exactly
    /// (`x ≤ p₀` → 0, `x ≥ p_{n-1}` → n). NaN maps to segment 0; the
    /// evaluation path screens NaN out before lookup.
    #[inline]
    pub fn segment_index(&self, x: T) -> usize {
        let n = self.breakpoints.len();
        let c = if self.num_segments() <= LINEAR_SCAN_MAX_SEGMENTS {
            // Branchless count, vectorizable for the shallow tables the
            // hardware actually ships (4–64 segments, most ≤ 8).
            let mut c = 0usize;
            for &b in &self.breakpoints {
                c += usize::from(b < x);
            }
            c
        } else {
            self.count_below(x)
        };
        // `x == p_{n-1}` counts n−1 breakpoints below but belongs to the
        // right outer segment, matching `Region::Right`'s `x ≥ p_{n-1}`.
        if x >= self.breakpoints[n - 1] {
            n
        } else {
            c
        }
    }

    /// Evaluates one point: segment lookup plus one multiply-add on the
    /// anchored form — the scalar reference every batch path is
    /// bit-identical to (and, in f64, bit-identical to
    /// [`PwlFunction::eval`]).
    #[inline]
    pub fn eval_one(&self, x: T) -> T {
        if x.is_nan() {
            return T::NAN;
        }
        self.eval_at_segment(x, self.segment_index(x))
    }

    /// Writes the table-order segment index of every sample into `out`.
    ///
    /// This is the batch analogue of [`PwlFunction::region`] for consumers
    /// that need *where* each sample landed as well as the value.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn segments_into(&self, xs: &[T], out: &mut [u32]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.segment_index(x) as u32;
        }
    }

    /// Evaluates the segment `s` assigned to `x` — the second half of
    /// [`Self::eval_one`] for callers that already hold the segment index
    /// from [`Self::segments_into`].
    #[inline]
    pub fn eval_at_segment(&self, x: T, s: usize) -> T {
        self.slope[s] * (x - self.anchor_x[s]) + self.anchor_y[s]
    }
}

impl CompiledPwl {
    /// Lowers to the `(m, q)` coefficient-table view the hardware programs,
    /// identical to `CoeffTable::from_pwl` on the source function.
    pub fn to_coeff_table(&self) -> CoeffTable {
        let intercepts: Vec<f64> = self
            .slope
            .iter()
            .zip(self.anchor_x.iter().zip(&self.anchor_y))
            .map(|(&m, (&ax, &ay))| ay - m * ax)
            .collect();
        CoeffTable::from_parts(self.breakpoints.clone(), self.slope.clone(), intercepts)
    }
}

impl<T: Element> PwlEngine<T> {
    /// The batch kernel this table dispatches to on this host: the shape
    /// its table supports, on the widest tier the host runs. Every batch
    /// entry point ([`PwlEvaluator::eval_into`],
    /// [`Self::eval_scatter_into`], [`Self::eval_and_segments_into`])
    /// routes through it.
    pub fn kernel(&self) -> Kernel {
        self.kernel_on(Isa::host())
    }

    /// [`Kernel::name`] of [`Self::kernel`], e.g. `"bucket/avx512"`.
    pub fn kernel_name(&self) -> &'static str {
        self.kernel().name()
    }

    /// The kernel this table runs on tier `isa` (which the host must
    /// support): the search kernel is scalar on every tier, and f64 has
    /// no AVX-512 linear kernel, so it takes the AVX2 tier there.
    fn kernel_on(&self, isa: Isa) -> Kernel {
        let shape = if self.num_segments() <= LINEAR_SCAN_MAX_SEGMENTS {
            KernelShape::Linear
        } else if self.window <= 2 && !self.bucket_line.is_empty() {
            KernelShape::Bucket
        } else {
            KernelShape::Search
        };
        let isa = match shape {
            KernelShape::Search => Isa::Portable,
            KernelShape::Linear if isa == Isa::Avx512 && !T::AVX512_LINEAR => {
                if Isa::Avx2.available() {
                    Isa::Avx2
                } else {
                    Isa::Portable
                }
            }
            _ => isa,
        };
        Kernel { shape, isa }
    }

    /// Runs kernel `k` over one chunk; with `SEGS` the table-order
    /// segment index of each element is also written to `segs`
    /// (index-aligned with `xs`, same length).
    ///
    /// `k` must come from [`Self::kernel_on`] with a tier the host
    /// supports — that is what makes the tier calls below sound.
    fn run<const SEGS: bool>(&self, k: Kernel, xs: &[T], out: &mut [T], segs: &mut [u32]) {
        match (k.shape, k.isa) {
            (KernelShape::Search, _) if SEGS => self.eval_segments_remainder(xs, out, segs),
            (KernelShape::Search, _) => self.eval_chunk_search(xs, out),
            // SAFETY (all tier arms): the host supports `k.isa`, and
            // `kernel_on` picks AVX-512 linear only where it exists.
            #[cfg(target_arch = "x86_64")]
            (shape, Isa::Avx512) => unsafe { T::avx512::<SEGS>(self, shape, xs, out, segs) },
            #[cfg(target_arch = "x86_64")]
            (KernelShape::Linear, Isa::Avx2) => unsafe { self.linear_avx2::<SEGS>(xs, out, segs) },
            #[cfg(target_arch = "x86_64")]
            (KernelShape::Bucket, Isa::Avx2) => unsafe { self.bucket_avx2::<SEGS>(xs, out, segs) },
            (KernelShape::Linear, _) => self.linear_lanes::<SEGS>(xs, out, segs),
            (KernelShape::Bucket, _) => self.bucket_lanes::<SEGS>(xs, out, segs),
        }
    }

    /// Reference batch kernel for shallow tables: branchless linear count,
    /// one element at a time (the pre-SIMD instruction-level-parallel
    /// path, kept as the lane kernels' remainder and as the measurable
    /// baseline in `compiled_vs_scalar`).
    fn eval_chunk_linear_ref(&self, xs: &[T], out: &mut [T]) {
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            if x.is_nan() {
                *o = T::NAN;
                continue;
            }
            let mut c = 0usize;
            for &b in &self.breakpoints {
                c += usize::from(b < x);
            }
            let s = c + usize::from(x >= last) * (n - c);
            let [ax, ay, m] = self.seg_packed[s];
            *o = m * (x - ax) + ay;
        }
    }

    /// The table-order segment index of `x` for the bucket reference
    /// kernel.
    ///
    /// # Safety contract (established at construction, checked by caller)
    ///
    /// * `hi_bucket_f == (bucket_seed.len() − 1)`, so the clamped cast
    ///   lands inside `bucket_seed` (NaN maps to 0 via `max`);
    /// * every seed is ≤ `n`, and `bps_padded` has at least `n + 2`
    ///   entries, so both padded reads are in bounds;
    /// * `window ≤ 2` guarantees `seed ≤ count(x) ≤ seed + 1`, the two
    ///   comparisons therefore produce exactly `count(x)`, and any
    ///   breakpoint at an index ≥ `count(x)` compares ≥ `x` by
    ///   sortedness, so reading the second one is harmless.
    ///
    /// The returned index is ≤ `n`, in bounds for `seg_packed`.
    #[inline(always)]
    fn fast_segment_index(&self, hi_bucket_f: T, n: usize, last: T, x: T) -> usize {
        let t = ((x - self.bucket_lo) * self.bucket_inv_w)
            .max(T::ZERO)
            .min(hi_bucket_f);
        // SAFETY: t is clamped to [0, bucket_seed.len() − 1] and NaN-free.
        let b = unsafe { t.to_count_unchecked() };
        // SAFETY: b < bucket_seed.len(); seed + 1 ≤ n + 1 < bps_padded.len().
        let (seed, b0, b1) = unsafe {
            let seed = *self.bucket_seed.get_unchecked(b) as usize;
            let bps = &self.bps_padded;
            (seed, *bps.get_unchecked(seed), *bps.get_unchecked(seed + 1))
        };
        let c = seed + usize::from(b0 < x) + usize::from(b1 < x);
        c + usize::from(x >= last) * (n - c)
    }

    /// Reference batch kernel for bucket-shaped tables: one bucket load,
    /// two breakpoint loads, two comparisons, one segment load — unrolled
    /// 16-wide so the dependent loads of neighbouring elements overlap.
    /// The pre-SIMD path, kept as the bucket kernels' remainder and as
    /// the measurable baseline in `compiled_vs_scalar`.
    fn eval_chunk_bucket_ref(&self, xs: &[T], out: &mut [T]) {
        debug_assert!(self.window <= 2);
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        let hi_bucket_f = T::from_f64((self.bucket_seed.len() - 1) as f64);
        let mut xi = xs.chunks_exact(16);
        let mut oi = out.chunks_exact_mut(16);
        for (xc, oc) in (&mut xi).zip(&mut oi) {
            let mut segs = [0usize; 16];
            for k in 0..16 {
                segs[k] = self.fast_segment_index(hi_bucket_f, n, last, xc[k]);
            }
            for k in 0..16 {
                let x = xc[k];
                // SAFETY: fast_segment_index returns ≤ n; seg_packed has
                // n + 1 entries.
                let [ax, ay, m] = unsafe { *self.seg_packed.get_unchecked(segs[k]) };
                let y = m * (x - ax) + ay;
                // NaN screens through the select so the output is the
                // canonical NaN the scalar path returns.
                oc[k] = if x.is_nan() { T::NAN } else { y };
            }
        }
        self.eval_chunk_search(xi.remainder(), oi.into_remainder());
    }

    /// Fallback batch kernel (window > 2), and the bucket reference
    /// kernel's tail: [`Self::eval_one`] per element, whose
    /// `count_below` walks the window or routes to `partition_point`.
    fn eval_chunk_search(&self, xs: &[T], out: &mut [T]) {
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.eval_one(x);
        }
    }

    /// Scalar tail for the combined value + segment-index kernels.
    fn eval_segments_remainder(&self, xs: &[T], out: &mut [T], segs: &mut [u32]) {
        for ((&x, o), sg) in xs.iter().zip(out.iter_mut()).zip(segs.iter_mut()) {
            let s = self.segment_index(x);
            *sg = s as u32;
            *o = if x.is_nan() {
                T::NAN
            } else {
                self.eval_at_segment(x, s)
            };
        }
    }

    /// Shared remainder of every vectorized kernel: the elements from
    /// `base` on, through the matching scalar kernel.
    #[inline(always)]
    fn finish<const SEGS: bool>(
        &self,
        shape: KernelShape,
        base: usize,
        xs: &[T],
        out: &mut [T],
        segs: &mut [u32],
    ) {
        let (xs, out) = (&xs[base..], &mut out[base..]);
        if SEGS {
            self.eval_segments_remainder(xs, out, &mut segs[base..]);
        } else if shape == KernelShape::Linear {
            self.eval_chunk_linear_ref(xs, out);
        } else {
            self.eval_chunk_bucket_ref(xs, out);
        }
    }

    /// Pass 3 of both lane kernels: the anchored multiply-add and NaN
    /// screen, one lane group at a time.
    #[inline(always)]
    fn madd_block(
        xc: &[T; LANE_BLOCK],
        ax: &[T; LANE_BLOCK],
        ay: &[T; LANE_BLOCK],
        m: &[T; LANE_BLOCK],
        oc: &mut [T; LANE_BLOCK],
    ) {
        let lanes = <T::Lanes as Lanes>::LANES;
        let nan = T::Lanes::splat(T::NAN);
        for g in 0..LANE_BLOCK / lanes {
            let at = g * lanes;
            let xv = T::Lanes::from_slice(&xc[at..]);
            let y = T::Lanes::from_slice(&m[at..]) * (xv - T::Lanes::from_slice(&ax[at..]))
                + T::Lanes::from_slice(&ay[at..]);
            xv.is_nan().select(nan, y).write_to(&mut oc[at..]);
        }
    }

    /// SIMD lane kernel for shallow tables: the branchless count runs a
    /// whole lane group wide — every breakpoint is broadcast and compared
    /// against all lanes at once — and only the per-segment `(aₓ, a_y, m)`
    /// reads stay scalar. The kernel is structured as distributed passes
    /// over [`LANE_BLOCK`]-element blocks (vector count, scalar gather,
    /// vector evaluate) so each vector pass is a clean lane loop the
    /// backend provably packs. Counts stay exact in float lanes — the
    /// linear shape only runs for ≤ 8 segments.
    #[inline(always)]
    fn linear_lanes<const SEGS: bool>(&self, xs: &[T], out: &mut [T], segs: &mut [u32]) {
        let lanes = <T::Lanes as Lanes>::LANES;
        let n = self.breakpoints.len();
        let last = T::Lanes::splat(self.breakpoints[n - 1]);
        let nf = T::Lanes::splat(T::from_f64(n as f64));
        let mut base = 0usize;
        for (xc, oc) in xs
            .chunks_exact(LANE_BLOCK)
            .zip(out.chunks_exact_mut(LANE_BLOCK))
        {
            let xc: &[T; LANE_BLOCK] = xc.try_into().unwrap();
            let oc: &mut [T; LANE_BLOCK] = oc.try_into().unwrap();
            // Pass 1 (vector): lane-parallel branchless count of
            // breakpoints < x, right-edge select. NaN lanes count 0 and
            // fail the ≥ test, landing on segment 0 exactly like the
            // scalar path; the final NaN screen replaces their output.
            let mut s_arr = [T::ZERO; LANE_BLOCK];
            for g in 0..LANE_BLOCK / lanes {
                let at = g * lanes;
                let xv = T::Lanes::from_slice(&xc[at..]);
                let mut cnt = T::Lanes::splat(T::ZERO);
                for &b in &self.breakpoints {
                    cnt = cnt + T::Lanes::splat(b).lt(xv).ones();
                }
                xv.ge(last).select(nf, cnt).write_to(&mut s_arr[at..]);
            }
            // Pass 2 (scalar): coefficient gather.
            let mut ax = [T::ZERO; LANE_BLOCK];
            let mut ay = [T::ZERO; LANE_BLOCK];
            let mut m = [T::ZERO; LANE_BLOCK];
            for i in 0..LANE_BLOCK {
                // SAFETY: every entry of s_arr is a segment index ≤ n by
                // construction, and seg_packed has n + 1 entries.
                let s = unsafe { s_arr[i].to_count_unchecked() };
                [ax[i], ay[i], m[i]] = unsafe { *self.seg_packed.get_unchecked(s) };
                if SEGS {
                    segs[base + i] = s as u32;
                }
            }
            // Pass 3 (vector): anchored multiply-add + NaN screen.
            Self::madd_block(xc, &ax, &ay, &m, oc);
            base += LANE_BLOCK;
        }
        self.finish::<SEGS>(KernelShape::Linear, base, xs, out, segs);
    }

    /// SIMD lane kernel for bucket-shaped tables: bucket mapping, clamp,
    /// and the anchored multiply-add run lane-wide — the uniform-bucket
    /// layout keeps the entire index computation gather-free, which is
    /// exactly why the paper chose it. The one genuinely scalar step,
    /// isolated in its own pass, is the per-element bucket-line load:
    /// one comparison against the line's breakpoint picks between the two
    /// candidate coefficient triples riding in the same line (`window ≤
    /// 2` proves the count is `seed` or `seed + 1`), and a conditional
    /// move retargets the right outer segment — no dependent seed →
    /// breakpoint → coefficient walk.
    #[inline(always)]
    fn bucket_lanes<const SEGS: bool>(&self, xs: &[T], out: &mut [T], segs: &mut [u32]) {
        debug_assert!(self.window <= 2 && !self.bucket_line.is_empty());
        let lanes = <T::Lanes as Lanes>::LANES;
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        let lo = T::Lanes::splat(self.bucket_lo);
        let inv_w = T::Lanes::splat(self.bucket_inv_w);
        let hi_bucket = T::Lanes::splat(T::from_f64((self.bucket_seed.len() - 1) as f64));
        let zero = T::Lanes::splat(T::ZERO);
        // Right outer segment coefficients, selected by pointer below.
        let right = [self.anchor_x[n], self.anchor_y[n], self.slope[n]];
        let mut base = 0usize;
        for (xc, oc) in xs
            .chunks_exact(LANE_BLOCK)
            .zip(out.chunks_exact_mut(LANE_BLOCK))
        {
            let xc: &[T; LANE_BLOCK] = xc.try_into().unwrap();
            let oc: &mut [T; LANE_BLOCK] = oc.try_into().unwrap();
            // Pass 1 (vector): bucket coordinate, clamped to the grid.
            // NaN fails `t ≥ 0` and lands in bucket 0, mirroring the
            // scalar path's saturating cast.
            let mut t_arr = [T::ZERO; LANE_BLOCK];
            for g in 0..LANE_BLOCK / lanes {
                let at = g * lanes;
                let xv = T::Lanes::from_slice(&xc[at..]);
                let t = (xv - lo) * inv_w;
                let t = t.ge(zero).select(t, zero);
                let t = t.le(hi_bucket).select(t, hi_bucket);
                t.write_to(&mut t_arr[at..]);
            }
            // Pass 2 (scalar): resolve each element's segment from its
            // bucket line — one aligned load, one comparison, one
            // conditional move — staging the coefficient triple.
            let mut ax = [T::ZERO; LANE_BLOCK];
            let mut ay = [T::ZERO; LANE_BLOCK];
            let mut m = [T::ZERO; LANE_BLOCK];
            for i in 0..LANE_BLOCK {
                let x = xc[i];
                // SAFETY: t_arr is clamped to [0, bucket_line.len() − 1]
                // and NaN-free by pass 1.
                let b = unsafe { t_arr[i].to_count_unchecked() };
                let line = T::slots(unsafe { self.bucket_line.get_unchecked(b) });
                // count = seed + (bp(seed) < x); see Line64.
                let k = usize::from(line[0] < x);
                // SAFETY: 2 + 3k is 2 or 5; both triples are in the line.
                let cand = unsafe { line.get_unchecked(2 + 3 * k..) };
                let cand: &[T] = if x >= last { &right } else { cand };
                ax[i] = cand[0];
                ay[i] = cand[1];
                m[i] = cand[2];
                if SEGS {
                    // SAFETY: line[1] is the seed, an exact small count.
                    let seed = unsafe { line[1].to_count_unchecked() };
                    let seg = if x >= last { n } else { seed + k };
                    segs[base + i] = seg as u32;
                }
            }
            // Pass 3 (vector): anchored multiply-add + NaN screen.
            Self::madd_block(xc, &ax, &ay, &m, oc);
            base += LANE_BLOCK;
        }
        self.finish::<SEGS>(KernelShape::Bucket, base, xs, out, segs);
    }

    /// The linear lane kernel compiled with AVX2 enabled, so its lane
    /// loops lower to 256-bit packed instructions.
    ///
    /// # Safety
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn linear_avx2<const SEGS: bool>(&self, xs: &[T], out: &mut [T], segs: &mut [u32]) {
        self.linear_lanes::<SEGS>(xs, out, segs);
    }

    /// The bucket lane kernel compiled with AVX2 enabled.
    ///
    /// # Safety
    /// The host must support AVX2; the table must use the bucket shape.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn bucket_avx2<const SEGS: bool>(&self, xs: &[T], out: &mut [T], segs: &mut [u32]) {
        self.bucket_lanes::<SEGS>(xs, out, segs);
    }

    /// Evaluates `xs` into `out` with kernel `k`, chunk by chunk.
    fn eval_with(&self, k: Kernel, xs: &[T], out: &mut [T]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        for (xc, oc) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            self.run::<false>(k, xc, oc, &mut []);
        }
    }

    /// [`Self::eval_with`] that also records segment indices.
    fn eval_and_segments_with(&self, k: Kernel, xs: &[T], out: &mut [T], segs: &mut [u32]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        assert_eq!(xs.len(), segs.len(), "input/segment length mismatch");
        for ((xc, oc), sc) in xs
            .chunks(CHUNK)
            .zip(out.chunks_mut(CHUNK))
            .zip(segs.chunks_mut(CHUNK))
        {
            self.run::<true>(k, xc, oc, sc);
        }
    }

    /// Evaluates through the named ISA tier instead of the host's widest
    /// — the hook the parity suites use to pin every tier, not just the
    /// one dispatch picks. With `segs`, segment indices are recorded as
    /// in [`Self::eval_and_segments_into`]. Returns the kernel that ran,
    /// or `None` (touching nothing) if the host lacks `isa`.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths, like the entry points it mirrors.
    #[doc(hidden)]
    pub fn eval_on(
        &self,
        isa: Isa,
        xs: &[T],
        out: &mut [T],
        segs: Option<&mut [u32]>,
    ) -> Option<Kernel> {
        if !isa.available() {
            return None;
        }
        let k = self.kernel_on(isa);
        match segs {
            Some(segs) => self.eval_and_segments_with(k, xs, out, segs),
            None => self.eval_with(k, xs, out),
        }
        Some(k)
    }

    /// The pre-SIMD batch path: the instruction-level-parallel scalar
    /// kernels that predate the SIMD lane kernels, kept callable as the
    /// measured baseline (`compiled_vs_scalar`'s `batch` columns) and as
    /// the tail kernel of the lane loops. Bit-identical to
    /// [`PwlEvaluator::eval_into`] and to [`Self::eval_one`].
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn eval_into_ref(&self, xs: &[T], out: &mut [T]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        let shape = self.kernel_on(Isa::Portable).shape;
        for (xc, oc) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            match shape {
                KernelShape::Linear => self.eval_chunk_linear_ref(xc, oc),
                KernelShape::Bucket => self.eval_chunk_bucket_ref(xc, oc),
                KernelShape::Search => self.eval_chunk_search(xc, oc),
            }
        }
    }

    /// Evaluates the packed input `xs` and scatters the results into the
    /// non-contiguous output slices `outs`, in order: the first
    /// `outs[0].len()` results land in `outs[0]`, the next `outs[1].len()`
    /// in `outs[1]`, and so on. Zero-length output slices are permitted
    /// and consume nothing.
    ///
    /// This is the serving front-end's entry point: a serve worker coalesces
    /// many small request tensors into one contiguous buffer so the lane
    /// kernels run at full width, then the results must land back in the
    /// per-request buffers. Evaluation proceeds through the same chunked
    /// SIMD kernels as [`PwlEvaluator::eval_into`] on the *packed* buffer
    /// — lane groups span job boundaries, so a flush of many tiny jobs
    /// does not degenerate to remainder handling — and only the copy-out
    /// is per-job. Results are bit-identical to evaluating the packed
    /// buffer contiguously.
    ///
    /// # Panics
    ///
    /// Panics if the output lengths do not sum to `xs.len()`.
    pub fn eval_scatter_into(&self, xs: &[T], outs: &mut [&mut [T]]) {
        let total: usize = outs.iter().map(|o| o.len()).sum();
        assert_eq!(xs.len(), total, "output slices must partition the input");
        let k = self.kernel();
        let mut scratch = vec![T::ZERO; xs.len().min(CHUNK)];
        let mut job = 0usize; // output slice currently being filled
        let mut filled = 0usize; // elements of outs[job] already written
        for xc in xs.chunks(CHUNK) {
            let sc = &mut scratch[..xc.len()];
            self.run::<false>(k, xc, sc, &mut []);
            let mut off = 0;
            while off < sc.len() {
                while outs[job].len() == filled {
                    job += 1;
                    filled = 0;
                }
                let take = (outs[job].len() - filled).min(sc.len() - off);
                outs[job][filled..filled + take].copy_from_slice(&sc[off..off + take]);
                filled += take;
                off += take;
            }
        }
    }

    /// Evaluates every sample *and* records its table-order segment index
    /// in one widened sweep — the entry point for consumers that need
    /// both, like the optimizer's gradient kernel (value for the residual,
    /// segment for the per-parameter accumulation).
    ///
    /// Values are bit-identical to [`PwlEvaluator::eval_into`]; indices
    /// are identical to [`Self::segments_into`] (NaN samples report
    /// segment 0 and evaluate to NaN).
    ///
    /// # Panics
    ///
    /// Panics if `xs`, `out` and `segs` differ in length.
    pub fn eval_and_segments_into(&self, xs: &[T], out: &mut [T], segs: &mut [u32]) {
        self.eval_and_segments_with(self.kernel(), xs, out, segs);
    }
}

impl<T: Element> PwlEvaluator<T> for PwlEngine<T> {
    fn eval_one(&self, x: T) -> T {
        PwlEngine::eval_one(self, x)
    }

    fn eval_into(&self, xs: &[T], out: &mut [T]) {
        self.eval_with(self.kernel(), xs, out);
    }
}

impl CompiledPwlF32 {
    /// [`PwlEvaluator::eval_into`], callable without importing the trait.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn eval_into(&self, xs: &[f32], out: &mut [f32]) {
        PwlEvaluator::eval_into(self, xs, out);
    }

    /// [`PwlEvaluator::eval_batch`], callable without importing the trait.
    pub fn eval_batch(&self, xs: &[f32]) -> Vec<f32> {
        PwlEvaluator::eval_batch(self, xs)
    }
}

#[cfg(target_arch = "x86_64")]
impl CompiledPwl {
    /// AVX-512 bucket kernel: eight lanes per iteration, fully in
    /// registers — the bucket map, clamp, one-comparison count and
    /// anchored multiply-add are packed f64 arithmetic, and the five table
    /// reads per lane group (breakpoint + seed from the [`Line64`]s, then
    /// the three SoA coefficient columns) are hardware gathers, so
    /// nothing is staged through memory. Performs exactly the same IEEE
    /// f64 operations as the scalar path in the same order (no FMA
    /// contraction), so results stay bit-identical. f64 has no AVX-512
    /// linear kernel: [`PwlEngine::kernel`] runs f64 linear tables on the
    /// AVX2 tier.
    ///
    /// # Safety
    /// The host must support AVX-512F; the table must use the bucket
    /// shape (`shape` is checked only in debug builds).
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512<const SEGS: bool>(
        &self,
        shape: KernelShape,
        xs: &[f64],
        out: &mut [f64],
        segs: &mut [u32],
    ) {
        use core::arch::x86_64::*;
        debug_assert!(shape == KernelShape::Bucket);
        debug_assert!(self.window <= 2 && !self.bucket_line.is_empty());
        const W: usize = 8;
        let n = self.breakpoints.len();
        let lo = _mm512_set1_pd(self.bucket_lo);
        let inv_w = _mm512_set1_pd(self.bucket_inv_w);
        let hi_bucket = _mm512_set1_pd((self.bucket_seed.len() - 1) as f64);
        let zero = _mm512_setzero_pd();
        let one = _mm512_set1_pd(1.0);
        let nf = _mm512_set1_pd(n as f64);
        let last = _mm512_set1_pd(self.breakpoints[n - 1]);
        let nan = _mm512_set1_pd(f64::NAN);
        let lines = self.bucket_line.as_ptr() as *const f64;
        let mut base = 0usize;
        for (xc, oc) in xs.chunks_exact(W).zip(out.chunks_exact_mut(W)) {
            // SAFETY: xc has exactly W elements.
            let xv = _mm512_loadu_pd(xc.as_ptr());
            // Bucket coordinate, clamped; NaN fails `t ≥ 0` → bucket 0,
            // mirroring the scalar path's saturating cast.
            let t = _mm512_mul_pd(_mm512_sub_pd(xv, lo), inv_w);
            let t = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(t, zero, _CMP_GE_OQ), zero, t);
            // min is NaN-safe here: t is NaN-free after the blend.
            let t = _mm512_min_pd(t, hi_bucket);
            // SAFETY: t is clamped to [0, buckets − 1]; the truncating
            // convert and the scaled gathers below stay in the line table.
            let bi = _mm512_cvttpd_epi32(t);
            let bi8 = _mm256_slli_epi32(bi, 3); // line stride: 8 f64
            let blo = _mm512_i32gather_pd::<8>(bi8, lines);
            let seed = _mm512_i32gather_pd::<8>(bi8, lines.add(1));
            // count = seed + (bp(seed) < x); see Line64. Exact in f64.
            let c = _mm512_add_pd(
                seed,
                _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(blo, xv, _CMP_LT_OQ), one),
            );
            let s = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(xv, last, _CMP_GE_OQ), c, nf);
            // SAFETY: every lane of s is a segment index ≤ n; the three
            // SoA columns have n + 1 entries.
            let si = _mm512_cvttpd_epi32(s);
            let ax = _mm512_i32gather_pd::<8>(si, self.anchor_x.as_ptr());
            let ay = _mm512_i32gather_pd::<8>(si, self.anchor_y.as_ptr());
            let m = _mm512_i32gather_pd::<8>(si, self.slope.as_ptr());
            // m · (x − aₓ) + a_y with separate mul and add — bit-identical
            // to the scalar path; then the NaN screen.
            let y = _mm512_add_pd(_mm512_mul_pd(m, _mm512_sub_pd(xv, ax)), ay);
            let y = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(xv, xv, _CMP_UNORD_Q), y, nan);
            _mm512_storeu_pd(oc.as_mut_ptr(), y);
            if SEGS {
                // SAFETY: segs is as long as xs; si holds 8 i32 segment
                // indices whose bits are the u32 values we store.
                _mm256_storeu_si256(segs.as_mut_ptr().add(base) as *mut __m256i, si);
            }
            base += W;
        }
        self.finish::<SEGS>(KernelShape::Bucket, base, xs, out, segs);
    }
}

#[cfg(target_arch = "x86_64")]
impl CompiledPwlF32 {
    /// The f32 AVX-512 kernel for `shape`: linear scan or bucket lines.
    ///
    /// # Safety
    /// The host must support AVX-512F; the table must have `shape`.
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512<const SEGS: bool>(
        &self,
        shape: KernelShape,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        if shape == KernelShape::Linear {
            self.linear_avx512::<SEGS>(xs, out, segs);
        } else {
            self.bucket_avx512::<SEGS>(xs, out, segs);
        }
    }

    /// AVX-512 bucket kernel: sixteen lanes per iteration, fully in
    /// registers — the bucket map, clamp, one-comparison count and
    /// anchored multiply-add are packed f32 arithmetic, and every table
    /// read is a hardware gather *into the 32-byte [`Line32`]* the lane's
    /// bucket already owns. Where the f64 kernel gathers its three
    /// coefficients from the SoA columns (three more potentially cold
    /// lines per lane), the fused f32 line lets the resolved triple come
    /// from the line itself: the adjacent `[aₓ, a_y]` pair is pulled as a
    /// single 64-bit gather and the slope as one 32-bit gather, so a lane
    /// costs three gathered loads (breakpoint, pair, slope) instead of
    /// five — the half-width layout is what buys the f32-over-f64 speedup
    /// on deep tables, not just lane count. Performs exactly the same IEEE
    /// f32 operations as the lane kernel in the same order (no FMA
    /// contraction), and the line triples hold the same bits as the SoA
    /// columns they were fused from, so results stay bit-identical.
    ///
    /// # Safety
    /// The host must support AVX-512F; the table must use the bucket
    /// shape.
    #[target_feature(enable = "avx512f")]
    unsafe fn bucket_avx512<const SEGS: bool>(
        &self,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        use core::arch::x86_64::*;
        debug_assert!(self.window <= 2 && !self.bucket_line.is_empty());
        const W: usize = 16;
        let n = self.breakpoints.len();
        let lo = _mm512_set1_ps(self.bucket_lo);
        let inv_w = _mm512_set1_ps(self.bucket_inv_w);
        let hi_bucket = _mm512_set1_ps((self.bucket_seed.len() - 1) as f32);
        let zero = _mm512_setzero_ps();
        let one = _mm512_set1_ps(1.0);
        let two = _mm512_set1_epi32(2);
        let three = _mm512_set1_epi32(3);
        let nf = _mm512_set1_ps(n as f32);
        let last = _mm512_set1_ps(self.breakpoints[n - 1]);
        let nan = _mm512_set1_ps(f32::NAN);
        let right_ax = _mm512_set1_ps(self.anchor_x[n]);
        let right_ay = _mm512_set1_ps(self.anchor_y[n]);
        let right_m = _mm512_set1_ps(self.slope[n]);
        let lines = self.bucket_line.as_ptr() as *const f32;
        let mut base = 0usize;
        for (xc, oc) in xs.chunks_exact(W).zip(out.chunks_exact_mut(W)) {
            // SAFETY: xc has exactly W elements.
            let xv = _mm512_loadu_ps(xc.as_ptr());
            // Bucket coordinate, clamped; NaN fails `t ≥ 0` → bucket 0,
            // mirroring the scalar path's saturating cast.
            let t = _mm512_mul_ps(_mm512_sub_ps(xv, lo), inv_w);
            let t = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(t, zero, _CMP_GE_OQ), zero, t);
            // min is NaN-safe here: t is NaN-free after the blend.
            let t = _mm512_min_ps(t, hi_bucket);
            // SAFETY: t is clamped to [0, buckets − 1]; the truncating
            // convert and the scaled gathers below stay in the line table.
            let bi = _mm512_cvttps_epi32(t);
            let bi8 = _mm512_slli_epi32(bi, 3); // line stride: 8 f32
            let blo = _mm512_i32gather_ps::<4>(bi8, lines);
            // candidate = line[2 + 3k ..], k = (bp(seed) < x); see
            // Line64 — one comparison resolves the triple.
            let kmask = _mm512_cmp_ps_mask(blo, xv, _CMP_LT_OQ);
            let idx = _mm512_add_epi32(bi8, two);
            let idx = _mm512_mask_add_epi32(idx, kmask, idx, three);
            // [aₓ, a_y] sit adjacent in the line: one 64-bit gather per
            // lane fetches both (8 lanes per gather, two gathers for the
            // block), then a truncate / shift-truncate splits the pair.
            let idx_lo = _mm512_extracti64x4_epi64::<0>(idx);
            let idx_hi = _mm512_extracti64x4_epi64::<1>(idx);
            let pair_lo = _mm512_i32gather_epi64::<4>(idx_lo, lines as *const i64);
            let pair_hi = _mm512_i32gather_epi64::<4>(idx_hi, lines as *const i64);
            let ax = _mm512_castsi512_ps(_mm512_inserti64x4::<1>(
                _mm512_castsi256_si512(_mm512_cvtepi64_epi32(pair_lo)),
                _mm512_cvtepi64_epi32(pair_hi),
            ));
            let ay = _mm512_castsi512_ps(_mm512_inserti64x4::<1>(
                _mm512_castsi256_si512(_mm512_cvtepi64_epi32(_mm512_srli_epi64::<32>(pair_lo))),
                _mm512_cvtepi64_epi32(_mm512_srli_epi64::<32>(pair_hi)),
            ));
            let m = _mm512_i32gather_ps::<4>(_mm512_add_epi32(idx, two), lines);
            // Right-edge lanes take the outer segment's triple — the
            // same conditional move the lane kernel applies per element.
            let ge = _mm512_cmp_ps_mask(xv, last, _CMP_GE_OQ);
            let ax = _mm512_mask_blend_ps(ge, ax, right_ax);
            let ay = _mm512_mask_blend_ps(ge, ay, right_ay);
            let m = _mm512_mask_blend_ps(ge, m, right_m);
            // m · (x − aₓ) + a_y with separate mul and add — bit-identical
            // to the lane kernel; then the NaN screen.
            let y = _mm512_add_ps(_mm512_mul_ps(m, _mm512_sub_ps(xv, ax)), ay);
            let y = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(xv, xv, _CMP_UNORD_Q), y, nan);
            _mm512_storeu_ps(oc.as_mut_ptr(), y);
            if SEGS {
                // Segment index = seed + k (n at the right edge); the
                // seed slot holds it as an exact f32 for n < 2²⁴, so the
                // count arithmetic is exact. Gathered only in this
                // variant — the value path never touches the seed.
                let seed =
                    _mm512_i32gather_ps::<4>(_mm512_add_epi32(bi8, _mm512_set1_epi32(1)), lines);
                let c = _mm512_add_ps(seed, _mm512_maskz_mov_ps(kmask, one));
                let s = _mm512_mask_blend_ps(ge, c, nf);
                let si = _mm512_cvttps_epi32(s);
                // SAFETY: segs is as long as xs; si holds 16 i32 segment
                // indices whose bits are the u32 values we store.
                _mm512_storeu_si512(segs.as_mut_ptr().add(base) as *mut __m512i, si);
            }
            base += W;
        }
        self.finish::<SEGS>(KernelShape::Bucket, base, xs, out, segs);
    }

    /// AVX-512 linear-scan kernel: sixteen lanes per iteration, fully in
    /// registers — every breakpoint is broadcast against a whole 512-bit
    /// vector for the branchless count, and the three SoA coefficient
    /// reads are hardware gathers. Performs exactly the same IEEE f32
    /// operations as the lane kernel in the same order (no FMA
    /// contraction), so results stay bit-identical.
    ///
    /// # Safety
    /// The host must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn linear_avx512<const SEGS: bool>(
        &self,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        use core::arch::x86_64::*;
        const W: usize = 16;
        let n = self.breakpoints.len();
        let one = _mm512_set1_ps(1.0);
        let nf = _mm512_set1_ps(n as f32);
        let last = _mm512_set1_ps(self.breakpoints[n - 1]);
        let nan = _mm512_set1_ps(f32::NAN);
        let mut base = 0usize;
        for (xc, oc) in xs.chunks_exact(W).zip(out.chunks_exact_mut(W)) {
            // SAFETY: xc has exactly W elements.
            let xv = _mm512_loadu_ps(xc.as_ptr());
            // Branchless count of breakpoints < x; NaN lanes count 0 and
            // fail the ≥ test, landing on segment 0 like the scalar path.
            let mut cnt = _mm512_setzero_ps();
            for &b in &self.breakpoints {
                let lt = _mm512_cmp_ps_mask(_mm512_set1_ps(b), xv, _CMP_LT_OQ);
                cnt = _mm512_add_ps(cnt, _mm512_maskz_mov_ps(lt, one));
            }
            let s = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(xv, last, _CMP_GE_OQ), cnt, nf);
            // SAFETY: every lane of s is a segment index ≤ n ≤ 8; the
            // three SoA columns have n + 1 entries.
            let si = _mm512_cvttps_epi32(s);
            let ax = _mm512_i32gather_ps::<4>(si, self.anchor_x.as_ptr());
            let ay = _mm512_i32gather_ps::<4>(si, self.anchor_y.as_ptr());
            let m = _mm512_i32gather_ps::<4>(si, self.slope.as_ptr());
            // m · (x − aₓ) + a_y with separate mul and add, then the NaN
            // screen — bit-identical to the lane kernel.
            let y = _mm512_add_ps(_mm512_mul_ps(m, _mm512_sub_ps(xv, ax)), ay);
            let y = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(xv, xv, _CMP_UNORD_Q), y, nan);
            _mm512_storeu_ps(oc.as_mut_ptr(), y);
            if SEGS {
                // SAFETY: segs is as long as xs; si holds 16 i32 segment
                // indices whose bits are the u32 values we store.
                _mm512_storeu_si512(segs.as_mut_ptr().add(base) as *mut __m512i, si);
            }
            base += W;
        }
        self.finish::<SEGS>(KernelShape::Linear, base, xs, out, segs);
    }
}

/// A [`PwlEngine`] that fans batch evaluation out over OS threads.
///
/// Small batches (below ~32 k elements) run serially — the crossover where
/// thread spawning pays for itself. Results are identical to the serial
/// engine regardless of thread count: the input is split into contiguous
/// slices and every element is evaluated by the same bit-exact kernel.
///
/// # Examples
///
/// ```
/// use flexsfu_core::{CompiledPwl, ParallelPwl, PwlEvaluator, PwlFunction};
///
/// let pwl = PwlFunction::new(vec![-1.0, 1.0], vec![-1.0, 1.0], 0.0, 0.0)?;
/// let par = ParallelPwl::new(CompiledPwl::from_pwl(&pwl));
/// let xs: Vec<f64> = (0..100_000).map(|i| i as f64 * 1e-4 - 5.0).collect();
/// let ys = par.eval_batch(&xs);
/// assert_eq!(ys[0], pwl.eval(xs[0]));
/// # Ok::<(), flexsfu_core::PwlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelPwl<T: Element = f64> {
    inner: PwlEngine<T>,
    threads: usize,
}

/// The threaded single-precision engine.
pub type ParallelPwlF32 = ParallelPwl<f32>;

impl<T: Element> ParallelPwl<T> {
    /// Wraps `inner`, sizing the pool to the machine's available
    /// parallelism.
    pub fn new(inner: PwlEngine<T>) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(inner, threads)
    }

    /// Wraps `inner` with an explicit thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(inner: PwlEngine<T>, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        Self { inner, threads }
    }

    /// The wrapped serial engine.
    pub fn engine(&self) -> &PwlEngine<T> {
        &self.inner
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The threaded counterpart of [`PwlEngine::eval_scatter_into`]:
    /// evaluates the packed input and scatters results into the
    /// non-contiguous output slices, fanning work out over threads for
    /// large flushes. The output list is split into contiguous *runs* of
    /// roughly equal element counts at job boundaries (a single job is
    /// never split across threads), so each thread runs the serial
    /// scatter kernel on an independent `(input subrange, output run)`
    /// pair — results are identical to the serial path regardless of
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if the output lengths do not sum to `xs.len()`.
    pub fn eval_scatter_into(&self, xs: &[T], outs: &mut [&mut [T]]) {
        let total: usize = outs.iter().map(|o| o.len()).sum();
        assert_eq!(xs.len(), total, "output slices must partition the input");
        if self.threads == 1 || total < PARALLEL_MIN_ELEMENTS {
            return self.inner.eval_scatter_into(xs, outs);
        }
        let per = total.div_ceil(self.threads);
        std::thread::scope(|scope| {
            let mut rest = outs;
            let mut off = 0usize;
            let mut runs_left = self.threads;
            while !rest.is_empty() {
                // Greedily take whole jobs up to ~`per` elements; an
                // oversized job becomes a run of its own. The final
                // allowed run absorbs everything left, so no more than
                // `threads` runs (and threads) are ever created.
                let mut take_elems = 0usize;
                let mut k = 0usize;
                if runs_left == 1 {
                    k = rest.len();
                    take_elems = total - off;
                } else {
                    while k < rest.len() && (k == 0 || take_elems + rest[k].len() <= per) {
                        take_elems += rest[k].len();
                        k += 1;
                    }
                }
                runs_left -= 1;
                let run;
                (run, rest) = rest.split_at_mut(k);
                let xc = &xs[off..off + take_elems];
                off += take_elems;
                let engine = &self.inner;
                scope.spawn(move || engine.eval_scatter_into(xc, run));
            }
        });
    }
}

impl<T: Element> PwlEvaluator<T> for ParallelPwl<T> {
    fn eval_one(&self, x: T) -> T {
        self.inner.eval_one(x)
    }

    fn eval_into(&self, xs: &[T], out: &mut [T]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        let n = xs.len();
        if self.threads == 1 || n < PARALLEL_MIN_ELEMENTS {
            return self.inner.eval_into(xs, out);
        }
        let workers = self.threads.min(n);
        let per = n.div_ceil(workers);
        std::thread::scope(|scope| {
            for (xc, oc) in xs.chunks(per).zip(out.chunks_mut(per)) {
                let engine = &self.inner;
                scope.spawn(move || engine.eval_into(xc, oc));
            }
        });
    }
}

impl ParallelPwlF32 {
    /// Scalar evaluation on the wrapped engine.
    pub fn eval_one(&self, x: f32) -> f32 {
        self.inner.eval_one(x)
    }

    /// [`PwlEvaluator::eval_into`], callable without importing the trait.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn eval_into(&self, xs: &[f32], out: &mut [f32]) {
        PwlEvaluator::eval_into(self, xs, out);
    }

    /// [`PwlEvaluator::eval_batch`], callable without importing the trait.
    pub fn eval_batch(&self, xs: &[f32]) -> Vec<f32> {
        PwlEvaluator::eval_batch(self, xs)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The engine's unit tests. Checks that read the same in both
    //! precisions are generic helpers here; `engine_f32::tests` runs the
    //! f32 instances.

    use super::*;

    pub(crate) fn sample_pwl() -> PwlFunction {
        PwlFunction::new(
            vec![-2.0, -1.0, 0.5, 2.0],
            vec![0.3, -0.7, 1.1, 0.9],
            0.25,
            -0.5,
        )
        .unwrap()
    }

    /// 33 breakpoints → 34 segments → bucket shape.
    pub(crate) fn deep_pwl() -> PwlFunction {
        let p: Vec<f64> = (0..33).map(|i| i as f64 * 0.37 - 6.0).collect();
        let v: Vec<f64> = p.iter().map(|x| x.sin()).collect();
        PwlFunction::new(p, v, 0.1, -0.2).unwrap()
    }

    pub(crate) fn dense_grid<T: Element>(a: f64, b: f64, m: usize) -> Vec<T> {
        (0..m)
            .map(|k| T::from_f64(a + (b - a) * k as f64 / (m - 1) as f64))
            .collect()
    }

    fn bits<T: Element>(x: T) -> u64 {
        x.to_f64().to_bits()
    }

    pub(crate) fn check_nan_propagates<T: Element>() {
        let c = PwlEngine::<T>::from_pwl(&sample_pwl());
        assert!(c.eval_one(T::NAN).is_nan());
        let mut out = [T::ZERO; 3];
        let xs = [T::ZERO, T::NAN, T::from_f64(1.0)];
        PwlEvaluator::eval_into(&c, &xs, &mut out);
        assert!(!out[0].is_nan() && out[1].is_nan() && !out[2].is_nan());
    }

    pub(crate) fn check_parallel_matches_serial<T: Element>(pwl: &PwlFunction) {
        let c = PwlEngine::<T>::from_pwl(pwl);
        let par = ParallelPwl::with_threads(c.clone(), 4);
        let xs = dense_grid::<T>(-6.0, 6.0, 50_000);
        let serial = PwlEvaluator::eval_batch(&c, &xs);
        let parallel = PwlEvaluator::eval_batch(&par, &xs);
        for (i, (&ys, &yp)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(bits(yp), bits(ys), "at {i}");
        }
    }

    /// Scatters `xs` into jobs of `sizes` through `scatter` and checks
    /// the concatenated outputs against contiguous evaluation.
    fn check_scatter<T: Element>(
        c: &PwlEngine<T>,
        xs: &[T],
        sizes: &[usize],
        scatter: impl FnOnce(&[T], &mut [&mut [T]]),
    ) {
        assert_eq!(sizes.iter().sum::<usize>(), xs.len());
        let want = PwlEvaluator::eval_batch(c, xs);
        let mut bufs: Vec<Vec<T>> = sizes.iter().map(|&n| vec![T::ZERO; n]).collect();
        let mut views: Vec<&mut [T]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        scatter(xs, &mut views);
        for (i, (&w, &got)) in want.iter().zip(bufs.concat().iter()).enumerate() {
            assert_eq!(bits(got), bits(w), "scatter mismatch at {i}");
        }
    }

    pub(crate) fn check_scatter_matches_contiguous<T: Element>() {
        let c = PwlEngine::<T>::from_pwl(&sample_pwl());
        let xs = dense_grid::<T>(-6.0, 6.0, 10_000);
        // Irregular job sizes, including empty jobs at the edges and in
        // the middle; the threaded front-end stays below its parallel
        // threshold here and must produce the same bits.
        let sizes = [0usize, 7, 1, 0, 4096, 513, 0, 31, 5352, 0];
        check_scatter(&c, &xs, &sizes, |xs, outs| c.eval_scatter_into(xs, outs));
        let par = ParallelPwl::with_threads(c.clone(), 4);
        check_scatter(&c, &xs, &sizes, |xs, outs| par.eval_scatter_into(xs, outs));
    }

    pub(crate) fn check_scatter_parallel_splits_at_job_boundaries<T: Element>() {
        // Above PARALLEL_MIN_ELEMENTS so the threaded path engages, with
        // one oversized job that must become a run of its own.
        let c = PwlEngine::<T>::from_pwl(&sample_pwl());
        let n = PARALLEL_MIN_ELEMENTS * 2;
        let xs = dense_grid::<T>(-6.0, 6.0, n);
        let par = ParallelPwl::with_threads(c.clone(), 4);
        check_scatter(&c, &xs, &[300, n - 1000, 0, 700], |xs, outs| {
            par.eval_scatter_into(xs, outs)
        });
    }

    pub(crate) fn check_scatter_accepts_empty_input_and_outputs<T: Element>() {
        let c = PwlEngine::<T>::from_pwl(&sample_pwl());
        c.eval_scatter_into(&[], &mut []);
        let mut a: Vec<T> = Vec::new();
        let mut b: Vec<T> = Vec::new();
        c.eval_scatter_into(&[], &mut [a.as_mut_slice(), b.as_mut_slice()]);
    }

    pub(crate) fn check_scatter_rejects_mismatched_totals<T: Element>() {
        let c = PwlEngine::<T>::from_pwl(&sample_pwl());
        let mut buf = [T::ZERO; 2];
        c.eval_scatter_into(&[T::ZERO; 3], &mut [buf.as_mut_slice()]);
    }

    pub(crate) fn check_eval_into_rejects_mismatched_lengths<T: Element>() {
        let c = PwlEngine::<T>::from_pwl(&sample_pwl());
        let mut out = [T::ZERO; 2];
        PwlEvaluator::eval_into(&c, &[T::ZERO; 3], &mut out);
    }

    /// Evaluates `xs` through every kernel path the host can run —
    /// reference kernels, each ISA tier with and without segments,
    /// scatter — and checks each against the scalar `eval_one`.
    pub(crate) fn assert_every_path_matches_eval_one<T: Element>(c: &PwlEngine<T>, xs: &[T]) {
        let want: Vec<u64> = xs.iter().map(|&x| bits(c.eval_one(x))).collect();
        let check = |label: &str, got: &[T]| {
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(bits(g), w, "{label} at x = {:?}", xs[i]);
            }
        };
        let mut out = vec![T::ZERO; xs.len()];
        c.eval_into_ref(xs, &mut out);
        check("eval_into_ref", &out);
        let mut segs = vec![0u32; xs.len()];
        for isa in Isa::ALL {
            if let Some(k) = c.eval_on(isa, xs, &mut out, None) {
                check(k.name(), &out);
                c.eval_on(isa, xs, &mut out, Some(&mut segs));
                check(k.name(), &out);
                for (&x, &s) in xs.iter().zip(&segs) {
                    assert_eq!(s as usize, c.segment_index(x), "{} segs at {x:?}", k.name());
                }
            }
        }
        c.eval_scatter_into(xs, &mut [out.as_mut_slice()]);
        check("scatter", &out);
    }

    /// Steps `x` by one unit in the last place, either way.
    pub(crate) trait Ulp: Element {
        fn up(self) -> Self;
        fn down(self) -> Self;
    }

    impl Ulp for f64 {
        fn up(self) -> Self {
            self.next_up()
        }
        fn down(self) -> Self {
            self.next_down()
        }
    }

    impl Ulp for f32 {
        fn up(self) -> Self {
            self.next_up()
        }
        fn down(self) -> Self {
            self.next_down()
        }
    }

    /// Every breakpoint and every bucket edge of `c`, each ± 1 ulp —
    /// exactly where a wrong seed or a short window would show.
    pub(crate) fn index_probes<T: Ulp>(c: &PwlEngine<T>) -> Vec<T> {
        let mut edges: Vec<T> = c.breakpoints.clone();
        if c.bucket_inv_w > T::ZERO {
            edges.extend(
                (0..=c.bucket_seed.len())
                    .map(|b| c.bucket_lo + T::from_f64(b as f64) / c.bucket_inv_w),
            );
        }
        edges.iter().flat_map(|&x| [x.down(), x, x.up()]).collect()
    }

    /// Tables that stress the measured index: narrow spans at large
    /// offsets (where bucket-edge rounding is coarse), clustered
    /// breakpoints, and both shapes.
    pub(crate) fn index_stress_pwls() -> Vec<PwlFunction> {
        let offset = |base: f64, width: f64, n: usize| {
            let p: Vec<f64> = (0..n)
                .map(|i| base + i as f64 * (width / (n - 1) as f64))
                .collect();
            let v: Vec<f64> = p.iter().map(|x| ((x - base) / width * 3.0).cos()).collect();
            PwlFunction::new(p, v, 0.3, -0.3).unwrap()
        };
        let clustered = {
            let mut p: Vec<f64> = (0..24).map(|i| -4.0 + i as f64 * 1e-7).collect();
            p.extend((1..=16).map(|i| i as f64 * 0.5));
            let v: Vec<f64> = p.iter().map(|x| x.tanh()).collect();
            PwlFunction::new(p, v, 0.0, 0.0).unwrap()
        };
        let mildly_clustered = {
            let p: Vec<f64> = (0..40)
                .map(|i| (i as f64 / 39.0).powi(3) * 8.0 - 4.0)
                .collect();
            let v: Vec<f64> = p.iter().map(|x| x.tanh()).collect();
            PwlFunction::new(p, v, 0.0, 0.0).unwrap()
        };
        vec![
            offset(1e6, 1e-3, 33),
            offset(1e6, 1e-3, 7),
            offset(100.0, 0.05, 33),
            offset(-3e4, 0.7, 64),
            clustered,
            mildly_clustered,
            deep_pwl(),
        ]
    }

    /// The bucket index before it was measured: seeds one bucket early
    /// and a window reaching one bucket past the right edge, with bucket
    /// edges computed as `lo + b / inv_w`. Kept only as the oracle the
    /// measured window must never exceed.
    fn conservative_window(c: &CompiledPwl) -> usize {
        let (p, n) = (&c.breakpoints, c.breakpoints.len());
        let buckets = c.bucket_seed.len();
        let (lo, inv_w) = (c.bucket_lo, c.bucket_inv_w);
        let mut edge = Vec::with_capacity(buckets + 1);
        let mut idx = 0usize;
        for b in 0..buckets {
            let left_edge = if inv_w > 0.0 {
                lo + b as f64 / inv_w
            } else {
                lo
            };
            while idx < n && p[idx] < left_edge {
                idx += 1;
            }
            edge.push(idx as u32);
        }
        edge.push(n as u32);
        if inv_w == 0.0 {
            edge.fill(n as u32);
            edge[0] = 0;
        }
        (0..buckets)
            .map(|b| edge[(b + 2).min(buckets)] - edge[b.saturating_sub(1)])
            .max()
            .unwrap() as usize
            + 1
    }

    #[test]
    fn measured_index_is_exact_at_every_breakpoint_and_bucket_edge() {
        for pwl in index_stress_pwls() {
            let c = CompiledPwl::from_pwl(&pwl);
            let xs = index_probes(&c);
            for &x in &xs {
                assert_eq!(c.eval_one(x).to_bits(), pwl.eval(x).to_bits(), "at {x}");
            }
            assert_every_path_matches_eval_one(&c, &xs);
        }
    }

    #[test]
    fn measured_window_never_exceeds_the_conservative_one() {
        let mut tables = index_stress_pwls();
        tables.push(sample_pwl());
        for pwl in tables {
            let c = CompiledPwl::from_pwl(&pwl);
            let old = conservative_window(&c);
            assert!(c.window <= old, "window {} > conservative {old}", c.window);
        }
    }

    #[test]
    fn kernel_reports_the_shape_the_table_supports() {
        let linear = CompiledPwl::from_pwl(&sample_pwl());
        assert_eq!(linear.kernel().shape, KernelShape::Linear);
        let bucket = CompiledPwl::from_pwl(&deep_pwl());
        assert_eq!(bucket.kernel().shape, KernelShape::Bucket);
        assert_eq!(bucket.kernel().isa, Isa::host());
        assert!(bucket.kernel_name().starts_with("bucket/"));
        // f64 linear tables have no AVX-512 kernel.
        assert_ne!(linear.kernel().isa, Isa::Avx512);
        assert_eq!(
            PwlEngine::<f32>::from_pwl(&deep_pwl()).kernel().shape,
            KernelShape::Bucket
        );
    }

    #[test]
    fn shapes_and_accessors() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        assert_eq!(c.num_breakpoints(), 4);
        assert_eq!(c.num_segments(), 5);
        assert_eq!(c.breakpoints(), pwl.breakpoints());
        assert_eq!(c.slopes().len(), 5);
        assert_eq!(c.slopes()[0], pwl.left_slope());
        assert_eq!(c.slopes()[4], pwl.right_slope());
    }

    #[test]
    fn segment_index_matches_region_mapping() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        let table = CoeffTable::from_pwl(&pwl);
        for x in dense_grid::<f64>(-5.0, 5.0, 2001) {
            let want = table.region_to_address(pwl.region(x));
            assert_eq!(c.segment_index(x), want, "at {x}");
        }
        // Exactly on every breakpoint too.
        for &p in pwl.breakpoints() {
            let want = table.region_to_address(pwl.region(p));
            assert_eq!(c.segment_index(p), want, "on breakpoint {p}");
        }
    }

    #[test]
    fn eval_is_bit_identical_to_scalar() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        for x in dense_grid::<f64>(-10.0, 10.0, 4001) {
            assert_eq!(
                c.eval_one(x).to_bits(),
                pwl.eval(x).to_bits(),
                "mismatch at {x}"
            );
        }
    }

    #[test]
    fn deep_table_uses_search_path_and_stays_exact() {
        let pwl = deep_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        for x in dense_grid::<f64>(-8.0, 8.0, 4001) {
            assert_eq!(c.eval_one(x).to_bits(), pwl.eval(x).to_bits(), "at {x}");
        }
    }

    #[test]
    fn batch_and_parallel_match_scalar() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        let xs = dense_grid::<f64>(-6.0, 6.0, 50_000);
        for (&x, &y) in xs.iter().zip(&c.eval_batch(&xs)) {
            assert_eq!(y.to_bits(), pwl.eval(x).to_bits());
        }
        check_parallel_matches_serial::<f64>(&pwl);
    }

    #[test]
    fn nan_propagates_through_all_paths() {
        check_nan_propagates::<f64>();
    }

    #[test]
    fn refill_is_indistinguishable_from_fresh_compile() {
        // Recompile across shapes (shallow → deep → shallow): the refilled
        // engine must compare equal to a fresh compile and evaluate
        // bit-identically, regardless of what it previously held.
        let (shallow, deep) = (sample_pwl(), deep_pwl());
        let mut engine = CompiledPwl::from_pwl(&shallow);
        for target in [&deep, &shallow, &deep] {
            engine.refill_from_pwl(target);
            assert_eq!(engine, CompiledPwl::from_pwl(target));
            for x in dense_grid::<f64>(-8.0, 8.0, 1001) {
                assert_eq!(engine.eval_one(x).to_bits(), target.eval(x).to_bits());
            }
        }
    }

    #[test]
    fn coeff_table_roundtrip_is_exact() {
        let pwl = sample_pwl();
        let direct = CoeffTable::from_pwl(&pwl);
        let via_engine = CompiledPwl::from_pwl(&pwl).to_coeff_table();
        assert_eq!(direct, via_engine);
    }

    #[test]
    fn segments_into_agrees_with_eval_at_segment() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        let xs = dense_grid::<f64>(-4.0, 4.0, 513);
        let mut segs = vec![0u32; xs.len()];
        c.segments_into(&xs, &mut segs);
        for (&x, &s) in xs.iter().zip(&segs) {
            assert_eq!(
                c.eval_at_segment(x, s as usize).to_bits(),
                pwl.eval(x).to_bits()
            );
        }
    }

    #[test]
    fn degenerate_two_breakpoint_function() {
        let pwl = PwlFunction::new(vec![0.0, 1.0], vec![0.0, 2.0], -1.0, 3.0).unwrap();
        let c = CompiledPwl::from_pwl(&pwl);
        assert_eq!(c.num_segments(), 3);
        for x in dense_grid::<f64>(-3.0, 4.0, 1001) {
            assert_eq!(c.eval_one(x).to_bits(), pwl.eval(x).to_bits(), "at {x}");
        }
    }

    #[test]
    fn scatter_matches_contiguous_eval() {
        check_scatter_matches_contiguous::<f64>();
    }

    #[test]
    fn scatter_parallel_splits_at_job_boundaries() {
        check_scatter_parallel_splits_at_job_boundaries::<f64>();
    }

    #[test]
    fn scatter_parallel_caps_runs_at_thread_count() {
        // 7 jobs, each just over half the per-thread share: the greedy
        // splitter would otherwise make 7 single-job runs on a 4-thread
        // engine; the cap folds the tail into the final run. Results
        // must be unchanged.
        let c = CompiledPwl::from_pwl(&sample_pwl());
        let job = (PARALLEL_MIN_ELEMENTS * 2).div_ceil(7) + 1;
        let xs = dense_grid::<f64>(-6.0, 6.0, job * 7);
        let par = ParallelPwl::with_threads(c.clone(), 4);
        check_scatter(&c, &xs, &[job; 7], |xs, outs| {
            par.eval_scatter_into(xs, outs)
        });
    }

    #[test]
    fn scatter_accepts_empty_input_and_outputs() {
        check_scatter_accepts_empty_input_and_outputs::<f64>();
    }

    #[test]
    #[should_panic(expected = "partition the input")]
    fn scatter_rejects_mismatched_totals() {
        check_scatter_rejects_mismatched_totals::<f64>();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn eval_into_rejects_mismatched_lengths() {
        check_eval_into_rejects_mismatched_lengths::<f64>();
    }
}
