//! # flexsfu-backend
//!
//! Pluggable evaluation backends over the compiled PWL engine — the
//! paper's core claim made executable: **one coefficient table serves
//! both a software evaluator and the Flex-SFU hardware datapath**.
//!
//! A backend takes a [`CompiledPwl`] (the engine's SoA form: sorted
//! breakpoints plus per-segment slope/intercept) and *lowers* it into a
//! backend-resident program; the program then batch-evaluates packed
//! buffers through the same slice-scatter entry-point shape the serving
//! layer already uses ([`flexsfu_core::PwlEngine::eval_scatter_into`]), so a flush
//! unit can be routed to any backend without repacking. Two backends
//! ship:
//!
//! * [`NativeBackend`] — the identity lowering onto the existing SIMD
//!   lane kernels ([`flexsfu_core::ParallelPwl`]). Results are
//!   bit-identical to scalar f64 [`flexsfu_core::PwlFunction::eval`];
//!   no hardware cost model applies.
//! * [`SfuBackend`] — a **bit-faithful emulation** of the paper's
//!   Flex-SFU unit: breakpoints, slopes and intercepts are quantized
//!   through a [`flexsfu_formats::DataFormat`] and loaded into the `hw`
//!   crate's ADU binary-search tree and LTC coefficient memories; every
//!   element then walks the modelled datapath (quantize input → ADU
//!   decode → LTC fetch → MADD → output quantization), exactly as
//!   [`flexsfu_hw::FlexSfu::eval`] would. Each flush returns a
//!   [`HwEstimate`] — cycles from [`flexsfu_hw::pipeline`], energy from
//!   [`flexsfu_hw::power::PowerModel`], silicon area from
//!   [`flexsfu_hw::area::AreaModel`] — alongside the results, and the
//!   program can state a sound absolute error bound vs the scalar f64
//!   reference ([`SfuProgram::abs_error_bound`]), which the
//!   `backend_parity` suite pins in ULP terms for every built-in
//!   activation.
//!
//! The serving layer (`flexsfu-serve`) binds one backend per registered
//! function: the batcher still groups flushes per function, so **a
//! flush never mixes backends**, and per-flush [`FlushStats`] aggregate
//! into the registry's backend counters.
//!
//! # Adding a backend
//!
//! Implement [`EvalBackend::lower`] to translate the engine's tables
//! into whatever representation the target consumes (device buffers, a
//! quantized LUT, an RPC handle …) and [`BackendProgram::eval_scatter_into`]
//! to evaluate a packed buffer and scatter results into per-job slices.
//! Programs must be `Send + Sync`: the serving worker pool shares them
//! across threads. Return `hw: None` in [`FlushStats`] if the backend
//! has no cost model.
//!
//! # Example
//!
//! ```
//! use flexsfu_backend::{EvalBackend, NativeBackend, SfuBackend};
//! use flexsfu_core::init::uniform_pwl;
//! use flexsfu_funcs::Gelu;
//!
//! let engine = uniform_pwl(&Gelu, 31, (-8.0, 8.0)).compile();
//! let native = NativeBackend::new().lower(&engine)?;
//! let sfu = SfuBackend::fp16(32).lower(&engine)?;
//!
//! let xs = [-1.0, 0.0, 0.5, 2.0];
//! let (exact, _) = native.eval_batch(&xs);
//! let (approx, stats) = sfu.eval_batch(&xs);
//! let hw = stats.hw.expect("the SFU emulator reports hardware costs");
//! assert!(hw.cycles > 0 && hw.energy_nj > 0.0);
//! for (a, e) in approx.iter().zip(&exact) {
//!     assert!((a - e).abs() < 0.01); // fp16 datapath ≈ f64 reference
//! }
//! # Ok::<(), flexsfu_backend::LowerError>(())
//! ```

mod native;
mod sfu;

pub use native::{NativeBackend, NativeProgram, NativeProgramF32};
pub use sfu::{SfuBackend, SfuProgram};

use flexsfu_core::{CompiledPwl, CompiledPwlF32, Element};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Why lowering a [`CompiledPwl`] onto a backend failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowerError {
    /// The function has more segments than the backend's table holds
    /// (the SFU emulator's LTC depth).
    TooManySegments {
        /// Segments the function needs (`breakpoints + 1`).
        needed: usize,
        /// Segments the backend can hold.
        capacity: usize,
    },
    /// Quantization through the backend's number format collapsed two
    /// breakpoints into one code — the format is too coarse for the
    /// function's breakpoint spacing.
    BreakpointCollision,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::TooManySegments { needed, capacity } => write!(
                f,
                "function needs {needed} segments but the backend holds {capacity}"
            ),
            LowerError::BreakpointCollision => {
                write!(f, "breakpoints collide after backend quantization")
            }
        }
    }
}

impl Error for LowerError {}

impl From<flexsfu_hw::ProgramError> for LowerError {
    fn from(e: flexsfu_hw::ProgramError) -> Self {
        match e {
            flexsfu_hw::ProgramError::TooManySegments { needed, depth } => {
                LowerError::TooManySegments {
                    needed,
                    capacity: depth,
                }
            }
            flexsfu_hw::ProgramError::BreakpointCollision => LowerError::BreakpointCollision,
        }
    }
}

/// Modelled hardware cost of one flush, from the `hw` crate's calibrated
/// models (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwEstimate {
    /// Steady-state cycles for the flush: pipeline fill latency plus
    /// streaming beats ([`flexsfu_hw::execution_cycles`]); the one-off
    /// `ld.bp`/`ld.cf` programming cost amortizes across flushes and is
    /// not charged here. Always > 0 (the fill latency alone is ≥ 7).
    pub cycles: u64,
    /// Energy for those cycles in nanojoules, from the 28 nm power model
    /// at the configured cluster count.
    pub energy_nj: f64,
    /// Silicon area of the emulated instance in µm² (static per program,
    /// repeated here so per-flush reports are self-contained).
    pub area_um2: f64,
}

/// What one flush through a [`BackendProgram`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushStats {
    /// Elements evaluated.
    pub elems: usize,
    /// Hardware cost estimate; `None` for backends without a cost model
    /// (the native SIMD kernels).
    pub hw: Option<HwEstimate>,
}

/// A factory lowering compiled functions onto one evaluation target.
///
/// Backends are cheap, shareable descriptions (format, depth, cluster
/// count); the per-function state lives in the [`BackendProgram`] that
/// [`EvalBackend::lower`] produces.
pub trait EvalBackend: Send + Sync {
    /// Short stable label for reports and registry columns
    /// (`"native"`, `"sfu-emu"`, …).
    fn name(&self) -> &'static str;

    /// Lowers `engine` into a backend-resident program.
    ///
    /// # Errors
    ///
    /// [`LowerError`] when the function does not fit the backend's
    /// tables or its quantization.
    fn lower(&self, engine: &CompiledPwl) -> Result<Arc<dyn BackendProgram>, LowerError>;

    /// Lowers the single-precision form of the function, if this backend
    /// has an f32 lane. The default is `None` — a backend without an f32
    /// datapath simply doesn't serve f32 traffic (the serving layer
    /// surfaces that as a precision-unsupported error rather than
    /// silently round-tripping the request through f64).
    ///
    /// [`NativeBackend`] overrides this with the identity lowering onto
    /// [`flexsfu_core::ParallelPwlF32`].
    fn lower_f32(&self, engine: &CompiledPwlF32) -> Option<Arc<dyn BackendProgramF32>> {
        let _ = engine;
        None
    }
}

/// A lowered function, ready to batch-evaluate packed buffers of element
/// type `T` (f64 unless named; f32 programs come from
/// [`EvalBackend::lower_f32`] and never touch f64 — the packed flush
/// buffer, the kernels and the scattered results are all f32).
///
/// Programs are immutable from the caller's perspective and shared
/// across the serving worker pool (`Send + Sync`); interior state (like
/// the SFU emulator's single-ported memories) must synchronize
/// internally.
pub trait BackendProgram<T: Element = f64>: Send + Sync {
    /// The owning backend's [`EvalBackend::name`].
    fn backend_name(&self) -> &'static str;

    /// Evaluates the packed input `xs` and scatters results into the
    /// non-contiguous output slices, in order — the same contract as
    /// [`flexsfu_core::PwlEngine::eval_scatter_into`] — returning what
    /// the flush cost.
    ///
    /// # Panics
    ///
    /// Panics if the output lengths do not sum to `xs.len()`.
    fn eval_scatter_into(&self, xs: &[T], outs: &mut [&mut [T]]) -> FlushStats;

    /// Convenience: evaluates `xs` into a fresh contiguous `Vec`.
    fn eval_batch(&self, xs: &[T]) -> (Vec<T>, FlushStats) {
        let mut out = vec![T::default(); xs.len()];
        let stats = self.eval_scatter_into(xs, &mut [out.as_mut_slice()]);
        (out, stats)
    }
}

/// The name [`EvalBackend::lower_f32`] returns single-precision programs
/// under: every [`BackendProgram<f32>`] is one.
pub trait BackendProgramF32: BackendProgram<f32> {}

impl<P: BackendProgram<f32> + ?Sized> BackendProgramF32 for P {}
