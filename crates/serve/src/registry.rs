//! The shared function registry: compiled engines by id, hot-swappable,
//! each bound to an evaluation backend.
//!
//! Every serving job names its function by [`FunctionId`]. The registry
//! maps ids to engines behind an `RwLock`, and the batcher snapshots a
//! function's backend program once per flush unit — so
//! [`FunctionRegistry::publish`]ing a recompiled table takes effect
//! atomically at the next flush, without stopping traffic, and a flush
//! already in progress keeps evaluating against the table it started
//! with. One flush unit therefore never mixes coefficient tables — nor
//! backends: a unit is per-function, and a function has exactly one
//! backend binding.
//!
//! # Backend bindings
//!
//! [`FunctionRegistry::register`] binds the native SIMD backend;
//! [`FunctionRegistry::register_with_backend`] lowers the same compiled
//! table onto any [`EvalBackend`] (e.g. the bit-faithful Flex-SFU
//! emulator, [`flexsfu_backend::SfuBackend`]), and the serve worker
//! pool routes each flush unit to its function's program. Per-flush
//! [`flexsfu_backend::FlushStats`] accumulate into per-function
//! counters, readable via [`FunctionRegistry::backend_stats`].

use crate::histogram::{HistogramAccum, InputHistogramSnapshot, INPUT_HIST_BUCKETS};
use crate::server::{FlushPolicy, Precision};
use flexsfu_backend::{BackendProgram, EvalBackend, FlushStats, NativeBackend};
use flexsfu_core::{CompiledPwl, CompiledPwlF32, ParallelPwl, ParallelPwlF32, PwlFunction};
use std::sync::{Arc, Mutex, RwLock};

/// An opaque handle naming a registered function. Ids are dense (the
/// `n`-th registration gets id `n`) and never invalidated — publishing a
/// new table reuses the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub u32);

/// Accumulated backend activity of one registered function.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackendStatsSnapshot {
    /// Flush units evaluated.
    pub flushes: u64,
    /// Elements evaluated across those flushes.
    pub elems: u64,
    /// Modelled hardware cycles (zero for backends without a cost
    /// model, like the native SIMD kernels).
    pub cycles: u64,
    /// Modelled energy in nanojoules (zero without a cost model).
    pub energy_nj: f64,
}

/// Thread-safe accumulator the evaluation workers feed after each flush.
#[derive(Default)]
pub(crate) struct StatsAccumulator(Mutex<BackendStatsSnapshot>);

impl StatsAccumulator {
    pub(crate) fn record(&self, stats: &FlushStats) {
        let mut s = self.0.lock().unwrap();
        s.flushes += 1;
        s.elems += stats.elems as u64;
        if let Some(hw) = stats.hw {
            s.cycles += hw.cycles;
            s.energy_nj += hw.energy_nj;
        }
    }

    fn snapshot(&self) -> BackendStatsSnapshot {
        *self.0.lock().unwrap()
    }
}

pub(crate) struct Entry {
    name: String,
    backend: Arc<dyn EvalBackend>,
    /// The engines and programs of the current table; swapped whole by
    /// [`FunctionRegistry::publish`].
    pub(crate) bound: Bound,
    policy: Option<FlushPolicy>,
    stats: Arc<StatsAccumulator>,
    /// Streaming histogram of the raw inputs this function's flushes
    /// evaluate (both precisions). Range pinned at registration to the
    /// initial table's breakpoint span; deliberately **not** swapped by
    /// [`FunctionRegistry::publish`], so drift windows before and after
    /// a hot-swap stay mergeable.
    histogram: Arc<HistogramAccum>,
}

/// The engine/program pairs of one binding, both precisions — what
/// [`bind`] produces and [`FunctionRegistry::publish`] swaps in.
pub(crate) struct Bound {
    /// The native threaded engine — always available as the software
    /// reference, whatever backend serves traffic.
    engine: Arc<ParallelPwl>,
    /// The single-precision twin, compiled from the same table — the
    /// direct-eval reference for f32 jobs, always available even when
    /// the bound backend has no f32 lane.
    engine_f32: Arc<ParallelPwlF32>,
    pub(crate) program: Arc<dyn BackendProgram>,
    /// The backend's f32 lowering of the same table, or `None` when the
    /// backend has no f32 lane — f32 submissions then fail with
    /// [`crate::ServeError::PrecisionUnsupported`].
    pub(crate) program_f32: Option<Arc<dyn BackendProgram<f32>>>,
}

/// A concurrently readable, hot-swappable table of compiled engines with
/// per-function backend bindings and flush policies.
///
/// # Examples
///
/// ```
/// use flexsfu_core::init::uniform_pwl;
/// use flexsfu_funcs::Gelu;
/// use flexsfu_serve::FunctionRegistry;
///
/// let registry = FunctionRegistry::new();
/// let gelu = registry.register("gelu", &uniform_pwl(&Gelu, 16, (-8.0, 8.0)));
/// assert_eq!(registry.id_of("gelu"), Some(gelu));
/// assert_eq!(registry.backend_name(gelu), Some("native"));
/// let y = registry.engine(gelu).unwrap().engine().eval_one(0.5);
/// assert!(y.is_finite());
/// ```
#[derive(Default)]
pub struct FunctionRegistry {
    entries: RwLock<Vec<Entry>>,
}

/// Builds an entry's engine + program pairs (both precisions) for
/// `backend`: the programs come from the backend's own `lower` /
/// `lower_f32`, whatever the backend is — no special-casing by label,
/// so a third-party backend that happens to call itself `"native"`
/// still gets its lowering (and cost model) run. The registry's
/// reference engines are a second compile of the same table; for the
/// built-in native backend that duplicates a few hundred floats per
/// function, which is cheaper than a fragile identity check. The f32
/// twin is derived from the compiled f64 table
/// ([`CompiledPwlF32::from_compiled`]), so both precisions always
/// describe the same published function.
fn bind(backend: &Arc<dyn EvalBackend>, engine: CompiledPwl) -> Result<Bound, crate::ServeError> {
    let program = backend
        .lower(&engine)
        .map_err(crate::ServeError::LowerFailed)?;
    let engine_f32 = CompiledPwlF32::from_compiled(&engine);
    let program_f32 = backend
        .lower_f32(&engine_f32)
        .map(|p| p as Arc<dyn BackendProgram<f32>>);
    Ok(Bound {
        engine: Arc::new(ParallelPwl::new(engine)),
        engine_f32: Arc::new(ParallelPwlF32::new(engine_f32)),
        program,
        program_f32,
    })
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `pwl` and registers it under `name` on the **native**
    /// backend, returning its id. Registering while a server is running
    /// is allowed; jobs may name the new id as soon as this returns.
    pub fn register(&self, name: impl Into<String>, pwl: &PwlFunction) -> FunctionId {
        self.register_compiled(name, CompiledPwl::from_pwl(pwl))
    }

    /// Registers an already compiled engine under `name` on the native
    /// backend.
    pub fn register_compiled(&self, name: impl Into<String>, engine: CompiledPwl) -> FunctionId {
        let backend: Arc<dyn EvalBackend> = Arc::new(NativeBackend::new());
        self.register_compiled_with_backend(name, engine, backend)
            .expect("native lowering is infallible")
    }

    /// Compiles `pwl` and registers it under `name` with an explicit
    /// backend binding: every flush of this function's jobs evaluates
    /// through (a program lowered by) `backend`.
    ///
    /// # Errors
    ///
    /// [`crate::ServeError::LowerFailed`] if the backend cannot lower
    /// the function (table too deep, quantization collapses
    /// breakpoints).
    pub fn register_with_backend(
        &self,
        name: impl Into<String>,
        pwl: &PwlFunction,
        backend: Arc<dyn EvalBackend>,
    ) -> Result<FunctionId, crate::ServeError> {
        self.register_compiled_with_backend(name, CompiledPwl::from_pwl(pwl), backend)
    }

    /// [`Self::register_with_backend`] for an already compiled engine.
    ///
    /// # Errors
    ///
    /// As for [`Self::register_with_backend`].
    pub fn register_compiled_with_backend(
        &self,
        name: impl Into<String>,
        engine: CompiledPwl,
        backend: Arc<dyn EvalBackend>,
    ) -> Result<FunctionId, crate::ServeError> {
        self.register_compiled_with_backend_and_policy(name, engine, backend, None)
    }

    /// [`Self::register_with_backend`] plus an initial [`FlushPolicy`],
    /// installed under the same registry write lock as the entry itself
    /// — so a batcher that sees the function at all sees it with its
    /// policy, never in a default-policy window. This is the bulk-bring-up
    /// entry point an auto-tuner uses: one call per function registers
    /// the tuned table, its backend binding *and* its derived flush
    /// policy atomically.
    ///
    /// # Errors
    ///
    /// As for [`Self::register_with_backend`].
    pub fn register_with_backend_and_policy(
        &self,
        name: impl Into<String>,
        pwl: &PwlFunction,
        backend: Arc<dyn EvalBackend>,
        policy: Option<FlushPolicy>,
    ) -> Result<FunctionId, crate::ServeError> {
        self.register_compiled_with_backend_and_policy(
            name,
            CompiledPwl::from_pwl(pwl),
            backend,
            policy,
        )
    }

    /// [`Self::register_with_backend_and_policy`] for an already
    /// compiled engine.
    ///
    /// # Errors
    ///
    /// As for [`Self::register_with_backend`].
    pub fn register_compiled_with_backend_and_policy(
        &self,
        name: impl Into<String>,
        engine: CompiledPwl,
        backend: Arc<dyn EvalBackend>,
        policy: Option<FlushPolicy>,
    ) -> Result<FunctionId, crate::ServeError> {
        // Pin the histogram range to the table's breakpoint span before
        // `bind` consumes the engine: the span is exactly the region the
        // tuner measured over, so live traffic outside it lands in the
        // snapshot's below/above tails.
        let bps = engine.breakpoints();
        let (hist_lo, hist_hi) = (bps[0], bps[bps.len() - 1]);
        let bound = bind(&backend, engine)?;
        let mut entries = self.entries.write().unwrap();
        let id = FunctionId(entries.len() as u32);
        entries.push(Entry {
            name: name.into(),
            backend,
            bound,
            policy,
            stats: Arc::new(StatsAccumulator::default()),
            histogram: Arc::new(HistogramAccum::new(hist_lo, hist_hi, INPUT_HIST_BUCKETS)),
        });
        Ok(id)
    }

    /// Hot-swaps the engine behind `id` — the serving-side half of an
    /// `optimize()` run: recompile off-line, publish here, and traffic
    /// picks the new coefficients up at its next flush. The new table is
    /// re-lowered through the entry's **existing backend binding**; the
    /// binding, flush policy and accumulated stats survive the swap.
    /// Returns the native engine that was replaced.
    ///
    /// # Errors
    ///
    /// [`crate::ServeError::UnknownFunction`] if `id` was never
    /// registered; [`crate::ServeError::LowerFailed`] if the entry's
    /// backend rejects the new table (the old program keeps serving).
    pub fn publish(
        &self,
        id: FunctionId,
        engine: CompiledPwl,
    ) -> Result<Arc<ParallelPwl>, crate::ServeError> {
        // Snapshot the binding under a read lock and run the lowering
        // with **no lock held**: the batcher reads this registry on its
        // hot path (while holding the queue mutex), so a write lock
        // held across a potentially slow backend `lower` would stall
        // every submission — the opposite of "publish without stopping
        // traffic". The backend of an entry never changes after
        // registration, so the snapshot cannot go stale.
        let backend = self
            .entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .map(|e| Arc::clone(&e.backend))
            .ok_or(crate::ServeError::UnknownFunction(id))?;
        let bound = bind(&backend, engine)?;
        // The write lock is now held only for the swap; the whole binding
        // swaps under one lock, so a flush snapshot never sees a torn
        // engine/program pair — in either precision.
        let mut entries = self.entries.write().unwrap();
        let entry = entries
            .get_mut(id.0 as usize)
            .ok_or(crate::ServeError::UnknownFunction(id))?;
        Ok(std::mem::replace(&mut entry.bound, bound).engine)
    }

    /// The current native engine for `id`, or `None` if unregistered.
    /// The returned `Arc` stays valid (and unchanged) across later
    /// [`Self::publish`] calls — snapshot semantics.
    pub fn engine(&self, id: FunctionId) -> Option<Arc<ParallelPwl>> {
        self.entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .map(|e| Arc::clone(&e.bound.engine))
    }

    /// Snapshot of the backend program (in precision `T`), stats sink
    /// and input-histogram sink for `id` — what a flush unit carries.
    /// `None` when `id` is unregistered or its backend has no lane in
    /// `T` (submission already rejected the latter). Both precisions feed
    /// the same per-function counters. Like [`Self::engine`], the
    /// snapshot is unaffected by later publishes.
    #[allow(clippy::type_complexity)]
    pub(crate) fn binding<T: Precision>(
        &self,
        id: FunctionId,
    ) -> Option<(
        Arc<dyn BackendProgram<T>>,
        Arc<StatsAccumulator>,
        Arc<HistogramAccum>,
    )> {
        self.entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .and_then(|e| {
                Some((
                    Arc::clone(T::program(e)?),
                    Arc::clone(&e.stats),
                    Arc::clone(&e.histogram),
                ))
            })
    }

    /// Whether `id`'s backend can serve precision `T` ([`None`] if `id`
    /// is unregistered). Fixed by the backend binding at registration —
    /// publishes re-lower through the same backend, so the answer never
    /// changes over an entry's lifetime.
    pub(crate) fn supports<T: Precision>(&self, id: FunctionId) -> Option<bool> {
        self.entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .map(|e| T::program(e).is_some())
    }

    /// Whether `id`'s backend can serve f32 jobs ([`None`] if `id` is
    /// unregistered).
    pub fn supports_f32(&self, id: FunctionId) -> Option<bool> {
        self.supports::<f32>(id)
    }

    /// The current native **f32** engine for `id` — the direct-eval
    /// reference for single-precision jobs, compiled from the same
    /// table as [`Self::engine`]. Snapshot semantics, like
    /// [`Self::engine`].
    pub fn engine_f32(&self, id: FunctionId) -> Option<Arc<ParallelPwlF32>> {
        self.entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .map(|e| Arc::clone(&e.bound.engine_f32))
    }

    /// The bound backend's name for `id` (`"native"`, `"sfu-emu"`, …).
    pub fn backend_name(&self, id: FunctionId) -> Option<&'static str> {
        self.entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .map(|e| e.backend.name())
    }

    /// Accumulated backend activity of `id` since registration.
    pub fn backend_stats(&self, id: FunctionId) -> Option<BackendStatsSnapshot> {
        self.entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .map(|e| e.stats.snapshot())
    }

    /// Cumulative input histogram of `id` since registration (or the
    /// last [`Self::drain_input_histogram`]): every element its flushes
    /// evaluated, both precisions. The bucket range is the breakpoint
    /// span of the table `id` was *registered* with and survives
    /// [`Self::publish`], so readings stay comparable across hot-swaps.
    pub fn input_histogram(&self, id: FunctionId) -> Option<InputHistogramSnapshot> {
        self.entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .map(|e| e.histogram.snapshot())
    }

    /// Atomically snapshots **and resets** `id`'s input histogram — the
    /// windowed read a drift detector uses: each drain covers exactly
    /// the traffic since the previous one, and the windows merge back
    /// into the cumulative view ([`InputHistogramSnapshot::merge`])
    /// because counts are plain sums.
    pub fn drain_input_histogram(&self, id: FunctionId) -> Option<InputHistogramSnapshot> {
        self.entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .map(|e| e.histogram.drain())
    }

    /// Sets (or clears, with `None`) the per-function flush policy of
    /// `id`. Functions without an explicit policy use the server's
    /// [`crate::ServeConfig`] defaults. Takes effect at the batcher's
    /// next wake-up: the next submission, the next expiring deadline,
    /// or — when jobs are queued with no reachable deadline — the
    /// batcher's coarse re-check tick (~10 ms), so even tightening the
    /// deadline of an already-parked never-expiring function applies
    /// promptly.
    ///
    /// # Errors
    ///
    /// [`crate::ServeError::UnknownFunction`] if `id` was never
    /// registered.
    pub fn set_policy(
        &self,
        id: FunctionId,
        policy: Option<FlushPolicy>,
    ) -> Result<(), crate::ServeError> {
        let mut entries = self.entries.write().unwrap();
        let entry = entries
            .get_mut(id.0 as usize)
            .ok_or(crate::ServeError::UnknownFunction(id))?;
        entry.policy = policy;
        Ok(())
    }

    /// The explicit flush policy of `id`, if one was set.
    pub fn policy(&self, id: FunctionId) -> Option<FlushPolicy> {
        self.entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .and_then(|e| e.policy)
    }

    /// Whether `id` is registered — the submission hot path's validation
    /// (one read lock, no `Arc` refcount traffic; the program snapshot
    /// itself is taken later, at flush time).
    pub fn contains(&self, id: FunctionId) -> bool {
        (id.0 as usize) < self.entries.read().unwrap().len()
    }

    /// The registration name of `id` — the inverse of [`Self::id_of`]
    /// (used e.g. to label per-function metric series).
    pub fn name_of(&self, id: FunctionId) -> Option<String> {
        self.entries
            .read()
            .unwrap()
            .get(id.0 as usize)
            .map(|e| e.name.clone())
    }

    /// Looks an id up by registration name (first match).
    pub fn id_of(&self, name: &str) -> Option<FunctionId> {
        self.entries
            .read()
            .unwrap()
            .iter()
            .position(|e| e.name == name)
            .map(|i| FunctionId(i as u32))
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered `(id, name, backend name)` rows, for reports.
    pub fn functions(&self) -> Vec<(FunctionId, String, &'static str)> {
        self.entries
            .read()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, e)| (FunctionId(i as u32), e.name.clone(), e.backend.name()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfu_backend::SfuBackend;
    use flexsfu_core::init::uniform_pwl;
    use flexsfu_core::PwlEvaluator;
    use flexsfu_funcs::{Gelu, Tanh};
    use std::time::Duration;

    #[test]
    fn register_and_lookup() {
        let r = FunctionRegistry::new();
        assert!(r.is_empty());
        let a = r.register("gelu", &uniform_pwl(&Gelu, 8, (-8.0, 8.0)));
        let b = r.register("tanh", &uniform_pwl(&Tanh, 8, (-8.0, 8.0)));
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.id_of("tanh"), Some(b));
        assert_eq!(r.id_of("nope"), None);
        assert!(r.engine(b).is_some());
        assert!(r.engine(FunctionId(99)).is_none());
        assert!(r.contains(a) && r.contains(b));
        assert!(!r.contains(FunctionId(99)));
        assert_eq!(r.backend_name(a), Some("native"));
        assert_eq!(r.backend_stats(a), Some(BackendStatsSnapshot::default()));
    }

    #[test]
    fn publish_swaps_atomically_and_snapshots_persist() {
        let r = FunctionRegistry::new();
        let gelu = uniform_pwl(&Gelu, 8, (-8.0, 8.0));
        let tanh = uniform_pwl(&Tanh, 8, (-8.0, 8.0));
        let id = r.register("f", &gelu);
        let old_snapshot = r.engine(id).unwrap();
        let replaced = r.publish(id, CompiledPwl::from_pwl(&tanh)).unwrap();
        // The replaced engine is the snapshot we took.
        assert!(Arc::ptr_eq(&old_snapshot, &replaced));
        // The snapshot still evaluates the old table; the registry serves
        // the new one.
        let x = 0.37;
        assert_eq!(old_snapshot.eval_one(x).to_bits(), gelu.eval(x).to_bits());
        let fresh = r.engine(id).unwrap();
        assert_eq!(fresh.eval_one(x).to_bits(), tanh.eval(x).to_bits());
    }

    #[test]
    fn publish_unknown_id_errors() {
        let r = FunctionRegistry::new();
        let gelu = uniform_pwl(&Gelu, 8, (-8.0, 8.0));
        let err = r.publish(FunctionId(0), CompiledPwl::from_pwl(&gelu));
        assert!(matches!(
            err,
            Err(crate::ServeError::UnknownFunction(FunctionId(0)))
        ));
    }

    #[test]
    fn backend_binding_survives_publish_and_rejects_bad_tables() {
        let r = FunctionRegistry::new();
        let id = r
            .register_with_backend(
                "tanh",
                &uniform_pwl(&Tanh, 31, (-8.0, 8.0)),
                Arc::new(SfuBackend::fp16(32)),
            )
            .unwrap();
        assert_eq!(r.backend_name(id), Some("sfu-emu"));
        // A publish too deep for the bound emulator fails and keeps the
        // old program serving.
        let too_deep = uniform_pwl(&Tanh, 63, (-8.0, 8.0));
        let err = r.publish(id, CompiledPwl::from_pwl(&too_deep));
        assert!(matches!(err, Err(crate::ServeError::LowerFailed(_))));
        let (program, _, _) = r.binding::<f64>(id).unwrap();
        assert_eq!(program.backend_name(), "sfu-emu");
        // A fitting publish re-lowers onto the same backend.
        r.publish(
            id,
            CompiledPwl::from_pwl(&uniform_pwl(&Tanh, 15, (-6.0, 6.0))),
        )
        .unwrap();
        assert_eq!(r.backend_name(id), Some("sfu-emu"));
    }

    #[test]
    fn register_with_policy_installs_both_atomically() {
        let r = FunctionRegistry::new();
        let policy = FlushPolicy {
            max_elems: 2048,
            deadline: Duration::from_micros(500),
        };
        let id = r
            .register_with_backend_and_policy(
                "tanh",
                &uniform_pwl(&Tanh, 15, (-8.0, 8.0)),
                Arc::new(SfuBackend::fp16(16)),
                Some(policy),
            )
            .unwrap();
        assert_eq!(r.backend_name(id), Some("sfu-emu"));
        assert_eq!(r.policy(id), Some(policy));
        // `None` keeps the server defaults, exactly like plain register.
        let plain = r
            .register_with_backend_and_policy(
                "gelu",
                &uniform_pwl(&Gelu, 8, (-8.0, 8.0)),
                Arc::new(SfuBackend::fp16(16)),
                None,
            )
            .unwrap();
        assert_eq!(r.policy(plain), None);
    }

    #[test]
    fn input_histogram_range_pinned_at_registration_and_survives_publish() {
        let r = FunctionRegistry::new();
        let id = r.register("tanh", &uniform_pwl(&Tanh, 8, (-4.0, 4.0)));
        let before = r.input_histogram(id).unwrap();
        assert_eq!((before.lo, before.hi), (-4.0, 4.0));
        assert_eq!(before.total(), 0);
        assert!(r.input_histogram(FunctionId(9)).is_none());
        // Publishing a table with a different span keeps the histogram
        // shape (and any accumulated counts).
        r.publish(
            id,
            CompiledPwl::from_pwl(&uniform_pwl(&Tanh, 8, (-8.0, 8.0))),
        )
        .unwrap();
        let after = r.input_histogram(id).unwrap();
        assert_eq!((after.lo, after.hi), (-4.0, 4.0));
        // Drain snapshots-and-resets.
        let drained = r.drain_input_histogram(id).unwrap();
        assert_eq!(drained.total(), 0);
    }

    #[test]
    fn policies_set_clear_and_error_on_unknown_ids() {
        let r = FunctionRegistry::new();
        let id = r.register("f", &uniform_pwl(&Gelu, 8, (-8.0, 8.0)));
        assert_eq!(r.policy(id), None);
        let policy = FlushPolicy {
            max_elems: 128,
            deadline: Duration::from_millis(2),
        };
        r.set_policy(id, Some(policy)).unwrap();
        assert_eq!(r.policy(id), Some(policy));
        r.set_policy(id, None).unwrap();
        assert_eq!(r.policy(id), None);
        assert!(matches!(
            r.set_policy(FunctionId(9), Some(policy)),
            Err(crate::ServeError::UnknownFunction(FunctionId(9)))
        ));
    }
}
