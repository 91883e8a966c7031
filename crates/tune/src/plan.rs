//! Applying a tuning result: from winner to live serving binding.
//!
//! A [`TunedPlan`] is self-contained — the winning table, the full
//! [`TuneReport`] it was selected from, and enough configuration to
//! rebuild the winning datapath — so "bring the serving layer up tuned"
//! is one call: [`TunedPlan::bind`] compiles the table, lowers it
//! through the winning backend, registers it with a derived
//! [`FlushPolicy`], and returns the live [`FunctionId`]. The bulk
//! entry points [`tune_and_bind`] / [`tune_and_bind_all`] do that for a
//! list of registry functions (or all twelve) under one budget.

use crate::candidate::{build_backend, max_ulp_at_1, CandidateReport};
use crate::space::BackendChoice;
use crate::tuner::{tune_named, TuneError, TuneOptions, TuneReport};
use crate::TuneBudget;
use flexsfu_backend::{BackendProgram, EvalBackend};
use flexsfu_core::{CompiledPwl, PwlFunction};
use flexsfu_hw::pipeline_latency;
use flexsfu_perf::frontier::FrontierRow;
use flexsfu_serve::{FlushPolicy, FunctionId, FunctionRegistry};
use std::sync::Arc;
use std::time::Duration;

/// A tuning result ready to deploy.
#[derive(Debug, Clone)]
pub struct TunedPlan {
    /// Registration name (the function's registry name, or the
    /// caller's label for user tables).
    pub name: String,
    /// The winning table.
    pub table: PwlFunction,
    /// The full sweep the winner was selected from.
    pub report: TuneReport,
}

impl TunedPlan {
    /// The winning candidate's measurements.
    pub fn winner(&self) -> &CandidateReport {
        self.report.winner()
    }

    /// Rebuilds the winning [`EvalBackend`] (native, or an SFU emulator
    /// at the depth/format the sweep measured).
    pub fn backend(&self) -> Arc<dyn EvalBackend> {
        build_backend(&self.winner().config, self.segments())
    }

    /// Table segments incl. the two outer regions — what the emulated
    /// LTC must hold.
    fn segments(&self) -> usize {
        self.table.num_breakpoints() + 1
    }

    /// The flush policy derived for the winning datapath. A zero
    /// deadline is work-conserving (flush whenever a worker is free); a
    /// nonzero one holds jobs that long to coalesce them. Native kernels
    /// have no per-flush fill cost, so they flush at engine scale with a
    /// zero deadline. The SFU path sizes its threshold so the per-flush
    /// pipeline fill latency stays under 1% of streaming cycles (clamped
    /// to [1024, 16384]), and holds jobs 500 µs so those bigger flushes
    /// can form.
    pub fn flush_policy(&self) -> FlushPolicy {
        match self.winner().config.backend {
            BackendChoice::Native => FlushPolicy {
                max_elems: 4096,
                deadline: Duration::ZERO,
            },
            BackendChoice::Sfu { format } => {
                let depth = self.segments().next_power_of_two().max(4);
                let fill = pipeline_latency(depth);
                let lanes = format.elem_size().lanes_per_word() as u64;
                let amortized = (100 * fill * lanes).next_power_of_two();
                FlushPolicy {
                    max_elems: amortized.clamp(1024, 16384) as usize,
                    deadline: Duration::from_micros(500),
                }
            }
        }
    }

    /// Lowers the winning table through the winning backend — the
    /// reference program a caller compares served traffic against
    /// (bit-identical by the serving layer's per-backend guarantee).
    ///
    /// # Panics
    ///
    /// Panics if lowering fails — impossible for a plan produced by the
    /// sweep, which measured this exact table through this exact
    /// backend.
    pub fn lower(&self) -> Arc<dyn BackendProgram> {
        self.backend()
            .lower(&CompiledPwl::from_pwl(&self.table))
            .expect("the sweep already lowered this table through this backend")
    }

    /// Re-measures the winner's error from a fresh lowering: max
    /// deviation from `truth` over a `grid_points`-point grid on the
    /// tuning range, in FP16 ULPs at base 1. The grid is built by the
    /// same helper the sweep uses, so with the sweep's own
    /// `grid_points` this reproduces [`CandidateReport::ulp_at_1`]
    /// exactly — the post-binding re-check the acceptance suite pins.
    ///
    /// # Panics
    ///
    /// Panics if `grid_points < 2` (a re-check that measures nothing
    /// must not read as "budget met").
    pub fn remeasure_ulp(&self, truth: &dyn Fn(f64) -> f64, grid_points: usize) -> f64 {
        let grid = crate::tuner::measurement_grid(self.report.range, grid_points);
        let expect: Vec<f64> = grid.iter().map(|&x| truth(x)).collect();
        let (got, _) = self.lower().eval_batch(&grid);
        max_ulp_at_1(&got, &expect)
    }

    /// Registers the plan into `registry` — table compiled, lowered
    /// through the winning backend, flush policy installed, all under
    /// one registration — and returns the live id. The serving layer
    /// then routes this function's flushes through the tuned datapath.
    ///
    /// # Errors
    ///
    /// [`TuneError::Bind`] if the registry rejects the registration
    /// (it cannot: the sweep already lowered this table through this
    /// backend — but the error is typed rather than panicking across a
    /// crate boundary).
    pub fn bind(&self, registry: &FunctionRegistry) -> Result<FunctionId, TuneError> {
        registry
            .register_with_backend_and_policy(
                &self.name,
                &self.table,
                self.backend(),
                Some(self.flush_policy()),
            )
            .map_err(TuneError::Bind)
    }

    /// The sweep as [`FrontierRow`]s for
    /// [`flexsfu_perf::frontier::render_frontier_table`], in sweep
    /// order.
    pub fn frontier_rows(&self) -> Vec<FrontierRow> {
        self.report
            .candidates
            .iter()
            .enumerate()
            .map(|(i, c)| FrontierRow {
                backend: c.config.backend.backend_label(),
                format: c.config.backend.format_label(),
                breakpoints: c.config.breakpoints,
                ulp_at_1: c.ulp_at_1,
                cycles_per_elem: c.cycles_per_elem,
                energy_nj_per_elem: c.energy_nj_per_elem,
                on_frontier: self.report.on_frontier(i),
                winner: i == self.report.winner,
            })
            .collect()
    }
}

/// Tunes each named registry function under one budget and binds every
/// winner into `registry` (name → tuned table → winning backend →
/// derived flush policy), returning the plans with their live ids.
/// All-or-nothing only in the sense that the first failure stops the
/// loop; functions bound before it remain registered.
///
/// # Errors
///
/// As for [`tune_named`] and [`TunedPlan::bind`].
pub fn tune_and_bind(
    names: &[&str],
    registry: &FunctionRegistry,
    budget: &TuneBudget,
    opts: &TuneOptions,
) -> Result<Vec<(FunctionId, TunedPlan)>, TuneError> {
    names
        .iter()
        .map(|name| {
            let plan = tune_named(name, budget, opts)?;
            let id = plan.bind(registry)?;
            Ok((id, plan))
        })
        .collect()
}

/// [`tune_and_bind`] over the whole `flexsfu-funcs` registry — brings a
/// serving deployment up "tuned" in one call.
///
/// # Errors
///
/// As for [`tune_and_bind`].
pub fn tune_and_bind_all(
    registry: &FunctionRegistry,
    budget: &TuneBudget,
    opts: &TuneOptions,
) -> Result<Vec<(FunctionId, TunedPlan)>, TuneError> {
    tune_and_bind(flexsfu_funcs::names(), registry, budget, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::tune;
    use flexsfu_funcs::{Activation, Sigmoid, Tanh};

    fn quick_plan(f: &dyn Activation, budget: &TuneBudget) -> TunedPlan {
        tune(f, budget, &TuneOptions::quick()).expect("quick tuning succeeds")
    }

    #[test]
    fn bind_installs_backend_and_policy() {
        let plan = quick_plan(&Tanh, &TuneBudget::max_error(32.0));
        let registry = FunctionRegistry::new();
        let id = plan.bind(&registry).unwrap();
        assert_eq!(registry.id_of("tanh"), Some(id));
        assert_eq!(
            registry.backend_name(id),
            Some(plan.winner().config.backend.backend_label())
        );
        assert_eq!(registry.policy(id), Some(plan.flush_policy()));
    }

    #[test]
    fn flush_policy_is_sane_for_both_datapaths() {
        // Single-datapath spaces pin the winner's backend kind without
        // depending on which datapath happens to measure best.
        let mut native_only = TuneOptions::quick();
        native_only.space.formats.clear();
        native_only.space.fixed_point_for_range = false;
        let native = tune(
            &Sigmoid,
            &TuneBudget::max_cycles(f64::INFINITY),
            &native_only,
        )
        .unwrap();
        assert_eq!(native.winner().config.backend, BackendChoice::Native);
        let p = native.flush_policy();
        assert!(p.max_elems >= 1024);
        assert_eq!(
            p.deadline,
            Duration::ZERO,
            "native flushes are work-conserving"
        );

        let mut sfu_only = TuneOptions::quick();
        sfu_only.space.include_native = false;
        let sfu = tune(&Sigmoid, &TuneBudget::max_cycles(f64::INFINITY), &sfu_only).unwrap();
        assert!(matches!(
            sfu.winner().config.backend,
            BackendChoice::Sfu { .. }
        ));
        let p = sfu.flush_policy();
        assert!((1024..=16384).contains(&p.max_elems));
        assert!(p.max_elems.is_power_of_two());
        assert_eq!(
            p.deadline,
            Duration::from_micros(500),
            "the SFU path holds jobs to amortize pipeline fill"
        );
    }

    #[test]
    fn remeasure_reproduces_the_sweeps_measurement() {
        let opts = TuneOptions::quick();
        let plan = tune(&Tanh, &TuneBudget::max_error(32.0), &opts).unwrap();
        let re = plan.remeasure_ulp(&|x| Tanh.eval(x), opts.grid_points);
        assert_eq!(re.to_bits(), plan.winner().ulp_at_1.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least its two endpoints")]
    fn remeasure_rejects_degenerate_grids() {
        let plan = quick_plan(&Tanh, &TuneBudget::max_error(32.0));
        plan.remeasure_ulp(&|x| Tanh.eval(x), 0);
    }

    #[test]
    fn frontier_rows_align_with_the_report() {
        let plan = quick_plan(&Tanh, &TuneBudget::max_error(32.0));
        let rows = plan.frontier_rows();
        assert_eq!(rows.len(), plan.report.candidates.len());
        assert_eq!(rows.iter().filter(|r| r.winner).count(), 1);
        assert_eq!(
            rows.iter().filter(|r| r.on_frontier).count(),
            plan.report.frontier.len()
        );
        let table = flexsfu_perf::render_frontier_table(&rows);
        assert!(table.contains("* <="));
    }

    #[test]
    fn tune_and_bind_registers_every_name() {
        let registry = FunctionRegistry::new();
        let plans = tune_and_bind(
            &["sigmoid", "tanh"],
            &registry,
            &TuneBudget::max_error(32.0),
            &TuneOptions::quick(),
        )
        .unwrap();
        assert_eq!(plans.len(), 2);
        assert_eq!(registry.len(), 2);
        for (id, plan) in &plans {
            assert_eq!(registry.id_of(&plan.name), Some(*id));
        }
        // An unknown name fails typed, leaving earlier bindings live.
        let err = tune_and_bind(
            &["gelu", "nope"],
            &registry,
            &TuneBudget::max_error(32.0),
            &TuneOptions::quick(),
        )
        .unwrap_err();
        assert_eq!(err, TuneError::UnknownFunction("nope".into()));
        assert!(registry.id_of("gelu").is_some());
    }
}
