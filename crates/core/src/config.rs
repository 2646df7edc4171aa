//! MCL / HipMCL configuration.

use hipmcl_gpu::select::SelectionPolicy;
use hipmcl_sparse::colops::PruneParams;
use hipmcl_summa::active::ActiveSetPolicy;
use hipmcl_summa::estimate::{EstimatorKind, PhasePlanner};
use hipmcl_summa::executor::ExecutorKind;
use hipmcl_summa::merge::{MergeKernelPolicy, MergeStrategy};
use hipmcl_summa::spgemm::{CommPolicy, ConfigError, PhasePlan, SummaConfig};

/// Complete configuration of an MCL run.
#[derive(Clone, Copy, Debug)]
pub struct MclConfig {
    /// Inflation parameter (Hadamard power). The paper uses 2 everywhere.
    pub inflation: f64,
    /// Pruning policy applied after every expansion. Cutoff, selection
    /// and recovery are all honoured by both the serial and distributed
    /// drivers (and tested to agree); the presets ship with recovery
    /// disabled because the paper's evaluation parameters rarely trigger
    /// it and the harness calibration assumes the selection-only regime.
    pub prune: PruneParams,
    /// Add missing self-loops (weight = 1) before normalizing — MCL's
    /// standard aperiodicity fix.
    pub add_self_loops: bool,
    /// Symmetrize the input pattern with `max(a, aᵀ)` first (similarity
    /// graphs are logically undirected).
    pub symmetrize: bool,
    /// Stop when the chaos statistic falls below this.
    pub chaos_epsilon: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Distributed expansion settings (ignored by the serial driver).
    pub summa: SummaConfig,
    /// Convergence-aware active-set shrinking of the SUMMA operand
    /// (ignored by the serial driver). Every preset ships with
    /// [`ActiveSetPolicy::Off`]; opt in with [`ActiveSetPolicy::shrink`].
    pub active_set: ActiveSetPolicy,
}

impl Default for MclConfig {
    fn default() -> Self {
        Self::optimized(u64::MAX)
    }
}

impl MclConfig {
    /// Baseline configuration reproducing *original* HipMCL: CPU heap
    /// SpGEMM, exact symbolic memory estimation, multiway merge, bulk
    /// synchronous.
    pub fn original_hipmcl(per_rank_budget: u64) -> Self {
        Self {
            inflation: 2.0,
            prune: PruneParams {
                recover_num: 0,
                recover_pct: 0.0,
                ..PruneParams::default()
            },
            add_self_loops: true,
            symmetrize: true,
            chaos_epsilon: 1e-3,
            max_iters: 100,
            summa: SummaConfig::original_hipmcl(per_rank_budget),
            active_set: ActiveSetPolicy::Off,
        }
    }

    /// The paper's optimized HipMCL: GPU kernels, probabilistic/hybrid
    /// estimation, Pipelined Sparse SUMMA with binary merge.
    pub fn optimized(per_rank_budget: u64) -> Self {
        Self {
            summa: SummaConfig::optimized(per_rank_budget),
            ..Self::original_hipmcl(per_rank_budget)
        }
    }

    /// Optimized kernels without overlap (Fig. 1 middle bar).
    pub fn optimized_no_overlap(per_rank_budget: u64) -> Self {
        Self {
            summa: SummaConfig::optimized_no_overlap(per_rank_budget),
            ..Self::original_hipmcl(per_rank_budget)
        }
    }

    /// Optimized HipMCL on nodes without accelerators: CPU kernels run as
    /// asynchronous launches on the per-rank worker pool, keeping the
    /// §III broadcast/merge overlap.
    pub fn cpu_pipelined(per_rank_budget: u64) -> Self {
        Self {
            summa: SummaConfig::cpu_pipelined(per_rank_budget),
            ..Self::original_hipmcl(per_rank_budget)
        }
    }

    /// Small-graph testing preset: keep at most `select` entries per
    /// column, single fixed phase, deterministic seed.
    pub fn testing(select: usize) -> Self {
        Self {
            prune: PruneParams {
                cutoff: 1e-4,
                select,
                recover_num: 0,
                recover_pct: 0.0,
            },
            summa: SummaConfig {
                phases: PhasePlan::Fixed(1),
                planner: PhasePlanner::MemoryOnly,
                policy: SelectionPolicy::cpu_only(),
                merge: MergeStrategy::Multiway,
                merge_kernel: MergeKernelPolicy::Auto,
                pipelined: false,
                executor: ExecutorKind::Gpus,
                comm: CommPolicy::Hybrid,
                seed: 42,
            },
            ..Self::original_hipmcl(u64::MAX)
        }
    }

    /// Overrides the estimator while keeping everything else.
    pub fn with_estimator(mut self, estimator: EstimatorKind, per_rank_budget: u64) -> Self {
        self.summa.phases = PhasePlan::Auto {
            estimator,
            per_rank_budget,
        };
        self
    }

    /// Overrides where local multiplications execute (devices, CPU worker
    /// pool, or a hybrid column split) while keeping everything else.
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.summa.executor = executor;
        self
    }

    /// Checks the configuration for values that would misbehave at run
    /// time — a degenerate overlap-planner headroom or an out-of-range
    /// active-set shrinking parameter — which is reported here (and by
    /// the drivers, which call this on entry) rather than silently
    /// clamped.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.summa.validate()?;
        self.active_set.validate().map_err(ConfigError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_summa_settings() {
        let orig = MclConfig::original_hipmcl(1 << 30);
        let opt = MclConfig::optimized(1 << 30);
        assert_eq!(orig.inflation, 2.0);
        assert!(!orig.summa.pipelined);
        assert!(opt.summa.pipelined);
        assert_eq!(opt.summa.merge, MergeStrategy::Binary);
        assert_eq!(orig.summa.merge, MergeStrategy::Multiway);
    }

    #[test]
    fn presets_ship_with_recovery_disabled() {
        let c = MclConfig::optimized(1);
        assert_eq!(c.prune.recover_num, 0);
    }

    #[test]
    fn testing_preset_bounds_columns() {
        let c = MclConfig::testing(8);
        assert_eq!(c.prune.select, 8);
        assert!(matches!(c.summa.phases, PhasePlan::Fixed(1)));
    }

    #[test]
    fn cpu_pipelined_preset_uses_worker_pool() {
        let c = MclConfig::cpu_pipelined(1 << 30);
        assert_eq!(c.summa.executor, ExecutorKind::CpuPool);
        assert!(c.summa.pipelined, "the pool exists to overlap");
        assert_eq!(c.summa.merge, MergeStrategy::Binary);
    }

    #[test]
    fn with_executor_overrides_only_the_executor() {
        let c = MclConfig::testing(8).with_executor(ExecutorKind::Hybrid);
        assert_eq!(c.summa.executor, ExecutorKind::Hybrid);
        assert!(matches!(c.summa.phases, PhasePlan::Fixed(1)));
    }

    #[test]
    fn hybrid_executor_exists_and_default_is_gpus() {
        assert_eq!(ExecutorKind::default(), ExecutorKind::Gpus);
        assert_eq!(
            MclConfig::optimized(1 << 30).summa.executor,
            ExecutorKind::Gpus
        );
        assert_ne!(ExecutorKind::Hybrid, ExecutorKind::Gpus);
    }

    #[test]
    fn active_set_defaults_off_everywhere_and_validates() {
        for c in [
            MclConfig::original_hipmcl(1 << 30),
            MclConfig::optimized(1 << 30),
            MclConfig::optimized_no_overlap(1 << 30),
            MclConfig::cpu_pipelined(1 << 30),
            MclConfig::testing(8),
        ] {
            assert_eq!(c.active_set, ActiveSetPolicy::Off);
            assert!(c.validate().is_ok());
        }
        let mut c = MclConfig::testing(8);
        c.active_set = ActiveSetPolicy::shrink();
        assert!(c.validate().is_ok());
        c.active_set = ActiveSetPolicy::Shrink {
            epsilon: f64::NAN,
            min_shrink_frac: 0.1,
            reshard_every: 1,
        };
        match c.validate().unwrap_err() {
            ConfigError::ActiveSet(e) => assert_eq!(e.field, "epsilon"),
            other => panic!("expected an active-set error, got {other:?}"),
        }
    }

    #[test]
    fn estimators_without_keys_are_rejected() {
        let kinds = |r| {
            [
                EstimatorKind::Probabilistic { r },
                EstimatorKind::ProbabilisticGpu { r },
                EstimatorKind::Hybrid {
                    r,
                    cf_threshold: 2.0,
                },
            ]
        };
        for kind in kinds(0) {
            let c = MclConfig::testing(24).with_estimator(kind, 1 << 30);
            let want = Err(ConfigError::EstimatorKeys(kind));
            assert_eq!(c.summa.validate(), want);
            assert_eq!(c.validate(), want);
        }
        // One key is legal: the estimate degenerates to the lower bound.
        for kind in kinds(1) {
            let c = MclConfig::testing(24).with_estimator(kind, 1 << 30);
            assert_eq!(c.summa.validate(), Ok(()), "{kind:?}");
            assert_eq!(c.validate(), Ok(()), "{kind:?}");
        }
    }

    #[test]
    fn with_estimator_overrides_phases() {
        let c = MclConfig::testing(8).with_estimator(EstimatorKind::Probabilistic { r: 7 }, 1000);
        match c.summa.phases {
            PhasePlan::Auto {
                estimator,
                per_rank_budget,
            } => {
                assert_eq!(estimator, EstimatorKind::Probabilistic { r: 7 });
                assert_eq!(per_rank_budget, 1000);
            }
            _ => panic!("expected auto phases"),
        }
    }
}
