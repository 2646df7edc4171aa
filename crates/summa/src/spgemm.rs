//! Distributed `C = A · B`: Sparse SUMMA and Pipelined Sparse SUMMA (§III).
//!
//! The plain algorithm (original HipMCL) is bulk synchronous: in stage `k`
//! of `√P`, `A_{ik}` is broadcast along grid rows and `B_{kj}` along grid
//! columns, each rank multiplies locally on the CPU, and all intermediate
//! products are merged at the end with one multiway merge.
//!
//! The pipelined variant makes the local multiplications asynchronous and
//! exploits two overlaps (Fig. 2):
//!
//! 1. **Broadcast/compute** — the host regains control as soon as stage
//!    `k`'s inputs are handed to the executor, so the stage `k+1`
//!    broadcasts proceed while stage `k` multiplies.
//! 2. **Merge/compute** — the stage `k−1` intermediate product is merged
//!    on the CPU (binary merge, §IV) while stage `k` computes; only the
//!    first broadcast and the final merge cannot be hidden.
//!
//! This module holds the configuration and entry points; the stage loop
//! itself lives in [`crate::pipeline`] and submits every kernel — GPU
//! *and* CPU — to the configured [`Executor`] (see [`crate::executor`]).
//! Execution is real (the returned distributed product is validated
//! against single-process kernels); the stage timers, CPU idle and device
//! idle times come from the virtual clocks and executor timelines.

use crate::distmat::DistMatrix;
use crate::estimate::{
    estimate_memory_in, plan_phases, plan_phases_overlap, EstimatorKind, MemoryEstimate,
    OverlapInputs, PhaseDecision, PhasePlanner,
};
use crate::executor::{Executor, ExecutorKind};
use crate::merge::{MergeKernelPolicy, MergeSpan, MergeStats, MergeStrategy};
use crate::pipeline::{self, PipelineOutcome};
use hipmcl_comm::clock::StageTimers;
use hipmcl_comm::{
    CommMode, CommStats, GpuLib, MergeKernel, ProcGrid, SpgemmKernel, TimeModel, TransportKind,
};
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_gpu::select::SelectionPolicy;
use hipmcl_sparse::{Csc, Dcsc, PlusTimes, Semiring, Value};

/// How the number of SUMMA phases is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PhasePlan {
    /// Fixed phase count.
    Fixed(usize),
    /// Run a memory estimator and derive the phase count from a per-rank
    /// byte budget (§V).
    Auto {
        /// Which estimator to run.
        estimator: EstimatorKind,
        /// Unpruned-output bytes each rank may hold at once.
        per_rank_budget: u64,
    },
}

/// How each SUMMA stage's operand panels are communicated (§III-B).
///
/// The classical collective is a binomial-tree broadcast: `⌈lg √P⌉`
/// rounds, each moving the whole panel. For small panels the `⌈lg √P⌉·α`
/// latency term dominates and the root sending `√P − 1` flat
/// point-to-point copies (one `α`, serialized bandwidth) is cheaper; the
/// crossover sits at `b* = α·(⌈lg p⌉ − 1) / (β·(p − 1 − ⌈lg p⌉))` —
/// `α/β` at `p = 4` — wherever [`flat_bcast_time`] undercuts
/// [`tree_bcast_time`].
///
/// [`flat_bcast_time`]: hipmcl_comm::MachineModel::flat_bcast_time
/// [`tree_bcast_time`]: hipmcl_comm::MachineModel::tree_bcast_time
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommPolicy {
    /// Always the binomial-tree broadcast — original HipMCL's collective.
    /// Bit-exact on the virtual clock with the pre-refactor pipeline.
    Broadcast,
    /// Price tree-broadcast vs flat point-to-point per stage panel and
    /// take the cheaper. An 8-byte panel-size header is tree-broadcast
    /// first so every rank evaluates the model on the same byte count and
    /// agrees on the mode without extra negotiation.
    #[default]
    Hybrid,
}

impl CommPolicy {
    /// Short lowercase name for logs and benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            CommPolicy::Broadcast => "broadcast",
            CommPolicy::Hybrid => "hybrid",
        }
    }
}

/// The communication record of one stage operand panel: what was moved,
/// which mode the policy chose, and what the model priced both modes at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommChoice {
    /// SUMMA phase the stage belongs to.
    pub phase: usize,
    /// Stage index within the phase (`0..√P`).
    pub stage: usize,
    /// `'A'` for the row-panel broadcast, `'B'` for the column panel.
    pub operand: char,
    /// Wire bytes of the panel (DCSC representation).
    pub bytes: usize,
    /// The mode actually used ([`CommMode::Broadcast`] = tree,
    /// [`CommMode::Gather`] = flat point-to-point).
    pub mode: CommMode,
    /// Modeled tree-broadcast time for this panel.
    pub t_tree: f64,
    /// Modeled flat point-to-point time for this panel.
    pub t_flat: f64,
}

impl CommChoice {
    /// Modeled time of the mode that was chosen.
    pub fn chosen_time(&self) -> f64 {
        match self.mode {
            CommMode::Broadcast => self.t_tree,
            CommMode::Gather => self.t_flat,
        }
    }
}

/// Configuration of one distributed multiplication.
#[derive(Clone, Copy, Debug)]
pub struct SummaConfig {
    /// Phase selection.
    pub phases: PhasePlan,
    /// How `Auto` phase planning picks within the memory-feasible phase
    /// counts (memory floor only, or overlap-aware search above it).
    pub planner: PhasePlanner,
    /// CPU/GPU kernel selection thresholds.
    pub policy: SelectionPolicy,
    /// Merging scheme for the stage intermediates.
    pub merge: MergeStrategy,
    /// How each individual merge operation's kernel is chosen (the
    /// model-cost `Auto` rule, or a fixed kernel for ablations).
    pub merge_kernel: MergeKernelPolicy,
    /// Overlap local multiplications with broadcasts and merging (§III).
    /// Without it the host waits for every kernel's output (bulk
    /// synchronous, like original HipMCL even when kernels run on GPU).
    pub pipelined: bool,
    /// Where local multiplications execute (devices, CPU worker pool, or
    /// a hybrid column split across both).
    pub executor: ExecutorKind,
    /// How stage operand panels are communicated (tree broadcast always,
    /// or the per-stage modeled broadcast/gather choice). Never changes
    /// numeric results, only the virtual comm schedule.
    pub comm: CommPolicy,
    /// Seed for the per-stage Cohen probes driving kernel selection.
    pub seed: u64,
}

impl SummaConfig {
    /// Original HipMCL: CPU heap kernels, multiway merge, exact symbolic
    /// estimation, no pipelining.
    pub fn original_hipmcl(per_rank_budget: u64) -> Self {
        Self {
            phases: PhasePlan::Auto {
                estimator: EstimatorKind::ExactSymbolic,
                per_rank_budget,
            },
            planner: PhasePlanner::MemoryOnly,
            policy: SelectionPolicy::original_heap(),
            merge: MergeStrategy::Multiway,
            merge_kernel: MergeKernelPolicy::Fixed(MergeKernel::Heap),
            pipelined: false,
            executor: ExecutorKind::Gpus,
            comm: CommPolicy::Broadcast,
            seed: 0,
        }
    }

    /// The paper's optimized HipMCL *without* overlap (Fig. 1 middle bar):
    /// GPU kernels and the probabilistic estimator, but bulk synchronous
    /// with multiway merging.
    pub fn optimized_no_overlap(per_rank_budget: u64) -> Self {
        Self {
            phases: PhasePlan::Auto {
                estimator: EstimatorKind::Hybrid {
                    r: 5,
                    cf_threshold: 2.0,
                },
                per_rank_budget,
            },
            planner: PhasePlanner::MemoryOnly,
            policy: SelectionPolicy::always_gpu(),
            merge: MergeStrategy::Multiway,
            merge_kernel: MergeKernelPolicy::Fixed(MergeKernel::Heap),
            pipelined: false,
            executor: ExecutorKind::Gpus,
            comm: CommPolicy::Hybrid,
            seed: 0,
        }
    }

    /// The fully optimized HipMCL (Fig. 1 right bar): Pipelined Sparse
    /// SUMMA with binary merge.
    pub fn optimized(per_rank_budget: u64) -> Self {
        Self {
            phases: PhasePlan::Auto {
                estimator: EstimatorKind::Hybrid {
                    r: 5,
                    cf_threshold: 2.0,
                },
                per_rank_budget,
            },
            planner: PhasePlanner::MemoryOnly,
            policy: SelectionPolicy::always_gpu(),
            merge: MergeStrategy::Binary,
            merge_kernel: MergeKernelPolicy::Auto,
            pipelined: true,
            executor: ExecutorKind::Gpus,
            comm: CommPolicy::Hybrid,
            seed: 0,
        }
    }

    /// Optimized HipMCL on nodes without accelerators: CPU kernels become
    /// asynchronous launches on the per-rank worker pool, so the §III
    /// broadcast/merge overlap applies without any GPU.
    pub fn cpu_pipelined(per_rank_budget: u64) -> Self {
        Self {
            policy: SelectionPolicy::cpu_only(),
            executor: ExecutorKind::CpuPool,
            ..Self::optimized(per_rank_budget)
        }
    }

    /// Checks the configuration for values that would misbehave at run
    /// time: an overlap-aware planner with a degenerate search headroom,
    /// or an `Auto` phase plan whose Cohen estimator has no keys.
    /// Entry points call this and panic with the error's message; callers
    /// that accept untrusted configuration should call it themselves
    /// first.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let PhasePlanner::OverlapAware { max_extra_phases } = self.planner {
            if max_extra_phases == 0 || max_extra_phases > 64 {
                return Err(ConfigError::Planner { max_extra_phases });
            }
        }
        if let PhasePlan::Auto { estimator, .. } = self.phases {
            if let EstimatorKind::Probabilistic { r: 0 }
            | EstimatorKind::ProbabilisticGpu { r: 0 }
            | EstimatorKind::Hybrid { r: 0, .. } = estimator
            {
                return Err(ConfigError::EstimatorKeys(estimator));
            }
        }
        Ok(())
    }
}

/// Error returned by [`SummaConfig::validate`] (and `MclConfig`'s, which
/// delegates here).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// An overlap-aware planner whose search headroom is useless (0) or
    /// unreasonably wide (> 64 phases past the memory floor).
    Planner {
        /// The offending headroom.
        max_extra_phases: usize,
    },
    /// A Cohen-sketch estimator with `r = 0` keys per vertex, which has
    /// nothing to estimate from (`r = 1` is legal: it degenerates to the
    /// per-column lower bound).
    EstimatorKeys(EstimatorKind),
    /// An active-set shrinking parameter out of range (reported through
    /// `MclConfig::validate`, which owns the policy).
    ActiveSet(crate::active::InvalidActiveSet),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Planner { max_extra_phases } => write!(
                f,
                "overlap-aware planner headroom must lie in 1..=64 phases, got {max_extra_phases}"
            ),
            ConfigError::EstimatorKeys(kind) => write!(
                f,
                "the {kind:?} estimator needs at least one key per vertex (r >= 1)"
            ),
            ConfigError::ActiveSet(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<crate::active::InvalidActiveSet> for ConfigError {
    fn from(e: crate::active::InvalidActiveSet) -> Self {
        ConfigError::ActiveSet(e)
    }
}

/// Result of a distributed multiplication on one rank.
///
/// Generic over the element type; `SummaOutput` with no parameter is the
/// plus-times `f64` output the MCL driver consumes.
pub struct SummaOutput<T: Value = f64> {
    /// This rank's block of `C` (post any per-phase hook).
    pub c: DistMatrix<T>,
    /// Virtual-time stage breakdown (`local_spgemm`, `summa_bcast`,
    /// `merge`, `mem_estimation`, `other`).
    pub timers: StageTimers,
    /// Merge statistics (peak elements feed Table III).
    pub merge_stats: MergeStats,
    /// Every merge operation's timeline span — start/end on its merge
    /// lane, chosen kernel, fan-in, elements — in submission order. The
    /// merge-side counterpart of
    /// [`hybrid_fractions`](Self::hybrid_fractions).
    pub merge_spans: Vec<MergeSpan>,
    /// Host idle time spent waiting on launch events (Table V, CPU).
    pub cpu_idle: f64,
    /// Device/worker idle time off the executor's timelines (Table V,
    /// GPU column; the worker lanes' idle under
    /// [`ExecutorKind::CpuPool`]).
    pub gpu_idle: f64,
    /// Idle accumulated on the executor's lanes. Under
    /// [`ExecutorKind::Gpus`] they carry only merges and are disjoint from
    /// [`gpu_idle`](Self::gpu_idle); the other kinds share them with
    /// CPU-side SpGEMM, so this overlaps the workers' share of
    /// `gpu_idle`.
    pub merge_lane_idle: f64,
    /// What the phase planner decided (candidates scored, memory floor),
    /// when `PhasePlan::Auto` ran with the overlap-aware planner.
    pub planner_decision: Option<PhaseDecision>,
    /// The memory estimate, when `PhasePlan::Auto` ran.
    pub estimate: Option<MemoryEstimate>,
    /// Number of phases executed.
    pub phases: usize,
    /// Kernels chosen per (phase, stage), for instrumentation; always
    /// `phases × √P` entries (zero-flops stages record the selector's
    /// degenerate choice).
    pub kernels_used: Vec<SpgemmKernel>,
    /// Realized GPU share of every hybrid submission, in submission order
    /// (0 for multiplications that ran entirely on the worker pool; empty
    /// unless the executor kind is [`ExecutorKind::Hybrid`]). The
    /// observable trace of the
    /// [`SplitController`](crate::executor::SplitController) decisions.
    pub hybrid_fractions: Vec<f64>,
    /// Per-stage communication record: two entries per executed stage
    /// (operand `A` then `B`), with the panel bytes, chosen mode and the
    /// model's price for both modes. Under [`CommPolicy::Broadcast`]
    /// every entry's mode is `Broadcast`.
    pub comm_choices: Vec<CommChoice>,
    /// Which transport moved the panels (in-process channels or the
    /// `process-shm` byte rings).
    pub transport: TransportKind,
    /// Which time model the run used. The modeled clock is authoritative
    /// either way; `Measured` additionally fills the wall-clock rollups
    /// below.
    pub time: TimeModel,
    /// Wall-clock counterpart of [`timers`](Self::timers): real host
    /// seconds per stage, sampled only under [`TimeModel::Measured`]
    /// (all durations are `0.0` under `Modeled`, which never reads the
    /// host clock).
    pub timers_measured: StageTimers,
    /// This multiply's communication-counter delta on the world
    /// communicator: messages, bytes, the modeled α–β receive wait, and
    /// — under `Measured` — the wall seconds the rank actually spent
    /// blocked in `recv`.
    pub comm_stats: CommStats,
}

impl<T: Value> SummaOutput<T> {
    /// Modeled communication time of the stage panels as actually moved —
    /// the sum of each [`CommChoice`]'s chosen-mode price.
    pub fn modeled_comm_time(&self) -> f64 {
        self.comm_choices.iter().map(|c| c.chosen_time()).sum()
    }

    /// Modeled communication time had every panel used the tree
    /// broadcast — the [`CommPolicy::Broadcast`] baseline over the same
    /// panels. `modeled_comm_time() <= modeled_comm_time_broadcast()`
    /// whenever the per-panel choice is the model's argmin.
    pub fn modeled_comm_time_broadcast(&self) -> f64 {
        self.comm_choices.iter().map(|c| c.t_tree).sum()
    }

    /// Modeled α–β seconds this rank's clock idled inside `recv` during
    /// the multiply — the receiver-side rollup of the same virtual time
    /// [`modeled_comm_time`](Self::modeled_comm_time) prices sender-side.
    pub fn modeled_comm_wait(&self) -> f64 {
        self.comm_stats.modeled_comm_s
    }

    /// Wall seconds this rank actually spent blocked in `recv` during
    /// the multiply. Only meaningful under [`TimeModel::Measured`];
    /// exactly `0.0` under `Modeled`.
    pub fn measured_comm_time(&self) -> f64 {
        self.comm_stats.measured_comm_s
    }
}

/// Distributed `C = A·B` with the identity per-phase hook.
pub fn summa_spgemm(
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    a: &DistMatrix,
    b: &DistMatrix,
    cfg: &SummaConfig,
) -> SummaOutput {
    summa_spgemm_with(grid, gpus, a, b, cfg, |_, c| c)
}

/// Distributed `C = A ⊕.⊗ B` over an arbitrary semiring, identity hook.
///
/// The semiring-generic twin of [`summa_spgemm`]: the same Pipelined
/// Sparse SUMMA machinery (phase planning, executor scheduling, merge
/// engine, per-stage comm selection) instantiated at `S` — min-plus for
/// shortest paths, boolean for reachability, plus-times for MCL.
pub fn summa_spgemm_in<S: Semiring>(
    s: S,
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    a: &DistMatrix<S::Elem>,
    b: &DistMatrix<S::Elem>,
    cfg: &SummaConfig,
) -> SummaOutput<S::Elem> {
    summa_spgemm_with_in(s, grid, gpus, a, b, cfg, |_, c| c)
}

/// Distributed `C = A·B` with a per-phase output hook.
///
/// `on_slab(phase, slab)` receives each phase's merged (unpruned) output
/// slab and returns what should be kept — the MCL driver prunes here, so
/// the full unpruned matrix never exists at once (the fused
/// expansion+pruning of §II). The hook's virtual cost must be charged by
/// the caller (the driver charges the pruning stage).
pub fn summa_spgemm_with<F>(
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    a: &DistMatrix,
    b: &DistMatrix,
    cfg: &SummaConfig,
    on_slab: F,
) -> SummaOutput
where
    F: FnMut(usize, Csc<f64>) -> Csc<f64>,
{
    summa_spgemm_with_in(PlusTimes::<f64>::new(), grid, gpus, a, b, cfg, on_slab)
}

/// Distributed `C = A ⊕.⊗ B` over an arbitrary semiring with a per-phase
/// output hook — the generic engine behind every other entry point.
pub fn summa_spgemm_with_in<S, F>(
    s: S,
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    a: &DistMatrix<S::Elem>,
    b: &DistMatrix<S::Elem>,
    cfg: &SummaConfig,
    on_slab: F,
) -> SummaOutput<S::Elem>
where
    S: Semiring,
    F: FnMut(usize, Csc<S::Elem>) -> Csc<S::Elem>,
{
    assert_eq!(
        a.ncols_global, b.nrows_global,
        "global inner dims must agree"
    );
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid SummaConfig: {e}"));
    let comm = &grid.world;
    let mut timers = StageTimers::new();
    let stats_before = comm.stats();
    let mut est_measured = 0.0f64;

    // Phase planning (memory estimation + optional overlap search).
    let (phases, estimate, planner_decision) = match cfg.phases {
        PhasePlan::Fixed(h) => (h.max(1), None, None),
        PhasePlan::Auto {
            estimator,
            per_rank_budget,
        } => {
            let t0 = comm.now();
            let w0 = comm.measured_now();
            let est = estimate_memory_in(s, grid, a, b, estimator, cfg.seed);
            timers.add("mem_estimation", comm.now() - t0);
            est_measured = comm.measured_now() - w0;
            match cfg.planner {
                PhasePlanner::MemoryOnly => (
                    plan_phases(&est, grid.size(), per_rank_budget),
                    Some(est),
                    None,
                ),
                PhasePlanner::OverlapAware { max_extra_phases } => {
                    // Feed the overlap model the workload's shape: wire
                    // bytes of the blocks this rank re-broadcasts, its
                    // flop share, the estimator's cf, and the kernel the
                    // selector is expected to pick.
                    let cf = if est.nnz_estimate > 0.0 {
                        (est.flops as f64 / est.nnz_estimate).max(1.0)
                    } else {
                        1.0
                    };
                    let gpu_capable = !gpus.is_empty()
                        && cfg.policy.gpu_flops_threshold < u64::MAX
                        && cfg.executor != ExecutorKind::CpuPool;
                    let inputs = OverlapInputs {
                        side: grid.side,
                        flops_per_rank: est.flops / grid.size().max(1) as u64,
                        bytes_a: Dcsc::from_csc(&a.local).bytes(),
                        bytes_b: Dcsc::from_csc(&b.local).bytes(),
                        cf,
                        kernel: if gpu_capable {
                            SpgemmKernel::Gpu(GpuLib::Nsparse)
                        } else {
                            SpgemmKernel::CpuHash
                        },
                        pipelined: cfg.pipelined,
                    };
                    let decision = plan_phases_overlap(
                        &est,
                        grid.size(),
                        per_rank_budget,
                        comm.model(),
                        &inputs,
                        max_extra_phases,
                    );
                    (decision.phases, Some(est), Some(decision))
                }
            }
        }
    };

    // Kernel selection needs a cf estimate per local multiply. When the
    // phase planner ran an estimator, reuse its global cf (the paper's
    // recipe: the selection metrics come from the iteration's memory
    // estimation); only Fixed-phase runs pay for a per-stage Cohen probe.
    let cf_hint: Option<f64> = estimate.as_ref().map(|e| {
        if e.nnz_estimate > 0.0 {
            e.flops as f64 / e.nnz_estimate
        } else {
            1.0
        }
    });

    // Idle accounting is bracketed around the pipeline: the timelines
    // start empty (the gap between the previous expansion's last kernel
    // and this one's first is not pipeline idle — Table V measures
    // idleness *within* the Pipelined Sparse SUMMA), so the idle read
    // after the run is this multiply's alone.
    let mut exec = Executor::new(cfg.executor, gpus, comm.model());
    exec.reset_timelines();
    let outcome = pipeline::run(
        s,
        grid,
        &mut exec,
        a,
        b,
        cfg,
        phases,
        cf_hint,
        &mut timers,
        on_slab,
    );
    let gpu_idle = exec.device_idle();
    let merge_lane_idle = exec.merge_lane_idle();
    let hybrid_fractions = exec.fractions().to_vec();

    let PipelineOutcome {
        mut slabs,
        merge_stats,
        merge_spans,
        cpu_idle,
        kernels_used,
        comm_choices,
        mut timers_measured,
    } = outcome;
    timers_measured.add("mem_estimation", est_measured);
    let local = if slabs.len() == 1 {
        slabs.pop().unwrap()
    } else {
        Csc::hcat(&slabs)
    };

    SummaOutput {
        c: DistMatrix {
            local,
            nrows_global: a.nrows_global,
            ncols_global: b.ncols_global,
        },
        timers,
        merge_stats,
        merge_spans,
        cpu_idle,
        gpu_idle,
        merge_lane_idle,
        planner_decision,
        estimate,
        phases,
        kernels_used,
        hybrid_fractions,
        comm_choices,
        transport: comm.transport(),
        time: comm.time_model(),
        timers_measured,
        comm_stats: comm.stats().delta_since(&stats_before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_comm::{MachineModel, Universe};
    use hipmcl_sparse::{Idx, Triples};
    use rand::{Rng, SeedableRng};

    fn random_global(n: usize, nnz: usize, seed: u64) -> Triples<f64> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(n, n);
        for _ in 0..nnz {
            t.push(
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0.5..1.5),
            );
        }
        t.sum_duplicates();
        t
    }

    fn serial_product(n: usize, nnz: usize, seed: u64) -> Csc<f64> {
        let g = Csc::from_triples(&random_global(n, nnz, seed));
        hipmcl_spgemm::hash::multiply(&g, &g)
    }

    fn run_config(n: usize, nnz: usize, seed: u64, p: usize, cfg: SummaConfig) -> Csc<f64> {
        let results = Universe::run(p, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(n, nnz, seed);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            out.c.gather_to_root(&grid)
        });
        results.into_iter().next().unwrap().unwrap()
    }

    fn base_cfg() -> SummaConfig {
        SummaConfig {
            phases: PhasePlan::Fixed(1),
            planner: PhasePlanner::MemoryOnly,
            policy: SelectionPolicy::cpu_only(),
            merge: MergeStrategy::Multiway,
            merge_kernel: MergeKernelPolicy::Auto,
            pipelined: false,
            executor: ExecutorKind::Gpus,
            comm: CommPolicy::Hybrid,
            seed: 7,
        }
    }

    #[test]
    fn plain_summa_matches_serial_product() {
        let want = serial_product(22, 140, 1);
        for p in [1usize, 4, 9] {
            let got = run_config(22, 140, 1, p, base_cfg());
            assert!(got.max_abs_diff(&want) < 1e-9, "p={p}");
            assert_eq!(got.nnz(), want.nnz(), "p={p}");
        }
    }

    #[test]
    fn phased_execution_matches() {
        let want = serial_product(25, 170, 2);
        for phases in [1usize, 2, 3, 5] {
            let cfg = SummaConfig {
                phases: PhasePlan::Fixed(phases),
                ..base_cfg()
            };
            let got = run_config(25, 170, 2, 4, cfg);
            assert!(got.max_abs_diff(&want) < 1e-9, "phases={phases}");
        }
    }

    #[test]
    fn binary_merge_matches_multiway() {
        let want = serial_product(24, 160, 3);
        let cfg = SummaConfig {
            merge: MergeStrategy::Binary,
            ..base_cfg()
        };
        let got = run_config(24, 160, 3, 9, cfg);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn gpu_pipelined_matches() {
        let want = serial_product(26, 200, 4);
        let cfg = SummaConfig {
            policy: SelectionPolicy::always_gpu(),
            merge: MergeStrategy::Binary,
            pipelined: true,
            ..base_cfg()
        };
        let got = run_config(26, 200, 4, 4, cfg);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn gpu_unpipelined_matches() {
        let want = serial_product(26, 200, 5);
        let cfg = SummaConfig {
            policy: SelectionPolicy::always_gpu(),
            ..base_cfg()
        };
        let got = run_config(26, 200, 5, 9, cfg);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn cpu_pool_executor_matches() {
        let want = serial_product(27, 210, 10);
        for pipelined in [false, true] {
            let cfg = SummaConfig {
                executor: ExecutorKind::CpuPool,
                merge: MergeStrategy::Binary,
                pipelined,
                ..base_cfg()
            };
            let got = run_config(27, 210, 10, 4, cfg);
            assert!(got.max_abs_diff(&want) < 1e-9, "pipelined={pipelined}");
        }
    }

    #[test]
    fn hybrid_executor_matches() {
        // Narrow right operands leave each rank a column or two of `B`,
        // where the rounded split gives the devices no columns (pool-only
        // edge of the hybrid `Executor::submit`); the full width splits between both.
        // The device-only edge needs a seeded controller and is covered
        // by `executor::tests::hybrid_splits_and_matches_reference`.
        let g = Csc::from_triples(&random_global(40, 340, 11));
        let mut fracs = Vec::new();
        for n in [1usize, 2, 3, 9, 40] {
            let want = hipmcl_spgemm::hash::multiply(&g, &g.column_slice(0..n));
            let results = Universe::run(4, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let g = Csc::from_triples(&random_global(40, 340, 11));
                let a = DistMatrix::from_global(&grid, &g.to_triples());
                let b = DistMatrix::from_global(&grid, &g.column_slice(0..n).to_triples());
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let cfg = SummaConfig {
                    executor: ExecutorKind::Hybrid,
                    policy: SelectionPolicy::always_gpu(),
                    merge: MergeStrategy::Binary,
                    pipelined: true,
                    ..base_cfg()
                };
                let out = summa_spgemm(&grid, &mut gpus, &a, &b, &cfg);
                (out.c.gather_to_root(&grid), out.hybrid_fractions)
            });
            let mut results = results.into_iter();
            let (root, root_fracs) = results.next().unwrap();
            fracs.extend(root_fracs);
            fracs.extend(results.flat_map(|(_, f)| f));
            let got = root.unwrap();
            assert!(got.max_abs_diff(&want) < 1e-9, "n={n}");
            assert_eq!(got.nnz(), want.nnz(), "n={n}");
        }
        assert!(fracs.contains(&0.0), "pool-only branch reached");
        assert!(
            fracs.iter().any(|&f| f > 0.0 && f < 1.0),
            "split branch reached: {fracs:?}"
        );
    }

    #[test]
    fn hybrid_fractions_recorded_per_stage() {
        let results = Universe::run(4, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(28, 300, 13);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                executor: ExecutorKind::Hybrid,
                policy: SelectionPolicy::always_gpu(),
                merge: MergeStrategy::Binary,
                pipelined: true,
                ..base_cfg()
            };
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            (out.hybrid_fractions, out.kernels_used.len())
        });
        for (fracs, stages) in results {
            assert!(
                fracs.len() <= stages,
                "at most one split per stage (zero-flops stages skip)"
            );
            assert!(!fracs.is_empty());
            assert!(fracs.iter().all(|f| (0.0..=1.0).contains(f)), "{fracs:?}");
        }
    }

    #[test]
    fn non_hybrid_runs_record_no_fractions() {
        let results = Universe::run(1, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(20, 150, 14);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &base_cfg());
            out.hybrid_fractions.len()
        });
        assert_eq!(results, vec![0]);
    }

    #[test]
    fn auto_phases_run_estimator() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(30, 400, 6);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                phases: PhasePlan::Auto {
                    estimator: EstimatorKind::Probabilistic { r: 5 },
                    per_rank_budget: 500, // small budget forces phases
                },
                policy: SelectionPolicy::cpu_only(),
                merge: MergeStrategy::Multiway,
                seed: 1,
                ..base_cfg()
            };
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            (
                out.phases,
                out.estimate.is_some(),
                out.timers.get("mem_estimation") > 0.0,
            )
        });
        for (phases, has_est, timed) in results {
            assert!(phases > 1, "small budget must force multiple phases");
            assert!(has_est);
            assert!(timed);
        }
    }

    #[test]
    fn on_slab_hook_sees_every_phase() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(20, 150, 7);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                phases: PhasePlan::Fixed(3),
                ..base_cfg()
            };
            let mut seen = Vec::new();
            let out = summa_spgemm_with(&grid, &mut gpus, &a, &a, &cfg, |ph, slab| {
                seen.push(ph);
                slab
            });
            (seen, out.phases)
        });
        for (seen, phases) in results {
            assert_eq!(phases, 3);
            assert_eq!(seen, vec![0, 1, 2]);
        }
    }

    /// Max over ranks of the final virtual clock for one configuration.
    fn elapsed(n: usize, nnz: usize, seed: u64, cfg: SummaConfig) -> f64 {
        let results = Universe::run(4, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(n, nnz, seed);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let _ = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            grid.world.now()
        });
        results.into_iter().fold(0.0f64, f64::max)
    }

    #[test]
    fn pipelined_overlap_beats_bulk_synchronous() {
        // Dense enough that kernels dominate; overall time with overlap
        // must be below the no-overlap run (Table II's effect).
        let run = |pipelined: bool| {
            let cfg = SummaConfig {
                phases: PhasePlan::Fixed(2),
                policy: SelectionPolicy::always_gpu(),
                merge: MergeStrategy::Binary,
                pipelined,
                seed: 2,
                ..base_cfg()
            };
            elapsed(120, 7000, 8, cfg)
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with < without,
            "pipelined {with} must beat bulk-sync {without}"
        );
    }

    #[test]
    fn cpu_only_pipelined_beats_bulk_synchronous() {
        // The new capability: with the worker-pool executor, the same
        // overlap shows up without any GPU (Table II's effect on
        // accelerator-less nodes).
        let run = |pipelined: bool| {
            let cfg = SummaConfig {
                phases: PhasePlan::Fixed(2),
                policy: SelectionPolicy::cpu_only(),
                merge: MergeStrategy::Binary,
                pipelined,
                executor: ExecutorKind::CpuPool,
                seed: 2,
                ..base_cfg()
            };
            elapsed(120, 7000, 8, cfg)
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with < without,
            "cpu pipelined {with} must beat bulk-sync {without}"
        );
    }

    #[test]
    fn kernels_used_counts_every_stage() {
        // Sparse enough that some stage blocks are empty (zero flops):
        // the fast path must still record an entry, keeping the count at
        // phases × √P on every rank.
        for (nnz, phases) in [(30usize, 2usize), (200, 3)] {
            let results = Universe::run(9, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let g = random_global(21, nnz, 12);
                let a = DistMatrix::from_global(&grid, &g);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let cfg = SummaConfig {
                    phases: PhasePlan::Fixed(phases),
                    ..base_cfg()
                };
                let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
                (out.kernels_used.len(), out.phases, grid.side)
            });
            for (kernels, ph, side) in results {
                assert_eq!(kernels, ph * side, "nnz={nnz} phases={ph}");
            }
        }
    }

    #[test]
    fn idle_times_are_nonnegative_across_configs() {
        // Property-style sweep over executors, overlap modes and seeds:
        // Table V's idle quantities must never go negative.
        let execs = [
            ExecutorKind::Gpus,
            ExecutorKind::CpuPool,
            ExecutorKind::Hybrid,
        ];
        for exec in execs {
            for pipelined in [false, true] {
                for seed in [1u64, 9, 23] {
                    let results = Universe::run(4, MachineModel::summit(), move |comm| {
                        let grid = ProcGrid::new(comm);
                        let g = random_global(30, 350, seed);
                        let a = DistMatrix::from_global(&grid, &g);
                        let mut gpus = MultiGpu::summit_node(grid.world.model());
                        let cfg = SummaConfig {
                            policy: SelectionPolicy::always_gpu(),
                            merge: MergeStrategy::Binary,
                            pipelined,
                            executor: exec,
                            ..base_cfg()
                        };
                        let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
                        (out.cpu_idle, out.gpu_idle)
                    });
                    for (cpu, gpu) in results {
                        assert!(cpu >= 0.0, "{exec:?} pipelined={pipelined} seed={seed}");
                        assert!(gpu >= 0.0, "{exec:?} pipelined={pipelined} seed={seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_kernel_policy_never_changes_the_product() {
        let want = serial_product(26, 220, 15);
        let fixed = MergeKernel::all().map(MergeKernelPolicy::Fixed);
        for merge_kernel in std::iter::once(MergeKernelPolicy::Auto).chain(fixed) {
            for merge in [MergeStrategy::Multiway, MergeStrategy::Binary] {
                let cfg = SummaConfig {
                    merge,
                    merge_kernel,
                    pipelined: true,
                    ..base_cfg()
                };
                let got = run_config(26, 220, 15, 9, cfg);
                assert!(got.max_abs_diff(&want) < 1e-9, "{merge_kernel:?} {merge:?}");
                assert_eq!(got.nnz(), want.nnz(), "{merge_kernel:?} {merge:?}");
            }
        }
    }

    /// A global matrix whose mass is concentrated in a few dense columns:
    /// the per-stage slabs (and hence the Algorithm 2 merge stack) are
    /// heavily skewed, so under pinning one merge lane backlogs while the
    /// other starves — the workload of the ISSUE's lane-starvation audit.
    fn skewed_global(n: usize, seed: u64) -> Triples<f64> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(n, n);
        for j in 0..n {
            // Columns 0..4 are nearly dense; the rest carry two entries.
            let entries = if j < 4 { n - 2 } else { 2 };
            for _ in 0..entries {
                t.push(
                    rng.gen_range(0..n) as Idx,
                    j as Idx,
                    rng.gen_range(0.5..1.5),
                );
            }
        }
        t.sum_duplicates();
        t
    }

    #[test]
    fn merge_spans_reconcile_with_lane_timelines() {
        // The acceptance property: no merge charges time outside the
        // unified timelines, on both a balanced and a lane-starved skewed
        // workload. Per rank, the spans' durations must sum to the
        // recorded merge time, the span count must equal merge_ops, the
        // peak must be the largest span, and the per-lane gaps
        // reconstructed from the spans must equal the executor's reported
        // merge-lane idle (Timeline semantics: a leading gap — and a lane
        // with zero tasks — counts as zero, so starved lanes add no
        // phantom idle and steals none double).
        for skewed in [false, true] {
            let results = Universe::run(4, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let g = if skewed {
                    skewed_global(40, 16)
                } else {
                    random_global(40, 600, 16)
                };
                let a = DistMatrix::from_global(&grid, &g);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let cfg = SummaConfig {
                    phases: PhasePlan::Fixed(2),
                    policy: SelectionPolicy::always_gpu(),
                    merge: MergeStrategy::Binary,
                    pipelined: true,
                    ..base_cfg()
                };
                let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
                (
                    out.merge_spans,
                    out.merge_stats,
                    out.merge_lane_idle,
                    grid.world.model().sockets,
                )
            });
            for (spans, stats, lane_idle, sockets) in results {
                assert!(!spans.is_empty());
                assert_eq!(spans.len(), stats.merge_ops);
                let dur_sum: f64 = spans.iter().map(|s| s.duration()).sum();
                assert!(
                    (dur_sum - stats.merge_time).abs() < 1e-9,
                    "span durations {dur_sum} vs merge_time {}",
                    stats.merge_time
                );
                let peak = spans.iter().map(|s| s.elems).max().unwrap();
                assert_eq!(peak as usize, stats.peak_merge_elems);
                for s in &spans {
                    assert_eq!(
                        s.stolen,
                        s.lane != s.origin,
                        "stolen flag must match lane vs origin"
                    );
                }
                // Rebuild each lane's idle from its spans alone.
                let mut rebuilt = 0.0;
                for lane in 0..sockets {
                    let mut on_lane: Vec<_> = spans.iter().filter(|s| s.lane == lane).collect();
                    on_lane.sort_by(|x, y| x.start.partial_cmp(&y.start).unwrap());
                    for pair in on_lane.windows(2) {
                        rebuilt += (pair[1].start - pair[0].end).max(0.0);
                    }
                }
                assert!(
                    (rebuilt - lane_idle).abs() < 1e-9,
                    "skewed={skewed}: lane gaps {rebuilt} vs reported idle {lane_idle}"
                );
            }
        }
    }

    #[test]
    fn pipelined_binary_merge_matches_serial_at_nine_ranks() {
        // Merge-lane stealing moves merges between lanes on the virtual
        // clock but never touches operands, so the 3×3-grid pipelined
        // product with its accumulated (lane-homed) merges is unchanged.
        let want = serial_product(26, 220, 17);
        let cfg = SummaConfig {
            merge: MergeStrategy::Binary,
            pipelined: true,
            ..base_cfg()
        };
        let got = run_config(26, 220, 17, 9, cfg);
        assert!(got.max_abs_diff(&want) < 1e-9);
        assert_eq!(got.nnz(), want.nnz());
    }

    #[test]
    fn pipelined_timeline_covers_device_quiescence_and_kernel_time() {
        // The pipelined schedule's timeline invariants on every rank: the
        // host cannot finish before the devices go quiet, the devices
        // cannot go quiet before the accumulated kernel time has elapsed,
        // and the panels really were broadcast.
        let results = Universe::run(4, MachineModel::summit_bench(), |comm| {
            let grid = ProcGrid::new(comm);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
            let n = 400;
            let mut t = Triples::new(n, n);
            for _ in 0..n * 100 {
                t.push(
                    rng.gen_range(0..n) as Idx,
                    rng.gen_range(0..n) as Idx,
                    rng.gen_range(0.5..1.5),
                );
            }
            t.sum_duplicates();
            let a = DistMatrix::from_global(&grid, &t);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                policy: SelectionPolicy::always_gpu(),
                merge: MergeStrategy::Binary,
                pipelined: true,
                seed: 1,
                ..base_cfg()
            };
            let t0 = grid.world.now();
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            let quiescent = gpus
                .devices
                .iter()
                .map(|d| d.quiescent_at())
                .fold(0.0f64, f64::max);
            (
                grid.world.now() - t0,
                quiescent - t0,
                out.timers.get("local_spgemm"),
                out.timers.get("summa_bcast"),
            )
        });
        for (rank, (host, quiescent, spgemm, bcast)) in results.into_iter().enumerate() {
            assert!(
                host >= quiescent && quiescent >= spgemm,
                "rank {rank}: host {host} >= device quiescence {quiescent} >= \
                 local_spgemm {spgemm} must hold"
            );
            assert!(bcast > 0.0, "rank {rank}: summa_bcast {bcast}");
        }
    }

    #[test]
    fn overlap_planner_runs_and_respects_the_memory_floor() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(30, 400, 6);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                phases: PhasePlan::Auto {
                    estimator: EstimatorKind::Probabilistic { r: 5 },
                    per_rank_budget: 500,
                },
                planner: PhasePlanner::OverlapAware {
                    max_extra_phases: 4,
                },
                merge: MergeStrategy::Binary,
                pipelined: true,
                seed: 1,
                ..base_cfg()
            };
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            (out.phases, out.planner_decision)
        });
        for (phases, decision) in results {
            let d = decision.expect("overlap planner records its decision");
            assert_eq!(d.phases, phases);
            assert!(d.phases >= d.memory_floor);
            assert_eq!(d.scores.len(), 5, "floor..=floor+4 scored");
        }
    }

    #[test]
    fn memory_only_planner_records_no_decision() {
        let results = Universe::run(1, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(20, 150, 14);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                phases: PhasePlan::Auto {
                    estimator: EstimatorKind::Probabilistic { r: 5 },
                    per_rank_budget: 1 << 30,
                },
                ..base_cfg()
            };
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            (out.planner_decision.is_none(), out.merge_lane_idle >= 0.0)
        });
        for (no_decision, lane_ok) in results {
            assert!(no_decision && lane_ok);
        }
    }

    #[test]
    fn validate_rejects_degenerate_planner_headroom() {
        for bad in [0usize, 65] {
            let cfg = SummaConfig {
                planner: PhasePlanner::OverlapAware {
                    max_extra_phases: bad,
                },
                ..base_cfg()
            };
            let err = cfg.validate().unwrap_err();
            assert_eq!(
                err,
                ConfigError::Planner {
                    max_extra_phases: bad
                }
            );
            assert!(format!("{err}").contains("1..=64"));
        }
        let ok = SummaConfig {
            planner: PhasePlanner::OverlapAware {
                max_extra_phases: 64,
            },
            ..base_cfg()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn comm_policy_never_changes_the_product() {
        let want = serial_product(26, 220, 19);
        for comm in [CommPolicy::Broadcast, CommPolicy::Hybrid] {
            for p in [4usize, 9] {
                let cfg = SummaConfig {
                    merge: MergeStrategy::Binary,
                    pipelined: true,
                    comm,
                    ..base_cfg()
                };
                let got = run_config(26, 220, 19, p, cfg);
                assert!(got.max_abs_diff(&want) < 1e-9, "{comm:?} p={p}");
                assert_eq!(got.nnz(), want.nnz(), "{comm:?} p={p}");
            }
        }
    }

    #[test]
    fn comm_choices_record_every_stage_panel() {
        for comm in [CommPolicy::Broadcast, CommPolicy::Hybrid] {
            let results = Universe::run(4, MachineModel::summit(), move |comm_| {
                let grid = ProcGrid::new(comm_);
                let g = random_global(28, 300, 20);
                let a = DistMatrix::from_global(&grid, &g);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let cfg = SummaConfig {
                    phases: PhasePlan::Fixed(2),
                    comm,
                    ..base_cfg()
                };
                let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
                (out.comm_choices, out.phases, grid.side)
            });
            for (choices, phases, side) in results {
                // Two operand panels per executed stage.
                assert_eq!(choices.len(), 2 * phases * side, "{comm:?}");
                for c in &choices {
                    assert!(c.phase < phases && c.stage < side);
                    assert!(c.operand == 'A' || c.operand == 'B');
                    assert!(c.t_tree > 0.0 && c.t_flat > 0.0);
                    if comm == CommPolicy::Broadcast {
                        assert_eq!(c.mode, CommMode::Broadcast, "{c:?}");
                    } else {
                        // Hybrid takes the model's argmin for each panel.
                        let want = if c.t_flat <= c.t_tree {
                            CommMode::Gather
                        } else {
                            CommMode::Broadcast
                        };
                        assert_eq!(c.mode, want, "{c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_modeled_comm_never_exceeds_broadcast() {
        // The per-panel argmin makes the chosen-mode sum a lower bound on
        // the all-broadcast sum over the same panels. On a 4×4 grid the
        // row/col communicators have 4 ranks, where the flat/tree
        // crossover sits at b* = α/β ≈ 69 kB on Summit; this workload's
        // panels are far below it, so Hybrid picks flat sends and
        // strictly wins. (On a 2×2 grid both modes cost the same — one
        // round, one copy — so 16 ranks are needed to see a difference.)
        let results = Universe::run(16, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(40, 400, 21);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                phases: PhasePlan::Fixed(2),
                ..base_cfg()
            };
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            (
                out.modeled_comm_time(),
                out.modeled_comm_time_broadcast(),
                out.comm_choices.iter().any(|c| c.mode == CommMode::Gather),
            )
        });
        for (hybrid, bcast, any_gather) in results {
            assert!(hybrid <= bcast, "hybrid {hybrid} vs broadcast {bcast}");
            assert!(any_gather, "small panels must cross to flat sends");
            assert!(hybrid < bcast, "sub-crossover panels must strictly win");
        }
    }

    #[test]
    fn min_plus_summa_matches_serial_reference() {
        use hipmcl_sparse::MinPlus;
        let g = random_global(22, 160, 22);
        let gc = Csc::from_triples_in(MinPlus, &g);
        let want = hipmcl_spgemm::hash::multiply_in(MinPlus, &gc, &gc);
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(22, 160, 22);
            let a = DistMatrix::from_global_in(MinPlus, &grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                merge: MergeStrategy::Binary,
                pipelined: true,
                ..base_cfg()
            };
            let out = summa_spgemm_in(MinPlus, &grid, &mut gpus, &a, &a, &cfg);
            out.c.gather_to_root_in(MinPlus, &grid)
        });
        let got = results.into_iter().next().unwrap().unwrap();
        assert_eq!(got, want, "min-plus SUMMA must be bit-identical");
    }

    fn random_bool_global(n: usize, nnz: usize, seed: u64) -> Triples<bool> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(n, n);
        for _ in 0..nnz {
            t.push(rng.gen_range(0..n) as Idx, rng.gen_range(0..n) as Idx, true);
        }
        t.sum_duplicates_in(hipmcl_sparse::Boolean);
        t
    }

    #[test]
    fn boolean_summa_matches_serial_reference() {
        use hipmcl_sparse::Boolean;
        let g = random_bool_global(24, 180, 23);
        let gc = Csc::from_triples_in(Boolean, &g);
        let want = hipmcl_spgemm::hash::multiply_in(Boolean, &gc, &gc);
        let results = Universe::run(9, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_bool_global(24, 180, 23);
            let a = DistMatrix::from_global_in(Boolean, &grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let out = summa_spgemm_in(Boolean, &grid, &mut gpus, &a, &a, &base_cfg());
            out.c.gather_to_root_in(Boolean, &grid)
        });
        let got = results.into_iter().next().unwrap().unwrap();
        assert_eq!(got, want, "boolean SUMMA must be bit-identical");
    }

    #[test]
    fn timers_cover_expected_stages() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(30, 300, 9);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &base_cfg());
            (
                out.timers.get("local_spgemm") > 0.0,
                out.timers.get("summa_bcast") > 0.0,
                out.timers.get("merge") >= 0.0,
                out.kernels_used.len(),
            )
        });
        for (sp, bc, mg, kernels) in results {
            assert!(sp && bc && mg);
            assert!(kernels >= 1);
        }
    }
}
