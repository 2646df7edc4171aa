//! Distributed SpGEMM for `hipmcl-rs`: the Sparse SUMMA algorithm and the
//! paper's optimizations on top of it.
//!
//! * [`active`] — convergence-aware active-set shrinking: per-column
//!   settlement tracking, the frozen store of converged columns, and the
//!   reshard that rebuilds the SUMMA operand over the surviving columns.
//! * [`distmat`] — 2D block-distributed matrices on the
//!   [`hipmcl_comm::ProcGrid`] (CombBLAS-style layout, DCSC-aware sizing).
//! * [`merge`] — merging the per-stage intermediate products: the
//!   multiway and **binary** (§IV, Algorithm 2) schedules, and three
//!   bit-identical per-merge kernels (the HipMCL heap, BRMerge-style
//!   k-cursor merge, Hussain-style parallel SpAdd) selected by a
//!   machine-model cost rule ([`merge::select_merge_kernel`]) and run
//!   through one dispatch ([`merge::merge_into`]). Merges themselves
//!   execute as executor tasks ([`executor::MergeTask`]) on per-socket
//!   merge lanes.
//! * [`estimate`] — distributed memory-requirement estimation: the exact
//!   symbolic SUMMA of original HipMCL and the paper's **probabilistic**
//!   Cohen-sketch estimator (§V), plus the hybrid rule (exact when `cf` is
//!   small).
//! * [`executor`] — the kernel-execution layer: every local multiply is
//!   an asynchronous [`executor::KernelLaunch`] submitted to the rank's
//!   one [`executor::Executor`], whose [`executor::ExecutorKind`] places
//!   it on the devices ([`hipmcl_gpu::multi::MultiGpu`]), on a per-rank
//!   CPU worker pool, or column-split across both with a per-stage GPU
//!   share that a [`executor::SplitController`] adapts from the realized
//!   finish-time imbalance.
//! * [`pipeline`] — the single stage scheduler of Pipelined Sparse SUMMA:
//!   issues broadcasts, submits launches, and drives merging off the
//!   launches' completion events.
//! * [`spgemm`] — distributed `C = A·B`: configuration and entry points
//!   for plain Sparse SUMMA (bulk synchronous, original HipMCL) and
//!   **Pipelined Sparse SUMMA** (§III) overlapping local multiplications
//!   with broadcasts and CPU merging.
//! * [`topk`] — distributed top-k column selection for MCL pruning.
//! * [`components`] — cluster extraction from the converged distributed
//!   matrix.
//!
//! Everything executes for real over the simulated-MPI runtime (results
//! are validated against single-process kernels) while virtual clocks
//! produce the Summit-shaped timings (see `hipmcl-comm` docs).

pub mod active;
pub mod components;
pub mod distmat;
pub mod estimate;
pub mod executor;
pub mod merge;
pub mod pipeline;
pub mod spgemm;
pub mod topk;

pub use active::{ActiveSet, ActiveSetPolicy, InvalidActiveSet};
pub use distmat::DistMatrix;
pub use estimate::{EstimatorKind, MemoryEstimate, OverlapInputs, PhaseDecision, PhasePlanner};
pub use executor::{
    Executor, ExecutorKind, KernelLaunch, LaunchSpec, MergeLaunch, MergeTask, SplitController,
};
pub use merge::{
    merge_with, ArenaPool, ColsRef, MergeArena, MergeKernelPolicy, MergeSlab, MergeSpan,
    MergeStrategy, SlabBuf, StackMerger,
};
pub use spgemm::{
    summa_spgemm, summa_spgemm_in, summa_spgemm_with, summa_spgemm_with_in, CommChoice, CommPolicy,
    ConfigError, SummaConfig, SummaOutput,
};
