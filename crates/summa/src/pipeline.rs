//! The Pipelined Sparse SUMMA stage scheduler (§III).
//!
//! One code path drives every configuration: for each phase and each of
//! the `√P` stages the scheduler exchanges the `A` and `B` blocks,
//! selects a kernel, submits it to the [`Executor`], and decides what to
//! overlap purely from the launch's completion events:
//!
//! * **pipelined** — the host resumes at `inputs_ready_at`, so the next
//!   stage's broadcasts (and the one-stage-late binary merge) overlap the
//!   kernel, whether it runs on the devices or the CPU worker pool; the
//!   phase's closing merge is likewise drained one *phase* late, so its
//!   tail overlaps the next phase's broadcasts and launches;
//! * **bulk synchronous** — the host waits for `output_ready_at`, and the
//!   wait minus any inline host compute is charged as CPU idle (Table V).
//!
//! There is deliberately no `match` on CPU-vs-GPU here: where a kernel
//! runs is the executor's business, and the pipelined/bulk-sync
//! distinction is a property of this scheduler, not of the kernel.
//!
//! # Per-stage communication selection
//!
//! Under [`CommPolicy::Hybrid`] each stage operand panel is moved by
//! whichever collective the machine model prices cheaper for its byte
//! count: the `⌈lg p⌉`-hop binomial tree, or flat root-sequential
//! point-to-point sends whose single α wins for small panels
//! ([`MachineModel::choose_comm_mode`](hipmcl_comm::MachineModel::choose_comm_mode)).
//! Mode agreement is reached by first tree-broadcasting the panel's byte
//! count (one 8-byte header) and letting every rank evaluate the same
//! model — no voting round. [`CommPolicy::Broadcast`] skips the header
//! and always takes the tree: the exact legacy path. Either way the
//! choice made for every `(phase, stage, operand)` is recorded as a
//! [`CommChoice`] in the output, so the policy is observable, not a
//! hidden constant.

use crate::distmat::DistMatrix;
use crate::executor::{Executor, LaunchSpec, MergeTask};
use crate::merge::{
    algorithm2_merge_count, merge_into, ArenaPool, ColsRef, MergeKernelPolicy, MergeSlab,
    MergeSpan, MergeStats, MergeStrategy,
};
use crate::spgemm::{CommChoice, CommPolicy, SummaConfig};
use hipmcl_comm::clock::StageTimers;
use hipmcl_comm::collectives::{bcast, flat_bcast};
use hipmcl_comm::{
    Comm, CommMode, ProcGrid, SpgemmKernel, WireDecode, WireEncode, WireError, WireReader, WireSize,
};
use hipmcl_gpu::select::select_kernel;
use hipmcl_sparse::util::even_chunk;
use hipmcl_sparse::{Csc, Dcsc, Semiring, Value};
use hipmcl_spgemm::{CohenEstimator, MultAnalysis};
use std::sync::Arc;

/// Broadcast payload: a shared block plus its hypersparse wire size.
/// HipMCL broadcasts DCSC; an `Arc` keeps the in-process copy free while
/// the virtual cost reflects the real payload (§III-B).
#[derive(Clone)]
struct BlockMsg<T: Value>(Arc<Csc<T>>, usize);

impl<T: Value> WireSize for BlockMsg<T> {
    fn wire_bytes(&self) -> usize {
        self.1
    }
}

// On a byte-moving transport the panel really travels as its hypersparse
// DCSC encoding — the same representation whose byte count the α–β model
// charges — and is re-densified to CSC on arrival.
impl<T: Value> WireEncode for BlockMsg<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        Dcsc::from_csc(&self.0).encode(out);
    }
}

impl<T: Value> WireDecode for BlockMsg<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let dcsc = Dcsc::<T>::decode(r)?;
        let bytes = dcsc.bytes();
        Ok(BlockMsg(Arc::new(dcsc.to_csc()), bytes))
    }
}

/// Moves one stage operand panel from `root` to every rank of `comm`,
/// returning the block, its wire bytes, and the collective that moved it.
///
/// [`CommPolicy::Broadcast`] is the legacy tree, bit-for-bit (no header).
/// [`CommPolicy::Hybrid`] first tree-broadcasts the byte count so all
/// ranks agree, then takes the model's cheaper mode for the payload.
fn exchange_block<T: Value>(
    comm: &Comm,
    policy: CommPolicy,
    root: usize,
    local: Option<&Csc<T>>,
) -> (Arc<Csc<T>>, usize, CommMode) {
    match policy {
        CommPolicy::Broadcast => {
            let payload = local.map(|m| {
                let bytes = Dcsc::from_csc(m).bytes();
                BlockMsg(Arc::new(m.clone()), bytes)
            });
            let msg = bcast(comm, root, payload);
            (msg.0, msg.1, CommMode::Broadcast)
        }
        CommPolicy::Hybrid => {
            let sized = local.map(|m| (Dcsc::from_csc(m).bytes(), m));
            // Header round: every rank learns the payload size over the
            // tree (8 bytes), then evaluates the same machine model — so
            // the mode decision is agreed without any extra exchange.
            let bytes = bcast(comm, root, sized.map(|(b, _)| b as u64)) as usize;
            let mode = comm.model().choose_comm_mode(comm.size(), bytes);
            let payload = sized.map(|(b, m)| BlockMsg(Arc::new(m.clone()), b));
            let msg = match mode {
                CommMode::Broadcast => bcast(comm, root, payload),
                CommMode::Gather => flat_bcast(comm, root, payload),
            };
            (msg.0, msg.1, mode)
        }
    }
}

/// What one pipeline run produced, besides the stage timers it filled in.
pub(crate) struct PipelineOutcome<T: Value = f64> {
    /// Per-phase merged output slabs (post `on_slab` hook).
    pub slabs: Vec<Csc<T>>,
    /// Accumulated merge statistics.
    pub merge_stats: MergeStats,
    /// Every merge operation's timeline span, in submission order.
    pub merge_spans: Vec<MergeSpan>,
    /// Host idle time waiting on launch/merge events.
    pub cpu_idle: f64,
    /// Kernel recorded for every (phase, stage), `phases × √P` entries.
    pub kernels_used: Vec<SpgemmKernel>,
    /// Communication mode chosen for every (phase, stage, operand) panel,
    /// `2 × phases × √P` entries in issue order.
    pub comm_choices: Vec<CommChoice>,
    /// Wall-clock counterpart of the virtual stage timers, filled only
    /// under `TimeModel::Measured` (all-zero durations under `Modeled`,
    /// which never reads the host clock).
    pub timers_measured: StageTimers,
}

/// A stage product waiting on the merge stack: the real matrix (a
/// materialized kernel product or an arena buffer written by a previous
/// merge), the virtual time it exists from, and the merge lane that
/// produced it (`None` for kernel products, which have no socket
/// affinity; arena buffers are always homed on the lane whose
/// [`MergeArena`](crate::merge::MergeArena) owns them).
struct Slab<T: Value> {
    m: MergeSlab<T>,
    ready: f64,
    home: Option<usize>,
}

/// Sinks stage products into the configured merge scheme. Every merge
/// operation is a [`MergeTask`] submitted through the executor, so its
/// cost lands on a merge-lane [`Timeline`](hipmcl_comm::Timeline) — the
/// engine holds no clock of its own. Binary merging under pipelining
/// holds each slab back one stage so its merge (which Algorithm 2 may
/// trigger) overlaps the next launch; because the merge is an async task
/// the host never blocks on it mid-phase.
struct MergeEngine<S: Semiring> {
    sr: S,
    strategy: MergeStrategy,
    policy: MergeKernelPolicy,
    pipelined: bool,
    shape: (usize, usize),
    stack: Vec<Slab<S::Elem>>,
    pushed: usize,
    pending: Option<Slab<S::Elem>>,
    spans: Vec<MergeSpan>,
    stats: MergeStats,
}

impl<S: Semiring> MergeEngine<S> {
    fn new(sr: S, cfg: &SummaConfig, shape: (usize, usize)) -> Self {
        Self {
            sr,
            strategy: cfg.merge,
            policy: cfg.merge_kernel,
            pipelined: cfg.pipelined,
            shape,
            stack: Vec::new(),
            pushed: 0,
            pending: None,
            spans: Vec::new(),
            stats: MergeStats::default(),
        }
    }

    /// Merges the top `count` stack entries as one executor task: the
    /// task is ready when its last input is, the chosen kernel does the
    /// real work, and the result re-enters the stack homed on the lane
    /// that produced it. Arena kernels write into the placed lane's
    /// [`MergeArena`](crate::merge::MergeArena) from `pool`; consumed
    /// arena inputs are released back to their home lanes, so within a
    /// phase the hot loop recycles buffers instead of allocating.
    fn do_merge(
        &mut self,
        comm: &Comm,
        exec: &mut Executor,
        pool: &mut ArenaPool<S::Elem>,
        count: usize,
    ) {
        let tail: Vec<Slab<S::Elem>> = self.stack.split_off(self.stack.len() - count);
        let inputs: Vec<(u64, Option<usize>)> =
            tail.iter().map(|s| (s.m.nnz() as u64, s.home)).collect();
        let ready = tail.iter().map(|s| s.ready).fold(0.0, f64::max);
        let total: u64 = inputs.iter().map(|&(e, _)| e).sum();
        let kernel = self.policy.resolve(comm.model(), total, count);
        let task = MergeTask { kernel, inputs };
        let launch = exec.submit_merge(ready, &task);
        // Wall sample of the real merge compute below; `measured_now`
        // is pinned to 0 under `Modeled`, so the delta costs nothing
        // there and the host clock stays untouched.
        let w0 = comm.measured_now();
        let refs: Vec<ColsRef<'_, S::Elem>> = tail.iter().map(|s| s.m.as_cols()).collect();
        let merged = merge_into(
            self.sr,
            kernel,
            &refs,
            self.shape,
            pool.lane_mut(launch.lane),
        );
        let measured_s = comm.measured_now() - w0;
        for s in tail {
            let home = s.home.unwrap_or(launch.lane);
            s.m.recycle(pool.lane_mut(home));
        }
        self.spans.push(MergeSpan {
            start: launch.started_at,
            end: launch.output_ready_at,
            kernel,
            ways: count,
            elems: total,
            lane: launch.lane,
            origin: launch.origin,
            stolen: launch.stolen,
            measured_s,
        });
        self.stats.peak_merge_elems = self.stats.peak_merge_elems.max(total as usize);
        self.stats.total_merged_elems += total;
        self.stats.merge_ops += 1;
        self.stats.merge_time += launch.duration;
        self.stats.measured_merge_s += measured_s;
        self.stack.push(Slab {
            m: merged,
            ready: launch.output_ready_at,
            home: Some(launch.lane),
        });
    }

    /// Stacks a slab and runs whatever merge Algorithm 2 triggers.
    fn push_binary(
        &mut self,
        comm: &Comm,
        exec: &mut Executor,
        pool: &mut ArenaPool<S::Elem>,
        slab: Slab<S::Elem>,
    ) {
        self.stack.push(slab);
        self.pushed += 1;
        let count = algorithm2_merge_count(self.pushed);
        if count > 0 {
            self.do_merge(comm, exec, pool, count);
        }
    }

    /// Accepts a stage product that is mergeable from `ready_at`.
    fn accept(
        &mut self,
        comm: &Comm,
        exec: &mut Executor,
        pool: &mut ArenaPool<S::Elem>,
        slab: Csc<S::Elem>,
        ready_at: f64,
    ) {
        let slab = Slab {
            m: MergeSlab::Mat(slab),
            ready: ready_at,
            home: None,
        };
        match self.strategy {
            MergeStrategy::Multiway => self.stack.push(slab),
            MergeStrategy::Binary => {
                if self.pipelined {
                    // Push the *previous* stage's slab: its merge (if
                    // Algorithm 2 triggers one) overlaps this stage's
                    // kernel on the merge lane.
                    if let Some(prev) = self.pending.take() {
                        self.push_binary(comm, exec, pool, prev);
                    }
                    self.pending = Some(slab);
                } else {
                    // Bulk synchronous: the host blocks until the merge
                    // (still a lane task) completes; the block is wait
                    // time, since the host does none of the merging.
                    self.push_binary(comm, exec, pool, slab);
                    let ready = self.stack.last().map_or(comm.now(), |s| s.ready);
                    self.stats.wait_time += comm.wait_clock_until(ready);
                }
            }
        }
    }

    /// Submits the phase's closing merge work: the flushed pending slab
    /// and the final collapse (Multiway's single deferred k-way merge, or
    /// Algorithm 2's `finish` collapse of the remaining stack). All of it
    /// is async lane work — the host does not wait here; that is
    /// [`drain`](Self::drain)'s job, which pipelining defers one phase.
    fn seal(&mut self, comm: &Comm, exec: &mut Executor, pool: &mut ArenaPool<S::Elem>) {
        if let Some(prev) = self.pending.take() {
            self.push_binary(comm, exec, pool, prev);
        }
        if self.stack.len() > 1 {
            let count = self.stack.len();
            self.do_merge(comm, exec, pool, count);
        }
    }

    /// Waits for the sealed phase's merged slab and folds timing into the
    /// accumulators. Under pipelining the scheduler calls this only after
    /// the *next* phase's broadcasts and launches are issued, so the
    /// closing merge's tail overlaps them instead of stalling the grid.
    #[allow(clippy::too_many_arguments)]
    fn drain(
        mut self,
        comm: &Comm,
        pool: &mut ArenaPool<S::Elem>,
        timers: &mut StageTimers,
        timers_measured: &mut StageTimers,
        merge_stats: &mut MergeStats,
        merge_spans: &mut Vec<MergeSpan>,
        cpu_idle: &mut f64,
    ) -> Csc<S::Elem> {
        let ready = self.stack.last().map_or(comm.now(), |s| s.ready);
        self.stats.wait_time += comm.wait_clock_until(ready);

        timers.add("merge", self.stats.merge_time);
        timers_measured.add("merge", self.stats.measured_merge_s);
        *cpu_idle += self.stats.wait_time;
        merge_stats.absorb(&self.stats);
        merge_spans.append(&mut self.spans);
        // The once-per-phase materialization: an arena-resident result is
        // copied out and its buffer recycled for the next phase. Reuse
        // must never ratchet capacity across phases — debug-checked here,
        // at the phase boundary.
        let out = self.stack.pop().map_or_else(
            || Csc::zero(self.shape.0, self.shape.1),
            |s| {
                let home = s.home.unwrap_or(0);
                s.m.into_csc(pool.lane_mut(home))
            },
        );
        if cfg!(debug_assertions) {
            pool.assert_no_capacity_leak();
        }
        out
    }
}

/// Runs all phases and stages of one distributed multiplication through
/// `exec`, in semiring `s`. Fills `timers`; returns the per-phase output
/// slabs and the idle/instrumentation accumulators. Collective over the
/// grid.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<S, F>(
    s: S,
    grid: &ProcGrid,
    exec: &mut Executor,
    a: &DistMatrix<S::Elem>,
    b: &DistMatrix<S::Elem>,
    cfg: &SummaConfig,
    phases: usize,
    cf_hint: Option<f64>,
    timers: &mut StageTimers,
    mut on_slab: F,
) -> PipelineOutcome<S::Elem>
where
    S: Semiring,
    F: FnMut(usize, Csc<S::Elem>) -> Csc<S::Elem>,
{
    let comm = &grid.world;
    let side = grid.side;
    let probe = CohenEstimator::new(4, cfg.seed ^ 0xABCD);
    let mut kernels_used = Vec::with_capacity(phases * side);
    let mut comm_choices: Vec<CommChoice> = Vec::with_capacity(2 * phases * side);
    let mut timers_measured = StageTimers::new();
    let mut merge_stats = MergeStats::default();
    let mut merge_spans: Vec<MergeSpan> = Vec::new();
    let mut cpu_idle = 0.0f64;
    let local_cols = b.local.ncols();
    let mut slabs: Vec<Csc<S::Elem>> = Vec::with_capacity(phases);
    // One merge arena per executor merge lane, living across *all*
    // phases: merges write into (and recycle) lane-homed slab buffers,
    // so after warm-up the merge hot loop stops allocating.
    let mut pool: ArenaPool<S::Elem> = ArenaPool::with_lanes(exec.merge_lane_count());
    // Under pipelining the previous phase's sealed engine drains only
    // after this phase's stage loop, so its closing merge overlaps the
    // next round of broadcasts and launches (phases sliced from `B` are
    // independent; only the per-phase hook needs the merged slab).
    let mut sealed: Option<(usize, MergeEngine<S>)> = None;

    for ph in 0..phases {
        let cols = even_chunk(local_cols, phases, ph);
        let b_phase = b.local.column_slice(cols);
        // Every stage product this phase has the same block shape.
        let mut merge = MergeEngine::new(s, cfg, (a.local.nrows(), b_phase.ncols()));

        for k in 0..side {
            // --- SUMMA exchanges (mode per panel, §III-B) -------------
            let t0 = comm.now();
            let w0 = comm.measured_now();
            let (a_blk, a_bytes, a_mode) = exchange_block(
                &grid.row_comm,
                cfg.comm,
                k,
                (grid.col == k).then_some(&a.local),
            );
            let (b_blk, b_bytes, b_mode) = exchange_block(
                &grid.col_comm,
                cfg.comm,
                k,
                (grid.row == k).then_some(&b_phase),
            );
            timers.add("summa_bcast", comm.now() - t0);
            timers_measured.add("summa_bcast", comm.measured_now() - w0);
            for (operand, bytes, mode) in [('A', a_bytes, a_mode), ('B', b_bytes, b_mode)] {
                comm_choices.push(CommChoice {
                    phase: ph,
                    stage: k,
                    operand,
                    bytes,
                    mode,
                    t_tree: comm.model().tree_bcast_time(side, bytes),
                    t_flat: comm.model().flat_bcast_time(side, bytes),
                });
            }

            // --- Kernel selection (flops + Cohen cf probe, §III/VI) ----
            let flops = hipmcl_spgemm::flops(&a_blk, &b_blk);
            let (slab, ready_at) = if flops == 0 {
                // Nothing to multiply, but instrumentation still records
                // the selector's degenerate choice so per-stage counts
                // stay `phases × √P`.
                let analysis = MultAnalysis {
                    flops: 0,
                    nnz_out: 1,
                };
                kernels_used.push(select_kernel(&analysis, &cfg.policy, exec.gpus_available()));
                (Csc::zero(a_blk.nrows(), b_blk.ncols()), comm.now())
            } else {
                // `nnz(C)` can never exceed `flops`: clamp the probe so a
                // stale global cf hint (or an overshooting estimate) on a
                // local block never shows the selector `cf < 1`.
                let nnz_cap = flops;
                let nnz_probe = match cf_hint {
                    Some(cf) => (((flops as f64 / cf).max(1.0)) as u64).min(nnz_cap),
                    None => {
                        comm.advance_clock(
                            comm.model().estimate_time(probe.op_count(&a_blk, &b_blk)),
                        );
                        (probe.estimate_total(&a_blk, &b_blk).max(1.0) as u64).min(nnz_cap)
                    }
                };
                let analysis = MultAnalysis {
                    flops,
                    nnz_out: nnz_probe.max(1),
                };
                let kernel = select_kernel(&analysis, &cfg.policy, exec.gpus_available());
                kernels_used.push(kernel);

                // --- Submit to the executor; overlap off its events ----
                // The probe's clamped cf estimate rides along so hybrid
                // split policies can evaluate the machine model's rate
                // curves before the realized cf exists.
                let spec = LaunchSpec {
                    kernel,
                    flops,
                    cf_est: flops as f64 / nnz_probe.max(1) as f64,
                    time: comm.time_model(),
                };
                let launch = exec.submit(s, comm.now(), &a_blk, &b_blk, spec);
                if cfg.pipelined {
                    // Host resumes as soon as the inputs are handed off.
                    comm.wait_clock_until(launch.inputs_ready_at);
                } else {
                    // Bulk synchronous: wait for the output; inline host
                    // compute inside the wait is work, not idleness.
                    let waited = comm.wait_clock_until(launch.output_ready_at);
                    cpu_idle += (waited - launch.host_compute).max(0.0);
                }
                timers.add("local_spgemm", launch.kernel_time);
                timers_measured.add("local_spgemm", launch.measured_s);
                (launch.c, launch.output_ready_at)
            };

            merge.accept(comm, exec, &mut pool, slab, ready_at);
        }

        // --- Phase wrap-up: submit the closing merge ------------------
        merge.seal(comm, exec, &mut pool);
        let drain_now = if cfg.pipelined {
            sealed.replace((ph, merge))
        } else {
            Some((ph, merge))
        };
        if let Some((pph, eng)) = drain_now {
            let merged = eng.drain(
                comm,
                &mut pool,
                timers,
                &mut timers_measured,
                &mut merge_stats,
                &mut merge_spans,
                &mut cpu_idle,
            );
            slabs.push(on_slab(pph, merged));
        }
    }
    if let Some((pph, eng)) = sealed.take() {
        let merged = eng.drain(
            comm,
            &mut pool,
            timers,
            &mut timers_measured,
            &mut merge_stats,
            &mut merge_spans,
            &mut cpu_idle,
        );
        slabs.push(on_slab(pph, merged));
    }

    PipelineOutcome {
        slabs,
        merge_stats,
        merge_spans,
        cpu_idle,
        kernels_used,
        comm_choices,
        timers_measured,
    }
}
