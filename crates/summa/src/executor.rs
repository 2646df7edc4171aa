//! The kernel-execution layer: every local SpGEMM is an asynchronous
//! launch.
//!
//! The Pipelined Sparse SUMMA scheduler (`pipeline`) never cares *where* a
//! local multiplication runs — it submits the selected kernel to an
//! [`Executor`] and overlaps against the returned [`KernelLaunch`] events.
//! Three executors implement the trait:
//!
//! * [`MultiGpu`] — the paper's configuration (§III-A): GPU kernels run
//!   asynchronously on the devices (the host resumes after the input
//!   transfer), CPU-selected kernels run inline on the host, exactly as
//!   original HipMCL executes them.
//! * [`CpuPool`] — a per-rank worker pool (the rayon thread pool executes
//!   the real kernel) advancing its own [`Timeline`] like a device stream
//!   does, which makes CPU kernels overlappable: "optimized HipMCL on
//!   nodes without accelerators" gains the §III broadcast/merge overlap.
//! * [`Hybrid`] — extends §III-A's multi-GPU column split to the CPU: a
//!   [`SplitPolicy`]-chosen fraction of `B`'s columns is multiplied on the
//!   devices while the worker pool takes the trailing slab, and the output
//!   is a trivial `hcat`. The split is either a fixed constant, derived
//!   per stage from the machine model
//!   ([`MachineModel::hybrid_gpu_fraction`]), or adapted online by a
//!   damped [`SplitController`] reading the realized finish-time imbalance
//!   off the two sides' timelines.
//!
//! Merging is a first-class executor task, not a side activity: the
//! pipeline submits every merge operation as a [`MergeTask`] through
//! [`Executor::submit_merge`], and the executor queues it on a host-side
//! **merge lane** — one [`Timeline`] per socket of the machine model, so
//! a NUMA node merges at its per-socket rate and inputs produced on the
//! other socket pay the model's cross-socket penalty. On [`CpuPool`] (and
//! the pool half of [`Hybrid`]) the merge lanes *are* the worker
//! timelines, so merges genuinely contend with CPU-side SpGEMM for the
//! same cores; on [`GpuExecutor`] the lanes are dedicated host-side
//! timelines next to the device streams. Either way a merge's cost shows
//! up only as a [`MergeLaunch`] span on a lane — there is no private
//! merge clock anywhere.
//!
//! All timestamps are virtual seconds on the owning rank's clock; the
//! executors only read the clock value the scheduler passes in and never
//! advance it themselves — waiting (and therefore idle accounting) is the
//! scheduler's job.

use hipmcl_comm::{Event, MachineModel, MergeKernel, SpgemmKernel, TimeModel, Timeline};
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::{Csc, PlusTimes, Semiring, Value};
use hipmcl_spgemm::CpuAlgo;

/// How the [`Hybrid`] executor chooses the GPU share of each column split.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SplitPolicy {
    /// The same fraction of `B`'s columns goes to the devices in every
    /// stage (the legacy behaviour; must lie in `[0, 1]` — see
    /// [`SplitPolicy::validate`]).
    Fixed(f64),
    /// Each stage's fraction comes from
    /// [`MachineModel::hybrid_gpu_fraction`], evaluated at the stage's
    /// exact `flops` and its estimated compression factor.
    ModelDerived,
    /// Model-derived initial fraction, then a damped online feedback
    /// update per stage from the realized CPU/GPU finish-time imbalance
    /// (see [`SplitController`]).
    Adaptive,
}

/// Error returned by [`SplitPolicy::validate`] for a [`SplitPolicy::Fixed`]
/// fraction outside `[0, 1]` (or not finite).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvalidSplit {
    /// The offending fraction.
    pub fraction: f64,
}

impl std::fmt::Display for InvalidSplit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hybrid gpu fraction must be a finite value in [0, 1], got {}",
            self.fraction
        )
    }
}

impl std::error::Error for InvalidSplit {}

impl SplitPolicy {
    /// Checks that a [`SplitPolicy::Fixed`] fraction is a valid share.
    /// Out-of-range values are a configuration error (surfaced by
    /// `MclConfig`/[`SummaConfig`](crate::spgemm::SummaConfig) validation),
    /// never silently clamped.
    pub fn validate(self) -> Result<(), InvalidSplit> {
        match self {
            SplitPolicy::Fixed(f) if !f.is_finite() || !(0.0..=1.0).contains(&f) => {
                Err(InvalidSplit { fraction: f })
            }
            _ => Ok(()),
        }
    }
}

/// Whether an idle merge lane may steal a task pinned to another lane.
///
/// Under [`StealPolicy::Off`] every merge task pins to the least-busy lane
/// at submission time (the PR-3 behaviour): the pick looks only at lane
/// backlogs, so a task whose inputs are homed elsewhere — or one that
/// arrives after a short lane just freed up — can open an idle gap on one
/// socket while the other queues. [`StealPolicy::CostAware`] lets any lane
/// win the task, but only by the model's arithmetic: each candidate lane
/// is priced with [`MachineModel::merge_lane_time_with`] (which charges
/// `xsocket_penalty` for input elements homed on another socket), and the
/// task goes to the lane with the earliest modeled completion — so a steal
/// is taken exactly when paying the cross-socket penalty still beats
/// waiting for the home lane, and refused otherwise. Ties prefer the lane
/// that opens the smallest idle gap, then the lowest index, keeping the
/// schedule deterministic.
///
/// Stealing only moves *when and where* a task runs on the virtual clock —
/// never its operands — so results stay bit-identical across policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StealPolicy {
    /// Submission-time pinning to the least-busy lane (legacy).
    Off,
    /// Cost-aware stealing: any lane may take the task if its modeled
    /// completion (cross-socket penalty included) is earliest.
    #[default]
    CostAware,
}

impl StealPolicy {
    /// Validates the policy. Both variants are currently always valid;
    /// the hook exists so `MclConfig`/`SummaConfig` validation covers the
    /// steal dimension like every other scheduling knob.
    pub fn validate(self) -> Result<(), InvalidSplit> {
        Ok(())
    }

    /// Label used in probes and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            StealPolicy::Off => "off",
            StealPolicy::CostAware => "cost-aware",
        }
    }

    /// Both policies, in display order.
    pub fn all() -> [StealPolicy; 2] {
        [StealPolicy::Off, StealPolicy::CostAware]
    }
}

/// Which executor a SUMMA run submits its local multiplications to.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ExecutorKind {
    /// GPU kernels async on the devices, CPU kernels inline on the host
    /// (the paper's setup and the legacy behaviour).
    #[default]
    Gpus,
    /// Every kernel is an async launch on the per-rank CPU worker pool.
    CpuPool,
    /// Column-split each multiplication across the GPUs and the pool.
    Hybrid {
        /// How the per-stage GPU share is chosen.
        split: SplitPolicy,
    },
}

/// GPU share of the legacy fixed hybrid column split. Summit's six V100s
/// out-rate the host cores by a wide margin at high `cf` (Fig. 4), so the
/// pool only takes a sliver; kept as the baseline the adaptive policies
/// are measured against (`probe_hybrid_split`).
pub const DEFAULT_GPU_FRACTION: f64 = 0.85;

impl ExecutorKind {
    /// Hybrid execution with the adaptive split (the recommended default:
    /// model-derived start, online feedback thereafter).
    pub fn hybrid() -> Self {
        ExecutorKind::Hybrid {
            split: SplitPolicy::Adaptive,
        }
    }

    /// Hybrid execution with the legacy fixed split
    /// ([`DEFAULT_GPU_FRACTION`]).
    pub fn hybrid_fixed() -> Self {
        ExecutorKind::Hybrid {
            split: SplitPolicy::Fixed(DEFAULT_GPU_FRACTION),
        }
    }

    /// Validates the executor choice (currently: a `Fixed` hybrid split
    /// must lie in `[0, 1]`).
    pub fn validate(self) -> Result<(), InvalidSplit> {
        match self {
            ExecutorKind::Hybrid { split } => split.validate(),
            _ => Ok(()),
        }
    }
}

/// The scheduler-side description of one local multiplication, passed to
/// [`Executor::submit`].
#[derive(Clone, Copy, Debug)]
pub struct LaunchSpec {
    /// The pre-selected kernel.
    pub kernel: SpgemmKernel,
    /// Exact flop count the scheduler already derived for selection.
    pub flops: u64,
    /// Estimated compression factor `flops / nnz(C)` from the stage's
    /// Cohen probe (already clamped so `cf_est ≥ 1`); executors use it to
    /// evaluate the machine model's rate curves before the realized `cf`
    /// is known.
    pub cf_est: f64,
    /// The universe's time model. Executors key their timelines off the
    /// modeled clock either way; under [`TimeModel::Measured`] they
    /// additionally stamp each launch's real host compute with wall
    /// seconds ([`KernelLaunch::measured_s`]). Under
    /// [`TimeModel::Modeled`] the host clock is never read.
    pub time: TimeModel,
}

/// Starts a wall-clock sample iff `spec` was submitted under
/// [`TimeModel::Measured`] — the modeled path must never touch the host
/// clock, so the sample is the executor's only `Instant` read.
fn wall_start(spec: &LaunchSpec) -> Option<std::time::Instant> {
    spec.time.is_measured().then(std::time::Instant::now)
}

/// Seconds since a [`wall_start`] sample (`0.0` when none was taken).
fn wall_elapsed(w0: Option<std::time::Instant>) -> f64 {
    w0.map_or(0.0, |t| t.elapsed().as_secs_f64())
}

/// One asynchronous local multiplication, as seen by the scheduler.
///
/// The product is real (verified against serial kernels); the timestamps
/// are virtual. A pipelined scheduler resumes the host at
/// [`inputs_ready_at`](Self::inputs_ready_at); a bulk-synchronous one
/// waits for [`output_ready_at`](Self::output_ready_at) and counts only
/// `waited − host_compute` as idle (time the host spent computing inline
/// is work, not waiting).
#[derive(Debug)]
pub struct KernelLaunch<T: Value = f64> {
    /// The (real) product `A ⊗ B` in the submitted semiring.
    pub c: Csc<T>,
    /// The kernel that produced it.
    pub kernel: SpgemmKernel,
    /// Virtual time from which the host may issue the next stage's
    /// broadcasts (inputs handed off / transferred).
    pub inputs_ready_at: f64,
    /// Virtual time at which the output is on the host and mergeable.
    pub output_ready_at: f64,
    /// Host-synchronous compute folded into the launch (inline CPU
    /// kernels); never idle time.
    pub host_compute: f64,
    /// Seconds attributed to the `local_spgemm` stage timer.
    pub kernel_time: f64,
    /// Flops of the multiplication.
    pub flops: u64,
    /// Realized compression factor.
    pub cf: f64,
    /// Wall seconds the real kernel compute took on the host, sampled
    /// only when the launch was submitted under
    /// [`TimeModel::Measured`]; `0.0` under [`TimeModel::Modeled`],
    /// which never reads the host clock.
    pub measured_s: f64,
}

/// The scheduler-side description of one merge operation, passed to
/// [`Executor::submit_merge`]. The pipeline has already chosen the kernel
/// (see `merge::select_merge_kernel`); the executor only decides *where*
/// and *when* it runs.
#[derive(Clone, Debug)]
pub struct MergeTask {
    /// The pre-selected merge kernel.
    pub kernel: MergeKernel,
    /// Per input list: its element count and, if it was produced by an
    /// earlier merge, the lane (socket) that produced it — `None` for
    /// kernel products and anything else with no socket affinity. Inputs
    /// homed on a different socket than the lane the merge lands on are
    /// charged the model's cross-socket penalty.
    pub inputs: Vec<(u64, Option<usize>)>,
}

impl MergeTask {
    /// Fan-in of the merge.
    pub fn ways(&self) -> usize {
        self.inputs.len()
    }

    /// Total elements passing through the merge.
    pub fn total_elems(&self) -> u64 {
        self.inputs.iter().map(|&(e, _)| e).sum()
    }
}

/// One merge operation as scheduled on an executor merge lane — the
/// merge-side analogue of [`KernelLaunch`]. The real merging work is the
/// pipeline's (`merge::merge_into`); this records only the span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeLaunch {
    /// Virtual time the merge began executing on its lane (≥ the
    /// submission `ready_at`; later if the lane was still busy).
    pub started_at: f64,
    /// Virtual time the merged slab is available.
    pub output_ready_at: f64,
    /// Modeled duration, cross-socket penalty included.
    pub duration: f64,
    /// Index of the lane (socket) the merge occupied.
    pub lane: usize,
    /// The lane submission-time pinning ([`StealPolicy::Off`]) would have
    /// chosen — the task's origin queue.
    pub origin: usize,
    /// Whether another lane stole the task from its origin queue
    /// (`lane != origin`; only under [`StealPolicy::CostAware`]).
    pub stolen: bool,
}

/// Remote-homed input elements of `task` if it runs on `lane`.
fn remote_elems(task: &MergeTask, lane: usize) -> u64 {
    task.inputs
        .iter()
        .filter(|&&(_, home)| home.is_some_and(|s| s != lane))
        .map(|&(e, _)| e)
        .sum()
}

/// Places `task` on one of `lanes` per `policy` and returns the span.
///
/// The task conceptually lands in the queue of its *origin* lane — the
/// least-busy lane, which is where submission-time pinning would leave it.
/// Under [`StealPolicy::CostAware`] every lane then competes for the task:
/// lane `l` would finish it at `max(ready_at, busy_until(l)) + duration(l)`
/// where the duration prices remote-homed inputs at the model's
/// cross-socket penalty ([`MachineModel::merge_lane_time_with`]), and the
/// earliest modeled completion wins. A lane other than the origin winning
/// is a *steal*: it only happens when the thief's penalty-inclusive time
/// beats waiting in the origin's queue. Ties break toward the lane that
/// opens the smallest idle gap (`ready_at − busy_until`, zero for a lane
/// with no jobs yet, whose leading gap is not accounted idle), then the
/// lowest index — fully deterministic, like every other scheduling rule in
/// the simulator.
fn submit_merge_on(
    lanes: &mut [Timeline],
    model: &MachineModel,
    policy: StealPolicy,
    ready_at: f64,
    task: &MergeTask,
) -> MergeLaunch {
    let n = lanes.len();
    let dur_on = |lane: usize| {
        model.merge_lane_time_with(
            task.kernel,
            task.total_elems(),
            task.ways(),
            remote_elems(task, lane),
            n,
        )
    };
    let origin = lanes
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.busy_until().partial_cmp(&b.busy_until()).unwrap())
        .map(|(i, _)| i)
        .expect("executors always have at least one merge lane");
    let lane = match policy {
        StealPolicy::Off => origin,
        StealPolicy::CostAware => {
            let cost = |l: usize| {
                let end = lanes[l].busy_until().max(ready_at) + dur_on(l);
                let gap = if lanes[l].jobs() > 0 {
                    (ready_at - lanes[l].busy_until()).max(0.0)
                } else {
                    0.0
                };
                (end, gap)
            };
            (0..n)
                .min_by(|&i, &j| {
                    let (ei, gi) = cost(i);
                    let (ej, gj) = cost(j);
                    ei.partial_cmp(&ej)
                        .unwrap()
                        .then(gi.partial_cmp(&gj).unwrap())
                })
                .expect("executors always have at least one merge lane")
        }
    };
    let dur = dur_on(lane);
    let done = lanes[lane].submit(ready_at, dur);
    MergeLaunch {
        started_at: done.at - dur,
        output_ready_at: done.at,
        duration: dur,
        lane,
        origin,
        stolen: lane != origin,
    }
}

/// Sums the internal idle gaps of a set of lanes.
fn lanes_idle(lanes: &[Timeline]) -> f64 {
    lanes.iter().map(Timeline::idle_time).sum()
}

/// A target that local SpGEMM launches and merge operations are submitted
/// to.
///
/// The trait is generic over the [`Semiring`] the multiplications run in;
/// the default parameter keeps `dyn Executor` meaning the plus-times
/// `f64` executor the MCL driver uses. Every concrete executor implements
/// the trait for *all* semirings — scheduling (timelines, merge lanes,
/// split policies) is element-type-free, so the same scheduler instance
/// works for shortest paths exactly as it does for MCL.
pub trait Executor<S: Semiring = PlusTimes<f64>> {
    /// Submits `C = A ⊗ B` in semiring `s` as described by `spec`,
    /// starting at host virtual time `host_now`. Must not advance any
    /// rank clock — the scheduler decides what to wait on.
    fn submit(
        &mut self,
        s: S,
        model: &MachineModel,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        spec: LaunchSpec,
    ) -> KernelLaunch<S::Elem>;

    /// Submits one merge operation, ready at virtual time `ready_at`
    /// (when its last input slab exists), onto a host-side merge lane.
    /// Like [`submit`](Self::submit), never advances a rank clock.
    fn submit_merge(
        &mut self,
        model: &MachineModel,
        ready_at: f64,
        task: &MergeTask,
    ) -> MergeLaunch;

    /// GPUs visible to kernel selection (0 keeps selection CPU-only).
    fn gpus_available(&self) -> usize;

    /// Accumulated device/worker idle time — the Table V "GPU idle"
    /// column, read uniformly off the executor's timelines.
    fn device_idle(&self) -> f64;

    /// Accumulated idle on the merge lanes. For [`GpuExecutor`] the lanes
    /// are dedicated (disjoint from [`device_idle`](Self::device_idle));
    /// for [`CpuPool`]-backed executors the lanes are the shared worker
    /// timelines, so this overlaps the pool's share of `device_idle`.
    fn merge_lane_idle(&self) -> f64;

    /// Number of merge lanes (per-socket [`Timeline`]s) merges can be
    /// placed on. The pipeline sizes its per-lane
    /// [`ArenaPool`](crate::merge::ArenaPool) from this, so every lane's
    /// merges recycle buffers out of a lane-homed
    /// [`MergeArena`](crate::merge::MergeArena).
    fn merge_lane_count(&self) -> usize;

    /// Resets all internal timelines (between pipeline sections).
    fn reset_timelines(&mut self);
}

/// The CPU algorithm behind a CPU-side kernel selection.
fn cpu_algo(kernel: SpgemmKernel) -> CpuAlgo {
    match kernel {
        SpgemmKernel::CpuHeap => CpuAlgo::Heap,
        SpgemmKernel::CpuSpa => CpuAlgo::Spa,
        _ => CpuAlgo::Hash,
    }
}

/// The paper's configuration (§III-A) behind the [`Executor`] contract:
/// GPU kernels run asynchronously on the wrapped devices, CPU-selected
/// kernels run inline on the host, and merges queue on dedicated
/// host-side merge lanes — one [`Timeline`] per socket of the machine
/// model, disjoint from the device streams, so
/// [`merge_lane_idle`](Executor::merge_lane_idle) reconciles exactly with
/// the gaps between the recorded merge spans.
pub struct GpuExecutor<'g> {
    gpus: &'g mut MultiGpu,
    lanes: Vec<Timeline>,
    steal: StealPolicy,
}

impl<'g> GpuExecutor<'g> {
    /// Wraps the rank's devices; merge lanes are sized to the model's
    /// socket count.
    pub fn new(gpus: &'g mut MultiGpu, model: &MachineModel) -> Self {
        let lanes = (0..model.sockets.max(1)).map(|_| Timeline::new()).collect();
        Self {
            gpus,
            lanes,
            steal: StealPolicy::default(),
        }
    }

    /// Sets the merge-lane steal policy (default
    /// [`StealPolicy::CostAware`]).
    pub fn with_steal(mut self, steal: StealPolicy) -> Self {
        self.steal = steal;
        self
    }

    /// The host-side merge lanes (one per socket).
    pub fn merge_lanes(&self) -> &[Timeline] {
        &self.lanes
    }

    /// Places a merge on a host-side lane (see [`Executor::submit_merge`]).
    /// Inherent so callers with a concrete executor need not name a
    /// semiring — merge scheduling is element-type-free.
    pub fn submit_merge(
        &mut self,
        model: &MachineModel,
        ready_at: f64,
        task: &MergeTask,
    ) -> MergeLaunch {
        submit_merge_on(&mut self.lanes, model, self.steal, ready_at, task)
    }

    /// GPUs visible to kernel selection (see [`Executor::gpus_available`]).
    pub fn gpus_available(&self) -> usize {
        self.gpus.len()
    }

    /// Accumulated device idle (see [`Executor::device_idle`]).
    pub fn device_idle(&self) -> f64 {
        self.gpus.total_idle()
    }

    /// Accumulated merge-lane idle (see [`Executor::merge_lane_idle`]).
    pub fn merge_lane_idle(&self) -> f64 {
        lanes_idle(&self.lanes)
    }

    /// Number of dedicated merge lanes (see
    /// [`Executor::merge_lane_count`]).
    pub fn merge_lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Resets all internal timelines (see [`Executor::reset_timelines`]).
    pub fn reset_timelines(&mut self) {
        self.gpus.reset_timelines();
        for lane in &mut self.lanes {
            lane.reset();
        }
    }
}

impl<S: Semiring> Executor<S> for GpuExecutor<'_> {
    fn submit(
        &mut self,
        s: S,
        model: &MachineModel,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        spec: LaunchSpec,
    ) -> KernelLaunch<S::Elem> {
        let w0 = wall_start(&spec);
        match spec.kernel {
            SpgemmKernel::Gpu(lib) => match self.gpus.multiply_in(s, host_now, a, b, lib) {
                Ok(r) => KernelLaunch {
                    c: r.c,
                    kernel: spec.kernel,
                    inputs_ready_at: r.inputs_transferred_at,
                    output_ready_at: r.output_ready_at,
                    host_compute: 0.0,
                    kernel_time: r.output_ready_at - r.inputs_transferred_at,
                    flops: r.flops,
                    cf: r.cf,
                    measured_s: wall_elapsed(w0),
                },
                // The devices cannot take this phase (out of memory): a
                // busy or undersized engine degrades the launch to the
                // host hash kernel instead of killing the rank. The
                // modeled clock charges the CPU duration, so the slowdown
                // shows up in reports rather than vanishing.
                Err(e) => {
                    eprintln!(
                        "gpu launch degraded to CpuHash: {e} (increase phases or use a CPU \
                         policy to avoid the fallback)"
                    );
                    let (c, cf) =
                        cpu_algo(SpgemmKernel::CpuHash).multiply_measured_in(s, a, b, spec.flops);
                    let dur = model.spgemm_time(SpgemmKernel::CpuHash, spec.flops, cf);
                    KernelLaunch {
                        c,
                        kernel: SpgemmKernel::CpuHash,
                        inputs_ready_at: host_now + dur,
                        output_ready_at: host_now + dur,
                        host_compute: dur,
                        kernel_time: dur,
                        flops: spec.flops,
                        cf,
                        measured_s: wall_elapsed(w0),
                    }
                }
            },
            cpu_kernel => {
                // Inline on the host, as original HipMCL runs CPU kernels:
                // the host is busy (not idle) for the whole duration and
                // cannot issue the next broadcast meanwhile.
                let (c, cf) = cpu_algo(cpu_kernel).multiply_measured_in(s, a, b, spec.flops);
                let dur = model.spgemm_time(cpu_kernel, spec.flops, cf);
                KernelLaunch {
                    c,
                    kernel: cpu_kernel,
                    inputs_ready_at: host_now + dur,
                    output_ready_at: host_now + dur,
                    host_compute: dur,
                    kernel_time: dur,
                    flops: spec.flops,
                    cf,
                    measured_s: wall_elapsed(w0),
                }
            }
        }
    }

    fn submit_merge(
        &mut self,
        model: &MachineModel,
        ready_at: f64,
        task: &MergeTask,
    ) -> MergeLaunch {
        GpuExecutor::submit_merge(self, model, ready_at, task)
    }

    fn gpus_available(&self) -> usize {
        GpuExecutor::gpus_available(self)
    }

    fn device_idle(&self) -> f64 {
        GpuExecutor::device_idle(self)
    }

    fn merge_lane_idle(&self) -> f64 {
        GpuExecutor::merge_lane_idle(self)
    }

    fn merge_lane_count(&self) -> usize {
        GpuExecutor::merge_lane_count(self)
    }

    fn reset_timelines(&mut self) {
        GpuExecutor::reset_timelines(self)
    }
}

/// A per-rank CPU worker pool with a device-like virtual timeline.
///
/// The real kernel executes through rayon (the kernels themselves are
/// row-parallel); the modeled duration comes from the machine model's
/// whole-node CPU rate, queued FIFO on the pool's [`Timeline`]. Handing a
/// job to the pool is free for the host — that is what makes a CPU-only
/// configuration pipelinable.
///
/// # Example
///
/// Two launches submitted back-to-back queue FIFO; a launch that only
/// becomes ready after the previous one finished leaves a measurable idle
/// gap on the pool's timeline (the Table V "GPU idle" analogue for
/// accelerator-less nodes):
///
/// ```
/// use hipmcl_comm::{MachineModel, SpgemmKernel, TimeModel};
/// use hipmcl_sparse::PlusTimes;
/// use hipmcl_summa::executor::{CpuPool, Executor, LaunchSpec};
/// use hipmcl_spgemm::testutil::random_csc;
///
/// let model = MachineModel::summit();
/// let a = random_csc(20, 20, 120, 7);
/// let spec = LaunchSpec {
///     kernel: SpgemmKernel::CpuHash,
///     flops: hipmcl_spgemm::flops(&a, &a),
///     cf_est: 1.0,
///     time: TimeModel::Modeled,
/// };
///
/// let mut pool = CpuPool::new();
/// let pt = PlusTimes::<f64>::new();
/// let l1 = pool.submit(pt, &model, 0.0, &a, &a, spec);
/// assert_eq!(l1.inputs_ready_at, 0.0, "handoff is free for the host");
///
/// // Ready 1 s after the first launch completed: the pool sat idle in
/// // between, and the gap is exactly what `device_idle` reports.
/// let l2 = pool.submit(pt, &model, l1.output_ready_at + 1.0, &a, &a, spec);
/// assert!(l2.output_ready_at > l1.output_ready_at);
/// assert!((pool.device_idle() - 1.0).abs() < 1e-9);
/// ```
///
/// # NUMA lanes
///
/// [`CpuPool::for_model`] sizes the pool from the machine model's node
/// topology — one lane (a [`Timeline`]) per socket, `model.threads`
/// workers overall — instead of a flat process-wide constant. A
/// whole-node SpGEMM occupies **every** lane (the kernels are
/// row-parallel across all cores); a merge occupies **one** lane at the
/// per-socket rate, so merges genuinely contend with SpGEMM for the same
/// cores and two merges can run socket-parallel. Merge inputs homed on
/// the other socket pay the model's cross-socket penalty.
pub struct CpuPool {
    threads: usize,
    lanes: Vec<Timeline>,
    steal: StealPolicy,
}

impl Default for CpuPool {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuPool {
    /// A single-lane pool sized to the rayon thread pool of this process
    /// (no NUMA structure — the legacy shape, kept for direct use).
    pub fn new() -> Self {
        Self {
            threads: rayon::current_num_threads().max(1),
            lanes: vec![Timeline::new()],
            steal: StealPolicy::default(),
        }
    }

    /// A pool sized from the machine model's node topology: one lane per
    /// socket, `model.threads` workers.
    pub fn for_model(model: &MachineModel) -> Self {
        Self {
            threads: model.threads.max(1),
            lanes: (0..model.sockets.max(1)).map(|_| Timeline::new()).collect(),
            steal: StealPolicy::default(),
        }
    }

    /// Sets the merge-lane steal policy (default
    /// [`StealPolicy::CostAware`]).
    pub fn with_steal(mut self, steal: StealPolicy) -> Self {
        self.steal = steal;
        self
    }

    /// Worker threads backing the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool's first lane (jobs queued, idle gaps) — the whole pool
    /// for a single-lane [`CpuPool::new`].
    pub fn timeline(&self) -> &Timeline {
        &self.lanes[0]
    }

    /// All worker lanes (one per socket).
    pub fn lanes(&self) -> &[Timeline] {
        &self.lanes
    }

    /// Queues a whole-node job (all lanes busy for `dur`, the machine
    /// model's whole-node rate already being baked into `dur`); returns
    /// the completion event, which is the slowest lane's.
    fn node_job(&mut self, ready: f64, dur: f64) -> Event {
        self.lanes
            .iter_mut()
            .map(|lane| lane.submit(ready, dur))
            .max_by(|a, b| a.at.partial_cmp(&b.at).unwrap())
            .expect("pool always has at least one lane")
    }

    /// Places a merge on a worker lane (see [`Executor::submit_merge`]).
    /// Inherent so callers with a concrete pool need not name a semiring.
    pub fn submit_merge(
        &mut self,
        model: &MachineModel,
        ready_at: f64,
        task: &MergeTask,
    ) -> MergeLaunch {
        submit_merge_on(&mut self.lanes, model, self.steal, ready_at, task)
    }

    /// GPUs visible to kernel selection — always 0 for a pure pool.
    pub fn gpus_available(&self) -> usize {
        0
    }

    /// Accumulated worker idle (see [`Executor::device_idle`]).
    pub fn device_idle(&self) -> f64 {
        lanes_idle(&self.lanes)
    }

    /// Accumulated merge-lane idle — the merge lanes *are* the shared
    /// worker timelines, so this equals [`CpuPool::device_idle`].
    pub fn merge_lane_idle(&self) -> f64 {
        self.device_idle()
    }

    /// Number of worker lanes merges can occupy (see
    /// [`Executor::merge_lane_count`]).
    pub fn merge_lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Resets all worker timelines (see [`Executor::reset_timelines`]).
    pub fn reset_timelines(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
    }
}

impl<S: Semiring> Executor<S> for CpuPool {
    fn submit(
        &mut self,
        s: S,
        model: &MachineModel,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        spec: LaunchSpec,
    ) -> KernelLaunch<S::Elem> {
        // Selection never yields a GPU kernel here (`gpus_available` is
        // 0); a forced GPU request degrades to the hash kernel.
        let cpu_kernel = match spec.kernel {
            SpgemmKernel::Gpu(_) => SpgemmKernel::CpuHash,
            k => k,
        };
        let w0 = wall_start(&spec);
        let (c, cf) = cpu_algo(cpu_kernel).multiply_measured_in(s, a, b, spec.flops);
        let dur = model.spgemm_time(cpu_kernel, spec.flops, cf);
        let done = self.node_job(host_now, dur);
        KernelLaunch {
            c,
            kernel: cpu_kernel,
            inputs_ready_at: host_now,
            output_ready_at: done.at,
            host_compute: 0.0,
            kernel_time: dur,
            flops: spec.flops,
            cf,
            measured_s: wall_elapsed(w0),
        }
    }

    fn submit_merge(
        &mut self,
        model: &MachineModel,
        ready_at: f64,
        task: &MergeTask,
    ) -> MergeLaunch {
        CpuPool::submit_merge(self, model, ready_at, task)
    }

    fn gpus_available(&self) -> usize {
        CpuPool::gpus_available(self)
    }

    fn device_idle(&self) -> f64 {
        CpuPool::device_idle(self)
    }

    fn merge_lane_idle(&self) -> f64 {
        // The merge lanes are the shared worker timelines.
        CpuPool::merge_lane_idle(self)
    }

    fn merge_lane_count(&self) -> usize {
        CpuPool::merge_lane_count(self)
    }

    fn reset_timelines(&mut self) {
        CpuPool::reset_timelines(self)
    }
}

/// Interior clamp of the adaptive fraction: both sides always keep a
/// sliver of work so the controller keeps receiving two-sided finish-time
/// observations (a share pinned at 0 or 1 could never measure the silent
/// side's rate again).
pub const ADAPTIVE_MIN_FRACTION: f64 = 0.05;
/// Upper interior clamp of the adaptive fraction (see
/// [`ADAPTIVE_MIN_FRACTION`]).
pub const ADAPTIVE_MAX_FRACTION: f64 = 0.95;
/// Default damping gain `γ` of the [`SplitController`] update.
pub const SPLIT_GAIN: f64 = 0.5;

/// Damped online feedback controller for [`SplitPolicy::Adaptive`].
///
/// After a stage splits its work `f : (1 − f)` between the devices and
/// the pool, the two sides' finish latencies `t_G` and `t_C` (virtual
/// seconds from submission to each side's completion event) imply
/// realized per-share rates `r_G = f / t_G` and `r_C = (1 − f) / t_C`.
/// The fraction that would have balanced the stage is
///
/// ```text
/// f* = r_G / (r_G + r_C)
/// ```
///
/// and the controller nudges the next stage's fraction toward it with a
/// damped, clamped update
///
/// ```text
/// f ← clamp(f + γ·(f* − f), ADAPTIVE_MIN_FRACTION, ADAPTIVE_MAX_FRACTION)
/// ```
///
/// With `γ ∈ (0, 1]` the fraction always stays in `[0, 1]`, and a
/// constant imbalance (fixed underlying rates) drives it monotonically
/// toward the balance point — the geometric convergence the property
/// tests below pin down.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitController {
    fraction: f64,
    gain: f64,
}

impl SplitController {
    /// A controller starting at `initial` (clamped into the interior
    /// band) with damping gain `gain` (clamped into `(0, 1]`).
    pub fn new(initial: f64, gain: f64) -> Self {
        Self {
            fraction: initial.clamp(ADAPTIVE_MIN_FRACTION, ADAPTIVE_MAX_FRACTION),
            gain: gain.clamp(f64::MIN_POSITIVE, 1.0),
        }
    }

    /// The fraction the next stage should use.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Feeds back one stage's finish latencies: `gpu_time` for the device
    /// share, `cpu_time` for the pool share, both measured from the
    /// submission instant. Non-positive latencies (a side with no work)
    /// are skipped — there is no two-sided observation to learn from.
    pub fn observe(&mut self, gpu_time: f64, cpu_time: f64) {
        if !(gpu_time > 0.0 && cpu_time > 0.0) {
            return;
        }
        let f = self.fraction;
        let rg = f / gpu_time;
        let rc = (1.0 - f) / cpu_time;
        if rg + rc <= 0.0 || !(rg + rc).is_finite() {
            return;
        }
        let target = rg / (rg + rc);
        self.fraction =
            (f + self.gain * (target - f)).clamp(ADAPTIVE_MIN_FRACTION, ADAPTIVE_MAX_FRACTION);
    }
}

/// Joint CPU+GPU execution: each GPU-sized multiplication is column-split
/// between the devices (leading columns) and the worker pool (trailing
/// columns), extending §III-A's multi-GPU split by one more "device".
/// CPU-selected (small) multiplications go to the pool whole.
///
/// The per-stage GPU share follows the configured [`SplitPolicy`]; every
/// realized share is recorded (see [`Hybrid::fractions`]) so the split
/// decision is an observable part of the pipeline, not a hidden constant.
pub struct Hybrid<'g> {
    gpus: &'g mut MultiGpu,
    pool: CpuPool,
    policy: SplitPolicy,
    controller: Option<SplitController>,
    fractions: Vec<f64>,
}

impl<'g> Hybrid<'g> {
    /// Wraps the rank's devices with the given split policy.
    ///
    /// # Panics
    ///
    /// On a [`SplitPolicy::Fixed`] fraction outside `[0, 1]` — such values
    /// are a configuration error that `MclConfig`/`SummaConfig` validation
    /// reports before any executor is built; they are never clamped.
    pub fn new(gpus: &'g mut MultiGpu, split: SplitPolicy) -> Self {
        split
            .validate()
            .unwrap_or_else(|e| panic!("invalid hybrid split: {e}"));
        Self {
            gpus,
            pool: CpuPool::new(),
            policy: split,
            controller: None,
            fractions: Vec::new(),
        }
    }

    /// Like [`Hybrid::new`], but the pool side is sized from the machine
    /// model's node topology ([`CpuPool::for_model`]): NUMA merge lanes
    /// shared with the CPU slab of every column split.
    ///
    /// # Panics
    ///
    /// As [`Hybrid::new`], on an invalid [`SplitPolicy::Fixed`] fraction.
    pub fn for_model(gpus: &'g mut MultiGpu, split: SplitPolicy, model: &MachineModel) -> Self {
        let mut h = Self::new(gpus, split);
        h.pool = CpuPool::for_model(model);
        h
    }

    /// Sets the merge-lane steal policy of the pool side (default
    /// [`StealPolicy::CostAware`]); merges delegate to the pool's lanes.
    pub fn with_steal(mut self, steal: StealPolicy) -> Self {
        self.pool.steal = steal;
        self
    }

    /// The realized GPU share of every submission so far, in order (0 for
    /// multiplications that went to the pool whole).
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// The GPU share the policy picks for this launch.
    fn pick_fraction(
        &mut self,
        model: &MachineModel,
        lib: hipmcl_comm::GpuLib,
        spec: &LaunchSpec,
    ) -> f64 {
        match self.policy {
            SplitPolicy::Fixed(f) => f,
            SplitPolicy::ModelDerived => model.hybrid_gpu_fraction(lib, spec.flops, spec.cf_est),
            SplitPolicy::Adaptive => self
                .controller
                .get_or_insert_with(|| {
                    SplitController::new(
                        model.hybrid_gpu_fraction(lib, spec.flops, spec.cf_est),
                        SPLIT_GAIN,
                    )
                })
                .fraction(),
        }
    }

    /// Places a merge on the pool's worker lanes (see
    /// [`Executor::submit_merge`]). Inherent so callers with a concrete
    /// executor need not name a semiring.
    pub fn submit_merge(
        &mut self,
        model: &MachineModel,
        ready_at: f64,
        task: &MergeTask,
    ) -> MergeLaunch {
        // Merges land on the pool's worker lanes, contending with the
        // CPU slabs of the column splits for the same cores.
        self.pool.submit_merge(model, ready_at, task)
    }

    /// GPUs visible to kernel selection (see [`Executor::gpus_available`]).
    pub fn gpus_available(&self) -> usize {
        self.gpus.len()
    }

    /// Accumulated device + worker idle (see [`Executor::device_idle`]).
    pub fn device_idle(&self) -> f64 {
        self.gpus.total_idle() + self.pool.device_idle()
    }

    /// Accumulated merge-lane idle (see [`Executor::merge_lane_idle`]).
    pub fn merge_lane_idle(&self) -> f64 {
        self.pool.merge_lane_idle()
    }

    /// Number of worker lanes merges can occupy (see
    /// [`Executor::merge_lane_count`]) — the delegated pool's.
    pub fn merge_lane_count(&self) -> usize {
        self.pool.merge_lane_count()
    }

    /// Resets all internal timelines (see [`Executor::reset_timelines`]).
    pub fn reset_timelines(&mut self) {
        self.gpus.reset_timelines();
        self.pool.reset_timelines();
    }
}

impl<S: Semiring> Executor<S> for Hybrid<'_> {
    fn submit(
        &mut self,
        s: S,
        model: &MachineModel,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        spec: LaunchSpec,
    ) -> KernelLaunch<S::Elem> {
        let n = b.ncols();
        let lib = match spec.kernel {
            SpgemmKernel::Gpu(lib) if !self.gpus.is_empty() => lib,
            _ => {
                self.fractions.push(0.0);
                return self.pool.submit(s, model, host_now, a, b, spec);
            }
        };
        let frac = self.pick_fraction(model, lib, &spec);
        let gcols = ((n as f64 * frac).round() as usize).min(n);
        if gcols == 0 {
            self.fractions.push(0.0);
            return self.pool.submit(s, model, host_now, a, b, spec);
        }
        self.fractions.push(gcols as f64 / n.max(1) as f64);

        let w0 = wall_start(&spec);
        let b_gpu = b.column_slice(0..gcols);
        let r = match self.gpus.multiply_in(s, host_now, a, &b_gpu, lib) {
            Ok(r) => r,
            // Device out of memory: hand the whole multiply to the CPU
            // pool instead of panicking, and record that the GPU took
            // none of it so the adaptive fraction stays honest.
            Err(e) => {
                eprintln!(
                    "hybrid gpu side degraded to the cpu pool: {e} (increase phases or use \
                     a CPU policy to avoid the fallback)"
                );
                *self.fractions.last_mut().expect("fraction pushed above") = 0.0;
                return self.pool.submit(s, model, host_now, a, b, spec);
            }
        };

        let mut output_ready_at = r.output_ready_at;
        let mut total_flops = r.flops;
        let mut total_nnz = r.c.nnz() as u64;
        let c = if gcols < n {
            let b_cpu = b.column_slice(gcols..n);
            let flops_cpu = hipmcl_spgemm::flops(a, &b_cpu);
            let (c_cpu, cf_cpu) = CpuAlgo::Hash.multiply_measured_in(s, a, &b_cpu, flops_cpu);
            let dur = model.spgemm_time(SpgemmKernel::CpuHash, flops_cpu, cf_cpu);
            let done = self.pool.node_job(host_now, dur);
            output_ready_at = output_ready_at.max(done.at);
            total_flops += flops_cpu;
            total_nnz += c_cpu.nnz() as u64;
            // Online feedback: the two sides' finish latencies from this
            // submission instant are exactly the imbalance the adaptive
            // policy drives to zero.
            if let Some(ctl) = self.controller.as_mut() {
                ctl.observe(r.output_ready_at - host_now, done.at - host_now);
            }
            Csc::hcat(&[r.c, c_cpu])
        } else {
            r.c
        };
        debug_assert_eq!(total_flops, spec.flops, "split must cover all columns");

        let cf = if total_nnz == 0 {
            1.0
        } else {
            total_flops as f64 / total_nnz as f64
        };
        KernelLaunch {
            c,
            kernel: spec.kernel,
            // The host blocks on the GPU input transfers (the pool handoff
            // is free), exactly like the pure multi-GPU path.
            inputs_ready_at: r.inputs_transferred_at,
            output_ready_at,
            host_compute: 0.0,
            kernel_time: output_ready_at - r.inputs_transferred_at,
            flops: total_flops,
            cf,
            measured_s: wall_elapsed(w0),
        }
    }

    fn submit_merge(
        &mut self,
        model: &MachineModel,
        ready_at: f64,
        task: &MergeTask,
    ) -> MergeLaunch {
        Hybrid::submit_merge(self, model, ready_at, task)
    }

    fn gpus_available(&self) -> usize {
        Hybrid::gpus_available(self)
    }

    fn device_idle(&self) -> f64 {
        Hybrid::device_idle(self)
    }

    fn merge_lane_idle(&self) -> f64 {
        Hybrid::merge_lane_idle(self)
    }

    fn merge_lane_count(&self) -> usize {
        Hybrid::merge_lane_count(self)
    }

    fn reset_timelines(&mut self) {
        Hybrid::reset_timelines(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_comm::GpuLib;
    use hipmcl_spgemm::testutil::random_csc;
    use proptest::prelude::*;

    fn model() -> MachineModel {
        MachineModel::summit()
    }

    fn pt() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    fn want(a: &Csc<f64>) -> Csc<f64> {
        hipmcl_spgemm::hash::multiply(a, a)
    }

    fn spec_for(a: &Csc<f64>, kernel: SpgemmKernel) -> LaunchSpec {
        LaunchSpec {
            kernel,
            flops: hipmcl_spgemm::flops(a, a),
            cf_est: 1.0,
            time: TimeModel::Modeled,
        }
    }

    #[test]
    fn multigpu_executor_gpu_kernel_is_async() {
        let a = random_csc(30, 30, 260, 41);
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut exec = GpuExecutor::new(&mut gpus, &model());
        let l = exec.submit(
            pt(),
            &model(),
            1.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::Gpu(GpuLib::Nsparse)),
        );
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
        assert!(l.inputs_ready_at > 1.0);
        assert!(
            l.output_ready_at > l.inputs_ready_at,
            "kernel + D2H after transfer"
        );
        assert_eq!(l.host_compute, 0.0);
        assert!((l.kernel_time - (l.output_ready_at - l.inputs_ready_at)).abs() < 1e-12);
    }

    #[test]
    fn multigpu_executor_cpu_kernel_is_host_synchronous() {
        let a = random_csc(30, 30, 260, 42);
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut exec = GpuExecutor::new(&mut gpus, &model());
        let l = exec.submit(
            pt(),
            &model(),
            1.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::CpuHash),
        );
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
        assert_eq!(
            l.inputs_ready_at, l.output_ready_at,
            "host blocked for the whole kernel"
        );
        assert!(l.host_compute > 0.0);
        assert!((l.host_compute - (l.output_ready_at - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn gpu_oom_degrades_to_host_kernel_instead_of_panicking() {
        let a = random_csc(30, 30, 260, 45);
        // Devices far too small for the operands: every launch OOMs.
        let mut gpus = MultiGpu::new(model(), 2, 64);
        let mut exec = GpuExecutor::new(&mut gpus, &model());
        let l = exec.submit(
            pt(),
            &model(),
            1.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::Gpu(GpuLib::Nsparse)),
        );
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9, "result still correct");
        assert_eq!(
            l.kernel,
            SpgemmKernel::CpuHash,
            "launch degraded to the host kernel"
        );
        assert!(l.host_compute > 0.0, "host pays for the fallback");
        assert_eq!(l.flops, hipmcl_spgemm::flops(&a, &a));
    }

    #[test]
    fn hybrid_oom_hands_the_whole_multiply_to_the_pool() {
        let a = random_csc(30, 30, 260, 46);
        let mut gpus = MultiGpu::new(model(), 2, 64);
        let mut h = Hybrid::new(&mut gpus, SplitPolicy::Fixed(0.5));
        let l = h.submit(
            pt(),
            &model(),
            1.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::Gpu(GpuLib::Nsparse)),
        );
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9, "result still correct");
        assert_eq!(
            h.fractions(),
            &[0.0],
            "the realized GPU share records the fallback, not the intent"
        );
    }

    #[test]
    fn cpu_pool_launches_are_async_and_fifo() {
        let a = random_csc(30, 30, 260, 43);
        let mut pool = CpuPool::new();
        let l1 = pool.submit(
            pt(),
            &model(),
            1.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::CpuHash),
        );
        assert!(l1.c.max_abs_diff(&want(&a)) < 1e-9);
        assert_eq!(
            l1.inputs_ready_at, 1.0,
            "handoff is free — host resumes at once"
        );
        assert!(l1.output_ready_at > 1.0);
        assert_eq!(l1.host_compute, 0.0);
        // Second job ready immediately queues behind the first.
        let l2 = pool.submit(
            pt(),
            &model(),
            1.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::CpuHeap),
        );
        assert!(l2.output_ready_at > l1.output_ready_at);
        assert_eq!(pool.timeline().jobs(), 2);
        assert_eq!(pool.device_idle(), 0.0, "back-to-back jobs leave no gap");
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn cpu_pool_degrades_gpu_requests_to_hash() {
        let a = random_csc(20, 20, 120, 44);
        let mut pool = CpuPool::new();
        let l = pool.submit(
            pt(),
            &model(),
            0.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::Gpu(GpuLib::Nsparse)),
        );
        assert_eq!(l.kernel, SpgemmKernel::CpuHash);
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
    }

    #[test]
    fn hybrid_splits_and_matches_reference() {
        let a = random_csc(40, 40, 500, 45);
        let w = want(&a);
        let policies = [
            SplitPolicy::Fixed(0.0),
            SplitPolicy::Fixed(0.3),
            SplitPolicy::Fixed(0.5),
            SplitPolicy::Fixed(0.85),
            SplitPolicy::Fixed(1.0),
            SplitPolicy::ModelDerived,
            SplitPolicy::Adaptive,
        ];
        for policy in policies {
            let mut gpus = MultiGpu::new(model(), 3, 1 << 30);
            let mut h = Hybrid::new(&mut gpus, policy);
            let l = h.submit(
                pt(),
                &model(),
                0.0,
                &a,
                &a,
                spec_for(&a, SpgemmKernel::Gpu(GpuLib::Nsparse)),
            );
            assert!(l.c.max_abs_diff(&w) < 1e-9, "{policy:?}");
            assert_eq!(l.c.nnz(), w.nnz(), "{policy:?}");
            assert_eq!(
                l.flops,
                spec_for(&a, SpgemmKernel::CpuHash).flops,
                "{policy:?}"
            );
            assert!(l.output_ready_at >= l.inputs_ready_at, "{policy:?}");
            assert_eq!(h.fractions().len(), 1, "{policy:?}");
            let f = h.fractions()[0];
            assert!((0.0..=1.0).contains(&f), "{policy:?}: {f}");
        }
    }

    #[test]
    fn hybrid_sends_cpu_kernels_to_the_pool() {
        let a = random_csc(25, 25, 180, 46);
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut h = Hybrid::new(&mut gpus, SplitPolicy::Fixed(0.85));
        let l = h.submit(
            pt(),
            &model(),
            2.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::CpuHeap),
        );
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
        assert_eq!(
            l.inputs_ready_at, 2.0,
            "pool handoff frees the host immediately"
        );
        assert_eq!(h.gpus_available(), 2);
        assert_eq!(h.fractions(), &[0.0], "whole multiply on the pool");
    }

    #[test]
    fn hybrid_without_devices_runs_entirely_on_pool() {
        let a = random_csc(20, 20, 140, 47);
        let mut gpus = MultiGpu::new(model(), 0, 1 << 30);
        let mut h = Hybrid::new(&mut gpus, SplitPolicy::Adaptive);
        let l = h.submit(
            pt(),
            &model(),
            0.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::Gpu(GpuLib::Rmerge2)),
        );
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
        assert_eq!(l.kernel, SpgemmKernel::CpuHash);
    }

    #[test]
    #[should_panic(expected = "invalid hybrid split")]
    fn hybrid_rejects_fraction_above_one() {
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let _ = Hybrid::new(&mut gpus, SplitPolicy::Fixed(1.5));
    }

    #[test]
    #[should_panic(expected = "invalid hybrid split")]
    fn hybrid_rejects_negative_fraction() {
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let _ = Hybrid::new(&mut gpus, SplitPolicy::Fixed(-0.1));
    }

    #[test]
    fn split_policy_validation_accepts_bounds_rejects_outside() {
        assert!(SplitPolicy::Fixed(0.0).validate().is_ok());
        assert!(SplitPolicy::Fixed(1.0).validate().is_ok());
        assert!(SplitPolicy::ModelDerived.validate().is_ok());
        assert!(SplitPolicy::Adaptive.validate().is_ok());
        let below = SplitPolicy::Fixed(-1e-9).validate().unwrap_err();
        assert_eq!(below.fraction, -1e-9);
        let above = SplitPolicy::Fixed(1.0 + 1e-9).validate().unwrap_err();
        assert!(above.fraction > 1.0);
        assert!(SplitPolicy::Fixed(f64::NAN).validate().is_err());
        assert!(ExecutorKind::Hybrid {
            split: SplitPolicy::Fixed(2.0)
        }
        .validate()
        .is_err());
        assert!(ExecutorKind::Gpus.validate().is_ok());
        // The error is displayable (surfaced by MclConfig validation).
        let msg = format!("{}", above);
        assert!(msg.contains("[0, 1]"), "{msg}");
    }

    #[test]
    fn executor_kind_default_and_hybrid_presets() {
        assert_eq!(ExecutorKind::default(), ExecutorKind::Gpus);
        assert_eq!(
            ExecutorKind::hybrid(),
            ExecutorKind::Hybrid {
                split: SplitPolicy::Adaptive
            }
        );
        assert_eq!(
            ExecutorKind::hybrid_fixed(),
            ExecutorKind::Hybrid {
                split: SplitPolicy::Fixed(DEFAULT_GPU_FRACTION)
            }
        );
    }

    #[test]
    fn adaptive_converges_toward_balanced_finish_times() {
        // Repeated identical multiplications from a deliberately bad
        // initial fraction (the model seed already starts near balance):
        // the controller must walk toward the point where devices and pool
        // finish together, shrinking the finish-time gap.
        // Big enough that split work dwarfs the fixed launch/transfer
        // overheads — otherwise the gap floor is the overhead, not the
        // imbalance.
        let a = random_csc(300, 300, 24000, 49);
        let spec = spec_for(&a, SpgemmKernel::Gpu(GpuLib::Nsparse));
        let mut gpus = MultiGpu::new(model(), 6, 1 << 30);
        let mut h = Hybrid::new(&mut gpus, SplitPolicy::Adaptive);
        h.controller = Some(SplitController::new(0.2, SPLIT_GAIN));
        let mut gaps = Vec::new();
        let mut now = 0.0;
        for _ in 0..12 {
            let l = h.submit(pt(), &model(), now, &a, &a, spec);
            now = l.output_ready_at;
            let gpu_done = h
                .gpus
                .devices
                .iter()
                .map(|d| d.quiescent_at())
                .fold(0.0, f64::max);
            let pool_done = h.pool.timeline().busy_until();
            gaps.push((gpu_done - pool_done).abs());
        }
        assert!(
            gaps.last().unwrap() < &(0.5 * gaps[0]).max(1e-12),
            "finish-time gap must shrink: {gaps:?}"
        );
    }

    fn merge_task(kernel: MergeKernel, inputs: Vec<(u64, Option<usize>)>) -> MergeTask {
        MergeTask { kernel, inputs }
    }

    #[test]
    fn merge_tasks_spread_across_socket_lanes() {
        // Summit's model has two sockets → two merge lanes; two merges
        // ready at the same instant run socket-parallel, not queued.
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut exec = GpuExecutor::new(&mut gpus, &model());
        assert_eq!(exec.merge_lanes().len(), 2);
        let t = merge_task(MergeKernel::Heap, vec![(50_000, None), (50_000, None)]);
        let l1 = exec.submit_merge(&model(), 0.0, &t);
        let l2 = exec.submit_merge(&model(), 0.0, &t);
        assert_ne!(l1.lane, l2.lane, "second merge takes the free lane");
        assert_eq!(l1.started_at, 0.0);
        assert_eq!(l2.started_at, 0.0);
        assert!((l1.output_ready_at - l1.duration).abs() < 1e-12);
        // A third merge must queue behind one of them.
        let l3 = exec.submit_merge(&model(), 0.0, &t);
        assert!(l3.started_at >= l1.output_ready_at.min(l2.output_ready_at) - 1e-12);
    }

    #[test]
    fn merge_lane_idle_reconciles_with_span_gaps() {
        // One rank per socket (4 ranks/node) → a single merge lane, so
        // the gap between two spans is exactly the reported lane idle.
        let m = MachineModel::summit_ranks_per_node(4);
        assert_eq!(m.sockets, 1);
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = GpuExecutor::new(&mut gpus, &m);
        let t = merge_task(MergeKernel::SpAdd, vec![(10_000, None); 4]);
        let l1 = exec.submit_merge(&m, 0.0, &t);
        let l2 = exec.submit_merge(&m, l1.output_ready_at + 0.25, &t);
        assert!((l2.started_at - (l1.output_ready_at + 0.25)).abs() < 1e-12);
        assert!((exec.merge_lane_idle() - 0.25).abs() < 1e-12);
        assert_eq!(exec.device_idle(), 0.0, "device streams saw no merges");
        exec.reset_timelines();
        assert_eq!(exec.merge_lane_idle(), 0.0);
    }

    #[test]
    fn remote_socket_inputs_pay_the_crossing_penalty() {
        // Pin the legacy policy: under cost-aware stealing the scheduler
        // would route the all-remote task to its home lane and never pay.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = GpuExecutor::new(&mut gpus, &m).with_steal(StealPolicy::Off);
        // Fresh lanes tie on busy_until → lane 0 wins; inputs homed on
        // socket 1 are all remote.
        let local = merge_task(
            MergeKernel::Heap,
            vec![(40_000, Some(0)), (40_000, Some(0))],
        );
        let remote = merge_task(
            MergeKernel::Heap,
            vec![(40_000, Some(1)), (40_000, Some(1))],
        );
        let ll = exec.submit_merge(&m, 0.0, &local);
        assert_eq!(ll.lane, 0);
        assert!(!ll.stolen);
        let mut gpus2 = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec2 = GpuExecutor::new(&mut gpus2, &m).with_steal(StealPolicy::Off);
        let lr = exec2.submit_merge(&m, 0.0, &remote);
        assert_eq!(lr.lane, 0);
        let ratio = lr.duration / ll.duration;
        assert!(
            (ratio - (1.0 + m.xsocket_penalty)).abs() < 1e-9,
            "all-remote inputs scale the merge by 1 + penalty, got {ratio}"
        );
    }

    #[test]
    fn cost_aware_steal_avoids_the_crossing_penalty_on_free_lanes() {
        // Same all-remote task as above, but under the default CostAware
        // policy: lane 1 (the inputs' home) finishes it sooner than the
        // origin pick (lane 0, which would pay the penalty), so lane 1
        // steals it and the span records the steal.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = GpuExecutor::new(&mut gpus, &m);
        let remote = merge_task(
            MergeKernel::Heap,
            vec![(40_000, Some(1)), (40_000, Some(1))],
        );
        let l = exec.submit_merge(&m, 0.0, &remote);
        assert_eq!(l.lane, 1, "home lane wins the task");
        assert_eq!(l.origin, 0, "pinning would have picked lane 0");
        assert!(l.stolen);
        let unpenalized = m.merge_lane_time_with(MergeKernel::Heap, 80_000, 2, 0, 2);
        assert!(
            (l.duration - unpenalized).abs() < 1e-12,
            "the steal pays no cross-socket penalty: {} vs {unpenalized}",
            l.duration
        );
    }

    #[test]
    fn cost_aware_refuses_a_steal_that_loses_to_waiting() {
        // Lane 1 (the inputs' home) is deeply backlogged; lane 0 is free.
        // Paying the penalty on lane 0 now beats waiting for lane 1, so
        // the task stays on its origin lane — stealing is cost-gated, not
        // affinity-greedy.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = GpuExecutor::new(&mut gpus, &m);
        // Backlog lane 1 with a huge merge homed there.
        let big = merge_task(MergeKernel::Heap, vec![(50_000_000, Some(1)); 2]);
        let lb = exec.submit_merge(&m, 0.0, &big);
        assert_eq!(lb.lane, 1);
        let small = merge_task(MergeKernel::Heap, vec![(40_000, Some(1)); 2]);
        let ls = exec.submit_merge(&m, 0.0, &small);
        assert_eq!(ls.lane, 0, "waiting behind the backlog would lose");
        assert_eq!(ls.origin, 0);
        assert!(!ls.stolen);
        let penalized = m.merge_lane_time_with(MergeKernel::Heap, 80_000, 2, 80_000, 2);
        assert!((ls.duration - penalized).abs() < 1e-12);
    }

    #[test]
    fn cost_aware_tie_breaks_toward_the_smallest_idle_gap() {
        // Both lanes hold jobs; the task becomes ready exactly when the
        // longer lane frees up. Off pins to the shorter backlog (opening
        // an idle gap there); CostAware sees equal completion times and
        // prefers the lane that opens no gap.
        let m = model();
        let t_short = merge_task(MergeKernel::Heap, vec![(10_000, None); 2]);
        let t_long = merge_task(MergeKernel::Heap, vec![(80_000, None); 2]);
        let probe = merge_task(MergeKernel::Heap, vec![(20_000, None); 2]);
        let run = |policy: StealPolicy| {
            let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
            let mut exec = GpuExecutor::new(&mut gpus, &m).with_steal(policy);
            let a = exec.submit_merge(&m, 0.0, &t_long); // lane 0
            let b = exec.submit_merge(&m, 0.0, &t_short); // lane 1
            assert_ne!(a.lane, b.lane);
            let l = exec.submit_merge(&m, a.output_ready_at, &probe);
            (l, exec.merge_lane_idle())
        };
        let (l_off, idle_off) = run(StealPolicy::Off);
        assert_eq!(l_off.lane, 1, "pinning chases the shorter backlog");
        assert!(idle_off > 0.0, "and opens an idle gap there");
        let (l_ca, idle_ca) = run(StealPolicy::CostAware);
        assert_eq!(l_ca.lane, 0, "equal finish → prefer the gapless lane");
        assert!(l_ca.stolen);
        assert_eq!(idle_ca, 0.0);
        assert_eq!(
            l_ca.output_ready_at, l_off.output_ready_at,
            "the steal was free: same completion, less idle"
        );
    }

    #[test]
    fn starved_lane_reconciliation_counts_no_phantom_idle() {
        // Every merge is homed on (and won by) lane 0: lane 1 receives
        // zero tasks, and its empty Timeline must contribute exactly zero
        // to merge_lane_idle — neither under- nor double-counted.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = GpuExecutor::new(&mut gpus, &m);
        let t = merge_task(MergeKernel::Heap, vec![(30_000, Some(0)); 2]);
        let mut ready = 0.0;
        let mut spans = Vec::new();
        for _ in 0..4 {
            let l = exec.submit_merge(&m, ready, &t);
            assert_eq!(l.lane, 0, "home lane always wins: lane 1 starves");
            spans.push(l);
            ready = l.output_ready_at + 0.125; // open a real gap each time
        }
        assert_eq!(exec.merge_lanes()[1].jobs(), 0, "lane 1 saw nothing");
        let gaps: f64 = spans
            .windows(2)
            .map(|w| (w[1].started_at - w[0].output_ready_at).max(0.0))
            .sum();
        assert!(
            (exec.merge_lane_idle() - gaps).abs() < 1e-12,
            "idle {} must equal the span gaps {gaps} on the busy lane alone",
            exec.merge_lane_idle()
        );
    }

    #[test]
    fn steal_policy_default_validation_and_names() {
        assert_eq!(StealPolicy::default(), StealPolicy::CostAware);
        for p in StealPolicy::all() {
            assert!(p.validate().is_ok());
        }
        assert_eq!(StealPolicy::Off.name(), "off");
        assert_eq!(StealPolicy::CostAware.name(), "cost-aware");
    }

    #[test]
    fn cpu_pool_sizes_from_model_topology() {
        let m = model();
        let pool = CpuPool::for_model(&m);
        assert_eq!(pool.threads(), m.threads, "workers = sockets × cores");
        assert_eq!(pool.lanes().len(), m.sockets);
        assert_eq!(CpuPool::new().lanes().len(), 1, "legacy pool is flat");
    }

    #[test]
    fn pool_merges_contend_with_spgemm_for_the_lanes() {
        let m = model();
        let a = random_csc(30, 30, 260, 50);
        let mut pool = CpuPool::for_model(&m);
        let k = pool.submit(pt(), &m, 0.0, &a, &a, spec_for(&a, SpgemmKernel::CpuHash));
        // The whole-node kernel holds every lane; a merge ready at 0 can
        // only start once a lane frees up.
        let t = merge_task(MergeKernel::BrMerge, vec![(1000, None), (1000, None)]);
        let l = pool.submit_merge(&m, 0.0, &t);
        assert!(
            (l.started_at - k.output_ready_at).abs() < 1e-12,
            "merge waited for the SpGEMM to release its lane"
        );
        assert_eq!(
            pool.merge_lane_idle(),
            pool.device_idle(),
            "shared lanes: merge-lane idle is the pool idle"
        );
    }

    #[test]
    fn merge_task_accessors() {
        let t = merge_task(
            MergeKernel::SpAdd,
            vec![(3, Some(0)), (4, None), (5, Some(1))],
        );
        assert_eq!(t.ways(), 3);
        assert_eq!(t.total_elems(), 12);
    }

    #[test]
    fn reset_timelines_clears_idle_accounting() {
        let a = random_csc(20, 20, 120, 48);
        let mut pool = CpuPool::new();
        pool.submit(
            pt(),
            &model(),
            0.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::CpuHash),
        );
        pool.submit(
            pt(),
            &model(),
            1e9,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::CpuHash),
        );
        assert!(pool.device_idle() > 0.0);
        pool.reset_timelines();
        assert_eq!(pool.device_idle(), 0.0);
    }

    #[test]
    fn controller_constant_rates_converge_monotonically() {
        // Closed loop against fixed true rates: |f - f*| must never grow,
        // and the fraction must land on the balance point.
        let (rg, rc) = (3.0, 1.0);
        let target = rg / (rg + rc);
        let mut c = SplitController::new(0.1, 0.5);
        let mut err = (c.fraction() - target).abs();
        for _ in 0..64 {
            let f = c.fraction();
            c.observe(f / rg, (1.0 - f) / rc);
            let e = (c.fraction() - target).abs();
            assert!(e <= err + 1e-12, "error grew: {e} > {err}");
            err = e;
        }
        assert!(err < 1e-6, "did not converge: {err}");
    }

    #[test]
    fn controller_skips_one_sided_observations() {
        let mut c = SplitController::new(0.5, 0.5);
        c.observe(0.0, 1.0);
        c.observe(1.0, 0.0);
        c.observe(-1.0, 2.0);
        assert_eq!(c.fraction(), 0.5, "no two-sided signal, no update");
    }

    proptest! {
        /// Any sequence of stage imbalances keeps the fraction in [0, 1].
        #[test]
        fn controller_fraction_always_in_unit_interval(
            initial in -1.0f64..2.0,
            gain in 0.01f64..1.0,
            times in proptest::collection::vec((1e-9f64..1e6, 1e-9f64..1e6), 1..40),
        ) {
            let mut c = SplitController::new(initial, gain);
            prop_assert!((0.0..=1.0).contains(&c.fraction()));
            for (tg, tc) in times {
                c.observe(tg, tc);
                prop_assert!(
                    (0.0..=1.0).contains(&c.fraction()),
                    "fraction escaped: {}", c.fraction()
                );
            }
        }

        /// A constant imbalance (fixed underlying rates) drives the
        /// fraction monotonically toward the balance point.
        #[test]
        fn controller_constant_imbalance_is_monotone(
            initial in 0.0f64..1.0,
            gain in 0.01f64..1.0,
            rg in 0.1f64..100.0,
            rc in 0.1f64..100.0,
        ) {
            let target = (rg / (rg + rc))
                .clamp(ADAPTIVE_MIN_FRACTION, ADAPTIVE_MAX_FRACTION);
            let mut c = SplitController::new(initial, gain);
            let mut prev = (c.fraction() - target).abs();
            // Error contracts by (1 − gain) per step; 2000 steps suffice
            // for even the smallest gain in range.
            for _ in 0..2000 {
                let f = c.fraction();
                c.observe(f / rg, (1.0 - f) / rc);
                let err = (c.fraction() - target).abs();
                prop_assert!(err <= prev + 1e-12, "diverged: {err} > {prev}");
                prev = err;
            }
            prop_assert!(prev < 1e-3, "not converged: {prev}");
        }
    }
}
