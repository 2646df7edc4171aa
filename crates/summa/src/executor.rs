//! The kernel-execution layer: every local SpGEMM is an asynchronous
//! launch.
//!
//! The Pipelined Sparse SUMMA scheduler (`pipeline`) never cares *where* a
//! local multiplication runs — it submits the selected kernel to the
//! rank's [`Executor`] and overlaps against the returned [`KernelLaunch`]
//! events. One executor type serves every configuration; its
//! [`ExecutorKind`] decides where kernels land:
//!
//! * [`ExecutorKind::Gpus`] — the paper's configuration (§III-A): GPU
//!   kernels run asynchronously on the rank's [`MultiGpu`] devices (the
//!   host resumes after the input transfer), CPU-selected kernels run
//!   inline on the host, exactly as original HipMCL executes them.
//! * [`ExecutorKind::CpuPool`] — a per-rank worker pool: every kernel is a
//!   whole-node job on the executor's worker lanes, each a [`Timeline`]
//!   advancing like a device stream does, which makes CPU kernels
//!   overlappable: "optimized HipMCL on nodes without accelerators" gains
//!   the §III broadcast/merge overlap.
//! * [`ExecutorKind::Hybrid`] — extends §III-A's multi-GPU column split to
//!   the CPU: a fraction of `B`'s columns is multiplied on the devices
//!   while the worker lanes take the trailing slab, and the output is a
//!   trivial `hcat`. The fraction starts at the machine model's balance
//!   point ([`MachineModel::hybrid_gpu_fraction`]) and is then adapted
//!   online by a damped [`SplitController`] reading the realized
//!   finish-time imbalance off the two sides' timelines.
//!
//! Merging is a first-class executor task, not a side activity: the
//! pipeline submits every merge operation as a [`MergeTask`] through
//! [`Executor::submit_merge`], and the executor queues it on a host-side
//! **lane** — one [`Timeline`] per socket of the machine model, so a NUMA
//! node merges at its per-socket rate and inputs produced on the other
//! socket pay the model's cross-socket penalty. There is one lane set per
//! executor, and the kind decides what else runs on it: under `Gpus` the
//! lanes carry only merges (next to the device streams), under `CpuPool`
//! and `Hybrid` they also carry the CPU-side SpGEMM, so merges genuinely
//! contend with it for the same cores. Either way a merge's cost shows up
//! only as a [`MergeLaunch`] span on a lane — there is no private merge
//! clock anywhere.
//!
//! All timestamps are virtual seconds on the owning rank's clock; the
//! executor only reads the clock value the scheduler passes in and never
//! advances it itself — waiting (and therefore idle accounting) is the
//! scheduler's job.

use hipmcl_comm::{Event, GpuLib, MachineModel, MergeKernel, SpgemmKernel, TimeModel, Timeline};
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::{Csc, Semiring, Value};
use hipmcl_spgemm::CpuAlgo;

/// Which executor a SUMMA run submits its local multiplications to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// GPU kernels async on the devices, CPU kernels inline on the host
    /// (the paper's setup and the legacy behaviour).
    #[default]
    Gpus,
    /// Every kernel is an async launch on the per-rank CPU worker pool.
    CpuPool,
    /// Column-split each multiplication across the GPUs and the pool, with
    /// the GPU share adapted per stage by a [`SplitController`].
    Hybrid,
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
    /// Cohen probe (already clamped so `cf_est ≥ 1`); the executor uses it
    /// to evaluate the machine model's rate curves before the realized
    /// `cf` is known.
    pub cf_est: f64,
    /// The universe's time model. The executor keys its timelines off the
    /// modeled clock either way; under [`TimeModel::Measured`] it
    /// additionally stamps each launch's real host compute with wall
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

/// One merge operation as scheduled on an executor lane — the merge-side
/// analogue of [`KernelLaunch`]. The real merging work is the pipeline's
/// (`merge::merge_into`); this records only the span.
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
    /// The least-busy lane at submission time — the task's origin queue.
    pub origin: usize,
    /// Whether another lane stole the task from its origin queue
    /// (`lane != origin`).
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

/// The CPU algorithm behind a CPU-side kernel selection (a GPU request
/// that lands on the host runs the hash kernel).
fn cpu_algo(kernel: SpgemmKernel) -> CpuAlgo {
    match kernel {
        SpgemmKernel::CpuHeap => CpuAlgo::Heap,
        SpgemmKernel::CpuSpa => CpuAlgo::Spa,
        _ => CpuAlgo::Hash,
    }
}

/// The rank's target for local SpGEMM launches and merge operations.
///
/// The executor owns the scheduling state — the borrowed devices, one
/// lane ([`Timeline`]) per socket of the machine model, and, for
/// [`ExecutorKind::Hybrid`], the split controller and its record — and
/// none of it depends on the element type, so [`submit`](Self::submit)
/// takes the [`Semiring`] per launch: the same executor schedules shortest
/// paths exactly as it does MCL.
///
/// # Example
///
/// Under [`ExecutorKind::CpuPool`] two launches submitted back-to-back
/// queue FIFO; a launch that only becomes ready after the previous one
/// finished leaves a measurable idle gap on every worker lane (the
/// Table V "GPU idle" analogue for accelerator-less nodes):
///
/// ```
/// use hipmcl_comm::{MachineModel, SpgemmKernel, TimeModel};
/// use hipmcl_gpu::multi::MultiGpu;
/// use hipmcl_sparse::PlusTimes;
/// use hipmcl_summa::executor::{Executor, ExecutorKind, LaunchSpec};
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
/// let mut gpus = MultiGpu::new(model.clone(), 0, 0);
/// let mut pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &model);
/// let pt = PlusTimes::<f64>::new();
/// let l1 = pool.submit(pt, 0.0, &a, &a, spec);
/// assert_eq!(l1.inputs_ready_at, 0.0, "handoff is free for the host");
///
/// // Ready 1 s after the first launch completed: each of the model's
/// // socket lanes sat idle in between, and `device_idle` sums the gaps.
/// let l2 = pool.submit(pt, l1.output_ready_at + 1.0, &a, &a, spec);
/// assert!(l2.output_ready_at > l1.output_ready_at);
/// assert!((pool.device_idle() - model.sockets as f64).abs() < 1e-9);
/// ```
pub struct Executor<'g> {
    kind: ExecutorKind,
    gpus: &'g mut MultiGpu,
    lanes: Vec<Timeline>,
    model: MachineModel,
    controller: Option<SplitController>,
    fractions: Vec<f64>,
}

impl<'g> Executor<'g> {
    /// An executor of `kind` over the rank's devices, with one lane per
    /// socket of `model` (the model also prices every launch and merge).
    pub fn new(kind: ExecutorKind, gpus: &'g mut MultiGpu, model: &MachineModel) -> Self {
        Self {
            kind,
            gpus,
            lanes: (0..model.sockets.max(1)).map(|_| Timeline::new()).collect(),
            model: model.clone(),
            controller: None,
            fractions: Vec::new(),
        }
    }

    /// Submits `C = A ⊗ B` in semiring `s` as described by `spec`,
    /// starting at host virtual time `host_now`. Never advances a rank
    /// clock — the scheduler decides what to wait on.
    pub fn submit<S: Semiring>(
        &mut self,
        s: S,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        spec: LaunchSpec,
    ) -> KernelLaunch<S::Elem> {
        match (self.kind, spec.kernel) {
            (ExecutorKind::Gpus, SpgemmKernel::Gpu(lib)) => {
                self.device_launch(s, host_now, a, b, spec, lib)
            }
            (ExecutorKind::Hybrid, SpgemmKernel::Gpu(lib)) if !self.gpus.is_empty() => {
                self.split_launch(s, host_now, a, b, spec, lib)
            }
            (kind, _) => {
                if kind == ExecutorKind::Hybrid {
                    // CPU-selected (small) multiplications go to the pool
                    // whole.
                    self.fractions.push(0.0);
                }
                self.cpu_launch(s, host_now, a, b, spec, wall_start(&spec))
            }
        }
    }

    /// Runs `spec` on a CPU kernel — a GPU request (forced, or fallen back
    /// from the devices) degrades to the hash kernel. Under
    /// [`ExecutorKind::Gpus`] it runs inline on the host, as original
    /// HipMCL runs CPU kernels: the host is busy (not idle) for the whole
    /// duration and cannot issue the next broadcast meanwhile. Otherwise
    /// it is a whole-node job on the worker lanes, and handing it over is
    /// free for the host — that is what makes a CPU-only configuration
    /// pipelinable.
    fn cpu_launch<S: Semiring>(
        &mut self,
        s: S,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        spec: LaunchSpec,
        w0: Option<std::time::Instant>,
    ) -> KernelLaunch<S::Elem> {
        let kernel = match spec.kernel {
            SpgemmKernel::Gpu(_) => SpgemmKernel::CpuHash,
            k => k,
        };
        let (c, cf) = cpu_algo(kernel).multiply_measured_in(s, a, b, spec.flops);
        let dur = self.model.spgemm_time(kernel, spec.flops, cf);
        let (inputs_ready_at, output_ready_at, host_compute) = match self.kind {
            ExecutorKind::Gpus => (host_now + dur, host_now + dur, dur),
            _ => (host_now, self.node_job(host_now, dur).at, 0.0),
        };
        KernelLaunch {
            c,
            kernel,
            inputs_ready_at,
            output_ready_at,
            host_compute,
            kernel_time: dur,
            flops: spec.flops,
            cf,
            measured_s: wall_elapsed(w0),
        }
    }

    /// Runs the whole multiply on the devices (§III-A).
    fn device_launch<S: Semiring>(
        &mut self,
        s: S,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        spec: LaunchSpec,
        lib: GpuLib,
    ) -> KernelLaunch<S::Elem> {
        let w0 = wall_start(&spec);
        match self.gpus.multiply_in(s, host_now, a, b, lib) {
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
            // The devices cannot take this phase (out of memory): a busy
            // or undersized engine degrades the launch to the host hash
            // kernel instead of killing the rank. The modeled clock
            // charges the CPU duration, so the slowdown shows up in
            // reports rather than vanishing.
            Err(e) => {
                eprintln!(
                    "gpu launch degraded to CpuHash: {e} (increase phases or use a CPU \
                     policy to avoid the fallback)"
                );
                self.cpu_launch(s, host_now, a, b, spec, w0)
            }
        }
    }

    /// Column-splits a GPU-sized multiply: the devices take the leading
    /// columns, the worker lanes the trailing slab, extending §III-A's
    /// multi-GPU split by one more "device". Every realized share is
    /// recorded (see [`fractions`](Self::fractions)) so the split
    /// decision is an observable part of the pipeline, not a hidden
    /// constant.
    fn split_launch<S: Semiring>(
        &mut self,
        s: S,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        spec: LaunchSpec,
        lib: GpuLib,
    ) -> KernelLaunch<S::Elem> {
        let w0 = wall_start(&spec);
        let n = b.ncols();
        let frac = self.pick_fraction(lib, &spec);
        let gcols = ((n as f64 * frac).round() as usize).min(n);
        if gcols == 0 {
            self.fractions.push(0.0);
            return self.cpu_launch(s, host_now, a, b, spec, w0);
        }
        self.fractions.push(gcols as f64 / n.max(1) as f64);

        let b_gpu = b.column_slice(0..gcols);
        let r = match self.gpus.multiply_in(s, host_now, a, &b_gpu, lib) {
            Ok(r) => r,
            // Device out of memory: hand the whole multiply to the worker
            // lanes instead of panicking, and record that the GPU took
            // none of it so the adaptive fraction stays honest.
            Err(e) => {
                eprintln!(
                    "hybrid gpu side degraded to the cpu pool: {e} (increase phases or use \
                     a CPU policy to avoid the fallback)"
                );
                *self.fractions.last_mut().expect("fraction pushed above") = 0.0;
                return self.cpu_launch(s, host_now, a, b, spec, w0);
            }
        };

        let mut output_ready_at = r.output_ready_at;
        let mut total_flops = r.flops;
        let mut total_nnz = r.c.nnz() as u64;
        let c = if gcols < n {
            let b_cpu = b.column_slice(gcols..n);
            let flops_cpu = hipmcl_spgemm::flops(a, &b_cpu);
            let (c_cpu, cf_cpu) = CpuAlgo::Hash.multiply_measured_in(s, a, &b_cpu, flops_cpu);
            let dur = self
                .model
                .spgemm_time(SpgemmKernel::CpuHash, flops_cpu, cf_cpu);
            let done = self.node_job(host_now, dur);
            output_ready_at = output_ready_at.max(done.at);
            total_flops += flops_cpu;
            total_nnz += c_cpu.nnz() as u64;
            // Online feedback: the two sides' finish latencies from this
            // submission instant are exactly the imbalance the controller
            // drives to zero.
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
            // The host blocks on the GPU input transfers (the lane handoff
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

    /// The GPU share for this launch: the controller's current fraction,
    /// seeded on the first split from the model's balance point.
    fn pick_fraction(&mut self, lib: GpuLib, spec: &LaunchSpec) -> f64 {
        let model = &self.model;
        self.controller
            .get_or_insert_with(|| {
                SplitController::new(
                    model.hybrid_gpu_fraction(lib, spec.flops, spec.cf_est),
                    SPLIT_GAIN,
                )
            })
            .fraction()
    }

    /// Queues a whole-node job (all lanes busy for `dur`, the machine
    /// model's whole-node rate already being baked into `dur`; the
    /// kernels are row-parallel across all cores); returns the completion
    /// event, which is the slowest lane's.
    fn node_job(&mut self, ready: f64, dur: f64) -> Event {
        self.lanes
            .iter_mut()
            .map(|lane| lane.submit(ready, dur))
            .max_by(|a, b| a.at.partial_cmp(&b.at).unwrap())
            .expect("executors always have at least one lane")
    }

    /// Places one merge operation, ready at virtual time `ready_at` (when
    /// its last input slab exists), on one of the lanes and returns the
    /// span. Like [`submit`](Self::submit), never advances a rank clock.
    ///
    /// The task conceptually lands in the queue of its *origin* lane — the
    /// least-busy lane at submission time. Every lane then competes for
    /// the task: lane `l` would finish it at
    /// `max(ready_at, busy_until(l)) + duration(l)` where the duration
    /// prices remote-homed inputs at the model's cross-socket penalty
    /// ([`MachineModel::merge_lane_time_with`]), and the earliest modeled
    /// completion wins. A lane other than the origin winning is a
    /// *steal*: it only happens when the thief's penalty-inclusive time
    /// beats waiting in the origin's queue. Ties break toward the lane
    /// that opens the smallest idle gap (`ready_at − busy_until`, zero for
    /// a lane with no jobs yet, whose leading gap is not accounted idle),
    /// then the lowest index — fully deterministic, like every other
    /// scheduling rule in the simulator. Stealing only moves *when and
    /// where* a merge runs on the virtual clock, never its operands.
    pub fn submit_merge(&mut self, ready_at: f64, task: &MergeTask) -> MergeLaunch {
        let lanes = &mut self.lanes;
        let n = lanes.len();
        let dur_on = |lane: usize| {
            self.model.merge_lane_time_with(
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
            .expect("executors always have at least one lane");
        let cost = |l: usize| {
            let end = lanes[l].busy_until().max(ready_at) + dur_on(l);
            let gap = if lanes[l].jobs() > 0 {
                (ready_at - lanes[l].busy_until()).max(0.0)
            } else {
                0.0
            };
            (end, gap)
        };
        let lane = (0..n)
            .min_by(|&i, &j| {
                let (ei, gi) = cost(i);
                let (ej, gj) = cost(j);
                ei.partial_cmp(&ej)
                    .unwrap()
                    .then(gi.partial_cmp(&gj).unwrap())
            })
            .expect("executors always have at least one lane");
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

    /// GPUs visible to kernel selection (0 keeps selection CPU-only, as
    /// under [`ExecutorKind::CpuPool`]).
    pub fn gpus_available(&self) -> usize {
        match self.kind {
            ExecutorKind::CpuPool => 0,
            _ => self.gpus.len(),
        }
    }

    /// Accumulated device/worker idle time — the Table V "GPU idle"
    /// column: the devices' idle under [`ExecutorKind::Gpus`], the
    /// workers' under [`ExecutorKind::CpuPool`], both summed under
    /// [`ExecutorKind::Hybrid`].
    pub fn device_idle(&self) -> f64 {
        match self.kind {
            ExecutorKind::Gpus => self.gpus.total_idle(),
            ExecutorKind::CpuPool => self.merge_lane_idle(),
            ExecutorKind::Hybrid => self.gpus.total_idle() + self.merge_lane_idle(),
        }
    }

    /// Accumulated idle on the lanes. Under [`ExecutorKind::Gpus`] the
    /// lanes carry only merges (disjoint from
    /// [`device_idle`](Self::device_idle)); otherwise they are the shared
    /// worker timelines, so this overlaps the workers' share of
    /// `device_idle`.
    pub fn merge_lane_idle(&self) -> f64 {
        self.lanes.iter().map(Timeline::idle_time).sum()
    }

    /// Number of lanes (per-socket [`Timeline`]s) merges can be placed
    /// on. The pipeline sizes its per-lane
    /// [`ArenaPool`](crate::merge::ArenaPool) from this, so every lane's
    /// merges recycle buffers out of a lane-homed
    /// [`MergeArena`](crate::merge::MergeArena).
    pub fn merge_lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Resets the device and lane timelines (between pipeline sections).
    /// Device memory is kept.
    pub fn reset_timelines(&mut self) {
        self.gpus.reset_timelines();
        for lane in &mut self.lanes {
            lane.reset();
        }
    }

    /// The realized GPU share of every submission so far, in order (0 for
    /// multiplications that went to the worker lanes whole); empty unless
    /// the kind is [`ExecutorKind::Hybrid`].
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
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

/// Damped online feedback controller behind the [`ExecutorKind::Hybrid`]
/// column split.
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

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::PlusTimes;
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
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &model());
        let l = exec.submit(
            pt(),
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
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &model());
        let l = exec.submit(pt(), 1.0, &a, &a, spec_for(&a, SpgemmKernel::CpuHash));
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
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &model());
        let l = exec.submit(
            pt(),
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
        let mut h = Executor::new(ExecutorKind::Hybrid, &mut gpus, &model());
        let l = h.submit(
            pt(),
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
        let mut gpus = MultiGpu::new(model(), 0, 0);
        let mut pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &model());
        let l1 = pool.submit(pt(), 1.0, &a, &a, spec_for(&a, SpgemmKernel::CpuHash));
        assert!(l1.c.max_abs_diff(&want(&a)) < 1e-9);
        assert_eq!(
            l1.inputs_ready_at, 1.0,
            "handoff is free — host resumes at once"
        );
        assert!(l1.output_ready_at > 1.0);
        assert_eq!(l1.host_compute, 0.0);
        // Second job ready immediately queues behind the first.
        let l2 = pool.submit(pt(), 1.0, &a, &a, spec_for(&a, SpgemmKernel::CpuHeap));
        assert!(l2.output_ready_at > l1.output_ready_at);
        assert_eq!(pool.lanes[0].jobs(), 2);
        assert_eq!(pool.device_idle(), 0.0, "back-to-back jobs leave no gap");
    }

    #[test]
    fn cpu_pool_degrades_gpu_requests_to_hash() {
        let a = random_csc(20, 20, 120, 44);
        // Devices exist, but the pool neither exposes nor uses them.
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &model());
        assert_eq!(pool.gpus_available(), 0);
        let l = pool.submit(
            pt(),
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
        // Narrow right operands push the rounded split onto both edges of
        // the hybrid `Executor::submit`: at the lower clamp a few columns round to no
        // GPU share (pool only), at the upper clamp they round to all of
        // them (devices only), and 40 columns split between the two.
        let a = random_csc(40, 40, 500, 45);
        let mut realized = Vec::new();
        for seed in [ADAPTIVE_MIN_FRACTION, 0.5, ADAPTIVE_MAX_FRACTION] {
            for n in [1usize, 2, 3, 9, 40] {
                let b = a.column_slice(0..n);
                let w = hipmcl_spgemm::hash::multiply(&a, &b);
                let spec = LaunchSpec {
                    kernel: SpgemmKernel::Gpu(GpuLib::Nsparse),
                    flops: hipmcl_spgemm::flops(&a, &b),
                    cf_est: 1.0,
                    time: TimeModel::Modeled,
                };
                let mut gpus = MultiGpu::new(model(), 3, 1 << 30);
                let mut h = Executor::new(ExecutorKind::Hybrid, &mut gpus, &model());
                h.controller = Some(SplitController::new(seed, SPLIT_GAIN));
                let l = h.submit(pt(), 0.0, &a, &b, spec);
                assert!(l.c.max_abs_diff(&w) < 1e-9, "seed={seed} n={n}");
                assert_eq!(l.c.nnz(), w.nnz(), "seed={seed} n={n}");
                assert_eq!(l.flops, spec.flops, "seed={seed} n={n}");
                assert!(l.output_ready_at >= l.inputs_ready_at, "seed={seed} n={n}");
                assert_eq!(h.fractions().len(), 1, "seed={seed} n={n}");
                let f = h.fractions()[0];
                assert!((0.0..=1.0).contains(&f), "seed={seed} n={n}: {f}");
                realized.push(f);
            }
        }
        assert!(realized.contains(&0.0), "pool-only branch reached");
        assert!(realized.contains(&1.0), "device-only branch reached");
        assert!(
            realized.iter().any(|&f| f > 0.0 && f < 1.0),
            "split branch reached"
        );
    }

    #[test]
    fn hybrid_sends_cpu_kernels_to_the_pool() {
        let a = random_csc(25, 25, 180, 46);
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut h = Executor::new(ExecutorKind::Hybrid, &mut gpus, &model());
        let l = h.submit(pt(), 2.0, &a, &a, spec_for(&a, SpgemmKernel::CpuHeap));
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
        let mut h = Executor::new(ExecutorKind::Hybrid, &mut gpus, &model());
        let l = h.submit(
            pt(),
            0.0,
            &a,
            &a,
            spec_for(&a, SpgemmKernel::Gpu(GpuLib::Rmerge2)),
        );
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
        assert_eq!(l.kernel, SpgemmKernel::CpuHash);
    }

    #[test]
    fn executor_kind_default_is_gpus() {
        assert_eq!(ExecutorKind::default(), ExecutorKind::Gpus);
        assert_ne!(ExecutorKind::Hybrid, ExecutorKind::Gpus);
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
        let mut h = Executor::new(ExecutorKind::Hybrid, &mut gpus, &model());
        h.controller = Some(SplitController::new(0.2, SPLIT_GAIN));
        let mut gaps = Vec::new();
        let mut now = 0.0;
        for _ in 0..12 {
            let l = h.submit(pt(), now, &a, &a, spec);
            now = l.output_ready_at;
            let gpu_done = h
                .gpus
                .devices
                .iter()
                .map(|d| d.quiescent_at())
                .fold(0.0, f64::max);
            let pool_done = h.lanes[0].busy_until();
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
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &model());
        assert_eq!(exec.merge_lane_count(), 2);
        let t = merge_task(MergeKernel::Heap, vec![(50_000, None), (50_000, None)]);
        let l1 = exec.submit_merge(0.0, &t);
        let l2 = exec.submit_merge(0.0, &t);
        assert_ne!(l1.lane, l2.lane, "second merge takes the free lane");
        assert_eq!(l1.started_at, 0.0);
        assert_eq!(l2.started_at, 0.0);
        assert!((l1.output_ready_at - l1.duration).abs() < 1e-12);
        // A third merge must queue behind one of them.
        let l3 = exec.submit_merge(0.0, &t);
        assert!(l3.started_at >= l1.output_ready_at.min(l2.output_ready_at) - 1e-12);
    }

    #[test]
    fn merge_lane_idle_reconciles_with_span_gaps() {
        // One rank per socket (4 ranks/node) → a single merge lane, so
        // the gap between two spans is exactly the reported lane idle.
        let m = MachineModel::summit_ranks_per_node(4);
        assert_eq!(m.sockets, 1);
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let t = merge_task(MergeKernel::SpAdd, vec![(10_000, None); 4]);
        let l1 = exec.submit_merge(0.0, &t);
        let l2 = exec.submit_merge(l1.output_ready_at + 0.25, &t);
        assert!((l2.started_at - (l1.output_ready_at + 0.25)).abs() < 1e-12);
        assert!((exec.merge_lane_idle() - 0.25).abs() < 1e-12);
        assert_eq!(exec.device_idle(), 0.0, "device streams saw no merges");
        exec.reset_timelines();
        assert_eq!(exec.merge_lane_idle(), 0.0);
    }

    #[test]
    fn remote_socket_inputs_pay_the_crossing_penalty() {
        let m = model();
        let local = merge_task(
            MergeKernel::Heap,
            vec![(40_000, Some(0)), (40_000, Some(0))],
        );
        let remote = merge_task(
            MergeKernel::Heap,
            vec![(40_000, Some(1)), (40_000, Some(1))],
        );
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let ll = exec.submit_merge(0.0, &local);
        assert_eq!(ll.lane, 0, "inputs homed on lane 0 stay there");
        assert!(!ll.stolen);
        // Backlog the remote task's home lane so deeply that waiting for
        // it loses: the task must run on lane 0 and pay the penalty.
        let mut gpus2 = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec2 = Executor::new(ExecutorKind::Gpus, &mut gpus2, &m);
        let big = merge_task(MergeKernel::Heap, vec![(50_000_000, Some(1)); 2]);
        assert_eq!(exec2.submit_merge(0.0, &big).lane, 1);
        let lr = exec2.submit_merge(0.0, &remote);
        assert_eq!(lr.lane, 0);
        let ratio = lr.duration / ll.duration;
        assert!(
            (ratio - (1.0 + m.xsocket_penalty)).abs() < 1e-9,
            "all-remote inputs scale the merge by 1 + penalty, got {ratio}"
        );
    }

    #[test]
    fn cost_aware_steal_avoids_the_crossing_penalty_on_free_lanes() {
        // The all-remote task from above on fresh lanes: lane 1 (the
        // inputs' home) finishes it sooner than the origin pick (lane 0,
        // which would pay the penalty), so lane 1 steals it and the span
        // records the steal.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let remote = merge_task(
            MergeKernel::Heap,
            vec![(40_000, Some(1)), (40_000, Some(1))],
        );
        let l = exec.submit_merge(0.0, &remote);
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
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        // Backlog lane 1 with a huge merge homed there.
        let big = merge_task(MergeKernel::Heap, vec![(50_000_000, Some(1)); 2]);
        let lb = exec.submit_merge(0.0, &big);
        assert_eq!(lb.lane, 1);
        let small = merge_task(MergeKernel::Heap, vec![(40_000, Some(1)); 2]);
        let ls = exec.submit_merge(0.0, &small);
        assert_eq!(ls.lane, 0, "waiting behind the backlog would lose");
        assert_eq!(ls.origin, 0);
        assert!(!ls.stolen);
        let penalized = m.merge_lane_time_with(MergeKernel::Heap, 80_000, 2, 80_000, 2);
        assert!((ls.duration - penalized).abs() < 1e-12);
    }

    #[test]
    fn cost_aware_tie_breaks_toward_the_smallest_idle_gap() {
        // Both lanes hold jobs; the task becomes ready exactly when the
        // longer lane frees up. The origin (least-busy) lane is the
        // shorter backlog, where the task would open an idle gap; both
        // lanes finish it at the same time, so the scheduler prefers the
        // lane that opens no gap.
        let m = model();
        let t_short = merge_task(MergeKernel::Heap, vec![(10_000, None); 2]);
        let t_long = merge_task(MergeKernel::Heap, vec![(80_000, None); 2]);
        let probe = merge_task(MergeKernel::Heap, vec![(20_000, None); 2]);
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        // The gapless lane is the higher index, so the lowest-index
        // fallback alone would pick the gap-opening lane 0.
        let a = exec.submit_merge(0.0, &t_short); // lane 0
        let b = exec.submit_merge(0.0, &t_long); // lane 1
        assert_eq!((a.lane, b.lane), (0, 1));
        let l = exec.submit_merge(b.output_ready_at, &probe);
        assert_eq!(l.origin, 0, "the origin queue is the shorter backlog");
        assert_eq!(l.lane, 1, "equal finish → prefer the gapless lane");
        assert!(l.stolen);
        assert_eq!(exec.merge_lane_idle(), 0.0);
        // On its origin lane the probe would start when it became ready
        // and run its unpenalized duration: the steal finishes no later.
        let on_origin =
            b.output_ready_at + m.merge_lane_time_with(MergeKernel::Heap, 40_000, 2, 0, 2);
        assert!(
            (l.output_ready_at - on_origin).abs() < 1e-12,
            "the steal was free: {} vs {on_origin}",
            l.output_ready_at
        );
    }

    #[test]
    fn starved_lane_reconciliation_counts_no_phantom_idle() {
        // Every merge is homed on (and won by) lane 0: lane 1 receives
        // zero tasks, and its empty Timeline must contribute exactly zero
        // to merge_lane_idle — neither under- nor double-counted.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let t = merge_task(MergeKernel::Heap, vec![(30_000, Some(0)); 2]);
        let mut ready = 0.0;
        let mut spans = Vec::new();
        for _ in 0..4 {
            let l = exec.submit_merge(ready, &t);
            assert_eq!(l.lane, 0, "home lane always wins: lane 1 starves");
            spans.push(l);
            ready = l.output_ready_at + 0.125; // open a real gap each time
        }
        assert_eq!(exec.lanes[1].jobs(), 0, "lane 1 saw nothing");
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
    fn cpu_pool_sizes_from_model_topology() {
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 0, 0);
        let pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &m);
        assert_eq!(pool.lanes.len(), m.sockets, "one lane per socket");
        assert_eq!(pool.merge_lane_count(), m.sockets);
    }

    #[test]
    fn pool_merges_contend_with_spgemm_for_the_lanes() {
        let m = model();
        let a = random_csc(30, 30, 260, 50);
        let mut gpus = MultiGpu::new(m.clone(), 0, 0);
        let mut pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &m);
        let k = pool.submit(pt(), 0.0, &a, &a, spec_for(&a, SpgemmKernel::CpuHash));
        // The whole-node kernel holds every lane; a merge ready at 0 can
        // only start once a lane frees up.
        let t = merge_task(MergeKernel::BrMerge, vec![(1000, None), (1000, None)]);
        let l = pool.submit_merge(0.0, &t);
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
        let mut gpus = MultiGpu::new(model(), 0, 0);
        let mut pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &model());
        pool.submit(pt(), 0.0, &a, &a, spec_for(&a, SpgemmKernel::CpuHash));
        pool.submit(pt(), 1e9, &a, &a, spec_for(&a, SpgemmKernel::CpuHash));
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
