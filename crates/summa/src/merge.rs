//! Merging the intermediate products of Sparse SUMMA.
//!
//! Each SUMMA stage `k` produces an intermediate `A_ik · B_kj` for the
//! local output block; the block's final value is their elementwise sum.
//! Two *schedules* decide when merge operations happen:
//!
//! * **Multiway merge** (original HipMCL): hold all `k = √P` lists until
//!   the stages finish, then one `k`-way merge — every intermediate stays
//!   resident and nothing can overlap.
//! * **Binary merge** (§IV, Algorithm 2): push lists as they arrive and
//!   merge on even-numbered stages with a stack whose shape mirrors merge
//!   sort ([`algorithm2_merge_count`]). Work is a `lg lg k` factor worse,
//!   but merges happen *while the next stage computes*, and because early
//!   merges compress duplicates, the largest single merge holds fewer
//!   elements than the multiway merge's all-at-once set (the 15–25 %
//!   peak-memory win of Table III).
//!
//! Orthogonally, each individual merge *operation* runs one of three
//! kernels, selected per merge by [`MergeKernelPolicy::resolve`] (under
//! `Auto`, [`select_merge_kernel`] evaluates
//! [`MachineModel::merge_time_with`] for the merge's fan-in and element
//! count — the merge-side analogue of the `cf`-based SpGEMM kernel
//! selector) and run by the one dispatch [`merge_into`]:
//!
//! * [`MergeKernel::Heap`] — the cursor heap of original HipMCL,
//!   materializing a fresh [`Csc`] per merge op;
//! * [`MergeKernel::BrMerge`] — BRMerge-style single-pass k-cursor
//!   merge (arXiv:2206.06611) appending into a reusable [`SlabBuf`]
//!   checked out of a [`MergeArena`]: per-column upper bounds are
//!   prefix-summed to carve disjoint per-thread regions, columns merge
//!   in parallel (two cursors at fan-in 2, a register-resident min-scan
//!   over k cursor heads above) writing compactly at each region's
//!   cursor, and the result stays staged until materialization — no
//!   per-op allocation or compaction pass;
//! * [`MergeKernel::SpAdd`] — Hussain-style parallel SpAdd
//!   (arXiv:2112.10223): contiguous per-thread column partitions, each
//!   thread accumulating through an epoch-stamped dense sparse
//!   accumulator (`SpaScratch`) sized from the column-nnz upper bracket,
//!   also writing into arena slack.
//!
//! All three produce **bit-identical** output: they accumulate coincident
//! entries strictly in list order with the semiring's `⊕` and drop
//! entries whose final value is the semiring's annihilator (exactly `0.0`
//! for plus-times, `+∞` for min-plus, `false` for boolean), so kernel
//! choice can never change a result — in any semiring (property-tested
//! below for plus-times, min-plus and boolean):
//!
//! ```
//! use hipmcl_comm::MergeKernel;
//! use hipmcl_sparse::{Csc, PlusTimes};
//! use hipmcl_summa::merge::merge_with;
//!
//! let s = PlusTimes::<f64>::new();
//! let a = Csc::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]);
//! let b = Csc::from_parts(2, 2, vec![0, 2, 2], vec![0, 1], vec![3.0, 4.0]);
//! let want = merge_with(s, MergeKernel::Heap, &[a.clone(), b.clone()], (2, 2));
//! for kernel in MergeKernel::all() {
//!     assert_eq!(merge_with(s, kernel, &[a.clone(), b.clone()], (2, 2)), want);
//! }
//! ```
//!
//! The arena lifecycle: [`MergeArena`] owns a free list of [`SlabBuf`]s
//! plus the shared prefix/count/SPA scratch; every merge within a phase
//! checks buffers out ([`MergeArena::acquire`]) and returns consumed
//! inputs ([`MergeArena::release`]), so steady state allocates nothing.
//! The pipeline holds one arena per merge lane in an [`ArenaPool`]
//! (created once per SUMMA run, sized by `Executor::merge_lane_count`)
//! and only materializes a real [`Csc`] once per phase at drain time.
//!
//! Virtual-time accounting does **not** live here: a merge is an
//! [`Executor`](crate::executor::Executor) task, submitted by the pipeline
//! through `Executor::submit_merge` and timed on the executor's worker
//! timelines like any kernel launch. This module only provides the real
//! merging work, the Algorithm 2 schedule, and the [`MergeSpan`] record
//! type the pipeline surfaces per merge.

use hipmcl_comm::{MachineModel, MergeKernel};
use hipmcl_sparse::csc::counts_to_colptr;
use hipmcl_sparse::{Csc, Idx, PlusTimes, Semiring, Value};
use rayon::prelude::*;

/// Which merging schedule a SUMMA run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Defer everything, one k-way merge at the end (original HipMCL).
    Multiway,
    /// Algorithm 2: incremental stack merges on even stages.
    Binary,
}

/// How the kernel of each individual merge operation is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MergeKernelPolicy {
    /// Per merge, pick the kernel the machine model rates cheapest for
    /// the merge's fan-in and element count ([`select_merge_kernel`]).
    #[default]
    Auto,
    /// Force one kernel for every merge (ablations and baselines).
    Fixed(MergeKernel),
}

impl MergeKernelPolicy {
    /// The kernel this policy runs for a `ways`-way merge of `total`
    /// elements: the fixed kernel, or [`select_merge_kernel`]'s pick.
    pub fn resolve(self, model: &MachineModel, total: u64, ways: usize) -> MergeKernel {
        match self {
            MergeKernelPolicy::Fixed(k) => k,
            MergeKernelPolicy::Auto => select_merge_kernel(model, total, ways),
        }
    }
}

/// Picks the cheapest merge kernel for a `ways`-way merge of
/// `total_elems` elements by evaluating the machine model's cost curves
/// ([`MachineModel::merge_time_with`]) — the documented selection rule:
///
/// * fan-in 2–5 → [`MergeKernel::BrMerge`] (the arena-backed
///   single-pass k-cursor merge's `0.3 · (k − 1)` beats every
///   alternative until the linear min-scan over the cursor heads
///   catches up);
/// * fan-in ≥ 6 with enough elements → [`MergeKernel::SpAdd`]
///   (fan-in-independent accumulation once `lg k` exceeds the SPA's
///   per-element constant, mirroring the SpGEMM heap/hash crossover);
/// * fan-in ≥ 6 with too few elements to amortize the SPA setup →
///   [`MergeKernel::BrMerge`] while its min-scan stays under the heap's
///   `lg k` (through fan-in ~13), [`MergeKernel::Heap`] beyond
///   (cache-resident cursors, no setup).
///
/// Each of the three kernels wins somewhere on this rule. Ties resolve
/// toward the heap (the listed order).
pub fn select_merge_kernel(model: &MachineModel, total_elems: u64, ways: usize) -> MergeKernel {
    MergeKernel::all()
        .into_iter()
        .min_by(|a, b| {
            model
                .merge_time_with(*a, total_elems, ways)
                .partial_cmp(&model.merge_time_with(*b, total_elems, ways))
                .expect("merge times are finite")
        })
        .expect("at least one kernel")
}

/// One merge operation as it ran on an executor worker timeline — the
/// per-merge observability record surfaced in `SummaOutput::merge_spans`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeSpan {
    /// Virtual time the merge started executing on its lane.
    pub start: f64,
    /// Virtual time the merged slab became available.
    pub end: f64,
    /// The kernel that ran it.
    pub kernel: MergeKernel,
    /// Fan-in (number of lists merged).
    pub ways: usize,
    /// Total input elements passing through the merge.
    pub elems: u64,
    /// Index of the worker lane (socket) it occupied.
    pub lane: usize,
    /// The lane submission-time pinning would have chosen (the task's
    /// origin queue; equals `lane` unless the merge was stolen).
    pub origin: usize,
    /// Whether the occupying lane stole the task from its origin queue
    /// (only under `StealPolicy::CostAware`).
    pub stolen: bool,
    /// Wall seconds the real merge compute took on the host, sampled
    /// only under `TimeModel::Measured` (`0.0` under `Modeled`, which
    /// never reads the host clock). Independent of the modeled
    /// [`duration`](Self::duration) on the lane.
    pub measured_s: f64,
}

impl MergeSpan {
    /// Seconds the merge occupied its lane.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

// ---------------------------------------------------------------------------
// Column views and arena buffers
// ---------------------------------------------------------------------------

/// A borrowed CSC-shaped column view — the common input face of every
/// merge kernel, constructible from both an owned [`Csc`] and an
/// arena-resident [`SlabBuf`], so one kernel implementation serves the
/// materialized and the arena paths alike.
#[derive(Clone, Copy)]
pub struct ColsRef<'a, T: Value> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Compact layout: column `j` spans `colptr[j]..colptr[j + 1]`.
    /// Empty for staged views.
    colptr: &'a [usize],
    /// Ragged (staged) layout: column `j` spans
    /// `start[j]..start[j] + cnt[j]`, with slack between runs. Empty for
    /// compact views; exactly one of the two layouts is populated.
    start: &'a [usize],
    cnt: &'a [usize],
    rowidx: &'a [Idx],
    vals: &'a [T],
}

impl<'a, T: Value> ColsRef<'a, T> {
    /// Views an owned CSC matrix.
    pub fn of(m: &'a Csc<T>) -> Self {
        Self {
            nrows: m.nrows(),
            ncols: m.ncols(),
            nnz: m.nnz(),
            colptr: &m.colptr,
            start: &[],
            cnt: &[],
            rowidx: &m.rowidx,
            vals: &m.vals,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Where column `j`'s entries live in `rowidx`/`vals`.
    #[inline]
    fn col_span(&self, j: usize) -> (usize, usize) {
        if self.cnt.is_empty() {
            (self.colptr[j], self.colptr[j + 1])
        } else {
            (self.start[j], self.start[j] + self.cnt[j])
        }
    }

    /// Stored entries in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        let (lo, hi) = self.col_span(j);
        hi - lo
    }

    /// Row indices of column `j`.
    pub fn col_rows(&self, j: usize) -> &'a [Idx] {
        let (lo, hi) = self.col_span(j);
        &self.rowidx[lo..hi]
    }

    /// Values of column `j`.
    pub fn col_vals(&self, j: usize) -> &'a [T] {
        let (lo, hi) = self.col_span(j);
        &self.vals[lo..hi]
    }

    /// Materializes the view as an owned (compact) CSC matrix.
    pub fn to_csc(&self) -> Csc<T> {
        if self.cnt.is_empty() {
            return Csc::from_parts(
                self.nrows,
                self.ncols,
                self.colptr.to_vec(),
                self.rowidx.to_vec(),
                self.vals.to_vec(),
            );
        }
        let mut colptr = Vec::with_capacity(self.ncols + 1);
        colptr.push(0);
        let mut rowidx = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        for j in 0..self.ncols {
            rowidx.extend_from_slice(self.col_rows(j));
            vals.extend_from_slice(self.col_vals(j));
            colptr.push(rowidx.len());
        }
        Csc::from_parts(self.nrows, self.ncols, colptr, rowidx, vals)
    }
}

/// A **staged** CSC-shaped buffer owned by a [`MergeArena`]: the output
/// of an arena-backed merge. Each column is sorted, deduplicated and
/// annihilator-free like a [`Csc`] column, but lives at an explicit
/// offset (`start[j]`, run length `cnt[j]`) rather than at a prefix-sum
/// position: merge kernels write each parallel chunk's columns
/// compactly from the chunk's base, leaving gaps only *between* chunks
/// (none at all single-threaded). A merge never pays a compaction pass
/// just so the next merge can read it — downstream kernels consume the
/// staged layout directly through [`SlabBuf::as_cols`], and the single
/// compaction happens at materialization ([`SlabBuf::into_csc`]). The
/// vectors keep their length and capacity between merges (grow-only raw
/// storage; stale tails are unreachable because `start`/`cnt` are
/// re-recorded per merge): the whole point of the arena path is that
/// these are reused, not reallocated or re-zeroed, across every merge
/// op of a phase.
#[derive(Debug, Default)]
pub struct SlabBuf<T: Value> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    start: Vec<usize>,
    cnt: Vec<usize>,
    rowidx: Vec<Idx>,
    vals: Vec<T>,
}

impl<T: Value> SlabBuf<T> {
    /// Stored entries (excluding staging slack).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Views the buffer's columns (the merge-kernel input face).
    pub fn as_cols(&self) -> ColsRef<'_, T> {
        ColsRef {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz,
            colptr: &[],
            start: &self.start,
            cnt: &self.cnt,
            rowidx: &self.rowidx,
            vals: &self.vals,
        }
    }

    /// Records the staged layout after a merge: column `j`'s run of
    /// `counts[j]` entries sits at offset `ub[j]`. Copies the slices —
    /// they are arena scratch the next merge is free to clobber.
    fn set_staged(&mut self, ub: &[usize], counts: &[usize]) {
        self.start.clear();
        self.start.extend_from_slice(ub);
        self.cnt.clear();
        self.cnt.extend_from_slice(counts);
        self.nnz = counts.iter().sum();
    }

    /// Copies the contents out as an owned, exactly-sized CSC matrix,
    /// leaving the buffer (and its capacity) intact for reuse. This is
    /// the once-per-phase materialization the pipeline performs at drain
    /// time before releasing the buffer back to its arena.
    pub fn to_csc(&self) -> Csc<T> {
        self.as_cols().to_csc()
    }

    /// Consumes the buffer into a CSC matrix, compacting the staged runs
    /// in place (safe left-to-right: the write cursor never passes a
    /// run's staged start, since `Σ cnt[<j] ≤ start[j]`). The vectors
    /// keep their slack capacity. Used where no arena outlives the
    /// merge.
    pub fn into_csc(mut self) -> Csc<T> {
        let mut colptr = Vec::with_capacity(self.ncols + 1);
        colptr.push(0);
        let mut w = 0usize;
        for j in 0..self.ncols {
            let (s, c) = (self.start[j], self.cnt[j]);
            if s != w && c > 0 {
                self.rowidx.copy_within(s..s + c, w);
                self.vals.copy_within(s..s + c, w);
            }
            w += c;
            colptr.push(w);
        }
        self.rowidx.truncate(w);
        self.vals.truncate(w);
        Csc::from_parts(self.nrows, self.ncols, colptr, self.rowidx, self.vals)
    }
}

/// Per-thread scratch of the parallel SpAdd kernel: an epoch-stamped
/// dense sparse accumulator (SPA). `stamp[r] == epoch` marks row `r` as
/// live in the current column with its entry at `pairs[slot[r]]`;
/// bumping `epoch` clears the whole SPA in O(1). All three vectors are
/// reused across columns, merges and phases.
#[derive(Debug, Default)]
struct SpaScratch<T: Value> {
    stamp: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
    pairs: Vec<(Idx, T)>,
}

impl<T: Value> SpaScratch<T> {
    /// Grows the dense arrays to cover `nrows` rows (never shrinks).
    fn ensure_rows(&mut self, nrows: usize) {
        if self.stamp.len() < nrows {
            self.stamp.resize(nrows, 0);
            self.slot.resize(nrows, 0);
        }
    }

    /// Opens a new column: O(1) clear via epoch bump, with a full reset
    /// at the (astronomically rare) wraparound.
    fn begin_column(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.pairs.clear();
    }
}

/// Reusable merge scratch for one merge lane: a free list of
/// [`SlabBuf`]s plus the shared per-merge scratch (column upper-bound
/// prefix, per-column counts, per-thread SPAs). Acquire/release is LIFO;
/// nothing ever shrinks, so after the first merge of a phase the hot
/// loop performs no allocation — and nothing ever grows past twice the
/// largest single merge either ([`MergeArena::assert_no_capacity_leak`],
/// debug-asserted on every release).
///
/// ```
/// use hipmcl_summa::merge::MergeArena;
///
/// let mut arena: MergeArena<f64> = MergeArena::new();
/// let a = arena.acquire((4, 4));
/// arena.release(a);
/// // The released buffer is recycled, not reallocated.
/// assert_eq!(arena.free_bufs(), 1);
/// let _b = arena.acquire((4, 4));
/// assert_eq!(arena.free_bufs(), 0);
/// ```
#[derive(Debug, Default)]
pub struct MergeArena<T: Value> {
    free: Vec<SlabBuf<T>>,
    ub: Vec<usize>,
    starts: Vec<usize>,
    counts: Vec<usize>,
    spa: Vec<SpaScratch<T>>,
    peak_request: usize,
}

impl<T: Value> MergeArena<T> {
    /// An empty arena; everything is grown lazily by the first merges.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a buffer out of the free list (or creates an empty one),
    /// shaped for a `shape` output. The buffer's vectors keep whatever
    /// capacity previous merges grew them to — `rowidx`/`vals` also keep
    /// their *length*: they are raw storage the kernels grow-only-resize
    /// and overwrite per run, so steady state never pays a zero-fill
    /// (stale content is unreachable — reads go through `start`/`cnt`,
    /// which are reset here).
    pub fn acquire(&mut self, shape: (usize, usize)) -> SlabBuf<T> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.nrows = shape.0;
        buf.ncols = shape.1;
        buf.nnz = 0;
        buf.start.clear();
        buf.cnt.clear();
        buf
    }

    /// Returns a consumed buffer to the free list for reuse. In debug
    /// builds this asserts the no-capacity-leak invariant: amortized
    /// `Vec` growth bounds every buffer by twice the largest single
    /// merge request this arena ever served.
    pub fn release(&mut self, buf: SlabBuf<T>) {
        debug_assert!(
            buf.rowidx.capacity() <= self.capacity_bound(),
            "arena buffer capacity {} leaked past the 2×peak bound {}",
            buf.rowidx.capacity(),
            self.capacity_bound(),
        );
        self.free.push(buf);
    }

    /// Largest upper-bound element count any single merge requested from
    /// this arena — the capacity high-water mark the no-leak invariant
    /// is phrased against.
    pub fn peak_request(&self) -> usize {
        self.peak_request
    }

    /// Number of buffers currently parked in the free list.
    pub fn free_bufs(&self) -> usize {
        self.free.len()
    }

    /// Largest element capacity held by any parked buffer.
    pub fn capacity_elems(&self) -> usize {
        self.free
            .iter()
            .map(|b| b.rowidx.capacity())
            .max()
            .unwrap_or(0)
    }

    /// The bound the no-leak invariant allows: amortized doubling means
    /// a `Vec` grown only by requests `≤ peak` stays `< 2 · peak` (with
    /// a small floor for tiny arenas).
    fn capacity_bound(&self) -> usize {
        2 * self.peak_request.max(32)
    }

    /// Asserts (in all build profiles) that no parked buffer or scratch
    /// vector outgrew the 2×-peak bound — reuse across phases must not
    /// ratchet capacity. The pipeline debug-asserts this after every
    /// phase drain; tests call it directly.
    pub fn assert_no_capacity_leak(&self) {
        let bound = self.capacity_bound();
        for b in &self.free {
            assert!(
                b.rowidx.capacity() <= bound && b.vals.capacity() <= bound,
                "parked buffer capacity {} exceeds 2×peak bound {}",
                b.rowidx.capacity().max(b.vals.capacity()),
                bound
            );
        }
        for s in &self.spa {
            assert!(
                s.pairs.capacity() <= bound,
                "SPA pair capacity {} exceeds 2×peak bound {}",
                s.pairs.capacity(),
                bound
            );
        }
    }
}

/// One [`MergeArena`] per merge lane (socket): the pipeline creates a
/// pool sized by `Executor::merge_lane_count` once per SUMMA run, and
/// every merge op borrows the arena of the lane the scheduler placed it
/// on — stolen merges included, since the output buffer lives wherever
/// the merge actually ran.
#[derive(Debug, Default)]
pub struct ArenaPool<T: Value> {
    lanes: Vec<MergeArena<T>>,
}

impl<T: Value> ArenaPool<T> {
    /// A pool with one arena per merge lane.
    pub fn with_lanes(n: usize) -> Self {
        let mut lanes = Vec::with_capacity(n);
        lanes.resize_with(n.max(1), MergeArena::new);
        Self { lanes }
    }

    /// Number of lane arenas.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The arena of lane `lane`, growing the pool if an executor reports
    /// more lanes than the pool was sized for.
    pub fn lane_mut(&mut self, lane: usize) -> &mut MergeArena<T> {
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, MergeArena::new);
        }
        &mut self.lanes[lane]
    }

    /// Largest single-merge request over all lanes.
    pub fn peak_request(&self) -> usize {
        self.lanes
            .iter()
            .map(MergeArena::peak_request)
            .max()
            .unwrap_or(0)
    }

    /// [`MergeArena::assert_no_capacity_leak`] over every lane.
    pub fn assert_no_capacity_leak(&self) {
        for lane in &self.lanes {
            lane.assert_no_capacity_leak();
        }
    }
}

/// A slab on a merge stack: either a stage product still in its
/// materialized [`Csc`] form (as produced by the SpGEMM kernels) or an
/// arena-resident [`SlabBuf`] written by a previous arena-backed merge.
/// Both expose the same [`ColsRef`] face to the kernels.
#[derive(Debug)]
pub enum MergeSlab<T: Value> {
    /// An owned, exactly-sized CSC matrix.
    Mat(Csc<T>),
    /// An arena buffer with slack capacity, to be released after use.
    Buf(SlabBuf<T>),
}

impl<T: Value> MergeSlab<T> {
    /// Stored entries.
    pub fn nnz(&self) -> usize {
        match self {
            MergeSlab::Mat(m) => m.nnz(),
            MergeSlab::Buf(b) => b.nnz(),
        }
    }

    /// The kernels' input view.
    pub fn as_cols(&self) -> ColsRef<'_, T> {
        match self {
            MergeSlab::Mat(m) => ColsRef::of(m),
            MergeSlab::Buf(b) => b.as_cols(),
        }
    }

    /// Materializes into an owned CSC, releasing an arena buffer back to
    /// `arena` (the once-per-phase drain step).
    pub fn into_csc(self, arena: &mut MergeArena<T>) -> Csc<T> {
        match self {
            MergeSlab::Mat(m) => m,
            MergeSlab::Buf(b) => {
                let out = b.to_csc();
                arena.release(b);
                out
            }
        }
    }

    /// Releases an arena-resident slab back to `arena`; materialized
    /// slabs just drop.
    pub fn recycle(self, arena: &mut MergeArena<T>) {
        if let MergeSlab::Buf(b) = self {
            arena.release(b);
        }
    }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// The `f64`/plus-times face of one merge kernel, through which the
/// benches time each kernel; the pipeline and [`StackMerger`] go through
/// [`merge_into`] so any [`Semiring`] can drive the same three kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeAlgo(pub MergeKernel);

impl MergeAlgo {
    /// Merges `mats` (all of shape `shape`) with the wrapped kernel; an
    /// empty slice yields an empty matrix of that shape.
    pub fn merge(self, mats: &[Csc<f64>], shape: (usize, usize)) -> Csc<f64> {
        merge_with(PlusTimes::<f64>::new(), self.0, mats, shape)
    }
}

/// The implementation behind a [`MergeKernel`] tag.
pub fn merge_algo(kernel: MergeKernel) -> MergeAlgo {
    MergeAlgo(kernel)
}

/// Runs the selected merge kernel in the given semiring against a
/// throwaway arena and returns an owned [`Csc`]. All three kernels
/// accumulate coincident entries strictly in list order with
/// [`Semiring::add`] and drop entries whose final value is the
/// annihilator ([`Semiring::is_annihilator`]), so for any semiring the
/// kernel choice never changes the result. The pipeline and
/// [`StackMerger`] instead call [`merge_into`] with a persistent arena.
pub fn merge_with<S: Semiring>(
    s: S,
    kernel: MergeKernel,
    mats: &[Csc<S::Elem>],
    shape: (usize, usize),
) -> Csc<S::Elem> {
    let refs: Vec<ColsRef<'_, S::Elem>> = mats.iter().map(ColsRef::of).collect();
    match merge_into(s, kernel, &refs, shape, &mut MergeArena::new()) {
        MergeSlab::Mat(m) => m,
        // No arena outlives the merge: compact the staged buffer in place.
        MergeSlab::Buf(b) => b.into_csc(),
    }
}

/// The one merge dispatch: sums `mats` (all of shape `shape`) with
/// `kernel`. The arena kernels write into a buffer checked out of
/// `arena` ([`MergeSlab::Buf`], to be released or materialized by the
/// caller); the heap kernel and the 0- and 1-input fast paths
/// materialize a fresh [`MergeSlab::Mat`].
pub fn merge_into<S: Semiring>(
    s: S,
    kernel: MergeKernel,
    mats: &[ColsRef<'_, S::Elem>],
    shape: (usize, usize),
    arena: &mut MergeArena<S::Elem>,
) -> MergeSlab<S::Elem> {
    for mat in mats {
        assert_eq!((mat.nrows(), mat.ncols()), shape, "merge shape mismatch");
    }
    match (mats.len(), kernel) {
        // A zero-flops phase produces nothing to merge; the configured
        // output shape keeps the pipeline alive instead of panicking.
        (0, _) => MergeSlab::Mat(Csc::zero(shape.0, shape.1)),
        (1, _) => MergeSlab::Mat(mats[0].to_csc()),
        (_, MergeKernel::Heap) => MergeSlab::Mat(assemble(
            shape,
            (0..shape.1)
                .into_par_iter()
                .map(|j| merge_column(s, mats, j))
                .collect(),
        )),
        (_, MergeKernel::BrMerge) => MergeSlab::Buf(brmerge_into(s, mats, shape, arena)),
        (_, MergeKernel::SpAdd) => MergeSlab::Buf(spadd_into(s, mats, shape, arena)),
    }
}

/// Assembles per-column `(rows, vals)` outputs into a CSC matrix.
fn assemble<T: Value>(shape: (usize, usize), cols: Vec<(Vec<Idx>, Vec<T>)>) -> Csc<T> {
    let (m, n) = shape;
    let counts: Vec<usize> = cols.iter().map(|(r, _)| r.len()).collect();
    let colptr = counts_to_colptr(&counts);
    let nnz = colptr[n];
    let mut rowidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for (r, v) in cols {
        rowidx.extend_from_slice(&r);
        vals.extend_from_slice(&v);
    }
    Csc::from_parts(m, n, colptr, rowidx, vals)
}

/// K-way merges equally-shaped CSC matrices with the heap kernel (kept as
/// a named entry point: the exact symbolic estimator and the benches call
/// it directly). An empty slice returns an empty matrix of `shape`.
pub fn kway_merge(mats: &[Csc<f64>], shape: (usize, usize)) -> Csc<f64> {
    merge_with(PlusTimes::<f64>::new(), MergeKernel::Heap, mats, shape)
}

/// Heap-merges column `j` across all matrices.
fn merge_column<S: Semiring>(
    _s: S,
    mats: &[ColsRef<'_, S::Elem>],
    j: usize,
) -> (Vec<Idx>, Vec<S::Elem>) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut heap: BinaryHeap<Reverse<(Idx, usize)>> = BinaryHeap::with_capacity(mats.len());
    let mut pos: Vec<usize> = vec![0; mats.len()];
    for (l, mat) in mats.iter().enumerate() {
        if let Some(&r) = mat.col_rows(j).first() {
            heap.push(Reverse((r, l)));
        }
    }
    let mut rows = Vec::new();
    let mut vals: Vec<S::Elem> = Vec::new();
    while let Some(Reverse((r, l))) = heap.pop() {
        let v = mats[l].col_vals(j)[pos[l]];
        if rows.last() == Some(&r) {
            let acc = vals.last_mut().unwrap();
            *acc = S::add(*acc, v);
        } else {
            // Drop a just-finished entry if it accumulated to the
            // annihilator (plus-times: cancelled to zero).
            if let Some(&last_v) = vals.last() {
                if S::is_annihilator(last_v) {
                    rows.pop();
                    vals.pop();
                }
            }
            rows.push(r);
            vals.push(v);
        }
        pos[l] += 1;
        let rcol = mats[l].col_rows(j);
        if pos[l] < rcol.len() {
            heap.push(Reverse((rcol[pos[l]], l)));
        }
    }
    if let Some(&last_v) = vals.last() {
        if S::is_annihilator(last_v) {
            rows.pop();
            vals.pop();
        }
    }
    (rows, vals)
}

// ---------------------------------------------------------------------------
// Arena-backed kernels (BRMerge + parallel SpAdd)
// ---------------------------------------------------------------------------

/// One thread's contiguous slice of the upper-bound staging area: columns
/// `cols`, whose elements occupy `rows`/`vals` (offset by `base` in the
/// global upper-bound layout). Within its slice a chunk writes columns
/// **compactly** from offset 0 — the upper bound only sizes the slice —
/// recording each column's produced start offset (global) in `starts`
/// and its size in `counts`. Compact-within-chunk staging means the
/// write traffic of a merge is its actual output, not the upper bound,
/// and a single-chunk merge comes out fully compact.
struct ColChunk<'s, T> {
    cols: std::ops::Range<usize>,
    base: usize,
    rows: &'s mut [Idx],
    vals: &'s mut [T],
    starts: &'s mut [usize],
    counts: &'s mut [usize],
}

/// Carves the staging buffers into per-thread chunks along column
/// boundaries of the upper-bound prefix `ub`.
fn carve_chunks<'s, T>(
    ncols: usize,
    nchunks: usize,
    ub: &[usize],
    mut rows: &'s mut [Idx],
    mut vals: &'s mut [T],
    mut starts: &'s mut [usize],
    mut counts: &'s mut [usize],
) -> Vec<ColChunk<'s, T>> {
    let mut out = Vec::with_capacity(nchunks);
    let mut c0 = 0;
    for w in 0..nchunks {
        let c1 = ((w + 1) * ncols) / nchunks;
        let elems = ub[c1] - ub[c0];
        let (r, rr) = rows.split_at_mut(elems);
        let (v, vr) = vals.split_at_mut(elems);
        let (s, sr) = starts.split_at_mut(c1 - c0);
        let (c, cr) = counts.split_at_mut(c1 - c0);
        out.push(ColChunk {
            cols: c0..c1,
            base: ub[c0],
            rows: r,
            vals: v,
            starts: s,
            counts: c,
        });
        rows = rr;
        vals = vr;
        starts = sr;
        counts = cr;
        c0 = c1;
    }
    out
}

/// Number of column partitions for the parallel arena kernels: one per
/// rayon worker, never more than there are columns.
fn partition_count(ncols: usize) -> usize {
    rayon::current_num_threads().max(1).min(ncols.max(1))
}

/// Appends `(r, v)` at write cursor `w` unless `v` is the annihilator —
/// the shared drop rule, applied to staged arena writes.
#[inline]
fn put_staged<S: Semiring>(
    rows: &mut [Idx],
    vals: &mut [S::Elem],
    w: &mut usize,
    r: Idx,
    v: S::Elem,
) {
    if !S::is_annihilator(v) {
        rows[*w] = r;
        vals[*w] = v;
        *w += 1;
    }
}

/// Two-cursor column merge into staged output — the fan-in-2 fast path
/// of [`brmerge_into`].
#[inline]
fn merge_two_cursors<S: Semiring>(
    (ar, av): (&[Idx], &[S::Elem]),
    (br, bv): (&[Idx], &[S::Elem]),
    rows: &mut [Idx],
    vals: &mut [S::Elem],
) -> usize {
    // Length equalities let the compiler collapse the paired row/val
    // bounds checks in the scan loops below.
    assert_eq!(ar.len(), av.len());
    assert_eq!(br.len(), bv.len());
    assert_eq!(rows.len(), vals.len());
    let mut w = 0usize;
    let (mut i, mut k) = (0, 0);
    // On a strict inequality the leading cursor's whole run below the
    // other head is emitted by a fused linear scan-and-copy: the
    // compare that detects the run end is the compare the copy loop
    // would do anyway, and the stream stays prefetch-friendly (a
    // binary search for the run end adds serially-dependent loads for
    // no saved work, since every element is touched by the copy).
    // Each element still passes the annihilator drop rule, preserving
    // bit-identity with the heap kernel.
    while i < ar.len() && k < br.len() {
        match ar[i].cmp(&br[k]) {
            std::cmp::Ordering::Less => {
                let b = br[k];
                while i < ar.len() && ar[i] < b {
                    put_staged::<S>(rows, vals, &mut w, ar[i], av[i]);
                    i += 1;
                }
            }
            std::cmp::Ordering::Greater => {
                let a = ar[i];
                while k < br.len() && br[k] < a {
                    put_staged::<S>(rows, vals, &mut w, br[k], bv[k]);
                    k += 1;
                }
            }
            std::cmp::Ordering::Equal => {
                put_staged::<S>(rows, vals, &mut w, ar[i], S::add(av[i], bv[k]));
                i += 1;
                k += 1;
            }
        }
    }
    while i < ar.len() {
        put_staged::<S>(rows, vals, &mut w, ar[i], av[i]);
        i += 1;
    }
    while k < br.len() {
        put_staged::<S>(rows, vals, &mut w, br[k], bv[k]);
        k += 1;
    }
    w
}

/// k-cursor column merge into staged output: one linear scan over the
/// cursor heads per step (cheaper than a heap for the small fan-ins this
/// kernel is selected at), accumulating coincident rows in list order.
/// `head[i]` caches cursor i's current row — `Idx::MAX` when exhausted
/// (a safe sentinel: row indices are < nrows < `Idx::MAX`) — so the scan
/// is a tight compare loop over a small array. The scan also tracks the
/// runner-up row: when a single cursor owns the minimum, its whole run
/// of rows below the runner-up is emitted without re-scanning the heads
/// (the BRMerge run-copy idea), which collapses the per-element cost to
/// one compare on low-overlap inputs. Each emitted element still passes
/// the annihilator drop rule, so the output stays bit-identical to the
/// heap kernel even for inputs carrying explicit annihilators.
#[inline]
fn merge_k_cursors<S: Semiring>(
    cur: &[(&[Idx], &[S::Elem])],
    pos: &mut [usize],
    head: &mut [Idx],
    rows: &mut [Idx],
    vals: &mut [S::Elem],
) -> usize {
    let k = cur.len();
    assert_eq!(rows.len(), vals.len());
    for i in 0..k {
        assert_eq!(cur[i].0.len(), cur[i].1.len());
        pos[i] = 0;
        head[i] = cur[i].0.first().copied().unwrap_or(Idx::MAX);
    }
    merge_k_cursors_body::<S>(cur, pos, head, rows, vals, k)
}

/// Fixed-fan-in front end of [`merge_k_cursors`]: `pos`/`head` are
/// const-sized arrays the compiler keeps in registers and the min-scan
/// fully unrolls, which is worth ~10% on the stack merger's dominant
/// 3- and 4-way merges. Same algorithm, bit-identical output.
#[inline]
fn merge_k_cursors_fixed<S: Semiring, const K: usize>(
    cur: &[(&[Idx], &[S::Elem])],
    rows: &mut [Idx],
    vals: &mut [S::Elem],
) -> usize {
    assert_eq!(cur.len(), K);
    assert_eq!(rows.len(), vals.len());
    let mut pos = [0usize; K];
    let mut head = [Idx::MAX; K];
    for i in 0..K {
        assert_eq!(cur[i].0.len(), cur[i].1.len());
        head[i] = cur[i].0.first().copied().unwrap_or(Idx::MAX);
    }
    merge_k_cursors_body::<S>(cur, &mut pos, &mut head, rows, vals, K)
}

#[inline(always)]
fn merge_k_cursors_body<S: Semiring>(
    cur: &[(&[Idx], &[S::Elem])],
    pos: &mut [usize],
    head: &mut [Idx],
    rows: &mut [Idx],
    vals: &mut [S::Elem],
    k: usize,
) -> usize {
    let mut w = 0usize;
    loop {
        // One pass: minimum, its owner, and the runner-up row. A tie for
        // the minimum leaves `min2 == min`, flagging coincident heads.
        let mut min = head[0];
        let mut arg = 0usize;
        let mut min2 = Idx::MAX;
        for (i, &h) in head.iter().enumerate().take(k).skip(1) {
            if h < min {
                min2 = min;
                min = h;
                arg = i;
            } else if h < min2 {
                min2 = h;
            }
        }
        if min == Idx::MAX {
            break;
        }
        if min < min2 {
            // Unique owner: every row of cursor `arg` below `min2` is
            // absent from all other lists — emit the run with a fused
            // linear scan-and-copy (the run-end compare doubles as the
            // copy-loop condition; no binary search).
            let (r, v) = cur[arg];
            let mut p = pos[arg];
            while p < r.len() && r[p] < min2 {
                put_staged::<S>(rows, vals, &mut w, r[p], v[p]);
                p += 1;
            }
            pos[arg] = p;
            head[arg] = r.get(p).copied().unwrap_or(Idx::MAX);
        } else {
            // Coincident heads: accumulate in list order.
            let mut acc: Option<S::Elem> = None;
            for i in 0..k {
                if head[i] == min {
                    let (r, v) = cur[i];
                    let x = v[pos[i]];
                    acc = Some(match acc {
                        None => x,
                        Some(a) => S::add(a, x),
                    });
                    pos[i] += 1;
                    head[i] = r.get(pos[i]).copied().unwrap_or(Idx::MAX);
                }
            }
            put_staged::<S>(rows, vals, &mut w, min, acc.unwrap());
        }
    }
    w
}

/// BRMerge-style merge of `mats` (fan-in ≥ 2) into an arena buffer, in
/// **one pass**: prefix-sums per-column upper bounds
/// (`ub_j = Σ_l nnz_l(j)`) to carve disjoint per-thread regions, then
/// cursor-merges each column's sorted runs — a two-cursor merge at
/// fan-in 2, a linear min-scan over k cursors above that. Each chunk
/// writes its columns compactly from its region base, so write traffic
/// is the actual output, not the upper bound. Coincident rows
/// accumulate strictly in list order, so the result is bit-identical to
/// the heap kernel. The output stays staged (no compaction
/// pass — downstream merges read the runs directly; only
/// materialization compacts the inter-chunk gaps), and all scratch
/// comes from `arena`, so the hot loop never allocates. The returned
/// buffer belongs to `arena`; release or materialize it when done.
pub fn brmerge_into<S: Semiring>(
    _s: S,
    mats: &[ColsRef<'_, S::Elem>],
    shape: (usize, usize),
    arena: &mut MergeArena<S::Elem>,
) -> SlabBuf<S::Elem> {
    let k = mats.len();
    assert!(k >= 2, "brmerge needs fan-in >= 2");
    let n = shape.1;
    let mut out = arena.acquire(shape);
    let MergeArena {
        ub,
        starts,
        counts,
        peak_request,
        ..
    } = arena;
    ub.clear();
    ub.reserve(n + 1);
    ub.push(0);
    let mut run = 0usize;
    for j in 0..n {
        run += mats.iter().map(|m| m.col_nnz(j)).sum::<usize>();
        ub.push(run);
    }
    *peak_request = (*peak_request).max(run);
    // Grow-only: the vectors are raw storage, overwritten per run — no
    // zero-fill of the upper-bound span in steady state.
    if out.rowidx.len() < run {
        out.rowidx.resize(run, Idx::default());
        out.vals.resize(run, S::Elem::default());
    }
    starts.clear();
    starts.resize(n, 0);
    counts.clear();
    counts.resize(n, 0);

    let nchunks = partition_count(n);
    let chunks = carve_chunks(
        n,
        nchunks,
        ub,
        &mut out.rowidx,
        &mut out.vals,
        starts,
        counts,
    );
    debug_assert!((shape.0 as u64) < Idx::MAX as u64, "Idx::MAX sentinel");
    let ub = &*ub;
    chunks.into_par_iter().for_each(|ch| {
        let mut cur: Vec<(&[Idx], &[S::Elem])> = Vec::with_capacity(k);
        let mut pos = vec![0usize; k];
        let mut head = vec![0 as Idx; k];
        let mut cursor = 0usize;
        for j in ch.cols.clone() {
            let width = ub[j + 1] - ub[j];
            let rows = &mut ch.rows[cursor..cursor + width];
            let vals = &mut ch.vals[cursor..cursor + width];
            let w = if k == 2 {
                merge_two_cursors::<S>(
                    (mats[0].col_rows(j), mats[0].col_vals(j)),
                    (mats[1].col_rows(j), mats[1].col_vals(j)),
                    rows,
                    vals,
                )
            } else {
                cur.clear();
                cur.extend(mats.iter().map(|m| (m.col_rows(j), m.col_vals(j))));
                // Auto only selects this kernel at fan-in <= 5, so the
                // register-resident fixed variants cover the hot path;
                // the slice-backed loop serves Fixed(BrMerge) beyond.
                match k {
                    3 => merge_k_cursors_fixed::<S, 3>(&cur, rows, vals),
                    4 => merge_k_cursors_fixed::<S, 4>(&cur, rows, vals),
                    5 => merge_k_cursors_fixed::<S, 5>(&cur, rows, vals),
                    _ => merge_k_cursors::<S>(&cur, &mut pos, &mut head, rows, vals),
                }
            };
            ch.starts[j - ch.cols.start] = ch.base + cursor;
            ch.counts[j - ch.cols.start] = w;
            cursor += w;
        }
    });
    out.set_staged(starts, counts);
    out
}

/// Hussain-style parallel SpAdd of `mats` (fan-in ≥ 2) into an arena
/// buffer: columns are split into contiguous per-thread partitions; each
/// thread accumulates its columns through an epoch-stamped dense SPA
/// sized from the column-nnz upper bracket (`ub_j = Σ_l nnz_l(j)`, the
/// same bracket the Cohen estimator clamps against), strictly in list
/// order, then sorts each column by row, drops annihilators, and writes
/// the column compactly at its chunk's write cursor; the result stays
/// staged (inter-chunk gaps only) until materialization.
pub fn spadd_into<S: Semiring>(
    _s: S,
    mats: &[ColsRef<'_, S::Elem>],
    shape: (usize, usize),
    arena: &mut MergeArena<S::Elem>,
) -> SlabBuf<S::Elem> {
    assert!(mats.len() >= 2, "spadd needs fan-in >= 2");
    let (nrows, n) = shape;
    let mut out = arena.acquire(shape);
    let MergeArena {
        ub,
        starts,
        counts,
        spa,
        peak_request,
        ..
    } = arena;
    ub.clear();
    ub.reserve(n + 1);
    ub.push(0);
    let mut run = 0usize;
    for j in 0..n {
        run += mats.iter().map(|m| m.col_nnz(j)).sum::<usize>();
        ub.push(run);
    }
    *peak_request = (*peak_request).max(run);
    // Grow-only raw storage — see `brmerge_into`.
    if out.rowidx.len() < run {
        out.rowidx.resize(run, Idx::default());
        out.vals.resize(run, S::Elem::default());
    }
    starts.clear();
    starts.resize(n, 0);
    counts.clear();
    counts.resize(n, 0);

    let nchunks = partition_count(n);
    if spa.len() < nchunks {
        spa.resize_with(nchunks, SpaScratch::default);
    }
    let chunks = carve_chunks(
        n,
        nchunks,
        ub,
        &mut out.rowidx,
        &mut out.vals,
        starts,
        counts,
    );
    chunks
        .into_par_iter()
        .zip(spa[..nchunks].par_iter_mut())
        .for_each(|(ch, spa)| {
            spa.ensure_rows(nrows);
            let mut cursor = 0usize;
            for j in ch.cols.clone() {
                spa.begin_column();
                for mat in mats {
                    for (&r, &v) in mat.col_rows(j).iter().zip(mat.col_vals(j)) {
                        let ri = r as usize;
                        if spa.stamp[ri] == spa.epoch {
                            let at = spa.slot[ri] as usize;
                            spa.pairs[at].1 = S::add(spa.pairs[at].1, v);
                        } else {
                            spa.stamp[ri] = spa.epoch;
                            spa.slot[ri] = spa.pairs.len() as u32;
                            spa.pairs.push((r, v));
                        }
                    }
                }
                spa.pairs.sort_unstable_by_key(|&(r, _)| r);
                let rows = &mut ch.rows[cursor..cursor + spa.pairs.len()];
                let vals = &mut ch.vals[cursor..cursor + spa.pairs.len()];
                let mut w = 0usize;
                for &(r, v) in &spa.pairs {
                    put_staged::<S>(rows, vals, &mut w, r, v);
                }
                ch.starts[j - ch.cols.start] = ch.base + cursor;
                ch.counts[j - ch.cols.start] = w;
                cursor += w;
            }
        });
    out.set_staged(starts, counts);
    out
}

// ---------------------------------------------------------------------------
// Statistics, Algorithm 2 schedule and the stack merger
// ---------------------------------------------------------------------------

/// Statistics of a merging run, feeding Table III and the §VII-C text.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MergeStats {
    /// Largest element count over single merge operations — the peak
    /// memory proxy of Table III.
    pub peak_merge_elems: usize,
    /// Total elements passed through merge operations (work proxy).
    pub total_merged_elems: u64,
    /// Number of merge operations performed.
    pub merge_ops: usize,
    /// Virtual seconds of merge-lane occupancy (the sum of the merge
    /// spans' durations — merges no longer run on a private clock).
    pub merge_time: f64,
    /// Virtual seconds the host blocked on merge completion events.
    pub wait_time: f64,
    /// Wall seconds of real merge compute, summed over the spans'
    /// `measured_s` (zero under `TimeModel::Modeled`).
    pub measured_merge_s: f64,
}

impl MergeStats {
    /// Folds another accumulation into this one: peaks take the max,
    /// everything else adds (one phase's stats absorbed into a run's).
    pub fn absorb(&mut self, other: &MergeStats) {
        self.peak_merge_elems = self.peak_merge_elems.max(other.peak_merge_elems);
        self.total_merged_elems += other.total_merged_elems;
        self.merge_ops += other.merge_ops;
        self.merge_time += other.merge_time;
        self.wait_time += other.wait_time;
        self.measured_merge_s += other.measured_merge_s;
    }
}

/// Algorithm 2's merge trigger: after the `pushed`-th push (1-indexed),
/// how many top-of-stack entries merge. Zero on odd pushes; on even
/// pushes one more than the number of trailing doublings (`pushed = 2^a·b`
/// with `b` odd merges `a + 1` entries), so the stack mirrors merge sort.
pub fn algorithm2_merge_count(pushed: usize) -> usize {
    let mut n = 0usize;
    let mut j = pushed;
    while j != 0 && j.is_multiple_of(2) {
        n += 1;
        j /= 2;
    }
    if n == 0 {
        0
    } else {
        n + 1
    }
}

/// Clock-free Algorithm 2 stack merger: real merging work and element
/// statistics (`peak_merge_elems`, `total_merged_elems`, `merge_ops`)
/// with **no** time accounting — timing belongs to the executor layer.
/// Used by the ablation/bench harnesses; the pipeline drives the same
/// schedule through `Executor::submit_merge` instead. The merger owns a
/// [`MergeArena`], so under the default `Auto` policy its intermediate
/// merges stay arena-resident ([`MergeSlab::Buf`]) and only
/// [`StackMerger::finish`] materializes a `Csc`.
pub struct StackMerger {
    model: MachineModel,
    policy: MergeKernelPolicy,
    shape: (usize, usize),
    stack: Vec<MergeSlab<f64>>,
    arena: MergeArena<f64>,
    pushed: usize,
    stats: MergeStats,
}

impl StackMerger {
    /// New merger for slabs of the given shape. The model only feeds the
    /// `Auto` kernel selection rule; no durations are charged.
    pub fn new(model: MachineModel, policy: MergeKernelPolicy, shape: (usize, usize)) -> Self {
        Self {
            model,
            policy,
            shape,
            stack: Vec::new(),
            arena: MergeArena::new(),
            pushed: 0,
            stats: MergeStats::default(),
        }
    }

    /// Pushes the next stage's slab, running any merges Algorithm 2
    /// triggers.
    pub fn push(&mut self, slab: Csc<f64>) {
        self.stack.push(MergeSlab::Mat(slab));
        self.pushed += 1;
        let count = algorithm2_merge_count(self.pushed);
        if count > 0 {
            self.merge_top(count);
        }
    }

    /// Final merge of whatever remains; empty input yields an empty
    /// matrix of the configured shape. The single materialization of the
    /// arena path happens here. Also resets the Algorithm 2 push
    /// counter, so the merger — and its now-warm arena — can be reused
    /// for the next phase's stack.
    pub fn finish(&mut self) -> Csc<f64> {
        if self.stack.len() > 1 {
            self.merge_top(self.stack.len());
        }
        self.pushed = 0;
        match self.stack.pop() {
            Some(slab) => slab.into_csc(&mut self.arena),
            None => Csc::zero(self.shape.0, self.shape.1),
        }
    }

    fn merge_top(&mut self, count: usize) {
        let s = PlusTimes::<f64>::new();
        let at = self.stack.len() - count;
        let tail: Vec<MergeSlab<f64>> = self.stack.split_off(at);
        let elems: usize = tail.iter().map(MergeSlab::nnz).sum();
        let kernel = self.policy.resolve(&self.model, elems as u64, count);
        self.stats.peak_merge_elems = self.stats.peak_merge_elems.max(elems);
        self.stats.total_merged_elems += elems as u64;
        self.stats.merge_ops += 1;
        let refs: Vec<ColsRef<'_, f64>> = tail.iter().map(MergeSlab::as_cols).collect();
        let merged = merge_into(s, kernel, &refs, self.shape, &mut self.arena);
        for slab in tail {
            slab.recycle(&mut self.arena);
        }
        self.stack.push(merged);
    }

    /// Accumulated element statistics (time fields stay zero).
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Number of slabs currently on the stack.
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }

    /// The merger's arena (peak/capacity observability for the probes).
    pub fn arena(&self) -> &MergeArena<f64> {
        &self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::{Boolean, MinPlus};
    use hipmcl_spgemm::testutil::random_csc;
    use proptest::prelude::*;

    #[test]
    fn merge_stats_absorb_maxes_peak_and_sums_rest() {
        let mut a = MergeStats {
            peak_merge_elems: 10,
            total_merged_elems: 100,
            merge_ops: 3,
            merge_time: 1.0,
            wait_time: 0.5,
            measured_merge_s: 0.125,
        };
        let b = MergeStats {
            peak_merge_elems: 7,
            total_merged_elems: 50,
            merge_ops: 2,
            merge_time: 0.25,
            wait_time: 1.5,
            measured_merge_s: 0.375,
        };
        a.absorb(&b);
        assert_eq!(a.peak_merge_elems, 10, "peak takes the max");
        assert_eq!(a.total_merged_elems, 150);
        assert_eq!(a.merge_ops, 5);
        assert_eq!(a.merge_time, 1.25);
        assert_eq!(a.wait_time, 2.0);
        assert_eq!(a.measured_merge_s, 0.5);
        // Larger incoming peak wins.
        a.absorb(&MergeStats {
            peak_merge_elems: 99,
            ..MergeStats::default()
        });
        assert_eq!(a.peak_merge_elems, 99);
    }

    fn slabs(n: usize, count: usize) -> Vec<Csc<f64>> {
        (0..count)
            .map(|i| random_csc(n, n, n * 3, 100 + i as u64))
            .collect()
    }

    fn reference_sum(mats: &[Csc<f64>]) -> Csc<f64> {
        mats.iter()
            .skip(1)
            .fold(mats[0].clone(), |acc, m| acc.add_elementwise(m))
    }

    #[test]
    fn kway_merge_matches_elementwise_sum() {
        for k in [1usize, 2, 3, 4, 7, 8] {
            let mats = slabs(12, k);
            let got = kway_merge(&mats, (12, 12));
            got.assert_valid();
            let want = reference_sum(&mats);
            assert!(got.max_abs_diff(&want) < 1e-9, "k={k}");
            assert_eq!(got.nnz(), want.nnz(), "k={k}");
        }
    }

    #[test]
    fn kway_merge_empty_slice_returns_empty_of_shape() {
        let merged = kway_merge(&[], (7, 9));
        merged.assert_valid();
        assert_eq!((merged.nrows(), merged.ncols()), (7, 9));
        assert_eq!(merged.nnz(), 0);
    }

    #[test]
    fn every_kernel_empty_slice_returns_empty_of_shape() {
        for kernel in MergeKernel::all() {
            let merged = merge_with(PlusTimes::<f64>::new(), kernel, &[], (7, 9));
            merged.assert_valid();
            assert_eq!((merged.nrows(), merged.ncols()), (7, 9), "{kernel:?}");
            assert_eq!(merged.nnz(), 0, "{kernel:?}");
        }
    }

    #[test]
    fn kway_merge_drops_cancellation() {
        let a = random_csc(8, 8, 20, 1);
        let mut b = a.clone();
        for v in &mut b.vals {
            *v = -*v;
        }
        let merged = kway_merge(&[a, b], (8, 8));
        assert_eq!(merged.nnz(), 0, "exact cancellation drops all entries");
    }

    #[test]
    fn all_kernels_match_elementwise_sum() {
        for k in [2usize, 3, 5, 8] {
            let mats = slabs(10, k);
            let want = reference_sum(&mats);
            for kernel in hipmcl_comm::MergeKernel::all() {
                let got = merge_algo(kernel).merge(&mats, (10, 10));
                got.assert_valid();
                assert!(got.max_abs_diff(&want) < 1e-9, "{kernel:?} k={k}");
                assert_eq!(got.nnz(), want.nnz(), "{kernel:?} k={k}");
            }
        }
    }

    #[test]
    fn selection_rule_follows_model_crossovers() {
        let m = MachineModel::summit();
        // Fan-in 2–5: the arena-backed single-pass k-cursor merge.
        for ways in [2usize, 3, 4, 5] {
            assert_eq!(select_merge_kernel(&m, 100_000, ways), MergeKernel::BrMerge);
        }
        // Fan-in ≥ 6 with enough elements: the parallel SpAdd.
        assert_eq!(select_merge_kernel(&m, 100_000, 6), MergeKernel::SpAdd);
        assert_eq!(select_merge_kernel(&m, 100_000, 16), MergeKernel::SpAdd);
        // A tiny merge cannot amortize the SPA setup: the setup-free
        // cursor kernels take over — brmerge while its min-scan stays
        // under lg k, the heap at very high fan-in.
        assert_eq!(select_merge_kernel(&m, 100, 8), MergeKernel::BrMerge);
        assert_eq!(select_merge_kernel(&m, 100, 16), MergeKernel::Heap);
        // Every kernel the model prices wins somewhere: a dominated
        // kernel has no place in `MergeKernel::all()`.
        let mut chosen = std::collections::HashSet::new();
        for total in [100u64, 10_000, 1_000_000] {
            for ways in 2usize..=32 {
                let k = select_merge_kernel(&m, total, ways);
                chosen.insert(k);
                // The policy layer: `Auto` is the selection rule, and
                // `Fixed` passes its kernel through untouched.
                assert_eq!(MergeKernelPolicy::Auto.resolve(&m, total, ways), k);
                for fixed in MergeKernel::all() {
                    assert_eq!(
                        MergeKernelPolicy::Fixed(fixed).resolve(&m, total, ways),
                        fixed
                    );
                }
            }
        }
        assert_eq!(
            chosen,
            MergeKernel::all().into_iter().collect(),
            "some kernel is never auto-selected"
        );
    }

    #[test]
    fn arena_reuses_buffers_without_capacity_leak() {
        let s = PlusTimes::<f64>::new();
        let mut arena = MergeArena::new();
        // Many merges of varying size through one arena: capacity must
        // stay bounded by twice the largest single request.
        for round in 0..20 {
            let k = 2 + round % 4;
            let mats = slabs(16, k);
            let refs: Vec<ColsRef<'_, f64>> = mats.iter().map(ColsRef::of).collect();
            let buf = if k == 2 || k == 3 {
                brmerge_into(s, &refs, (16, 16), &mut arena)
            } else {
                spadd_into(s, &refs, (16, 16), &mut arena)
            };
            let want = reference_sum(&mats);
            assert!(buf.to_csc().max_abs_diff(&want) < 1e-9, "round={round}");
            arena.release(buf);
        }
        assert!(arena.peak_request() > 0);
        arena.assert_no_capacity_leak();
        assert!(
            arena.capacity_elems() <= 2 * arena.peak_request().max(32),
            "steady-state capacity {} vs peak request {}",
            arena.capacity_elems(),
            arena.peak_request()
        );
    }

    #[test]
    fn arena_outputs_match_materialized_kernels_exactly() {
        let s = PlusTimes::<f64>::new();
        let mut arena = MergeArena::new();
        for k in [2usize, 3, 5, 8] {
            let mats = slabs(10, k);
            let refs: Vec<ColsRef<'_, f64>> = mats.iter().map(ColsRef::of).collect();
            let want = merge_with(s, MergeKernel::Heap, &mats, (10, 10));
            let br = brmerge_into(s, &refs, (10, 10), &mut arena);
            assert_eq!(br.to_csc(), want, "brmerge k={k}");
            arena.release(br);
            let sp = spadd_into(s, &refs, (10, 10), &mut arena);
            assert_eq!(sp.to_csc(), want, "spadd k={k}");
            arena.release(sp);
        }
    }

    #[test]
    fn algorithm2_schedule_matches_paper() {
        // Pushes 2,4,6,8 trigger merges of 2,3,2,4 lists respectively.
        let counts: Vec<usize> = (1..=8).map(algorithm2_merge_count).collect();
        assert_eq!(counts, vec![0, 2, 0, 3, 0, 2, 0, 4]);
    }

    #[test]
    fn stack_merger_follows_algorithm2_and_matches_sum() {
        for k in [1usize, 2, 3, 4, 5, 8] {
            let mats = slabs(10, k);
            let want = reference_sum(&mats);
            let mut sm =
                StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, (10, 10));
            let mut ops = Vec::new();
            for m in &mats {
                let before = sm.stats().merge_ops;
                sm.push(m.clone());
                if sm.stats().merge_ops > before {
                    ops.push(sm.pushed);
                }
            }
            if k == 8 {
                assert_eq!(ops, vec![2, 4, 6, 8]);
                assert_eq!(sm.stack_len(), 1, "8 = 2^3 collapses to one slab");
            }
            let got = sm.finish();
            assert!(got.max_abs_diff(&want) < 1e-9, "k={k}");
        }
    }

    #[test]
    fn stack_merger_result_is_policy_invariant() {
        // The arena-backed Auto path must produce the exact CSC every
        // fixed kernel produces — schedule and accumulation order
        // are kernel-independent.
        let mats = slabs(14, 8);
        let run = |policy| {
            let mut sm = StackMerger::new(MachineModel::summit(), policy, (14, 14));
            for m in &mats {
                sm.push(m.clone());
            }
            sm.finish()
        };
        let auto = run(MergeKernelPolicy::Auto);
        for kernel in MergeKernel::all() {
            assert_eq!(
                run(MergeKernelPolicy::Fixed(kernel)),
                auto,
                "{kernel:?} diverged from Auto"
            );
        }
    }

    #[test]
    fn stack_merger_arena_stays_bounded() {
        let mut sm = StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, (20, 20));
        for m in slabs(20, 16) {
            sm.push(m);
        }
        let _ = sm.finish();
        assert!(sm.arena().peak_request() > 0, "auto path used the arena");
        sm.arena().assert_no_capacity_leak();
    }

    #[test]
    fn stack_merger_empty_finish_returns_zero_shape() {
        let mut sm = StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, (5, 6));
        let out = sm.finish();
        assert_eq!((out.nrows(), out.ncols(), out.nnz()), (5, 6, 0));
    }

    #[test]
    fn binary_peak_memory_beats_multiway_on_overlapping_slabs() {
        // Heavily overlapping patterns: early merges compress, so the
        // binary scheme's largest merge holds fewer elements (Table III).
        let base = random_csc(40, 40, 600, 42);
        let mats: Vec<Csc<f64>> = (0..8)
            .map(|i| {
                let mut m = base.clone();
                for v in &mut m.vals {
                    *v += i as f64 * 0.01;
                }
                m
            })
            .collect();

        let multiway_peak: usize = mats.iter().map(Csc::nnz).sum();
        let mut sm = StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, (40, 40));
        for m in &mats {
            sm.push(m.clone());
        }
        let _ = sm.finish();
        assert!(
            sm.stats().peak_merge_elems < multiway_peak,
            "binary {} vs multiway {}",
            sm.stats().peak_merge_elems,
            multiway_peak
        );
    }

    /// Random stage-product sets with deliberate cancellation: a base set
    /// of random slabs, optionally including the exact negation of one of
    /// them so entries cancel to exact zero mid-accumulation.
    fn product_set(n: usize, k: usize, seed: u64, with_cancel: bool) -> Vec<Csc<f64>> {
        let mut mats = slabs(n, k);
        for (i, m) in mats.iter_mut().enumerate() {
            for v in &mut m.vals {
                // Mixed signs so partial sums can hit exact zero.
                if (i + 1) % 2 == 0 {
                    *v = -*v;
                }
            }
        }
        if with_cancel {
            let mut neg = random_csc(n, n, n * 3, 100 + (seed % k as u64));
            for v in &mut neg.vals {
                *v = -*v;
            }
            mats.push(neg);
        }
        mats
    }

    proptest! {
        /// All three merge kernels produce bit-identical CSC outputs —
        /// values AND sparsity structure, including entries removed by
        /// exact-zero cancellation.
        #[test]
        fn merge_kernels_are_bit_identical(
            n in 4usize..24,
            k in 2usize..9,
            seed in 0u64..32,
            with_cancel in proptest::prelude::any::<bool>(),
        ) {
            let mats = product_set(n, k, seed, with_cancel);
            let shape = (n, n);
            let heap = merge_algo(MergeKernel::Heap).merge(&mats, shape);
            heap.assert_valid();
            for kernel in MergeKernel::all() {
                let got = merge_algo(kernel).merge(&mats, shape);
                // `Csc: PartialEq` compares colptr, rowidx and vals
                // exactly — bitwise equality of structure and floats.
                prop_assert_eq!(&heap, &got, "{:?}", kernel);
            }
        }

        /// Min-plus: the same three kernels stay bit-identical when ⊕ is
        /// `min` and the annihilator is `+∞`. One slab carries explicit
        /// `+∞` entries: positions where *every* contribution is `+∞`
        /// must be dropped by all kernels alike (exact-annihilator
        /// cancellation), while positions that also receive a finite
        /// value must keep the finite minimum.
        #[test]
        fn merge_kernels_bit_identical_under_min_plus(
            n in 4usize..24,
            k in 2usize..9,
            seed in 0u64..32,
            with_cancel in proptest::prelude::any::<bool>(),
        ) {
            let s = MinPlus;
            let mut mats = slabs(n, k);
            if with_cancel {
                // Annihilator slab: all entries are +∞ ("no path").
                let mut inf = random_csc(n, n, n * 3, 500 + seed);
                for v in &mut inf.vals {
                    *v = f64::INFINITY;
                }
                mats.push(inf);
            }
            let shape = (n, n);
            let heap = merge_with(s, MergeKernel::Heap, &mats, shape);
            heap.assert_valid();
            for kernel in MergeKernel::all() {
                let got = merge_with(s, kernel, &mats, shape);
                prop_assert_eq!(&heap, &got, "{:?}", kernel);
            }
            prop_assert!(
                heap.vals.iter().all(|v| v.is_finite()),
                "accumulated +∞ entries must be dropped, not stored"
            );
        }

        /// Boolean: bit-identity when ⊕ is `∨` and the annihilator is
        /// `false`, including explicit stored `false` entries that must
        /// vanish unless some list contributes `true` at that position.
        #[test]
        fn merge_kernels_bit_identical_under_boolean(
            n in 4usize..24,
            k in 2usize..9,
            seed in 0u64..32,
            with_cancel in proptest::prelude::any::<bool>(),
        ) {
            let s = Boolean;
            let mut mats: Vec<Csc<bool>> = slabs(n, k)
                .iter()
                .map(|m| m.map_values(|v| v > 1.0))
                .collect();
            if with_cancel {
                // Annihilator slab: every stored entry is `false`.
                let f = random_csc(n, n, n * 3, 700 + seed).map_values(|_| false);
                mats.push(f);
            }
            let shape = (n, n);
            let heap = merge_with(s, MergeKernel::Heap, &mats, shape);
            heap.assert_valid();
            for kernel in MergeKernel::all() {
                let got = merge_with(s, kernel, &mats, shape);
                prop_assert_eq!(&heap, &got, "{:?}", kernel);
            }
            prop_assert!(
                heap.vals.iter().all(|&v| v),
                "an OR-accumulation can only store true entries"
            );
        }
    }
}
