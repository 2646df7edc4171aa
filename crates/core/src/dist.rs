//! The distributed HipMCL driver.
//!
//! One MCL iteration on the `√P × √P` grid:
//!
//! 1. **Memory estimation** (§V) — inside the SUMMA phase planner,
//!    exact-symbolic or probabilistic per the config.
//! 2. **Expansion** `B = A·A` via (Pipelined) Sparse SUMMA, with pruning
//!    *fused into the phases*: each phase's merged column slab is pruned
//!    (cutoff + distributed top-k selection) before the next phase runs,
//!    so the unpruned matrix never exists at once (§II).
//! 3. **Inflation** — local Hadamard power, then column renormalization
//!    with sums reduced down the process columns.
//! 4. **Chaos** — distributed convergence statistic.
//!
//! When the loop converges, clusters are read off the connected
//! components of the final matrix. Results are validated against
//! [`crate::serial`] in the tests.

use crate::config::MclConfig;
use crate::serial::IterTrace;
use hipmcl_comm::collectives::{allreduce, allreduce_sum_vec};
use hipmcl_comm::{Comm, ProcGrid, WireDecode, WireEncode, WireError, WireReader};
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::Csc;
use hipmcl_summa::active::{ActiveSet, ActiveSetPolicy};
use hipmcl_summa::estimate::MemoryEstimate;
use hipmcl_summa::spgemm::summa_spgemm_with;
use hipmcl_summa::topk::prune_local_slab;
use hipmcl_summa::DistMatrix;

/// Canonical stage order for reports (matches the paper's Fig. 1 legend).
/// `expansion` is the wall time of the whole SUMMA pipeline section
/// (broadcasts + kernels + merging + synchronization waits, excluding the
/// fused pruning) — the quantity Table II calls "overall". `reshard` is
/// the active-set step (settle mask + freeze + operand exchange); always
/// zero when [`ActiveSetPolicy::Off`].
pub const STAGES: [&str; 8] = [
    "local_spgemm",
    "mem_estimation",
    "summa_bcast",
    "merge",
    "pruning",
    "other",
    "expansion",
    "reshard",
];

/// Result of a distributed MCL run, identical on every rank.
#[derive(Clone, Debug)]
pub struct DistMclReport {
    /// Dense cluster labels per global vertex.
    pub labels: Vec<u32>,
    /// Number of clusters.
    pub num_clusters: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the chaos criterion was met.
    pub converged: bool,
    /// Total modeled wall time: max over ranks of the final virtual clock.
    pub total_time: f64,
    /// Per-stage virtual time, *mean* over ranks, summed over iterations,
    /// ordered as [`STAGES`]. (Means, not maxima: with per-rank load
    /// imbalance, synchronization waits land in whichever stage follows
    /// the straggler, so per-rank maxima over-count; means keep the
    /// stages additive, matching how stage breakdowns are reported.)
    pub stage_times: Vec<(String, f64)>,
    /// Wall-clock counterpart of [`stage_times`](Self::stage_times):
    /// real host seconds per stage, mean over ranks, ordered as
    /// [`STAGES`]. Filled only when the universe runs under
    /// `TimeModel::Measured`; all durations are `0.0` under `Modeled`,
    /// which never reads the host clock.
    pub stage_times_measured: Vec<(String, f64)>,
    /// Mean over ranks of host idle time waiting on launch events
    /// (Table V).
    pub cpu_idle: f64,
    /// Mean over ranks of device/worker idle time, read off the
    /// executor's unified timelines (Table V's GPU column; the CPU
    /// worker pool's idle when no devices are configured).
    pub gpu_idle: f64,
    /// Per-iteration peak single-merge element count, max over ranks
    /// (Table III's peak-memory proxy).
    pub merge_peaks: Vec<u64>,
    /// Per-iteration memory estimates (when auto phases ran).
    pub estimates: Vec<Option<MemoryEstimate>>,
    /// Per-iteration algorithmic trace (global quantities).
    pub trace: Vec<IterTrace>,
    /// Columns still in the operand when the loop ended (the full
    /// dimension unless active-set shrinking removed some).
    pub active_cols: usize,
    /// Columns frozen out of the operand over the whole run.
    pub frozen_cols: usize,
    /// Total modeled seconds spent in the active-set step (settle mask +
    /// freeze + reshard exchange), mean over ranks.
    pub reshard_time: f64,
}

// The report is what a `process-shm` rank ships back to the parent, so
// it must be a full wire payload (the size hook just prices the encoded
// form — the report never travels through the modeled α–β collectives).
impl hipmcl_comm::WireSize for DistMclReport {
    fn wire_bytes(&self) -> usize {
        self.encoded().len()
    }
}

impl WireEncode for DistMclReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.labels.encode(out);
        self.num_clusters.encode(out);
        self.iterations.encode(out);
        self.converged.encode(out);
        self.total_time.encode(out);
        self.stage_times.encode(out);
        self.stage_times_measured.encode(out);
        self.cpu_idle.encode(out);
        self.gpu_idle.encode(out);
        self.merge_peaks.encode(out);
        self.estimates.encode(out);
        self.trace.encode(out);
        self.active_cols.encode(out);
        self.frozen_cols.encode(out);
        self.reshard_time.encode(out);
    }
}

impl WireDecode for DistMclReport {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DistMclReport {
            labels: Vec::<u32>::decode(r)?,
            num_clusters: usize::decode(r)?,
            iterations: usize::decode(r)?,
            converged: bool::decode(r)?,
            total_time: f64::decode(r)?,
            stage_times: Vec::<(String, f64)>::decode(r)?,
            stage_times_measured: Vec::<(String, f64)>::decode(r)?,
            cpu_idle: f64::decode(r)?,
            gpu_idle: f64::decode(r)?,
            merge_peaks: Vec::<u64>::decode(r)?,
            estimates: Vec::<Option<MemoryEstimate>>::decode(r)?,
            trace: Vec::<IterTrace>::decode(r)?,
            active_cols: usize::decode(r)?,
            frozen_cols: usize::decode(r)?,
            reshard_time: f64::decode(r)?,
        })
    }
}

/// Runs distributed MCL on an input replicated at every rank (each rank
/// calls with the same `adjacency`, e.g. generated from a shared seed).
/// Preparation (symmetrize, self-loops, normalization) happens before
/// distribution. Collective over the grid.
pub fn cluster_distributed(
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    adjacency: &Csc<f64>,
    cfg: &MclConfig,
) -> DistMclReport {
    let prepared = crate::serial::prepare_matrix(adjacency, cfg);
    let a = DistMatrix::from_global(grid, &prepared.to_triples());
    cluster_distributed_from(grid, gpus, a, cfg)
}

/// Runs distributed MCL on an already-distributed, already column
/// stochastic matrix. Collective over the grid.
pub fn cluster_distributed_from(
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    mut a: DistMatrix,
    cfg: &MclConfig,
) -> DistMclReport {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid MclConfig: {e}"));
    let comm = &grid.world;
    let mut stage = hipmcl_comm::StageTimers::new();
    let mut stage_measured = hipmcl_comm::StageTimers::new();
    let mut merge_peaks = Vec::new();
    let mut estimates = Vec::new();
    let mut trace = Vec::new();
    let mut cpu_idle = 0.0;
    let mut gpu_idle = 0.0;
    let mut converged = false;
    let mut iterations = 0;
    let mut active = ActiveSet::full(a.ncols_global);
    let mut since_reshard = 0usize;
    // Per-iteration local [expansion, merge, reshard] seconds, flattened;
    // averaged over ranks once after the loop (a single collective keeps
    // the modeled clock comparable between Off and Shrink runs).
    let mut iter_stage_local: Vec<f64> = Vec::new();

    for _ in 0..cfg.max_iters {
        iterations += 1;

        // Expansion with fused per-phase pruning.
        let mut prune_time = 0.0f64;
        let mut prune_measured = 0.0f64;
        let prune_params = cfg.prune;
        let t_expand = comm.now();
        let w_expand = comm.measured_now();
        let out = {
            let col_comm = &grid.col_comm;
            summa_spgemm_with(grid, gpus, &a, &a, &cfg.summa, |_ph, slab| {
                let t0 = col_comm.now();
                let w0 = col_comm.measured_now();
                let (pruned, _stats) = prune_local_slab(col_comm, &slab, &prune_params);
                // Charge the columnwise scan + selection work.
                col_comm.advance_clock(col_comm.model().elementwise_time(slab.nnz() as u64));
                prune_time += col_comm.now() - t0;
                prune_measured += col_comm.measured_now() - w0;
                pruned
            })
        };
        for (name, t) in out.timers.iter() {
            stage.add(name, t);
        }
        for (name, t) in out.timers_measured.iter() {
            stage_measured.add(name, t);
        }
        let it_expand = comm.now() - t_expand - prune_time;
        let it_merge = out.timers.get("merge");
        stage.add("pruning", prune_time);
        stage.add("expansion", it_expand);
        stage_measured.add("pruning", prune_measured);
        stage_measured.add(
            "expansion",
            (comm.measured_now() - w_expand - prune_measured).max(0.0),
        );
        cpu_idle += out.cpu_idle;
        gpu_idle += out.gpu_idle;
        merge_peaks.push(out.merge_stats.peak_merge_elems as u64);
        estimates.push(out.estimate);

        let mut nnz_pruned = out.c.nnz_global(grid);
        let flops = out.estimate.map_or(0, |e| e.flops);
        let nnz_expanded = out
            .estimate
            .map_or(nnz_pruned, |e| e.nnz_estimate.max(0.0) as u64);
        a = out.c;

        // Inflation + chaos (distributed, per column).
        let t0 = comm.now();
        let w0 = comm.measured_now();
        let (col_chaos, chaos) = dist_inflate_and_chaos_cols(grid, &mut a.local, cfg.inflation);
        stage.add("other", comm.now() - t0);
        stage_measured.add("other", comm.measured_now() - w0);

        // Active-set step: settle, freeze, reshard. Skipped entirely when
        // the loop is about to stop (the full convergence check below
        // subsumes per-column settlement).
        let mut it_reshard = 0.0f64;
        if let ActiveSetPolicy::Shrink {
            epsilon,
            min_shrink_frac,
            reshard_every,
        } = cfg.active_set
        {
            since_reshard += 1;
            if chaos >= cfg.chaos_epsilon && since_reshard >= reshard_every {
                let t0 = comm.now();
                let w0 = comm.measured_now();
                let settled = active.settled_columns(grid, &a, &col_chaos, epsilon);
                let n_settle = settled.iter().filter(|&&s| s).count();
                let n_cur = a.ncols_global;
                // min_shrink_frac suppresses the reshard for small
                // batches: the settled columns simply stay active and are
                // retried at the next settle point. Shrinking to an empty
                // operand is likewise refused.
                if n_settle > 0
                    && n_settle < n_cur
                    && (n_settle as f64) >= min_shrink_frac * n_cur as f64
                {
                    a = active.shrink(grid, &a, &settled);
                    nnz_pruned = a.nnz_global(grid);
                    since_reshard = 0;
                }
                it_reshard = comm.now() - t0;
                stage.add("reshard", it_reshard);
                stage_measured.add("reshard", (comm.measured_now() - w0).max(0.0));
            }
        }
        iter_stage_local.extend([it_expand, it_merge, it_reshard]);

        trace.push(IterTrace {
            flops,
            nnz_expanded,
            nnz_pruned,
            cf: if nnz_expanded == 0 {
                1.0
            } else {
                flops as f64 / nnz_expanded as f64
            },
            chaos,
            active_cols: a.ncols_global as u64,
            frozen_cols: active.frozen_cols() as u64,
            // Rank means filled in after the loop.
            reshard_time: 0.0,
            expansion_time: 0.0,
            merge_time: 0.0,
        });
        if chaos < cfg.chaos_epsilon {
            converged = true;
            break;
        }
    }

    // Rank means of the per-iteration stage seconds (one collective for
    // the whole run; every rank ran the same number of iterations).
    let p_f = grid.size() as f64;
    let iter_stage_mean = allreduce_sum_vec(&grid.world, iter_stage_local);
    for (i, tr) in trace.iter_mut().enumerate() {
        tr.expansion_time = iter_stage_mean[3 * i] / p_f;
        tr.merge_time = iter_stage_mean[3 * i + 1] / p_f;
        tr.reshard_time = iter_stage_mean[3 * i + 2] / p_f;
    }

    // Cluster extraction: scatter the active results back through the
    // index map and union with the frozen store (the identity path while
    // nothing is frozen — bit-identical to plain gathered components).
    let (labels, num_clusters) = active.final_components(grid, &a);

    // Aggregate instrumentation across ranks (mean per stage).
    let my_stage_vec: Vec<f64> = STAGES.iter().map(|s| stage.get(s)).collect();
    let mean_stage = allreduce_sum_vec(&grid.world, my_stage_vec);
    let stage_times: Vec<(String, f64)> = STAGES
        .iter()
        .zip(&mean_stage)
        .map(|(s, &t)| (s.to_string(), t / grid.size() as f64))
        .collect();
    let my_measured_vec: Vec<f64> = STAGES.iter().map(|s| stage_measured.get(s)).collect();
    let mean_measured = allreduce_sum_vec(&grid.world, my_measured_vec);
    let stage_times_measured: Vec<(String, f64)> = STAGES
        .iter()
        .zip(&mean_measured)
        .map(|(s, &t)| (s.to_string(), t / grid.size() as f64))
        .collect();
    let total_time = allreduce(&grid.world, comm.now(), f64::max);
    let p = grid.size() as f64;
    let idle = allreduce_sum_vec(&grid.world, vec![cpu_idle, gpu_idle]);
    let merge_peaks = {
        let local: Vec<f64> = merge_peaks.iter().map(|&x| x as f64).collect();
        let reduced = allreduce(&grid.world, local, |mut x, y| {
            for (a, b) in x.iter_mut().zip(&y) {
                *a = a.max(*b);
            }
            x
        });
        reduced.into_iter().map(|x| x as u64).collect()
    };

    DistMclReport {
        labels,
        num_clusters,
        iterations,
        converged,
        total_time,
        stage_times,
        stage_times_measured,
        cpu_idle: idle[0] / p,
        gpu_idle: idle[1] / p,
        merge_peaks,
        estimates,
        reshard_time: trace.iter().map(|t| t.reshard_time).sum(),
        active_cols: active.active_cols(),
        frozen_cols: active.frozen_cols(),
        trace,
    }
}

/// Inflation (Hadamard power) with distributed column renormalization,
/// followed by the distributed chaos statistic. Returns this rank's
/// per-column chaos vector (one entry per local panel column, identical
/// across the ranks of a process column because it is computed from the
/// column-reduced max and sum of squares) and the global chaos — the max
/// over all columns. The per-column vector is what active-set shrinking
/// feeds to [`ActiveSet::settled_columns`].
pub fn dist_inflate_and_chaos_cols(
    grid: &ProcGrid,
    m: &mut Csc<f64>,
    power: f64,
) -> (Vec<f64>, f64) {
    let col_comm = &grid.col_comm;
    let model = col_comm.model().clone();

    // Hadamard power, local.
    for v in &mut m.vals {
        *v = v.powf(power);
    }
    // Column sums reduced down the process column.
    let local_sums: Vec<f64> = (0..m.ncols()).map(|j| m.col_vals(j).iter().sum()).collect();
    let sums = allreduce_sum_vec(col_comm, local_sums);
    for (j, &s) in sums.iter().enumerate() {
        if s > 0.0 {
            let inv = 1.0 / s;
            for v in m.col_vals_mut(j) {
                *v *= inv;
            }
        }
    }
    col_comm.advance_clock(model.elementwise_time(2 * m.nnz() as u64));

    // Chaos: per-column max and sum of squares, combined down the column.
    let mut maxes: Vec<f64> = vec![0.0; m.ncols()];
    let mut ssq: Vec<f64> = vec![0.0; m.ncols()];
    for j in 0..m.ncols() {
        for &v in m.col_vals(j) {
            maxes[j] = maxes[j].max(v);
            ssq[j] += v * v;
        }
    }
    let gmax = allreduce(col_comm, maxes, |mut x, y| {
        for (a, b) in x.iter_mut().zip(&y) {
            *a = a.max(*b);
        }
        x
    });
    let gssq = allreduce_sum_vec(col_comm, ssq);
    let col_chaos: Vec<f64> = gmax
        .iter()
        .zip(&gssq)
        .map(|(&mx, &s)| if mx > 0.0 { mx - s } else { 0.0 })
        .collect();
    // The world allreduce folds from 0.0, the chaos identity: a column of
    // a stochastic matrix has `max ≥ Σv²` (since `Σv = 1`), so per-column
    // chaos is nonnegative, and a rank whose panel owns zero columns (a
    // degenerate grid with `side > ncols`) contributes exactly 0.0 — no
    // uninitialized or −∞ local can poison the max.
    let local_chaos = col_chaos.iter().copied().fold(0.0f64, f64::max);
    let chaos = allreduce(&grid.world, local_chaos, f64::max);
    (col_chaos, chaos)
}

/// [`dist_inflate_and_chaos_cols`] when only the global chaos is wanted.
pub fn dist_inflate_and_chaos(grid: &ProcGrid, m: &mut Csc<f64>, power: f64) -> f64 {
    dist_inflate_and_chaos_cols(grid, m, power).1
}

/// Distributed column normalization (used to prepare an already
/// distributed matrix): divides each column by its global sum.
pub fn dist_normalize(grid: &ProcGrid, m: &mut Csc<f64>) {
    let col_comm = &grid.col_comm;
    let local_sums: Vec<f64> = (0..m.ncols()).map(|j| m.col_vals(j).iter().sum()).collect();
    let sums = allreduce_sum_vec(col_comm, local_sums);
    for (j, &s) in sums.iter().enumerate() {
        if s > 0.0 {
            let inv = 1.0 / s;
            for v in m.col_vals_mut(j) {
                *v *= inv;
            }
        }
    }
}

/// Convenience for reports: returns `(name, seconds)` for stages plus the
/// overall time, like the paper's Fig. 1 stacked bars.
pub fn stage_summary(report: &DistMclReport) -> Vec<(String, f64)> {
    let mut rows = report.stage_times.clone();
    rows.push(("overall".to_string(), report.total_time));
    rows
}

/// Suppresses "unused" for `Comm` kept in the public signature docs.
#[allow(dead_code)]
fn _comm_marker(_c: &Comm) {}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_comm::{MachineModel, Universe};
    use hipmcl_sparse::{Idx, Triples};
    use rand::{Rng, SeedableRng};

    fn planted(k: usize, sz: usize, noise: usize, seed: u64) -> Csc<f64> {
        let n = k * sz;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(n, n);
        for c in 0..k {
            let base = c * sz;
            for i in 0..sz {
                for j in (i + 1)..sz {
                    t.push(
                        (base + i) as Idx,
                        (base + j) as Idx,
                        rng.gen_range(0.8..1.0),
                    );
                }
            }
        }
        for _ in 0..noise {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a / sz != b / sz {
                t.push(a as Idx, b as Idx, rng.gen_range(0.01..0.05));
            }
        }
        Csc::from_triples(&t)
    }

    fn same_partition(a: &[u32], b: &[u32]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                if (a[i] == a[j]) != (b[i] == b[j]) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn distributed_matches_serial_clusters() {
        let g = planted(4, 6, 15, 11);
        let cfg = MclConfig::testing(12);
        let serial = crate::serial::cluster_serial(&g, &cfg);
        for p in [1usize, 4, 9] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let g = planted(4, 6, 15, 11);
                cluster_distributed(&grid, &mut gpus, &g, &MclConfig::testing(12))
            });
            for r in &results {
                assert_eq!(r.num_clusters, serial.num_clusters, "p={p}");
                assert!(same_partition(&r.labels, &serial.labels), "p={p}");
                assert_eq!(r.iterations, serial.iterations, "p={p}");
                assert!(r.converged);
            }
        }
    }

    #[test]
    fn optimized_config_matches_original_clusters() {
        let run = |use_opt: bool| {
            let results = Universe::run(4, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let g = planted(3, 7, 12, 13);
                let mut cfg = if use_opt {
                    MclConfig::optimized(u64::MAX)
                } else {
                    MclConfig::original_hipmcl(u64::MAX)
                };
                cfg.prune = hipmcl_sparse::colops::PruneParams {
                    cutoff: 1e-4,
                    select: 14,
                    recover_num: 0,
                    recover_pct: 0.0,
                };
                cluster_distributed(&grid, &mut gpus, &g, &cfg)
            });
            results.into_iter().next().unwrap()
        };
        let orig = run(false);
        let opt = run(true);
        assert_eq!(orig.num_clusters, opt.num_clusters);
        assert!(same_partition(&orig.labels, &opt.labels));
        assert_eq!(orig.num_clusters, 3);
    }

    #[test]
    fn every_executor_choice_matches_serial_clusters() {
        // Both selection policies: under `cpu_only` no kind ever sees a
        // GPU request, so `always_gpu` is what drives the device launches
        // of `Gpus` and the column split of `Hybrid`.
        use hipmcl_gpu::select::SelectionPolicy;
        use hipmcl_summa::executor::ExecutorKind;
        let g = planted(3, 6, 10, 29);
        let cfg = MclConfig::testing(12);
        let serial = crate::serial::cluster_serial(&g, &cfg);
        for policy in [SelectionPolicy::cpu_only(), SelectionPolicy::always_gpu()] {
            for exec in [
                ExecutorKind::Gpus,
                ExecutorKind::CpuPool,
                ExecutorKind::Hybrid,
            ] {
                let results = Universe::run(4, MachineModel::summit(), move |comm| {
                    let grid = ProcGrid::new(comm);
                    let mut gpus = MultiGpu::summit_node(grid.world.model());
                    let g = planted(3, 6, 10, 29);
                    let mut cfg = MclConfig::testing(12).with_executor(exec);
                    cfg.summa.policy = policy;
                    cluster_distributed(&grid, &mut gpus, &g, &cfg)
                });
                let case = format!("{exec:?} under {policy:?}");
                for r in &results {
                    assert_eq!(r.num_clusters, serial.num_clusters, "{case}");
                    assert!(same_partition(&r.labels, &serial.labels), "{case}");
                    assert!(r.cpu_idle >= 0.0 && r.gpu_idle >= 0.0, "{case}");
                }
            }
        }
    }

    #[test]
    fn optimized_is_faster_than_original_in_model_time() {
        // Dense planted graph: expansion dominates, GPUs + overlap win.
        let run = |use_opt: bool| {
            let results = Universe::run(4, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let g = planted(4, 40, 600, 17);
                let mut cfg = if use_opt {
                    MclConfig::optimized(u64::MAX)
                } else {
                    MclConfig::original_hipmcl(u64::MAX)
                };
                cfg.prune.select = 80;
                cfg.max_iters = 4;
                cluster_distributed(&grid, &mut gpus, &g, &cfg).total_time
            });
            results[0]
        };
        let t_orig = run(false);
        let t_opt = run(true);
        assert!(
            t_opt < t_orig,
            "optimized ({t_opt}) must beat original ({t_orig})"
        );
    }

    #[test]
    fn report_contains_all_stages() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let g = planted(2, 6, 5, 19);
            cluster_distributed(&grid, &mut gpus, &g, &MclConfig::testing(12))
        });
        let r = &results[0];
        let names: Vec<&str> = r.stage_times.iter().map(|(n, _)| n.as_str()).collect();
        for s in STAGES {
            assert!(names.contains(&s), "missing stage {s}");
        }
        assert!(r.total_time > 0.0);
        assert_eq!(r.trace.len(), r.iterations);
        assert_eq!(r.merge_peaks.len(), r.iterations);
        // Reports identical across ranks.
        for other in &results[1..] {
            assert_eq!(other.num_clusters, r.num_clusters);
            assert_eq!(other.total_time, r.total_time);
        }
    }

    #[test]
    fn dist_normalize_makes_global_columns_stochastic() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = planted(2, 5, 8, 23);
            let mut dm = DistMatrix::from_global(&grid, &g.to_triples());
            dist_normalize(&grid, &mut dm.local);
            let local_sums: Vec<f64> = (0..dm.local.ncols())
                .map(|j| dm.local.col_vals(j).iter().sum())
                .collect();
            let sums = allreduce_sum_vec(&grid.col_comm, local_sums);
            sums.iter().all(|&s| s == 0.0 || (s - 1.0).abs() < 1e-9)
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn chaos_not_poisoned_by_empty_local_panels() {
        // n = 2 on a 3×3 grid: even_chunk(2, 3, ·) = {1, 1, 0}, so the
        // third grid row/column owns zero rows/columns. The empty panels
        // must contribute the fold identity (0.0) to the world max — the
        // regression this pins is an uninitialized/−∞ local leaking in.
        let mut t = Triples::new(2, 2);
        t.push(0, 0, 0.9);
        t.push(1, 0, 0.1);
        t.push(0, 1, 0.2);
        t.push(1, 1, 0.8);
        let reference = Universe::run(1, MachineModel::summit(), {
            let t = t.clone();
            move |comm| {
                let grid = ProcGrid::new(comm);
                let mut local = DistMatrix::from_global(&grid, &t).local;
                dist_inflate_and_chaos(&grid, &mut local, 2.0)
            }
        })[0];
        assert!(reference.is_finite() && reference > 0.0);
        let results = Universe::run(9, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let mut local = DistMatrix::from_global(&grid, &t.clone()).local;
            let (cols, chaos) = dist_inflate_and_chaos_cols(&grid, &mut local, 2.0);
            // Empty panels report an empty chaos vector, never NaN/−∞.
            assert_eq!(cols.len(), local.ncols());
            assert!(cols.iter().all(|c| c.is_finite() && *c >= 0.0));
            chaos
        });
        for &c in &results {
            assert_eq!(c, reference, "degenerate grid must match 1-rank chaos");
        }
    }

    #[test]
    fn shrinking_preserves_serial_clusters() {
        let g = planted(4, 6, 15, 11);
        let cfg = MclConfig::testing(12);
        let serial = crate::serial::cluster_serial(&g, &cfg);
        for p in [1usize, 4, 9] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let g = planted(4, 6, 15, 11);
                let mut cfg = MclConfig::testing(12);
                cfg.active_set = hipmcl_summa::ActiveSetPolicy::shrink();
                cluster_distributed(&grid, &mut gpus, &g, &cfg)
            });
            for r in &results {
                assert_eq!(r.num_clusters, serial.num_clusters, "p={p}");
                assert!(same_partition(&r.labels, &serial.labels), "p={p}");
                assert!(r.converged);
                // The trace exposes the shrink trajectory: active never
                // grows, active + frozen always covers the graph.
                let n = g.ncols() as u64;
                let mut prev = n;
                for it in &r.trace {
                    assert!(it.active_cols <= prev);
                    assert_eq!(it.active_cols + it.frozen_cols, n);
                    prev = it.active_cols;
                }
                assert_eq!(r.active_cols + r.frozen_cols, g.ncols());
            }
        }
    }

    #[test]
    fn shrink_with_zero_epsilon_is_bit_identical_to_off() {
        let run = |policy: hipmcl_summa::ActiveSetPolicy| {
            let results = Universe::run(4, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let g = planted(3, 7, 12, 13);
                let mut cfg = MclConfig::testing(12);
                cfg.active_set = policy;
                cluster_distributed(&grid, &mut gpus, &g, &cfg)
            });
            results.into_iter().next().unwrap()
        };
        let off = run(hipmcl_summa::ActiveSetPolicy::Off);
        let zero = run(hipmcl_summa::ActiveSetPolicy::Shrink {
            epsilon: 0.0,
            min_shrink_frac: 0.0,
            reshard_every: 1,
        });
        assert_eq!(off.labels, zero.labels);
        assert_eq!(off.iterations, zero.iterations);
        assert_eq!(zero.frozen_cols, 0);
    }

    #[test]
    fn iter_trace_wire_round_trip_and_old_bytes_rejected() {
        let it = IterTrace {
            flops: 123,
            nnz_expanded: 99,
            nnz_pruned: 70,
            cf: 1.76,
            chaos: 0.25,
            active_cols: 40,
            frozen_cols: 8,
            reshard_time: 0.125,
            expansion_time: 1.5,
            merge_time: 0.5,
        };
        let bytes = it.encoded();
        let back = IterTrace::decode_all(&bytes).unwrap();
        assert_eq!(back.encoded(), bytes);
        assert_eq!(back.active_cols, 40);
        assert_eq!(back.frozen_cols, 8);
        assert_eq!(back.reshard_time.to_bits(), 0.125f64.to_bits());
        // Pre-active-set bytes (flops..chaos only) no longer decode: the
        // reader runs out before the new fields and must error, not
        // fabricate defaults.
        let mut old = Vec::new();
        it.flops.encode(&mut old);
        it.nnz_expanded.encode(&mut old);
        it.nnz_pruned.encode(&mut old);
        it.cf.encode(&mut old);
        it.chaos.encode(&mut old);
        assert!(IterTrace::decode_all(&old).is_err());
    }

    #[test]
    fn report_wire_round_trip_and_old_bytes_rejected() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let g = planted(2, 6, 5, 19);
            cluster_distributed(&grid, &mut gpus, &g, &MclConfig::testing(12))
        });
        let r = &results[0];
        let bytes = r.encoded();
        let back = DistMclReport::decode_all(&bytes).unwrap();
        assert_eq!(back.encoded(), bytes);
        assert_eq!(back.active_cols, r.active_cols);
        assert_eq!(back.frozen_cols, r.frozen_cols);
        // A buffer without the trailing active-set fields (the pre-shrink
        // report layout) is rejected as truncated.
        let old = &bytes[..bytes.len() - 3 * 8];
        assert!(DistMclReport::decode_all(old).is_err());
    }

    #[test]
    fn chaos_zero_on_converged_matrix() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let idm = DistMatrix::from_global(&grid, &Csc::<f64>::identity(8).to_triples());
            let mut local = idm.local.clone();
            dist_inflate_and_chaos(&grid, &mut local, 2.0)
        });
        assert!(results.iter().all(|&c| c == 0.0));
    }
}
