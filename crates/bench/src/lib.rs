//! Shared infrastructure for the experiment harness binaries.
//!
//! Each `src/bin/*.rs` regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index). This library holds
//! what they share: scaled workload selection, the memory-frugal
//! scatter-based distributed MCL runner, and table/CSV output.
//!
//! All reported times are **modeled Summit times** from the virtual
//! clocks (see `hipmcl-comm`); absolute values are not expected to match
//! the paper's, but the *shape* — who wins, by what factor, where the
//! crossovers sit — is.

use hipmcl_comm::collectives::{allreduce, allreduce_sum_vec};
use hipmcl_comm::ProcGrid;
use hipmcl_core::dist::{cluster_distributed_from, dist_inflate_and_chaos, DistMclReport};
use hipmcl_core::MclConfig;
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::Csc;
use hipmcl_summa::estimate::{PhaseDecision, PhasePlanner};
use hipmcl_summa::merge::MergeKernelPolicy;
use hipmcl_summa::spgemm::CommPolicy;
use hipmcl_summa::topk::prune_local_slab;
use hipmcl_summa::DistMatrix;
use hipmcl_workloads::Dataset;
use std::io::Write;

/// Extra shrink factor from the environment (`HIPMCL_BENCH_SCALE`,
/// default 1): multiply to make every harness run that much smaller.
pub fn extra_scale() -> u64 {
    std::env::var("HIPMCL_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Reduction factor used for each paper network in the harness, chosen so
/// a full MCL run stays in seconds on a laptop-class host while keeping
/// the per-column density (and hence `cf`) regime of the original.
pub fn bench_reduction(d: Dataset) -> u64 {
    let base = match d {
        Dataset::Archaea => 2_000,
        Dataset::Eukarya => 3_000,
        Dataset::Isom100_3 => 7_000,
        Dataset::Isom100_1 => 20_000,
        Dataset::Isom100 => 23_000,
        Dataset::Metaclust50 => 300_000,
    };
    base * extra_scale()
}

/// Generates the scaled bench instance of a paper network as a prepared
/// (symmetrized, self-looped, normalized) adjacency matrix.
pub fn bench_graph(d: Dataset, cfg: &MclConfig) -> Csc<f64> {
    let net = d.instance(bench_reduction(d));
    let adj = Csc::from_triples(&net.graph);
    hipmcl_core::serial::prepare_matrix(&adj, cfg)
}

/// Per-dataset selection parameter (MCL `-S`). The paper uses ~1100 at
/// full scale; what the optimizations respond to is the *column density*
/// `d` this produces (`flops/bytes ∝ d`), so the dense isom family keeps
/// a high selection even at reduced scale, while metaclust50 — whose
/// full-scale average degree is only ~97 — stays sparse, reproducing the
/// paper's observation that it benefits less from GPUs.
pub fn bench_select(d: Dataset) -> usize {
    match d {
        Dataset::Metaclust50 => 100,
        Dataset::Isom100_1 | Dataset::Isom100 => 400,
        _ => 300,
    }
}

/// MCL settings for the harness: selection scaled to the shrunken
/// networks (the paper uses ~1000 at full scale).
pub fn bench_mcl_config_for(d: Dataset, mut base: MclConfig) -> MclConfig {
    base.prune.select = bench_select(d);
    base.max_iters = 12;
    base
}

/// [`bench_mcl_config_for`] with the default (dense) selection.
pub fn bench_mcl_config(mut base: MclConfig) -> MclConfig {
    base.prune.select = 300;
    base.max_iters = 12;
    base
}

/// Runs distributed MCL with rank-0-only workload generation (the graph
/// is scattered, not replicated — essential when simulating hundreds of
/// ranks on one host). Dispatches through [`hipmcl_comm::Universe::run_dist`],
/// so `HIPMCL_TRANSPORT` / `HIPMCL_TIME` select the transport and time
/// model without code changes.
pub fn run_scattered(p: usize, d: Dataset, cfg: &MclConfig) -> DistMclReport {
    let cfg = *cfg;
    let reports = hipmcl_comm::Universe::run_dist(
        p,
        hipmcl_comm::MachineModel::summit_bench(),
        move |comm| run_scattered_on(comm, d, &cfg),
    );
    reports.into_iter().next().unwrap()
}

/// Rank body of [`run_scattered`], reusable by binaries that need custom
/// machine models.
pub fn run_scattered_on(comm: hipmcl_comm::Comm, d: Dataset, cfg: &MclConfig) -> DistMclReport {
    let grid = ProcGrid::new(comm);
    let mut gpus = MultiGpu::summit_node(grid.world.model());
    let global = if grid.world.rank() == 0 {
        Some(bench_graph(d, cfg).to_triples())
    } else {
        None
    };
    let a = DistMatrix::scatter_from_root(&grid, global.as_ref());
    // Clock starts after setup: distribution is not part of any measured
    // stage in the paper either.
    grid.world.reset_instrumentation();
    cluster_distributed_from(&grid, &mut gpus, a, cfg)
}

/// One configuration's outcome in the merge/phase-overlap ablation
/// (`probe_merge_overlap`).
#[derive(Clone, Debug)]
pub struct MergeProbeReport {
    /// Mean over ranks of host idle time, summed over iterations.
    pub cpu_idle: f64,
    /// Mean over ranks of device/pool idle time, summed over iterations.
    pub gpu_idle: f64,
    /// Mean over ranks of merge-lane idle time, summed over iterations.
    pub merge_lane_idle: f64,
    /// Max over ranks of the peak merge working set (elements), over all
    /// iterations — the Table III memory proxy.
    pub peak_merge_elems: u64,
    /// Phases executed per iteration (rank 0's view).
    pub phases: Vec<usize>,
    /// Merge operations submitted, summed over iterations (rank 0).
    pub merge_ops: u64,
    /// Planner decisions per iteration (rank 0), present only under the
    /// overlap-aware planner.
    pub decisions: Vec<PhaseDecision>,
    /// Max over ranks of the final virtual clock.
    pub total_time: f64,
    /// Iterations executed.
    pub iterations: usize,
}

impl MergeProbeReport {
    /// The quantity the phase-planner gate compares: host idle plus
    /// device idle plus merge-lane idle — total pipeline idle off the
    /// unified timelines.
    pub fn total_idle(&self) -> f64 {
        self.cpu_idle + self.gpu_idle + self.merge_lane_idle
    }
}

/// Runs a multi-iteration distributed MCL expansion loop under the given
/// phase planner and merge-kernel policy, reporting the unified-timeline
/// idle decomposition, the peak merge working set, and the planner's
/// scored decisions. The per-rank memory budget is deliberately small so
/// `plan_phases` lands above one phase and the overlap-aware planner has
/// real headroom to search. Runs on the CPU-pipelined preset: with the
/// worker pool's slower kernels the broadcasts hide under compute, which
/// is the regime where trading re-broadcast for smaller merges pays.
pub fn run_merge_overlap_probe(
    p: usize,
    d: Dataset,
    kernel: MergeKernelPolicy,
    planner: PhasePlanner,
    per_rank_budget: u64,
    max_iters: usize,
) -> MergeProbeReport {
    let results =
        hipmcl_comm::Universe::run(p, hipmcl_comm::MachineModel::summit_bench(), move |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let mut cfg = bench_mcl_config_for(d, MclConfig::cpu_pipelined(per_rank_budget));
            cfg.summa.merge_kernel = kernel;
            cfg.summa.planner = planner;
            cfg.max_iters = max_iters;
            let global = (grid.world.rank() == 0).then(|| bench_graph(d, &cfg).to_triples());
            let mut a = DistMatrix::scatter_from_root(&grid, global.as_ref());
            grid.world.reset_instrumentation();

            let mut cpu_idle = 0.0f64;
            let mut gpu_idle = 0.0f64;
            let mut lane_idle = 0.0f64;
            let mut peak = 0u64;
            let mut merge_ops = 0u64;
            let mut phases = Vec::new();
            let mut decisions = Vec::new();
            let mut iterations = 0usize;
            for _ in 0..cfg.max_iters {
                iterations += 1;
                let prune_params = cfg.prune;
                let out = {
                    let col_comm = &grid.col_comm;
                    hipmcl_summa::spgemm::summa_spgemm_with(
                        &grid,
                        &mut gpus,
                        &a,
                        &a,
                        &cfg.summa,
                        |_, slab| {
                            let (pruned, _stats) = prune_local_slab(col_comm, &slab, &prune_params);
                            col_comm.advance_clock(
                                col_comm.model().elementwise_time(slab.nnz() as u64),
                            );
                            pruned
                        },
                    )
                };
                cpu_idle += out.cpu_idle;
                gpu_idle += out.gpu_idle;
                lane_idle += out.merge_lane_idle;
                peak = peak.max(out.merge_stats.peak_merge_elems as u64);
                merge_ops += out.merge_stats.merge_ops as u64;
                phases.push(out.phases);
                decisions.extend(out.planner_decision.clone());
                a = out.c;
                let chaos = dist_inflate_and_chaos(&grid, &mut a.local, cfg.inflation);
                if chaos < cfg.chaos_epsilon {
                    break;
                }
            }

            let idle = allreduce_sum_vec(&grid.world, vec![cpu_idle, gpu_idle, lane_idle]);
            let peak = allreduce(&grid.world, peak as f64, f64::max) as u64;
            let total_time = allreduce(&grid.world, grid.world.now(), f64::max);
            MergeProbeReport {
                cpu_idle: idle[0] / p as f64,
                gpu_idle: idle[1] / p as f64,
                merge_lane_idle: idle[2] / p as f64,
                peak_merge_elems: peak,
                phases,
                merge_ops,
                decisions,
                total_time,
                iterations,
            }
        });
    results.into_iter().next().unwrap()
}

/// One comm policy's outcome in the broadcast/gather ablation
/// (`probe_comm_policy`).
#[derive(Clone, Debug)]
pub struct CommPolicyReport {
    /// Sum over ranks and iterations of the modeled comm time of the
    /// panels as actually moved (each panel priced at its chosen mode).
    pub modeled_comm: f64,
    /// Same panels, all priced as tree broadcasts — the
    /// [`CommPolicy::Broadcast`] baseline.
    pub modeled_comm_broadcast: f64,
    /// Stage panels that went out as flat point-to-point sends, summed
    /// over ranks and iterations (0 under `Broadcast`).
    pub gather_panels: u64,
    /// Stage panels moved in total, summed over ranks and iterations.
    pub total_panels: u64,
    /// Max over ranks of the final virtual clock.
    pub total_time: f64,
    /// Iterations executed.
    pub iterations: usize,
}

/// Runs a multi-iteration distributed MCL expansion loop under the given
/// comm policy, reporting the modeled per-panel communication costs and
/// how many panels crossed to flat sends. Same loop shape as the other
/// probes; only how stage panels travel varies with `policy` — payloads
/// never change, so the product (and the clustering) is identical under
/// both policies.
///
/// Unlike the other probes this one runs on the *unscaled* Summit model:
/// `summit_bench` shrinks `α` by four orders of magnitude to match the
/// shrunken instances, which erases the latency term the broadcast/gather
/// trade-off is about. With the real `α/β` the shrunken panels sit in the
/// latency-dominated regime — exactly where hypersparse stage panels land
/// at the paper's rank counts.
pub fn run_comm_policy_probe(
    p: usize,
    d: Dataset,
    policy: CommPolicy,
    max_iters: usize,
) -> CommPolicyReport {
    let results = hipmcl_comm::Universe::run(p, hipmcl_comm::MachineModel::summit(), move |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let mut cfg = bench_mcl_config_for(d, MclConfig::optimized(4 << 30));
        cfg.summa.comm = policy;
        cfg.max_iters = max_iters;
        let global = (grid.world.rank() == 0).then(|| bench_graph(d, &cfg).to_triples());
        let mut a = DistMatrix::scatter_from_root(&grid, global.as_ref());
        grid.world.reset_instrumentation();

        let mut modeled = 0.0f64;
        let mut modeled_bcast = 0.0f64;
        let mut gather_panels = 0u64;
        let mut total_panels = 0u64;
        let mut iterations = 0usize;
        for _ in 0..cfg.max_iters {
            iterations += 1;
            let prune_params = cfg.prune;
            let out = {
                let col_comm = &grid.col_comm;
                hipmcl_summa::spgemm::summa_spgemm_with(
                    &grid,
                    &mut gpus,
                    &a,
                    &a,
                    &cfg.summa,
                    |_, slab| {
                        let (pruned, _stats) = prune_local_slab(col_comm, &slab, &prune_params);
                        col_comm
                            .advance_clock(col_comm.model().elementwise_time(slab.nnz() as u64));
                        pruned
                    },
                )
            };
            modeled += out.modeled_comm_time();
            modeled_bcast += out.modeled_comm_time_broadcast();
            gather_panels += out
                .comm_choices
                .iter()
                .filter(|c| c.mode == hipmcl_comm::CommMode::Gather)
                .count() as u64;
            total_panels += out.comm_choices.len() as u64;
            a = out.c;
            let chaos = dist_inflate_and_chaos(&grid, &mut a.local, cfg.inflation);
            if chaos < cfg.chaos_epsilon {
                break;
            }
        }

        let sums = allreduce_sum_vec(
            &grid.world,
            vec![
                modeled,
                modeled_bcast,
                gather_panels as f64,
                total_panels as f64,
            ],
        );
        let total_time = allreduce(&grid.world, grid.world.now(), f64::max);
        CommPolicyReport {
            modeled_comm: sums[0],
            modeled_comm_broadcast: sums[1],
            gather_panels: sums[2] as u64,
            total_panels: sums[3] as u64,
            total_time,
            iterations,
        }
    });
    results.into_iter().next().unwrap()
}

/// One (network, fan-in) row of the merge-gap ablation
/// (`probe_merge_gap`): **real wall-clock** times, not virtual-clock
/// model times. This is the one probe that measures the merge kernels as
/// host code — the gap it tracks is the host-side accumulator gap the
/// BRMerge/SpAdd rewrite closes, which the Summit model cannot observe.
#[derive(Clone, Debug)]
pub struct MergeGapReport {
    /// Stage fan-in: how many overlapping SUMMA stage products merge.
    pub k: usize,
    /// Total input elements across the `k` stage products.
    pub total_in_elems: u64,
    /// Output nonzeros — identical across every configuration: kernels
    /// are bit-identical within a schedule, and the two schedules agree
    /// on sparsity structure exactly (asserted inside the probe).
    pub out_nnz: u64,
    /// Best-of-reps wall time of one k-way heap merge (original HipMCL's
    /// accumulator — the multiway `kway_merge` baseline).
    pub t_kway_heap: f64,
    /// Best-of-reps wall time of one k-way Hussain-style SpAdd merge
    /// through a persistent [`MergeArena`](hipmcl_summa::merge::MergeArena)
    /// (what `Auto` now picks at this fan-in).
    pub t_kway_spadd: f64,
    /// Best-of-reps wall time of the binary stack under `Auto` — BRMerge
    /// folds into recycled arena slack (the merger persists across reps,
    /// modeling the pipeline's [`hipmcl_summa::merge::ArenaPool`] living
    /// across phases).
    pub t_binary_arena: f64,
    /// Elements of slab capacity the persistent arena retained at the
    /// end — bounded by twice its peak request (the no-leak invariant).
    pub arena_capacity_elems: usize,
    /// Largest single buffer request the arena ever served.
    pub arena_peak_request: usize,
}

impl MergeGapReport {
    /// The k-way baseline the engine actually runs: the faster of the
    /// heap and SpAdd k-way merges.
    pub fn t_kway(&self) -> f64 {
        self.t_kway_heap.min(self.t_kway_spadd)
    }

    /// Binary-vs-k-way gap: arena-backed BRMerge stack over the k-way
    /// baseline. The acceptance bar is ≤ 1.2.
    pub fn arena_ratio(&self) -> f64 {
        self.t_binary_arena / self.t_kway()
    }
}

/// Builds `k` genuine overlapping stage products of the scaled network's
/// expansion, exactly as Sparse SUMMA produces them: stage `i`
/// contributes `A(:, J_i) · A(J_i, :)`, so the products share output
/// support and sum to `A²`. Returned with the common output shape.
pub fn merge_gap_stage_products(d: Dataset, k: usize) -> (Vec<Csc<f64>>, (usize, usize)) {
    let cfg = bench_mcl_config_for(d, MclConfig::cpu_pipelined(3 << 20));
    let a = bench_graph(d, &cfg);
    let n = a.ncols();
    let at = a.transposed();
    let slabs = (0..k)
        .map(|i| {
            let cols = n * i / k..n * (i + 1) / k;
            let a_stage = a.column_slice(cols.clone());
            let b_stage = at.column_slice(cols).transposed();
            hipmcl_spgemm::hash::multiply(&a_stage, &b_stage)
        })
        .collect();
    (slabs, (n, n))
}

/// Asserts two merged results have identical sparsity structure and
/// values equal up to f64 roundoff — the cross-schedule guarantee (the
/// binary tree associates sums differently than one k-way pass; within
/// a schedule, kernels are bit-identical and checked with `==`).
fn assert_pattern_eq_values_close(a: &Csc<f64>, b: &Csc<f64>) {
    assert_eq!(a.colptr, b.colptr, "cross-schedule sparsity diverged");
    assert_eq!(a.rowidx, b.rowidx, "cross-schedule sparsity diverged");
    for (x, y) in a.vals.iter().zip(&b.vals) {
        let tol = 1e-12 * x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() <= tol,
            "cross-schedule value {x} vs {y} beyond roundoff"
        );
    }
}

/// Measures the real-time merge gap on one network at one fan-in: k-way
/// heap and k-way arena SpAdd against the binary stack under `Auto`
/// (BRMerge into recycled slack). Each configuration merges the *same*
/// stage products; the probe asserts the two k-way outputs are
/// bit-identical and the binary output pattern-identical (values equal
/// to roundoff) before reporting times (best of `reps`).
pub fn run_merge_gap_probe(d: Dataset, k: usize, reps: usize) -> MergeGapReport {
    use hipmcl_comm::{MachineModel, MergeKernel};
    use hipmcl_sparse::PlusTimes;
    use hipmcl_summa::merge::{merge_algo, spadd_into, ColsRef, MergeArena, StackMerger};

    let (slabs, shape) = merge_gap_stage_products(d, k);
    let total_in_elems: u64 = slabs.iter().map(|m| m.nnz() as u64).sum();
    let reps = reps.max(1);

    // k-way SpAdd through a persistent arena: after the first rep the
    // epoch-stamped SPAs and the output slab come back from the free
    // list, which is exactly how the pipeline runs it across phases.
    let refs: Vec<ColsRef<'_, f64>> = slabs.iter().map(ColsRef::of).collect();
    let mut arena: MergeArena<f64> = MergeArena::new();
    let mut t_kway_spadd = f64::INFINITY;
    let mut c_spadd = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let buf = spadd_into(PlusTimes::<f64>::new(), &refs, shape, &mut arena);
        let c = buf.to_csc();
        arena.release(buf);
        t_kway_spadd = t_kway_spadd.min(t0.elapsed().as_secs_f64());
        c_spadd = Some(c);
    }

    // The k-way heap and the binary stack are the pair the merge-gap gate
    // compares, so their reps are interleaved: when the probe runs inside
    // a parallel test harness, CPU contention windows hit both sides of
    // the comparison instead of skewing one. Stack pushes consume their
    // inputs, so clone outside the timed region; one merger stays alive
    // so its arena stays warm, as the pipeline's per-lane pool does.
    let mut bm = StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, shape);
    let mut t_kway_heap = f64::INFINITY;
    let mut t_binary_arena = f64::INFINITY;
    let mut c_heap = None;
    let mut c_arena = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let c = merge_algo(MergeKernel::Heap).merge(&slabs, shape);
        t_kway_heap = t_kway_heap.min(t0.elapsed().as_secs_f64());
        c_heap = Some(c);

        let mats = slabs.clone();
        let t0 = std::time::Instant::now();
        for m in mats {
            bm.push(m);
        }
        let c = bm.finish();
        t_binary_arena = t_binary_arena.min(t0.elapsed().as_secs_f64());
        c_arena = Some(c);
    }
    bm.arena().assert_no_capacity_leak();

    let (c_heap, c_spadd, c_arena) = (c_heap.unwrap(), c_spadd.unwrap(), c_arena.unwrap());
    // Bit-identity is a *kernel* contract: on the same merge inputs any
    // kernel produces the same bits. Across the two schedules the merge
    // *tree* differs (Algorithm 2 folds e.g. (s1..4 + s5..6) + s7 + s8),
    // so coincident f64 sums associate differently — pattern-identical,
    // equal to roundoff.
    assert_eq!(c_heap, c_spadd, "k-way SpAdd diverged from k-way heap");
    assert_pattern_eq_values_close(&c_heap, &c_arena);

    MergeGapReport {
        k,
        total_in_elems,
        out_nnz: c_heap.nnz() as u64,
        t_kway_heap,
        t_kway_spadd,
        t_binary_arena,
        arena_capacity_elems: bm.arena().capacity_elems(),
        arena_peak_request: bm.arena().peak_request(),
    }
}

/// Prints an aligned table: `headers` then rows of strings.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Writes rows as CSV under `results/` (created on demand); returns the
/// path written.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", headers.join(",")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join(",")).unwrap();
    }
    path
}

/// Formats seconds scaled to a friendly unit.
pub fn fmt_time(s: f64) -> String {
    if s >= 60.0 {
        format!("{:.2} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

/// Runs the scattered MCL workload for `d` with the given active-set
/// policy on the fully optimized bench configuration — one arm of the
/// `probe_active_set` ablation.
pub fn run_active_set_probe(
    p: usize,
    d: Dataset,
    policy: hipmcl_summa::ActiveSetPolicy,
) -> DistMclReport {
    let mut cfg = bench_mcl_config_for(d, MclConfig::optimized(4 << 30));
    cfg.active_set = policy;
    run_scattered(p, d, &cfg)
}

/// Summed modeled expansion + merge seconds over the final third of the
/// iterations — the tail where active-set shrinking should collapse the
/// expansion cost (the `probe_active_set` acceptance quantity).
pub fn final_third_expand_merge(r: &DistMclReport) -> f64 {
    let n = r.trace.len();
    let start = n - n.div_ceil(3);
    r.trace[start..]
        .iter()
        .map(|t| t.expansion_time + t.merge_time)
        .sum()
}

/// Paper-vs-measured footer used by every harness binary.
pub fn print_paper_note(lines: &[&str]) {
    println!();
    println!("paper reference:");
    for l in lines {
        println!("  {l}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_units() {
        assert_eq!(fmt_time(120.0), "2.00 min");
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(0.0025), "2.50 ms");
        assert_eq!(fmt_time(2.5e-6), "2.50 µs");
    }

    #[test]
    fn reductions_cover_all_datasets() {
        for d in Dataset::medium().into_iter().chain(Dataset::large()) {
            assert!(bench_reduction(d) > 0);
            let cfg = d.config(bench_reduction(d));
            assert!(cfg.n >= 64, "{} instance too small", d.name());
            assert!(
                cfg.n <= 20_000,
                "{} instance too large for the harness",
                d.name()
            );
        }
    }

    #[test]
    fn scattered_run_works_small() {
        let mut cfg = bench_mcl_config(MclConfig::optimized(u64::MAX));
        cfg.max_iters = 2;
        let r = run_scattered(4, Dataset::Archaea, &cfg);
        assert!(r.total_time > 0.0);
        assert!(r.iterations <= 2);
    }

    #[test]
    fn overlap_planner_idle_no_worse_than_memory_only() {
        // The probe_merge_overlap acceptance check: with a constrained
        // per-rank budget (so the memory floor sits above one phase), the
        // overlap-aware planner must (a) never pick fewer phases than the
        // memory floor — same peak-memory guarantee — and (b) end the run
        // with total pipeline idle (host + device + merge lanes) no worse
        // than the memory-only plan on both reference workloads, strictly
        // better in the planner's own objective where it deviates.
        let budget = 3 << 20;
        let iters = 3;
        let mut deviated = false;
        for d in [Dataset::Archaea, Dataset::Isom100_3] {
            let mem = run_merge_overlap_probe(
                4,
                d,
                MergeKernelPolicy::Auto,
                PhasePlanner::MemoryOnly,
                budget,
                iters,
            );
            let ovl = run_merge_overlap_probe(
                4,
                d,
                MergeKernelPolicy::Auto,
                PhasePlanner::OverlapAware {
                    max_extra_phases: 4,
                },
                budget,
                iters,
            );
            assert_eq!(mem.iterations, ovl.iterations);
            assert!(mem.decisions.is_empty(), "memory-only records no decision");
            assert_eq!(ovl.decisions.len(), ovl.iterations);
            for (dec, mem_phases) in ovl.decisions.iter().zip(&mem.phases) {
                assert_eq!(dec.memory_floor, *mem_phases, "same floor both ways");
                assert!(dec.phases >= dec.memory_floor, "never below the floor");
                let score_of = |h: usize| {
                    dec.scores
                        .iter()
                        .find(|(hh, _)| *hh == h)
                        .map(|(_, s)| *s)
                        .unwrap()
                };
                if dec.phases != dec.memory_floor {
                    deviated = true;
                    assert!(
                        score_of(dec.phases) < score_of(dec.memory_floor),
                        "deviating from the floor must strictly reduce modeled idle"
                    );
                }
            }
            assert!(
                ovl.total_idle() <= mem.total_idle() * (1.0 + 1e-9),
                "{}: overlap-aware idle {} must be <= memory-only idle {}",
                d.name(),
                ovl.total_idle(),
                mem.total_idle()
            );
        }
        assert!(
            deviated,
            "the budget should leave the planner real headroom on at least one workload"
        );
    }

    #[test]
    fn merge_kernel_choice_preserves_clusters() {
        // Satellite of the merge-task refactor: the per-merge kernel is a
        // performance choice only — all four policies must produce the
        // same clustering on the archaea workload end-to-end.
        use hipmcl_comm::MergeKernel;
        let run = |kernel: MergeKernelPolicy| {
            let mut cfg = bench_mcl_config(MclConfig::optimized(u64::MAX));
            cfg.summa.merge_kernel = kernel;
            cfg.max_iters = 3;
            run_scattered(4, Dataset::Archaea, &cfg)
        };
        let auto = run(MergeKernelPolicy::Auto);
        for kernel in MergeKernel::all() {
            let fixed = run(MergeKernelPolicy::Fixed(kernel));
            assert_eq!(auto.labels, fixed.labels, "{} diverged", kernel.name());
            assert_eq!(auto.num_clusters, fixed.num_clusters);
        }
    }

    #[test]
    fn hybrid_comm_modeled_time_no_worse_than_broadcast() {
        // The probe_comm_policy acceptance check: on both reference
        // workloads, the Hybrid policy's modeled comm time must not
        // exceed the all-broadcast baseline — per panel it takes the
        // model's argmin, so the sum can only tie or win — and on a 3×3
        // grid (α + 2βb flat vs 2α + 2βb tree) it must actually move
        // panels to flat sends and strictly win. Payloads are unchanged,
        // so both policies moved exactly the same panels.
        let iters = 3;
        for d in [Dataset::Archaea, Dataset::Isom100_3] {
            let bcast = run_comm_policy_probe(9, d, CommPolicy::Broadcast, iters);
            let hybrid = run_comm_policy_probe(9, d, CommPolicy::Hybrid, iters);
            assert_eq!(bcast.iterations, hybrid.iterations, "{}", d.name());
            assert_eq!(bcast.total_panels, hybrid.total_panels, "{}", d.name());
            assert_eq!(bcast.gather_panels, 0, "broadcast never sends flat");
            // Identical panels → identical all-tree baseline.
            assert!(
                (bcast.modeled_comm - hybrid.modeled_comm_broadcast).abs()
                    < 1e-9 * bcast.modeled_comm.max(1.0),
                "{}: baselines diverged {} vs {}",
                d.name(),
                bcast.modeled_comm,
                hybrid.modeled_comm_broadcast
            );
            assert!(
                hybrid.modeled_comm <= bcast.modeled_comm * (1.0 + 1e-9),
                "{}: hybrid modeled comm {} must be <= broadcast {}",
                d.name(),
                hybrid.modeled_comm,
                bcast.modeled_comm
            );
            assert!(hybrid.gather_panels > 0, "{}", d.name());
            assert!(
                hybrid.modeled_comm < bcast.modeled_comm,
                "{}: with panels on flat sends the win must be strict",
                d.name()
            );
        }
    }

    #[test]
    fn optimizations_change_the_schedule_not_the_math() {
        // Original HipMCL and the fully optimized preset differ in where
        // and when each multiply and merge runs (kernels, estimator,
        // pipelining, merge scheme), never in what is computed: every
        // iteration must see the same flops and keep the same pruned
        // nonzeros, and the runs must converge together to the same
        // clusters. Isom100_1 holds too but costs ~95 s, so it is left to
        // the harness binaries.
        for d in [Dataset::Archaea, Dataset::Metaclust50] {
            let run = |base| run_scattered(4, d, &bench_mcl_config_for(d, base));
            let orig = run(MclConfig::original_hipmcl(4 << 30));
            let opt = run(MclConfig::optimized(4 << 30));
            let name = d.name();
            assert_eq!(orig.iterations, opt.iterations, "{name}");
            assert_eq!(orig.trace.len(), opt.trace.len(), "{name}");
            for (i, (o, p)) in orig.trace.iter().zip(&opt.trace).enumerate() {
                assert_eq!(o.flops, p.flops, "{name} iteration {i}: flops");
                assert_eq!(
                    o.nnz_pruned, p.nnz_pruned,
                    "{name} iteration {i}: pruned nnz"
                );
            }
            assert_eq!(orig.num_clusters, opt.num_clusters, "{name}");
        }
    }

    #[test]
    fn comm_policy_preserves_clusters() {
        // How a panel travels never changes what arrives: cluster labels
        // must be bit-identical under both comm policies.
        let run = |policy: CommPolicy| {
            let mut cfg = bench_mcl_config(MclConfig::optimized(u64::MAX));
            cfg.summa.comm = policy;
            cfg.max_iters = 3;
            run_scattered(4, Dataset::Archaea, &cfg)
        };
        let bcast = run(CommPolicy::Broadcast);
        let hybrid = run(CommPolicy::Hybrid);
        assert_eq!(bcast.labels, hybrid.labels);
        assert_eq!(bcast.num_clusters, hybrid.num_clusters);
        assert_eq!(bcast.iterations, hybrid.iterations);
    }

    #[test]
    fn active_set_shrinks_the_tail_without_changing_clusters() {
        // The probe_active_set acceptance check: on Archaea at 9 ranks
        // the dual settle criterion (chaos AND feedback row mass below
        // epsilon) must leave the cluster labels bit-identical, and the
        // summed modeled expansion + merge time over the final third of
        // the iterations must be strictly lower with shrinking on — the
        // frozen columns stop paying SpGEMM cost.
        use hipmcl_summa::ActiveSetPolicy;
        let off = run_active_set_probe(9, Dataset::Archaea, ActiveSetPolicy::Off);
        let on = run_active_set_probe(9, Dataset::Archaea, ActiveSetPolicy::shrink());
        assert_eq!(off.labels, on.labels, "shrinking changed the clusters");
        assert_eq!(off.num_clusters, on.num_clusters);
        assert!(on.frozen_cols > 0, "the workload must actually shrink");
        assert_eq!(on.frozen_cols + on.active_cols, off.active_cols);
        let full = final_third_expand_merge(&off);
        let shrunk = final_third_expand_merge(&on);
        assert!(
            shrunk < full,
            "final-third expansion+merge must strictly win: {shrunk} vs {full}"
        );
        // The trace accounts for every column on every iteration.
        for it in &on.trace {
            assert_eq!(
                it.active_cols + it.frozen_cols,
                off.active_cols as u64,
                "active + frozen must partition the columns"
            );
        }
    }

    #[test]
    fn merge_gap_arena_stack_not_slower_than_kway_heap() {
        // The probe_merge_gap acceptance check, in its robust in-test
        // form: the arena-backed binary stack (Auto → BRMerge into
        // recycled slack) must not lose to one k-way heap merge —
        // original HipMCL's multiway accumulator — on the same stage
        // products. The committed CSV additionally holds the absolute
        // arena_ratio ≤ 1.2 bar against the faster k-way kernel; here we
        // gate on the relative comparison, which is stable across hosts.
        // Bit-identity of the k-way kernels and pattern identity of the
        // binary stack are asserted inside run_merge_gap_probe itself.
        let r = run_merge_gap_probe(Dataset::Archaea, 4, 5);
        assert!(r.out_nnz > 0);
        assert!(r.total_in_elems >= r.out_nnz);
        // The 15% allowance absorbs scheduler noise from the parallel
        // test harness on small hosts (reps are interleaved inside the
        // probe for the same reason).
        assert!(
            r.t_binary_arena <= r.t_kway_heap * 1.15,
            "arena binary stack {}s must not exceed the k-way heap merge {}s by >15%",
            r.t_binary_arena,
            r.t_kway_heap
        );
        // The persistent arena obeys the no-leak bound: retained slab
        // capacity stays within twice its peak request.
        assert!(r.arena_peak_request > 0);
        assert!(r.arena_capacity_elems <= 2 * r.arena_peak_request);
    }

    #[test]
    fn merge_peak_elems_is_schedule_not_kernel_determined() {
        // The peak merge working set is a property of the binary
        // *schedule* (how many slabs coexist), not of which accumulator
        // runs each merge — so Auto (BRMerge/SpAdd arena kernels) must
        // report exactly the peak that the heap kernel does on the same
        // run. Guards against the arena staging buffers ever leaking
        // into the memory accounting.
        let planner = PhasePlanner::MemoryOnly;
        let budget = 3u64 << 20;
        let heap = run_merge_overlap_probe(
            4,
            Dataset::Archaea,
            MergeKernelPolicy::Fixed(hipmcl_comm::MergeKernel::Heap),
            planner,
            budget,
            2,
        );
        let auto = run_merge_overlap_probe(
            4,
            Dataset::Archaea,
            MergeKernelPolicy::Auto,
            planner,
            budget,
            2,
        );
        assert_eq!(heap.peak_merge_elems, auto.peak_merge_elems);
        assert_eq!(heap.merge_ops, auto.merge_ops);
        assert_eq!(heap.phases, auto.phases);
    }
}
