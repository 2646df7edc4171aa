//! The traced run: every layer's public calls on the workload's input,
//! each output checked before its time is reported.

use crate::input::{same_matrix, Input, Workload};
use crate::mcl::{run_ops, Oracle};
use crate::report::{median, Report};
use crate::slice;
use crate::trace::Tracer;
use crate::Args;
use hipmcl_comm::{GpuLib, MachineModel, MergeKernel, TimeModel};
use hipmcl_core::{cluster_serial, MclConfig};
use hipmcl_sparse::components::connected_components;
use hipmcl_sparse::Csc;
use hipmcl_spgemm::estimate::CohenEstimator;
use hipmcl_summa::merge::{merge_algo, MergeKernelPolicy, StackMerger};
use std::time::Duration;

/// Each kernel call is repeated up to `KERNEL_REPS` times while the
/// repetitions total less than `KERNEL_TIME`; the median is reported.
const KERNEL_REPS: usize = 3;
const KERNEL_TIME: f64 = 2.0;
/// SUMMA stages whose products the merge kernels combine.
const MERGE_STAGES: usize = 4;
/// Keys per vertex of the Cohen estimate, as in the optimized preset.
const COHEN_R: usize = 5;

/// Times `f` under span `name` (see `KERNEL_REPS`), checks the first
/// output with `ok`, and returns the median time.
fn kernel<T>(
    tr: &mut Tracer,
    rep: &mut Report,
    name: &'static str,
    mut f: impl FnMut() -> T,
    ok: impl Fn(&T) -> bool,
) -> f64 {
    let out = tr.time(name, &mut f);
    rep.check(ok(&out), name);
    drop(out);
    while tr.durations(name).len() < KERNEL_REPS && tr.total(name) < KERNEL_TIME {
        std::hint::black_box(tr.time(name, &mut f));
    }
    median(&tr.durations(name))
}

pub fn run_traced(args: &Args) -> Report {
    let w = args.workload;
    let cfg = w.mcl_config();
    let mut tr = Tracer::new(true);
    let mut rep = Report::default();
    let input = Input::build(w, args.seed, args.shrink, &mut tr);
    let a = &input.prepared;
    rep.metric("workloads.generate_s", tr.total("workloads.generate"), "s");
    rep.metric(
        "sparse.from_triples_s",
        tr.total("sparse.from_triples"),
        "s",
    );
    rep.metric("core.prepare_s", tr.total("core.prepare"), "s");
    rep.metric("workloads.n", a.ncols() as f64, "count");
    rep.metric("workloads.nnz", a.nnz() as f64, "count");

    // Local SpGEMM kernels on A·A, against the hash kernel's product.
    // The first product is the reference; the timed calls must
    // reproduce it.
    let c = tr.time("spgemm.hash", || hipmcl_spgemm::hash::multiply(a, a));
    rep.check(
        c.validate().is_ok(),
        "spgemm.hash output is a valid CSC matrix",
    );
    let flops = hipmcl_spgemm::flops(a, a) as f64;
    let matches = |x: &Csc<f64>| same_matrix(x, &c);
    let t_hash = kernel(
        &mut tr,
        &mut rep,
        "spgemm.hash",
        || hipmcl_spgemm::hash::multiply(a, a),
        matches,
    );
    let t_spa = kernel(
        &mut tr,
        &mut rep,
        "spgemm.spa",
        || hipmcl_spgemm::spa::multiply(a, a),
        matches,
    );
    let gpu = |lib| move || hipmcl_gpu::libs::multiply_csc(a, a, lib);
    let t_nsparse = kernel(
        &mut tr,
        &mut rep,
        "gpu.nsparse",
        gpu(GpuLib::Nsparse),
        matches,
    );
    let t_bhsparse = kernel(
        &mut tr,
        &mut rep,
        "gpu.bhsparse",
        gpu(GpuLib::Bhsparse),
        matches,
    );
    let t_rmerge2 = kernel(
        &mut tr,
        &mut rep,
        "gpu.rmerge2",
        gpu(GpuLib::Rmerge2),
        matches,
    );
    rep.metric("spgemm.hash_s", t_hash, "s");
    rep.metric("spgemm.hash_gflop_s", flops / t_hash / 1e9, "GFLOP/s");
    rep.metric("spgemm.spa_s", t_spa, "s");
    rep.metric("spgemm.flops", flops, "count");
    rep.metric("spgemm.cf", flops / c.nnz() as f64, "ratio");
    rep.metric(
        "spgemm.bytes_computed",
        (2 * a.bytes() + c.bytes()) as f64,
        "B",
    );
    rep.metric("gpu.nsparse_s", t_nsparse, "s");
    rep.metric("gpu.nsparse_gflop_s", flops / t_nsparse / 1e9, "GFLOP/s");
    rep.metric("gpu.bhsparse_s", t_bhsparse, "s");
    rep.metric("gpu.rmerge2_s", t_rmerge2, "s");

    // Output-size estimation: exact symbolic count and the Cohen sketch.
    let nnz = c.nnz() as u64;
    let t_symbolic = kernel(
        &mut tr,
        &mut rep,
        "spgemm.symbolic",
        || hipmcl_spgemm::symbolic::output_nnz(a, a),
        |&x| x == nnz,
    );
    let cohen = CohenEstimator::new(COHEN_R, cfg.summa.seed);
    let estimate = cohen.estimate_total(a, a);
    let t_cohen = kernel(
        &mut tr,
        &mut rep,
        "spgemm.cohen",
        || cohen.estimate_total(a, a),
        |&e| e == estimate && e > 0.0,
    );
    let rel_err = hipmcl_spgemm::estimate::relative_error(estimate, nnz as f64);
    rep.metric("spgemm.cohen_s", t_cohen, "s");
    rep.metric("spgemm.symbolic_s", t_symbolic, "s");
    rep.metric("summa.estimate_rel_err", rel_err.abs(), "ratio");

    merge_kernels(a, &c, &mut tr, &mut rep);

    let s = tr.open("sparse.components");
    let (labels, k) = connected_components(a);
    tr.close(s);
    let consistent = a
        .iter()
        .all(|(i, j, _)| labels[i as usize] == labels[j as usize]);
    let distinct: std::collections::HashSet<u32> = labels.iter().copied().collect();
    rep.check(
        consistent && distinct.len() == k,
        "sparse.components labels",
    );
    rep.metric("sparse.components_s", tr.total("sparse.components"), "s");
    drop(c);

    // Serial MCL: the oracle and the single-threaded baseline.
    let serial = tr.time("core.serial_mcl", || cluster_serial(&input.adjacency, &cfg));
    rep.metric("core.serial_mcl_s", tr.total("core.serial_mcl"), "s");
    let oracle = Oracle::new(serial);
    traced_mcl(
        &input,
        &cfg,
        &oracle,
        args.seconds,
        &mut rep,
        w != Workload::Slice,
    );

    // Communication: one traced two-rank TCP universe on this input.
    let slice = slice::run_universe(args, slice::TRACE_REPS, true, 0)
        .inspect_err(|e| rep.check(false, &format!("traced slice universe: {e}")))
        .ok();
    if let Some(u) = &slice {
        for &f in u.all("failed") {
            rep.check(f == 0.0, "slice exchange, ping-pong or wire round trip");
        }
    }
    let field = |key: &str| slice.as_ref().map_or(f64::NAN, |u| u.one(key));
    for (key, name, unit) in [
        ("comm_setup_s", "comm.setup_s", "s"),
        ("msgs_sent", "comm.msgs_sent", "count"),
        ("bytes_sent", "comm.bytes_sent", "B"),
        ("wait_s", "comm.wait_s", "s"),
        ("bcast_s", "comm.bcast_s", "s"),
        ("allreduce_s", "comm.allreduce_s", "s"),
        ("topk_s", "summa.topk_s", "s"),
        ("wire_encode_s", "sparse.wire_encode_s", "s"),
        ("wire_decode_s", "sparse.wire_decode_s", "s"),
        ("rtt_64b_us", "comm.rtt_64b_us", "us"),
        ("rtt_64kib_us", "comm.rtt_64kib_us", "us"),
        ("bw_4mib_mb_s", "comm.bw_4mib_mb_s", "MB/s"),
    ] {
        rep.metric(name, field(key), unit);
    }
    if w == Workload::Slice {
        let all = |key: &str| slice.as_ref().map_or(f64::NAN, |u| median(u.all(key)));
        overhead(&mut rep, all("wall_s"), all("untraced_wall_s"));
    }

    match tr.write(&format!("{}-{}", w.name(), args.seed.unwrap_or(0))) {
        Ok(path) => rep.note(format!("spans written to {path}")),
        Err(e) => eprintln!("perfbench: {e}"),
    }
    rep
}

/// Tracing overhead of the workload's operation: the traced time
/// against the untraced one.
fn overhead(rep: &mut Report, traced: f64, untraced: f64) {
    rep.metric("trace.wall_s", traced, "s");
    rep.metric("trace.untraced_wall_s", untraced, "s");
    rep.metric("trace.overhead_frac", traced / untraced - 1.0, "ratio");
}

/// Merge kernels on `MERGE_STAGES` genuine SUMMA stage products of
/// `A·A`: stage `i` contributes `A(:, J_i)·A(J_i, :)`, so the products
/// overlap and sum to `c`.
fn merge_kernels(a: &Csc<f64>, c: &Csc<f64>, tr: &mut Tracer, rep: &mut Report) {
    let n = a.ncols();
    let at = a.transposed();
    let slabs: Vec<Csc<f64>> = (0..MERGE_STAGES)
        .map(|i| {
            let cols = n * i / MERGE_STAGES..n * (i + 1) / MERGE_STAGES;
            let a_stage = a.column_slice(cols.clone());
            let b_stage = at.column_slice(cols).transposed();
            hipmcl_spgemm::hash::multiply(&a_stage, &b_stage)
        })
        .collect();
    let shape = (n, n);
    let matches = |x: &Csc<f64>| same_matrix(x, c);
    for (name, metric, kernel_tag) in [
        (
            "summa.merge.brmerge",
            "summa.merge.brmerge_s",
            MergeKernel::BrMerge,
        ),
        (
            "summa.merge.spadd",
            "summa.merge.spadd_s",
            MergeKernel::SpAdd,
        ),
        ("summa.merge.kway", "summa.merge.kway_s", MergeKernel::Heap),
    ] {
        let t = kernel(
            tr,
            rep,
            name,
            || merge_algo(kernel_tag).merge(&slabs, shape),
            matches,
        );
        rep.metric(metric, t, "s");
    }
    // The pipeline's binary merge (Algorithm 2, `Auto` kernel choice).
    let mut merger = StackMerger::new(MachineModel::summit_bench(), MergeKernelPolicy::Auto, shape);
    let t = kernel(
        tr,
        rep,
        "summa.merge",
        || {
            for s in slabs.iter().cloned() {
                merger.push(s);
            }
            merger.finish()
        },
        matches,
    );
    rep.metric("summa.merge_s", t, "s");
}

/// Distributed MCL at one rank: untraced operations (modeled
/// time), then operations under measured time, each for a quarter of
/// `--seconds` (at least one). Stage times are medians over the traced
/// operations' `DistMclReport`s; for the MCL workloads the traced
/// against the untraced median is the tracing overhead.
fn traced_mcl(
    input: &Input,
    cfg: &MclConfig,
    oracle: &Oracle,
    seconds: Duration,
    rep: &mut Report,
    with_overhead: bool,
) {
    let untraced: Vec<f64> = if with_overhead {
        run_ops(TimeModel::Modeled, input, cfg, seconds / 4)
            .iter()
            .map(|o| o.wall_s)
            .collect()
    } else {
        Vec::new()
    };
    let ops = run_ops(TimeModel::Measured, input, cfg, seconds / 4);
    let mut reports = Vec::new();
    for op in &ops {
        let verdict = oracle.check(op);
        rep.check(
            verdict.is_ok(),
            &format!("traced MCL: {}", verdict.err().unwrap_or_default()),
        );
        reports.extend(op.result.as_ref().ok());
    }
    let stage = |name: &str| {
        let times: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.stage_times_measured.iter().find(|(s, _)| s == name))
            .map(|(_, t)| *t)
            .collect();
        median(&times)
    };
    rep.metric("summa.local_spgemm_s", stage("local_spgemm"), "s");
    rep.metric("summa.mem_estimation_s", stage("mem_estimation"), "s");
    rep.metric("summa.bcast_s", stage("summa_bcast"), "s");
    rep.metric("summa.pruning_s", stage("pruning"), "s");
    rep.metric("core.inflate_chaos_s", stage("other"), "s");
    let r = oracle.serial.trace.as_slice();
    let expanded: u64 = r.iter().map(|t| t.nnz_expanded).sum();
    let pruned: u64 = r.iter().map(|t| t.nnz_pruned).sum();
    rep.metric(
        "summa.prune_keep_frac",
        pruned as f64 / expanded as f64,
        "ratio",
    );
    rep.metric("core.iterations", oracle.serial.iterations as f64, "count");
    rep.metric("core.clusters", oracle.serial.num_clusters as f64, "count");
    if with_overhead {
        let traced: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
        overhead(rep, median(&traced), median(&untraced));
    }
}
