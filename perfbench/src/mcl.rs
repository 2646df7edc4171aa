//! The one-rank MCL workloads: `cluster_distributed_from` from the
//! scattered prepared matrix to labels, checked against serial MCL.

use crate::input::{canonical, Input};
use crate::report::{describe, median, peak_rss_mib, Report};
use crate::trace::Tracer;
use crate::Args;
use hipmcl_comm::{MachineModel, ProcGrid, TimeModel, Universe, UniverseConfig};
use hipmcl_core::dist::{cluster_distributed_from, DistMclReport};
use hipmcl_core::{cluster_serial, MclConfig, MclResult};
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::Triples;
use hipmcl_summa::DistMatrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run: at least `SETUP_MIN_REPS` and for at least
/// `SETUP_MIN_TIME`; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// What one MCL operation produced, or why it produced nothing.
pub struct Op {
    pub wall_s: f64,
    pub result: Result<DistMclReport, String>,
}

/// The reference an operation must reproduce.
pub struct Oracle {
    labels: Vec<u32>,
    iterations: usize,
    pub serial: MclResult,
}

impl Oracle {
    pub fn new(serial: MclResult) -> Self {
        Self {
            labels: canonical(&serial.labels),
            iterations: serial.iterations,
            serial,
        }
    }

    /// `Ok` when `op` converged to the reference partition in the
    /// reference iteration count.
    pub fn check(&self, op: &Op) -> Result<(), String> {
        let r = op.result.as_ref()?;
        if !r.converged {
            return Err(format!("did not converge in {} iterations", r.iterations));
        }
        if r.iterations != self.iterations {
            return Err(format!(
                "{} iterations, reference {}",
                r.iterations, self.iterations
            ));
        }
        if canonical(&r.labels) != self.labels {
            return Err("partition differs from the serial reference".into());
        }
        Ok(())
    }
}

/// Runs `ops(...)` on a one-rank in-process universe after scattering
/// `global`. The body gets the grid and a fresh scatter per call.
fn one_rank<T: Send>(
    time: TimeModel,
    global: &Triples<f64>,
    body: impl Fn(&ProcGrid, &dyn Fn() -> DistMatrix) -> T + Sync,
) -> T {
    let out = Mutex::new(None);
    let cfg = UniverseConfig::new(1, MachineModel::summit_bench()).with_time(time);
    Universe::run_with(cfg, |comm| {
        let grid = ProcGrid::new(comm);
        let scatter = || DistMatrix::scatter_from_root(&grid, Some(global));
        let r = body(&grid, &scatter);
        *out.lock().expect("result slot poisoned") = Some(r);
    });
    out.into_inner()
        .expect("result slot poisoned")
        .expect("the rank body ran")
}

/// One timed `cluster_distributed_from` call on a fresh scatter; a panic
/// becomes an `Err`.
pub fn timed_op(grid: &ProcGrid, a: DistMatrix, cfg: &MclConfig) -> Op {
    let mut gpus = MultiGpu::summit_node(grid.world.model());
    grid.world.reset_instrumentation();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        cluster_distributed_from(grid, &mut gpus, a, cfg)
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    });
    Op {
        wall_s: t0.elapsed().as_secs_f64(),
        result,
    }
}

/// Runs operations back to back for about `seconds` (at least one; no
/// new operation starts when less than half the last one's time is
/// left), on a one-rank universe under `time`.
pub fn run_ops(time: TimeModel, input: &Input, cfg: &MclConfig, seconds: Duration) -> Vec<Op> {
    let global = input.triples();
    one_rank(time, &global, |grid, scatter| {
        let start = Instant::now();
        let mut ops: Vec<Op> = Vec::new();
        while ops
            .last()
            .is_none_or(|o| start.elapsed().as_secs_f64() + o.wall_s / 2.0 < seconds.as_secs_f64())
        {
            ops.push(timed_op(grid, scatter(), cfg));
        }
        ops
    })
}

/// The end-to-end run: timed set-ups (generate, build, prepare, start
/// the universe, scatter), operations for `--seconds`, then the serial
/// oracle and the checks.
pub fn run_e2e(args: &Args) -> Report {
    let w = args.workload;
    let cfg = w.mcl_config();
    let mut setups = Vec::new();
    let mut input = None;
    let start = Instant::now();
    while setups.len() < SETUP_MIN_REPS || start.elapsed() < SETUP_MIN_TIME {
        drop(input.take()); // free the previous input before timing the next
        let t0 = Instant::now();
        let inp = Input::build(w, args.seed, args.shrink, &mut Tracer::new(false));
        let global = inp.triples();
        one_rank(TimeModel::Modeled, &global, |_, scatter| {
            std::hint::black_box(scatter());
        });
        setups.push(t0.elapsed().as_secs_f64());
        input = Some(inp);
    }
    let input = input.expect("at least one set-up");
    let ops = run_ops(TimeModel::Modeled, &input, &cfg, args.seconds);
    // Read before the oracle runs, so only the set-up and the
    // operations count.
    let rss = peak_rss_mib();
    let oracle = Oracle::new(cluster_serial(&input.adjacency, &cfg));

    let mut rep = Report::default();
    for (i, op) in ops.iter().enumerate() {
        let verdict = oracle.check(op);
        rep.check(
            verdict.is_ok(),
            &format!("operation {i}: {}", verdict.err().unwrap_or_default()),
        );
    }
    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
    rep.note(format!(
        "input n={} nnz={} flops={} cf={:.3} iterations={} clusters={}",
        input.prepared.ncols(),
        input.prepared.nnz(),
        hipmcl_spgemm::flops(&input.prepared, &input.prepared),
        oracle.serial.trace.first().map_or(f64::NAN, |t| t.cf),
        oracle.serial.iterations,
        oracle.serial.num_clusters,
    ));
    rep.note(describe("wall_s", &walls));
    rep.note(describe("setup_s", &setups));
    rep.metric("wall_s", median(&walls), "s");
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("peak_rss_mib", rss, "MiB");
    rep
}
