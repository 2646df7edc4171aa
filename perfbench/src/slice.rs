//! The two-rank TCP slice: one MCL expansion's communication as one
//! process column of a 2×2 grid sees it. Each rank broadcasts its column
//! panel of the prepared matrix, prunes its row half of `A²` with the
//! distributed top-k (`summa::topk::prune_local_slab`) and all-reduces
//! the pruned column sums.
//!
//! Every sample is one universe of two fresh rank processes, started
//! here by hand (`HIPMCL_TCP_RANK`/`RANKS`/`DIR`), so each process runs
//! exactly one socket universe and no launch-ordinal replay happens. The
//! rendezvous address is published in a rendezvous directory under
//! `perfbench/out/` and the ranks listen on loopback only.

use crate::input::{row_block, Input};
use crate::report::{describe, median, peak_rss_mib, Report};
use crate::trace::Tracer;
use crate::Args;
use hipmcl_comm::collectives::{allreduce_sum_vec, barrier, bcast};
use hipmcl_comm::{
    Comm, MachineModel, TimeModel, TransportKind, Universe, UniverseConfig, WireDecode, WireEncode,
};
use hipmcl_sparse::colops::col_sums;
use hipmcl_sparse::Csc;
use hipmcl_summa::topk::prune_local_slab;
use std::collections::HashMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Exchange scripts in one end-to-end operation. A single script over
/// TCP takes either about 15 ms or about 55 ms (when it waits out a
/// delayed acknowledgement), so an operation sums several.
const SCRIPTS_PER_OP: usize = 12;
/// Operations per universe in the end-to-end run.
const OPS_PER_UNIVERSE: usize = 4;
/// Exchange scripts per universe (each of untraced and traced) in the
/// traced run.
pub const TRACE_REPS: usize = 10;
/// A universe that has not finished by then is killed and counted as
/// failed; the receive deadline (30 s on sockets) fires before.
const UNIVERSE_TIMEOUT: Duration = Duration::from_secs(60);
/// Tag of the ping-pong messages (collectives use tags with the high bit
/// set).
const PING_TAG: u64 = 7;

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs_f64()
}

/// What a universe reports back, parsed from rank 0's `SLICE` line.
pub struct UniverseOut {
    fields: HashMap<String, Vec<f64>>,
}

impl UniverseOut {
    fn parse(line: &str) -> Option<Self> {
        let rest = line.strip_prefix("SLICE ")?;
        let mut fields = HashMap::new();
        for tok in rest.split_whitespace() {
            let (k, v) = tok.split_once('=')?;
            let vals: Option<Vec<f64>> = if v.is_empty() {
                Some(Vec::new())
            } else {
                v.split(',').map(|x| x.parse().ok()).collect()
            };
            fields.insert(k.to_string(), vals?);
        }
        Some(Self { fields })
    }

    /// All values of a field (empty when absent).
    pub fn all(&self, key: &str) -> &[f64] {
        self.fields.get(key).map_or(&[], Vec::as_slice)
    }

    /// The single value of a field (NaN when absent).
    pub fn one(&self, key: &str) -> f64 {
        self.all(key).first().copied().unwrap_or(f64::NAN)
    }
}

/// Starts one universe of two rank processes on `args`' input and waits
/// for it. `k` numbers the universe within this run.
pub fn run_universe(
    args: &Args,
    reps: usize,
    traced: bool,
    k: usize,
) -> Result<UniverseOut, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("current dir: {e}"))?
        .join("perfbench/out")
        .join(format!("sock-{}-{k}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = spawn_and_wait(args, reps, traced, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn spawn_and_wait(
    args: &Args,
    reps: usize,
    traced: bool,
    dir: &Path,
) -> Result<UniverseOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t0 = unix_now();
    let mut children = Vec::new();
    for rank in 0..2 {
        let mut cmd = Command::new(&exe);
        cmd.arg("--slice-rank")
            .args(args.input_args())
            .args(["--t0", &t0.to_string()])
            .args(["--reps", &reps.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .env("HIPMCL_TCP_RANK", rank.to_string())
            .env("HIPMCL_TCP_RANKS", "2")
            .env("HIPMCL_TCP_DIR", dir)
            .env("HIPMCL_TCP_BIND", "127.0.0.1:0")
            .env_remove("HIPMCL_TCP_ROOT")
            .env_remove("HIPMCL_TCP_UNIVERSE")
            .env_remove("HIPMCL_SHM_RANK")
            .stdin(Stdio::null())
            .stdout(if rank == 0 {
                Stdio::piped()
            } else {
                Stdio::null()
            });
        match cmd.spawn() {
            Ok(c) => children.push(c),
            Err(e) => {
                kill_all(&mut children);
                return Err(format!("spawn rank {rank}: {e}"));
            }
        }
    }
    let mut stdout = children[0].stdout.take().expect("rank 0 stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let deadline = Instant::now() + UNIVERSE_TIMEOUT;
    let mut failures = Vec::new();
    for (rank, child) in children.iter_mut().enumerate() {
        let status = loop {
            match child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        match status {
            Some(s) if s.success() => {}
            Some(s) => failures.push(format!("rank {rank} exited with {s}")),
            None => failures.push(format!("rank {rank} timed out")),
        }
    }
    kill_all(&mut children);
    let out = reader.join().unwrap_or_default();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    out.lines()
        .rev()
        .find_map(UniverseOut::parse)
        .ok_or_else(|| "rank 0 printed no SLICE line".to_string())
}

fn kill_all(children: &mut [std::process::Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// The end-to-end slice run: universes back to back for `--seconds`
/// (at least one), each running
/// `OPS_PER_UNIVERSE` operations of `SCRIPTS_PER_OP` timed exchange
/// scripts. An operation fails if any of its scripts does.
pub fn run_e2e(args: &Args) -> Report {
    let mut rep = Report::default();
    let (mut walls, mut scripts, mut setups, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed() < args.seconds {
        match run_universe(args, OPS_PER_UNIVERSE * SCRIPTS_PER_OP, false, k) {
            Ok(u) => {
                for failed in u.all("failed").chunks(SCRIPTS_PER_OP) {
                    let ok = failed.iter().all(|&f| f == 0.0);
                    rep.check(ok, &format!("universe {k}: exchange output mismatch"));
                }
                let times = u.all("wall_s");
                walls.extend(times.chunks(SCRIPTS_PER_OP).map(|c| c.iter().sum::<f64>()));
                scripts.extend_from_slice(times);
                setups.push(u.one("setup_s"));
                rss.push(u.one("peak_rss_mib"));
            }
            Err(e) => {
                for _ in 0..OPS_PER_UNIVERSE {
                    rep.check(false, &format!("universe {k}: {e}"));
                }
            }
        }
        k += 1;
    }
    rep.note(format!(
        "universes={k} operations_per_universe={OPS_PER_UNIVERSE} scripts_per_operation={SCRIPTS_PER_OP}"
    ));
    rep.note(describe("script_s", &scripts));
    rep.note(describe("wall_s", &walls));
    rep.note(describe("setup_s", &setups));
    rep.metric("wall_s", median(&walls), "s");
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("peak_rss_mib", median(&rss), "MiB");
    rep
}

/// Entry point of a rank process (`--slice-rank ...`).
pub fn rank_main(argv: &[String]) {
    let (args, extra) = crate::parse(argv).unwrap_or_else(|e| panic!("slice rank: {e}"));
    let get = |k: &str| {
        extra
            .iter()
            .find(|(key, _)| key == k)
            .unwrap_or_else(|| panic!("slice rank: {k} is required"))
            .1
            .clone()
    };
    let t0: f64 = get("--t0").parse().expect("--t0 is seconds since 1970");
    let reps: usize = get("--reps").parse().expect("--reps is a count");
    let time = if args.trace {
        TimeModel::Measured
    } else {
        TimeModel::Modeled
    };
    let cfg = UniverseConfig::new(2, MachineModel::summit_bench())
        .with_transport(TransportKind::Tcp)
        .with_time(time);
    let line = Mutex::new(String::new());
    let per_rank: Vec<Vec<f64>> = Universe::run_with(cfg, |comm| {
        let (mine, text) = rank_body(comm, &args, t0, reps);
        if let Some(t) = text {
            *line.lock().expect("line slot poisoned") = t;
        }
        mine
    });
    // Each rank returned `[peak_rss_mib, failed flag per script...]`.
    let rss = per_rank.iter().map(|v| v[0]).fold(f64::NAN, f64::max);
    let failed: Vec<String> = (1..per_rank[0].len())
        .map(|i| {
            let any = per_rank.iter().any(|v| v[i] != 0.0);
            u8::from(any).to_string()
        })
        .collect();
    let line = line.into_inner().expect("line slot poisoned");
    if !line.is_empty() {
        println!(
            "SLICE {line} peak_rss_mib={rss} failed={}",
            failed.join(",")
        );
    }
}

fn csv(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// One rank's universe body. Returns this rank's `[peak_rss_mib,
/// failed flags...]` and, on rank 0, the fields of the `SLICE` line.
fn rank_body(mut comm: Comm, args: &Args, t0: f64, reps: usize) -> (Vec<f64>, Option<String>) {
    let rank = comm.rank();
    let comm_setup_s = unix_now() - t0;
    let mut tr = Tracer::new(args.trace);
    let input = Input::build(args.workload, args.seed, args.shrink, &mut tr);
    barrier(&comm);
    let setup_s = unix_now() - t0;

    // Untimed: this rank's operands and the one-rank reference.
    let a = &input.prepared;
    let n = a.ncols();
    let bounds = [0, n / 2, n];
    let panels: Vec<Csc<f64>> = (0..2)
        .map(|r| a.column_slice(bounds[r]..bounds[r + 1]))
        .collect();
    let my_panel = Arc::new(panels[rank].clone());
    let a2 = hipmcl_spgemm::hash::multiply(a, a);
    let my_rows = row_block(&a2, bounds[rank], bounds[rank + 1]);
    let params = args.workload.mcl_config().prune;
    let solo = comm.split(rank as u64, 0);
    let (ref_full, _) = prune_local_slab(&solo, &a2, &params);
    let ref_mine = row_block(&ref_full, bounds[rank], bounds[rank + 1]);
    let ref_sums = col_sums(&ref_full);
    drop(a2);

    let script = |tr: &mut Tracer| -> (f64, bool) {
        barrier(&comm);
        let t = Instant::now();
        let s = tr.open("comm.bcast");
        let got: Vec<Arc<Csc<f64>>> = (0..2)
            .map(|root| bcast(&comm, root, (root == rank).then(|| Arc::clone(&my_panel))))
            .collect();
        tr.close(s);
        let (pruned, _) = tr.time("summa.topk", || prune_local_slab(&comm, &my_rows, &params));
        let sums = col_sums(&pruned);
        let total = tr.time("comm.allreduce", || allreduce_sum_vec(&comm, sums));
        let dt = t.elapsed().as_secs_f64();
        let ok = got.iter().zip(&panels).all(|(g, p)| **g == *p)
            && pruned == ref_mine
            && total.len() == ref_sums.len()
            && total
                .iter()
                .zip(&ref_sums)
                .all(|(x, y)| (x - y).abs() <= 1e-12 * x.abs().max(1.0));
        (dt, ok)
    };

    let mut untraced = Vec::new();
    let mut flags = Vec::new();
    if args.trace {
        let mut off = Tracer::new(false);
        for _ in 0..reps {
            let (dt, ok) = script(&mut off);
            untraced.push(dt);
            flags.push(f64::from(u8::from(!ok)));
        }
    }
    let before = comm.stats();
    let mut walls = Vec::new();
    for _ in 0..reps {
        let (dt, ok) = script(&mut tr);
        walls.push(dt);
        flags.push(f64::from(u8::from(!ok)));
    }
    let stats = comm.stats().delta_since(&before);

    let mut text = format!("wall_s={} setup_s={setup_s}", csv(&walls));
    if args.trace {
        let per = reps.max(1) as f64;
        let (rtt, ping_ok) = ping_pong(&comm);
        flags.push(f64::from(u8::from(!ping_ok)));
        let wire_ok = wire_round_trip(&my_panel, &mut tr);
        flags.push(f64::from(u8::from(!wire_ok)));
        text += &format!(
            " untraced_wall_s={} comm_setup_s={comm_setup_s} msgs_sent={} bytes_sent={} \
             wait_s={} bcast_s={} allreduce_s={} topk_s={} wire_encode_s={} wire_decode_s={} \
             rtt_64b_us={} rtt_64kib_us={} bw_4mib_mb_s={}",
            csv(&untraced),
            stats.msgs_sent as f64 / per,
            stats.bytes_sent as f64 / per,
            stats.measured_comm_s / per,
            median(&tr.durations("comm.bcast")),
            median(&tr.durations("comm.allreduce")),
            median(&tr.durations("summa.topk")),
            median(&tr.durations("sparse.wire_encode")),
            median(&tr.durations("sparse.wire_decode")),
            rtt[0] * 1e6,
            rtt[1] * 1e6,
            2.0 * (4 << 20) as f64 / rtt[2] / 1e6,
        );
    }
    if args.trace && rank == 0 {
        let label = format!(
            "{}-{}-slice-rank0",
            args.workload.name(),
            args.seed.unwrap_or(0)
        );
        if let Err(e) = tr.write(&label) {
            eprintln!("perfbench: {e}");
        }
    }
    let mut mine = vec![peak_rss_mib()];
    mine.extend(flags);
    (mine, (rank == 0).then_some(text))
}

/// Median round trip of 64 B, 64 KiB and 4 MiB messages between the two
/// ranks, and whether every echo came back intact.
fn ping_pong(comm: &Comm) -> ([f64; 3], bool) {
    let mut rtt = [0.0; 3];
    let mut ok = true;
    for (i, (bytes, reps)) in [(64usize, 50), (64 << 10, 30), (4 << 20, 8)]
        .into_iter()
        .enumerate()
    {
        barrier(comm);
        let msg: Vec<u8> = (0..bytes).map(|b| b as u8).collect();
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            if comm.rank() == 0 {
                let t = Instant::now();
                comm.send(1, PING_TAG, msg.clone());
                let back: Vec<u8> = comm.recv(1, PING_TAG);
                samples.push(t.elapsed().as_secs_f64());
                ok &= back == msg;
            } else {
                let got: Vec<u8> = comm.recv(0, PING_TAG);
                comm.send(0, PING_TAG, got);
            }
        }
        rtt[i] = median(&samples);
    }
    (rtt, ok)
}

/// Times the wire encoding and decoding of a panel and checks the round
/// trip reproduces it.
fn wire_round_trip(panel: &Csc<f64>, tr: &mut Tracer) -> bool {
    let mut ok = true;
    for _ in 0..5 {
        let bytes = tr.time("sparse.wire_encode", || panel.encoded());
        let back = tr.time("sparse.wire_decode", || Csc::<f64>::decode_all(&bytes));
        ok &= back.is_ok_and(|b| b == *panel);
    }
    ok
}
