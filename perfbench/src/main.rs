//! Measured wall-clock benchmark of hipmcl-rs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload's end-to-end operation for
//! `--seconds` seconds (modeled time, no spans) and prints `wall_s`,
//! `setup_s` and `peak_rss_mib`. With `--trace 1` it instead times each
//! layer's public calls on the same input under spans, runs the
//! distributed MCL under `TimeModel::Measured` and one traced
//! two-rank TCP universe, and prints the per-layer metrics. Either way
//! every output is checked against an oracle, a failure is counted and
//! does not stop the run, and the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; `fail_frac`
//! (`failed / attempted`) is printed on the first line. The spans of a
//! traced run are written to `perfbench/out/`.
//!
//! `--shrink <k>` divides every input by a further factor `k`; the smoke
//! test uses it. A process started with `--slice-rank` is one rank of a
//! two-rank TCP universe started by [`slice`].

mod input;
mod layers;
mod mcl;
mod report;
mod slice;
mod trace;

use input::Workload;
use report::Report;
use std::time::Duration;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: Option<u64>,
    pub seconds: Duration,
    pub trace: bool,
    pub shrink: u64,
}

impl Args {
    /// The arguments that make a rank process rebuild this run's input.
    pub fn input_args(&self) -> Vec<String> {
        let mut v = vec![
            "--workload".into(),
            self.workload.name().into(),
            "--shrink".into(),
            self.shrink.to_string(),
        ];
        if let Some(s) = self.seed {
            v.extend(["--seed".into(), s.to_string()]);
        }
        v
    }
}

fn parse(argv: &[String]) -> Result<(Args, Vec<(String, String)>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut shrink = 1u64;
    let mut extra = Vec::new();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{key} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{key}: {what}, got {val:?}");
        match key.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or_else(|| {
                    bad(&format!("expected one of {}", Workload::names().join(", ")))
                })?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = val.parse().map_err(|_| bad("expected seconds"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--shrink" => {
                shrink = val.parse().map_err(|_| bad("expected an integer"))?;
                if shrink == 0 {
                    return Err(bad("expected at least 1"));
                }
            }
            k if k.starts_with("--") => extra.push((k.to_string(), val)),
            _ => return Err(format!("unexpected argument {key:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        Args {
            workload,
            seed,
            seconds: Duration::from_secs_f64(seconds),
            trace,
            shrink,
        },
        extra,
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--slice-rank") {
        slice::rank_main(&argv[1..]);
        return;
    }
    let (args, extra) = parse(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if let Some((k, _)) = extra.first() {
        eprintln!("perfbench: unknown option {k}");
        std::process::exit(2);
    }
    let report: Report = match (args.workload, args.trace) {
        (Workload::Slice, false) => slice::run_e2e(&args),
        (_, false) => mcl::run_e2e(&args),
        (_, true) => layers::run_traced(&args),
    };
    report.print(&args);
}
