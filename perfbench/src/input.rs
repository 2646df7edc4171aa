//! The workloads and their seeded inputs.

use crate::trace::Tracer;
use hipmcl_core::MclConfig;
use hipmcl_sparse::{Csc, Idx, Triples};
use hipmcl_workloads::{generate_protein_net, Dataset};

/// Per-rank budget handed to the phase planner, as in the repository's
/// figure harnesses: large enough that one rank runs few phases.
const PER_RANK_BUDGET: u64 = 4 << 30;

/// The benchmark's workloads. Why each exists is recorded in
/// `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Dense regime: the simulated device picks `Gpu(Nsparse)`, so host
    /// time goes to `gpu::libs`.
    Isom,
    /// Sparse regime: `spgemm`'s `CpuHash` kernel does the multiplies.
    Metaclust,
    /// One expansion's communication on a two-rank TCP communicator.
    Slice,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Isom, Workload::Metaclust, Workload::Slice];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Isom => "isom100_1-optimized-1r",
            Workload::Metaclust => "metaclust50-cpu_pipelined-1r",
            Workload::Slice => "archaea-slice-tcp-2r",
        }
    }

    pub fn names() -> Vec<&'static str> {
        Self::ALL.iter().map(|w| w.name()).collect()
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn dataset(self) -> Dataset {
        match self {
            Workload::Isom => Dataset::Isom100_1,
            Workload::Metaclust => Dataset::Metaclust50,
            Workload::Slice => Dataset::Archaea,
        }
    }

    /// Vertex reduction from the paper's size, as in the figure
    /// harnesses (`hipmcl_bench::bench_reduction`).
    fn reduction(self) -> u64 {
        match self {
            Workload::Isom => 20_000,
            Workload::Metaclust => 300_000,
            Workload::Slice => 2_000,
        }
    }

    /// MCL configuration: the paper's optimized preset (device kernels)
    /// or the CPU-pipelined one, with the harness's per-network
    /// selection, run to convergence.
    pub fn mcl_config(self) -> MclConfig {
        let (mut cfg, select) = match self {
            Workload::Isom => (MclConfig::optimized(PER_RANK_BUDGET), 400),
            Workload::Metaclust => (MclConfig::cpu_pipelined(PER_RANK_BUDGET), 100),
            Workload::Slice => (MclConfig::optimized(PER_RANK_BUDGET), 300),
        };
        cfg.prune.select = select;
        cfg
    }
}

/// One generated input: the raw adjacency (what the serial oracle
/// takes) and the prepared, column-stochastic matrix (what the
/// `cluster_distributed_from` takes).
pub struct Input {
    pub adjacency: Csc<f64>,
    pub prepared: Csc<f64>,
}

impl Input {
    /// Generates the workload's network at the benchmark scale divided
    /// by `shrink`, with its vertices renumbered by a permutation drawn
    /// from `seed` (none when `None`), and prepares it. Spans:
    /// `workloads.generate`, `sparse.from_triples`, `core.prepare`.
    ///
    /// The network itself always comes from the registry seed. At this
    /// scale a handful of planted families dominate the graph, so a
    /// different generator seed is a different workload: on Isom it
    /// moves the run between 2 and 16 iterations and 1.7 and 8.4 s. A
    /// renumbering changes every array the program sees but leaves the
    /// clustering problem, and so the work, the same.
    pub fn build(w: Workload, seed: Option<u64>, shrink: u64, tr: &mut Tracer) -> Input {
        let cfg = w.dataset().config(w.reduction() * shrink);
        let s = tr.open("workloads.generate");
        let mut graph = generate_protein_net(&cfg).graph;
        if let Some(seed) = seed {
            graph = renumbered(&graph, seed);
        }
        tr.close(s);
        let s = tr.open("sparse.from_triples");
        let adjacency = Csc::from_triples(&graph);
        tr.close(s);
        let s = tr.open("core.prepare");
        let prepared = hipmcl_core::serial::prepare_matrix(&adjacency, &w.mcl_config());
        tr.close(s);
        Input {
            adjacency,
            prepared,
        }
    }

    pub fn triples(&self) -> Triples<f64> {
        self.prepared.to_triples()
    }
}

/// `t` with vertex `v` renamed `perm[v]` for a permutation drawn from
/// `seed` (Fisher–Yates over a SplitMix64 stream).
fn renumbered(t: &Triples<f64>, seed: u64) -> Triples<f64> {
    let n = t.nrows();
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<Idx> = (0..n as Idx).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mut out = Triples::new(n, t.ncols());
    for (i, j, v) in t.iter() {
        out.push(perm[i as usize], perm[j as usize], v);
    }
    out
}

/// Relabels clusters in order of first appearance, so two labelings
/// compare equal exactly when they induce the same partition.
pub fn canonical(labels: &[u32]) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = map.len() as u32;
            *map.entry(l).or_insert(next)
        })
        .collect()
}

/// Same pattern, values equal up to floating-point reassociation.
pub fn same_matrix(a: &Csc<f64>, b: &Csc<f64>) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.colptr == b.colptr
        && a.rowidx == b.rowidx
        && a.vals
            .iter()
            .zip(&b.vals)
            .all(|(x, y)| (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0))
}

/// Rows `lo..hi` of `m`, renumbered from zero: one rank's block of a
/// column slab on a process column.
pub fn row_block(m: &Csc<f64>, lo: usize, hi: usize) -> Csc<f64> {
    let mut t = Triples::new(hi - lo, m.ncols());
    for (i, j, v) in m.iter() {
        let i = i as usize;
        if (lo..hi).contains(&i) {
            t.push((i - lo) as Idx, j, v);
        }
    }
    Csc::from_triples(&t)
}
