//! Criterion microbenchmark: multiway vs binary merging of SUMMA
//! intermediate products (§IV), plus the three per-merge kernels
//! (heap, BRMerge, SpAdd) on one k-way merge.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hipmcl_comm::{MachineModel, MergeKernel};
use hipmcl_sparse::Csc;
use hipmcl_spgemm::testutil::random_csc;
use hipmcl_summa::merge::{kway_merge, merge_algo, MergeKernelPolicy, StackMerger};

const SHAPE: (usize, usize) = (2000, 2000);

fn slabs(k: usize) -> Vec<Csc<f64>> {
    (0..k)
        .map(|i| random_csc(SHAPE.0, SHAPE.1, 40_000, i as u64))
        .collect()
}

fn merging(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge");
    group.sample_size(10);
    for k in [4usize, 8, 16] {
        let mats = slabs(k);
        group.bench_with_input(BenchmarkId::new("multiway", k), &mats, |b, mats| {
            b.iter(|| kway_merge(mats, SHAPE))
        });
        // The merger consumes its inputs; clone them in setup so the
        // measurement covers merging only (comparable to multiway).
        // "binary-arena" is Auto — BRMerge k-cursor merges into recycled
        // arena slack, with the merger (and so its arena) persisting
        // across iterations like the pipeline's per-lane pool does
        // across phases.
        let mut bm = StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, SHAPE);
        group.bench_with_input(BenchmarkId::new("binary-arena", k), &mats, |b, mats| {
            b.iter_batched(
                || mats.to_vec(),
                |mats| {
                    for m in mats {
                        bm.push(m);
                    }
                    bm.finish()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_kernel");
    group.sample_size(10);
    let mats = slabs(8);
    for kernel in MergeKernel::all() {
        group.bench_with_input(BenchmarkId::new(kernel.name(), 8), &mats, |b, mats| {
            b.iter(|| merge_algo(kernel).merge(mats, SHAPE))
        });
    }
    group.finish();
}

criterion_group!(benches, merging, kernels);
criterion_main!(benches);
