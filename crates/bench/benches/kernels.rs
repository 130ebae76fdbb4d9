//! Criterion micro-benchmarks for the sparse kernels FreeHGC is built on:
//! SpGEMM (meta-path composition, Eq. 1), PPR (neighbor influence, Eq. 11)
//! and meta-path enumeration + composition.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use freehgc_datasets::{generate, DatasetKind};
use freehgc_hetgraph::{enumerate_metapaths, CondenseContext};
use freehgc_sparse::centrality::{degree_influence, hits_authority};
use freehgc_sparse::ppr::{bipartite_influence, PprConfig};
use freehgc_sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

fn random_sparse(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(rows * nnz_per_row);
    for r in 0..rows {
        for _ in 0..nnz_per_row {
            edges.push((r as u32, rng.gen_range(0..cols as u32)));
        }
    }
    CsrMatrix::from_edges(rows, cols, &edges)
}

fn bench_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm");
    for &n in &[500usize, 2000] {
        let a = random_sparse(n, n, 8, 1);
        let b = random_sparse(n, n, 8, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(a.spgemm(&b)))
        });
    }
    group.finish();
}

fn bench_ppr(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppr_bipartite_influence");
    for &n in &[1000usize, 5000] {
        let a = random_sparse(n, n / 2, 5, 3);
        let cfg = PprConfig::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(bipartite_influence(&a, &cfg)))
        });
    }
    group.finish();
}

fn bench_importance_alternatives(c: &mut Criterion) {
    // The "NIM can be replaced by other algorithms" ablation: relative
    // cost of the importance backends.
    let a = random_sparse(2000, 1000, 5, 4);
    let mut group = c.benchmark_group("importance");
    group.bench_function("ppr", |b| {
        b.iter(|| black_box(bipartite_influence(&a, &PprConfig::default())))
    });
    group.bench_function("degree", |b| b.iter(|| black_box(degree_influence(&a))));
    group.bench_function("hits", |b| b.iter(|| black_box(hits_authority(&a, 20))));
    group.finish();
}

fn bench_metapath_composition(c: &mut Criterion) {
    let g = generate(DatasetKind::Acm, 0.5, 0);
    let root = g.schema().target();
    c.bench_function("metapath_enumerate_compose_acm", |b| {
        b.iter(|| {
            let paths = enumerate_metapaths(g.schema(), root, 2, 16);
            let engine = CondenseContext::new(&g).with_max_row_nnz(Some(256));
            let total: usize = paths.iter().map(|p| engine.adjacency(p).nnz()).sum();
            black_box(total)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_spgemm, bench_ppr, bench_importance_alternatives, bench_metapath_composition
}
criterion_main!(benches);
