//! Criterion benches for the multilevel partitioner: scaling with graph
//! size, a host-heavy BRITE graph that barely coarsens, multi-constraint
//! overhead, the §2.3 multi-objective pipeline, and the related-work
//! baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use massf_core::graph::{CsrGraph, GraphBuilder, VertexId};
use massf_core::mapping::weights::latency_graph;
use massf_core::partition::baselines::{bfs_contiguous, greedy_k_cluster, random_partition};
use massf_core::partition::multiobjective::combine_and_partition;
use massf_core::prelude::*;
use massf_core::topology::brite::{self, BriteConfig};
use rand::SeedableRng;
use std::hint::black_box;

fn grid_graph(side: usize, ncon: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(ncon);
    for v in 0..side * side {
        let mut w = vec![1i64; ncon];
        if ncon > 1 {
            w[1] = (v % 7) as i64;
        }
        b.add_vertex(&w);
    }
    let id = |x: usize, y: usize| (y * side + x) as VertexId;
    for y in 0..side {
        for x in 0..side {
            if x + 1 < side {
                b.add_edge(id(x, y), id(x + 1, y), 1 + ((x * y) % 5) as i64)
                    .unwrap();
            }
            if y + 1 < side {
                b.add_edge(id(x, y), id(x, y + 1), 1 + ((x + y) % 5) as i64)
                    .unwrap();
            }
        }
    }
    b.build().unwrap()
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition/kway-scaling");
    group.sample_size(10);
    for side in [16usize, 40, 80, 160] {
        let g = grid_graph(side, 1);
        group.bench_with_input(BenchmarkId::from_parameter(side * side), &g, |b, g| {
            let cfg = PartitionConfig::new(8);
            b.iter(|| black_box(partition_kway(g, &cfg)));
        });
    }
    group.finish();
}

fn bench_host_heavy(c: &mut Criterion) {
    // TOP's latency graph of the 20,400-node BRITE network: 400 routers,
    // each with about 50 leaf hosts. Heavy-edge matching pairs a router
    // with one leaf at most, so coarsening stops at the finest level and
    // initial partitioning runs on the whole graph, unlike on the grids.
    let g = latency_graph(&brite::generate(&BriteConfig::million_host(0.02)));
    let mut group = c.benchmark_group("partition/kway-host-heavy");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter(g.nvtxs()), &g, |b, g| {
        let cfg = PartitionConfig::new(16);
        b.iter(|| black_box(partition_kway(g, &cfg)));
    });
    group.finish();
}

fn bench_restart_threads(c: &mut Criterion) {
    // Best-of-N restart search with the serial fold (threads = 1) as
    // baseline; each restart is an independent multilevel run, so this is
    // the partitioner's parallel speedup ceiling.
    let g = grid_graph(80, 1);
    let mut group = c.benchmark_group("partition/restart-threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let cfg = PartitionConfig::new(8).with_threads(Parallelism::new(t));
            b.iter(|| black_box(partition_kway(&g, &cfg)));
        });
    }
    group.finish();
}

fn bench_multiconstraint(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition/multiconstraint");
    group.sample_size(10);
    for ncon in [1usize, 2, 4] {
        let g = grid_graph(40, ncon);
        group.bench_with_input(BenchmarkId::from_parameter(ncon), &g, |b, g| {
            let cfg = PartitionConfig::new(4).with_ubfactor(1.3);
            b.iter(|| black_box(partition_kway(g, &cfg)));
        });
    }
    group.finish();
}

fn bench_multiobjective(c: &mut Criterion) {
    let g_lat = grid_graph(40, 1);
    let g_bw = g_lat.map_edge_weights(|u, v, w| 1 + ((u as i64 * 31 + v as i64) % 17) * w);
    c.bench_function("partition/multiobjective-pipeline", |b| {
        let cfg = PartitionConfig::new(4);
        b.iter(|| black_box(combine_and_partition(&g_lat, &g_bw, 0.6, &cfg)));
    });
}

fn bench_baselines(c: &mut Criterion) {
    let g = grid_graph(40, 1);
    let mut group = c.benchmark_group("partition/baselines");
    group.bench_function("random", |b| {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        b.iter(|| black_box(random_partition(&g, 8, &mut rng)));
    });
    group.bench_function("bfs-contiguous", |b| {
        b.iter(|| black_box(bfs_contiguous(&g, 8)));
    });
    group.bench_function("greedy-k-cluster", |b| {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        b.iter(|| black_box(greedy_k_cluster(&g, 8, &mut rng)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scaling,
    bench_host_heavy,
    bench_restart_threads,
    bench_multiconstraint,
    bench_multiobjective,
    bench_baselines
);
criterion_main!(benches);
