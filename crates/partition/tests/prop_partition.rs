//! Integration tests of the partitioner.
//!
//! Property-based tests: every partitioner must return a *valid* partition
//! (full coverage of labels, no empty parts, refinement never worsens cut)
//! on arbitrary connected graphs.
//!
//! A golden pins the exact output. Speed work on the partitioner
//! (coarsening, initial growing, refinement) must choose exactly the same
//! vertices as before. `partitions_are_pinned` records a fingerprint of
//! `partition_kway`, `initial_partition` and `coarsen_to` on graphs of the
//! shapes the mapper feeds it: the host-heavy BRITE TOP latency graph
//! (where coarsening stops at the finest level), a PLACE-like graph with
//! many isolated vertices, Waxman and BA router graphs, zero-weight edges
//! and two balance constraints. Any change to a single label changes the
//! golden. Regenerate it with `MASSF_BLESS=1 cargo test -p massf-partition
//! --test prop_partition partitions_are_pinned` after an intentional change
//! to the partitions.

use massf_graph::{CsrGraph, GraphBuilder, VertexId, Weight};
use massf_mapping::weights::latency_graph;
use massf_partition::baselines::{bfs_contiguous, greedy_k_cluster, random_partition};
use massf_partition::coarsen::coarsen_to;
use massf_partition::initial::initial_partition;
use massf_partition::quality::{edge_cut, worst_balance};
use massf_partition::refine::kway_refine;
use massf_partition::{partition_kway, PartitionConfig};
use massf_topology::brite::{self, BriteConfig, GrowthModel};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write;

/// Generates a connected random graph: a random spanning tree plus extras.
fn connected_graph() -> impl Strategy<Value = CsrGraph> {
    (4usize..60, any::<u64>(), 0usize..80).prop_map(|(n, seed, extra)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(1);
        for _ in 0..n {
            b.add_vertex(&[rng.gen_range(1..20)]);
        }
        for v in 1..n as VertexId {
            let u = rng.gen_range(0..v);
            b.add_edge(u, v, rng.gen_range(1..100)).unwrap();
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n as VertexId);
            let v = rng.gen_range(0..n as VertexId);
            if u != v {
                b.add_edge(u, v, rng.gen_range(1..100)).unwrap();
            }
        }
        b.build().unwrap()
    })
}

fn assert_valid_partition(part: &[u32], nparts: usize, nvtxs: usize) {
    assert_eq!(part.len(), nvtxs);
    let mut seen = vec![false; nparts];
    for &p in part {
        assert!((p as usize) < nparts, "label {p} out of range");
        seen[p as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "some part is empty");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn multilevel_partition_is_valid(g in connected_graph(), k in 2usize..6, seed in any::<u64>()) {
        prop_assume!(k <= g.nvtxs());
        let p = partition_kway(&g, &PartitionConfig::new(k).with_seed(seed));
        assert_valid_partition(&p.part, k, g.nvtxs());
    }

    #[test]
    fn multilevel_balance_is_bounded(g in connected_graph(), k in 2usize..5) {
        prop_assume!(k <= g.nvtxs());
        let p = partition_kway(&g, &PartitionConfig::new(k));
        let wb = worst_balance(&g, &p.part, k);
        // With unit-to-20 weights and the loose feasibility clause the
        // partitioner may exceed ubfactor, but a single vertex bounds it.
        let max_v = (0..g.nvtxs() as VertexId).map(|v| g.vertex_weight0(v)).max().unwrap();
        let avg = g.total_vertex_weight()[0] as f64 / k as f64;
        let bound = 1.10f64.max((avg + max_v as f64) / avg) + 0.35;
        prop_assert!(wb <= bound, "balance {wb} > bound {bound}");
    }

    #[test]
    fn refinement_never_increases_cut(g in connected_graph(), k in 2usize..5, seed in any::<u64>()) {
        prop_assume!(k <= g.nvtxs());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let start = random_partition(&g, k, &mut rng);
        let before = edge_cut(&g, &start.part);
        let mut part = start.part.clone();
        kway_refine(&g, &mut part, &massf_partition::refine::BalanceSpec::uniform(k, vec![1.3]), 6, &mut rng);
        let after = edge_cut(&g, &part);
        prop_assert!(after <= before, "cut went {before} -> {after}");
        assert_valid_partition(&part, k, g.nvtxs());
    }

    #[test]
    fn multilevel_not_dominated_by_random(g in connected_graph(), seed in any::<u64>()) {
        prop_assume!(g.nvtxs() >= 8);
        let k = 3;
        let cfg = PartitionConfig::new(k).with_seed(seed);
        let ml = partition_kway(&g, &cfg);
        let ml_cut = edge_cut(&g, &ml.part);
        let ml_bal = worst_balance(&g, &ml.part, k);
        // The partitioner trades cut for balance, so the honest property is
        // non-domination: no random partition may be at least as *balanced*
        // AND strictly cheaper (with slack for the randomized heuristic).
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..3 {
            let r = random_partition(&g, k, &mut rng);
            let r_cut = edge_cut(&g, &r.part);
            let r_bal = worst_balance(&g, &r.part, k);
            let dominates =
                r_bal <= ml_bal + 1e-9 && (r_cut as f64) < ml_cut as f64 * 0.95 - 5.0;
            prop_assert!(
                !dominates,
                "random (bal={r_bal:.3}, cut={r_cut}) dominates multilevel \
                 (bal={ml_bal:.3}, cut={ml_cut})"
            );
        }
    }

    #[test]
    fn baselines_are_valid(g in connected_graph(), k in 2usize..5, seed in any::<u64>()) {
        prop_assume!(k <= g.nvtxs());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        assert_valid_partition(&random_partition(&g, k, &mut rng).part, k, g.nvtxs());
        assert_valid_partition(&bfs_contiguous(&g, k).part, k, g.nvtxs());
        assert_valid_partition(&greedy_k_cluster(&g, k, &mut rng).part, k, g.nvtxs());
    }

    #[test]
    fn partitioner_is_deterministic(g in connected_graph(), k in 2usize..5, seed in any::<u64>()) {
        prop_assume!(k <= g.nvtxs());
        let cfg = PartitionConfig::new(k).with_seed(seed);
        prop_assert_eq!(partition_kway(&g, &cfg), partition_kway(&g, &cfg));
    }
}

// --- Golden: exact partitions ---

const PARTS: [usize; 5] = [2, 3, 5, 8, 16];
const SEEDS: [u64; 3] = [1, 17, 4242];

/// Compares `actual` against the golden at `path` (relative to the crate
/// root), rewriting the golden instead when `MASSF_BLESS=1` is set.
fn assert_golden(actual: &str, path: &str) {
    let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("MASSF_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("cannot bless {path}: {e}"));
        return;
    }
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert_eq!(actual, golden, "partitions drifted from {path}");
}

/// 64-bit FNV-1a over a stream of integers (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn of<I: IntoIterator<Item = u64>>(xs: I) -> u64 {
        let mut h = Self::new();
        for x in xs {
            h.add(x);
        }
        h.0
    }
}

fn graph_hash(g: &CsrGraph) -> u64 {
    let xadj = g.xadj().iter().map(|&x| x as u64);
    let adjncy = g.adjncy().iter().map(|&u| u as u64);
    let adjwgt = g.adjwgt().iter().map(|&w| w as u64);
    let vwgt = g.vwgt().iter().map(|&w| w as u64);
    Fnv::of(xadj.chain(adjncy).chain(adjwgt).chain(vwgt))
}

fn labels_line(g: &CsrGraph, what: &str, k: usize, seed: u64, part: &[u32]) -> String {
    let mut sizes = vec![0usize; k];
    for &p in part {
        sizes[p as usize] += 1;
    }
    format!(
        "  {what} k={k} seed={seed} cut={} sizes={sizes:?} fnv={:016x}\n",
        edge_cut(g, part),
        Fnv::of(part.iter().map(|&p| p as u64)),
    )
}

/// The host-heavy BRITE network TOP partitions, at a tenth of the
/// benchmark's scale: 40 routers and 2,000 hosts.
fn brite_top() -> CsrGraph {
    latency_graph(&brite::generate(&BriteConfig::million_host(0.002)))
}

/// A PLACE-like graph: the BRITE skeleton where only one host in five
/// carries predicted traffic. The silent hosts keep a unit weight but
/// lose their access link, so most vertices are isolated.
fn place_like() -> CsrGraph {
    let top = brite_top();
    let n = top.nvtxs();
    let mut b = GraphBuilder::new(1);
    let active = |v: usize| top.degree(v as VertexId) > 1 || v.is_multiple_of(5);
    for v in 0..n {
        let w = if active(v) {
            top.vertex_weight0(v as VertexId) * 3
        } else {
            1
        };
        b.add_vertex(&[w]);
    }
    for v in 0..n as VertexId {
        for (u, w) in top.edges(v) {
            if v < u && active(v as usize) && active(u as usize) {
                b.add_edge(v, u, w / 7 + 1).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// A router-only BRITE graph grown by `model`.
fn routers(model: GrowthModel, routers: usize, seed: u64) -> CsrGraph {
    latency_graph(&brite::generate(&BriteConfig {
        routers,
        hosts: 0,
        model,
        seed,
        ..BriteConfig::paper_brite()
    }))
}

/// A random sparse graph where every third edge weighs zero.
fn zero_weight_edges() -> CsrGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let n: usize = 300;
    let mut b = GraphBuilder::new(1);
    for _ in 0..n {
        b.add_vertex(&[rng.gen_range(1..20)]);
    }
    for i in 0..3 * n {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u != v {
            let w: Weight = if i.is_multiple_of(3) {
                0
            } else {
                rng.gen_range(1..50)
            };
            b.add_edge(u, v, w).unwrap();
        }
    }
    b.build().unwrap()
}

/// A 20x20 grid with two balance constraints: unit load everywhere and a
/// second load concentrated on a diagonal band.
fn two_constraints() -> CsrGraph {
    let side: usize = 20;
    let mut b = GraphBuilder::new(2);
    for v in 0..side * side {
        let (x, y) = (v % side, v / side);
        let band = if x.abs_diff(y) <= 2 { 10 } else { 0 };
        b.add_vertex(&[1, band]);
    }
    let id = |x: usize, y: usize| (y * side + x) as VertexId;
    for y in 0..side {
        for x in 0..side {
            if x + 1 < side {
                b.add_edge(id(x, y), id(x + 1, y), 1 + (x * y % 4) as Weight)
                    .unwrap();
            }
            if y + 1 < side {
                b.add_edge(id(x, y), id(x, y + 1), 1 + ((x + y) % 3) as Weight)
                    .unwrap();
            }
        }
    }
    b.build().unwrap()
}

fn fingerprint(name: &str, g: &CsrGraph, out: &mut String) {
    writeln!(
        out,
        "{name} n={} m={} ncon={} graph={:016x}",
        g.nvtxs(),
        g.nedges(),
        g.ncon(),
        graph_hash(g)
    )
    .unwrap();
    let levels = coarsen_to(g, 40, &mut ChaCha8Rng::seed_from_u64(1));
    for (i, level) in levels.iter().enumerate() {
        let map = Fnv::of(level.coarse_of.iter().map(|&c| c as u64));
        writeln!(
            out,
            "  coarsen level={i} n={} m={} graph={:016x} map={map:016x}",
            level.graph.nvtxs(),
            level.graph.nedges(),
            graph_hash(&level.graph)
        )
        .unwrap();
    }
    let ubs = vec![1.1; g.ncon()];
    for k in PARTS {
        for seed in SEEDS {
            let p = partition_kway(g, &PartitionConfig::new(k).with_seed(seed));
            out.push_str(&labels_line(g, "kway", k, seed, &p.part));
            let fractions = vec![1.0 / k as f64; k];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let part = initial_partition(g, &fractions, &ubs, &mut rng);
            out.push_str(&labels_line(g, "initial", k, seed, &part));
        }
    }
}

#[test]
fn partitions_are_pinned() {
    let mut out = String::new();
    fingerprint("brite-top", &brite_top(), &mut out);
    fingerprint("place-like", &place_like(), &mut out);
    let waxman = GrowthModel::Waxman {
        alpha: 0.2,
        beta: 0.15,
    };
    fingerprint("waxman", &routers(waxman, 150, 5), &mut out);
    let ba = GrowthModel::BarabasiAlbert { m: 2 };
    fingerprint("ba", &routers(ba, 300, 6), &mut out);
    fingerprint("zero-weight-edges", &zero_weight_edges(), &mut out);
    fingerprint("two-constraints", &two_constraints(), &mut out);
    assert_golden(&out, "tests/golden/partitions.txt");
}
