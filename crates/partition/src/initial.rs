//! Initial partitioning of the coarsest graph: greedy graph-growing
//! recursive bisection with 2-way FM refinement.

use massf_graph::subgraph::induced_subgraph;
use massf_graph::traversal::pseudo_peripheral;
use massf_graph::{CsrGraph, VertexId, Weight};
use rand::seq::SliceRandom;
use rand::Rng;

/// Bisects `g` so that side 0 receives roughly `frac` of the total
/// constraint-0 weight. Returns a 0/1 label per vertex.
///
/// Growing starts from a pseudo-peripheral vertex and proceeds breadth-first
/// by cheapest boundary expansion; unreached vertices (disconnected graphs)
/// are appended afterwards. Growing takes O((n + m) log n). A bounded 2-way
/// FM pass then trims the cut while respecting per-constraint caps derived
/// from `frac` and `ubfactor`.
pub fn bisect<R: Rng>(g: &CsrGraph, frac: f64, ubs: &[f64], rng: &mut R) -> Vec<u8> {
    let n = g.nvtxs();
    assert!(n >= 2, "cannot bisect a graph with fewer than 2 vertices");
    let ncon = g.ncon();
    let totals = g.total_vertex_weight();
    let target0: Weight = (frac * totals[0] as f64).round() as Weight;

    // --- Greedy growing by constraint 0 ---
    let mut side = vec![1u8; n];
    let seed = pseudo_peripheral(g, rng.gen_range(0..n) as VertexId);
    let mut in0: Vec<VertexId> = Vec::new();
    let mut grown0: Weight = 0;
    let mut frontier = Frontier::new(n);
    frontier.push(seed, 0);
    let mut queued = vec![false; n];
    queued[seed as usize] = true;
    // Lowest vertex never queued: the seed of a disconnected remainder.
    let mut unqueued = 0usize;

    while grown0 < target0 {
        let v = match frontier.pop() {
            Some(v) => v,
            None => {
                // Every side-0 vertex was queued and `queued` only grows,
                // so the lowest unqueued vertex never moves backwards.
                while unqueued < n && queued[unqueued] {
                    unqueued += 1;
                }
                if unqueued == n {
                    break;
                }
                queued[unqueued] = true;
                unqueued as VertexId
            }
        };
        side[v as usize] = 0;
        in0.push(v);
        grown0 += g.vertex_weight0(v);
        for (u, w) in g.edges(v) {
            if !queued[u as usize] {
                // `v` is the only side-0 neighbour of a newly queued vertex:
                // any earlier one would have queued it when it joined.
                queued[u as usize] = true;
                frontier.push(u, w);
            } else if side[u as usize] == 1 {
                frontier.add(u, w);
            }
        }
        // Prefer the neighbour with the strongest connection to side 0 to
        // keep the grown region compact.
        frontier.promote_best();
    }
    // Never allow an empty side.
    if in0.is_empty() {
        side[seed as usize] = 0;
    }
    if side.iter().all(|&s| s == 0) {
        // Give the lightest vertex back to side 1.
        let v = (0..n)
            .min_by_key(|&v| g.vertex_weight0(v as VertexId))
            .expect("n >= 2");
        side[v] = 1;
    }

    // --- 2-way FM trim with fraction-aware caps ---
    debug_assert_eq!(ubs.len(), ncon, "one tolerance per constraint");
    let caps: [Vec<Weight>; 2] = [
        totals
            .iter()
            .zip(ubs)
            .map(|(&t, &ub)| ((ub * frac * t as f64).ceil() as Weight).max(1))
            .collect(),
        totals
            .iter()
            .zip(ubs)
            .map(|(&t, &ub)| ((ub * (1.0 - frac) * t as f64).ceil() as Weight).max(1))
            .collect(),
    ];
    let mut sw = [vec![0 as Weight; ncon], vec![0 as Weight; ncon]];
    let mut sizes = [0usize; 2];
    for v in 0..n {
        let s = side[v] as usize;
        sizes[s] += 1;
        for c in 0..ncon {
            sw[s][c] += g.vertex_weight(v as VertexId)[c];
        }
    }

    for _pass in 0..6 {
        let mut boundary: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| {
                g.neighbors(v)
                    .iter()
                    .any(|&u| side[u as usize] != side[v as usize])
            })
            .collect();
        boundary.shuffle(rng);
        let mut moved = 0;
        for v in boundary {
            let from = side[v as usize] as usize;
            let to = 1 - from;
            if sizes[from] <= 1 {
                continue;
            }
            let wv = g.vertex_weight(v);
            // Feasible if destination stays capped, or was lighter than the
            // source on every violated constraint (never worsen skew).
            let feasible = (0..ncon).all(|c| {
                let new_to = sw[to][c] + wv[c];
                new_to <= caps[to][c] || new_to <= sw[from][c]
            });
            if !feasible {
                continue;
            }
            let mut internal = 0;
            let mut external = 0;
            for (u, w) in g.edges(v) {
                if side[u as usize] as usize == from {
                    internal += w;
                } else {
                    external += w;
                }
            }
            if external > internal {
                side[v as usize] = to as u8;
                sizes[from] -= 1;
                sizes[to] += 1;
                for c in 0..ncon {
                    sw[from][c] -= wv[c];
                    sw[to][c] += wv[c];
                }
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
    side
}

/// The growing frontier of [`bisect`]: the queued side-1 vertices in
/// queue order, each keyed by its edge weight into side 0, in a max
/// tournament tree over queue positions.
///
/// The growing loop pops the last vertex, then swaps the heaviest-keyed
/// vertex to the back, breaking ties towards the later position (the one
/// `Iterator::max_by_key` over the whole queue returns). Re-summing every
/// queued vertex's side-0 edges after each pop gives that choice in
/// O(n·m) per bisection; this gives the same choice in O((n + m) log n):
///
/// - A key changes only when a neighbour joins side 0, and then by exactly
///   that edge's weight, so [`Frontier::add`] on every queued side-1
///   neighbour of the joining vertex keeps each key equal to the re-summed
///   one. A vertex queued in that step has the joining vertex as its only
///   side-0 neighbour, so it enters with that one edge's weight.
/// - Each internal tree node holds the position winning its subtree: the
///   larger key, or the right (later) child on a tie. The root is thus the
///   last position of maximal key, and each push, pop, swap or key change
///   re-plays only the O(log n) matches on its leaf's path.
struct Frontier {
    /// Queued side-1 vertices, in queue order.
    verts: Vec<VertexId>,
    /// `pos[v]`: the position of `v` in `verts` while it is queued.
    pos: Vec<u32>,
    /// Number of leaves, a power of two at least `n`.
    leaves: usize,
    /// `key[p]`: edge weight from `verts[p]` into side 0.
    key: Vec<Weight>,
    /// Tournament nodes (1-based heap layout, leaves at `leaves..`): the
    /// winning position below each node, or `EMPTY`.
    win: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

impl Frontier {
    fn new(n: usize) -> Self {
        let leaves = n.next_power_of_two();
        Self {
            verts: Vec::new(),
            pos: vec![0; n],
            leaves,
            key: vec![0; leaves],
            win: vec![EMPTY; 2 * leaves],
        }
    }

    fn push(&mut self, v: VertexId, key: Weight) {
        let p = self.verts.len();
        self.verts.push(v);
        self.pos[v as usize] = p as u32;
        self.key[p] = key;
        self.win[self.leaves + p] = p as u32;
        self.replay(p);
    }

    fn pop(&mut self) -> Option<VertexId> {
        let v = self.verts.pop()?;
        let p = self.verts.len();
        self.win[self.leaves + p] = EMPTY;
        self.replay(p);
        Some(v)
    }

    /// Adds `w` to the key of the queued vertex `v`.
    fn add(&mut self, v: VertexId, w: Weight) {
        let p = self.pos[v as usize] as usize;
        self.key[p] += w;
        self.replay(p);
    }

    /// Swaps the last position of maximal key to the back of the queue.
    fn promote_best(&mut self) {
        let Some(last) = self.verts.len().checked_sub(1) else {
            return;
        };
        let best = self.win[1] as usize;
        if best == last {
            return;
        }
        self.verts.swap(best, last);
        self.key.swap(best, last);
        self.pos[self.verts[best] as usize] = best as u32;
        self.pos[self.verts[last] as usize] = last as u32;
        self.replay(best);
        self.replay(last);
    }

    /// Re-plays the matches on the path from leaf `p` to the root.
    fn replay(&mut self, p: usize) {
        let mut i = (self.leaves + p) / 2;
        while i >= 1 {
            let (a, b) = (self.win[2 * i], self.win[2 * i + 1]);
            self.win[i] =
                if a == EMPTY || (b != EMPTY && self.key[b as usize] >= self.key[a as usize]) {
                    b
                } else {
                    a
                };
            i /= 2;
        }
    }
}

/// Recursive-bisection initial partitioning into `nparts` parts.
///
/// Splits the part range in half at every level, sizing each side's weight
/// target by its share of parts, and recurses on induced subgraphs.
///
/// # Panics
/// Panics when `nparts == 0` or `nparts > g.nvtxs()`.
pub fn initial_partition<R: Rng>(
    g: &CsrGraph,
    fractions: &[f64],
    ubs: &[f64],
    rng: &mut R,
) -> Vec<u32> {
    let nparts = fractions.len();
    assert!(nparts >= 1, "nparts must be >= 1");
    assert!(
        nparts <= g.nvtxs(),
        "cannot split {} vertices into {} parts",
        g.nvtxs(),
        nparts
    );
    let mut part = vec![0u32; g.nvtxs()];
    recurse(
        g,
        0,
        fractions,
        ubs,
        rng,
        &mut part,
        &(0..g.nvtxs() as VertexId).collect::<Vec<_>>(),
    );
    part
}

fn recurse<R: Rng>(
    g: &CsrGraph,
    first_part: u32,
    fractions: &[f64],
    ubs: &[f64],
    rng: &mut R,
    out: &mut [u32],
    parents: &[VertexId],
) {
    let nparts = fractions.len();
    if nparts == 1 {
        for &pv in parents {
            out[pv as usize] = first_part;
        }
        return;
    }
    let k1 = nparts / 2;
    let k2 = nparts - k1;
    // Left side's weight target is its parts' share of this subproblem's
    // total target (supports heterogeneous engine capacities).
    let left: f64 = fractions[..k1].iter().sum();
    let all: f64 = fractions.iter().sum();
    let frac = left / all;
    let side = bisect(g, frac, ubs, rng);

    let keep0: Vec<VertexId> = (0..g.nvtxs() as VertexId)
        .filter(|&v| side[v as usize] == 0)
        .collect();
    let keep1: Vec<VertexId> = (0..g.nvtxs() as VertexId)
        .filter(|&v| side[v as usize] == 1)
        .collect();
    debug_assert!(!keep0.is_empty() && !keep1.is_empty());

    // Guarantee each side can host its parts; shift vertices if the split is
    // too lopsided in *count* (tiny coarse graphs can hit this).
    let (keep0, keep1) = fix_counts(keep0, keep1, k1, k2, g, rng);

    let sub0 = induced_subgraph(g, &keep0);
    let sub1 = induced_subgraph(g, &keep1);
    let parents0: Vec<VertexId> = keep0.iter().map(|&v| parents[v as usize]).collect();
    let parents1: Vec<VertexId> = keep1.iter().map(|&v| parents[v as usize]).collect();
    recurse(
        &sub0.graph,
        first_part,
        &fractions[..k1],
        ubs,
        rng,
        out,
        &parents0,
    );
    recurse(
        &sub1.graph,
        first_part + k1 as u32,
        &fractions[k1..],
        ubs,
        rng,
        out,
        &parents1,
    );
}

/// Ensures `|side i| >= ki` by moving the lightest vertices across.
fn fix_counts<R: Rng>(
    mut keep0: Vec<VertexId>,
    mut keep1: Vec<VertexId>,
    k1: usize,
    k2: usize,
    g: &CsrGraph,
    _rng: &mut R,
) -> (Vec<VertexId>, Vec<VertexId>) {
    while keep0.len() < k1 {
        let i = (0..keep1.len())
            .min_by_key(|&i| g.vertex_weight0(keep1[i]))
            .expect("side 1 must have spare vertices");
        keep0.push(keep1.swap_remove(i));
    }
    while keep1.len() < k2 {
        let i = (0..keep0.len())
            .min_by_key(|&i| g.vertex_weight0(keep0[i]))
            .expect("side 0 must have spare vertices");
        keep1.push(keep0.swap_remove(i));
    }
    (keep0, keep1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{balance, edge_cut};
    use massf_graph::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(31)
    }

    fn path(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(n);
        for i in 0..n - 1 {
            b.add_edge(i as VertexId, (i + 1) as VertexId, 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn bisect_path_is_contiguous_half() {
        let g = path(10);
        let side = bisect(&g, 0.5, &[1.1], &mut rng());
        let n0 = side.iter().filter(|&&s| s == 0).count();
        assert!((4..=6).contains(&n0), "side sizes {n0}/{}", 10 - n0);
        // A path's optimal bisection cuts exactly one edge.
        let part: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        assert_eq!(edge_cut(&g, &part), 1, "side = {side:?}");
    }

    #[test]
    fn bisect_asymmetric_fraction() {
        let g = path(12);
        let side = bisect(&g, 0.25, &[1.2], &mut rng());
        let w0: i64 = side
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == 0)
            .map(|(v, _)| g.vertex_weight0(v as VertexId))
            .sum();
        assert!((2..=5).contains(&w0), "side-0 weight {w0} far from 3");
    }

    #[test]
    fn bisect_never_empties_a_side() {
        let g = path(2);
        let side = bisect(&g, 0.5, &[1.1], &mut rng());
        assert_ne!(side[0], side[1]);
    }

    #[test]
    fn initial_partition_covers_all_parts() {
        let g = path(20);
        for k in [2usize, 3, 4, 5, 7] {
            let part = initial_partition(&g, &vec![1.0 / k as f64; k], &[1.1], &mut rng());
            let mut seen = vec![false; k];
            for &p in &part {
                seen[p as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "k={k}: part labels {part:?}");
        }
    }

    #[test]
    fn initial_partition_is_reasonably_balanced() {
        let g = path(40);
        let part = initial_partition(&g, &[0.25; 4], &[1.1], &mut rng());
        let b = balance(&g, &part, 4, 0);
        assert!(b <= 1.35, "balance {b}");
    }

    #[test]
    fn initial_partition_on_disconnected_graph() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(8);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        b.add_edge(4, 5, 1).unwrap();
        // 6, 7 isolated
        let g = b.build().unwrap();
        let part = initial_partition(&g, &[1.0 / 3.0; 3], &[1.3], &mut rng());
        let mut seen = [false; 3];
        for &p in &part {
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn too_many_parts_panics() {
        let g = path(3);
        initial_partition(&g, &[0.25; 4], &[1.1], &mut rng());
    }

    #[test]
    fn weighted_bisect_respects_weights() {
        // One very heavy vertex: fraction targets weight, not count.
        let mut b = GraphBuilder::new(1);
        b.add_vertex(&[90]);
        for _ in 0..9 {
            b.add_vertex(&[1]);
        }
        for i in 0..9u32 {
            b.add_edge(i, i + 1, 1).unwrap();
        }
        let g = b.build().unwrap();
        let side = bisect(&g, 0.5, &[1.4], &mut rng());
        // The heavy vertex must sit alone-ish: its side should not also hold
        // most light vertices.
        let heavy_side = side[0];
        let light_with_heavy = (1..10).filter(|&v| side[v] == heavy_side).count();
        assert!(
            light_with_heavy <= 4,
            "heavy side also got {light_with_heavy} light vertices"
        );
    }
}
