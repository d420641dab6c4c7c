//! Deterministic random-graph generators.
//!
//! All generators take an explicit seed and produce the same graph for the
//! same `(parameters, seed)` pair on every platform. They are used by
//! `tirm-workloads` to synthesise networks with the degree structure of the
//! paper's four data sets (ARCHITECTURE.md "Synthetic data sets" makes the
//! substitution argument).

use crate::builder::{build_from_stream, GraphBuilder};
use crate::csr::{DiGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// G(n, m) Erdős–Rényi digraph: `m` distinct arcs drawn uniformly at random
/// (self-loops rejected). Panics if `m` exceeds `n·(n−1)`.
///
/// This is the one generator still routed through the buffering
/// [`GraphBuilder`]: its exact-`m` contract needs the deduplicated edge
/// count mid-generation to decide how much to oversample, which a
/// counting pass cannot provide. It is only used at test scales.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> DiGraph {
    assert!(n >= 2, "need at least two nodes");
    assert!(
        (m as u128) <= (n as u128) * (n as u128 - 1),
        "more arcs requested than the simple digraph can hold"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m + m / 8);
    // Draw with rejection; duplicates are removed in build(), so oversample
    // slightly and retry until the final graph has m arcs (cheap for the
    // sparse regimes used here).
    let mut g;
    let mut extra = 0usize;
    loop {
        let mut bb = b.clone();
        for _ in 0..(m + extra) {
            let u = rng.gen_range(0..n) as NodeId;
            let mut v = rng.gen_range(0..n) as NodeId;
            while v == u {
                v = rng.gen_range(0..n) as NodeId;
            }
            bb.add_edge(u, v);
        }
        g = bb.build();
        if g.num_edges() >= m {
            break;
        }
        extra += (m - g.num_edges()) * 2 + 8;
    }
    if g.num_edges() > m {
        // Trim deterministically: keep the first m arcs in canonical order.
        let keep: Vec<(NodeId, NodeId)> = g.edges().take(m).map(|(_, u, v)| (u, v)).collect();
        b.ensure_nodes(n);
        for (u, v) in keep {
            b.add_edge(u, v);
        }
        g = b.build();
    }
    g
}

/// Directed preferential-attachment (Barabási–Albert flavoured) generator.
///
/// Nodes arrive one at a time; each new node picks `out_per_node` distinct
/// existing targets with probability proportional to `in_degree + 1`
/// (smoothing keeps early nodes reachable), producing a heavy-tailed
/// in-degree distribution like real follower graphs. A fraction
/// `reciprocity` of arcs are reciprocated, mimicking the mutual-follow edges
/// dominating FLIXSTER/EPINIONS.
pub fn preferential_attachment(
    n: usize,
    out_per_node: usize,
    reciprocity: f64,
    seed: u64,
) -> DiGraph {
    assert!(n >= 2);
    assert!(out_per_node >= 1);
    assert!((0.0..=1.0).contains(&reciprocity));
    // Streaming build: the seeded simulation replays identically on both
    // passes, so only the urn (4 bytes per emitted arc) is held — never an
    // edge list.
    build_from_stream(n, |sink| {
        preferential_attachment_arcs(n, out_per_node, reciprocity, seed, sink)
    })
}

/// One deterministic run of the preferential-attachment simulation,
/// emitting every arc into `sink` (both [`build_from_stream`] passes call
/// this with the same seed).
fn preferential_attachment_arcs(
    n: usize,
    out_per_node: usize,
    reciprocity: f64,
    seed: u64,
    sink: &mut dyn FnMut(NodeId, NodeId),
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Repeated-node list implements preferential attachment in O(1) per draw.
    let mut urn: Vec<NodeId> = Vec::with_capacity(n * (out_per_node + 1));
    let seed_core = out_per_node.min(n - 1).max(1);
    for u in 0..=seed_core as NodeId {
        urn.push(u);
    }
    // Small seed clique so the urn is non-trivial.
    for u in 0..=seed_core as NodeId {
        for v in 0..=seed_core as NodeId {
            if u != v {
                sink(u, v);
                urn.push(v);
            }
        }
    }
    for u in (seed_core + 1)..n {
        let u = u as NodeId;
        let mut picked: Vec<NodeId> = Vec::with_capacity(out_per_node);
        let mut guard = 0;
        while picked.len() < out_per_node && guard < 64 * out_per_node {
            guard += 1;
            let cand = urn[rng.gen_range(0..urn.len())];
            if cand != u && !picked.contains(&cand) {
                picked.push(cand);
            }
        }
        for v in picked {
            sink(u, v);
            urn.push(v);
            if rng.gen_bool(reciprocity) {
                sink(v, u);
                urn.push(u);
            }
        }
        urn.push(u);
    }
}

/// Watts–Strogatz small-world digraph: ring lattice with `k` forward
/// neighbours per node, each arc rewired to a random target with probability
/// `beta`. Gives the high clustering + short paths typical of co-authorship
/// graphs (used for the DBLP-like workload, direction doubled by the caller).
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> DiGraph {
    assert!(n > k + 1, "ring lattice needs n > k+1");
    assert!((0.0..=1.0).contains(&beta));
    build_from_stream(n, |sink| {
        let mut rng = SmallRng::seed_from_u64(seed);
        for u in 0..n {
            for j in 1..=k {
                let mut v = ((u + j) % n) as NodeId;
                if rng.gen_bool(beta) {
                    v = rng.gen_range(0..n) as NodeId;
                    let mut guard = 0;
                    while (v as usize == u) && guard < 16 {
                        v = rng.gen_range(0..n) as NodeId;
                        guard += 1;
                    }
                    if v as usize == u {
                        continue;
                    }
                }
                sink(u as NodeId, v);
            }
        }
    })
}

/// "Copying-model" power-law digraph (Kumar et al. flavour): each new node
/// copies the out-neighbourhood of a random prototype with probability
/// `1 - alpha` per slot, otherwise links uniformly. Produces power-law in-
/// and out-degrees simultaneously — a good stand-in for LIVEJOURNAL's shape.
pub fn copying_model(n: usize, out_per_node: usize, alpha: f64, seed: u64) -> DiGraph {
    assert!(n >= 4);
    assert!((0.0..=1.0).contains(&alpha));
    let mut rng = SmallRng::seed_from_u64(seed);
    // The model is self-referential — each node copies from an earlier
    // node's finished row — so the adjacency must be materialised during
    // generation. A flat slot array + row offsets costs 4 bytes per arc
    // (vs ~24 bytes of `Vec` header per node plus allocator slack for a
    // `Vec<Vec<_>>`), and is generated once then replayed into both
    // streaming-build passes.
    let mut row_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    row_offsets.push(0);
    let mut slots: Vec<NodeId> = Vec::with_capacity(n * out_per_node);
    let core = (out_per_node + 1).min(n);
    for u in 0..core {
        for v in 0..core {
            if v != u {
                slots.push(v as NodeId);
            }
        }
        row_offsets.push(slots.len() as u32);
    }
    for u in core..n {
        let proto = rng.gen_range(0..u);
        let proto_lo = row_offsets[proto] as usize;
        let proto_len = row_offsets[proto + 1] as usize - proto_lo;
        let row_lo = slots.len();
        for slot in 0..out_per_node {
            let v = if proto_len > 0 && rng.gen::<f64>() > alpha {
                slots[proto_lo + slot % proto_len]
            } else {
                rng.gen_range(0..u) as NodeId
            };
            if v as usize != u && !slots[row_lo..].contains(&v) {
                slots.push(v);
            }
        }
        row_offsets.push(slots.len() as u32);
    }
    build_from_stream(n, |sink| {
        for u in 0..n {
            let lo = row_offsets[u] as usize;
            let hi = row_offsets[u + 1] as usize;
            for &v in &slots[lo..hi] {
                sink(u as NodeId, v);
            }
        }
    })
}

/// Complete digraph on `n` nodes (used by the "practical considerations"
/// extreme-case tests in §4.1 of the paper).
pub fn clique(n: usize) -> DiGraph {
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1));
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            if u != v {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Directed star: hub `0` points at `1..n`.
pub fn star(n: usize) -> DiGraph {
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for v in 1..n as NodeId {
        b.add_edge(0, v);
    }
    b.build()
}

/// Directed path `0 → 1 → … → n−1`.
pub fn path(n: usize) -> DiGraph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for u in 0..n.saturating_sub(1) {
        b.add_edge(u as NodeId, (u + 1) as NodeId);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_exact_edge_count() {
        let g = erdos_renyi(100, 500, 7);
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 500);
        g.validate().unwrap();
    }

    #[test]
    fn erdos_renyi_deterministic() {
        let a = erdos_renyi(50, 200, 42);
        let b = erdos_renyi(50, 200, 42);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
        let c = erdos_renyi(50, 200, 43);
        let ec: Vec<_> = c.edges().collect();
        assert_ne!(ea, ec, "different seeds should differ");
    }

    #[test]
    fn preferential_attachment_heavy_tail() {
        let g = preferential_attachment(2000, 5, 0.3, 9);
        assert_eq!(g.num_nodes(), 2000);
        g.validate().unwrap();
        let max_in = (0..2000).map(|v| g.in_degree(v as NodeId)).max().unwrap();
        let mean_in = g.num_edges() as f64 / 2000.0;
        assert!(
            max_in as f64 > 8.0 * mean_in,
            "expected a hub: max {max_in} vs mean {mean_in}"
        );
    }

    #[test]
    fn watts_strogatz_degree_regularity() {
        let g = watts_strogatz(200, 4, 0.1, 3);
        g.validate().unwrap();
        // Out-degree stays close to k (rewiring can only merge duplicates).
        let mean_out = g.num_edges() as f64 / 200.0;
        assert!(mean_out > 3.0 && mean_out <= 4.0, "mean out {mean_out}");
    }

    #[test]
    fn copying_model_builds_and_validates() {
        let g = copying_model(1000, 6, 0.4, 11);
        assert_eq!(g.num_nodes(), 1000);
        g.validate().unwrap();
        assert!(g.num_edges() > 3000);
    }

    #[test]
    fn clique_star_path_shapes() {
        let g = clique(5);
        assert_eq!(g.num_edges(), 20);
        let s = star(6);
        assert_eq!(s.out_degree(0), 5);
        assert_eq!(s.in_degree(0), 0);
        let p = path(4);
        assert_eq!(p.num_edges(), 3);
        assert!(p.has_edge(2, 3));
    }
}
