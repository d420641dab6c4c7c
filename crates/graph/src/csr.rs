//! Compressed-sparse-row digraph with forward and reverse adjacency.

/// Node identifier. `u32` keeps adjacency arrays compact (the paper's largest
/// graph, LIVEJOURNAL, has 4.8M nodes — far below `u32::MAX`).
pub type NodeId = u32;

/// Canonical edge identifier: the position of the arc in the forward
/// (out-adjacency) CSR ordering. Reverse adjacency stores, for every
/// in-neighbour position, the canonical id of the corresponding arc so that
/// per-edge attribute vectors (e.g. per-ad influence probabilities) can be
/// shared between forward simulation and reverse-reachable sampling.
pub type EdgeId = u32;

/// Borrowed views of the five raw CSR arrays, in snapshot serialization
/// order: `(out_offsets, out_targets, in_offsets, in_sources,
/// in_edge_ids)`. See [`DiGraph::csr_parts`].
pub type CsrParts<'a> = (
    &'a [u32],
    &'a [NodeId],
    &'a [u32],
    &'a [NodeId],
    &'a [EdgeId],
);

/// An immutable directed graph in CSR form.
///
/// Both directions are materialised:
/// * `out_offsets`/`out_targets` — forward adjacency, defining edge ids;
/// * `in_offsets`/`in_sources`/`in_edge_ids` — reverse adjacency, each entry
///   carrying the canonical [`EdgeId`] of the arc it mirrors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiGraph {
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_targets: Vec<NodeId>,
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_sources: Vec<NodeId>,
    pub(crate) in_edge_ids: Vec<EdgeId>,
}

impl DiGraph {
    /// Builds a graph from an arc list. Arcs are deduplicated and self-loops
    /// removed; see [`crate::GraphBuilder`] for the full pipeline.
    pub fn from_edges(num_nodes: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut b = crate::GraphBuilder::new(num_nodes);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Builds a graph from a finished forward CSR whose per-node target
    /// runs are already sorted, deduplicated and self-loop-free — the
    /// reverse adjacency is derived by counting sort. This is the single
    /// finalisation step shared by [`crate::GraphBuilder::build`] and the
    /// streaming [`crate::build_from_stream`] path.
    pub(crate) fn from_out_csr(out_offsets: Vec<u32>, out_targets: Vec<NodeId>) -> Self {
        let n = out_offsets.len() - 1;
        let m = out_targets.len();
        debug_assert_eq!(*out_offsets.last().unwrap() as usize, m);

        let mut in_offsets = vec![0u32; n + 1];
        for &v in &out_targets {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_edge_ids = vec![0 as EdgeId; m];
        for u in 0..n {
            let lo = out_offsets[u] as usize;
            let hi = out_offsets[u + 1] as usize;
            for (i, &target) in out_targets[lo..hi].iter().enumerate() {
                let v = target as usize;
                let slot = cursor[v] as usize;
                in_sources[slot] = u as NodeId;
                in_edge_ids[slot] = (lo + i) as EdgeId;
                cursor[v] += 1;
            }
        }

        DiGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_edge_ids,
        }
    }

    /// Reassembles a graph from its five raw CSR arrays (no re-sorting,
    /// no reverse-adjacency rebuild). Structural invariants are checked —
    /// lengths, offset monotonicity, tail sums, `O(m)` id-range scans,
    /// and that every out-adjacency run is strictly increasing (sorted,
    /// duplicate- and self-loop-consistent — `edge_id`/`has_edge` binary
    /// search those runs). Full forward/reverse mirror consistency is the
    /// responsibility of the producer. The snapshot loader goes through
    /// here too: a checksum proves the bytes are what the writer wrote,
    /// not that the writer was honest.
    pub fn from_csr_parts(
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<NodeId>,
        in_edge_ids: Vec<EdgeId>,
    ) -> Result<Self, String> {
        if out_offsets.is_empty() || in_offsets.len() != out_offsets.len() {
            return Err("offset array length mismatch".into());
        }
        let m = out_targets.len();
        if in_sources.len() != m || in_edge_ids.len() != m {
            return Err("edge array length mismatch".into());
        }
        for offs in [&out_offsets, &in_offsets] {
            if offs[0] != 0 {
                return Err("offsets must start at 0".into());
            }
            if offs.windows(2).any(|w| w[0] > w[1]) {
                return Err("offsets not monotone".into());
            }
            if *offs.last().unwrap() as usize != m {
                return Err("offsets tail does not match edge count".into());
            }
        }
        let g = DiGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_edge_ids,
        };
        let n = g.num_nodes();
        if g.out_targets.iter().any(|&v| v as usize >= n)
            || g.in_sources.iter().any(|&u| u as usize >= n)
        {
            return Err("node id out of range".into());
        }
        if g.in_edge_ids.iter().any(|&e| e as usize >= m) {
            return Err("edge id out of range".into());
        }
        for u in 0..n {
            let run = g.out_neighbors(u as NodeId);
            if run.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("out-adjacency of node {u} not strictly increasing"));
            }
        }
        Ok(g)
    }

    /// The five raw CSR arrays, in snapshot serialization order:
    /// `(out_offsets, out_targets, in_offsets, in_sources, in_edge_ids)`.
    pub fn csr_parts(&self) -> CsrParts<'_> {
        (
            &self.out_offsets,
            &self.out_targets,
            &self.in_offsets,
            &self.in_sources,
            &self.in_edge_ids,
        )
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of arcs `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-degree of `u` (number of followers that see `u`'s posts).
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as usize
    }

    /// In-degree of `v` (number of users `v` follows).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Iterates over `u`'s out-arcs as `(edge_id, target)` pairs.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        (lo..hi).map(move |i| (i as EdgeId, self.out_targets[i]))
    }

    /// Iterates over `v`'s in-arcs as `(edge_id, source)` pairs, where
    /// `edge_id` is the canonical (forward) id of the arc `source → v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        (lo..hi).map(move |i| (self.in_edge_ids[i], self.in_sources[i]))
    }

    /// Position range of `v`'s in-run inside the raw reverse-CSR arrays
    /// ([`in_sources_raw`](Self::in_sources_raw) /
    /// [`in_edge_ids_raw`](Self::in_edge_ids_raw)). Lets hot loops walk an
    /// in-run as contiguous slices instead of through the `in_edges`
    /// iterator, and lets per-arc side tables (e.g. precomputed sampling
    /// thresholds) be indexed by reverse-CSR position.
    #[inline]
    pub fn in_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.in_offsets[v as usize] as usize..self.in_offsets[v as usize + 1] as usize
    }

    /// Raw reverse-CSR source array; positions come from
    /// [`in_range`](Self::in_range). Within one in-run, entries are
    /// ordered by ascending source id (the reverse build's counting sort
    /// guarantees it) — hot paths rely on that order being stable.
    #[inline]
    pub fn in_sources_raw(&self) -> &[NodeId] {
        &self.in_sources
    }

    /// Raw reverse-CSR canonical-edge-id array; positions come from
    /// [`in_range`](Self::in_range).
    #[inline]
    pub fn in_edge_ids_raw(&self) -> &[EdgeId] {
        &self.in_edge_ids
    }

    /// Out-neighbour slice of `u` (targets only).
    #[inline]
    fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// Returns the canonical id of arc `(u, v)` if present (binary search on
    /// the sorted out-adjacency of `u`).
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        self.out_targets[lo..hi]
            .binary_search(&v)
            .ok()
            .map(|p| (lo + p) as EdgeId)
    }

    /// True iff arc `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// Source and target of a canonical edge id. `O(log n)` (binary search on
    /// the offset array for the source); intended for diagnostics, not hot
    /// loops — hot loops already know the endpoint they iterate from.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let v = self.out_targets[e as usize];
        // Find u: the largest u with out_offsets[u] <= e.
        let u = match self.out_offsets.binary_search(&e) {
            Ok(mut i) => {
                // Skip empty adjacency runs mapping to the same offset.
                while i + 1 < self.out_offsets.len() && self.out_offsets[i + 1] == e {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        (u as NodeId, v)
    }

    /// Iterates over all arcs as `(edge_id, source, target)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |u| self.out_edges(u).map(move |(e, v)| (e, u, v)))
    }

    /// Total bytes held by the adjacency arrays (used for memory reporting).
    pub fn memory_bytes(&self) -> usize {
        4 * (self.out_offsets.len()
            + self.out_targets.len()
            + self.in_offsets.len()
            + self.in_sources.len()
            + self.in_edge_ids.len())
    }

    /// Reverses the graph: arc `(u,v)` becomes `(v,u)`. Useful for tests and
    /// for treating an undirected edge list as bidirectional flow.
    pub fn reversed(&self) -> DiGraph {
        let edges: Vec<(NodeId, NodeId)> = self.edges().map(|(_, u, v)| (v, u)).collect();
        DiGraph::from_edges(self.num_nodes(), edges)
    }

    /// Internal consistency check: offsets monotone, reverse adjacency
    /// mirrors forward adjacency exactly. Used by property tests.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if self.in_offsets.len() != n + 1 {
            return Err("in_offsets length mismatch".into());
        }
        for w in self.out_offsets.windows(2) {
            if w[0] > w[1] {
                return Err("out_offsets not monotone".into());
            }
        }
        for w in self.in_offsets.windows(2) {
            if w[0] > w[1] {
                return Err("in_offsets not monotone".into());
            }
        }
        if *self.out_offsets.last().unwrap() as usize != self.out_targets.len() {
            return Err("out_offsets tail mismatch".into());
        }
        if *self.in_offsets.last().unwrap() as usize != self.in_sources.len() {
            return Err("in_offsets tail mismatch".into());
        }
        if self.in_sources.len() != self.out_targets.len() {
            return Err("edge count mismatch between directions".into());
        }
        if self.in_edge_ids.len() != self.in_sources.len() {
            return Err("in_edge_ids length mismatch".into());
        }
        // Every reverse entry must name a real forward arc.
        for v in 0..n as NodeId {
            for (e, u) in self.in_edges(v) {
                if self.out_targets[e as usize] != v {
                    return Err(format!("in-edge id {e} of node {v} maps to wrong target"));
                }
                let lo = self.out_offsets[u as usize];
                let hi = self.out_offsets[u as usize + 1];
                if e < lo || e >= hi {
                    return Err(format!("in-edge id {e} not within source {u}'s range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DiGraph::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn degrees_and_counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn edge_id_round_trip() {
        let g = diamond();
        for (e, u, v) in g.edges().collect::<Vec<_>>() {
            assert_eq!(g.edge_id(u, v), Some(e));
            assert_eq!(g.edge_endpoints(e), (u, v));
        }
        assert_eq!(g.edge_id(3, 0), None);
        assert!(!g.has_edge(1, 0));
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn in_edges_carry_canonical_ids() {
        let g = diamond();
        let mut seen: Vec<(EdgeId, NodeId)> = g.in_edges(3).collect();
        seen.sort_unstable();
        let e13 = g.edge_id(1, 3).unwrap();
        let e23 = g.edge_id(2, 3).unwrap();
        let mut want = vec![(e13, 1), (e23, 2)];
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn validate_accepts_well_formed() {
        diamond().validate().unwrap();
    }

    #[test]
    fn from_csr_parts_round_trips_and_rejects_garbage() {
        let g = diamond();
        let (oo, ot, io, is_, ie) = g.csr_parts();
        let rebuilt = DiGraph::from_csr_parts(
            oo.to_vec(),
            ot.to_vec(),
            io.to_vec(),
            is_.to_vec(),
            ie.to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, g);

        // Unsorted out-run: passes every length/offset check, but
        // edge_id()/has_edge() binary-search the runs — must be rejected.
        let mut bad = ot.to_vec();
        bad.swap(0, 1); // node 0's run becomes [2, 1]
        assert!(
            DiGraph::from_csr_parts(oo.to_vec(), bad, io.to_vec(), is_.to_vec(), ie.to_vec())
                .unwrap_err()
                .contains("strictly increasing")
        );

        // Out-of-range target id.
        let mut bad = ot.to_vec();
        bad[0] = 99;
        assert!(
            DiGraph::from_csr_parts(oo.to_vec(), bad, io.to_vec(), is_.to_vec(), ie.to_vec())
                .is_err()
        );

        // Offsets tail not matching the edge count.
        let mut bad = oo.to_vec();
        *bad.last_mut().unwrap() += 1;
        assert!(
            DiGraph::from_csr_parts(bad, ot.to_vec(), io.to_vec(), is_.to_vec(), ie.to_vec())
                .is_err()
        );
    }

    #[test]
    fn reversed_flips_arcs() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.num_edges(), g.num_edges());
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(3, 2));
        assert!(!r.has_edge(0, 1));
        r.validate().unwrap();
    }

    #[test]
    fn empty_and_isolated_nodes() {
        let g = DiGraph::from_edges(3, Vec::<(NodeId, NodeId)>::new());
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_degree(1), 0);
        g.validate().unwrap();
    }

    #[test]
    fn edge_endpoints_with_empty_runs() {
        // Node 1 has no out-edges; make sure the offset binary search still
        // attributes edges correctly around it.
        let g = DiGraph::from_edges(4, vec![(0, 2), (2, 3), (3, 0)]);
        for (e, u, v) in g.edges().collect::<Vec<_>>() {
            assert_eq!(g.edge_endpoints(e), (u, v));
        }
    }
}
