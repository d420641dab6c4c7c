//! The sampling hot path: integer coin thresholds and the cache-local
//! (degree-relabeled) mark layout.
//!
//! Everything in this module is **bit-stream preserving**: a sampler run
//! through [`FastPath`] draws exactly the same RNG words and emits exactly
//! the same sets as the plain [`crate::RrSampler`] walk, so deterministic
//! baselines do not move. Two transformations stack:
//!
//! * **Thresholds.** The per-arc coin `rng.gen::<f32>() < p` costs a
//!   gather (`probs[in_edge_ids[pos]]`), an int→float convert and a float
//!   compare per arc. The vendored rand draws `gen::<f32>()` as
//!   `(next_u32() >> 8) as f32 · 2⁻²⁴` with `next_u32 = (next_u64() >> 32)`,
//!   i.e. the float is `x · 2⁻²⁴` for the 24-bit integer
//!   `x = (w >> 40)` of the raw word `w`. Since every such float is
//!   exactly representable, `x·2⁻²⁴ < p  ⇔  x < ⌈p·2²⁴⌉` — so
//!   [`coin_threshold`] precomputes `t = ⌈p·2²⁴⌉` per *in-CSR position*
//!   (sequential access, no gather) and the inner loop compares integers:
//!   `(w >> 40) < t`. `t == 0 ⇔ p ≤ 0`, which mirrors the slow path's
//!   `p > 0.0 &&` short-circuit: dead arcs skip the coin *without*
//!   consuming RNG state in both paths.
//! * **Relabeled marks.** [`SamplingLayout::degree_ordered`] carries a
//!   degree-ordered permutation (via [`tirm_graph::Relabeling`]): the BFS
//!   still walks the *original* CSR in original arc order — same RNG
//!   stream, same emitted (original) node ids — but indexes its mark
//!   array through precomputed new ids (`in_sources_new[pos]`), so the
//!   hottest rows of the O(n) mark table concentrate in a cache-resident
//!   prefix. User-facing ids never change; the permutation exists only
//!   inside the mark indexing.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tirm_graph::{DiGraph, NodeId, Relabeling};

/// `⌈p·2²⁴⌉` clamped to `[0, 2²⁴]` — the integer coin threshold with
/// `x < t ⇔ x·2⁻²⁴ < p` for every 24-bit `x` (see module docs for why
/// this is exact). `t == 0` iff `p ≤ 0` (skip without drawing);
/// `t == 2²⁴` iff `p ≥ 1` (always-true coin that still consumes a word,
/// exactly like `gen::<f32>() < 1.0`).
#[inline]
pub fn coin_threshold(p: f32) -> u32 {
    if p <= 0.0 {
        return 0;
    }
    // All in f32: multiplying by 2²⁴ only shifts the exponent (exact for
    // every finite f32, including subnormals) and `ceil` is exact, so
    // this equals the same computation routed through f64 — but the
    // O(m)-per-ad table build skips the widen/narrow.
    ((p * 16_777_216.0).ceil() as u64).min(1 << 24) as u32
}

/// Optional degree-ordered mark indexing, shared across every ad of a run.
#[derive(Clone, Debug)]
struct RelabelArrays {
    /// `new_of_old[old] = new` — used once per sample for the root.
    new_of_old: Vec<NodeId>,
    /// Per in-CSR position: the *new* id of that arc's source — the
    /// position-ordered gather of `new_of_old[in_sources[pos]]`.
    in_sources_new: Vec<NodeId>,
}

/// Mark-array layout for sampling: identity, or degree-ordered so hub
/// rows share cache lines. Build once per `(graph, mode)` and share via
/// `Arc` — it is read-only and `Sync`.
#[derive(Clone, Debug)]
pub struct SamplingLayout {
    relabel: Option<RelabelArrays>,
}

impl SamplingLayout {
    /// Identity layout: marks indexed by original node ids.
    pub fn identity() -> Self {
        SamplingLayout { relabel: None }
    }

    /// Degree-ordered layout: marks indexed by in-degree rank (hubs
    /// first). O(n log n + m) to build; sampling output is bit-identical
    /// to the identity layout by construction.
    pub fn degree_ordered(g: &DiGraph) -> Self {
        let r = Relabeling::by_in_degree(g);
        let new_of_old = r.new_of_old().to_vec();
        let in_sources_new = g
            .in_sources_raw()
            .iter()
            .map(|&s| new_of_old[s as usize])
            .collect();
        SamplingLayout {
            relabel: Some(RelabelArrays {
                new_of_old,
                in_sources_new,
            }),
        }
    }

    /// True when this layout permutes mark indices.
    pub fn is_relabeled(&self) -> bool {
        self.relabel.is_some()
    }

    /// Bytes held by the permutation tables.
    pub fn memory_bytes(&self) -> usize {
        self.relabel
            .as_ref()
            .map(|r| (r.new_of_old.capacity() + r.in_sources_new.capacity()) * 4)
            .unwrap_or(0)
    }
}

/// Per-ad fast sampling state: position-ordered coin thresholds plus a
/// shared [`SamplingLayout`]. Creating one is free; the threshold table
/// (an O(m) gather) is built by the first draw that reads it, so a run
/// that only re-activates cached sets never pays for it. A clone shares
/// the table, built or not, so ads whose probabilities are bit-identical
/// can draw through clones of one route and build one table between
/// them. Read-only and `Sync` — workers of the parallel engine share one
/// per batch, table included.
#[derive(Clone, Debug)]
pub struct FastPath<'a> {
    layout: Arc<SamplingLayout>,
    g: &'a DiGraph,
    probs: &'a [f32],
    table: Arc<OnceLock<ThresholdTable>>,
}

#[derive(Debug)]
struct ThresholdTable {
    /// `th[pos] = coin_threshold(probs[in_edge_ids[pos]])`.
    th: Vec<u32>,
    /// Wall time the gather took.
    build_time: Duration,
}

impl<'a> FastPath<'a> {
    /// The fast route for `probs` (indexed by edge id) over `g` under
    /// `layout`.
    pub fn new(layout: Arc<SamplingLayout>, g: &'a DiGraph, probs: &'a [f32]) -> Self {
        assert_eq!(probs.len(), g.num_edges());
        FastPath {
            layout,
            g,
            probs,
            table: Arc::default(),
        }
    }

    /// Position-ordered thresholds: `probs` gathered into in-CSR position
    /// order, on the first call.
    #[inline]
    pub fn thresholds(&self) -> &[u32] {
        &self.table.get_or_init(|| self.build()).th
    }

    #[cold]
    fn build(&self) -> ThresholdTable {
        let start = Instant::now();
        let th = self
            .g
            .in_edge_ids_raw()
            .iter()
            .map(|&e| coin_threshold(self.probs[e as usize]))
            .collect();
        tirm_obs::registry::FASTPATH_BUILDS.inc();
        ThresholdTable {
            th,
            build_time: start.elapsed(),
        }
    }

    /// Wall time spent gathering the threshold table; zero while no draw
    /// has asked for it.
    pub fn build_time(&self) -> Duration {
        self.table.get().map_or(Duration::ZERO, |t| t.build_time)
    }

    /// New id of `old` under the layout (identity when not relabeled).
    #[inline]
    pub fn mark_of(&self, old: NodeId) -> NodeId {
        match &self.layout.relabel {
            Some(r) => r.new_of_old[old as usize],
            None => old,
        }
    }

    /// Per-position mark indices when relabeled, `None` for identity.
    #[inline]
    pub(crate) fn in_sources_new(&self) -> Option<&[NodeId]> {
        self.layout.relabel.as_ref().map(|r| &r.in_sources_new[..])
    }

    /// The shared layout.
    pub fn layout(&self) -> &Arc<SamplingLayout> {
        &self.layout
    }

    /// Bytes held by the threshold table, once built (the layout is
    /// shared and counted once by its owner, and so is a table shared by
    /// clones).
    pub fn memory_bytes(&self) -> usize {
        self.table.get().map_or(0, |t| t.th.capacity() * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_matches_float_coin_exactly() {
        // Every 24-bit draw x maps to the float x·2⁻²⁴; the integer
        // comparison must agree with the float comparison for all
        // representative probabilities, including the degenerate ones.
        let probs = [
            0.0f32,
            -1.0,
            1.0,
            1.5,
            0.5,
            0.25,
            1.0 / 16_777_216.0,
            0.999_999_94, // largest f32 below 1
            2.0f32.powi(-24),
            2.0f32.powi(-25),
            0.1,
            0.3,
            0.7,
            f32::MIN_POSITIVE,
        ];
        let xs: Vec<u32> = (0..=24)
            .flat_map(|k| {
                let v = 1u32 << k;
                [v.saturating_sub(1), v.min((1 << 24) - 1)]
            })
            .chain((0..1000).map(|i| (i * 16_777) % (1 << 24)))
            .collect();
        for &p in &probs {
            let t = coin_threshold(p);
            assert!(t <= 1 << 24);
            assert_eq!(t == 0, p <= 0.0, "p={p}");
            for &x in &xs {
                let f = x as f32 * (1.0 / 16_777_216.0);
                assert_eq!(f < p, x < t, "p={p} x={x}");
            }
        }
    }

    #[test]
    fn clones_share_one_table() {
        let g = tirm_graph::generators::erdos_renyi(50, 200, 3);
        let probs = vec![0.3f32; g.num_edges()];
        let fp = FastPath::new(Arc::new(SamplingLayout::identity()), &g, &probs);
        let twin = fp.clone();
        assert_eq!(twin.memory_bytes(), 0, "nothing built yet");
        let th = twin.thresholds().as_ptr();
        assert_eq!(fp.thresholds().as_ptr(), th, "built once, seen by both");
        assert_eq!(fp.memory_bytes(), 4 * g.num_edges());
        // A route built on its own gathers its own table.
        let other = FastPath::new(Arc::new(SamplingLayout::identity()), &g, &probs);
        assert_ne!(other.thresholds().as_ptr(), th);
        assert_eq!(other.thresholds(), fp.thresholds());
    }

    #[test]
    fn degree_layout_is_a_bijection_over_marks() {
        let g = tirm_graph::generators::preferential_attachment(200, 3, 0.2, 8);
        let layout = SamplingLayout::degree_ordered(&g);
        let r = layout.relabel.as_ref().unwrap();
        let mut seen = [false; 200];
        for &nv in &r.new_of_old {
            assert!(!seen[nv as usize], "duplicate new id");
            seen[nv as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Position table is the gather of the node table.
        for (pos, &src) in g.in_sources_raw().iter().enumerate() {
            assert_eq!(r.in_sources_new[pos], r.new_of_old[src as usize]);
        }
        assert!(layout.is_relabeled());
        assert!(!SamplingLayout::identity().is_relabeled());
        assert!(layout.memory_bytes() > 0);
    }
}
