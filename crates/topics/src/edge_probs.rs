//! Per-topic arc influence probabilities `p^z_{u,v}` and their TIC
//! projection to per-ad arc probabilities (Eq. 1 of the paper).

use crate::dist::TopicDist;
use tirm_graph::EdgeId;

/// Dense per-topic arc probabilities, edge-major layout
/// (`probs[e·K + z] = p^z` of edge `e`) so that projecting one edge touches
/// one cache line.
#[derive(Clone, Debug)]
pub struct TopicEdgeProbs {
    k: usize,
    probs: Vec<f32>,
}

impl TopicEdgeProbs {
    /// All-zero table for `m` arcs and `k` topics.
    pub fn new(m: usize, k: usize) -> Self {
        assert!(k > 0, "need at least one topic");
        TopicEdgeProbs {
            k,
            probs: vec![0.0; m * k],
        }
    }

    /// Builds the table by evaluating `f(edge, topic)` for every entry.
    pub fn from_fn(m: usize, k: usize, mut f: impl FnMut(EdgeId, usize) -> f32) -> Self {
        let mut t = TopicEdgeProbs::new(m, k);
        for e in 0..m {
            for z in 0..k {
                t.set(e as EdgeId, z, f(e as EdgeId, z));
            }
        }
        t
    }

    /// Wraps a single-topic (plain IC) probability vector.
    pub fn single_topic(probs: Vec<f32>) -> Self {
        TopicEdgeProbs { k: 1, probs }
    }

    /// Wraps an edge-major `m × k` matrix already in the internal layout —
    /// the zero-copy entry point for the snapshot loader
    /// (`tirm_graph::snapshot` stores exactly this layout). Panics if the
    /// length is not a multiple of `k`.
    pub fn from_flat(k: usize, probs: Vec<f32>) -> Self {
        assert!(k > 0, "need at least one topic");
        assert_eq!(
            probs.len() % k,
            0,
            "flat probability matrix length must be a multiple of k"
        );
        TopicEdgeProbs { k, probs }
    }

    /// The edge-major `m × k` matrix as a flat slice (the snapshot
    /// writer's view; inverse of [`Self::from_flat`]).
    #[inline]
    pub fn flat(&self) -> &[f32] {
        &self.probs
    }

    /// Number of topics `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of arcs covered.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.probs.len() / self.k
    }

    /// Sets `p^z` of edge `e`. Probability must lie in `[0, 1]`.
    #[inline]
    pub fn set(&mut self, e: EdgeId, z: usize, p: f32) {
        debug_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.probs[e as usize * self.k + z] = p;
    }

    /// Reads `p^z` of edge `e`.
    #[inline]
    pub fn get(&self, e: EdgeId, z: usize) -> f32 {
        self.probs[e as usize * self.k + z]
    }

    /// Per-topic slice of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &[f32] {
        let lo = e as usize * self.k;
        &self.probs[lo..lo + self.k]
    }

    /// TIC projection (Eq. 1): `p^i_{u,v} = Σ_z γ^z_i · p^z_{u,v}` for every
    /// arc, producing the flat per-ad probability vector consumed by the
    /// diffusion and RR-sampling engines.
    pub fn project(&self, ad: &TopicDist) -> Vec<f32> {
        assert_eq!(ad.k(), self.k, "ad lives in a different topic space");
        let m = self.num_edges();
        let mut out = vec![0.0f32; m];
        let w = ad.weights();
        for (e, slot) in out.iter_mut().enumerate() {
            let row = &self.probs[e * self.k..(e + 1) * self.k];
            let acc: f32 = w.iter().zip(row).map(|(wz, pz)| wz * pz).sum();
            // Numerical guard: convex combination of [0,1] values can drift
            // a hair above 1 in f32.
            *slot = acc.clamp(0.0, 1.0);
        }
        out
    }

    /// Bytes held by the table.
    pub fn memory_bytes(&self) -> usize {
        self.probs.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_is_convex_combination() {
        let mut t = TopicEdgeProbs::new(2, 3);
        t.set(0, 0, 0.9);
        t.set(0, 1, 0.3);
        t.set(0, 2, 0.0);
        t.set(1, 0, 0.1);
        t.set(1, 1, 0.1);
        t.set(1, 2, 0.1);
        let ad = TopicDist::new(vec![0.5, 0.5, 0.0]).unwrap();
        let p = t.project(&ad);
        assert!((p[0] - 0.6).abs() < 1e-6);
        assert!((p[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn single_topic_projection_is_identity() {
        let t = TopicEdgeProbs::single_topic(vec![0.25, 0.75]);
        let ad = TopicDist::single(1, 0);
        assert_eq!(t.project(&ad), vec![0.25, 0.75]);
    }

    #[test]
    fn point_mass_selects_topic() {
        let t = TopicEdgeProbs::from_fn(4, 2, |e, z| if z == 0 { 0.0 } else { e as f32 / 10.0 });
        let ad = TopicDist::single(2, 1);
        let p = t.project(&ad);
        assert_eq!(p, vec![0.0, 0.1, 0.2, 0.3]);
    }

    #[test]
    fn projection_stays_in_unit_interval() {
        let t = TopicEdgeProbs::from_fn(8, 4, |_, _| 1.0);
        let ad = TopicDist::uniform(4);
        assert!(t.project(&ad).iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    #[should_panic(expected = "different topic space")]
    fn topic_space_mismatch_panics() {
        let t = TopicEdgeProbs::new(1, 2);
        let ad = TopicDist::uniform(3);
        let _ = t.project(&ad);
    }

    #[test]
    fn flat_round_trip() {
        let t = TopicEdgeProbs::from_fn(3, 2, |e, z| (e as f32 + z as f32) / 10.0);
        let back = TopicEdgeProbs::from_flat(t.k(), t.flat().to_vec());
        assert_eq!(back.k(), 2);
        assert_eq!(back.num_edges(), 3);
        for e in 0..3u32 {
            assert_eq!(back.edge(e), t.edge(e));
        }
    }

    #[test]
    #[should_panic(expected = "multiple of k")]
    fn from_flat_rejects_ragged_matrix() {
        let _ = TopicEdgeProbs::from_flat(3, vec![0.1; 7]);
    }

    #[test]
    fn memory_accounting() {
        let t = TopicEdgeProbs::new(10, 5);
        assert_eq!(t.memory_bytes(), 10 * 5 * 4);
        assert_eq!(t.num_edges(), 10);
        assert_eq!(t.k(), 5);
    }
}
