//! Random reverse-reachable set generation.
//!
//! A random RR set is produced by choosing a root `w` uniformly from `V`
//! and walking arcs *backwards*, keeping each arc `(v, u)` live with
//! probability `p_{v,u}` (§5.1). The set contains every node that reaches
//! `w` through live arcs — intuitively, the users whose adoption would
//! have reached `w`.
//!
//! The CTP-aware **RRC** variant (§5.2) additionally flips one node-level
//! coin per discovered node with its click-through probability `δ(v)`:
//! nodes failing the coin cannot be *seeds* for this sample (they are not
//! added to the set) but still transmit (they stay on the BFS frontier).

use crate::fastpath::FastPath;
use rand::Rng;
use tirm_graph::{DiGraph, NodeId};

/// Scratch buffers shared by consecutive samples (epoch-stamped marks).
#[derive(Clone, Debug)]
pub struct SampleWorkspace {
    epoch: u32,
    mark: Vec<u32>,
    queue: Vec<NodeId>,
    out: Vec<NodeId>,
}

impl SampleWorkspace {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        SampleWorkspace {
            epoch: 0,
            mark: vec![0; n],
            queue: Vec::with_capacity(256),
            out: Vec::with_capacity(64),
        }
    }

    /// Grows the mark array to cover `n` nodes; never shrinks. A
    /// workspace lent from engine to engine serves the largest graph it
    /// has drawn on. New marks are 0, an epoch no draw stamps with.
    pub(crate) fn grow_to(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
    }

    /// A fresh workspace whose epoch wraps to 0 on its `draws_left`-th
    /// draw after this one.
    #[cfg(test)]
    pub(crate) fn near_wrap(n: usize, draws_left: u32) -> Self {
        SampleWorkspace {
            epoch: u32::MAX - draws_left,
            ..SampleWorkspace::new(n)
        }
    }

    /// Bytes held by the workspace (the O(n) mark array dominates) —
    /// feeds the long-lived owners' memory accounting.
    pub fn memory_bytes(&self) -> usize {
        self.mark.capacity() * 4 + (self.queue.capacity() + self.out.capacity()) * 4
    }

    #[inline]
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.queue.clear();
        self.out.clear();
    }
}

/// Samples RR / RRC sets for one ad (one projected probability vector).
/// Holds only borrows, so it is `Copy` — pass it around freely.
#[derive(Clone, Copy)]
pub struct RrSampler<'a> {
    g: &'a DiGraph,
    probs: &'a [f32],
}

impl<'a> RrSampler<'a> {
    /// Creates a sampler over `g` with per-arc probabilities `probs`
    /// (indexed by canonical edge id).
    pub fn new(g: &'a DiGraph, probs: &'a [f32]) -> Self {
        assert_eq!(probs.len(), g.num_edges());
        RrSampler { g, probs }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        self.g
    }

    /// The per-arc probabilities (indexed by canonical edge id).
    pub fn probs(&self) -> &'a [f32] {
        self.probs
    }

    /// Samples one classic RR set and returns it as a slice. The root is
    /// always a member (it trivially reaches itself). For plain RR sets
    /// the BFS queue *is* the output — every discovered node is a member
    /// — so no separate output buffer is kept (RRC sets differ: their
    /// members are the CTP-coin survivors, a subset of the queue).
    pub fn sample<'w, R: Rng>(&self, ws: &'w mut SampleWorkspace, rng: &mut R) -> &'w [NodeId] {
        let n = self.g.num_nodes();
        ws.begin();
        let root = rng.gen_range(0..n) as NodeId;
        ws.mark[root as usize] = ws.epoch;
        ws.queue.push(root);
        let mut head = 0;
        while head < ws.queue.len() {
            let u = ws.queue[head];
            head += 1;
            for (e, v) in self.g.in_edges(u) {
                if ws.mark[v as usize] == ws.epoch {
                    continue;
                }
                let p = self.probs[e as usize];
                if p > 0.0 && rng.gen::<f32>() < p {
                    ws.mark[v as usize] = ws.epoch;
                    ws.queue.push(v);
                }
            }
        }
        &ws.queue
    }

    /// [`RrSampler::sample`] through the precomputed [`FastPath`]:
    /// position-ordered integer thresholds instead of the edge-id prob
    /// gather, raw word draws instead of float coins, and (optionally)
    /// degree-relabeled mark indexing. Bit-identical to [`Self::sample`]
    /// for the vendored generators, whose `next_u32`/floats derive from
    /// the high bits of `next_u64` — each coin consumes exactly one word
    /// in both paths, and `t == 0 ⇔ p ≤ 0` skips without drawing just
    /// like the slow path's `p > 0.0 &&` short-circuit.
    pub fn sample_with<'w, R: Rng>(
        &self,
        fp: &FastPath<'_>,
        ws: &'w mut SampleWorkspace,
        rng: &mut R,
    ) -> &'w [NodeId] {
        let n = self.g.num_nodes();
        debug_assert_eq!(fp.thresholds().len(), self.g.in_sources_raw().len());
        ws.begin();
        let root = rng.gen_range(0..n) as NodeId;
        ws.queue.push(root);
        let th = fp.thresholds();
        let sources = self.g.in_sources_raw();
        let mut head = 0;
        match fp.in_sources_new() {
            // The two arms differ only in which array indexes `mark`;
            // arcs are walked in identical (original CSR) order and the
            // draw predicate is identical, so the RNG stream and the
            // emitted (original-id) sets agree bit-for-bit. Each in-run
            // is sliced once and walked through zipped slice iterators —
            // per-arc indexing would re-pay a bounds check on every
            // array, which is measurable at this loop's temperature.
            None => {
                ws.mark[root as usize] = ws.epoch;
                while head < ws.queue.len() {
                    let u = ws.queue[head];
                    head += 1;
                    let r = self.g.in_range(u);
                    for (&t, &v) in th[r.clone()].iter().zip(&sources[r]) {
                        if t == 0 {
                            continue;
                        }
                        if ws.mark[v as usize] == ws.epoch {
                            continue;
                        }
                        if ((rng.next_u64() >> 40) as u32) < t {
                            ws.mark[v as usize] = ws.epoch;
                            ws.queue.push(v);
                        }
                    }
                }
            }
            Some(marks) => {
                ws.mark[fp.mark_of(root) as usize] = ws.epoch;
                while head < ws.queue.len() {
                    let u = ws.queue[head];
                    head += 1;
                    let r = self.g.in_range(u);
                    let zipped = th[r.clone()].iter().zip(&marks[r.clone()]).zip(&sources[r]);
                    for ((&t, &m), &v) in zipped {
                        if t == 0 {
                            continue;
                        }
                        if ws.mark[m as usize] == ws.epoch {
                            continue;
                        }
                        if ((rng.next_u64() >> 40) as u32) < t {
                            ws.mark[m as usize] = ws.epoch;
                            ws.queue.push(v);
                        }
                    }
                }
            }
        }
        &ws.queue
    }

    /// Samples one **RRC** set (§5.2): node-level CTP coins decide set
    /// membership; failed nodes still relay influence.
    pub fn sample_rrc<'w, R: Rng>(
        &self,
        ctp: &[f32],
        ws: &'w mut SampleWorkspace,
        rng: &mut R,
    ) -> &'w [NodeId] {
        let n = self.g.num_nodes();
        debug_assert_eq!(ctp.len(), n);
        ws.begin();
        let root = rng.gen_range(0..n) as NodeId;
        ws.mark[root as usize] = ws.epoch;
        ws.queue.push(root);
        if rng.gen::<f32>() < ctp[root as usize] {
            ws.out.push(root);
        }
        let mut head = 0;
        while head < ws.queue.len() {
            let u = ws.queue[head];
            head += 1;
            for (e, v) in self.g.in_edges(u) {
                if ws.mark[v as usize] == ws.epoch {
                    continue;
                }
                let p = self.probs[e as usize];
                if p > 0.0 && rng.gen::<f32>() < p {
                    ws.mark[v as usize] = ws.epoch;
                    ws.queue.push(v);
                    // The CTP coin is drawn even when δ(v) is exactly 0
                    // or 1 and the outcome is a foregone conclusion:
                    // shards reuse one RNG across samples, so eliding a
                    // "deterministic" draw would shift every subsequent
                    // word in the stream. Real workloads pin δ ≡ 1.0
                    // (the paper's scalability setup) and δ ≈ 0, so the
                    // elision would silently rewrite those baselines for
                    // a sub-one-word-per-node saving. Pinned by
                    // `rrc_draw_count_is_ctp_independent` below.
                    if rng.gen::<f32>() < ctp[v as usize] {
                        ws.out.push(v);
                    }
                }
            }
        }
        &ws.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tirm_graph::generators;

    /// The root the next draw from `rng` on an `n`-node graph starts at:
    /// the first word every walk consumes.
    fn next_root<R: Rng + Clone>(rng: &R, n: usize) -> NodeId {
        rng.clone().gen_range(0..n) as NodeId
    }

    #[test]
    fn rr_set_always_contains_root_and_respects_reachability() {
        // Path 0→1→2 with p=1: RR set of root r is {0..=r}.
        let g = generators::path(3);
        let probs = vec![1.0f32; 2];
        let s = RrSampler::new(&g, &probs);
        let mut ws = SampleWorkspace::new(3);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..50 {
            let set = s.sample(&mut ws, &mut rng).to_vec();
            let root = set[0];
            let mut want: Vec<NodeId> = (0..=root).collect();
            let mut got = set.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "root {root}");
        }
    }

    #[test]
    fn zero_probability_yields_singletons() {
        let g = generators::clique(10);
        let probs = vec![0.0f32; g.num_edges()];
        let s = RrSampler::new(&g, &probs);
        let mut ws = SampleWorkspace::new(10);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(s.sample(&mut ws, &mut rng).len(), 1);
        }
    }

    #[test]
    fn node_frequency_estimates_spread() {
        // Proposition 1: n·E[F_R({u})] = σ_ic({u}). For a star hub with
        // p = 0.3 and n = 21: σ({hub}) = 1 + 20·0.3 = 7.
        let n = 21usize;
        let g = generators::star(n);
        let probs = vec![0.3f32; g.num_edges()];
        let s = RrSampler::new(&g, &probs);
        let mut ws = SampleWorkspace::new(n);
        let mut rng = SmallRng::seed_from_u64(7);
        let samples = 60_000;
        let mut hub_hits = 0usize;
        for _ in 0..samples {
            if s.sample(&mut ws, &mut rng).contains(&0) {
                hub_hits += 1;
            }
        }
        let est = n as f64 * hub_hits as f64 / samples as f64;
        assert!((est - 7.0).abs() < 0.15, "estimated {est}, want 7");
    }

    #[test]
    fn rrc_membership_scaled_by_ctp() {
        // Same star; hub CTP 0.5 ⇒ σ_ctp({hub}) = 0.5·7 = 3.5 (Lemma 2).
        let n = 21usize;
        let g = generators::star(n);
        let probs = vec![0.3f32; g.num_edges()];
        let mut ctp = vec![1.0f32; n];
        ctp[0] = 0.5;
        let s = RrSampler::new(&g, &probs);
        let mut ws = SampleWorkspace::new(n);
        let mut rng = SmallRng::seed_from_u64(11);
        let samples = 60_000;
        let mut hub_hits = 0usize;
        for _ in 0..samples {
            if s.sample_rrc(&ctp, &mut ws, &mut rng).contains(&0) {
                hub_hits += 1;
            }
        }
        let est = n as f64 * hub_hits as f64 / samples as f64;
        assert!((est - 3.5).abs() < 0.12, "estimated {est}, want 3.5");
    }

    /// RNG wrapper counting consumed words — for pinning draw-count
    /// invariants.
    #[derive(Clone)]
    struct CountingRng {
        inner: SmallRng,
        draws: u64,
    }

    impl rand::RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
    }

    #[test]
    fn rrc_draw_count_is_ctp_independent() {
        // Every CTP coin must consume one RNG word even when δ(v) is 0 or
        // 1 — eliding foregone draws would desync the per-shard streams
        // that deterministic baselines (δ ≡ 1.0 scalability workloads)
        // are pinned to. On a p=1 path rooted at r the walk discovers
        // r+1 nodes over r arcs, so a sample costs exactly
        // 1 (root) + r (arc coins) + (r+1) (CTP coins) = 2r + 2 words,
        // independent of the δ values.
        let g = generators::path(6);
        let probs = vec![1.0f32; g.num_edges()];
        let s = RrSampler::new(&g, &probs);
        let mut ws = SampleWorkspace::new(6);
        for ctps in [vec![1.0f32; 6], vec![0.0f32; 6], vec![0.37f32; 6]] {
            let mut rng = CountingRng {
                inner: SmallRng::seed_from_u64(17),
                draws: 0,
            };
            for _ in 0..40 {
                let before = rng.draws;
                let root = next_root(&rng, 6) as u64;
                s.sample_rrc(&ctps, &mut ws, &mut rng);
                assert_eq!(rng.draws - before, 2 * root + 2, "ctp={:?}", ctps[0]);
            }
        }
    }

    #[test]
    fn fast_path_matches_slow_path_bit_for_bit() {
        // sample_with must replay sample's RNG stream and output exactly,
        // under both the identity and the degree-relabeled layouts, for a
        // prob vector exercising the p = 0 skip and the p = 1 sure-coin.
        use crate::fastpath::{FastPath, SamplingLayout};
        use std::sync::Arc;

        let g = generators::preferential_attachment(400, 4, 0.3, 21);
        let mut probs: Vec<f32> = (0..g.num_edges())
            .map(|e| ((e * 2_654_435_761) % 1000) as f32 / 999.0)
            .collect();
        for (i, p) in probs.iter_mut().enumerate() {
            if i % 7 == 0 {
                *p = 0.0;
            } else if i % 11 == 0 {
                *p = 1.0;
            }
        }
        let s = RrSampler::new(&g, &probs);
        let layouts = [
            Arc::new(SamplingLayout::identity()),
            Arc::new(SamplingLayout::degree_ordered(&g)),
        ];
        for layout in layouts {
            let fp = FastPath::new(layout, &g, &probs);
            let mut ws_a = SampleWorkspace::new(400);
            let mut ws_b = SampleWorkspace::new(400);
            let mut rng_a = SmallRng::seed_from_u64(5);
            let mut rng_b = SmallRng::seed_from_u64(5);
            for i in 0..300 {
                assert_eq!(next_root(&rng_a, 400), next_root(&rng_b, 400));
                let a = s.sample(&mut ws_a, &mut rng_a).to_vec();
                let b = s.sample_with(&fp, &mut ws_b, &mut rng_b).to_vec();
                assert_eq!(a, b, "sample {i}");
            }
        }
    }

    #[test]
    fn rrc_blocked_nodes_still_relay() {
        // Path 0→1→2, p=1, δ(1)=0, δ(0)=δ(2)=1. RR sets rooted at 2 must
        // still contain 0 (1 relays even though it can't seed).
        let g = generators::path(3);
        let probs = vec![1.0f32; 2];
        let ctp = vec![1.0f32, 0.0, 1.0];
        let s = RrSampler::new(&g, &probs);
        let mut ws = SampleWorkspace::new(3);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut saw_root2 = false;
        for _ in 0..200 {
            // The RRC root may be CTP-blocked and absent from the set:
            // read it off the RNG stream instead.
            let root = next_root(&rng, 3);
            let set = s.sample_rrc(&ctp, &mut ws, &mut rng).to_vec();
            if root == 2 {
                saw_root2 = true;
                assert!(set.contains(&0), "0 must relay through blocked 1");
                assert!(!set.contains(&1), "1 is CTP-blocked");
            }
        }
        assert!(saw_root2, "root 2 never sampled in 200 draws");
    }
}
