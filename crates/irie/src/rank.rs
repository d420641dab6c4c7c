//! Influence-rank and activation-probability iterations.

use tirm_graph::{DiGraph, NodeId};

/// Tuning knobs for the IRIE iterations.
#[derive(Clone, Copy, Debug)]
pub struct IrieConfig {
    /// Damping factor `α`; Jung et al. report 0.7 works best on their data,
    /// the paper tunes 0.8 for its quality experiments (§6).
    pub alpha: f64,
    /// Rank-iteration count (20 suffices for convergence at these α).
    pub rank_iterations: usize,
    /// Activation-probability propagation rounds per seed update.
    pub ap_rounds: usize,
}

impl Default for IrieConfig {
    fn default() -> Self {
        IrieConfig {
            alpha: 0.7,
            rank_iterations: 20,
            ap_rounds: 5,
        }
    }
}

/// IRIE state for one ad: seed set so far, activation probabilities and
/// seed-discounted influence ranks.
pub struct Irie<'a> {
    g: &'a DiGraph,
    probs: &'a [f32],
    cfg: IrieConfig,
    /// Seeds added so far with their CTPs.
    seeds: Vec<(NodeId, f32)>,
    /// `ap[v]` — estimated probability that `v` is already activated by the
    /// current seed set.
    ap: Vec<f64>,
    /// `rank[u]` — seed-discounted marginal spread estimate of `u`.
    rank: Vec<f64>,
}

impl<'a> Irie<'a> {
    /// Builds the state and runs the initial (seedless) rank iteration.
    pub fn new(g: &'a DiGraph, probs: &'a [f32], cfg: IrieConfig) -> Self {
        assert_eq!(probs.len(), g.num_edges());
        let n = g.num_nodes();
        let mut s = Irie {
            g,
            probs,
            cfg,
            seeds: Vec::new(),
            ap: vec![0.0; n],
            rank: vec![0.0; n],
        };
        s.recompute_rank();
        s
    }

    /// Current marginal-spread estimate of seeding `u` (before CTP scaling).
    #[inline]
    pub fn rank(&self, u: NodeId) -> f64 {
        self.rank[u as usize]
    }

    /// Full rank vector.
    pub fn ranks(&self) -> &[f64] {
        &self.rank
    }

    /// Registers `u` as a seed with click-through probability `ctp`, then
    /// refreshes the activation probabilities and ranks.
    pub fn add_seed(&mut self, u: NodeId, ctp: f32) {
        self.seeds.push((u, ctp));
        self.recompute_ap();
        self.recompute_rank();
    }

    /// Marginal spread estimate for seeding `u` with click probability
    /// `ctp`: the CTP gates the whole cascade (Lemma 1 of the paper).
    #[inline]
    pub fn marginal(&self, u: NodeId, ctp: f32) -> f64 {
        ctp as f64 * self.rank[u as usize]
    }

    /// Recomputes `ap` from the current seed set via iterated
    /// independent-arrival propagation.
    fn recompute_ap(&mut self) {
        let n = self.g.num_nodes();
        let mut base = vec![0.0f64; n];
        for &(s, ctp) in &self.seeds {
            // Multiple ads never seed the same node twice for the same ad;
            // combine defensively anyway.
            let b = &mut base[s as usize];
            *b = 1.0 - (1.0 - *b) * (1.0 - ctp as f64);
        }
        self.ap.copy_from_slice(&base);
        let mut next = vec![0.0f64; n];
        for _ in 0..self.cfg.ap_rounds {
            for v in 0..n as NodeId {
                let mut fail = 1.0f64;
                for (e, u) in self.g.in_edges(v) {
                    let pe = self.probs[e as usize] as f64;
                    if pe > 0.0 {
                        fail *= 1.0 - self.ap[u as usize] * pe;
                    }
                }
                next[v as usize] = 1.0 - (1.0 - base[v as usize]) * fail;
            }
            std::mem::swap(&mut self.ap, &mut next);
        }
    }

    /// Recomputes the seed-discounted influence rank.
    fn recompute_rank(&mut self) {
        let n = self.g.num_nodes();
        self.rank.iter_mut().for_each(|r| *r = 1.0);
        let mut next = vec![0.0f64; n];
        for _ in 0..self.cfg.rank_iterations {
            for u in 0..n as NodeId {
                let mut acc = 0.0f64;
                for (e, v) in self.g.out_edges(u) {
                    let pe = self.probs[e as usize] as f64;
                    if pe > 0.0 {
                        acc += pe * (1.0 - self.ap[v as usize]) * self.rank[v as usize];
                    }
                }
                next[u as usize] = (1.0 - self.ap[u as usize]) * (1.0 + self.cfg.alpha * acc);
            }
            std::mem::swap(&mut self.rank, &mut next);
        }
    }

    /// Number of seeds registered.
    pub fn num_seeds(&self) -> usize {
        self.seeds.len()
    }

    /// Approximate resident bytes (Table 4 comparison: IRIE's footprint is
    /// just a handful of node-length vectors).
    pub fn memory_bytes(&self) -> usize {
        self.ap.len() * 8 + self.rank.len() * 8 + self.seeds.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tirm_graph::generators;

    #[test]
    fn rank_orders_hub_first_on_star() {
        let g = generators::star(50);
        let probs = vec![0.2f32; g.num_edges()];
        let irie = Irie::new(&g, &probs, IrieConfig::default());
        let hub = irie.rank(0);
        for v in 1..50 {
            assert!(hub > irie.rank(v), "hub must outrank leaves");
        }
        // Hub rank ≈ 1 + α·49·0.2 (leaves have rank 1).
        let expect = 1.0 + 0.7 * 49.0 * 0.2;
        assert!((hub - expect).abs() < 1e-6, "hub {hub} vs {expect}");
    }

    #[test]
    fn rank_approximates_path_spread_with_alpha_one() {
        // On a path with p = 0.5 the exact spread of node 0 is
        // 1 + 0.5 + 0.25 + … ; with α = 1 IRIE reproduces it exactly.
        let g = generators::path(6);
        let probs = vec![0.5f32; g.num_edges()];
        let cfg = IrieConfig {
            alpha: 1.0,
            rank_iterations: 30,
            ap_rounds: 5,
        };
        let irie = Irie::new(&g, &probs, cfg);
        let want: f64 = (0..6).map(|i| 0.5f64.powi(i)).sum();
        assert!((irie.rank(0) - want).abs() < 1e-6);
    }

    #[test]
    fn adding_seed_discounts_neighbourhood() {
        let g = generators::star(30);
        let probs = vec![0.5f32; g.num_edges()];
        let mut irie = Irie::new(&g, &probs, IrieConfig::default());
        let before = irie.rank(0);
        irie.add_seed(0, 1.0);
        // The hub is now fully activated: its own rank collapses.
        assert!(
            irie.rank(0) < 1e-9,
            "seeded node keeps rank {}",
            irie.rank(0)
        );
        // Leaves are half-activated; their ranks shrink too.
        for v in 1..30 {
            assert!(irie.ap[v as usize] > 0.49);
            assert!(irie.rank(v) < 0.51);
        }
        assert!(before > 1.0);
        assert_eq!(irie.num_seeds(), 1);
    }

    #[test]
    fn ctp_scales_seed_impact() {
        let g = generators::star(30);
        let probs = vec![0.5f32; g.num_edges()];
        let mut low = Irie::new(&g, &probs, IrieConfig::default());
        let mut high = Irie::new(&g, &probs, IrieConfig::default());
        low.add_seed(0, 0.1);
        high.add_seed(0, 0.9);
        assert!(low.ap[1] < high.ap[1]);
        assert!(low.rank(1) > high.rank(1), "weak seed leaves more to gain");
        // Marginal helper gates by CTP.
        let fresh = Irie::new(&g, &probs, IrieConfig::default());
        assert!(fresh.marginal(0, 0.5) < fresh.marginal(0, 1.0));
    }

    #[test]
    fn memory_footprint_is_node_linear() {
        let g = generators::erdos_renyi(1000, 5000, 1);
        let probs = vec![0.1f32; g.num_edges()];
        let irie = Irie::new(&g, &probs, IrieConfig::default());
        assert!(irie.memory_bytes() < 64 * 1000);
    }
}
