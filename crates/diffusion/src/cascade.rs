//! Single forward cascade runs under IC with optional seed CTPs.

use rand::Rng;
use tirm_graph::{DiGraph, NodeId};

/// Reusable scratch space for cascade runs. Uses epoch-stamped visit marks
/// so consecutive runs need no clearing — essential in tight MC loops.
#[derive(Clone, Debug)]
pub struct CascadeWorkspace {
    epoch: u32,
    mark: Vec<u32>,
    queue: Vec<NodeId>,
}

impl CascadeWorkspace {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        CascadeWorkspace {
            epoch: 0,
            mark: vec![0; n],
            queue: Vec::with_capacity(1024),
        }
    }

    /// Starts a fresh run; returns the epoch token for this run.
    #[inline]
    fn begin(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: reset marks so stale stamps can't match.
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.epoch
    }

    #[inline]
    fn is_marked(&self, u: NodeId) -> bool {
        self.mark[u as usize] == self.epoch
    }

    #[inline]
    fn mark(&mut self, u: NodeId) {
        self.mark[u as usize] = self.epoch;
    }
}

/// Runs one independent cascade from `seeds` and returns the number of
/// activated nodes (= clicks: accepted seeds plus influenced users).
///
/// * `probs[e]` — per-arc influence probability for the ad being simulated
///   (the TIC projection of Eq. 1).
/// * `ctp` — optional per-node click-through probabilities `δ(·, i)`; when
///   present each seed is first filtered through its acceptance coin
///   (TIC-CTP semantics); when `None` seeds activate with probability 1
///   (plain IC, the classical model of \[19\]).
pub fn simulate_once<R: Rng>(
    g: &DiGraph,
    probs: &[f32],
    seeds: &[NodeId],
    ctp: Option<&[f32]>,
    ws: &mut CascadeWorkspace,
    rng: &mut R,
) -> usize {
    debug_assert_eq!(probs.len(), g.num_edges());
    ws.begin();
    ws.queue.clear();
    let mut activated = 0usize;
    for &s in seeds {
        if ws.is_marked(s) {
            continue; // duplicate seed
        }
        let accepts = match ctp {
            Some(d) => rng.gen::<f32>() < d[s as usize],
            None => true,
        };
        if accepts {
            ws.mark(s);
            ws.queue.push(s);
            activated += 1;
        }
    }
    let mut head = 0usize;
    while head < ws.queue.len() {
        let u = ws.queue[head];
        head += 1;
        let lo = g.out_edges(u);
        for (e, v) in lo {
            if ws.is_marked(v) {
                continue;
            }
            let p = probs[e as usize];
            if p > 0.0 && rng.gen::<f32>() < p {
                ws.mark(v);
                ws.queue.push(v);
                activated += 1;
            }
        }
    }
    activated
}

/// Like [`simulate_once`] but also increments `hits[v]` for every activated
/// node `v` — used to estimate per-node click probabilities (Fig. 1).
pub fn simulate_once_collect<R: Rng>(
    g: &DiGraph,
    probs: &[f32],
    seeds: &[NodeId],
    ctp: Option<&[f32]>,
    ws: &mut CascadeWorkspace,
    rng: &mut R,
    hits: &mut [u64],
) -> usize {
    let n = simulate_once(g, probs, seeds, ctp, ws, rng);
    for &v in &ws.queue {
        hits[v as usize] += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tirm_graph::generators;

    #[test]
    fn deterministic_extremes() {
        let g = generators::path(5);
        let mut ws = CascadeWorkspace::new(5);
        let mut rng = SmallRng::seed_from_u64(1);
        // Probability 1 arcs: whole path activates.
        let all = vec![1.0f32; g.num_edges()];
        assert_eq!(simulate_once(&g, &all, &[0], None, &mut ws, &mut rng), 5);
        // Probability 0 arcs: only the seed.
        let none = vec![0.0f32; g.num_edges()];
        assert_eq!(simulate_once(&g, &none, &[0], None, &mut ws, &mut rng), 1);
    }

    #[test]
    fn ctp_zero_blocks_everything() {
        let g = generators::star(6);
        let mut ws = CascadeWorkspace::new(6);
        let mut rng = SmallRng::seed_from_u64(2);
        let probs = vec![1.0f32; g.num_edges()];
        let ctp = vec![0.0f32; 6];
        assert_eq!(
            simulate_once(&g, &probs, &[0], Some(&ctp), &mut ws, &mut rng),
            0
        );
    }

    #[test]
    fn duplicate_seeds_counted_once() {
        let g = generators::path(3);
        let mut ws = CascadeWorkspace::new(3);
        let mut rng = SmallRng::seed_from_u64(3);
        let none = vec![0.0f32; g.num_edges()];
        assert_eq!(
            simulate_once(&g, &none, &[1, 1, 1], None, &mut ws, &mut rng),
            1
        );
    }

    #[test]
    fn collect_marks_activated_nodes() {
        let g = generators::path(4);
        let mut ws = CascadeWorkspace::new(4);
        let mut rng = SmallRng::seed_from_u64(4);
        let all = vec![1.0f32; g.num_edges()];
        let mut hits = vec![0u64; 4];
        let n = simulate_once_collect(&g, &all, &[1], None, &mut ws, &mut rng, &mut hits);
        assert_eq!(n, 3);
        assert_eq!(hits, vec![0, 1, 1, 1]);
    }

    #[test]
    fn workspace_reuse_is_clean_across_runs() {
        let g = generators::clique(8);
        let mut ws = CascadeWorkspace::new(8);
        let mut rng = SmallRng::seed_from_u64(5);
        let none = vec![0.0f32; g.num_edges()];
        for s in 0..8u32 {
            // Each run must see a fresh visited state.
            assert_eq!(simulate_once(&g, &none, &[s], None, &mut ws, &mut rng), 1);
        }
    }
}
