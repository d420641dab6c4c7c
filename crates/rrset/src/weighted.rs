//! CTP-weighted RR-set coverage.
//!
//! Algorithm 2 (line 12) of the paper removes every RR set covered by a
//! freshly chosen seed. That is exact when seeds click with probability 1
//! (the scalability setup, §6.2): a covering seed then activates the
//! set's root for sure. With click-through probabilities `δ ≪ 1`,
//! however, a chosen seed only "covers" a set with probability `δ` — the
//! exact possible-world bookkeeping multiplies the set's weight by
//! `(1 − δ)` instead of dropping it:
//!
//! * set weight `w_R = Π_{s ∈ S ∩ R} (1 − δ(s))` — probability that no
//!   already-chosen seed in `R` clicks;
//! * node score `score(v) = Σ_{R ∋ v} w_R` — so the exact marginal revenue
//!   of candidate `v` is `cpe · n · δ(v) · score(v) / θ`;
//! * `deficit = Σ_R (1 − w_R)` — so `n · deficit / θ` estimates
//!   `σ_ctp(S)` without bias (each root clicks iff some seed in its RR
//!   set clicks: probability `1 − w_R`).
//!
//! At `δ = 1` weights drop to 0 and this *is* the paper's hard removal:
//! every score stays an integer count of the uncovered sets holding its
//! node, and `deficit` counts the covered sets. So one overlay serves
//! both rules, and greedy max-cover is `decay_node(v, 1.0)` after each
//! pick. The difference at small CTPs is measured by the `ablation`
//! harness binary.
//!
//! # Warm reuse: the active window
//!
//! Storage and postings live in a shared [`RrIndex`], and the overlay only
//! *activates* a prefix of the stored sets: `num_sets()` counts active
//! sets (θ as the algorithms see it), while the index may cache more. The
//! online serving layer exploits this: a persistent per-ad `RrIndex`
//! survives across re-allocations, each re-allocation wraps it in a fresh
//! overlay ([`WeightedRrCollection::from_index`]), re-activates the prefix
//! it needs ([`WeightedRrCollection::activate_next`] — bit-identical to
//! having sampled those sets, set by set), and only samples fresh sets
//! past the cached tail. [`WeightedRrCollection::take_index`] hands the
//! (possibly grown) index back at the end of the run.

use crate::index::RrIndex;
use tirm_graph::NodeId;

/// RR-set collection with per-set survival weights over a prefix of an
/// [`RrIndex`].
#[derive(Clone, Debug)]
pub struct WeightedRrCollection {
    index: RrIndex,
    /// Survival weight `w_R` per *active* set (1 until a seed in it is
    /// chosen). `weights.len()` is the active-window size.
    weights: Vec<f64>,
    /// `score[v] = Σ_{active R ∋ v} w_R`.
    score: Vec<f64>,
    /// `Σ_{active R} (1 − w_R)`.
    deficit: f64,
    /// Number of active sets containing at least one chosen seed
    /// (weight < 1) — `n·touched/θ` estimates the CTP-free spread
    /// `σ_ic(S)`, used as an `OPT_s` lower-bound proxy for the θ formula.
    touched: usize,
}

impl WeightedRrCollection {
    /// Empty collection over `n` nodes.
    pub fn new(n: usize) -> Self {
        Self::from_index(RrIndex::new(n))
    }

    /// Overlay over an existing index with *zero* active sets: cached sets
    /// stay dormant until [`Self::activate_next`] re-admits them.
    pub fn from_index(index: RrIndex) -> Self {
        let n = index.num_nodes();
        WeightedRrCollection {
            index,
            weights: Vec::new(),
            score: vec![0.0; n],
            deficit: 0.0,
            touched: 0,
        }
    }

    /// Consumes the overlay, returning the (possibly grown) index for
    /// reuse by a later overlay.
    pub fn take_index(self) -> RrIndex {
        self.index
    }

    /// Number of nodes the collection is defined over.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.index.num_nodes()
    }

    /// Number of *active* sets (θ as the algorithms see it).
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.weights.len()
    }

    /// Adds one *fresh* RR set with weight 1; returns its id. Only legal
    /// once the cached tail is exhausted (fresh samples append past it) —
    /// activate cached sets first.
    pub fn add_set(&mut self, members: &[NodeId]) -> u32 {
        debug_assert_eq!(
            self.weights.len(),
            self.index.num_sets(),
            "activate cached sets before sampling fresh ones"
        );
        let sid = self.index.push_set(members);
        self.weights.push(1.0);
        for &v in members {
            self.score[v as usize] += 1.0;
        }
        sid
    }

    /// Activates up to `count` dormant sets from the cached tail, in id
    /// order, each with weight 1 — arithmetically identical to having
    /// just sampled them. Returns how many were activated (less than
    /// `count` when the cache runs out).
    pub fn activate_next(&mut self, count: usize) -> usize {
        self.activate::<true>(count)
    }

    /// The weight half of [`Self::activate_next`]: the same sets become
    /// active with weight 1, and the scores are left alone. See
    /// [`Self::decay_weights_from`] for what that is for.
    pub fn activate_weights(&mut self, count: usize) -> usize {
        self.activate::<false>(count)
    }

    fn activate<const SCORES: bool>(&mut self, count: usize) -> usize {
        let avail = self.index.num_sets() - self.weights.len();
        let take = count.min(avail);
        for _ in 0..take {
            let sid = self.weights.len() as u32;
            self.weights.push(1.0);
            if SCORES {
                for v in self.index.set(sid) {
                    self.score[v as usize] += 1.0;
                }
            }
        }
        take
    }

    /// Restores the overlay to a pristine `active`-set prefix using a
    /// previously captured score vector (see [`Self::scores`]): weights
    /// all 1, no deficit, no touched sets. Because pristine scores are
    /// exact integer counts, restoring is bit-identical to re-activating
    /// the prefix set by set — this is the online layer's O(n) warm-init
    /// shortcut past the O(entries) activation walk.
    pub fn restore_prefix(&mut self, active: usize, scores: &[f64]) {
        assert!(active <= self.index.num_sets(), "prefix exceeds cache");
        assert_eq!(scores.len(), self.num_nodes());
        self.weights.clear();
        self.weights.resize(active, 1.0);
        self.score.copy_from_slice(scores);
        self.deficit = 0.0;
        self.touched = 0;
    }

    /// Current scores (weighted marginal coverage per node) — capture
    /// right after activation to feed [`Self::restore_prefix`] later, or
    /// at any point to feed [`Self::restore_scores`].
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.score
    }

    /// Overwrites the scores with `scores`, captured from an overlay over
    /// the same index that had the weights this one has now. The scores
    /// are a function of the weights, so the overlay is then the captured
    /// one, bit for bit, as long as both reached their weights through
    /// the same operations in the same order.
    pub fn restore_scores(&mut self, scores: &[f64]) {
        self.score.copy_from_slice(scores);
    }

    /// Current score of `v` (weighted marginal coverage).
    #[inline]
    pub fn score(&self, v: NodeId) -> f64 {
        self.score[v as usize]
    }

    /// `Σ_R (1 − w_R)`; `n·deficit/θ` estimates `σ_ctp(S)` unbiasedly.
    #[inline]
    pub fn deficit(&self) -> f64 {
        self.deficit
    }

    /// Number of sets touched by at least one seed; `n·touched/θ`
    /// estimates the CTP-free spread `σ_ic(S)` of the chosen seed set.
    #[inline]
    pub fn union_coverage(&self) -> usize {
        self.touched
    }

    /// Commits seed `v` with click probability `delta`: every active set
    /// containing `v` keeps only a `(1 − δ)` share of its weight
    /// (`δ = 1` reproduces the paper's hard removal). Returns `v`'s score
    /// before the decay (its weighted coverage at selection time).
    pub fn decay_node(&mut self, v: NodeId, delta: f64) -> f64 {
        self.decay_node_from(v, delta, 0)
    }

    /// Like [`Self::decay_node`] but only touches sets with id ≥
    /// `from_sid` — TIRM's `UpdateEstimates` (Algorithm 4) uses this to
    /// apply existing seeds to freshly sampled sets only. Returns `v`'s
    /// weighted score restricted to the touched id range, *before* decay.
    /// Dormant cached sets (id ≥ active window) are never touched.
    pub fn decay_node_from(&mut self, v: NodeId, delta: f64, from_sid: u32) -> f64 {
        self.decay::<true>(v, delta, from_sid)
    }

    /// The weight half of [`Self::decay_node_from`]: the same weights,
    /// `deficit`, touched count and return value, with the scores left
    /// alone. Replaying a run's decays this way and then
    /// [`Self::restore_scores`] with the scores that run captured at the
    /// same point rebuilds its overlay without the per-member score
    /// updates, which are most of a decay's cost.
    pub fn decay_weights_from(&mut self, v: NodeId, delta: f64, from_sid: u32) -> f64 {
        self.decay::<false>(v, delta, from_sid)
    }

    #[inline]
    fn decay<const SCORES: bool>(&mut self, v: NodeId, delta: f64, from_sid: u32) -> f64 {
        debug_assert!((0.0..=1.0).contains(&delta));
        let keep = 1.0 - delta;
        let active = self.weights.len() as u32;
        let mut before = 0.0f64;
        for sid in self.index.postings(v) {
            if sid < from_sid {
                continue;
            }
            if sid >= active {
                break; // postings are ascending; the rest are dormant
            }
            let w = self.weights[sid as usize];
            if w <= 0.0 {
                continue;
            }
            before += w;
            let dw = w * delta;
            if dw > 0.0 {
                if w >= 1.0 {
                    self.touched += 1;
                }
                self.weights[sid as usize] = w * keep;
                self.deficit += dw;
                if SCORES {
                    for u in self.index.set(sid) {
                        self.score[u as usize] -= dw;
                    }
                }
            }
        }
        before
    }

    /// Node with maximum score among eligible ones (linear scan; TIRM uses
    /// the lazy heap instead).
    pub fn argmax_score(&self, mut eligible: impl FnMut(NodeId) -> bool) -> Option<(NodeId, f64)> {
        let mut best: Option<(NodeId, f64)> = None;
        for v in 0..self.num_nodes() as NodeId {
            let s = self.score[v as usize];
            if s <= 1e-12 || !eligible(v) {
                continue;
            }
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((v, s));
            }
        }
        best
    }

    /// Exact bytes held (Table 4 metric): index storage plus the overlay.
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.overlay_bytes()
    }

    /// Bytes of the overlay alone: weights and scores.
    pub fn overlay_bytes(&self) -> usize {
        self.weights.capacity() * 8 + self.score.capacity() * 8
    }

    /// Sum of stored set sizes.
    pub fn total_entries(&self) -> usize {
        self.index.total_entries()
    }

    /// Merges the index's hot postings arena into the frozen exact-fit
    /// tier (contents and order unchanged) — run owners call this before
    /// reporting memory so artifact numbers measure the settled layout.
    pub fn compact_postings(&mut self) {
        self.index.compact();
    }

    /// Bytes held by the index's inverted postings structures.
    pub fn postings_bytes(&self) -> usize {
        self.index.postings_bytes()
    }
}

/// Encodes a non-negative score as a heap key preserving order
/// (IEEE-754 doubles of equal sign compare like their bit patterns).
#[inline]
pub fn score_key(score: f64) -> u64 {
    debug_assert!(score >= 0.0);
    score.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::Strategy as _;

    fn sample() -> WeightedRrCollection {
        let mut c = WeightedRrCollection::new(4);
        c.add_set(&[0, 1]);
        c.add_set(&[1, 2]);
        c.add_set(&[1]);
        c
    }

    #[test]
    fn scores_count_sets() {
        let c = sample();
        assert_eq!(c.score(1), 3.0);
        assert_eq!(c.score(0), 1.0);
        assert_eq!(c.score(3), 0.0);
        assert_eq!(c.deficit(), 0.0);
    }

    #[test]
    fn full_delta_equals_hard_removal() {
        let mut c = sample();
        let before = c.decay_node(1, 1.0);
        assert_eq!(before, 3.0);
        assert_eq!(c.score(1), 0.0);
        assert_eq!(c.score(0), 0.0);
        assert_eq!(c.score(2), 0.0);
        assert_eq!(c.deficit(), 3.0);
    }

    #[test]
    fn partial_delta_decays() {
        let mut c = sample();
        c.decay_node(1, 0.5);
        // Every set containing 1 halves; scores follow.
        assert!((c.score(1) - 1.5).abs() < 1e-12);
        assert!((c.score(0) - 0.5).abs() < 1e-12);
        assert!((c.deficit() - 1.5).abs() < 1e-12);
        // Second decay by 0.5 halves the survivors again.
        c.decay_node(1, 0.5);
        assert!((c.score(1) - 0.75).abs() < 1e-12);
        assert!((c.deficit() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn deficit_matches_inclusion_exclusion() {
        // Set {0,1} with δ(0)=0.3 then δ(1)=0.2:
        // 1 − (1−0.3)(1−0.2) = 0.44.
        let mut c = WeightedRrCollection::new(2);
        c.add_set(&[0, 1]);
        c.decay_node(0, 0.3);
        c.decay_node(1, 0.2);
        assert!((c.deficit() - 0.44).abs() < 1e-12);
    }

    #[test]
    fn decay_from_only_touches_new_sets() {
        let mut c = sample(); // sets 0..3 contain node 1
        let first_new = c.num_sets() as u32;
        c.add_set(&[1, 3]);
        c.decay_node_from(1, 0.5, first_new);
        // Old sets untouched, new set halved.
        assert!((c.deficit() - 0.5).abs() < 1e-12);
        assert!((c.score(3) - 0.5).abs() < 1e-12);
        assert!((c.score(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_and_memory() {
        let c = sample();
        assert_eq!(c.argmax_score(|_| true).map(|(v, _)| v), Some(1));
        assert_eq!(c.argmax_score(|v| v != 1).map(|(v, _)| v), Some(0));
        assert!(c.memory_bytes() > 0);
        assert_eq!(c.total_entries(), 5);
    }

    #[test]
    fn score_key_orders() {
        assert!(score_key(2.0) > score_key(1.5));
        assert!(score_key(0.1) > score_key(0.0));
    }

    #[test]
    fn reactivation_is_bit_identical_to_fresh_adds() {
        // Build, decay, then rebuild an overlay over the recycled index:
        // the reactivated collection must behave exactly like the original
        // freshly-added one.
        let mut c = sample();
        c.decay_node(1, 0.7);
        let index = c.take_index();
        let mut warm = WeightedRrCollection::from_index(index);
        assert_eq!(warm.num_sets(), 0);
        assert_eq!(warm.activate_next(2), 2);
        assert_eq!(warm.num_sets(), 2);
        assert_eq!(warm.score(1), 2.0, "third set still dormant");
        // Dormant sets are invisible to decays.
        let before = warm.decay_node(1, 0.5);
        assert_eq!(before, 2.0);
        assert_eq!(warm.activate_next(10), 1, "only one dormant set left");
        assert_eq!(warm.num_sets(), 3);
        // The batch analogue of the same operation sequence: two adds, a
        // decay, then a third (fresh) add — late activation must be
        // bit-identical to it.
        let fresh = {
            let mut f = WeightedRrCollection::new(4);
            f.add_set(&[0, 1]);
            f.add_set(&[1, 2]);
            f.decay_node(1, 0.5);
            f.add_set(&[1]);
            f
        };
        for v in 0..4 {
            assert_eq!(warm.score(v), fresh.score(v), "node {v}");
        }
        assert_eq!(warm.deficit(), fresh.deficit());
        assert_eq!(warm.union_coverage(), fresh.union_coverage());
    }

    #[test]
    fn restore_prefix_matches_activation() {
        let mut c = sample();
        let snapshot: Vec<f64> = c.scores().to_vec();
        c.decay_node(1, 0.9);
        let index = c.take_index();
        let mut warm = WeightedRrCollection::from_index(index);
        warm.restore_prefix(3, &snapshot);
        assert_eq!(warm.num_sets(), 3);
        assert_eq!(warm.score(1), 3.0);
        assert_eq!(warm.deficit(), 0.0);
        assert_eq!(warm.union_coverage(), 0);
        // Behaves exactly like the pristine original.
        assert_eq!(warm.decay_node(1, 1.0), 3.0);
    }

    /// One step of a TIRM-like run over an overlay.
    #[derive(Clone, Debug)]
    enum Op {
        /// Commit a seed: `decay_node(v, δ)`.
        Decay(NodeId, f64),
        /// A θ growth: activate `count` cached sets, then apply every
        /// earlier seed to them (Algorithm 4).
        Grow(usize),
    }

    /// Applies `ops` to `c`, in full or (`full = false`) their weight
    /// half only.
    fn run(c: &mut WeightedRrCollection, ops: &[Op], seeds: &mut Vec<(NodeId, f64)>, full: bool) {
        let decay = if full {
            WeightedRrCollection::decay_node_from
        } else {
            WeightedRrCollection::decay_weights_from
        };
        for op in ops {
            match *op {
                Op::Decay(v, delta) => {
                    decay(c, v, delta, 0);
                    seeds.push((v, delta));
                }
                Op::Grow(count) => {
                    let first_new = c.num_sets() as u32;
                    if full {
                        c.activate_next(count);
                    } else {
                        c.activate_weights(count);
                    }
                    for &(v, delta) in seeds.iter() {
                        decay(c, v, delta, first_new);
                    }
                }
            }
        }
    }

    fn same_bits(a: &WeightedRrCollection, b: &WeightedRrCollection) -> Result<(), String> {
        let bits = |x: &[f64]| x.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        if bits(&a.weights) != bits(&b.weights) {
            return Err("weights differ".into());
        }
        if bits(&a.score) != bits(&b.score) {
            return Err("scores differ".into());
        }
        if a.deficit.to_bits() != b.deficit.to_bits() || a.touched != b.touched {
            return Err(format!(
                "deficit/touched {}/{} vs {}/{}",
                a.deficit, a.touched, b.deficit, b.touched
            ));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Rebuilding an overlay at any prefix `c` of a run — pristine
        /// base, the weight half of the first `k` steps, the scores
        /// captured after step `k`, then steps `k..c` in full — gives the
        /// overlay that ran the first `c` steps, bit for bit, for every
        /// `k ≤ c`. Covers `δ = 1` (weights reach 0), fractional `δ`, and
        /// θ growths between decays.
        #[test]
        fn rebuilt_overlay_is_the_one_that_ran(
            sets in proptest::collection::vec(
                proptest::collection::btree_set(0u32..24, 1..6), 30..70),
            theta0_share in 0.3f64..0.9,
            ops in proptest::collection::vec(
                ((0u8..5, 0u32..24), (0u8..2, 0.01f64..0.99), 1usize..12).prop_map(
                    |((kind, v), (hard, d), count)| match (kind, hard) {
                        (0, _) => Op::Grow(count),
                        (_, 0) => Op::Decay(v, 1.0),
                        _ => Op::Decay(v, d),
                    },
                ),
                1..24),
        ) {
            let mut all = WeightedRrCollection::new(24);
            for s in &sets {
                all.add_set(&s.iter().copied().collect::<Vec<_>>());
            }
            let theta0 = ((sets.len() as f64 * theta0_share) as usize).max(1);
            let mut base = WeightedRrCollection::from_index(all.take_index());
            base.activate_next(theta0);
            let base_scores = base.scores().to_vec();

            // The overlay after each prefix, and the scores it held.
            let mut ran = vec![base.clone()];
            let mut seeds = Vec::new();
            for op in &ops {
                let mut next = ran.last().unwrap().clone();
                run(&mut next, std::slice::from_ref(op), &mut seeds, true);
                ran.push(next);
            }
            for c in 0..=ops.len() {
                for k in 0..=c {
                    let mut rebuilt = base.clone();
                    rebuilt.restore_prefix(theta0, &base_scores);
                    let mut seeds = Vec::new();
                    run(&mut rebuilt, &ops[..k], &mut seeds, false);
                    rebuilt.restore_scores(ran[k].scores());
                    run(&mut rebuilt, &ops[k..c], &mut seeds, true);
                    if let Err(e) = same_bits(&rebuilt, &ran[c]) {
                        proptest::prop_assert!(false, "prefix {c}, checkpoint {k}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "prefix exceeds cache")]
    fn restore_prefix_rejects_overrun() {
        let mut c = sample();
        let scores = c.scores().to_vec();
        c.restore_prefix(4, &scores);
    }
}
