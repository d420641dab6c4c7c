//! Retained pool of departed ads' RR-index shards.
//!
//! When a campaign departs, its sampling capital — the RR sets, the
//! θ-engine position, the KPT width cache — is *released back to the
//! pool* rather than dropped: campaigns routinely pause and resume, and a
//! re-arrival under the same id (with the same topic distribution) can
//! reclaim the shard and serve its first re-allocation without a single
//! fresh graph walk. A pooled shard is never scanned, so it is kept
//! parked ([`ParkedWarmState`]): the bit-packed sets without their node →
//! set-id postings, which a reclaim rebuilds by a counting sort over the
//! sets (≈ 0.65 ms for 100 k sets, against ≈ 13 ms to redraw them).
//! [`RetainedPool::release`] takes the shard already parked: a departure
//! parks its live shard, and a checkpoint restore redraws a pooled shard
//! parked, so its postings are never placed. The pool is bounded by an
//! explicit budget in parked bytes and evicts oldest-released-first;
//! reclaiming under a *changed* topic distribution invalidates the shard
//! (the cached sets were sampled under the old projected probabilities)
//! and drops it instead.

use crate::events::AdId;
use tirm_core::{AdWarmState, ParkedWarmState};
use tirm_topics::TopicDist;

/// One retained shard with the fingerprint its validity depends on.
pub(crate) struct Retained {
    pub(crate) id: AdId,
    pub(crate) topics: TopicDist,
    pub(crate) state: ParkedWarmState,
    bytes: usize,
}

/// Bounded pool of departed ads' warm states, evicting oldest-first.
pub struct RetainedPool {
    max_bytes: usize,
    /// Release order: front = oldest = first evicted.
    entries: Vec<Retained>,
    total_bytes: usize,
    evictions: usize,
}

impl RetainedPool {
    /// Pool with the given byte budget. A budget of 0 retains nothing.
    pub fn new(max_bytes: usize) -> Self {
        RetainedPool {
            max_bytes,
            entries: Vec::new(),
            total_bytes: 0,
            evictions: 0,
        }
    }

    /// Number of retained shards.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently held, parked.
    pub fn memory_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Shards evicted over the pool's lifetime (budget pressure only;
    /// reclaims and invalidations don't count).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Keeps a departed ad's parked shard in the pool, then trims to the
    /// byte budget (which may evict the shard just released). A shard
    /// already pooled under the same id is replaced.
    pub fn release(&mut self, id: AdId, topics: TopicDist, state: ParkedWarmState) {
        if let Some(pos) = self.entries.iter().position(|e| e.id == id) {
            let old = self.entries.remove(pos);
            self.total_bytes -= old.bytes;
        }
        let bytes = state.memory_bytes();
        self.total_bytes += bytes;
        self.entries.push(Retained {
            id,
            topics,
            state,
            bytes,
        });
        while self.total_bytes > self.max_bytes {
            let evicted = self.entries.remove(0);
            self.total_bytes -= evicted.bytes;
            self.evictions += 1;
            tirm_obs::registry::POOL_EVICTIONS.inc();
        }
    }

    /// Checkpoint access: the retained entries in release order (oldest —
    /// first-evicted — first).
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Retained> {
        self.entries.iter()
    }

    /// Checkpoint restore: pins the lifetime eviction counter to the
    /// checkpointed value after the entries have been re-released (a
    /// re-release under a tighter budget may itself evict, and those
    /// evictions are already counted in the checkpoint's number).
    pub(crate) fn set_evictions(&mut self, evictions: usize) {
        self.evictions = evictions;
    }

    /// Reclaims the shard of a re-arriving ad, unparked. Returns `None`
    /// when the id is not pooled; a pooled shard whose topic distribution
    /// differs from the re-arrival's is invalid (sampled under other
    /// probabilities) and is dropped.
    pub fn reclaim(&mut self, id: AdId, topics: &TopicDist) -> Option<AdWarmState> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        let entry = self.entries.remove(pos);
        self.total_bytes -= entry.bytes;
        (entry.topics == *topics).then(|| entry.state.unpark())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tirm_core::{
        tirm_allocate_warm, AdSeeds, Advertiser, Attention, ProblemInstance, TirmOptions,
    };
    use tirm_graph::generators;
    use tirm_topics::CtpTable;

    /// A real warm state (the pool stores opaque capital; tests need a
    /// genuine one to exercise byte accounting).
    fn warm_state(seed_id: u64) -> AdWarmState {
        let g = generators::star(40);
        let ads = vec![Advertiser::new(5.0, 1.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.2f32; g.num_edges()]];
        let ctp = CtpTable::constant(40, 1, 1.0);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let opts = TirmOptions {
            max_theta_per_ad: Some(5_000),
            ..TirmOptions::default()
        };
        let plan = [AdSeeds::for_ad_id(1, seed_id)];
        let (_, _, mut warm) = tirm_allocate_warm(&p, opts, &plan, vec![None]);
        warm.pop().unwrap()
    }

    /// What `warm_state(seed_id)` weighs parked: the pool's currency.
    fn parked_bytes(seed_id: u64) -> usize {
        warm_state(seed_id).park().memory_bytes()
    }

    #[test]
    fn release_reclaim_round_trip() {
        let mut pool = RetainedPool::new(usize::MAX);
        let w = warm_state(1);
        let (sets, bytes) = (w.num_sets(), w.memory_bytes());
        let topics = TopicDist::single(1, 0);
        pool.release(1, topics.clone(), w.park());
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.memory_bytes(), parked_bytes(1));
        assert!(pool.memory_bytes() < bytes, "parked without postings");
        let back = pool.reclaim(1, &topics).expect("same id + topics");
        assert_eq!(back.num_sets(), sets);
        assert_eq!(back.memory_bytes(), bytes, "unparked to the byte");
        assert!(pool.is_empty());
        assert_eq!(pool.memory_bytes(), 0);
    }

    #[test]
    fn changed_topics_invalidate() {
        let mut pool = RetainedPool::new(usize::MAX);
        pool.release(1, TopicDist::single(2, 0), warm_state(1).park());
        assert!(pool.reclaim(1, &TopicDist::single(2, 1)).is_none());
        assert!(pool.is_empty(), "invalid shard is dropped, not kept");
        assert!(pool.reclaim(2, &TopicDist::single(2, 0)).is_none());
    }

    #[test]
    fn budget_evicts_oldest_first() {
        let w1 = warm_state(1);
        let w2 = warm_state(2);
        let budget = parked_bytes(1) + parked_bytes(2) / 2;
        let mut pool = RetainedPool::new(budget);
        let topics = TopicDist::single(1, 0);
        pool.release(1, topics.clone(), w1.park());
        assert_eq!(pool.len(), 1);
        pool.release(2, topics.clone(), w2.park());
        assert_eq!(pool.len(), 1, "budget forces eviction");
        assert_eq!(pool.evictions(), 1);
        assert!(pool.reclaim(1, &topics).is_none(), "oldest was evicted");
        assert!(pool.reclaim(2, &topics).is_some());
    }

    #[test]
    fn single_shard_exceeding_whole_budget_is_evicted_on_release() {
        // A non-zero budget smaller than one shard: the release itself
        // must trim the pool back under budget — evicting the shard that
        // was just released — and leave the accounting at exactly zero,
        // not wedge the pool over budget forever.
        let w = warm_state(1);
        let bytes = parked_bytes(1);
        assert!(bytes > 1, "fixture shard must be non-trivial");
        let mut pool = RetainedPool::new(bytes / 2);
        let topics = TopicDist::single(1, 0);
        pool.release(1, topics.clone(), w.park());
        assert!(pool.is_empty(), "oversized shard cannot be retained");
        assert_eq!(pool.memory_bytes(), 0, "accounting back to zero");
        assert_eq!(pool.evictions(), 1);
        assert!(pool.reclaim(1, &topics).is_none());

        // The pool still works afterwards: a shard that fits is kept.
        let w = warm_state(2);
        let mut pool = RetainedPool::new(parked_bytes(2));
        pool.release(2, topics.clone(), w.park());
        assert_eq!(pool.len(), 1, "exactly-fitting shard is retained");
        assert!(pool.reclaim(2, &topics).is_some());
    }

    #[test]
    fn topic_invalidation_races_reclaim_on_resumption() {
        // The resumption race: ad 1 departs under topics A, "resumes"
        // with changed topics B (same id — the generator's resume path
        // re-uses ids), departs again and re-releases under B, then a
        // *stale* reclaim still presenting A arrives. The fingerprint
        // must win every interleaving: the A-reclaim gets nothing AND
        // drops the B-shard it collided with (sampled data must never
        // survive a fingerprint mismatch), so a following B-reclaim
        // cannot be served a shard the stale reclaim already consumed.
        let a = TopicDist::single(2, 0);
        let b = TopicDist::single(2, 1);
        let mut pool = RetainedPool::new(usize::MAX);

        pool.release(1, a.clone(), warm_state(1).park());
        // Resumption under B replaces the pooled entry (same id).
        pool.release(1, b.clone(), warm_state(2).park());
        assert_eq!(pool.len(), 1, "same id replaces, never duplicates");

        // Stale reclaim under A: invalid, and the entry is consumed.
        assert!(pool.reclaim(1, &a).is_none());
        assert!(pool.is_empty(), "mismatched shard dropped, not kept");
        assert_eq!(pool.memory_bytes(), 0);
        // The well-fingerprinted reclaim that lost the race resamples.
        assert!(pool.reclaim(1, &b).is_none());

        // Opposite interleaving: the valid reclaim arrives first and is
        // served; the stale one then finds nothing.
        pool.release(1, b.clone(), warm_state(3).park());
        assert!(pool.reclaim(1, &b).is_some());
        assert!(pool.reclaim(1, &a).is_none());
        assert_eq!(pool.evictions(), 0, "invalidations are not evictions");
    }

    #[test]
    fn zero_budget_retains_nothing() {
        let mut pool = RetainedPool::new(0);
        pool.release(1, TopicDist::single(1, 0), warm_state(1).park());
        assert!(pool.is_empty());
        assert_eq!(pool.evictions(), 1);
    }

    #[test]
    fn rerelease_replaces() {
        let mut pool = RetainedPool::new(usize::MAX);
        let topics = TopicDist::single(1, 0);
        pool.release(1, topics.clone(), warm_state(1).park());
        pool.release(1, topics.clone(), warm_state(9).park());
        assert_eq!(pool.len(), 1, "same id replaces, never duplicates");
        assert!(pool.reclaim(1, &topics).is_some());
        assert!(pool.is_empty());
        assert_eq!(pool.memory_bytes(), 0, "accounting survives replacement");
    }
}
