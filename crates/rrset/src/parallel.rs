//! Deterministic parallel RR-set sampling engine.
//!
//! The serial sampler ([`crate::RrSampler`]) draws one set at a time from a
//! single `SmallRng` + [`SampleWorkspace`] pair — the hot path of TIM's θ
//! sampling, TIRM's per-ad growing collections and RR-based evaluation,
//! using exactly one core. [`ParallelSampler`] shards a batch of θ samples
//! over `threads` workers:
//!
//! * **Per-shard state.** Every shard owns a persistent `SmallRng` (seeded
//!   `seed ⊕ shard_id·γ`, where γ is the 64-bit golden-ratio constant; shard
//!   0's seed is exactly `seed`) and its own [`SampleWorkspace`], so
//!   consecutive batches continue each shard's stream — no cross-thread
//!   contention, no reseeding between top-ups.
//! * **Deterministic merge.** Workers write into per-shard arenas
//!   (`RrArena`: one flat node buffer + offsets, no per-set allocation);
//!   the merge pass drains arenas in shard order, so a fixed
//!   `(seed, threads)` pair yields an identical collection no matter how
//!   the OS schedules the workers.
//! * **Serial compatibility.** With `threads = 1` the engine *is* the old
//!   serial loop: one shard, seeded `seed`, samples appended in draw order —
//!   bit-identical to `SmallRng::seed_from_u64(seed)` + a `for` loop.
//! * **Batch-split invariance.** Global draw `g` (counted across the
//!   engine's lifetime) is assigned to shard `g mod threads` and the merge
//!   pass interleaves arenas in that same round-robin order, so
//!   `sample_into(a); sample_into(b)` produces *exactly* the sequence of
//!   `sample_into(a + b)`. The engine's output is a single deterministic
//!   stream of which every batch reads the next window — the property the
//!   online serving layer's warm RR-index reuse is built on (a cached
//!   prefix stays valid no matter how a later re-allocation re-chunks its
//!   θ requests). The stream still depends on `threads` by design —
//!   reproducibility is per-configuration, matching
//!   `mc_spread_parallel`'s contract.

use crate::fastpath::FastPath;
use crate::sampler::{RrSampler, SampleWorkspace};
use crate::weighted::WeightedRrCollection;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tirm_graph::NodeId;

/// 2^64 / φ — the weyl-sequence constant used to spread shard seeds.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration of a sampling engine: worker count and base RNG seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Worker threads (clamped to ≥ 1). `1` reproduces the serial path.
    pub threads: usize,
    /// Base seed; shard `i` derives `seed ⊕ i·γ` (shard 0 gets `seed`).
    pub seed: u64,
}

impl SamplingConfig {
    /// Parallel configuration.
    pub fn new(threads: usize, seed: u64) -> Self {
        SamplingConfig { threads, seed }
    }

    /// Single-threaded configuration — bit-identical to the serial path.
    pub fn serial(seed: u64) -> Self {
        SamplingConfig::new(1, seed)
    }

    /// Worker count clamped to at least one.
    #[inline]
    pub fn effective_threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Deterministic seed of shard `shard`.
    #[inline]
    pub fn shard_seed(&self, shard: usize) -> u64 {
        self.seed ^ (shard as u64).wrapping_mul(GOLDEN_GAMMA)
    }
}

/// Anything that can absorb sampled RR sets (the merge-pass target).
pub trait RrSink {
    /// Adds one sampled set.
    fn add_rr_set(&mut self, members: &[NodeId]);
}

impl RrSink for WeightedRrCollection {
    #[inline]
    fn add_rr_set(&mut self, members: &[NodeId]) {
        self.add_set(members);
    }
}

impl RrSink for Vec<Vec<NodeId>> {
    #[inline]
    fn add_rr_set(&mut self, members: &[NodeId]) {
        self.push(members.to_vec());
    }
}

/// Flat per-shard output buffer: all sets in one node vector plus offsets.
/// Avoids per-set allocation inside workers; drained in shard order by the
/// merge pass.
struct RrArena {
    offsets: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl RrArena {
    fn with_capacity(sets: usize) -> Self {
        RrArena {
            offsets: Vec::with_capacity(sets + 1),
            nodes: Vec::with_capacity(sets * 4),
        }
    }

    #[inline]
    fn push(&mut self, members: &[NodeId]) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.nodes.extend_from_slice(members);
        self.offsets.push(self.nodes.len() as u32);
    }

    /// The `i`-th stored set.
    #[inline]
    fn get(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// One worker's persistent state. The RNG is the bare generator: a
/// block-buffered wrapper measured ~2× slower than xoshiro state the
/// compiler keeps in registers across the BFS loop (ARCHITECTURE, "RR
/// hot path").
struct Shard {
    rng: SmallRng,
    ws: SampleWorkspace,
}

/// Deterministic multi-threaded RR-set sampler with persistent per-shard
/// RNG streams. See the module docs for the determinism contract.
pub struct ParallelSampler {
    shards: Vec<Shard>,
    total_sampled: usize,
}

impl ParallelSampler {
    /// Engine over a graph with `num_nodes` nodes.
    pub fn new(config: SamplingConfig, num_nodes: usize) -> Self {
        let shards = (0..config.effective_threads())
            .map(|i| Shard {
                rng: SmallRng::seed_from_u64(config.shard_seed(i)),
                ws: SampleWorkspace::new(num_nodes),
            })
            .collect();
        ParallelSampler {
            shards,
            total_sampled: 0,
        }
    }

    /// Samples drawn through this engine so far (across all batches).
    pub fn total_sampled(&self) -> usize {
        self.total_sampled
    }

    /// Bytes held by the engine's persistent per-shard workspaces
    /// (O(n · threads) mark arrays) — counted by long-lived owners like
    /// the online serving layer's warm states.
    pub fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.ws.memory_bytes() + std::mem::size_of::<SmallRng>())
            .sum()
    }

    /// Has `fast` build its threshold table now, on the calling thread,
    /// if a batch of `count` draws anything: the workers then share a
    /// table that lives in the caller's allocator arena instead of in
    /// that of whichever worker drew first.
    fn build_route(&self, fast: Option<&FastPath<'_>>, count: usize) {
        if let Some(fp) = fast.filter(|_| count > 0) {
            fp.thresholds();
        }
    }

    /// Per-shard quotas for the batch of `count` samples starting at
    /// global draw `start`: draw `g` belongs to shard `g mod threads`, so
    /// the quota of shard `i` is the number of such `g` in
    /// `[start, start + count)`. Depending only on `(start, count)` — not
    /// on how earlier requests were chunked — is what makes the engine's
    /// output batch-split invariant.
    fn quotas(&self, start: usize, count: usize) -> Vec<usize> {
        let t = self.shards.len();
        // Draws of shard i in [0, x).
        let upto = |x: usize, i: usize| x / t + usize::from(x % t > i);
        (0..t)
            .map(|i| upto(start + count, i) - upto(start, i))
            .collect()
    }

    /// Draws `count` classic RR sets into `sink` (θ-batch sampling) and
    /// returns how many it drew: all `count` of them.
    pub fn sample_into(
        &mut self,
        sampler: &RrSampler<'_>,
        count: usize,
        sink: &mut impl RrSink,
    ) -> usize {
        self.sample_into_with(sampler, None, count, sink)
    }

    /// [`Self::sample_into`], optionally routed through a precomputed
    /// [`FastPath`] (integer thresholds + relabeled marks). The fast
    /// route is bit-identical to the plain one — `fast` only changes
    /// speed, never the stream.
    pub fn sample_into_with(
        &mut self,
        sampler: &RrSampler<'_>,
        fast: Option<&FastPath<'_>>,
        count: usize,
        sink: &mut impl RrSink,
    ) -> usize {
        self.build_route(fast, count);
        match fast {
            Some(fp) => self.run_batch(count, sink, |shard, quota, emit| {
                for _ in 0..quota {
                    emit(sampler.sample_with(fp, &mut shard.ws, &mut shard.rng));
                }
            }),
            None => self.run_batch(count, sink, |shard, quota, emit| {
                for _ in 0..quota {
                    emit(sampler.sample(&mut shard.ws, &mut shard.rng));
                }
            }),
        }
    }

    /// Draws `count` RR sets and maps each through `map`, returning the
    /// results in deterministic stream order (used by KPT width
    /// estimation, where only a per-set statistic is needed and sets are
    /// discarded). Optionally routed through a precomputed [`FastPath`];
    /// bit-identical stream either way.
    pub fn sample_map_with<T, F>(
        &mut self,
        sampler: &RrSampler<'_>,
        fast: Option<&FastPath<'_>>,
        count: usize,
        map: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(&[NodeId]) -> T + Sync,
    {
        self.build_route(fast, count);
        let start = self.total_sampled;
        let map = &map;
        let draw = |shard: &mut Shard| match fast {
            Some(fp) => map(sampler.sample_with(fp, &mut shard.ws, &mut shard.rng)),
            None => map(sampler.sample(&mut shard.ws, &mut shard.rng)),
        };
        let draw = &draw;
        let mut out = Vec::with_capacity(count);
        if self.shards.len() == 1 {
            let shard = &mut self.shards[0];
            for _ in 0..count {
                out.push(draw(shard));
            }
        } else {
            let t = self.shards.len();
            let quotas = self.quotas(start, count);
            let chunks: Vec<Vec<T>> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(&quotas)
                    .map(|(shard, &quota)| {
                        scope.spawn(move || {
                            let mut chunk = Vec::with_capacity(quota);
                            for _ in 0..quota {
                                chunk.push(draw(shard));
                            }
                            chunk
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sampling worker panicked"))
                    .collect()
            });
            let mut iters: Vec<_> = chunks.into_iter().map(Vec::into_iter).collect();
            for g in start..start + count {
                out.push(iters[g % t].next().expect("quota covers the window"));
            }
        }
        self.total_sampled += count;
        tirm_obs::registry::RR_SETS_SAMPLED.add(count as u64);
        out
    }

    /// Shared batch driver. `work` draws one shard's quota, handing each
    /// sampled set to an `emit` callback. With one shard the emitter *is*
    /// the sink (sets stream straight into the collection, like the old
    /// serial loop); with several, each worker emits into a private
    /// [`RrArena`] and the arenas are merged into `sink` in round-robin
    /// draw order (`g mod threads`) — byte-identical sink contents for a
    /// fixed configuration no matter how requests are chunked.
    fn run_batch<W>(&mut self, count: usize, sink: &mut impl RrSink, work: W) -> usize
    where
        W: Fn(&mut Shard, usize, &mut dyn FnMut(&[NodeId])) + Sync,
    {
        if count == 0 {
            return 0;
        }
        let start = self.total_sampled;
        if self.shards.len() == 1 {
            work(&mut self.shards[0], count, &mut |set| sink.add_rr_set(set));
        } else {
            let t = self.shards.len();
            let quotas = self.quotas(start, count);
            let work = &work;
            let arenas: Vec<RrArena> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(&quotas)
                    .map(|(shard, &quota)| {
                        scope.spawn(move || {
                            let mut arena = RrArena::with_capacity(quota);
                            work(shard, quota, &mut |set| arena.push(set));
                            arena
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sampling worker panicked"))
                    .collect()
            });
            let mut cursors = vec![0usize; t];
            for g in start..start + count {
                let s = g % t;
                sink.add_rr_set(arenas[s].get(cursors[s]));
                cursors[s] += 1;
            }
        }
        self.total_sampled += count;
        // Batch-granular observability: one sharded counter add per call,
        // nothing per set.
        tirm_obs::registry::RR_SETS_SAMPLED.add(count as u64);
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use tirm_graph::generators;

    fn probs_for(g: &tirm_graph::DiGraph) -> Vec<f32> {
        (0..g.num_edges())
            .map(|e| 0.1 + 0.8 * ((e * 37 % 97) as f32 / 97.0))
            .collect()
    }

    #[test]
    fn single_thread_matches_serial_loop_bit_for_bit() {
        let g = generators::erdos_renyi(60, 240, 3);
        let probs = probs_for(&g);
        let sampler = RrSampler::new(&g, &probs);

        let mut serial: Vec<Vec<NodeId>> = Vec::new();
        let mut ws = SampleWorkspace::new(g.num_nodes());
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..500 {
            serial.push(sampler.sample(&mut ws, &mut rng).to_vec());
        }

        let mut engine = ParallelSampler::new(SamplingConfig::serial(42), g.num_nodes());
        let mut out: Vec<Vec<NodeId>> = Vec::new();
        // Split across two batches: per-shard streams must persist.
        engine.sample_into(&sampler, 200, &mut out);
        engine.sample_into(&sampler, 300, &mut out);
        assert_eq!(serial, out);
    }

    #[test]
    fn fixed_config_is_reproducible_across_runs() {
        let g = generators::preferential_attachment(120, 3, 0.2, 9);
        let probs = probs_for(&g);
        let sampler = RrSampler::new(&g, &probs);
        for threads in [1usize, 2, 4] {
            let run = |n1: usize, n2: usize| {
                let mut e = ParallelSampler::new(SamplingConfig::new(threads, 7), g.num_nodes());
                let mut v: Vec<Vec<NodeId>> = Vec::new();
                e.sample_into(&sampler, n1, &mut v);
                e.sample_into(&sampler, n2, &mut v);
                v
            };
            // Identical regardless of scheduling...
            assert_eq!(run(400, 100), run(400, 100), "threads={threads}");
        }
    }

    #[test]
    fn parallel_collections_match_single_thread_statistically() {
        // Proposition 1: n·E[F_R({u})] = σ({u}) — frequency estimates from
        // different thread counts must agree within sampling noise.
        let n = 21usize;
        let g = generators::star(n);
        let probs = vec![0.3f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let samples = 60_000;
        let hub_estimate = |threads: usize| {
            let mut e = ParallelSampler::new(SamplingConfig::new(threads, 5), n);
            let mut coll = WeightedRrCollection::new(n);
            e.sample_into(&sampler, samples, &mut coll);
            assert_eq!(coll.num_sets(), samples);
            n as f64 * coll.score(0) / samples as f64
        };
        for threads in [1usize, 2, 4] {
            let est = hub_estimate(threads);
            assert!((est - 7.0).abs() < 0.25, "threads={threads}: {est}");
        }
    }

    #[test]
    fn sample_map_matches_sample_into_order() {
        let g = generators::erdos_renyi(40, 160, 11);
        let probs = probs_for(&g);
        let sampler = RrSampler::new(&g, &probs);
        let mut e1 = ParallelSampler::new(SamplingConfig::new(3, 13), g.num_nodes());
        let mut sets: Vec<Vec<NodeId>> = Vec::new();
        e1.sample_into(&sampler, 333, &mut sets);
        let mut e2 = ParallelSampler::new(SamplingConfig::new(3, 13), g.num_nodes());
        let sizes = e2.sample_map_with(&sampler, None, 333, |set| set.len());
        assert_eq!(
            sets.iter().map(Vec::len).collect::<Vec<_>>(),
            sizes,
            "same config ⇒ same draw order for both batch APIs"
        );
    }

    #[test]
    fn batch_split_invariance() {
        // The engine's output is one deterministic stream: chunking a
        // request differently must not change the sequence — the warm
        // RR-index reuse of the online layer depends on this.
        let g = generators::preferential_attachment(100, 3, 0.2, 4);
        let probs = probs_for(&g);
        let sampler = RrSampler::new(&g, &probs);
        for threads in [1usize, 2, 3, 4] {
            let run = |splits: &[usize]| {
                let mut e = ParallelSampler::new(SamplingConfig::new(threads, 17), g.num_nodes());
                let mut v: Vec<Vec<NodeId>> = Vec::new();
                for &s in splits {
                    e.sample_into(&sampler, s, &mut v);
                }
                v
            };
            let whole = run(&[700]);
            assert_eq!(whole, run(&[300, 400]), "threads={threads}");
            assert_eq!(whole, run(&[1, 699]), "threads={threads}");
            assert_eq!(whole, run(&[233, 233, 234]), "threads={threads}");
        }
    }

    #[test]
    fn fast_route_is_bit_identical_through_the_engine() {
        // sample_into_with(Some(..)) and sample_map_with(Some(..)) must
        // reproduce the plain routes exactly — thresholds, block RNG and
        // relabeled marks are pure speed, never stream changes.
        use crate::fastpath::{FastPath, SamplingLayout};
        use std::sync::Arc;

        let g = generators::preferential_attachment(150, 3, 0.2, 8);
        let probs = probs_for(&g);
        let sampler = RrSampler::new(&g, &probs);
        let layout = Arc::new(SamplingLayout::degree_ordered(&g));
        let fp = FastPath::new(layout, &g, &probs);
        for threads in [1usize, 2, 3] {
            let mut plain_e = ParallelSampler::new(SamplingConfig::new(threads, 23), 150);
            let mut plain: Vec<Vec<NodeId>> = Vec::new();
            plain_e.sample_into(&sampler, 400, &mut plain);
            let plain_sizes = plain_e.sample_map_with(&sampler, None, 111, |s| s.len());

            let mut fast_e = ParallelSampler::new(SamplingConfig::new(threads, 23), 150);
            let mut fast: Vec<Vec<NodeId>> = Vec::new();
            fast_e.sample_into_with(&sampler, Some(&fp), 400, &mut fast);
            let fast_sizes = fast_e.sample_map_with(&sampler, Some(&fp), 111, |s| s.len());

            assert_eq!(plain, fast, "threads={threads}");
            assert_eq!(plain_sizes, fast_sizes, "threads={threads}");
        }
    }

    #[test]
    fn shard_seeds_are_distinct_and_anchor_shard_zero() {
        let cfg = SamplingConfig::new(8, 0xdead_beef);
        assert_eq!(cfg.shard_seed(0), 0xdead_beef);
        let mut seeds: Vec<u64> = (0..8).map(|i| cfg.shard_seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn arena_round_trips_sets() {
        let mut a = RrArena::with_capacity(3);
        a.push(&[1, 2, 3]);
        a.push(&[]);
        a.push(&[7]);
        assert_eq!(a.get(0), &[1, 2, 3]);
        assert_eq!(a.get(1), &[] as &[NodeId]);
        assert_eq!(a.get(2), &[7]);
    }
}
