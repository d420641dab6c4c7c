//! Deterministic parallel RR-set sampling engine.
//!
//! The serial sampler ([`crate::RrSampler`]) draws one set at a time from a
//! single `SmallRng` + [`SampleWorkspace`] pair — the hot path of TIM's θ
//! sampling, TIRM's per-ad growing collections and RR-based evaluation,
//! using exactly one core. [`ParallelSampler`] shards a batch of θ samples
//! over `threads` RNG streams:
//!
//! * **The RNG stream is the shard's.** Every shard owns a persistent
//!   `SmallRng` (seeded `seed ⊕ shard_id·γ`, where γ is the 64-bit
//!   golden-ratio constant; shard 0's seed is exactly `seed`), so
//!   consecutive batches continue each shard's stream — no reseeding
//!   between top-ups.
//! * **The scratch is the drawing thread's.** A [`SampleWorkspace`]
//!   (epoch-stamped marks, queue, out buffer) carries nothing from one
//!   draw to the next, so it belongs to whichever thread draws, not to a
//!   shard or an engine. A drawing thread borrows one from a process-wide
//!   idle list for the batch, grown to the engine's node count, and puts
//!   it back at the end: the process holds as many workspaces as threads
//!   ever drew at once, not one per shard per engine per ad.
//! * **Two ways to draw a batch.** With one shard, or when the process
//!   can run on only one CPU (`available_parallelism() == 1`, read once),
//!   the calling thread draws every set itself, straight into the sink,
//!   taking draw `g` from shard `g mod threads` through one workspace —
//!   no worker threads that could only take turns. Otherwise one worker
//!   per shard draws its quota into a private arena (`RrArena`: one flat
//!   node buffer + offsets, no per-set allocation) and the merge pass
//!   drains the arenas in draw order. Both give the same sets in the same
//!   order, so the stream never depends on the host.
//! * **Serial compatibility.** With `threads = 1` the engine *is* the old
//!   serial loop: one shard, seeded `seed`, samples appended in draw order —
//!   bit-identical to `SmallRng::seed_from_u64(seed)` + a `for` loop.
//! * **Batch-split invariance.** Global draw `g` (counted across the
//!   engine's lifetime) is assigned to shard `g mod threads`, and both
//!   ways of drawing emit in that same round-robin order, so
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
use std::sync::{Mutex, OnceLock, PoisonError};
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
    fn effective_threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Deterministic seed of shard `shard`.
    #[inline]
    fn shard_seed(&self, shard: usize) -> u64 {
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

/// Workspaces no thread is drawing through right now.
static IDLE_WORKSPACES: Mutex<Vec<SampleWorkspace>> = Mutex::new(Vec::new());

/// Runs `f` on a workspace lent to the calling thread, covering at least
/// `n` nodes, and puts it back on the idle list afterwards. A workspace
/// carries nothing between draws (its marks are epoch-stamped), so which
/// one a thread gets never shows in the sets.
fn with_workspace<R>(n: usize, f: impl FnOnce(&mut SampleWorkspace) -> R) -> R {
    let idle = || {
        IDLE_WORKSPACES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    };
    let mut ws = idle().pop().unwrap_or_else(|| SampleWorkspace::new(n));
    ws.grow_to(n);
    let out = f(&mut ws);
    idle().push(ws);
    out
}

/// Whether the process can run on only one CPU (its affinity mask or CPU
/// quota), read once. Worker threads there could only take turns.
fn one_cpu() -> bool {
    static ONE_CPU: OnceLock<bool> = OnceLock::new();
    *ONE_CPU.get_or_init(|| std::thread::available_parallelism().is_ok_and(|cpus| cpus.get() == 1))
}

/// The shard of every draw from global draw `start` on — `g mod t` for
/// `g = start, start + 1, …`, without a division per draw.
fn shard_order(start: usize, t: usize) -> impl Iterator<Item = usize> {
    (0..t).cycle().skip(start % t)
}

/// How each set of a batch is drawn: the plain walk, or through a
/// [`FastPath`] whose threshold table is built on the calling thread —
/// workers then share a table that lives in the caller's allocator arena
/// instead of in that of whichever worker drew first.
#[derive(Clone, Copy)]
struct Route<'a, 'g, 'f> {
    sampler: &'a RrSampler<'g>,
    fast: Option<&'a FastPath<'f>>,
}

impl<'a, 'g, 'f> Route<'a, 'g, 'f> {
    fn new(sampler: &'a RrSampler<'g>, fast: Option<&'a FastPath<'f>>) -> Self {
        if let Some(fp) = fast {
            fp.thresholds();
        }
        Route { sampler, fast }
    }

    #[inline]
    fn draw<'w>(&self, ws: &'w mut SampleWorkspace, rng: &mut SmallRng) -> &'w [NodeId] {
        match self.fast {
            Some(fp) => self.sampler.sample_with(fp, ws, rng),
            None => self.sampler.sample(ws, rng),
        }
    }
}

/// Where a batch is drawn: on the calling thread through the given
/// workspace, or on one worker thread per shard.
enum Drawing<'w> {
    Inline(&'w mut SampleWorkspace),
    Threaded,
}

/// Deterministic multi-threaded RR-set sampler with persistent per-shard
/// RNG streams. See the module docs for the determinism contract.
pub struct ParallelSampler {
    /// Shard `i`'s stream. The RNG is the bare generator: a
    /// block-buffered wrapper measured ~2× slower than xoshiro state the
    /// compiler keeps in registers across the BFS loop (ARCHITECTURE,
    /// "RR hot path").
    rngs: Vec<SmallRng>,
    num_nodes: usize,
    total_sampled: usize,
}

impl ParallelSampler {
    /// Engine over a graph with `num_nodes` nodes.
    pub fn new(config: SamplingConfig, num_nodes: usize) -> Self {
        let rngs = (0..config.effective_threads())
            .map(|i| SmallRng::seed_from_u64(config.shard_seed(i)))
            .collect();
        ParallelSampler {
            rngs,
            num_nodes,
            total_sampled: 0,
        }
    }

    /// Samples drawn through this engine so far (across all batches).
    pub fn total_sampled(&self) -> usize {
        self.total_sampled
    }

    /// Bytes held by the engine: its per-shard RNG states. Workspaces
    /// are lent to the drawing thread for one batch and charged to no
    /// engine, so this depends on the configuration alone, never on the
    /// host's CPU count.
    pub fn memory_bytes(&self) -> usize {
        self.rngs.len() * std::mem::size_of::<SmallRng>()
    }

    /// Per-shard quotas for the batch of `count` samples starting at
    /// global draw `start`: draw `g` belongs to shard `g mod threads`, so
    /// the quota of shard `i` is the number of such `g` in
    /// `[start, start + count)`. Depending only on `(start, count)` — not
    /// on how earlier requests were chunked — is what makes the engine's
    /// output batch-split invariant.
    fn quotas(&self, start: usize, count: usize) -> Vec<usize> {
        let t = self.rngs.len();
        // Draws of shard i in [0, x).
        let upto = |x: usize, i: usize| x / t + usize::from(x % t > i);
        (0..t)
            .map(|i| upto(start + count, i) - upto(start, i))
            .collect()
    }

    /// Runs `batch` the way this process draws: inline through a lent
    /// workspace with one shard or one CPU, threaded otherwise.
    fn run_batch(&mut self, batch: impl FnOnce(&mut Self, Drawing<'_>)) {
        if self.rngs.len() == 1 || one_cpu() {
            with_workspace(self.num_nodes, |ws| batch(self, Drawing::Inline(ws)));
        } else {
            batch(self, Drawing::Threaded);
        }
    }

    /// Runs `work(rng, quota, ws)` for every shard on a worker thread of
    /// its own, through a workspace lent to that thread, for the batch of
    /// `count` draws from `start` on; returns the results in shard order.
    fn on_workers<T: Send>(
        &mut self,
        start: usize,
        count: usize,
        work: impl Fn(&mut SmallRng, usize, &mut SampleWorkspace) -> T + Sync,
    ) -> Vec<T> {
        let (quotas, n, work) = (self.quotas(start, count), self.num_nodes, &work);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .rngs
                .iter_mut()
                .zip(quotas)
                .map(|(rng, quota)| {
                    scope.spawn(move || with_workspace(n, |ws| work(rng, quota, ws)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sampling worker panicked"))
                .collect()
        })
    }

    /// Counts a finished batch of `count` draws.
    fn advance(&mut self, count: usize) {
        self.total_sampled += count;
        // Batch-granular observability: one sharded counter add per call,
        // nothing per set.
        tirm_obs::registry::RR_SETS_SAMPLED.add(count as u64);
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
        if count > 0 {
            let route = Route::new(sampler, fast);
            self.run_batch(|engine, how| engine.sets_into(how, route, count, sink));
        }
        count
    }

    /// Draws `count` RR sets and appends `map` of each to `out`, in
    /// deterministic stream order (used by KPT width estimation, where
    /// only a per-set statistic is needed and sets are discarded). `out`
    /// is extended once, by an iterator of exactly `count` items: inline
    /// draws stream straight into it; threaded shards each fill a chunk
    /// of their quota, merged into `out` in draw order. Optionally routed
    /// through a precomputed [`FastPath`]; bit-identical stream either
    /// way.
    pub fn sample_map_with<T, F>(
        &mut self,
        sampler: &RrSampler<'_>,
        fast: Option<&FastPath<'_>>,
        count: usize,
        out: &mut impl Extend<T>,
        map: F,
    ) where
        T: Send,
        F: Fn(&[NodeId]) -> T + Sync,
    {
        if count > 0 {
            let route = Route::new(sampler, fast);
            self.run_batch(|engine, how| engine.map_into(how, route, count, out, &map));
        }
    }

    /// Draws the next `count` sets of the stream into `sink`, in draw
    /// order. Inline, every set streams straight into the sink; threaded,
    /// each worker emits into a private [`RrArena`] and the arenas are
    /// merged into `sink` in round-robin draw order (`g mod threads`).
    fn sets_into(&mut self, how: Drawing<'_>, route: Route, count: usize, sink: &mut impl RrSink) {
        let (start, t) = (self.total_sampled, self.rngs.len());
        match how {
            Drawing::Inline(ws) => {
                for s in shard_order(start, t).take(count) {
                    sink.add_rr_set(route.draw(ws, &mut self.rngs[s]));
                }
            }
            Drawing::Threaded => {
                let arenas = self.on_workers(start, count, |rng, quota, ws| {
                    let mut arena = RrArena::with_capacity(quota);
                    for _ in 0..quota {
                        arena.push(route.draw(ws, rng));
                    }
                    arena
                });
                let mut cursors = vec![0usize; t];
                for s in shard_order(start, t).take(count) {
                    sink.add_rr_set(arenas[s].get(cursors[s]));
                    cursors[s] += 1;
                }
            }
        }
        self.advance(count);
    }

    /// [`Self::sets_into`] for a per-set statistic: extends `out` once,
    /// by `map` of each of the next `count` sets in draw order.
    fn map_into<T: Send>(
        &mut self,
        how: Drawing<'_>,
        route: Route,
        count: usize,
        out: &mut impl Extend<T>,
        map: &(impl Fn(&[NodeId]) -> T + Sync),
    ) {
        let (start, t) = (self.total_sampled, self.rngs.len());
        match how {
            Drawing::Inline(ws) => {
                let rngs = &mut self.rngs;
                out.extend(
                    shard_order(start, t)
                        .take(count)
                        .map(|s| map(route.draw(ws, &mut rngs[s]))),
                );
            }
            Drawing::Threaded => {
                let chunks: Vec<Vec<T>> = self.on_workers(start, count, |rng, quota, ws| {
                    (0..quota).map(|_| map(route.draw(ws, rng))).collect()
                });
                let mut iters: Vec<_> = chunks.into_iter().map(Vec::into_iter).collect();
                out.extend(
                    shard_order(start, t)
                        .take(count)
                        .map(|s| iters[s].next().expect("quota covers the window")),
                );
            }
        }
        self.advance(count);
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
        // Appended after what the vector already holds, split over two
        // batches.
        let mut sizes = vec![usize::MAX];
        e2.sample_map_with(&sampler, None, 100, &mut sizes, |set| set.len());
        e2.sample_map_with(&sampler, None, 233, &mut sizes, |set| set.len());
        assert_eq!(sizes.remove(0), usize::MAX);
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
            let mut plain_sizes = Vec::new();
            plain_e.sample_map_with(&sampler, None, 111, &mut plain_sizes, |s| s.len());

            let mut fast_e = ParallelSampler::new(SamplingConfig::new(threads, 23), 150);
            let mut fast: Vec<Vec<NodeId>> = Vec::new();
            fast_e.sample_into_with(&sampler, Some(&fp), 400, &mut fast);
            let mut fast_sizes = Vec::new();
            fast_e.sample_map_with(&sampler, Some(&fp), 111, &mut fast_sizes, |s| s.len());

            assert_eq!(plain, fast, "threads={threads}");
            assert_eq!(plain_sizes, fast_sizes, "threads={threads}");
        }
    }

    /// Drawing through `ws` on the calling thread, or on worker threads.
    fn drawing(inline: bool, ws: &mut SampleWorkspace) -> Drawing<'_> {
        if inline {
            Drawing::Inline(ws)
        } else {
            Drawing::Threaded
        }
    }

    #[test]
    fn inline_and_threaded_drawing_give_the_same_stream() {
        // Which way a batch is drawn is the host's choice (one CPU ⇒ on
        // the calling thread); neither the sets nor the widths may show
        // it, for any shard count, batch split or route.
        use crate::fastpath::{FastPath, SamplingLayout};
        use std::sync::Arc;

        let g = generators::preferential_attachment(150, 3, 0.2, 8);
        let probs = probs_for(&g);
        let sampler = RrSampler::new(&g, &probs);
        let fp = FastPath::new(Arc::new(SamplingLayout::degree_ordered(&g)), &g, &probs);
        for threads in [2usize, 3, 4] {
            for splits in [&[700][..], &[1, 699], &[233, 233, 234]] {
                for fast in [None, Some(&fp)] {
                    let run = |inline: bool| {
                        let mut e = ParallelSampler::new(SamplingConfig::new(threads, 29), 150);
                        let mut ws = SampleWorkspace::new(150);
                        let mut sets: Vec<Vec<NodeId>> = Vec::new();
                        let mut widths = Vec::new();
                        for &count in splits {
                            let route = Route::new(&sampler, fast);
                            e.sets_into(drawing(inline, &mut ws), route, count, &mut sets);
                            e.map_into(drawing(inline, &mut ws), route, count, &mut widths, &|s| {
                                s.len()
                            });
                        }
                        assert_eq!(e.total_sampled(), 1400);
                        (sets, widths)
                    };
                    let fast = fast.is_some();
                    assert_eq!(run(true), run(false), "{threads} {splits:?} fast={fast}");
                }
            }
        }
    }

    #[test]
    fn one_lent_workspace_serves_engines_over_different_graphs() {
        // Two engines over graphs of different n draw interleaved through
        // one workspace, whose epoch wraps to 0 mid-stream: each gets the
        // sets it gets alone.
        let small = generators::erdos_renyi(60, 240, 3);
        let big = generators::preferential_attachment(400, 3, 0.2, 5);
        let (small_probs, big_probs) = (probs_for(&small), probs_for(&big));
        let small_s = RrSampler::new(&small, &small_probs);
        let big_s = RrSampler::new(&big, &big_probs);
        let engine = |s: &RrSampler<'_>, threads| {
            ParallelSampler::new(SamplingConfig::new(threads, 41), s.graph().num_nodes())
        };
        let alone = |s: &RrSampler<'_>, threads| {
            let mut ws = SampleWorkspace::new(s.graph().num_nodes());
            let mut sets: Vec<Vec<NodeId>> = Vec::new();
            engine(s, threads).sets_into(
                Drawing::Inline(&mut ws),
                Route::new(s, None),
                300,
                &mut sets,
            );
            sets
        };

        // Made for the small graph, drawn on, then grown each time the big
        // one borrows it, as the idle list lends.
        let mut ws = SampleWorkspace::near_wrap(60, 250);
        let (mut small_e, mut big_e) = (engine(&small_s, 3), engine(&big_s, 2));
        let (mut small_sets, mut big_sets) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            let (s, b) = (Route::new(&small_s, None), Route::new(&big_s, None));
            small_e.sets_into(Drawing::Inline(&mut ws), s, 30, &mut small_sets);
            ws.grow_to(400);
            big_e.sets_into(Drawing::Inline(&mut ws), b, 30, &mut big_sets);
        }
        assert_eq!(small_sets, alone(&small_s, 3));
        assert_eq!(big_sets, alone(&big_s, 2));
    }

    #[test]
    fn memory_bytes_charges_no_workspace() {
        let g = generators::erdos_renyi(500, 2000, 1);
        let probs = probs_for(&g);
        let sampler = RrSampler::new(&g, &probs);
        for threads in [1usize, 3] {
            let mut e = ParallelSampler::new(SamplingConfig::new(threads, 3), 500);
            let before = e.memory_bytes();
            e.sample_into(&sampler, 100, &mut Vec::new());
            assert_eq!(e.memory_bytes(), before);
            assert_eq!(before, threads * std::mem::size_of::<SmallRng>());
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
