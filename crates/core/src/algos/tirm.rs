//! **TIRM** — Two-phase Iterative Regret Minimization (Algorithm 2), the
//! paper's scalable allocator.
//!
//! Per ad `i`, TIRM keeps a collection `R_i` of random RR sets sampled
//! under that ad's projected arc probabilities (CTPs are *not* baked into
//! the samples — Theorem 5 shows multiplying marginal coverage by
//! `δ(u, i)` is equivalent in expectation and avoids the ~1/CTP sample
//! blow-up of RRC sampling). The greedy core mirrors Algorithm 1 but reads
//! marginal revenues from coverage:
//!
//! `MG_i(v) = cpe(i) · n · δ(v,i) · score_i(v) / θ_i`.
//!
//! **Covered-set bookkeeping.** Algorithm 2 (line 12) removes covered RR
//! sets outright, which is exact when seeds click with probability 1 (the
//! §6.2 scalability setup). With realistic 1–3% CTPs a chosen seed only
//! covers a set with probability `δ`, so the exact possible-world
//! bookkeeping *decays* the set's weight by `(1 − δ)` instead
//! ([`WeightedRrCollection`]); at `δ = 1` the two coincide. The literal
//! hard-removal rule is kept behind [`TirmOptions::hard_cover`] and
//! compared in the `ablation` harness — at paper scale the chosen seeds'
//! reachability sets barely overlap and the difference vanishes, at
//! miniature scale hard removal under-estimates revenue and overshoots.
//!
//! Seed-set sizes are unknown upfront (budgets are monetary), so TIRM
//! starts each ad at `s_i = 1` and, whenever `|S_i|` reaches `s_i`, grows
//! `s_i` by `⌊R_i(S_i)/MG_last⌋` (a safe underestimate thanks to
//! submodularity), tops the collection up to `θ_i = max(L(s_i,ε), θ_i)`
//! samples (Eq. 5) and refreshes existing seeds' coverage credit
//! (Algorithm 4 `UpdateEstimates`).

mod resume;

use resume::AdRecord;
pub use resume::RunRecord;

use crate::algos::DROP_TOL;
use crate::allocation::Allocation;
use crate::metrics::AlgoStats;
use crate::problem::ProblemInstance;
use crate::regret::ad_regret;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tirm_graph::{DiGraph, NodeId};
use tirm_obs::registry::{CORE_PHASES, CORE_PHASE_NS};
use tirm_rrset::heap::Verdict;
use tirm_rrset::weighted::{score_key, WeightedRrCollection};
use tirm_rrset::{
    FastPath, KptEstimator, KptState, LazyMaxHeap, ParallelSampler, RrIndex, RrSampler, RrSets,
    SampleBound, SamplingConfig, SamplingLayout,
};

/// Options for TIRM.
#[derive(Clone, Copy, Debug)]
pub struct TirmOptions {
    /// Accuracy parameter ε of the sample-size bound (0.1 in the paper's
    /// quality experiments, 0.2 in the scalability experiments).
    pub eps: f64,
    /// Confidence parameter ℓ (failure probability `n^{-ℓ}`).
    pub ell: f64,
    /// RNG seed (whole run is deterministic given it).
    pub seed: u64,
    /// Worker threads for RR-set sampling (KPT estimation batches and
    /// θ-sample top-ups run through the [`ParallelSampler`] engine).
    /// `1` (the default) reproduces the serial path bit-for-bit; outputs
    /// are deterministic for every fixed `(seed, threads)` pair.
    pub threads: usize,
    /// Hard per-ad cap on RR sets (memory guard); `None` = uncapped.
    pub max_theta_per_ad: Option<usize>,
    /// Ablation: when true, candidate selection maximizes the actual regret
    /// drop (scanning past the max-coverage node when it overshoots) rather
    /// than Algorithm 3's pure max-coverage rule.
    pub exact_drop_selection: bool,
    /// Ablation: the paper's literal line-12 rule — remove covered sets
    /// regardless of the covering seed's CTP (exact only at `δ = 1`).
    pub hard_cover: bool,
    /// Mark-layout policy for the sampling hot path (see [`RelabelMode`]).
    /// Pure cache optimization: the allocation (seeds, revenue estimates,
    /// regret) is bit-identical under every mode — pinned by the
    /// `relabel_equivalence` property tests. Defaults to
    /// [`RelabelMode::Auto`].
    pub relabel: RelabelMode,
}

/// Degree-relabeling only pays once the O(n) mark table stops fitting in
/// cache: below that, every row is a hit whatever its index, and the
/// relabeled arm's extra per-arc `marks[pos]` stream (4 more bytes per
/// arc) is pure cost. 2¹⁸ nodes puts the table at 1 MiB — around where it
/// outgrows typical L2 and scattered hub rows start missing.
pub const RELABEL_AUTO_MIN_NODES: usize = 1 << 18;

/// Policy for the degree-ordered mark layout of the sampling hot path.
/// The sampled sets — and therefore the whole allocation — are
/// bit-identical under every variant; this only picks where the mark
/// array's bytes live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelabelMode {
    /// Relabel only when the graph is large enough for the mark table to
    /// outgrow cache (`n ≥` [`RELABEL_AUTO_MIN_NODES`]). The default.
    Auto,
    /// Always use the degree-ordered layout.
    On,
    /// Always use the identity layout.
    Off,
}

impl RelabelMode {
    /// Whether a graph of `n` nodes gets the degree-ordered layout.
    pub fn enabled_for(self, n: usize) -> bool {
        match self {
            RelabelMode::Auto => n >= RELABEL_AUTO_MIN_NODES,
            RelabelMode::On => true,
            RelabelMode::Off => false,
        }
    }
}

impl TirmOptions {
    /// Shrinks the per-ad θ cap linearly with a sub-unit graph scale
    /// (the workspace-wide convention shared by the perf suite's cells
    /// and the `online_replay` / `tirm_server` binaries, so artifacts
    /// and binaries always measure under the same cap): a 50 000-set
    /// floor keeps coverage estimates meaningful at CI scales, and
    /// scales ≥ 1 are a no-op. The floor never *raises* a configured
    /// cap that was already below it, and uncapped options stay
    /// uncapped.
    pub fn scale_theta_cap(&mut self, scale: f64) {
        self.max_theta_per_ad = self
            .max_theta_per_ad
            .map(|cap| ((cap as f64 * scale.min(1.0)) as usize).max(cap.min(50_000)));
    }
}

impl Default for TirmOptions {
    fn default() -> Self {
        TirmOptions {
            eps: 0.1,
            ell: 1.0,
            seed: 0x7153_11b5,
            threads: 1,
            max_theta_per_ad: Some(4_000_000),
            exact_drop_selection: false,
            hard_cover: false,
            relabel: RelabelMode::Auto,
        }
    }
}

/// Per-ad RNG plan: the seeds driving an ad's KPT-estimation stream and
/// its θ-sampling stream. [`tirm_allocate`] derives one per ad from the
/// ad's *index* in the problem (the historical scheme); long-lived callers
/// like the online serving layer derive them from a stable *ad id* instead
/// ([`AdSeeds::for_ad_id`]), so an ad keeps its streams — and its cached
/// RR index stays valid — no matter how arrivals and departures reshuffle
/// indices around it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdSeeds {
    /// Seed of the KPT estimator's sampling engine.
    pub kpt: u64,
    /// Seed of the θ-sampling engine filling the ad's collection.
    pub engine: u64,
}

impl AdSeeds {
    /// The index-derived plan [`tirm_allocate`] has always used.
    pub fn for_index(base: u64, i: usize) -> AdSeeds {
        AdSeeds {
            kpt: base ^ (0xabcd + i as u64),
            engine: base.wrapping_add(i as u64),
        }
    }

    /// A plan derived from a stable ad id (splitmix64-mixed so nearby ids
    /// land on unrelated streams).
    pub fn for_ad_id(base: u64, id: u64) -> AdSeeds {
        let h = splitmix64(id ^ 0x0a11_0c47_0a11_0c47);
        AdSeeds {
            kpt: base ^ h ^ 0xabcd,
            engine: base ^ h.rotate_left(21),
        }
    }
}

/// SplitMix64 finalizer — a full-avalanche 64-bit mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reusable per-ad sampling capital: everything TIRM pays for that does
/// *not* depend on budgets or on the other ads — the sampled RR sets with
/// their inverted postings, the θ-engine's stream position, the KPT width
/// cache, and the pristine score vector of the initial θ₀ prefix. A later
/// run with the same `(AdSeeds, threads)` resumes from this state and is
/// bit-identical to a cold run, paying graph walks only for sets beyond
/// the cached tail.
pub struct AdWarmState {
    index: RrIndex,
    engine: ParallelSampler,
    kpt: KptState,
    /// `(θ₀, scores)` right after the initial activation, before any decay
    /// (scores are exact integers there, so restoring is bitwise-safe).
    base: Option<(usize, Vec<f64>)>,
    /// Configuration echo, asserted on reuse.
    seeds: AdSeeds,
    threads: usize,
}

impl AdWarmState {
    /// RR sets cached in the index.
    pub fn num_sets(&self) -> usize {
        self.index.num_sets()
    }

    /// Exact bytes of reusable capital — index, the θ and KPT engines'
    /// RNG states, KPT width cache, and the base score snapshot — the
    /// online pool's eviction currency. Sampling workspaces are lent to
    /// the drawing thread per batch and charged to no ad.
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + engine_bytes(&self.engine, &self.kpt, &self.base)
    }

    /// The seed plan this state was built under.
    pub fn seeds(&self) -> AdSeeds {
        self.seeds
    }

    /// The RR sets with their postings.
    pub fn index(&self) -> &RrIndex {
        &self.index
    }

    /// The counts [`ParkedWarmState::regenerate`] rebuilds this state from.
    pub fn counts(&self) -> WarmCounts {
        warm_counts(
            self.index.num_sets(),
            self.index.total_entries(),
            &self.kpt,
            &self.base,
        )
    }

    /// The state kept while no run uses it: the RR sets without their
    /// postings and with their boundaries coded, everything else as it
    /// is.
    pub fn park(self) -> ParkedWarmState {
        ParkedWarmState {
            sets: self.index.into_sets(),
            engine: self.engine,
            kpt: self.kpt,
            base: self.base,
            seeds: self.seeds,
            threads: self.threads,
        }
    }
}

/// An [`AdWarmState`] without its postings: what the online pool keeps
/// of a departed ad. The RR sets are the sampled capital: their member
/// ids stay as they were, bit-packed, and their set offsets are coded
/// as a boundary stream ([`RrSets`]). The node → set-id postings are a
/// function of them, so they are dropped here, and [`Self::unpark`]
/// rebuilds both. Nothing can scan a parked state.
pub struct ParkedWarmState {
    sets: RrSets,
    engine: ParallelSampler,
    kpt: KptState,
    base: Option<(usize, Vec<f64>)>,
    seeds: AdSeeds,
    threads: usize,
}

impl ParkedWarmState {
    /// Rebuilds, parked, the state a run under `(opts, seeds)` over
    /// `graph` and the ad's projected `probs` holds at `want`, by drawing
    /// both streams again from their seeds. Every field comes back as the
    /// run left it — sets, engine positions, widths, base scores — and
    /// [`Self::unpark`] gives the held state, `memory_bytes` to the byte,
    /// because each is a function of how many draws its stream has made
    /// and in which batches: the widths are drawn round by round as the
    /// estimator draws them, the θ₀ sets first so the base scores are
    /// taken where a run takes them, then the rest. No postings are
    /// placed: a pooled shard is never scanned.
    ///
    /// `want` is a checkpoint's word. Its counts are checked before
    /// anything is drawn (`theta0 ≤ theta`, `theta` within
    /// `opts.max_theta_per_ad` and the `u32` set-id space, `kpt_samples`
    /// the end of an estimation round), its set-size sum after: sets
    /// drawn over another graph or other probabilities add up differently.
    pub fn regenerate(
        graph: &DiGraph,
        probs: &[f32],
        opts: &TirmOptions,
        seeds: AdSeeds,
        want: WarmCounts,
    ) -> Result<ParkedWarmState, String> {
        let cap = opts.max_theta_per_ad.unwrap_or(u32::MAX as usize);
        if want.theta > cap.min(u32::MAX as usize) {
            return Err(format!("{} RR sets exceed the cap of {cap}", want.theta));
        }
        if want.theta0 > want.theta {
            return Err(format!(
                "θ₀ of {} exceeds {} RR sets",
                want.theta0, want.theta
            ));
        }
        let n = graph.num_nodes();
        let sampler = RrSampler::new(graph, probs);
        let fast = FastPath::new(Arc::new(sampling_layout(graph, opts)), graph, probs);
        let kpt_config = SamplingConfig::new(opts.threads, seeds.kpt);
        let mut kpt = KptEstimator::with_config(sampler, opts.ell, kpt_config);
        kpt.refill(want.kpt_samples, Some(&fast))?;
        let mut engine = ParallelSampler::new(SamplingConfig::new(opts.threads, seeds.engine), n);
        let mut coll = WeightedRrCollection::new(n);
        engine.sample_into_with(&sampler, Some(&fast), want.theta0, &mut coll);
        let base = Some((want.theta0, coll.scores().to_vec()));
        engine.sample_into_with(&sampler, Some(&fast), want.theta - want.theta0, &mut coll);
        if coll.total_entries() != want.total_entries {
            return Err(format!(
                "{} RR sets redrawn here hold {} members, the checkpointed ones held {}: not \
                 the graph and probabilities they were sampled over",
                want.theta,
                coll.total_entries(),
                want.total_entries
            ));
        }
        Ok(ParkedWarmState {
            sets: coll.take_index().into_sets(),
            engine,
            kpt: kpt.into_state(),
            base,
            seeds,
            threads: opts.threads,
        })
    }

    /// The state parked, its set offsets and postings rebuilt by a
    /// counting sort over the sets: every field, and `memory_bytes` to
    /// the byte, as the run that released it left them.
    pub fn unpark(self) -> AdWarmState {
        AdWarmState {
            index: self.sets.into_index(),
            engine: self.engine,
            kpt: self.kpt,
            base: self.base,
            seeds: self.seeds,
            threads: self.threads,
        }
    }

    /// The RR sets as they are parked.
    pub fn sets(&self) -> &RrSets {
        &self.sets
    }

    /// The counts the state was parked with.
    pub fn counts(&self) -> WarmCounts {
        warm_counts(
            self.sets.num_sets(),
            self.sets.total_entries(),
            &self.kpt,
            &self.base,
        )
    }

    /// Exact bytes held parked: the RR sets' member ids and boundary
    /// stream, the engines' RNG states, the KPT width cache and the base
    /// score snapshot — the online pool's eviction currency.
    pub fn memory_bytes(&self) -> usize {
        self.sets.memory_bytes() + engine_bytes(&self.engine, &self.kpt, &self.base)
    }
}

/// Bytes of a shard's capital beside its RR sets and postings.
fn engine_bytes(
    engine: &ParallelSampler,
    kpt: &KptState,
    base: &Option<(usize, Vec<f64>)>,
) -> usize {
    engine.memory_bytes()
        + kpt.memory_bytes()
        + base.as_ref().map(|(_, s)| s.capacity() * 8).unwrap_or(0)
}

/// A shard's [`WarmCounts`] from its parts.
fn warm_counts(
    theta: usize,
    total_entries: usize,
    kpt: &KptState,
    base: &Option<(usize, Vec<f64>)>,
) -> WarmCounts {
    WarmCounts {
        theta,
        kpt_samples: kpt.samples_used(),
        theta0: base.as_ref().map_or(0, |(theta0, _)| *theta0),
        total_entries,
    }
}

/// All a checkpoint keeps of an [`AdWarmState`]: with the host data, the
/// options and the seed plan, the first three determine it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmCounts {
    /// RR sets cached.
    pub theta: usize,
    /// Estimation samples in the KPT width cache.
    pub kpt_samples: usize,
    /// θ₀: the prefix whose pristine scores are kept (every state
    /// [`tirm_allocate_warm`] hands out keeps one).
    pub theta0: usize,
    /// Σ set sizes: a fingerprint of what the sets were sampled over.
    pub total_entries: usize,
}

/// The mark layout `opts` picks for sampling over `graph`, counted as one
/// sampler run's choice.
fn sampling_layout(graph: &DiGraph, opts: &TirmOptions) -> SamplingLayout {
    if opts.relabel.enabled_for(graph.num_nodes()) {
        tirm_obs::registry::RELABEL_SCALE_AWARE.inc();
        SamplingLayout::degree_ordered(graph)
    } else {
        tirm_obs::registry::RELABEL_IDENTITY.inc();
        SamplingLayout::identity()
    }
}

/// Whether two probability vectors hold the same bits, so that one
/// threshold table serves both.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-ad sampling and coverage state.
struct AdState<'a> {
    sampler: RrSampler<'a>,
    /// Fast sampling route (thresholds + shared mark layout);
    /// bit-identical to the plain route, used for every draw. Its
    /// threshold table is built by the ad's first draw of the run, or by
    /// that of a cold ad it shares the table with.
    fast: FastPath<'a>,
    coll: WeightedRrCollection,
    heap: LazyMaxHeap,
    kpt: KptEstimator<'a>,
    /// Sampling engine for this ad's collection (persistent per-shard RNG
    /// streams across the initial batch and every top-up).
    engine: ParallelSampler,
    /// Base snapshot carried through for the warm-state hand-back.
    base: Option<(usize, Vec<f64>)>,
    ad_seeds: AdSeeds,
    /// θ₀ = L(1, ε), the sets active before the ad's first commit, once
    /// asked of `KPT(1)`: where the ad's record is matched, else at its
    /// activation.
    theta0: Option<usize>,
    /// Current seed-count estimate `s_i`.
    s_est: usize,
    /// Seeds in selection order: (node, decay δ applied, credited score).
    seeds: Vec<(NodeId, f64, f64)>,
    /// Estimated revenue `Π_i(S_i)`.
    revenue: f64,
    /// Marginal revenue of the most recent seed.
    last_mg: f64,
    /// The candidate (node, marginal revenue, regret drop) of the ad's
    /// latest evaluation. The heap is pure, so it stays the candidate
    /// until the ad commits again or the node fills its attention bound.
    /// Never kept under the exact-drop ablation, whose scan depends on
    /// more nodes than the one it returns.
    cand: Option<(NodeId, f64, f64)>,
    /// No further regret-reducing candidate exists.
    saturated: bool,
    /// Set when the ad saturates and its overlay is released: its
    /// compacted index, its θ and the bytes the overlay held.
    released: Option<(RrIndex, usize, usize)>,
}

impl<'a> AdState<'a> {
    /// θ₀ = L(1, ε), asking `KPT(1)` the first time.
    fn theta0(&mut self, bound: &SampleBound, clock: &mut PhaseClock) -> usize {
        if self.theta0.is_none() {
            let kpt1 = self.estimate_kpt(1, clock);
            self.theta0 = Some(bound.theta(1, kpt1));
        }
        self.theta0.unwrap_or_default()
    }

    /// Activates the θ₀ prefix of the ad's overlay and builds its heap
    /// (Algorithm 2, lines 1–3), at its first live evaluation.
    fn activate(
        &mut self,
        want_warm: bool,
        bound: &SampleBound,
        oracle_calls: &mut usize,
        clock: &mut PhaseClock,
    ) {
        let theta = self.theta0(bound, clock);
        match &self.base {
            // O(n) shortcut past the O(entries) activation walk: the
            // pristine θ₀ scores are integers, so restoring them is
            // bit-identical to re-activating set by set.
            Some((t0, scores)) if *t0 == theta => {
                self.coll.restore_prefix(theta, scores);
                clock.lap(Phase::ThetaSample);
            }
            _ => {
                self.ensure_theta(theta, oracle_calls, clock);
                self.base = want_warm.then(|| (theta, self.coll.scores().to_vec()));
            }
        }
        rebuild_heap(self);
        clock.lap(Phase::HeapBuild);
    }

    /// Releases the saturated ad's overlay and heap at θ `theta` and
    /// places the postings of any sets drawn since its last decay, so the
    /// index it hands back is whole and the run reports its exact size.
    fn release(&mut self, theta: usize) {
        let overlay = self.coll.overlay_bytes();
        self.heap = LazyMaxHeap::new();
        let coll = std::mem::replace(&mut self.coll, WeightedRrCollection::new(0));
        let mut index = coll.take_index();
        index.compact();
        self.released = Some((index, theta, overlay));
    }

    /// `KPT(s)` through the ad's fast route, timed as `KptEstimate`.
    fn estimate_kpt(&mut self, s: usize, clock: &mut PhaseClock) -> f64 {
        let built = self.fast.build_time();
        let kpt = self.kpt.estimate_with(s, Some(&self.fast));
        clock.lap_draw(Phase::KptEstimate, self.fast.build_time() - built);
        kpt
    }

    /// Brings the collection up to `theta` active sets: cached dormant
    /// sets are re-activated first (bit-identical to sampling them, per
    /// the engine's batch-split invariance), then fresh sets are drawn.
    /// Timed as `ThetaSample`.
    fn ensure_theta(&mut self, theta: usize, oracle_calls: &mut usize, clock: &mut PhaseClock) {
        let have = self.coll.num_sets();
        if theta <= have {
            return;
        }
        let built = self.fast.build_time();
        let mut need = theta - have;
        need -= self.coll.activate_next(need);
        if need > 0 {
            self.engine
                .sample_into_with(&self.sampler, Some(&self.fast), need, &mut self.coll);
            *oracle_calls += need;
        }
        clock.lap_draw(Phase::ThetaSample, self.fast.build_time() - built);
    }
}

/// The phases one `tirm_run` is split into, in the index order of
/// [`CORE_PHASES`].
#[derive(Clone, Copy)]
enum Phase {
    KptEstimate,
    TableBuild,
    ThetaSample,
    HeapBuild,
    Select,
    Commit,
    Grow,
    Other,
}

const _: () = assert!(Phase::Other as usize + 1 == CORE_PHASES.len());

/// Where one run's wall time went. A lap charges everything since the
/// previous lap to one phase, so the phases partition the run; the sums
/// stay in locals until [`PhaseClock::record`] writes each once.
struct PhaseClock {
    last: Instant,
    spent: [Duration; CORE_PHASES.len()],
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock {
            last: Instant::now(),
            spent: [Duration::ZERO; CORE_PHASES.len()],
        }
    }

    fn lap(&mut self, phase: Phase) {
        self.lap_draw(phase, Duration::ZERO);
    }

    /// A lap over a stretch that may have drawn RR sets: `table_build`
    /// of it, the time a first draw spent gathering the ad's threshold
    /// table, goes to `TableBuild` and the rest to `phase`.
    fn lap_draw(&mut self, phase: Phase, table_build: Duration) {
        let now = Instant::now();
        self.spent[phase as usize] += (now - self.last).saturating_sub(table_build);
        self.spent[Phase::TableBuild as usize] += table_build;
        self.last = now;
    }

    fn record(&self) {
        for (hist, spent) in CORE_PHASE_NS.iter().zip(&self.spent) {
            hist.record_duration(*spent);
        }
    }
}

/// Runs TIRM (Algorithm 2). Returns the allocation and run statistics.
pub fn tirm_allocate(problem: &ProblemInstance<'_>, opts: TirmOptions) -> (Allocation, AlgoStats) {
    let seeds: Vec<AdSeeds> = (0..problem.num_ads())
        .map(|i| AdSeeds::for_index(opts.seed, i))
        .collect();
    tirm_allocate_seeded(problem, opts, &seeds)
}

/// [`tirm_allocate`] with an explicit per-ad seed plan. With
/// `AdSeeds::for_index(opts.seed, i)` for every ad this *is*
/// [`tirm_allocate`]; stable-id plans let a caller reproduce the batch
/// result for an ad population whose indices have churned.
pub fn tirm_allocate_seeded(
    problem: &ProblemInstance<'_>,
    opts: TirmOptions,
    ad_seeds: &[AdSeeds],
) -> (Allocation, AlgoStats) {
    let warm = (0..problem.num_ads()).map(|_| None).collect();
    let run = tirm_run(problem, opts, ad_seeds, warm, false, None);
    (run.alloc, run.stats)
}

/// The warm-start entry point behind the online serving layer: per-ad
/// sampling capital flows in (`None` ⇒ cold start for that ad) and the
/// updated capital flows back out alongside the allocation. The returned
/// allocation is **bit-identical** to a cold
/// [`tirm_allocate_seeded`] run with the same `(problem, opts, ad_seeds)`
/// — warm states only change *where sets come from* (cache vs fresh graph
/// walks), never their contents or the selection arithmetic. Enforced by
/// the `replay ≡ batch` property tests in `tirm_online`.
pub fn tirm_allocate_warm(
    problem: &ProblemInstance<'_>,
    opts: TirmOptions,
    ad_seeds: &[AdSeeds],
    warm: Vec<Option<AdWarmState>>,
) -> (Allocation, AlgoStats, Vec<AdWarmState>) {
    let run = tirm_run(problem, opts, ad_seeds, warm, true, None);
    (run.alloc, run.stats, run.warm)
}

/// What [`tirm_allocate_resumable`] hands back.
pub struct ResumableRun {
    /// Bit-identical to a cold [`tirm_allocate_seeded`] run.
    pub alloc: Allocation,
    /// The run's statistics; `oracle_calls` counts the selections this
    /// run made, not those it took over from the record.
    pub stats: AlgoStats,
    /// The updated per-ad capital, as [`tirm_allocate_warm`] returns it.
    pub warm: Vec<AdWarmState>,
    /// The record a later run over these ads, or some of them and others,
    /// can replay; `None` under [`TirmOptions::exact_drop_selection`],
    /// which never records.
    pub record: Option<RunRecord>,
    /// Commits this run took from the record it was handed; `None` when
    /// that record held no ad of this run.
    pub replayed: Option<usize>,
}

/// [`tirm_allocate_warm`] that also records every ad's trajectory, and
/// replays each ad that `resume`, the record of an earlier run, holds.
/// An ad is matched by its seed plan and cpe, is replayed only if its
/// warm state keeps the base scores of its θ₀, and must have the same
/// projected probabilities and CTPs as then; the options must be the
/// same. Budgets, λ and the other ads may differ: arrivals, departures
/// and top-ups. Each ad replays its record until the first evaluation
/// at which another ad's change or its own budget can alter it, and runs
/// live from there. The result is bit-identical to a cold
/// [`tirm_allocate_seeded`] run either way, and so is the warm capital
/// handed back: the KPT estimators are asked what a full run asks them.
///
/// A departing ad's trajectory must be dropped with
/// [`RunRecord::forget`] before an ad with its seed plan but other data
/// arrives.
pub fn tirm_allocate_resumable(
    problem: &ProblemInstance<'_>,
    opts: TirmOptions,
    ad_seeds: &[AdSeeds],
    warm: Vec<Option<AdWarmState>>,
    resume: Option<RunRecord>,
) -> ResumableRun {
    tirm_run(problem, opts, ad_seeds, warm, true, Some(resume))
}

/// Shared driver behind the entry points. `want_warm` gates the θ₀-score
/// base snapshot (an O(n) copy per ad that only pays off when the caller
/// keeps the warm states). `record` is `None` for a run that keeps no
/// record, else the record to replay, if any.
fn tirm_run(
    problem: &ProblemInstance<'_>,
    opts: TirmOptions,
    ad_seeds: &[AdSeeds],
    warm: Vec<Option<AdWarmState>>,
    want_warm: bool,
    record: Option<Option<RunRecord>>,
) -> ResumableRun {
    let start = Instant::now();
    let mut clock = PhaseClock::start();
    let h = problem.num_ads();
    assert_eq!(ad_seeds.len(), h, "one seed plan per ad");
    assert_eq!(warm.len(), h, "one warm slot per ad");
    let n = problem.num_nodes();
    let nf = n as f64;
    let mut alloc = Allocation::empty(h, n);
    let mut oracle_calls = 0usize;

    let mut bound = SampleBound::new(n, opts.eps);
    bound.ell = opts.ell;
    bound.max_theta = opts.max_theta_per_ad;

    // One mark layout for the whole run (same graph for every ad); the
    // per-ad FastPaths share it. Building the degree ordering is
    // O(n log n + m) once — noise against the sampling volume.
    let layout = Arc::new(sampling_layout(problem.graph, &opts));

    // Initialise per-ad state: s_i = 1. θ₀ and the overlay wait for the
    // ad's first evaluation (`AdState::activate`). Cold ads over
    // bit-identical probabilities draw through clones of one route, and
    // so build one threshold table; `cold` holds the first cold ad of
    // each distinct vector. Warm ads are not compared: they draw only
    // past their cached sets, if at all.
    let mut states: Vec<AdState<'_>> = Vec::with_capacity(h);
    let mut cold: Vec<usize> = Vec::new();
    for (i, slot) in warm.into_iter().enumerate() {
        let probs = &problem.edge_probs[i];
        let sampler = RrSampler::new(problem.graph, probs);
        let twin = match slot {
            None => cold
                .iter()
                .copied()
                .find(|&j| same_bits(&problem.edge_probs[j], probs)),
            Some(_) => None,
        };
        let fast = match twin {
            Some(j) => states[j].fast.clone(),
            None => FastPath::new(layout.clone(), problem.graph, probs),
        };
        if slot.is_none() && twin.is_none() {
            cold.push(i);
        }
        let seeds = ad_seeds[i];
        let (kpt, engine, index, base) = match slot {
            Some(w) => {
                assert_eq!(w.seeds, seeds, "warm state belongs to another seed plan");
                assert_eq!(
                    w.threads, opts.threads,
                    "warm state from another thread count"
                );
                (
                    KptEstimator::from_state(sampler, opts.ell, w.kpt),
                    w.engine,
                    w.index,
                    w.base,
                )
            }
            None => (
                KptEstimator::with_config(
                    sampler,
                    opts.ell,
                    SamplingConfig::new(opts.threads, seeds.kpt),
                ),
                ParallelSampler::new(SamplingConfig::new(opts.threads, seeds.engine), n),
                RrIndex::new(n),
                None,
            ),
        };
        states.push(AdState {
            sampler,
            fast,
            coll: WeightedRrCollection::from_index(index),
            heap: LazyMaxHeap::new(),
            kpt,
            engine,
            base,
            ad_seeds: seeds,
            theta0: None,
            s_est: 1,
            seeds: Vec::new(),
            revenue: 0.0,
            last_mg: f64::INFINITY,
            cand: None,
            saturated: false,
            released: None,
        });
    }
    clock.lap(Phase::Other);

    // The exact-drop ablation keeps no record: its candidates are not a
    // pure function of the heap's contents.
    let mut record = record
        .filter(|_| !opts.exact_drop_selection)
        .map(|old| RunRecord::start(problem, &opts, &mut states, old, &bound, &mut clock));
    // When every user's attention covers all h ads, no ad's choice can
    // block another's and the order of commits does not matter: the ads
    // run one after another, and only one overlay is held at a time.
    let one_by_one = (0..n as NodeId).all(|u| problem.attention.of(u) as usize >= h);

    // Main loop (Algorithm 2, lines 4–19).
    loop {
        let mut best: Option<(usize, NodeId, f64, f64)> = None; // ad, node, drop, mg
        for (i, st) in states.iter_mut().enumerate() {
            if st.saturated {
                continue;
            }
            let (v, mg, drop) = match st.cand.filter(|c| open(problem, &alloc, c.0)) {
                Some(cand) => cand,
                None => {
                    let replayed = record
                        .as_mut()
                        .and_then(|r| r.replayed_candidate(i, problem, &alloc, st, nf, &mut clock));
                    // A replaying ad's overlay stays empty until it goes
                    // live; a live one's is activated here, at its first
                    // evaluation.
                    if replayed.is_none() && st.coll.num_sets() == 0 {
                        st.activate(want_warm, &bound, &mut oracle_calls, &mut clock);
                    }
                    let cand = match replayed {
                        Some(cand) => cand,
                        None if opts.exact_drop_selection => {
                            select_best_drop(problem, &alloc, st, i, nf, &mut oracle_calls)
                        }
                        None => {
                            let rec = record.as_mut().map(|r| r.ad_mut(i));
                            select_best_node(problem, &alloc, st, i, &mut oracle_calls, rec).map(
                                |(v, score)| {
                                    let theta = st.coll.num_sets();
                                    (v, marginal_revenue(problem, i, v, score, theta, nf))
                                },
                            )
                        }
                    };
                    // No candidate, or the best one no longer reduces
                    // regret: the ad is saturated (Algorithm 1's per-pair
                    // constraint).
                    let seeds = alloc.seeds(i).len();
                    let drop = cand.map(|(_, mg)| regret_drop(problem, i, st.revenue, mg, seeds));
                    match (cand, drop) {
                        (Some((v, mg)), Some(drop)) if drop > DROP_TOL => (v, mg, drop),
                        _ => {
                            st.saturated = true;
                            let replayed = record.as_mut().and_then(|r| r.saturated(i, cand));
                            st.release(replayed.unwrap_or(st.coll.num_sets()));
                            continue;
                        }
                    }
                }
            };
            st.cand = (!opts.exact_drop_selection).then_some((v, mg, drop));
            if best.is_none_or(|(_, _, d, _)| drop > d) {
                best = Some((i, v, drop, mg));
            }
            if one_by_one {
                break;
            }
        }
        clock.lap(Phase::Select);
        let Some((i, v, _drop, mg)) = best else {
            break;
        };

        // Commit (lines 10–12): assign, credit coverage, decay covered
        // sets (hard removal when the ablation flag asks for it). A
        // replaying ad takes it from its record and leaves its overlay be;
        // its step is charged to the next lap.
        let st = &mut states[i];
        let replayed = record
            .as_mut()
            .and_then(|r| r.replayed_commit(i, v, problem, st, nf, &mut clock));
        alloc.assign(v, i);
        st.revenue += mg;
        st.last_mg = mg;
        st.cand = None;
        if replayed.is_none() {
            let delta = problem.ctp.get(v, i) as f64;
            let decay = if opts.hard_cover { 1.0 } else { delta };
            let credited = st.coll.decay_node(v, decay);
            st.seeds.push((v, decay, credited));
            if let Some(rec) = &mut record {
                rec.committed(i, v, decay, mg, st.coll.union_coverage());
            }
            clock.lap(Phase::Commit);
        }

        // Seed-count growth + sample top-up (lines 14–19).
        let k = alloc.seeds(i).len();
        let mut grow = None;
        if k == st.s_est {
            let budget = problem.target_budget(i);
            let (touched, theta_now) =
                replayed.unwrap_or((st.coll.union_coverage(), st.coll.num_sets()));
            let (s_est, target) = grow_target(
                budget,
                st.revenue,
                st.last_mg,
                st.s_est,
                touched,
                theta_now,
                &bound,
                nf,
                |s| {
                    clock.lap(Phase::Grow);
                    st.estimate_kpt(s, &mut clock)
                },
            );
            st.s_est = s_est;
            grow = target;
        }
        // Compared at every replayed commit: the recorded run may have
        // grown θ where this one has no grow at all.
        if let (Some(rec), Some(_)) = (&mut record, replayed) {
            if rec.replayed_grow(i, grow, problem, st, nf, &mut clock) {
                continue;
            }
        }
        if let Some(theta) = grow {
            grow_theta(problem, st, i, theta, nf, &mut oracle_calls, &mut clock);
        }
        clock.lap(Phase::Grow);
        if let Some(rec) = &mut record {
            rec.after_step(i, k, grow, st);
            clock.lap(Phase::Commit);
        }
    }

    let mut stats = AlgoStats {
        seeds_per_ad: (0..h).map(|i| alloc.seeds(i).len()).collect(),
        estimated_revenue: states.iter().map(|s| s.revenue).collect(),
        oracle_calls,
        ..AlgoStats::default()
    };
    let mut warm_out = Vec::with_capacity(h);
    for mut st in states {
        let (index, theta, overlay) = st.released.take().expect("every ad saturates");
        stats.rr_sets_per_ad.push(theta);
        stats.memory_bytes += index.memory_bytes() + overlay;
        stats.postings_bytes += index.postings_bytes();
        stats.postings_entries += index.total_entries();
        warm_out.push(AdWarmState {
            index,
            engine: st.engine,
            kpt: st.kpt.into_state(),
            base: st.base,
            seeds: st.ad_seeds,
            threads: opts.threads,
        });
    }
    stats.runtime = start.elapsed();
    clock.lap(Phase::Other);
    clock.record();
    ResumableRun {
        alloc,
        stats,
        warm: warm_out,
        replayed: record.as_ref().and_then(|r| r.replayed()),
        record,
    }
}

/// How much ad `ad`'s regret falls when a seed of marginal revenue `mg`
/// joins its `seeds_len` seeds at revenue `revenue`.
fn regret_drop(
    problem: &ProblemInstance<'_>,
    ad: usize,
    revenue: f64,
    mg: f64,
    seeds_len: usize,
) -> f64 {
    let budget = problem.target_budget(ad);
    let current = ad_regret(budget, revenue, problem.lambda, seeds_len);
    let next = ad_regret(budget, revenue + mg, problem.lambda, seeds_len + 1);
    current - next
}

/// Whether user `v` can take one more ad under its attention bound.
fn open(problem: &ProblemInstance<'_>, alloc: &Allocation, v: NodeId) -> bool {
    alloc.assigned_count(v) < problem.attention.of(v)
}

/// `MG_i(v) = cpe(i) · n · δ(v,i) · score / θ`.
#[inline]
fn marginal_revenue(
    problem: &ProblemInstance<'_>,
    ad: usize,
    v: NodeId,
    score: f64,
    theta: usize,
    nf: f64,
) -> f64 {
    problem.ads[ad].cpe * nf * problem.ctp.get(v, ad) as f64 * score / theta as f64
}

/// Algorithm 3 — `SelectBestNode`: the eligible node with maximum weighted
/// coverage, via the lazy heap. The winner is *peeked*: it is re-pushed so
/// the heap stays consistent if another ad wins this round. Nodes dropped
/// as ineligible are noted in `rec`; to note them in the ad's order, a
/// recording heap drops a node only at its current key.
fn select_best_node(
    problem: &ProblemInstance<'_>,
    alloc: &Allocation,
    st: &mut AdState<'_>,
    ad: usize,
    oracle_calls: &mut usize,
    mut rec: Option<&mut AdRecord>,
) -> Option<(NodeId, f64)> {
    *oracle_calls += 1;
    let coll = &st.coll;
    let got = st.heap.pop_best(|v, key| {
        let eligible = || alloc.can_assign(problem, v, ad);
        if rec.is_none() && !eligible() {
            return Verdict::Drop;
        }
        let cur = coll.score(v);
        if cur <= 1e-12 {
            return Verdict::Drop;
        }
        let cur_key = score_key(cur);
        if cur_key != key {
            return Verdict::Refresh(cur_key);
        }
        if let Some(rec) = rec.as_deref_mut().filter(|_| !eligible()) {
            rec.dropped(v, cur, alloc.seeds(ad));
            return Verdict::Drop;
        }
        Verdict::Take
    });
    if let Some((v, key)) = got {
        st.heap.push(v, key); // peek semantics
        Some((v, f64::from_bits(key)))
    } else {
        None
    }
}

/// Ablation variant: scan candidates in decreasing coverage and return the
/// one with the best *regret drop*. Early-stops when the next candidate's
/// optimistic drop (≤ its marginal revenue) cannot beat the best found.
fn select_best_drop(
    problem: &ProblemInstance<'_>,
    alloc: &Allocation,
    st: &mut AdState<'_>,
    ad: usize,
    nf: f64,
    oracle_calls: &mut usize,
) -> Option<(NodeId, f64)> {
    let budget = problem.target_budget(ad);
    let seeds_len = alloc.seeds(ad).len();
    let current = ad_regret(budget, st.revenue, problem.lambda, seeds_len);
    let theta = st.coll.num_sets();
    let mut popped: Vec<(NodeId, u64)> = Vec::new();
    let mut best: Option<(NodeId, f64, f64, f64)> = None; // v, score, mg, drop
    loop {
        *oracle_calls += 1;
        let coll = &st.coll;
        let got = st.heap.pop_best(|v, key| {
            if !alloc.can_assign(problem, v, ad) {
                return Verdict::Drop;
            }
            let cur = coll.score(v);
            if cur <= 1e-12 {
                return Verdict::Drop;
            }
            let cur_key = score_key(cur);
            if cur_key != key {
                Verdict::Refresh(cur_key)
            } else {
                Verdict::Take
            }
        });
        let (v, key) = match got {
            Some(x) => x,
            None => break,
        };
        popped.push((v, key));
        let score = f64::from_bits(key);
        let mg = marginal_revenue(problem, ad, v, score, theta, nf);
        let next = ad_regret(budget, st.revenue + mg, problem.lambda, seeds_len + 1);
        let drop = current - next;
        if best.as_ref().is_none_or(|&(_, _, _, d)| drop > d) {
            best = Some((v, score, mg, drop));
        }
        if let Some(&(_, _, _, best_drop)) = best.as_ref() {
            // Later candidates have smaller scores, hence smaller mg, and
            // drop ≤ mg — stop once mg can no longer win.
            if mg <= best_drop {
                break;
            }
        }
        if popped.len() > 64 {
            break; // bounded scan; diminishing returns beyond this
        }
    }
    for &(v, key) in &popped {
        st.heap.push(v, key);
    }
    best.map(|(v, _, mg, _)| (v, mg))
}

/// Lines 15–16 of Algorithm 2 for an ad whose seed count just reached its
/// estimate `s_est`: the revised estimate, and the θ to grow to when the
/// revision asks for more sets than the `theta_now` held. `kpt` answers
/// `KPT(s)`; it is asked only when the estimate grows. A pure function of
/// its arguments, so a replay can recompute it from recorded values.
#[allow(clippy::too_many_arguments)]
fn grow_target(
    budget: f64,
    revenue: f64,
    last_mg: f64,
    s_est: usize,
    touched: usize,
    theta_now: usize,
    bound: &SampleBound,
    nf: f64,
    kpt: impl FnOnce(usize) -> f64,
) -> (usize, Option<usize>) {
    let budget_regret = (budget - revenue).abs();
    // s_i ← s_i + ⌊R_i(S_i)/MG_last⌋ (line 15). MG_last > 0 by construction.
    let growth = if last_mg > 0.0 && revenue < budget {
        (budget_regret / last_mg).floor() as usize
    } else {
        0
    };
    if growth == 0 {
        return (s_est, None);
    }
    let s_est = s_est + growth;

    // θ_i ← max(L(s_i, ε), θ_i) (line 16) with the TIM+-style OPT lower
    // bound: the larger of KPT(s_i) and the (1−ε)-discounted CTP-free
    // union-coverage estimate of the current seed set (both are
    // high-probability lower bounds on OPT_{s_i}).
    let kpt = kpt(s_est);
    let union_est = nf * touched as f64 / theta_now.max(1) as f64;
    let opt_lb = kpt.max(union_est * (1.0 - bound.eps)).max(1.0);
    let theta_needed = bound.theta(s_est, opt_lb);
    (s_est, (theta_needed > theta_now).then_some(theta_needed))
}

/// Lines 17–19 of Algorithm 2 plus Algorithm 4 (`UpdateEstimates`): grow
/// the ad's collection to `theta` sets and bring the seeds, the revenue
/// estimate and the heap up to date. The caller charges what is left on
/// `clock` to `Grow`; the laps in here only close a stretch of it before
/// a nested phase begins.
fn grow_theta(
    problem: &ProblemInstance<'_>,
    st: &mut AdState<'_>,
    ad: usize,
    theta: usize,
    nf: f64,
    oracle_calls: &mut usize,
    clock: &mut PhaseClock,
) {
    let first_new_sid = st.coll.num_sets() as u32;
    clock.lap(Phase::Grow);
    st.ensure_theta(theta, oracle_calls, clock);
    credit_new_sets(problem, st, ad, first_new_sid, true, nf);
    // Scores grew for everyone → lazy invalidation is unsound until
    // the heap is rebuilt.
    clock.lap(Phase::Grow);
    rebuild_heap(st);
    clock.lap(Phase::HeapBuild);
}

/// Algorithm 4 over the sets from `first_new_sid` on, which a θ growth
/// just activated: apply the existing seeds to them in selection order so
/// future marginals stay marginal, credit the extra coverage to each
/// seed, and recompute `Π_i(S_i)` against the enlarged collection (line
/// 18). `full = false` does the weight half (see
/// [`WeightedRrCollection::decay_weights_from`]).
fn credit_new_sets(
    problem: &ProblemInstance<'_>,
    st: &mut AdState<'_>,
    ad: usize,
    first_new_sid: u32,
    full: bool,
    nf: f64,
) {
    for k in 0..st.seeds.len() {
        let (v, decay, credited) = st.seeds[k];
        let extra = if full {
            st.coll.decay_node_from(v, decay, first_new_sid)
        } else {
            st.coll.decay_weights_from(v, decay, first_new_sid)
        };
        st.seeds[k] = (v, decay, credited + extra);
    }
    let theta_new = st.coll.num_sets() as f64;
    st.revenue = if decayed_estimates_exact(st) {
        // Weighted mode: n/θ·Σ_R (1 − w_R) is the unbiased σ_ctp.
        problem.ads[ad].cpe * nf * st.coll.deficit() / theta_new
    } else {
        // Hard-removal mode: the paper's Σ δ(v)·cov(v) bookkeeping.
        st.seeds
            .iter()
            .map(|&(v, _, credited)| {
                problem.ads[ad].cpe * nf * problem.ctp.get(v, ad) as f64 * credited / theta_new
            })
            .sum()
    };
}

/// True when the collection's decay deltas equal the seeds' CTPs (weighted
/// mode), making the deficit estimator exact.
fn decayed_estimates_exact(st: &AdState<'_>) -> bool {
    // In hard-cover mode every decay was 1.0; CTPs below 1 then mismatch.
    // (With genuinely all-1 CTPs the two branches agree anyway.)
    st.seeds.iter().all(|&(_, decay, _)| decay < 1.0) || st.seeds.is_empty()
}

/// Fills the per-ad heap from current weighted scores.
fn rebuild_heap(st: &mut AdState<'_>) {
    let coll = &st.coll;
    let n = coll.num_nodes();
    st.heap.rebuild((0..n as NodeId).filter_map(|v| {
        let s = coll.score(v);
        (s > 1e-12).then(|| (v, score_key(s)))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::{myopic_allocate, myopic_plus_allocate};
    use crate::eval::evaluate;
    use crate::problem::{Advertiser, Attention};
    use tirm_graph::generators;
    use tirm_topics::{CtpTable, TopicDist};

    fn opts(seed: u64) -> TirmOptions {
        TirmOptions {
            eps: 0.2,
            seed,
            max_theta_per_ad: Some(200_000),
            ..TirmOptions::default()
        }
    }

    #[test]
    fn relabel_mode_policy() {
        assert!(!RelabelMode::Auto.enabled_for(RELABEL_AUTO_MIN_NODES - 1));
        assert!(RelabelMode::Auto.enabled_for(RELABEL_AUTO_MIN_NODES));
        assert!(RelabelMode::On.enabled_for(1));
        assert!(!RelabelMode::Off.enabled_for(usize::MAX));
    }

    #[test]
    fn scale_theta_cap_convention() {
        let capped = |cap, scale| {
            let mut o = TirmOptions {
                max_theta_per_ad: cap,
                ..TirmOptions::default()
            };
            o.scale_theta_cap(scale);
            o.max_theta_per_ad
        };
        // Linear shrink below scale 1, floored at 50k.
        assert_eq!(capped(Some(400_000), 0.1), Some(50_000));
        assert_eq!(capped(Some(1_000_000), 0.5), Some(500_000));
        // Scales ≥ 1 are a no-op — even for caps under the floor.
        assert_eq!(capped(Some(400_000), 1.0), Some(400_000));
        assert_eq!(capped(Some(400_000), 40.0), Some(400_000));
        assert_eq!(capped(Some(20_000), 1.0), Some(20_000));
        // The floor never raises a small configured cap.
        assert_eq!(capped(Some(20_000), 0.1), Some(20_000));
        // Uncapped stays uncapped.
        assert_eq!(capped(None, 0.1), None);
    }

    #[test]
    fn single_ad_star_reaches_budget() {
        // Star: hub spread 1+99·0.3 = 30.7, leaves 1. Budget 50 keeps the
        // paper's §4.1 working assumption p_i < 1 (no single node can
        // overshoot the whole budget), so greedy can land near the target:
        // hub + ~28 leaves ≈ 50.
        let g = generators::star(100);
        let ads = vec![Advertiser::new(50.0, 1.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.3f32; g.num_edges()]];
        let ctp = CtpTable::constant(100, 1, 1.0);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let (alloc, stats) = tirm_allocate(&p, opts(1));
        alloc.validate(&p).unwrap();
        let ev = evaluate(&p, &alloc, 20_000, 9, 2);
        assert!(
            ev.regret.total() < 8.0,
            "regret {} revenue {}",
            ev.regret.total(),
            ev.revenues[0]
        );
        assert!(
            (stats.estimated_revenue[0] - ev.revenues[0]).abs() < 0.25 * ev.revenues[0].max(1.0),
            "estimate {} vs MC {}",
            stats.estimated_revenue[0],
            ev.revenues[0]
        );
    }

    #[test]
    fn estimate_unbiased_at_small_ctp() {
        // The weighted-coverage estimator must track MC revenue closely
        // even with overlapping cascades and tiny CTPs (this is exactly
        // where hard removal under-estimates).
        let g = generators::preferential_attachment(400, 6, 0.3, 3);
        let ads = vec![Advertiser::new(4.0, 1.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.15f32; g.num_edges()]];
        let ctp = CtpTable::constant(400, 1, 0.05);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let (alloc, stats) = tirm_allocate(&p, opts(5));
        let ev = evaluate(&p, &alloc, 40_000, 3, 2);
        let est = stats.estimated_revenue[0];
        let mc = ev.revenues[0];
        assert!(
            (est - mc).abs() < 0.2 * mc.max(0.5) + 0.1,
            "estimate {est} vs MC {mc}"
        );
    }

    #[test]
    fn hard_cover_underestimates_under_overlap() {
        // With tiny CTPs and overlapping cascades, the literal line-12
        // rule must end up with MC revenue noticeably above its own
        // estimate (the bias the weighted rule removes).
        let g = generators::preferential_attachment(400, 6, 0.3, 3);
        let ads = vec![Advertiser::new(6.0, 1.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.15f32; g.num_edges()]];
        let ctp = CtpTable::constant(400, 1, 0.05);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let mut o = opts(5);
        o.hard_cover = true;
        let (alloc, stats) = tirm_allocate(&p, o);
        let ev = evaluate(&p, &alloc, 40_000, 3, 2);
        assert!(
            ev.revenues[0] > stats.estimated_revenue[0] * 1.02,
            "hard removal should under-estimate: est {} vs MC {}",
            stats.estimated_revenue[0],
            ev.revenues[0]
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::preferential_attachment(300, 3, 0.2, 5);
        let ads = vec![Advertiser::new(15.0, 1.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.1f32; g.num_edges()]];
        let ctp = CtpTable::constant(300, 1, 1.0);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let (a1, _) = tirm_allocate(&p, opts(42));
        let (a2, _) = tirm_allocate(&p, opts(42));
        assert_eq!(a1.seeds(0), a2.seeds(0));
    }

    #[test]
    fn parallel_sampling_deterministic_and_comparable() {
        let g = generators::preferential_attachment(300, 3, 0.2, 5);
        let mk = || {
            let ads = vec![Advertiser::new(15.0, 1.0, TopicDist::single(1, 0))];
            let probs = vec![vec![0.1f32; g.num_edges()]];
            let ctp = CtpTable::constant(300, 1, 1.0);
            ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0)
        };
        let p = mk();
        let mut par = opts(42);
        par.threads = 4;
        // Same (seed, threads) ⇒ identical allocation.
        let (a1, _) = tirm_allocate(&p, par);
        let (a2, _) = tirm_allocate(&p, par);
        assert_eq!(a1.seeds(0), a2.seeds(0));
        // Parallel sampling must not change solution quality materially.
        let (serial, _) = tirm_allocate(&p, opts(42));
        let r_par = evaluate(&p, &a1, 8_000, 3, 2).regret.total();
        let r_ser = evaluate(&p, &serial, 8_000, 3, 2).regret.total();
        assert!(
            r_par <= r_ser * 1.5 + 1.0,
            "parallel regret {r_par} vs serial {r_ser}"
        );
    }

    #[test]
    fn beats_myopic_baselines_on_regret() {
        let g = generators::preferential_attachment(500, 4, 0.3, 7);
        let h = 3;
        let ads = (0..h)
            .map(|_| Advertiser::new(12.0, 1.0, TopicDist::single(1, 0)))
            .collect::<Vec<_>>();
        let probs = vec![vec![0.05f32; g.num_edges()]; h];
        let ctp = CtpTable::uniform_random(500, h, 0.05, 0.15, 3);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(2), 0.0);
        let (tirm_alloc, _) = tirm_allocate(&p, opts(11));
        let (myo_alloc, _) = myopic_allocate(&p);
        let (myop_alloc, _) = myopic_plus_allocate(&p);
        tirm_alloc.validate(&p).unwrap();
        let runs = 4_000;
        let r_tirm = evaluate(&p, &tirm_alloc, runs, 1, 2).regret.total();
        let r_myo = evaluate(&p, &myo_alloc, runs, 1, 2).regret.total();
        let r_myop = evaluate(&p, &myop_alloc, runs, 1, 2).regret.total();
        assert!(
            r_tirm < r_myo && r_tirm < r_myop,
            "TIRM {r_tirm} vs MYOPIC {r_myo} / MYOPIC+ {r_myop}"
        );
    }

    #[test]
    fn lambda_reduces_seed_usage() {
        let g = generators::preferential_attachment(400, 3, 0.2, 9);
        let mk = |lambda: f64| {
            let ads = vec![Advertiser::new(10.0, 1.0, TopicDist::single(1, 0))];
            let probs = vec![vec![0.05f32; g.num_edges()]];
            let ctp = CtpTable::constant(400, 1, 0.2);
            ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), lambda)
        };
        let p0 = mk(0.0);
        let p1 = mk(0.15);
        let (a0, _) = tirm_allocate(&p0, opts(3));
        let (a1, _) = tirm_allocate(&p1, opts(3));
        assert!(
            a1.total_seeds() <= a0.total_seeds(),
            "λ>0 used {} seeds vs {} at λ=0",
            a1.total_seeds(),
            a0.total_seeds()
        );
    }

    #[test]
    fn attention_bound_respected_under_competition() {
        let g = generators::star(50);
        let h = 4;
        let ads = (0..h)
            .map(|_| Advertiser::new(8.0, 1.0, TopicDist::single(1, 0)))
            .collect::<Vec<_>>();
        let probs = vec![vec![0.4f32; g.num_edges()]; h];
        let ctp = CtpTable::constant(50, h, 1.0);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let (alloc, _) = tirm_allocate(&p, opts(5));
        alloc.validate(&p).unwrap();
        let hub_owners = (0..h).filter(|&i| alloc.seeds(i).contains(&0)).count();
        assert!(hub_owners <= 1);
    }

    #[test]
    fn exact_drop_ablation_not_worse() {
        let g = generators::preferential_attachment(300, 3, 0.2, 13);
        let ads = vec![Advertiser::new(10.0, 1.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.08f32; g.num_edges()]];
        let ctp = CtpTable::constant(300, 1, 1.0);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let (a_std, _) = tirm_allocate(&p, opts(21));
        let mut o = opts(21);
        o.exact_drop_selection = true;
        let (a_exact, _) = tirm_allocate(&p, o);
        let r_std = evaluate(&p, &a_std, 8_000, 2, 2).regret.total();
        let r_exact = evaluate(&p, &a_exact, 8_000, 2, 2).regret.total();
        assert!(r_exact <= r_std * 1.5 + 1.0, "std {r_std} exact {r_exact}");
    }

    #[test]
    fn seeded_with_index_plan_matches_plain() {
        let g = generators::preferential_attachment(300, 3, 0.2, 5);
        let h = 2;
        let ads = (0..h)
            .map(|_| Advertiser::new(12.0, 1.0, TopicDist::single(1, 0)))
            .collect::<Vec<_>>();
        let probs = vec![vec![0.1f32; g.num_edges()]; h];
        let ctp = CtpTable::constant(300, h, 0.5);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(2), 0.0);
        let (a, _) = tirm_allocate(&p, opts(42));
        let plan: Vec<AdSeeds> = (0..h).map(|i| AdSeeds::for_index(42, i)).collect();
        let (b, _) = tirm_allocate_seeded(&p, opts(42), &plan);
        for i in 0..h {
            assert_eq!(a.seeds(i), b.seeds(i));
        }
    }

    #[test]
    fn warm_rerun_is_bit_identical_and_samples_nothing() {
        let g = generators::preferential_attachment(400, 4, 0.2, 9);
        let h = 3;
        let mk = || {
            let ads = (0..h)
                .map(|i| Advertiser::new(10.0 + i as f64, 1.0, TopicDist::single(1, 0)))
                .collect::<Vec<_>>();
            let probs = vec![vec![0.06f32; g.num_edges()]; h];
            let ctp = CtpTable::constant(400, h, 0.3);
            ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(3), 0.0)
        };
        let p = mk();
        let plan: Vec<AdSeeds> = (0..h)
            .map(|i| AdSeeds::for_ad_id(7, 100 + i as u64))
            .collect();
        let (cold, cold_stats, warm) =
            tirm_allocate_warm(&p, opts(7), &plan, vec![None, None, None]);
        let cached: Vec<usize> = warm.iter().map(|w| w.num_sets()).collect();
        assert!(warm.iter().all(|w| w.memory_bytes() > 0));

        // Re-running on the warm capital must reproduce the allocation
        // bit for bit without drawing a single fresh RR set.
        let p2 = mk();
        let (hot, hot_stats, warm2) =
            tirm_allocate_warm(&p2, opts(7), &plan, warm.into_iter().map(Some).collect());
        for i in 0..h {
            assert_eq!(cold.seeds(i), hot.seeds(i), "ad {i}");
        }
        assert_eq!(cold_stats.estimated_revenue, hot_stats.estimated_revenue);
        let cached2: Vec<usize> = warm2.iter().map(|w| w.num_sets()).collect();
        assert_eq!(cached, cached2, "warm rerun must not sample");

        // And the warm result equals the plain seeded batch run.
        let (batch, _) = tirm_allocate_seeded(&mk(), opts(7), &plan);
        for i in 0..h {
            assert_eq!(batch.seeds(i), hot.seeds(i));
        }
    }

    /// The rule a checkpoint rests on: a shard is a pure function of
    /// (graph, projected probabilities, seed plan, threads, θ count, KPT
    /// count). Whatever runs grew it, in however many batches, the shard
    /// redrawn from its counts is the held one — every array, both engine
    /// positions (the next run draws the same sets through either) and
    /// `memory_bytes` to the byte.
    #[test]
    fn regenerated_shard_is_the_held_shard() {
        let g = generators::preferential_attachment(150, 4, 0.2, 9);
        let h = 3;
        let probs: Vec<Vec<f32>> = (0..h)
            .map(|i| vec![0.15 + 0.05 * i as f32; g.num_edges()])
            .collect();
        let mk = |budget: f64| {
            let ads = (0..h)
                .map(|i| Advertiser::new(budget + i as f64, 1.0, TopicDist::single(1, 0)))
                .collect::<Vec<_>>();
            let ctp = CtpTable::constant(150, h, 0.3);
            ProblemInstance::new(&g, ads, probs.clone(), ctp, Attention::Uniform(3), 0.0)
        };
        let plan: Vec<AdSeeds> = (0..h)
            .map(|i| AdSeeds::for_ad_id(7, 100 + i as u64))
            .collect();
        let same = |a: &AdWarmState, b: &AdWarmState| {
            assert_eq!(a.counts(), b.counts());
            assert_eq!(a.base, b.base);
            assert!(format!("{:?}", a.index) == format!("{:?}", b.index));
            assert_eq!(a.engine.total_sampled(), b.engine.total_sampled());
            assert_eq!(a.memory_bytes(), b.memory_bytes());
        };
        for threads in [1, 2] {
            let o = TirmOptions {
                threads,
                eps: 0.3,
                max_theta_per_ad: Some(30_000),
                ..opts(7)
            };
            // Two runs, the second with budgets that grow θ past the
            // first's: the held shards were filled in several batches.
            let (_, _, warm) = tirm_allocate_warm(&mk(1.0), o, &plan, vec![None, None, None]);
            let first: Vec<usize> = warm.iter().map(|w| w.num_sets()).collect();
            let (_, _, held) =
                tirm_allocate_warm(&mk(25.0), o, &plan, warm.into_iter().map(Some).collect());
            let grown: Vec<usize> = held.iter().map(|w| w.num_sets()).collect();
            assert!(
                grown.iter().zip(&first).any(|(g, f)| g > f),
                "{first:?} → {grown:?}"
            );

            let redrawn: Vec<AdWarmState> = held
                .iter()
                .zip(&probs)
                .zip(&plan)
                .map(|((w, p), &seeds)| {
                    let c = w.counts();
                    assert!(0 < c.theta0 && c.theta0 <= c.theta && c.kpt_samples > 0);
                    ParkedWarmState::regenerate(&g, p, &o, seeds, c)
                        .unwrap()
                        .unpark()
                })
                .collect();
            for (a, b) in held.iter().zip(&redrawn) {
                same(a, b);
            }
            // The set-size sum is held against what was drawn.
            let off_by_one = WarmCounts {
                total_entries: held[0].counts().total_entries + 1,
                ..held[0].counts()
            };
            assert!(ParkedWarmState::regenerate(&g, &probs[0], &o, plan[0], off_by_one).is_err());
            // Parked, a shard weighs all but its postings and its set
            // offsets, plus the boundary stream the offsets are coded as,
            // and keeps its counts; unparked, it is the held shard again.
            let held: Vec<AdWarmState> = held
                .into_iter()
                .map(|w| {
                    let (counts, bytes) = (w.counts(), w.memory_bytes());
                    let (postings, offsets) = (w.index.postings_bytes(), w.index.offsets_bytes());
                    let parked = w.park();
                    assert_eq!(parked.counts(), counts);
                    let boundary = parked.sets.boundary_bytes();
                    assert_eq!(parked.memory_bytes(), bytes - postings - offsets + boundary);
                    parked.unpark()
                })
                .collect();
            for (a, b) in held.iter().zip(&redrawn) {
                same(a, b);
            }
            // The unparked and the redrawn shards continue the same
            // streams.
            let next = mk(50.0);
            let (x, xs, held) =
                tirm_allocate_warm(&next, o, &plan, held.into_iter().map(Some).collect());
            let (y, ys, redrawn) =
                tirm_allocate_warm(&next, o, &plan, redrawn.into_iter().map(Some).collect());
            for i in 0..h {
                assert_eq!(x.seeds(i), y.seeds(i));
            }
            assert_eq!(xs.estimated_revenue, ys.estimated_revenue);
            for (a, b) in held.iter().zip(&redrawn) {
                same(a, b);
            }
        }
    }

    #[test]
    fn regenerate_refuses_counts_no_run_could_hold() {
        let g = generators::preferential_attachment(300, 3, 0.2, 5);
        let probs = vec![0.1f32; g.num_edges()];
        let o = TirmOptions {
            max_theta_per_ad: Some(1_000),
            ..opts(3)
        };
        let redraw = |opts: &TirmOptions, theta, kpt_samples, theta0| {
            let want = WarmCounts {
                theta,
                kpt_samples,
                theta0,
                total_entries: 0,
            };
            ParkedWarmState::regenerate(&g, &probs, opts, AdSeeds::for_ad_id(3, 1), want)
        };
        // (That nothing is drawn first is counted where tests take turns
        // at the counter: `tirm_online`'s `hostile_checkpoint`.)
        assert!(redraw(&o, 1_001, 0, 10).is_err(), "θ past the cap");
        assert!(redraw(&o, 1 << 40, 0, 10).is_err(), "θ past the cap");
        assert!(redraw(&o, 500, 0, 501).is_err(), "θ₀ past θ");
        assert!(redraw(&o, 500, 7, 100).is_err(), "KPT inside a round");
        assert!(
            redraw(&o, 500, usize::MAX, 100).is_err(),
            "KPT past the rounds"
        );
        let uncapped = TirmOptions {
            max_theta_per_ad: None,
            ..o
        };
        assert!(redraw(&uncapped, 1 << 33, 0, 0).is_err(), "set ids are u32");
    }

    #[test]
    fn ad_id_seed_plans_are_stable_and_distinct() {
        let a = AdSeeds::for_ad_id(5, 1);
        assert_eq!(a, AdSeeds::for_ad_id(5, 1));
        assert_ne!(a, AdSeeds::for_ad_id(5, 2));
        assert_ne!(a, AdSeeds::for_ad_id(6, 1));
        assert_ne!(a.kpt, a.engine);
    }

    #[test]
    fn reports_rr_memory() {
        let g = generators::erdos_renyi(200, 800, 3);
        let ads = vec![Advertiser::new(5.0, 1.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.1f32; g.num_edges()]];
        let ctp = CtpTable::constant(200, 1, 1.0);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let (_, stats) = tirm_allocate(&p, opts(8));
        assert!(stats.memory_bytes > 0);
        assert_eq!(stats.rr_sets_per_ad.len(), 1);
        assert!(stats.rr_sets_per_ad[0] > 0);
    }
}
