//! The long-lived [`OnlineAllocator`].
//!
//! # Data flow
//!
//! The allocator owns a **sharded inverted RR index**: one
//! [`tirm_rrset::RrIndex`] shard per ad (exactly TIRM's per-ad collections
//! `R_i`), each mapping node → RR-set postings, kept alive across events
//! inside the ad's [`AdWarmState`]. Events mutate the *campaign model*
//! (who is live, with what budget); every reconciliation turns the model
//! back into an allocation with one warm run of the interleaved greedy
//! over all live ads ([`tirm_core::tirm_allocate_resumable`]):
//!
//! * every ad the last run's [`RunRecord`] holds replays its own
//!   recorded trajectory, never touching its overlay, until the first
//!   evaluation that another ad's change (a node it dropped freed, its
//!   pick taken) or its own budget can alter, and runs live from there;
//! * an ad the record does not hold (an arrival; every ad after a
//!   restore) runs live from step 0, re-activating its cached RR prefix
//!   (O(n) via the θ₀ base snapshot) and sampling only past the cached
//!   tail.
//!
//! κ is the only coupling between ads: while no user sits at κ only the
//! ads a batch changed go live, and a departure sends none live —
//! withdrawing its seeds is the re-allocation.
//!
//! # Correctness anchor
//!
//! After any reconciliation, [`OnlineAllocator::allocation`] is
//! **bit-identical** to running batch
//! [`tirm_core::tirm_allocate_seeded`] on the live ads (arrival order,
//! id-derived seed plans) — property-tested in
//! `tests/replay_equivalence.rs`. The online path is a pure speedup,
//! never a quality fork.

#[path = "checkpoint.rs"]
pub mod checkpoint;

use crate::events::{AdId, EventKind, EventOutcome, OnlineError, OnlineEvent};
use crate::pool::RetainedPool;
use crate::snapshot::{AdSnapshot, AllocationSnapshot};
use std::sync::Arc;
use std::time::Instant;
use tirm_core::{
    ad_regret, tirm_allocate_resumable, AdSeeds, AdWarmState, Advertiser, Allocation, Attention,
    ProblemInstance, RunRecord, TirmOptions,
};
use tirm_graph::{DiGraph, NodeId};
use tirm_topics::{CtpTable, TopicDist, TopicEdgeProbs};

/// Configuration of an [`OnlineAllocator`].
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// TIRM options (ε, ℓ, base seed, threads, per-ad θ cap). The base
    /// seed is mixed with each ad's id into its per-ad streams. Nothing in
    /// them couples one ad's greedy trajectory to another's: only κ
    /// does.
    pub tirm: TirmOptions,
    /// Attention bound κ (uniform over users).
    pub kappa: u32,
    /// Seed-set size penalty λ.
    pub lambda: f64,
    /// Byte budget of the retained pool: departed ads' index shards are
    /// kept for re-arrival, parked (their RR sets without postings or
    /// set offsets), and the budget counts parked bytes; oldest evicted
    /// beyond it (0 keeps none).
    pub max_retained_bytes: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            tirm: TirmOptions::default(),
            kappa: 1,
            lambda: 0.0,
            max_retained_bytes: 256 << 20,
        }
    }
}

/// One live campaign: the advertiser data plus this ad's shard of the
/// sharded RR index (inside `warm`) and its standing seed set.
struct LiveAd {
    id: AdId,
    adv: Advertiser,
    /// Projected arc probabilities (computed once at arrival).
    probs: Vec<f32>,
    /// CTP column (materialised once at arrival).
    ctp_col: Vec<f32>,
    /// Id-derived RNG plan — stable across index churn.
    plan: AdSeeds,
    /// The ad's index shard + engines; `None` only before its first
    /// reconciliation.
    warm: Option<AdWarmState>,
    /// Standing seed set, selection order.
    seeds: Vec<NodeId>,
    /// The engine's revenue estimate `Π_i(S_i)` for the standing seeds.
    revenue_est: f64,
}

/// Lifetime counters of an allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Events processed (including rejected ones).
    pub events: usize,
    /// Reconciliations whose allocation leaves some user at their
    /// attention bound κ.
    pub full_reallocations: usize,
    /// Reconciliations whose allocation leaves every user below κ: no
    /// ad's choice was blocked by another's, so when the allocation
    /// before was contention-free too, no ad went live but the ones the
    /// batch changed. A function of the allocations, so a restored copy
    /// counts what the original did.
    pub delta_reallocations: usize,
    /// Fresh RR sets sampled (graph walks actually paid).
    pub fresh_rr_sets: usize,
    /// Shards reclaimed from the retained pool by re-arrivals.
    pub shard_reclaims: usize,
}

/// Long-lived event-stream allocator over a fixed graph and topic space.
pub struct OnlineAllocator<'g> {
    graph: &'g DiGraph,
    topic_probs: &'g TopicEdgeProbs,
    cfg: OnlineConfig,
    /// Live campaigns in arrival order — the ad-index order batch TIRM
    /// sees.
    live: Vec<LiveAd>,
    pool: RetainedPool,
    /// Campaign model changed since the standing allocation was computed.
    stale: bool,
    /// Every live ad's trajectory in the last run, minus the ads that
    /// have departed since; the next run replays it. A restored allocator
    /// starts without one. It never changes an allocation bit, only how
    /// much of the next run is live, so it is not counted in
    /// [`Self::memory_bytes`], which is a function of the standing state
    /// alone.
    record: Option<RunRecord>,
    /// Mutating events applied (arrivals, top-ups, departures and
    /// reallocates that returned `Ok`; queries and rejected events never
    /// bump it). Snapshots carry it as their lineage stamp.
    epoch: u64,
    stats: OnlineStats,
}

impl<'g> OnlineAllocator<'g> {
    /// A fresh allocator. `topic_probs` must cover the graph's arcs; ads
    /// arrive with topic distributions in its `K`-topic space.
    pub fn new(graph: &'g DiGraph, topic_probs: &'g TopicEdgeProbs, cfg: OnlineConfig) -> Self {
        assert_eq!(
            topic_probs.num_edges(),
            graph.num_edges(),
            "topic probabilities must cover the graph"
        );
        assert!(cfg.kappa >= 1, "attention bound must admit at least one ad");
        assert!(
            cfg.lambda.is_finite() && cfg.lambda >= 0.0,
            "seed-size penalty must be finite and non-negative"
        );
        let max_retained = cfg.max_retained_bytes;
        OnlineAllocator {
            graph,
            topic_probs,
            cfg,
            live: Vec::new(),
            pool: RetainedPool::new(max_retained),
            stale: false,
            record: None,
            epoch: 0,
            stats: OnlineStats::default(),
        }
    }

    /// Processes one event: [`Self::apply`] on a batch of one.
    pub fn process(&mut self, event: &OnlineEvent) -> Result<EventOutcome, OnlineError> {
        self.apply(std::slice::from_ref(event))
            .pop()
            .expect("apply answers every event")
    }

    /// Applies `events` in order and reconciles once for the whole
    /// batch. Each event is validated, rejected or applied to the
    /// campaign model, and bumps the epoch, exactly as it would alone;
    /// only the reconciliation is shared.
    ///
    /// The allocation is a pure function of the campaign model, so the
    /// state after the batch is bit-identical to processing its events
    /// one at a time; only the RR capital held along the way (θ, pool
    /// contents, `memory_bytes`) depends on where batches were cut. A
    /// `Reallocate` or `RegretQuery` inside the batch reconciles what
    /// came before it first, so it answers what per-event processing
    /// would. An applied event's outcome reports the reconciliation
    /// that covered it; that run's fresh RR sets are counted on the last
    /// event it covered.
    pub fn apply(&mut self, events: &[OnlineEvent]) -> Vec<Result<EventOutcome, OnlineError>> {
        let mut out = Vec::with_capacity(events.len());
        // Applied events the next reconciliation covers: their place in
        // `out` and when each started.
        let mut pending: Vec<(usize, Instant)> = Vec::new();
        for event in events {
            let t0 = Instant::now();
            self.stats.events += 1;
            let kind = event.kind();
            let mutated = match event {
                OnlineEvent::AdArrival {
                    id,
                    budget,
                    cpe,
                    topics,
                    ctp,
                } => self.arrive(*id, *budget, *cpe, topics, *ctp),
                OnlineEvent::BudgetTopUp { id, amount } => self.top_up(*id, *amount),
                OnlineEvent::AdDeparture { id } => self.depart(*id),
                OnlineEvent::Reallocate => Ok(()),
                OnlineEvent::RegretQuery => {
                    self.settle(&mut out, &mut pending);
                    out.push(Ok(EventOutcome {
                        kind,
                        reallocated: false,
                        fast_path: true,
                        regret: Some(self.regret_estimate()),
                        fresh_rr_sets: 0,
                    }));
                    record_apply_latency(kind, t0);
                    continue;
                }
            };
            if let Err(e) = mutated {
                out.push(Err(e));
                record_apply_latency(kind, t0);
                continue;
            }
            self.epoch += 1;
            out.push(Ok(EventOutcome {
                kind,
                // A departure withdraws its seeds at once, so the
                // standing allocation changed even when nothing needs
                // recomputing.
                reallocated: kind == EventKind::Departure,
                fast_path: true,
                regret: None,
                fresh_rr_sets: 0,
            }));
            pending.push((out.len() - 1, t0));
            if kind == EventKind::Reallocate {
                self.settle(&mut out, &mut pending);
            }
        }
        self.settle(&mut out, &mut pending);
        out
    }

    /// Reconciles on behalf of the `pending` events, reports the run on
    /// their outcomes and records their apply latency: from each event's
    /// start to the end of the run that covered it.
    fn settle(
        &mut self,
        out: &mut [Result<EventOutcome, OnlineError>],
        pending: &mut Vec<(usize, Instant)>,
    ) {
        let Some(&(last, _)) = pending.last() else {
            return;
        };
        let fresh_before = self.stats.fresh_rr_sets;
        let (reconciled, fast_path) = self.reconcile();
        for &(i, t0) in pending.iter() {
            let outcome = out[i].as_mut().expect("only applied events are pending");
            outcome.reallocated |= reconciled;
            outcome.fast_path = fast_path;
            if i == last {
                outcome.fresh_rr_sets = self.stats.fresh_rr_sets - fresh_before;
            }
            record_apply_latency(outcome.kind, t0);
        }
        pending.clear();
    }

    fn arrive(
        &mut self,
        id: AdId,
        budget: f64,
        cpe: f64,
        topics: &TopicDist,
        ctp: f32,
    ) -> Result<(), OnlineError> {
        if self.index_of(id).is_some() {
            return Err(OnlineError::DuplicateAd(id));
        }
        if !(budget.is_finite() && budget >= 0.0 && cpe.is_finite() && cpe > 0.0) {
            return Err(OnlineError::BadEvent(format!(
                "budget {budget} / cpe {cpe} out of domain"
            )));
        }
        if !(0.0..=1.0).contains(&ctp) {
            return Err(OnlineError::BadEvent(format!("ctp {ctp} outside [0, 1]")));
        }
        if topics.k() != self.topic_probs.k() {
            return Err(OnlineError::BadEvent(format!(
                "ad lives in a {}-topic space, host has {}",
                topics.k(),
                self.topic_probs.k()
            )));
        }
        let n = self.graph.num_nodes();
        let warm = self.pool.reclaim(id, topics);
        if warm.is_some() {
            self.stats.shard_reclaims += 1;
            tirm_obs::registry::POOL_RECLAIMS.inc();
        }
        self.live.push(LiveAd {
            id,
            adv: Advertiser::new(budget, cpe, topics.clone()),
            probs: self.topic_probs.project(topics),
            ctp_col: vec![ctp; n],
            plan: AdSeeds::for_ad_id(self.cfg.tirm.seed, id),
            warm,
            seeds: Vec::new(),
            revenue_est: 0.0,
        });
        self.stale = true;
        Ok(())
    }

    fn top_up(&mut self, id: AdId, amount: f64) -> Result<(), OnlineError> {
        if !(amount.is_finite() && amount >= 0.0) {
            return Err(OnlineError::BadEvent(format!(
                "top-up amount {amount} out of domain"
            )));
        }
        let i = self.index_of(id).ok_or(OnlineError::UnknownAd(id))?;
        let budget = self.live[i].adv.budget + amount;
        if !budget.is_finite() {
            return Err(OnlineError::BadEvent(format!(
                "top-up of {amount} takes ad {id}'s budget out of domain"
            )));
        }
        self.live[i].adv.budget = budget;
        self.stale = true;
        Ok(())
    }

    fn depart(&mut self, id: AdId) -> Result<(), OnlineError> {
        let i = self.index_of(id).ok_or(OnlineError::UnknownAd(id))?;
        let ad = self.live.remove(i);
        if let Some(record) = &mut self.record {
            record.forget(ad.plan);
        }
        if let Some(state) = ad.warm {
            self.pool.release(id, ad.adv.topics.clone(), state.park());
        }
        self.stale = true;
        Ok(())
    }

    fn index_of(&self, id: AdId) -> Option<usize> {
        self.live.iter().position(|a| a.id == id)
    }

    /// Brings the standing allocation back in sync with the campaign
    /// model. Returns `(reallocated, fast_path)`.
    fn reconcile(&mut self) -> (bool, bool) {
        if !self.stale {
            return (false, true);
        }
        let fast_path = self.live.is_empty() || self.run();
        self.stale = false;
        if fast_path {
            self.stats.delta_reallocations += 1;
            tirm_obs::registry::DELTA_RECONCILIATIONS.inc();
        } else {
            self.stats.full_reallocations += 1;
            tirm_obs::registry::FULL_RECONCILIATIONS.inc();
        }
        (true, fast_path)
    }

    /// Warm TIRM over all live ads, replaying the last run's record and
    /// leaving its own, with seeds and revenue estimates written back.
    /// Returns whether the allocation leaves every user below κ.
    fn run(&mut self) -> bool {
        let h = self.live.len();
        let mut ads = Vec::with_capacity(h);
        let mut probs = Vec::with_capacity(h);
        let mut ctp_cols = Vec::with_capacity(h);
        let mut plan = Vec::with_capacity(h);
        let mut warm = Vec::with_capacity(h);
        for ad in &mut self.live {
            ads.push(ad.adv.clone());
            probs.push(std::mem::take(&mut ad.probs));
            ctp_cols.push(std::mem::take(&mut ad.ctp_col));
            plan.push(ad.plan);
            warm.push(ad.warm.take());
        }
        let fresh_before = warm_sets(&warm);
        let problem = ProblemInstance::new(
            self.graph,
            ads,
            probs,
            CtpTable::direct(ctp_cols),
            Attention::Uniform(self.cfg.kappa),
            self.cfg.lambda,
        );
        let run = tirm_allocate_resumable(&problem, self.cfg.tirm, &plan, warm, self.record.take());
        if let Some(replayed) = run.replayed {
            tirm_obs::registry::RESUMED_RECONCILIATIONS.inc();
            tirm_obs::registry::RESUME_SKIPPED_STEPS.record(replayed as u64);
        }
        self.record = run.record;
        self.restitute(problem, run.warm);
        let mut fresh_after = 0usize;
        for (i, ad) in self.live.iter_mut().enumerate() {
            ad.seeds = run.alloc.seeds(i).to_vec();
            ad.revenue_est = run.stats.estimated_revenue[i];
            fresh_after += ad.warm.as_ref().map(|w| w.num_sets()).unwrap_or(0);
        }
        self.stats.fresh_rr_sets += fresh_after - fresh_before;
        let kappa = self.cfg.kappa;
        let alloc = &run.alloc;
        !alloc
            .seed_sets()
            .iter()
            .flatten()
            .any(|&v| alloc.assigned_count(v) >= kappa)
    }

    /// Hands a transient problem's borrowed capital (projected probs, CTP
    /// columns) and the updated warm states back to the live ads
    /// (problem ad order == live order).
    fn restitute(&mut self, problem: ProblemInstance<'g>, warm_out: Vec<AdWarmState>) {
        let edge_probs = problem.edge_probs;
        let ctp_cols = problem.ctp.into_columns();
        for (((ad, probs), col), warm) in self
            .live
            .iter_mut()
            .zip(edge_probs)
            .zip(ctp_cols)
            .zip(warm_out)
        {
            ad.probs = probs;
            ad.ctp_col = col;
            ad.warm = Some(warm);
        }
    }

    /// The standing allocation over the live ads, arrival order — the
    /// object the `replay ≡ batch` anchor compares.
    pub fn allocation(&self) -> Allocation {
        let mut alloc = Allocation::empty(self.live.len(), self.graph.num_nodes());
        for (i, ad) in self.live.iter().enumerate() {
            for &v in &ad.seeds {
                alloc.assign(v, i);
            }
        }
        alloc
    }

    /// Extracts the standing allocation as a cheap immutable view: the
    /// live ads in arrival order with their budgets, seed sets and
    /// revenue estimates, stamped with the current [`Self::epoch`].
    /// O(live ads + Σ|S_i|) — no RR capital is copied — and the result
    /// owns all its data, so it can cross threads behind the `Arc` while
    /// the allocator keeps mutating. This is what the serving frontend
    /// publishes after every applied batch and what
    /// `online_replay --dump-final` writes.
    pub fn snapshot(&self) -> Arc<AllocationSnapshot> {
        Arc::new(AllocationSnapshot {
            epoch: self.epoch,
            kappa: self.cfg.kappa,
            lambda: self.cfg.lambda,
            ads: self
                .live
                .iter()
                .map(|a| AdSnapshot {
                    id: a.id,
                    budget: a.adv.budget,
                    cpe: a.adv.cpe,
                    seeds: a.seeds.clone(),
                    revenue_est: a.revenue_est,
                })
                .collect(),
            regret_estimate: self.regret_estimate(),
            total_rr_sets: self.total_rr_sets(),
            engine_memory_bytes: self.memory_bytes(),
            stats: self.stats,
        })
    }

    /// Mutating events applied so far (the lineage stamp snapshots carry).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live ad ids in arrival order.
    pub fn live_ids(&self) -> Vec<AdId> {
        self.live.iter().map(|a| a.id).collect()
    }

    /// Number of live campaigns.
    pub fn num_live(&self) -> usize {
        self.live.len()
    }

    /// The engine's regret estimate of the standing allocation:
    /// `Σ_i |B_i − Π̂_i| + λ|S_i|` over live ads, from the per-ad revenue
    /// estimates of the last reconciliation.
    pub fn regret_estimate(&self) -> f64 {
        self.live
            .iter()
            .map(|a| ad_regret(a.adv.budget, a.revenue_est, self.cfg.lambda, a.seeds.len()))
            .sum()
    }

    /// Engine-estimated revenue of ad `id`'s standing seed set.
    pub fn revenue_estimate(&self, id: AdId) -> Option<f64> {
        self.index_of(id).map(|i| self.live[i].revenue_est)
    }

    /// Total RR sets held across all live shards (θ summed over ads).
    pub fn total_rr_sets(&self) -> usize {
        self.live
            .iter()
            .map(|a| a.warm.as_ref().map(|w| w.num_sets()).unwrap_or(0))
            .sum()
    }

    /// Exact bytes of the sharded index and its satellite capital: live
    /// shards, retained pool, projected probabilities and CTP columns.
    pub fn memory_bytes(&self) -> usize {
        let live: usize = self
            .live
            .iter()
            .map(|a| {
                a.warm.as_ref().map(|w| w.memory_bytes()).unwrap_or(0)
                    + a.probs.capacity() * 4
                    + a.ctp_col.capacity() * 4
            })
            .sum();
        live + self.pool.memory_bytes()
    }

    /// Shards currently parked in the retained pool.
    pub fn pooled_shards(&self) -> usize {
        self.pool.len()
    }

    /// Bytes the retained pool holds, parked (part of
    /// [`Self::memory_bytes`]).
    pub fn pool_bytes(&self) -> usize {
        self.pool.memory_bytes()
    }

    /// Shards evicted from the retained pool under budget pressure.
    pub fn pool_evictions(&self) -> usize {
        self.pool.evictions()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// The configuration the allocator runs under.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }
}

/// Times one event's apply into the per-kind registry histogram.
/// Write-only: no outcome depends on it. The exemplar links the slowest
/// apply to the writer's current lineage trace (0 outside a serving
/// writer, recorded plainly).
fn record_apply_latency(kind: EventKind, t0: Instant) {
    if let Some(h) = tirm_obs::registry::apply_latency_for(kind.name()) {
        h.record_traced(
            t0.elapsed().as_nanos() as u64,
            tirm_obs::flight::current_trace(),
        );
    }
}

/// Sets cached across a warm-state vector (`None` ⇒ 0).
fn warm_sets(warm: &[Option<AdWarmState>]) -> usize {
    warm.iter()
        .map(|w| w.as_ref().map(|s| s.num_sets()).unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tirm_graph::generators;
    use tirm_topics::genprob;

    fn quick_opts(seed: u64) -> TirmOptions {
        TirmOptions {
            eps: 0.2,
            seed,
            max_theta_per_ad: Some(20_000),
            ..TirmOptions::default()
        }
    }

    fn setup() -> (DiGraph, TopicEdgeProbs) {
        let g = generators::preferential_attachment(300, 4, 0.3, 11);
        let probs = genprob::replicate_across_topics(&vec![0.08f32; g.num_edges()], 2);
        (g, probs)
    }

    fn arrival(id: AdId, budget: f64, topic: usize) -> OnlineEvent {
        OnlineEvent::AdArrival {
            id,
            budget,
            cpe: 1.0,
            topics: TopicDist::single(2, topic),
            ctp: 0.5,
        }
    }

    fn allocator<'g>(g: &'g DiGraph, probs: &'g TopicEdgeProbs, kappa: u32) -> OnlineAllocator<'g> {
        OnlineAllocator::new(
            g,
            probs,
            OnlineConfig {
                tirm: quick_opts(5),
                kappa,
                ..OnlineConfig::default()
            },
        )
    }

    #[test]
    fn arrival_allocates_and_queries_report() {
        let (g, probs) = setup();
        let mut a = allocator(&g, &probs, 2);
        let out = a.process(&arrival(1, 8.0, 0)).unwrap();
        assert!(out.reallocated);
        assert_eq!(a.num_live(), 1);
        assert!(a.allocation().total_seeds() > 0);
        assert!(a.total_rr_sets() > 0);
        assert!(a.memory_bytes() > 0);
        let q = a.process(&OnlineEvent::RegretQuery).unwrap();
        assert!(q.regret.is_some());
        assert!(!q.reallocated);
    }

    #[test]
    fn duplicate_and_unknown_ids_are_rejected() {
        let (g, probs) = setup();
        let mut a = allocator(&g, &probs, 2);
        a.process(&arrival(1, 5.0, 0)).unwrap();
        assert_eq!(
            a.process(&arrival(1, 5.0, 0)),
            Err(OnlineError::DuplicateAd(1))
        );
        assert_eq!(
            a.process(&OnlineEvent::BudgetTopUp { id: 9, amount: 1.0 }),
            Err(OnlineError::UnknownAd(9))
        );
        assert_eq!(
            a.process(&OnlineEvent::AdDeparture { id: 9 }),
            Err(OnlineError::UnknownAd(9))
        );
        // Malformed payloads.
        assert!(matches!(
            a.process(&OnlineEvent::AdArrival {
                id: 2,
                budget: -1.0,
                cpe: 1.0,
                topics: TopicDist::single(2, 0),
                ctp: 0.5
            }),
            Err(OnlineError::BadEvent(_))
        ));
        assert!(matches!(
            a.process(&OnlineEvent::AdArrival {
                id: 2,
                budget: 1.0,
                cpe: 1.0,
                topics: TopicDist::single(3, 0),
                ctp: 0.5
            }),
            Err(OnlineError::BadEvent(_))
        ));
    }

    #[test]
    fn departure_releases_shard_and_rearrival_reclaims_without_sampling() {
        let (g, probs) = setup();
        let mut a = allocator(&g, &probs, 2);
        let out = a.process(&arrival(1, 8.0, 0)).unwrap();
        assert!(out.fresh_rr_sets > 0, "cold arrival samples");
        let cached = a.total_rr_sets();
        a.process(&OnlineEvent::AdDeparture { id: 1 }).unwrap();
        assert_eq!(a.num_live(), 0);
        assert_eq!(a.pooled_shards(), 1, "shard released to the pool");
        assert_eq!(a.allocation().total_seeds(), 0);

        // Same id + topics: the shard is reclaimed; re-allocating serves
        // everything from the postings lists — zero fresh samples.
        let out = a.process(&arrival(1, 8.0, 0)).unwrap();
        assert_eq!(out.fresh_rr_sets, 0, "warm re-arrival must not sample");
        assert_eq!(a.pooled_shards(), 0);
        assert_eq!(a.total_rr_sets(), cached);
        assert_eq!(a.stats().shard_reclaims, 1);
        assert!(a.allocation().total_seeds() > 0);
    }

    #[test]
    fn a_departed_shard_is_counted_parked_and_comes_back_whole() {
        let (g, probs) = setup();
        let mut a = allocator(&g, &probs, 2);
        a.process(&arrival(1, 8.0, 0)).unwrap();
        let shard = |a: &OnlineAllocator<'_>| a.live[0].warm.as_ref().unwrap().memory_bytes();
        let (live, total) = (shard(&a), a.memory_bytes());
        let index = a.live[0].warm.as_ref().unwrap().index();
        let (postings, offsets) = (index.postings_bytes(), index.offsets_bytes());
        a.process(&OnlineEvent::AdDeparture { id: 1 }).unwrap();
        let parked = a.pool.entries().map(|e| e.state.memory_bytes()).sum();
        assert_eq!(a.memory_bytes(), parked, "the pool counts the parked size");
        // Parked: without postings, the set offsets coded as a boundary
        // stream.
        let boundary: usize = a
            .pool
            .entries()
            .map(|e| e.state.sets().boundary_bytes())
            .sum();
        assert_eq!(parked, live - postings - offsets + boundary);
        assert!(
            boundary < offsets,
            "{boundary} boundary bytes for {offsets}"
        );

        a.process(&arrival(1, 8.0, 0)).unwrap();
        assert_eq!(a.stats().shard_reclaims, 1);
        assert_eq!(shard(&a), live, "reclaimed, the shard weighs what it did");
        assert_eq!(a.memory_bytes(), total);
    }

    #[test]
    fn rearrival_with_new_topics_invalidates_shard() {
        let (g, probs) = setup();
        let mut a = allocator(&g, &probs, 2);
        a.process(&arrival(1, 8.0, 0)).unwrap();
        a.process(&OnlineEvent::AdDeparture { id: 1 }).unwrap();
        let out = a.process(&arrival(1, 8.0, 1)).unwrap();
        assert!(
            out.fresh_rr_sets > 0,
            "changed topic distribution must resample"
        );
        assert_eq!(a.stats().shard_reclaims, 0);
    }

    #[test]
    fn zero_retained_budget_drops_shards() {
        let (g, probs) = setup();
        let mut a = OnlineAllocator::new(
            &g,
            &probs,
            OnlineConfig {
                tirm: quick_opts(5),
                kappa: 2,
                max_retained_bytes: 0,
                ..OnlineConfig::default()
            },
        );
        a.process(&arrival(1, 8.0, 0)).unwrap();
        a.process(&OnlineEvent::AdDeparture { id: 1 }).unwrap();
        assert_eq!(a.pooled_shards(), 0);
    }

    #[test]
    fn topup_changes_allocation_only_for_that_ad_when_clean() {
        let (g, probs) = setup();
        let mut a = allocator(&g, &probs, 3);
        a.process(&arrival(1, 6.0, 0)).unwrap();
        a.process(&arrival(2, 6.0, 1)).unwrap();
        let before_1 = a.allocation().seeds(0).to_vec();
        let out = a
            .process(&OnlineEvent::BudgetTopUp { id: 2, amount: 4.0 })
            .unwrap();
        assert!(out.reallocated);
        assert_eq!(
            a.allocation().seeds(0),
            &before_1[..],
            "clean top-up must not disturb the other ad"
        );
    }

    #[test]
    fn a_top_up_cannot_make_a_budget_infinite() {
        // Each amount is finite, the sum is not: refused, and the budget
        // stays what it was, so the snapshot and a checkpoint still hold
        // a finite one.
        let (g, probs) = setup();
        let cfg = OnlineConfig {
            tirm: quick_opts(5),
            ..OnlineConfig::default()
        };
        let mut a = OnlineAllocator::new(&g, &probs, cfg.clone());
        a.process(&arrival(1, 1e308, 0)).unwrap();
        let overflow = OnlineEvent::BudgetTopUp {
            id: 1,
            amount: 1e308,
        };
        assert!(matches!(
            a.process(&overflow),
            Err(OnlineError::BadEvent(_))
        ));
        assert_eq!(a.epoch(), 1, "a refused top-up is not applied");
        assert_eq!(a.snapshot().ad(1).unwrap().budget, 1e308);
        let mut image = Vec::new();
        a.checkpoint(1, &mut image).unwrap();
        assert!(OnlineAllocator::restore(&g, &probs, cfg, &mut image.as_slice()).is_ok());
    }

    #[test]
    fn allocator_is_send() {
        // The serving frontend moves the allocator into a writer thread
        // (std::thread::scope); this pins the Send plumbing at compile
        // time — a non-Send field would break the whole frontend.
        fn assert_send<T: Send>() {}
        assert_send::<OnlineAllocator<'static>>();
        assert_send::<crate::AllocationSnapshot>();
    }

    #[test]
    fn snapshot_tracks_epoch_and_allocation() {
        let (g, probs) = setup();
        let mut a = allocator(&g, &probs, 2);
        let s0 = a.snapshot();
        assert_eq!(s0.epoch, 0);
        assert_eq!(s0.num_ads(), 0);
        assert_eq!(s0.total_seeds(), 0);

        a.process(&arrival(1, 8.0, 0)).unwrap();
        let s1 = a.snapshot();
        assert_eq!(s1.epoch, 1);
        assert_eq!(a.epoch(), 1);
        assert_eq!(s1.num_ads(), 1);
        assert_eq!(s1.ad(1).unwrap().seeds, a.allocation().seeds(0));
        assert_eq!(
            s1.ad(1).unwrap().revenue_est.to_bits(),
            a.revenue_estimate(1).unwrap().to_bits()
        );
        assert_eq!(s1.regret_estimate.to_bits(), a.regret_estimate().to_bits());
        assert_eq!(s1.total_rr_sets, a.total_rr_sets());
        assert_eq!(s1.engine_memory_bytes, a.memory_bytes());
        assert!(s1.memory_bytes() > 0, "exact snapshot accounting");

        // Queries never bump the epoch; rejected events don't either.
        a.process(&OnlineEvent::RegretQuery).unwrap();
        assert!(a.process(&arrival(1, 8.0, 0)).is_err());
        assert_eq!(a.epoch(), 1);

        // Snapshots are detached: further mutation leaves s1 untouched.
        a.process(&OnlineEvent::BudgetTopUp { id: 1, amount: 4.0 })
            .unwrap();
        assert_eq!(a.epoch(), 2);
        assert_eq!(s1.epoch, 1);
        assert_eq!(s1.ad(1).unwrap().budget, 8.0);
        let s2 = a.snapshot();
        assert_eq!(s2.ad(1).unwrap().budget, 12.0);
        assert!(!s1.same_allocation(&s2));
        assert!(s2.same_allocation(&a.snapshot()));
    }

    #[test]
    fn empty_allocator_is_well_behaved() {
        let (g, probs) = setup();
        let mut a = allocator(&g, &probs, 1);
        assert_eq!(a.regret_estimate(), 0.0);
        assert_eq!(a.allocation().num_ads(), 0);
        let out = a.process(&OnlineEvent::Reallocate).unwrap();
        assert!(!out.reallocated);
        assert_eq!(a.revenue_estimate(3), None);
    }
}
