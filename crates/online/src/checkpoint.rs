//! Durable checkpoints of an [`OnlineAllocator`].
//!
//! A checkpoint is the **campaign model** — live ads with their budgets
//! and standing seed sets, the retained pool's release order, the lifetime
//! counters — plus, for every index shard (a live ad's or a pool
//! entry's), its [`WarmCounts`]: RR sets held, KPT samples held, θ₀ and
//! the sum of the set sizes. It is tagged with the WAL sequence number it
//! covers and framed through the checksummed word-stream container of
//! [`tirm_graph::snapshot`]. Kilobytes, whatever the shards weigh.
//!
//! The RR sets are not in it: a shard is a pure function of `(graph,
//! projected probabilities, seed plan, threads, θ count, KPT count)`.
//! `restore` re-runs each shard's two id-derived streams from their seeds
//! ([`ParkedWarmState::regenerate`]) and gets back the shard the
//! checkpointed allocator held, parked and `memory_bytes` included. A live
//! ad's shard is unparked; a pooled one goes back to the pool as it is,
//! its postings never placed. So the restored allocator **continues the
//! same RNG streams**, evicts from its pool in the same order, and
//! replaying the WAL tail after a crash produces allocations
//! and revenue estimates bit-identical to the uninterrupted run. Writing
//! a checkpoint costs the model and nothing else; a restore, once per
//! process life, pays the graph walks of the sets it redraws.
//!
//! The configuration the checkpoint was written under is echoed into the
//! payload and re-validated on restore — a checkpoint restored into an
//! allocator with a different seed, thread count, ε/ℓ schedule or
//! attention bound would silently diverge from the log it is supposed to
//! anchor, so it errors instead ([`SnapshotError::ConfigMismatch`], naming
//! the field). The host data is echoed by shape (a mismatch there is the
//! same error) and, per shard, by the set-size sum, which sets redrawn
//! over another graph or other probabilities of that shape do not reach.
//!
//! A payload's counts buy CPU and memory, so nothing is drawn before the
//! whole payload has been read and its model validated, and no shard
//! before its own counts are within what the configuration allows.
//!
//! This is a child module of [`allocator`](super) so it can reach private
//! capital (live-ad shards, pool entries) without widening the
//! allocator's public mutation surface.

use super::{LiveAd, OnlineAllocator, OnlineConfig, OnlineStats};
use crate::events::AdId;
use std::collections::HashSet;
use std::io::{Read, Write};
use tirm_core::{AdSeeds, Advertiser, ParkedWarmState, WarmCounts};
use tirm_graph::snapshot::{read_words_stream, write_words_stream, SnapshotError};
use tirm_graph::{DiGraph, NodeId};
use tirm_obs::registry::{RESTORE_REGENERATE_NS, RESTORE_SETS_REGENERATED};
use tirm_topics::{TopicDist, TopicEdgeProbs};

/// Magic prefix of allocator checkpoint streams.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"TIRMCKPT";
/// Version of the checkpoint payload layout. Version 1 carried every
/// shard's arrays word for word; version 2 echoed a global seed cap that
/// no longer exists; version 3 carried a contention flag and the ads
/// still to recompute, which one reconcile path no longer keeps. A file
/// of any of them is refused as [`SnapshotError::UnsupportedVersion`] and
/// recovery falls back to an older checkpoint or the log.
pub const CHECKPOINT_VERSION: u32 = 4;

impl<'g> OnlineAllocator<'g> {
    /// Writes the campaign model and every shard's counts to `w`,
    /// tagged with the WAL sequence number `wal_seq` (the count of
    /// admitted mutations the checkpoint covers; restart replays the log
    /// from there). Nothing is mutated; `&mut self` is the signature the
    /// commit path, which holds the allocator exclusively, has always
    /// called.
    pub fn checkpoint<W: Write>(&mut self, wal_seq: u64, w: &mut W) -> std::io::Result<()> {
        let payload = encode(self, wal_seq);
        write_words_stream(w, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &payload)
    }

    /// Rebuilds an allocator from a checkpoint stream, returning it with
    /// the WAL sequence number the checkpoint covers. `cfg` must match
    /// the configuration the checkpoint was written under (validated
    /// against the payload's echo); `graph` and `topic_probs` must be the
    /// same host data, checked by shape and by what the shards redrawn
    /// over them add up to.
    pub fn restore<R: Read>(
        graph: &'g DiGraph,
        topic_probs: &'g TopicEdgeProbs,
        cfg: OnlineConfig,
        r: &mut R,
    ) -> Result<(Self, u64), SnapshotError> {
        let words = read_words_stream(r, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        decode(graph, topic_probs, cfg, &words)
    }
}

fn malformed(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(msg.into())
}

/// Little-endian word-granular encoder (the payload unit of
/// [`write_words_stream`]).
#[derive(Default)]
struct WordWriter {
    words: Vec<u32>,
}

impl WordWriter {
    fn u32(&mut self, v: u32) {
        self.words.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.u32(v as u32);
        self.u32((v >> 32) as u32);
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u32(v as u32);
    }
    fn opt_usize(&mut self, v: Option<usize>) {
        self.bool(v.is_some());
        self.usize(v.unwrap_or(0));
    }
    fn u32s(&mut self, v: &[u32]) {
        self.usize(v.len());
        self.words.extend_from_slice(v);
    }
    fn f32s(&mut self, v: &[f32]) {
        self.usize(v.len());
        for &x in v {
            self.f32(x);
        }
    }
}

/// Cursor over a decoded word payload. Underflow (a field extending past
/// the payload) is a structural error — the checksum already passed, so
/// it means a logic-level layout mismatch, reported as such.
struct WordReader<'a> {
    words: &'a [u32],
    pos: usize,
}

impl<'a> WordReader<'a> {
    fn new(words: &'a [u32]) -> Self {
        WordReader { words, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let v = *self.words.get(self.pos).ok_or_else(|| {
            malformed(format!("checkpoint payload underflow at word {}", self.pos))
        })?;
        self.pos += 1;
        Ok(v)
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let lo = self.u32()? as u64;
        let hi = self.u32()? as u64;
        Ok(lo | (hi << 32))
    }
    fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| malformed(format!("count {v} exceeds this host's usize")))
    }
    /// A length prefix about to gate an allocation: bounded by the words
    /// still unread (each element needs ≥ `elem_words` of them), so a
    /// corrupt length cannot commit absurd memory.
    fn len(&mut self, elem_words: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n.checked_mul(elem_words)
            .is_none_or(|w| w > self.remaining())
        {
            return Err(malformed(format!(
                "length {n} inconsistent with {} unread payload words",
                self.remaining()
            )));
        }
        Ok(n)
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(malformed(format!("boolean word holds {v}"))),
        }
    }
    fn opt_usize(&mut self) -> Result<Option<usize>, SnapshotError> {
        let some = self.bool()?;
        let v = self.usize()?;
        Ok(some.then_some(v))
    }
    fn u32s(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.len(1)?;
        let out = self.words[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(out)
    }
    fn f32s(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let n = self.len(1)?;
        (0..n).map(|_| self.f32()).collect()
    }
    fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos != self.words.len() {
            return Err(malformed(format!(
                "{} trailing words after the checkpoint payload",
                self.words.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_shard(w: &mut WordWriter, counts: WarmCounts) {
    w.usize(counts.theta);
    w.usize(counts.kpt_samples);
    w.usize(counts.theta0);
    w.usize(counts.total_entries);
}

fn get_shard(r: &mut WordReader<'_>) -> Result<WarmCounts, SnapshotError> {
    Ok(WarmCounts {
        theta: r.usize()?,
        kpt_samples: r.usize()?,
        theta0: r.usize()?,
        total_entries: r.usize()?,
    })
}

fn encode(a: &OnlineAllocator<'_>, wal_seq: u64) -> Vec<u32> {
    let mut w = WordWriter::default();
    w.u64(wal_seq);
    // Configuration echo — everything the replayed results depend on.
    w.u32(a.cfg.kappa);
    w.f64(a.cfg.lambda);
    w.u64(a.cfg.tirm.seed);
    w.usize(a.cfg.tirm.threads);
    w.f64(a.cfg.tirm.eps);
    w.f64(a.cfg.tirm.ell);
    w.opt_usize(a.cfg.tirm.max_theta_per_ad);
    w.bool(a.cfg.tirm.exact_drop_selection);
    w.bool(a.cfg.tirm.hard_cover);
    // Host shape echo.
    w.usize(a.graph.num_nodes());
    w.usize(a.graph.num_edges());
    w.usize(a.topic_probs.k());
    // Dynamic state.
    w.u64(a.epoch);
    w.bool(a.stale);
    w.usize(a.stats.events);
    w.usize(a.stats.full_reallocations);
    w.usize(a.stats.delta_reallocations);
    w.usize(a.stats.fresh_rr_sets);
    w.usize(a.stats.shard_reclaims);
    // Live campaigns, arrival order.
    w.usize(a.live.len());
    for ad in &a.live {
        w.u64(ad.id);
        w.f64(ad.adv.budget);
        w.f64(ad.adv.cpe);
        w.f32s(ad.adv.topics.weights());
        // The CTP column is uniform by construction (materialised as
        // `vec![ctp; n]` at arrival) — one scalar restores it.
        w.f32(ad.ctp_col.first().copied().unwrap_or(0.0));
        w.u32s(&ad.seeds);
        w.f64(ad.revenue_est);
        w.bool(ad.warm.is_some());
        if let Some(shard) = &ad.warm {
            put_shard(&mut w, shard.counts());
        }
    }
    // Retained pool, release order.
    w.usize(a.pool.evictions());
    w.usize(a.pool.len());
    for entry in a.pool.entries() {
        w.u64(entry.id);
        w.f32s(entry.topics.weights());
        put_shard(&mut w, entry.state.counts());
    }
    w.words
}

/// Compares a restore-side configuration value against the checkpoint's
/// echo, bitwise for floats.
fn check<T: PartialEq + std::fmt::Debug>(
    field: &'static str,
    ours: T,
    theirs: T,
) -> Result<(), SnapshotError> {
    if ours != theirs {
        return Err(SnapshotError::ConfigMismatch {
            field,
            theirs: format!("{theirs:?}"),
            ours: format!("{ours:?}"),
        });
    }
    Ok(())
}

/// A checkpointed topic distribution, in the host's topic space.
fn get_topics(r: &mut WordReader<'_>, id: AdId, k: usize) -> Result<TopicDist, SnapshotError> {
    let topics = TopicDist::new(r.f32s()?)
        .map_err(|e| malformed(format!("ad {id} topic distribution: {e}")))?;
    if topics.k() != k {
        return Err(malformed(format!(
            "ad {id} has {} topics, the payload's host has {k}",
            topics.k()
        )));
    }
    Ok(topics)
}

fn decode<'g>(
    graph: &'g DiGraph,
    topic_probs: &'g TopicEdgeProbs,
    cfg: OnlineConfig,
    words: &[u32],
) -> Result<(OnlineAllocator<'g>, u64), SnapshotError> {
    let r = &mut WordReader::new(words);
    let wal_seq = r.u64()?;
    check("kappa", cfg.kappa, r.u32()?)?;
    check("lambda", cfg.lambda.to_bits(), r.f64()?.to_bits())?;
    check("tirm.seed", cfg.tirm.seed, r.u64()?)?;
    check("tirm.threads", cfg.tirm.threads, r.usize()?)?;
    check("tirm.eps", cfg.tirm.eps.to_bits(), r.f64()?.to_bits())?;
    check("tirm.ell", cfg.tirm.ell.to_bits(), r.f64()?.to_bits())?;
    check(
        "tirm.max_theta_per_ad",
        cfg.tirm.max_theta_per_ad,
        r.opt_usize()?,
    )?;
    check(
        "tirm.exact_drop_selection",
        cfg.tirm.exact_drop_selection,
        r.bool()?,
    )?;
    check("tirm.hard_cover", cfg.tirm.hard_cover, r.bool()?)?;
    check("graph nodes", graph.num_nodes(), r.usize()?)?;
    check("graph edges", graph.num_edges(), r.usize()?)?;
    check("topic count", topic_probs.k(), r.usize()?)?;

    let n = graph.num_nodes();
    let mut a = OnlineAllocator::new(graph, topic_probs, cfg);
    a.epoch = r.u64()?;
    a.stale = r.bool()?;
    a.stats = OnlineStats {
        events: r.usize()?,
        full_reallocations: r.usize()?,
        delta_reallocations: r.usize()?,
        fresh_rr_sets: r.usize()?,
        shard_reclaims: r.usize()?,
    };

    // First the whole payload is read and the model checked; shards are
    // only noted. Drawing starts once nothing is left to refuse.
    let num_live = r.len(8)?;
    let mut live_shards = Vec::with_capacity(num_live);
    let mut ids = HashSet::new();
    for _ in 0..num_live {
        let id: AdId = r.u64()?;
        let budget = r.f64()?;
        let cpe = r.f64()?;
        let topics = get_topics(r, id, topic_probs.k())?;
        let ctp = r.f32()?;
        let seeds: Vec<NodeId> = r.u32s()?;
        let revenue_est = r.f64()?;
        live_shards.push(if r.bool()? { Some(get_shard(r)?) } else { None });

        if !ids.insert(id) {
            return Err(malformed(format!("ad {id} appears twice among live ads")));
        }
        let in_domain = budget.is_finite() && budget >= 0.0 && cpe.is_finite() && cpe > 0.0;
        if !(in_domain && (0.0..=1.0).contains(&ctp) && revenue_est.is_finite()) {
            return Err(malformed(format!(
                "ad {id}: budget {budget}, cpe {cpe}, ctp {ctp} or revenue estimate \
                 {revenue_est} out of domain"
            )));
        }
        let mut seeded = HashSet::new();
        if let Some(v) = seeds
            .iter()
            .find(|&&v| v as usize >= n || !seeded.insert(v))
        {
            return Err(malformed(format!(
                "ad {id} seed node {v} outside the graph or seeded twice"
            )));
        }
        a.live.push(LiveAd {
            id,
            adv: Advertiser::new(budget, cpe, topics.clone()),
            probs: topic_probs.project(&topics),
            ctp_col: vec![ctp; n],
            plan: AdSeeds::for_ad_id(a.cfg.tirm.seed, id),
            warm: None,
            seeds,
            revenue_est,
        });
    }

    let evictions = r.usize()?;
    let num_pooled = r.len(8)?;
    let mut pooled = Vec::with_capacity(num_pooled);
    ids.clear();
    for _ in 0..num_pooled {
        let id: AdId = r.u64()?;
        let topics = get_topics(r, id, topic_probs.k())?;
        if !ids.insert(id) {
            return Err(malformed(format!("ad {id} appears twice in the pool")));
        }
        pooled.push((id, topics, get_shard(r)?));
    }
    r.finish()?;

    let t0 = std::time::Instant::now();
    for (ad, counts) in a.live.iter_mut().zip(live_shards) {
        if let Some(counts) = counts {
            ad.warm = Some(regenerate(graph, &ad.probs, &a.cfg, ad.id, counts)?.unpark());
        }
    }
    for (id, topics, counts) in pooled {
        let probs = topic_probs.project(&topics);
        let state = regenerate(graph, &probs, &a.cfg, id, counts)?;
        // Redrawn parked and re-released through the normal path: the
        // shard weighs what the held one did, so the pool trims — if the
        // budget is tighter than the one the checkpoint was written
        // under — exactly as a release would.
        a.pool.release(id, topics, state);
    }
    a.pool.set_evictions(evictions);
    RESTORE_REGENERATE_NS.record_duration(t0.elapsed());
    Ok((a, wal_seq))
}

/// Redraws ad `id`'s shard from its checkpointed counts, parked.
fn regenerate(
    graph: &DiGraph,
    probs: &[f32],
    cfg: &OnlineConfig,
    id: AdId,
    counts: WarmCounts,
) -> Result<ParkedWarmState, SnapshotError> {
    let plan = AdSeeds::for_ad_id(cfg.tirm.seed, id);
    let shard = ParkedWarmState::regenerate(graph, probs, &cfg.tirm, plan, counts)
        .map_err(|e| malformed(format!("ad {id}: {e}")))?;
    RESTORE_SETS_REGENERATED.add((counts.theta + counts.kpt_samples) as u64);
    Ok(shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::OnlineEvent;
    use tirm_core::TirmOptions;
    use tirm_graph::generators;
    use tirm_topics::genprob;

    fn setup() -> (DiGraph, TopicEdgeProbs) {
        let g = generators::preferential_attachment(250, 4, 0.3, 13);
        let probs = genprob::replicate_across_topics(&vec![0.08f32; g.num_edges()], 2);
        (g, probs)
    }

    fn cfg() -> OnlineConfig {
        OnlineConfig {
            tirm: TirmOptions {
                eps: 0.2,
                seed: 7,
                max_theta_per_ad: Some(20_000),
                ..TirmOptions::default()
            },
            kappa: 2,
            ..OnlineConfig::default()
        }
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

    /// Round-trips an allocator through a checkpoint and proves the
    /// restored copy (a) carries the identical allocation, (b) weighs
    /// what the original weighs, to the byte — the pool evicts on that
    /// number — and (c) keeps producing **bit-identical** results on
    /// further events — the RNG streams resume exactly where the
    /// original's stand.
    #[test]
    fn checkpoint_restore_is_bit_identical_and_resumes_streams() {
        let (g, probs) = setup();
        let mut a = OnlineAllocator::new(&g, &probs, cfg());
        a.process(&arrival(1, 8.0, 0)).unwrap();
        a.process(&arrival(2, 6.0, 1)).unwrap();
        a.process(&OnlineEvent::AdDeparture { id: 1 }).unwrap();
        a.process(&arrival(3, 5.0, 0)).unwrap();

        let mut buf = Vec::new();
        a.checkpoint(42, &mut buf).unwrap();
        let (mut b, wal_seq) =
            OnlineAllocator::restore(&g, &probs, cfg(), &mut buf.as_slice()).unwrap();
        assert_eq!(wal_seq, 42);
        assert_eq!(b.epoch(), a.epoch());
        assert_eq!(b.stats(), a.stats());
        assert_eq!(b.pooled_shards(), a.pooled_shards());
        assert!(a.snapshot().same_allocation(&b.snapshot()));
        assert_eq!(b.total_rr_sets(), a.total_rr_sets());
        assert_eq!(b.memory_bytes(), a.memory_bytes());

        // Continue both on the same tail: fresh sampling must agree.
        for ev in [
            arrival(1, 9.0, 0), // reclaims ad 1's pooled shard in both
            OnlineEvent::BudgetTopUp { id: 2, amount: 5.0 },
            arrival(4, 7.0, 1),
        ] {
            let oa = a.process(&ev).unwrap();
            let ob = b.process(&ev).unwrap();
            assert_eq!(oa.fresh_rr_sets, ob.fresh_rr_sets);
        }
        assert!(a.snapshot().same_allocation(&b.snapshot()));
        assert_eq!(a.stats(), b.stats());
        assert_eq!(b.memory_bytes(), a.memory_bytes());
    }

    #[test]
    fn empty_allocator_round_trips() {
        let (g, probs) = setup();
        let mut a = OnlineAllocator::new(&g, &probs, cfg());
        let mut buf = Vec::new();
        a.checkpoint(0, &mut buf).unwrap();
        let (b, wal_seq) =
            OnlineAllocator::restore(&g, &probs, cfg(), &mut buf.as_slice()).unwrap();
        assert_eq!(wal_seq, 0);
        assert_eq!(b.num_live(), 0);
        assert!(a.snapshot().same_allocation(&b.snapshot()));
    }

    #[test]
    fn config_and_host_mismatches_are_typed_errors() {
        let (g, probs) = setup();
        let mut a = OnlineAllocator::new(&g, &probs, cfg());
        a.process(&arrival(1, 8.0, 0)).unwrap();
        let mut buf = Vec::new();
        a.checkpoint(3, &mut buf).unwrap();

        let mut other = cfg();
        other.tirm.seed = 8;
        match OnlineAllocator::restore(&g, &probs, other, &mut buf.as_slice()) {
            Err(SnapshotError::ConfigMismatch { field, .. }) => assert_eq!(field, "tirm.seed"),
            Err(e) => panic!("wrong error kind: {e}"),
            Ok(_) => panic!("seed mismatch must not restore"),
        }

        let mut other = cfg();
        other.kappa = 3;
        assert!(OnlineAllocator::restore(&g, &probs, other, &mut buf.as_slice()).is_err());

        let (g2, probs2) = {
            let g = generators::preferential_attachment(100, 4, 0.3, 13);
            let p = genprob::replicate_across_topics(&vec![0.08f32; g.num_edges()], 2);
            (g, p)
        };
        assert!(OnlineAllocator::restore(&g2, &probs2, cfg(), &mut buf.as_slice()).is_err());
    }

    #[test]
    fn corrupt_checkpoints_error_instead_of_panicking() {
        let (g, probs) = setup();
        let mut a = OnlineAllocator::new(&g, &probs, cfg());
        a.process(&arrival(1, 8.0, 0)).unwrap();
        let mut buf = Vec::new();
        a.checkpoint(1, &mut buf).unwrap();

        // Bit rot in the middle: checksum catches it.
        let mut rotten = buf.clone();
        let mid = rotten.len() / 2;
        rotten[mid] ^= 0x40;
        assert!(matches!(
            OnlineAllocator::restore(&g, &probs, cfg(), &mut rotten.as_slice()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Truncation at every prefix length: typed error, no panic.
        for cut in [0, 5, buf.len() / 3, buf.len() - 1] {
            assert!(
                OnlineAllocator::restore(&g, &probs, cfg(), &mut buf[..cut].as_ref()).is_err(),
                "prefix of {cut} bytes must not restore"
            );
        }

        // Foreign magic.
        let mut foreign = buf.clone();
        foreign[0] ^= 0xff;
        assert!(matches!(
            OnlineAllocator::restore(&g, &probs, cfg(), &mut foreign.as_slice()),
            Err(SnapshotError::BadMagic)
        ));
    }
}
