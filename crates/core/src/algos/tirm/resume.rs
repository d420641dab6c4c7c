//! Replaying each ad's own recorded trajectory until another ad's change
//! can reach it.
//!
//! In TIRM's main loop the attention bound κ is the only thing that
//! couples one ad to another: ad j's overlay changes only by j's own
//! commits (and the θ growths after them), so between two of them j's
//! candidate is the top eligible node in a fixed order. A [`RunRecord`]
//! keeps, per ad, what j committed, the nodes j's heap dropped as
//! ineligible on the way, its θ growths and a few score checkpoints. A
//! later run over the same ads replays each ad from its record and
//! rebuilds it — makes it *live* — only at the first evaluation the
//! record can no longer answer.
//!
//! Why replaying is exact:
//!
//! * **The heap is pure.** `select_best_node` returns the maximum of
//!   (current `score_key`, node id) over eligible nodes whose score is
//!   above 1e-12, whatever lazy history its heap has had: stale entries
//!   are refreshed downward, ineligible ones dropped, and every eligible
//!   node has an entry at or above its current key until a rebuild.
//! * **What outranks a pick was dropped.** A node that outranks j's k-th
//!   pick in j's order after its first k commits still had an entry above
//!   the pick when the pick was taken, unless j's heap had dropped it as
//!   ineligible since its last rebuild. So it is a recorded drop, or a
//!   node j holds itself (ineligible in every replay of j's commits, so
//!   never recorded). A recording heap drops a node only at its current
//!   key, so the drops of a phase come in j's order, each with its score.
//! * **Eligibility only shrinks within a run.** So each recorded drop is
//!   checked once, when the replay reaches it: while it is ineligible the
//!   cursor moves on for good. At an evaluation in j's phase k, j's
//!   candidate is the first recorded drop of the phase that is eligible
//!   again, or the phase's pick if every drop is ineligible and the pick
//!   eligible. If the pick is not, j's candidate is a node the record
//!   does not rank, and j goes live.
//! * **Budgets enter only through the drop rule and `grow_target`.** The
//!   run recomputes both from the recorded terms, asking each ad's KPT
//!   estimator what a full run asks it, so θ, the KPT cache and the
//!   allocation match a run from step 0. A θ growth that comes out other
//!   than recorded, or a commit the record does not hold, sends the ad
//!   live too.
//! * **The rebuilt overlay is the one that ran.** Weights, `deficit` and
//!   the touched count come from the same operations in the same order,
//!   and the scores are a function of the weights (see
//!   [`tirm_rrset::WeightedRrCollection::decay_weights_from`]).
//!
//! Ties between ads break by live order, which arrivals (appended) and
//! departures (removed) preserve, so a record is keyed by the ad's seed
//! plan and survives both.

use super::{
    credit_new_sets, marginal_revenue, open, rebuild_heap, AdSeeds, AdState, Phase, PhaseClock,
    TirmOptions,
};
use crate::allocation::Allocation;
use crate::problem::ProblemInstance;
use tirm_graph::NodeId;
use tirm_rrset::SampleBound;

/// Regular score checkpoints one ad keeps in a [`RunRecord`]; every θ
/// growth forces one more.
const MAX_CHECKPOINTS: usize = 8;

/// Every ad's trajectory in one run of the interleaved greedy, enough to
/// replay it in a later run over the same options
/// ([`super::tirm_allocate_resumable`]).
///
/// Its size follows the run, not the ads' capital: 40 bytes per commit
/// and 16 per recorded drop, plus at most 8 score vectors (`8n` bytes
/// each) per ad and one more per θ growth.
pub struct RunRecord {
    /// What the run was over; a record replays only into a run with the
    /// same.
    echo: Echo,
    /// One per ad of the run, in its order.
    ads: Vec<AdRecord>,
    /// Per ad with a record to replay, where its replay stands or, once
    /// the run is over, where it ended.
    replay: Vec<Option<Replay>>,
}

/// The options a recorded decision depends on. (Graph, probabilities and
/// CTPs are the caller's word: [`super::tirm_allocate_resumable`].)
#[derive(PartialEq)]
struct Echo {
    n: usize,
    eps: u64,
    ell: u64,
    threads: usize,
    max_theta: Option<usize>,
    hard_cover: bool,
}

/// One ad's part of a [`RunRecord`].
pub(super) struct AdRecord {
    /// Whose trajectory it is: seed plan and cpe bits.
    key: (AdSeeds, u64),
    commits: Vec<Commit>,
    /// Nodes the ad's heap dropped because other ads had filled their
    /// attention bound, in the order dropped.
    drops: Vec<Dropped>,
    /// The candidate (node, marginal revenue) the ad saturated on; `None`
    /// when no eligible node was left.
    last: Option<(NodeId, f64)>,
    /// θ growths, ascending in the commit they followed.
    thetas: Vec<Growth>,
    /// `(k, scores)`: the overlay's scores after its `k`-th commit and
    /// the grow that followed it. Ascending in `k`.
    checkpoints: Vec<(usize, Vec<f64>)>,
    /// Commits between regular checkpoints; doubles whenever more than
    /// [`MAX_CHECKPOINTS`] regular ones would be held.
    stride: usize,
}

/// One commit of one ad.
#[derive(Clone, Copy)]
struct Commit {
    node: NodeId,
    decay: f64,
    mg: f64,
    /// The overlay's touched-set count right after the commit (the grow
    /// that may follow reads it).
    touched: usize,
    /// Drops recorded before it: the ones of its phase end here.
    drops: usize,
}

/// A node one ad's heap dropped as ineligible, at its current score.
#[derive(Clone, Copy)]
struct Dropped {
    node: NodeId,
    score: f64,
}

/// θ grew to `theta` right after the ad's `at`-th commit, leaving its
/// revenue estimate at `revenue`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Growth {
    at: usize,
    theta: usize,
    revenue: f64,
}

/// Where one ad's replay stands.
#[derive(Clone, Copy)]
struct Replay {
    /// Commits taken from the record: the ad's phase.
    k: usize,
    /// Drops found ineligible so far.
    cursor: usize,
    /// θ growths taken.
    grown: usize,
    /// The θ the ad stands at.
    theta: usize,
    /// The candidate the recorded run saturated on.
    last: Option<(NodeId, f64)>,
    /// The record could not answer at phase `k`, and the ad runs live.
    live: bool,
}

impl AdRecord {
    fn new(key: (AdSeeds, u64)) -> Self {
        AdRecord {
            key,
            commits: Vec::new(),
            drops: Vec::new(),
            last: None,
            thetas: Vec::new(),
            checkpoints: Vec::new(),
            stride: 1,
        }
    }

    /// Notes that the ad's heap dropped `v` at `score` as ineligible,
    /// unless the ad holds `v` itself among `own`.
    pub(super) fn dropped(&mut self, v: NodeId, score: f64, own: &[NodeId]) {
        if !own.contains(&v) {
            self.drops.push(Dropped { node: v, score });
        }
    }

    /// Notes the ad's `k`-th step (commit, then grow to `grew` if θ grew,
    /// leaving `revenue`) and takes a checkpoint of `scores` where one is
    /// due.
    fn after_step(&mut self, k: usize, grew: Option<usize>, revenue: f64, scores: &[f64]) {
        if let Some(theta) = grew {
            self.thetas.push(Growth {
                at: k,
                theta,
                revenue,
            });
        } else if k % self.stride != 0 {
            return;
        }
        self.checkpoints.push((k, scores.to_vec()));
        let forced = |thetas: &[Growth], at: usize| thetas.iter().any(|g| g.at == at);
        let thetas = &self.thetas;
        let regular = self.checkpoints.iter().filter(|c| !forced(thetas, c.0));
        if regular.count() > MAX_CHECKPOINTS {
            self.stride *= 2;
            let stride = self.stride;
            self.checkpoints
                .retain(|c| forced(thetas, c.0) || c.0 % stride == 0);
        }
    }

    /// Forgets everything after the ad's `c`-th commit (and its grow,
    /// unless `grow_at_c` is false) and the first `drops` drops.
    fn truncate(&mut self, c: usize, drops: usize, grow_at_c: bool) {
        let kept = |at: usize| at < c || (at == c && grow_at_c);
        self.commits.truncate(c);
        self.drops.truncate(drops);
        self.thetas.retain(|g| kept(g.at));
        self.checkpoints.retain(|&(at, _)| kept(at));
    }
}

impl RunRecord {
    /// The record of a run over `states`, none of them activated yet,
    /// that replays every ad `old` holds a record of under the same
    /// options, if its warm state keeps the base scores of its θ₀.
    pub(super) fn start(
        problem: &ProblemInstance<'_>,
        opts: &TirmOptions,
        states: &mut [AdState<'_>],
        old: Option<RunRecord>,
        bound: &SampleBound,
        clock: &mut PhaseClock,
    ) -> Self {
        let echo = Echo {
            n: problem.num_nodes(),
            eps: opts.eps.to_bits(),
            ell: opts.ell.to_bits(),
            threads: opts.threads,
            max_theta: opts.max_theta_per_ad,
            hard_cover: opts.hard_cover,
        };
        let mut old = old.filter(|o| o.echo == echo).map_or(Vec::new(), |o| o.ads);
        let mut rec = RunRecord {
            echo,
            ads: Vec::with_capacity(states.len()),
            replay: Vec::with_capacity(states.len()),
        };
        for (i, st) in states.iter_mut().enumerate() {
            let key = (st.ad_seeds, problem.ads[i].cpe.to_bits());
            let found = old.iter().position(|a| a.key == key);
            let replay = found.and_then(|p| {
                let theta0 = st.theta0(bound, clock);
                st.base.as_ref().filter(|b| b.0 == theta0)?;
                let mut ad = old.swap_remove(p);
                let last = ad.last.take();
                rec.ads.push(ad);
                Some(Replay {
                    k: 0,
                    cursor: 0,
                    grown: 0,
                    theta: theta0,
                    last,
                    live: false,
                })
            });
            if replay.is_none() {
                rec.ads.push(AdRecord::new(key));
            }
            rec.replay.push(replay);
        }
        rec
    }

    /// Forgets the trajectory of the ad with seed plan `seeds`: the ad
    /// left, and one arriving under its id starts from step 0.
    pub fn forget(&mut self, seeds: AdSeeds) {
        self.ads.retain(|a| a.key.0 != seeds);
    }

    /// Commits taken from records so far; `None` when no ad had one.
    pub(super) fn replayed(&self) -> Option<usize> {
        let mut ads = self.replay.iter().flatten().peekable();
        ads.peek()?;
        Some(ads.map(|r| r.k).sum())
    }

    /// Where ad `i`'s replay stands, while it is replaying its record.
    fn replaying(&mut self, i: usize) -> Option<&mut Replay> {
        self.replay[i].as_mut().filter(|r| !r.live)
    }

    /// Ad `i`'s part, to note what its heap drops.
    pub(super) fn ad_mut(&mut self, i: usize) -> &mut AdRecord {
        &mut self.ads[i]
    }

    /// Ad `i`'s candidate (node, marginal revenue) at this evaluation,
    /// from its record. `None`: ask the heap, because the ad is live or
    /// the record cannot answer and the ad has just gone live.
    pub(super) fn replayed_candidate(
        &mut self,
        i: usize,
        problem: &ProblemInstance<'_>,
        alloc: &Allocation,
        st: &mut AdState<'_>,
        nf: f64,
        clock: &mut PhaseClock,
    ) -> Option<Option<(NodeId, f64)>> {
        let r = self.replay[i].as_mut().filter(|r| !r.live)?;
        let ad = &self.ads[i];
        let end = ad.commits.get(r.k).map_or(ad.drops.len(), |c| c.drops);
        // `open` is `can_assign` here: a replaying ad holds only its
        // record's commits, and none of them is a drop, a pick or `last`.
        while r.cursor < end && !open(problem, alloc, ad.drops[r.cursor].node) {
            r.cursor += 1;
        }
        let cand = match ad.drops[r.cursor..end].first() {
            Some(d) => Some(Some((
                d.node,
                marginal_revenue(problem, i, d.node, d.score, r.theta, nf),
            ))),
            None => match ad.commits.get(r.k).map(|c| (c.node, c.mg)).or(r.last) {
                Some((v, _)) if !open(problem, alloc, v) => None,
                pick => Some(pick),
            },
        };
        if cand.is_none() {
            // The pick is taken: the rebuilt heap drops every node of the
            // phase again, in order, on its way to the new candidate.
            r.cursor = r.k.checked_sub(1).map_or(0, |c| ad.commits[c].drops);
            self.go_live(i, problem, st, nf, true, clock);
        }
        cand
    }

    /// Ad `i` saturated on `cand`. A replaying one is done: it keeps the
    /// revenue it stands at, its record ends where its replay does, and
    /// the θ it stands at is returned.
    pub(super) fn saturated(&mut self, i: usize, cand: Option<(NodeId, f64)>) -> Option<usize> {
        self.ads[i].last = cand;
        let r = *self.replaying(i)?;
        self.ads[i].truncate(r.k, r.cursor, true);
        Some(r.theta)
    }

    /// Ad `i` won with node `v`. Takes the commit from its record when
    /// the record holds it there, returning the touched count after it
    /// and the θ it was made at; a replaying ad whose record does not
    /// goes live first, and `None` asks the caller to commit.
    pub(super) fn replayed_commit(
        &mut self,
        i: usize,
        v: NodeId,
        problem: &ProblemInstance<'_>,
        st: &mut AdState<'_>,
        nf: f64,
        clock: &mut PhaseClock,
    ) -> Option<(usize, usize)> {
        let r = self.replay[i].as_mut().filter(|r| !r.live)?;
        match self.ads[i].commits.get(r.k) {
            Some(&c) if c.node == v => {
                r.k += 1;
                Some((c.touched, r.theta))
            }
            _ => {
                self.go_live(i, problem, st, nf, true, clock);
                None
            }
        }
    }

    /// Notes a commit of `node` to the live ad `i`.
    pub(super) fn committed(
        &mut self,
        i: usize,
        node: NodeId,
        decay: f64,
        mg: f64,
        touched: usize,
    ) {
        let ad = &mut self.ads[i];
        ad.commits.push(Commit {
            node,
            decay,
            mg,
            touched,
            drops: ad.drops.len(),
        });
    }

    /// After a replayed commit: takes the grow to `grow` from the record
    /// when it is the one recorded there and returns true; else the ad
    /// goes live with that grow still to be done.
    pub(super) fn replayed_grow(
        &mut self,
        i: usize,
        grow: Option<usize>,
        problem: &ProblemInstance<'_>,
        st: &mut AdState<'_>,
        nf: f64,
        clock: &mut PhaseClock,
    ) -> bool {
        let Some(r) = self.replay[i].as_mut().filter(|r| !r.live) else {
            return false;
        };
        let recorded = self.ads[i].thetas.get(r.grown).filter(|g| g.at == r.k);
        if recorded.map(|g| g.theta) != grow {
            self.go_live(i, problem, st, nf, false, clock);
            return false;
        }
        if let Some(g) = recorded {
            r.theta = g.theta;
            r.grown += 1;
            st.revenue = g.revenue;
        }
        true
    }

    /// Notes the grow after live ad `i`'s `k`-th commit (`grew`: the θ it
    /// reached, if θ grew) and checkpoints its overlay where one is due.
    pub(super) fn after_step(&mut self, i: usize, k: usize, grew: Option<usize>, st: &AdState<'_>) {
        self.ads[i].after_step(k, grew, st.revenue, st.coll.scores());
    }

    /// Ends ad `i`'s replay where it stands — after its grow there unless
    /// `grow_done` is false — and rebuilds its overlay, from the pristine
    /// θ₀ one, and its heap there.
    fn go_live(
        &mut self,
        i: usize,
        problem: &ProblemInstance<'_>,
        st: &mut AdState<'_>,
        nf: f64,
        grow_done: bool,
        clock: &mut PhaseClock,
    ) {
        let Some(r) = self.replaying(i) else {
            return;
        };
        r.live = true;
        let (k, cursor) = (r.k, r.cursor);
        clock.lap(Phase::Select);
        let ad = &mut self.ads[i];
        ad.truncate(k, cursor, grow_done);
        let (theta0, scores) = st.base.as_ref().expect("a replaying ad keeps its θ₀ base");
        st.coll.restore_prefix(*theta0, scores);
        let revenue = std::mem::replace(&mut st.revenue, 0.0);
        replay_ad(problem, st, i, ad, k, nf);
        debug_assert_eq!(st.revenue.to_bits(), revenue.to_bits());
        clock.lap(Phase::Commit);
        rebuild_heap(st);
        clock.lap(Phase::HeapBuild);
    }
}

/// Brings ad `ad`'s pristine θ₀ overlay to where the recorded run had it
/// after its first `c` commits (and the grows among them that `rec`
/// still holds): the weight half of every commit up to the last
/// checkpoint, that checkpoint's scores, then the commits after it in
/// full. Seeds, credit, revenue and the last marginal come out as the run
/// had them, because they are the same operations in the same order.
fn replay_ad(
    problem: &ProblemInstance<'_>,
    st: &mut AdState<'_>,
    ad: usize,
    rec: &AdRecord,
    c: usize,
    nf: f64,
) {
    let (k0, scores) = match rec.checkpoints.last() {
        Some((k, scores)) => (*k, Some(scores)),
        None => (0, None),
    };
    replay_commits(problem, st, ad, rec, 0..k0, false, nf);
    if let Some(scores) = scores {
        st.coll.restore_scores(scores);
    }
    replay_commits(problem, st, ad, rec, k0..c, true, nf);
}

/// Replays the ad's commits `range` (0-based) and their θ growths, in
/// full or (`full = false`) their weight half.
fn replay_commits(
    problem: &ProblemInstance<'_>,
    st: &mut AdState<'_>,
    ad: usize,
    rec: &AdRecord,
    range: std::ops::Range<usize>,
    full: bool,
    nf: f64,
) {
    for k in range {
        let c = rec.commits[k];
        let credited = if full {
            st.coll.decay_node(c.node, c.decay)
        } else {
            st.coll.decay_weights_from(c.node, c.decay, 0)
        };
        st.revenue += c.mg;
        st.last_mg = c.mg;
        st.seeds.push((c.node, c.decay, credited));
        if let Some(g) = rec.thetas.iter().find(|g| g.at == k + 1) {
            let have = st.coll.num_sets();
            let got = if full {
                st.coll.activate_next(g.theta - have)
            } else {
                st.coll.activate_weights(g.theta - have)
            };
            assert_eq!(got, g.theta - have, "a recorded θ growth is cached");
            credit_new_sets(problem, st, ad, have as u32, full, nf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{tirm_allocate_resumable, tirm_allocate_seeded, ResumableRun};
    use super::*;
    use crate::problem::{Advertiser, Attention};
    use tirm_graph::{generators, DiGraph};
    use tirm_topics::{CtpTable, TopicDist};

    fn opts(seed: u64) -> TirmOptions {
        TirmOptions {
            eps: 0.2,
            seed,
            max_theta_per_ad: Some(200_000),
            ..TirmOptions::default()
        }
    }

    /// Ad `i` of the test problems: its seed plan, arc probability and CTP.
    fn ad(i: usize, p: f32) -> (AdSeeds, f32, f32) {
        let scale = [1.0, 0.6, 0.8, 0.7][i % 4];
        let ctp = [0.3, 1.0, 0.5, 0.2][i % 4];
        (AdSeeds::for_ad_id(3, 1 + i as u64), p * scale, ctp)
    }

    /// A problem over the ads `ids` (indices into [`ad`]) sharing one
    /// graph, with the given budgets and attention bound.
    fn problem<'g>(
        g: &'g DiGraph,
        ids: &[usize],
        budgets: &[f64],
        p: f32,
        kappa: u32,
    ) -> ProblemInstance<'g> {
        let ads = budgets
            .iter()
            .map(|&b| Advertiser::new(b, 1.0, TopicDist::single(1, 0)))
            .collect();
        let probs = ids
            .iter()
            .map(|&i| vec![ad(i, p).1; g.num_edges()])
            .collect();
        let ctps = ids
            .iter()
            .map(|&i| vec![ad(i, p).2; g.num_nodes()])
            .collect();
        ProblemInstance::new(
            g,
            ads,
            probs,
            CtpTable::direct(ctps),
            Attention::Uniform(kappa),
            0.0,
        )
    }

    /// Runs `before` cold with a record, then `after` (a problem over
    /// `ids_after`) from that record and capital, checks the result
    /// against a cold run, and returns it with a copy of the first run.
    fn rerun(
        o: TirmOptions,
        (before, ids_before): (&ProblemInstance<'_>, &[usize]),
        (after, ids_after): (&ProblemInstance<'_>, &[usize]),
    ) -> (ResumableRun, ResumableRun) {
        let plan = |ids: &[usize]| ids.iter().map(|&i| ad(i, 0.0).0).collect::<Vec<_>>();
        let fresh = || ids_before.iter().map(|_| None).collect::<Vec<_>>();
        let first = tirm_allocate_resumable(before, o, &plan(ids_before), fresh(), None);
        let copy = tirm_allocate_resumable(before, o, &plan(ids_before), fresh(), None);
        let mut warm: Vec<_> = first.warm.into_iter().map(Some).collect();
        let mut record = first.record;
        for (pos, &i) in ids_before.iter().enumerate() {
            if !ids_after.contains(&i) {
                record.as_mut().unwrap().forget(ad(i, 0.0).0);
                warm[pos] = None;
            }
        }
        let warm = ids_after
            .iter()
            .map(|i| {
                ids_before
                    .iter()
                    .position(|j| j == i)
                    .and_then(|p| warm[p].take())
            })
            .collect();
        let run = tirm_allocate_resumable(after, o, &plan(ids_after), warm, record);
        let (cold, cold_stats) = tirm_allocate_seeded(after, o, &plan(ids_after));
        for i in 0..ids_after.len() {
            assert_eq!(run.alloc.seeds(i), cold.seeds(i), "ad {i}");
        }
        assert_eq!(run.stats.estimated_revenue, cold_stats.estimated_revenue);
        assert!(copy.record.is_some(), "the default selection records");
        (run, copy)
    }

    /// Per ad of `run`: commits taken from its record and whether it went
    /// live (`None`: it had no record).
    fn outcomes(run: &ResumableRun) -> Vec<Option<(usize, bool)>> {
        let rec = run.record.as_ref().unwrap();
        rec.replay
            .iter()
            .map(|r| r.map(|r| (r.k, r.live)))
            .collect()
    }

    fn commits(run: &ResumableRun, i: usize) -> usize {
        run.record.as_ref().unwrap().ads[i].commits.len()
    }

    #[test]
    fn an_unchanged_model_replays_every_commit() {
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let ids = [0, 1, 2];
        let p = problem(&g, &ids, &[7.0, 6.0, 5.0], 0.08, 1);
        let (run, first) = rerun(opts(3), (&p, &ids), (&p, &ids));
        let (old, new) = (first.record.unwrap(), run.record.as_ref().unwrap());
        assert!(old.ads.iter().all(|a| !a.drops.is_empty()), "κ binds");
        for (i, (a, b)) in old.ads.iter().zip(&new.ads).enumerate() {
            assert_eq!(outcomes(&run)[i], Some((a.commits.len(), false)));
            let ks = |r: &AdRecord| r.checkpoints.iter().map(|c| c.0).collect::<Vec<_>>();
            assert_eq!(ks(a), ks(b));
            assert_eq!(a.drops.len(), b.drops.len());
            assert_eq!(a.last.map(|c| c.0), b.last.map(|c| c.0));
        }
        assert_eq!(run.replayed, Some(run.alloc.total_seeds()));
        assert_eq!(run.stats.oracle_calls, 0, "nothing selected, nothing drawn");
    }

    #[test]
    fn resume_diverges_at_step_zero() {
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let ids = [0, 1];
        // Ad 0 has no budget, so it saturates at once; given one, it
        // competes from step 0 on.
        let before = problem(&g, &ids, &[0.0, 6.0], 0.08, 1);
        let after = problem(&g, &ids, &[9.0, 6.0], 0.08, 1);
        let (run, first) = rerun(opts(3), (&before, &ids), (&after, &ids));
        assert_eq!(commits(&first, 0), 0);
        assert_eq!(outcomes(&run)[0], Some((0, true)));
    }

    #[test]
    fn resume_diverges_at_a_theta_growing_grow() {
        // Uncapped, so a revised seed count can ask for more sets than θ₀.
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let o = TirmOptions {
            max_theta_per_ad: None,
            ..opts(3)
        };
        let ids = [0, 1];
        let small = problem(&g, &ids, &[20.0, 6.0], 0.3, 1);
        let large = problem(&g, &ids, &[50.0, 6.0], 0.3, 1);
        // Ad 0's first grow asks for more sets under the larger budget.
        let (run, first) = rerun(o, (&small, &ids), (&large, &ids));
        let (old, new) = (first.record.unwrap(), run.record.unwrap());
        assert!(old.ads[0].thetas.is_empty());
        assert_eq!(new.ads[0].thetas[0].at, 1, "{:?}", new.ads[0].thetas);
        assert!(new.ads[0].thetas.len() > 1, "θ grows again, live");
        assert_eq!(new.replay[0].map(|r| (r.k, r.live)), Some((1, true)));

        // And back: the smaller budget grows θ nowhere, so the ad goes
        // live at the first commit the recorded run grew θ after.
        let (run, first) = rerun(o, (&large, &ids), (&small, &ids));
        let (old, new) = (first.record.unwrap(), run.record.unwrap());
        let k = old.ads[0].thetas[0].at;
        assert_eq!(new.replay[0].map(|r| (r.k, r.live)), Some((k, true)));
        assert!(new.ads[0].thetas.is_empty());
    }

    /// At κ = 1 the departure of an ad hands back the nodes it held. Only
    /// the ad that had dropped one of them goes live, in the phase of its
    /// first such drop; the other replays to the end.
    #[test]
    fn a_departure_sends_live_only_the_ad_that_dropped_its_nodes() {
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let ids = [0, 1, 2];
        let before = problem(&g, &ids, &[7.0, 6.0, 3.0], 0.08, 1);
        let after = problem(&g, &ids[1..], &[6.0, 3.0], 0.08, 1);
        let (run, first) = rerun(opts(3), (&before, &ids), (&after, &ids[1..]));
        let rec = first.record.as_ref().unwrap();
        let held = first.alloc.seeds(0);
        let first_drop = |j: usize| {
            let ad = &rec.ads[j];
            let d = ad.drops.iter().position(|d| held.contains(&d.node))?;
            Some(ad.commits.iter().take_while(|c| c.drops <= d).count())
        };
        assert_eq!(first_drop(1), Some(3));
        assert_eq!(first_drop(2), None);
        assert_eq!(
            outcomes(&run),
            [Some((3, true)), Some((commits(&first, 2), false))]
        );
    }

    /// With κ above the ad count nobody drops anything: a top-up sends
    /// only its own ad live, and a departure sends none, selects nothing
    /// and draws nothing.
    #[test]
    fn without_contention_only_the_changed_ad_goes_live() {
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let ids = [0, 1, 2];
        let before = problem(&g, &ids, &[7.0, 6.0, 5.0], 0.08, 4);
        let topped = problem(&g, &ids, &[7.0, 9.0, 5.0], 0.08, 4);
        let (run, first) = rerun(opts(3), (&before, &ids), (&topped, &ids));
        assert!(first
            .record
            .as_ref()
            .unwrap()
            .ads
            .iter()
            .all(|a| a.drops.is_empty()));
        let out = outcomes(&run);
        assert!(matches!(out[1], Some((_, true))), "{out:?}");
        assert_eq!(out[0], Some((commits(&first, 0), false)));
        assert_eq!(out[2], Some((commits(&first, 2), false)));

        let departed = problem(&g, &[0, 2], &[7.0, 5.0], 0.08, 4);
        let (run, first) = rerun(opts(3), (&before, &ids), (&departed, &[0, 2]));
        let out = outcomes(&run);
        assert_eq!(
            out,
            [
                Some((commits(&first, 0), false)),
                Some((commits(&first, 2), false))
            ]
        );
        assert_eq!(run.stats.oracle_calls, 0);
        let sets = |r: &ResumableRun, i: usize| r.warm[i].num_sets();
        assert_eq!(
            (sets(&run, 0), sets(&run, 1)),
            (sets(&first, 0), sets(&first, 2))
        );
    }

    #[test]
    fn exact_drop_selection_neither_records_nor_resumes() {
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let o = TirmOptions {
            exact_drop_selection: true,
            ..opts(3)
        };
        let plan = [ad(0, 0.0).0, ad(1, 0.0).0];
        let p = problem(&g, &[0, 1], &[7.0, 6.0], 0.08, 1);
        let first = tirm_allocate_resumable(&p, o, &plan, vec![None, None], None);
        assert!(first.record.is_none());
        // A record of the default selection is refused, too.
        let record = tirm_allocate_resumable(&p, opts(3), &plan, vec![None, None], None).record;
        let warm = first.warm.into_iter().map(Some).collect();
        let run = tirm_allocate_resumable(&p, o, &plan, warm, record);
        assert!(run.record.is_none() && run.replayed.is_none());
        let (cold, _) = tirm_allocate_seeded(&p, o, &plan);
        for i in 0..2 {
            assert_eq!(run.alloc.seeds(i), cold.seeds(i));
        }
    }

    #[test]
    fn a_record_of_other_ads_is_not_resumed() {
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let plan = [ad(0, 0.0).0, ad(1, 0.0).0];
        let p = problem(&g, &[0, 1], &[7.0, 6.0], 0.08, 1);
        let other = [ad(2, 0.0).0, ad(3, 0.0).0];
        let record = tirm_allocate_resumable(&p, opts(3), &other, vec![None, None], None).record;
        let run = tirm_allocate_resumable(&p, opts(3), &plan, vec![None, None], record);
        assert_eq!(run.replayed, None);
        let eps = TirmOptions {
            eps: 0.3,
            ..opts(3)
        };
        let run = tirm_allocate_resumable(&p, eps, &plan, vec![None, None], run.record);
        assert_eq!(run.replayed, None);
        assert!(run.record.is_some());
    }

    #[test]
    fn checkpoints_stay_bounded_and_spaced() {
        let mut ad = AdRecord::new((AdSeeds::for_ad_id(3, 1), 0));
        for k in 1..=100 {
            let grew = (k % 37 == 0).then_some(k * 10);
            ad.after_step(k, grew, 0.5, &[k as f64]);
            let forced = ad.thetas.len();
            assert!(
                ad.checkpoints.len() <= MAX_CHECKPOINTS + forced,
                "after {k}"
            );
        }
        assert_eq!(ad.stride, 16);
        let ks: Vec<usize> = ad.checkpoints.iter().map(|c| c.0).collect();
        assert_eq!(ks, [16, 32, 37, 48, 64, 74, 80, 96]);
        assert!(ad.checkpoints.iter().all(|(k, s)| s == &[*k as f64]));
        // Forgetting everything after commit 74, its grow included.
        ad.truncate(74, 0, false);
        let ks: Vec<usize> = ad.checkpoints.iter().map(|c| c.0).collect();
        assert_eq!(ks, [16, 32, 37, 48, 64]);
        let at: Vec<usize> = ad.thetas.iter().map(|g| g.at).collect();
        assert_eq!(at, [37]);
        assert_eq!(ad.commits.len(), 0);
    }
}
