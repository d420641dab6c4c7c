//! Resuming the interleaved greedy from the first step a budget change
//! alters.
//!
//! TIRM's main loop is a deterministic sequence of steps: every unsaturated
//! ad offers its best node, the largest regret drop commits, and the
//! winner may grow its seed-count estimate and θ. A [`RunRecord`] keeps
//! what a run decided and enough of each overlay's history to rebuild it
//! at any step; [`RunRecord::resume`] finds the first step a later run
//! with other budgets decides differently and rebuilds every ad there.
//!
//! Why that is exact:
//!
//! * **The heap is pure.** `select_best_node` returns the maximum of
//!   (current `score_key`, node id) over eligible nodes whose score is
//!   above 1e-12, whatever lazy history its heap has had: stale entries
//!   are refreshed downward, ineligible ones dropped, and every eligible
//!   node has an entry at or above its current key until a rebuild. So a
//!   heap rebuilt from the same scores selects what the evolved one would.
//! * **Shared prefixes share candidates.** Up to the first differing
//!   decision both runs made the same commits and grows, so every ad's
//!   overlay, seeds and the allocation are the same, and every candidate
//!   is the recorded one: each decision is a function of the recorded
//!   terms and the budgets, which the scan recomputes.
//! * **The rebuilt overlay is the one that ran.** Weights, `deficit` and
//!   the touched count come from the same operations in the same order,
//!   and the scores are a function of the weights (see
//!   [`tirm_rrset::WeightedRrCollection::decay_weights_from`]).

use super::{
    credit_new_sets, grow_target, rebuild_heap, regret_drop, AdSeeds, AdState, Phase, PhaseClock,
    TirmOptions,
};
use crate::algos::DROP_TOL;
use crate::allocation::Allocation;
use crate::problem::ProblemInstance;
use tirm_graph::NodeId;
use tirm_rrset::SampleBound;

/// Regular score checkpoints one ad keeps in a [`RunRecord`]; every θ
/// growth forces one more.
const MAX_CHECKPOINTS: usize = 8;

/// What one run of the interleaved greedy decided, step by step, and
/// enough of each ad's overlay history to rebuild it at any step. A later
/// run over the same ads in which only budgets (or λ) changed scans it,
/// recomputes every decision under the new budgets, and re-runs only the
/// steps from the first one that comes out differently
/// ([`super::tirm_allocate_resumable`]).
///
/// Its size follows the run, not the ads' capital: a few dozen bytes per
/// step and commit, plus at most 8 score vectors (`8n` bytes each) per ad
/// and one more per θ growth.
pub struct RunRecord {
    /// What the run was over; a record resumes only a run with the same.
    echo: Echo,
    steps: Vec<Step>,
    /// Every step's evaluated ads, in step order.
    cands: Vec<Cand>,
    ads: Vec<AdRecord>,
}

/// Everything a recorded decision depends on besides budgets and λ that a
/// run can check cheaply. (Graph, probabilities and CTPs are the
/// caller's word: [`super::tirm_allocate_resumable`].)
#[derive(PartialEq)]
struct Echo {
    n: usize,
    eps: u64,
    ell: u64,
    threads: usize,
    max_theta: Option<usize>,
    hard_cover: bool,
    /// Per ad: seed plan, cpe bits and θ₀.
    ads: Vec<(AdSeeds, u64, usize)>,
}

/// One step of the greedy loop.
#[derive(Clone, Copy)]
struct Step {
    /// One past the step's last entry in [`RunRecord::cands`].
    cands_end: usize,
    /// The ad that committed; `None` at the last step, where none did.
    winner: Option<usize>,
}

/// One ad the select loop evaluated at one step.
#[derive(Clone, Copy)]
struct Cand {
    ad: usize,
    /// The ad's revenue estimate `Π` before the step.
    revenue: f64,
    /// The marginal revenue of the ad's best node; `None` when no
    /// eligible node was left.
    mg: Option<f64>,
    /// The ad saturated at this step.
    saturated: bool,
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
}

/// One ad's part of a [`RunRecord`].
struct AdRecord {
    commits: Vec<Commit>,
    /// `(k, θ)`: θ grew to `θ` right after the ad's `k`-th commit.
    thetas: Vec<(usize, usize)>,
    /// `(k, scores)`: the overlay's scores after its `k`-th commit and
    /// the grow that followed it. Ascending in `k`.
    checkpoints: Vec<(usize, Vec<f64>)>,
    /// Commits between regular checkpoints; doubles whenever more than
    /// [`MAX_CHECKPOINTS`] regular ones would be held.
    stride: usize,
}

impl AdRecord {
    fn new() -> Self {
        AdRecord {
            commits: Vec::new(),
            thetas: Vec::new(),
            checkpoints: Vec::new(),
            stride: 1,
        }
    }

    /// Notes the ad's `k`-th step (commit, then grow to `grew` if θ grew)
    /// and takes a checkpoint of `scores` where one is due.
    fn after_step(&mut self, k: usize, grew: Option<usize>, scores: &[f64]) {
        if let Some(theta) = grew {
            self.thetas.push((k, theta));
        } else if k % self.stride != 0 {
            return;
        }
        self.checkpoints.push((k, scores.to_vec()));
        let forced = |thetas: &[(usize, usize)], at: usize| thetas.iter().any(|g| g.0 == at);
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
    /// unless `grow_at_c` is false).
    fn truncate(&mut self, c: usize, grow_at_c: bool) {
        let kept = |at: usize| at < c || (at == c && grow_at_c);
        self.commits.truncate(c);
        self.thetas.retain(|&(at, _)| kept(at));
        self.checkpoints.retain(|&(at, _)| kept(at));
    }
}

/// Where a resumed run takes over from its record: the state every ad is
/// in after the first `steps` recorded steps.
struct ResumePoint {
    steps: usize,
    /// The last kept step's winner and the θ its grow reaches under the
    /// new budgets (`None`: θ stays), when that grow is where the run
    /// departs from the record. The grow is still to be done.
    pending: Option<(usize, Option<usize>)>,
    /// Per ad: commits, seed-count estimate, and the revenue estimate it
    /// saturated at (`None`: not saturated).
    commits: Vec<usize>,
    s_est: Vec<usize>,
    saturated: Vec<Option<f64>>,
}

impl RunRecord {
    /// An empty record for a run over `states`, just initialised at θ₀.
    pub(super) fn new(
        problem: &ProblemInstance<'_>,
        opts: &TirmOptions,
        ad_seeds: &[AdSeeds],
        states: &[AdState<'_>],
    ) -> Self {
        let echo = Echo {
            n: problem.num_nodes(),
            eps: opts.eps.to_bits(),
            ell: opts.ell.to_bits(),
            threads: opts.threads,
            max_theta: opts.max_theta_per_ad,
            hard_cover: opts.hard_cover,
            ads: states
                .iter()
                .enumerate()
                .map(|(i, st)| {
                    (
                        ad_seeds[i],
                        problem.ads[i].cpe.to_bits(),
                        st.coll.num_sets(),
                    )
                })
                .collect(),
        };
        RunRecord {
            steps: Vec::new(),
            cands: Vec::new(),
            ads: echo.ads.iter().map(|_| AdRecord::new()).collect(),
            echo,
        }
    }

    /// Whether `self` was recorded over what `fresh` is about to run over.
    pub(super) fn fits(&self, fresh: &RunRecord) -> bool {
        self.echo == fresh.echo
    }

    /// Notes one ad the select loop evaluated.
    pub(super) fn evaluated(&mut self, ad: usize, revenue: f64, mg: Option<f64>, saturated: bool) {
        self.cands.push(Cand {
            ad,
            revenue,
            mg,
            saturated,
        });
    }

    /// Closes a step: the ads evaluated since the last one, and its
    /// winner.
    pub(super) fn step_done(&mut self, winner: Option<usize>) {
        self.steps.push(Step {
            cands_end: self.cands.len(),
            winner,
        });
    }

    /// Notes a commit of `node` to `ad`.
    pub(super) fn committed(
        &mut self,
        ad: usize,
        node: NodeId,
        decay: f64,
        mg: f64,
        touched: usize,
    ) {
        self.ads[ad].commits.push(Commit {
            node,
            decay,
            mg,
            touched,
        });
    }

    /// Notes the grow after `ad`'s `k`-th commit (`grew`: the θ it
    /// reached, if θ grew) and checkpoints `scores` where one is due.
    pub(super) fn after_step(&mut self, ad: usize, k: usize, grew: Option<usize>, scores: &[f64]) {
        self.ads[ad].after_step(k, grew, scores);
    }

    /// Where `self.cands` stood after the first `steps` steps.
    fn cands_end(&self, steps: usize) -> usize {
        steps.checked_sub(1).map_or(0, |t| self.steps[t].cands_end)
    }

    /// Brings a run that fits this record (every ad just initialised at
    /// θ₀, heaps not yet built) to the first step where the new budgets
    /// decide differently: the allocation, every unsaturated ad's
    /// overlay, seeds, revenue and heap, and every saturated ad's θ and
    /// revenue, as a run from step 0 would have them there. Forgets the
    /// rest of the record, which the run then records again. Returns the
    /// steps taken over and, when the run leaves the record at a grow,
    /// that grow's ad and target (still to be done).
    pub(super) fn resume(
        &mut self,
        problem: &ProblemInstance<'_>,
        states: &mut [AdState<'_>],
        alloc: &mut Allocation,
        bound: &SampleBound,
        nf: f64,
        clock: &mut PhaseClock,
    ) -> (usize, Option<(usize, Option<usize>)>) {
        let point = self.scan(problem, states, bound, nf, clock);
        clock.lap(Phase::Select);
        self.cands.truncate(self.cands_end(point.steps));
        self.steps.truncate(point.steps);
        for (i, ad) in self.ads.iter_mut().enumerate() {
            let pending = point.pending.is_some_and(|(p, _)| p == i);
            ad.truncate(point.commits[i], !pending);
        }
        for (i, st) in states.iter_mut().enumerate() {
            let ad = &self.ads[i];
            if let Some(revenue) = point.saturated[i] {
                // A saturated ad never selects, commits or grows again:
                // the rest of the run needs its θ and revenue, not its
                // overlay.
                let theta = ad.thetas.last().map_or(st.coll.num_sets(), |g| g.1);
                st.coll.activate_weights(theta - st.coll.num_sets());
                st.revenue = revenue;
                st.saturated = true;
            } else {
                replay_ad(problem, st, i, ad, point.commits[i], nf);
                st.s_est = point.s_est[i];
            }
        }
        let mut taken = vec![0usize; states.len()];
        for step in &self.steps {
            if let Some(i) = step.winner {
                alloc.assign(self.ads[i].commits[taken[i]].node, i);
                taken[i] += 1;
            }
        }
        clock.lap(Phase::Commit);
        for st in states.iter_mut().filter(|st| !st.saturated) {
            rebuild_heap(st);
        }
        clock.lap(Phase::HeapBuild);
        (point.steps, point.pending)
    }

    /// Recomputes the recorded decisions under `problem`'s budgets and
    /// finds the first step at which any of them differs: the winner, an
    /// ad's saturation, or the θ after a commit. Grows ask each ad's KPT
    /// estimator what a run would ask it, in the same order, so the
    /// estimator ends where a run would leave it. A record that never
    /// differs ends at its last step, which the run redoes.
    fn scan(
        &self,
        problem: &ProblemInstance<'_>,
        states: &mut [AdState<'_>],
        bound: &SampleBound,
        nf: f64,
        clock: &mut PhaseClock,
    ) -> ResumePoint {
        let h = states.len();
        let mut theta: Vec<usize> = states.iter().map(|st| st.coll.num_sets()).collect();
        let mut grown = vec![0usize; h];
        let mut point = ResumePoint {
            steps: 0,
            pending: None,
            commits: vec![0; h],
            s_est: vec![1; h],
            saturated: vec![None; h],
        };
        let mut saturating = Vec::new();
        for (t, step) in self.steps.iter().enumerate() {
            point.steps = t;
            let mut best: Option<(usize, f64, f64, f64)> = None; // ad, drop, mg, Π
            saturating.clear();
            for cand in &self.cands[self.cands_end(t)..step.cands_end] {
                let j = cand.ad;
                debug_assert!(
                    point.saturated[j].is_none(),
                    "a saturated ad is not evaluated"
                );
                let revenue = cand.revenue;
                let saturates = match cand.mg {
                    None => true,
                    Some(mg) => {
                        let drop = regret_drop(problem, j, revenue, mg, point.commits[j]);
                        if drop > DROP_TOL && best.is_none_or(|(_, d, _, _)| drop > d) {
                            best = Some((j, drop, mg, revenue));
                        }
                        drop <= DROP_TOL
                    }
                };
                if saturates != cand.saturated {
                    return point;
                }
                if saturates {
                    saturating.push((j, revenue));
                }
            }
            let Some((i, _, mg, revenue)) = best.filter(|b| Some(b.0) == step.winner) else {
                return point; // another winner, or the last step
            };
            for &(j, revenue) in &saturating {
                point.saturated[j] = Some(revenue);
            }
            point.commits[i] += 1;
            let ad = &self.ads[i];
            let k = point.commits[i];
            // Compared at every commit: the recorded run may have grown θ
            // where this one has no grow at all.
            let mut grow = None;
            if k == point.s_est[i] {
                let s_est;
                (s_est, grow) = grow_target(
                    problem.target_budget(i),
                    revenue + mg,
                    mg,
                    point.s_est[i],
                    ad.commits[k - 1].touched,
                    theta[i],
                    bound,
                    nf,
                    |s| {
                        clock.lap(Phase::Select);
                        states[i].estimate_kpt(s, clock)
                    },
                );
                point.s_est[i] = s_est;
            }
            let recorded = ad.thetas.get(grown[i]).filter(|g| g.0 == k).map(|g| g.1);
            if grow != recorded {
                point.steps = t + 1;
                point.pending = Some((i, grow));
                return point;
            }
            if let Some(th) = grow {
                theta[i] = th;
                grown[i] += 1;
            }
        }
        unreachable!("a record ends with the step where no ad committed")
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
        if let Some(&(_, theta)) = rec.thetas.iter().find(|g| g.0 == k + 1) {
            let have = st.coll.num_sets();
            let got = if full {
                st.coll.activate_next(theta - have)
            } else {
                st.coll.activate_weights(theta - have)
            };
            assert_eq!(got, theta - have, "a recorded θ growth is cached");
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

    /// A two-ad problem whose ads share one graph, κ = 1.
    fn problem<'g>(g: &'g DiGraph, budgets: [f64; 2], p: f32) -> ProblemInstance<'g> {
        let ads = budgets
            .iter()
            .map(|&b| Advertiser::new(b, 1.0, TopicDist::single(1, 0)))
            .collect();
        let probs = vec![vec![p; g.num_edges()], vec![p * 0.6; g.num_edges()]];
        let ctp = CtpTable::direct(vec![vec![0.3; g.num_nodes()], vec![1.0; g.num_nodes()]]);
        ProblemInstance::new(g, ads, probs, ctp, Attention::Uniform(1), 0.0)
    }

    /// Records a run at `before`, resumes it at `after`, checks the
    /// result against a cold run, and returns the resumed run with the
    /// record it resumed.
    fn resume_pair(
        g: &DiGraph,
        o: TirmOptions,
        p: f32,
        before: [f64; 2],
        after: [f64; 2],
    ) -> (ResumableRun, RunRecord) {
        let plan = [AdSeeds::for_ad_id(3, 1), AdSeeds::for_ad_id(3, 2)];
        let recorded =
            || tirm_allocate_resumable(&problem(g, before, p), o, &plan, vec![None, None], None);
        let first = recorded();
        let kept = recorded().record;
        let p = problem(g, after, p);
        let warm = first.warm.into_iter().map(Some).collect();
        let run = tirm_allocate_resumable(&p, o, &plan, warm, first.record);
        let (cold, cold_stats) = tirm_allocate_seeded(&p, o, &plan);
        for i in 0..2 {
            assert_eq!(run.alloc.seeds(i), cold.seeds(i), "ad {i}");
        }
        assert_eq!(run.stats.estimated_revenue, cold_stats.estimated_revenue);
        (run, kept.expect("the default selection records"))
    }

    #[test]
    fn resume_diverges_at_step_zero() {
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        // Ad 0 has no budget, so it saturates at step 0; given one, it
        // competes from step 0 on.
        let (run, old) = resume_pair(&g, opts(3), 0.08, [0.0, 6.0], [9.0, 6.0]);
        assert_eq!(old.ads[0].commits.len(), 0);
        assert_eq!(run.skipped_steps, Some(0));
    }

    #[test]
    fn resume_of_an_unchanged_model_redoes_only_the_last_step() {
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let (run, old) = resume_pair(&g, opts(3), 0.08, [7.0, 6.0], [7.0, 6.0]);
        let new = run.record.unwrap();
        let checkpoints = |r: &RunRecord| -> Vec<usize> {
            r.ads
                .iter()
                .flat_map(|a| a.checkpoints.iter().map(|c| c.0))
                .collect()
        };
        assert!(old.steps.len() > 10);
        assert_eq!(run.skipped_steps, Some(old.steps.len() - 1));
        assert_eq!(new.steps.len(), old.steps.len());
        assert_eq!(checkpoints(&new), checkpoints(&old));
    }

    #[test]
    fn resume_diverges_at_a_theta_growing_grow() {
        // Uncapped, so a revised seed count can ask for more sets than θ₀.
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let o = TirmOptions {
            max_theta_per_ad: None,
            ..opts(3)
        };
        // Ad 0's first grow asks for more sets under the larger budget.
        let (run, old) = resume_pair(&g, o, 0.3, [20.0, 6.0], [50.0, 6.0]);
        let new = run.record.unwrap();
        // Leaving the record at a grow keeps the step whose grow it was.
        assert_eq!(run.skipped_steps, Some(1));
        assert_eq!(old.steps[0].winner, Some(0));
        assert!(old.ads[0].thetas.is_empty());
        assert_eq!(new.ads[0].thetas[0].0, 1, "{:?}", new.ads[0].thetas);
        assert!(new.ads[0].thetas.len() > 1, "θ grows again in the suffix");

        // And back: the smaller budget grows θ nowhere, so the run departs
        // at the first commit the recorded run grew θ after.
        let (run, old) = resume_pair(&g, o, 0.3, [50.0, 6.0], [20.0, 6.0]);
        let new = run.record.unwrap();
        let k = old.ads[0].thetas[0].0;
        let t = run.skipped_steps.unwrap();
        assert_eq!(old.steps[t - 1].winner, Some(0));
        let wins = old.steps[..t].iter().filter(|s| s.winner == Some(0));
        assert_eq!(wins.count(), k);
        assert!(new.ads[0].thetas.is_empty());
    }

    #[test]
    fn exact_drop_selection_neither_records_nor_resumes() {
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let o = TirmOptions {
            exact_drop_selection: true,
            ..opts(3)
        };
        let plan = [AdSeeds::for_ad_id(3, 1), AdSeeds::for_ad_id(3, 2)];
        let p = problem(&g, [7.0, 6.0], 0.08);
        let first = tirm_allocate_resumable(&p, o, &plan, vec![None, None], None);
        assert!(first.record.is_none());
        // A record of the default selection is refused, too.
        let record = tirm_allocate_resumable(&p, opts(3), &plan, vec![None, None], None).record;
        let warm = first.warm.into_iter().map(Some).collect();
        let run = tirm_allocate_resumable(&p, o, &plan, warm, record);
        assert!(run.record.is_none() && run.skipped_steps.is_none());
        let (cold, _) = tirm_allocate_seeded(&p, o, &plan);
        for i in 0..2 {
            assert_eq!(run.alloc.seeds(i), cold.seeds(i));
        }
    }

    #[test]
    fn a_record_of_other_ads_is_not_resumed() {
        let g = generators::preferential_attachment(200, 3, 0.2, 4);
        let plan = [AdSeeds::for_ad_id(3, 1), AdSeeds::for_ad_id(3, 2)];
        let p = problem(&g, [7.0, 6.0], 0.08);
        let other = [AdSeeds::for_ad_id(3, 1), AdSeeds::for_ad_id(3, 9)];
        let record = tirm_allocate_resumable(&p, opts(3), &other, vec![None, None], None).record;
        let run = tirm_allocate_resumable(&p, opts(3), &plan, vec![None, None], record);
        assert_eq!(run.skipped_steps, None);
        assert!(run.record.is_some());
    }

    #[test]
    fn checkpoints_stay_bounded_and_spaced() {
        let mut ad = AdRecord::new();
        for k in 1..=100 {
            let grew = (k % 37 == 0).then_some(k * 10);
            ad.after_step(k, grew, &[k as f64]);
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
        ad.truncate(74, false);
        let ks: Vec<usize> = ad.checkpoints.iter().map(|c| c.0).collect();
        assert_eq!(ks, [16, 32, 37, 48, 64]);
        assert_eq!(ad.thetas, [(37, 370)]);
        assert_eq!(ad.commits.len(), 0);
    }
}
