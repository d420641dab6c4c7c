//! TIM sample-size machinery (Tang et al., SIGMOD 2014 — reviewed in §5.1
//! of the paper) reimplemented from its defining formulas. These are the
//! parts TIRM keeps:
//!
//! * **KPT estimation** — a lower bound on `OPT_s` obtained by sampling
//!   RR sets in geometrically growing batches and testing the statistic
//!   `κ(R) = 1 − (1 − w(R)/m)^s`, where `w(R)` is the number of arcs
//!   entering nodes of `R`.
//! * **`L(s, ε)` / θ** — the paper's Eq. 5: with
//!   `λ(s) = (8 + 2ε)·n·(ℓ·ln n + ln C(n,s) + ln 2)/ε²`, any
//!   `θ ≥ λ(s)/OPT_s` gives the spread-estimation guarantee of
//!   Proposition 2 (and Theorem 6 for TIRM's growing collections).
//!
//! TIM's own seed selection, greedy max-cover over θ sets, is a
//! [`crate::WeightedRrCollection`] decayed by `δ = 1` after each pick;
//! the tests here validate the machinery by running it that way.

use crate::fastpath::FastPath;
use crate::parallel::{ParallelSampler, SamplingConfig};
use crate::sampler::RrSampler;
use crate::special::ln_choose;

/// Computes `λ(s)` and `θ(s, opt_lb)` for a fixed graph-size/accuracy
/// configuration.
#[derive(Clone, Debug)]
pub struct SampleBound {
    n: usize,
    /// Accuracy parameter ε (the paper uses 0.1 for quality runs, 0.2 for
    /// scalability runs).
    pub eps: f64,
    /// Confidence parameter ℓ (failure probability `n^{-ℓ}`).
    pub ell: f64,
    /// Hard cap on θ so adversarial inputs cannot exhaust memory; `None`
    /// disables the cap.
    pub max_theta: Option<usize>,
}

impl SampleBound {
    /// Standard configuration (`ℓ = 1`).
    pub fn new(n: usize, eps: f64) -> Self {
        assert!(n > 1 && eps > 0.0 && eps < 1.0);
        SampleBound {
            n,
            eps,
            ell: 1.0,
            max_theta: Some(20_000_000),
        }
    }

    /// `λ(s) = (8 + 2ε) n (ℓ ln n + ln C(n,s) + ln 2) / ε²` (Eq. 5
    /// numerator).
    pub fn lambda(&self, s: usize) -> f64 {
        let n = self.n as f64;
        (8.0 + 2.0 * self.eps)
            * n
            * (self.ell * n.ln() + ln_choose(self.n as u64, s as u64) + 2f64.ln())
            / (self.eps * self.eps)
    }

    /// Required RR-set count `θ = ⌈λ(s)/opt_lb⌉`, clamped to at least 1 and
    /// to `max_theta` when configured.
    pub fn theta(&self, s: usize, opt_lb: f64) -> usize {
        assert!(opt_lb >= 1.0, "OPT lower bound below 1 is impossible");
        let raw = (self.lambda(s) / opt_lb).ceil();
        let raw = if raw.is_finite() {
            raw as usize
        } else {
            usize::MAX
        };
        match self.max_theta {
            Some(cap) if raw > cap => cap,
            _ => raw.max(1),
        }
    }
}

/// Iterative KPT estimation with cached sample widths, so that re-querying
/// with a larger seed count `s` (TIRM grows `s_i` over time) reuses all
/// previously sampled sets. Estimation batches are drawn through a
/// [`ParallelSampler`], so the geometric rounds scale with cores; with
/// `threads = 1` the width sequence is identical to the old serial draw.
///
/// Because the width cache is always a prefix of one fixed per-seed
/// stream, [`KptEstimator::estimate`] is a *pure function of `s`* for a
/// given `(sampler, ell, config)` — the result never depends on which
/// estimates were asked for earlier. The type uses that twice. The online
/// serving layer detaches the width cache ([`KptEstimator::into_state`])
/// when an allocation run ends and re-attaches it
/// ([`KptEstimator::from_state`]) on the next run, so repeated
/// re-allocations of a long-lived ad never redraw estimation samples yet
/// return bit-identical estimates. And the estimator remembers its most
/// recent answers next to the widths they were summed from, so a re-run
/// that asks for the same `s` values (TIRM asks for `s = 1` and each
/// grown `s_i` on every run) neither draws nor sums.
pub struct KptEstimator<'a> {
    sampler: RrSampler<'a>,
    m: usize,
    ell: f64,
    /// `w(R)` of every estimation sample drawn so far, byte-coded. A
    /// `u32` holds each exactly: `w(R) ≤ m`, and the constructors check
    /// that `m` fits one, as the CSR's edge ids already make it.
    widths: WidthCache,
    engine: ParallelSampler,
    memo: EstimateMemo,
}

/// The estimation widths as one LEB128 byte stream: seven bits a byte,
/// low group first, the top bit set on every byte but a code's last.
/// Most widths are small (a set's summed in-degree), so most take one
/// byte; `u32::MAX` takes five. The stream is only ever appended to and
/// read front to back, which is all KPT estimation does with it.
#[derive(Debug, Default, PartialEq)]
struct WidthCache {
    bytes: Vec<u8>,
    /// Widths coded in `bytes`.
    len: usize,
}

impl WidthCache {
    /// Number of widths held.
    fn len(&self) -> usize {
        self.len
    }

    /// Bytes allocated for the stream.
    fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Appends one width. A code that does not fit grows the buffer by a
    /// sixteenth of its length plus the code, exactly. With one byte a
    /// width reserved up front by [`Extend::extend`], the capacity after
    /// any batch stays within 17/16 of the bytes used, where `Vec`'s own
    /// doubling would end near 2×.
    fn push(&mut self, mut w: u32) {
        let k = code_len(w);
        if self.bytes.capacity() - self.bytes.len() < k {
            self.bytes.reserve_exact(self.bytes.len() / 16 + k);
        }
        while w >= 0x80 {
            self.bytes.push(w as u8 | 0x80);
            w >>= 7;
        }
        self.bytes.push(w as u8);
        self.len += 1;
    }

    /// Decodes the width whose code starts at byte `*at` and moves `*at`
    /// to the next code.
    fn read(&self, at: &mut usize) -> u32 {
        let mut w = 0u32;
        let mut shift = 0;
        loop {
            let byte = self.bytes[*at];
            *at += 1;
            w |= u32::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return w;
            }
            shift += 7;
        }
    }

    /// Every width held, decoded from byte 0.
    #[cfg(test)]
    fn decode_all(&self) -> Vec<u32> {
        let mut at = 0;
        (0..self.len).map(|_| self.read(&mut at)).collect()
    }
}

/// Bytes the code of `w` takes: one per started group of seven bits.
fn code_len(w: u32) -> usize {
    (38 - (w | 1).leading_zeros() as usize) / 7
}

impl Extend<u32> for WidthCache {
    /// Appends a batch, reserving one byte per width it promises first:
    /// every code takes at least that.
    fn extend<I: IntoIterator<Item = u32>>(&mut self, widths: I) {
        let widths = widths.into_iter();
        self.bytes.reserve_exact(widths.size_hint().0);
        for w in widths {
            self.push(w);
        }
    }
}

/// Answers kept per estimator. TIRM asks one ad for `s = 1` plus one `s`
/// per seed-count revision, a handful per run.
const MEMO_CAPACITY: usize = 8;

/// The most recently used `(s, estimate(s))` pairs of one width cache. It
/// travels with that cache through [`KptState`] and is dropped with it;
/// a checkpoint does not carry it, and a cache redrawn by
/// [`KptEstimator::refill`] recomputes the same bits on first use. An
/// inline array on purpose: it adds nothing to the heap, so `memory_bytes`
/// and pool eviction order are what they were without it.
#[derive(Clone, Copy, Default)]
struct EstimateMemo {
    /// The first `len` entries are live, most recently used first.
    entries: [(usize, f64); MEMO_CAPACITY],
    len: usize,
}

impl EstimateMemo {
    fn get(&mut self, s: usize) -> Option<f64> {
        let at = self.entries[..self.len].iter().position(|e| e.0 == s)?;
        self.entries[..=at].rotate_right(1);
        Some(self.entries[0].1)
    }

    /// Adds an answer in front; a full table drops its least recently
    /// used one.
    fn put(&mut self, s: usize, kpt: f64) {
        self.len = (self.len + 1).min(MEMO_CAPACITY);
        self.entries[..self.len].rotate_right(1);
        self.entries[0] = (s, kpt);
    }
}

/// Sample counts `c_1 < c_2 < …` the estimator's rounds end at over an
/// `n`-node graph: `c_i = (6ℓ ln n + 6 ln log₂ n) · 2^i` for
/// `i = 1, …, log₂(n) − 1` (at least one round).
fn round_sizes(n: usize, ell: f64) -> impl Iterator<Item = usize> {
    let log2n = (n as f64).log2();
    let rounds = log2n.floor() as i32 - 1;
    let base = 6.0 * ell * (n as f64).ln() + 6.0 * log2n.max(1.0).ln();
    (1..=rounds.max(1)).map(move |i| (base * 2f64.powi(i)).ceil() as usize)
}

impl<'a> KptEstimator<'a> {
    /// Creates a serial estimator drawing its own RR samples via `sampler`.
    pub fn new(sampler: RrSampler<'a>, ell: f64, seed: u64) -> Self {
        Self::with_config(sampler, ell, SamplingConfig::serial(seed))
    }

    /// Creates an estimator drawing its samples through a parallel engine
    /// with the given configuration.
    pub fn with_config(sampler: RrSampler<'a>, ell: f64, config: SamplingConfig) -> Self {
        let g = sampler.graph();
        KptEstimator {
            sampler,
            m: width_bound(&sampler),
            ell,
            widths: WidthCache::default(),
            engine: ParallelSampler::new(config, g.num_nodes()),
            memo: EstimateMemo::default(),
        }
    }

    /// Tops the width cache up to `target` samples: one engine batch,
    /// coded into the cache as it is drawn.
    fn fill_widths(&mut self, target: usize, fast: Option<&FastPath<'_>>) {
        if self.widths.len() >= target {
            return;
        }
        let need = target - self.widths.len();
        let g = self.sampler.graph();
        self.engine
            .sample_map_with(&self.sampler, fast, need, &mut self.widths, |set| {
                let w: u64 = set.iter().map(|&v| g.in_degree(v) as u64).sum();
                u32::try_from(w).expect("w(R) ≤ m, which fits a u32")
            });
    }

    /// KPT lower bound on `OPT_s` (Tang et al. Algorithm 2). Always ≥ 1.
    ///
    /// Samples in geometric rounds `i = 1, 2, …, log₂(n) − 1`; in round `i`
    /// it uses `c_i = (6ℓ ln n + 6 ln log₂ n) · 2^i` samples and accepts as
    /// soon as the mean of `κ(R) = 1 − (1 − w(R)/m)^s` exceeds `2^{-i}`.
    pub fn estimate(&mut self, s: usize) -> f64 {
        self.estimate_with(s, None)
    }

    /// [`Self::estimate`], optionally drawing its batches through a
    /// precomputed [`FastPath`]. Bit-identical result either way — the
    /// fast route preserves the width stream exactly, so mixing plain
    /// and fast calls against one estimator is sound.
    ///
    /// More than `n` seeds cannot be chosen, so `s` is read as
    /// `s.min(n)`. An `s` asked before is answered from the memo without
    /// touching the width cache or the engine; the first call would have
    /// left both where a repeat finds them, so `samples_used` and the
    /// stream position do not tell the two apart.
    pub fn estimate_with(&mut self, s: usize, fast: Option<&FastPath<'_>>) -> f64 {
        let n = self.sampler.graph().num_nodes();
        if self.m == 0 {
            return 1.0;
        }
        let s = s.min(n);
        if let Some(kpt) = self.memo.get(s) {
            tirm_obs::registry::KPT_ESTIMATE_HITS.inc();
            return kpt;
        }
        tirm_obs::registry::KPT_ESTIMATE_MISSES.inc();
        let kpt = self.sum_rounds(s, fast);
        self.memo.put(s, kpt);
        kpt
    }

    /// The geometric rounds of [`Self::estimate`]. Round `i` extends the
    /// running sum of round `i − 1` over widths `c_{i−1}..c_i`, decoded
    /// from where the last round stopped: the additions happen in index
    /// order from 0 whichever round they belong to, so every partial sum
    /// is the one a fresh pass over widths `..c_i` would reach, to the
    /// bit.
    fn sum_rounds(&mut self, s: usize, fast: Option<&FastPath<'_>>) -> f64 {
        let n = self.sampler.graph().num_nodes();
        let exponent = i32::try_from(s).unwrap_or(i32::MAX);
        let mut sum = 0.0f64;
        let mut summed = 0;
        // Byte offset of width `summed`.
        let mut at = 0;
        for (i, ci) in (1..).zip(round_sizes(n, self.ell)) {
            self.fill_widths(ci, fast);
            for _ in summed..ci {
                let w = self.widths.read(&mut at);
                let frac = (f64::from(w) / self.m as f64).min(1.0);
                sum += 1.0 - (1.0 - frac).powi(exponent);
            }
            summed = ci;
            if sum / ci as f64 > 1.0 / 2f64.powi(i) {
                return (n as f64 * sum / (2.0 * ci as f64)).max(1.0);
            }
        }
        1.0
    }

    /// Draws the width cache of a fresh estimator up to the `samples` an
    /// earlier one with the same `(sampler, ell, config)` had drawn, in
    /// the batches [`Self::estimate`] draws them in (one per round), so
    /// the cache comes back with the same contents, the same engine
    /// position and the same capacity. An estimator only ever holds
    /// nothing or a whole number of rounds; any other `samples` is
    /// refused before a set is drawn.
    pub fn refill(&mut self, samples: usize, fast: Option<&FastPath<'_>>) -> Result<(), String> {
        let n = self.sampler.graph().num_nodes();
        if samples != 0 && !round_sizes(n, self.ell).any(|ci| ci == samples) {
            return Err(format!(
                "{samples} KPT samples is not the end of an estimation round over {n} nodes"
            ));
        }
        for ci in round_sizes(n, self.ell).take_while(|&ci| ci <= samples) {
            self.fill_widths(ci, fast);
        }
        Ok(())
    }

    /// The restart-per-round loop [`Self::sum_rounds`] replaced, kept as
    /// the oracle for its bits: no memo, no carried sum, and the exponent
    /// cast it used to make.
    #[cfg(test)]
    fn estimate_reference(&mut self, s: usize, fast: Option<&FastPath<'_>>) -> f64 {
        let n = self.sampler.graph().num_nodes();
        if self.m == 0 {
            return 1.0;
        }
        let log2n = (n as f64).log2();
        let rounds = log2n.floor() as i32 - 1;
        let base = 6.0 * self.ell * (n as f64).ln() + 6.0 * log2n.max(1.0).ln();
        for i in 1..=rounds.max(1) {
            let ci = (base * 2f64.powi(i)).ceil() as usize;
            self.fill_widths(ci, fast);
            let mut sum = 0.0f64;
            for &w in &self.widths.decode_all()[..ci] {
                let frac = (f64::from(w) / self.m as f64).min(1.0);
                sum += 1.0 - (1.0 - frac).powi(s as i32);
            }
            if sum / ci as f64 > 1.0 / 2f64.powi(i) {
                return (n as f64 * sum / (2.0 * ci as f64)).max(1.0);
            }
        }
        1.0
    }

    /// Number of estimation samples drawn so far (diagnostics).
    pub fn samples_used(&self) -> usize {
        self.widths.len()
    }

    /// Detaches the estimator's persistent capital — the width cache with
    /// the answers already summed from it, and the sampling-engine stream
    /// position — for storage by a long-lived owner across borrow scopes.
    pub fn into_state(self) -> KptState {
        KptState {
            widths: self.widths,
            engine: self.engine,
            memo: self.memo,
        }
    }

    /// Rebuilds an estimator around previously detached state. The
    /// sampler must project the same graph/probabilities and the state
    /// must come from an estimator with the same configuration, or the
    /// width stream would be inconsistent.
    pub fn from_state(sampler: RrSampler<'a>, ell: f64, state: KptState) -> Self {
        KptEstimator {
            sampler,
            m: width_bound(&sampler),
            ell,
            widths: state.widths,
            engine: state.engine,
            memo: state.memo,
        }
    }
}

/// `m`, the bound on every width `w(R)`, checked to fit the `u32` the
/// width cache codes.
fn width_bound(sampler: &RrSampler<'_>) -> usize {
    let m = sampler.graph().num_edges();
    assert!(
        u32::try_from(m).is_ok(),
        "{m} arcs overflow the u32 width cache"
    );
    m
}

/// Detached [`KptEstimator`] capital: the cached sample widths, the
/// answers summed from them, and the estimation engine's stream position.
/// Owning this (instead of the estimator itself) avoids tying a
/// long-lived structure to the graph borrow inside `RrSampler`.
pub struct KptState {
    widths: WidthCache,
    engine: ParallelSampler,
    memo: EstimateMemo,
}

impl KptState {
    /// Bytes held: the width cache's byte capacity, plus the estimation
    /// engine's RNG states.
    pub fn memory_bytes(&self) -> usize {
        self.widths.capacity() + self.engine.memory_bytes()
    }

    /// Estimation samples drawn so far — with the estimator's
    /// configuration, all [`KptEstimator::refill`] needs to rebuild this
    /// state.
    pub fn samples_used(&self) -> usize {
        self.widths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedRrCollection;
    use proptest::Strategy;
    use tirm_diffusion::mc_spread;
    use tirm_graph::{generators, NodeId};

    /// TIM end to end: KPT sizes θ through [`SampleBound`], θ sets are
    /// drawn, and greedy max-cover picks `s` seeds, each covering its
    /// sets outright (`δ = 1`). Returns the seeds and the coverage
    /// estimate `n · covered / θ` of their spread.
    fn max_cover(sampler: &RrSampler<'_>, s: usize, eps: f64, seed: u64) -> (Vec<NodeId>, f64) {
        let n = sampler.graph().num_nodes();
        let kpt = KptEstimator::new(*sampler, 1.0, seed ^ 0x9e37_79b9).estimate(s);
        let theta = SampleBound::new(n, eps).theta(s, kpt);
        let mut coll = WeightedRrCollection::new(n);
        ParallelSampler::new(SamplingConfig::serial(seed), n)
            .sample_into(sampler, theta, &mut coll);
        let mut seeds = Vec::with_capacity(s);
        while seeds.len() < s {
            let Some((v, _)) = coll.argmax_score(|v| !seeds.contains(&v)) else {
                break;
            };
            coll.decay_node(v, 1.0);
            seeds.push(v);
        }
        (seeds, n as f64 * coll.deficit() / theta as f64)
    }

    #[test]
    fn lambda_grows_with_s_and_shrinks_with_eps() {
        let b1 = SampleBound::new(1000, 0.1);
        assert!(b1.lambda(10) > b1.lambda(1));
        let b2 = SampleBound::new(1000, 0.2);
        assert!(b2.lambda(10) < b1.lambda(10));
    }

    #[test]
    fn theta_caps_and_floors() {
        let mut b = SampleBound::new(100, 0.2);
        b.max_theta = Some(500);
        assert!(b.lambda(5) > 500.0);
        assert_eq!(b.theta(5, 1.0), 500);
        assert_eq!(b.theta(1, 1e12), 1);
    }

    #[test]
    fn kpt_never_exceeds_opt_on_star() {
        // Star hub with p = 0.5, n = 101: OPT_1 = 1 + 100·0.5 = 51. KPT is
        // driven by *random*-seed spread, so on a star it is very loose
        // (the TIM paper's fallback of 1 is expected) — but it must stay a
        // valid lower bound.
        let g = generators::star(101);
        let probs = vec![0.5f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let mut est = KptEstimator::new(sampler, 1.0, 3);
        let kpt = est.estimate(1);
        assert!((1.0..=51.0 * 1.3).contains(&kpt), "KPT {kpt} out of range");
    }

    #[test]
    fn kpt_reasonably_tight_on_er() {
        // On an ER graph random seeds are representative, so KPT should be
        // a non-trivial fraction of the spread TIM's own seed achieves.
        let g = generators::erdos_renyi(500, 4000, 2);
        let probs = vec![0.15f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let mut est = KptEstimator::new(sampler, 1.0, 4);
        let kpt = est.estimate(10);
        let (seeds, _) = max_cover(&sampler, 10, 0.2, 8);
        let opt_proxy = mc_spread(&g, &probs, &seeds, None, 5_000, 1);
        assert!(kpt >= 1.0);
        assert!(
            kpt <= opt_proxy * 1.2,
            "KPT {kpt} exceeds achievable spread {opt_proxy}"
        );
        assert!(
            kpt >= opt_proxy / 50.0,
            "KPT {kpt} uselessly loose vs {opt_proxy}"
        );
    }

    #[test]
    fn estimate_is_pure_in_s_and_state_round_trips() {
        let g = generators::erdos_renyi(300, 1500, 5);
        let probs = vec![0.1f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        // Purity: asking for s=5 after s=1 gives the same value as asking
        // for s=5 first (the width cache is a prefix of one fixed stream).
        let mut warmed = KptEstimator::new(sampler, 1.0, 9);
        let _ = warmed.estimate(1);
        let via_history = warmed.estimate(5);
        let mut fresh = KptEstimator::new(sampler, 1.0, 9);
        assert_eq!(fresh.estimate(5), via_history);
        // State round trip: detach + re-attach preserves estimates and
        // never redraws cached widths.
        let used = warmed.samples_used();
        let state = warmed.into_state();
        assert_eq!(
            state.memory_bytes(),
            state.widths.capacity() + state.engine.memory_bytes()
        );
        let mut back = KptEstimator::from_state(sampler, 1.0, state);
        assert_eq!(back.samples_used(), used);
        assert_eq!(back.estimate(5), via_history);
        assert_eq!(back.samples_used(), used, "cache hit, no new draws");
    }

    #[test]
    fn refill_takes_round_ends_only() {
        let g = generators::erdos_renyi(300, 1500, 5);
        let probs = vec![0.02f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        // Sparse enough that s = 1 walks several rounds.
        let mut held = KptEstimator::new(sampler, 1.0, 9);
        held.estimate(1);
        let used = held.samples_used();
        let sizes: Vec<usize> = round_sizes(300, 1.0).collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert!(sizes[1..].contains(&used), "{used} in {sizes:?}");

        let mut again = KptEstimator::new(sampler, 1.0, 9);
        again.refill(used, None).unwrap();
        assert_eq!(again.widths, held.widths);
        assert_eq!(again.widths.capacity(), held.widths.capacity());
        assert_eq!(again.estimate(7).to_bits(), held.estimate(7).to_bits());

        let drawn = |samples| {
            let mut est = KptEstimator::new(sampler, 1.0, 9);
            est.refill(samples, None).map(|()| est.samples_used())
        };
        assert_eq!(drawn(0), Ok(0));
        assert_eq!(drawn(sizes[0]), Ok(sizes[0]));
        for bad in [1, sizes[0] + 1, sizes[sizes.len() - 1] + 1, usize::MAX] {
            assert!(drawn(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn width_cache_capacity_stays_within_a_tenth_of_its_bytes() {
        // Mean in-degree 30: many widths take two bytes, so each round
        // overflows the byte a width it reserved up front.
        let g = generators::erdos_renyi(300, 9000, 5);
        let probs = vec![0.02f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let mut est = KptEstimator::new(sampler, 1.0, 9);
        for ci in round_sizes(300, 1.0) {
            est.refill(ci, None).unwrap();
            let (cap, coded) = (est.widths.capacity(), est.widths.bytes.len());
            assert!(coded > ci, "{coded} bytes for {ci} widths");
            assert!(10 * cap <= 11 * coded, "{cap} bytes for {coded} at {ci}");
        }
    }

    #[test]
    fn exponent_beyond_the_graph_reads_as_n() {
        // `powi(s as i32)` used to wrap: negative for 2³¹ (every term ≤ 0,
        // all rounds sampled, answer 1.0), a smaller `s` for 2³² + 5.
        let g = generators::erdos_renyi(300, 1500, 5);
        let probs = vec![0.1f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let at_n = KptEstimator::new(sampler, 1.0, 9).estimate(300);
        assert!(at_n > 1.0, "a non-trivial bound to compare against");
        for s in [usize::MAX, 1 << 31, (1 << 32) + 5, 301] {
            let mut est = KptEstimator::new(sampler, 1.0, 9);
            assert_eq!(est.estimate(s).to_bits(), at_n.to_bits(), "s = {s}");
        }
    }

    #[test]
    fn width_codes_round_trip_at_their_boundaries() {
        let widths = [
            0,
            127,
            128,
            16_383,
            16_384,
            (1 << 21) - 1,
            1 << 21,
            1 << 28,
            u32::MAX,
        ];
        let lens = [1, 1, 2, 2, 3, 3, 4, 5, 5];
        for (&w, &len) in widths.iter().zip(&lens) {
            let mut cache = WidthCache::default();
            cache.push(w);
            assert_eq!((cache.bytes.len(), code_len(w)), (len, len), "{w}");
            assert_eq!(cache.decode_all(), [w]);
        }
        let mut cache = WidthCache::default();
        cache.extend(widths);
        assert_eq!(cache.len(), widths.len());
        assert_eq!(cache.bytes.len(), lens.iter().sum::<usize>());
        assert_eq!(cache.decode_all(), widths);
    }

    proptest::proptest! {
        #[test]
        fn width_stream_decodes_to_itself_in_any_batch_split(
            // Uniform over code lengths, not over values (where almost
            // every width would take five bytes).
            widths in proptest::collection::vec(
                (0u32..=32, 0u32..=u32::MAX)
                    .prop_map(|(bits, raw)| raw.checked_shr(32 - bits).unwrap_or(0)),
                0..600,
            ),
            cuts in proptest::collection::vec(0usize..600, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(widths.len())).collect();
            cuts.push(0);
            cuts.push(widths.len());
            cuts.sort_unstable();
            let mut cache = WidthCache::default();
            for batch in cuts.windows(2) {
                cache.extend(widths[batch[0]..batch[1]].iter().copied());
                let coded = cache.bytes.len();
                let cap = cache.capacity();
                proptest::prop_assert!(16 * cap <= 17 * coded, "{cap} bytes for {coded}");
            }
            proptest::prop_assert_eq!(cache.len(), widths.len());
            // One byte per started group of seven bits.
            let coded: usize = widths.iter().map(|&w| w.max(1).ilog2() as usize / 7 + 1).sum();
            proptest::prop_assert_eq!(cache.bytes.len(), coded);
            proptest::prop_assert_eq!(cache.decode_all(), widths);
        }
    }

    #[test]
    fn memo_keeps_the_most_recently_used_answers() {
        let mut memo = EstimateMemo::default();
        assert_eq!(memo.get(1), None);
        for s in 1..=MEMO_CAPACITY {
            memo.put(s, s as f64);
        }
        // Touch the oldest, then overflow: the untouched oldest goes.
        assert_eq!(memo.get(1), Some(1.0));
        memo.put(99, 99.0);
        assert_eq!(memo.get(2), None);
        assert_eq!(memo.get(1), Some(1.0));
        assert_eq!(memo.get(99), Some(99.0));
        assert_eq!(memo.get(MEMO_CAPACITY), Some(MEMO_CAPACITY as f64));
    }

    /// The restart-per-round loop is the oracle: whatever was asked
    /// before, whichever route draws, and wherever the state has been in
    /// between, every answer has its bits and the width cache is as long
    /// as its own. Returns the largest width cached.
    fn check_against_reference(
        seed: u64,
        n: usize,
        p: f32,
        threads: usize,
        pool: &[usize],
        asks: &[(usize, u8)],
    ) -> u32 {
        let g = generators::erdos_renyi(n, 4 * n, seed);
        let probs: Vec<f32> = (0..g.num_edges())
            .map(|e| {
                if e % 7 == 0 {
                    0.0
                } else {
                    p * (1 + e % 3) as f32 / 3.0
                }
            })
            .collect();
        let sampler = RrSampler::new(&g, &probs);
        let layout = std::sync::Arc::new(if seed % 2 == 0 {
            crate::SamplingLayout::identity()
        } else {
            crate::SamplingLayout::degree_ordered(&g)
        });
        let fast = FastPath::new(layout, &g, &probs);
        let config = SamplingConfig::new(threads, seed ^ 0x5eed);
        let mut est = KptEstimator::with_config(sampler, 1.0, config);
        let mut oracle = KptEstimator::with_config(sampler, 1.0, config);
        for (k, &(which, through_fast)) in asks.iter().enumerate() {
            if k == asks.len() / 3 {
                est = KptEstimator::from_state(sampler, 1.0, est.into_state());
            }
            if k == 2 * asks.len() / 3 {
                // Rebuilt from its sample count alone: same widths, same
                // engine position, same bytes.
                let held = est.into_state();
                est = KptEstimator::with_config(sampler, 1.0, config);
                est.refill(held.samples_used(), Some(&fast)).unwrap();
                assert_eq!(&est.widths, &held.widths);
                let redrawn = est.into_state();
                assert_eq!(redrawn.memory_bytes(), held.memory_bytes());
                est = KptEstimator::from_state(sampler, 1.0, redrawn);
            }
            // Bit-identity is claimed for every s ≤ n.
            let s = 1 + (pool[which] - 1) % n;
            let route = (through_fast == 1).then_some(&fast);
            let got = est.estimate_with(s, route);
            let want = oracle.estimate_reference(s, route);
            assert_eq!(got.to_bits(), want.to_bits(), "ask {k} s = {s}");
            assert_eq!(est.samples_used(), oracle.samples_used());
        }
        est.widths.decode_all().into_iter().max().unwrap_or(0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn estimate_matches_the_reference_loop(
            seed in 0u64..1000,
            n in 16usize..200,
            p in 0.01f32..0.6,
            threads in 1usize..=3,
            pool in proptest::collection::vec(1usize..400, MEMO_CAPACITY + 4),
            asks in proptest::collection::vec((0..MEMO_CAPACITY + 4, 0u8..2), 12..40),
        ) {
            check_against_reference(seed, n, p, threads, &pool, &asks);
        }
    }

    /// The same property over 1 000 cases, for the nightly run:
    /// `cargo test --release -p tirm_rrset --lib -- --ignored estimate_matches_the_reference_loop_soak`.
    /// Its graphs and probabilities reach widths of 128 and more, whose
    /// codes take two bytes, and it fails if no case cached one.
    #[test]
    #[ignore]
    fn estimate_matches_the_reference_loop_soak() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static MULTI_BYTE_CASES: AtomicUsize = AtomicUsize::new(0);
        proptest::proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1000))]

            fn soak(
                seed in 0u64..100_000,
                n in 16usize..600,
                p in 0.01f32..0.9,
                threads in 1usize..=3,
                pool in proptest::collection::vec(1usize..400, MEMO_CAPACITY + 4),
                asks in proptest::collection::vec((0..MEMO_CAPACITY + 4, 0u8..2), 12..40),
            ) {
                if check_against_reference(seed, n, p, threads, &pool, &asks) >= 0x80 {
                    MULTI_BYTE_CASES.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        soak();
        let cases = MULTI_BYTE_CASES.load(Ordering::Relaxed);
        assert!(cases > 0, "no case cached a width of two bytes or more");
        println!("{cases} cases cached a multi-byte width");
    }

    #[test]
    fn widths_are_the_per_set_sums_of_the_stream() {
        // The decoded cache against the u64 sums of the same sets, drawn
        // again by a fresh engine under the estimator's configuration.
        // The denser graph's widths run past 127, into two-byte codes.
        for arcs in [1500, 9000] {
            let g = generators::erdos_renyi(300, arcs, 5);
            let probs = vec![0.02f32; g.num_edges()];
            let sampler = RrSampler::new(&g, &probs);
            let layout = std::sync::Arc::new(crate::SamplingLayout::degree_ordered(&g));
            let fast = FastPath::new(layout, &g, &probs);
            for threads in 1..=3 {
                for route in [None, Some(&fast)] {
                    let config = SamplingConfig::new(threads, 9);
                    let mut est = KptEstimator::with_config(sampler, 1.0, config);
                    est.estimate_with(1, route);
                    let used = est.samples_used();
                    assert!(
                        used > round_sizes(300, 1.0).next().unwrap(),
                        "several rounds"
                    );
                    let mut sets: Vec<Vec<NodeId>> = Vec::new();
                    ParallelSampler::new(config, g.num_nodes())
                        .sample_into(&sampler, used, &mut sets);
                    let want: Vec<u64> = sets
                        .iter()
                        .map(|set| set.iter().map(|&v| g.in_degree(v) as u64).sum())
                        .collect();
                    let got: Vec<u64> =
                        est.widths.decode_all().into_iter().map(u64::from).collect();
                    assert_eq!(arcs > 1500, got.iter().any(|&w| w >= 0x80));
                    assert_eq!(
                        got,
                        want,
                        "arcs = {arcs}, threads = {threads}, fast = {}",
                        route.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn kpt_monotone_in_s() {
        let g = generators::erdos_renyi(300, 1500, 5);
        let probs = vec![0.1f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let mut est = KptEstimator::new(sampler, 1.0, 9);
        let k1 = est.estimate(1);
        let k5 = est.estimate(5);
        let k20 = est.estimate(20);
        assert!(k5 >= k1 * 0.99, "{k5} vs {k1}");
        assert!(k20 >= k5 * 0.99, "{k20} vs {k5}");
    }

    #[test]
    fn tim_finds_the_hub() {
        let g = generators::star(60);
        let probs = vec![0.4f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let (seeds, spread_estimate) = max_cover(&sampler, 1, 0.2, 7);
        assert_eq!(seeds, vec![0], "hub must be the best single seed");
        // σ({0}) = 1 + 59·0.4 = 24.6; the estimate must be within ε·OPT-ish.
        assert!(
            (spread_estimate - 24.6).abs() < 3.0,
            "estimate {spread_estimate}"
        );
    }

    #[test]
    fn tim_spread_estimate_matches_mc() {
        let g = generators::preferential_attachment(400, 3, 0.2, 1);
        let probs = vec![0.08f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let (seeds, spread_estimate) = max_cover(&sampler, 5, 0.2, 11);
        assert_eq!(seeds.len(), 5);
        let mc = mc_spread(&g, &probs, &seeds, None, 20_000, 5);
        let rel = (spread_estimate - mc).abs() / mc.max(1.0);
        assert!(
            rel < 0.15,
            "coverage estimate {spread_estimate} vs MC {mc} (rel {rel})"
        );
    }
}
